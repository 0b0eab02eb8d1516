//! Property tests for the wire protocol, mirroring the store's
//! `segment_props.rs`: every frame type round-trips encode → decode
//! exactly; truncated and bit-flipped frames are rejected without
//! panics; and ingest frames are WAL records **verbatim** — a captured
//! ingest byte stream, prefixed with the WAL magic, scans and replays
//! through `hierod_store::wal` unchanged.

use std::collections::BTreeMap;
use std::io::{Cursor, Read};

use proptest::prelude::*;

use hierod_core::detect_level::{LevelDetections, LevelOutlier, SeriesScores, VectorScore};
use hierod_core::{HierOutlier, HierReport, Warning};
use hierod_hierarchy::{Level, PhaseKind};
use hierod_history::ScanStats;
use hierod_store::wal::{self, WalRecord, WAL_MAGIC};
use hierod_stream::{
    Health, LaneId, LaneKind, LaneStats, PlantHealth, RecoverySummary, Sample, StreamReport,
    StreamStats,
};
use hierod_wire::{
    decode_report, encode_report, without_columns, write_frame, ErrorCode, Frame, FrameReader,
    LaneColumns, LevelSeries, Poll, SeriesQuery,
};

// -----------------------------------------------------------------
// Generators (the shim has no regex strategies: build strings from
// index vectors over an explicit alphabet).

const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789._-";

fn arb_str() -> impl Strategy<Value = String> {
    prop::collection::vec(0_usize..NAME_CHARS.len(), 0..10).prop_map(|idx| {
        idx.iter()
            .map(|&i| NAME_CHARS[i % NAME_CHARS.len()] as char)
            .collect()
    })
}

fn arb_opt_str() -> impl Strategy<Value = Option<String>> {
    (0_u8..2, arb_str()).prop_map(|(sel, s)| (sel == 1).then_some(s))
}

/// Floats including the awkward ones: NaN and infinities must survive
/// the wire bit-exactly.
fn arb_f64() -> impl Strategy<Value = f64> {
    (0_u8..6, -1.0e12_f64..1.0e12).prop_map(|(sel, v)| match sel {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        _ => v,
    })
}

fn arb_level() -> impl Strategy<Value = Level> {
    (1_u8..6).prop_map(|n| Level::from_number(n).unwrap_or(Level::Phase))
}

fn arb_opt_level() -> impl Strategy<Value = Option<Level>> {
    (0_u8..2, arb_level()).prop_map(|(sel, l)| (sel == 1).then_some(l))
}

fn arb_opt_phase() -> impl Strategy<Value = Option<PhaseKind>> {
    (0_u8..6).prop_map(|sel| match sel {
        0 => None,
        1 => Some(PhaseKind::Preparation),
        2 => Some(PhaseKind::WarmUp),
        3 => Some(PhaseKind::Calibration),
        4 => Some(PhaseKind::Printing),
        _ => Some(PhaseKind::Cooling),
    })
}

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    (0_u8..2, any::<u64>()).prop_map(|(sel, v)| (sel == 1).then_some(v))
}

fn arb_outlier() -> impl Strategy<Value = HierOutlier> {
    (
        (arb_level(), arb_str(), arb_opt_str(), arb_opt_phase()),
        (arb_opt_str(), arb_opt_u64(), arb_opt_u64()),
        (arb_f64(), arb_f64(), any::<u8>()),
    )
        .prop_map(
            |(
                (level, machine, job, phase),
                (sensor, index, timestamp),
                (outlierness, support, global_score),
            )| HierOutlier {
                level,
                machine: machine.into(),
                job: job.map(Into::into),
                phase,
                sensor: sensor.map(Into::into),
                index: index.map(|i| i as usize),
                timestamp,
                outlierness,
                support,
                global_score,
            },
        )
}

fn arb_outliers() -> impl Strategy<Value = Vec<HierOutlier>> {
    prop::collection::vec(arb_outlier(), 0..4)
}

fn arb_lane() -> impl Strategy<Value = LaneId> {
    (0_u8..2, arb_str(), arb_str()).prop_map(|(kind, machine, sensor)| LaneId {
        machine,
        sensor,
        kind: if kind == 0 {
            LaneKind::Phase
        } else {
            LaneKind::Environment
        },
    })
}

fn arb_lane_stats() -> impl Strategy<Value = Vec<(LaneId, LaneStats)>> {
    prop::collection::vec(
        (
            arb_lane(),
            (
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
            ),
        ),
        0..4,
    )
    .prop_map(|lanes| {
        // Deduplicate lanes: reply frames carry a map flattened to a
        // sorted vec, so generator duplicates would not round-trip.
        let map: BTreeMap<LaneId, LaneStats> = lanes
            .into_iter()
            .map(|(lane, (a, b, c, d, e, f))| {
                (
                    lane,
                    LaneStats {
                        released: a,
                        late_dropped: b,
                        duplicates_dropped: c,
                        corrupt_records: d,
                        drift_events: e,
                        refits: f,
                    },
                )
            })
            .collect();
        map.into_iter().collect()
    })
}

fn arb_stream_stats() -> impl Strategy<Value = StreamStats> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(|(a, b, c, (d, e, f, g, h))| StreamStats {
            samples_ingested: a,
            samples_released: b,
            late_dropped: c,
            duplicates_dropped: d,
            series_failed: e,
            corrupt_records: f,
            drift_events: g,
            refits: h,
        })
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..24)
}

fn arb_wal_record() -> impl Strategy<Value = WalRecord> {
    (0_u8..3, any::<u32>(), any::<u64>(), arb_f64(), arb_bytes()).prop_map(
        |(sel, lane, n, value, bytes)| match sel {
            0 => WalRecord::LaneDef { lane, meta: bytes },
            1 => WalRecord::Control {
                seq: n,
                payload: bytes,
            },
            _ => WalRecord::Sample {
                lane,
                timestamp: n,
                value,
            },
        },
    )
}

fn arb_health() -> impl Strategy<Value = Health> {
    (
        prop::collection::vec(
            (
                arb_str(),
                (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            ),
            0..3,
        ),
        prop::collection::vec((arb_str(), arb_str()), 0..3),
    )
        .prop_map(|(live, failed)| Health {
            live: live
                .into_iter()
                .map(|(id, (a, b, c, d))| PlantHealth {
                    id,
                    recovery: RecoverySummary {
                        controls_applied: a,
                        restored_samples: b,
                        replayed_samples: c,
                        corrupt_records: d,
                    },
                })
                .collect(),
            failed,
        })
}

fn arb_scan_stats() -> impl Strategy<Value = ScanStats> {
    (0_usize..100, 0_usize..100, 0_usize..100, any::<u64>()).prop_map(|(t, p, d, s)| ScanStats {
        chunks_total: t,
        chunks_pruned: p,
        chunks_decoded: d,
        samples: s,
    })
}

/// Lane column triples for [`Frame::Series`]: index-aligned timestamp
/// and value columns per lane.
fn arb_series_lanes() -> impl Strategy<Value = Vec<LaneColumns>> {
    prop::collection::vec(
        (
            arb_lane(),
            prop::collection::vec((any::<u64>(), arb_f64()), 0..5),
        ),
        0..4,
    )
    .prop_map(|lanes| {
        lanes
            .into_iter()
            .map(|(lane, points)| {
                (
                    lane,
                    points.iter().map(|&(t, _)| t).collect(),
                    points.iter().map(|&(_, v)| v).collect(),
                )
            })
            .collect()
    })
}

/// A series' key: machine, job, phase, sensor.
fn arb_series_key() -> impl Strategy<Value = (String, Option<String>, Option<PhaseKind>, String)> {
    (arb_str(), arb_opt_str(), arb_opt_phase(), arb_str())
}

fn series_of(
    (machine, job, phase, sensor): (String, Option<String>, Option<PhaseKind>, String),
    points: &[(u64, f64)],
) -> SeriesScores {
    SeriesScores {
        machine: machine.into(),
        job: job.map(Into::into),
        phase,
        sensor: sensor.into(),
        timestamps: points.iter().map(|&(t, _)| t).collect(),
        z: points.iter().map(|&(_, z)| z).collect(),
    }
}

/// Level series for [`Frame::SeriesScores`]: keys with short columns.
fn arb_level_series() -> impl Strategy<Value = Vec<LevelSeries>> {
    prop::collection::vec(
        (
            arb_level(),
            arb_series_key(),
            prop::collection::vec((any::<u64>(), arb_f64()), 0..5),
        ),
        0..4,
    )
    .prop_map(|series| {
        series
            .into_iter()
            .map(|(level, key, points)| (level, series_of(key, &points)))
            .collect()
    })
}

/// One strategy covering every [`Frame`] variant via a selector over a
/// shared pool of ingredients.
fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        (0_u8..23, arb_wal_record(), arb_str(), 0_u8..2),
        (any::<u64>(), any::<u64>(), arb_opt_level(), 1_u8..8),
        (arb_outliers(), arb_outliers(), arb_stream_stats()),
        (arb_lane_stats(), arb_health(), arb_bytes()),
        (
            (arb_opt_str(), arb_opt_str()),
            arb_series_lanes(),
            arb_scan_stats(),
        ),
        arb_level_series(),
    )
        .prop_map(
            |(
                (sel, record, text, flag),
                (v1, v2, level, ecode),
                (added, removed, stats),
                (lanes, health, bytes),
                ((machine, sensor), series_lanes, scan_stats),
                level_series,
            )| match sel {
                0 => Frame::Ingest(record),
                1 => Frame::Admit {
                    plant: text,
                    create: flag == 1,
                },
                2 => Frame::Tick,
                3 => Frame::Finish,
                4 => Frame::QueryScores { level },
                5 => Frame::QueryLaneStats,
                6 => Frame::QueryDeltas { since: v1 },
                7 => Frame::QueryHealth,
                8 => Frame::Ok { info: v1 },
                9 => Frame::Error {
                    code: ErrorCode::from_code(ecode).unwrap_or(ErrorCode::Protocol),
                    message: text,
                },
                10 => Frame::TickDone {
                    version: v1,
                    outliers: v2,
                },
                11 => Frame::Report {
                    version: v1,
                    report: bytes,
                },
                12 => Frame::Scores {
                    version: v1,
                    outliers: added,
                },
                13 => Frame::LaneStatsReply { stats, lanes },
                14 => Frame::Deltas {
                    from: v1,
                    to: v2,
                    added,
                    removed,
                },
                15 => Frame::NoChange { version: v1 },
                16 => Frame::HealthReply(health),
                17 => Frame::RangeScan {
                    start: v1,
                    end: v2,
                    machine,
                    sensor,
                },
                18 => Frame::Backfill {
                    start: v1,
                    end: v2,
                    spec: machine,
                },
                19 => Frame::Series {
                    lanes: series_lanes,
                    stats: scan_stats,
                },
                20 => Frame::QuerySeries {
                    level,
                    machine,
                    sensor,
                    start: v1,
                    end: v2,
                },
                21 => Frame::SeriesScores {
                    version: v1,
                    series: level_series,
                },
                _ => Frame::BackfillDone {
                    report: bytes,
                    controls_replayed: v1,
                    samples_replayed: v2,
                    samples_skipped: v1.wrapping_add(v2),
                },
            },
        )
}

fn arb_report() -> impl Strategy<Value = StreamReport> {
    (
        prop::collection::vec(
            (
                arb_level(),
                arb_outliers(),
                prop::collection::vec(
                    (
                        arb_series_key(),
                        prop::collection::vec((any::<u64>(), arb_f64()), 0..4),
                    ),
                    0..3,
                ),
                prop::collection::vec((arb_str(), arb_str(), arb_f64()), 0..3),
            ),
            0..3,
        ),
        (
            arb_outliers(),
            prop::collection::vec((any::<u64>(), arb_level()), 0..3),
        ),
        arb_stream_stats(),
        arb_lane_stats(),
    )
        .prop_map(|(levels, (outliers, warnings), stats, lane_stats)| {
            let mut detections = BTreeMap::new();
            for (level, hier_outliers, series, vectors) in levels {
                let mut d = LevelDetections::empty(level);
                for o in hier_outliers {
                    d.outliers.push(LevelOutlier {
                        level,
                        machine: o.machine,
                        job: o.job,
                        phase: o.phase,
                        sensor: o.sensor,
                        index: o.index,
                        timestamp: o.timestamp,
                        outlierness: o.outlierness,
                        raw_score: o.support,
                    });
                }
                for (key, points) in series {
                    d.series_scores.push(series_of(key, &points));
                }
                for (machine, job, z) in vectors {
                    d.vector_scores.push(VectorScore {
                        machine: machine.into(),
                        job: job.into(),
                        z,
                    });
                }
                detections.insert(level, d);
            }
            StreamReport {
                detections,
                report: HierReport {
                    outliers,
                    warnings: warnings
                        .into_iter()
                        .map(|(idx, missing_level)| Warning::SuspectedMeasurementError {
                            outlier_idx: idx as usize,
                            missing_level,
                        })
                        .collect(),
                },
                stats,
                lane_stats: lane_stats.into_iter().collect(),
            }
        })
}

// -----------------------------------------------------------------
// Helpers

fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    frame.encode(&mut out);
    out
}

/// A reader yielding at most `chunk` bytes per read, to exercise the
/// frame reader's buffering across arbitrary fragmentation.
struct Trickle<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let rest = &self.data[self.pos..];
        let n = rest.len().min(self.chunk).min(buf.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.pos += n;
        Ok(n)
    }
}

/// NaN-tolerant equality: `Frame` holds floats, and NaN != NaN under
/// `PartialEq`; the Debug rendering is bit-faithful enough to compare.
fn same(a: &impl std::fmt::Debug, b: &impl std::fmt::Debug) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

// -----------------------------------------------------------------
// Properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_frame_round_trips(frame in arb_frame()) {
        let bytes = encode_frame(&frame);
        let mut reader = FrameReader::new();
        match reader.poll(&mut Cursor::new(&bytes)).unwrap() {
            Poll::Frame(decoded) => prop_assert!(
                same(&decoded, &frame),
                "round trip mismatch: {frame:?} -> {decoded:?}"
            ),
            other => panic!("expected a frame, got {other:?}"),
        }
        // And nothing trails: the next poll is a clean EOF.
        let mut cursor = Cursor::new(&bytes);
        cursor.set_position(bytes.len() as u64);
        prop_assert!(matches!(reader.poll(&mut cursor).unwrap(), Poll::Eof));
    }

    #[test]
    fn frame_streams_survive_arbitrary_fragmentation(
        (frames, chunk) in (prop::collection::vec(arb_frame(), 1..6), 1_usize..9)
    ) {
        let mut bytes = Vec::new();
        for frame in &frames {
            write_frame(&mut bytes, frame).unwrap();
        }
        let mut trickle = Trickle { data: &bytes, pos: 0, chunk };
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        loop {
            match reader.poll(&mut trickle).unwrap() {
                Poll::Frame(f) => decoded.push(f),
                Poll::Eof => break,
                Poll::Idle => unreachable!("trickle never blocks"),
            }
        }
        prop_assert!(same(&decoded, &frames));
    }

    #[test]
    fn truncated_frames_never_panic_and_never_yield_a_frame(
        (frame, keep_permille) in (arb_frame(), 0_usize..1000)
    ) {
        let bytes = encode_frame(&frame);
        let cut = keep_permille * bytes.len() / 1000; // strictly < len
        let mut reader = FrameReader::new();
        match reader.poll(&mut Cursor::new(&bytes[..cut])) {
            Ok(Poll::Frame(f)) => panic!("decoded a frame from a truncation: {f:?}"),
            Ok(Poll::Eof) => prop_assert_eq!(cut, 0, "EOF is only clean at offset 0"),
            Ok(Poll::Idle) => panic!("cursor reads never block"),
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        }
    }

    #[test]
    fn bit_flips_are_always_rejected(
        (frame, flip) in (arb_frame(), any::<u64>())
    ) {
        let mut bytes = encode_frame(&frame);
        let bit = (flip as usize) % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let mut reader = FrameReader::new();
        match reader.poll(&mut Cursor::new(&bytes)) {
            // A flip in the length field can only make the frame appear
            // torn (UnexpectedEof) or oversized/corrupt (InvalidData);
            // the CRC catches every single-bit payload flip.
            Err(e) => prop_assert!(matches!(
                e.kind(),
                std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
            )),
            Ok(got) => panic!("bit flip at {bit} went unnoticed: {got:?}"),
        }
    }

    #[test]
    fn arbitrary_byte_soup_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut reader = FrameReader::new();
        let mut cursor = Cursor::new(&bytes);
        // Drive to completion; any outcome but a panic is acceptable.
        for _ in 0..70 {
            match reader.poll(&mut cursor) {
                Ok(Poll::Eof) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }

    #[test]
    fn ingest_frames_are_wal_verbatim_and_replayable(
        records in prop::collection::vec(arb_wal_record(), 0..6)
    ) {
        // Capture the ingest stream exactly as it crosses the wire, one
        // frame per record.
        let mut captured = Vec::new();
        for record in &records {
            Frame::Ingest(record.clone()).encode(&mut captured);
        }
        // Byte-for-byte the WAL image of each record alone, minus the
        // magic: a sample frame is a run of one.
        let mut alone = Vec::new();
        for record in &records {
            alone.extend_from_slice(&wal::encode_image(std::slice::from_ref(record))[WAL_MAGIC.len()..]);
        }
        prop_assert_eq!(&alone, &captured);
        // And therefore replayable through the store's scanner.
        let mut replay = WAL_MAGIC.to_vec();
        replay.extend_from_slice(&captured);
        let scan = wal::scan(&replay);
        prop_assert!(scan.corruption.is_none());
        prop_assert!(same(&scan.records, &records));
        // The other way round, the WAL image — consecutive samples as one
        // run — is an ingest stream that polls as the same records.
        let image = wal::encode_image(&records);
        let (polled, broke) = drain(&image[WAL_MAGIC.len()..], usize::MAX, false);
        let as_frames: Vec<Frame> = records.iter().cloned().map(Frame::Ingest).collect();
        prop_assert!(same(&polled, &as_frames) && !broke);
    }

    #[test]
    fn reports_round_trip_and_reject_mutations(
        (report, keep_permille) in (arb_report(), 0_usize..1000)
    ) {
        let bytes = encode_report(&report);
        let decoded = decode_report(&bytes).expect("well-formed report must decode");
        // What crosses the wire is the report without its columns.
        prop_assert!(same(&decoded, &without_columns(&report)));
        // Determinism: re-encoding the decoded value is byte-identical.
        prop_assert_eq!(encode_report(&decoded), bytes.clone());
        // Truncations never panic and never decode.
        let cut = keep_permille * bytes.len() / 1000;
        prop_assert!(decode_report(&bytes[..cut]).is_none());
        // Trailing garbage is rejected too.
        let mut padded = bytes;
        padded.push(0);
        prop_assert!(decode_report(&padded).is_none());
    }
}

// -----------------------------------------------------------------
// The served ingest path: frames encoded into a reused buffer, sample
// runs taken from the reader in one go.

/// Mostly samples on a handful of lanes, now and then any other frame.
fn arb_ingest_stream() -> impl Strategy<Value = Vec<Frame>> {
    let sample = (0_u32..5, any::<u64>(), arb_f64()).prop_map(|(lane, timestamp, value)| {
        Frame::Ingest(WalRecord::Sample {
            lane,
            timestamp,
            value,
        })
    });
    let step = (0_u8..8, sample, arb_frame())
        .prop_map(|(pick, sample, other)| if pick == 0 { other } else { sample });
    prop::collection::vec(step, 0..40)
}

/// Drains `bytes` through a fresh reader in reads of at most `chunk`
/// bytes: the frames decoded before the stream ended or broke, and
/// whether it broke. With `runs`, a sample frame is followed by
/// `take_samples`, as the server does it.
fn drain(bytes: &[u8], chunk: usize, runs: bool) -> (Vec<Frame>, bool) {
    let trickle = Trickle {
        data: bytes,
        pos: 0,
        chunk,
    };
    drain_from(trickle, runs)
}

/// [`drain`] over any reader.
fn drain_from(mut trickle: impl Read, runs: bool) -> (Vec<Frame>, bool) {
    let mut reader = FrameReader::new();
    let mut frames = Vec::new();
    let mut run = Vec::new();
    loop {
        match reader.poll(&mut trickle) {
            Ok(Poll::Frame(frame)) => {
                let sample = matches!(frame, Frame::Ingest(WalRecord::Sample { .. }));
                frames.push(frame);
                if runs && sample {
                    run.clear();
                    reader.take_samples(&mut run);
                    frames.extend(run.iter().map(|&(lane, s)| {
                        Frame::Ingest(WalRecord::Sample {
                            lane,
                            timestamp: s.timestamp,
                            value: s.value,
                        })
                    }));
                }
            }
            Ok(Poll::Eof) => return (frames, false),
            Ok(Poll::Idle) => unreachable!("trickle never blocks"),
            Err(_) => return (frames, true),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn a_reused_buffer_holds_the_bytes_a_fresh_one_would(
        frames in prop::collection::vec(arb_frame(), 1..8)
    ) {
        // One buffer for every frame, as the client keeps one for its
        // ingest frames: cleared, never reallocated on the way.
        let mut reused = Vec::new();
        for frame in &frames {
            reused.clear();
            frame.encode(&mut reused);
            let mut written = Vec::new();
            write_frame(&mut written, frame).unwrap();
            prop_assert_eq!(&reused, &written);
            // And those bytes are the format: length, checksum, payload.
            let (header, payload) = reused.split_at(8);
            prop_assert_eq!(&header[..4], &(payload.len() as u32).to_le_bytes()[..]);
            prop_assert_eq!(&header[4..], &hierod_store::crc::crc32(payload).to_le_bytes()[..]);
            let decoded = Frame::decode_payload(payload).expect("decodes");
            prop_assert!(same(&decoded, frame));
        }
    }

    #[test]
    fn taking_sample_runs_is_polling_them_one_by_one(
        (frames, chunk, damage) in (arb_ingest_stream(), 1_usize..64, any::<u64>())
    ) {
        let mut bytes = Vec::new();
        for frame in &frames {
            frame.encode(&mut bytes);
        }
        let (one_by_one, broke) = drain(&bytes, chunk, false);
        prop_assert!(same(&one_by_one, &frames) && !broke);
        prop_assert!(same(&drain(&bytes, chunk, true), &(one_by_one, false)));
        // A flipped bit or a cut: a run stops in front of the damage and
        // the poll behind it reports what polling alone reports.
        if !bytes.is_empty() {
            let at = (damage % bytes.len() as u64) as usize;
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << ((damage >> 32) % 8);
            prop_assert!(same(&drain(&flipped, chunk, true), &drain(&flipped, chunk, false)));
            let cut = &bytes[..at];
            prop_assert!(same(&drain(cut, chunk, true), &drain(cut, chunk, false)));
        }
    }
}

// -----------------------------------------------------------------
// Sample runs: many samples under one frame, as the client sends them.

/// `frames` as the client sends them: consecutive samples as one run.
fn encode_coalesced(frames: &[Frame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut runs = wal::RunWriter::default();
    for frame in frames {
        match frame {
            &Frame::Ingest(WalRecord::Sample {
                lane,
                timestamp,
                value,
            }) => runs.push_sample(&mut bytes, lane, timestamp, value),
            other => {
                runs.close(&mut bytes);
                other.encode(&mut bytes);
            }
        }
    }
    runs.close(&mut bytes);
    bytes
}

/// Mostly samples close in time — long runs — now and then one far
/// away (its delta may leave `i64`, which opens a new run) or any other
/// frame.
fn arb_run_stream() -> impl Strategy<Value = Vec<Frame>> {
    let step = (
        0_u8..16,
        0_usize..8,
        0_u64..2_000,
        any::<u64>(),
        arb_f64(),
        arb_frame(),
    );
    let step = step.prop_map(|(pick, lane, near, far, value, other)| {
        // Lanes 1, 33 and 65 share a slot of a run's lane table.
        let lane = [0, 1, 2, 3, 4, 33, 65, 1 << 20][lane];
        match pick {
            0 => other,
            1 => Frame::Ingest(WalRecord::Sample {
                lane,
                timestamp: far,
                value,
            }),
            _ => Frame::Ingest(WalRecord::Sample {
                lane,
                timestamp: near,
                value,
            }),
        }
    });
    prop::collection::vec(step, 0..120)
}

/// A reader that delivers `data[..first]` in one read, then the rest.
struct SplitOnce<'a> {
    data: &'a [u8],
    first: usize,
    pos: usize,
}

impl Read for SplitOnce<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let end = if self.pos < self.first {
            self.first
        } else {
            self.data.len()
        };
        let n = (end - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A checksum-valid frame around `payload`.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    wal::put_framed(&mut out, |out| out.extend_from_slice(payload));
    out
}

/// A tag-3 run payload written field by field: `(lane, timestamp or
/// zigzag delta, value)` per sample. Senders no longer write it; the
/// reader still reads it.
fn run_payload(samples: &[(u64, u64, f64)]) -> Vec<u8> {
    let mut out = vec![3];
    for &(lane, ts, value) in samples {
        hierod_store::codec::put_varint(&mut out, lane);
        hierod_store::codec::put_varint(&mut out, ts);
        hierod_store::codec::put_f64(&mut out, value);
    }
    out
}

/// What a reader makes of a good run followed by `bad`: the samples
/// `take_samples` moved, and whether the poll behind them failed as
/// `InvalidData` having handed out nothing more.
fn behind_a_good_run(bad: &[u8]) -> (Vec<(u32, Sample)>, bool) {
    let mut bytes = framed(&run_payload(&[(1, 100, 1.0), (1, 2, 2.0)]));
    bytes.extend_from_slice(bad);
    let mut reader = FrameReader::new();
    let mut cursor = Cursor::new(&bytes);
    let Ok(Poll::Frame(first)) = reader.poll(&mut cursor) else {
        panic!("the good run polls");
    };
    let mut run = Vec::new();
    reader.take_samples(&mut run);
    let sample = Sample {
        timestamp: 101,
        value: 2.0,
    };
    assert!(same(
        &first,
        &Frame::Ingest(WalRecord::Sample {
            lane: 1,
            timestamp: 100,
            value: 1.0
        })
    ));
    assert!(same(&run.first(), &Some(&(1, sample))));
    let refused =
        matches!(reader.poll(&mut cursor), Err(e) if e.kind() == std::io::ErrorKind::InvalidData);
    (run.split_off(1), refused)
}

fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

#[test]
fn a_run_frame_cut_inside_any_field_is_refused_whole() {
    let samples = [
        (300, 1 << 40, 1.5),
        (70_000, zigzag(-7), -3.0),
        (2, zigzag(1 << 20), 0.25),
    ];
    let payload = run_payload(&samples);
    let ends: Vec<usize> = (1..=3).map(|k| run_payload(&samples[..k]).len()).collect();
    for cut in 1..payload.len() {
        if ends.contains(&cut) {
            continue;
        }
        let (taken, refused) = behind_a_good_run(&framed(&payload[..cut]));
        assert!(taken.is_empty() && refused, "cut at {cut}");
    }
}

#[test]
fn hostile_run_frames_are_refused_whole() {
    let over = run_payload(&[(0, u64::MAX - 1, 0.0), (0, zigzag(5), 0.0)]);
    let under = run_payload(&[(0, 3, 0.0), (0, zigzag(-5), 0.0)]);
    let mut trailing = run_payload(&[(0, 3, 0.0), (0, zigzag(5), 0.0)]);
    trailing.push(0);
    let step = |t: u64| (0, if t == 0 { 0 } else { zigzag(1) }, 0.5);
    let too_long = run_payload(&(0..=wal::MAX_RUN as u64).map(step).collect::<Vec<_>>());
    for (what, payload) in [
        ("delta past u64::MAX", over),
        ("delta below 0", under),
        ("trailing byte", trailing),
        ("one sample past the cap", too_long),
        ("a tag and nothing", vec![3]),
    ] {
        let (taken, refused) = behind_a_good_run(&framed(&payload));
        assert!(taken.is_empty() && refused, "{what}");
    }
    // A run's frame is the one that may be long: never longer than a
    // full run can be.
    let at_cap = run_payload(&(0..wal::MAX_RUN as u64).map(step).collect::<Vec<_>>());
    assert!(at_cap.len() <= wal::MAX_RUN_PAYLOAD);
    let (taken, refused) = behind_a_good_run(&framed(&at_cap));
    assert_eq!(taken.len(), wal::MAX_RUN);
    assert!(!refused, "nothing behind it");
}

#[test]
fn a_later_sample_past_the_lane_cap_decodes_as_a_run_of_one_naming_it_does() {
    for lane in [hierod_stream::MAX_LANES, u32::MAX] {
        let alone = framed(&run_payload(&[(u64::from(lane), 9, 1.0)]));
        let later = framed(&run_payload(&[
            (0, 8, 0.0),
            (u64::from(lane), zigzag(1), 1.0),
        ]));
        let (alone, _) = drain(&alone, usize::MAX, true);
        let (later, _) = drain(&later, usize::MAX, true);
        assert!(same(&alone.last(), &later.last()), "lane {lane}");
        assert!(same(
            &later.last(),
            &Some(Frame::Ingest(WalRecord::Sample {
                lane,
                timestamp: 9,
                value: 1.0
            }))
        ));
    }
}

/// A tag-4 run payload written field by field (`hierod_store::wal`'s
/// module docs): the first sample's lane, timestamp and value, then per
/// later sample its head byte and the bytes it says follow.
fn predicted_run(first: (u64, u64, f64), later: &[(u8, &[u8])]) -> Vec<u8> {
    let mut out = vec![4];
    hierod_store::codec::put_varint(&mut out, first.0);
    hierod_store::codec::put_varint(&mut out, first.1);
    hierod_store::codec::put_f64(&mut out, first.2);
    for &(head, rest) in later {
        out.push(head);
        out.extend_from_slice(rest);
    }
    out
}

fn ingest_sample(lane: u32, timestamp: u64, value: f64) -> Frame {
    Frame::Ingest(WalRecord::Sample {
        lane,
        timestamp,
        value,
    })
}

#[test]
fn a_tag_4_run_frame_cut_anywhere_but_between_samples_is_refused_whole() {
    // Multi-byte lanes and deltas, a lane sharing another's slot
    // (70_000 and 70_032), an implied lane and timestamp.
    let frames = [
        ingest_sample(300, 1 << 40, 1.5),
        ingest_sample(70_000, (1 << 40) - 7, -3.0),
        ingest_sample(300, (1 << 40) + 20, 1.25),
        ingest_sample(70_032, (1 << 40) + 13, -3.0),
        ingest_sample(300, (1 << 40) + 40, 1.25),
    ];
    let payload = |n: usize| encode_coalesced(&frames[..n])[8..].to_vec();
    let whole = payload(frames.len());
    let ends: Vec<usize> = (1..=frames.len()).map(|n| payload(n).len()).collect();
    for cut in 1..whole.len() {
        if ends.contains(&cut) {
            continue;
        }
        let (taken, refused) = behind_a_good_run(&framed(&whole[..cut]));
        assert!(taken.is_empty() && refused, "cut at {cut}");
    }
}

#[test]
fn hostile_tag_4_run_frames_are_refused_whole() {
    let first = (5, 1_000, 20.0);
    let lane_past_u32 = [0x80, 0x80, 0x80, 0x80, 0x10, 20];
    let implied =
        std::iter::once((0xFF, &[5_u8, 20][..])).chain(std::iter::repeat((0x3F, &[][..])));
    let too_long: Vec<(u8, &[u8])> = implied.take(wal::MAX_RUN).collect();
    for (what, payload) in [
        (
            "L clear with no lane to follow",
            predicted_run(first, &[(0x3F, &[])]),
        ),
        (
            "T clear on a lane new to the run",
            predicted_run(first, &[(0x86, &[6, 0x3E, 0x40])]),
        ),
        (
            "lll + ttt past 7",
            predicted_run(first, &[(0xE4, &[5, 20])]),
        ),
        (
            "a delta past u64::MAX",
            predicted_run((5, u64::MAX - 1, 0.0), &[(0xFF, &[5, 10])]),
        ),
        (
            "a lane past u32",
            predicted_run(first, &[(0xFF, &lane_past_u32)]),
        ),
        ("one sample past the cap", predicted_run(first, &too_long)),
        (
            "half a sample behind",
            predicted_run(first, &[(0xFF, &[5, 20]), (0xC7, &[5])]),
        ),
    ] {
        let (taken, refused) = behind_a_good_run(&framed(&payload));
        assert!(taken.is_empty() && refused, "{what}");
    }
}

/// The longest run a sender can write — every lane new and past 2^28,
/// every delta past 2^62, no value byte zero — is `MAX_RUN_PAYLOAD`
/// long and is read whole. It is longer than one 8 KiB read, so `poll`
/// decodes it and `take_samples` moves its other samples.
#[test]
fn the_longest_run_is_max_run_payload_long_and_read_whole() {
    let frames: Vec<Frame> = (0..wal::MAX_RUN as u64)
        .map(|i| {
            let timestamp = u64::MAX - (i % 2) * ((1 << 62) + 1);
            let value = f64::from_bits(0x4111_1111_1111_0001 + (i << 8));
            ingest_sample((1 << 28) + i as u32, timestamp, value)
        })
        .collect();
    let bytes = encode_coalesced(&frames);
    assert_eq!(bytes.len(), 8 + wal::MAX_RUN_PAYLOAD);
    for runs in [false, true] {
        assert!(same(
            &drain(&bytes, usize::MAX, runs),
            &(frames.clone(), false)
        ));
    }
}

#[test]
fn a_run_split_across_two_reads_at_every_byte_is_taken_whole() {
    let sample = |lane, timestamp| {
        Frame::Ingest(WalRecord::Sample {
            lane,
            timestamp,
            value: timestamp as f64 * 0.5,
        })
    };
    let mut frames: Vec<Frame> = (0..300).map(|t| sample(t as u32 % 3, 1_000 + t)).collect();
    frames.push(Frame::Tick);
    frames.extend((0..5).map(|t| sample(1, 2_000 - t)));
    let bytes = encode_coalesced(&frames);
    let mut per_record = Vec::new();
    for frame in &frames {
        frame.encode(&mut per_record);
    }
    assert!(
        bytes.len() * 10 < per_record.len() * 6,
        "{} vs {}",
        bytes.len(),
        per_record.len()
    );
    for first in 0..=bytes.len() {
        for runs in [false, true] {
            let got = drain_from(
                SplitOnce {
                    data: &bytes,
                    first,
                    pos: 0,
                },
                runs,
            );
            assert!(
                same(&got, &(frames.clone(), false)),
                "split at {first}, runs {runs}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn taking_runs_of_many_is_polling_them_one_by_one(
        (frames, chunk, damage) in (arb_run_stream(), 1_usize..64, any::<u64>())
    ) {
        let bytes = encode_coalesced(&frames);
        let (one_by_one, broke) = drain(&bytes, chunk, false);
        prop_assert!(same(&one_by_one, &frames) && !broke);
        prop_assert!(same(&drain(&bytes, chunk, true), &(one_by_one, false)));
        // Damage: a run stops in front of it and the poll behind it
        // reports what polling alone reports.
        if !bytes.is_empty() {
            let at = (damage % bytes.len() as u64) as usize;
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << ((damage >> 32) % 8);
            prop_assert!(same(&drain(&flipped, chunk, true), &drain(&flipped, chunk, false)));
            let cut = &bytes[..at];
            prop_assert!(same(&drain(cut, chunk, true), &drain(cut, chunk, false)));
        }
        // And the journal reads the same bytes as the same samples.
        let mut image = WAL_MAGIC.to_vec();
        image.extend_from_slice(&bytes);
        let ingest: Vec<&WalRecord> = frames.iter().filter_map(|f| match f {
            Frame::Ingest(record) => Some(record),
            _ => None,
        }).collect();
        let only_ingest = frames.iter().all(|f| matches!(f, Frame::Ingest(_)));
        if only_ingest {
            prop_assert!(same(&wal::scan(&image).records.iter().collect::<Vec<_>>(), &ingest));
        }
    }
}

// -----------------------------------------------------------------
// The report codec: `encode_report` against the growing,
// one-element-at-a-time encoder it replaced, kept here as the reference —
// at version 3, which names a series without its columns, and at
// version 2, which carried them and no longer decodes.

mod reference {
    use hierod_core::detect_level::{LevelDetections, LevelOutlier};
    use hierod_core::{HierOutlier, Warning};
    use hierod_hierarchy::PhaseKind;
    use hierod_store::codec;
    use hierod_stream::codec::{encode_lane, phase_kind_code};
    use hierod_stream::StreamReport;

    fn put_opt_str(out: &mut Vec<u8>, v: Option<&str>) {
        match v {
            Some(s) => {
                out.push(1);
                codec::put_str(out, s);
            }
            None => out.push(0),
        }
    }

    fn put_opt_varint(out: &mut Vec<u8>, v: Option<u64>) {
        match v {
            Some(n) => {
                out.push(1);
                codec::put_varint(out, n);
            }
            None => out.push(0),
        }
    }

    fn put_opt_phase(out: &mut Vec<u8>, v: Option<PhaseKind>) {
        match v {
            Some(kind) => {
                out.push(1);
                out.push(phase_kind_code(kind));
            }
            None => out.push(0),
        }
    }

    fn put_hier_outlier(out: &mut Vec<u8>, o: &HierOutlier) {
        out.push(o.level.number());
        codec::put_str(out, &o.machine);
        put_opt_str(out, o.job.as_deref());
        put_opt_phase(out, o.phase);
        put_opt_str(out, o.sensor.as_deref());
        put_opt_varint(out, o.index.map(|i| i as u64));
        put_opt_varint(out, o.timestamp);
        codec::put_f64(out, o.outlierness);
        codec::put_f64(out, o.support);
        out.push(o.global_score);
    }

    fn put_level_outlier(out: &mut Vec<u8>, o: &LevelOutlier) {
        out.push(o.level.number());
        codec::put_str(out, &o.machine);
        put_opt_str(out, o.job.as_deref());
        put_opt_phase(out, o.phase);
        put_opt_str(out, o.sensor.as_deref());
        put_opt_varint(out, o.index.map(|i| i as u64));
        put_opt_varint(out, o.timestamp);
        codec::put_f64(out, o.outlierness);
        codec::put_f64(out, o.raw_score);
    }

    fn put_detections(out: &mut Vec<u8>, d: &LevelDetections, columns: bool) {
        out.push(d.level.number());
        codec::put_varint(out, d.outliers.len() as u64);
        for o in &d.outliers {
            put_level_outlier(out, o);
        }
        codec::put_varint(out, d.series_scores.len() as u64);
        for s in &d.series_scores {
            codec::put_str(out, &s.machine);
            put_opt_str(out, s.job.as_deref());
            put_opt_phase(out, s.phase);
            codec::put_str(out, &s.sensor);
            if !columns {
                continue;
            }
            codec::put_varint(out, s.timestamps.len() as u64);
            for &t in s.timestamps.iter() {
                codec::put_varint(out, t);
            }
            codec::put_varint(out, s.z.len() as u64);
            for &z in s.z.iter() {
                codec::put_f64(out, z);
            }
        }
        codec::put_varint(out, d.vector_scores.len() as u64);
        for v in &d.vector_scores {
            codec::put_str(out, &v.machine);
            codec::put_str(out, &v.job);
            codec::put_f64(out, v.z);
        }
    }

    /// Version 2 carried every series' columns; version 3 writes its key
    /// only and is otherwise byte for byte version 2.
    pub fn encode_report(report: &StreamReport, version: u8) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024);
        out.push(version);
        codec::put_varint(&mut out, report.detections.len() as u64);
        for d in report.detections.values() {
            put_detections(&mut out, d, version == 2);
        }
        codec::put_varint(&mut out, report.report.outliers.len() as u64);
        for o in &report.report.outliers {
            put_hier_outlier(&mut out, o);
        }
        codec::put_varint(&mut out, report.report.warnings.len() as u64);
        for w in &report.report.warnings {
            let Warning::SuspectedMeasurementError {
                outlier_idx,
                missing_level,
            } = w;
            codec::put_varint(&mut out, *outlier_idx as u64);
            out.push(missing_level.number());
        }
        let s = &report.stats;
        for v in [
            s.samples_ingested,
            s.samples_released,
            s.late_dropped,
            s.duplicates_dropped,
            s.series_failed,
            s.corrupt_records,
            s.drift_events,
            s.refits,
        ] {
            codec::put_varint(&mut out, v);
        }
        codec::put_varint(&mut out, report.lane_stats.len() as u64);
        for (lane, l) in &report.lane_stats {
            codec::put_bytes(&mut out, &encode_lane(lane));
            for v in [
                l.released,
                l.late_dropped,
                l.duplicates_dropped,
                l.corrupt_records,
                l.drift_events,
                l.refits,
            ] {
                codec::put_varint(&mut out, v);
            }
        }
        out
    }
}

/// How many records (everything that is not a score or a timestamp) a
/// report holds: what the size hint may over-reserve 80 bytes each for.
fn records(report: &StreamReport) -> usize {
    let per_level: usize = report
        .detections
        .values()
        .map(|d| 1 + d.outliers.len() + d.series_scores.len() + d.vector_scores.len())
        .sum();
    2 + per_level
        + report.report.outliers.len()
        + report.report.warnings.len()
        + 2 * report.lane_stats.len()
}

fn varint_len(v: u64) -> usize {
    let mut out = Vec::new();
    hierod_store::codec::put_varint(&mut out, v);
    out.len()
}

/// What sizing every timestamp at its column's last one's width
/// over-reserves: nothing for a column whose timestamps share a width.
fn column_slack(timestamps: &[u64]) -> usize {
    let widest = timestamps.last().map_or(0, |&t| varint_len(t));
    timestamps.iter().map(|&t| widest - varint_len(t)).sum()
}

proptest! {
    #[test]
    fn a_report_is_sized_once_and_its_bytes_do_not_move(
        (mut report, long) in (arb_report(), prop::collection::vec((any::<u64>(), arb_f64()), 0..3000)),
    ) {
        // One long column beside the short ones: the bytes are still the
        // reference's, and the reservation is the records', not the column's.
        if let Some(s) = report.detections.values_mut().flat_map(|d| d.series_scores.iter_mut()).next() {
            s.timestamps = long.iter().map(|&(t, _)| t >> (t % 64)).collect();
            s.z = long.iter().map(|&(_, z)| z).collect();
        }
        let bytes = encode_report(&report);
        prop_assert_eq!(&bytes, &reference::encode_report(&report, 3));
        let bound = bytes.len() + 80 * records(&report);
        prop_assert!(bytes.capacity() <= bound,
            "capacity {} for {} bytes, bound {}", bytes.capacity(), bytes.len(), bound);
        // Version 2 bytes — columns and all — are no report any more.
        prop_assert!(decode_report(&reference::encode_report(&report, 2)).is_none());
    }

    #[test]
    fn report_size_follows_findings_not_history(
        (report, extra, which) in (
            arb_report(),
            prop::collection::vec((any::<u64>(), arb_f64()), 1..500),
            any::<usize>(),
        ),
    ) {
        // Lengthen any one series' columns: not a byte of the report moves.
        let before = encode_report(&report);
        let mut longer = report.clone();
        let mut series: Vec<_> = longer
            .detections
            .values_mut()
            .flat_map(|d| d.series_scores.iter_mut())
            .collect();
        let n = series.len();
        if let Some(s) = series.get_mut(which % n.max(1)) {
            let mut timestamps = s.timestamps.to_vec();
            let mut z = s.z.to_vec();
            timestamps.extend(extra.iter().map(|&(t, _)| t));
            z.extend(extra.iter().map(|&(_, z)| z));
            s.timestamps = timestamps.into();
            s.z = z.into();
        }
        prop_assert_eq!(encode_report(&longer), before);
    }
}

/// A column length is the wire's claim, not an allocation size: 2⁴⁰ (or
/// `u64::MAX`) timestamps or scores over a 16-byte tail of a
/// `SeriesScores` reply must decode to `None` without reserving room for
/// them.
#[test]
fn a_claimed_column_length_reserves_no_more_than_the_bytes_there() {
    use hierod_store::codec;
    let before = vm_peak_kib();
    for claimed in [1_u64 << 40, u64::MAX] {
        for in_scores in [false, true] {
            let mut payload = vec![TAG_SERIES_SCORES, 1, 1, Level::Phase.number()];
            codec::put_str(&mut payload, "m0");
            payload.push(0); // no job
            payload.push(0); // no phase
            codec::put_str(&mut payload, "s");
            if in_scores {
                codec::put_varint(&mut payload, 0); // no timestamps
            }
            codec::put_varint(&mut payload, claimed);
            payload.extend_from_slice(&[0; 16]);
            assert!(Frame::decode_payload(&payload).is_none());
        }
    }
    if let (Some(before), Some(after)) = (before, vm_peak_kib()) {
        assert!(
            after - before < 1 << 20,
            "peak virtual size grew {} KiB",
            after - before
        );
    }
}

/// The `SeriesScores` response tag.
const TAG_SERIES_SCORES: u8 = 43;

/// A v2 report — the layout with columns, as a server before codec v3
/// sent it — is not a report: `None`, whatever it holds.
#[test]
fn a_version_2_report_decodes_to_none() {
    let report = StreamReport {
        detections: BTreeMap::new(),
        report: HierReport::default(),
        stats: StreamStats::default(),
        lane_stats: BTreeMap::new(),
    };
    let v2 = reference::encode_report(&report, 2);
    assert_eq!(v2.first(), Some(&2));
    assert!(decode_report(&v2).is_none());
    assert!(decode_report(&reference::encode_report(&report, 3)).is_some());
}

// -----------------------------------------------------------------
// Series queries: which series, which samples.

/// Series with ascending timestamps (what a detector emits), a few
/// machines, sensors and levels to select among.
fn arb_query_report() -> impl Strategy<Value = StreamReport> {
    prop::collection::vec(
        (
            arb_level(),
            0_u8..3,
            0_u8..3,
            prop::collection::vec((0_u64..64, arb_f64()), 0..24),
        ),
        0..8,
    )
    .prop_map(|series| {
        let mut detections = BTreeMap::new();
        for (level, machine, sensor, mut points) in series {
            points.sort_by_key(|&(t, _)| t);
            let key = (format!("m{machine}"), None, None, format!("s{sensor}"));
            detections
                .entry(level)
                .or_insert_with(|| LevelDetections::empty(level))
                .series_scores
                .push(series_of(key, &points));
        }
        StreamReport {
            detections,
            report: HierReport::default(),
            stats: StreamStats::default(),
            lane_stats: BTreeMap::new(),
        }
    })
}

fn arb_series_query() -> impl Strategy<Value = SeriesQuery> {
    (
        arb_opt_level(),
        (0_u8..4, 0_u8..4),
        (0_u8..8, 0_u64..80, 0_u64..80),
    )
        .prop_map(
            |(level, (machine, sensor), (edge, start, end))| SeriesQuery {
                level,
                machine: (machine < 3).then(|| format!("m{machine}")),
                sensor: (sensor < 3).then(|| format!("s{sensor}")),
                start: if edge == 0 { u64::MAX } else { start },
                end: if edge == 1 { u64::MAX } else { end },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_series_answer_is_the_brute_force_filter(
        (report, query) in (arb_query_report(), arb_series_query())
    ) {
        // The reference: every sample of every selected series, one by one.
        let mut expected = Vec::new();
        for d in report.detections.values() {
            if query.level.is_some_and(|l| l != d.level) {
                continue;
            }
            for s in &d.series_scores {
                if query.machine.as_ref().is_some_and(|m| **m != *s.machine)
                    || query.sensor.as_ref().is_some_and(|m| **m != *s.sensor)
                {
                    continue;
                }
                let inside: Vec<(u64, f64)> = s
                    .timestamps
                    .iter()
                    .zip(s.z.iter())
                    .filter(|&(&t, _)| query.start <= t && t <= query.end)
                    .map(|(&t, &z)| (t, z))
                    .collect();
                if !inside.is_empty() {
                    let job = s.job.as_deref().map(String::from);
                    let key = (s.machine.to_string(), job, s.phase, s.sensor.to_string());
                    expected.push((d.level, series_of(key, &inside)));
                }
            }
        }
        let picked = query.pick(&report);
        let answer = query.cut(picked.clone());
        prop_assert!(same(&answer, &expected), "{query:?}");
        prop_assert!(same(&query.answer(&report), &answer));
        // A series wholly inside is replied with the report's own columns;
        // any other is cut into columns of its own.
        let shares = |(_, a): &LevelSeries| {
            picked.iter().any(|(_, p)| {
                std::sync::Arc::ptr_eq(&p.z, &a.z) && std::sync::Arc::ptr_eq(&p.timestamps, &a.timestamps)
            })
        };
        let whole = picked.iter().filter(|(_, p)| whole_range(&query, p)).count();
        prop_assert_eq!(answer.iter().filter(|a| shares(a)).count(), whole);
        // And the answer round-trips as a reply frame.
        let frame = Frame::SeriesScores { version: 7, series: answer };
        let bytes = encode_frame(&frame);
        prop_assert!(same(&Frame::decode_payload(&bytes[8..]).expect("decodes"), &frame));
    }
}

/// Whether `query` spans all of `s`'s timestamps.
fn whole_range(query: &SeriesQuery, s: &SeriesScores) -> bool {
    s.timestamps.first().is_some_and(|&t| query.start <= t)
        && s.timestamps.last().is_some_and(|&t| t <= query.end)
}

// -----------------------------------------------------------------
// `Series` frames coded in bulk: one reservation, one pass per value
// column — against the per-element encoder they replaced, kept here as
// the reference.

/// The `Series` response tag.
const TAG_SERIES: u8 = 41;

/// The pre-bulk `Series` payload encoder: tag, then one `put_varint` per
/// timestamp and one `put_f64` per value into a growing buffer.
fn reference_series_payload(lanes: &[LaneColumns], stats: &ScanStats) -> Vec<u8> {
    use hierod_store::codec;
    let mut out = vec![TAG_SERIES];
    codec::put_varint(&mut out, lanes.len() as u64);
    for (lane, timestamps, values) in lanes {
        codec::put_bytes(&mut out, &hierod_stream::codec::encode_lane(lane));
        codec::put_varint(&mut out, timestamps.len() as u64);
        for &t in timestamps.iter() {
            codec::put_varint(&mut out, t);
        }
        codec::put_varint(&mut out, values.len() as u64);
        for &v in values.iter() {
            codec::put_f64(&mut out, v);
        }
    }
    codec::put_varint(&mut out, stats.chunks_total as u64);
    codec::put_varint(&mut out, stats.chunks_pruned as u64);
    codec::put_varint(&mut out, stats.chunks_decoded as u64);
    codec::put_varint(&mut out, stats.samples);
    out
}

/// Lanes with long columns of every varint width (and, now and then, a
/// value column of another length than its timestamps).
fn arb_long_series_lanes() -> impl Strategy<Value = Vec<LaneColumns>> {
    let lane = (
        arb_lane(),
        prop::collection::vec(any::<u64>(), 0..700),
        prop::collection::vec(arb_f64(), 0..700),
        0_u8..4,
    )
        .prop_map(|(lane, ts, values, shape)| {
            let n = if shape == 0 { values.len() } else { ts.len() };
            let timestamps: Vec<u64> = ts.iter().map(|&t| t >> (t % 64)).collect();
            let values: Vec<f64> = values.iter().copied().cycle().take(n).collect();
            (lane, timestamps.into(), values.into())
        });
    prop::collection::vec(lane, 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_series_frame_is_the_per_element_encoding_sized_once(
        (mut lanes, stats) in (arb_long_series_lanes(), arb_scan_stats())
    ) {
        // Any columns at all: the bytes are the reference's, and they
        // round-trip.
        let frame = Frame::Series { lanes: lanes.clone(), stats };
        let bytes = encode_frame(&frame);
        prop_assert_eq!(&bytes[8..], &reference_series_payload(&lanes, &stats)[..]);
        let decoded = Frame::decode_payload(&bytes[8..]).expect("decodes");
        prop_assert!(same(&decoded, &frame));
        // Ascending timestamps, the only kind a scan returns: one
        // reservation — a buffer that regrew would have doubled past this.
        for (_, timestamps, _) in &mut lanes {
            let mut ascending = timestamps.to_vec();
            ascending.sort_unstable();
            *timestamps = ascending.into();
        }
        let frame = Frame::Series { lanes: lanes.clone(), stats };
        let bytes = encode_frame(&frame);
        prop_assert_eq!(&bytes[8..], &reference_series_payload(&lanes, &stats)[..]);
        let slack: usize = lanes.iter().map(|(_, t, _)| column_slack(t)).sum();
        let bound = bytes.len() + 80 * (lanes.len() + 1) + slack;
        prop_assert!(bytes.capacity() <= bound,
            "capacity {} for {} bytes, bound {}", bytes.capacity(), bytes.len(), bound);
        let mut reader = FrameReader::new();
        match reader.poll(&mut Cursor::new(&bytes)).unwrap() {
            Poll::Frame(got) => prop_assert!(same(&got, &frame)),
            other => panic!("expected a frame, got {other:?}"),
        }
    }
}

/// This process's peak virtual size, in KiB (Linux only).
fn vm_peak_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmPeak:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// A `Series` column length is the wire's claim, not an allocation size:
/// 2⁴⁰ (or `u64::MAX`) timestamps or values over a 16-byte tail decode
/// to `None`, and the decoder reserves no more than the tail could hold —
/// an 8 TiB reservation would move the peak virtual size (or abort).
#[test]
fn a_claimed_series_column_reserves_no_more_than_the_bytes_there() {
    use hierod_store::codec;
    let lane = LaneId {
        machine: "m0".into(),
        sensor: "m0.bed.0".into(),
        kind: LaneKind::Phase,
    };
    let before = vm_peak_kib();
    for claimed in [1_u64 << 40, u64::MAX] {
        for in_values in [false, true] {
            let mut payload = vec![TAG_SERIES, 1];
            codec::put_bytes(&mut payload, &hierod_stream::codec::encode_lane(&lane));
            if in_values {
                codec::put_varint(&mut payload, 0); // no timestamps
            }
            codec::put_varint(&mut payload, claimed);
            payload.extend_from_slice(&[0; 16]);
            assert!(
                Frame::decode_payload(&payload).is_none(),
                "claim {claimed} in the {} column",
                if in_values { "value" } else { "timestamp" }
            );
        }
    }
    if let (Some(before), Some(after)) = (before, vm_peak_kib()) {
        assert!(
            after - before < 1 << 20,
            "peak virtual size grew {} KiB decoding 16-byte tails",
            after - before
        );
    }
}

/// Hostile integers on the range requests: reversed and `u64::MAX`
/// bounds are plain values that round-trip (the server answers them),
/// and a level byte naming no level is a malformed frame.
#[test]
fn hostile_range_requests_round_trip_or_decode_to_none() {
    for (start, end) in [(9, 3), (0, u64::MAX), (u64::MAX, u64::MAX), (u64::MAX, 0)] {
        for frame in [
            Frame::QuerySeries {
                level: Some(Level::Phase),
                machine: None,
                sensor: Some("s".into()),
                start,
                end,
            },
            Frame::RangeScan {
                start,
                end,
                machine: None,
                sensor: None,
            },
            Frame::Backfill {
                start,
                end,
                spec: None,
            },
        ] {
            let bytes = encode_frame(&frame);
            assert_eq!(Frame::decode_payload(&bytes[8..]), Some(frame));
        }
    }
    // Tag 25, then the level byte: 0 is "any", 1–5 a level, nothing else.
    for level in [6_u8, 7, 0x80, u8::MAX] {
        let payload = [25, level, 0, 0, 0, 0];
        assert_eq!(Frame::decode_payload(&payload), None, "level byte {level}");
    }
    assert!(Frame::decode_payload(&[25, 0, 0, 0, 0, 0]).is_some());
}
