//! Write-ahead-log record format and scanner.
//!
//! A WAL file is the magic `HWAL1\n` followed by a sequence of records:
//!
//! ```text
//! [u32 LE payload_len][u32 LE crc32(payload)][payload]
//! ```
//!
//! The payload starts with a one-byte tag:
//!
//! | tag | record    | payload                                          |
//! |-----|-----------|--------------------------------------------------|
//! | 1   | `LaneDef` | lane varint, meta bytes (opaque)                 |
//! | 2   | `Control` | seq varint, payload bytes (opaque)               |
//! | 3   | run       | 1–[`MAX_RUN`] samples: the first is lane varint, timestamp varint, value f64; each later one lane varint, zigzag-varint timestamp delta from the sample before it, value f64 |
//!
//! A tag-3 record is a *run*: consecutive samples under one frame and one
//! checksum. A run of one is byte-for-byte the single-sample record, so a
//! journal of one sample per record is a journal of runs of one. Writers
//! close a run at [`MAX_RUN`] samples, at every hand-off of their buffer
//! and in front of any other record ([`RunWriter`]); a sample whose delta
//! from the one before it does not fit an `i64` opens a new run. The
//! scanner hands back one [`WalRecord::Sample`] per sample, and a torn or
//! damaged run yields none of them.
//!
//! Lane metadata and control payloads are opaque byte strings: the store
//! does not know about machines, phases, or sensors — `hierod-stream`
//! serialises its own event types into them. Scanning stops at the first
//! bad record (truncated header, truncated payload, checksum mismatch, or
//! malformed payload) and reports the longest valid prefix, which is the
//! classic truncate-at-first-bad-record recovery rule: bytes after a torn
//! write are unreachable garbage, never silently reinterpreted.

use crate::codec;
use crate::crc::crc32;

/// File magic for WAL files.
pub const WAL_MAGIC: &[u8; 6] = b"HWAL1\n";

/// Sanity cap on a single record payload (16 MiB). A length field above
/// this is treated as corruption rather than an allocation request.
pub(crate) const MAX_RECORD_LEN: u32 = 1 << 24;

/// Cap on lane numbers: a lane number is below this wherever it indexes
/// a table — a connection's wire-lane table, a plant's lane table, the
/// table recovery rebuilds from `LaneDef` records. Without it twelve
/// checksum-valid bytes naming lane `u32::MAX` are a multi-GiB allocation.
/// 65,536 lanes is three orders of magnitude past the largest plant the
/// benchmark serves (22 lanes) and costs at most a few MiB of table.
pub const MAX_LANES: u32 = 1 << 16;

/// Most samples one run (tag-3 record) holds. Writers close a run here;
/// readers call a longer one malformed, so decoding one record is
/// bounded work. 512 samples is ≈ 5 KiB: a run still fits one socket
/// read of the served path.
pub const MAX_RUN: usize = 512;

/// Longest payload a run of [`MAX_RUN`] samples can have: the tag, then
/// per sample at most a 5-byte lane, a 10-byte timestamp or delta and an
/// `f64`.
pub const MAX_RUN_PAYLOAD: usize = 1 + MAX_RUN * (5 + 10 + 8);

const TAG_LANE_DEF: u8 = 1;
const TAG_CONTROL: u8 = 2;
const TAG_SAMPLE: u8 = 3;

/// Reserves a frame header at the end of `out`, returning its offset
/// for [`close_frame`].
fn open_frame(out: &mut Vec<u8>) -> usize {
    let header = out.len();
    out.extend_from_slice(&[0; 8]);
    header
}

/// Patches the header [`open_frame`] reserved at `header` with the length
/// and checksum of everything behind it.
fn close_frame(out: &mut [u8], header: usize) {
    let payload = out.get(header + 8..).unwrap_or_default();
    let (len, crc) = (payload.len() as u32, crc32(payload));
    if let Some(slot) = out.get_mut(header..header + 8) {
        let (len_slot, crc_slot) = slot.split_at_mut(4);
        len_slot.copy_from_slice(&len.to_le_bytes());
        crc_slot.copy_from_slice(&crc.to_le_bytes());
    }
}

/// Appends one framed record — `[u32 len][u32 crc32(payload)][payload]`,
/// the framing the WAL and the wire share — whose payload `body` writes
/// in place: the header is reserved first and patched after, so framing
/// allocates nothing and copies nothing.
pub fn put_framed(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let header = open_frame(out);
    body(out);
    close_frame(out, header);
}

fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Appends one sample of a run: lane varint, `stamp` varint (the
/// timestamp for the first sample, the zigzagged delta for a later one),
/// value f64.
fn put_sample(out: &mut Vec<u8>, lane: u32, stamp: u64, value: f64) {
    codec::put_varint(out, u64::from(lane));
    codec::put_varint(out, stamp);
    codec::put_f64(out, value);
}

/// Appends the payload of a run of one — the tag, then the sample with
/// its timestamp whole. A longer run goes on with [`put_sample`].
fn put_first_sample(out: &mut Vec<u8>, lane: u32, timestamp: u64, value: f64) {
    out.push(TAG_SAMPLE);
    put_sample(out, lane, timestamp, value);
}

/// The run open at the end of a [`RunWriter`]'s buffer.
#[derive(Debug)]
struct OpenRun {
    /// Offset of the run's frame header in the buffer.
    header: usize,
    samples: usize,
    /// Timestamp of the run's last sample, the next delta's origin.
    last: u64,
}

/// The one encoder of runs: appends samples to a run left open at the
/// end of the caller's buffer and frames it once, when it closes. The
/// store stages its journal through one, the client its ingest frames,
/// and [`encode_image`] its images; a lone sample's record
/// ([`WalRecord::encode_payload`]) is the same run of one.
///
/// While a run is open nothing but this writer may append to the
/// buffer: `RunWriter::push` closes it in front of any other record,
/// and the owner calls [`RunWriter::close`] before it hands the bytes on.
#[derive(Debug, Default)]
pub struct RunWriter {
    open: Option<OpenRun>,
}

impl RunWriter {
    /// Appends one sample to the open run, or opens one with it. Closes
    /// the run at [`MAX_RUN`] samples.
    pub fn push_sample(&mut self, out: &mut Vec<u8>, lane: u32, timestamp: u64, value: f64) {
        if let Some(run) = self.open.as_mut() {
            let delta = i128::from(timestamp) - i128::from(run.last);
            if let Ok(delta) = i64::try_from(delta) {
                put_sample(out, lane, zigzag(delta), value);
                run.samples += 1;
                run.last = timestamp;
                if run.samples >= MAX_RUN {
                    self.close(out);
                }
                return;
            }
        }
        self.close(out);
        let header = open_frame(out);
        put_first_sample(out, lane, timestamp, value);
        self.open = Some(OpenRun {
            header,
            samples: 1,
            last: timestamp,
        });
    }

    /// Appends `record`: a sample joins the open run, anything else
    /// closes it and follows it as its own framed record.
    pub(crate) fn push(&mut self, out: &mut Vec<u8>, record: &WalRecord) {
        match *record {
            WalRecord::Sample {
                lane,
                timestamp,
                value,
            } => self.push_sample(out, lane, timestamp, value),
            _ => {
                self.close(out);
                record.encode(out);
            }
        }
    }

    /// Frames the open run, if any: its bytes are complete from here on.
    pub fn close(&mut self, out: &mut [u8]) {
        if let Some(run) = self.open.take() {
            close_frame(out, run.header);
        }
    }

    /// Whether a run is open (its bytes are not framed yet).
    pub fn is_open(&self) -> bool {
        self.open.is_some()
    }
}

/// Walks a run payload sample by sample. `None` — after `each` saw some
/// prefix — on another tag, no sample, more than [`MAX_RUN`], a field
/// cut short, trailing bytes, a lane past `u32` or a timestamp delta
/// that leaves `u64`.
fn walk_run(mut buf: &[u8], mut each: impl FnMut(u32, u64, f64)) -> Option<()> {
    if codec::take_u8(&mut buf)? != TAG_SAMPLE {
        return None;
    }
    let mut last = None;
    let mut samples = 0;
    while !buf.is_empty() {
        if samples == MAX_RUN {
            return None;
        }
        let lane = u32::try_from(codec::take_varint(&mut buf)?).ok()?;
        let raw = codec::take_varint(&mut buf)?;
        let timestamp = match last {
            None => raw,
            Some(last) => u64::checked_add_signed(last, unzigzag(raw))?,
        };
        let value = codec::take_f64(&mut buf)?;
        each(lane, timestamp, value);
        last = Some(timestamp);
        samples += 1;
    }
    last.map(|_| ())
}

/// Decodes a run payload (tag 3) onto the end of `out`, one
/// `make(lane, timestamp, value)` per sample in order. All or nothing: a
/// malformed run leaves `out` as it was and returns `false`. The one
/// decoder of runs — [`scan`], [`WalRecord::decode_payload`] (a run of
/// one), and the wire's frame reader straight into a connection's run.
pub fn decode_run<T>(payload: &[u8], out: &mut Vec<T>, make: impl Fn(u32, u64, f64) -> T) -> bool {
    let before = out.len();
    let parsed = walk_run(payload, |lane, timestamp, value| {
        out.push(make(lane, timestamp, value));
    });
    if parsed.is_none() {
        out.truncate(before);
    }
    parsed.is_some()
}

/// One durable unit of the ingest stream.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Declares a lane id and its opaque metadata (serialised `LaneId`).
    LaneDef {
        /// Store-local lane number referenced by later `Sample` records.
        lane: u32,
        /// Opaque lane metadata owned by the caller.
        meta: Vec<u8>,
    },
    /// A control event (machine up, job start, …) with a monotonically
    /// increasing sequence number and an opaque serialised body.
    Control {
        /// Writer-assigned, strictly increasing sequence number.
        seq: u64,
        /// Opaque event body owned by the caller.
        payload: Vec<u8>,
    },
    /// One raw sensor sample on a lane: one sample of a run.
    Sample {
        /// Lane declared by an earlier `LaneDef`.
        lane: u32,
        /// Sample timestamp (arbitrary ingest order; the stream's
        /// watermark does the reordering).
        timestamp: u64,
        /// Sensor reading.
        value: f64,
    },
}

impl WalRecord {
    fn sample(lane: u32, timestamp: u64, value: f64) -> WalRecord {
        WalRecord::Sample {
            lane,
            timestamp,
            value,
        }
    }

    /// Appends the record's payload (tag + body), unframed; a sample as
    /// a run of one.
    pub fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::LaneDef { lane, meta } => {
                out.push(TAG_LANE_DEF);
                codec::put_varint(out, u64::from(*lane));
                codec::put_bytes(out, meta);
            }
            WalRecord::Control { seq, payload } => {
                out.push(TAG_CONTROL);
                codec::put_varint(out, *seq);
                codec::put_bytes(out, payload);
            }
            WalRecord::Sample {
                lane,
                timestamp,
                value,
            } => put_first_sample(out, *lane, *timestamp, *value),
        }
    }

    /// Appends the framed record (length, checksum, payload) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_framed(out, |out| self.encode_payload(out));
    }

    /// Decodes one payload (tag + body) that holds exactly one record — a
    /// run only if it is a run of one. Requires full consumption.
    pub fn decode_payload(bytes: &[u8]) -> Option<WalRecord> {
        let mut buf = bytes;
        let record = match codec::take_u8(&mut buf)? {
            TAG_LANE_DEF => {
                let lane = u32::try_from(codec::take_varint(&mut buf)?).ok()?;
                let meta = codec::take_bytes(&mut buf)?.to_vec();
                WalRecord::LaneDef { lane, meta }
            }
            TAG_CONTROL => {
                let seq = codec::take_varint(&mut buf)?;
                let payload = codec::take_bytes(&mut buf)?.to_vec();
                WalRecord::Control { seq, payload }
            }
            TAG_SAMPLE => {
                let mut run = Vec::new();
                decode_run(bytes, &mut run, WalRecord::sample).then_some(())?;
                let record = run.pop();
                return record.filter(|_| run.is_empty());
            }
            _ => return None,
        };
        buf.is_empty().then_some(record)
    }

    /// Best-effort lane attribution, used to count corrupt records per
    /// lane even when the checksum failed: the lane of a lane definition,
    /// or of a run whose samples all name one lane.
    fn lane_of(payload: &[u8]) -> Option<u32> {
        if payload.first() == Some(&TAG_SAMPLE) {
            let (mut lane, mut one) = (None, true);
            walk_run(payload, |l, _, _| one &= *lane.get_or_insert(l) == l)?;
            return lane.filter(|_| one);
        }
        match Self::decode_payload(payload)? {
            WalRecord::LaneDef { lane, .. } => Some(lane),
            _ => None,
        }
    }
}

/// Why a WAL scan stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CorruptionKind {
    /// Fewer than 8 bytes remained: the record header itself was torn.
    TornHeader,
    /// The header promised more payload bytes than the file holds.
    TornPayload,
    /// The payload bytes do not match the recorded checksum.
    ChecksumMismatch,
    /// The checksum matched but the payload did not parse (or the header
    /// length exceeded [`MAX_RECORD_LEN`], or the magic was wrong).
    Malformed,
}

/// Details of the first bad record found by [`scan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalCorruption {
    /// Byte offset of the bad record's header within the file.
    pub offset: usize,
    /// Classification of the damage.
    pub(crate) kind: CorruptionKind,
    /// Lane attribution when the payload structure was still readable.
    pub lane: Option<u32>,
}

/// Result of scanning a WAL file image.
#[derive(Debug, Clone, Default)]
pub struct WalScan {
    /// Every record of the longest valid prefix, in write order, a run
    /// as one [`WalRecord::Sample`] per sample.
    pub records: Vec<WalRecord>,
    /// Byte length of that prefix (including the magic). Truncating the
    /// file here removes all damage.
    pub valid_len: usize,
    /// The first bad record, if the scan stopped early.
    pub corruption: Option<WalCorruption>,
}

/// Scans a WAL image, returning the longest valid record prefix and a
/// classification of the first bad byte range (if any). Never panics on
/// arbitrary input.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut out = WalScan::default();
    if bytes.len() < WAL_MAGIC.len() || !bytes.starts_with(WAL_MAGIC) {
        // A torn or overwritten header: nothing in the file is usable.
        let kind = if bytes.is_empty() || WAL_MAGIC.starts_with(bytes) {
            CorruptionKind::TornHeader
        } else {
            CorruptionKind::Malformed
        };
        out.corruption = Some(WalCorruption {
            offset: 0,
            kind,
            lane: None,
        });
        return out;
    }
    let mut offset = WAL_MAGIC.len();
    out.valid_len = offset;
    let stop = |out: &mut WalScan, offset: usize, kind, lane| {
        out.corruption = Some(WalCorruption { offset, kind, lane });
    };
    loop {
        let mut rest = match bytes.get(offset..) {
            Some(r) if !r.is_empty() => r,
            _ => return out,
        };
        let Some(len) = codec::take_u32(&mut rest) else {
            stop(&mut out, offset, CorruptionKind::TornHeader, None);
            return out;
        };
        let Some(crc) = codec::take_u32(&mut rest) else {
            stop(&mut out, offset, CorruptionKind::TornHeader, None);
            return out;
        };
        if len > MAX_RECORD_LEN {
            stop(&mut out, offset, CorruptionKind::Malformed, None);
            return out;
        }
        let Some(payload) = codec::take(&mut rest, len as usize) else {
            stop(&mut out, offset, CorruptionKind::TornPayload, None);
            return out;
        };
        if crc32(payload) != crc {
            let lane = WalRecord::lane_of(payload);
            stop(&mut out, offset, CorruptionKind::ChecksumMismatch, lane);
            return out;
        }
        let decoded = if payload.first() == Some(&TAG_SAMPLE) {
            decode_run(payload, &mut out.records, WalRecord::sample)
        } else {
            let record = WalRecord::decode_payload(payload);
            record.map(|record| out.records.push(record)).is_some()
        };
        if !decoded {
            stop(&mut out, offset, CorruptionKind::Malformed, None);
            return out;
        }
        offset += 8 + len as usize;
        out.valid_len = offset;
    }
}

/// Serialises a fresh WAL image (magic + records), consecutive samples
/// as runs — a rotation's carry-over, the valid prefix of a damaged
/// tail, and test images.
pub fn encode_image(records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_MAGIC.len() + records.len() * 16);
    out.extend_from_slice(WAL_MAGIC);
    let mut runs = RunWriter::default();
    for record in records {
        runs.push(&mut out, record);
    }
    runs.close(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::LaneDef {
                lane: 0,
                meta: b"m0/bed_temp/phase".to_vec(),
            },
            WalRecord::Control {
                seq: 1,
                payload: b"machine_up m0".to_vec(),
            },
            WalRecord::Sample {
                lane: 0,
                timestamp: 1_000,
                value: 219.5,
            },
            WalRecord::Sample {
                lane: 0,
                timestamp: 1_001,
                value: -0.0,
            },
            WalRecord::Control {
                seq: 2,
                payload: Vec::new(),
            },
        ]
    }

    #[test]
    fn round_trip() {
        let records = sample_records();
        let image = encode_image(&records);
        let scan = scan(&image);
        assert_eq!(scan.records, records);
        assert_eq!(scan.valid_len, image.len());
        assert!(scan.corruption.is_none());
    }

    #[test]
    fn every_truncation_point_yields_the_longest_valid_prefix() {
        let records = sample_records();
        let image = encode_image(&records);
        // Record boundaries — offsets at which a cut is clean — and the
        // records complete there: the two samples are one run, so a cut
        // inside it keeps neither.
        let mut boundaries = vec![WAL_MAGIC.len()];
        let mut complete_at = vec![0];
        for group in [&records[..1], &records[1..2], &records[2..4], &records[4..]] {
            let framed = encode_image(group).len() - WAL_MAGIC.len();
            let last = boundaries.last().copied().unwrap_or(0);
            boundaries.push(last + framed);
            complete_at.push(complete_at.last().copied().unwrap_or(0) + group.len());
        }
        assert_eq!(boundaries.last(), Some(&image.len()));
        for cut in 0..image.len() {
            let result = scan(&image[..cut]);
            let clean = boundaries.iter().filter(|&&b| b <= cut).count();
            let complete = complete_at[clean.saturating_sub(1)];
            assert_eq!(result.records, records[..complete], "cut at {cut}");
            // A cut exactly on a record boundary is a clean EOF; anywhere
            // else the scanner must report the damage.
            let expect_corrupt = !boundaries.contains(&cut);
            assert_eq!(result.corruption.is_some(), expect_corrupt, "cut {cut}");
        }
    }

    #[test]
    fn payload_bit_flip_is_a_checksum_mismatch_with_lane_attribution() {
        let records = vec![WalRecord::Sample {
            lane: 7,
            timestamp: 42,
            value: 1.25,
        }];
        let image = encode_image(&records);
        // Flip one bit in the value field (last payload byte).
        let mut bad = image.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x10;
        let result = scan(&bad);
        assert!(result.records.is_empty());
        let corruption = result.corruption.expect("detected");
        assert_eq!(corruption.kind, CorruptionKind::ChecksumMismatch);
        assert_eq!(corruption.lane, Some(7));
        assert_eq!(corruption.offset, WAL_MAGIC.len());
        assert_eq!(result.valid_len, WAL_MAGIC.len());
    }

    #[test]
    fn oversized_length_field_is_malformed_not_an_allocation() {
        let mut image = encode_image(&[]);
        codec::put_u32(&mut image, MAX_RECORD_LEN + 1);
        codec::put_u32(&mut image, 0);
        let result = scan(&image);
        assert_eq!(
            result.corruption.map(|c| c.kind),
            Some(CorruptionKind::Malformed)
        );
        assert_eq!(result.valid_len, WAL_MAGIC.len());
    }

    #[test]
    fn torn_magic_and_wrong_magic_are_classified() {
        let torn = scan(b"HWA");
        assert_eq!(
            torn.corruption.map(|c| c.kind),
            Some(CorruptionKind::TornHeader)
        );
        let wrong = scan(b"NOTAWAL\n12345678");
        assert_eq!(
            wrong.corruption.map(|c| c.kind),
            Some(CorruptionKind::Malformed)
        );
        assert_eq!(wrong.valid_len, 0);
    }

    fn sample(lane: u32, timestamp: u64, value: f64) -> WalRecord {
        WalRecord::Sample {
            lane,
            timestamp,
            value,
        }
    }

    /// A run's payload written field by field, the way the table in the
    /// module docs states it: `(lane, timestamp or zigzag delta, value)`.
    fn payload_of(samples: &[(u64, u64, f64)]) -> Vec<u8> {
        let mut out = vec![TAG_SAMPLE];
        for &(lane, ts, value) in samples {
            codec::put_varint(&mut out, lane);
            codec::put_varint(&mut out, ts);
            codec::put_f64(&mut out, value);
        }
        out
    }

    /// A WAL image holding `payload` as one checksum-valid record.
    fn image_of(payload: &[u8]) -> Vec<u8> {
        let mut image = WAL_MAGIC.to_vec();
        put_framed(&mut image, |out| out.extend_from_slice(payload));
        image
    }

    fn malformed(image: &[u8]) -> bool {
        let result = scan(image);
        result.records.is_empty()
            && result.valid_len == WAL_MAGIC.len()
            && result.corruption.map(|c| c.kind) == Some(CorruptionKind::Malformed)
    }

    #[test]
    fn a_run_of_one_is_the_single_sample_record() {
        let record = sample(7, 1_000_000, -2.5);
        let mut alone = WAL_MAGIC.to_vec();
        record.encode(&mut alone);
        assert_eq!(encode_image(std::slice::from_ref(&record)), alone);
        let mut written = WAL_MAGIC.to_vec();
        let mut runs = RunWriter::default();
        runs.push(&mut written, &record);
        runs.close(&mut written);
        assert_eq!(written, alone);
    }

    #[test]
    fn runs_round_trip_with_deltas_both_ways() {
        let records = vec![
            sample(1, 538, 20.5),
            sample(3, 43, 21.0),
            sample(70_000, 43, f64::NAN),
            sample(0, u64::MAX, 0.0),
            sample(2, u64::MAX - 9, 1.0),
            sample(2, 0, -0.0),
        ];
        let image = encode_image(&records);
        let scanned = scan(&image);
        assert!(scanned.corruption.is_none());
        assert_eq!(scanned.valid_len, image.len());
        // NaN != NaN: compare the bits.
        let bits = |r: &[WalRecord]| {
            format!(
                "{:?}",
                r.iter()
                    .map(|r| match r {
                        WalRecord::Sample {
                            lane,
                            timestamp,
                            value,
                        } => (*lane, *timestamp, value.to_bits()),
                        _ => (0, 0, 0),
                    })
                    .collect::<Vec<_>>()
            )
        };
        assert_eq!(bits(&scanned.records), bits(&records));
        // 43 → u64::MAX leaves i64 and 9 below u64::MAX → 0 too: three
        // runs, the first three samples sharing one frame.
        let mut frames = 0;
        let mut rest = &image[WAL_MAGIC.len()..];
        while let Some(len) = codec::take_u32(&mut rest) {
            rest = &rest[4 + len as usize..];
            frames += 1;
        }
        assert_eq!(frames, 3);
    }

    #[test]
    fn a_writer_closes_its_run_at_the_cap() {
        let records: Vec<WalRecord> = (0..MAX_RUN as u64 * 2 + 1)
            .map(|t| sample(0, t, t as f64))
            .collect();
        let image = encode_image(&records);
        assert_eq!(scan(&image).records, records);
        let mut rest = &image[WAL_MAGIC.len()..];
        let mut lens = Vec::new();
        while let Some(len) = codec::take_u32(&mut rest) {
            let (_crc, payload) = (
                codec::take_u32(&mut rest),
                codec::take(&mut rest, len as usize),
            );
            let mut samples = Vec::new();
            assert!(decode_run(payload.unwrap(), &mut samples, |l, t, v| (
                l, t, v
            )));
            lens.push(samples.len());
        }
        assert_eq!(lens, [MAX_RUN, MAX_RUN, 1]);
        assert!(lens.iter().all(|&n| n <= MAX_RUN));
        let longest = encode_image(&records[..MAX_RUN]).len() - WAL_MAGIC.len() - 8;
        assert!(longest <= MAX_RUN_PAYLOAD);
    }

    #[test]
    fn a_run_longer_than_the_cap_is_malformed() {
        let step = |t: u64| (0, if t == 0 { 0 } else { zigzag(1) }, 0.5);
        let at_cap: Vec<(u64, u64, f64)> = (0..MAX_RUN as u64).map(step).collect();
        assert_eq!(scan(&image_of(&payload_of(&at_cap))).records.len(), MAX_RUN);
        let mut past = at_cap;
        past.push(step(1));
        assert!(malformed(&image_of(&payload_of(&past))));
    }

    #[test]
    fn a_run_cut_inside_any_field_of_any_sample_is_malformed() {
        // Multi-byte varints in every field, so cuts land mid-field.
        let samples = [(300, 1 << 40, 1.5), (70_000, 600, -3.0), (1, 1, 0.25)];
        let payload = payload_of(&samples);
        let whole = scan(&image_of(&payload)).records;
        assert_eq!(whole.len(), 3);
        // A cut between two samples leaves a shorter, well-formed run.
        let ends: Vec<usize> = (1..=3).map(|k| payload_of(&samples[..k]).len()).collect();
        for cut in 0..payload.len() {
            // Checksum-valid: only the parse can refuse it.
            let result = scan(&image_of(&payload[..cut]));
            match ends.iter().position(|&end| end == cut) {
                Some(k) => assert_eq!(result.records, whole[..=k], "cut at {cut}"),
                None => assert!(malformed(&image_of(&payload[..cut])), "cut at {cut}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_after_a_run_are_malformed() {
        let mut payload = payload_of(&[(1, 10, 1.0), (1, 2, 2.0)]);
        for extra in [&[0_u8][..], &[1, 2], &[1, 2, 0, 0, 0, 0, 0, 0, 0]] {
            let mut bad = payload.clone();
            bad.extend_from_slice(extra);
            assert!(malformed(&image_of(&bad)), "{extra:?}");
        }
        payload.truncate(1);
        assert!(malformed(&image_of(&payload)), "a tag with no sample");
    }

    #[test]
    fn a_delta_that_leaves_u64_is_malformed_not_wrapped() {
        // +5 past u64::MAX - 1, and −5 below 3.
        let over = payload_of(&[(0, u64::MAX - 1, 0.0), (0, zigzag(5), 0.0)]);
        let under = payload_of(&[(0, 3, 0.0), (0, zigzag(-5), 0.0)]);
        assert!(malformed(&image_of(&over)));
        assert!(malformed(&image_of(&under)));
        // The largest deltas that stay inside.
        let edge = payload_of(&[
            (0, u64::MAX - 1, 0.0),
            (0, zigzag(1), 0.0),
            (0, zigzag(i64::MIN), 0.0),
        ]);
        let scanned = scan(&image_of(&edge)).records;
        let stamps: Vec<u64> = scanned
            .iter()
            .map(|r| match r {
                WalRecord::Sample { timestamp, .. } => *timestamp,
                _ => 0,
            })
            .collect();
        assert_eq!(stamps, [u64::MAX - 1, u64::MAX, u64::MAX - (1 << 63)]);
    }

    #[test]
    fn a_later_sample_past_the_lane_cap_decodes_as_a_run_of_one_naming_it_does() {
        for lane in [MAX_LANES, u32::MAX] {
            let alone = scan(&image_of(&payload_of(&[(u64::from(lane), 9, 1.0)])));
            assert_eq!(alone.records, [sample(lane, 9, 1.0)]);
            let run = scan(&image_of(&payload_of(&[
                (0, 8, 0.0),
                (u64::from(lane), zigzag(1), 1.0),
            ])));
            assert_eq!(run.records, [sample(0, 8, 0.0), sample(lane, 9, 1.0)]);
        }
        // Past u32 is malformed in either place.
        let past = u64::from(u32::MAX) + 1;
        assert!(malformed(&image_of(&payload_of(&[(past, 9, 1.0)]))));
        assert!(malformed(&image_of(&payload_of(&[
            (0, 8, 0.0),
            (past, zigzag(1), 1.0)
        ]))));
    }

    #[test]
    fn a_damaged_run_is_attributed_to_its_lane_only_if_it_parses_to_one() {
        let damaged = |payload: &[u8]| {
            let mut image = image_of(payload);
            image[WAL_MAGIC.len() + 4] ^= 0xFF; // the checksum
            let result = scan(&image);
            assert!(result.records.is_empty());
            let corruption = result.corruption.expect("detected");
            assert_eq!(corruption.kind, CorruptionKind::ChecksumMismatch);
            corruption.lane
        };
        assert_eq!(
            damaged(&payload_of(&[(7, 1, 0.0), (7, 2, 0.0), (7, 2, 0.0)])),
            Some(7)
        );
        assert_eq!(damaged(&payload_of(&[(7, 1, 0.0), (8, 2, 0.0)])), None);
        let mut cut = payload_of(&[(7, 1, 0.0), (7, 2, 0.0)]);
        cut.pop();
        assert_eq!(damaged(&cut), None);
    }
}
