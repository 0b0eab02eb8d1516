//! History-path codec probe: the Gorilla column codecs on quantized and
//! full-precision lanes, one hist chunk through `decode_chunk`, and one
//! `Series` reply through the wire codec — the per-field costs a range
//! scan pays between the hist file and the client. Plus the checksum of
//! the short records every served sample pays for three times (client
//! encode, server verify, WAL append): `crc32` alone at a sample payload's
//! 13 bytes and at 21, and one sample record encoded and framed.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hierod_history::ScanStats;
use hierod_store::crc::crc32;
use hierod_store::gorilla::{
    compress_timestamps, compress_values, decompress_timestamps, decompress_values,
};
use hierod_store::segment::{self, ColumnEncoding, LaneDef, SegmentChunk, SegmentDraft};
use hierod_store::wal::WalRecord;
use hierod_stream::{LaneId, LaneKind};
use hierod_wire::Frame;

const SAMPLES: usize = 4096;

/// A regular cadence with a little jitter: mostly `0`/`10`-bucket dods.
fn timestamps() -> Vec<u64> {
    (0..SAMPLES as u64)
        .map(|i| 1_000_000 + i * 50 + (i * 7919) % 3)
        .collect()
}

/// A slow sine plus deterministic noise, at full precision (what real
/// process data looks like) or rounded to two decimals.
fn values(quantized: bool) -> Vec<f64> {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    (0..SAMPLES)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5;
            let v = 220.0 + (i as f64 * 0.01).sin() * 50.0 + noise;
            if quantized {
                (v * 100.0).round() / 100.0
            } else {
                v
            }
        })
        .collect()
}

fn bench_gorilla(c: &mut Criterion) {
    let mut group = c.benchmark_group("gorilla");
    let ts = timestamps();
    let ts_col = compress_timestamps(&ts).unwrap();
    group.bench_function(BenchmarkId::new("compress_timestamps", SAMPLES), |b| {
        b.iter(|| compress_timestamps(black_box(&ts)).unwrap())
    });
    group.bench_function(BenchmarkId::new("decompress_timestamps", SAMPLES), |b| {
        b.iter(|| decompress_timestamps(black_box(&ts_col), SAMPLES).unwrap())
    });
    for (name, quantized) in [("quantized", true), ("full_precision", false)] {
        let vals = values(quantized);
        let col = compress_values(&vals);
        group.bench_function(BenchmarkId::new("compress_values", name), |b| {
            b.iter(|| compress_values(black_box(&vals)))
        });
        group.bench_function(BenchmarkId::new("decompress_values", name), |b| {
            b.iter(|| decompress_values(black_box(&col), SAMPLES).unwrap())
        });
    }
    group.finish();
}

fn bench_scan_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_path");
    let draft = SegmentDraft {
        lane_defs: vec![LaneDef {
            lane: 0,
            meta: b"m0/bed_temp".to_vec(),
        }],
        chunks: vec![SegmentChunk {
            lane: 0,
            after_control_seq: 1,
            timestamps: timestamps(),
            values: values(false),
            late_dropped: 0,
            duplicates_dropped: 0,
        }],
        ..SegmentDraft::default()
    };
    for encoding in [ColumnEncoding::Gorilla, ColumnEncoding::Raw] {
        let image = draft.encode_as(encoding).unwrap();
        let index = segment::decode_index(&image).unwrap();
        let meta = &index.chunks[0];
        group.bench_function(
            BenchmarkId::new("decode_chunk", format!("{encoding:?}")),
            |b| b.iter(|| segment::decode_chunk(black_box(&image), meta).unwrap()),
        );
    }
    let frame = Frame::Series {
        lanes: vec![(
            LaneId {
                machine: "m0".into(),
                sensor: "m0.bed_temp.0".into(),
                kind: LaneKind::Phase,
            },
            Arc::from(timestamps()),
            Arc::from(values(false)),
        )],
        stats: ScanStats::default(),
    };
    let mut wire = Vec::new();
    frame.encode(&mut wire);
    let payload = &wire[8..];
    group.bench_function(BenchmarkId::new("series_frame_encode", SAMPLES), |b| {
        b.iter(|| {
            let mut out = Vec::new();
            black_box(&frame).encode(&mut out);
            out
        })
    });
    group.bench_function(BenchmarkId::new("series_frame_decode", SAMPLES), |b| {
        b.iter(|| Frame::decode_payload(black_box(payload)).unwrap())
    });
    group.finish();
}

fn bench_checksums(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    let bytes: Vec<u8> = (0..21_u8).map(|b| b.wrapping_mul(37) ^ 0x5A).collect();
    for len in [13, 21] {
        let record = &bytes[..len];
        group.bench_function(BenchmarkId::new("crc32", len), |b| {
            b.iter(|| crc32(black_box(record)))
        });
    }
    let record = WalRecord::Sample {
        lane: 3,
        timestamp: 1_000_000,
        value: 221.37,
    };
    let mut out = Vec::with_capacity(64);
    group.bench_function(BenchmarkId::new("wal_sample_record", 21), |b| {
        b.iter(|| {
            out.clear();
            black_box(&record).encode(&mut out);
            out.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_gorilla, bench_scan_path, bench_checksums);
criterion_main!(benches);
