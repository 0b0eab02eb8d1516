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
//! | tag | record    | payload                                   |
//! |-----|-----------|-------------------------------------------|
//! | 1   | `LaneDef` | lane varint, meta bytes (opaque)          |
//! | 2   | `Control` | seq varint, payload bytes (opaque)        |
//! | 3   | `Sample`  | lane varint, timestamp varint, value f64  |
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
pub const MAX_RECORD_LEN: u32 = 1 << 24;

/// Cap on lane numbers: a lane number is below this wherever it indexes
/// a table — a connection's wire-lane table, a plant's lane table, the
/// table recovery rebuilds from `LaneDef` records. Without it twelve
/// checksum-valid bytes naming lane `u32::MAX` are a multi-GiB allocation.
/// 65,536 lanes is three orders of magnitude past the largest plant the
/// benchmark serves (22 lanes) and costs at most a few MiB of table.
pub const MAX_LANES: u32 = 1 << 16;

const TAG_LANE_DEF: u8 = 1;
const TAG_CONTROL: u8 = 2;
const TAG_SAMPLE: u8 = 3;

/// Appends one framed record — `[u32 len][u32 crc32(payload)][payload]`,
/// the framing the WAL and the wire share — whose payload `body` writes
/// in place: the header is reserved first and patched after, so framing
/// allocates nothing and copies nothing.
pub fn put_framed(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0; 8]);
    body(out);
    let payload = out.get(header + 8..).unwrap_or_default();
    let (len, crc) = (payload.len() as u32, crc32(payload));
    if let Some(slot) = out.get_mut(header..header + 8) {
        let (len_slot, crc_slot) = slot.split_at_mut(4);
        len_slot.copy_from_slice(&len.to_le_bytes());
        crc_slot.copy_from_slice(&crc.to_le_bytes());
    }
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
    /// One raw sensor sample on a lane.
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
    /// Appends the record's payload (tag + body), unframed.
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
            } => {
                out.push(TAG_SAMPLE);
                codec::put_varint(out, u64::from(*lane));
                codec::put_varint(out, *timestamp);
                codec::put_f64(out, *value);
            }
        }
    }

    /// Appends the framed record (length, checksum, payload) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_framed(out, |out| self.encode_payload(out));
    }

    /// Decodes a payload that is exactly one `Sample` record into
    /// `(lane, timestamp, value)`; `None` for any other record or any
    /// malformation. The served ingest path reads runs of samples through
    /// this without building a [`WalRecord`] per frame.
    pub fn decode_sample(mut buf: &[u8]) -> Option<(u32, u64, f64)> {
        if codec::take_u8(&mut buf)? != TAG_SAMPLE {
            return None;
        }
        let lane = u32::try_from(codec::take_varint(&mut buf)?).ok()?;
        let timestamp = codec::take_varint(&mut buf)?;
        let value = codec::take_f64(&mut buf)?;
        buf.is_empty().then_some((lane, timestamp, value))
    }

    /// Decodes one payload (tag + body). Requires full consumption.
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
                let (lane, timestamp, value) = Self::decode_sample(bytes)?;
                return Some(WalRecord::Sample {
                    lane,
                    timestamp,
                    value,
                });
            }
            _ => return None,
        };
        buf.is_empty().then_some(record)
    }

    /// Best-effort lane attribution, used to count corrupt records per
    /// lane even when the checksum failed.
    fn lane_of(payload: &[u8]) -> Option<u32> {
        match Self::decode_payload(payload)? {
            WalRecord::LaneDef { lane, .. } | WalRecord::Sample { lane, .. } => Some(lane),
            WalRecord::Control { .. } => None,
        }
    }
}

/// Why a WAL scan stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
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
    pub kind: CorruptionKind,
    /// Lane attribution when the payload structure was still readable.
    pub lane: Option<u32>,
}

/// Result of scanning a WAL file image.
#[derive(Debug, Clone, Default)]
pub struct WalScan {
    /// Every record of the longest valid prefix, in write order.
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
        let Some(record) = WalRecord::decode_payload(payload) else {
            stop(&mut out, offset, CorruptionKind::Malformed, None);
            return out;
        };
        out.records.push(record);
        offset += 8 + len as usize;
        out.valid_len = offset;
    }
}

/// Serialises a fresh WAL image (magic + records) — used when rewriting
/// a truncated log and by tests.
pub fn encode_image(records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_MAGIC.len() + records.len() * 24);
    out.extend_from_slice(WAL_MAGIC);
    for record in records {
        record.encode(&mut out);
    }
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
        // Record boundaries: offsets at which a cut is clean.
        let mut boundaries = vec![WAL_MAGIC.len()];
        for r in &records {
            let mut one = Vec::new();
            r.encode(&mut one);
            let last = boundaries.last().copied().unwrap_or(0);
            boundaries.push(last + one.len());
        }
        for cut in 0..image.len() {
            let result = scan(&image[..cut]);
            let complete = boundaries.iter().filter(|&&b| b <= cut).count();
            let complete = complete.saturating_sub(1).min(records.len());
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
}
