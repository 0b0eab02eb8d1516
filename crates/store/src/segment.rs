//! Immutable columnar segment files sealed from the WAL on rotation.
//!
//! Layout:
//!
//! ```text
//! [magic "HSEG1\n"]
//! per chunk:  [ts column: varint ts0, varint deltas][u32 crc]
//!             [value column: raw LE f64 × count]    [u32 crc]
//! [footer: lane defs, control records, chunk index]
//! [u32 footer_len][u32 crc32(footer)][tail magic "HSEGF\n"]
//! ```
//!
//! In the original (`Raw`) column encoding, timestamps are delta-encoded
//! varints (strictly increasing within a chunk — the stream watermark
//! guarantees it, the encoder enforces it) and values are raw IEEE-754
//! bits so NaN payloads round-trip exactly. The history tier's compacted
//! segments instead negotiate [`ColumnEncoding::Gorilla`] per chunk
//! (XOR floats + double-delta timestamps, [`crate::gorilla`]) through an
//! extension section at the end of the footer; files written before the
//! extension existed have no section and decode as `Raw`, so the two
//! formats cross-decode. The footer indexes every chunk by lane with byte
//! offsets, sample count, min/max timestamps, and the per-lane
//! late/duplicate counters frozen at seal time. Unlike the WAL, a segment
//! is all-or-nothing: it was written and fsynced before its WAL was
//! deleted, so *any* checksum or structure failure is a hard error —
//! there is no valid prefix to salvage.
//!
//! The decoder materialises columns straight into `Arc<[u64]>` /
//! `Arc<[f64]>` so `hierod-timeseries` views can share them zero-copy.
//! Range scans use the split API — [`decode_index`] verifies only the
//! framing and footer, then [`decode_chunk`] checksums and decodes
//! exactly the chunks that survive min/max pruning.

use std::fmt;
use std::sync::Arc;

use crate::codec;
use crate::crc::crc32;
use crate::gorilla;

/// File magic for segment files.
pub const SEG_MAGIC: &[u8; 6] = b"HSEG1\n";
/// Trailing magic; its presence proves the file was written to the end.
pub const SEG_TAIL: &[u8; 6] = b"HSEGF\n";

/// Why a segment failed to decode. Segments are immutable and fsynced
/// before their WAL is dropped, so every variant is unrecoverable
/// corruption of that file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentError {
    /// The file is shorter than its fixed framing.
    Truncated,
    /// Head or tail magic is wrong.
    BadMagic,
    /// A column or the footer does not match its checksum.
    ChecksumMismatch(&'static str),
    /// Structure is inconsistent (bad offsets, counts, varints).
    Malformed(&'static str),
    /// A timestamp column is not strictly increasing (also returned by
    /// the encoder when handed out-of-order input).
    NonMonotonic {
        /// The lane whose column is out of order.
        lane: u32,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Truncated => write!(f, "segment truncated"),
            SegmentError::BadMagic => write!(f, "segment magic mismatch"),
            SegmentError::ChecksumMismatch(what) => {
                write!(f, "segment checksum mismatch in {what}")
            }
            SegmentError::Malformed(what) => write!(f, "segment malformed: {what}"),
            SegmentError::NonMonotonic { lane } => {
                write!(f, "segment lane {lane}: timestamps not strictly increasing")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<SegmentError> for std::io::Error {
    fn from(e: SegmentError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// How a chunk's columns are encoded on disk, negotiated through the
/// footer extension section. Files without the section (everything
/// written before the history tier) are `Raw` throughout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ColumnEncoding {
    /// Varint-delta timestamps, raw little-endian IEEE-754 values.
    #[default]
    Raw = 0,
    /// Double-delta timestamps, XOR floats ([`crate::gorilla`]).
    Gorilla = 1,
}

impl ColumnEncoding {
    fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(ColumnEncoding::Raw),
            1 => Some(ColumnEncoding::Gorilla),
            _ => None,
        }
    }
}

/// Footer extension tags (`varint tag` after the chunk index; unknown
/// tags are a hard decode error, so they version the format).
const EXT_ENCODINGS: u64 = 1;
const EXT_EXTRA: u64 = 2;

/// A lane declaration carried into the segment footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneDef {
    /// Store-local lane number.
    pub lane: u32,
    /// Opaque lane metadata (serialised `LaneId`).
    pub meta: Vec<u8>,
}

/// A control event carried into the segment footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlRecord {
    /// Writer-assigned, strictly increasing sequence number.
    pub seq: u64,
    /// Opaque event body.
    pub payload: Vec<u8>,
}

/// One lane's sealed samples, plus the counters frozen at seal time.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentChunk {
    /// Lane declared in the footer's lane defs.
    pub lane: u32,
    /// Sequence number of the control event that opened this lane
    /// interval; recovery applies the chunk right after that control.
    pub after_control_seq: u64,
    /// Strictly increasing sample timestamps.
    pub timestamps: Vec<u64>,
    /// Sample values, same length as `timestamps`.
    pub values: Vec<f64>,
    /// Absolute late-drop counter for the lane at seal time.
    pub late_dropped: u64,
    /// Absolute duplicate-drop counter for the lane at seal time.
    pub duplicates_dropped: u64,
}

/// Everything that goes into one segment file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentDraft {
    /// Lane declarations (superset of the lanes chunks reference).
    pub lane_defs: Vec<LaneDef>,
    /// Control events sealed into this segment, in sequence order.
    pub controls: Vec<ControlRecord>,
    /// Sealed sample chunks.
    pub chunks: Vec<SegmentChunk>,
    /// Opaque application metadata carried in the footer extension
    /// (the history tier stores the compaction level here). Empty for
    /// rotation segments — and an empty `extra` is not written at all,
    /// keeping raw drafts byte-identical to the pre-extension format.
    pub extra: Vec<u8>,
}

/// One decoded chunk with shareable column storage.
#[derive(Debug, Clone)]
pub struct DecodedChunk {
    /// Lane number.
    pub lane: u32,
    /// Control sequence this chunk follows.
    pub after_control_seq: u64,
    /// Timestamp column, ready for zero-copy `TimeSeries` adoption.
    pub timestamps: Arc<[u64]>,
    /// Value column, ready for zero-copy `TimeSeries` adoption.
    pub values: Arc<[f64]>,
    /// Absolute late-drop counter at seal time.
    pub late_dropped: u64,
    /// Absolute duplicate-drop counter at seal time.
    pub duplicates_dropped: u64,
}

/// A fully verified, decoded segment.
#[derive(Debug, Clone, Default)]
pub struct SegmentData {
    /// Lane declarations.
    pub lane_defs: Vec<LaneDef>,
    /// Control events in sequence order.
    pub controls: Vec<ControlRecord>,
    /// Decoded chunks in file order.
    pub chunks: Vec<DecodedChunk>,
    /// Opaque application metadata from the footer extension.
    pub extra: Vec<u8>,
}

/// One chunk's footer metadata: everything a scan needs to decide
/// whether the chunk is worth decoding, without touching its columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Lane declared in the footer's lane defs.
    pub lane: u32,
    /// Control sequence this chunk follows on replay.
    pub after_control_seq: u64,
    /// Sample count.
    pub count: u64,
    /// Smallest timestamp in the chunk (0 when empty).
    pub min_ts: u64,
    /// Largest timestamp in the chunk (0 when empty).
    pub max_ts: u64,
    /// Absolute late-drop counter at seal time.
    pub late_dropped: u64,
    /// Absolute duplicate-drop counter at seal time.
    pub duplicates_dropped: u64,
    /// On-disk column encoding.
    pub encoding: ColumnEncoding,
    // Byte ranges stay module-private: only `decode_chunk` dereferences
    // them, after re-validating against the footer boundary.
    ts_off: u64,
    ts_len: u64,
    val_off: u64,
    val_len: u64,
}

/// A verified footer: framing and footer checksum have been checked,
/// but no column has been read. [`decode_chunk`] completes the work
/// per chunk, letting range scans skip pruned chunks entirely.
#[derive(Debug, Clone)]
pub struct SegmentIndex {
    /// Lane declarations.
    pub lane_defs: Vec<LaneDef>,
    /// Control events in sequence order.
    pub controls: Vec<ControlRecord>,
    /// Per-chunk metadata in file order.
    pub chunks: Vec<ChunkMeta>,
    /// Opaque application metadata from the footer extension.
    pub extra: Vec<u8>,
}

impl SegmentDraft {
    /// Serialises the draft into a complete segment file image with the
    /// original raw column encoding. With an empty [`extra`] this is
    /// byte-identical to the pre-extension format, which the committed
    /// golden segment pins.
    ///
    /// [`extra`]: SegmentDraft::extra
    ///
    /// # Errors
    /// [`SegmentError::NonMonotonic`] if a chunk's timestamps are not
    /// strictly increasing, [`SegmentError::Malformed`] if a chunk's
    /// column lengths disagree.
    pub fn encode(&self) -> Result<Vec<u8>, SegmentError> {
        self.encode_as(ColumnEncoding::Raw)
    }

    /// Serialises the draft with the given column encoding on every
    /// chunk. Non-raw encodings (and a non-empty [`extra`]) are recorded
    /// in footer extension sections after the chunk index; decoders
    /// without extension support reject such files outright (trailing
    /// footer bytes) rather than misreading the columns.
    ///
    /// [`extra`]: SegmentDraft::extra
    ///
    /// # Errors
    /// As [`encode`](SegmentDraft::encode).
    pub fn encode_as(&self, encoding: ColumnEncoding) -> Result<Vec<u8>, SegmentError> {
        let mut out = Vec::with_capacity(64 + self.chunks.len() * 64);
        out.extend_from_slice(SEG_MAGIC);
        let mut entries = Vec::with_capacity(self.chunks.len());
        for chunk in &self.chunks {
            if chunk.timestamps.len() != chunk.values.len() {
                return Err(SegmentError::Malformed("column length mismatch"));
            }
            let ts_col = match encoding {
                ColumnEncoding::Raw => {
                    // First value absolute, then strict deltas.
                    let mut col = Vec::with_capacity(chunk.timestamps.len() * 2);
                    let mut prev: Option<u64> = None;
                    for &t in &chunk.timestamps {
                        match prev {
                            None => codec::put_varint(&mut col, t),
                            Some(p) => {
                                if t <= p {
                                    return Err(SegmentError::NonMonotonic { lane: chunk.lane });
                                }
                                codec::put_varint(&mut col, t - p);
                            }
                        }
                        prev = Some(t);
                    }
                    col
                }
                ColumnEncoding::Gorilla => gorilla::compress_timestamps(&chunk.timestamps)
                    .ok_or(SegmentError::NonMonotonic { lane: chunk.lane })?,
            };
            let ts_off = out.len() as u64;
            out.extend_from_slice(&ts_col);
            codec::put_u32(&mut out, crc32(&ts_col));

            let val_col = match encoding {
                ColumnEncoding::Raw => {
                    let mut col = Vec::new();
                    codec::put_f64s(&mut col, &chunk.values);
                    col
                }
                ColumnEncoding::Gorilla => gorilla::compress_values(&chunk.values),
            };
            let val_off = out.len() as u64;
            out.extend_from_slice(&val_col);
            codec::put_u32(&mut out, crc32(&val_col));

            let min_ts = chunk.timestamps.first().copied().unwrap_or(0);
            let max_ts = chunk.timestamps.last().copied().unwrap_or(0);
            entries.push(ChunkMeta {
                lane: chunk.lane,
                after_control_seq: chunk.after_control_seq,
                count: chunk.timestamps.len() as u64,
                min_ts,
                max_ts,
                late_dropped: chunk.late_dropped,
                duplicates_dropped: chunk.duplicates_dropped,
                encoding,
                ts_off,
                ts_len: ts_col.len() as u64,
                val_off,
                val_len: val_col.len() as u64,
            });
        }

        let mut footer = Vec::new();
        codec::put_varint(&mut footer, self.lane_defs.len() as u64);
        for def in &self.lane_defs {
            codec::put_varint(&mut footer, u64::from(def.lane));
            codec::put_bytes(&mut footer, &def.meta);
        }
        codec::put_varint(&mut footer, self.controls.len() as u64);
        for control in &self.controls {
            codec::put_varint(&mut footer, control.seq);
            codec::put_bytes(&mut footer, &control.payload);
        }
        codec::put_varint(&mut footer, entries.len() as u64);
        for e in &entries {
            codec::put_varint(&mut footer, u64::from(e.lane));
            codec::put_varint(&mut footer, e.after_control_seq);
            codec::put_varint(&mut footer, e.count);
            codec::put_varint(&mut footer, e.ts_off);
            codec::put_varint(&mut footer, e.ts_len);
            codec::put_varint(&mut footer, e.val_off);
            codec::put_varint(&mut footer, e.val_len);
            codec::put_varint(&mut footer, e.min_ts);
            codec::put_varint(&mut footer, e.max_ts);
            codec::put_varint(&mut footer, e.late_dropped);
            codec::put_varint(&mut footer, e.duplicates_dropped);
        }
        if encoding != ColumnEncoding::Raw {
            codec::put_varint(&mut footer, EXT_ENCODINGS);
            for e in &entries {
                codec::put_varint(&mut footer, e.encoding as u64);
            }
        }
        if !self.extra.is_empty() {
            codec::put_varint(&mut footer, EXT_EXTRA);
            codec::put_bytes(&mut footer, &self.extra);
        }

        let footer_crc = crc32(&footer);
        let footer_len = footer.len() as u32;
        out.extend_from_slice(&footer);
        codec::put_u32(&mut out, footer_len);
        codec::put_u32(&mut out, footer_crc);
        out.extend_from_slice(SEG_TAIL);
        Ok(out)
    }
}

/// Decodes and verifies the framing and footer of a segment image,
/// without reading any column. Column checksums are deferred to
/// [`decode_chunk`], so a pruned scan never pays for chunks it skips.
///
/// # Errors
/// Any framing, footer checksum, or footer structure violation.
pub fn decode_index(bytes: &[u8]) -> Result<SegmentIndex, SegmentError> {
    let fixed = SEG_MAGIC.len() + 8 + SEG_TAIL.len();
    if bytes.len() < fixed {
        return Err(SegmentError::Truncated);
    }
    if !bytes.starts_with(SEG_MAGIC) || !bytes.ends_with(SEG_TAIL) {
        return Err(SegmentError::BadMagic);
    }
    let frame_at = bytes.len() - 8 - SEG_TAIL.len();
    let mut frame = bytes.get(frame_at..).unwrap_or(&[]);
    let footer_len = codec::take_u32(&mut frame).ok_or(SegmentError::Truncated)? as usize;
    let footer_crc = codec::take_u32(&mut frame).ok_or(SegmentError::Truncated)?;
    let footer_at = frame_at
        .checked_sub(footer_len)
        .ok_or(SegmentError::Malformed("footer length exceeds file"))?;
    if footer_at < SEG_MAGIC.len() {
        return Err(SegmentError::Malformed("footer overlaps header"));
    }
    let footer = bytes
        .get(footer_at..frame_at)
        .ok_or(SegmentError::Truncated)?;
    if crc32(footer) != footer_crc {
        return Err(SegmentError::ChecksumMismatch("footer"));
    }

    let mut f = footer;
    let lane_def_count = codec::take_varint(&mut f).ok_or(SegmentError::Malformed("lane defs"))?;
    let mut lane_defs = Vec::new();
    for _ in 0..lane_def_count {
        let lane = codec::take_varint(&mut f)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or(SegmentError::Malformed("lane def id"))?;
        let meta = codec::take_bytes(&mut f)
            .ok_or(SegmentError::Malformed("lane def meta"))?
            .to_vec();
        lane_defs.push(LaneDef { lane, meta });
    }
    let control_count = codec::take_varint(&mut f).ok_or(SegmentError::Malformed("controls"))?;
    let mut controls = Vec::new();
    for _ in 0..control_count {
        let seq = codec::take_varint(&mut f).ok_or(SegmentError::Malformed("control seq"))?;
        let payload = codec::take_bytes(&mut f)
            .ok_or(SegmentError::Malformed("control payload"))?
            .to_vec();
        controls.push(ControlRecord { seq, payload });
    }
    let chunk_count = codec::take_varint(&mut f).ok_or(SegmentError::Malformed("chunk index"))?;
    let mut chunks = Vec::new();
    for _ in 0..chunk_count {
        let mut next =
            |what: &'static str| codec::take_varint(&mut f).ok_or(SegmentError::Malformed(what));
        let lane_raw = next("chunk lane")?;
        chunks.push(ChunkMeta {
            lane: u32::try_from(lane_raw).map_err(|_| SegmentError::Malformed("chunk lane"))?,
            after_control_seq: next("chunk seq")?,
            count: next("chunk count")?,
            ts_off: next("chunk ts off")?,
            ts_len: next("chunk ts len")?,
            val_off: next("chunk val off")?,
            val_len: next("chunk val len")?,
            min_ts: next("chunk min ts")?,
            max_ts: next("chunk max ts")?,
            late_dropped: next("chunk late")?,
            duplicates_dropped: next("chunk dups")?,
            encoding: ColumnEncoding::Raw,
        });
    }
    // Extension sections. A pre-extension file ends exactly here and
    // keeps the all-raw default; a post-extension decoder that meets an
    // unknown tag must reject the file — it cannot know how to read it.
    let mut extra = Vec::new();
    while !f.is_empty() {
        let tag = codec::take_varint(&mut f).ok_or(SegmentError::Malformed("extension tag"))?;
        match tag {
            EXT_ENCODINGS => {
                for chunk in &mut chunks {
                    let code = codec::take_varint(&mut f)
                        .ok_or(SegmentError::Malformed("chunk encoding"))?;
                    chunk.encoding = ColumnEncoding::from_code(code)
                        .ok_or(SegmentError::Malformed("unknown column encoding"))?;
                }
            }
            EXT_EXTRA => {
                extra = codec::take_bytes(&mut f)
                    .ok_or(SegmentError::Malformed("extra section"))?
                    .to_vec();
            }
            _ => return Err(SegmentError::Malformed("unknown footer extension")),
        }
    }

    Ok(SegmentIndex {
        lane_defs,
        controls,
        chunks,
        extra,
    })
}

/// Verifies and decodes one chunk of `bytes` against its footer entry
/// (from [`decode_index`] over the same image).
///
/// # Errors
/// Checksum or structure violations in that chunk's columns, or an
/// entry whose byte ranges fall outside the file body.
pub fn decode_chunk(bytes: &[u8], meta: &ChunkMeta) -> Result<DecodedChunk, SegmentError> {
    let fixed = 8 + SEG_TAIL.len();
    let body_end = bytes
        .len()
        .checked_sub(fixed)
        .and_then(|frame_at| {
            let mut frame = bytes.get(frame_at..)?;
            let footer_len = codec::take_u32(&mut frame)? as usize;
            frame_at.checked_sub(footer_len)
        })
        .ok_or(SegmentError::Truncated)?;

    let column = |off: u64, len: u64, what: &'static str| -> Result<&[u8], SegmentError> {
        let off = usize::try_from(off).map_err(|_| SegmentError::Malformed(what))?;
        let len = usize::try_from(len).map_err(|_| SegmentError::Malformed(what))?;
        let end = off.checked_add(len).ok_or(SegmentError::Malformed(what))?;
        // The +4 checksum trailer must also fit inside the body.
        let crc_end = end.checked_add(4).ok_or(SegmentError::Malformed(what))?;
        if off < SEG_MAGIC.len() || crc_end > body_end {
            return Err(SegmentError::Malformed(what));
        }
        let col = bytes.get(off..end).ok_or(SegmentError::Malformed(what))?;
        let mut crc_bytes = bytes
            .get(end..crc_end)
            .ok_or(SegmentError::Malformed(what))?;
        let expect = codec::take_u32(&mut crc_bytes).ok_or(SegmentError::Malformed(what))?;
        if crc32(col) != expect {
            return Err(SegmentError::ChecksumMismatch(what));
        }
        Ok(col)
    };

    let e = meta;
    let count = usize::try_from(e.count).map_err(|_| SegmentError::Malformed("count"))?;
    let ts_col = column(e.ts_off, e.ts_len, "timestamp column")?;
    let val_col = column(e.val_off, e.val_len, "value column")?;

    let timestamps = match e.encoding {
        ColumnEncoding::Raw => {
            // Each varint is at least one byte, so a valid column bounds
            // the count — reject early rather than trusting it for
            // allocation.
            if count > ts_col.len() {
                return Err(SegmentError::Malformed("count exceeds ts column"));
            }
            let mut timestamps = Vec::with_capacity(count);
            let mut rest = ts_col;
            let mut prev: Option<u64> = None;
            for _ in 0..count {
                let raw = codec::take_varint(&mut rest)
                    .ok_or(SegmentError::Malformed("ts column short"))?;
                let t = match prev {
                    None => raw,
                    Some(p) => {
                        if raw == 0 {
                            return Err(SegmentError::NonMonotonic { lane: e.lane });
                        }
                        p.checked_add(raw)
                            .ok_or(SegmentError::Malformed("ts overflow"))?
                    }
                };
                timestamps.push(t);
                prev = Some(t);
            }
            if !rest.is_empty() {
                return Err(SegmentError::Malformed("ts column trailing bytes"));
            }
            timestamps
        }
        ColumnEncoding::Gorilla => gorilla::decompress_timestamps(ts_col, count)
            .ok_or(SegmentError::Malformed("gorilla ts column"))?,
    };
    let min_ts = timestamps.first().copied().unwrap_or(0);
    let max_ts = timestamps.last().copied().unwrap_or(0);
    if min_ts != e.min_ts || max_ts != e.max_ts {
        return Err(SegmentError::Malformed("min/max timestamp mismatch"));
    }

    let values = match e.encoding {
        ColumnEncoding::Raw => {
            let mut rest = val_col;
            codec::take_f64s(&mut rest, count)
                .filter(|_| rest.is_empty())
                .ok_or(SegmentError::Malformed("value column length"))?
        }
        ColumnEncoding::Gorilla => gorilla::decompress_values(val_col, count)
            .ok_or(SegmentError::Malformed("gorilla value column"))?,
    };

    Ok(DecodedChunk {
        lane: e.lane,
        after_control_seq: e.after_control_seq,
        timestamps: timestamps.into(),
        values: values.into(),
        late_dropped: e.late_dropped,
        duplicates_dropped: e.duplicates_dropped,
    })
}

/// Decodes and fully verifies a segment file image.
///
/// # Errors
/// Any framing, checksum, or structure violation — segments have no
/// salvageable prefix.
pub fn decode(bytes: &[u8]) -> Result<SegmentData, SegmentError> {
    let index = decode_index(bytes)?;
    let mut chunks = Vec::with_capacity(index.chunks.len());
    for meta in &index.chunks {
        chunks.push(decode_chunk(bytes, meta)?);
    }
    Ok(SegmentData {
        lane_defs: index.lane_defs,
        controls: index.controls,
        chunks,
        extra: index.extra,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draft() -> SegmentDraft {
        SegmentDraft {
            lane_defs: vec![
                LaneDef {
                    lane: 0,
                    meta: b"m0/bed_temp/phase".to_vec(),
                },
                LaneDef {
                    lane: 1,
                    meta: b"m0/room_temp/env".to_vec(),
                },
                LaneDef {
                    lane: 2,
                    meta: b"m1/vibration/phase".to_vec(),
                },
            ],
            controls: vec![
                ControlRecord {
                    seq: 1,
                    payload: b"machine_up m0".to_vec(),
                },
                ControlRecord {
                    seq: 2,
                    payload: b"job_start m0 j0".to_vec(),
                },
            ],
            chunks: vec![
                SegmentChunk {
                    lane: 0,
                    after_control_seq: 2,
                    timestamps: vec![100, 101, 105, 1_000_000],
                    values: vec![219.5, f64::NAN, -0.0, 1e300],
                    late_dropped: 3,
                    duplicates_dropped: 1,
                },
                SegmentChunk {
                    lane: 1,
                    after_control_seq: 1,
                    timestamps: vec![42],
                    values: vec![21.0],
                    late_dropped: 0,
                    duplicates_dropped: 0,
                },
                SegmentChunk {
                    lane: 2,
                    after_control_seq: 2,
                    timestamps: Vec::new(),
                    values: Vec::new(),
                    late_dropped: 0,
                    duplicates_dropped: 7,
                },
            ],
            extra: Vec::new(),
        }
    }

    #[test]
    fn round_trip_including_empty_and_single_sample_chunks() {
        let d = draft();
        let image = d.encode().expect("encode");
        let data = decode(&image).expect("decode");
        assert_eq!(data.lane_defs, d.lane_defs);
        assert_eq!(data.controls, d.controls);
        assert_eq!(data.chunks.len(), d.chunks.len());
        for (got, want) in data.chunks.iter().zip(&d.chunks) {
            assert_eq!(got.lane, want.lane);
            assert_eq!(got.after_control_seq, want.after_control_seq);
            assert_eq!(got.timestamps.as_ref(), want.timestamps.as_slice());
            let bits: Vec<u64> = got.values.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u64> = want.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, want_bits, "values must round-trip bit-exactly");
            assert_eq!(got.late_dropped, want.late_dropped);
            assert_eq!(got.duplicates_dropped, want.duplicates_dropped);
        }
    }

    #[test]
    fn empty_segment_round_trips() {
        let image = SegmentDraft::default().encode().expect("encode");
        let data = decode(&image).expect("decode");
        assert!(data.lane_defs.is_empty());
        assert!(data.controls.is_empty());
        assert!(data.chunks.is_empty());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let image = draft().encode().expect("encode");
        for byte in 0..image.len() {
            for bit in 0..8 {
                let mut bad = image.clone();
                bad[byte] ^= 1_u8 << bit;
                assert!(
                    decode(&bad).is_err(),
                    "bit flip at {byte}:{bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let image = draft().encode().expect("encode");
        for cut in 0..image.len() {
            assert!(decode(&image[..cut]).is_err(), "truncation at {cut}");
        }
    }

    #[test]
    fn gorilla_encoding_round_trips_and_shrinks_the_image() {
        let d = draft();
        let raw = d.encode().expect("raw encode");
        let packed = d
            .encode_as(ColumnEncoding::Gorilla)
            .expect("gorilla encode");
        let from_raw = decode(&raw).expect("raw decode");
        let from_packed = decode(&packed).expect("gorilla decode");
        assert_eq!(from_raw.lane_defs, from_packed.lane_defs);
        assert_eq!(from_raw.controls, from_packed.controls);
        assert_eq!(from_raw.chunks.len(), from_packed.chunks.len());
        for (a, b) in from_raw.chunks.iter().zip(&from_packed.chunks) {
            assert_eq!(a.lane, b.lane);
            assert_eq!(a.after_control_seq, b.after_control_seq);
            assert_eq!(a.timestamps, b.timestamps);
            let bits_a: Vec<u64> = a.values.iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u64> = b.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "cross-decode must be bit-exact");
            assert_eq!(a.late_dropped, b.late_dropped);
            assert_eq!(a.duplicates_dropped, b.duplicates_dropped);
        }
    }

    #[test]
    fn extra_metadata_round_trips_and_empty_extra_is_pre_extension_format() {
        let mut d = draft();
        let before = d.encode().expect("encode");
        d.extra = b"level=2".to_vec();
        let with_extra = d.encode().expect("encode");
        assert_ne!(before, with_extra);
        assert_eq!(decode(&with_extra).expect("decode").extra, b"level=2");
        assert!(decode(&before).expect("decode").extra.is_empty());
        let index = decode_index(&with_extra).expect("index");
        assert!(index
            .chunks
            .iter()
            .all(|c| c.encoding == ColumnEncoding::Raw));
    }

    #[test]
    fn every_single_bit_flip_in_a_gorilla_image_is_detected() {
        let mut d = draft();
        d.extra = vec![2];
        let image = d.encode_as(ColumnEncoding::Gorilla).expect("encode");
        for byte in 0..image.len() {
            for bit in 0..8 {
                let mut bad = image.clone();
                bad[byte] ^= 1_u8 << bit;
                assert!(
                    decode(&bad).is_err(),
                    "bit flip at {byte}:{bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn index_prunes_without_touching_columns() {
        let d = draft();
        let image = d.encode_as(ColumnEncoding::Gorilla).expect("encode");
        let index = decode_index(&image).expect("index");
        assert_eq!(index.chunks.len(), 3);
        assert_eq!(index.chunks[0].min_ts, 100);
        assert_eq!(index.chunks[0].max_ts, 1_000_000);
        assert_eq!(index.chunks[0].count, 4);
        assert_eq!(index.chunks[0].encoding, ColumnEncoding::Gorilla);
        // Corrupt a value column byte: the index still parses (footer is
        // intact), and only the touched chunk fails to decode.
        let mut bad = image.clone();
        bad[SEG_MAGIC.len() + 2] ^= 0x40;
        let index = decode_index(&bad).expect("index survives column damage");
        assert!(decode_chunk(&bad, &index.chunks[0]).is_err());
        assert!(decode_chunk(&bad, &index.chunks[1]).is_ok());
    }

    #[test]
    fn unknown_footer_extension_is_rejected() {
        // Splice an unknown ext tag after a valid footer and re-frame.
        let image = draft().encode().expect("encode");
        let frame_at = image.len() - 8 - SEG_TAIL.len();
        let footer_len = u32::from_le_bytes([
            image[frame_at],
            image[frame_at + 1],
            image[frame_at + 2],
            image[frame_at + 3],
        ]) as usize;
        let footer_at = frame_at - footer_len;
        let mut footer = image[footer_at..frame_at].to_vec();
        codec::put_varint(&mut footer, 99);
        let mut spliced = image[..footer_at].to_vec();
        let crc = crc32(&footer);
        let len = footer.len() as u32;
        spliced.extend_from_slice(&footer);
        codec::put_u32(&mut spliced, len);
        codec::put_u32(&mut spliced, crc);
        spliced.extend_from_slice(SEG_TAIL);
        assert!(matches!(
            decode(&spliced),
            Err(SegmentError::Malformed("unknown footer extension"))
        ));
    }

    #[test]
    fn encoder_rejects_out_of_order_and_mismatched_columns() {
        let mut d = SegmentDraft::default();
        d.chunks.push(SegmentChunk {
            lane: 5,
            after_control_seq: 0,
            timestamps: vec![10, 10],
            values: vec![1.0, 2.0],
            late_dropped: 0,
            duplicates_dropped: 0,
        });
        assert_eq!(d.encode(), Err(SegmentError::NonMonotonic { lane: 5 }));

        d.chunks.clear();
        d.chunks.push(SegmentChunk {
            lane: 5,
            after_control_seq: 0,
            timestamps: vec![10],
            values: Vec::new(),
            late_dropped: 0,
            duplicates_dropped: 0,
        });
        assert!(matches!(d.encode(), Err(SegmentError::Malformed(_))));
    }
}
