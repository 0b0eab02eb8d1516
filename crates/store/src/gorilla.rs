//! Gorilla-style compressed column codecs: XOR-compressed IEEE-754
//! values and double-delta timestamps (Facebook's in-memory TSDB paper,
//! VLDB 2015), bit-packed MSB-first.
//!
//! These are the `ColumnEncoding::Gorilla` bodies of a segment column
//! ([`crate::segment`]); framing, checksums, and counts stay with the
//! segment layer — a column here is *just* the compressed payload, and
//! every decoder is total: arbitrary bytes either decode fully against
//! the expected sample count or return `None`.
//!
//! ## Timestamp column (double-delta)
//!
//! The first timestamp is 64 raw bits. The first delta and every
//! delta-of-delta after it use Gorilla's variable-width buckets:
//!
//! | prefix  | payload | range of `dod`            |
//! |---------|---------|---------------------------|
//! | `0`     | —       | 0                         |
//! | `10`    | 7 bits  | −63 ..= 64                |
//! | `110`   | 9 bits  | −255 ..= 256              |
//! | `1110`  | 12 bits | −2047 ..= 2048            |
//! | `1111`  | 64 bits | raw *delta* (escape)      |
//!
//! The escape stores the delta itself (not the `dod`), so arbitrary
//! `u64` timestamp jumps round-trip without widening every bucket.
//! A regularly sampled lane costs ~1 bit per timestamp after the first.
//!
//! ## Value column (XOR)
//!
//! The first value is 64 raw bits. Each later value is XORed with its
//! predecessor: `0` for an identical value; `10` re-uses the previous
//! leading-zero/length window; `11` opens a new window (5 bits of
//! leading zeros, 6 bits of meaningful length − 1) before the payload.
//! Raw bit patterns round-trip exactly — NaN payloads, `-0.0`,
//! subnormals, and infinities all survive.

/// An MSB-first bit accumulator over a growing byte buffer: a field
/// lands in a 64-bit word with one shift, and the word leaves as eight
/// whole bytes when it fills.
struct BitWriter {
    buf: Vec<u8>,
    /// Bits not yet in `buf`, right-aligned.
    acc: u64,
    /// How many low bits of `acc` are pending (always < 64).
    pending: u32,
}

impl BitWriter {
    fn new() -> Self {
        Self {
            buf: Vec::new(),
            acc: 0,
            pending: 0,
        }
    }

    /// Appends the low `count` bits of `value`, MSB-first. `count` must
    /// be ≤ 64 (callers pass constants and window widths).
    fn push_bits(&mut self, value: u64, count: u32) {
        let count = count.min(64);
        let value = value & u64::MAX.checked_shr(64 - count).unwrap_or(0);
        let free = 64 - self.pending;
        if count < free {
            self.acc = (self.acc << count) | value;
            self.pending += count;
            return;
        }
        // The word fills: its head leaves whole, the rest of `value` stays.
        let spill = count - free;
        let word = self.acc.checked_shl(free).unwrap_or(0) | value >> spill;
        self.buf.extend_from_slice(&word.to_be_bytes());
        self.acc = value & ((1_u64 << spill) - 1);
        self.pending = spill;
    }

    fn push_bit(&mut self, bit: bool) {
        self.push_bits(u64::from(bit), 1);
    }

    fn finish(mut self) -> Vec<u8> {
        // The pending bits, left-aligned: their bytes lead the word, the
        // last one zero-padded below its bits.
        let word = self.acc.checked_shl(64 - self.pending).unwrap_or(0);
        let bytes = self.pending.div_ceil(8) as usize;
        self.buf
            .extend_from_slice(word.to_be_bytes().get(..bytes).unwrap_or_default());
        self.buf
    }
}

/// An MSB-first bit cursor over a byte slice. All reads are total.
struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit position.
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn read_bit(&mut self) -> Option<bool> {
        let byte = self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Some(bit == 1)
    }

    /// Reads `count` (≤ 64) bits MSB-first: the ≤ 9 bytes under the
    /// cursor form one zero-padded window, shifted once.
    fn read_bits(&mut self, count: u32) -> Option<u64> {
        let count = count.min(64);
        let end = self.pos + count as usize;
        if end > self.bytes.len().saturating_mul(8) {
            return None;
        }
        let under = self.bytes.get(self.pos / 8..).unwrap_or_default();
        let window = under.first_chunk::<9>().copied().unwrap_or_else(|| {
            // The column's last bytes: zero past its end.
            let mut padded = [0_u8; 9];
            for (slot, &byte) in padded.iter_mut().zip(under) {
                *slot = byte;
            }
            padded
        });
        let [b0, b1, b2, b3, b4, b5, b6, b7, b8] = window;
        let skip = (self.pos % 8) as u32;
        let word = u64::from_be_bytes([b0, b1, b2, b3, b4, b5, b6, b7]) << skip
            | u64::from(b8) >> (8 - skip);
        self.pos = end;
        Some(word.checked_shr(64 - count).unwrap_or(0))
    }

    /// `true` when every remaining bit (byte padding) is zero.
    fn padding_is_clean(mut self) -> bool {
        // At most 7 pad bits are legal: the encoder never emits a fully
        // unused trailing byte.
        let rest = self.bytes.len() * 8 - self.pos.min(self.bytes.len() * 8);
        if rest >= 8 {
            return false;
        }
        while let Some(bit) = self.read_bit() {
            if bit {
                return false;
            }
        }
        true
    }
}

/// Bucket widths shared by encoder and decoder: (prefix bits, prefix
/// value, payload bits, bias). A delta-of-delta `d` in `-bias ..= bias+1`
/// is stored as `d + bias` in `payload` bits.
const DOD_BUCKETS: [(u32, u64, u32, i64); 3] =
    [(2, 0b10, 7, 63), (3, 0b110, 9, 255), (4, 0b1110, 12, 2047)];

/// Compresses a strictly increasing timestamp column. Returns `None`
/// when the input is not strictly increasing (the segment encoder turns
/// that into its `NonMonotonic` error).
pub fn compress_timestamps(timestamps: &[u64]) -> Option<Vec<u8>> {
    let mut w = BitWriter::new();
    let mut prev_ts: Option<u64> = None;
    let mut prev_delta: Option<u64> = None;
    for &ts in timestamps {
        match prev_ts {
            None => w.push_bits(ts, 64),
            Some(p) => {
                if ts <= p {
                    return None;
                }
                let delta = ts - p;
                let base = prev_delta.unwrap_or(0);
                let dod = i128::from(delta) - i128::from(base);
                let mut written = false;
                if dod == 0 {
                    w.push_bit(false);
                    written = true;
                } else {
                    for &(pbits, pval, bits, bias) in &DOD_BUCKETS {
                        let lo = i128::from(-bias);
                        let hi = i128::from(bias) + 1;
                        if dod >= lo && dod <= hi {
                            w.push_bits(pval, pbits);
                            let stored = dod + i128::from(bias);
                            w.push_bits(stored as u64, bits);
                            written = true;
                            break;
                        }
                    }
                }
                if !written {
                    // Escape: 4-bit prefix 1111, then the raw delta.
                    w.push_bits(0b1111, 4);
                    w.push_bits(delta, 64);
                }
                prev_delta = Some(delta);
            }
        }
        prev_ts = Some(ts);
    }
    Some(w.finish())
}

/// Decompresses `count` timestamps; `None` on truncation, non-monotonic
/// content, dirty padding, or arithmetic overflow.
pub fn decompress_timestamps(bytes: &[u8], count: usize) -> Option<Vec<u64>> {
    let mut r = BitReader::new(bytes);
    let mut out: Vec<u64> = Vec::with_capacity(count.min(bytes.len().saturating_mul(8)));
    let mut prev_delta: Option<u64> = None;
    for i in 0..count {
        let ts = if i == 0 {
            r.read_bits(64)?
        } else {
            let base = prev_delta.unwrap_or(0);
            let delta = if !r.read_bit()? {
                // prefix 0: dod == 0
                base
            } else if !r.read_bit()? {
                decode_bucket(&mut r, base, 7, 63)?
            } else if !r.read_bit()? {
                decode_bucket(&mut r, base, 9, 255)?
            } else if !r.read_bit()? {
                decode_bucket(&mut r, base, 12, 2047)?
            } else {
                r.read_bits(64)?
            };
            if delta == 0 {
                return None;
            }
            prev_delta = Some(delta);
            out.last()?.checked_add(delta)?
        };
        out.push(ts);
    }
    if count == 0 && !bytes.is_empty() {
        return None;
    }
    r.padding_is_clean().then_some(out)
}

/// Reads one biased bucket payload and applies it to the previous delta.
fn decode_bucket(r: &mut BitReader<'_>, base: u64, bits: u32, bias: i64) -> Option<u64> {
    let stored = r.read_bits(bits)?;
    let dod = i128::from(stored) - i128::from(bias);
    let delta = i128::from(base) + dod;
    u64::try_from(delta).ok()
}

/// Compresses a value column with XOR windows. Infallible: every `f64`
/// bit pattern (NaN payloads included) round-trips exactly.
pub fn compress_values(values: &[f64]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let mut prev: Option<u64> = None;
    // The open (leading zeros, meaningful length) window, if any.
    let mut window: Option<(u32, u32)> = None;
    for &v in values {
        let bits = v.to_bits();
        match prev {
            None => w.push_bits(bits, 64),
            Some(p) => {
                let xor = p ^ bits;
                if xor == 0 {
                    w.push_bit(false);
                } else {
                    w.push_bit(true);
                    // Cap leading zeros at 31 so they fit 5 bits.
                    let lead = xor.leading_zeros().min(31);
                    let trail = xor.trailing_zeros();
                    let meaningful = 64 - lead - trail;
                    let fits = window.is_some_and(|(wl, wm)| {
                        lead >= wl && 64_u32.saturating_sub(wl + wm) <= trail
                    });
                    if fits {
                        if let Some((wl, wm)) = window {
                            w.push_bit(false);
                            let wtrail = 64 - wl - wm;
                            w.push_bits(xor >> wtrail, wm);
                        }
                    } else {
                        w.push_bit(true);
                        w.push_bits(u64::from(lead), 5);
                        // meaningful ∈ 1..=64 stored as meaningful - 1.
                        w.push_bits(u64::from(meaningful - 1), 6);
                        w.push_bits(xor >> trail, meaningful);
                        window = Some((lead, meaningful));
                    }
                }
            }
        }
        prev = Some(bits);
    }
    w.finish()
}

/// Decompresses `count` values; `None` on truncation or dirty padding.
pub fn decompress_values(bytes: &[u8], count: usize) -> Option<Vec<f64>> {
    let mut r = BitReader::new(bytes);
    let mut out = Vec::with_capacity(count.min(bytes.len().saturating_mul(8)));
    let mut prev: Option<u64> = None;
    let mut window: Option<(u32, u32)> = None;
    for i in 0..count {
        let bits = if i == 0 {
            r.read_bits(64)?
        } else {
            let p = prev?;
            if !r.read_bit()? {
                p
            } else if !r.read_bit()? {
                // Re-used window.
                let (wl, wm) = window?;
                let payload = r.read_bits(wm)?;
                let wtrail = 64 - wl - wm;
                p ^ (payload << wtrail)
            } else {
                // One field: 5 bits of leading zeros, 6 of length − 1.
                let header = r.read_bits(11)? as u32;
                let lead = header >> 6;
                let meaningful = (header & 0x3f) + 1;
                if lead + meaningful > 64 {
                    return None;
                }
                let payload = r.read_bits(meaningful)?;
                let trail = 64 - lead - meaningful;
                window = Some((lead, meaningful));
                p ^ (payload << trail)
            }
        };
        out.push(f64::from_bits(bits));
        prev = Some(bits);
    }
    if count == 0 && !bytes.is_empty() {
        return None;
    }
    r.padding_is_clean().then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts_round_trip(ts: &[u64]) {
        let bytes = compress_timestamps(ts).expect("compress");
        let back = decompress_timestamps(&bytes, ts.len()).expect("decompress");
        assert_eq!(back, ts);
    }

    fn val_round_trip(vals: &[f64]) {
        let bytes = compress_values(vals);
        let back = decompress_values(&bytes, vals.len()).expect("decompress");
        let got: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "values must round-trip bit-exactly");
    }

    #[test]
    fn empty_and_single_columns() {
        ts_round_trip(&[]);
        ts_round_trip(&[0]);
        ts_round_trip(&[u64::MAX]);
        val_round_trip(&[]);
        val_round_trip(&[42.0]);
        assert!(compress_timestamps(&[]).expect("empty").is_empty());
        assert!(compress_values(&[]).is_empty());
    }

    #[test]
    fn regular_cadence_costs_about_one_bit_per_timestamp() {
        let ts: Vec<u64> = (0..1000).map(|i| 1_000_000 + i * 50).collect();
        let bytes = compress_timestamps(&ts).expect("compress");
        // 64 bits header + ~2..9 bits for the first delta + 1 bit each.
        assert!(bytes.len() < 8 + 2 + 1000 / 8 + 2, "got {}", bytes.len());
        ts_round_trip(&ts);
    }

    #[test]
    fn jittered_and_huge_deltas_round_trip() {
        let mut ts = vec![5, 6, 10, 11, 13, 5_000, 5_001];
        ts_round_trip(&ts);
        ts.push(u64::MAX - 3);
        ts.push(u64::MAX);
        ts_round_trip(&ts);
        // Shrinking deltas exercise negative dod buckets.
        ts_round_trip(&[0, 10_000, 19_000, 27_000, 34_000, 40_000]);
    }

    #[test]
    fn every_dod_bucket_boundary_round_trips() {
        // Drive dod through each bucket's extremes via crafted deltas.
        for dod in [
            0_i64,
            1,
            -1,
            63,
            64,
            -63,
            65,
            -64,
            255,
            256,
            -255,
            257,
            -256,
            2047,
            2048,
            -2047,
            2049,
            -2048,
            1 << 40,
        ] {
            let base = 1_000_000_i64;
            let d0 = 10_000_i64;
            let d1 = d0 + dod;
            if d1 <= 0 {
                continue;
            }
            let ts = [base as u64, (base + d0) as u64, (base + d0 + d1) as u64];
            ts_round_trip(&ts);
        }
    }

    #[test]
    fn out_of_order_timestamps_are_rejected() {
        assert!(compress_timestamps(&[5, 5]).is_none());
        assert!(compress_timestamps(&[5, 4]).is_none());
    }

    #[test]
    fn pathological_floats_round_trip() {
        let quiet_nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let signaling_ish = f64::from_bits(0x7ff0_0000_dead_beef);
        let neg_nan = f64::from_bits(0xfff8_1234_5678_9abc);
        val_round_trip(&[
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::from_bits(1),       // smallest subnormal
            f64::MAX,
            f64::MIN,
            quiet_nan,
            signaling_ish,
            neg_nan,
            1.0,
            1.0000000000000002,
        ]);
    }

    #[test]
    fn repeated_values_cost_one_bit_each() {
        let vals = vec![219.5_f64; 1000];
        let bytes = compress_values(&vals);
        assert!(bytes.len() < 8 + 1000 / 8 + 2, "got {}", bytes.len());
        val_round_trip(&vals);
    }

    #[test]
    fn quantized_sensor_lane_compresses_well() {
        // Industrial sensors report fixed-precision readings; the XOR
        // windows thrive on the resulting shared mantissa structure.
        let vals: Vec<f64> = (0..4096)
            .map(|i| 220.0 + ((i as f64 * 0.01).sin() * 50.0).round() / 100.0)
            .collect();
        let bytes = compress_values(&vals);
        assert!(
            bytes.len() * 2 < vals.len() * 8,
            "no compression win: {} bytes for {} samples",
            bytes.len(),
            vals.len()
        );
        val_round_trip(&vals);
    }

    #[test]
    fn truncated_streams_are_detected() {
        let ts: Vec<u64> = (0..64).map(|i| i * 7 + (i % 3)).collect();
        let bytes = compress_timestamps(&ts).expect("compress");
        for cut in 0..bytes.len() {
            assert!(
                decompress_timestamps(&bytes[..cut], ts.len()).is_none(),
                "ts cut {cut}"
            );
        }
        let vals: Vec<f64> = (0..64).map(|i| (i as f64).sqrt()).collect();
        let bytes = compress_values(&vals);
        for cut in 0..bytes.len() {
            assert!(
                decompress_values(&bytes[..cut], vals.len()).is_none(),
                "val cut {cut}"
            );
        }
    }

    /// Sets each of the pad bits below the `used` bits of `column` in
    /// turn and asserts `decodes` rejects every one.
    fn assert_every_pad_bit_rejected(column: &[u8], used: usize, decodes: impl Fn(&[u8]) -> bool) {
        assert_eq!(column.len(), used.div_ceil(8), "encoder bit count");
        let pad = column.len() * 8 - used;
        assert!(pad > 0, "the column's last byte must have padding");
        assert!(decodes(column));
        for bit in 0..pad {
            let mut dirty = column.to_vec();
            if let Some(last) = dirty.last_mut() {
                *last |= 1 << bit;
            }
            assert!(!decodes(&dirty), "pad bit {bit} of {pad} accepted");
        }
    }

    #[test]
    fn dirty_padding_is_rejected() {
        // 1.0 = 0x3FF0…, 2.0 = 0x4000… (xor 0x7FF0…: `11`, 5 + 6 header
        // bits, 11 payload bits), 3.0 = 0x4008… (xor 0x0008…, which the
        // open window cannot hold: `11`, 11 header bits, 1 payload bit):
        // 64 + 24 + 14 = 102 bits, 2 of them pad.
        let bytes = compress_values(&[1.0, 2.0, 3.0]);
        assert_every_pad_bit_rejected(&bytes, 102, |b| decompress_values(b, 3).is_some());
        // 0, then a delta of 10 (`10` + 7 bits), then a dod of 0 (`0`):
        // 64 + 9 + 1 = 74 bits, 6 of them pad.
        let ts = compress_timestamps(&[0, 10, 20]).expect("compress");
        assert_every_pad_bit_rejected(&ts, 74, |b| decompress_timestamps(b, 3).is_some());

        let mut dirty = bytes.clone();
        dirty.push(0x01);
        assert!(decompress_values(&dirty, 3).is_none());
        let mut extra_clean = bytes;
        extra_clean.push(0x00);
        assert!(
            decompress_values(&extra_clean, 3).is_none(),
            "a whole zero pad byte is still an over-long column"
        );
    }
}
