//! Oracle tests for the Gorilla column codecs: the word-at-a-time
//! `BitReader`/`BitWriter` must produce and accept exactly what the
//! bit-at-a-time originals did.
//!
//! `mod reference` is the pre-PR-25 codec, verbatim — one loop turn per
//! bit on both sides. Every encoder output must equal its bytes, and
//! every decoder must return its `Option` on arbitrary byte strings and
//! on damaged valid columns (truncated, dirty-padded, one zero byte too
//! long) at counts around the true one: the fast path keeps the codec
//! total, not just correct on what the encoder writes.

mod reference {
    /// An MSB-first bit accumulator over a growing byte buffer.
    struct BitWriter {
        buf: Vec<u8>,
        /// Bits already used in the final byte of `buf` (0 = byte-aligned).
        used: u32,
    }

    impl BitWriter {
        fn new() -> Self {
            Self {
                buf: Vec::new(),
                used: 0,
            }
        }

        /// Appends the low `count` bits of `value`, MSB-first. `count` must
        /// be ≤ 64 (callers pass constants).
        fn push_bits(&mut self, value: u64, count: u32) {
            let mut remaining = count.min(64);
            while remaining > 0 {
                if self.used == 0 {
                    self.buf.push(0);
                    self.used = 0;
                }
                let free = 8 - self.used;
                let take = free.min(remaining);
                // The `take` bits of `value` just below bit `remaining`.
                let chunk = if remaining >= 64 {
                    value >> (64 - take)
                } else {
                    (value >> (remaining - take)) & ((1_u64 << take) - 1)
                };
                if let Some(last) = self.buf.last_mut() {
                    *last |= (chunk as u8) << (free - take);
                }
                self.used = (self.used + take) % 8;
                // A full byte means the next push starts a fresh one.
                if self.used == 0 && take == free {
                    // nothing: push_bits allocates lazily above
                }
                remaining -= take;
            }
        }

        fn push_bit(&mut self, bit: bool) {
            self.push_bits(u64::from(bit), 1);
        }

        fn finish(self) -> Vec<u8> {
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

        /// Reads `count` (≤ 64) bits MSB-first.
        fn read_bits(&mut self, count: u32) -> Option<u64> {
            let mut out = 0_u64;
            for _ in 0..count.min(64) {
                out = (out << 1) | u64::from(self.read_bit()?);
            }
            Some(out)
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
                    let lead = r.read_bits(5)? as u32;
                    let meaningful = r.read_bits(6)? as u32 + 1;
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
}

use proptest::prelude::*;

use hierod_store::gorilla::{
    compress_timestamps, compress_values, decompress_timestamps, decompress_values,
};

/// Bit patterns an XOR codec trips on: NaN payloads of both signs, ±0,
/// subnormals, ±∞, the extremes.
const SPECIAL_BITS: [u64; 12] = [
    0,
    0x8000_0000_0000_0000,
    1,
    0x000f_ffff_ffff_ffff,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x7ff8_0000_0000_0001,
    0x7ff0_0000_dead_beef,
    0xfff8_1234_5678_9abc,
    0x7fef_ffff_ffff_ffff,
    0xffef_ffff_ffff_ffff,
    u64::MAX,
];

/// Strictly increasing timestamps from `(kind, raw)` steps: repeats of
/// the previous gap (dod 0), small jitter, every bucket's range, and
/// escape-sized jumps; `tail_max` appends `u64::MAX` when it still fits.
fn timestamps_from(start: u64, steps: &[(u8, u64)], tail_max: bool) -> Vec<u64> {
    let mut ts = vec![start];
    let mut gap = 1_u64;
    for &(kind, raw) in steps {
        gap = match kind % 6 {
            0 => gap,
            1 => (gap + raw % 5).saturating_sub(2).max(1),
            2 => 1 + raw % 300,
            3 => 1 + raw % 5_000,
            4 => 1 + raw % (1 << 24),
            _ => raw.max(1),
        };
        let Some(next) = ts.last().and_then(|t| t.checked_add(gap)) else {
            break;
        };
        ts.push(next);
    }
    if tail_max && ts.last() != Some(&u64::MAX) {
        ts.push(u64::MAX);
    }
    ts
}

/// Values from `(kind, raw)` steps: repeats, low-bit and high-bit
/// perturbations (re-used and re-opened XOR windows), arbitrary bit
/// patterns, and the special patterns.
fn values_from(first: u64, steps: &[(u8, u64)]) -> Vec<f64> {
    let mut bits = vec![first];
    for &(kind, raw) in steps {
        let prev = bits.last().copied().unwrap_or(0);
        bits.push(match kind % 6 {
            0 => prev,
            1 => prev ^ (raw & 0xffff),
            2 => prev ^ (raw & 0x000f_ffff_ffff_ffff),
            3 => prev ^ (raw << (raw % 64)),
            4 => SPECIAL_BITS[(raw % SPECIAL_BITS.len() as u64) as usize],
            _ => raw,
        });
    }
    bits.into_iter().map(f64::from_bits).collect()
}

fn value_bits(values: Option<Vec<f64>>) -> Option<Vec<u64>> {
    values.map(|v| v.iter().map(|x| x.to_bits()).collect())
}

/// Both decoders, new and reference, agree on `bytes` at `count`.
fn decoders_agree(bytes: &[u8], count: usize) {
    assert_eq!(
        decompress_timestamps(bytes, count),
        reference::decompress_timestamps(bytes, count),
        "timestamps: {bytes:02x?} × {count}"
    );
    assert_eq!(
        value_bits(decompress_values(bytes, count)),
        value_bits(reference::decompress_values(bytes, count)),
        "values: {bytes:02x?} × {count}"
    );
}

/// The damaged forms of a valid column: every truncation, every bit of
/// the last byte set (pad bits among them), one zero byte too long.
fn damaged(column: &[u8]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..column.len())
        .map(|cut| column[..cut].to_vec())
        .collect();
    for bit in 0..8 {
        let mut dirty = column.to_vec();
        if let Some(last) = dirty.last_mut() {
            *last |= 1 << bit;
        }
        out.push(dirty);
    }
    let mut long = column.to_vec();
    long.push(0);
    out.push(long);
    out
}

fn steps() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((any::<u8>(), any::<u64>()), 0..48)
}

#[test]
fn special_patterns_encode_as_the_reference() {
    for &a in &SPECIAL_BITS {
        for &b in &SPECIAL_BITS {
            let vals = [f64::from_bits(a), f64::from_bits(b), f64::from_bits(a)];
            assert_eq!(compress_values(&vals), reference::compress_values(&vals));
        }
    }
    for ts in [
        vec![u64::MAX],
        vec![0, u64::MAX],
        vec![0, 1, u64::MAX - 1, u64::MAX],
    ] {
        assert_eq!(
            compress_timestamps(&ts),
            reference::compress_timestamps(&ts)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compress_timestamps_matches_the_reference(
        start in any::<u64>(),
        steps in steps(),
        tail_max in any::<bool>(),
    ) {
        let ts = timestamps_from(start % (1 << 48), &steps, tail_max);
        let bytes = compress_timestamps(&ts);
        prop_assert_eq!(&bytes, &reference::compress_timestamps(&ts));
        let bytes = bytes.expect("strictly increasing");
        prop_assert_eq!(decompress_timestamps(&bytes, ts.len()), Some(ts.clone()));
        for column in damaged(&bytes) {
            for count in [ts.len().saturating_sub(1), ts.len(), ts.len() + 1] {
                decoders_agree(&column, count);
            }
        }
    }

    #[test]
    fn compress_timestamps_rejects_as_the_reference(ts in prop::collection::vec(any::<u64>(), 0..8)) {
        prop_assert_eq!(compress_timestamps(&ts), reference::compress_timestamps(&ts));
    }

    #[test]
    fn compress_values_matches_the_reference(first in any::<u64>(), steps in steps()) {
        let vals = values_from(first, &steps);
        let bytes = compress_values(&vals);
        prop_assert_eq!(&bytes, &reference::compress_values(&vals));
        prop_assert_eq!(
            value_bits(decompress_values(&bytes, vals.len())),
            value_bits(Some(vals.clone()))
        );
        for column in damaged(&bytes) {
            for count in [vals.len().saturating_sub(1), vals.len(), vals.len() + 1] {
                decoders_agree(&column, count);
            }
        }
    }

    #[test]
    fn decoders_match_the_reference_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        count in 0_usize..=64,
    ) {
        decoders_agree(&bytes, count);
        for column in damaged(&bytes) {
            decoders_agree(&column, count);
        }
    }
}
