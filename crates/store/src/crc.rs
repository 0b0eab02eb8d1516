//! CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-8.
//!
//! Every WAL record payload, wire frame, segment column and history chunk
//! is covered by one of these checksums; recovery treats a mismatch as
//! corruption and truncates (WAL) or rejects (segment). Dependency-free by
//! construction — the offline build environment has no `crc32fast`.
//!
//! Eight 256-entry tables, built at compile time: table `k` maps a byte to
//! its CRC contribution when `k` more bytes follow it, so eight input bytes
//! fold into the running checksum with eight independent lookups instead
//! of eight dependent ones. The last four whole bytes of a record take
//! the same step with tables `3..0`, so at most three bytes are folded one
//! at a time.

/// The reflected IEEE polynomial used by zlib, gzip, and ethernet.
const POLY: u32 = 0xEDB8_8320;

/// The checksum register after shifting `byte` and then `zeros` zero
/// bytes through it.
const fn entry(byte: u32, zeros: u32) -> u32 {
    let mut crc = byte;
    let mut bit = 0;
    while bit < 8 * (zeros + 1) {
        crc = if crc & 1 != 0 {
            (crc >> 1) ^ POLY
        } else {
            crc >> 1
        };
        bit += 1;
    }
    crc
}

const fn table(zeros: u32) -> [u32; 256] {
    let mut table = [0_u32; 256];
    let mut rest: &mut [u32] = &mut table;
    let mut byte = 0;
    while let Some((slot, tail)) = rest.split_first_mut() {
        *slot = entry(byte, zeros);
        rest = tail;
        byte += 1;
    }
    table
}

static TABLES: [[u32; 256]; 8] = [
    table(0),
    table(1),
    table(2),
    table(3),
    table(4),
    table(5),
    table(6),
    table(7),
];

/// `table[x & 0xFF]`; the mask keeps the index in range, so the fallback
/// is never taken and the bounds check compiles away.
#[inline(always)]
fn at(table: &[u32; 256], x: u32) -> u32 {
    table.get((x & 0xFF) as usize).copied().unwrap_or(0)
}

/// CRC-32 of `bytes` (initial value all-ones, final complement — the
/// standard `crc32(..)` everyone else computes).
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let &[a, b, c, d, e, f, g, h] = chunk else {
            continue;
        };
        let lo = crc ^ u32::from_le_bytes([a, b, c, d]);
        let hi = u32::from_le_bytes([e, f, g, h]);
        crc = at(t7, lo)
            ^ at(t6, lo >> 8)
            ^ at(t5, lo >> 16)
            ^ at(t4, lo >> 24)
            ^ at(t3, hi)
            ^ at(t2, hi >> 8)
            ^ at(t1, hi >> 16)
            ^ at(t0, hi >> 24);
    }
    // A short record (a 13-byte sample payload) ends with up to seven
    // bytes: four of them fold with one independent step, as above.
    let mut rest = chunks.remainder();
    if let [a, b, c, d, tail @ ..] = rest {
        let lo = crc ^ u32::from_le_bytes([*a, *b, *c, *d]);
        crc = at(t3, lo) ^ at(t2, lo >> 8) ^ at(t1, lo >> 16) ^ at(t0, lo >> 24);
        rest = tail;
    }
    for &b in rest {
        crc = (crc >> 8) ^ at(t0, crc ^ u32::from(b));
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the sliced one replaced, kept as the oracle.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ entry((crc ^ u32::from(b)) & 0xFF, 0);
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn every_length_at_every_alignment_equals_the_bytewise_oracle() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let noise: Vec<u8> = (0..64 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &noise[offset..offset + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_the_checksum() {
        let clean = b"hierod wal record payload".to_vec();
        let base = crc32(&clean);
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut flipped = clean.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
