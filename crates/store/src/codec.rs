//! Byte-level encoding primitives shared by the WAL and segment formats.
//!
//! Everything on disk is little-endian; variable-length integers use the
//! LEB128-style `varint` (7 bits per byte, high bit = continuation) that
//! keeps delta-encoded timestamp columns compact. Decoders are total: any
//! byte slice either parses or returns `None` — no panics, no indexing —
//! so torn and bit-flipped input degrades into a decode failure the
//! recovery layer can count and skip.

/// Appends a `u32` little-endian.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a column of `f64`s as their IEEE-754 bit patterns,
/// little-endian, in one pass.
pub fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    out.reserve(values.len().saturating_mul(8));
    out.extend(values.iter().flat_map(|v| v.to_le_bytes()));
}

/// Appends a `u64` as a LEB128 varint (1–10 bytes).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`put_varint`] writes for `v` (1–10), for sizing a buffer ahead
/// of the writes.
pub fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// Appends a length-prefixed byte string (varint length + raw bytes).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Consumes `n` bytes from the front of `buf`, advancing it.
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Some(head)
}

/// Reads one byte.
pub fn take_u8(buf: &mut &[u8]) -> Option<u8> {
    take(buf, 1)?.first().copied()
}

/// Reads a little-endian `u32`.
pub fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    take(buf, 4)?.try_into().ok().map(u32::from_le_bytes)
}

/// Reads a little-endian `u64`.
pub fn take_u64(buf: &mut &[u8]) -> Option<u64> {
    take(buf, 8)?.try_into().ok().map(u64::from_le_bytes)
}

/// Reads a little-endian `f64` bit pattern.
pub fn take_f64(buf: &mut &[u8]) -> Option<f64> {
    take(buf, 8)?.try_into().ok().map(f64::from_le_bytes)
}

/// Reads a column of `n` little-endian `f64` bit patterns; `None` when
/// `buf` holds fewer. Nothing is allocated before the bytes are known to
/// be there, so `n` may be any claim.
pub fn take_f64s(buf: &mut &[u8], n: usize) -> Option<Vec<f64>> {
    let bytes = take(buf, n.checked_mul(8)?)?;
    let mut values = Vec::with_capacity(n);
    values.extend(
        bytes
            .chunks_exact(8)
            .filter_map(|b| b.try_into().ok().map(f64::from_le_bytes)),
    );
    Some(values)
}

/// Reads a LEB128 varint; rejects encodings longer than 10 bytes, a
/// tenth byte above 1 and overlong zero tails, so each `u64` has one
/// encoding.
pub fn take_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0_u32;
    loop {
        let byte = take_u8(buf)?;
        let bits = (byte & 0x7F) as u64;
        // A tenth byte may carry one bit: none may fall off the top.
        v |= bits
            .checked_shl(shift)
            .filter(|&shifted| shifted >> shift == bits)?;
        if byte & 0x80 == 0 {
            // Reject non-canonical overlong zero-continuation tails.
            if shift > 0 && bits == 0 {
                return None;
            }
            return Some(v);
        }
        shift += 7;
        if shift >= 70 {
            return None;
        }
    }
}

/// Reads a length-prefixed byte string.
pub fn take_bytes<'a>(buf: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = take_varint(buf)?;
    let len = usize::try_from(len).ok()?;
    take(buf, len)
}

/// Reads a length-prefixed UTF-8 string.
pub fn take_str(buf: &mut &[u8]) -> Option<String> {
    let bytes = take_bytes(buf)?;
    String::from_utf8(bytes.to_vec()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        for v in [
            0_u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            (1 << 56) - 1,
            1 << 56,
            (1 << 63) - 1,
            1 << 63,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "length of {v}");
            let mut slice = buf.as_slice();
            assert_eq!(take_varint(&mut slice), Some(v));
            assert!(slice.is_empty(), "trailing bytes for {v}");
        }
    }

    #[test]
    fn truncated_input_returns_none() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 0xDEAD_BEEF_CAFE_F00D);
        put_str(&mut buf, "lane/m0.bed_temp.0");
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            if take_u64(&mut slice).is_some() {
                assert!(take_str(&mut slice).is_none(), "cut at {cut} parsed");
            }
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 11 continuation bytes: longer than any canonical u64.
        let bytes = [0x80_u8; 11];
        let mut slice = &bytes[..];
        assert_eq!(take_varint(&mut slice), None);
        // u64::MAX is nine 0xFF and a 1; a tenth byte above 1 names bits
        // past u64, and a zero tail is a shorter number written long.
        for (tail, want) in [(1, Some(u64::MAX)), (2, None), (0x7F, None)] {
            let mut bytes = vec![0xFF_u8; 9];
            bytes.push(tail);
            assert_eq!(take_varint(&mut &bytes[..]), want, "tenth byte {tail}");
        }
        assert_eq!(take_varint(&mut &[0x85_u8, 0][..]), None);
    }

    #[test]
    fn strings_round_trip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "");
        put_str(&mut buf, "m0.room_temp");
        let mut slice = buf.as_slice();
        assert_eq!(take_str(&mut slice).as_deref(), Some(""));
        assert_eq!(take_str(&mut slice).as_deref(), Some("m0.room_temp"));
    }
}
