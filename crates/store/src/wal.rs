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
//! | 3   | delta run | read only: 1–[`MAX_RUN`] samples, the first as in tag 4, each later one lane varint, zigzag-varint timestamp delta from the sample before it, value f64 |
//! | 4   | run       | 1–[`MAX_RUN`] samples: the first is lane varint, timestamp varint, value f64; each later one a head byte and what it says follows (below) |
//!
//! A run is consecutive samples under one frame and one checksum.
//! Writers write tag 4; tag 3 is what they wrote before, still read. A
//! run of one is the first sample alone, so a journal of one sample per
//! record is a journal of runs of one. Writers close a run at
//! [`MAX_RUN`] samples, at every hand-off of their buffer and in front of
//! any other record ([`RunWriter`]); a sample whose timestamp lies more
//! than an `i64` from the one it is coded against opens a new run. The
//! scanner hands back one [`WalRecord::Sample`] per sample, and a torn or
//! damaged run yields none of them.
//!
//! A later sample of a tag-4 run is coded against what the run knows of
//! its lane: one head byte `L T lll ttt`, then
//!
//! - with `L` set, the lane varint; clear, the lane is the one that
//!   followed the previous sample's lane the last time that lane occurred
//!   in the run;
//! - with `T` set, a zigzag-varint delta from the lane's last timestamp
//!   (from the previous sample's, for a lane new to the run); clear, the
//!   lane's last timestamp plus its last delta;
//! - the `8 − lll − ttt` bytes of the value's bits XOR the lane's last
//!   value's (XOR 0 for a lane new to the run), little-endian, that lie
//!   between its `lll` leading and `ttt` trailing zero bytes; `(7, 7)` and
//!   no bytes is an XOR of 0.
//!
//! The run's lane state is a fixed table of 32 slots, a lane at its
//! number mod 32; a lane whose slot holds another lane is new to the run
//! and takes the slot, so encoding and decoding a sample is O(1) work on
//! any input. Every run has one encoding: a reader refuses a run a writer
//! cannot produce — `L` clear with no lane to follow, `L` set naming
//! that lane, `T` clear on a lane new to the run, `T` set with the
//! implied delta, `lll + ttt > 7` other than `(7, 7)`, zero bytes
//! outside `lll`/`ttt`, a field cut short, trailing bytes, more than
//! [`MAX_RUN`] samples, a timestamp that leaves `u64` or a lane past
//! `u32`.
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

/// Most samples one run holds. Writers close a run here; readers call a
/// longer one malformed, so decoding one record is bounded work. 512
/// samples of a served plant are ≈ 4 KiB: such a run fits one socket
/// read of the served path.
pub const MAX_RUN: usize = 512;

/// Longest payload a run of [`MAX_RUN`] samples can have: the tag, the
/// first sample's 5-byte lane, 10-byte timestamp and `f64`, then per
/// later sample a head byte, a 5-byte lane, a 10-byte delta and all 8
/// value bytes. A tag-3 run is shorter.
pub const MAX_RUN_PAYLOAD: usize = 1 + (5 + 10 + 8) + (MAX_RUN - 1) * (1 + 5 + 10 + 8);

const TAG_LANE_DEF: u8 = 1;
const TAG_CONTROL: u8 = 2;
const TAG_DELTA_RUN: u8 = 3;
const TAG_RUN: u8 = 4;

/// Head-byte flags of a later sample of a tag-4 run: the lane, and the
/// timestamp delta, follow instead of being implied.
const HEAD_LANE: u8 = 0x80;
const HEAD_DELTA: u8 = 0x40;

/// Whether `payload` is a sample run — the one question a reader of
/// framed records asks before it hands the payload to [`decode_run`].
pub fn is_run(payload: &[u8]) -> bool {
    matches!(payload.first(), Some(&(TAG_DELTA_RUN | TAG_RUN)))
}

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

/// Appends the payload of a run of one — the tag, then lane varint,
/// timestamp varint and value f64. A longer run goes on with
/// [`Lanes::put_sample`].
fn put_first_sample(out: &mut Vec<u8>, lane: u32, timestamp: u64, value: f64) {
    out.push(TAG_RUN);
    codec::put_varint(out, u64::from(lane));
    codec::put_varint(out, timestamp);
    codec::put_f64(out, value);
}

/// The leading and trailing zero bytes of a value XOR, `(7, 7)` for 0.
fn trim(xor: u64) -> (usize, usize) {
    if xor == 0 {
        return (7, 7);
    }
    let bytes = |zeros: u32| zeros as usize / 8;
    (bytes(xor.leading_zeros()), bytes(xor.trailing_zeros()))
}

/// Slots of a run's lane table; a lane sits at its number mod this.
const SLOTS: usize = 32;

/// What a run knows of one lane: its last sample's timestamp and value
/// bits, the delta that sample was coded with, and the lane that
/// followed it the last time.
#[derive(Debug, Default)]
struct Slot {
    lane: u32,
    next: Option<u32>,
    last: u64,
    step: i64,
    bits: u64,
}

/// A tag-4 run's lane state, the one model its writer and its reader
/// share: a later sample's lane is coded against [`Lanes::next_lane`],
/// the rest against the slot [`Lanes::enter`] hands out, which the
/// coder then moves on to the sample.
#[derive(Debug, Default)]
struct Lanes {
    slots: [Slot; SLOTS],
    /// Bit `i` set: slot `i` holds a lane of this run. Clearing it is
    /// how a new run forgets the last one.
    held: u32,
    /// The lane of the run's last sample; its slot holds it.
    prev: u32,
}

impl Lanes {
    fn index(lane: u32) -> usize {
        lane as usize % SLOTS
    }

    /// Forgets every lane and enters a run's first sample.
    fn open(&mut self, lane: u32, timestamp: u64, bits: u64) {
        let at = Self::index(lane);
        if let Some(slot) = self.slots.get_mut(at) {
            *slot = Slot {
                lane,
                last: timestamp,
                bits,
                ..Slot::default()
            };
        }
        self.held = 1 << at;
        self.prev = lane;
    }

    /// The lane that followed the last sample's lane the last time it
    /// occurred in the run.
    fn next_lane(&self) -> Option<u32> {
        self.slots.get(Self::index(self.prev))?.next
    }

    /// Enters a later sample on `lane`, which follows the last sample's
    /// lane: returns the lane's slot — what the sample is coded against,
    /// for the coder to move on to it — and whether the lane was in the
    /// run. A lane new to the run takes its slot, coded against the last
    /// sample's timestamp, a step of 0 and value bits 0; whatever the
    /// slot held is forgotten.
    fn enter(&mut self, lane: u32) -> Option<(&mut Slot, bool)> {
        let prev = self.slots.get_mut(Self::index(self.prev))?;
        prev.next = Some(lane);
        let last = prev.last;
        let at = Self::index(lane);
        let slot = self.slots.get_mut(at)?;
        let known = self.held >> at & 1 == 1 && slot.lane == lane;
        if !known {
            *slot = Slot {
                lane,
                last,
                ..Slot::default()
            };
            self.held |= 1 << at;
        }
        self.prev = lane;
        Some((slot, known))
    }

    /// Appends a later sample of the run. `false` — with nothing written
    /// but the state spent, so the caller opens a new run — if its
    /// timestamp lies more than an `i64` from the one it is coded
    /// against.
    fn put_sample(&mut self, out: &mut Vec<u8>, lane: u32, timestamp: u64, bits: u64) -> bool {
        let named = self.next_lane() != Some(lane);
        let Some((slot, known)) = self.enter(lane) else {
            return false;
        };
        let Ok(delta) = i64::try_from(i128::from(timestamp) - i128::from(slot.last)) else {
            return false;
        };
        let stamped = !known || delta != slot.step;
        let xor = bits ^ slot.bits;
        (slot.last, slot.step, slot.bits) = (timestamp, delta, bits);
        let (lead, trail) = trim(xor);
        let flags = if named { HEAD_LANE } else { 0 } | if stamped { HEAD_DELTA } else { 0 };
        out.push(flags | (lead << 3 | trail) as u8);
        if named {
            codec::put_varint(out, u64::from(lane));
        }
        if stamped {
            codec::put_varint(out, zigzag(delta));
        }
        // All eight bytes of the shifted XOR, cut back to its width.
        let end = out.len() + 8_usize.saturating_sub(lead + trail);
        codec::put_u64(out, xor >> (8 * trail));
        out.truncate(end);
        true
    }

    /// Reads a later sample of the run as `(lane, timestamp, value
    /// bits)`; `None` on anything [`Lanes::put_sample`] cannot write.
    fn take_sample(&mut self, buf: &mut &[u8]) -> Option<(u32, u64, u64)> {
        let head = codec::take_u8(buf)?;
        let next = self.next_lane();
        let lane = if head & HEAD_LANE == 0 {
            next?
        } else {
            let lane = u32::try_from(codec::take_varint(buf)?).ok()?;
            Some(lane).filter(|&lane| Some(lane) != next)?
        };
        let (slot, known) = self.enter(lane)?;
        let delta = if head & HEAD_DELTA == 0 {
            Some(slot.step).filter(|_| known)?
        } else {
            let delta = unzigzag(codec::take_varint(buf)?);
            Some(delta).filter(|&delta| !known || delta != slot.step)?
        };
        let timestamp = slot.last.checked_add_signed(delta)?;
        let (lead, trail) = (usize::from(head >> 3 & 7), usize::from(head & 7));
        let xor = take_le(buf, 8_usize.saturating_sub(lead + trail))? << (8 * trail);
        // One encoding: `lll + ttt > 7` reads no byte, an XOR of 0, which
        // only `(7, 7)` may name.
        if trim(xor) != (lead, trail) {
            return None;
        }
        let bits = xor ^ slot.bits;
        (slot.last, slot.step, slot.bits) = (timestamp, delta, bits);
        Some((lane, timestamp, bits))
    }
}

/// Reads a `width`-byte (0–8) little-endian number: one 8-byte load
/// where the buffer has one, masked to `width`.
fn take_le(buf: &mut &[u8], width: usize) -> Option<u64> {
    let word = buf.get(..8).and_then(|word| word.try_into().ok());
    let bytes = codec::take(buf, width)?;
    let mask = u64::MAX.checked_shr(64_u32.saturating_sub(8 * width as u32));
    Some(match word {
        Some(word) => u64::from_le_bytes(word) & mask.unwrap_or(0),
        None => bytes
            .iter()
            .rev()
            .fold(0, |number, &byte| number << 8 | u64::from(byte)),
    })
}

/// The run open at the end of a [`RunWriter`]'s buffer.
#[derive(Debug)]
struct OpenRun {
    /// Offset of the run's frame header in the buffer.
    header: usize,
    samples: usize,
}

/// The one encoder of runs: appends samples to a tag-4 run left open at
/// the end of the caller's buffer and frames it once, when it closes.
/// The store stages its journal through one, the client its ingest
/// frames, and [`encode_image`] its images; a lone sample's record
/// ([`WalRecord::encode_payload`]) is the same run of one.
///
/// While a run is open nothing but this writer may append to the
/// buffer: `RunWriter::push` closes it in front of any other record,
/// and the owner calls [`RunWriter::close`] before it hands the bytes on.
#[derive(Debug, Default)]
pub struct RunWriter {
    open: Option<OpenRun>,
    /// The open run's lane state; kept across runs for its storage.
    lanes: Lanes,
}

impl RunWriter {
    /// Appends one sample to the open run, or opens one with it. Closes
    /// the run at [`MAX_RUN`] samples.
    pub fn push_sample(&mut self, out: &mut Vec<u8>, lane: u32, timestamp: u64, value: f64) {
        if let Some(run) = self.open.as_mut() {
            if self.lanes.put_sample(out, lane, timestamp, value.to_bits()) {
                run.samples += 1;
                if run.samples >= MAX_RUN {
                    self.close(out);
                }
                return;
            }
        }
        self.close(out);
        let header = open_frame(out);
        put_first_sample(out, lane, timestamp, value);
        self.lanes.open(lane, timestamp, value.to_bits());
        self.open = Some(OpenRun { header, samples: 1 });
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
/// prefix — on another tag, no sample, more than [`MAX_RUN`], or any
/// sample a writer cannot produce (module docs).
fn walk_run(mut buf: &[u8], mut each: impl FnMut(u32, u64, f64)) -> Option<()> {
    let tag = codec::take_u8(&mut buf).filter(|&tag| tag == TAG_RUN || tag == TAG_DELTA_RUN)?;
    let lane = u32::try_from(codec::take_varint(&mut buf)?).ok()?;
    let mut last = codec::take_varint(&mut buf)?;
    let bits = codec::take_u64(&mut buf)?;
    each(lane, last, f64::from_bits(bits));
    if buf.is_empty() {
        // A run of one builds no lane state.
        return Some(());
    }
    let mut samples = 1;
    if tag == TAG_RUN {
        let mut lanes = Lanes::default();
        lanes.open(lane, last, bits);
        while !buf.is_empty() {
            (samples < MAX_RUN).then_some(())?;
            let (lane, timestamp, bits) = lanes.take_sample(&mut buf)?;
            each(lane, timestamp, f64::from_bits(bits));
            samples += 1;
        }
        return Some(());
    }
    while !buf.is_empty() {
        (samples < MAX_RUN).then_some(())?;
        let lane = u32::try_from(codec::take_varint(&mut buf)?).ok()?;
        last = last.checked_add_signed(unzigzag(codec::take_varint(&mut buf)?))?;
        each(lane, last, codec::take_f64(&mut buf)?);
        samples += 1;
    }
    Some(())
}

/// Decodes a run payload (tag 3 or 4) onto the end of `out`, one
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
            TAG_DELTA_RUN | TAG_RUN => {
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
        if is_run(payload) {
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
        let decoded = if is_run(payload) {
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

    /// A tag-3 run's payload written field by field, the way the table
    /// in the module docs states it: `(lane, timestamp or zigzag delta,
    /// value)`. Writers no longer write it; readers still read it.
    fn payload_of(samples: &[(u64, u64, f64)]) -> Vec<u8> {
        let mut out = vec![TAG_DELTA_RUN];
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

    /// Samples as `(lane, timestamp, value bits)`: NaN != NaN.
    fn bits(records: &[WalRecord]) -> Vec<(u32, u64, u64)> {
        records
            .iter()
            .map(|r| match r {
                WalRecord::Sample {
                    lane,
                    timestamp,
                    value,
                } => (*lane, *timestamp, value.to_bits()),
                _ => (0, 0, 0),
            })
            .collect()
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

    // -----------------------------------------------------------------
    // Tag-4 runs: what writers write.

    /// A later sample of a tag-4 run: its head byte and the bytes it
    /// says follow.
    type Later<'a> = (u8, &'a [u8]);

    /// A tag-4 run's payload written field by field, as the module docs
    /// lay it out: the first sample's lane, timestamp and value, then the
    /// later samples.
    fn run_of(first: (u64, u64, f64), later: &[Later]) -> Vec<u8> {
        let mut out = vec![TAG_RUN];
        codec::put_varint(&mut out, first.0);
        codec::put_varint(&mut out, first.1);
        codec::put_f64(&mut out, first.2);
        for &(head, rest) in later {
            out.push(head);
            out.extend_from_slice(rest);
        }
        out
    }

    /// Seven samples on lanes 5, 6 and 37 — which shares lane 5's slot —
    /// and the bytes of their run, sample by sample.
    fn pinned_run() -> (Vec<WalRecord>, (u64, u64, f64), Vec<Later<'static>>) {
        let records = vec![
            sample(5, 1_000, 20.0),
            sample(6, 1_000, 30.0),
            sample(5, 1_010, 20.0),
            sample(6, 1_010, 30.5),
            sample(5, 1_020, 20.0),
            sample(37, 1_020, -0.0),
            sample(5, 1_030, 20.0),
        ];
        let later: Vec<Later> = vec![
            // Lane 6 is new: lane, delta 0 from the sample before, and
            // 30.0 XOR 0, whose six low bytes are zero.
            (0xC6, &[6, 0, 0x3E, 0x40]),
            // Nothing has followed lane 6 yet: lane; delta 10 (zigzag 20)
            // against a step of 0; the same value, XOR 0.
            (0xFF, &[5, 20]),
            // Lane 6 followed lane 5 last time: implied. 30.5 XOR 30.0
            // is one byte, two leading zero bytes and five trailing.
            (0x55, &[20, 0x80]),
            // Lane 5 follows 6, 1_010 + 10, the same value: the head alone.
            (0x3F, &[]),
            // Lane 37 finds lane 5 in its slot, so it is new: -0.0 XOR 0
            // is its sign byte.
            (0xC7, &[37, 0, 0x80]),
            // Lane 5 lost its slot to 37: new again, delta 10 from the
            // sample before, 20.0 XOR 0.
            (0xC6, &[5, 20, 0x34, 0x40]),
        ];
        (records, (5, 1_000, 20.0), later)
    }

    #[test]
    fn a_run_is_laid_out_as_the_module_docs_say() {
        let (records, first, later) = pinned_run();
        let payload = run_of(first, &later);
        assert_eq!(encode_image(&records), image_of(&payload));
        assert_eq!(scan(&image_of(&payload)).records, records);
        // A run of one is the first sample alone, the record a lone
        // sample encodes to.
        let mut alone = Vec::new();
        records[0].encode_payload(&mut alone);
        assert_eq!(alone, run_of(first, &[]));
    }

    #[test]
    fn a_run_cut_anywhere_but_between_samples_is_malformed() {
        let (records, first, later) = pinned_run();
        let payload = run_of(first, &later);
        let ends: Vec<usize> = (0..=later.len())
            .map(|k| run_of(first, &later[..k]).len())
            .collect();
        for cut in 0..payload.len() {
            let image = image_of(&payload[..cut]);
            match ends.iter().position(|&end| end == cut) {
                Some(k) => assert_eq!(scan(&image).records, records[..=k], "cut at {cut}"),
                None => assert!(malformed(&image), "cut at {cut}"),
            }
        }
        // Bytes behind the last sample that are no whole sample.
        for extra in [&[0_u8][..], &[0x3F], &[0xC7, 5], &[0xC0, 5, 20, 1, 2, 3]] {
            let mut bad = payload.clone();
            bad.extend_from_slice(extra);
            assert!(malformed(&image_of(&bad)), "{extra:?}");
        }
    }

    #[test]
    fn a_run_a_writer_cannot_produce_is_malformed() {
        let first = (5, 1_000, 20.0);
        let new_lane_6: Later = (0xC6, &[6, 0, 0x3E, 0x40]);
        let lane_5: Later = (0xFF, &[5, 20]);
        // Each hostile run beside the well-formed one it departs from.
        let cases: [(&str, Vec<Later>, Vec<Later>); 6] = [
            (
                "L clear with no lane to follow",
                vec![lane_5],
                vec![(0x3F, &[])],
            ),
            (
                "L set naming the lane that follows",
                vec![new_lane_6, lane_5, (0x7F, &[20])],
                vec![new_lane_6, lane_5, (0xFF, &[6, 20])],
            ),
            (
                "T clear on a lane new to the run",
                vec![new_lane_6],
                vec![(0x86, &[6, 0x3E, 0x40])],
            ),
            (
                "T set with the implied delta",
                vec![lane_5, (0x3F, &[])],
                vec![lane_5, (0x7F, &[20])],
            ),
            (
                "a zero byte inside lll",
                vec![lane_5],
                vec![(0xC0, &[5, 20, 1, 0, 0, 0, 0, 0, 0, 0])],
            ),
            (
                "a zero byte inside ttt",
                vec![lane_5],
                vec![(0xC0, &[5, 20, 0, 0, 0, 0, 0, 0, 0, 1])],
            ),
        ];
        for (what, good, bad) in cases {
            let good = scan(&image_of(&run_of(first, &good)));
            assert!(good.corruption.is_none(), "{what}: the well-formed run");
            assert!(malformed(&image_of(&run_of(first, &bad))), "{what}");
        }
        // `lll + ttt` past 7, with and without bytes behind the head.
        for (lead, trail) in [(4_u8, 4_u8), (7, 1), (1, 7), (7, 6), (6, 7), (5, 5)] {
            let head = 0xC0 | lead << 3 | trail;
            for rest in [&[5_u8, 20][..], &[5, 20, 0x40]] {
                let bad = run_of(first, &[(head, rest)]);
                assert!(malformed(&image_of(&bad)), "({lead}, {trail}) {rest:?}");
            }
        }
    }

    #[test]
    fn a_tag_4_timestamp_that_leaves_u64_or_a_lane_past_u32_is_malformed() {
        // +5 past u64::MAX - 1 and −5 below 3, as lane 0's second sample.
        assert!(malformed(&image_of(&run_of(
            (0, u64::MAX - 1, 0.0),
            &[(0xFF, &[0, 10])]
        ))));
        assert!(malformed(&image_of(&run_of(
            (0, 3, 0.0),
            &[(0xFF, &[0, 9])]
        ))));
        // An implied step past u64::MAX: +3 to u64::MAX - 1, then +3.
        let stepped: [Later; 2] = [(0xFF, &[0, 6]), (0x3F, &[])];
        let first = (0, u64::MAX - 4, 0.0);
        assert_eq!(
            scan(&image_of(&run_of(first, &stepped[..1]))).records.len(),
            2
        );
        assert!(malformed(&image_of(&run_of(first, &stepped))));
        // A lane past u32, first or later.
        let past = u64::from(u32::MAX) + 1;
        assert!(malformed(&image_of(&run_of((past, 9, 1.0), &[]))));
        let mut later = Vec::new();
        codec::put_varint(&mut later, past);
        later.push(0);
        assert!(malformed(&image_of(&run_of(
            (0, 9, 1.0),
            &[(0xFF, &later)]
        ))));
    }

    #[test]
    fn a_tag_4_run_longer_than_the_cap_is_malformed() {
        // Lane 0 at 0, 1, 2, ... holding 0.5: after the second sample,
        // each is its head byte alone.
        let later: Vec<Later> = std::iter::once((0xFF, &[0_u8, 2][..]))
            .chain(std::iter::repeat((0x3F, &[][..])))
            .take(MAX_RUN - 1)
            .collect();
        let at_cap = run_of((0, 0, 0.5), &later);
        let records: Vec<WalRecord> = (0..MAX_RUN as u64).map(|t| sample(0, t, 0.5)).collect();
        assert_eq!(encode_image(&records), image_of(&at_cap));
        let mut past = at_cap;
        past.push(0x3F);
        assert!(malformed(&image_of(&past)));
    }

    #[test]
    fn the_longest_run_is_max_run_payload_long() {
        // Lanes past 2^28 (5-byte varints), each new to the run; the
        // timestamp starts past 2^63 and swings by more than 2^62
        // (10-byte varints); values with no zero byte at either end,
        // XOR 0.
        let records: Vec<WalRecord> = (0..MAX_RUN as u64)
            .map(|i| {
                let timestamp = u64::MAX - (i % 2) * ((1 << 62) + 1);
                let value = f64::from_bits(0x4111_1111_1111_0001 + (i << 8));
                sample((1 << 28) + i as u32, timestamp, value)
            })
            .collect();
        let image = encode_image(&records);
        assert_eq!(image.len(), WAL_MAGIC.len() + 8 + MAX_RUN_PAYLOAD);
        assert_eq!(scan(&image).records, records);
    }

    #[test]
    fn lanes_that_share_a_slot_and_odd_values_round_trip_bit_for_bit() {
        // NaN payloads and signs, ±0, subnormals, infinities.
        let odd: [u64; 10] = [
            0x7FF8_0000_0000_0001,
            0xFFF0_0000_0000_0001,
            0x7FF0_0000_0000_0000,
            0x8000_0000_0000_0000,
            0,
            1,
            0x000F_FFFF_FFFF_FFFF,
            0x800F_FFFF_FFFF_FFFF,
            f64::NAN.to_bits(),
            (-1.5_f64).to_bits(),
        ];
        // Lanes 1, 33 and 65 share a slot; timestamps go back as often
        // as forward.
        let lanes = [1, 33, 2, 65, 1, 1, 34, 2];
        let records: Vec<WalRecord> = (0..200_u64)
            .map(|i| {
                let lane = lanes[i as usize % lanes.len()];
                let timestamp = 1_000 + (i * 7919) % 97;
                let value = f64::from_bits(odd[(i * i % 11) as usize % odd.len()]);
                sample(lane, timestamp, value)
            })
            .collect();
        let image = encode_image(&records);
        let scanned = scan(&image);
        assert_eq!((scanned.corruption, scanned.valid_len), (None, image.len()));
        assert_eq!(bits(&scanned.records), bits(&records));
        let payload = image.len() - WAL_MAGIC.len() - 8;
        assert_eq!(payload, run_len(&image[WAL_MAGIC.len()..]), "one run");
    }

    /// The payload length of the frame at the front of `bytes`.
    fn run_len(mut bytes: &[u8]) -> usize {
        codec::take_u32(&mut bytes).map_or(0, |len| len as usize)
    }

    /// Samples built from drawn steps: lanes from a small set (some
    /// sharing a slot) or anywhere in `u32`; each lane's timestamp its
    /// last plus its last delta, near its last, or anywhere in `u64`;
    /// each value its lane's last, a few bits off it, or any bits.
    fn samples_of(steps: &[(u8, u32, u64, u64)]) -> Vec<WalRecord> {
        use std::collections::HashMap;
        let mut lanes: HashMap<u32, (u64, i64, u64)> = HashMap::new();
        let mut prev = 0;
        steps
            .iter()
            .enumerate()
            .map(|(i, &(mode, lane, stamp, noise))| {
                let lane = match mode % 4 {
                    0 => lane,
                    1 => lane % 70,
                    _ => i as u32 % 5 * 32,
                };
                let (last, step, last_bits) = lanes.get(&lane).copied().unwrap_or((prev, 0, 0));
                let timestamp = match mode / 4 % 4 {
                    0 => stamp,
                    1 => last.wrapping_add(stamp % 2_001).wrapping_sub(1_000),
                    _ => last.wrapping_add_signed(step),
                };
                let bits = match mode / 16 % 4 {
                    0 => noise,
                    1 => last_bits,
                    _ => last_bits ^ (noise >> (noise % 64)),
                };
                let step = i128::from(timestamp) - i128::from(last);
                lanes.insert(lane, (timestamp, i64::try_from(step).unwrap_or(0), bits));
                prev = timestamp;
                sample(lane, timestamp, f64::from_bits(bits))
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn any_samples_scan_back_bit_for_bit(
            steps in proptest::prelude::prop::collection::vec(
                (
                    proptest::prelude::any::<u8>(),
                    proptest::prelude::any::<u32>(),
                    proptest::prelude::any::<u64>(),
                    proptest::prelude::any::<u64>(),
                ),
                0..300,
            )
        ) {
            let records = samples_of(&steps);
            let image = encode_image(&records);
            let scanned = scan(&image);
            proptest::prelude::prop_assert!(scanned.corruption.is_none());
            proptest::prelude::prop_assert_eq!(scanned.valid_len, image.len());
            proptest::prelude::prop_assert_eq!(bits(&scanned.records), bits(&records));
        }

        /// A run has one encoding: a byte changed anywhere in it either
        /// makes it malformed or makes it the run a writer writes for
        /// what it now decodes to.
        #[test]
        fn a_run_with_a_byte_changed_is_malformed_or_written_so(
            (steps, at, byte) in (
                proptest::prelude::prop::collection::vec(
                    (
                        proptest::prelude::any::<u8>(),
                        proptest::prelude::any::<u32>(),
                        proptest::prelude::any::<u64>(),
                        proptest::prelude::any::<u64>(),
                    ),
                    2..40,
                ),
                proptest::prelude::any::<usize>(),
                proptest::prelude::any::<u8>(),
            )
        ) {
            let image = encode_image(&samples_of(&steps));
            let payload_len = run_len(&image[WAL_MAGIC.len()..]);
            let payload = &image[WAL_MAGIC.len() + 8..WAL_MAGIC.len() + 8 + payload_len];
            let mut changed = payload.to_vec();
            changed[1 + at % (payload_len - 1)] = byte;
            let mut decoded = Vec::new();
            if decode_run(&changed, &mut decoded, sample) {
                proptest::prelude::prop_assert_eq!(encode_image(&decoded), image_of(&changed));
            }
        }
    }
}
