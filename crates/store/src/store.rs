//! The [`Store`] facade: one active WAL, a run of sealed segments, and
//! the rotation/recovery protocol between them.
//!
//! On-storage layout (flat namespace):
//!
//! ```text
//! hist-0-3.seg  hist-4-5.seg                  compacted, immutable
//! compaction.floor                            first uncompacted index
//! seg-F.seg  …  seg-(W-1).seg                 sealed, immutable
//! wal-W.log                                   active, append-only
//! ```
//!
//! Rotation from WAL `N` (all steps through [`crate::storage::Storage`]):
//!
//! 1. write `seg-N.seg.tmp`, fsync, rename to `seg-N.seg`
//! 2. write `wal-(N+1).log.tmp` holding the caller's carry-over records
//!    (samples still buffered in reorder windows), fsync, rename
//! 3. delete `wal-N.log`
//!
//! Each step is individually atomic, so a crash anywhere leaves one of
//! three recoverable states. [`layout`] is **the single recovery rule**
//! — the one function that reads a directory listing, and the only
//! statement of which files are live. Everything that opens a store
//! directory goes through it: [`Store::open`] (layout → remove the
//! stale → load → truncate a torn WAL tail), the read-only [`load`]
//! (the same minus the two mutating steps), and the history tier's
//! `snapshot` and `compact`. It sorts every name into one of three
//! classes:
//!
//! * **live** — the highest-numbered WAL; the rotation segments from
//!   the compaction floor up to that WAL's index, which must be
//!   contiguous; below the floor, the committed history files, which
//!   must tile `0..floor`;
//! * **stale** — `*.tmp` (never published), a lower-numbered WAL, a
//!   rotation segment below the floor, a history file that reaches the
//!   floor (never committed) or whose range is a strict subset of a
//!   committed one (superseded): removed by `Store::open`, skipped by
//!   every reader;
//! * **ignored** — a segment at or above the WAL index: an aborted
//!   rotation whose WAL survived. Nobody reads it and nobody removes
//!   it; the next rotation rewrites it.
//!
//! A crash between 1 and 2 leaves `seg-N` and `wal-N` coexisting — the
//! segment is ignored and the WAL replayed, so nothing is
//! double-applied. A crash between 2 and 3 leaves two WALs — the lower
//! one's content is fully covered by `seg-N` + the carry-over, so it is
//! stale and deleted unread.
//!
//! The active WAL tail is scanned with truncate-at-first-bad-record
//! semantics; `Store::open` rewrites a damaged tail (tmp + rename) to
//! contain exactly the valid prefix.
//!
//! ## Compaction (the history tier above rotation)
//!
//! `hierod-history` merges runs of sealed rotation segments into
//! compacted `hist-<lo>-<hi>.seg` files (inclusive index range) and
//! advances the **compaction floor** — a tiny checksummed marker file
//! holding the first index still owned by per-rotation segments. Its
//! publication is the commit point, and the rule above already covers
//! every state it can leave: a history file published but not yet
//! committed reaches the floor; a tier merge whose input cleanup was
//! interrupted leaves strict subsets of the merged range; an L0 step
//! whose cleanup was interrupted leaves rotation segments below the
//! floor.

use std::io;

use crate::codec;
use crate::crc::crc32;
use crate::segment::{self, SegmentData, SegmentDraft};
use crate::storage::{Storage, StorageFile};
use crate::wal::{self, RunWriter, WalCorruption, WalRecord};

/// Tuning knobs for a [`Store`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Fsync after this many appended records (group commit). `1` syncs
    /// every record; larger values batch. Clamped to at least 1.
    pub group_commit: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self { group_commit: 64 }
    }
}

/// What recovery found and repaired while opening a store.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// Sealed segments loaded (all verified end-to-end).
    pub segments_loaded: usize,
    /// Valid records recovered from the active WAL tail.
    pub wal_records: usize,
    /// Bytes dropped when truncating a damaged WAL tail.
    pub wal_truncated_bytes: u64,
    /// The first bad WAL record, when the tail was damaged.
    pub corruption: Option<WalCorruption>,
    /// Leftover `*.tmp` files from an interrupted rotation, removed.
    pub tmp_files_removed: usize,
    /// Stale lower-numbered WALs from an interrupted rotation, removed.
    pub stale_wals_removed: usize,
    /// Compacted history files loaded (all verified end-to-end).
    pub hist_loaded: usize,
    /// Uncommitted or superseded history files, removed.
    pub stale_hist_removed: usize,
    /// Rotation segments below the compaction floor, removed.
    pub stale_segments_removed: usize,
}

/// Everything a caller needs to rebuild state after a restart.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// Sealed segments in index order.
    pub segments: Vec<SegmentData>,
    /// Valid records from the active WAL, in write order.
    pub wal: Vec<WalRecord>,
    /// Repair accounting.
    pub stats: RecoveryStats,
}

fn wal_name(index: u64) -> String {
    format!("wal-{index}.log")
}

/// Name of the rotation segment sealed from WAL `index`.
pub fn seg_name(index: u64) -> String {
    format!("seg-{index}.seg")
}

/// Name of a compacted history file covering rotation segments
/// `lo..=hi`.
pub fn hist_name(lo: u64, hi: u64) -> String {
    format!("hist-{lo}-{hi}.seg")
}

/// Parses a [`hist_name`] back into its inclusive index range.
pub fn parse_hist_name(name: &str) -> Option<(u64, u64)> {
    let body = name.strip_prefix("hist-")?.strip_suffix(".seg")?;
    let (lo, hi) = body.split_once('-')?;
    let lo: u64 = lo.parse().ok()?;
    let hi: u64 = hi.parse().ok()?;
    (lo <= hi).then_some((lo, hi))
}

fn parse_index(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Writes `bytes` as `name` atomically: tmp file, fsync, rename. This is
/// the only way anything immutable reaches storage — rotation segments,
/// history files, and floor markers all publish through it.
///
/// # Errors
/// Storage I/O failures (including an injected crash); the target name
/// is untouched on error.
pub fn publish<S: Storage>(storage: &S, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = format!("{name}.tmp");
    let mut file = storage.create(&tmp)?;
    file.append(bytes)?;
    file.sync()?;
    drop(file);
    storage.rename(&tmp, name)
}

/// Name of the compaction floor marker file.
pub const FLOOR_NAME: &str = "compaction.floor";

const FLOOR_MAGIC: &[u8; 6] = b"HFLR1\n";

/// Reads the compaction floor: the first rotation-segment index *not*
/// yet covered by compacted history files. Absent marker means 0.
///
/// # Errors
/// Storage I/O failures, or a marker that fails its checksum — the
/// marker is published atomically, so damage is real corruption.
pub fn read_floor<S: Storage>(storage: &S) -> io::Result<u64> {
    let bytes = match storage.read(FLOOR_NAME) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let bad = || invalid(format!("{FLOOR_NAME}: malformed marker"));
    let mut rest = bytes.strip_prefix(FLOOR_MAGIC.as_slice()).ok_or_else(bad)?;
    let body_len = rest.len().checked_sub(4).ok_or_else(bad)?;
    let body = rest.get(..body_len).ok_or_else(bad)?;
    let mut crc_bytes = rest.get(body_len..).ok_or_else(bad)?;
    let expect = codec::take_u32(&mut crc_bytes).ok_or_else(bad)?;
    if crc32(body) != expect {
        return Err(invalid(format!("{FLOOR_NAME}: checksum mismatch")));
    }
    rest = body;
    let floor = codec::take_varint(&mut rest).ok_or_else(bad)?;
    if !rest.is_empty() {
        return Err(bad());
    }
    Ok(floor)
}

/// Atomically publishes a new compaction floor. This is the commit
/// point of an L0 compaction: once the marker is durable, the covered
/// rotation segments are stale.
///
/// # Errors
/// Storage I/O failures (including an injected crash).
pub fn publish_floor<S: Storage>(storage: &S, floor: u64) -> io::Result<()> {
    let mut body = Vec::with_capacity(10);
    codec::put_varint(&mut body, floor);
    let mut image = Vec::with_capacity(FLOOR_MAGIC.len() + body.len() + 4);
    image.extend_from_slice(FLOOR_MAGIC);
    image.extend_from_slice(&body);
    codec::put_u32(&mut image, crc32(&body));
    publish(storage, FLOOR_NAME, &image)
}

/// How [`layout`] divides a directory listing: what is live, what is
/// stale (by kind), and what is merely ignored. Every listed name falls
/// into exactly one of the three.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    /// The compaction floor the listing was read under.
    pub floor: u64,
    /// Index of the active WAL. The live rotation segments are exactly
    /// `floor..wal_index`.
    pub wal_index: u64,
    /// Whether the active WAL is listed. A fresh directory has none, nor
    /// has one that crashed before its very first WAL became durable.
    pub wal_present: bool,
    /// Live history ranges (inclusive), ascending: they tile `0..floor`.
    pub hist: Vec<(u64, u64)>,
    /// Stale: `*.tmp` files, written but never published.
    pub stale_tmp: Vec<String>,
    /// Stale: history files never committed (they reach the floor) or
    /// superseded (a strict subset of a committed range).
    pub stale_hist: Vec<String>,
    /// Stale: rotation segments below the floor.
    pub stale_segments: Vec<String>,
    /// Stale: WALs below the highest-numbered one.
    pub stale_wals: Vec<String>,
    /// Neither read nor removed: a rotation segment at or above the WAL
    /// index (an aborted rotation whose WAL survived; the next rotation
    /// rewrites it), and any name that is not a store file's — the floor
    /// marker among them, whose content arrives as `floor`.
    pub ignored: Vec<String>,
}

impl Layout {
    /// Names of the live sealed files in replay order: history files by
    /// range start, then rotation segments by index.
    pub fn sealed_names(&self) -> impl Iterator<Item = String> + '_ {
        let hist = self.hist.iter().map(|&(lo, hi)| hist_name(lo, hi));
        hist.chain((self.floor..self.wal_index).map(seg_name))
    }
}

/// The single recovery rule (module docs): sorts a directory listing,
/// read under compaction floor `floor`, into live, stale and ignored
/// names. Pure — it touches no storage, so the store's recovery and
/// every read-only consumer see one directory the same way.
///
/// # Errors
/// A listing whose live files do not cover what they must: history
/// files that leave a gap in `0..floor` or stop short of it (a committed
/// history file vanished — as fatal as a missing rotation segment), or
/// rotation segments that are not exactly `floor..wal_index` (rotation
/// seals every index once, so the run is contiguous), or an active WAL
/// below the floor.
pub fn layout(names: &[String], floor: u64) -> io::Result<Layout> {
    let mut out = Layout {
        floor,
        ..Layout::default()
    };
    let mut hist = Vec::new();
    let mut segs = Vec::new();
    let mut wals = Vec::new();
    for name in names {
        if name.ends_with(".tmp") {
            out.stale_tmp.push(name.clone());
        } else if let Some(range) = parse_hist_name(name) {
            hist.push((range, name));
        } else if let Some(index) = parse_index(name, "seg-", ".seg") {
            segs.push((index, name));
        } else if let Some(index) = parse_index(name, "wal-", ".log") {
            wals.push((index, name));
        } else {
            out.ignored.push(name.clone());
        }
    }

    hist.sort_unstable();
    let mut next_expected = 0;
    for &((lo, hi), name) in &hist {
        let committed = hi < floor;
        let superseded = hist
            .iter()
            .any(|&((l2, h2), _)| l2 <= lo && hi <= h2 && (h2 - l2) > (hi - lo) && h2 < floor);
        if !committed || superseded {
            out.stale_hist.push(name.clone());
            continue;
        }
        if lo != next_expected {
            return Err(invalid(format!(
                "history run mismatch: expected range starting at {next_expected}, \
                 found hist-{lo}-{hi}.seg"
            )));
        }
        out.hist.push((lo, hi));
        next_expected = hi + 1;
    }
    if next_expected != floor {
        return Err(invalid(format!(
            "history run mismatch: floor is {floor} but history covers 0..{next_expected}"
        )));
    }

    let active = wals.iter().map(|&(index, _)| index).max();
    out.wal_present = active.is_some();
    for &(index, name) in &wals {
        if Some(index) < active {
            out.stale_wals.push(name.clone());
        }
    }
    segs.sort_unstable();
    // With no WAL at all, start after the last sealed segment, or at the
    // floor when compaction consumed them all.
    out.wal_index = active.unwrap_or_else(|| segs.last().map_or(0, |&(m, _)| m + 1).max(floor));
    let mut run = Vec::with_capacity(segs.len());
    for &(index, name) in &segs {
        if index < floor {
            out.stale_segments.push(name.clone());
        } else if index < out.wal_index {
            run.push(index);
        } else {
            out.ignored.push(name.clone());
        }
    }
    // A WAL below the floor would seal its next segment under history
    // that already covers the index: as inconsistent as a gap.
    if out.wal_index < floor || !run.iter().copied().eq(floor..out.wal_index) {
        return Err(invalid(format!(
            "segment run mismatch: expected seg-{floor}..seg-{}, found {run:?}",
            out.wal_index
        )));
    }
    Ok(out)
}

/// Lists the directory, reads its floor marker and applies [`layout`].
///
/// # Errors
/// Storage I/O failures, a damaged floor marker, and [`layout`]'s.
pub fn read_layout<S: Storage>(storage: &S) -> io::Result<Layout> {
    layout(&storage.list()?, read_floor(storage)?)
}

/// Reads what `layout` calls live: every sealed file, decoded and
/// verified end to end, and the valid prefix of the active WAL.
fn load_files<S: Storage>(storage: &S, layout: &Layout) -> io::Result<Recovered> {
    let mut recovered = Recovered::default();
    for name in layout.sealed_names() {
        let data =
            segment::decode(&storage.read(&name)?).map_err(|e| invalid(format!("{name}: {e}")))?;
        recovered.segments.push(data);
    }
    recovered.stats.hist_loaded = layout.hist.len();
    recovered.stats.segments_loaded = recovered.segments.len() - layout.hist.len();
    if layout.wal_present {
        let bytes = storage.read(&wal_name(layout.wal_index))?;
        let scanned = wal::scan(&bytes);
        recovered.stats.wal_records = scanned.records.len();
        if scanned.corruption.is_some() {
            recovered.stats.wal_truncated_bytes =
                (bytes.len() as u64).saturating_sub(scanned.valid_len as u64);
        }
        recovered.stats.corruption = scanned.corruption;
        recovered.wal = scanned.records;
    }
    Ok(recovered)
}

/// [`Store::open`]'s reading of a directory without its two mutating
/// steps: nothing stale is removed and a torn WAL tail is skipped, not
/// truncated, so this may run beside the store that owns the directory.
/// The removal counters of the returned stats stay zero;
/// `wal_truncated_bytes` counts the bytes past the valid prefix.
///
/// # Errors
/// As [`Store::open`].
pub fn load<S: Storage>(storage: &S) -> io::Result<Recovered> {
    load_files(storage, &read_layout(storage)?)
}

/// A durable record log with segment sealing and crash recovery.
pub struct Store<S: Storage> {
    storage: S,
    writer: Box<dyn StorageFile>,
    wal_index: u64,
    group_commit: usize,
    unsynced: usize,
    /// Encoded records not yet handed to `writer` (see [`Store::append`]).
    staged: Vec<u8>,
    /// The run of samples open at the end of `staged`.
    runs: RunWriter,
    /// Why the journal stopped taking writes, once a hand-off or sync of
    /// the active WAL has failed.
    failed: Option<(io::ErrorKind, String)>,
}

impl<S: Storage> Store<S> {
    /// Opens (or initialises) a store, running full recovery: apply
    /// [`layout`], remove what it calls stale, load and verify every
    /// sealed file, scan the active WAL tail and truncate damage.
    ///
    /// # Errors
    /// Storage I/O failures; a directory [`layout`] rejects (nothing is
    /// removed from it); a sealed file that fails verification (sealed
    /// files have no salvageable prefix).
    pub fn open(storage: S, options: StoreOptions) -> io::Result<(Self, Recovered)> {
        let layout = read_layout(&storage)?;
        let stale = [
            &layout.stale_tmp,
            &layout.stale_hist,
            &layout.stale_segments,
            &layout.stale_wals,
        ];
        for name in stale.into_iter().flatten() {
            storage.remove(name)?;
        }
        let mut recovered = load_files(&storage, &layout)?;
        recovered.stats.tmp_files_removed = layout.stale_tmp.len();
        recovered.stats.stale_hist_removed = layout.stale_hist.len();
        recovered.stats.stale_segments_removed = layout.stale_segments.len();
        recovered.stats.stale_wals_removed = layout.stale_wals.len();

        // A damaged tail is rewritten to exactly its valid prefix; a
        // missing WAL starts empty.
        let active_name = wal_name(layout.wal_index);
        if recovered.stats.corruption.is_some() || !layout.wal_present {
            publish(&storage, &active_name, &wal::encode_image(&recovered.wal))?;
        }

        let writer = storage.open_append(&active_name)?;
        Ok((
            Self {
                storage,
                writer,
                wal_index: layout.wal_index,
                group_commit: options.group_commit.max(1),
                unsynced: 0,
                staged: Vec::new(),
                runs: RunWriter::default(),
                failed: None,
            },
            recovered,
        ))
    }

    /// Remembers the first failed write of the active WAL and fails every
    /// later one the same way: after a failed hand-off nobody knows how
    /// much of it the file took, so a record staged later must not land
    /// behind the hole (recovery on reopen is the way back).
    fn guard(&mut self, result: io::Result<()>) -> io::Result<()> {
        if let Err(e) = &result {
            self.failed = Some((e.kind(), e.to_string()));
        }
        result
    }

    fn check(&self) -> io::Result<()> {
        match &self.failed {
            Some((kind, message)) => Err(io::Error::new(*kind, message.clone())),
            None => Ok(()),
        }
    }

    /// Appends one record to the active WAL. The record is encoded behind
    /// the records already staged, in a buffer that is reused (no
    /// allocation per record), and the file is handed the staged bytes
    /// once per batch, not once per record: at every `group_commit`-th
    /// record, which also syncs, at a [`Store::flush`], and at a
    /// [`Store::commit`], the hard barrier.
    ///
    /// Consecutive samples are staged as one run (the WAL's tag-3
    /// record, [`wal::RunWriter`]): one frame and one checksum, each
    /// sample's timestamp a delta from the one before. A run closes at
    /// every hand-off, in front of any other record, and at
    /// [`wal::MAX_RUN`] samples. Group commit still counts one per
    /// sample, so the sync points are those of one record per sample,
    /// in fewer bytes; a crash loses nothing a sync covered, and a run
    /// torn by a crash is dropped whole.
    ///
    /// Readers of the live WAL ([`Storage::read`]) see handed-over bytes
    /// only: a caller whose own callers may read it flushes before it
    /// returns.
    ///
    /// # Errors
    /// Storage I/O failures (including an injected crash) of the group
    /// commit; every call after a failed write of this WAL.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        self.check()?;
        self.runs.push(&mut self.staged, record);
        self.unsynced += 1;
        if self.unsynced >= self.group_commit {
            self.commit()?;
        }
        Ok(())
    }

    /// Closes the open run and hands every staged record to the active
    /// WAL file (no sync).
    ///
    /// # Errors
    /// Storage I/O failures (including an injected crash).
    pub fn flush(&mut self) -> io::Result<()> {
        self.check()?;
        self.runs.close(&mut self.staged);
        if self.staged.is_empty() {
            return Ok(());
        }
        let handed = self.writer.append(&self.staged);
        self.staged.clear();
        self.guard(handed)
    }

    /// Hands over what is staged and fsyncs the active WAL, making every
    /// record appended so far durable.
    ///
    /// # Errors
    /// Storage I/O failures (including an injected crash).
    pub fn commit(&mut self) -> io::Result<()> {
        self.flush()?;
        if self.unsynced > 0 {
            let synced = self.writer.sync();
            self.guard(synced)?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Seals the active WAL into a segment and starts the next WAL.
    ///
    /// `draft` must cover every *released* sample and every control event
    /// journalled to the active WAL; `carry` holds the records that are
    /// journalled but not yet released (reorder-buffer contents), which
    /// become the opening records of the next WAL. Together they must be
    /// a superset of the active WAL's content — after this call returns,
    /// the old WAL is gone.
    ///
    /// # Errors
    /// Encoding failures ([`segment::SegmentError`] mapped to
    /// `InvalidData`) and storage I/O failures. On error the store is
    /// still on the old WAL (the sequence is crash-safe, see module docs).
    pub fn rotate(&mut self, draft: &SegmentDraft, carry: &[WalRecord]) -> io::Result<()> {
        let image = draft
            .encode()
            .map_err(|e| invalid(format!("segment encode: {e}")))?;
        // Everything in the draft is about to outlive the WAL; make the
        // WAL fully durable first so a crash inside rotation can still
        // replay it.
        self.commit()?;
        publish(&self.storage, &seg_name(self.wal_index), &image)?;
        let next = self.wal_index + 1;
        publish(&self.storage, &wal_name(next), &wal::encode_image(carry))?;
        self.storage.remove(&wal_name(self.wal_index))?;
        self.writer = self.storage.open_append(&wal_name(next))?;
        self.wal_index = next;
        self.unsynced = 0;
        Ok(())
    }

    /// Index of the active WAL (equals the number of sealed segments).
    pub fn wal_index(&self) -> u64 {
        self.wal_index
    }

    /// The underlying storage.
    pub fn storage(&self) -> &S {
        &self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultfs::MemStorage;
    use crate::segment::{ControlRecord, LaneDef, SegmentChunk};

    fn sample(lane: u32, ts: u64, value: f64) -> WalRecord {
        WalRecord::Sample {
            lane,
            timestamp: ts,
            value,
        }
    }

    fn opts(group_commit: usize) -> StoreOptions {
        StoreOptions { group_commit }
    }

    #[test]
    fn fresh_open_then_reopen_round_trips_the_wal() {
        let mem = MemStorage::new();
        let (mut store, recovered) = Store::open(mem.clone(), opts(2)).expect("open");
        assert!(recovered.wal.is_empty());
        assert_eq!(store.wal_index(), 0);
        store
            .append(&WalRecord::LaneDef {
                lane: 0,
                meta: b"m0".to_vec(),
            })
            .expect("append");
        store.append(&sample(0, 10, 1.0)).expect("append");
        store.append(&sample(0, 11, 2.0)).expect("append");
        store.commit().expect("commit");
        drop(store);

        let (_store, recovered) = Store::open(mem, opts(2)).expect("reopen");
        assert_eq!(recovered.wal.len(), 3);
        assert_eq!(recovered.stats.wal_records, 3);
        assert!(recovered.stats.corruption.is_none());
    }

    #[test]
    fn group_commit_batches_syncs() {
        let mem = MemStorage::new();
        let (mut store, _) = Store::open(mem.clone(), opts(4)).expect("open");
        for i in 0..3 {
            store.append(&sample(0, i, 0.0)).expect("append");
        }
        // Not yet synced: a crash that drops unsynced bytes loses them.
        assert_eq!(store.unsynced, 3);
        let image = mem.crash_image(false);
        let (_s, recovered) = Store::open(image, opts(4)).expect("recover");
        assert_eq!(recovered.wal.len(), 0);
        // The fourth append crosses the group-commit threshold.
        store.append(&sample(0, 3, 0.0)).expect("append");
        assert_eq!(store.unsynced, 0);
        let image = mem.crash_image(false);
        let (_s, recovered) = Store::open(image, opts(4)).expect("recover");
        assert_eq!(recovered.wal.len(), 4);
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let mem = MemStorage::new();
        let (mut store, _) = Store::open(mem.clone(), opts(1)).expect("open");
        for i in 0..5 {
            store.append(&sample(0, i, i as f64)).expect("append");
        }
        drop(store);
        let len = mem.file_len("wal-0.log").expect("len");
        assert!(mem.tear("wal-0.log", len - 3));
        let (_s, recovered) = Store::open(mem.clone(), opts(1)).expect("recover");
        assert_eq!(recovered.wal.len(), 4);
        assert!(recovered.stats.wal_truncated_bytes > 0);
        assert!(recovered.stats.corruption.is_some());
        // The damaged tail was rewritten: reopening is clean.
        let (_s, again) = Store::open(mem, opts(1)).expect("reopen");
        assert_eq!(again.wal.len(), 4);
        assert!(again.stats.corruption.is_none());
    }

    fn draft_for(records: &[WalRecord]) -> (SegmentDraft, Vec<WalRecord>) {
        // Minimal sealer for tests: everything released, nothing carried.
        let mut draft = SegmentDraft::default();
        let mut ts = Vec::new();
        let mut vals = Vec::new();
        for r in records {
            match r {
                WalRecord::LaneDef { lane, meta } => draft.lane_defs.push(LaneDef {
                    lane: *lane,
                    meta: meta.clone(),
                }),
                WalRecord::Control { seq, payload } => draft.controls.push(ControlRecord {
                    seq: *seq,
                    payload: payload.clone(),
                }),
                WalRecord::Sample {
                    timestamp, value, ..
                } => {
                    ts.push(*timestamp);
                    vals.push(*value);
                }
            }
        }
        draft.chunks.push(SegmentChunk {
            lane: 0,
            after_control_seq: 0,
            timestamps: ts,
            values: vals,
            late_dropped: 0,
            duplicates_dropped: 0,
        });
        (draft, Vec::new())
    }

    #[test]
    fn rotation_seals_and_recovery_sees_segments_plus_tail() {
        let mem = MemStorage::new();
        let (mut store, _) = Store::open(mem.clone(), opts(8)).expect("open");
        let first: Vec<WalRecord> = (0..4).map(|i| sample(0, i, i as f64)).collect();
        for r in &first {
            store.append(r).expect("append");
        }
        let (draft, carry) = draft_for(&first);
        store.rotate(&draft, &carry).expect("rotate");
        assert_eq!(store.wal_index(), 1);
        store.append(&sample(0, 100, 7.0)).expect("append");
        store.commit().expect("commit");
        drop(store);

        let (store, recovered) = Store::open(mem, opts(8)).expect("recover");
        assert_eq!(store.wal_index(), 1);
        assert_eq!(recovered.stats.segments_loaded, 1);
        assert_eq!(recovered.segments.len(), 1);
        let seg = recovered.segments.first().expect("segment");
        let chunk = seg.chunks.first().expect("chunk");
        assert_eq!(chunk.timestamps.as_ref(), &[0, 1, 2, 3]);
        assert_eq!(recovered.wal.len(), 1);
    }

    #[test]
    fn floor_marker_round_trips_and_rejects_damage() {
        let mem = MemStorage::new();
        assert_eq!(read_floor(&mem).expect("absent floor"), 0);
        publish_floor(&mem, 7).expect("publish");
        assert_eq!(read_floor(&mem).expect("read"), 7);
        publish_floor(&mem, 300).expect("publish");
        assert_eq!(read_floor(&mem).expect("read"), 300);
        let len = mem.file_len(FLOOR_NAME).expect("len");
        for at in 0..len {
            for bit in 0..8 {
                let probe = mem.crash_image(true);
                assert!(probe.flip_bit(FLOOR_NAME, at, bit));
                assert!(
                    read_floor(&probe).is_err(),
                    "bit flip at {at}:{bit} went undetected"
                );
            }
        }
    }

    /// Builds a store with two sealed rotation segments and a tail WAL,
    /// then hand-runs an L0 compaction of both into `hist-0-1.seg`,
    /// returning the storage just *before* each protocol step so tests
    /// can probe every intermediate state.
    fn compacted_store() -> MemStorage {
        let mem = MemStorage::new();
        let (mut store, _) = Store::open(mem.clone(), opts(8)).expect("open");
        for round in 0..2_u64 {
            let records: Vec<WalRecord> = (0..4)
                .map(|i| sample(0, round * 100 + i, i as f64))
                .collect();
            for r in &records {
                store.append(r).expect("append");
            }
            store.commit().expect("commit");
            let (draft, carry) = draft_for(&records);
            store.rotate(&draft, &carry).expect("rotate");
        }
        drop(store);
        // Merge seg-0 + seg-1 into one history file, commit the floor,
        // remove the inputs — the compactor's protocol, inlined.
        let merged = {
            let a = segment::decode(&mem.read("seg-0.seg").expect("seg-0")).expect("decode");
            let b = segment::decode(&mem.read("seg-1.seg").expect("seg-1")).expect("decode");
            let mut draft = SegmentDraft::default();
            for s in [&a, &b] {
                for c in &s.chunks {
                    draft.chunks.push(crate::segment::SegmentChunk {
                        lane: c.lane,
                        after_control_seq: c.after_control_seq,
                        timestamps: c.timestamps.to_vec(),
                        values: c.values.to_vec(),
                        late_dropped: c.late_dropped,
                        duplicates_dropped: c.duplicates_dropped,
                    });
                }
            }
            draft.encode().expect("encode")
        };
        publish(&mem, &hist_name(0, 1), &merged).expect("publish hist");
        publish_floor(&mem, 2).expect("publish floor");
        mem.remove("seg-0.seg").expect("rm seg-0");
        mem.remove("seg-1.seg").expect("rm seg-1");
        mem
    }

    fn recovered_sample_count(recovered: &Recovered) -> usize {
        let seg: usize = recovered
            .segments
            .iter()
            .flat_map(|s| &s.chunks)
            .map(|c| c.timestamps.len())
            .sum();
        seg + recovered
            .wal
            .iter()
            .filter(|r| matches!(r, WalRecord::Sample { .. }))
            .count()
    }

    #[test]
    fn recovery_replays_history_files_below_the_floor() {
        let mem = compacted_store();
        let (store, recovered) = Store::open(mem, opts(8)).expect("recover");
        assert_eq!(read_floor(store.storage()).expect("floor"), 2);
        assert_eq!(store.wal_index(), 2);
        assert_eq!(recovered.stats.hist_loaded, 1);
        assert_eq!(recovered.stats.segments_loaded, 0);
        assert_eq!(recovered.stats.stale_hist_removed, 0);
        assert_eq!(recovered.stats.stale_segments_removed, 0);
        assert_eq!(recovered_sample_count(&recovered), 8);
    }

    #[test]
    fn uncommitted_history_file_is_removed_on_recovery() {
        // A history file at or past the floor was never committed.
        let mem = compacted_store();
        publish(&mem, &hist_name(2, 3), b"garbage-never-committed").expect("publish");
        let (_s, recovered) = Store::open(mem.clone(), opts(8)).expect("recover");
        assert_eq!(recovered.stats.stale_hist_removed, 1);
        assert_eq!(recovered_sample_count(&recovered), 8);
        assert!(!mem.list().expect("list").contains(&hist_name(2, 3)));
    }

    #[test]
    fn stale_rotation_segments_below_the_floor_are_removed() {
        // Crash after the floor bump but before input cleanup: the
        // rotation segments coexist with the history file covering them.
        let mem = compacted_store();
        publish(&mem, "seg-0.seg", b"stale-not-even-valid").expect("publish");
        let (_s, recovered) = Store::open(mem.clone(), opts(8)).expect("recover");
        assert_eq!(recovered.stats.stale_segments_removed, 1);
        assert_eq!(recovered_sample_count(&recovered), 8);
        assert!(!mem.list().expect("list").contains(&"seg-0.seg".to_string()));
    }

    #[test]
    fn superseded_history_file_is_removed_on_recovery() {
        // Simulate an interrupted tier merge: a strict-subset range
        // survives next to the merged file that replaced it.
        let mem = compacted_store();
        let merged = mem.read(&hist_name(0, 1)).expect("read");
        publish(&mem, &hist_name(0, 0), &merged).expect("publish subset");
        let (_s, recovered) = Store::open(mem.clone(), opts(8)).expect("recover");
        assert_eq!(recovered.stats.stale_hist_removed, 1);
        assert_eq!(recovered_sample_count(&recovered), 8);
        assert!(!mem.list().expect("list").contains(&hist_name(0, 0)));
    }

    #[test]
    fn history_gap_is_a_hard_error() {
        let mem = compacted_store();
        mem.remove(&hist_name(0, 1)).expect("rm");
        let err = match Store::open(mem, opts(8)) {
            Ok(_) => panic!("gap must fail"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("history run mismatch"), "{err}");
    }

    #[test]
    fn crash_at_every_byte_of_rotation_recovers_consistently() {
        // Baseline: bytes consumed by setup, so budgets target rotation.
        let baseline = {
            let mem = MemStorage::new();
            let (mut store, _) = Store::open(mem.clone(), opts(8)).expect("open");
            for i in 0..4 {
                store.append(&sample(0, i, i as f64)).expect("append");
            }
            store.commit().expect("commit");
            mem.bytes_written()
        };
        // Total bytes a full rotation writes, measured once.
        let rotation_total = {
            let mem = MemStorage::new();
            let (mut store, _) = Store::open(mem.clone(), opts(8)).expect("open");
            let records: Vec<WalRecord> = (0..4).map(|i| sample(0, i, i as f64)).collect();
            for r in &records {
                store.append(r).expect("append");
            }
            store.commit().expect("commit");
            let (draft, carry) = draft_for(&records);
            store.rotate(&draft, &carry).expect("rotate");
            mem.bytes_written() - baseline
        };
        assert!(rotation_total > 0);

        for extra in 0..=rotation_total {
            for keep_unsynced in [false, true] {
                let mem = MemStorage::new();
                let (mut store, _) = Store::open(mem.clone(), opts(8)).expect("open");
                let records: Vec<WalRecord> = (0..4).map(|i| sample(0, i, i as f64)).collect();
                for r in &records {
                    store.append(r).expect("append");
                }
                store.commit().expect("commit");
                let (draft, carry) = draft_for(&records);
                mem.set_write_budget(Some(extra));
                let result = store.rotate(&draft, &carry);
                if extra < rotation_total {
                    assert!(result.is_err(), "budget {extra} should crash rotation");
                }
                let image = mem.crash_image(keep_unsynced);
                let (_s, recovered) = Store::open(image, opts(8)).expect("recovery must succeed");
                // Invariant: the four committed samples survive, exactly
                // once, either in a sealed segment or in the WAL.
                let seg_samples: usize = recovered
                    .segments
                    .iter()
                    .flat_map(|s| &s.chunks)
                    .map(|c| c.timestamps.len())
                    .sum();
                let wal_samples = recovered
                    .wal
                    .iter()
                    .filter(|r| matches!(r, WalRecord::Sample { .. }))
                    .count();
                assert_eq!(
                    seg_samples + wal_samples,
                    4,
                    "budget {extra} keep_unsynced {keep_unsynced}: lost or duplicated samples"
                );
            }
        }
    }
}
