//! The ingest value types: a [`Sample`], the [`LaneId`] naming the sensor
//! lane it belongs to, and the resolved forms of that name — the plant's
//! [`LaneHandle`], which is its lane number as its journal records it, and
//! a client's [`LaneTable`] of wire lanes. A sample reaches a detector one
//! way — resolve its lane to a handle once, then apply it by handle — and
//! `ingest(&LaneId, Sample)`, on every layer from the wire down, is that
//! with the resolve done per call.

use hierod_detect::DetectError;

pub use hierod_store::wal::MAX_LANES;

/// One timestamped sensor reading. 16 bytes — the wire unit of every lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Sample timestamp (the plant-wide tick domain).
    pub timestamp: u64,
    /// Measured value.
    pub value: f64,
}

/// Which hierarchy level a lane's samples belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LaneKind {
    /// A production-phase sensor (bed/chamber temperature, laser power, …);
    /// samples are routed to the machine's *current* job and phase.
    Phase,
    /// An environment sensor (room temperature, humidity); samples are
    /// routed to the machine's environment series.
    Environment,
}

/// Identifies a sensor lane: machine + sensor name + level.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LaneId {
    /// Machine (production line) id.
    pub machine: String,
    /// Sensor / series name (e.g. `"m0.bed_temp.0"`, `"m0.room_temp"`).
    pub sensor: String,
    /// Whether this is a phase or an environment stream.
    pub kind: LaneKind,
}

/// A [`LaneId`] resolved to the plant's lane number: its index in the
/// lane table of the detector that issued or bound it, and the number the
/// plant's WAL and segments record — meaningful to that one plant only.
/// Applying a sample by handle compares no string and walks no map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneHandle(pub(crate) u32);

/// Why one record of an ingest run was not applied.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The record names a wire lane no `LaneDef` has bound (or one at or
    /// above [`MAX_LANES`]): the client is off-protocol.
    UndefinedLane(u32),
    /// The plant turned the record down: no such plant, no open pipeline
    /// for the lane, a storage failure.
    Rejected(DetectError),
}

/// The slot of lane number `lane` in a dense table, grown to hold it;
/// `None` for a number at or above [`MAX_LANES`] — the one place a lane
/// number is allowed to size anything.
pub(crate) fn dense_slot<T: Default>(table: &mut Vec<T>, lane: u32) -> Option<&mut T> {
    if lane >= MAX_LANES {
        return None;
    }
    let index = lane as usize;
    if table.len() <= index {
        table.resize_with(index + 1, T::default);
    }
    table.get_mut(index)
}

/// One wire lane of a [`LaneTable`]: the id its `LaneDef` declared, and
/// the plant's handle for it once a sample has needed one.
#[derive(Debug)]
pub(crate) struct WireLane {
    pub(crate) id: LaneId,
    pub(crate) handle: Option<LaneHandle>,
}

/// One client's wire-lane table: wire lane number → [`LaneId`], dense,
/// at most [`MAX_LANES`] entries. Each lane's handle is resolved by the
/// first sample that needs it and kept for as long as the table keeps
/// talking to the same incarnation of the plant — a plant finished and
/// re-created in between numbers its lanes afresh, so its first run drops
/// every handle the table held (see [`Tenant::ingest_run`]). Incarnations
/// are told apart within one registry: a table lives and dies with a
/// connection to it, and is not carried to another.
///
/// [`Tenant::ingest_run`]: crate::tenant::Tenant::ingest_run
#[derive(Debug, Default)]
pub struct LaneTable {
    /// The plant incarnation the handles belong to (0: none yet).
    owner: u64,
    lanes: Vec<Option<WireLane>>,
}

impl LaneTable {
    /// Binds wire lane `lane` to `id`, replacing any earlier binding (and
    /// its handle). `false` when `lane` is at or above [`MAX_LANES`].
    pub fn bind(&mut self, lane: u32, id: LaneId) -> bool {
        let slot = dense_slot(&mut self.lanes, lane);
        slot.map(|slot| *slot = Some(WireLane { id, handle: None }))
            .is_some()
    }

    /// Forgets every binding.
    pub fn clear(&mut self) {
        self.lanes.clear();
    }

    /// Makes `owner` the incarnation this table's handles belong to,
    /// dropping the handles of any other.
    pub(crate) fn claim(&mut self, owner: u64) {
        if self.owner != owner {
            self.owner = owner;
            for lane in self.lanes.iter_mut().flatten() {
                lane.handle = None;
            }
        }
    }

    pub(crate) fn get_mut(&mut self, lane: u32) -> Option<&mut WireLane> {
        self.lanes.get_mut(lane as usize)?.as_mut()
    }
}
