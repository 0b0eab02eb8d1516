//! The ingest value types: a [`Sample`] and the [`LaneId`] naming the
//! sensor lane it belongs to. A sample reaches a detector one way —
//! `ingest(&LaneId, Sample)` — on every layer from the wire down.

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
