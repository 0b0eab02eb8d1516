//! Production phases — the paper's level ①.
//!
//! "The production process is usually split into several phases, e.g.,
//! preparation, warm-up, and calibration. … It comprises multi-dimensional,
//! high-resolution sensor values that deliver either time series data or
//! discrete value sequences during the corresponding phase."

use hierod_timeseries::{DiscreteSequence, TimeSeries};

/// The phases of an additive-manufacturing (industrial 3D-printing) job —
/// the paper's motivating use case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PhaseKind {
    /// Powder loading, platform levelling.
    Preparation,
    /// Chamber and bed heating to target temperature.
    WarmUp,
    /// Laser alignment and test exposures.
    Calibration,
    /// The actual layer-by-layer build.
    Printing,
    /// Controlled cool-down before part removal.
    Cooling,
}

impl PhaseKind {
    /// All phases in process order.
    pub const ALL: [PhaseKind; 5] = [
        PhaseKind::Preparation,
        PhaseKind::WarmUp,
        PhaseKind::Calibration,
        PhaseKind::Printing,
        PhaseKind::Cooling,
    ];

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::Preparation => "preparation",
            PhaseKind::WarmUp => "warm-up",
            PhaseKind::Calibration => "calibration",
            PhaseKind::Printing => "printing",
            PhaseKind::Cooling => "cooling",
        }
    }
}

/// One executed phase: its kind, the per-sensor high-resolution series, and
/// any discrete event sequences recorded during the phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Which phase of the process this is.
    pub kind: PhaseKind,
    /// One series per sensor; the series name is the sensor name.
    pub series: Vec<TimeSeries>,
    /// Discrete event/state sequences (machine state codes etc.).
    pub events: Vec<DiscreteSequence>,
}

impl Phase {
    /// Creates a phase.
    pub fn new(kind: PhaseKind, series: Vec<TimeSeries>, events: Vec<DiscreteSequence>) -> Self {
        Self {
            kind,
            series,
            events,
        }
    }

    /// Looks up the series of a sensor by name.
    pub fn sensor_series(&self, sensor: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name() == sensor)
    }

    /// Mutable lookup (used by the anomaly injectors).
    pub fn sensor_series_mut(&mut self, sensor: &str) -> Option<&mut TimeSeries> {
        self.series.iter_mut().find(|s| s.name() == sensor)
    }

    /// Time span covered by the phase (union over sensors), if any data.
    pub fn span(&self) -> Option<(u64, u64)> {
        let mut lo = u64::MAX;
        let mut hi = 0_u64;
        let mut any = false;
        for s in &self.series {
            if let Some((a, b)) = s.span() {
                lo = lo.min(a);
                hi = hi.max(b);
                any = true;
            }
        }
        any.then_some((lo, hi))
    }

    /// Total number of samples across all sensors (the phase's data volume).
    pub(crate) fn sample_count(&self) -> usize {
        self.series.iter().map(TimeSeries::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase() -> Phase {
        Phase::new(
            PhaseKind::WarmUp,
            vec![
                TimeSeries::regular("m0.bed_temp.0", 100, 10, vec![20.0, 30.0, 40.0]).unwrap(),
                TimeSeries::regular("m0.bed_temp.1", 100, 10, vec![21.0, 31.0, 41.0]).unwrap(),
            ],
            vec![DiscreteSequence::new("m0.state", vec![0, 1, 1])],
        )
    }

    #[test]
    fn phase_kinds_are_ordered_by_process() {
        assert!(PhaseKind::Preparation < PhaseKind::WarmUp);
        assert!(PhaseKind::Printing < PhaseKind::Cooling);
        assert_eq!(PhaseKind::ALL.len(), 5);
        assert_eq!(PhaseKind::Calibration.label(), "calibration");
    }

    #[test]
    fn sensor_lookup() {
        let p = phase();
        assert!(p.sensor_series("m0.bed_temp.1").is_some());
        assert!(p.sensor_series("nope").is_none());
    }

    #[test]
    fn sensor_series_mut_allows_injection() {
        let mut p = phase();
        p.sensor_series_mut("m0.bed_temp.0").unwrap().values_mut()[1] += 100.0;
        assert_eq!(p.sensor_series("m0.bed_temp.0").unwrap().values()[1], 130.0);
    }

    #[test]
    fn span_and_volume() {
        let p = phase();
        assert_eq!(p.span(), Some((100, 120)));
        assert_eq!(p.sample_count(), 6);
        let empty = Phase::new(PhaseKind::Cooling, vec![], vec![]);
        assert_eq!(empty.span(), None);
        assert_eq!(empty.sample_count(), 0);
    }
}
