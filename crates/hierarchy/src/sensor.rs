//! Sensors and redundancy groups.
//!
//! The paper's support mechanism rests on the observation that "machines are
//! often equipped with redundant sensors, e.g., to measure the temperature of
//! the same machine at different places. … sensors measuring the same
//! information allow for the calculation of a support value for outliers."
//! A [`RedundancyGroup`] names the sensors that measure the same physical
//! quantity; `hierod-core::support` computes the paper's
//! `support / |corresponding sensors|` over these groups.

/// The physical quantity a sensor measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorKind {
    /// Build-plate / bed temperature (°C).
    BedTemperature,
    /// Build-chamber air temperature (°C).
    ChamberTemperature,
    /// Laser output power (W) — the energy source of industrial 3D printing.
    LaserPower,
    /// Recoater/axis vibration (mm/s²).
    Vibration,
    /// Inert-gas oxygen concentration (ppm).
    OxygenLevel,
    /// Ambient room temperature (°C) — an environment-level quantity.
    RoomTemperature,
    /// Ambient humidity (%RH) — an environment-level quantity.
    Humidity,
}

impl SensorKind {
    /// Short label used in sensor names and reports.
    pub fn label(self) -> &'static str {
        match self {
            SensorKind::BedTemperature => "bed_temp",
            SensorKind::ChamberTemperature => "chamber_temp",
            SensorKind::LaserPower => "laser_power",
            SensorKind::Vibration => "vibration",
            SensorKind::OxygenLevel => "oxygen",
            SensorKind::RoomTemperature => "room_temp",
            SensorKind::Humidity => "humidity",
        }
    }
}

/// A physical sensor: a unique name plus the quantity it measures.
///
/// Sensor names double as the `name` of the [`hierod_timeseries::TimeSeries`]
/// they produce, which is how detector results are traced back to sensors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sensor {
    /// Unique sensor name, e.g. `"m0.bed_temp.1"`.
    pub name: String,
    /// Measured quantity.
    pub kind: SensorKind,
}

impl Sensor {
    /// Creates a sensor.
    pub fn new(name: impl Into<String>, kind: SensorKind) -> Self {
        Self {
            name: name.into(),
            kind,
        }
    }
}

/// A group of sensors measuring the same physical quantity on the same
/// machine — the paper's "corresponding sensors".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedundancyGroup {
    /// The shared quantity.
    pub kind: SensorKind,
    /// Names of the member sensors (≥ 1; a singleton group provides no
    /// support evidence, which Algorithm 1's normalization handles).
    pub sensors: Vec<String>,
}

impl RedundancyGroup {
    /// Creates a group.
    pub fn new(kind: SensorKind, sensors: Vec<String>) -> Self {
        Self { kind, sensors }
    }

    /// Number of member sensors.
    pub fn size(&self) -> usize {
        self.sensors.len()
    }

    /// `true` if `sensor` belongs to this group.
    pub(crate) fn contains(&self, sensor: &str) -> bool {
        self.sensors.iter().any(|s| s == sensor)
    }

    /// The members of the group other than `sensor` — the "corresponding
    /// sensors" Algorithm 1 iterates when computing support for an outlier
    /// found on `sensor`.
    pub fn corresponding(&self, sensor: &str) -> Vec<&str> {
        self.sensors
            .iter()
            .filter(|s| s.as_str() != sensor)
            .map(String::as_str)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_metadata() {
        assert_eq!(SensorKind::BedTemperature.label(), "bed_temp");
    }

    #[test]
    fn sensor_construction() {
        let s = Sensor::new("m0.bed_temp.0", SensorKind::BedTemperature);
        assert_eq!(s.name, "m0.bed_temp.0");
        assert_eq!(s.kind, SensorKind::BedTemperature);
    }

    #[test]
    fn redundancy_group_membership() {
        let g = RedundancyGroup::new(
            SensorKind::BedTemperature,
            vec!["a".into(), "b".into(), "c".into()],
        );
        assert_eq!(g.size(), 3);
        assert!(g.contains("b"));
        assert!(!g.contains("z"));
        assert_eq!(g.corresponding("b"), vec!["a", "c"]);
        // A sensor not in the group sees all members as corresponding.
        assert_eq!(g.corresponding("z").len(), 3);
    }

    #[test]
    fn singleton_group_has_no_correspondents() {
        let g = RedundancyGroup::new(SensorKind::LaserPower, vec!["only".into()]);
        assert!(g.corresponding("only").is_empty());
    }
}
