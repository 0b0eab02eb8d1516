//! Environment-level data — the paper's level ③.
//!
//! "When considering the environment-level, a new time series is introduced,
//! which does not correspond directly to the production process, but is
//! measured in the same period. An example of such a time series would be
//! the room temperature."

use hierod_timeseries::TimeSeries;

/// The ambient context of one production line: series measured alongside
/// production (room temperature, humidity, …) on their own clocks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Environment {
    /// Context series; names are sensor names.
    pub series: Vec<TimeSeries>,
}

impl Environment {
    /// Creates an environment from its series.
    pub fn new(series: Vec<TimeSeries>) -> Self {
        Self { series }
    }

    /// Looks up a context series by sensor name.
    pub fn sensor_series(&self, sensor: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name() == sensor)
    }

    /// Names of all environment sensors.
    pub fn sensor_names(&self) -> Vec<&str> {
        self.series.iter().map(|s| s.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_names() {
        let env = Environment::new(vec![
            TimeSeries::from_values("room_temp", vec![20.0, 21.0]),
            TimeSeries::from_values("humidity", vec![40.0, 41.0]),
        ]);
        assert!(env.sensor_series("room_temp").is_some());
        assert!(env.sensor_series("ghost").is_none());
        assert_eq!(env.sensor_names(), vec!["room_temp", "humidity"]);
        let empty = Environment::default();
        assert!(empty.series.is_empty());
    }
}
