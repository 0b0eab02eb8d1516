//! Support computation over corresponding sensors.
//!
//! Algorithm 1's inner loop:
//!
//! ```text
//! foreach outlier ∈ outlierList do
//!     foreach sensor ∈ correspondingSensors do
//!         if sensor supports outlier then support++;
//! support /= Number of Corresponding Sensors;
//! ```
//!
//! "Sensors measuring the same information allow for the calculation of a
//! support value for outliers. Hereby, an outlier is more valuable if it is
//! also found in the supporting sensor at the same time. … In general,
//! support values reduce the probability of finding a measurement error."
//!
//! Corresponding sensors are (a) the outlier sensor's redundancy-group
//! siblings and (b) — for chamber temperature — the machine's
//! room-temperature environment sensor (the paper's own example of
//! cross-quantity support). A correspondent *supports* the outlier when its
//! own standardized score exceeds the level threshold within
//! `support_window` samples of the outlier's position.

use hierod_hierarchy::{Plant, SensorKind};

use crate::detect_level::{LevelDetections, LevelOutlier};
use crate::policy::AlgorithmPolicy;

/// Names of the sensors corresponding to `sensor` on its machine:
/// redundancy-group siblings plus the environment echo for chamber
/// temperature.
pub fn corresponding_sensors(plant: &Plant, machine: &str, sensor: &str) -> Vec<String> {
    let Some(line) = plant.line(machine) else {
        return Vec::new();
    };
    let mut out: Vec<String> = Vec::new();
    if let Some(group) = line.group_of(sensor) {
        out.extend(group.corresponding(sensor).into_iter().map(String::from));
        if group.kind == SensorKind::ChamberTemperature {
            let room = format!("{machine}.room_temp");
            if line.environment.sensor_series(&room).is_some() {
                out.push(room);
            }
        }
    }
    out
}

/// Computes the support of one phase-level outlier, following the paper's
/// normalization: `confirmations / |corresponding sensors|`. Outliers whose
/// sensor has no correspondents get support 0 (no evidence either way).
///
/// `phase_detections` supplies the sibling scores; `env_detections` (same
/// machine, environment level) supplies the room-temperature echo scores
/// and may be `None` when the environment level was not evaluated.
pub fn support_for(
    plant: &Plant,
    outlier: &LevelOutlier,
    phase_detections: &LevelDetections,
    env_detections: Option<&LevelDetections>,
    policy: &AlgorithmPolicy,
) -> f64 {
    let Some(sensor) = outlier.sensor.as_deref() else {
        return 0.0;
    };
    let Some(idx) = outlier.index else {
        return 0.0;
    };
    let correspondents = corresponding_sensors(plant, &outlier.machine, sensor);
    if correspondents.is_empty() {
        return 0.0;
    }
    let window = policy.support_window;
    let mut confirmations = 0_usize;
    for corr in &correspondents {
        let confirmed = if corr.ends_with(".room_temp") {
            // Environment correspondent: match by *timestamp* (the
            // environment clock is coarser than the phase clock).
            match (env_detections, outlier.timestamp) {
                (Some(env), Some(ts)) => {
                    let tol = (window as u64).saturating_mul(16).max(64);
                    env.series_scores.iter().any(|ss| {
                        ss.sensor == *corr
                            && ss.timestamps.iter().zip(ss.z.iter()).any(|(&t, &z)| {
                                t.abs_diff(ts) <= tol && z >= policy.threshold(env.level)
                            })
                    })
                }
                _ => false,
            }
        } else {
            // Sibling sensor in the same phase: match by sample index.
            phase_detections.series_scores.iter().any(|ss| {
                ss.sensor == *corr
                    && ss.machine == outlier.machine
                    && ss.job == outlier.job
                    && ss.phase == outlier.phase
                    && ss.z.iter().enumerate().any(|(i, &z)| {
                        i.abs_diff(idx) <= window && z >= policy.threshold(phase_detections.level)
                    })
            })
        };
        if confirmed {
            confirmations += 1;
        }
    }
    confirmations as f64 / correspondents.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect_level::detect_level;
    use hierod_hierarchy::Level;
    use hierod_synth::{ScenarioBuilder, Scope};

    #[test]
    fn corresponding_includes_group_siblings() {
        let s = ScenarioBuilder::new(1)
            .machines(1)
            .jobs_per_machine(1)
            .redundancy(3)
            .phase_samples(30)
            .anomaly_rate(0.0)
            .build();
        let corr = corresponding_sensors(&s.plant, "m0", "m0.bed_temp.0");
        assert_eq!(corr.len(), 2);
        assert!(corr.contains(&"m0.bed_temp.1".to_string()));
        assert!(corr.contains(&"m0.bed_temp.2".to_string()));
        // Chamber temperature additionally corresponds to room temperature.
        let corr = corresponding_sensors(&s.plant, "m0", "m0.chamber_temp.0");
        assert_eq!(corr.len(), 3);
        assert!(corr.contains(&"m0.room_temp".to_string()));
        // Unknown machine / sensor.
        assert!(corresponding_sensors(&s.plant, "zzz", "a").is_empty());
        assert!(corresponding_sensors(&s.plant, "m0", "not.a.sensor").is_empty());
    }

    #[test]
    fn singleton_groups_have_zero_support() {
        let s = ScenarioBuilder::new(2)
            .machines(1)
            .jobs_per_machine(4)
            .redundancy(1)
            .phase_samples(60)
            .anomaly_rate(1.0)
            .measurement_error_fraction(0.0)
            .magnitude_sigmas(15.0)
            .build();
        let policy = AlgorithmPolicy::default();
        let det = detect_level(&s.plant, Level::Phase, &policy).unwrap();
        for o in det.outliers.iter().filter(|o| {
            o.sensor
                .as_deref()
                .map(|s| s.contains("bed_temp") || s.contains("laser"))
                .unwrap_or(false)
        }) {
            let sup = support_for(&s.plant, o, &det, None, &policy);
            assert_eq!(sup, 0.0, "outlier {o:?}");
        }
    }

    #[test]
    fn process_anomalies_gain_support_measurement_errors_do_not() {
        let policy = AlgorithmPolicy::default();
        // Process anomalies on redundancy-3 temperature groups.
        let pa = ScenarioBuilder::new(4)
            .machines(2)
            .jobs_per_machine(8)
            .redundancy(3)
            .phase_samples(60)
            .anomaly_rate(1.0)
            .measurement_error_fraction(0.0)
            .magnitude_sigmas(15.0)
            .build();
        let det = detect_level(&pa.plant, Level::Phase, &policy).unwrap();
        let temp_outliers: Vec<_> = det
            .outliers
            .iter()
            .filter(|o| {
                o.sensor
                    .as_deref()
                    .map(|s| s.contains("bed_temp"))
                    .unwrap_or(false)
            })
            .collect();
        assert!(!temp_outliers.is_empty());
        let mean_support: f64 = temp_outliers
            .iter()
            .map(|o| support_for(&pa.plant, o, &det, None, &policy))
            .sum::<f64>()
            / temp_outliers.len() as f64;
        assert!(
            mean_support > 0.5,
            "process anomalies should be confirmed by siblings (mean {mean_support})"
        );

        // Measurement errors on the same setup.
        let me = ScenarioBuilder::new(4)
            .machines(2)
            .jobs_per_machine(8)
            .redundancy(3)
            .phase_samples(60)
            .anomaly_rate(1.0)
            .measurement_error_fraction(1.0)
            .magnitude_sigmas(15.0)
            .build();
        let det_me = detect_level(&me.plant, Level::Phase, &policy).unwrap();
        let me_recs: Vec<_> = me
            .truth
            .injections
            .iter()
            .filter(|r| r.scope == Scope::MeasurementError)
            .collect();
        assert!(!me_recs.is_empty());
        let me_outliers: Vec<_> = det_me
            .outliers
            .iter()
            .filter(|o| {
                o.sensor
                    .as_deref()
                    .map(|s| s.contains("bed_temp"))
                    .unwrap_or(false)
            })
            .collect();
        if !me_outliers.is_empty() {
            let mean_me: f64 = me_outliers
                .iter()
                .map(|o| support_for(&me.plant, o, &det_me, None, &policy))
                .sum::<f64>()
                / me_outliers.len() as f64;
            assert!(
                mean_me < mean_support * 0.5,
                "measurement errors must earn far less support ({mean_me} vs {mean_support})"
            );
        }
    }

    #[test]
    fn support_is_in_unit_interval() {
        let policy = AlgorithmPolicy::default();
        let s = ScenarioBuilder::new(8)
            .machines(2)
            .jobs_per_machine(6)
            .redundancy(4)
            .phase_samples(60)
            .anomaly_rate(1.0)
            .magnitude_sigmas(12.0)
            .build();
        let det = detect_level(&s.plant, Level::Phase, &policy).unwrap();
        let env = detect_level(&s.plant, Level::Environment, &policy).unwrap();
        for o in &det.outliers {
            let sup = support_for(&s.plant, o, &det, Some(&env), &policy);
            assert!((0.0..=1.0).contains(&sup), "support {sup} for {o:?}");
        }
    }
}
