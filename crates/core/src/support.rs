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

use crate::detect_level::LevelOutlier;
use crate::evidence::Evidence;

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

/// Computes the support of one phase-level outlier, given its
/// correspondents (`Evidence::correspondents_of`), following the paper's
/// normalization: `confirmations / |corresponding sensors|`. Outliers whose
/// sensor has no correspondents get support 0 (no evidence either way).
///
/// A sibling sensor confirms when its series in the outlier's (machine,
/// job, phase) scores above the phase threshold within `support_window`
/// samples of the outlier's index. The room-temperature echo is matched by
/// *timestamp* (the environment clock is coarser than the phase clock)
/// against the environment level's scores, and confirms nothing when that
/// level was not evaluated.
pub(crate) fn support_among(
    evidence: &Evidence<'_>,
    correspondents: &[String],
    outlier: &LevelOutlier,
) -> f64 {
    let Some(idx) = outlier.index else {
        return 0.0;
    };
    if correspondents.is_empty() {
        return 0.0;
    }
    let job = outlier.job.as_deref();
    let confirmations = correspondents
        .iter()
        .filter(|corr| {
            if corr.ends_with(".room_temp") {
                outlier
                    .timestamp
                    .is_some_and(|ts| evidence.echo_fires(corr, ts))
            } else {
                evidence.sibling_fires((&outlier.machine, job, outlier.phase), corr, idx)
            }
        })
        .count();
    confirmations as f64 / correspondents.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect_level::{detect_level, LevelDetections};
    use crate::policy::AlgorithmPolicy;
    use hierod_hierarchy::Level;
    use hierod_synth::{ScenarioBuilder, Scope};
    use std::collections::BTreeMap;

    /// The plant's detections at `levels`, keyed as `build_report` takes them.
    fn detections(
        plant: &Plant,
        levels: &[Level],
        policy: &AlgorithmPolicy,
    ) -> BTreeMap<Level, LevelDetections> {
        levels
            .iter()
            .map(|&l| (l, detect_level(plant, l, policy).unwrap()))
            .collect()
    }

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
        let dets = detections(&s.plant, &[Level::Phase], &policy);
        let evidence = Evidence::new(&s.plant, &dets, &policy);
        for o in dets[&Level::Phase].outliers.iter().filter(|o| {
            o.sensor
                .as_deref()
                .map(|s| s.contains("bed_temp") || s.contains("laser"))
                .unwrap_or(false)
        }) {
            let sup = support_among(&evidence, evidence.correspondents_of(o), o);
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
        let dets = detections(&pa.plant, &[Level::Phase], &policy);
        let evidence = Evidence::new(&pa.plant, &dets, &policy);
        let temp_outliers: Vec<_> = dets[&Level::Phase]
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
            .map(|o| support_among(&evidence, evidence.correspondents_of(o), o))
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
        let dets_me = detections(&me.plant, &[Level::Phase], &policy);
        let evidence_me = Evidence::new(&me.plant, &dets_me, &policy);
        let me_recs: Vec<_> = me
            .truth
            .injections
            .iter()
            .filter(|r| r.scope == Scope::MeasurementError)
            .collect();
        assert!(!me_recs.is_empty());
        let me_outliers: Vec<_> = dets_me[&Level::Phase]
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
                .map(|o| support_among(&evidence_me, evidence_me.correspondents_of(o), o))
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
        let dets = detections(&s.plant, &[Level::Phase, Level::Environment], &policy);
        let evidence = Evidence::new(&s.plant, &dets, &policy);
        for o in &dets[&Level::Phase].outliers {
            let sup = support_among(&evidence, evidence.correspondents_of(o), o);
            assert!((0.0..=1.0).contains(&sup), "support {sup} for {o:?}");
        }
    }
}
