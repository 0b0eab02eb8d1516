//! Property tests over the generator's structural guarantees.

use hierod_hierarchy::{Level, LevelView, PhaseKind};
use hierod_synth::{
    apply_channel_faults, ChannelFaults, FaultKind, Injection, OutlierType, ScenarioBuilder, Scope,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn scenario_structure_matches_builder(
        seed in 0_u64..500,
        machines in 1_usize..4,
        jobs in 1_usize..6,
        redundancy in 1_usize..4,
    ) {
        let s = ScenarioBuilder::new(seed)
            .machines(machines)
            .jobs_per_machine(jobs)
            .redundancy(redundancy)
            .phase_samples(20)
            .anomaly_rate(0.5)
            .build();
        prop_assert_eq!(s.plant.machine_count(), machines);
        prop_assert_eq!(s.plant.job_count(), machines * jobs);
        for line in &s.plant.lines {
            // 2 redundant temperature groups + 3 singleton quantities.
            prop_assert_eq!(line.sensors.len(), 2 * redundancy + 3);
            prop_assert_eq!(line.redundancy.len(), 5);
            for job in &line.jobs {
                prop_assert_eq!(job.phases.len(), PhaseKind::ALL.len());
                prop_assert_eq!(job.config.dims(), 5);
                prop_assert_eq!(job.caq.dims(), 4);
            }
            prop_assert_eq!(line.environment.series.len(), 2);
        }
    }

    #[test]
    fn truth_records_point_into_valid_series(
        seed in 0_u64..500,
        me_fraction in 0.0_f64..1.0,
    ) {
        let s = ScenarioBuilder::new(seed)
            .machines(2)
            .jobs_per_machine(4)
            .redundancy(2)
            .phase_samples(24)
            .anomaly_rate(1.0)
            .measurement_error_fraction(me_fraction)
            .build();
        for r in &s.truth.injections {
            let line = s.plant.line(&r.machine).expect("machine");
            let job = line.job(&r.job).expect("job");
            let phase = job.phase(r.phase).expect("phase");
            // Primary sensor series exists and the event window fits.
            let series = phase.sensor_series(&r.sensor).expect("sensor");
            prop_assert!(r.start_idx < series.len());
            prop_assert!(r.len >= 1);
            // Scope consistency.
            match r.scope {
                Scope::MeasurementError => prop_assert_eq!(r.affected_sensors.len(), 1),
                Scope::ProcessAnomaly => {
                    let group = line.group_of(&r.sensor).expect("group");
                    for member in &group.sensors {
                        prop_assert!(
                            r.affected_sensors.contains(member),
                            "group member {} missing from affected set",
                            member
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_views_extract_without_panicking(seed in 0_u64..200) {
        let s = ScenarioBuilder::new(seed)
            .machines(1)
            .jobs_per_machine(3)
            .phase_samples(16)
            .build();
        for level in Level::ALL {
            let v = LevelView::extract(&s.plant, level);
            prop_assert!(v.volume() > 0);
        }
    }

    #[test]
    fn injection_effect_shapes(
        magnitude in -50.0_f64..50.0,
        at in 0_usize..40,
        n in 1_usize..64,
    ) {
        prop_assume!(magnitude.abs() > 1e-6);
        for outlier in OutlierType::ALL {
            let inj = Injection::new(outlier, Scope::ProcessAnomaly, magnitude);
            let mut values = vec![0.0_f64; n];
            let effective = inj.apply(&mut values, at);
            // Everything before `at` is untouched.
            for v in &values[..at.min(n)] {
                prop_assert_eq!(*v, 0.0);
            }
            if at < n {
                prop_assert!(effective >= 1);
                // Peak magnitude at onset.
                prop_assert!((values[at] - magnitude).abs() < 1e-12);
                prop_assert!(effective <= n - at);
            } else {
                prop_assert_eq!(effective, 0);
            }
            // Decay monotonicity for the decaying shapes.
            if at + 2 < n
                && matches!(
                    outlier,
                    OutlierType::Innovative | OutlierType::TemporaryChange
                )
            {
                prop_assert!(values[at].abs() >= values[at + 1].abs());
            }
        }
    }

    #[test]
    fn determinism_per_seed(seed in 0_u64..200) {
        let build = || {
            ScenarioBuilder::new(seed)
                .machines(1)
                .jobs_per_machine(2)
                .phase_samples(16)
                .anomaly_rate(0.7)
                .build()
        };
        let a = build();
        let b = build();
        prop_assert_eq!(a.plant, b.plant);
        prop_assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn channel_fault_labels_match_samples(
        seed in 0_u64..300,
        rate in 0.3_f64..1.0,
    ) {
        let builder = ScenarioBuilder::new(seed)
            .machines(2)
            .jobs_per_machine(3)
            .redundancy(2)
            .phase_samples(32)
            .anomaly_rate(0.0);
        let clean = builder.build();
        let mut s = builder.build();
        apply_channel_faults(&mut s, &ChannelFaults::with_rate(rate));
        for r in &s.truth.channel_faults {
            let line = s.plant.line(&r.machine).expect("machine");
            let job = line.job(&r.job).expect("job");
            let phase = job.phase(r.phase).expect("phase");
            let series = phase.sensor_series(&r.sensor).expect("sensor");
            let n = series.len();
            prop_assert!(r.start_idx < n);
            prop_assert!(r.len >= 1 && r.start_idx + r.len <= n);
            let labels = s
                .truth
                .channel_fault_labels(&r.machine, &r.job, r.phase, &r.sensor, n);
            let pristine = clean
                .plant
                .line(&r.machine).expect("machine")
                .job(&r.job).expect("job")
                .phase(r.phase).expect("phase")
                .sensor_series(&r.sensor).expect("sensor")
                .values()
                .to_vec();
            // Label/sample consistency: every sample that differs from the
            // clean build is inside a labelled window; samples before the
            // first labelled index are untouched.
            for (i, (&v, &p)) in series.values().iter().zip(&pristine).enumerate() {
                if v != p {
                    prop_assert!(labels[i], "unlabelled change at {} in {:?}", i, r);
                }
            }
            // Window semantics per shape.
            let window = &series.values()[r.start_idx..r.start_idx + r.len];
            match r.kind {
                FaultKind::StuckAt => {
                    prop_assert!(window.iter().all(|&v| v == window[0]));
                }
                FaultKind::Dropout => {
                    prop_assert!(window.iter().all(|&v| v == 0.0));
                }
                FaultKind::MixedRate => {
                    // Zero-order hold: every odd offset repeats its
                    // predecessor.
                    for pair in window.chunks(2) {
                        if let [a, b] = pair {
                            prop_assert_eq!(a, b);
                        }
                    }
                }
                FaultKind::LinearDrift | FaultKind::StepDrift => {
                    prop_assert!(r.magnitude != 0.0);
                }
            }
        }
    }

    #[test]
    fn channel_faults_deterministic_and_decorrelated(seed in 0_u64..200) {
        let builder = ScenarioBuilder::new(seed)
            .machines(2)
            .jobs_per_machine(3)
            .redundancy(2)
            .phase_samples(24)
            .anomaly_rate(0.4);
        let cfg = ChannelFaults::default();
        let mut a = builder.build();
        let mut b = builder.build();
        apply_channel_faults(&mut a, &cfg);
        apply_channel_faults(&mut b, &cfg);
        prop_assert_eq!(&a.plant, &b.plant);
        prop_assert_eq!(&a.truth, &b.truth);
        // Fault injection never perturbs the base scenario's own draws:
        // event injections are identical with and without faults.
        let clean = builder.build();
        prop_assert_eq!(&a.truth.injections, &clean.truth.injections);
        prop_assert_eq!(
            &a.truth.environment_injections,
            &clean.truth.environment_injections
        );
    }
}
