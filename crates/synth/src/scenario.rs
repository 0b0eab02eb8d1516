//! Scenario builder: machines × jobs × phases with anomaly plans.
//!
//! Builds a full [`Plant`] (all five Fig.-2 levels populated) plus the
//! [`GroundTruth`] of every injection. All randomness flows from one seed,
//! so scenarios are exactly reproducible.

use hierod_hierarchy::{
    CaqResult, Environment, Job, JobConfig, PhaseKind, Plant, ProductionLine, RedundancyGroup,
    Sensor, SensorKind,
};
use hierod_timeseries::{DiscreteSequence, TimeSeries};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inject::{Injection, OutlierType, Scope};
use crate::labels::{GroundTruth, InjectionRecord};
use crate::process::{sample_gaussian, SignalModel};

/// Quantities that can be targeted by an injection at the phase level.
const INJECTABLE: [SensorKind; 4] = [
    SensorKind::BedTemperature,
    SensorKind::ChamberTemperature,
    SensorKind::LaserPower,
    SensorKind::Vibration,
];

/// Representative setpoint per quantity, used to compute event scales
/// before the job's own configuration is drawn.
fn canonical_setpoint(kind: SensorKind) -> f64 {
    match kind {
        SensorKind::BedTemperature | SensorKind::ChamberTemperature => 180.0,
        SensorKind::LaserPower => 200.0,
        _ => 0.0,
    }
}

/// Sampling period of environment series, in ticks (phase series tick = 1).
const ENV_STEP: u64 = 10;

/// Gap between consecutive jobs on one machine, in ticks.
const JOB_GAP: u64 = 100;

/// Derives a decorrelated RNG stream from a base seed: SplitMix64
/// finalizer over the base seed offset by the stream index times the
/// golden-ratio increment. Adjacent indices land in statistically
/// unrelated streams.
pub(crate) fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A generated scenario: the plant plus its ground truth.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The generated plant.
    pub plant: Plant,
    /// Every injected anomaly.
    pub truth: GroundTruth,
    /// Machines suffering concept drift (ground truth for the drift
    /// experiments; empty when drift is disabled).
    pub drifting_machines: Vec<String>,
    /// The builder that produced it (for reports).
    pub config: ScenarioBuilder,
}

/// Configuration for scenario generation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioBuilder {
    /// RNG seed.
    pub seed: u64,
    /// Number of machines (production lines).
    pub machines: usize,
    /// Jobs per machine.
    pub jobs_per_machine: usize,
    /// Redundant sensors per temperature group (the paper's "corresponding
    /// sensors"); 1 disables redundancy.
    pub redundancy: usize,
    /// Base samples per phase (the printing phase uses 2×).
    pub phase_samples: usize,
    /// Probability that a job receives one injection.
    pub anomaly_rate: f64,
    /// Fraction of injections that are measurement errors (vs. process
    /// anomalies).
    pub measurement_error_fraction: f64,
    /// Injection magnitude in units of the target sensor's noise sigma.
    pub magnitude_sigmas: f64,
    /// Number of machines (taken from the end of the machine list) that
    /// suffer a slow *concept drift*: their laser efficiency declines
    /// linearly over the job sequence, degrading CAQ quality job by job.
    /// No phase-level event is injected — the drift is only visible when
    /// jobs are compared over time (production-line level) or machines are
    /// compared against each other (production level), which is the
    /// paper's §1 "discover Concept Shifts" use case.
    pub drifting_machines: usize,
    /// Total relative efficiency loss reached by a drifting machine's last
    /// job (e.g. 0.2 = −20 %).
    pub drift_severity: f64,
    /// Probability per machine of one ambient (room-temperature) excursion —
    /// an HVAC event that is measured alongside production but does not
    /// touch the process (the paper's level ③ in isolation).
    pub env_anomaly_rate: f64,
    /// Peak magnitude of ambient excursions, in °C.
    pub env_magnitude: f64,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self {
            seed: 0,
            machines: 3,
            jobs_per_machine: 10,
            redundancy: 3,
            phase_samples: 120,
            anomaly_rate: 0.4,
            measurement_error_fraction: 0.5,
            magnitude_sigmas: 8.0,
            drifting_machines: 0,
            drift_severity: 0.2,
            env_anomaly_rate: 0.0,
            env_magnitude: 5.0,
        }
    }
}

impl ScenarioBuilder {
    /// Starts from defaults with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Sets the machine count.
    pub fn machines(mut self, n: usize) -> Self {
        self.machines = n;
        self
    }

    /// Sets jobs per machine.
    pub fn jobs_per_machine(mut self, n: usize) -> Self {
        self.jobs_per_machine = n;
        self
    }

    /// Sets temperature-sensor redundancy (≥ 1).
    pub fn redundancy(mut self, r: usize) -> Self {
        self.redundancy = r.max(1);
        self
    }

    /// Sets base samples per phase (≥ 16).
    pub fn phase_samples(mut self, n: usize) -> Self {
        self.phase_samples = n.max(16);
        self
    }

    /// Sets the per-job anomaly probability.
    pub fn anomaly_rate(mut self, p: f64) -> Self {
        self.anomaly_rate = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the measurement-error fraction among injections.
    pub fn measurement_error_fraction(mut self, p: f64) -> Self {
        self.measurement_error_fraction = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the injection magnitude in noise sigmas.
    pub fn magnitude_sigmas(mut self, m: f64) -> Self {
        self.magnitude_sigmas = m.max(0.0);
        self
    }

    /// Makes the last `n` machines drift (slow laser-efficiency decline
    /// reaching `severity` relative loss by the final job).
    pub fn drift(mut self, n: usize, severity: f64) -> Self {
        self.drifting_machines = n;
        self.drift_severity = severity.clamp(0.0, 0.9);
        self
    }

    /// Enables ambient (room-temperature) excursions: probability per
    /// machine, peak magnitude in °C.
    pub fn environment_anomalies(mut self, rate: f64, magnitude: f64) -> Self {
        self.env_anomaly_rate = rate.clamp(0.0, 1.0);
        self.env_magnitude = magnitude;
        self
    }

    /// Generates the scenario.
    pub fn build(&self) -> Scenario {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut lines = Vec::with_capacity(self.machines);
        let mut truth = GroundTruth::default();
        for m in 0..self.machines {
            let drifting = m + self.drifting_machines >= self.machines;
            let line = self.build_line(m, drifting, &mut rng, &mut truth);
            lines.push(line);
        }
        let drifting_machines = (0..self.machines)
            .filter(|m| m + self.drifting_machines >= self.machines)
            .map(|m| format!("m{m}"))
            .collect();
        Scenario {
            plant: Plant::new("synthetic-am-plant", lines),
            truth,
            drifting_machines,
            config: self.clone(),
        }
    }

    fn sensor_names(&self, machine: &str, kind: SensorKind) -> Vec<String> {
        let count = match kind {
            SensorKind::BedTemperature | SensorKind::ChamberTemperature => self.redundancy,
            _ => 1,
        };
        (0..count)
            .map(|i| format!("{machine}.{}.{i}", kind.label()))
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn build_line(
        &self,
        m: usize,
        drifting: bool,
        rng: &mut StdRng,
        truth: &mut GroundTruth,
    ) -> ProductionLine {
        let machine = format!("m{m}");
        // Sensor inventory + redundancy groups.
        let mut sensors = Vec::new();
        let mut redundancy = Vec::new();
        for kind in [
            SensorKind::BedTemperature,
            SensorKind::ChamberTemperature,
            SensorKind::LaserPower,
            SensorKind::Vibration,
            SensorKind::OxygenLevel,
        ] {
            let names = self.sensor_names(&machine, kind);
            for n in &names {
                sensors.push(Sensor::new(n.clone(), kind));
            }
            redundancy.push(RedundancyGroup::new(kind, names));
        }
        // Per-sensor fixed calibration bias.
        let biases: Vec<(String, f64)> = sensors
            .iter()
            .map(|s| (s.name.clone(), rng.gen_range(-0.5..0.5)))
            .collect();
        let bias_of = |name: &str, biases: &[(String, f64)]| {
            biases
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| *b)
                .unwrap_or(0.0)
        };

        // Jobs.
        let mut jobs = Vec::with_capacity(self.jobs_per_machine);
        let mut tick = 0_u64;
        // Environment accumulators (built after jobs to know the span).
        let mut env_injections: Vec<(u64, Injection)> = Vec::new();
        for j in 0..self.jobs_per_machine {
            let job_id = format!("m{m}-j{j}");
            let start = tick;
            // Concept drift: relative efficiency loss grows linearly with
            // the job index on drifting machines.
            let drift_loss = if drifting && self.jobs_per_machine > 1 {
                self.drift_severity * j as f64 / (self.jobs_per_machine - 1) as f64
            } else {
                0.0
            };
            let config = self.gen_config(rng);
            // gen_config always sets both; the canonical setpoints are the
            // fallback of record rather than a panic path.
            let bed_setpoint = config
                .value("bed_setpoint")
                .unwrap_or_else(|| canonical_setpoint(SensorKind::BedTemperature));
            let laser_setpoint = config
                .value("laser_setpoint")
                .unwrap_or_else(|| canonical_setpoint(SensorKind::LaserPower));

            // Plan this job's injection (if any) before generating phases.
            let plan = self.plan_injection(rng);

            let mut phases = Vec::with_capacity(PhaseKind::ALL.len());
            let mut process_severity = 0.0_f64;
            for kind in PhaseKind::ALL {
                let n = if kind == PhaseKind::Printing {
                    self.phase_samples * 2
                } else {
                    self.phase_samples
                };
                let mut series = Vec::new();
                for group in &redundancy {
                    let model = SignalModel::new(group.kind, kind);
                    let setpoint = match group.kind {
                        SensorKind::BedTemperature | SensorKind::ChamberTemperature => bed_setpoint,
                        // The drifting laser delivers less power than the
                        // setpoint commands.
                        SensorKind::LaserPower => laser_setpoint * (1.0 - drift_loss),
                        _ => 0.0,
                    };
                    let latent = model.latent(n, setpoint, rng);
                    for sensor_name in &group.sensors {
                        let vals = model.observe(&latent, bias_of(sensor_name, &biases), rng);
                        // `n >= 1` keeps the constructor infallible here.
                        if let Ok(ts) = TimeSeries::regular(sensor_name.clone(), tick, 1, vals) {
                            series.push(ts);
                        }
                    }
                }
                // Discrete machine-state events: one symbol per 10 samples,
                // phase-coded with occasional sub-state transitions.
                let phase_sym = kind as u16;
                let events = DiscreteSequence::new(
                    format!("{machine}.state.{}", kind.label()),
                    (0..n / 10)
                        .map(|_| {
                            if rng.gen_bool(0.1) {
                                phase_sym * 2 + 1
                            } else {
                                phase_sym * 2
                            }
                        })
                        .collect(),
                );
                let mut phase = hierod_hierarchy::Phase::new(kind, series, vec![events]);

                // Apply the planned injection if it targets this phase.
                if let Some((target_phase, target_kind, injection)) = &plan {
                    if *target_phase == kind {
                        let severity = self.apply_injection(
                            &machine,
                            &job_id,
                            *target_kind,
                            *injection,
                            &redundancy,
                            &mut phase,
                            tick,
                            rng,
                            truth,
                            &mut env_injections,
                        );
                        if injection.scope == Scope::ProcessAnomaly {
                            process_severity = process_severity.max(severity);
                        }
                    }
                }
                tick += n as u64;
                phases.push(phase);
            }

            // Drift degrades quality gradually: a relative efficiency loss
            // of `l` acts like a sustained process anomaly of severity
            // `4·l` event-scales (a 25 % power loss ruins parts).
            let drift_severity_eq = drift_loss * 4.0 * self.magnitude_sigmas.max(1.0);
            let caq = self.gen_caq(process_severity.max(drift_severity_eq), rng);
            jobs.push(Job {
                id: job_id,
                start,
                config,
                phases,
                caq,
            });
            tick += JOB_GAP;
        }

        // Environment series spanning the machine timeline.
        let environment = self.gen_environment(&machine, tick, &env_injections, rng, truth);

        ProductionLine {
            machine_id: machine,
            sensors,
            redundancy,
            jobs,
            environment,
        }
    }

    fn gen_config(&self, rng: &mut StdRng) -> JobConfig {
        JobConfig::new(
            vec![
                "layer_height".into(),
                "laser_setpoint".into(),
                "bed_setpoint".into(),
                "hatch_spacing".into(),
                "exposure_time".into(),
            ],
            vec![
                0.03 + sample_gaussian(rng) * 0.001,
                200.0 + sample_gaussian(rng) * 3.0,
                180.0 + sample_gaussian(rng) * 1.5,
                0.12 + sample_gaussian(rng) * 0.004,
                80.0 + sample_gaussian(rng) * 2.0,
            ],
        )
    }

    fn gen_caq(&self, process_severity: f64, rng: &mut StdRng) -> CaqResult {
        // Severity is in noise sigmas; normalize to a 0..~1 degradation.
        let deg = (process_severity / self.magnitude_sigmas.max(1.0)).min(2.0);
        let density = 0.985 + sample_gaussian(rng) * 0.002 - 0.015 * deg;
        let roughness = 6.0 + sample_gaussian(rng) * 0.25 + 2.5 * deg;
        let dim_error = 0.02 + sample_gaussian(rng).abs() * 0.004 + 0.04 * deg;
        let porosity = 0.5 + sample_gaussian(rng) * 0.08 + 0.8 * deg;
        let passed = density > 0.975 && roughness < 7.5 && dim_error < 0.05;
        CaqResult::new(
            vec![
                "density".into(),
                "roughness".into(),
                "dim_error".into(),
                "porosity".into(),
            ],
            vec![density, roughness, dim_error, porosity],
            passed,
        )
    }

    fn plan_injection(&self, rng: &mut StdRng) -> Option<(PhaseKind, SensorKind, Injection)> {
        if !rng.gen_bool(self.anomaly_rate) {
            return None;
        }
        let phase = PhaseKind::ALL
            .get(rng.gen_range(0..PhaseKind::ALL.len()))
            .copied()?;
        let kind = INJECTABLE
            .get(rng.gen_range(0..INJECTABLE.len()))
            .copied()?;
        let outlier = OutlierType::ALL
            .get(rng.gen_range(0..OutlierType::ALL.len()))
            .copied()?;
        let scope = if rng.gen_bool(self.measurement_error_fraction) {
            Scope::MeasurementError
        } else {
            Scope::ProcessAnomaly
        };
        let scale = SignalModel::new(kind, phase).event_scale(canonical_setpoint(kind));
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        let magnitude = sign * self.magnitude_sigmas * scale;
        Some((phase, kind, Injection::new(outlier, scope, magnitude)))
    }

    /// Applies one injection to a phase, records ground truth, and queues
    /// the environment echo for chamber-temperature process anomalies.
    /// Returns the injection severity in sigmas.
    #[allow(clippy::too_many_arguments)]
    fn apply_injection(
        &self,
        machine: &str,
        job_id: &str,
        kind: SensorKind,
        injection: Injection,
        redundancy: &[RedundancyGroup],
        phase: &mut hierod_hierarchy::Phase,
        phase_start_tick: u64,
        rng: &mut StdRng,
        truth: &mut GroundTruth,
        env_injections: &mut Vec<(u64, Injection)>,
    ) -> f64 {
        let Some(group) = redundancy.iter().find(|g| g.kind == kind) else {
            return 0.0;
        };
        let n = group
            .sensors
            .first()
            .and_then(|s0| phase.sensor_series(s0))
            .map(TimeSeries::len)
            .unwrap_or(0);
        if n < 10 {
            return 0.0;
        }
        let at = rng.gen_range(n / 10..(n * 8) / 10);
        let primary_idx = rng.gen_range(0..group.sensors.len());
        let Some(primary) = group.sensors.get(primary_idx).cloned() else {
            return 0.0;
        };
        let affected: Vec<String> = match injection.scope {
            Scope::MeasurementError => vec![primary.clone()],
            Scope::ProcessAnomaly => group.sensors.clone(),
        };
        let mut effective = 0;
        for sensor_name in &affected {
            if let Some(s) = phase.sensor_series_mut(sensor_name) {
                effective = injection.apply(s.values_mut(), at);
            }
        }
        // Chamber-temperature process events leak into the room-temperature
        // environment series (the paper's "room temperature measurement
        // supports another sensor measurement").
        let mut affected_with_env = affected.clone();
        if injection.scope == Scope::ProcessAnomaly && kind == SensorKind::ChamberTemperature {
            let mut echo = injection;
            echo.magnitude *= 0.5;
            env_injections.push((phase_start_tick + at as u64, echo));
            affected_with_env.push(format!("{machine}.room_temp"));
        }
        truth.injections.push(InjectionRecord {
            machine: machine.to_string(),
            job: job_id.to_string(),
            phase: phase.kind,
            sensor: primary,
            affected_sensors: affected_with_env,
            outlier: injection.outlier,
            scope: injection.scope,
            start_idx: at,
            len: effective.max(1),
            magnitude: injection.magnitude,
        });
        let scale = SignalModel::new(kind, phase.kind).event_scale(canonical_setpoint(kind));
        // Severity scales with the *integrated* effect: a one-sample spike
        // barely perturbs the finished part, a sustained level shift ruins
        // it. This is what makes phase-level confirmation genuinely useful
        // at the job level (short process events are nearly invisible in
        // the CAQ vector alone).
        let duration_factor = (effective.max(1) as f64 / n as f64).sqrt();
        (injection.magnitude / scale).abs() * duration_factor
    }

    fn gen_environment(
        &self,
        machine: &str,
        total_ticks: u64,
        env_injections: &[(u64, Injection)],
        rng: &mut StdRng,
        truth: &mut GroundTruth,
    ) -> Environment {
        let n = (total_ticks / ENV_STEP).max(2) as usize;
        // Room temperature: slow diurnal sine + AR noise.
        let mut room = Vec::with_capacity(n);
        let mut hum = Vec::with_capacity(n);
        let mut ar_r = 0.0_f64;
        let mut ar_h = 0.0_f64;
        for i in 0..n {
            let t = i as f64 / n as f64;
            ar_r = 0.95 * ar_r + sample_gaussian(rng) * 0.05;
            ar_h = 0.95 * ar_h + sample_gaussian(rng) * 0.2;
            room.push(22.0 + 1.5 * (t * std::f64::consts::TAU).sin() + ar_r);
            hum.push(42.0 + 4.0 * (t * std::f64::consts::TAU + 1.0).cos() + ar_h);
        }
        // Apply queued environment echoes.
        for (tick, inj) in env_injections {
            let idx = (*tick / ENV_STEP) as usize;
            if idx < room.len() {
                inj.apply(&mut room, idx);
            }
        }
        // Ambient excursion (HVAC event): a temporary change on the room
        // temperature alone, untouched by and not touching the process.
        if room.len() > 10 && rng.gen_bool(self.env_anomaly_rate) {
            let at = rng.gen_range(room.len() / 10..(room.len() * 8) / 10);
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let inj = Injection::new(
                OutlierType::TemporaryChange,
                Scope::ProcessAnomaly,
                sign * self.env_magnitude,
            );
            let effective = inj.apply(&mut room, at);
            truth
                .environment_injections
                .push(crate::labels::EnvInjectionRecord {
                    machine: machine.to_string(),
                    sensor: format!("{machine}.room_temp"),
                    outlier: OutlierType::TemporaryChange,
                    start_idx: at,
                    len: effective.max(1),
                    magnitude: sign * self.env_magnitude,
                });
        }
        let series: Vec<TimeSeries> = [
            TimeSeries::regular(format!("{machine}.room_temp"), 0, ENV_STEP, room),
            TimeSeries::regular(format!("{machine}.humidity"), 0, ENV_STEP, hum),
        ]
        .into_iter()
        .flatten()
        .collect();
        Environment::new(series)
    }
}

/// A minimal single-series example of one Fig.-1 outlier type: an AR(1)
/// base series with one injection at `n/2`. Returns the series and its
/// point labels — the workload of the Fig.-1 reproduction experiment.
pub fn fig1_example(outlier: OutlierType, n: usize, seed: u64) -> (TimeSeries, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let phi = 0.6_f64;
    let mut ar = 0.0_f64;
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        ar = phi * ar + sample_gaussian(&mut rng);
        vals.push(10.0 + ar);
    }
    let injection = Injection::new(outlier, Scope::ProcessAnomaly, 8.0);
    let at = n / 2;
    let effective = injection.apply(&mut vals, at);
    let mut labels = vec![false; n];
    for l in labels.iter_mut().skip(at).take(effective.max(1)) {
        *l = true;
    }
    (
        TimeSeries::from_values(format!("fig1.{}", outlier.label()), vals),
        labels,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierod_hierarchy::Level;
    use hierod_hierarchy::LevelView;

    fn small() -> ScenarioBuilder {
        ScenarioBuilder::new(42)
            .machines(2)
            .jobs_per_machine(3)
            .redundancy(2)
            .phase_samples(40)
            .anomaly_rate(0.8)
    }

    #[test]
    fn build_is_deterministic() {
        let a = small().build();
        let b = small().build();
        assert_eq!(a.plant, b.plant);
        assert_eq!(a.truth, b.truth);
        let c = ScenarioBuilder {
            seed: 43,
            ..small()
        }
        .build();
        assert_ne!(a.plant, c.plant);
    }

    #[test]
    fn plant_structure_matches_builder() {
        let s = small().build();
        assert_eq!(s.plant.machine_count(), 2);
        assert_eq!(s.plant.job_count(), 6);
        let line = &s.plant.lines[0];
        // 2 bed + 2 chamber + laser + vibration + oxygen = 7 sensors.
        assert_eq!(line.sensors.len(), 7);
        assert_eq!(line.redundancy.len(), 5);
        assert_eq!(line.jobs.len(), 3);
        for job in &line.jobs {
            assert_eq!(job.phases.len(), 5);
            // Printing phase has 2x samples.
            let printing = job.phase(PhaseKind::Printing).unwrap();
            let warmup = job.phase(PhaseKind::WarmUp).unwrap();
            assert_eq!(
                printing.sensor_series(&line.sensors[0].name).unwrap().len(),
                2 * warmup.sensor_series(&line.sensors[0].name).unwrap().len()
            );
            assert_eq!(job.caq.dims(), 4);
            assert_eq!(job.config.dims(), 5);
        }
        // Environment exists with 2 series.
        assert_eq!(line.environment.series.len(), 2);
    }

    #[test]
    fn all_level_views_are_populated() {
        let s = small().build();
        for level in Level::ALL {
            let v = LevelView::extract(&s.plant, level);
            assert!(v.volume() > 0, "level {level} should carry data");
        }
    }

    #[test]
    fn injections_recorded_and_scoped() {
        let s = ScenarioBuilder::new(7)
            .machines(3)
            .jobs_per_machine(10)
            .redundancy(3)
            .phase_samples(40)
            .anomaly_rate(1.0)
            .measurement_error_fraction(0.5)
            .build();
        // anomaly_rate 1.0 -> one injection per job.
        assert_eq!(s.truth.len(), 30);
        let count = |scope| {
            s.truth
                .injections
                .iter()
                .filter(|r| r.scope == scope)
                .count()
        };
        let me = count(Scope::MeasurementError);
        let pa = count(Scope::ProcessAnomaly);
        assert_eq!(me + pa, 30);
        assert!(
            me > 5 && pa > 5,
            "both scopes should occur (me={me}, pa={pa})"
        );
        // Measurement errors afflict exactly one sensor; process anomalies
        // the full group (temperature groups have 3 members).
        for r in &s.truth.injections {
            match r.scope {
                Scope::MeasurementError => assert_eq!(r.affected_sensors.len(), 1),
                Scope::ProcessAnomaly => assert!(!r.affected_sensors.is_empty()),
            }
        }
    }

    #[test]
    fn process_anomaly_moves_all_redundant_sensors() {
        // Find a process anomaly on a temperature group and verify the
        // injected deviation is visible on every member at the event index.
        let s = ScenarioBuilder::new(14)
            .machines(2)
            .jobs_per_machine(8)
            .redundancy(3)
            .phase_samples(60)
            .anomaly_rate(1.0)
            .measurement_error_fraction(0.0)
            .magnitude_sigmas(30.0)
            .build();
        let rec = s
            .truth
            .injections
            .iter()
            .find(|r| {
                r.outlier == OutlierType::Additive
                    && r.affected_sensors.len() >= 3
                    && r.affected_sensors.iter().all(|a| a.contains("temp"))
            })
            .expect("some additive temperature process anomaly");
        let line = s.plant.line(&rec.machine).unwrap();
        let job = line.job(&rec.job).unwrap();
        let phase = job.phase(rec.phase).unwrap();
        for sensor in rec.affected_sensors.iter().filter(|s| !s.contains("room")) {
            let series = phase.sensor_series(sensor).unwrap();
            let v = series.values();
            let neighborhood: Vec<f64> = v
                .iter()
                .enumerate()
                .filter(|(i, _)| i.abs_diff(rec.start_idx) > 5)
                .map(|(_, &x)| x)
                .collect();
            let med = {
                let mut s = neighborhood.clone();
                s.sort_by(|a, b| a.total_cmp(b));
                s[s.len() / 2]
            };
            let dev = (v[rec.start_idx] - med).abs();
            assert!(
                dev > rec.magnitude.abs() * 0.5,
                "sensor {sensor} should show the event (dev {dev}, mag {})",
                rec.magnitude
            );
        }
    }

    #[test]
    fn caq_degrades_under_process_anomalies() {
        let clean = ScenarioBuilder::new(5)
            .machines(1)
            .jobs_per_machine(20)
            .anomaly_rate(0.0)
            .phase_samples(20)
            .build();
        let dirty = ScenarioBuilder::new(5)
            .machines(1)
            .jobs_per_machine(20)
            .anomaly_rate(1.0)
            .measurement_error_fraction(0.0)
            .magnitude_sigmas(12.0)
            .phase_samples(20)
            .build();
        let mean_density = |s: &Scenario| {
            let line = &s.plant.lines[0];
            line.jobs
                .iter()
                .map(|j| j.caq.value("density").unwrap())
                .sum::<f64>()
                / line.jobs.len() as f64
        };
        assert!(
            mean_density(&clean) > mean_density(&dirty),
            "process anomalies must degrade CAQ density"
        );
        // Measurement errors must NOT degrade CAQ.
        let me_only = ScenarioBuilder::new(5)
            .machines(1)
            .jobs_per_machine(20)
            .anomaly_rate(1.0)
            .measurement_error_fraction(1.0)
            .phase_samples(20)
            .build();
        assert!((mean_density(&clean) - mean_density(&me_only)).abs() < 0.01);
    }

    #[test]
    fn point_labels_align_with_series() {
        let s = ScenarioBuilder::new(9)
            .machines(1)
            .jobs_per_machine(5)
            .anomaly_rate(1.0)
            .phase_samples(40)
            .build();
        let rec = &s.truth.injections[0];
        let line = s.plant.line(&rec.machine).unwrap();
        let job = line.job(&rec.job).unwrap();
        let phase = job.phase(rec.phase).unwrap();
        let series = phase.sensor_series(&rec.affected_sensors[0]).unwrap();
        let labels = s.truth.point_labels_scoped(
            &rec.machine,
            &rec.job,
            rec.phase,
            &rec.affected_sensors[0],
            series.len(),
            None,
        );
        assert_eq!(labels.len(), series.len());
        assert!(labels[rec.start_idx]);
        assert_eq!(labels.iter().filter(|&&l| l).count(), rec.len);
    }

    #[test]
    fn fig1_example_injects_each_type() {
        for outlier in OutlierType::ALL {
            let (series, labels) = fig1_example(outlier, 200, 3);
            assert_eq!(series.len(), 200);
            assert_eq!(labels.len(), 200);
            assert!(labels[100], "event at midpoint for {outlier}");
            match outlier {
                OutlierType::Additive => {
                    assert_eq!(labels.iter().filter(|&&l| l).count(), 1)
                }
                OutlierType::LevelShift => {
                    assert!(labels[150] && labels[199]);
                }
                _ => {
                    let count = labels.iter().filter(|&&l| l).count();
                    assert!(count > 1 && count < 100, "decaying event, got {count}");
                }
            }
            // Determinism.
            let (series2, _) = fig1_example(outlier, 200, 3);
            assert_eq!(series, series2);
        }
    }

    #[test]
    fn zero_anomaly_rate_gives_clean_truth() {
        let s = small().anomaly_rate(0.0).build();
        assert!(s.truth.is_empty());
    }

    #[test]
    fn environment_echo_for_chamber_process_anomalies() {
        let s = ScenarioBuilder::new(21)
            .machines(4)
            .jobs_per_machine(10)
            .anomaly_rate(1.0)
            .measurement_error_fraction(0.0)
            .magnitude_sigmas(40.0)
            .phase_samples(30)
            .build();
        let rec = s
            .truth
            .injections
            .iter()
            .find(|r| r.affected_sensors.iter().any(|a| a.contains("room_temp")))
            .expect("a chamber process anomaly echoing into the environment");
        assert!(rec.is_process_anomaly());
        // The environment series exists and belongs to the same machine.
        let line = s.plant.line(&rec.machine).unwrap();
        assert!(line
            .environment
            .sensor_series(&format!("{}.room_temp", rec.machine))
            .is_some());
    }

    #[test]
    fn environment_anomalies_are_recorded_and_visible() {
        let s = ScenarioBuilder::new(3)
            .machines(4)
            .jobs_per_machine(4)
            .phase_samples(40)
            .anomaly_rate(0.0)
            .environment_anomalies(1.0, 6.0)
            .build();
        assert_eq!(s.truth.environment_injections.len(), 4);
        for rec in &s.truth.environment_injections {
            let line = s.plant.line(&rec.machine).unwrap();
            let series = line.environment.sensor_series(&rec.sensor).unwrap();
            assert!(rec.start_idx < series.len());
            // The excursion is visible: the event onset deviates from the
            // series median by most of the magnitude.
            let mut sorted = series.values().to_vec();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let median = sorted[sorted.len() / 2];
            let dev = (series.values()[rec.start_idx] - median).abs();
            assert!(
                dev > rec.magnitude.abs() * 0.5,
                "onset deviation {dev} vs magnitude {}",
                rec.magnitude
            );
        }
        // Disabled by default.
        let clean = ScenarioBuilder::new(3)
            .machines(2)
            .jobs_per_machine(2)
            .phase_samples(40)
            .build();
        assert!(clean.truth.environment_injections.is_empty());
    }
}
