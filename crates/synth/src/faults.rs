//! Channel-fault injection: slow sensor degradations with ground truth.
//!
//! The Fig.-1 injectors ([`crate::inject`]) model *events* — short
//! excursions a point detector can flag sample by sample. Real gauges
//! additionally fail slowly: calibration drifts away over hours, a
//! transducer freezes at its last reading, a loose connector drops the
//! channel to zero, a fieldbus renegotiates to half its sampling rate.
//! None of these is a single salient point, which is exactly what the
//! `hierod-adapt` drift monitors and cross-sensor fusion are for — so
//! this module injects them with per-sample ground truth, on top of an
//! already-built [`Scenario`].
//!
//! Faults are applied from their own decorrelated RNG stream (the
//! scenario seed mixed with a fault-domain constant), so enabling them
//! never perturbs the base scenario's draws: the un-faulted samples are
//! bit-identical with and without fault injection, and plant `p` of a
//! multi-plant run receives the same faults regardless of how many
//! plants share the process.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::labels::ChannelFaultRecord;
use crate::scenario::{mix_seed, Scenario};

/// Domain constant mixed into the scenario seed for the fault RNG
/// stream ("FAIL" in hexspeak); decorrelates fault placement from the
/// base scenario's draws.
const FAULT_DOMAIN: u64 = 0xFA11;

/// The shape of one channel fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Calibration drift: an additive ramp growing linearly from 0 at
    /// the onset to the full magnitude at the end of the series.
    LinearDrift,
    /// Calibration step: a constant additive offset from the onset to
    /// the end of the series (a recalibration gone wrong).
    StepDrift,
    /// The channel freezes at its onset value for the fault window.
    StuckAt,
    /// The channel reads 0.0 for the fault window (dead transducer,
    /// broken wire).
    Dropout,
    /// The channel degrades to half its sampling rate from the onset
    /// on: every second reading repeats the previous one (zero-order
    /// hold), as a renegotiated fieldbus would deliver.
    MixedRate,
}

impl FaultKind {
    /// Every fault shape, in a stable order.
    pub(crate) const ALL: [FaultKind; 5] = [
        FaultKind::LinearDrift,
        FaultKind::StepDrift,
        FaultKind::StuckAt,
        FaultKind::Dropout,
        FaultKind::MixedRate,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::LinearDrift => "linear-drift",
            FaultKind::StepDrift => "step-drift",
            FaultKind::StuckAt => "stuck-at",
            FaultKind::Dropout => "dropout",
            FaultKind::MixedRate => "mixed-rate",
        }
    }

    /// `true` for the shapes whose effect persists to the end of the
    /// series (drifts and rate changes); `false` for windowed faults.
    pub(crate) fn runs_to_end(self) -> bool {
        matches!(
            self,
            FaultKind::LinearDrift | FaultKind::StepDrift | FaultKind::MixedRate
        )
    }
}

/// Configuration for channel-fault injection.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelFaults {
    /// Probability that a job receives one channel fault.
    pub rate: f64,
    /// Fault shapes to draw from (empty disables injection).
    pub kinds: Vec<FaultKind>,
    /// Drift magnitude in units of the target channel's noise sigma
    /// (estimated robustly from the series itself).
    pub magnitude_sigmas: f64,
}

impl Default for ChannelFaults {
    fn default() -> Self {
        Self {
            rate: 0.5,
            kinds: FaultKind::ALL.to_vec(),
            magnitude_sigmas: 6.0,
        }
    }
}

impl ChannelFaults {
    /// All shapes at the given per-job rate.
    pub fn with_rate(rate: f64) -> Self {
        Self {
            rate: rate.clamp(0.0, 1.0),
            ..Self::default()
        }
    }

    /// Restricts injection to the given shapes.
    #[must_use]
    pub fn kinds(mut self, kinds: &[FaultKind]) -> Self {
        self.kinds = kinds.to_vec();
        self
    }
}

/// Robust per-sample noise sigma: `1.4826 · median(|Δx|) / √2`. First
/// differences cancel the (slow) signal component, the MAD-style median
/// ignores the injected events already present in the series.
fn noise_sigma(values: &[f64]) -> f64 {
    let mut diffs: Vec<f64> = values
        .windows(2)
        .map(|w| {
            let a = w.first().copied().unwrap_or(0.0);
            let b = w.last().copied().unwrap_or(0.0);
            (b - a).abs()
        })
        .collect();
    if diffs.is_empty() {
        return 1.0;
    }
    diffs.sort_by(f64::total_cmp);
    let med = diffs.get(diffs.len() / 2).copied().unwrap_or(0.0);
    let sigma = 1.4826 * med / std::f64::consts::SQRT_2;
    if sigma > f64::EPSILON {
        sigma
    } else {
        1.0
    }
}

/// Applies `kind` to `values` starting at `at`; returns the number of
/// affected samples.
fn apply_fault(
    kind: FaultKind,
    values: &mut [f64],
    at: usize,
    len: usize,
    magnitude: f64,
) -> usize {
    let n = values.len();
    if at >= n {
        return 0;
    }
    let span = if kind.runs_to_end() {
        n - at
    } else {
        len.min(n - at)
    };
    match kind {
        FaultKind::LinearDrift => {
            for (k, v) in values.iter_mut().skip(at).enumerate() {
                let frac = (k + 1) as f64 / span as f64;
                *v += magnitude * frac;
            }
        }
        FaultKind::StepDrift => {
            for v in values.iter_mut().skip(at) {
                *v += magnitude;
            }
        }
        FaultKind::StuckAt => {
            let frozen = values.get(at).copied().unwrap_or(0.0);
            for v in values.iter_mut().skip(at).take(span) {
                *v = frozen;
            }
        }
        FaultKind::Dropout => {
            for v in values.iter_mut().skip(at).take(span) {
                *v = 0.0;
            }
        }
        FaultKind::MixedRate => {
            let mut held = values.get(at).copied().unwrap_or(0.0);
            for (k, v) in values.iter_mut().skip(at).enumerate() {
                if k % 2 == 0 {
                    held = *v;
                } else {
                    *v = held;
                }
            }
        }
    }
    span
}

/// Injects channel faults into an already-built scenario, recording each
/// in [`GroundTruth::channel_faults`](crate::GroundTruth). At most one
/// fault per job, on one sensor of a redundant temperature group (so the
/// fused support term always has an intact sibling to compare against).
/// Idempotent per scenario *value* — calling it twice faults twice; call
/// it once after [`ScenarioBuilder::build`](crate::ScenarioBuilder::build).
pub fn apply_channel_faults(scenario: &mut Scenario, cfg: &ChannelFaults) {
    if cfg.kinds.is_empty() || cfg.rate <= 0.0 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(mix_seed(scenario.config.seed, FAULT_DOMAIN));
    for line in &mut scenario.plant.lines {
        // Prefer groups with an intact sibling; fall back to any group.
        let groups: Vec<_> = {
            let redundant: Vec<_> = line
                .redundancy
                .iter()
                .filter(|g| g.sensors.len() >= 2)
                .cloned()
                .collect();
            if redundant.is_empty() {
                line.redundancy.clone()
            } else {
                redundant
            }
        };
        if groups.is_empty() {
            continue;
        }
        for job in &mut line.jobs {
            if !rng.gen_bool(cfg.rate) {
                continue;
            }
            let Some(group) = groups.get(rng.gen_range(0..groups.len())) else {
                continue;
            };
            let Some(sensor) = group.sensors.get(rng.gen_range(0..group.sensors.len())) else {
                continue;
            };
            let Some(kind) = cfg.kinds.get(rng.gen_range(0..cfg.kinds.len())).copied() else {
                continue;
            };
            let phase_count = job.phases.len().max(1);
            let Some(phase) = job.phases.get_mut(rng.gen_range(0..phase_count)) else {
                continue;
            };
            let phase_kind = phase.kind;
            let Some(series) = phase.sensor_series_mut(sensor) else {
                continue;
            };
            let n = series.len();
            if n < 16 {
                continue;
            }
            let at = rng.gen_range(n / 8..n / 2);
            let window = rng.gen_range(n / 8..n / 3);
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let magnitude = sign * cfg.magnitude_sigmas * noise_sigma(series.values());
            let effective = apply_fault(kind, series.values_mut(), at, window, magnitude);
            if effective == 0 {
                continue;
            }
            scenario.truth.channel_faults.push(ChannelFaultRecord {
                machine: line.machine_id.clone(),
                job: job.id.clone(),
                phase: phase_kind,
                sensor: sensor.clone(),
                kind,
                start_idx: at,
                len: effective,
                magnitude,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioBuilder;

    fn base() -> ScenarioBuilder {
        ScenarioBuilder::new(7)
            .machines(2)
            .jobs_per_machine(4)
            .redundancy(2)
            .phase_samples(64)
            .anomaly_rate(0.0)
    }

    #[test]
    fn faults_are_recorded_and_applied() {
        let mut s = base().build();
        let clean = base().build();
        apply_channel_faults(&mut s, &ChannelFaults::with_rate(1.0));
        assert!(!s.truth.channel_faults.is_empty());
        // Every record points at a series whose samples actually changed.
        for r in &s.truth.channel_faults {
            let faulted = series_of(&s, r);
            let pristine = series_of(&clean, r);
            assert_ne!(faulted, pristine, "{r:?}");
            // Samples before the onset are untouched.
            assert_eq!(faulted[..r.start_idx], pristine[..r.start_idx], "{r:?}");
        }
    }

    fn series_of(s: &Scenario, r: &ChannelFaultRecord) -> Vec<f64> {
        let line = s.plant.line(&r.machine).expect("machine");
        let job = line.jobs.iter().find(|j| j.id == r.job).expect("job");
        let phase = job
            .phases
            .iter()
            .find(|p| p.kind == r.phase)
            .expect("phase");
        phase
            .sensor_series(&r.sensor)
            .expect("series")
            .values()
            .to_vec()
    }

    #[test]
    fn disabled_faults_change_nothing() {
        let mut s = base().build();
        let clean = base().build();
        apply_channel_faults(&mut s, &ChannelFaults::with_rate(0.0));
        assert!(s.truth.channel_faults.is_empty());
        assert_eq!(s.plant, clean.plant);
    }

    #[test]
    fn stuck_at_freezes_and_dropout_zeroes() {
        let mut s = base().build();
        let cfg = ChannelFaults::with_rate(1.0).kinds(&[FaultKind::StuckAt, FaultKind::Dropout]);
        apply_channel_faults(&mut s, &cfg);
        assert!(!s.truth.channel_faults.is_empty());
        for r in &s.truth.channel_faults {
            let vals = series_of(&s, r);
            let window = &vals[r.start_idx..r.start_idx + r.len];
            match r.kind {
                FaultKind::StuckAt => {
                    assert!(window.iter().all(|&v| v == window[0]), "{r:?}");
                }
                FaultKind::Dropout => {
                    assert!(window.iter().all(|&v| v == 0.0), "{r:?}");
                }
                other => panic!("unexpected kind {other:?}"),
            }
        }
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let mut a = base().build();
        let mut b = base().build();
        apply_channel_faults(&mut a, &ChannelFaults::default());
        apply_channel_faults(&mut b, &ChannelFaults::default());
        assert_eq!(a.truth.channel_faults, b.truth.channel_faults);
        assert_eq!(a.plant, b.plant);
    }
}
