//! The residual drift monitor: a two-sided Page–Hinkley test.
//!
//! A drift monitor watches the stream of *scores* an online detector
//! emits. A well-fitted model produces scores whose distribution is
//! stationary; when the process (or the gauge — see
//! `hierod_synth::faults`) drifts away from the training regime, the
//! score stream's mean shifts, and the monitor raises an alarm. The
//! refit layer ([`crate::refit`]) turns alarms into store-driven model
//! rebuilds.
//!
//! `PageHinkley` is the CUSUM-family sequential test: O(1) state, a
//! handful of FLOPs per sample, parameterized by a drift allowance
//! `delta` and an alarm threshold `lambda`. It is a deterministic
//! function of the residual sequence — replaying the same stream
//! reproduces the same alarms at the same positions, which is what lets
//! the refit layer keep the durable stream's recovery deterministic
//! (DESIGN.md §4.19).

/// The Page–Hinkley test, two-sided.
///
/// Maintains the running mean and the two cumulative deviation sums
/// `m⁺ = Σ (xᵢ − x̄ᵢ − δ)` and `m⁻ = Σ (xᵢ − x̄ᵢ + δ)`; alarms when
/// `m⁺ − min m⁺ > λ` (mean increased) or `max m⁻ − m⁻ > λ` (mean
/// decreased). `δ` absorbs tolerated wander, `λ` trades detection delay
/// against false alarms.
#[derive(Debug, Clone)]
pub(crate) struct PageHinkley {
    delta: f64,
    lambda: f64,
    min_samples: u64,
    n: u64,
    mean: f64,
    m_pos: f64,
    min_pos: f64,
    m_neg: f64,
    max_neg: f64,
}

impl PageHinkley {
    /// Creates a monitor with drift allowance `delta`, alarm threshold
    /// `lambda`, and a warm-up of `min_samples` residuals before alarms
    /// are armed (the running mean needs a footing).
    pub(crate) fn new(delta: f64, lambda: f64, min_samples: u64) -> Self {
        Self {
            delta: delta.max(0.0),
            lambda: lambda.max(f64::EPSILON),
            min_samples,
            n: 0,
            mean: 0.0,
            m_pos: 0.0,
            min_pos: 0.0,
            m_neg: 0.0,
            max_neg: 0.0,
        }
    }

    /// Feeds one residual; `true` when a change — a mean increase or a
    /// decrease — is detected. After an alarm the monitor has re-armed
    /// itself (internal state reset), so a persistent shift fires again
    /// only after the test statistic rebuilds. Non-finite residuals are
    /// ignored.
    pub(crate) fn observe(&mut self, residual: f64) -> bool {
        if !residual.is_finite() {
            return false;
        }
        self.n += 1;
        self.mean += (residual - self.mean) / self.n as f64;
        self.m_pos += residual - self.mean - self.delta;
        self.min_pos = self.min_pos.min(self.m_pos);
        self.m_neg += residual - self.mean + self.delta;
        self.max_neg = self.max_neg.max(self.m_neg);
        if self.n < self.min_samples {
            return false;
        }
        let up = self.m_pos - self.min_pos;
        let down = self.max_neg - self.m_neg;
        let alarm = up > self.lambda || down > self.lambda;
        if alarm {
            self.reset();
        }
        alarm
    }

    /// Discards all state (used after a refit: the new model's residuals
    /// are a fresh stream).
    pub(crate) fn reset(&mut self) {
        self.n = 0;
        self.mean = 0.0;
        self.m_pos = 0.0;
        self.min_pos = 0.0;
        self.m_neg = 0.0;
        self.max_neg = 0.0;
    }
}

impl Default for PageHinkley {
    /// `delta = 0.05`, `lambda = 20`, warm-up 32 — conservative enough
    /// that stationary robust-z score streams stay quiet.
    fn default() -> Self {
        Self::new(0.05, 20.0, 32)
    }
}

/// A value-level recipe for building per-lane monitors: the refit layer
/// stores one spec and stamps out a fresh monitor for every pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorSpec {
    /// Build `PageHinkley` monitors.
    PageHinkley {
        /// Tolerated per-sample wander.
        delta: f64,
        /// Alarm threshold.
        lambda: f64,
        /// Warm-up before alarms arm.
        min_samples: u64,
    },
}

impl MonitorSpec {
    /// The default Page–Hinkley recipe (see `PageHinkley::default`).
    pub fn page_hinkley() -> Self {
        MonitorSpec::PageHinkley {
            delta: 0.05,
            lambda: 20.0,
            min_samples: 32,
        }
    }

    /// Builds one monitor instance.
    pub(crate) fn build(&self) -> PageHinkley {
        let MonitorSpec::PageHinkley {
            delta,
            lambda,
            min_samples,
        } = *self;
        PageHinkley::new(delta, lambda, min_samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic noise in [-0.5, 0.5] (SplitMix64 finalizer).
    fn noise(i: u64) -> f64 {
        let mut z = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) as f64 / u64::MAX as f64) - 0.5
    }

    #[test]
    fn page_hinkley_stays_quiet_on_stationary_noise() {
        let mut ph = PageHinkley::default();
        for i in 0..5000 {
            assert!(!ph.observe(1.0 + noise(i)), "false alarm at {i}");
        }
    }

    #[test]
    fn page_hinkley_detects_upward_shift() {
        let mut ph = PageHinkley::default();
        for i in 0..500 {
            assert!(!ph.observe(1.0 + noise(i)));
        }
        let latency = (0..500).find(|&i| ph.observe(3.0 + noise(1000 + i)));
        assert_eq!(latency, Some(9), "shift detected at its pinned position");
    }

    /// Samples from the onset of a mean shift of `shift` to the first
    /// alarm: 1,000 quiet residuals (mean 0.5, ±0.2 noise), then the
    /// shifted stream. `None` if the monitor fires before the shift or
    /// not within 4,000 samples after it.
    fn delay(monitor: &mut PageHinkley, shift: f64) -> Option<u64> {
        const QUIET: u64 = 1_000;
        const BUDGET: u64 = 4_000;
        let residual = |i| 0.5 + 0.4 * noise(i) + if i >= QUIET { shift } else { 0.0 };
        let alarm = (0..QUIET + BUDGET).find(|&i| monitor.observe(residual(i)))?;
        alarm.checked_sub(QUIET).map(|d| d + 1)
    }

    #[test]
    fn default_monitors_detect_mean_shifts_after_pinned_delays() {
        // (shift, Page–Hinkley delay) at the monitor's defaults.
        for (shift, page_hinkley) in [(1.0, 22), (2.0, 11), (4.0, 6)] {
            let mut ph = PageHinkley::default();
            assert_eq!(delay(&mut ph, shift), Some(page_hinkley), "PH, {shift}");
        }
    }

    #[test]
    fn page_hinkley_detects_downward_shift() {
        let mut ph = PageHinkley::default();
        for i in 0..500 {
            assert!(!ph.observe(3.0 + noise(i)));
        }
        let latency = (0..500).find(|&i| ph.observe(0.5 + noise(1000 + i)));
        assert_eq!(latency, Some(8), "shift detected at its pinned position");
    }

    #[test]
    fn monitors_are_deterministic() {
        let run = || {
            let mut m = MonitorSpec::page_hinkley().build();
            let mut alarms = Vec::new();
            for i in 0..3000 {
                let v = if i > 1500 { 3.0 } else { 1.0 } + noise(i);
                if m.observe(v) {
                    alarms.push(i);
                }
            }
            alarms
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_rearms() {
        let mut ph = PageHinkley::default();
        for i in 0..200 {
            ph.observe(1.0 + noise(i));
        }
        ph.reset();
        for i in 0..5000 {
            assert!(!ph.observe(1.0 + noise(i)));
        }
    }

    #[test]
    fn non_finite_residuals_are_ignored() {
        let mut ph = PageHinkley::default();
        assert!(!ph.observe(f64::NAN));
        assert!(!ph.observe(f64::INFINITY));
        assert_eq!(ph.n, 0);
    }
}
