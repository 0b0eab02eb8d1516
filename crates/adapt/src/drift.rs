//! Residual drift monitors: Page–Hinkley and an ADWIN-style window.
//!
//! A drift monitor watches the stream of *scores* an online detector
//! emits. A well-fitted model produces scores whose distribution is
//! stationary; when the process (or the gauge — see
//! [`hierod_synth::faults`]) drifts away from the training regime, the
//! score stream's mean shifts, and the monitor raises a typed
//! [`DriftEvent`]. The refit layer ([`crate::refit`]) turns events into
//! store-driven model rebuilds.
//!
//! Two classical monitors are provided:
//!
//! * [`PageHinkley`] — the CUSUM-family sequential test: cheapest (O(1)
//!   state, a handful of FLOPs per sample), parameterized by a drift
//!   allowance `delta` and an alarm threshold `lambda`.
//! * [`AdwinWindow`] — an ADWIN-style adaptive window: keeps a bounded
//!   window of recent residuals and cuts it whenever two adjacent
//!   sub-windows have means further apart than a Hoeffding bound
//!   allows. Parameter-light (one confidence `delta`), adapts its own
//!   memory, detects both directions symmetrically.
//!
//! Both are deterministic functions of the residual sequence — replaying
//! the same stream reproduces the same events at the same positions,
//! which is what lets the refit layer keep the durable stream's
//! recovery deterministic (DESIGN.md §4.19).

/// Direction/mechanism of a detected drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// The residual mean shifted up (model under-fits: scores inflate).
    MeanIncrease,
    /// The residual mean shifted down.
    MeanDecrease,
    /// An ADWIN window cut: the retained suffix disagrees with the
    /// dropped prefix.
    WindowCut,
}

impl DriftKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DriftKind::MeanIncrease => "mean-increase",
            DriftKind::MeanDecrease => "mean-decrease",
            DriftKind::WindowCut => "window-cut",
        }
    }
}

/// One detected drift, typed and located in the residual stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEvent {
    /// Number of residuals observed by the monitor when the event fired
    /// (1-based; monitor-local, reset on [`DriftMonitor::reset`]).
    pub at: u64,
    /// What kind of shift was detected.
    pub kind: DriftKind,
    /// The test statistic at the moment of the alarm.
    pub statistic: f64,
    /// The threshold the statistic exceeded.
    pub threshold: f64,
}

/// A sequential change detector over a residual stream.
pub trait DriftMonitor: Send {
    /// Feeds one residual; returns an event when a change is detected.
    /// After an event the monitor has re-armed itself (internal state
    /// reset), so a persistent shift fires again only after the test
    /// statistic rebuilds.
    fn observe(&mut self, residual: f64) -> Option<DriftEvent>;

    /// Discards all state (used after a refit: the new model's residuals
    /// are a fresh stream).
    fn reset(&mut self);

    /// Short label for reports.
    fn name(&self) -> &'static str;
}

/// The Page–Hinkley test, two-sided.
///
/// Maintains the running mean and the two cumulative deviation sums
/// `m⁺ = Σ (xᵢ − x̄ᵢ − δ)` and `m⁻ = Σ (xᵢ − x̄ᵢ + δ)`; alarms when
/// `m⁺ − min m⁺ > λ` (mean increased) or `max m⁻ − m⁻ > λ` (mean
/// decreased). `δ` absorbs tolerated wander, `λ` trades detection delay
/// against false alarms.
#[derive(Debug, Clone)]
pub struct PageHinkley {
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
    pub fn new(delta: f64, lambda: f64, min_samples: u64) -> Self {
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
}

impl Default for PageHinkley {
    /// `delta = 0.05`, `lambda = 20`, warm-up 32 — conservative enough
    /// that stationary robust-z score streams stay quiet.
    fn default() -> Self {
        Self::new(0.05, 20.0, 32)
    }
}

impl DriftMonitor for PageHinkley {
    fn observe(&mut self, residual: f64) -> Option<DriftEvent> {
        if !residual.is_finite() {
            return None;
        }
        self.n += 1;
        self.mean += (residual - self.mean) / self.n as f64;
        self.m_pos += residual - self.mean - self.delta;
        self.min_pos = self.min_pos.min(self.m_pos);
        self.m_neg += residual - self.mean + self.delta;
        self.max_neg = self.max_neg.max(self.m_neg);
        if self.n < self.min_samples {
            return None;
        }
        let up = self.m_pos - self.min_pos;
        let down = self.max_neg - self.m_neg;
        let (kind, statistic) = if up > self.lambda {
            (DriftKind::MeanIncrease, up)
        } else if down > self.lambda {
            (DriftKind::MeanDecrease, down)
        } else {
            return None;
        };
        let event = DriftEvent {
            at: self.n,
            kind,
            statistic,
            threshold: self.lambda,
        };
        self.reset();
        Some(event)
    }

    fn reset(&mut self) {
        self.n = 0;
        self.mean = 0.0;
        self.m_pos = 0.0;
        self.min_pos = 0.0;
        self.m_neg = 0.0;
        self.max_neg = 0.0;
    }

    fn name(&self) -> &'static str {
        "page-hinkley"
    }
}

/// An ADWIN-style adaptive window.
///
/// Keeps up to `max_window` recent residuals. Every `granularity`
/// insertions it examines the cut points at multiples of `granularity`:
/// a cut splitting the window into sub-windows of sizes `n₀`, `n₁` with
/// means `μ₀`, `μ₁` alarms when `|μ₀ − μ₁| > ε` for the
/// variance-adaptive bound of Bifet & Gavaldà's ADWIN2,
/// `ε = √((2/m)·σ²_W·ln(2/δ′)) + (2/(3m))·ln(2/δ′)` with `m` the
/// harmonic mean of `n₀`, `n₁`, `σ²_W` the whole-window variance, and
/// `δ′ = δ/n`. The variance term is what makes the bound usable on
/// low-variance score streams, where a range-based Hoeffding bound
/// would demand absurd gaps. Residuals are clipped to `[0, clip]`
/// first so a single non-physical spike cannot blow up `σ²_W`. On an
/// alarm the stale prefix is dropped — the window *adapts* — and a
/// [`DriftKind::WindowCut`] event is emitted.
#[derive(Debug, Clone)]
pub struct AdwinWindow {
    delta: f64,
    max_window: usize,
    granularity: usize,
    clip: f64,
    window: std::collections::VecDeque<f64>,
    since_check: usize,
    n_seen: u64,
}

impl AdwinWindow {
    /// Creates a window with confidence `delta` (smaller = fewer false
    /// cuts) and size cap `max_window`. Residuals are clipped to
    /// `[0, clip]` for the bound (scores are non-negative by the
    /// [`OnlineScorer`](hierod_detect::online::OnlineScorer) contract).
    pub fn new(delta: f64, max_window: usize, clip: f64) -> Self {
        Self {
            delta: delta.clamp(1e-9, 1.0),
            max_window: max_window.max(16),
            granularity: 8,
            clip: clip.max(f64::EPSILON),
            window: std::collections::VecDeque::new(),
            since_check: 0,
            n_seen: 0,
        }
    }

    /// Current window occupancy.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// `true` before the first observation.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Scans cut points; returns the prefix length to drop, if any.
    fn find_cut(&self) -> Option<(usize, f64, f64)> {
        let n = self.window.len();
        if n < 2 * self.granularity {
            return None;
        }
        // One forward pass: prefix sums at granularity boundaries.
        let total: f64 = self.window.iter().sum();
        let total_sq: f64 = self.window.iter().map(|v| v * v).sum();
        let mean_w = total / n as f64;
        let var_w = (total_sq / n as f64 - mean_w * mean_w).max(0.0);
        // δ′ = δ/n spreads the confidence over the n candidate cuts.
        let ln_term = (2.0 * n as f64 / self.delta).ln();
        let mut prefix = 0.0;
        let mut best: Option<(usize, f64, f64)> = None;
        for (i, v) in self.window.iter().enumerate() {
            prefix += v;
            let n0 = i + 1;
            let n1 = n - n0;
            if n0 % self.granularity != 0 || n1 < self.granularity {
                continue;
            }
            let mean0 = prefix / n0 as f64;
            let mean1 = (total - prefix) / n1 as f64;
            // Harmonic mean of the two sizes.
            let m = 1.0 / (1.0 / n0 as f64 + 1.0 / n1 as f64);
            let eps = (2.0 / m * var_w * ln_term).sqrt() + 2.0 / (3.0 * m) * ln_term;
            let gap = (mean0 - mean1).abs();
            if gap > eps && best.is_none_or(|(_, g, _)| gap > g) {
                best = Some((n0, gap, eps));
            }
        }
        best
    }
}

impl Default for AdwinWindow {
    /// `delta = 0.002`, window cap 512, clip 16 (robust-z scores above
    /// 16 sigmas carry no extra drift information).
    fn default() -> Self {
        Self::new(0.002, 512, 16.0)
    }
}

impl DriftMonitor for AdwinWindow {
    fn observe(&mut self, residual: f64) -> Option<DriftEvent> {
        if !residual.is_finite() {
            return None;
        }
        self.n_seen += 1;
        self.window.push_back(residual.clamp(0.0, self.clip));
        if self.window.len() > self.max_window {
            self.window.pop_front();
        }
        self.since_check += 1;
        if self.since_check < self.granularity {
            return None;
        }
        self.since_check = 0;
        let (drop, gap, eps) = self.find_cut()?;
        self.window.drain(..drop.min(self.window.len()));
        Some(DriftEvent {
            at: self.n_seen,
            kind: DriftKind::WindowCut,
            statistic: gap,
            threshold: eps,
        })
    }

    fn reset(&mut self) {
        self.window.clear();
        self.since_check = 0;
        self.n_seen = 0;
    }

    fn name(&self) -> &'static str {
        "adwin"
    }
}

/// A value-level recipe for building per-lane monitors: the refit layer
/// stores one spec and stamps out a fresh monitor for every pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorSpec {
    /// Build [`PageHinkley`] monitors.
    PageHinkley {
        /// Tolerated per-sample wander.
        delta: f64,
        /// Alarm threshold.
        lambda: f64,
        /// Warm-up before alarms arm.
        min_samples: u64,
    },
    /// Build [`AdwinWindow`] monitors.
    Adwin {
        /// Cut confidence (smaller = fewer false cuts).
        delta: f64,
        /// Window size cap.
        max_window: usize,
    },
}

impl MonitorSpec {
    /// The default Page–Hinkley recipe (see [`PageHinkley::default`]).
    pub fn page_hinkley() -> Self {
        MonitorSpec::PageHinkley {
            delta: 0.05,
            lambda: 20.0,
            min_samples: 32,
        }
    }

    /// The default ADWIN recipe (see [`AdwinWindow::default`]).
    pub fn adwin() -> Self {
        MonitorSpec::Adwin {
            delta: 0.002,
            max_window: 512,
        }
    }

    /// Builds one monitor instance.
    pub fn build(&self) -> Box<dyn DriftMonitor> {
        match *self {
            MonitorSpec::PageHinkley {
                delta,
                lambda,
                min_samples,
            } => Box::new(PageHinkley::new(delta, lambda, min_samples)),
            MonitorSpec::Adwin { delta, max_window } => {
                Box::new(AdwinWindow::new(delta, max_window, 16.0))
            }
        }
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
            assert!(ph.observe(1.0 + noise(i)).is_none(), "false alarm at {i}");
        }
    }

    #[test]
    fn page_hinkley_detects_upward_shift() {
        let mut ph = PageHinkley::default();
        for i in 0..500 {
            assert!(ph.observe(1.0 + noise(i)).is_none());
        }
        let mut fired = None;
        for i in 0..500 {
            if let Some(e) = ph.observe(3.0 + noise(1000 + i)) {
                fired = Some((i, e));
                break;
            }
        }
        let (latency, event) = fired.expect("shift detected");
        assert_eq!(event.kind, DriftKind::MeanIncrease);
        assert!(latency < 64, "latency {latency}");
        assert!(event.statistic > event.threshold);
    }

    /// Samples from the onset of a mean shift of `shift` to the first
    /// alarm: 1,000 quiet residuals (mean 0.5, ±0.2 noise), then the
    /// shifted stream. `None` if the monitor fires before the shift or
    /// not within 4,000 samples after it.
    fn delay(monitor: &mut dyn DriftMonitor, shift: f64) -> Option<u64> {
        const QUIET: u64 = 1_000;
        const BUDGET: u64 = 4_000;
        let residual = |i| 0.5 + 0.4 * noise(i) + if i >= QUIET { shift } else { 0.0 };
        let alarm = (0..QUIET + BUDGET).find(|&i| monitor.observe(residual(i)).is_some())?;
        alarm.checked_sub(QUIET).map(|d| d + 1)
    }

    #[test]
    fn default_monitors_detect_mean_shifts_after_pinned_delays() {
        // (shift, Page–Hinkley delay, ADWIN delay), both at their defaults.
        for (shift, page_hinkley, adwin) in [(1.0, 22, 16), (2.0, 11, 8), (4.0, 6, 8)] {
            let mut ph = PageHinkley::default();
            assert_eq!(delay(&mut ph, shift), Some(page_hinkley), "PH, {shift}");
            let mut aw = AdwinWindow::default();
            assert_eq!(delay(&mut aw, shift), Some(adwin), "ADWIN, {shift}");
        }
    }

    #[test]
    fn page_hinkley_detects_downward_shift() {
        let mut ph = PageHinkley::default();
        for i in 0..500 {
            assert!(ph.observe(3.0 + noise(i)).is_none());
        }
        let fired = (0..500).find_map(|i| ph.observe(0.5 + noise(1000 + i)));
        assert_eq!(fired.expect("detected").kind, DriftKind::MeanDecrease);
    }

    #[test]
    fn adwin_cuts_on_shift_and_stays_quiet_otherwise() {
        let mut aw = AdwinWindow::default();
        for i in 0..2000 {
            assert!(aw.observe(1.0 + noise(i)).is_none(), "false cut at {i}");
        }
        let fired = (0..500).find_map(|i| aw.observe(4.0 + noise(5000 + i)));
        let event = fired.expect("cut");
        assert_eq!(event.kind, DriftKind::WindowCut);
        // The stale prefix was dropped: the window is now dominated by
        // post-shift samples.
        let mean: f64 = aw.window.iter().sum::<f64>() / aw.len() as f64;
        assert!(mean > 2.0, "window mean {mean}");
    }

    #[test]
    fn monitors_are_deterministic() {
        for spec in [MonitorSpec::page_hinkley(), MonitorSpec::adwin()] {
            let run = || {
                let mut m = spec.build();
                let mut events = Vec::new();
                for i in 0..3000 {
                    let v = if i > 1500 { 3.0 } else { 1.0 } + noise(i);
                    if let Some(e) = m.observe(v) {
                        events.push((i, e));
                    }
                }
                events
            };
            assert_eq!(run(), run());
        }
    }

    #[test]
    fn reset_rearms() {
        let mut ph = PageHinkley::default();
        for i in 0..200 {
            ph.observe(1.0 + noise(i));
        }
        ph.reset();
        for i in 0..5000 {
            assert!(ph.observe(1.0 + noise(i)).is_none());
        }
    }

    #[test]
    fn non_finite_residuals_are_ignored() {
        let mut ph = PageHinkley::default();
        let mut aw = AdwinWindow::default();
        assert!(ph.observe(f64::NAN).is_none());
        assert!(ph.observe(f64::INFINITY).is_none());
        assert!(aw.observe(f64::NAN).is_none());
        assert_eq!(aw.len(), 0);
    }
}
