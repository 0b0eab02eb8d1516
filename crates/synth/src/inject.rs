//! Injection of the four Fig.-1 outlier types.
//!
//! Fox (1972)'s taxonomy, reproduced in the paper's Fig. 1:
//!
//! * **Additive outlier** — an isolated spike affecting one observation.
//! * **Innovative outlier** — a shock that enters the process dynamics and
//!   decays with the process's AR coefficient.
//! * **Temporary change** — a level offset that decays geometrically.
//! * **Level shift** — a permanent offset from the event onward.
//!
//! The *scope* distinguishes the paper's two causes: a
//! [`Scope::MeasurementError`] afflicts a single sensor (its redundant
//! siblings keep reporting the latent truth, so support stays low), while a
//! [`Scope::ProcessAnomaly`] is physical — every corresponding sensor sees
//! it and it degrades the job's CAQ outcome, propagating upward through the
//! hierarchy.

use std::fmt;

/// The four temporal outlier types of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutlierType {
    /// Isolated one-sample spike.
    Additive,
    /// Shock entering the AR dynamics (decays with `phi`).
    Innovative,
    /// Offset decaying geometrically (rate `delta`).
    TemporaryChange,
    /// Permanent offset.
    LevelShift,
}

impl OutlierType {
    /// All four types.
    pub const ALL: [OutlierType; 4] = [
        OutlierType::Additive,
        OutlierType::Innovative,
        OutlierType::TemporaryChange,
        OutlierType::LevelShift,
    ];

    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            OutlierType::Additive => "additive outlier",
            OutlierType::Innovative => "innovative outlier",
            OutlierType::TemporaryChange => "temporary change",
            OutlierType::LevelShift => "level shift",
        }
    }
}

impl fmt::Display for OutlierType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether an injection models a sensor fault or a physical process event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// One sensor misreports; the process is fine. Redundant sensors do NOT
    /// see the event and no upward propagation occurs.
    MeasurementError,
    /// The process itself deviates: every redundant sensor sees the event
    /// and the job's CAQ quality degrades.
    ProcessAnomaly,
}

impl Scope {
    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Scope::MeasurementError => "measurement-error",
            Scope::ProcessAnomaly => "process-anomaly",
        }
    }
}

/// A parameterized injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Injection {
    /// Outlier shape.
    pub outlier: OutlierType,
    /// Fault vs. process event.
    pub scope: Scope,
    /// Peak magnitude (in the signal's units).
    pub magnitude: f64,
    /// AR coefficient used by [`OutlierType::Innovative`] decay.
    pub phi: f64,
    /// Geometric decay rate used by [`OutlierType::TemporaryChange`]
    /// (`0 < delta < 1`).
    pub delta: f64,
}

impl Injection {
    /// Creates an injection with the standard decay parameters
    /// (`phi = 0.8`, `delta = 0.9`).
    pub fn new(outlier: OutlierType, scope: Scope, magnitude: f64) -> Self {
        Self {
            outlier,
            scope,
            magnitude,
            phi: 0.8,
            delta: 0.9,
        }
    }

    /// The injected effect at offset `k ≥ 0` samples after the event start.
    pub(crate) fn effect_at(&self, k: usize) -> f64 {
        match self.outlier {
            OutlierType::Additive => {
                if k == 0 {
                    self.magnitude
                } else {
                    0.0
                }
            }
            OutlierType::Innovative => self.magnitude * self.phi.powi(k as i32),
            OutlierType::TemporaryChange => self.magnitude * self.delta.powi(k as i32),
            OutlierType::LevelShift => self.magnitude,
        }
    }

    /// Applies the injection to `values`, starting at index `at`.
    /// Indices past the end are ignored; returns the number of samples whose
    /// injected effect exceeds 5 % of the magnitude (the effective event
    /// length, used for ground-truth point labels).
    pub fn apply(&self, values: &mut [f64], at: usize) -> usize {
        let mut effective = 0;
        let threshold = self.magnitude.abs() * 0.05;
        for (k, v) in values.iter_mut().skip(at).enumerate() {
            let e = self.effect_at(k);
            if e.abs() <= threshold && self.outlier != OutlierType::LevelShift {
                break;
            }
            *v += e;
            effective += 1;
            if self.outlier == OutlierType::Additive {
                break;
            }
        }
        effective
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_is_a_single_spike() {
        let inj = Injection::new(OutlierType::Additive, Scope::MeasurementError, 10.0);
        let mut v = vec![0.0; 5];
        let n = inj.apply(&mut v, 2);
        assert_eq!(v, vec![0.0, 0.0, 10.0, 0.0, 0.0]);
        assert_eq!(n, 1);
    }

    #[test]
    fn level_shift_is_permanent() {
        let inj = Injection::new(OutlierType::LevelShift, Scope::ProcessAnomaly, 3.0);
        let mut v = vec![1.0; 6];
        let n = inj.apply(&mut v, 3);
        assert_eq!(v, vec![1.0, 1.0, 1.0, 4.0, 4.0, 4.0]);
        assert_eq!(n, 3);
    }

    #[test]
    fn temporary_change_decays_geometrically() {
        let inj = Injection::new(OutlierType::TemporaryChange, Scope::ProcessAnomaly, 8.0);
        let mut v = vec![0.0; 60];
        let n = inj.apply(&mut v, 0);
        assert!((v[0] - 8.0).abs() < 1e-12);
        assert!((v[1] - 7.2).abs() < 1e-12);
        assert!(v[1] > v[2]);
        // Decays below 5% of magnitude eventually; not the whole array.
        assert!(n < 60);
        assert!(v[n..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn innovative_decays_with_phi() {
        let inj = Injection::new(OutlierType::Innovative, Scope::MeasurementError, 10.0);
        let mut v = vec![0.0; 40];
        let n = inj.apply(&mut v, 0);
        assert!((v[0] - 10.0).abs() < 1e-12);
        assert!((v[1] - 8.0).abs() < 1e-12);
        assert!(v[n..].iter().all(|&x| x == 0.0));
        // phi = 0.8 decays slower than... check effect ordering only.
        assert!(v[2] > v[3]);
    }

    #[test]
    fn apply_near_series_end_truncates() {
        let inj = Injection::new(OutlierType::LevelShift, Scope::ProcessAnomaly, 1.0);
        let mut v = vec![0.0; 4];
        let n = inj.apply(&mut v, 3);
        assert_eq!(n, 1);
        assert_eq!(v, vec![0.0, 0.0, 0.0, 1.0]);
        // Start beyond the end is a no-op.
        let mut w = vec![0.0; 2];
        assert_eq!(inj.apply(&mut w, 5), 0);
        assert_eq!(w, vec![0.0, 0.0]);
    }

    #[test]
    fn effect_at_shapes() {
        let add = Injection::new(OutlierType::Additive, Scope::MeasurementError, 5.0);
        assert_eq!(add.effect_at(0), 5.0);
        assert_eq!(add.effect_at(1), 0.0);
        let ls = Injection::new(OutlierType::LevelShift, Scope::MeasurementError, 5.0);
        assert_eq!(ls.effect_at(100), 5.0);
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(OutlierType::ALL.len(), 4);
        assert_eq!(OutlierType::Additive.to_string(), "additive outlier");
        assert_eq!(Scope::MeasurementError.label(), "measurement-error");
    }

    #[test]
    fn negative_magnitude_works() {
        let inj = Injection::new(OutlierType::Additive, Scope::MeasurementError, -10.0);
        let mut v = vec![0.0; 3];
        inj.apply(&mut v, 1);
        assert_eq!(v[1], -10.0);
    }
}
