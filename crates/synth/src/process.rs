//! Physical per-phase signal models.
//!
//! Each sensor kind gets a nominal deterministic trajectory per phase (the
//! "latent" process signal) plus AR(1) measurement noise. Redundant sensors
//! of one group share the latent trajectory and differ only in an
//! individual constant bias and independent noise — which is exactly the
//! structure the paper's support mechanism exploits: a *process* event moves
//! every group member, a *measurement* fault moves one.

use hierod_hierarchy::{PhaseKind, SensorKind};
use rand::rngs::StdRng;
use rand::Rng;

/// AR(1) noise parameters for one sensor kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NoiseModel {
    /// AR(1) coefficient in `[0, 1)`.
    pub phi: f64,
    /// Innovation standard deviation.
    pub sigma: f64,
}

/// Nominal trajectory + noise parameters for a sensor kind in a phase.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SignalModel {
    kind: SensorKind,
    phase: PhaseKind,
}

impl SignalModel {
    /// The model of `kind` during `phase`.
    pub(crate) fn new(kind: SensorKind, phase: PhaseKind) -> Self {
        Self { kind, phase }
    }

    /// The AR(1) noise model for this sensor kind. Temperatures drift
    /// smoothly (high phi), vibration is nearly white, laser power is tightly
    /// regulated.
    pub(crate) fn noise(&self) -> NoiseModel {
        match self.kind {
            SensorKind::BedTemperature | SensorKind::ChamberTemperature => NoiseModel {
                phi: 0.9,
                sigma: 0.15,
            },
            SensorKind::LaserPower => NoiseModel {
                phi: 0.3,
                sigma: 0.5,
            },
            SensorKind::Vibration => NoiseModel {
                phi: 0.1,
                sigma: 0.25,
            },
            SensorKind::OxygenLevel => NoiseModel {
                phi: 0.8,
                sigma: 5.0,
            },
            SensorKind::RoomTemperature => NoiseModel {
                phi: 0.95,
                sigma: 0.05,
            },
            SensorKind::Humidity => NoiseModel {
                phi: 0.95,
                sigma: 0.2,
            },
        }
    }

    /// Nominal (noise-free) value at sample `i` of `n` in this phase.
    ///
    /// `setpoint` scales the process targets (bed temperature setpoint,
    /// laser power setpoint, …) and comes from the job configuration.
    pub(crate) fn nominal(&self, i: usize, n: usize, setpoint: f64) -> f64 {
        let t = if n <= 1 {
            0.0
        } else {
            i as f64 / (n - 1) as f64
        };
        let ambient = 22.0;
        match (self.kind, self.phase) {
            // ---- temperatures ----
            (SensorKind::BedTemperature, PhaseKind::Preparation) => ambient,
            (SensorKind::BedTemperature, PhaseKind::WarmUp) => {
                // Exponential approach from ambient to setpoint.
                ambient + (setpoint - ambient) * (1.0 - (-4.0 * t).exp())
            }
            (SensorKind::BedTemperature, PhaseKind::Calibration)
            | (SensorKind::BedTemperature, PhaseKind::Printing) => setpoint,
            (SensorKind::BedTemperature, PhaseKind::Cooling) => {
                ambient + (setpoint - ambient) * (-3.0 * t).exp()
            }
            (SensorKind::ChamberTemperature, PhaseKind::Preparation) => ambient,
            (SensorKind::ChamberTemperature, PhaseKind::WarmUp) => {
                let target = ambient + (setpoint - ambient) * 0.5;
                ambient + (target - ambient) * (1.0 - (-3.0 * t).exp())
            }
            (SensorKind::ChamberTemperature, PhaseKind::Calibration)
            | (SensorKind::ChamberTemperature, PhaseKind::Printing) => {
                ambient + (setpoint - ambient) * 0.5
            }
            (SensorKind::ChamberTemperature, PhaseKind::Cooling) => {
                let target = ambient + (setpoint - ambient) * 0.5;
                ambient + (target - ambient) * (-2.0 * t).exp()
            }
            // ---- laser power ----
            (SensorKind::LaserPower, PhaseKind::Calibration) => {
                // Short test exposures: five pulses across the phase.
                if ((t * 10.0) as usize) % 2 == 1 {
                    setpoint * 0.5
                } else {
                    0.0
                }
            }
            (SensorKind::LaserPower, PhaseKind::Printing) => {
                // Layer modulation: power dips briefly at each recoat.
                let layer_pos = (t * 20.0).fract();
                if layer_pos < 0.15 {
                    setpoint * 0.1
                } else {
                    setpoint
                }
            }
            (SensorKind::LaserPower, _) => 0.0,
            // ---- vibration ----
            (SensorKind::Vibration, PhaseKind::Printing) => {
                // Recoater cycle: dominant oscillation plus harmonic.
                let x = t * 20.0 * std::f64::consts::TAU;
                1.5 + (x).sin() + 0.3 * (2.0 * x).sin()
            }
            (SensorKind::Vibration, PhaseKind::Preparation)
            | (SensorKind::Vibration, PhaseKind::Calibration) => 0.8,
            (SensorKind::Vibration, _) => 0.3,
            // ---- oxygen ----
            (SensorKind::OxygenLevel, PhaseKind::Preparation) => 2000.0,
            (SensorKind::OxygenLevel, PhaseKind::WarmUp) => {
                // Inert-gas purge brings O2 down.
                2000.0 * (-5.0 * t).exp() + 100.0
            }
            (SensorKind::OxygenLevel, _) => 100.0,
            // ---- ambient quantities (used at environment level) ----
            (SensorKind::RoomTemperature, _) => ambient,
            (SensorKind::Humidity, _) => 42.0,
        }
    }

    /// The characteristic magnitude scale for injected events on this
    /// signal: the larger of the measurement-noise sigma and 2 % of the
    /// nominal dynamic range of the phase. Scaling injections by this (and
    /// not by the noise sigma alone) keeps events meaningful relative to
    /// the signal's structure — a 15-noise-sigma glitch on a 160 °C cooling
    /// ramp would otherwise be invisible under the model-misfit floor of
    /// any realistic detector.
    pub(crate) fn event_scale(&self, setpoint: f64) -> f64 {
        let n = 64;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..n {
            let v = self.nominal(i, n, setpoint);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        self.noise().sigma.max(0.02 * (hi - lo))
    }

    /// Generates the latent (shared) trajectory for this phase: nominal
    /// plus AR(1) *process* wander at one tenth of the measurement noise.
    pub(crate) fn latent(&self, n: usize, setpoint: f64, rng: &mut StdRng) -> Vec<f64> {
        let noise = self.noise();
        let mut wander = 0.0_f64;
        (0..n)
            .map(|i| {
                let e: f64 = rng.gen_range(-1.0..1.0) * noise.sigma * 0.1;
                wander = noise.phi * wander + e;
                self.nominal(i, n, setpoint) + wander
            })
            .collect()
    }

    /// Observes a latent trajectory through one physical sensor: adds the
    /// sensor's constant bias and independent AR(1) measurement noise.
    pub(crate) fn observe(&self, latent: &[f64], bias: f64, rng: &mut StdRng) -> Vec<f64> {
        let noise = self.noise();
        let mut ar = 0.0_f64;
        latent
            .iter()
            .map(|&x| {
                let e: f64 = sample_gaussian(rng) * noise.sigma;
                ar = noise.phi * ar + e;
                x + bias + ar
            })
            .collect()
    }
}

/// Standard-normal sample via Box-Muller (rand's `StandardNormal` lives in
/// `rand_distr`, which is outside the sanctioned dependency set).
pub(crate) fn sample_gaussian(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn warmup_ramps_toward_setpoint() {
        let m = SignalModel::new(SensorKind::BedTemperature, PhaseKind::WarmUp);
        let start = m.nominal(0, 100, 180.0);
        let end = m.nominal(99, 100, 180.0);
        assert!((start - 22.0).abs() < 1.0);
        assert!(
            end > 170.0,
            "end of warm-up should approach setpoint, got {end}"
        );
        // Monotone non-decreasing ramp.
        let mut prev = f64::NEG_INFINITY;
        for i in 0..100 {
            let v = m.nominal(i, 100, 180.0);
            assert!(v >= prev - 1e-9);
            prev = v;
        }
    }

    #[test]
    fn cooling_decays_toward_ambient() {
        let m = SignalModel::new(SensorKind::BedTemperature, PhaseKind::Cooling);
        assert!(m.nominal(0, 100, 180.0) > 170.0);
        assert!(m.nominal(99, 100, 180.0) < 35.0);
    }

    #[test]
    fn printing_vibration_is_periodic() {
        let m = SignalModel::new(SensorKind::Vibration, PhaseKind::Printing);
        let vals: Vec<f64> = (0..200).map(|i| m.nominal(i, 200, 0.0)).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 1.5).abs() < 0.2);
        let spread = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - vals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread > 1.5,
            "oscillation should be visible, spread={spread}"
        );
    }

    #[test]
    fn laser_off_outside_active_phases() {
        for phase in [
            PhaseKind::Preparation,
            PhaseKind::WarmUp,
            PhaseKind::Cooling,
        ] {
            let m = SignalModel::new(SensorKind::LaserPower, phase);
            assert_eq!(m.nominal(5, 10, 200.0), 0.0, "phase {phase:?}");
        }
        let printing = SignalModel::new(SensorKind::LaserPower, PhaseKind::Printing);
        let high = (0..100)
            .map(|i| printing.nominal(i, 100, 200.0))
            .filter(|&v| v > 150.0)
            .count();
        assert!(high > 50, "laser mostly on while printing");
    }

    #[test]
    fn oxygen_purges_during_warmup() {
        let m = SignalModel::new(SensorKind::OxygenLevel, PhaseKind::WarmUp);
        assert!(m.nominal(0, 100, 0.0) > 1500.0);
        assert!(m.nominal(99, 100, 0.0) < 200.0);
    }

    #[test]
    fn latent_is_deterministic_per_seed() {
        let m = SignalModel::new(SensorKind::BedTemperature, PhaseKind::Printing);
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        assert_eq!(m.latent(50, 180.0, &mut r1), m.latent(50, 180.0, &mut r2));
    }

    #[test]
    fn observe_adds_bias_and_noise() {
        let m = SignalModel::new(SensorKind::BedTemperature, PhaseKind::Printing);
        let latent = vec![180.0; 500];
        let mut rng = StdRng::seed_from_u64(7);
        let obs = m.observe(&latent, 2.0, &mut rng);
        let mean = obs.iter().sum::<f64>() / obs.len() as f64;
        assert!(
            (mean - 182.0).abs() < 0.5,
            "bias should shift mean, got {mean}"
        );
        // Noise present: not all equal.
        assert!(obs.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-6));
    }

    #[test]
    fn two_sensors_share_latent_but_differ_in_noise() {
        let m = SignalModel::new(SensorKind::BedTemperature, PhaseKind::Printing);
        let mut rng = StdRng::seed_from_u64(11);
        let latent = m.latent(200, 180.0, &mut rng);
        let a = m.observe(&latent, 0.0, &mut rng);
        let b = m.observe(&latent, 0.0, &mut rng);
        assert_ne!(a, b);
        // Correlated through the latent: both track the same trajectory.
        let diff_mean = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64;
        assert!(diff_mean < 2.0);
    }

    #[test]
    fn gaussian_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..20_000).map(|_| sample_gaussian(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
