//! Differentially private uplink — the paper's stated future work
//! ("promising future directions are to theoretically guarantee
//! privacy-preserving and to consider privacy-utility tradeoffs in
//! federated clustering", Section VII; Remark 2 notes DP "can be
//! incorporated into Fed-SC ... while uploading Theta").
//!
//! The uploaded samples are unit vectors, so the l2 sensitivity of one
//! sample to any single data point's presence is bounded by 2 (replacing a
//! point can at most replace the sample with another unit vector). The
//! Gaussian mechanism therefore applies directly: adding
//! `N(0, sigma^2 I)` per sample with
//! `sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon` gives each
//! device's upload `(epsilon, delta)`-DP per sample; a device releasing
//! `r` samples composes to `(r * epsilon, r * delta)` under basic
//! composition (the conservative accounting we report).
//!
//! The privacy-utility tradeoff is measured by the `privacy` ablation in
//! `fedsc-bench`.

use fedsc_linalg::random::standard_normal;
use fedsc_linalg::Matrix;
use rand::Rng;

/// Parameters of the Gaussian mechanism applied to each uploaded sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpConfig {
    /// Per-sample privacy budget `epsilon` (> 0).
    pub epsilon: f64,
    /// Per-sample failure probability `delta` in (0, 1).
    pub delta: f64,
    /// l2 sensitivity of one released sample (2.0 for unit-norm samples
    /// under replacement; expose it for other release geometries).
    pub sensitivity: f64,
}

impl DpConfig {
    /// A `(epsilon, delta)` mechanism with the unit-sample sensitivity 2.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        Self {
            epsilon,
            delta,
            sensitivity: 2.0,
        }
    }

    /// The Gaussian-mechanism noise standard deviation
    /// `sigma = s * sqrt(2 ln(1.25/delta)) / epsilon`.
    ///
    /// # Panics
    ///
    /// Panics when `epsilon <= 0` or `delta` is outside `(0, 1)`.
    pub fn sigma(&self) -> f64 {
        assert!(self.epsilon > 0.0, "epsilon must be positive");
        assert!(
            self.delta > 0.0 && self.delta < 1.0,
            "delta must be in (0, 1)"
        );
        self.sensitivity * (2.0 * (1.25 / self.delta).ln()).sqrt() / self.epsilon
    }

    /// Conservative (basic-composition) privacy cost of releasing `r`
    /// samples: `(r * epsilon, r * delta)`.
    pub fn composed(&self, r: usize) -> (f64, f64) {
        (self.epsilon * r as f64, self.delta * r as f64)
    }
}

/// Privacy ledger accumulated over a federated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrivacyLedger {
    /// Worst per-device composed epsilon.
    pub max_device_epsilon: f64,
    /// Worst per-device composed delta.
    pub max_device_delta: f64,
    /// Number of devices that released anything.
    pub devices: usize,
}

impl PrivacyLedger {
    /// Records one device's release of `r` samples under `cfg`.
    pub fn record(&mut self, cfg: &DpConfig, r: usize) {
        let (e, d) = cfg.composed(r);
        self.max_device_epsilon = self.max_device_epsilon.max(e);
        self.max_device_delta = self.max_device_delta.max(d);
        self.devices += 1;
    }

    /// Folds another device's (or run's) ledger into this one.
    pub fn merge(&mut self, other: &PrivacyLedger) {
        self.max_device_epsilon = self.max_device_epsilon.max(other.max_device_epsilon);
        self.max_device_delta = self.max_device_delta.max(other.max_device_delta);
        self.devices += other.devices;
    }
}

/// Applies the Gaussian mechanism to a device's sample matrix (columns are
/// samples) and records the release in the ledger. Returns the privatized
/// samples.
pub fn privatize_samples<R: Rng + ?Sized>(
    cfg: &DpConfig,
    samples: &Matrix,
    ledger: &mut PrivacyLedger,
    rng: &mut R,
) -> Matrix {
    let sigma = cfg.sigma();
    let mut out = samples.clone();
    for v in out.as_mut_slice() {
        *v += sigma * standard_normal(rng);
    }
    ledger.record(cfg, samples.cols());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sigma_formula() {
        let cfg = DpConfig::new(1.0, 1e-5);
        // s * sqrt(2 ln(1.25e5)) = 2 * sqrt(2 * 11.736...) ~ 9.69
        let expect = 2.0 * (2.0 * (1.25 / 1e-5f64).ln()).sqrt();
        assert!((cfg.sigma() - expect).abs() < 1e-12);
        // Larger epsilon -> less noise.
        assert!(DpConfig::new(8.0, 1e-5).sigma() < cfg.sigma());
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn rejects_nonpositive_epsilon() {
        DpConfig::new(0.0, 1e-5).sigma();
    }

    #[test]
    #[should_panic(expected = "delta must be in")]
    fn rejects_bad_delta() {
        DpConfig::new(1.0, 1.5).sigma();
    }

    #[test]
    fn composition_is_linear() {
        let cfg = DpConfig::new(0.5, 1e-6);
        assert_eq!(cfg.composed(4), (2.0, 4e-6));
        assert_eq!(cfg.composed(0), (0.0, 0.0));
    }

    #[test]
    fn ledger_tracks_worst_device() {
        let cfg = DpConfig::new(1.0, 1e-6);
        let mut ledger = PrivacyLedger::default();
        ledger.record(&cfg, 2);
        ledger.record(&cfg, 5);
        ledger.record(&cfg, 1);
        assert_eq!(ledger.devices, 3);
        assert!((ledger.max_device_epsilon - 5.0).abs() < 1e-12);
        assert!((ledger.max_device_delta - 5e-6).abs() < 1e-15);
    }

    #[test]
    fn privatization_perturbs_with_expected_scale() {
        let cfg = DpConfig::new(100.0, 1e-3); // small noise for a tight test
        let sigma = cfg.sigma();
        let samples = Matrix::zeros(500, 8);
        let mut ledger = PrivacyLedger::default();
        let mut rng = StdRng::seed_from_u64(1);
        let out = privatize_samples(&cfg, &samples, &mut ledger, &mut rng);
        let var: f64 =
            out.as_slice().iter().map(|v| v * v).sum::<f64>() / out.as_slice().len() as f64;
        assert!(
            (var - sigma * sigma).abs() < 0.2 * sigma * sigma,
            "var {var} vs {}",
            sigma * sigma
        );
        assert_eq!(ledger.devices, 1);
    }
}
