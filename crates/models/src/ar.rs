//! Gaussian AR(1) — the short-range-dependent baseline of Addie et al. and
//! Courcoubetis & Weber (paper footnote 4 and §4.2: the CTS of a Gaussian
//! AR(1) grows like `b/(c−μ)`).
//!
//! `X_n = μ + φ(X_{n−1} − μ) + √(1−φ²)·σ·ε_n`, `ε ~ N(0,1)`, started in the
//! stationary distribution `N(μ, σ²)`; ACF is exactly `φᵏ`. The process
//! carries its deviation from the mean as state, `d_n = φ·d_{n−1} +
//! √(1−φ²)·σ·ε_n` with `d_0 = σ·ε_0`, and emits `X_n = μ + d_n`, so the
//! chain one frame waits on is a multiply and an add. The innovations come
//! from the ziggurat sampler [`ziggurat_standard_normal`], one deviate per
//! frame, with no sampler state carried between frames.

use crate::error::ModelError;
use crate::traits::FrameProcess;
use rand::RngCore;
use vbr_stats::dist::ziggurat_standard_normal;

/// Gaussian AR(1) frame-size process.
///
/// Every frame draws one ziggurat innovation (~1.02 `u64`s) from the stream
/// it is given, in frame order, and advances the deviation from the mean,
/// `d ← φ·d + √(1−φ²)·σ·ε`; the frame is `μ + d`. `fill_frames` draws the
/// same sequence as `next_frame` for any chunking of the batch.
#[derive(Debug, Clone)]
pub struct GaussianAr1 {
    mean: f64,
    sd: f64,
    phi: f64,
    /// `√(1−φ²)·σ`, the innovation standard deviation.
    innovation_sd: f64,
    /// Deviation of the last frame from the mean.
    deviation: f64,
    initialized: bool,
}

impl GaussianAr1 {
    /// Creates a stationary Gaussian AR(1) with the given marginal moments
    /// and lag-1 correlation `phi ∈ (−1, 1)`.
    ///
    /// # Panics
    /// Panics on out-of-range parameters; see [`try_new`](Self::try_new).
    pub fn new(mean: f64, sd: f64, phi: f64) -> Self {
        match Self::try_new(mean, sd, phi) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Validated constructor: requires finite `mean`, `sd > 0` and
    /// `phi ∈ (−1, 1)`.
    pub fn try_new(mean: f64, sd: f64, phi: f64) -> Result<Self, ModelError> {
        let invalid = |message: String| ModelError::new("GaussianAr1", message);
        if !(sd > 0.0 && sd.is_finite()) {
            return Err(invalid(format!("invalid sd {sd}")));
        }
        if !(phi > -1.0 && phi < 1.0) {
            return Err(invalid(format!("phi must be in (-1,1), got {phi}")));
        }
        if !mean.is_finite() {
            return Err(invalid(format!("invalid mean {mean}")));
        }
        Ok(Self {
            mean,
            sd,
            phi,
            innovation_sd: sd * (1.0 - phi * phi).sqrt(),
            deviation: 0.0,
            initialized: false,
        })
    }

    /// The lag-1 correlation φ.
    pub fn phi(&self) -> f64 {
        self.phi
    }
}

impl FrameProcess for GaussianAr1 {
    fn next_frame(&mut self, rng: &mut dyn RngCore) -> f64 {
        let z = ziggurat_standard_normal(rng);
        self.deviation = if self.initialized {
            self.phi * self.deviation + self.innovation_sd * z
        } else {
            self.initialized = true;
            self.sd * z
        };
        self.mean + self.deviation
    }

    /// Runs the recursion over the batch with the deviation in a register,
    /// drawing each innovation as [`next_frame`](Self::next_frame) does, so
    /// the output is bit-identical to it for any chunking of the batch.
    fn fill_frames(&mut self, out: &mut [f64], rng: &mut dyn RngCore) {
        let Some((first, rest)) = out.split_first_mut() else {
            return;
        };
        *first = self.next_frame(rng);
        let (mean, phi, innovation_sd) = (self.mean, self.phi, self.innovation_sd);
        let mut deviation = self.deviation;
        for slot in rest.iter_mut() {
            deviation = phi * deviation + innovation_sd * ziggurat_standard_normal(rng);
            *slot = mean + deviation;
        }
        self.deviation = deviation;
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.sd * self.sd
    }

    fn autocorrelations(&self, max_lag: usize) -> Vec<f64> {
        (0..=max_lag).map(|k| self.phi.powi(k as i32)).collect()
    }

    fn reset(&mut self, _rng: &mut dyn RngCore) {
        self.initialized = false;
    }

    fn boxed_clone(&self) -> Box<dyn FrameProcess> {
        Box::new(self.clone())
    }

    fn label(&self) -> String {
        format!("AR(1) phi={}", self.phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_support::check_analytic_consistency;

    #[test]
    fn matches_analytics() {
        let mut p = GaussianAr1::new(500.0, 5000.0_f64.sqrt(), 0.8);
        check_analytic_consistency(&mut p, 111, 400_000, 6, 2.0, 0.05, 0.02);
    }

    #[test]
    fn negative_phi_allowed() {
        let mut p = GaussianAr1::new(0.0, 1.0, -0.5);
        check_analytic_consistency(&mut p, 112, 200_000, 4, 0.02, 0.05, 0.02);
        let r = p.autocorrelations(3);
        assert!(r[1] < 0.0 && r[2] > 0.0 && r[3] < 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_unit_root() {
        GaussianAr1::new(0.0, 1.0, 1.0);
    }
}
