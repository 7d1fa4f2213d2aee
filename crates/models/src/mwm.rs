//! Multifractal wavelet model (MWM) frame process.
//!
//! Riedi, Crouse, Ribeiro & Baraniuk's multifractal wavelet model builds a
//! non-negative LRD trace as a multiplicative cascade in the Haar domain:
//! start from a single coarse scaling coefficient, and at every level set
//! the wavelet (detail) coefficient to a random fraction of the local
//! scaling coefficient, `w_{j,k} = A_{j,k}·c_{j,k}` with `A_{j,k} ∈ (−1,1)`
//! drawn from a symmetric beta distribution. One inverse Haar step then
//! yields the two children `c_{j+1} = c_j·(1 ± A_{j,k})/√2 ≥ 0`, so the
//! synthesized block is non-negative by construction — unlike the Gaussian
//! models, which the paper's marginal can push below zero.
//!
//! The per-level multiplier variances `η_j = Var(A_j)` control the wavelet
//! energy decay. This implementation pins the octave-to-octave energy ratio
//! to the LRD value `2^{2H−1}` *exactly at every level* via the recursion
//! `η_{j+1} = η_j·2^{2−2H}/(1 + η_j)`, and solves for the root variance
//! `η_0` (monotone bisection) so the product `Π(1+η_j)` matches the target
//! marginal variance. Mean and variance are therefore matched exactly and
//! the wavelet logscale diagram has slope `2H − 1` by construction.
//!
//! Synthesis goes through [`vbr_stats::wavelet::haar_synthesize_level`] one
//! level at a time — the cascade needs each level's scaling coefficients to
//! scale its multipliers — and a whole block of `2^J` frames is generated
//! into an internal buffer. The model is first-order stationary (every
//! frame has the same mean and variance) but, like every block cascade,
//! only cyclo-stationary in its correlations;
//! [`autocorrelations`](crate::FrameProcess::autocorrelations) returns the
//! exact position-averaged ACF, which is what a sample ACF over a long path
//! estimates.

use crate::error::ModelError;
use crate::traits::FrameProcess;
use rand::RngCore;
use vbr_stats::dist::Gamma;
use vbr_stats::wavelet::haar_synthesize_level;

/// Parameters of the [`MwmProcess`] multifractal wavelet source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MwmParams {
    /// Target marginal mean (cells/frame), strictly positive — the cascade
    /// generates non-negative traffic around a positive rate.
    pub mean: f64,
    /// Target marginal standard deviation, strictly positive.
    pub sd: f64,
    /// Target Hurst parameter, strictly inside `(0.5, 1)`.
    pub h: f64,
    /// Cascade depth `J ≥ 1`: each synthesis block is `2^J` frames. An
    /// empty cascade (`J = 0`) is rejected — it would be a constant source.
    pub levels: usize,
}

/// Deepest admissible cascade (`2^26` frames per block ≈ 0.5 GiB buffer).
const MAX_LEVELS: usize = 26;

impl MwmParams {
    /// Validates the parameter set without constructing the process.
    pub fn try_validate(&self) -> Result<(), ModelError> {
        let err = |msg: String| Err(ModelError::new("MWM", msg));
        if !self.mean.is_finite() || self.mean <= 0.0 {
            return err(format!("mean must be positive, got {}", self.mean));
        }
        if !self.sd.is_finite() || self.sd <= 0.0 {
            return err(format!("sd must be positive, got {}", self.sd));
        }
        if !self.h.is_finite() || self.h <= 0.5 || self.h >= 1.0 {
            return err(format!("H must lie strictly in (0.5, 1), got {}", self.h));
        }
        if self.levels == 0 {
            return err("cascade must have at least one level".to_string());
        }
        if self.levels > MAX_LEVELS {
            return err(format!(
                "cascade depth {} exceeds the maximum of {MAX_LEVELS}",
                self.levels
            ));
        }
        Ok(())
    }

    /// Fits MWM parameters to an observed series: mean and sd from sample
    /// moments, `H` from the wavelet logscale diagram (clamped into the
    /// admissible open interval). The cascade's per-level multiplier
    /// variances are then re-derived from `(mean, sd, H)`, i.e. the fit
    /// selects the member of this H-parameterized MWM subfamily closest to
    /// the data in second-order statistics.
    ///
    /// # Panics
    /// Panics if the series is shorter than 256 points (the logscale
    /// diagram needs at least three stable octaves) or not positive-mean.
    pub fn fit(series: &[f64], levels: usize) -> Result<Self, ModelError> {
        let est = vbr_stats::wavelet_hurst(series);
        let n = series.len() as f64;
        let mean = series.iter().sum::<f64>() / n;
        let var = series.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / n;
        let params = Self {
            mean,
            sd: var.sqrt(),
            h: est.h.clamp(0.505, 0.995),
            levels,
        };
        params.try_validate()?;
        Ok(params)
    }

    /// Solves the cascade's multiplier-variance schedule: `η_{j+1} =
    /// η_j·2^{2−2H}/(1+η_j)` (which pins the octave energy ratio to
    /// `2^{2H−1}`), with `η_0` bisected so `Π(1+η_j)` hits the target
    /// variance ratio `1 + sd²/mean²`.
    fn solve_etas(&self) -> Result<Vec<f64>, ModelError> {
        let growth = (2.0_f64).powf(2.0 - 2.0 * self.h);
        let target = 1.0 + (self.sd / self.mean).powi(2);
        let schedule = |eta0: f64| -> (Vec<f64>, f64) {
            let mut etas = Vec::with_capacity(self.levels);
            let mut eta = eta0;
            let mut prod = 1.0;
            for _ in 0..self.levels {
                etas.push(eta);
                prod *= 1.0 + eta;
                eta = eta * growth / (1.0 + eta);
            }
            (etas, prod)
        };
        let max_prod = schedule(1.0 - 1e-12).1;
        if target >= max_prod {
            return Err(ModelError::new(
                "MWM",
                format!(
                    "sd/mean = {:.4} needs variance ratio {target:.4}, but a depth-{} \
                     cascade at H = {} can reach at most {max_prod:.4}; increase levels \
                     or reduce sd",
                    self.sd / self.mean,
                    self.levels,
                    self.h
                ),
            ));
        }
        let (mut lo, mut hi) = (0.0_f64, 1.0 - 1e-12);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if schedule(mid).1 < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(schedule(0.5 * (lo + hi)).0)
    }
}

/// The multifractal wavelet model: a beta-multiplier Haar cascade generating
/// non-negative LRD traffic block by block.
#[derive(Debug, Clone)]
pub struct MwmProcess {
    params: MwmParams,
    /// Per-level multiplier variances `η_j = Var(A_j)`, coarsest first.
    etas: Vec<f64>,
    /// Per-level symmetric-beta samplers (`A = 2·Beta(p_j, p_j) − 1`,
    /// `p_j = (1/η_j − 1)/2`), built from two gamma draws each.
    gammas: Vec<Gamma>,
    /// Achieved marginal variance `mean²·(Π(1+η_j) − 1)`; equals `sd²` to
    /// bisection accuracy and is what [`FrameProcess::variance`] reports so
    /// the analytic claims are exactly self-consistent.
    variance: f64,
    buffer: Vec<f64>,
    pos: usize,
}

impl MwmProcess {
    /// Builds the process, panicking on invalid parameters.
    ///
    /// # Panics
    /// Panics if [`MwmParams::try_validate`] rejects the parameters or the
    /// target variance is unreachable at this depth.
    pub fn new(params: MwmParams) -> Self {
        match Self::try_new(params) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the process, returning a typed error on invalid parameters.
    pub fn try_new(params: MwmParams) -> Result<Self, ModelError> {
        params.try_validate()?;
        let etas = params.solve_etas()?;
        let gammas = etas
            .iter()
            .map(|&eta| Gamma::new((1.0 / eta - 1.0) / 2.0, 1.0))
            .collect();
        let prod: f64 = etas.iter().map(|&e| 1.0 + e).product();
        Ok(Self {
            variance: params.mean * params.mean * (prod - 1.0),
            params,
            etas,
            gammas,
            buffer: Vec::new(),
            pos: 0,
        })
    }

    /// The validated parameter set.
    pub fn params(&self) -> &MwmParams {
        &self.params
    }

    /// The solved multiplier-variance schedule, coarsest level first.
    pub fn etas(&self) -> &[f64] {
        &self.etas
    }

    /// Frames per synthesis block (`2^levels`).
    pub fn block_len(&self) -> usize {
        1 << self.params.levels
    }

    /// Draws one symmetric-beta multiplier `A ∈ (−1, 1)` for level `j`.
    fn multiplier(&self, j: usize, rng: &mut dyn RngCore) -> f64 {
        let g1 = self.gammas[j].sample(rng);
        let g2 = self.gammas[j].sample(rng);
        2.0 * (g1 / (g1 + g2)) - 1.0
    }

    /// Synthesizes one block of `2^J` frames into the internal buffer.
    fn refill(&mut self, rng: &mut dyn RngCore) {
        let _s = vbr_obs::span!("mwm.synthesize");
        let j_max = self.params.levels;
        // Root scaling coefficient: c_{0,0} = 2^{J/2}·mean.
        let mut approx = vec![self.params.mean * (self.block_len() as f64).sqrt()];
        let mut detail = Vec::new();
        for j in 0..j_max {
            detail.clear();
            for &a in &approx {
                detail.push(self.multiplier(j, rng) * a);
            }
            approx = haar_synthesize_level(&approx, &detail);
        }
        self.buffer = approx;
        self.pos = 0;
    }
}

impl FrameProcess for MwmProcess {
    fn next_frame(&mut self, rng: &mut dyn RngCore) -> f64 {
        if self.pos >= self.buffer.len() {
            self.refill(rng);
        }
        let x = self.buffer[self.pos];
        self.pos += 1;
        x
    }

    fn fill_frames(&mut self, out: &mut [f64], rng: &mut dyn RngCore) {
        // Run-copy from the block buffer; draw order is identical to the
        // scalar loop because all randomness happens inside refill().
        let mut filled = 0;
        while filled < out.len() {
            if self.pos >= self.buffer.len() {
                self.refill(rng);
            }
            let take = (out.len() - filled).min(self.buffer.len() - self.pos);
            out[filled..filled + take]
                .copy_from_slice(&self.buffer[self.pos..self.pos + take]);
            self.pos += take;
            filled += take;
        }
    }

    fn mean(&self) -> f64 {
        self.params.mean
    }

    fn variance(&self) -> f64 {
        self.variance
    }

    fn autocorrelations(&self, max_lag: usize) -> Vec<f64> {
        // Exact position-averaged ACF of the block cascade. Two frames at
        // lag k either straddle a block boundary (independent blocks ⇒ zero
        // covariance) or share their deepest common cascade node at level j,
        // where E[X X'] = E[c_j²]·E[(1+A_j)(1−A_j)]/2·(1/2)^{J−j−1}
        //              = mean²·Π_{i<j}(1+η_i)·(1−η_j).
        // Averaging over all positions weights level j by the number of
        // lag-k pairs whose paths split there.
        let j_max = self.params.levels;
        let block = self.block_len();
        let mean_sq = self.params.mean * self.params.mean;
        // Second-moment products Π_{i<j}(1+η_i).
        let mut prods = Vec::with_capacity(j_max);
        let mut p = 1.0;
        for &eta in &self.etas {
            prods.push(p);
            p *= 1.0 + eta;
        }
        let mut acf = Vec::with_capacity(max_lag + 1);
        acf.push(1.0);
        for k in 1..=max_lag {
            if k >= block {
                acf.push(0.0);
                continue;
            }
            let mut cov_sum = 0.0;
            for (j, (&prod, &eta)) in prods.iter().zip(&self.etas).enumerate() {
                let span = block >> j; // samples under a level-j node
                let half = span / 2;
                if k >= span {
                    continue;
                }
                // Pairs (i, i+k) inside one level-j node whose members fall
                // in different halves, times the 2^j nodes at that level.
                let pairs_per_node = half.min(span - k).saturating_sub(half.saturating_sub(k));
                if pairs_per_node == 0 {
                    continue;
                }
                let pairs = (pairs_per_node << j) as f64;
                let cross_moment = mean_sq * prod * (1.0 - eta);
                cov_sum += pairs * (cross_moment - mean_sq);
            }
            // Straddling pairs contribute zero; normalize by all 2^J pair
            // positions per block period and the marginal variance.
            acf.push(cov_sum / (block as f64 * self.variance));
        }
        acf
    }

    fn reset(&mut self, _rng: &mut dyn RngCore) {
        self.buffer.clear();
        self.pos = 0;
    }

    fn boxed_clone(&self) -> Box<dyn FrameProcess> {
        Box::new(self.clone())
    }

    fn label(&self) -> String {
        format!("MWM(H={:.3},J={})", self.params.h, self.params.levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_support::check_analytic_consistency;
    use vbr_stats::rng::Xoshiro256PlusPlus;
    use vbr_stats::Moments;

    fn params() -> MwmParams {
        MwmParams {
            mean: 500.0,
            sd: 5000.0_f64.sqrt(),
            h: 0.9,
            levels: 10,
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        for bad_h in [0.5, 1.0, 0.2, 1.5, f64::NAN] {
            assert!(MwmProcess::try_new(MwmParams { h: bad_h, ..params() }).is_err());
        }
        assert!(MwmProcess::try_new(MwmParams {
            levels: 0,
            ..params()
        })
        .is_err());
        assert!(MwmProcess::try_new(MwmParams {
            mean: 0.0,
            ..params()
        })
        .is_err());
        assert!(MwmProcess::try_new(MwmParams { sd: -3.0, ..params() }).is_err());
        // Unreachable variance: a shallow cascade cannot hold sd >> mean.
        let e = MwmProcess::try_new(MwmParams {
            sd: 5000.0,
            levels: 2,
            ..params()
        });
        assert!(e.is_err());
    }

    #[test]
    #[should_panic(expected = "MWM")]
    fn new_panics_on_empty_cascade() {
        MwmProcess::new(MwmParams {
            levels: 0,
            ..params()
        });
    }

    #[test]
    fn eta_schedule_pins_the_octave_energy_ratio() {
        let m = MwmProcess::new(params());
        let growth = (2.0_f64).powf(2.0 - 2.0 * 0.9);
        let etas = m.etas();
        assert_eq!(etas.len(), 10);
        for j in 0..etas.len() - 1 {
            let want = etas[j] * growth / (1.0 + etas[j]);
            assert!(
                (etas[j + 1] - want).abs() < 1e-12,
                "eta recursion broken at level {j}"
            );
            assert!(etas[j] > 0.0 && etas[j] < 1.0);
        }
        // Variance is matched through the product of (1 + η_j).
        let prod: f64 = etas.iter().map(|&e| 1.0 + e).product();
        let var = 500.0 * 500.0 * (prod - 1.0);
        assert!((var - 5000.0).abs() < 1e-6, "solved variance {var}");
        assert!((m.variance() - 5000.0).abs() < 1e-6);
    }

    #[test]
    fn cascade_output_is_non_negative_with_exact_moments() {
        let mut m = MwmProcess::new(params());
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(0x3A11);
        let mut stats = Moments::new();
        let mut frames = vec![0.0; 1 << 16];
        m.fill_frames(&mut frames, &mut rng);
        for &x in &frames {
            assert!(x >= 0.0, "cascade produced a negative frame {x}");
            stats.push(x);
        }
        assert!((stats.mean() - 500.0).abs() < 4.0, "mean {}", stats.mean());
        assert!(
            (stats.variance() - 5000.0).abs() < 900.0,
            "variance {}",
            stats.variance()
        );
    }

    #[test]
    fn analytic_acf_matches_sample_path() {
        let mut m = MwmProcess::new(MwmParams {
            h: 0.75,
            levels: 8,
            ..params()
        });
        check_analytic_consistency(&mut m, 0x3A12, 1 << 18, 16, 4.0, 0.10, 0.04);
    }

    #[test]
    fn wavelet_energies_decay_at_the_design_rate() {
        // The defining property: log2 detail energy gains 2H−1 per octave.
        let mut m = MwmProcess::new(MwmParams {
            h: 0.85,
            levels: 12,
            ..params()
        });
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(0x3A13);
        let mut frames = vec![0.0; 1 << 17];
        m.fill_frames(&mut frames, &mut rng);
        let est = vbr_stats::wavelet_hurst(&frames);
        assert!(
            (est.h - 0.85).abs() < 0.05,
            "wavelet H {} vs design 0.85",
            est.h
        );
    }
}
