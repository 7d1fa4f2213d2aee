//! Clegg–Dodson Markov-chain LRD generator.
//!
//! Clegg & Dodson showed that a *countable-state Markov chain* can generate
//! exact long-range dependence: a binary source whose sojourn times in each
//! state are drawn from a discrete heavy-tailed (Zipf-tail) distribution
//! `P(K ≥ k) = k^{-γ}` with `γ ∈ (1, 2)` has an autocorrelation function
//! decaying like `k^{1-γ}`, i.e. Hurst parameter `H = (3 − γ)/2 ∈ (0.5, 1)`.
//! The chain state is `(phase, remaining steps)`: each step decrements the
//! counter, and when it hits zero the phase flips and a fresh sojourn is
//! drawn — a perfectly ordinary Markov transition structure, yet the
//! resulting process is LRD. That makes it the ideal stress case for the
//! paper's question: does a *Markov* construction with LRD behave like DAR
//! (whose correlations are summable) or like FBNDP (whose are not) under the
//! CTS / CLR analysis?
//!
//! To produce frame sizes with the paper's marginal, `M` independent chains
//! are superposed and the ON-count is mapped affinely onto the target
//! mean/sd (`x = mean + sd·z`). The count of `M` fair ON/OFF chains has mean
//! `M/2` and variance `M/4`, so `x = mean + 2·sd·(S − M/2)/√M` matches both
//! moments exactly, and for `M ≳ 15` the marginal is Gaussian to good
//! approximation (the same CLT argument the paper's FBNDP superposition
//! makes).
//!
//! The process starts in equilibrium: each chain's initial phase is
//! ON/OFF with probability ½ and its initial *residual* sojourn is drawn
//! from the discrete residual-life distribution `P(R = r) = P(K ≥ r)/E[K]
//! = r^{-γ}/ζ(γ)`, inverted numerically via the Hurwitz zeta function. The
//! analytic ACF is computed exactly from the renewal parity identity
//! `r(k) = E[(−1)^{N(k)}]`, where `N(k)` counts phase flips in `k` steps.

use crate::error::ModelError;
use crate::traits::FrameProcess;
use rand::{Rng, RngCore};
use vbr_stats::special::{hurwitz_zeta, riemann_zeta};

/// Parameters of the [`CleggProcess`] Markov-chain LRD source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CleggParams {
    /// Target Hurst parameter, strictly inside `(0.5, 1)`; the sojourn tail
    /// exponent is `γ = 3 − 2H`.
    pub h: f64,
    /// Number of independent binary chains superposed (`≥ 1`); larger values
    /// make the marginal more Gaussian at `O(M)` cost per frame.
    pub chains: usize,
    /// Target marginal mean (cells/frame), positive: frame sizes are rates.
    pub mean: f64,
    /// Target marginal standard deviation, positive.
    pub sd: f64,
}

impl CleggParams {
    /// Validates the parameter set without constructing the process.
    pub fn try_validate(&self) -> Result<(), ModelError> {
        let err = |msg: String| Err(ModelError::new("Clegg", msg));
        if !self.h.is_finite() || self.h <= 0.5 || self.h >= 1.0 {
            return err(format!("H must lie strictly in (0.5, 1), got {}", self.h));
        }
        if self.chains == 0 {
            return err("need at least one chain".to_string());
        }
        if !self.mean.is_finite() || self.mean <= 0.0 {
            return err(format!("mean rate must be positive, got {}", self.mean));
        }
        if !self.sd.is_finite() || self.sd <= 0.0 {
            return err(format!("sd must be positive, got {}", self.sd));
        }
        Ok(())
    }
}

/// Discrete heavy-tailed sojourn law `P(K ≥ k) = k^{-γ}`, `k = 1, 2, …`.
///
/// `γ ∈ (1, 2)`: the mean `E[K] = ζ(γ)` is finite but the variance is
/// infinite — exactly the regime where alternating renewals are LRD.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ZipfSojourn {
    gamma: f64,
    /// `ζ(γ) = E[K]`, cached for equilibrium draws.
    zeta: f64,
}

impl ZipfSojourn {
    fn new(gamma: f64) -> Self {
        debug_assert!(gamma > 1.0 && gamma < 2.0);
        Self {
            gamma,
            zeta: riemann_zeta(gamma),
        }
    }

    /// `P(K ≥ k)` for `k ≥ 1`.
    fn survival_from(&self, k: u64) -> f64 {
        (k as f64).powf(-self.gamma)
    }

    /// `P(K = k)` for `k ≥ 1`.
    fn pmf(&self, k: u64) -> f64 {
        self.survival_from(k) - self.survival_from(k + 1)
    }

    /// Draws a fresh sojourn by closed-form inversion: the smallest `k`
    /// with `(k+1)^{-γ} ≤ 1 − u`.
    fn sample(&self, rng: &mut dyn RngCore) -> u64 {
        let u: f64 = rng.gen::<f64>();
        let x = (1.0 - u).powf(-1.0 / self.gamma);
        // min(·) guards the (probability ~1e-16) far tail against u64
        // overflow without disturbing any achievable double value below it.
        (x.min(9.0e15).ceil() as u64).saturating_sub(1).max(1)
    }

    /// Draws an equilibrium *residual* sojourn `P(R = r) = r^{-γ}/ζ(γ)` by
    /// numeric inversion of the Hurwitz-zeta tail
    /// `P(R > r) = ζ(γ, r + 1)/ζ(γ)`.
    fn sample_residual(&self, rng: &mut dyn RngCore) -> u64 {
        let u: f64 = rng.gen::<f64>();
        let target = (1.0 - u) * self.zeta; // find smallest r: ζ(γ, r+1) ≤ target
        if hurwitz_zeta(self.gamma, 2.0) <= target {
            return 1;
        }
        // Exponential search for a bracket, then integer bisection.
        // Invariant: ζ(γ, lo + 1) > target ≥ ζ(γ, hi + 1).
        let mut lo = 1u64;
        let mut hi = 2u64;
        while hurwitz_zeta(self.gamma, (hi + 1) as f64) > target {
            lo = hi;
            hi = hi.saturating_mul(2);
            if hi >= 1 << 52 {
                break;
            }
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if hurwitz_zeta(self.gamma, (mid + 1) as f64) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }
}

/// The Clegg–Dodson Markov-chain LRD frame process: `M` superposed binary
/// chains with Zipf-tail sojourns, affinely mapped to the target marginal.
#[derive(Debug, Clone)]
pub struct CleggProcess {
    params: CleggParams,
    sojourn: ZipfSojourn,
    /// Affine output map `x = mean + scale·(S − M/2)`.
    scale: f64,
    /// Current phase of each chain (`true` = ON).
    phases: Vec<bool>,
    /// Remaining steps of each chain's current sojourn (`≥ 1` once
    /// initialized).
    remaining: Vec<u64>,
    initialized: bool,
}

impl CleggProcess {
    /// Builds the process, panicking on invalid parameters.
    ///
    /// # Panics
    /// Panics if [`CleggParams::try_validate`] rejects the parameters.
    pub fn new(params: CleggParams) -> Self {
        match Self::try_new(params) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the process, returning a typed error on invalid parameters.
    pub fn try_new(params: CleggParams) -> Result<Self, ModelError> {
        params.try_validate()?;
        let gamma = 3.0 - 2.0 * params.h;
        let m = params.chains;
        Ok(Self {
            params,
            sojourn: ZipfSojourn::new(gamma),
            scale: 2.0 * params.sd / (m as f64).sqrt(),
            phases: vec![false; m],
            remaining: vec![0; m],
            initialized: false,
        })
    }

    /// The validated parameter set.
    pub fn params(&self) -> &CleggParams {
        &self.params
    }

    /// Sojourn tail exponent `γ = 3 − 2H`.
    pub fn gamma(&self) -> f64 {
        self.sojourn.gamma
    }

    /// Equilibrium start: each chain gets an independent fair phase and a
    /// residual-life sojourn, so the superposition is stationary from the
    /// first emitted frame.
    fn ensure_init(&mut self, rng: &mut dyn RngCore) {
        if self.initialized {
            return;
        }
        let _s = vbr_obs::span!("clegg.equilibrium");
        for i in 0..self.phases.len() {
            self.phases[i] = rng.gen::<f64>() < 0.5;
            self.remaining[i] = self.sojourn.sample_residual(rng);
        }
        self.initialized = true;
    }

    /// Advances every chain by one step (after the current frame was
    /// emitted): decrement, and on expiry flip the phase and draw a fresh
    /// full sojourn.
    fn advance(&mut self, rng: &mut dyn RngCore) {
        for i in 0..self.phases.len() {
            self.remaining[i] -= 1;
            if self.remaining[i] == 0 {
                self.phases[i] = !self.phases[i];
                self.remaining[i] = self.sojourn.sample(rng);
            }
        }
    }

    fn emit(&self) -> f64 {
        let on = self.phases.iter().filter(|&&p| p).count() as f64;
        self.params.mean + self.scale * (on - self.phases.len() as f64 / 2.0)
    }
}

impl FrameProcess for CleggProcess {
    fn next_frame(&mut self, rng: &mut dyn RngCore) -> f64 {
        self.ensure_init(rng);
        let x = self.emit();
        self.advance(rng);
        x
    }

    fn fill_frames(&mut self, out: &mut [f64], rng: &mut dyn RngCore) {
        // Hoists only the init check and the virtual dispatch; the per-chain
        // draw sequence is exactly the scalar loop's.
        self.ensure_init(rng);
        for slot in out.iter_mut() {
            *slot = self.emit();
            self.advance(rng);
        }
    }

    fn mean(&self) -> f64 {
        self.params.mean
    }

    fn variance(&self) -> f64 {
        self.params.sd * self.params.sd
    }

    fn autocorrelations(&self, max_lag: usize) -> Vec<f64> {
        // Renewal parity identity: the chains flip state at renewal epochs,
        // so B_k = B_0 iff the flip count N(k) is even, and
        // r(k) = E[(−1)^{N(k)}] under the equilibrium delay distribution.
        // Superposing iid chains and applying an affine map leaves the ACF
        // unchanged.
        let g = self.sojourn.gamma;
        let zeta = self.sojourn.zeta;
        // u(k): parity functional of the *ordinary* renewal process.
        let mut u = vec![0.0; max_lag + 1];
        u[0] = 1.0;
        for k in 1..=max_lag {
            let mut acc = self.sojourn.survival_from(k as u64 + 1); // P(K > k)
            for j in 1..=k {
                acc -= self.sojourn.pmf(j as u64) * u[k - j];
            }
            u[k] = acc;
        }
        // r(k): same functional under the equilibrium (residual) delay
        // e(j) = j^{-γ}/ζ(γ), with tail P(R > k) = ζ(γ, k+1)/ζ(γ).
        let mut r = vec![0.0; max_lag + 1];
        r[0] = 1.0;
        for k in 1..=max_lag {
            let mut acc = hurwitz_zeta(g, k as f64 + 1.0) / zeta;
            for j in 1..=k {
                acc -= (j as f64).powf(-g) / zeta * u[k - j];
            }
            r[k] = acc;
        }
        r
    }

    fn reset(&mut self, rng: &mut dyn RngCore) {
        self.initialized = false;
        self.ensure_init(rng);
    }

    fn boxed_clone(&self) -> Box<dyn FrameProcess> {
        Box::new(self.clone())
    }

    fn label(&self) -> String {
        format!("Clegg(H={:.3},M={})", self.params.h, self.params.chains)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_support::check_analytic_consistency;
    use vbr_stats::rng::Xoshiro256PlusPlus;

    fn params(h: f64) -> CleggParams {
        CleggParams {
            h,
            chains: 8,
            mean: 500.0,
            sd: 70.710_678,
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        for bad_h in [0.5, 1.0, 0.3, 1.4, f64::NAN] {
            assert!(CleggProcess::try_new(CleggParams { h: bad_h, ..params(0.8) }).is_err());
        }
        assert!(CleggProcess::try_new(CleggParams {
            chains: 0,
            ..params(0.8)
        })
        .is_err());
        assert!(CleggProcess::try_new(CleggParams {
            mean: -1.0,
            ..params(0.8)
        })
        .is_err());
        assert!(CleggProcess::try_new(CleggParams {
            sd: 0.0,
            ..params(0.8)
        })
        .is_err());
    }

    #[test]
    #[should_panic(expected = "Clegg")]
    fn new_panics_on_bad_h() {
        CleggProcess::new(CleggParams { h: 1.2, ..params(0.8) });
    }

    #[test]
    fn sojourn_sampler_matches_cdf() {
        let s = ZipfSojourn::new(1.4); // H = 0.8
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(11);
        let n = 200_000;
        let draws: Vec<u64> = (0..n).map(|_| s.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&k| k >= 1));
        for k in [1u64, 2, 3, 5, 10, 30, 100] {
            let emp = draws.iter().filter(|&&d| d >= k).count() as f64 / n as f64;
            let want = s.survival_from(k);
            assert!(
                (emp - want).abs() < 0.006,
                "P(K >= {k}): empirical {emp} vs {want}"
            );
        }
    }

    #[test]
    fn residual_sampler_matches_equilibrium_pmf() {
        let s = ZipfSojourn::new(1.4);
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(12);
        let n = 200_000;
        let draws: Vec<u64> = (0..n).map(|_| s.sample_residual(&mut rng)).collect();
        for r in [1u64, 2, 3, 5, 10] {
            let emp = draws.iter().filter(|&&d| d == r).count() as f64 / n as f64;
            let want = (r as f64).powf(-s.gamma) / s.zeta;
            assert!(
                (emp - want).abs() < 0.005,
                "P(R = {r}): empirical {emp} vs {want}"
            );
        }
        // Mean residual should match Σ r·r^{-γ}/ζ(γ) = ζ(γ−1)/ζ(γ)… which is
        // infinite for γ < 2 — so just check the tail really is heavy: some
        // draw should exceed what any geometric sojourn would ever produce.
        assert!(draws.iter().any(|&d| d > 10_000));
    }

    #[test]
    fn analytic_acf_matches_sample_path() {
        // Moderate H keeps the LRD-induced sample-mean wander small enough
        // for a deterministic tolerance at this path length.
        let mut m = CleggProcess::new(params(0.7));
        check_analytic_consistency(&mut m, 0x000C_1E66, 200_000, 16, 6.0, 0.12, 0.05);
    }

    #[test]
    fn acf_is_positive_and_decays_like_a_power_law() {
        let m = CleggProcess::new(params(0.8));
        let acf = m.autocorrelations(2048);
        // Positive everywhere; monotone only past the short transient — the
        // sojourn mass at K = 1 gives the chain an alternating component
        // that ripples through the first few lags.
        for (k, &r) in acf.iter().enumerate().skip(1) {
            assert!(r > 0.0, "acf[{k}] = {r} not positive");
        }
        for k in 17..=2048 {
            assert!(acf[k] < acf[k - 1] + 1e-12, "acf not decreasing at {k}");
        }
        // Asymptotic slope: r(k) ~ k^{2H-2} = k^{-0.4}. Fit over one decade.
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for k in [128usize, 181, 256, 362, 512, 724, 1024, 1448, 2048] {
            xs.push((k as f64).ln());
            ys.push(acf[k].ln());
        }
        let fit = vbr_stats::LinearFit::fit(&xs, &ys);
        assert!(
            (fit.slope - (-0.4)).abs() < 0.08,
            "ACF tail slope {} vs -0.4",
            fit.slope
        );
    }

    #[test]
    fn equilibrium_start_is_stationary_at_lag_zero() {
        // The first frame must already follow the stationary law: average
        // the *first* emission over many replications.
        let mut m = CleggProcess::new(params(0.8));
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(77);
        let n = 60_000;
        let mut acc = 0.0;
        let mut acc2 = 0.0;
        for _ in 0..n {
            m.reset(&mut rng);
            let x = m.next_frame(&mut rng);
            acc += x;
            acc2 += x * x;
        }
        let mean = acc / n as f64;
        let var = acc2 / n as f64 - mean * mean;
        assert!((mean - 500.0).abs() < 1.5, "first-frame mean {mean}");
        assert!((var - 5000.0).abs() < 200.0, "first-frame var {var}");
    }
}
