//! Fractal ON/OFF renewal process.
//!
//! The building block of the FBNDP model (paper §3.2): an alternating
//! renewal process whose ON and OFF sojourns are i.i.d. with the
//! exponential-body / power-law-tail density
//!
//! ```text
//! p(t) = (γ/A) e^{−γt/A}          for t ≤ A,
//!        γ e^{−γ} A^γ t^{−(γ+1)}  for t > A,          γ = 2 − α ∈ (1, 2).
//! ```
//!
//! The tail exponent γ ∈ (1, 2) gives finite mean but infinite variance —
//! exactly the regime that produces long-range dependence in the aggregate
//! (H = (α+1)/2 > ½).
//!
//! Because sojourns are heavy-tailed, *how the process is started matters
//! enormously*: a naive start (fresh sojourn at t = 0) under-represents the
//! long sojourns the stationary process is likely to be sitting inside, and
//! biases short-run correlation estimates. [`FractalOnOff`] therefore starts
//! in equilibrium — state ON/OFF with probability ½ each, and a residual
//! sojourn drawn from the length-biased residual-life distribution
//! `F_e(t) = (1/E[T]) ∫₀ᵗ (1 − F(s)) ds`, inverted in closed form.

use rand::{Rng, RngCore};

/// The heavy-tailed sojourn distribution (exponential body, Pareto tail).
#[derive(Debug, Clone, Copy)]
pub struct HeavyTailedSojourn {
    /// Tail exponent γ = 2 − α, in (1, 2).
    gamma: f64,
    /// Crossover point A between exponential body and power-law tail (sec).
    a: f64,
    /// Cached `1 − e^{−γ}`: probability mass of the exponential body.
    body_mass: f64,
    /// Cached mean sojourn E[T].
    mean: f64,
}

impl HeavyTailedSojourn {
    /// Creates the sojourn distribution with tail exponent `gamma ∈ (1, 2)`
    /// and crossover `a > 0` seconds.
    ///
    /// # Panics
    /// Panics if the parameters are outside those ranges.
    pub fn new(gamma: f64, a: f64) -> Self {
        assert!(
            gamma > 1.0 && gamma < 2.0,
            "gamma must be in (1,2) for finite mean + infinite variance, got {gamma}"
        );
        assert!(a > 0.0 && a.is_finite(), "invalid crossover {a}");
        let body_mass = 1.0 - (-gamma).exp();
        // E[T] = ∫ S(t) dt = (A/γ)(1 − e^{−γ}) + A e^{−γ}/(γ − 1).
        let mean = (a / gamma) * body_mass + a * (-gamma).exp() / (gamma - 1.0);
        Self {
            gamma,
            a,
            body_mass,
            mean,
        }
    }

    /// Builds from the paper's α parameterization: γ = 2 − α.
    pub fn from_alpha(alpha: f64, a: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0,1), got {alpha}"
        );
        Self::new(2.0 - alpha, a)
    }

    /// Tail exponent γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Body/tail crossover A (sec).
    pub fn crossover(&self) -> f64 {
        self.a
    }

    /// Mean sojourn E\[T\] (sec). The variance is infinite by design.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// CDF `F(t)`.
    pub fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else if t <= self.a {
            1.0 - (-self.gamma * t / self.a).exp()
        } else {
            1.0 - (-self.gamma).exp() * (self.a / t).powf(self.gamma)
        }
    }

    /// Survival `1 − F(t)`.
    pub fn survival(&self, t: f64) -> f64 {
        1.0 - self.cdf(t)
    }

    /// Draws a fresh sojourn by inverse-CDF.
    pub fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rng.gen();
        if u < self.body_mass {
            // Exponential body: u = 1 − e^{−γt/A}.
            -(self.a / self.gamma) * (1.0 - u).ln()
        } else {
            // Pareto tail: 1 − u = e^{−γ} (A/t)^γ.
            self.a * ((-self.gamma).exp() / (1.0 - u)).powf(1.0 / self.gamma)
        }
    }

    /// Draws from the equilibrium (residual-life) distribution
    /// `F_e(t) = G(t)/E[T]`, `G(t) = ∫₀ᵗ S(s) ds`, by closed-form piecewise
    /// inversion. This is the correct distribution for the *remaining*
    /// sojourn observed at a stationary random time.
    pub fn sample_equilibrium(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rng.gen();
        let target = u * self.mean;
        // G(A) = (A/γ)(1 − e^{−γ}).
        let g_at_a = (self.a / self.gamma) * self.body_mass;
        if target <= g_at_a {
            // (A/γ)(1 − e^{−γ t/A}) = target
            let inner = 1.0 - self.gamma * target / self.a;
            -(self.a / self.gamma) * inner.ln()
        } else {
            // e^{−γ} A^γ (A^{1−γ} − t^{1−γ})/(γ−1) = target − G(A)
            let excess = target - g_at_a;
            let pow = self.a.powf(1.0 - self.gamma)
                - (self.gamma - 1.0) * excess * self.gamma.exp() / self.a.powf(self.gamma);
            // pow → 0⁺ as u → 1; exponent 1/(1−γ) < 0 sends t → ∞.
            pow.powf(1.0 / (1.0 - self.gamma))
        }
    }
}

/// A single fractal ON/OFF process, started in equilibrium.
#[derive(Debug, Clone)]
pub struct FractalOnOff {
    sojourn: HeavyTailedSojourn,
    on: bool,
    /// Time remaining in the current sojourn (sec).
    remaining: f64,
    initialized: bool,
}

impl FractalOnOff {
    /// Creates the process; the initial state is drawn lazily (equilibrium
    /// start) on first use so that construction needs no RNG.
    pub fn new(sojourn: HeavyTailedSojourn) -> Self {
        Self {
            sojourn,
            on: false,
            remaining: 0.0,
            initialized: false,
        }
    }

    /// The sojourn distribution.
    pub fn sojourn(&self) -> &HeavyTailedSojourn {
        &self.sojourn
    }

    /// Whether the process is currently ON (after initialization).
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ensure_init(&mut self, rng: &mut dyn RngCore) {
        if !self.initialized {
            // ON and OFF sojourns are identically distributed, so the
            // stationary probability of being ON is exactly 1/2.
            self.on = rng.gen::<f64>() < 0.5;
            self.remaining = self.sojourn.sample_equilibrium(rng);
            self.initialized = true;
        }
    }

    /// Re-draws the equilibrium initial state (new replication).
    pub fn reset(&mut self, rng: &mut dyn RngCore) {
        self.initialized = false;
        self.ensure_init(rng);
    }

    /// **Biased** initialization for ablation studies: starts a *fresh*
    /// sojourn at time zero instead of an equilibrium residual. Under
    /// heavy-tailed sojourns this under-represents the long intervals a
    /// stationary observer would land inside, deflating short-run
    /// autocorrelation and Hurst estimates — the `ablations` bench measures
    /// exactly how much.
    pub fn reset_naive(&mut self, rng: &mut dyn RngCore) {
        self.on = rng.gen::<f64>() < 0.5;
        self.remaining = self.sojourn.sample(rng);
        self.initialized = true;
    }

    /// Advances the process by `dt` seconds and returns the total ON time
    /// within that window.
    pub fn on_time(&mut self, dt: f64, rng: &mut dyn RngCore) -> f64 {
        assert!(dt >= 0.0, "negative window {dt}");
        self.ensure_init(rng);
        let mut left = dt;
        let mut acc = 0.0;
        loop {
            if self.remaining >= left {
                if self.on {
                    acc += left;
                }
                self.remaining -= left;
                return acc;
            }
            if self.on {
                acc += self.remaining;
            }
            left -= self.remaining;
            self.on = !self.on;
            self.remaining = self.sojourn.sample(rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_stats::rng::Xoshiro256PlusPlus;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::from_seed_u64(seed)
    }

    #[test]
    fn cdf_is_continuous_at_crossover() {
        let d = HeavyTailedSojourn::from_alpha(0.8, 0.002);
        let below = d.cdf(0.002 - 1e-12);
        let above = d.cdf(0.002 + 1e-12);
        assert!((below - above).abs() < 1e-9, "{below} vs {above}");
        assert!((below - (1.0 - (-1.2_f64).exp())).abs() < 1e-9);
    }

    #[test]
    fn cdf_monotone_and_proper() {
        let d = HeavyTailedSojourn::new(1.3, 0.01);
        assert_eq!(d.cdf(0.0), 0.0);
        let mut prev = 0.0;
        for i in 1..200 {
            let t = i as f64 * 0.005;
            let f = d.cdf(t);
            assert!(f >= prev, "CDF must be monotone");
            assert!(f < 1.0);
            prev = f;
        }
        assert!(d.cdf(1e9) > 0.999_999);
    }

    #[test]
    fn sampler_matches_cdf() {
        let d = HeavyTailedSojourn::from_alpha(0.8, 0.002);
        let mut r = rng(81);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        // Kolmogorov-style check at several points.
        for &t in &[0.0005, 0.002, 0.004, 0.02, 0.1] {
            let emp = samples.iter().filter(|&&x| x <= t).count() as f64 / n as f64;
            assert!(
                (emp - d.cdf(t)).abs() < 0.005,
                "at t={t}: empirical {emp} vs F {}",
                d.cdf(t)
            );
        }
    }

    #[test]
    fn sample_mean_converges_to_analytic() {
        // Heavy tail (infinite variance) makes this converge slowly; use the
        // median-of-batches trick implicitly via a generous tolerance.
        let d = HeavyTailedSojourn::from_alpha(0.8, 0.002);
        let mut r = rng(82);
        let n = 2_000_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!(
            (mean - d.mean()).abs() < 0.15 * d.mean(),
            "sample mean {mean} vs analytic {}",
            d.mean()
        );
    }

    #[test]
    fn equilibrium_sampler_matches_integrated_tail() {
        // F_e(t) = G(t)/E[T]; verify empirically at a few points using
        // numeric integration of the survival function.
        let d = HeavyTailedSojourn::from_alpha(0.8, 0.002);
        let mut r = rng(83);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample_equilibrium(&mut r)).collect();
        for &t in &[0.001, 0.003, 0.01, 0.05] {
            // numeric G(t)
            let steps = 20_000;
            let dt = t / steps as f64;
            let g: f64 = (0..steps)
                .map(|i| d.survival((i as f64 + 0.5) * dt) * dt)
                .sum();
            let fe = g / d.mean();
            let emp = samples.iter().filter(|&&x| x <= t).count() as f64 / n as f64;
            assert!(
                (emp - fe).abs() < 0.01,
                "at t={t}: empirical {emp} vs F_e {fe}"
            );
        }
    }

    #[test]
    fn equilibrium_residuals_are_stochastically_longer() {
        // Length-biasing: the residual-life distribution has a heavier body
        // than the fresh sojourn distribution (E[T_e] > E[T] when the
        // sojourn variance exceeds the squared mean — trivially true here
        // since the variance is infinite).
        let d = HeavyTailedSojourn::from_alpha(0.8, 0.002);
        let mut r = rng(84);
        let n = 100_000;
        let fresh: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        let equil: f64 = (0..n).map(|_| d.sample_equilibrium(&mut r)).sum::<f64>() / n as f64;
        assert!(
            equil > 2.0 * fresh,
            "equilibrium residual mean {equil} should dominate fresh mean {fresh}"
        );
    }

    #[test]
    fn on_fraction_is_half() {
        let d = HeavyTailedSojourn::from_alpha(0.8, 0.002);
        let mut p = FractalOnOff::new(d);
        let mut r = rng(85);
        // Heavy-tailed sojourns make the time average converge like
        // T^{-(gamma-1)} rather than T^{-1/2}; average over independent
        // replications to get a usable tolerance.
        let frames = 100_000;
        let ts = 0.04;
        let reps = 6;
        let mut frac = 0.0;
        for _ in 0..reps {
            p.reset(&mut r);
            let on: f64 = (0..frames).map(|_| p.on_time(ts, &mut r)).sum();
            frac += on / (frames as f64 * ts) / reps as f64;
        }
        assert!((frac - 0.5).abs() < 0.04, "ON fraction {frac}");
    }

    #[test]
    fn on_time_bounded_by_window() {
        let d = HeavyTailedSojourn::from_alpha(0.7, 0.001);
        let mut p = FractalOnOff::new(d);
        let mut r = rng(86);
        for _ in 0..10_000 {
            let t = p.on_time(0.04, &mut r);
            assert!((0.0..=0.04 + 1e-12).contains(&t), "on time {t}");
        }
    }

    #[test]
    fn zero_window_costs_nothing() {
        let d = HeavyTailedSojourn::from_alpha(0.8, 0.002);
        let mut p = FractalOnOff::new(d);
        let mut r = rng(87);
        assert_eq!(p.on_time(0.0, &mut r), 0.0);
    }

    #[test]
    fn ensemble_on_probability_at_fixed_time() {
        // Across many independent replications, P(ON during [0, dt]) -> 1/2
        // immediately — the equilibrium start has no warm-up transient.
        let d = HeavyTailedSojourn::from_alpha(0.8, 0.002);
        let mut r = rng(88);
        let reps = 100_000;
        let mut on_acc = 0.0;
        for _ in 0..reps {
            let mut p = FractalOnOff::new(d);
            on_acc += p.on_time(0.001, &mut r) / 0.001;
        }
        let frac = on_acc / reps as f64;
        assert!((frac - 0.5).abs() < 0.01, "ensemble ON fraction {frac}");
    }

    #[test]
    #[should_panic]
    fn rejects_gamma_out_of_range() {
        HeavyTailedSojourn::new(2.5, 0.01);
    }

    #[test]
    #[should_panic]
    fn rejects_alpha_out_of_range() {
        HeavyTailedSojourn::from_alpha(1.2, 0.01);
    }
}
