//! Random-variate samplers.
//!
//! Implemented from scratch (the workspace's allowed dependency set has no
//! `rand_distr`): normal via the Marsaglia polar method and via a 256-layer
//! ziggurat, Poisson via Knuth's product method for small means and
//! Hörmann's PTRD transformed-rejection method for large means, exponential
//! by inversion, and a Walker–Vose alias table for categorical draws (the
//! `A_n` lag selector of a DAR(p) process).
//!
//! All samplers are generic over [`rand::Rng`], so they work with the
//! workspace's deterministic [`crate::rng::Xoshiro256PlusPlus`] as well as
//! any other `rand`-compatible generator.

use crate::special::{ln_factorial, normal_pdf, normal_sf};
use rand::Rng;
use std::sync::OnceLock;

/// Sampler for the normal distribution `N(mean, sd²)`.
///
/// Uses the Marsaglia polar method with a cached spare deviate, so it costs
/// on average ~1.27 uniform pairs per two normal variates.
#[derive(Debug, Clone)]
pub struct Normal {
    mean: f64,
    sd: f64,
    spare: Option<f64>,
}

impl Normal {
    /// Creates a normal sampler with the given mean and standard deviation.
    ///
    /// # Panics
    /// Panics if `sd` is negative or not finite.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(sd >= 0.0 && sd.is_finite(), "invalid sd {sd}");
        assert!(mean.is_finite(), "invalid mean {mean}");
        Self {
            mean,
            sd,
            spare: None,
        }
    }

    /// The configured mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The configured standard deviation.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Draws one variate.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.mean + self.sd * self.standard(rng)
    }

    /// Draws one standard-normal variate.
    pub fn standard<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        loop {
            let u = 2.0 * rng.gen::<f64>() - 1.0;
            let v = 2.0 * rng.gen::<f64>() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let mul = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * mul);
                return u * mul;
            }
        }
    }
}

/// One-shot standard normal draw without carrying sampler state.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    Normal::new(0.0, 1.0).standard(rng)
}

/// Ziggurat layers; the layer index is the low 8 bits of one `u64` draw.
const ZIG_LAYERS: usize = 256;
/// Right edge of the base layer's rectangle, where the tail begins.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Common area of every layer under the unnormalised density `e^{−x²/2}`
/// (the base layer's is its rectangle plus the tail beyond [`ZIG_R`]).
const ZIG_V: f64 = 4.928_673_233_99e-3;

/// Layer edges and density values of the ziggurat, built once.
struct ZigguratTables {
    /// `x[0] = V/f(R)` (the base layer's width, counting the tail as a
    /// rectangle), `x[1] = R`, decreasing to `x[256] = 0`; layer `i` spans
    /// `[0, x[i]]` and lies entirely under the curve up to `x[i + 1]`.
    x: [f64; ZIG_LAYERS + 1],
    /// `f[i] = e^{−x[i]²/2}`.
    f: [f64; ZIG_LAYERS + 1],
}

fn ziggurat_tables() -> &'static ZigguratTables {
    static TABLES: OnceLock<ZigguratTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIG_LAYERS + 1];
        x[0] = ZIG_V / pdf(ZIG_R);
        x[1] = ZIG_R;
        // Layer i has area x[i]·(f(x[i+1]) − f(x[i])) = V.
        for i in 1..ZIG_LAYERS - 1 {
            x[i + 1] = (-2.0 * (ZIG_V / x[i] + pdf(x[i])).ln()).sqrt();
        }
        x[ZIG_LAYERS] = 0.0;
        ZigguratTables { x, f: x.map(pdf) }
    })
}

/// Draws one standard-normal variate by the 256-layer ziggurat of Marsaglia
/// & Tsang (J. Stat. Softw. 5(8), 2000), exact in law.
///
/// Each attempt takes one `u64`: its low 8 bits pick the layer and its top
/// 53 bits give the signed uniform, so the two are independent (Doornik's
/// 2005 fix to the original's shared bits). About 98.5% of draws return
/// from the rectangle test alone; the rest take a wedge test against the
/// density or, from the base layer, Marsaglia's exponential tail method
/// beyond `R ≈ 3.654`. Expected cost is ~1.02 `u64`s and no transcendental
/// on the fast path, against the polar method's ~2.55 uniforms, `ln`, `sqrt`
/// and division per pair.
///
/// Gaussian AR(1) draws its innovations here. [`Normal`] keeps the polar
/// method for every other model (the Gaussian DAR marginals) so
/// that their seed-pinned draw sequences stay put until the statistical
/// paper-claim gates land (ROADMAP item 3); ROADMAP item 4 then moves
/// [`Normal`] onto this sampler and deletes the polar method.
pub fn ziggurat_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let t = ziggurat_tables();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        // Signed uniform on the symmetric grid ±(k + ½)·2⁻⁵², k < 2⁵²:
        // never 0 or ±1, and exact in f64.
        let u = (((bits >> 11) as i64 - (1 << 52)) as f64 + 0.5) * f64::EPSILON;
        let x = u * t.x[i];
        if x.abs() < t.x[i + 1] {
            return x;
        }
        if i == 0 {
            return ziggurat_tail(rng, u < 0.0);
        }
        if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.gen::<f64>() < (-0.5 * x * x).exp() {
            return x;
        }
    }
}

/// Marsaglia's exponential method for the normal tail beyond [`ZIG_R`].
#[cold]
fn ziggurat_tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        // 1 − U in (0, 1]: ln never sees zero.
        let x = -(1.0 - rng.gen::<f64>()).ln() / ZIG_R;
        let y = -(1.0 - rng.gen::<f64>()).ln();
        if 2.0 * y > x * x {
            return if negative { -(ZIG_R + x) } else { ZIG_R + x };
        }
    }
}

/// Sampler for the Poisson distribution.
///
/// Strategy switch at mean 10: below, Knuth's product-of-uniforms method
/// (exact, O(mean) uniforms); at or above, Hörmann's PTRD transformed
/// rejection (PTRD, 1993), which needs ~1.1 uniform pairs per variate
/// regardless of the mean. The FBNDP traffic model draws a Poisson variate
/// with mean ≈ 250 for every source and frame — about 10⁹ draws at the
/// paper's full simulation scale — so constant cost matters.
#[derive(Debug, Clone)]
pub struct Poisson {
    mean: f64,
    method: PoissonMethod,
}

#[derive(Debug, Clone)]
enum PoissonMethod {
    /// Knuth: count multiplications of uniforms until the product < e^-mean.
    Knuth { exp_neg_mean: f64 },
    /// Hörmann PTRD constants precomputed from the mean.
    Ptrd {
        b: f64,
        a: f64,
        inv_alpha: f64,
        v_r: f64,
        ln_mean: f64,
    },
}

impl Poisson {
    /// Creates a Poisson sampler with the given mean.
    ///
    /// # Panics
    /// Panics if `mean` is negative, NaN, or so large that the PTRD integer
    /// arithmetic would overflow (`mean > 1e9`).
    pub fn new(mean: f64) -> Self {
        assert!(
            mean >= 0.0 && mean.is_finite() && mean <= 1e9,
            "invalid Poisson mean {mean}"
        );
        let method = if mean < 10.0 {
            PoissonMethod::Knuth {
                exp_neg_mean: (-mean).exp(),
            }
        } else {
            let smu = mean.sqrt();
            let b = 0.931 + 2.53 * smu;
            let a = -0.059 + 0.024_83 * b;
            let inv_alpha = 1.123_9 + 1.132_8 / (b - 3.4);
            let v_r = 0.927_7 - 3.622_4 / (b - 2.0);
            PoissonMethod::Ptrd {
                b,
                a,
                inv_alpha,
                v_r,
                ln_mean: mean.ln(),
            }
        };
        Self { mean, method }
    }

    /// The configured mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws one variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match &self.method {
            PoissonMethod::Knuth { exp_neg_mean } => {
                if self.mean == 0.0 {
                    return 0;
                }
                let mut k = 0u64;
                let mut p = 1.0;
                loop {
                    p *= rng.gen::<f64>();
                    if p <= *exp_neg_mean {
                        return k;
                    }
                    k += 1;
                }
            }
            PoissonMethod::Ptrd {
                b,
                a,
                inv_alpha,
                v_r,
                ln_mean,
            } => loop {
                let v: f64 = rng.gen();
                // Step 1: the cheap "immediate acceptance" region.
                if v <= 0.86 * v_r {
                    let u = v / v_r - 0.43;
                    let us = 0.5 - u.abs();
                    let k = ((2.0 * a / us + b) * u + self.mean + 0.445).floor();
                    return k as u64;
                }
                // Step 2: draw the second uniform depending on where v fell.
                let (u, v) = if v >= *v_r {
                    (rng.gen::<f64>() - 0.5, v)
                } else {
                    let u = v / v_r - 0.93;
                    (0.5_f64.copysign(u) - u, v_r * rng.gen::<f64>())
                };
                let us = 0.5 - u.abs();
                if us < 0.013 && v > us {
                    continue;
                }
                let kf = ((2.0 * a / us + b) * u + self.mean + 0.445).floor();
                if kf < 0.0 {
                    continue;
                }
                let k = kf as u64;
                // Step 3: exact acceptance test in log space.
                let v_scaled = v * *inv_alpha / (a / (us * us) + b);
                if v_scaled.ln() <= kf * ln_mean - self.mean - ln_factorial(k) {
                    return k;
                }
            },
        }
    }
}

/// Exponential distribution sampler by inversion.
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates a sampler for `Exp(rate)` (mean `1/rate`).
    ///
    /// # Panics
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "invalid rate {rate}");
        Self { rate }
    }

    /// Draws one variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 - U in (0, 1]: ln never sees zero.
        -(1.0 - rng.gen::<f64>()).ln() / self.rate
    }
}

/// Gamma distribution sampler, shape–scale parameterization.
///
/// Marsaglia–Tsang squeeze method for shape ≥ 1; the shape < 1 case uses the
/// standard boost `Gamma(a) = Gamma(a+1) · U^{1/a}`. Needed for the
/// negative-binomial (gamma-mixed Poisson) frame-size marginal that the
/// paper's §6.1 discussion references.
#[derive(Debug, Clone)]
pub struct Gamma {
    shape: f64,
    scale: f64,
    d: f64,
    c: f64,
}

impl Gamma {
    /// Creates a sampler for `Gamma(shape, scale)` (mean `shape·scale`).
    ///
    /// # Panics
    /// Panics if either parameter is not strictly positive and finite.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && shape.is_finite(), "invalid shape {shape}");
        assert!(scale > 0.0 && scale.is_finite(), "invalid scale {scale}");
        let d = if shape >= 1.0 { shape } else { shape + 1.0 } - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        Self { shape, scale, d, c }
    }

    /// The configured shape.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The configured scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Draws one variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mut normal = Normal::new(0.0, 1.0);
        let base = loop {
            // Marsaglia-Tsang: v = (1 + c z)^3, accept with squeeze then log test.
            let (x, v) = loop {
                let x = normal.standard(rng);
                let t = 1.0 + self.c * x;
                if t > 0.0 {
                    break (x, t * t * t);
                }
            };
            let u: f64 = rng.gen();
            if u < 1.0 - 0.0331 * x.powi(4) {
                break self.d * v;
            }
            if u.ln() < 0.5 * x * x + self.d * (1.0 - v + v.ln()) {
                break self.d * v;
            }
        };
        let boosted = if self.shape >= 1.0 {
            base
        } else {
            // Gamma(a) = Gamma(a+1) * U^{1/a}
            let u: f64 = loop {
                let u = rng.gen::<f64>();
                if u > 0.0 {
                    break u;
                }
            };
            base * u.powf(1.0 / self.shape)
        };
        boosted * self.scale
    }
}

/// Negative-binomial sampler via the gamma–Poisson mixture:
/// `NB(r, p) = Poisson(Gamma(r, (1−p)/p))`, counting failures before the
/// r-th success. Mean `r(1−p)/p`, variance `r(1−p)/p²`.
#[derive(Debug, Clone)]
pub struct NegativeBinomial {
    r: f64,
    p: f64,
    gamma: Gamma,
}

impl NegativeBinomial {
    /// Creates a sampler for `NB(r, p)` with `r > 0` successes parameter and
    /// success probability `p ∈ (0, 1)`.
    ///
    /// # Panics
    /// Panics on out-of-range parameters.
    pub fn new(r: f64, p: f64) -> Self {
        assert!(r > 0.0 && r.is_finite(), "invalid r {r}");
        assert!(p > 0.0 && p < 1.0, "invalid p {p}");
        Self {
            r,
            p,
            gamma: Gamma::new(r, (1.0 - p) / p),
        }
    }

    /// Creates the NB(r, p) matching a target mean and variance
    /// (requires `variance > mean`).
    ///
    /// # Panics
    /// Panics if `variance <= mean` (NB is over-dispersed by construction).
    pub fn from_mean_variance(mean: f64, variance: f64) -> Self {
        assert!(
            variance > mean && mean > 0.0,
            "negative binomial needs variance {variance} > mean {mean} > 0"
        );
        let p = mean / variance;
        let r = mean * p / (1.0 - p);
        Self::new(r, p)
    }

    /// Distribution mean `r(1−p)/p`.
    pub fn mean(&self) -> f64 {
        self.r * (1.0 - self.p) / self.p
    }

    /// Distribution variance `r(1−p)/p²`.
    pub fn variance(&self) -> f64 {
        self.r * (1.0 - self.p) / (self.p * self.p)
    }

    /// Draws one variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let lambda = self.gamma.sample(rng);
        Poisson::new(lambda.min(1e9)).sample(rng)
    }
}

/// Walker–Vose alias table: O(1) sampling from an arbitrary finite discrete
/// distribution after O(n) setup.
///
/// Used for the lag selector `A_n ∈ {1..p}` of a DAR(p) process, and generally
/// wherever a categorical draw sits in a hot loop.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table from (unnormalized, non-negative) weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// weight, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0 && w.is_finite(), "invalid weight {w}");
                w
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");

        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Remaining entries are 1 up to floating-point residue.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no categories (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one category index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

/// Mean of the truncated-above-capacity overshoot `E[(X − c)⁺]` for
/// `X ~ N(mean, sd²)` — the fluid zero-buffer loss numerator. Exposed here
/// because both the analysis and the simulation tests anchor against it.
pub fn gaussian_overshoot_mean(mean: f64, sd: f64, c: f64) -> f64 {
    if sd == 0.0 {
        return (mean - c).max(0.0);
    }
    let z = (c - mean) / sd;
    sd * normal_pdf(z) - (c - mean) * normal_sf(z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256PlusPlus;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::from_seed_u64(seed)
    }

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn normal_moments() {
        let mut d = Normal::new(500.0, 70.710_678);
        let mut r = rng(1);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut r)).collect();
        let (m, v) = moments(&xs);
        assert!((m - 500.0).abs() < 0.7, "mean {m}");
        assert!((v - 5000.0).abs() < 100.0, "var {v}");
    }

    #[test]
    fn normal_tail_fraction() {
        let mut d = Normal::new(0.0, 1.0);
        let mut r = rng(2);
        let n = 400_000;
        let beyond = (0..n).filter(|_| d.sample(&mut r) > 1.96).count();
        let frac = beyond as f64 / n as f64;
        assert!((frac - 0.025).abs() < 0.002, "P(Z>1.96) estimate {frac}");
    }

    #[test]
    fn ziggurat_layers_all_have_area_v() {
        let t = ziggurat_tables();
        assert!(t.x.windows(2).all(|w| w[0] > w[1]), "edges must decrease");
        // The top layer is closed by x[256] = 0, not by the recursion, and
        // the base layer by the tail; both must still have area V, up to
        // the 12 digits V is given to (the top layer is off by ~1e-9).
        let top = t.x[ZIG_LAYERS - 1] * (1.0 - t.f[ZIG_LAYERS - 1]);
        assert!((top / ZIG_V - 1.0).abs() < 1e-8, "top layer area {top:e}");
        let tail = (2.0 * std::f64::consts::PI).sqrt() * normal_sf(ZIG_R);
        let base = ZIG_R * t.f[1] + tail;
        assert!(
            (base / ZIG_V - 1.0).abs() < 1e-6,
            "base layer area {base:e}"
        );
    }

    #[test]
    fn ziggurat_passes_ks_moments_symmetry_and_tail() {
        let n = 1usize << 21;
        let nf = n as f64;
        let mut r = rng(0x2165);
        let xs: Vec<f64> = (0..n).map(|_| ziggurat_standard_normal(&mut r)).collect();
        // 1% critical value of the Kolmogorov distribution.
        let ks = crate::ks::ks_test(&xs, crate::special::normal_cdf);
        let critical = 1.628 / nf.sqrt();
        assert!(
            ks.statistic < critical,
            "KS D {:e} ≥ {critical:e}",
            ks.statistic
        );
        // Mean and variance within 5 SE (Var z = 1, Var z² = 2).
        let (mean, var) = moments(&xs);
        assert!(mean.abs() < 5.0 / nf.sqrt(), "mean {mean}");
        assert!((var - 1.0).abs() < 5.0 * (2.0 / nf).sqrt(), "var {var}");
        // Symmetry: the sign is a fair coin, and E z³ = 0 (Var z³ = 15).
        let positive = xs.iter().filter(|&&z| z > 0.0).count() as f64;
        assert!(
            (positive - nf / 2.0).abs() < 5.0 * nf.sqrt() / 2.0,
            "{positive} positive"
        );
        let skew = xs.iter().map(|z| z.powi(3)).sum::<f64>() / nf;
        assert!(skew.abs() < 5.0 * (15.0 / nf).sqrt(), "third moment {skew}");
        // Tail mass beyond R, where the exponential tail method takes over.
        let p = 2.0 * normal_sf(ZIG_R);
        let beyond = xs.iter().filter(|z| z.abs() > ZIG_R).count() as f64;
        assert!(beyond >= 1.0, "the tail path never ran");
        let sd = (nf * p * (1.0 - p)).sqrt();
        assert!(
            (beyond - nf * p).abs() < 5.0 * sd,
            "{beyond} beyond R vs {}",
            nf * p
        );
    }

    #[test]
    fn ziggurat_same_seed_same_sequence() {
        let (mut a, mut b) = (rng(77), rng(77));
        for i in 0..10_000 {
            let (x, y) = (
                ziggurat_standard_normal(&mut a),
                ziggurat_standard_normal(&mut b),
            );
            assert_eq!(x.to_bits(), y.to_bits(), "draw {i}");
        }
        use rand::RngCore;
        assert_eq!(a.next_u64(), b.next_u64(), "RNG positions diverged");
    }

    #[test]
    #[should_panic]
    fn normal_rejects_negative_sd() {
        Normal::new(0.0, -1.0);
    }

    #[test]
    fn poisson_small_mean_matches_pmf() {
        let d = Poisson::new(3.0);
        let mut r = rng(3);
        let n = 200_000;
        let mut counts = [0usize; 12];
        for _ in 0..n {
            let k = d.sample(&mut r) as usize;
            if k < counts.len() {
                counts[k] += 1;
            }
        }
        // P(X=3) for mean 3 = 0.2240
        let p3 = counts[3] as f64 / n as f64;
        assert!((p3 - 0.224_0).abs() < 0.005, "P(X=3) {p3}");
        let p0 = counts[0] as f64 / n as f64;
        assert!((p0 - (-3.0_f64).exp()).abs() < 0.003, "P(X=0) {p0}");
    }

    #[test]
    fn poisson_zero_mean() {
        let d = Poisson::new(0.0);
        let mut r = rng(4);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 0);
        }
    }

    #[test]
    fn poisson_large_mean_moments() {
        // PTRD branch: mean and variance must both equal the Poisson mean.
        for &mean in &[15.0, 250.0, 5_000.0] {
            let d = Poisson::new(mean);
            let mut r = rng(5);
            let xs: Vec<f64> = (0..120_000).map(|_| d.sample(&mut r) as f64).collect();
            let (m, v) = moments(&xs);
            let tol = 5.0 * (mean / 120_000.0_f64).sqrt().max(0.02 * mean / 100.0);
            assert!((m - mean).abs() < tol.max(0.5), "mean {m} vs {mean}");
            assert!(
                (v - mean).abs() < 0.05 * mean,
                "var {v} vs {mean} (PTRD branch)"
            );
        }
    }

    #[test]
    fn poisson_large_mean_skewness() {
        // Poisson skewness is 1/sqrt(mean); PTRD must reproduce the asymmetry.
        let mean = 100.0;
        let d = Poisson::new(mean);
        let mut r = rng(6);
        let n = 300_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r) as f64).collect();
        let (m, v) = moments(&xs);
        let sd = v.sqrt();
        let skew = xs.iter().map(|x| ((x - m) / sd).powi(3)).sum::<f64>() / n as f64;
        assert!((skew - 0.1).abs() < 0.02, "skewness {skew} vs 0.1");
    }

    #[test]
    fn poisson_boundary_mean_10() {
        // Methods must agree across the switch point.
        for &mean in &[9.99, 10.0, 10.01] {
            let d = Poisson::new(mean);
            let mut r = rng(7);
            let m: f64 =
                (0..100_000).map(|_| d.sample(&mut r) as f64).sum::<f64>() / 100_000.0;
            assert!((m - mean).abs() < 0.1, "mean {m} at switch {mean}");
        }
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(0.25);
        let mut r = rng(8);
        let m: f64 = (0..200_000).map(|_| d.sample(&mut r)).sum::<f64>() / 200_000.0;
        assert!((m - 4.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn alias_table_frequencies() {
        let weights = [0.1, 0.2, 0.3, 0.4];
        let t = AliasTable::new(&weights);
        let mut r = rng(9);
        let n = 400_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[t.sample(&mut r)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let f = counts[i] as f64 / n as f64;
            assert!((f - w).abs() < 0.005, "cat {i}: {f} vs {w}");
        }
    }

    #[test]
    fn alias_table_single_category() {
        let t = AliasTable::new(&[5.0]);
        let mut r = rng(10);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut r), 0);
        }
    }

    #[test]
    fn alias_table_with_zero_weight() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0]);
        let mut r = rng(11);
        for _ in 0..1000 {
            assert_eq!(t.sample(&mut r), 1);
        }
    }

    #[test]
    #[should_panic]
    fn alias_table_rejects_all_zero() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    fn gamma_moments() {
        for &(shape, scale) in &[(0.5, 2.0), (2.5, 1.5), (20.0, 0.3)] {
            let d = Gamma::new(shape, scale);
            let mut r = rng(12);
            let xs: Vec<f64> = (0..150_000).map(|_| d.sample(&mut r)).collect();
            let (m, v) = moments(&xs);
            let em = shape * scale;
            let ev = shape * scale * scale;
            assert!((m - em).abs() < 0.03 * em.max(1.0), "mean {m} vs {em}");
            assert!((v - ev).abs() < 0.08 * ev.max(1.0), "var {v} vs {ev}");
        }
    }

    #[test]
    fn gamma_always_positive() {
        let d = Gamma::new(0.3, 1.0);
        let mut r = rng(13);
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 0.0);
        }
    }

    #[test]
    fn negative_binomial_moments() {
        let d = NegativeBinomial::from_mean_variance(500.0, 5000.0);
        assert!((d.mean() - 500.0).abs() < 1e-9);
        assert!((d.variance() - 5000.0).abs() < 1e-9);
        let mut r = rng(14);
        let xs: Vec<f64> = (0..150_000).map(|_| d.sample(&mut r) as f64).collect();
        let (m, v) = moments(&xs);
        assert!((m - 500.0).abs() < 2.0, "mean {m}");
        assert!((v - 5000.0).abs() < 200.0, "var {v}");
    }

    #[test]
    #[should_panic]
    fn negative_binomial_rejects_underdispersion() {
        NegativeBinomial::from_mean_variance(500.0, 400.0);
    }

    #[test]
    fn overshoot_mean_matches_paper_anchor() {
        // N = 30 aggregated sources: N(15000, 30*5000), capacity 30*538.
        // The paper reports the zero-buffer CLR "slightly larger than 1e-5".
        let mean = 30.0 * 500.0;
        let sd = (30.0 * 5000.0_f64).sqrt();
        let c = 30.0 * 538.0;
        let clr0 = gaussian_overshoot_mean(mean, sd, c) / mean;
        assert!(
            clr0 > 1.0e-5 && clr0 < 1.5e-5,
            "zero-buffer CLR anchor {clr0:e}"
        );
    }

    #[test]
    fn overshoot_degenerate_sd() {
        assert_eq!(gaussian_overshoot_mean(5.0, 0.0, 3.0), 2.0);
        assert_eq!(gaussian_overshoot_mean(2.0, 0.0, 3.0), 0.0);
    }
}
