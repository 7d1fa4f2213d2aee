//! Exact fractional Gaussian noise (FGN) by Davies–Harte circulant
//! embedding.
//!
//! FGN is the canonical *exact* LRD process (paper §2): its ACF is
//! `r(k) = ½∇²(k^{2H})` with `g(T_s) = 1`. We also support the generalized
//! exact-LRD ACF `r(k) = g·½∇²(k^{2H})` with `g ∈ (0, 1]`, which is the
//! frame-count ACF family of the FBNDP/FSPP models — realized as the sum of
//! an FGN (weight g) and white noise (weight 1−g), which keeps the circulant
//! spectrum non-negative.
//!
//! Davies–Harte is *exact*: within one generated block the sample has
//! precisely the target Gaussian law and ACF. The [`FgnProcess`] wrapper
//! serves frames from a large pre-generated block and regenerates an
//! independent block when exhausted; correlation across block boundaries is
//! deliberately broken, so choose the block length ≥ the horizon over which
//! second-order behaviour matters (the paper's experiments need ≤ 10⁴ lags;
//! the default block is 2¹⁸ frames).
//!
//! Performance: the circulant spectrum depends only on `(H, g, block_len)`,
//! so it is computed once per parameter set and shared behind an `Arc` —
//! N sources × R replications of the same model reuse one setup FFT and one
//! spectrum allocation. Block generation itself goes through
//! [`CirculantGenerator::generate_into`], which reuses a caller-owned
//! [`CirculantScratch`] (frequency buffer + Gaussian sampler) and a planned
//! FFT, so the steady state allocates nothing per block.

use crate::traits::FrameProcess;
use rand::RngCore;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use vbr_stats::dist::Normal;
use vbr_stats::fft::{plan, Complex, FftPlan};

/// Autocovariance of generalized exact-LRD noise at lag `k` for unit
/// variance: `γ(0) = 1`, `γ(k) = g·½∇²(k^{2H})`.
fn exact_lrd_autocov(g: f64, two_h: f64, k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    let kf = k as f64;
    g * 0.5 * ((kf + 1.0).powf(two_h) - 2.0 * kf.powf(two_h) + (kf - 1.0).powf(two_h))
}

/// Process-wide cache of circulant spectra, keyed by
/// `(family, param_a_bits, param_b_bits, block_len)`. Family 0 is FGN
/// `(H, g)`, family 1 is F-ARIMA `(d, 0)`; see [`cached_circulant`].
type SpectrumKey = (u8, u64, u64, usize);

fn spectrum_cache() -> &'static Mutex<HashMap<SpectrumKey, Arc<Vec<f64>>>> {
    static CACHE: OnceLock<Mutex<HashMap<SpectrumKey, Arc<Vec<f64>>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Spectrum-cache family tag for FGN `(H, g, block_len)` keys.
pub(crate) const FAMILY_FGN: u8 = 0;
/// Spectrum-cache family tag for F-ARIMA `(d, block_len)` keys.
pub(crate) const FAMILY_FARIMA: u8 = 1;

/// Returns a [`CirculantGenerator`] for `key`, building the spectrum with
/// `build` only on a cache miss. Constructors funnel through here so that
/// `boxed_clone`-per-source-per-replication stops redoing the O(n log n)
/// embedding FFT; clones of the returned generator share the spectrum `Arc`.
pub(crate) fn cached_circulant<F>(key: SpectrumKey, build: F) -> CirculantGenerator
where
    F: FnOnce() -> CirculantGenerator,
{
    {
        let cache = spectrum_cache().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(spec) = cache.get(&key) {
            return CirculantGenerator::from_spectrum(Arc::clone(spec));
        }
    }
    // Build outside the lock: embeddings of 2^18-point blocks take a
    // while and other parameter sets shouldn't wait on them.
    let generator = build();
    let mut cache = spectrum_cache().lock().unwrap_or_else(|e| e.into_inner());
    if cache.len() >= 64 {
        // Parameter sweeps are small in practice; a full clear on overflow
        // keeps the policy trivial while bounding memory.
        cache.clear();
    }
    cache.insert(key, Arc::clone(&generator.spectrum_sqrt));
    generator
}

/// Reusable workspace for [`CirculantGenerator::generate_into`]: the
/// n-point packed frequency buffer, the 2n raw normal draws, and the
/// Gaussian sampler.
///
/// Holding the sampler here (rather than constructing a fresh `Normal` per
/// block) preserves the polar method's spare deviate across calls. Each
/// block draws exactly `2n` standard normals — an even count — so the spare
/// cache is always empty at block boundaries and the draw sequence is
/// bit-identical to the historical fresh-sampler-per-block behaviour.
#[derive(Debug, Clone)]
pub struct CirculantScratch {
    freq: Vec<Complex>,
    norms: Vec<f64>,
    sampler: Normal,
}

impl CirculantScratch {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            freq: Vec::new(),
            norms: Vec::new(),
            sampler: Normal::new(0.0, 1.0),
        }
    }

    /// Resets the workspace to its just-constructed state.
    pub fn reset(&mut self) {
        self.freq.clear();
        self.norms.clear();
        self.sampler = Normal::new(0.0, 1.0);
    }
}

impl Default for CirculantScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Generic circulant-embedding block generator: exact stationary Gaussian
/// samples for **any** positive-semi-definite autocovariance prefix.
///
/// Shared by [`FgnGenerator`] and the F-ARIMA model
/// ([`crate::farima::FarimaProcess`]); construction fails loudly if the
/// supplied sequence does not embed (a genuinely negative circulant
/// eigenvalue), which for practical LRD families does not happen.
///
/// The spectrum and the FFT plan live behind `Arc`s, so clones are cheap
/// and share all precomputed state.
#[derive(Debug, Clone)]
pub struct CirculantGenerator {
    block_len: usize,
    /// √(λ_k / (2n)) for each circulant eigenvalue; precomputed once and
    /// shared across clones (and across generators via the spectrum cache).
    spectrum_sqrt: Arc<Vec<f64>>,
    /// Planned 2n-point FFT. Generation only reads its twiddle table (the
    /// `e^{-iπk/n}` rotation factors of the half-size packing); the full
    /// transform itself is used by [`from_autocovariance`]
    /// (Self::from_autocovariance) for the embedding.
    plan: Arc<FftPlan>,
    /// Planned n-point FFT: the half-size transform synthesis runs through.
    plan_half: Arc<FftPlan>,
}

impl CirculantGenerator {
    /// Builds the generator from an autocovariance prefix
    /// `γ(0..=block_len)` (length `block_len + 1`), `block_len` a power of
    /// two ≥ 4.
    ///
    /// # Panics
    /// Panics on a bad length or a circulant eigenvalue below −1e−8·γ(0).
    pub fn from_autocovariance(autocov: &[f64]) -> Self {
        let n = autocov.len().saturating_sub(1);
        assert!(
            n >= 4 && n.is_power_of_two(),
            "need a power-of-two block (autocov of len n+1), got n = {n}"
        );
        let scale = autocov[0].abs().max(1e-300);

        // First row of the 2n x 2n circulant embedding.
        let mut row = vec![Complex::ZERO; 2 * n];
        for (k, &g) in autocov.iter().enumerate() {
            row[k] = Complex::new(g, 0.0);
        }
        for k in 1..n {
            row[2 * n - k] = row[k];
        }
        let plan_full = plan(2 * n);
        plan_full.forward(&mut row);

        let spectrum_sqrt: Vec<f64> = row
            .iter()
            .enumerate()
            .map(|(i, z)| {
                let lam = z.re;
                assert!(
                    lam > -1e-8 * scale,
                    "circulant eigenvalue {i} is negative: {lam} (embedding failed)"
                );
                (lam.max(0.0) / (2.0 * n as f64)).sqrt()
            })
            .collect();

        Self {
            block_len: n,
            spectrum_sqrt: Arc::new(spectrum_sqrt),
            plan: plan_full,
            plan_half: plan(n),
        }
    }

    /// Builds a generator around an already-computed spectrum (length `2n`);
    /// used by the spectrum cache to share setup work across instances.
    pub(crate) fn from_spectrum(spectrum_sqrt: Arc<Vec<f64>>) -> Self {
        let two_n = spectrum_sqrt.len();
        assert!(
            two_n >= 8 && two_n.is_power_of_two(),
            "spectrum length {two_n} must be a power of two ≥ 8"
        );
        Self {
            block_len: two_n / 2,
            plan: plan(two_n),
            plan_half: plan(two_n / 2),
            spectrum_sqrt,
        }
    }

    /// Block length n.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Generates one exact block of `block_len` samples with the embedded
    /// autocovariance (mean zero).
    ///
    /// Allocating convenience wrapper over [`Self::generate_into`];
    /// draw-for-draw identical.
    pub fn generate(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        let mut out = vec![0.0; self.block_len];
        let mut scratch = CirculantScratch::new();
        self.generate_into(rng, &mut scratch, &mut out);
        out
    }

    /// Generates one exact block of `block_len` samples into `out`, reusing
    /// `scratch` for the work buffers and the Gaussian sampler. Consumes
    /// exactly `2·block_len` standard-normal draws, in the same order as
    /// every prior implementation of this generator.
    ///
    /// Internally this runs a **half-size packed synthesis** instead of the
    /// literal 2n-point transform: the Hermitian spectrum `A[0..2n]` (which
    /// the Davies–Harte construction builds so that the time-domain block is
    /// real) determines a single n-point complex sequence
    ///
    /// ```text
    /// C[k] = (conj(A[k]) + A[n-k]) + i·e^{iπk/n}·(conj(A[k]) - A[n-k])
    /// ```
    ///
    /// whose unscaled conjugate transform `c = Σ_k C[k] e^{+2πijk/n}`
    /// interleaves the real output as `x[2j] = Re c[j]`, `x[2j+1] = Im c[j]`
    /// — the classic real-FFT packing run in reverse. Same answer to within
    /// a few ulps, half the transform size, half the frequency buffer.
    ///
    /// # Panics
    /// Panics if `out.len() != block_len`.
    pub fn generate_into(
        &self,
        rng: &mut dyn RngCore,
        scratch: &mut CirculantScratch,
        out: &mut [f64],
    ) {
        let n = self.block_len;
        assert_eq!(out.len(), n, "output slice must hold exactly one block");
        let spec = &self.spectrum_sqrt[..];
        // No re-zeroing: every element of both buffers is assigned below
        // before it is read.
        if scratch.freq.len() != n {
            scratch.freq.clear();
            scratch.freq.resize(n, Complex::ZERO);
        }
        if scratch.norms.len() != 2 * n {
            scratch.norms.clear();
            scratch.norms.resize(2 * n, 0.0);
        }
        let nrm = &mut scratch.sampler;

        // Draw pass. The order is load-bearing: g[0] seeds A[0], g[1] seeds
        // A[n], g[2k], g[2k+1] seed Re/Im of A[k] — exactly the sequence the
        // historical mirror-filling loop consumed, so sample paths are
        // reproducible across generator versions. The packing below needs
        // A[n-k] (late draws) while emitting C[k] (early draws), hence the
        // buffer rather than fused draw-and-pack.
        let g = &mut scratch.norms[..];
        nrm.fill_standard(g, rng);
        // 2n standard draws — even, so the polar sampler's spare cache is
        // empty again and the next block starts draw-aligned.
        debug_assert!(!nrm.has_spare());

        // Pack C[k] for k and n-k together: with S = conj(A[k]) + A[n-k]
        // and D = i·e^{iπk/n}·(conj(A[k]) - A[n-k]), conjugate symmetry of
        // the rotation gives C[k] = S + D and C[n-k] = conj(S - D) — one
        // twiddle load and one rotation serve both outputs.
        let g: &[f64] = g;
        let c = &mut scratch.freq[..n];
        let tw = self.plan.twiddles();
        let sqrt2 = std::f64::consts::SQRT_2;
        let a0 = spec[0] * g[0] * sqrt2;
        let an = spec[n] * g[1] * sqrt2;
        let m = n / 2;
        // Split `c` into the front half (C[0..m]), the midpoint, and the
        // back half (C[m+1..n]) so the k / n-k pair is walked with zipped
        // forward/reverse iterators instead of bounds-checked indexing —
        // this loop runs once per output sample across the whole pipeline.
        let (c_front, c_rest) = c.split_at_mut(m);
        let (c_mid, c_back) = c_rest.split_first_mut().expect("block_len >= 4");
        c_front[0] = Complex::new(a0 + an, a0 - an);
        // Midpoint: the rotation collapses to C[n/2] = 2·A[n/2].
        *c_mid = Complex::new(2.0 * spec[m] * g[2 * m], 2.0 * spec[m] * g[2 * m + 1]);
        let fronts = c_front[1..]
            .iter_mut()
            .zip(&spec[1..m])
            .zip(g[2..2 * m].chunks_exact(2))
            .zip(&tw[1..m]);
        let backs = c_back
            .iter_mut()
            .rev()
            .zip(spec[m + 1..n].iter().rev())
            .zip(g[2 * m + 2..].chunks_exact(2).rev());
        for ((((ck, &sk), ga), &t), ((cnk, &sn), gb)) in fronts.zip(backs) {
            // conj(A[k]) and A[n-k].
            let (ar, ai) = (sk * ga[0], -(sk * ga[1]));
            let (br, bi) = (sn * gb[0], sn * gb[1]);
            let (sr, si) = (ar + br, ai + bi);
            let (dr, di) = (ar - br, ai - bi);
            // tw[k] = e^{-iπk/n} = (cos, -sin); i·e^{+iπk/n} = (-sin, cos)
            // = (tw[k].im, tw[k].re).
            let er = t.im * dr - t.re * di;
            let ei = t.im * di + t.re * dr;
            *ck = Complex::new(sr + er, si + ei);
            *cnk = Complex::new(sr - er, ei - si);
        }

        // c[j] = x[2j] + i·x[2j+1]: the conjugate transform without the 1/n
        // scale (the packing above already absorbed every constant).
        self.plan_half.inverse_unscaled(c);
        // Scale: X_j = (1/√2)·x_j gives exactly the target covariance (the
        // √2 absorbs the double-counting of the conjugate pair; endpoints
        // were pre-scaled by √2 above to compensate).
        let half = std::f64::consts::FRAC_1_SQRT_2;
        for (o, z) in out.chunks_exact_mut(2).zip(c.iter()) {
            o[0] = z.re * half;
            o[1] = z.im * half;
        }
    }
}

/// Block generator for exact (generalized) fractional Gaussian noise.
#[derive(Debug, Clone)]
pub struct FgnGenerator {
    h: f64,
    g: f64,
    inner: CirculantGenerator,
}

impl FgnGenerator {
    /// Creates a generator for unit-variance exact-LRD noise with Hurst
    /// parameter `h ∈ (0.5, 1)`, fractal weight `g ∈ (0, 1]` (1 = pure FGN),
    /// and power-of-two `block_len`.
    ///
    /// The circulant spectrum is fetched from (or inserted into) the
    /// process-wide cache keyed by `(H, g, block_len)`.
    ///
    /// # Panics
    /// Panics on out-of-range parameters or a non-power-of-two block length.
    pub fn new(h: f64, g: f64, block_len: usize) -> Self {
        assert!(h > 0.5 && h < 1.0, "H must be in (0.5, 1), got {h}");
        assert!(g > 0.0 && g <= 1.0, "g must be in (0, 1], got {g}");
        let inner = cached_circulant((FAMILY_FGN, h.to_bits(), g.to_bits(), block_len), || {
            let two_h = 2.0 * h;
            let autocov: Vec<f64> = (0..=block_len)
                .map(|k| exact_lrd_autocov(g, two_h, k))
                .collect();
            CirculantGenerator::from_autocovariance(&autocov)
        });
        Self { h, g, inner }
    }

    /// Hurst parameter.
    pub fn hurst(&self) -> f64 {
        self.h
    }

    /// Fractal weight g.
    pub fn weight(&self) -> f64 {
        self.g
    }

    /// Block length n.
    pub fn block_len(&self) -> usize {
        self.inner.block_len()
    }

    /// Generates one exact block of `block_len` unit-variance FGN samples.
    pub fn generate(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        self.inner.generate(rng)
    }

    /// Scratch-buffer variant of [`generate`](FgnGenerator::generate); see
    /// [`CirculantGenerator::generate_into`].
    pub fn generate_into(
        &self,
        rng: &mut dyn RngCore,
        scratch: &mut CirculantScratch,
        out: &mut [f64],
    ) {
        self.inner.generate_into(rng, scratch, out);
    }
}

/// A frame process serving scaled FGN samples: `frame = mean + sd·FGN`.
#[derive(Debug, Clone)]
pub struct FgnProcess {
    generator: FgnGenerator,
    mean: f64,
    sd: f64,
    buffer: Vec<f64>,
    pos: usize,
    scratch: CirculantScratch,
    label: String,
}

impl FgnProcess {
    /// Creates the process with the given marginal moments, Hurst parameter,
    /// fractal weight, and block length (power of two).
    pub fn new(mean: f64, sd: f64, h: f64, g: f64, block_len: usize) -> Self {
        assert!(sd > 0.0 && sd.is_finite(), "invalid sd {sd}");
        Self {
            generator: FgnGenerator::new(h, g, block_len),
            mean,
            sd,
            buffer: Vec::new(),
            pos: 0,
            scratch: CirculantScratch::new(),
            label: format!("FGN(H={h}, g={g})"),
        }
    }

    /// Regenerates the serving buffer in place (no allocation in steady
    /// state) and rewinds the cursor.
    fn refill(&mut self, rng: &mut dyn RngCore) {
        let _s = vbr_obs::span!("fgn.synthesize");
        self.buffer.resize(self.generator.block_len(), 0.0);
        self.generator
            .generate_into(rng, &mut self.scratch, &mut self.buffer);
        self.pos = 0;
    }
}

impl FrameProcess for FgnProcess {
    fn next_frame(&mut self, rng: &mut dyn RngCore) -> f64 {
        if self.pos >= self.buffer.len() {
            self.refill(rng);
        }
        let z = self.buffer[self.pos];
        self.pos += 1;
        self.mean + self.sd * z
    }

    fn fill_frames(&mut self, out: &mut [f64], rng: &mut dyn RngCore) {
        let mut filled = 0;
        while filled < out.len() {
            if self.pos >= self.buffer.len() {
                self.refill(rng);
            }
            let take = (out.len() - filled).min(self.buffer.len() - self.pos);
            let (mean, sd) = (self.mean, self.sd);
            for (o, &z) in out[filled..filled + take]
                .iter_mut()
                .zip(&self.buffer[self.pos..self.pos + take])
            {
                *o = mean + sd * z;
            }
            self.pos += take;
            filled += take;
        }
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.sd * self.sd
    }

    fn autocorrelations(&self, max_lag: usize) -> Vec<f64> {
        (0..=max_lag)
            .map(|k| exact_lrd_autocov(self.generator.g, 2.0 * self.generator.h, k))
            .collect()
    }

    fn reset(&mut self, _rng: &mut dyn RngCore) {
        self.buffer.clear();
        self.pos = 0;
        self.scratch.reset();
    }

    fn boxed_clone(&self) -> Box<dyn FrameProcess> {
        Box::new(self.clone())
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_stats::rng::Xoshiro256PlusPlus;
    use vbr_stats::{sample_acf_fft, Moments};

    #[test]
    fn block_has_unit_variance_and_zero_mean() {
        let gen = FgnGenerator::new(0.9, 1.0, 4096);
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(131);
        let mut m = Moments::new();
        for _ in 0..30 {
            m.extend(&gen.generate(&mut rng));
        }
        // Block means of H=0.9 FGN have sd ~ n^{H-1} = 4096^{-0.1} per
        // block; 30 blocks bring the ensemble sd to ~0.08.
        assert!(m.mean().abs() < 0.25, "mean {}", m.mean());
        assert!((m.variance() - 1.0).abs() < 0.1, "var {}", m.variance());
    }

    #[test]
    fn block_acf_matches_target() {
        let h = 0.8;
        let gen = FgnGenerator::new(h, 1.0, 16_384);
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(132);
        // Average the sample ACF over several exact blocks.
        let lags = 20;
        let mut acc = vec![0.0; lags + 1];
        let blocks = 12;
        for _ in 0..blocks {
            let x = gen.generate(&mut rng);
            let r = sample_acf_fft(&x, lags);
            for (a, b) in acc.iter_mut().zip(&r) {
                *a += b / blocks as f64;
            }
        }
        for (k, &a) in acc.iter().enumerate().take(lags + 1).skip(1) {
            let target = exact_lrd_autocov(1.0, 2.0 * h, k);
            assert!((a - target).abs() < 0.03, "lag {k}: {a} vs {target}");
        }
    }

    #[test]
    fn weighted_acf_shrinks_by_g() {
        let h = 0.86;
        let g = 0.6;
        let gen = FgnGenerator::new(h, g, 16_384);
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(133);
        let x = gen.generate(&mut rng);
        let r = sample_acf_fft(&x, 5);
        let target1 = exact_lrd_autocov(g, 2.0 * h, 1);
        assert!((r[1] - target1).abs() < 0.05, "lag1 {} vs {target1}", r[1]);
    }

    #[test]
    fn hurst_estimators_recover_design_h() {
        let gen = FgnGenerator::new(0.9, 1.0, 65_536);
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(134);
        let x = gen.generate(&mut rng);
        let h_av = vbr_stats::aggregated_variance_hurst(&x);
        assert!(
            (h_av.h - 0.9).abs() < 0.07,
            "aggregated-variance H {} vs 0.9",
            h_av.h
        );
        let h_pg = vbr_stats::periodogram_hurst(&x);
        assert!((h_pg.h - 0.9).abs() < 0.12, "GPH H {} vs 0.9", h_pg.h);
    }

    #[test]
    fn process_serves_across_blocks() {
        let mut p = FgnProcess::new(500.0, 70.0, 0.85, 1.0, 1024);
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(135);
        let mut m = Moments::new();
        for _ in 0..10_000 {
            m.push(p.next_frame(&mut rng));
        }
        // ~10 blocks of LRD data: sample-mean sd is ~8 cells here.
        assert!((m.mean() - 500.0).abs() < 30.0);
        assert!((m.sd() - 70.0).abs() < 8.0);
    }

    #[test]
    fn generate_into_matches_generate() {
        let gen = FgnGenerator::new(0.85, 1.0, 1024);
        let mut rng_a = Xoshiro256PlusPlus::from_seed_u64(77);
        let mut rng_b = Xoshiro256PlusPlus::from_seed_u64(77);
        let alloc = gen.generate(&mut rng_a);
        let mut scratch = CirculantScratch::new();
        let mut out = vec![0.0; 1024];
        gen.generate_into(&mut rng_b, &mut scratch, &mut out);
        for (a, b) in alloc.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A persistent scratch across blocks must keep the stream aligned
        // with repeated fresh-scratch generation.
        let alloc2 = gen.generate(&mut rng_a);
        gen.generate_into(&mut rng_b, &mut scratch, &mut out);
        for (a, b) in alloc2.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Statistical acceptance of the half-size path itself (not via the
    /// equivalence test above): mean, variance, and lag-1 autocorrelation
    /// of `generate_into` output against the exact FGN autocovariance
    /// `r(1) = (2^{2H} − 2)/2`. A scaling or packing bug that happened to
    /// slip past the transform-equivalence test would surface here.
    #[test]
    fn half_size_path_has_exact_moments_and_lag1() {
        let h = 0.8;
        let n = 2048usize;
        let gen = FgnGenerator::new(h, 1.0, n);
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(0xDA1E5);
        let mut scratch = CirculantScratch::new();
        let mut out = vec![0.0; n];
        let mut m = Moments::new();
        let mut lag1 = 0.0;
        let mut pairs = 0usize;
        let blocks = 120;
        for _ in 0..blocks {
            gen.generate_into(&mut rng, &mut scratch, &mut out);
            m.extend(&out);
            lag1 += out.windows(2).map(|w| w[0] * w[1]).sum::<f64>();
            pairs += n - 1;
        }
        let want_r1 = ((2.0_f64).powf(2.0 * h) - 2.0) / 2.0;
        assert!(m.mean().abs() < 0.03, "half-size mean {}", m.mean());
        assert!(
            (m.variance() - 1.0).abs() < 0.03,
            "half-size variance {}",
            m.variance()
        );
        let r1 = lag1 / pairs as f64;
        assert!(
            (r1 - want_r1).abs() < 0.03,
            "half-size lag-1 {r1} vs exact {want_r1}"
        );
    }

    /// The half-size packed synthesis must agree with the literal 2n-point
    /// Hermitian transform it replaces — same spectrum, same draws.
    #[test]
    fn packed_synthesis_matches_full_transform() {
        let n = 512usize;
        let generator = FgnGenerator::new(0.9, 1.0, n);
        let circ = &generator.inner;
        let spec = &circ.spectrum_sqrt[..];

        let mut rng = Xoshiro256PlusPlus::from_seed_u64(0xACE);
        let mut out = vec![0.0; n];
        let mut scratch = CirculantScratch::new();
        circ.generate_into(&mut rng, &mut scratch, &mut out);

        // Replay the identical draw sequence through the historical path:
        // fill the Hermitian 2n-point spectrum and run the full transform.
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(0xACE);
        let mut nrm = Normal::new(0.0, 1.0);
        let mut a = vec![Complex::ZERO; 2 * n];
        a[0] = Complex::new(spec[0] * nrm.standard(&mut rng) * 2.0_f64.sqrt(), 0.0);
        a[n] = Complex::new(spec[n] * nrm.standard(&mut rng) * 2.0_f64.sqrt(), 0.0);
        for k in 1..n {
            let re = spec[k] * nrm.standard(&mut rng);
            let im = spec[k] * nrm.standard(&mut rng);
            a[k] = Complex::new(re, im);
            a[2 * n - k] = Complex::new(re, -im);
        }
        vbr_stats::fft::fft(&mut a);
        for (j, (&x, z)) in out.iter().zip(a.iter()).enumerate() {
            let reference = z.re * std::f64::consts::FRAC_1_SQRT_2;
            assert!(
                (x - reference).abs() < 1e-10,
                "sample {j}: packed {x} vs full {reference}"
            );
            assert!(z.im.abs() < 1e-9, "full transform output must be real");
        }
    }

    #[test]
    fn spectrum_cache_shares_setup_across_instances() {
        let a = FgnGenerator::new(0.77, 1.0, 2048);
        let b = FgnGenerator::new(0.77, 1.0, 2048);
        assert!(Arc::ptr_eq(
            &a.inner.spectrum_sqrt,
            &b.inner.spectrum_sqrt
        ));
        // Different parameters must not collide.
        let c = FgnGenerator::new(0.78, 1.0, 2048);
        assert!(!Arc::ptr_eq(
            &a.inner.spectrum_sqrt,
            &c.inner.spectrum_sqrt
        ));
    }

    #[test]
    #[should_panic]
    fn rejects_srd_h() {
        FgnGenerator::new(0.5, 1.0, 1024);
    }

    #[test]
    #[should_panic]
    fn rejects_non_pow2_block() {
        FgnGenerator::new(0.8, 1.0, 1000);
    }
}
