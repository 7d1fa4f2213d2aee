//! Sample autocorrelation estimation.
//!
//! Two implementations with identical estimands: a direct O(n·K) sum and a
//! blocked FFT estimator that costs O(n log K) for K lags. Both use the
//! standard biased (1/n) normalization, which guarantees the estimated
//! sequence is positive semi-definite — a property the Levinson–Durbin
//! fitting step depends on.
//!
//! The blocked estimator splits the centred series into blocks of
//! L ≥ K + 1 samples. A lag k ≤ K pairs a sample of block b only with
//! samples of blocks b and b + 1, so every block needs one 2L-point
//! transform and the autocovariance prefix is one inverse transform of the
//! summed cross-spectra. A trace of 2²⁰ frames read out to lag 1000 thus
//! runs 2¹¹-point transforms that stay in cache, instead of one 2²¹-point
//! transform of the whole zero-padded series.

use crate::fft::{next_pow2, plan, Complex};

/// Smallest block the blocked estimator uses (when the series is at least
/// this long). Much shorter blocks would make the per-block split and
/// accumulate passes, not the transforms, the main cost.
const BLOCK_FLOOR: usize = 1024;

/// Direct sample autocorrelation at lags `0..=max_lag`.
///
/// `r̂(k) = Σ_{t} (x_t − x̄)(x_{t+k} − x̄) / Σ_t (x_t − x̄)²`.
///
/// # Panics
/// Panics if the series is shorter than 2 points, has zero variance, or
/// `max_lag >= n`.
pub fn sample_acf(series: &[f64], max_lag: usize) -> Vec<f64> {
    let n = series.len();
    assert!(n >= 2, "ACF needs at least 2 observations");
    assert!(max_lag < n, "max_lag {max_lag} must be < n {n}");
    let mean = series.iter().sum::<f64>() / n as f64;
    let c0: f64 = series.iter().map(|&x| (x - mean).powi(2)).sum();
    assert!(c0 > 0.0, "ACF of a constant series is undefined");

    let mut out = Vec::with_capacity(max_lag + 1);
    for k in 0..=max_lag {
        let ck: f64 = (0..n - k)
            .map(|t| (series[t] - mean) * (series[t + k] - mean))
            .sum();
        out.push(ck / c0);
    }
    out
}

/// FFT-based sample autocorrelation at lags `0..=max_lag`, blocked so that
/// it computes only the lags asked for.
///
/// The centred series is cut into blocks `z_b` of
/// `L = next_pow2(max(max_lag + 1, min(1024, n)))` samples (the last one
/// ragged). With `Z_b` the 2L-point transform of `z_b` zero-padded, the
/// series that block b's lags reach is `z_b` followed by `z_{b+1}`, whose
/// transform is `Z_b(f) + (−1)^f·Z_{b+1}(f)` (a shift by L is a sign flip at
/// size 2L). So `Σ_b conj(Z_b)·(Z_b + (−1)^f·Z_{b+1})` is the transform of
/// the autocovariance, and no lag `≤ max_lag` wraps around. Two real blocks
/// share one complex transform (`z_b + i·z_{b+1}`) and are split again by
/// Hermitian symmetry. When `max_lag` is close to `n` there is one block,
/// and this is the zero-padded Wiener–Khinchin estimator of the whole
/// series.
///
/// Cost: O(n log L) time and O(L) memory besides the output, and only
/// 2L-point plans enter the [`plan`] cache. Numerically agrees with
/// [`sample_acf`] to ~1e-10.
///
/// # Panics
/// Panics if the series is shorter than 2 points, has zero variance, or
/// `max_lag >= n`.
pub fn sample_acf_fft(series: &[f64], max_lag: usize) -> Vec<f64> {
    let n = series.len();
    assert!(n >= 2, "ACF needs at least 2 observations");
    assert!(max_lag < n, "max_lag {max_lag} must be < n {n}");
    let mean = series.iter().sum::<f64>() / n as f64;

    let l = next_pow2((max_lag + 1).max(BLOCK_FLOOR.min(n)));
    let m = 2 * l;
    let plan = plan(m);
    let mut buf = vec![Complex::ZERO; m];
    // Cross-spectrum sum at f = 0..=l (the rest follows by symmetry), and
    // the spectrum of the last block seen, whose successor is still to come.
    let mut acc = vec![Complex::ZERO; l + 1];
    let mut prev = vec![Complex::ZERO; l + 1];
    for pair in series.chunks(m) {
        let (a, b) = pair.split_at(pair.len().min(l));
        buf.fill(Complex::ZERO);
        for (z, &x) in buf.iter_mut().zip(a) {
            z.re = x - mean;
        }
        for (z, &x) in buf.iter_mut().zip(b) {
            z.im = x - mean;
        }
        plan.forward(&mut buf);
        for f in 0..=l {
            // Split the packed transform: 2·Z_a = U(f) + conj(U(−f)) and
            // 2·Z_b = −i·(U(f) − conj(U(−f))). The factor 2 is left in:
            // every product carries 4, which cancels against c₀.
            let u = buf[f];
            let v = buf[(m - f) % m].conj();
            let za = u + v;
            let d = u - v;
            let zb = Complex::new(d.im, -d.re);
            // Blocks `prev → a` and `a → b` are each followed by their
            // successor, shifted by L.
            let sign = if f % 2 == 0 { 1.0 } else { -1.0 };
            let cross = prev[f].conj() * za + za.conj() * zb;
            acc[f].re += prev[f].norm_sqr() + za.norm_sqr() + sign * cross.re;
            acc[f].im += sign * cross.im;
            prev[f] = zb;
        }
    }
    // The last block has no successor.
    for (s, p) in acc.iter_mut().zip(&prev) {
        s.re += p.norm_sqr();
    }

    buf[..=l].copy_from_slice(&acc);
    for f in 1..l {
        buf[m - f] = acc[f].conj();
    }
    plan.inverse_unscaled(&mut buf);
    let c0 = buf[0].re;
    assert!(c0 > 0.0, "ACF of a constant series is undefined");
    (0..=max_lag).map(|k| buf[k].re / c0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Normal;
    use crate::rng::Xoshiro256PlusPlus;
    use proptest::prelude::*;

    #[test]
    fn acf_lag_zero_is_one() {
        let xs = [1.0, 3.0, 2.0, 5.0, 4.0];
        let r = sample_acf(&xs, 2);
        assert!((r[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn acf_recovers_ar1_decay() {
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(32);
        let mut nrm = Normal::new(0.0, 1.0);
        let phi = 0.7;
        let mut x = 0.0;
        let series: Vec<f64> = (0..200_000)
            .map(|_| {
                x = phi * x + nrm.sample(&mut rng);
                x
            })
            .collect();
        let r = sample_acf_fft(&series, 5);
        for (k, &rk) in r.iter().enumerate().take(6).skip(1) {
            let expect = phi.powi(k as i32);
            assert!((rk - expect).abs() < 0.02, "lag {k}: {rk} vs {expect}");
        }
    }

    #[test]
    fn acf_white_noise_near_zero() {
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(33);
        let mut nrm = Normal::new(5.0, 2.0);
        let series: Vec<f64> = (0..100_000).map(|_| nrm.sample(&mut rng)).collect();
        let r = sample_acf_fft(&series, 10);
        for (k, &rk) in r.iter().enumerate().take(11).skip(1) {
            assert!(rk.abs() < 0.02, "lag {k}: {rk}");
        }
    }

    #[test]
    fn acf_alternating_series() {
        let series: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let r = sample_acf(&series, 2);
        assert!(r[1] < -0.9, "lag-1 of alternating series {}", r[1]);
        assert!(r[2] > 0.9, "lag-2 of alternating series {}", r[2]);
    }

    /// AR(1) path with coefficient `phi`, shifted by `offset`.
    fn ar1(n: usize, phi: f64, offset: f64, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(seed);
        let mut nrm = Normal::new(0.0, 1.0);
        let mut x = 0.0;
        (0..n)
            .map(|_| {
                x = phi * x + nrm.sample(&mut rng);
                offset + x
            })
            .collect()
    }

    fn assert_matches_direct(series: &[f64], max_lag: usize) {
        let direct = sample_acf(series, max_lag);
        let blocked = sample_acf_fft(series, max_lag);
        assert_eq!(blocked.len(), max_lag + 1);
        for (k, (u, v)) in direct.iter().zip(&blocked).enumerate() {
            assert!(
                (u - v).abs() < 1e-10,
                "n {} max_lag {max_lag} lag {k}: direct {u} vs blocked {v}",
                series.len()
            );
        }
    }

    /// The blocked estimator against the direct sum on every block layout
    /// it can take: one block (`max_lag = n − 1`, and a series shorter than
    /// the floor), an even and an odd block count with a ragged tail (the
    /// last packed pair then holds one block), a one-sample tail, blocks
    /// above the floor, and a series offset by 1e6 (centring).
    #[test]
    fn acf_direct_matches_fft() {
        for &(n, max_lag, offset) in &[
            (2, 0, 0.0),
            (2, 1, 0.0),
            (700, 699, 0.0),
            (1024, 1023, 0.0),
            (1025, 3, 0.0),
            (2 * 1024 + 517, 40, 0.0),
            (3000, 50, 0.0),
            (4097, 1000, 0.0),
            (4500, 1100, 1e6),
            (5000, 1500, 0.0),
            (5000, 2500, 0.0),
            (5000, 4999, 0.0),
        ] {
            assert_matches_direct(&ar1(n, 0.8, offset, n as u64), max_lag);
        }
    }

    /// Reading a long series out to lag 1000 in blocks gives the prefix of
    /// the one-block estimate (the zero-padded transform of the whole
    /// series), to within rounding.
    #[test]
    fn blocked_acf_matches_whole_series_transform() {
        let series = ar1(1 << 16, 0.95, 300.0, 11);
        let whole = sample_acf_fft(&series, series.len() - 1);
        let blocked = sample_acf_fft(&series, 1000);
        for (k, (r, w)) in blocked.iter().zip(&whole).enumerate() {
            assert!((r - w).abs() < 1e-12, "lag {k}: {r} vs {w}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The blocked estimator agrees with the direct sum at any length
        /// up to 5000 and any lag horizon up to `n − 1`, with and without a
        /// large offset.
        #[test]
        fn blocked_acf_matches_direct_sum(
            n in 2usize..=5000,
            lag_frac in 0.0f64..1.0,
            full_horizon in 0u8..4,
            phi in -0.9f64..0.99,
            offset_case in 0u8..3,
            seed: u64,
        ) {
            let max_lag = if full_horizon == 0 {
                n - 1
            } else {
                ((n as f64 * lag_frac) as usize).min(n - 1)
            };
            let offset = if offset_case == 0 { 1e6 } else { 0.0 };
            assert_matches_direct(&ar1(n, phi, offset, seed), max_lag);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 observations")]
    fn acf_fft_rejects_single_point() {
        sample_acf_fft(&[1.0], 0);
    }

    #[test]
    #[should_panic(expected = "must be < n")]
    fn acf_fft_rejects_excessive_lag() {
        sample_acf_fft(&[1.0, 2.0, 3.0], 3);
    }

    #[test]
    #[should_panic(expected = "constant series")]
    fn acf_fft_rejects_constant() {
        sample_acf_fft(&[2.0, 2.0, 2.0], 1);
    }

    #[test]
    #[should_panic]
    fn acf_rejects_constant() {
        sample_acf(&[2.0, 2.0, 2.0], 1);
    }

    #[test]
    #[should_panic]
    fn acf_rejects_excessive_lag() {
        sample_acf(&[1.0, 2.0, 3.0], 3);
    }
}
