//! Robinson's local Whittle estimator of the Hurst parameter.
//!
//! Whittle estimation is what Beran et al. used in the study that sparked
//! the LRD-video debate ("Long-range dependence in VBR video traffic"). The
//! local (semiparametric) form fits only the low-frequency power law
//! `f(ω) ∝ ω^{1−2H}` to the periodogram, so it needs no model of the short
//! lags.

use crate::fft::periodogram;

/// Robinson's **local Whittle** estimator: fits the pure power law
/// `f(ω) ∝ ω^{1−2H}` over only the lowest `m` Fourier frequencies,
/// minimizing `R(H) = log((1/m) Σ I_j ω_j^{2H−1}) − (2H−1)(1/m) Σ log ω_j`.
///
/// Unlike a full-band fit of a parametric spectrum, local Whittle is
/// robust to arbitrary short-range dynamics (an AR(1) component biases a
/// full-band fractional-Gaussian-noise fit all the way to the H boundary; it
/// barely moves this one) — which is the right tool for the paper's `Z^a`
/// models, whose short lags are dominated by the DAR(1) component.
///
/// `m = 0` selects the default bandwidth `⌊n^0.65⌋`.
///
/// # Panics
/// Panics if the series is shorter than 256 points or `m` exceeds the
/// available frequencies.
pub fn local_whittle_hurst(series: &[f64], m: usize) -> f64 {
    assert!(
        series.len() >= 256,
        "local Whittle needs >= 256 points, got {}",
        series.len()
    );
    let pg = periodogram(series);
    let m = if m == 0 {
        ((series.len() as f64).powf(0.65) as usize).clamp(8, pg.len())
    } else {
        assert!(m >= 4 && m <= pg.len(), "invalid bandwidth {m}");
        m
    };
    let band = &pg[..m];
    let mean_log_w: f64 = band.iter().map(|&(w, _)| w.ln()).sum::<f64>() / m as f64;

    let objective = |h: f64| -> f64 {
        let g: f64 = band
            .iter()
            .map(|&(w, i)| i * w.powf(2.0 * h - 1.0))
            .sum::<f64>()
            / m as f64;
        g.ln() - (2.0 * h - 1.0) * mean_log_w
    };

    let (mut lo, mut hi) = (0.01_f64, 0.999_f64);
    let phi = (5.0_f64.sqrt() - 1.0) / 2.0;
    let mut x1 = hi - phi * (hi - lo);
    let mut x2 = lo + phi * (hi - lo);
    let mut f1 = objective(x1);
    let mut f2 = objective(x2);
    while hi - lo > 1e-5 {
        if f1 < f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - phi * (hi - lo);
            f1 = objective(x1);
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + phi * (hi - lo);
            f2 = objective(x2);
        }
    }
    (lo + hi) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Normal;
    use crate::rng::Xoshiro256PlusPlus;

    #[test]
    fn local_whittle_robust_to_ar1_dynamics() {
        // AR(1) is SRD: its spectrum is flat at low frequencies. The local
        // Whittle estimator reads only the low-frequency band and stays
        // near 0.5.
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(172);
        let mut d = Normal::new(0.0, 1.0);
        let mut x = 0.0;
        let series: Vec<f64> = (0..32_768)
            .map(|_| {
                x = 0.7 * x + d.sample(&mut rng);
                x
            })
            .collect();
        let h = local_whittle_hurst(&series, 0);
        assert!(h < 0.72, "AR(1) local-Whittle H {h} must stay below LRD range");
    }

    #[test]
    fn local_whittle_white_noise_near_half() {
        let mut rng = Xoshiro256PlusPlus::from_seed_u64(173);
        let mut d = Normal::new(0.0, 1.0);
        let series: Vec<f64> = (0..16_384).map(|_| d.sample(&mut rng)).collect();
        let h = local_whittle_hurst(&series, 0);
        assert!((h - 0.5).abs() < 0.12, "white noise local-Whittle H {h}");
    }
}
