//! Effective bandwidth and connection admission control (CAC).
//!
//! The paper's motivating application (via Elwalid et al. \[6\]): an ATM switch
//! must decide in real time how many VBR video connections fit on a link
//! given a buffer and a loss target. This module inverts the Bahadur–Rao /
//! large-N asymptotics to answer exactly that, and provides the classic
//! Gaussian effective-bandwidth formula for comparison.

use crate::bop::{bahadur_rao_bop, large_n_bop};
use crate::stats::SourceStats;

/// Which asymptotic the admission test uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Asymptotic {
    /// Bahadur–Rao (tighter; admits more connections).
    BahadurRao,
    /// Courcoubetis–Weber large-N (more conservative).
    LargeN,
}

/// The asymptotic per-frame variance rate `v∞ = lim V(m)/m
/// = σ²[1 + 2Σ_{k≥1} r(k)]`, evaluated over the available ACF horizon.
///
/// Returns `None` when the partial sums have clearly not converged within
/// the horizon (the LRD case — Σr(k) diverges, which is precisely why
/// classical effective bandwidth fails for LRD models at infinite time
/// scales). The convergence test compares the last two dyadic partial sums.
pub fn asymptotic_variance_rate(stats: &SourceStats) -> Option<f64> {
    let k = stats.max_lag();
    if k < 16 {
        return None;
    }
    let sum_to = |hi: usize| -> f64 { stats.acf[1..=hi].iter().sum() };
    let half = sum_to(k / 2);
    let full = sum_to(k);
    let scale = full.abs().max(1.0);
    if (full - half).abs() > 0.01 * scale {
        return None; // still drifting: treat the series as divergent
    }
    Some(stats.variance * (1.0 + 2.0 * full))
}

/// Gaussian effective bandwidth with space parameter θ:
/// `EB(θ) = μ + θ·v∞/2` (cells/frame). The classic admission rule reserves
/// `EB(θ)` per source with `θ = −ln(ε)/B_total` for loss target ε.
pub fn gaussian_effective_bandwidth(mean: f64, variance_rate: f64, theta: f64) -> f64 {
    assert!(theta >= 0.0, "negative space parameter {theta}");
    assert!(variance_rate >= 0.0, "negative variance rate");
    mean + theta * variance_rate / 2.0
}

/// Maximum number of homogeneous sources admissible on a link of total
/// capacity `capacity` (cells/frame) with total buffer `buffer` (cells) and
/// loss target `target_bop`, according to the chosen asymptotic.
///
/// Monotonicity: adding a source while holding the link fixed shrinks both
/// per-source bandwidth `c = C/N` and per-source buffer `b = B/N`, so the
/// BOP rises with N; the answer is found by binary search.
///
/// Returns 0 if even a single source violates the target (or is unstable).
pub fn max_admissible_sources(
    stats: &SourceStats,
    capacity: f64,
    buffer: f64,
    target_bop: f64,
    flavor: Asymptotic,
) -> usize {
    assert!(capacity > 0.0 && buffer >= 0.0);
    assert!(
        target_bop > 0.0 && target_bop < 1.0,
        "invalid loss target {target_bop}"
    );

    let admissible = |n: usize| -> bool {
        if n == 0 {
            return true;
        }
        let c = capacity / n as f64;
        if c <= stats.mean {
            return false; // unstable
        }
        let b = buffer / n as f64;
        let bop = match flavor {
            Asymptotic::BahadurRao => bahadur_rao_bop(stats, c, b, n),
            Asymptotic::LargeN => large_n_bop(stats, c, b, n),
        };
        bop <= target_bop
    };

    // Upper bound: stability cap.
    let n_max = (capacity / stats.mean).floor() as usize;
    if n_max == 0 || !admissible(1) {
        return 0;
    }
    // Binary search the largest admissible N in [1, n_max]; the predicate is
    // monotone (admissible for all N below some threshold).
    let (mut lo, mut hi) = (1usize, n_max);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if admissible(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ar1(phi: f64, lags: usize) -> SourceStats {
        SourceStats::new(
            500.0,
            5000.0,
            (0..=lags).map(|k| phi.powi(k as i32)).collect(),
        )
    }

    fn lrd(h: f64, g: f64, lags: usize) -> SourceStats {
        SourceStats::new(
            500.0,
            5000.0,
            vbr_models::fbndp::exact_lrd_acf(g, 2.0 * h, lags),
        )
    }

    #[test]
    fn variance_rate_of_ar1() {
        // v_inf = sigma^2 (1+phi)/(1-phi).
        let stats = ar1(0.7, 2000);
        let v = asymptotic_variance_rate(&stats).expect("AR(1) converges");
        let expect = 5000.0 * 1.7 / 0.3;
        assert!((v - expect).abs() < 0.01 * expect, "{v} vs {expect}");
    }

    #[test]
    fn variance_rate_diverges_for_lrd() {
        let stats = lrd(0.9, 0.9, 50_000);
        assert!(
            asymptotic_variance_rate(&stats).is_none(),
            "LRD correlation sum must be flagged divergent"
        );
    }

    #[test]
    fn effective_bandwidth_between_mean_and_peakish() {
        let stats = ar1(0.7, 2000);
        let v = asymptotic_variance_rate(&stats).unwrap();
        let eb = gaussian_effective_bandwidth(stats.mean, v, 1e-3);
        assert!(eb > stats.mean && eb < stats.mean + 3.0 * stats.variance.sqrt());
    }

    #[test]
    fn admission_monotone_in_resources() {
        let stats = ar1(0.9, 4000);
        let n1 = max_admissible_sources(&stats, 16_140.0, 800.0, 1e-6, Asymptotic::BahadurRao);
        let n2 = max_admissible_sources(&stats, 16_140.0, 4000.0, 1e-6, Asymptotic::BahadurRao);
        let n3 = max_admissible_sources(&stats, 32_280.0, 800.0, 1e-6, Asymptotic::BahadurRao);
        assert!(n1 >= 1, "paper-scale link must admit sources, got {n1}");
        assert!(n2 >= n1, "more buffer admits more: {n2} vs {n1}");
        assert!(n3 > n1, "more bandwidth admits more: {n3} vs {n1}");
        // Never past the stability cap.
        assert!(n3 <= (32_280.0 / 500.0) as usize);
    }

    #[test]
    fn bahadur_rao_admits_at_least_as_many_as_large_n() {
        let stats = ar1(0.9, 4000);
        let br = max_admissible_sources(&stats, 16_140.0, 2000.0, 1e-6, Asymptotic::BahadurRao);
        let ln = max_admissible_sources(&stats, 16_140.0, 2000.0, 1e-6, Asymptotic::LargeN);
        assert!(br >= ln, "B-R {br} vs large-N {ln}");
    }

    #[test]
    fn admission_respects_loss_target() {
        let stats = ar1(0.9, 4000);
        let cap = 16_140.0;
        let buf = 2000.0;
        let n = max_admissible_sources(&stats, cap, buf, 1e-6, Asymptotic::BahadurRao);
        assert!(n >= 1);
        let at_n = bahadur_rao_bop(&stats, cap / n as f64, buf / n as f64, n);
        assert!(at_n <= 1e-6, "admitted load violates target: {at_n:e}");
        let over = n + 1;
        let c_over = cap / over as f64;
        if c_over > stats.mean {
            let at_over = bahadur_rao_bop(&stats, c_over, buf / over as f64, over);
            assert!(at_over > 1e-6, "N+1 should violate target: {at_over:e}");
        }
    }

    #[test]
    fn zero_admission_when_target_unreachable() {
        let stats = ar1(0.99, 2000);
        // Capacity below the mean: nothing fits.
        let n = max_admissible_sources(&stats, 400.0, 1000.0, 1e-6, Asymptotic::BahadurRao);
        assert_eq!(n, 0);
    }

    #[test]
    fn tighter_target_admits_fewer() {
        let stats = ar1(0.9, 4000);
        let loose = max_admissible_sources(&stats, 16_140.0, 2000.0, 1e-3, Asymptotic::BahadurRao);
        let tight = max_admissible_sources(&stats, 16_140.0, 2000.0, 1e-9, Asymptotic::BahadurRao);
        assert!(loose >= tight, "{loose} vs {tight}");
    }
}
