//! Statistical acceptance tests for every frame-level generator in the
//! workspace: does each model actually exhibit the statistics it claims?
//!
//! Three layers of checks, all on fixed seeds so CI is deterministic:
//!
//! 1. **Hurst recovery** — models parameterized by a target H (FGN, F-ARIMA,
//!    the Clegg chain, the MWM cascade) must yield path estimates near that
//!    H under both a time-domain estimator (R/S) and a frequency-domain one
//!    (local Whittle); short-range models must *not* masquerade as LRD.
//! 2. **Marginal law** — exactly-Gaussian models pass a KS test against
//!    their configured normal; moment-matched models (FBNDP families, Clegg,
//!    MWM) hit their analytic mean/variance within LRD-aware tolerances.
//! 3. **ACF sanity** — every analytic ACF is a correlation sequence, LRD
//!    tails stay positive and heavy, SRD tails actually vanish.
//!
//! Tolerances are deliberately loose enough to be seed-robust (they were
//! tuned with 5-sigma-ish headroom) but tight enough that a broken draw
//! order, a wrong exponent, or a mis-scaled marginal fails loudly.

mod common;

use common::{at_99, claim_config};
use lrd_video::prelude::*;
use vbr_models::{FarimaProcess, FgnProcess, IidProcess, Marginal};
use vbr_stats::rng::Xoshiro256PlusPlus;
use vbr_stats::dist::ziggurat_standard_normal;
use vbr_stats::{ks_test, local_whittle_hurst, normal_cdf, normal_sf, rs_hurst, Moments};

/// One sample path from a fresh stationary start of `proto`.
fn sample_path(proto: &dyn FrameProcess, seed: u64, n: usize) -> Vec<f64> {
    let mut p = proto.boxed_clone();
    let mut rng = Xoshiro256PlusPlus::from_seed_u64(seed);
    p.reset(&mut rng);
    let mut out = vec![0.0_f64; n];
    p.fill_frames(&mut out, &mut rng);
    out
}

const N: usize = 1 << 15;

#[test]
fn lrd_models_recover_their_configured_hurst() {
    // (prototype, target H, seed). Models whose H is a direct constructor
    // parameter — the estimate must come back near the dial setting.
    let cases: Vec<(Box<dyn FrameProcess>, f64, u64)> = vec![
        (Box::new(FgnProcess::new(500.0, 70.0, 0.8, 1.0, 1024)), 0.8, 11),
        (
            Box::new(FarimaProcess::from_hurst(500.0, 70.0, 0.85, 1024)),
            0.85,
            12,
        ),
        (Box::new(paper::build_clegg(0.8)), 0.8, 13),
        (Box::new(paper::build_mwm(0.8)), 0.8, 14),
    ];
    for (proto, h, seed) in &cases {
        let path = sample_path(proto.as_ref(), *seed, N);
        let lw = local_whittle_hurst(&path, 0);
        assert!(
            (lw - h).abs() < 0.1,
            "{}: local Whittle H = {lw:.3}, target {h}",
            proto.label()
        );
        let rs = rs_hurst(&path);
        assert!(
            (rs.h - h).abs() < 0.15,
            "{}: R/S H = {:.3} (se {:.3}), target {h}",
            proto.label(),
            rs.h,
            rs.se
        );
    }
}

#[test]
fn srd_models_do_not_masquerade_as_lrd() {
    let cases: Vec<(Box<dyn FrameProcess>, u64)> = vec![
        (Box::new(GaussianAr1::new(500.0, 70.0, 0.8)), 21),
        (Box::new(paper::build_s(0.975, 2)), 22),
        (
            Box::new(IidProcess::new(Marginal::Gaussian {
                mean: 500.0,
                sd: 70.0,
            })),
            23,
        ),
    ];
    for (proto, seed) in &cases {
        let path = sample_path(proto.as_ref(), *seed, N);
        let lw = local_whittle_hurst(&path, 0);
        assert!(
            lw < 0.68,
            "{}: local Whittle H = {lw:.3} — an SRD model must estimate ~0.5",
            proto.label()
        );
    }
    // IID specifically must sit right at H = 1/2.
    let iid = IidProcess::new(Marginal::Gaussian {
        mean: 500.0,
        sd: 70.0,
    });
    let path = sample_path(&iid, 24, N);
    let lw = local_whittle_hurst(&path, 0);
    assert!((lw - 0.5).abs() < 0.08, "IID local Whittle H = {lw:.3}");
    let rs = rs_hurst(&path);
    assert!((rs.h - 0.5).abs() < 0.12, "IID R/S H = {:.3}", rs.h);
}

#[test]
fn gaussian_marginal_models_pass_a_ks_test() {
    // (prototype, thinning stride, seed). Thinning breaks the serial
    // dependence the KS null assumes: stride is chosen so the residual
    // autocorrelation at one stride is negligible for each model.
    let cases: Vec<(Box<dyn FrameProcess>, usize, u64)> = vec![
        (
            Box::new(IidProcess::new(Marginal::Gaussian {
                mean: 500.0,
                sd: 70.0,
            })),
            1,
            31,
        ),
        (Box::new(GaussianAr1::new(500.0, 70.0, 0.8)), 32, 32),
        // Moderate H for the LRD entries: at H = 0.7 the lag-256 correlation
        // is ~0.01, so the thinned points are effectively independent and
        // the KS null actually applies. (At H = 0.85 the residual lag-128
        // correlation is ~0.14 and the test rejects a correct marginal.)
        (Box::new(FgnProcess::new(500.0, 70.0, 0.7, 1.0, 1024)), 256, 33),
        (
            Box::new(FarimaProcess::from_hurst(500.0, 70.0, 0.7, 1024)),
            256,
            34,
        ),
    ];
    for (proto, stride, seed) in &cases {
        let path = sample_path(proto.as_ref(), *seed, N);
        let (mean, sd) = (proto.mean(), proto.variance().sqrt());
        let thinned: Vec<f64> = path
            .iter()
            .step_by(*stride)
            .map(|x| (x - mean) / sd)
            .collect();
        let ks = ks_test(&thinned, normal_cdf);
        assert!(
            ks.p_value > 0.01,
            "{}: KS p = {:.4} (D = {:.4}, n = {}) against the configured normal",
            proto.label(),
            ks.p_value,
            ks.statistic,
            ks.n
        );
    }
}

#[test]
fn moment_matched_models_hit_their_analytic_moments() {
    // (prototype, effective H for the mean-wander tolerance, variance
    // relative tolerance, seed). Under LRD the sample mean converges at rate
    // n^(H-1), not n^(-1/2), so the tolerance has to widen with the model's
    // Hurst parameter; the sample variance wanders at ~n^(2H-2) and needs
    // the same treatment. V^1.5 stands in for the V family here — V^9's
    // near-unit-Hurst sojourns make path simulation pathologically slow and
    // its sample moments meaningless at any feasible n.
    let cases: Vec<(Box<dyn FrameProcess>, f64, f64, u64)> = vec![
        (Box::new(paper::build_l()), 0.9, 0.5, 41),
        (Box::new(paper::build_z(0.975)), 0.9, 0.5, 42),
        (Box::new(paper::build_v(1.5)), 0.95, 0.7, 43),
        (Box::new(paper::build_clegg(0.8)), 0.8, 0.35, 44),
        (Box::new(paper::build_mwm(0.8)), 0.8, 0.35, 45),
    ];
    for (proto, h, var_tol, seed) in &cases {
        let path = sample_path(proto.as_ref(), *seed, N);
        let mut m = Moments::new();
        for &x in &path {
            m.push(x);
        }
        let (mean, var) = (proto.mean(), proto.variance());
        let mean_tol = 5.0 * var.sqrt() * (N as f64).powf(h - 1.0);
        assert!(
            (m.mean() - mean).abs() < mean_tol,
            "{}: sample mean {:.2} vs analytic {mean:.2} (tol {mean_tol:.2})",
            proto.label(),
            m.mean()
        );
        assert!(
            (m.variance() - var).abs() < var_tol * var,
            "{}: sample variance {:.1} vs analytic {var:.1} (rel tol {var_tol})",
            proto.label(),
            m.variance()
        );
    }
}

#[test]
fn mwm_output_is_non_negative_everywhere() {
    let proto = paper::build_mwm(0.9);
    let path = sample_path(&proto, 51, N);
    assert!(
        path.iter().all(|&x| x >= 0.0),
        "the Haar cascade must synthesize non-negative rates"
    );
}

#[test]
fn analytic_acfs_are_valid_and_decay_by_class() {
    let lags = 512;
    let all: Vec<Box<dyn FrameProcess>> = vec![
        Box::new(FgnProcess::new(500.0, 70.0, 0.8, 1.0, 1024)),
        Box::new(FarimaProcess::from_hurst(500.0, 70.0, 0.85, 1024)),
        Box::new(paper::build_l()),
        Box::new(paper::build_z(0.975)),
        Box::new(paper::build_v(9.0)),
        Box::new(paper::build_s(0.975, 2)),
        Box::new(paper::build_clegg(0.8)),
        Box::new(paper::build_mwm(0.8)),
        Box::new(GaussianAr1::new(500.0, 70.0, 0.8)),
        Box::new(IidProcess::new(Marginal::Gaussian {
            mean: 500.0,
            sd: 70.0,
        })),
    ];
    for proto in &all {
        let r = proto.autocorrelations(lags);
        assert!((r[0] - 1.0).abs() < 1e-12, "{}: r(0)", proto.label());
        for (k, &v) in r.iter().enumerate() {
            assert!(
                (-1.0 - 1e-9..=1.0 + 1e-9).contains(&v),
                "{}: r({k}) = {v} outside [-1,1]",
                proto.label()
            );
        }
    }

    // LRD tails: positive and still alive at lag 256.
    for (proto, floor) in [
        (
            Box::new(FgnProcess::new(500.0, 70.0, 0.8, 1.0, 1024)) as Box<dyn FrameProcess>,
            0.02,
        ),
        (Box::new(paper::build_clegg(0.8)), 0.02),
        (Box::new(paper::build_l()), 0.01),
    ] {
        let r = proto.autocorrelations(lags);
        for (k, &v) in r.iter().enumerate().take(257).skip(1) {
            assert!(v > 0.0, "{}: r({k}) <= 0", proto.label());
        }
        assert!(
            r[256] > floor,
            "{}: r(256) = {} — LRD tail died too fast",
            proto.label(),
            r[256]
        );
    }

    // SRD tails must actually vanish.
    for proto in [
        Box::new(GaussianAr1::new(500.0, 70.0, 0.8)) as Box<dyn FrameProcess>,
        Box::new(paper::build_s(0.975, 2)),
    ] {
        let r = proto.autocorrelations(lags);
        assert!(
            r[256].abs() < 1e-3,
            "{}: r(256) = {} — SRD tail must be dead by lag 256",
            proto.label(),
            r[256]
        );
    }
    let iid = IidProcess::new(Marginal::Gaussian {
        mean: 500.0,
        sd: 70.0,
    });
    let r = iid.autocorrelations(8);
    assert!(r[1..].iter().all(|&v| v.abs() < 1e-12), "IID ACF not flat");
}

/// Sample cross-correlation `corr(x_t, y_{t+lag})` over the overlap.
fn cross_correlation(x: &[f64], y: &[f64], lag: usize) -> f64 {
    let n = x.len() - lag;
    let (x, y) = (&x[..n], &y[lag..]);
    let (mut mx, mut my) = (Moments::new(), Moments::new());
    for (&a, &b) in x.iter().zip(y) {
        mx.push(a);
        my.push(b);
    }
    let cov = x
        .iter()
        .zip(y)
        .map(|(a, b)| (a - mx.mean()) * (b - my.mean()))
        .sum::<f64>()
        / (n - 1) as f64;
    cov / (mx.variance() * my.variance()).sqrt()
}

/// The paths of one replication's `n_sources` copies of `proto`, drawn as
/// the runner draws them: source j resets from and makes every frame on its
/// own stream `root.split(rep).split(j)`.
fn replication_source_paths(
    proto: &dyn FrameProcess,
    seed: u64,
    rep: u64,
    n_sources: usize,
    n: usize,
) -> Vec<Vec<f64>> {
    let rep_rng = Xoshiro256PlusPlus::from_seed_u64(seed).split(rep);
    (0..n_sources)
        .map(|j| {
            let mut rng = rep_rng.split(j as u64);
            let mut source = proto.boxed_clone();
            source.reset(&mut rng);
            let mut path = vec![0.0_f64; n];
            source.fill_frames(&mut path, &mut rng);
            path
        })
        .collect()
}

/// Sources of one replication must be independent: their streams are
/// sibling splits of the replication's stream, and neighbouring indices
/// (0 and 1, 1 and 2, 13 and 14) and the ends (0 and 29) are checked.
#[test]
fn sources_of_one_replication_are_independent() {
    // Pre-whitened AR(1) paths: the innovations `x_t − φ·x_{t−1}` (about
    // the mean) are i.i.d. under the model, so under independence every
    // sample cross-correlation has sd ≈ 1/√n and ±4/√n is a 4-sigma band.
    let phi = 0.8;
    let ar1 = GaussianAr1::new(500.0, 70.0, phi);
    let band = 4.0 / (N as f64).sqrt();
    for (rep, pairs) in [
        (0u64, [(0usize, 1usize), (1, 2)]),
        (5, [(0, 29), (13, 14)]),
    ] {
        let paths = replication_source_paths(&ar1, 61, rep, 30, N + 1);
        let innovations: Vec<Vec<f64>> = paths
            .iter()
            .map(|p| {
                p.windows(2)
                    .map(|w| (w[1] - 500.0) - phi * (w[0] - 500.0))
                    .collect()
            })
            .collect();
        for (i, j) in pairs {
            for lag in 0..=3 {
                for (a, b, dir) in [(i, j, "leads"), (j, i, "lags")] {
                    let r = cross_correlation(&innovations[a], &innovations[b], lag);
                    assert!(
                        r.abs() < band,
                        "rep {rep}: source {i} {dir} source {j} by {lag}: cross-correlation {r:.4} outside ±{band:.4}"
                    );
                }
            }
        }
    }
}

#[test]
fn ar1_aggregate_of_one_replication_has_the_sum_moments() {
    // The sum of N independent AR(1) sources is an AR(1) with variance N·σ²
    // and ACF φᵏ; correlated sources would inflate the variance towards
    // N²·σ². Tolerances are ~5 sigma: the sample variance of an
    // AR(1) has relative sd ≈ √(2(1+φ²)/((1−φ²)n)) and the sample mean sd
    // √((1+φ)/(1−φ))·σ/√n.
    let (phi, sd, n_sources) = (0.8, 5000.0_f64.sqrt(), 30usize);
    let ar1 = GaussianAr1::new(500.0, sd, phi);
    let paths = replication_source_paths(&ar1, 62, 3, n_sources, N);
    let aggregate: Vec<f64> = (0..N).map(|t| paths.iter().map(|p| p[t]).sum()).collect();
    let mut m = Moments::new();
    for &x in &aggregate {
        m.push(x);
    }
    let (mean, var) = (n_sources as f64 * 500.0, n_sources as f64 * sd * sd);
    let mean_tol = 5.0 * ((1.0 + phi) / (1.0 - phi) * var / N as f64).sqrt();
    assert!(
        (m.mean() - mean).abs() < mean_tol,
        "aggregate mean {:.1} vs N·μ = {mean} (tol {mean_tol:.1})",
        m.mean()
    );
    let var_tol = 5.0 * (2.0 * (1.0 + phi * phi) / ((1.0 - phi * phi) * N as f64)).sqrt();
    assert!(
        (m.variance() / var - 1.0).abs() < var_tol,
        "aggregate variance {:.0} vs N·σ² = {var} (rel tol {var_tol:.3})",
        m.variance()
    );
    let acf = vbr_stats::sample_acf(&aggregate, 3);
    for (k, &r) in acf.iter().enumerate().skip(1) {
        let expected = phi.powi(k as i32);
        assert!(
            (r - expected).abs() < 0.05,
            "aggregate r({k}) = {r:.4} vs φ^{k} = {expected:.4}"
        );
    }
}

/// Release-size gate for the ziggurat sampler behind Gaussian AR(1)'s
/// innovations: a KS test and the tail masses beyond 3, 4 and the
/// ziggurat's tail start R, where its exponential tail method takes over.
/// Each bound comes from its own standard error: the KS 1% critical value
/// 1.628/√n, and 5 binomial SEs √(n·p(1−p)) on every tail count.
#[test]
fn ziggurat_normal_passes_ks_and_tail_mass_at_release_size() {
    const R: f64 = 3.654_152_885_361_009;
    let n = 1usize << 24;
    let nf = n as f64;
    let mut rng = Xoshiro256PlusPlus::from_seed_u64(41);
    let mut zs: Vec<f64> = (0..n).map(|_| ziggurat_standard_normal(&mut rng)).collect();
    for t in [3.0, 4.0, R] {
        let p = 2.0 * normal_sf(t);
        let count = zs.iter().filter(|z| z.abs() > t).count() as f64;
        let se = (nf * p * (1.0 - p)).sqrt();
        assert!(
            (count - nf * p).abs() < 5.0 * se,
            "P(|Z| > {t}): {count} draws vs {:.0} expected (SE {se:.1})",
            nf * p
        );
    }
    // KS statistic in place: the sample is large enough that a copy counts.
    zs.sort_unstable_by(f64::total_cmp);
    let d = zs
        .iter()
        .enumerate()
        .map(|(i, &z)| {
            let f = normal_cdf(z);
            (f - i as f64 / nf).max((i + 1) as f64 / nf - f)
        })
        .fold(0.0_f64, f64::max);
    let critical = 1.628 / nf.sqrt();
    assert!(d < critical, "KS D = {d:e} ≥ 1% critical value {critical:e} at n = {n}");
}

/// Claim 1's V^v cluster at its third member (paper §5.3/5.4): V^1.5's
/// simulated CLR is not resolvably different from V^0.67's or V^1's. Under
/// the same `claim_config` as
/// `paper_pipeline::short_term_correlations_dominate_simulated_clr`, which
/// checks the V^0.67/V^1 pair alone, every pair's 99% CIs overlap and the
/// largest pooled CLR is within 5× the smallest. V^1.5's FBNDP component
/// draws ~6× the ON/OFF sojourns of V^1's (~3.7 s of CPU per replication),
/// so this runs at release size only: in the release statistical-validation
/// job (`cargo test --release --test model_validation`), and ignored under
/// a debug-assertion `cargo test`. At 100 V^1.5 replications the check is
/// weak: Z^0.7 (6× lower CLR) in V^1.5's place fails it in about half of
/// disjoint seed blocks (CHANGES.md).
#[test]
#[cfg_attr(debug_assertions, ignore = "release size: ~11 CPU-minutes, most of it V^1.5")]
fn v_family_clr_clusters_at_v1_5() {
    let members: Vec<(f64, f64, (f64, f64))> = [(0.67, 600), (1.0, 400), (1.5, 100)]
        .into_iter()
        .map(|(v, replications)| {
            let est = simulate_clr(&paper::build_v(v), &claim_config(replications))
                .expect("valid sim config")
                .per_buffer[0]
                .clone();
            (v, est.pooled.clr(), at_99(&est))
        })
        .collect();
    for (i, &(v, _, (lo, hi))) in members.iter().enumerate() {
        for &(w, _, (other_lo, other_hi)) in &members[i + 1..] {
            assert!(
                lo <= other_hi && other_lo <= hi,
                "V^v CLRs should cluster: V^{v} [{lo:.3e}, {hi:.3e}] vs V^{w} [{other_lo:.3e}, {other_hi:.3e}] (99%)"
            );
        }
    }
    let pooled: Vec<f64> = members.iter().map(|m| m.1).collect();
    let (min, max) = pooled.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &p| (lo.min(p), hi.max(p)));
    assert!(max < 5.0 * min, "V^v CLRs should cluster: pooled {pooled:?}");
}
