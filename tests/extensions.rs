//! Integration tests for the extension surfaces: heterogeneous mixes,
//! non-Gaussian marginals (paper §6.1) and the provisioning inverses.

mod common;

use common::claim_config;
use lrd_video::prelude::*;
use vbr_stats::ks_test;
use vbr_stats::rng::Xoshiro256PlusPlus;

/// Heterogeneous multiplexer: a 50/50 mix of an LRD source (Z^0.99) and
/// its DAR(1) fit loses at a rate between the two homogeneous systems.
///
/// Gated on replication spread (`claim_config`: c = 526, a 4 ms buffer, 600
/// short replications per system; pooled CLRs ~7e-5 for Z^0.99, ~2e-5 for
/// the DAR(1) fit, ~3e-5 for the mix): the mix's pooled CLR lies in the
/// band from the lower system's 95% CI lower bound to the higher system's
/// upper bound. Sized from block probes: it held in 20 disjoint
/// replication blocks (CHANGES.md).
#[test]
fn mixed_multiplexer_interpolates() {
    let z = paper::build_z(0.99);
    let d = paper::build_s(0.99, 1);
    let cfg = claim_config(600);

    let hom_z = simulate_clr(&z, &cfg).expect("valid sim config").per_buffer[0].clone();
    let hom_d = simulate_clr(&d, &cfg).expect("valid sim config").per_buffer[0].clone();
    let mix = SourceMix::new(vec![(&z as &dyn FrameProcess, 15), (&d as &dyn FrameProcess, 15)])
        .expect("non-empty mix");
    assert_eq!(mix.total(), 30);
    assert!((mix.mean() - 15_000.0).abs() < 1e-6);
    let mixed = simulate_clr_mix(&mix, &cfg).expect("valid sim config").per_buffer[0].pooled.clr();

    let (lo, hi) = if hom_d.pooled.clr() <= hom_z.pooled.clr() {
        (&hom_d, &hom_z)
    } else {
        (&hom_z, &hom_d)
    };
    assert!(
        mixed >= lo.clr.lo() && mixed <= hi.clr.hi(),
        "mixed CLR {mixed:e} should sit between {:e} (95% CI from {:e}) and {:e} (to {:e})",
        lo.pooled.clr(),
        lo.clr.lo(),
        hi.pooled.clr(),
        hi.clr.hi()
    );
}

/// Paper §6.1: a negative-binomial marginal with the same mean/variance
/// behaves like the Gaussian at the same operating point once bandwidth is
/// provisioned — here we check the zero-buffer CLR moves only modestly.
#[test]
fn negative_binomial_marginal_zero_buffer() {
    let gauss = IidProcess::new(Marginal::paper_gaussian());
    let negbin = IidProcess::new(Marginal::NegativeBinomial {
        mean: 500.0,
        variance: 5000.0,
    });
    let cfg = SimConfig::paper_defaults(vec![0.0], 30_000, 4);
    let g = simulate_clr(&gauss, &cfg).expect("valid sim config").per_buffer[0].pooled.clr();
    let nb = simulate_clr(&negbin, &cfg).expect("valid sim config").per_buffer[0].pooled.clr();
    assert!(g > 0.0 && nb > 0.0);
    // NB has a heavier right tail: its loss should be >= Gaussian's, but at
    // N = 30 aggregated sources the CLT keeps them within a small factor.
    assert!(
        nb >= g * 0.5 && nb <= g * 6.0,
        "negbin CLR {nb:e} vs gaussian {g:e}"
    );
}

/// The models' Gaussian-marginal claim, tested formally with KS.
///
/// Sampling discipline matters here: for an H = 0.95 process a single path's
/// empirical distribution wanders for any feasible length (the sample mean's
/// own sd is still ~45 cells at n = 6000 — LRD again), so the marginal is
/// tested on the **ensemble**: one frame from each of many independent
/// stationary restarts, which is i.i.d. from the true marginal.
#[test]
fn marginals_pass_ks_against_gaussian() {
    let mut rng = Xoshiro256PlusPlus::from_seed_u64(4040);
    for (mut model, label) in [
        (
            Box::new(paper::build_s(0.9, 2)) as Box<dyn FrameProcess>,
            "DAR(2)",
        ),
        (Box::new(paper::build_v(1.0)), "V^1"),
    ] {
        let sample: Vec<f64> = (0..4_000)
            .map(|_| {
                model.reset(&mut rng);
                model.next_frame(&mut rng)
            })
            .collect();
        let r = ks_test(&sample, |x| {
            vbr_stats::normal_cdf((x - 500.0) / 5000.0_f64.sqrt())
        });
        // The composite models are *approximately* Gaussian (M = 15 CLT);
        // demand no gross violation rather than exact normality.
        assert!(
            r.statistic < 0.05,
            "{label}: KS statistic {} too large",
            r.statistic
        );
    }
}

/// Dimensioning inverses compose with the model zoo: the buffer the inverse
/// reports for Z^0.975 meets the target according to the forward model.
#[test]
fn dimensioning_consistency_on_paper_models() {
    let z = paper::build_z(0.975);
    let stats = SourceStats::from_process(&z, 32_768);
    let target = 1e-6;
    let b = required_buffer(&stats, 538.0, 30, target).expect("feasible");
    assert!(bahadur_rao_bop(&stats, 538.0, b, 30) <= target * 1.001);
    let delay = buffer_delay_ms_local(b, 538.0);
    assert!(
        delay < 200.0,
        "Z^0.975 buffer requirement {delay} ms should be finite and sane"
    );

    let c = required_bandwidth(&stats, 50.0, 30, target).expect("feasible");
    assert!(c > 500.0 && c < 800.0, "effective bandwidth {c}");
}

fn buffer_delay_ms_local(b: f64, c: f64) -> f64 {
    b / c * paper::TS * 1e3
}
