//! End-to-end integration tests: the paper's headline claims exercised
//! through the full stack (model construction -> analysis -> simulation).

mod common;

use common::{at_99, claim_config};
use lrd_video::prelude::*;
use vbr_core::experiments::{self, SimScale};
use vbr_sim::ClrEstimate;

/// The paper's §5.5 anchor: "all the CLR curves begin around the same value
/// at zero buffer (slightly larger than 1e-5)", because every model shares
/// the Gaussian(500, 5000) marginal. Checked for an LRD model and its SRD
/// fit through the actual simulator.
#[test]
fn zero_buffer_clr_anchor_across_model_families() {
    let expected = {
        // Fluid zero-buffer CLR = E[(X - C)+]/E[X] for the aggregate.
        let mean = 30.0 * 500.0;
        let sd = (30.0 * 5000.0_f64).sqrt();
        vbr_stats::dist::gaussian_overshoot_mean(mean, sd, 30.0 * 538.0) / mean
    };
    assert!(expected > 1e-5 && expected < 1.3e-5, "anchor {expected:e}");

    let models: Vec<Box<dyn FrameProcess>> = vec![
        Box::new(paper::build_s(0.975, 1)),
        Box::new(paper::build_z(0.975)),
    ];
    for m in models {
        let cfg = SimConfig::paper_defaults(vec![0.0], 40_000, 4);
        let clr = simulate_clr(m.as_ref(), &cfg).expect("valid sim config").per_buffer[0].pooled.clr();
        assert!(
            clr > expected / 3.0 && clr < expected * 3.0,
            "{}: zero-buffer CLR {clr:e} vs analytic {expected:e}",
            m.label()
        );
    }
}

/// Claim 1 destroyed (paper §5.3/5.4): models differing only in long-term
/// correlations (V^v) have nearly identical simulated CLR; models differing
/// only in short-term correlations (Z^a) differ widely.
///
/// Gated on the Student-t CIs of the per-replication CLRs that the runner
/// reports (`claim_config`; pooled CLRs ~7e-5 for Z^0.99, ~3e-6 for
/// Z^0.7, ~2e-5 for V^0.67 and V^1):
/// - the Z^a pair fans out: the 95% CIs of Z^0.99 and Z^0.7 are disjoint;
/// - the V^v pair clusters: their 99% CIs overlap (`at_99`), and the
///   larger pooled CLR is within 5× the smaller;
/// - the short-term knob dwarfs the long-term one: the Z^a pair's
///   separation, Z^0.99's 95% lower bound over Z^0.7's upper bound, is at
///   least `DOMINANCE` times the V^v pair's, the larger of either V CI's
///   lower bound over the other's upper bound, taken as 1 while the two
///   overlap.
///
/// V^1 costs ~11× a V^0.67 or Z^a replication, so it runs 400 replications
/// to the others' 600. V^1.5 (~6× V^1 again) joins the cluster in the
/// release-only `model_validation::v_family_clr_clusters_at_v1_5`. Sized
/// from block probes over 20 disjoint replication blocks per draw order
/// (CHANGES.md).
#[test]
fn short_term_correlations_dominate_simulated_clr() {
    /// Smallest Z^a separation, as a multiple of the V^v one (or of 1),
    /// that the short-term knob must reach; the block probes' smallest
    /// was 1.52.
    const DOMINANCE: f64 = 1.5;
    let clr = |m: &dyn FrameProcess, replications: usize| {
        simulate_clr(m, &claim_config(replications)).expect("valid sim config").per_buffer[0].clone()
    };
    let z_low = clr(&paper::build_z(0.7), 600);
    let z_high = clr(&paper::build_z(0.99), 600);
    let v_low = clr(&paper::build_v(0.67), 600);
    let v_high = clr(&paper::build_v(1.0), 400);
    let show = |e: &ClrEstimate| format!("{:.3e} ± {:.3e}", e.clr.mean, e.clr.half_width);

    assert!(
        z_high.clr.lo() > z_low.clr.hi(),
        "Z^a CLRs should fan out: Z^0.99 {} vs Z^0.7 {}",
        show(&z_high),
        show(&z_low)
    );
    let ((v_low_lo, v_low_hi), (v_high_lo, v_high_hi)) = (at_99(&v_low), at_99(&v_high));
    assert!(
        v_low_lo <= v_high_hi && v_high_lo <= v_low_hi,
        "V^v CLRs should cluster: V^0.67 [{v_low_lo:.3e}, {v_low_hi:.3e}] vs V^1 [{v_high_lo:.3e}, {v_high_hi:.3e}] (99%)"
    );
    let (v_low_pooled, v_high_pooled) = (v_low.pooled.clr(), v_high.pooled.clr());
    assert!(
        v_low_pooled.max(v_high_pooled) < 5.0 * v_low_pooled.min(v_high_pooled),
        "V^v CLRs should cluster: pooled V^0.67 {v_low_pooled:.3e} vs V^1 {v_high_pooled:.3e}"
    );
    let z_separation = z_high.clr.lo() / z_low.clr.hi();
    let v_separation = (v_low.clr.lo() / v_high.clr.hi()).max(v_high.clr.lo() / v_low.clr.hi());
    assert!(
        z_separation > DOMINANCE * v_separation.max(1.0),
        "short-term knob must dwarf long-term knob: Z^a separation {z_separation:.2} vs {DOMINANCE}× V^v {v_separation:.2}"
    );
}

/// Claim 2 destroyed (paper §5.4/5.5): the DAR(p) fit — which has no long
/// memory at all — predicts the LRD source's simulated CLR within the gaps
/// the paper reports, and improves with p.
#[test]
fn dar_fits_track_lrd_source_clr() {
    let grid = [1.0];
    let scale = SimScale {
        frames: 20_000,
        replications: 4,
    };
    let z = paper::build_z(0.7);
    let z_clr = experiments::sim_clr_series(&z, &grid, scale).expect("valid sim config").points[0].1;
    assert!(z_clr > 0.0, "need measurable loss at 2 ms");

    let mut errors = Vec::new();
    for p in [1usize, 3] {
        let s = paper::build_s(0.7, p);
        let s_clr = experiments::sim_clr_series(&s, &grid, scale).expect("valid sim config").points[0].1;
        assert!(s_clr > 0.0, "DAR({p}) must lose too");
        errors.push((z_clr.ln() - s_clr.ln()).abs());
    }
    // Fig 9(b): for Z^0.7 the curves sit within about one order of magnitude.
    assert!(
        errors[0] < std::f64::consts::LN_10 * 1.5,
        "DAR(1) log-error {} should be within ~1 order",
        errors[0]
    );
    assert!(
        errors[1] <= errors[0] + 0.3,
        "DAR(3) {} should not be worse than DAR(1) {}",
        errors[1],
        errors[0]
    );
}

/// CTS headline numbers quoted in the paper's §5.3: at B = 2 msec the Z^a
/// family's CTS values differ by "as many as 15" while the V^v family's
/// nearly coincide (c = 526, N = 100 setting of Fig 4).
#[test]
fn fig4_quoted_cts_spread() {
    let series = vbr_core::experiments::fig4(&[2.0]);
    let v_cts: Vec<f64> = series[..3].iter().map(|s| s.points[0].1).collect();
    let z_cts: Vec<f64> = series[3..].iter().map(|s| s.points[0].1).collect();
    let spread = |v: &[f64]| {
        v.iter().cloned().fold(f64::MIN, f64::max) - v.iter().cloned().fold(f64::MAX, f64::min)
    };
    assert!(spread(&v_cts) <= 2.0, "V spread {v_cts:?}");
    // The paper quotes "as many as 15" at B = 2 msec; the exact integer
    // depends on rounding conventions — we measure 12-13 (see
    // EXPERIMENTS.md), which preserves the order-of-magnitude contrast
    // against the V-family spread of <= 2.
    assert!(
        spread(&z_cts) >= 11.0,
        "Z^a CTS spread at 2 ms should be >= ~12, got {z_cts:?}"
    );
}

/// Fig 10 shape: B-R and large-N asymptotics both upper-bound the simulated
/// finite-buffer CLR, B-R tighter, all three decaying in buffer.
#[test]
fn asymptotics_bound_simulation_fig10_shape() {
    let grid = [1.0, 3.0, 6.0];
    let series = vbr_core::experiments::fig10(
        &grid,
        SimScale {
            frames: 20_000,
            replications: 4,
        },
    )
    .expect("valid sim config");
    let br = &series[0];
    let large_n = &series[1];
    let sim = &series[2];
    for (i, &ms) in grid.iter().enumerate() {
        let (b, l, s) = (br.points[i].1, large_n.points[i].1, sim.points[i].1);
        assert!(b < l, "B-R {b:e} must be tighter than large-N {l:e}");
        if s > 0.0 {
            assert!(
                b > s / 3.0,
                "asymptotic {b:e} should not undershoot simulation {s:e} at {ms} ms"
            );
        }
    }
    for w in sim.points.windows(2) {
        assert!(w[1].1 <= w[0].1 * 1.5, "simulated CLR should fall with buffer");
    }
}

/// The full model zoo builds, shares the marginal, and every member's
/// analytic ACF is a valid correlation sequence deep into the tail.
#[test]
fn model_zoo_acf_validity() {
    let set = ModelSet::build();
    let mut all: Vec<&dyn FrameProcess> = Vec::new();
    for m in &set.v_models {
        all.push(m);
    }
    for m in &set.z_models {
        all.push(m);
    }
    for m in set.s_for_z07.iter().chain(&set.s_for_z0975) {
        all.push(m);
    }
    all.push(&set.l_model);
    for m in all {
        let acf = m.autocorrelations(10_000);
        assert!((acf[0] - 1.0).abs() < 1e-12);
        for (k, &r) in acf.iter().enumerate() {
            assert!(
                (-1.0..=1.0 + 1e-12).contains(&r),
                "{} r({k}) = {r}",
                m.label()
            );
        }
        // All paper models are positively correlated and decaying overall.
        assert!(acf[1] > acf[100] && acf[100] >= 0.0, "{}", m.label());
    }
}
