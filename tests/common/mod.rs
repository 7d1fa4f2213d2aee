//! Shared set-up of the statistical paper-claim gates.
#![allow(dead_code)] // each test binary uses only part of this module

use lrd_video::prelude::*;
use vbr_sim::ClrEstimate;
use vbr_stats::ci::t_quantile;

/// The configuration of the statistical claim gates: N = 30 sources at the
/// paper's Fig 4 capacity c = 526 cells/frame (ρ ≈ 0.95), one 4 ms buffer,
/// and many short replications: 500 measured frames after 50 frames of
/// queue warm-up, each source started in its stationary state.
///
/// At Fig 8's c = 538 the claims hold but are too rare to resolve in a
/// test: one replication's CLR at 2 ms has a coefficient of variation of
/// ~15 for Z^0.99 and ~19 for Z^0.7, so separating their CIs would take
/// more than 5 000 replications per model. At c = 526 and 4 ms it is 5–7.
pub fn claim_config(replications: usize) -> SimConfig {
    let buffer = buffer_from_delay_ms(4.0, paper::C_FIG4, paper::TS) * paper::N_SOURCES as f64;
    let mut cfg = SimConfig::paper_defaults(vec![buffer], 500, replications);
    cfg.capacity_per_source = paper::C_FIG4;
    cfg.warmup_frames = 50;
    cfg
}

/// The 99% Student-t interval of a CLR estimate, from the runner's 95%
/// half-width. A "no difference" claim takes this wider interval, which two
/// equal curves miss far more rarely than the 95% one.
pub fn at_99(e: &ClrEstimate) -> (f64, f64) {
    let df = (e.clr.n - 1) as f64;
    let hw = e.clr.half_width * t_quantile(0.995, df) / t_quantile(0.975, df);
    (e.clr.mean - hw, e.clr.mean + hw)
}
