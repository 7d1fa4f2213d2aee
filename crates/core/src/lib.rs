//! # vbr-core
//!
//! The paper's primary contribution, assembled: Critical-Time-Scale analysis
//! of VBR video traffic under realistic ATM buffer dimensioning
//! (Ryu & Elwalid, *The Importance of Long-Range Dependence of VBR Video
//! Traffic in ATM Traffic Engineering: Myths and Realities*, SIGCOMM 1996).
//!
//! This crate glues the substrates together into the paper's actual
//! experimental apparatus:
//!
//! * [`paper`] — Table 1 in executable form: solvers that derive every model
//!   parameter (λ, T₀, A, R, the lag-1-pinning `a(v)`, the tail-fitted α of
//!   model `L`) from the paper's stated targets, plus constructors for the
//!   four model families `V^v`, `Z^a`, `S = DAR(p)`, and `L`.
//! * [`matching`] — the Yule–Walker DAR(p) fit: given any target ACF, find
//!   `(ρ, a₁..a_p)` matching the first p correlations exactly (this is how
//!   the paper builds `S` from `Z^a`).
//! * [`experiments`] — one driver per table/figure, returning plain data
//!   series that the bench targets print and the integration tests assert
//!   against.
//! * [`report`] — one-page traffic-engineering profiles (stats, Hurst
//!   diagnostics, CTS table, dimensioning table) for any source.
//! * [`prelude`] — one-stop imports for downstream users.
//!
//! ## Quick start
//!
//! ```
//! use vbr_core::prelude::*;
//!
//! // Build the paper's Z^0.975 source (LRD with strong short-term corr.)
//! let z = paper::build_z(0.975);
//!
//! // How many frame correlations matter at a 2-ms buffer on the paper's
//! // N = 30, c = 538 multiplexer?
//! let stats = SourceStats::from_process(&z, 4_096);
//! let b = buffer_from_delay_ms(2.0, 538.0, paper::TS);
//! let cts = critical_time_scale(&stats, 538.0, b);
//! assert!(cts.m_star < 50); // small: long-range correlations are idle
//!
//! // Predicted loss at that operating point:
//! let bop = bahadur_rao_bop(&stats, 538.0, b, 30);
//! assert!(bop < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod experiments;
pub mod matching;
pub mod paper;
pub mod report;

/// Convenient re-exports of the whole analysis surface.
pub mod prelude {
    pub use crate::error::CoreError;
    pub use crate::matching::fit_dar;
    pub use crate::paper;
    pub use crate::paper::{ModelSet, PaperSpec};
    pub use crate::report::{ReportConfig, TrafficReport};
    pub use vbr_asymptotics::bop::{buffer_delay_ms, buffer_from_delay_ms, Flavor};
    pub use vbr_asymptotics::{
        bahadur_rao_bop, bop_curve, critical_time_scale, large_n_bop, rate_function,
        required_bandwidth, required_buffer, weibull_lrd_bop, CtsResult, SourceStats,
        VarianceFunction,
    };
    pub use vbr_models::{
        CleggParams, CleggProcess, DarParams, DarProcess, Fbndp, FbndpParams, FrameProcess,
        GaussianAr1, IidProcess, Marginal, ModelError, MwmParams, MwmProcess, Superposition,
    };
    pub use vbr_obs::{Event, MemoryRecorder, Recorder, RunSummary, Telemetry};
    pub use vbr_sim::{
        plan_shards, run, run_campaign, run_mix, simulate_clr, simulate_clr_mix, CampaignOptions,
        CampaignOutcome, CheckpointPolicy, Provenance, RetryPolicy, RunOptions, SimConfig,
        SimError, SimOutcome, SourceMix, Watchdog,
    };
}
