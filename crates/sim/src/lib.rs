//! # vbr-sim
//!
//! ATM multiplexer simulation substrate — the machinery behind the paper's
//! §5.5 ("for each of the four models we run 60 replications, each of which
//! generates half a million frames").
//!
//! Three layers:
//!
//! * [`queue`] — the frame-level **fluid queue**. With all sources' frames
//!   aligned and cells deterministically smoothed over the frame duration
//!   (the paper's §5.5 assumptions), the buffer evolves by the Lindley-type
//!   recursion `W' = min{(W + X − C)⁺, B}` with per-frame fluid loss
//!   `(W + X − C − B)⁺`. This is exactly the workload recursion of the
//!   paper's §4.2, and it is what the headline experiments run.
//! * [`cell`] — a slotted **cell-level** simulator (one service slot per
//!   cell time on the aggregate link, arrivals placed in their smoothed
//!   positions) used to validate that the fluid abstraction does not distort
//!   the CLR at the paper's operating points.
//! * [`runner`] — the parallel replication harness: independent seeded
//!   replications fanned out over `std::thread::scope`, CLR measured for
//!   *many buffer sizes simultaneously* against a shared arrival stream
//!   (common random numbers), Student-t confidence intervals across
//!   replications, and an infinite-buffer survival-curve estimator for BOP
//!   comparisons.
//!
//! The harness is fault tolerant: all failures are typed ([`error`]),
//! model outputs are guarded against NaN/Inf/negative rates ([`guard`]),
//! long runs checkpoint and resume bit-identically ([`checkpoint`]), and a
//! watchdog degrades an over-budget run to a partial result with explicit
//! provenance instead of hanging or panicking.
//!
//! The harness is also observable: set [`RunOptions::recorder`] (re-exported
//! from [`vbr_obs`], aliased here as [`obs`]) and the run emits a typed
//! event stream, streams pipeline metrics at batch granularity, and delivers
//! an end-of-run summary with per-stage wall-time attribution — all without
//! touching an RNG, so results stay bit-identical recorder on or off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod campaign;
pub mod cell;
pub mod checkpoint;
pub mod error;
pub mod fault;
pub mod guard;
pub mod queue;
pub mod retry;
pub mod runner;
pub mod trace;

pub use vbr_obs as obs;
pub use vbr_obs::{Event, MemoryRecorder, Recorder, RunSummary, Telemetry};

pub use campaign::{
    plan_shards, run_campaign, CampaignOptions, CampaignOutcome, CampaignReport, ShardPlan,
    ShardReport,
};
pub use cell::CellMultiplexer;
pub use checkpoint::{
    config_fingerprint, verify as verify_checkpoint, CheckpointPolicy, CHECKPOINT_VERSION,
};
pub use error::{CheckpointErrorKind, FaultSite, NumericFault, SimError};
pub use guard::Guard;
pub use trace::TraceProcess;
pub use queue::{BopEstimator, BufferBank, FluidQueue, LossAccount};
pub use retry::RetryPolicy;
pub use runner::{
    run, run_mix, simulate_clr, simulate_clr_mix, ClrEstimate, Provenance, RunOptions, SimConfig,
    SimOutcome, SourceMix, Watchdog,
};
