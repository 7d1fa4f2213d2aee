//! # lrd-video
//!
//! Umbrella crate for the reproduction of Ryu & Elwalid (SIGCOMM '96),
//! *"The Importance of Long-Range Dependence of VBR Video Traffic in ATM
//! Traffic Engineering: Myths and Realities"*.
//!
//! Everything lives in the member crates; this crate re-exports them under
//! one roof and hosts the runnable examples (`examples/`) and cross-crate
//! integration tests (`tests/`).
//!
//! * [`stats`] — numerics substrate (RNG, distributions, FFT, Hurst, ...)
//! * [`models`] — VBR traffic models (DAR(p), FBNDP, superpositions, Clegg chains, MWM)
//! * [`asymptotics`] — large deviations: V(m), CTS, Bahadur-Rao, Weibull
//! * [`sim`] — fluid + cell-level multiplexer simulation, replication harness
//! * [`obs`] — observability: tracing spans, streaming metrics, run telemetry
//! * [`core`] — the paper pipeline: Table-1 solvers, DAR matching,
//!   experiment drivers, prelude
//!
//! Start with [`core::prelude`] and the `examples/quickstart.rs` walkthrough.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vbr_asymptotics as asymptotics;
pub use vbr_core as core;
pub use vbr_models as models;
pub use vbr_obs as obs;
pub use vbr_sim as sim;
pub use vbr_stats as stats;

pub use vbr_core::prelude;
