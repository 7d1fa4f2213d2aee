//! # vbr-models
//!
//! VBR video traffic source models — the stochastic processes the paper
//! builds its whole argument from. Every model emits a stationary sequence of
//! *frame sizes* (cells per 40 ms video frame) and also knows its own
//! analytic first- and second-order statistics (mean, variance,
//! autocorrelation function), because the large-deviations analysis consumes
//! the analytic ACF while the simulator consumes the sample path.
//!
//! Model zoo:
//!
//! * [`dar::DarProcess`] — the DAR(p) discrete autoregressive Markov chain of
//!   Jacobs & Lewis, the paper's short-range-dependent workhorse. Its ACF
//!   obeys the Yule–Walker recursion `r(k) = ρ Σ aᵢ r(k−i)`; a DAR(1) decays
//!   geometrically as `ρᵏ`.
//! * [`onoff::FractalOnOff`] — a renewal ON/OFF process with the paper's
//!   heavy-tailed sojourn density (exponential body, Pareto tail, exponent
//!   γ = 2 − α), started in equilibrium via the residual-life distribution.
//! * [`fbndp::Fbndp`] — the Fractal-Binomial-Noise-Driven Poisson process:
//!   M i.i.d. fractal ON/OFF processes summed into a binomial rate that
//!   modulates a Poisson process. Exact long-range dependent, with
//!   H = (α+1)/2 and closed-form frame-count statistics.
//! * [`superpose::Superposition`] — sum of two independent frame processes;
//!   builds the paper's `Z^a` and `V^v` (FBNDP + DAR(1)) composites.
//! * [`ar::GaussianAr1`] — the Gaussian AR(1) baseline (Addie et al.).
//! * [`iid::IidProcess`] — white (lag-independent) frames, the H = ½ anchor.
//! * [`clegg::CleggProcess`] — Clegg–Dodson Markov-chain LRD generator:
//!   superposed binary chains with discrete-Pareto (Zipf-tail) sojourns,
//!   H = (3 − γ)/2, exact renewal-parity ACF — a *Markov* construction that
//!   is nonetheless LRD, probing whether the paper's "myths" depend on how
//!   the LRD is produced.
//! * [`mwm::MwmProcess`] — the Riedi et al. multifractal wavelet model: a
//!   symmetric-beta Haar cascade, non-negative by construction, with the
//!   octave energy ratio pinned to 2^{2H−1} at every scale.
//!
//! All models implement [`traits::FrameProcess`], are seedable through the
//! deterministic RNG from `vbr-stats`, and are `Send + Clone`-able so the
//! replication harness can fan them out across threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ar;
pub mod clegg;
pub mod dar;
pub mod error;
pub mod fbndp;
pub mod iid;
pub mod marginal;
pub mod mwm;
pub mod onoff;
pub mod superpose;
pub mod traits;

pub use ar::GaussianAr1;
pub use clegg::{CleggParams, CleggProcess};
pub use dar::{DarParams, DarProcess};
pub use error::ModelError;
pub use fbndp::{Fbndp, FbndpParams};
pub use iid::IidProcess;
pub use marginal::Marginal;
pub use mwm::{MwmParams, MwmProcess};
pub use onoff::{FractalOnOff, HeavyTailedSojourn};
pub use superpose::Superposition;
pub use traits::FrameProcess;
