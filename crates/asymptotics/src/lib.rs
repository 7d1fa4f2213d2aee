//! # vbr-asymptotics
//!
//! The large-deviations toolkit of the paper (§4): everything needed to go
//! from a traffic model's second-order statistics to buffer overflow
//! probabilities and the **Critical Time Scale**.
//!
//! Pipeline:
//!
//! 1. [`stats::SourceStats`] — (μ, σ², r(·)) snapshot of a source, taken
//!    from any `vbr_models::FrameProcess`.
//! 2. [`variance::VarianceFunction`] — the cumulative-sum variance
//!    `V(m) = Var(Σᵢ₌₁..m Yᵢ) = σ²[m + 2Σᵢ(m−i)r(i)]`, computed
//!    incrementally in O(1) per lag.
//! 3. [`cts`] — the rate function `I(c,b) = inf_m [b + m(c−μ)]²/(2V(m))` and
//!    its minimizer `m*_b`, the Critical Time Scale: the number of frame
//!    correlations that actually determine the loss rate.
//! 4. [`bop`] — the Bahadur–Rao asymptotic
//!    `Ψ ≈ exp(−N·I − ½log(4πN·I))` and the Courcoubetis–Weber large-N
//!    asymptotic `exp(−N·I)` for the buffer overflow probability of N
//!    multiplexed sources.
//! 5. [`weibull`] — the paper's closed-form Eq. (6) for N Gaussian
//!    *exact-LRD* sources (Weibull decay `exp(−const·B^{2−2H})`), plus the
//!    CTS growth slopes `m*_b ≈ H·b/((1−H)(c−μ))` (LRD) and `b/(c−μ)`
//!    (AR(1)) derived in the appendix.
//! 6. [`dimensioning`] — the provisioning inverses: smallest buffer (or
//!    bandwidth) meeting a loss target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bop;
pub mod dimensioning;
pub mod cts;
pub mod stats;
pub mod variance;
pub mod weibull;

pub use dimensioning::{required_bandwidth, required_buffer};
pub use bop::{bahadur_rao_bop, bop_curve, large_n_bop, BopPoint};
pub use cts::{critical_time_scale, rate_function, CtsResult};
pub use stats::SourceStats;
pub use variance::VarianceFunction;
pub use weibull::{cts_slope_ar1, cts_slope_exact_lrd, kappa, weibull_lrd_bop};
