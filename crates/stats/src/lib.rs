//! # vbr-stats
//!
//! Numerics substrate for the `lrd-video` workspace: everything the traffic
//! models, large-deviations analysis and multiplexer simulation need that a
//! general-purpose statistics library would normally provide.
//!
//! The allowed dependency set for this project contains no statistics or
//! fitting crates, so this crate implements the required numerics from
//! scratch:
//!
//! * [`rng`] — a deterministic, seedable [`Xoshiro256PlusPlus`]
//!   generator plus [`SplitMix64`] stream-splitting, so every
//!   experiment in the workspace is exactly reproducible independent of the
//!   `rand` crate's unstable `StdRng` algorithm.
//! * [`special`] — error function, log-gamma, and the standard normal
//!   pdf/cdf/quantile used by the Gaussian marginal models and the
//!   Bahadur–Rao asymptotics.
//! * [`dist`] — samplers for the normal (Marsaglia polar, and a ziggurat for
//!   Gaussian AR(1) innovations), Poisson
//!   (Knuth for small means, Hörmann's PTRD transformed rejection for large
//!   means — the FBNDP model draws ~10⁹ Poisson variates per paper-scale
//!   replication set), exponential, and Pareto-tail distributions, plus a
//!   Walker–Vose alias table for categorical draws.
//! * [`mod@fft`] — an iterative radix-2 complex FFT with real-signal helpers,
//!   used by the blocked ACF estimator, the periodogram Hurst estimators and
//!   the Davies–Harte exact fractional-Gaussian-noise generator.
//! * [`linalg`] — Levinson–Durbin recursion for symmetric Toeplitz systems
//!   (the Yule–Walker fit behind DAR(p) matching) and a pivoted Gaussian
//!   elimination fallback.
//! * [`acf`] — sample autocorrelation estimation (direct, and a blocked FFT
//!   estimator that computes only the lags asked for).
//! * [`hurst`] — three classical Hurst-parameter estimators: rescaled range
//!   (R/S), aggregated variance, and the GPH log-periodogram regression.
//! * [`descriptive`] — streaming moments (Welford), quantiles, histograms.
//! * [`regression`] — ordinary least squares for the log-log fits used by
//!   the Hurst estimators.
//! * [`ci`] — normal and Student-t confidence intervals for the simulation
//!   replication harness.
//! * [`whittle`] — the Whittle MLE Hurst estimator (the one Beran et al.
//!   used on the original video traces).
//! * [`ks`] — one-sample Kolmogorov–Smirnov test, used to verify that all
//!   model families really share the paper's Gaussian marginal.
//! * [`batch`] — batch-means output analysis for correlated simulation
//!   series, contrasted with independent replications in the ablations.
//! * [`wavelet`] — orthonormal Haar DWT (analysis/synthesis, single-level
//!   and full-depth) plus the logscale-diagram Hurst estimator; the
//!   substrate of the multifractal wavelet traffic model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acf;
pub mod batch;
pub mod ci;
pub mod descriptive;
pub mod dist;
pub mod fft;
pub mod hurst;
pub mod ks;
pub mod linalg;
pub mod p2;
pub mod regression;
pub mod rng;
pub mod special;
pub mod wavelet;
pub mod whittle;

pub use acf::{sample_acf, sample_acf_fft};
pub use batch::BatchMeans;
pub use ci::ConfidenceInterval;
pub use descriptive::{Histogram, Moments, quantile};
pub use dist::{AliasTable, Gamma, NegativeBinomial, Normal, Poisson};
pub use fft::{Complex, fft, ifft};
pub use hurst::{HurstEstimate, aggregated_variance_hurst, periodogram_hurst, rs_hurst};
pub use ks::{ks_test, KsResult};
pub use p2::P2Quantile;
pub use linalg::{levinson_durbin, solve_toeplitz};
pub use regression::LinearFit;
pub use rng::{SplitMix64, Xoshiro256PlusPlus};
pub use special::{
    erf, erfc, hurwitz_zeta, ln_gamma, normal_cdf, normal_pdf, normal_quantile, normal_sf,
    riemann_zeta,
};
pub use wavelet::{
    haar_decompose, haar_detail_energies, haar_reconstruct, wavelet_hurst, HaarDecomposition,
};
pub use whittle::{local_whittle_hurst, whittle_hurst};
