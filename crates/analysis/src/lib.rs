#![warn(missing_docs)]

//! Statistical analysis primitives for cluster-trace studies.
//!
//! This crate provides the mathematical toolkit used by the reproduction of
//! *Borg: the Next Generation* (EuroSys 2020): complementary cumulative
//! distribution functions (CCDFs), streaming moments and the squared
//! coefficient of variation, percentile estimation, Pareto tail fitting with
//! goodness of fit, Pearson correlation and bucketed-median curves,
//! time-bucketed aggregation, and M/G/1 queueing formulas.
//!
//! One rule holds the order statistics together: a raw sample is filtered
//! to finite values and sorted once, by [`Ccdf::from_samples`], and
//! percentiles, tail shares, the Pareto regression, Lorenz curves and the
//! Gini coefficient all read that [`Ccdf`]. [`Moments`] alone keeps reading
//! the raw column, in its original order: Welford accumulation is
//! order-sensitive.
//!
//! Everything here is dependency-free and deterministic, so results are
//! reproducible bit-for-bit across runs.
//!
//! # Examples
//!
//! ```
//! use borg_analysis::moments::Moments;
//!
//! let mut m = Moments::new();
//! for x in [1.0, 2.0, 3.0, 4.0] {
//!     m.push(x);
//! }
//! assert_eq!(m.mean(), 2.5);
//! ```

pub mod ccdf;
pub mod correlation;
pub mod lorenz;
pub mod moments;
pub mod pareto;
pub mod queueing;
pub mod regression;
pub mod timeseries;

pub use ccdf::Ccdf;
pub use correlation::{bucketed_medians, pearson};
pub use lorenz::{gini, Lorenz};
pub use moments::Moments;
pub use pareto::{ParetoFit, TailShare};
pub use queueing::{mg1_mean_queueing_delay, mm1_mean_queueing_delay};
pub use regression::LinearFit;
pub use timeseries::{periodic_component, HourBuckets};
