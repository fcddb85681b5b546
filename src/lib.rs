//! # rfa — Reproducible Floating-Point Aggregation
//!
//! Facade crate re-exporting the whole workspace, a from-scratch Rust
//! reproduction of
//!
//! > I. Müller, A. Arteaga, T. Hoefler, G. Alonso:
//! > *"Reproducible Floating-Point Aggregation in RDBMSs"*, ICDE 2018
//! > (extended version: arXiv:1802.09883).
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-vs-measured record of every table and
//! figure.
//!
//! * [`core`] — reproducible summation: `ReproSum<T, L>`
//!   accumulators, vectorized kernel, summation buffers, tuning model and
//!   error bounds.
//! * [`agg`] — GROUPBY operators: hash aggregation, radix
//!   partitioning, PARTITIONANDAGGREGATE, sort aggregation.
//! * [`decimal`] — DECIMAL(9/18/38) fixed-point baselines.
//! * [`exact`] — Kulisch superaccumulator ground-truth oracle.
//! * [`engine`] — columnar mini-engine with a reproducible SUM
//!   operator and a plan-driven query layer (SUM / COUNT / AVG / MIN /
//!   MAX over dense or hash group keys; TPC-H Q1, Q6 and the Q15
//!   revenue view ship as plans).
//! * [`workloads`] — deterministic data generators
//!   (grouped pairs, distributions, TPC-H lineitem, graphs, PageRank).
//!
//! ## Quick start
//!
//! ```
//! use rfa::prelude::*;
//!
//! // A reproducible GROUPBY SUM over float data:
//! let keys = vec![0u32, 1, 0, 1];
//! let vals = vec![0.1f64, 2.5e-16, 0.2, 1.0];
//! let out = partition_and_aggregate(
//!     &ReproAgg::<f64, 2>::new(),
//!     &keys,
//!     &vals,
//!     &GroupByConfig::default(),
//! );
//! assert_eq!(out.len(), 2);
//! ```

pub use rfa_agg as agg;
pub use rfa_core as core;
pub use rfa_decimal as decimal;
pub use rfa_engine as engine;
pub use rfa_exact as exact;
pub use rfa_server as server;
pub use rfa_workloads as workloads;

/// Commonly used items in one import.
pub mod prelude {
    pub use rfa_agg::{
        hash_aggregate, partition_and_aggregate, sort_aggregate, AggFn, BufferedReproAgg,
        GroupByConfig, HashKind, Moments, MomentsAgg, ReproAgg, SumAgg,
    };
    pub use rfa_core::{reproducible_sum, CacheModel, ReproFloat, ReproSum, SummationBuffer};
    pub use rfa_decimal::{Decimal18, Decimal38, Decimal9};
    pub use rfa_exact::{exact_sum_f32, exact_sum_f64, ExactSum};
}

/// Short names for the paper's `repro<ScalarT, L>` instantiations
/// (§IV): `ReproDouble2` is the paper's default GROUPBY configuration,
/// `ReproDouble3`/`ReproDouble4` trade throughput for accuracy.
pub mod aliases {
    use rfa_core::ReproSum;

    /// `repro<double, 2>` — the paper's default accumulator.
    pub type ReproDouble2 = ReproSum<f64, 2>;
    /// `repro<double, 3>` — one extra accuracy level.
    pub type ReproDouble3 = ReproSum<f64, 3>;
    /// `repro<double, 4>` — the engine's SUM backend configuration.
    pub type ReproDouble4 = ReproSum<f64, 4>;
    /// `repro<float, 2>`.
    pub type ReproFloat2 = ReproSum<f32, 2>;
    /// `repro<float, 3>`.
    pub type ReproFloat3 = ReproSum<f32, 3>;
}
