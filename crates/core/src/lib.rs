//! # rfa-core — bit-reproducible floating-point summation
//!
//! Core library of the RFA workspace: a from-scratch Rust implementation of
//! the reproducible summation machinery of
//!
//! > I. Müller, A. Arteaga, T. Hoefler, G. Alonso:
//! > *"Reproducible Floating-Point Aggregation in RDBMSs"*, ICDE 2018.
//!
//! Floating-point addition is not associative, so the result of a `SUM`
//! depends on execution order — which in a database changes with physical
//! row order, thread schedules, and partitioning. This crate provides an
//! **associative** floating-point accumulator that yields bit-identical
//! results for *any* order, chunking, or parallel merge tree, at a small
//! constant-factor cost:
//!
//! * [`ReproSum<T, L>`] — the paper's `repro<ScalarT, L>` drop-in aggregate
//!   type (Algorithm 2 / §IV), generic over `f32`/`f64` and the accuracy
//!   level `L` (≈ `L·W` significant bits below the largest input);
//! * [`simd::add_slice`] — the vectorized summation kernel (Algorithm 3 /
//!   §III-D), bit-identical to the scalar path but several times faster on
//!   long runs;
//! * [`SummationBuffer`] — per-group value buffering (§V-A) that turns
//!   per-tuple deposits into vectorized batch summations;
//! * [`tuning`] — the cache-footprint model for buffer size (Eq. 4) and
//!   partitioning depth (§V-C);
//! * [`analysis`] — the a-priori error bounds of Eq. 5/6 (Table II);
//! * [`eft`] — the underlying error-free transformations (§III-B).
//!
//! ## Quick start
//!
//! ```
//! use rfa_core::{ReproSum, reproducible_sum};
//!
//! // Algorithm 1 of the paper: the same rows before/after a physical
//! // reorder (the UPDATE moves the 0.999... row to the end).
//! let before = vec![2.5e-16, 0.999999999999999, 2.5e-16];
//! let after = vec![2.5e-16, 2.5e-16, 0.999999999999999];
//!
//! // Plain f64 summation depends on the physical order:
//! let s1: f64 = before.iter().sum();
//! let s2: f64 = after.iter().sum();
//! assert_ne!(s1.to_bits(), s2.to_bits()); // 0.999999999999999 vs 1.0!
//!
//! // Reproducible summation does not:
//! let r1 = reproducible_sum::<f64, 2>(&before);
//! let r2 = reproducible_sum::<f64, 2>(&after);
//! assert_eq!(r1.to_bits(), r2.to_bits());
//! ```
//!
//! GROUPBY operators built on these types live in the `rfa-agg` crate.

pub mod analysis;
pub mod buffer;
pub mod cancel;
pub mod cpu;
pub mod eft;
pub mod faults;
pub mod float;
pub mod knob;
pub mod repro;
pub mod rsum_paper;
pub mod simd;
pub mod tuning;
pub mod wire;

pub use buffer::SummationBuffer;
pub use cancel::CancelToken;
pub use cpu::{SimdLevel, SimdMode, SimdModeError};
pub use faults::FaultSpec;
pub use float::ReproFloat;
pub use knob::KnobError;
pub use repro::{reproducible_sum, ReproSum, Special};
pub use tuning::CacheModel;

/// Paper-named type aliases: `repro<float, L>` and `repro<double, L>`.
pub mod aliases {
    use crate::ReproSum;
    pub type ReproFloat1 = ReproSum<f32, 1>;
    pub type ReproFloat2 = ReproSum<f32, 2>;
    pub type ReproFloat3 = ReproSum<f32, 3>;
    pub type ReproFloat4 = ReproSum<f32, 4>;
    pub type ReproDouble1 = ReproSum<f64, 1>;
    pub type ReproDouble2 = ReproSum<f64, 2>;
    pub type ReproDouble3 = ReproSum<f64, 3>;
    pub type ReproDouble4 = ReproSum<f64, 4>;
}
