//! # rfa-agg — reproducible GROUPBY aggregation operators
//!
//! State-of-the-art in-memory aggregation operators (paper §IV–§V),
//! generic over the aggregate data type so that one operator implementation
//! covers the paper's whole comparison grid:
//!
//! * [`hash_aggregate`] — textbook HASHAGGREGATION over an open-addressing
//!   table with identity hashing (§IV);
//! * [`partition_serial`]/[`partition_parallel`] — radix PARALLELPARTITION
//!   with fan-out 256 per pass (§V-B);
//! * [`partition_and_aggregate`] — Algorithm 4: partition `d` times, hash-
//!   aggregate partitions into private tables, merge into the shared
//!   result;
//! * [`sort_aggregate`] — the sort-based reproducible baseline (§VI-A);
//! * [`AggFn`] implementations: plain sums ([`SumAgg`]), reproducible sums
//!   ([`ReproAgg`]), and buffered reproducible sums
//!   ([`BufferedReproAgg`], §V-A).
//!
//! With reproducible aggregate states, every operator here returns
//! bit-identical per-group sums for any permutation of the input, any
//! thread count, and any partitioning depth — the paper's definition of a
//! bit-reproducible GROUPBY (§II-A).
//!
//! ```
//! use rfa_agg::{partition_and_aggregate, GroupByConfig, ReproAgg};
//!
//! let keys = vec![0u32, 1, 0, 1, 0];
//! let values = vec![1e16, 1.0, 1.0, 2.5e-16, -1e16];
//! // L = 3 carries ~3·40 bits below the largest input, enough to keep the
//! // 1.0 alive next to 1e16 (plain f64 summation loses it).
//! let f = ReproAgg::<f64, 3>::new();
//! let cfg = GroupByConfig { groups_hint: 2, ..Default::default() };
//! let out = partition_and_aggregate(&f, &keys, &values, &cfg);
//! assert_eq!(out[0].0, 0);
//! assert_eq!(out[0].1, 1.0); // 1e16 + 1 - 1e16, captured exactly
//! ```

pub mod agg_fn;
pub mod derived;
pub mod hash_agg;
pub mod hash_table;
pub mod partition;
pub mod partition_agg;
mod simd_probe;
pub mod sort_agg;

pub use agg_fn::{AggFn, BufferedReproAgg, PlainSummable, ReproAgg, SumAgg};
pub use derived::{Moments, MomentsAgg};
pub use hash_agg::{hash_aggregate, hash_aggregate_states};
pub use hash_table::{AggHashTable, HashKind};
pub use partition::{partition_parallel, partition_serial, Partition};
pub use partition_agg::{partition_and_aggregate, GroupByConfig};
pub use sort_agg::{sort_aggregate, OrderedBits};
