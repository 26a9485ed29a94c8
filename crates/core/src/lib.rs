//! # blitz-core — rapid bushy join-order optimization with Cartesian products
//!
//! A faithful, production-quality implementation of
//! **Bennet Vance & David Maier, "Rapid Bushy Join-order Optimization with
//! Cartesian Products", SIGMOD 1996** — the *blitzsplit* algorithm.
//!
//! The optimizer searches the **complete** space of bushy join trees,
//! Cartesian products included, by dynamic programming over the `2^n`
//! subsets of the query's relations. What makes it fast is not asymptotics
//! (`O(3^n)` time, `O(2^n)` space) but constant factors:
//!
//! * relation sets are machine integers; the split loop steps through
//!   subsets with `succ(S_lhs) = S & (S_lhs − S)` ([`bitset`]);
//! * the DP table is a flat array indexed by those integers ([`table`]);
//! * predicate selectivities fold into intermediate cardinalities through
//!   the *fan* recurrence at three multiplies per subset, leaving the
//!   enumeration untouched ([`join`]);
//! * the split-dependent cost component `κ''` is evaluated only when the
//!   operand costs alone don't already disqualify a split ([`split`]);
//! * exorbitant plans are rejected by `f32` overflow — or, proactively, by
//!   plan-cost thresholds with re-optimization ([`threshold`]).
//!
//! ## Quick start
//!
//! ```
//! use blitz_core::{optimize_join, JoinSpec, Kappa0};
//!
//! // A 4-relation query: cardinalities and (pairwise) selectivities.
//! let spec = JoinSpec::new(
//!     &[10.0, 20.0, 30.0, 40.0],
//!     &[(0, 1, 0.1), (0, 2, 0.2), (1, 2, 0.3), (0, 3, 0.4)],
//! ).unwrap();
//!
//! let best = optimize_join(&spec, &Kappa0).unwrap();
//! println!("plan {} costs {}", best.plan, best.cost);
//! assert!(best.cost.is_finite());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod bitset;
pub mod calibrate;
pub mod cartesian;
#[cfg(any(blitz_check, debug_assertions))]
mod check;
pub mod conv;
pub mod cost;
pub mod hyper;
pub mod join;
pub mod ordered;
pub mod plan;
pub mod spec;
mod split;
pub mod stats;
pub mod table;
pub mod threshold;

pub use bitset::{RelSet, MAX_RELS};
pub use cartesian::{
    optimize_products, optimize_products_into, optimize_products_into_with,
    optimize_products_with, Optimized,
};
pub use calibrate::{calibrate, host_profile, CalibrateOptions, CalibrationProfile, PROFILE_ENV};
pub use conv::{DriverChoice, CONV_AUTO_MIN_RELS};
pub use cost::{ConvSupport, CostModel, DiskNestedLoops, JoinAlgorithm, Kappa0, SmDnl, SortMerge};
pub use hyper::{optimize_hyper, optimize_hyper_into, HyperSpec};
pub use join::{optimize_join, optimize_join_into, optimize_join_into_with, optimize_join_with};
pub use ordered::{optimize_ordered, optimize_ordered_naive, OrderedOptimized, OrderedPlan, OrderedSpec};
pub use plan::{AnnotatedPlan, Plan, PlanArena, PlanNodeId};
pub use spec::{JoinSpec, SpecError};
pub use split::{DriveOptions, KernelChoice};
pub use stats::{Counters, NoStats, Stats};
pub use table::{
    AosTable, CompactProductTable, HotColdTable, LayoutChoice, SoaTable, SyncTable, SyncTableView,
    TableLayout, WaveTableLayout, MAX_TABLE_RELS,
};
pub use threshold::{
    optimize_join_threshold, optimize_join_threshold_arena_with, optimize_join_threshold_into,
    optimize_join_threshold_into_with, optimize_join_threshold_reusing_with,
    optimize_join_threshold_with, ArenaThresholdOutcome, ThresholdOutcome, ThresholdSchedule,
};
