//! # blitzsplit — rapid bushy join-order optimization with Cartesian products
//!
//! Umbrella crate re-exporting the component libraries of this
//! reproduction of **Vance & Maier, SIGMOD 1996**:
//!
//! * [`core`] (`blitz-core`) — the blitzsplit optimizer itself: bit-vector
//!   relation sets, the flat DP table, the Cartesian-product and join
//!   optimizers, cost models, plan-cost thresholds, plan extraction;
//! * [`catalog`] (`blitz-catalog`) — join graphs, catalog statistics, the
//!   paper's deterministic benchmark-workload generator;
//! * [`baselines`] (`blitz-baselines`) — left-deep DP, DPsize, DPsub,
//!   greedy and stochastic comparison optimizers;
//! * [`exec`] (`blitz-exec`) — an in-memory execution engine that runs
//!   optimized plans over synthetic data;
//! * [`ladder`] (`blitz-ladder`) — the anytime optimality ladder: exact
//!   DP, IKKBZ-seeded block DP, and stochastic refinement under a shared
//!   budget, serving every query size up to `n = 100` with a reported
//!   optimality gap;
//! * [`service`] (`blitz-service`) — a concurrent optimizer service:
//!   fingerprint-keyed plan cache with single-flight deduplication, a
//!   bounded worker pool with admission control and greedy degradation,
//!   metrics, and a line-protocol TCP frontend (`blitzsplit serve`).
//!
//! The most common entry points are re-exported at the top level:
//!
//! ```
//! use blitzsplit::{optimize_join, JoinSpec, Kappa0};
//!
//! let spec = JoinSpec::new(
//!     &[1000.0, 50.0, 20.0],
//!     &[(0, 1, 0.01), (1, 2, 0.1)],
//! ).unwrap();
//! let best = optimize_join(&spec, &Kappa0).unwrap();
//! println!("{} at cost {}", best.plan, best.cost);
//! ```

#![warn(missing_docs)]

/// The core optimizer crate (`blitz-core`).
pub use blitz_core as core;

/// Join graphs, statistics and workloads (`blitz-catalog`).
pub use blitz_catalog as catalog;

/// Baseline optimizers (`blitz-baselines`).
pub use blitz_baselines as baselines;

/// The execution engine (`blitz-exec`).
pub use blitz_exec as exec;

/// The anytime optimality ladder (`blitz-ladder`).
pub use blitz_ladder as ladder;

/// The concurrent optimizer service (`blitz-service`).
pub use blitz_service as service;

pub use blitz_core::{
    optimize_join, optimize_join_threshold, optimize_join_threshold_with, optimize_join_with,
    optimize_products, optimize_products_with, CostModel, DiskNestedLoops, DriveOptions,
    DriverChoice, JoinSpec, Kappa0, LayoutChoice, Optimized, Plan, RelSet, SmDnl, SortMerge,
    ThresholdSchedule,
};
