//! # blitz-service — a concurrent optimizer service
//!
//! Wraps the `blitz-core` DP optimizer in the machinery a long-running
//! process needs, using only the standard library:
//!
//! * [`cache`] — a sharded LRU plan cache keyed by canonical query
//!   fingerprints ([`blitz_catalog::CanonicalQuery`]) with single-flight
//!   deduplication: N concurrent identical requests run exactly one
//!   optimization;
//! * [`pool`] — a fixed worker pool over a bounded job queue, the
//!   service's back-pressure mechanism;
//! * [`metrics`] — atomic counters and log₂ latency histograms with a
//!   [`MetricsSnapshot`] API;
//! * [`server`] — a line-protocol TCP frontend (`OPTIMIZE …`,
//!   `METRICS`, `PING`) plus a matching client.
//!
//! The entry point is [`OptimizerService::optimize`]: admission control
//! first (queries over the configured relation limit degrade to the
//! greedy `goo` baseline immediately — a *flagged* [`PlanSource`], never
//! an error), then a cache lookup, then either a cached plan, a shared
//! in-flight result, or a freshly scheduled optimization on the pool.
//! When the queue is full or a request's deadline expires while
//! waiting, the caller again degrades to the greedy baseline rather
//! than failing. Every path is visible in the metrics.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cache;
pub mod metrics;
#[cfg(unix)]
pub mod net;
pub mod pool;
pub mod server;
mod sync;
pub mod tables;

pub use blitz_ladder::{BigSpec, GapBasis, LadderConfig, LadderReport, Rung};
pub use cache::{ComputedPlan, Lookup, PlanCache, Reservation, Slot};
pub use metrics::{HistogramSnapshot, LatencyHistogram, Metrics, MetricsSnapshot};
pub use pool::WorkerPool;
pub use server::{Client, Frontend, Server, ServerOptions};
pub use tables::{AnyTable, PoolSlot, TablePool};

use blitz_baselines::goo;
use blitz_catalog::CanonicalQuery;
use blitz_core::{
    optimize_join_threshold_arena_with, AosTable, CalibrationProfile, ConvSupport, CostModel,
    Counters, DiskNestedLoops, DriveOptions, DriverChoice, HotColdTable, JoinSpec, Kappa0,
    KernelChoice, LayoutChoice, Plan, SmDnl, SoaTable, SortMerge, ThresholdSchedule,
    MAX_TABLE_RELS,
};
use blitz_ladder::{goo_big, optimize_ladder};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The cost models the service can dispatch on. [`CostModel`] is not
/// object-safe (associated consts drive monomorphization), so the
/// service names models by id and dispatches statically. Parameterized
/// models use their defaults (`DiskNestedLoops { k: 10, m: 100 }`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// The paper's κ₀ (output-cardinality) model.
    Kappa0,
    /// Sort-merge cost model.
    SortMerge,
    /// Disk nested loops with default blocking factor and memory.
    DiskNestedLoops,
    /// `min(κ_sm, κ_dnl)` per join (Section 6.5).
    SmDnl,
}

impl ModelId {
    /// Stable identifier, also used in query fingerprints and the wire
    /// protocol. Matches the `blitzsplit --model` names.
    pub fn name(&self) -> &'static str {
        match self {
            ModelId::Kappa0 => "k0",
            ModelId::SortMerge => "sm",
            ModelId::DiskNestedLoops => "dnl",
            ModelId::SmDnl => "smdnl",
        }
    }

    /// Inverse of [`ModelId::name`].
    pub fn parse(s: &str) -> Option<ModelId> {
        match s {
            "k0" | "kappa0" => Some(ModelId::Kappa0),
            "sm" => Some(ModelId::SortMerge),
            "dnl" => Some(ModelId::DiskNestedLoops),
            "smdnl" => Some(ModelId::SmDnl),
            _ => None,
        }
    }

    /// The [`CostModel::name`] of the model this id dispatches to — the
    /// key under which a [`CalibrationProfile`] stores its per-model
    /// `Auto` crossover. Distinct from the short wire id ([`name`]
    /// says `sm`, the cost model says `kappa_sm`).
    ///
    /// [`name`]: ModelId::name
    pub fn cost_model_name(&self) -> &'static str {
        match self {
            ModelId::Kappa0 => Kappa0.name(),
            ModelId::SortMerge => SortMerge.name(),
            ModelId::DiskNestedLoops => DiskNestedLoops::default().name(),
            ModelId::SmDnl => SmDnl::default().name(),
        }
    }

    /// The conv capability of the model this id dispatches to — the
    /// same `M::CONV_SUPPORT` the exact path sees after static
    /// dispatch, surfaced here so the service can resolve the driver
    /// disposition *before* monomorphization (cache key time).
    pub fn conv_support(&self) -> ConvSupport {
        match self {
            ModelId::Kappa0 => Kappa0::CONV_SUPPORT,
            ModelId::SortMerge => SortMerge::CONV_SUPPORT,
            ModelId::DiskNestedLoops => DiskNestedLoops::CONV_SUPPORT,
            ModelId::SmDnl => SmDnl::CONV_SUPPORT,
        }
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a request was answered by the greedy baseline instead of the
/// exact optimizer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// The query exceeded [`ServiceConfig::max_exact_rels`].
    OverLimit,
    /// The worker queue was full when the optimization was scheduled.
    QueueFull,
    /// The request's deadline expired before the optimization finished
    /// (the exact result may still land in the cache afterwards).
    DeadlineExceeded,
    /// The in-flight optimization this request was waiting on was
    /// discarded (service shutdown or a dropped queue-full job).
    Abandoned,
}

/// Where a response's plan came from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PlanSource {
    /// The exact DP optimizer (optimal).
    Exact,
    /// The greedy `goo` baseline, with the reason for degrading.
    Greedy(FallbackReason),
    /// The anytime ladder, tagged with the rung that produced the plan.
    /// Unlike [`PlanSource::Greedy`], this is a *serviced* over-limit
    /// query, not a degradation: [`Response::ladder`] carries the full
    /// optimality accounting.
    Ladder(Rung),
}

impl PlanSource {
    /// Wire-protocol string.
    pub fn name(&self) -> &'static str {
        match self {
            PlanSource::Exact => "exact",
            PlanSource::Greedy(FallbackReason::OverLimit) => "greedy_over_limit",
            PlanSource::Greedy(FallbackReason::QueueFull) => "greedy_queue_full",
            PlanSource::Greedy(FallbackReason::DeadlineExceeded) => "greedy_deadline",
            PlanSource::Greedy(FallbackReason::Abandoned) => "greedy_abandoned",
            PlanSource::Ladder(Rung::Greedy) => "ladder_greedy",
            PlanSource::Ladder(Rung::Exact) => "ladder_exact",
            PlanSource::Ladder(Rung::HybridDp) => "ladder_hybrid_dp",
            PlanSource::Ladder(Rung::Stochastic) => "ladder_stochastic",
        }
    }

    /// The provenance detail alone, without the family prefix: the
    /// fallback reason for greedy plans (`queue_full` vs `deadline` —
    /// previously only distinguishable by scraping metrics), the rung
    /// for ladder plans, `exact` for exact plans. Emitted as the wire
    /// response's `source_detail=` field.
    pub fn detail(&self) -> &'static str {
        match self {
            PlanSource::Exact => "exact",
            PlanSource::Greedy(FallbackReason::OverLimit) => "over_limit",
            PlanSource::Greedy(FallbackReason::QueueFull) => "queue_full",
            PlanSource::Greedy(FallbackReason::DeadlineExceeded) => "deadline",
            PlanSource::Greedy(FallbackReason::Abandoned) => "abandoned",
            PlanSource::Ladder(rung) => rung.name(),
        }
    }
}

/// Which DP driver actually ran an exact optimization, after
/// [`DriverChoice`] resolution against the cost model and query size.
/// Carried on [`Response`] (and cached plans) so clients can tell a
/// convolution-driven answer from a split-driven one without scraping
/// metrics.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExactDriver {
    /// The O(3^n) subset-split driver.
    Split,
    /// The layered-convolution driver on a model whose κ″ is natively
    /// orientation-free ([`ConvSupport::Native`]).
    Conv,
    /// The layered-convolution driver on a model that opted into the
    /// canonical-orientation reduction ([`ConvSupport::Canonical`]):
    /// same driver, κ″ evaluated on the lowest-relation-first operand
    /// order. Distinct on the wire so a measured regression can be
    /// attributed to the orientation discipline, not the driver.
    ConvCanonical,
    /// The request asked for [`DriverChoice::Conv`] but the cost model
    /// declines the convolution reduction, so the split driver ran
    /// instead. Distinct from [`ExactDriver::Split`] so the silent
    /// fallback is visible on the wire (`source_detail=conv_fallback`).
    ConvFallback,
}

impl ExactDriver {
    /// The `source_detail=` string for an exact response. Split keeps
    /// the historical `exact` so existing wire consumers see no change
    /// unless they opt into the conv driver.
    pub fn detail(&self) -> &'static str {
        match self {
            ExactDriver::Split => "exact",
            ExactDriver::Conv => "conv",
            ExactDriver::ConvCanonical => "conv_canonical",
            ExactDriver::ConvFallback => "conv_fallback",
        }
    }

    /// Whether the convolution driver actually ran (either conv
    /// variant). This is the predicate the `driver_conv` metric counts.
    pub fn is_conv(&self) -> bool {
        matches!(self, ExactDriver::Conv | ExactDriver::ConvCanonical)
    }
}

/// The service-boundary resolution of a request's DP-driver choice for
/// one `(model, n, options)` triple. Every driver-dependent artifact —
/// the cache fingerprint tag *and* the wire provenance — derives from
/// this one value, so the two can never drift apart (they used to be
/// assembled independently at the cache-key and exact-runner sites,
/// which is exactly how a new provenance variant could ship without a
/// matching cache namespace).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DriverDisposition {
    model: ModelId,
    /// The driver in effect, after any per-request override.
    requested: DriverChoice,
    /// Whether the request brought its own override (which gets its own
    /// fingerprint namespace — see [`Request::driver`]).
    overridden: bool,
    /// What actually runs, resolved exactly as the core resolves it.
    resolved: DriverChoice,
    support: ConvSupport,
}

impl DriverDisposition {
    /// Resolve against the options the optimization will run under.
    /// `options.driver` must already include any per-request override;
    /// the resolution mirrors the core's `RowEngine::resolve` (same
    /// support, size, and crossover inputs), which `run_exact` asserts
    /// in debug builds.
    pub fn new(
        model: ModelId,
        overridden: bool,
        options: &DriveOptions,
        n: usize,
    ) -> DriverDisposition {
        let support = model.conv_support();
        DriverDisposition {
            model,
            requested: options.driver,
            overridden,
            resolved: options.driver.resolve(support, n, options.conv_min_rels),
            support,
        }
    }

    /// The model tag the query fingerprint is keyed by. Overridden
    /// requests get their own `+driver=` namespace so a `driver=conv`
    /// answer (with conv provenance) is never served from a
    /// split-cached entry, and vice versa.
    pub fn fingerprint_tag(&self) -> std::borrow::Cow<'static, str> {
        if self.overridden {
            std::borrow::Cow::Owned(format!(
                "{}+driver={}",
                self.model.name(),
                self.requested.name()
            ))
        } else {
            std::borrow::Cow::Borrowed(self.model.name())
        }
    }

    /// The provenance an exact response reports (`source_detail=`).
    pub fn exact_driver(&self) -> ExactDriver {
        if self.resolved == DriverChoice::Conv {
            match self.support {
                ConvSupport::Canonical => ExactDriver::ConvCanonical,
                _ => ExactDriver::Conv,
            }
        } else if self.requested == DriverChoice::Conv {
            ExactDriver::ConvFallback
        } else {
            ExactDriver::Split
        }
    }
}

/// How the cache participated in a response.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Answered from a resident plan.
    Hit,
    /// This request ran (or attempted to run) the optimization.
    Miss,
    /// Joined another request's in-flight optimization.
    Shared,
    /// The cache was skipped (admission fallback).
    Bypass,
}

impl CacheOutcome {
    /// Wire-protocol string.
    pub fn name(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Shared => "shared",
            CacheOutcome::Bypass => "bypass",
        }
    }
}

/// One optimization request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The query statistics.
    pub spec: JoinSpec,
    /// Cost model to optimize under.
    pub model: ModelId,
    /// Threshold schedule; `None` uses [`ServiceConfig::default_schedule`].
    pub schedule: Option<ThresholdSchedule>,
    /// Give up waiting after this long and answer greedily; `None`
    /// waits until the optimization finishes.
    pub deadline: Option<Duration>,
    /// Per-request DP-driver override for the exact path; `None` uses
    /// [`ServiceConfig::driver`]. Overridden requests are fingerprinted
    /// separately, so a `driver=conv` answer is never served from a
    /// split-cached entry (and vice versa).
    pub driver: Option<DriverChoice>,
}

impl Request {
    /// Request with default model (κ₀), schedule, driver and no deadline.
    pub fn new(spec: JoinSpec) -> Request {
        Request { spec, model: ModelId::Kappa0, schedule: None, deadline: None, driver: None }
    }

    /// Service-boundary validation beyond what [`JoinSpec`] enforces at
    /// construction. `JoinSpec` deliberately admits selectivities above 1
    /// (the paper's Appendix workload generator uses them), but a service
    /// exposed to arbitrary clients must reject them: an expanding
    /// "selectivity" silently inflates every downstream cardinality.
    pub fn validate(&self) -> Result<(), RequestError> {
        for (i, j, sel) in self.spec.edges() {
            if !(sel > 0.0 && sel <= 1.0) {
                return Err(RequestError::SelectivityOutOfRange { i, j, sel });
            }
        }
        Ok(())
    }
}

/// A request rejected by [`Request::validate`] /
/// [`OptimizerService::try_optimize`] before reaching the optimizer.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestError {
    /// A join selectivity outside the meaningful range `(0, 1]`.
    SelectivityOutOfRange {
        /// First relation of the offending predicate.
        i: usize,
        /// Second relation of the offending predicate.
        j: usize,
        /// The rejected (effective) selectivity.
        sel: f64,
    },
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::SelectivityOutOfRange { i, j, sel } => {
                write!(f, "selectivity {sel} on edge {i},{j} outside (0, 1]")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// One optimization response. The plan is always in the *request's*
/// relation numbering, whatever canonical form the cache used.
#[derive(Clone, Debug)]
pub struct Response {
    /// The chosen plan.
    pub plan: Plan,
    /// Its cost under the request's model.
    pub cost: f32,
    /// Result cardinality.
    pub card: f64,
    /// Threshold passes run (0 when the plan is greedy).
    pub passes: u32,
    /// Exact, flagged-greedy, or ladder provenance.
    pub source: PlanSource,
    /// Which DP driver produced an exact plan ([`PlanSource::Exact`]
    /// only; `None` on greedy and ladder paths). Cache hits report the
    /// driver that ran the original optimization.
    pub driver: Option<ExactDriver>,
    /// The cache's role in this response.
    pub cache: CacheOutcome,
    /// Ladder accounting when the plan came from the anytime ladder
    /// ([`PlanSource::Ladder`]); `None` on every other path.
    pub ladder: Option<LadderInfo>,
    /// End-to-end service time for this request.
    pub elapsed: Duration,
}

/// The anytime ladder's optimality accounting, surfaced on the wire so
/// clients learn *how good* an over-limit plan is, not just that the
/// exact path was skipped.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LadderInfo {
    /// The rung that produced the returned plan.
    pub rung: Rung,
    /// The highest rung that ran (≥ `rung`).
    pub rung_reached: Rung,
    /// Optimality gap: 0 against the exact optimum when rung 1 ran,
    /// else `cost / greedy − 1 ≤ 0` against the greedy seed.
    pub gap: f32,
    /// Which bound `gap` is measured against.
    pub gap_basis: GapBasis,
    /// Cost of the greedy seed the ladder started from (what the bare
    /// over-limit degradation would have returned).
    pub greedy_cost: f32,
    /// Rung-3 move proposals consumed.
    pub refine_steps: u64,
    /// Rung-2 block sub-problems solved exactly.
    pub dp_blocks: u64,
    /// Wall-clock time spent inside the ladder itself.
    pub spent: Duration,
}

/// An optimization request for a query too large for [`JoinSpec`]'s
/// bit-set representation (`n > MAX_RELS`). Big requests always bypass
/// the plan cache and are answered by the anytime ladder when
/// [`ServiceConfig::ladder`] is set, else by the flagged greedy
/// baseline.
#[derive(Clone, Debug)]
pub struct BigRequest {
    /// The query statistics (up to [`blitz_ladder::MAX_BIG_RELS`]).
    pub spec: BigSpec,
    /// Cost model to optimize under.
    pub model: ModelId,
    /// Wall-clock budget for the ladder (intersected with the
    /// configured per-request ladder budget); `None` leaves the
    /// configured budget alone.
    pub deadline: Option<Duration>,
}

impl BigRequest {
    /// Request with the default model (κ₀) and no deadline.
    pub fn new(spec: BigSpec) -> BigRequest {
        BigRequest { spec, model: ModelId::Kappa0, deadline: None }
    }

    /// Service-boundary validation, mirroring [`Request::validate`].
    pub fn validate(&self) -> Result<(), RequestError> {
        for (i, j, sel) in self.spec.edges() {
            if !(sel > 0.0 && sel <= 1.0) {
                return Err(RequestError::SelectivityOutOfRange { i, j, sel });
            }
        }
        Ok(())
    }
}

/// Construction-time knobs for [`OptimizerService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Optimizer worker threads (≥ 1).
    pub workers: usize,
    /// Bounded job-queue length; 0 forces every miss to the greedy path.
    pub queue_capacity: usize,
    /// Completed plans the cache retains (LRU).
    pub cache_capacity: usize,
    /// Cache shard count (lock-contention spread).
    pub cache_shards: usize,
    /// Admission limit: queries with more relations than this answer
    /// greedily. Clamped to [`MAX_TABLE_RELS`].
    ///
    /// The exact path is `O(3^n)`, so every relation added here costs
    /// roughly 3× more worst-case CPU per cache miss; keep this modest
    /// (≤ 18) on deployments configured serial (`parallelism == 1`),
    /// where no rank-wave fan-out absorbs the growth.
    pub max_exact_rels: usize,
    /// Schedule for requests that do not bring their own.
    pub default_schedule: ThresholdSchedule,
    /// Worker threads for the rank-wave parallel DP driver on large
    /// queries (`0` = auto-detect, `1` = always serial).
    pub parallelism: usize,
    /// Queries with at least this many relations run through the
    /// parallel driver (when [`ServiceConfig::parallelism`] allows);
    /// smaller tables fill faster serially than the waves synchronize.
    pub parallel_min_rels: usize,
    /// DP-table layout for the exact path. Defaults to
    /// [`LayoutChoice::HotCold`] — the cache-conscious hot/cold split —
    /// which is bit-identical to the other layouts (the layout-
    /// equivalence suite enforces this), so it is purely a perf knob.
    pub layout: LayoutChoice,
    /// Unused: [`KernelChoice`] has one variant, the scalar cascade,
    /// and the service never reads this field. Kept only because the
    /// service benchmark in `perfbench/` still reads it; nothing else
    /// may.
    pub kernel: KernelChoice,
    /// DP driver for the exact path. Defaults to [`DriverChoice::Auto`],
    /// which picks the layered-convolution driver when the cost model
    /// supports the reduction exactly and the query is large enough to
    /// benefit, and the split driver otherwise. Cost columns are
    /// bit-identical either way (the driver-equivalence suite enforces
    /// this), so this is purely a perf knob; requests can still override
    /// it per query via [`Request::driver`].
    pub driver: DriverChoice,
    /// A measured host calibration profile (from `blitzsplit
    /// calibrate`, loaded at startup via `serve --profile`). When set,
    /// its measured per-model `Auto` crossovers replace the
    /// compiled-constant default on the exact path; [`layout`](ServiceConfig::layout) and
    /// [`driver`](ServiceConfig::driver) stay config-driven, and
    /// per-request [`Request::driver`] overrides still win. `None`
    /// keeps the compiled constants.
    pub profile: Option<CalibrationProfile>,
    /// Anytime-ladder settings for queries over
    /// [`max_exact_rels`](ServiceConfig::max_exact_rels). `None` (the
    /// default, preserving prior behavior) degrades such queries to the
    /// bare greedy baseline; `Some` routes them through the anytime
    /// ladder instead, answering with ladder provenance and an
    /// optimality gap rather than an unqualified greedy plan.
    pub ladder: Option<LadderSettings>,
}

/// Per-request budgets for the service's anytime ladder (see
/// [`ServiceConfig::ladder`]). These map onto [`LadderConfig`]; the
/// rung-1 gate always follows [`ServiceConfig::max_exact_rels`].
#[derive(Clone, Debug)]
pub struct LadderSettings {
    /// Rung-2 block-DP window size (each block is an exact `O(3^k)`
    /// sub-problem; keep it in the low teens).
    pub dp_window: usize,
    /// Rung-2 boundary-shifted sweeps; `0` disables the rung.
    pub dp_rounds: usize,
    /// Rung-3 stochastic proposal budget; `0` disables the rung.
    pub refine_steps: u64,
    /// PRNG seed for rung 3 (fixed per service for reproducibility).
    pub seed: u64,
    /// Wall-clock ceiling per ladder run, intersected with the
    /// request's own deadline; `None` trusts the work budgets alone and
    /// keeps the ladder fully deterministic.
    pub budget: Option<Duration>,
}

impl Default for LadderSettings {
    fn default() -> LadderSettings {
        let d = LadderConfig::default();
        LadderSettings {
            dp_window: d.dp_window,
            dp_rounds: d.dp_rounds,
            refine_steps: d.refine_steps,
            seed: d.seed,
            budget: Some(Duration::from_millis(250)),
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
        ServiceConfig {
            workers: cores,
            queue_capacity: 256,
            cache_capacity: 1024,
            cache_shards: 8,
            // On multi-core hosts the rank-wave parallel driver (default
            // `parallelism: 0` = auto) absorbs the exact path's O(3^n)
            // growth, so it stretches further before degrading to
            // greedy; a single-core host keeps the serial-era limit.
            max_exact_rels: if cores >= 2 { 20 } else { 18 },
            default_schedule: ThresholdSchedule::default(),
            parallelism: 0,
            parallel_min_rels: 15,
            layout: LayoutChoice::HotCold,
            kernel: KernelChoice::Scalar,
            driver: DriverChoice::Auto,
            profile: None,
            ladder: None,
        }
    }
}

/// The concurrent optimizer service: cache + pool + metrics behind one
/// synchronous [`optimize`](OptimizerService::optimize) call.
pub struct OptimizerService {
    config: ServiceConfig,
    cache: Arc<PlanCache>,
    pool: WorkerPool,
    tables: Arc<TablePool>,
    metrics: Arc<Metrics>,
}

impl OptimizerService {
    /// Build a service from `config` (see [`ServiceConfig::default`]).
    pub fn new(mut config: ServiceConfig) -> OptimizerService {
        config.max_exact_rels = config.max_exact_rels.min(MAX_TABLE_RELS);
        let cache = PlanCache::new(config.cache_capacity, config.cache_shards);
        let pool = WorkerPool::new(config.workers.max(1), config.queue_capacity);
        OptimizerService {
            config,
            cache,
            pool,
            tables: Arc::new(TablePool::default()),
            metrics: Arc::new(Metrics::default()),
        }
    }

    /// The effective configuration (after clamping).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Point-in-time metrics, including queue-depth and cache gauges.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot(self.pool.depth(), self.cache.len());
        snap.pool_steals = self.pool.steals();
        snap.worker_panics = self.pool.panics();
        snap
    }

    /// The live metrics registry. Frontends record connection-level
    /// events (accepts, refusals, transient accept errors, batches)
    /// here; tests read it to assert on behavior without scraping the
    /// wire.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// [`optimize`](OptimizerService::optimize) with service-boundary
    /// validation: rejects requests whose spec carries selectivities
    /// outside `(0, 1]` instead of optimizing over poisoned estimates.
    pub fn try_optimize(&self, req: &Request) -> Result<Response, RequestError> {
        req.validate()?;
        Ok(self.optimize(req))
    }

    /// The [`DriveOptions`] an exact optimization of `n` relations runs
    /// under: the rank-wave parallel driver for large tables, the serial
    /// driver otherwise.
    ///
    /// Always config-driven, never env-driven: a service configured
    /// serial (`parallelism == 1`) — and every query below
    /// `parallel_min_rels` — must stay serial even when the process-wide
    /// `BLITZ_TEST_THREADS` override (honored by
    /// [`DriveOptions::default`]) is set. A loaded
    /// [`profile`](ServiceConfig::profile) overlays the *model's own*
    /// measured `Auto` crossover last.
    fn drive_options(&self, n: usize, model: ModelId) -> DriveOptions {
        let options = if n >= self.config.parallel_min_rels && self.config.parallelism != 1 {
            DriveOptions::parallel(self.config.parallelism)
        } else {
            DriveOptions::serial()
        };
        let options = options.with_layout(self.config.layout).with_driver(self.config.driver);
        match &self.config.profile {
            Some(profile) => profile.apply(options, model.cost_model_name()),
            None => options,
        }
    }

    /// Optimize one request. Never fails: every degraded path returns a
    /// valid (greedy) plan flagged in [`Response::source`].
    pub fn optimize(&self, req: &Request) -> Response {
        let start = Instant::now();
        self.metrics.requests.fetch_add(1, Relaxed);

        // Admission control: too-large queries never reach the full DP
        // path. With a ladder configured they are *served* (block DP +
        // stochastic refinement, with provenance); without one they
        // degrade to the flagged greedy baseline as before.
        if req.spec.n() > self.config.max_exact_rels {
            self.metrics.cache_bypass.fetch_add(1, Relaxed);
            if let Some(settings) = &self.config.ladder {
                let big = BigSpec::from_spec(&req.spec);
                return self.ladder_response(&big, req.model, settings, req.deadline, start);
            }
            self.metrics.fallback_over_limit.fetch_add(1, Relaxed);
            return self.greedy_response(req, FallbackReason::OverLimit, CacheOutcome::Bypass, start);
        }

        let schedule = req.schedule.unwrap_or(self.config.default_schedule);
        // One disposition drives both the cache namespace and the
        // provenance the job will report — deriving them from separate
        // sites is how the two once could drift.
        let mut options = self.drive_options(req.spec.n(), req.model);
        if let Some(d) = req.driver {
            options = options.with_driver(d);
        }
        let disposition =
            DriverDisposition::new(req.model, req.driver.is_some(), &options, req.spec.n());
        let canon =
            CanonicalQuery::new(&req.spec, &disposition.fingerprint_tag(), Some(&schedule));

        match self.cache.lookup_or_reserve(canon.fingerprint()) {
            Lookup::Hit(cp) => {
                self.metrics.cache_hits.fetch_add(1, Relaxed);
                self.respond_from(&canon, &cp, CacheOutcome::Hit, start)
            }
            Lookup::Wait(slot) => {
                self.metrics.cache_shared.fetch_add(1, Relaxed);
                self.await_slot(req, &canon, &slot, CacheOutcome::Shared, start)
            }
            Lookup::Reserved(reservation) => {
                self.metrics.cache_misses.fetch_add(1, Relaxed);
                let slot = reservation.slot();
                let job = self.make_job(req, &canon, schedule, options, &disposition, reservation);
                if self.pool.submit(job).is_err() {
                    // Queue full: drop the job (waking any waiters
                    // empty-handed via the reservation's Drop) and
                    // answer greedily ourselves.
                    self.metrics.fallback_queue_full.fetch_add(1, Relaxed);
                    return self.greedy_response(
                        req,
                        FallbackReason::QueueFull,
                        CacheOutcome::Miss,
                        start,
                    );
                }
                self.await_slot(req, &canon, &slot, CacheOutcome::Miss, start)
            }
        }
    }

    /// [`optimize_big`](OptimizerService::optimize_big) with
    /// service-boundary validation, mirroring
    /// [`try_optimize`](OptimizerService::try_optimize).
    pub fn try_optimize_big(&self, req: &BigRequest) -> Result<Response, RequestError> {
        req.validate()?;
        Ok(self.optimize_big(req))
    }

    /// Optimize a query of any size up to [`blitz_ladder::MAX_BIG_RELS`]
    /// relations. Queries that fit [`JoinSpec`] *and* the admission
    /// limit delegate to the cached exact path
    /// ([`optimize`](OptimizerService::optimize)); larger ones bypass
    /// the cache and run the anytime ladder when configured, else the
    /// flagged greedy baseline. Never fails.
    pub fn optimize_big(&self, req: &BigRequest) -> Response {
        if let Some(spec) = req.spec.to_join_spec() {
            if spec.n() <= self.config.max_exact_rels {
                let small = Request {
                    spec,
                    model: req.model,
                    schedule: None,
                    deadline: req.deadline,
                    driver: None,
                };
                return self.optimize(&small);
            }
        }
        let start = Instant::now();
        self.metrics.requests.fetch_add(1, Relaxed);
        self.metrics.cache_bypass.fetch_add(1, Relaxed);
        if let Some(settings) = &self.config.ladder {
            return self.ladder_response(&req.spec, req.model, settings, req.deadline, start);
        }
        self.metrics.fallback_over_limit.fetch_add(1, Relaxed);
        self.greedy_big_response(&req.spec, req.model, FallbackReason::OverLimit, start)
    }

    /// Run the anytime ladder inline on the calling thread (its budgets
    /// bound the work; over-limit queries bypass the worker pool the
    /// same way the greedy fallback always has) and package the report.
    fn ladder_response(
        &self,
        spec: &BigSpec,
        model: ModelId,
        settings: &LadderSettings,
        deadline: Option<Duration>,
        start: Instant,
    ) -> Response {
        let wall_clock = match (settings.budget, deadline) {
            (Some(b), Some(d)) => Some(b.min(d)),
            (b, d) => b.or(d),
        };
        let cfg = LadderConfig {
            max_exact_rels: self.config.max_exact_rels,
            dp_window: settings.dp_window,
            dp_rounds: settings.dp_rounds,
            refine_steps: settings.refine_steps,
            seed: settings.seed,
            wall_clock,
            // Config-driven like the exact path: the ladder's rung-1
            // gate must not pick up the BLITZ_TEST_DRIVER env override
            // that LadderConfig::default() honors for tests.
            driver: self.config.driver,
            ..LadderConfig::default()
        };
        let report = run_ladder(spec, model, &cfg);
        self.metrics.record_ladder(
            report.rung.index(),
            report.spent.refine_steps,
            report.spent.dp_blocks,
            report.spent.elapsed,
        );
        let elapsed = start.elapsed();
        self.metrics.request_latency.record(elapsed);
        Response {
            cost: report.cost,
            card: report.card,
            passes: 0,
            source: PlanSource::Ladder(report.rung),
            driver: None,
            cache: CacheOutcome::Bypass,
            ladder: Some(LadderInfo {
                rung: report.rung,
                rung_reached: report.rung_reached,
                gap: report.gap,
                gap_basis: report.gap_basis,
                greedy_cost: report.greedy_cost,
                refine_steps: report.spent.refine_steps,
                dp_blocks: report.spent.dp_blocks,
                spent: report.spent.elapsed,
            }),
            elapsed,
            plan: report.plan,
        }
    }

    /// Inline greedy fallback for a big query with no ladder configured.
    fn greedy_big_response(
        &self,
        spec: &BigSpec,
        model: ModelId,
        reason: FallbackReason,
        start: Instant,
    ) -> Response {
        let (plan, cost) = run_goo_big(spec, model);
        let (card, _) = big_plan_cost(spec, &plan, model);
        let elapsed = start.elapsed();
        self.metrics.request_latency.record(elapsed);
        Response {
            plan,
            cost,
            card,
            passes: 0,
            source: PlanSource::Greedy(reason),
            driver: None,
            cache: CacheOutcome::Bypass,
            ladder: None,
            elapsed,
        }
    }

    /// Package the exact optimization as a pool job owning its cache
    /// reservation.
    fn make_job(
        &self,
        req: &Request,
        canon: &CanonicalQuery,
        schedule: ThresholdSchedule,
        options: DriveOptions,
        disposition: &DriverDisposition,
        reservation: Reservation,
    ) -> pool::Job {
        let spec = req.spec.clone();
        let model = req.model;
        let canon = canon.clone();
        let metrics = Arc::clone(&self.metrics);
        let tables = Arc::clone(&self.tables);
        let driver = disposition.exact_driver();
        Box::new(move || {
            let started = Instant::now();
            let (plan, cost, card, passes, counters) =
                run_exact(&spec, model, schedule, options, driver, &tables, &metrics);
            metrics.record_optimization(&counters, passes, started.elapsed());
            reservation.fulfill_cached(ComputedPlan {
                plan: canon.to_canonical(&plan),
                cost,
                card,
                passes,
                exact: true,
                driver: Some(driver),
            });
        })
    }

    /// Wait for an in-flight optimization, honoring the request
    /// deadline; degrade greedily on timeout or abandonment.
    fn await_slot(
        &self,
        req: &Request,
        canon: &CanonicalQuery,
        slot: &Slot,
        cache: CacheOutcome,
        start: Instant,
    ) -> Response {
        let remaining = req.deadline.map(|d| d.saturating_sub(start.elapsed()));
        match slot.wait(remaining) {
            Some(cp) => self.respond_from(canon, &cp, cache, start),
            None => {
                let deadline_expired =
                    req.deadline.is_some_and(|d| start.elapsed() >= d);
                let reason = if deadline_expired {
                    self.metrics.fallback_deadline.fetch_add(1, Relaxed);
                    FallbackReason::DeadlineExceeded
                } else {
                    self.metrics.fallback_queue_full.fetch_add(1, Relaxed);
                    FallbackReason::Abandoned
                };
                self.greedy_response(req, reason, cache, start)
            }
        }
    }

    /// Map a (canonical-space) cached plan into the requester's space.
    fn respond_from(
        &self,
        canon: &CanonicalQuery,
        cp: &ComputedPlan,
        cache: CacheOutcome,
        start: Instant,
    ) -> Response {
        let source = if cp.exact {
            PlanSource::Exact
        } else {
            PlanSource::Greedy(FallbackReason::QueueFull)
        };
        let elapsed = start.elapsed();
        self.metrics.request_latency.record(elapsed);
        Response {
            plan: canon.to_original(&cp.plan),
            cost: cp.cost,
            card: cp.card,
            passes: cp.passes,
            source,
            driver: cp.driver,
            cache,
            ladder: None,
            elapsed,
        }
    }

    /// Inline greedy fallback (runs on the calling thread; `goo` is
    /// O(n³) and effectively instant at service scales).
    fn greedy_response(
        &self,
        req: &Request,
        reason: FallbackReason,
        cache: CacheOutcome,
        start: Instant,
    ) -> Response {
        let (plan, cost) = run_greedy(&req.spec, req.model);
        let card = req.spec.join_cardinality(req.spec.all_rels());
        let elapsed = start.elapsed();
        self.metrics.request_latency.record(elapsed);
        Response {
            plan,
            cost,
            card,
            passes: 0,
            source: PlanSource::Greedy(reason),
            driver: None,
            cache,
            ladder: None,
            elapsed,
        }
    }
}

fn run_exact(
    spec: &JoinSpec,
    model: ModelId,
    schedule: ThresholdSchedule,
    options: DriveOptions,
    driver: ExactDriver,
    tables: &TablePool,
    metrics: &Metrics,
) -> (Plan, f32, f64, u32, Counters) {
    fn go<L: PoolSlot, M: CostModel + Sync>(
        spec: &JoinSpec,
        model: &M,
        schedule: ThresholdSchedule,
        options: DriveOptions,
        driver: ExactDriver,
        tables: &TablePool,
        metrics: &Metrics,
    ) -> (Plan, f32, f64, u32, Counters) {
        // The disposition was resolved once at the service boundary
        // ([`DriverDisposition`]); here — with the concrete model in
        // hand — assert it matches what the core itself will resolve
        // from the same inputs before trusting it for metrics.
        debug_assert_eq!(
            options.driver.resolve(model.conv_support(), spec.n(), options.conv_min_rels)
                == DriverChoice::Conv,
            driver.is_conv(),
            "service disposition disagrees with core driver resolution"
        );
        let driver_counter =
            if driver.is_conv() { &metrics.driver_conv } else { &metrics.driver_split };
        driver_counter.fetch_add(1, Relaxed);
        let (mut table, recycled) = tables.take::<L>(spec.n());
        let counter =
            if recycled { &metrics.table_pool_hits } else { &metrics.table_pool_misses };
        counter.fetch_add(1, Relaxed);
        let mut arena = tables.take_arena();
        let mut counters = Counters::default();
        let out = optimize_join_threshold_arena_with::<L, M, Counters, true>(
            &mut table, &mut arena, spec, model, schedule, options, &mut counters,
        );
        // The one allocation left on a warm hot path: the owned plan the
        // cache keeps across requests. It happens once per cache miss;
        // the optimize-and-extract work itself is allocation-free (the
        // `no_alloc` suite pins that).
        let plan = arena.to_plan(out.root);
        tables.put(table);
        tables.put_arena(arena);
        (plan, out.cost, out.card, out.passes, counters)
    }
    // Static double dispatch: model × layout, all monomorphized. Every
    // combination is bit-identical in results; the layout only moves
    // bytes around in memory.
    fn by_layout<M: CostModel + Sync>(
        spec: &JoinSpec,
        model: &M,
        schedule: ThresholdSchedule,
        options: DriveOptions,
        driver: ExactDriver,
        tables: &TablePool,
        metrics: &Metrics,
    ) -> (Plan, f32, f64, u32, Counters) {
        match options.layout {
            LayoutChoice::Aos => {
                go::<AosTable, M>(spec, model, schedule, options, driver, tables, metrics)
            }
            LayoutChoice::Soa => {
                go::<SoaTable, M>(spec, model, schedule, options, driver, tables, metrics)
            }
            LayoutChoice::HotCold => {
                go::<HotColdTable, M>(spec, model, schedule, options, driver, tables, metrics)
            }
        }
    }
    match model {
        ModelId::Kappa0 => by_layout(spec, &Kappa0, schedule, options, driver, tables, metrics),
        ModelId::SortMerge => by_layout(spec, &SortMerge, schedule, options, driver, tables, metrics),
        ModelId::DiskNestedLoops => {
            by_layout(spec, &DiskNestedLoops::default(), schedule, options, driver, tables, metrics)
        }
        ModelId::SmDnl => {
            by_layout(spec, &SmDnl::default(), schedule, options, driver, tables, metrics)
        }
    }
}

fn run_greedy(spec: &JoinSpec, model: ModelId) -> (Plan, f32) {
    match model {
        ModelId::Kappa0 => goo(spec, &Kappa0),
        ModelId::SortMerge => goo(spec, &SortMerge),
        ModelId::DiskNestedLoops => goo(spec, &DiskNestedLoops::default()),
        ModelId::SmDnl => goo(spec, &SmDnl::default()),
    }
}

fn run_ladder(spec: &BigSpec, model: ModelId, cfg: &LadderConfig) -> LadderReport {
    match model {
        ModelId::Kappa0 => optimize_ladder(spec, &Kappa0, cfg),
        ModelId::SortMerge => optimize_ladder(spec, &SortMerge, cfg),
        ModelId::DiskNestedLoops => optimize_ladder(spec, &DiskNestedLoops::default(), cfg),
        ModelId::SmDnl => optimize_ladder(spec, &SmDnl::default(), cfg),
    }
}

fn run_goo_big(spec: &BigSpec, model: ModelId) -> (Plan, f32) {
    match model {
        ModelId::Kappa0 => goo_big(spec, &Kappa0),
        ModelId::SortMerge => goo_big(spec, &SortMerge),
        ModelId::DiskNestedLoops => goo_big(spec, &DiskNestedLoops::default()),
        ModelId::SmDnl => goo_big(spec, &SmDnl::default()),
    }
}

fn big_plan_cost(spec: &BigSpec, plan: &Plan, model: ModelId) -> (f64, f32) {
    match model {
        ModelId::Kappa0 => spec.plan_cost(plan, &Kappa0),
        ModelId::SortMerge => spec.plan_cost(plan, &SortMerge),
        ModelId::DiskNestedLoops => spec.plan_cost(plan, &DiskNestedLoops::default()),
        ModelId::SmDnl => spec.plan_cost(plan, &SmDnl::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_id_roundtrips() {
        for id in [ModelId::Kappa0, ModelId::SortMerge, ModelId::DiskNestedLoops, ModelId::SmDnl] {
            assert_eq!(ModelId::parse(id.name()), Some(id));
            assert_eq!(format!("{id}"), id.name());
        }
        assert_eq!(ModelId::parse("nope"), None);
    }

    /// The service's pre-dispatch capability probe must agree with the
    /// concrete models the exact path monomorphizes over — this is the
    /// contract `DriverDisposition` (and the cache key derived from it)
    /// rests on.
    #[test]
    fn model_id_capabilities_match_the_dispatched_models() {
        assert_eq!(ModelId::Kappa0.conv_support(), Kappa0.conv_support());
        assert_eq!(ModelId::SortMerge.conv_support(), SortMerge.conv_support());
        assert_eq!(
            ModelId::DiskNestedLoops.conv_support(),
            DiskNestedLoops::default().conv_support()
        );
        assert_eq!(ModelId::SmDnl.conv_support(), SmDnl::default().conv_support());
        assert_eq!(ModelId::Kappa0.cost_model_name(), "kappa0");
        assert_eq!(ModelId::SortMerge.cost_model_name(), "kappa_sm");
        assert_eq!(ModelId::DiskNestedLoops.cost_model_name(), "kappa_dnl");
        assert_eq!(ModelId::SmDnl.cost_model_name(), "min(kappa_sm,kappa_dnl)");
    }

    /// One disposition value yields both the cache tag and the wire
    /// provenance, for every (model capability × request) combination.
    #[test]
    fn driver_disposition_derives_tag_and_provenance_together() {
        let at = |model: ModelId, driver: Option<DriverChoice>, n: usize| {
            // Mirror the service default (`ServiceConfig::driver: Auto`)
            // and then the per-request override, as `optimize` does.
            let mut options = DriveOptions::serial().with_driver(DriverChoice::Auto);
            if let Some(d) = driver {
                options = options.with_driver(d);
            }
            DriverDisposition::new(model, driver.is_some(), &options, n)
        };

        // Auto on a Native model: conv above the crossover, split below.
        let big = at(ModelId::Kappa0, None, 16);
        assert_eq!(big.exact_driver(), ExactDriver::Conv);
        assert_eq!(big.fingerprint_tag(), "k0");
        let small = at(ModelId::Kappa0, None, 3);
        assert_eq!(small.exact_driver(), ExactDriver::Split);

        // Auto on a Canonical model reports the canonical variant —
        // conv runs natively, no fallback.
        let sm = at(ModelId::SortMerge, None, 16);
        assert_eq!(sm.exact_driver(), ExactDriver::ConvCanonical);
        assert!(sm.exact_driver().is_conv());
        assert_eq!(sm.exact_driver().detail(), "conv_canonical");
        assert_eq!(sm.fingerprint_tag(), "sm");

        // A forced-conv request is namespaced and keeps its provenance
        // even below the Auto crossover.
        let forced = at(ModelId::SmDnl, Some(DriverChoice::Conv), 3);
        assert_eq!(forced.exact_driver(), ExactDriver::ConvCanonical);
        assert_eq!(forced.fingerprint_tag(), "smdnl+driver=conv");

        // Forced split is namespaced too and reports plain `exact`.
        let split = at(ModelId::SortMerge, Some(DriverChoice::Split), 16);
        assert_eq!(split.exact_driver(), ExactDriver::Split);
        assert_eq!(split.exact_driver().detail(), "exact");
        assert_eq!(split.fingerprint_tag(), "sm+driver=split");
    }

    /// A loaded calibration profile rewires the exact path's `Auto`
    /// crossover per model: the profiled crossover decides whether `Auto`
    /// picks conv for that model, without touching other models.
    #[test]
    fn service_profile_overrides_auto_crossover_per_model() {
        let profile = CalibrationProfile {
            conv_min_rels: Some(4),
            per_model: vec![("kappa_sm".to_string(), 30)],
        };
        let service = OptimizerService::new(ServiceConfig {
            workers: 1,
            profile: Some(profile),
            ..Default::default()
        });
        // kappa_sm's measured crossover (30) keeps Auto on split at
        // n=8; the profile default (4) pushes every other model to
        // conv at the same size.
        let sm = service.drive_options(8, ModelId::SortMerge);
        assert_eq!(sm.conv_min_rels, 30);
        assert_eq!(
            DriverDisposition::new(ModelId::SortMerge, false, &sm, 8).exact_driver(),
            ExactDriver::Split
        );
        let k0 = service.drive_options(8, ModelId::Kappa0);
        assert_eq!(k0.conv_min_rels, 4);
        assert_eq!(
            DriverDisposition::new(ModelId::Kappa0, false, &k0, 8).exact_driver(),
            ExactDriver::Conv
        );
        // End to end: the sm request must actually answer exactly (and
        // report split provenance) under the profiled crossover.
        let cards: Vec<f64> = (0..8).map(|i| 10.0 + i as f64).collect();
        let edges: Vec<(usize, usize, f64)> = (0..7).map(|i| (i, i + 1, 0.01)).collect();
        let spec = JoinSpec::new(&cards, &edges).unwrap();
        let resp = service
            .optimize(&Request { model: ModelId::SortMerge, ..Request::new(spec) });
        assert_eq!(resp.source, PlanSource::Exact);
        assert_eq!(resp.driver, Some(ExactDriver::Split));
    }

    /// With the canonical-orientation reduction every shipped model
    /// takes the conv path at size: a κ″ model answers with
    /// `conv_canonical` provenance and the `driver_conv` metric counts
    /// it — no silent split fallback left in the fleet.
    #[test]
    fn canonical_models_take_conv_at_size() {
        let n = 12;
        let cards: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 0.02)).collect();
        let spec = JoinSpec::new(&cards, &edges).unwrap();
        let service = OptimizerService::new(ServiceConfig { workers: 1, ..Default::default() });
        for model in [ModelId::SortMerge, ModelId::DiskNestedLoops, ModelId::SmDnl] {
            let resp = service.optimize(&Request { model, ..Request::new(spec.clone()) });
            assert_eq!(resp.source, PlanSource::Exact);
            assert_eq!(
                resp.driver,
                Some(ExactDriver::ConvCanonical),
                "{model} must ride conv canonically at n={n}"
            );
            // Conv plans are cost-optimal even when tie-breaks differ
            // from split: re-cost against the split reference.
            let direct = blitz_core::optimize_join_threshold_with(
                &spec,
                &SortMerge,
                ThresholdSchedule::default(),
                DriveOptions::serial().with_driver(DriverChoice::Split),
            )
            .unwrap();
            if model == ModelId::SortMerge {
                assert_eq!(resp.cost, direct.optimized.cost);
            }
        }
        let snap = service.snapshot();
        assert_eq!(snap.driver_conv, 3, "all three κ″ models must count as conv runs");
        assert_eq!(snap.driver_split, 0);
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OptimizerService>();
        assert_send_sync::<Request>();
        assert_send_sync::<Response>();
        assert_send_sync::<MetricsSnapshot>();
    }

    #[test]
    fn try_optimize_rejects_out_of_range_selectivity() {
        // JoinSpec itself admits selectivities above 1 (the Appendix
        // workload generator uses them); the service boundary must not.
        let spec = JoinSpec::new(&[10.0, 20.0], &[(0, 1, 2.0)]).unwrap();
        let service = OptimizerService::new(ServiceConfig { workers: 1, ..Default::default() });
        let err = service.try_optimize(&Request::new(spec)).unwrap_err();
        assert!(matches!(err, RequestError::SelectivityOutOfRange { i: 0, j: 1, .. }));
        assert!(err.to_string().contains("outside (0, 1]"), "{err}");

        let ok = JoinSpec::new(&[10.0, 20.0], &[(0, 1, 0.5)]).unwrap();
        assert!(service.try_optimize(&Request::new(ok)).is_ok());
    }

    #[test]
    fn large_requests_take_the_parallel_exact_path() {
        // 16 relations ≥ parallel_min_rels: must still answer exactly
        // (not greedily) and agree with the serial optimizer on cost
        // bit-for-bit. At this size the default `driver: Auto` picks the
        // convolution driver (κ₀ supports it), whose cost-equal plan may
        // break ties differently from split — so the plan itself is
        // checked by re-costing, not by shape.
        let n = 16;
        let cards: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
        let edges: Vec<(usize, usize, f64)> =
            (0..n - 1).map(|i| (i, i + 1, 0.01)).collect();
        let spec = JoinSpec::new(&cards, &edges).unwrap();
        let service = OptimizerService::new(ServiceConfig {
            workers: 1,
            parallelism: 2,
            ..Default::default()
        });
        assert!(service.drive_options(n, ModelId::Kappa0).effective_parallelism() >= 2);
        let resp = service.optimize(&Request::new(spec.clone()));
        assert_eq!(resp.source, PlanSource::Exact);
        assert_eq!(resp.driver, Some(ExactDriver::Conv), "Auto must pick conv at n=16 on κ₀");
        let direct = blitz_core::optimize_join_threshold_with(
            &spec,
            &Kappa0,
            ThresholdSchedule::default(),
            DriveOptions::serial().with_driver(DriverChoice::Split),
        )
        .unwrap();
        assert_eq!(resp.cost, direct.optimized.cost);
        let (_, recosted) = resp.plan.cost(&spec, &Kappa0);
        assert_eq!(recosted, direct.optimized.cost, "conv plan must be optimal too");

        // Pinning the driver to split restores plan-shape equality with
        // the serial reference.
        let split_req = Request { driver: Some(DriverChoice::Split), ..Request::new(spec) };
        let split_resp = service.optimize(&split_req);
        assert_eq!(split_resp.driver, Some(ExactDriver::Split));
        assert_eq!(split_resp.cache, CacheOutcome::Miss, "driver override is its own cache key");
        assert_eq!(split_resp.plan.canonical(), direct.optimized.plan.canonical());
    }

    #[test]
    fn table_pool_recycles_across_requests() {
        // Two *different* queries of the same shape (layout, n): the
        // first allocates the DP table, the second recycles it — and
        // the recycled run must still match the direct optimizer.
        let spec_a =
            JoinSpec::new(&[10.0, 20.0, 30.0], &[(0, 1, 0.1), (1, 2, 0.2)]).unwrap();
        let spec_b = JoinSpec::new(&[5.0, 6.0, 7.0], &[(0, 1, 0.5), (1, 2, 0.5)]).unwrap();
        let service = OptimizerService::new(ServiceConfig { workers: 1, ..Default::default() });
        let r1 = service.optimize(&Request::new(spec_a));
        let r2 = service.optimize(&Request::new(spec_b.clone()));
        assert_eq!(r1.source, PlanSource::Exact);
        assert_eq!(r2.source, PlanSource::Exact);
        let direct = blitz_core::optimize_join(&spec_b, &Kappa0).unwrap();
        assert_eq!(r2.cost, direct.cost);
        assert_eq!(r2.plan.canonical(), direct.plan.canonical());
        let snap = service.snapshot();
        assert_eq!(snap.table_pool_misses, 1);
        assert_eq!(snap.table_pool_hits, 1);
    }

    /// Over-limit requests with a configured ladder are *served* (with
    /// provenance and a gap) instead of silently degraded to greedy —
    /// and the ladder's plan is never costlier than that greedy seed.
    #[test]
    fn over_limit_requests_ride_the_ladder_when_configured() {
        let n = 24; // over every default max_exact_rels, within MAX_RELS
        let cards: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 0.01)).collect();
        let spec = JoinSpec::new(&cards, &edges).unwrap();
        let service = OptimizerService::new(ServiceConfig {
            workers: 1,
            ladder: Some(LadderSettings {
                refine_steps: 2_000,
                budget: None, // deterministic: work budgets only
                ..LadderSettings::default()
            }),
            ..Default::default()
        });
        let resp = service.optimize(&Request::new(spec.clone()));
        assert!(matches!(resp.source, PlanSource::Ladder(_)), "{:?}", resp.source);
        assert_eq!(resp.cache, CacheOutcome::Bypass);
        let info = resp.ladder.expect("ladder response must carry LadderInfo");
        assert_eq!(info.gap_basis, GapBasis::Greedy);
        assert!(resp.cost <= info.greedy_cost, "{} > {}", resp.cost, info.greedy_cost);
        assert!(info.gap <= 0.0, "greedy-basis gap must be ≤ 0, got {}", info.gap);
        assert!(info.rung_reached >= info.rung);
        let (greedy_plan, greedy_cost) = run_greedy(&spec, ModelId::Kappa0);
        assert_eq!(info.greedy_cost, greedy_cost);
        assert!(resp.cost <= greedy_cost, "ladder worse than goo on {greedy_plan:?}");
        let snap = service.snapshot();
        assert_eq!(snap.ladder_runs, 1);
        assert_eq!(snap.fallback_over_limit, 0, "a ladder run is not a greedy fallback");
        assert_eq!(snap.cache_bypass, 1);
    }

    /// `optimize_big` spans the whole size range: small specs delegate
    /// to the cached exact path, big ones (n > MAX_RELS) run the ladder.
    #[test]
    fn optimize_big_serves_every_size() {
        let service = OptimizerService::new(ServiceConfig {
            workers: 1,
            ladder: Some(LadderSettings {
                refine_steps: 1_000,
                budget: None,
                ..LadderSettings::default()
            }),
            ..Default::default()
        });

        // Small: delegates to the exact path, cache and all.
        let small = BigSpec::new(&[10.0, 20.0, 30.0], &[(0, 1, 0.1), (1, 2, 0.2)]).unwrap();
        let resp = service.optimize_big(&BigRequest::new(small));
        assert_eq!(resp.source, PlanSource::Exact);
        assert_eq!(resp.cache, CacheOutcome::Miss);
        assert!(resp.ladder.is_none());

        // Big: 40 relations cannot fit a JoinSpec at all.
        let n = 40;
        let cards: Vec<f64> = (0..n).map(|i| 5.0 + i as f64).collect();
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 0.05)).collect();
        let big = BigSpec::new(&cards, &edges).unwrap();
        let resp = service.optimize_big(&BigRequest::new(big));
        assert!(matches!(resp.source, PlanSource::Ladder(_)), "{:?}", resp.source);
        let info = resp.ladder.expect("big ladder response must carry LadderInfo");
        assert!(resp.cost <= info.greedy_cost);
        assert!(resp.cost.is_finite() && resp.card.is_finite());
    }

    /// Without a ladder, big requests keep the flagged-greedy contract.
    #[test]
    fn optimize_big_degrades_greedily_without_ladder() {
        let n = 40;
        let cards: Vec<f64> = (0..n).map(|i| 5.0 + i as f64).collect();
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 0.05)).collect();
        let big = BigSpec::new(&cards, &edges).unwrap();
        let service = OptimizerService::new(ServiceConfig { workers: 1, ..Default::default() });
        let resp = service.optimize_big(&BigRequest::new(big));
        assert_eq!(resp.source, PlanSource::Greedy(FallbackReason::OverLimit));
        assert_eq!(resp.cache, CacheOutcome::Bypass);
        assert!(resp.ladder.is_none());
        assert_eq!(service.snapshot().fallback_over_limit, 1);
    }

    #[test]
    fn basic_optimize_matches_direct_call() {
        let spec =
            JoinSpec::new(&[10.0, 20.0, 30.0, 40.0], &[(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.05)])
                .unwrap();
        let service = OptimizerService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let resp = service.optimize(&Request::new(spec.clone()));
        assert_eq!(resp.source, PlanSource::Exact);
        assert_eq!(resp.cache, CacheOutcome::Miss);
        let direct = blitz_core::optimize_join(&spec, &Kappa0).unwrap();
        assert_eq!(resp.cost, direct.cost);
        // Second identical request hits.
        let again = service.optimize(&Request::new(spec));
        assert_eq!(again.cache, CacheOutcome::Hit);
        assert_eq!(again.cost, direct.cost);
        let snap = service.snapshot();
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.optimizations, 1);
    }
}
