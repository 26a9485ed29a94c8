//! The traced run: per-layer timings taken from outside the service.
//!
//! After each wire round trip, [`Mirror`] re-runs the request's path
//! through the layers' public functions in this process — parse,
//! fingerprint, a standalone [`PlanCache`] fed the same fingerprints,
//! DP fill and extraction on a miss, relabeling, the ladder, and
//! response formatting — and records a span around each call: name,
//! start, end, parent (the request's round-trip span) and request id.
//! Spans stay in memory and are written out as JSON lines when the
//! replay ends. The mirror formats its own response and compares it
//! with the wire's, so a trace that stops following the service's path
//! is reported, not silently attributed.

use crate::stats::quantile;
use crate::workload::{with_model, Query, WithModel};
use blitz_catalog::CanonicalQuery;
use blitz_core::{
    optimize_join_threshold_into_with, CostModel, Counters, DriveOptions, HotColdTable, JoinSpec,
    LayoutChoice, Plan, Stats, ThresholdSchedule,
};
use blitz_ladder::{goo_big, optimize_ladder, BigSpec, LadderConfig, LadderReport};
use blitz_service::server::{format_response, parse_optimize, response_field, WireRequest};
use blitz_service::{
    CacheOutcome, ComputedPlan, DriverDisposition, LadderInfo, Lookup, PlanCache, PlanSource,
    Response, ServiceConfig,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed interval of one request.
struct Span {
    id: u32,
    parent: Option<u32>,
    req: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span log.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn record(
        &mut self,
        req: u32,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    fn span<T>(&mut self, req: u32, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        self.record(req, Some(parent), name, start, Instant::now());
        out
    }
}

/// Spans outside a request's blocking path: the round trip itself, and
/// `greedy`, measured beside the ladder (whose rung 0 already contains
/// it). The residual subtracts every other span.
const OFF_PATH: [&str; 2] = ["request", "greedy"];

/// Per-request facts that are not durations.
struct Facts {
    micros: f64,
    miss: bool,
}

/// The out-of-process layer mirror for one replay.
pub struct Mirror {
    cfg: ServiceConfig,
    ladder: LadderConfig,
    cache: Arc<PlanCache>,
    tracer: Tracer,
    facts: Vec<Facts>,
    counters: Counters,
    ladder_steps: u64,
    ladder_blocks: u64,
    stochastic_wins: u64,
    ladder_runs: u64,
    /// Responses the mirror could not reproduce byte for byte.
    pub mismatches: usize,
}

impl Mirror {
    /// Mirror a service running `cfg` (its effective, clamped config).
    pub fn new(cfg: ServiceConfig, origin: Instant) -> Result<Mirror, String> {
        if cfg.profile.is_some() || cfg.layout != LayoutChoice::HotCold {
            return Err("the mirror follows the default hot/cold layout without a profile".into());
        }
        let settings = cfg
            .ladder
            .clone()
            .ok_or("the benchmark's service runs the ladder")?;
        let ladder = LadderConfig {
            max_exact_rels: cfg.max_exact_rels,
            dp_window: settings.dp_window,
            dp_rounds: settings.dp_rounds,
            refine_steps: settings.refine_steps,
            seed: settings.seed,
            wall_clock: settings.budget,
            driver: cfg.driver,
            ..LadderConfig::default()
        };
        Ok(Mirror {
            cache: PlanCache::new(cfg.cache_capacity, cfg.cache_shards),
            cfg,
            ladder,
            tracer: Tracer {
                origin,
                spans: Vec::new(),
            },
            facts: Vec::new(),
            counters: Counters::default(),
            ladder_steps: 0,
            ladder_blocks: 0,
            stochastic_wins: 0,
            ladder_runs: 0,
            mismatches: 0,
        })
    }

    /// Feed a set-up request's fingerprint through the standalone cache
    /// (untraced) so its state matches the service's when timing starts.
    pub fn prime(&mut self, q: &Query) {
        if q.n() > self.cfg.max_exact_rels {
            return;
        }
        let spec = q.spec();
        let canon = canonical(&self.cfg, &spec, q);
        if let Lookup::Reserved(reservation) = self.cache.lookup_or_reserve(canon.fingerprint()) {
            // Set-up is not traced: its spans go to a scratch log.
            let mut scratch = Tracer {
                origin: self.tracer.origin,
                spans: Vec::new(),
            };
            let fill = Fill {
                tracer: &mut scratch,
                req: 0,
                root: 0,
                spec: &spec,
                options: options(&self.cfg, q),
                schedule: self.cfg.default_schedule,
            };
            reservation.fulfill_cached(computed(&self.cfg, &canon, q, with_model(q.model, fill)));
        }
    }

    /// Mirror request `req`, whose round trip ran from `start` to `end`
    /// and answered `wire`.
    pub fn request(&mut self, req: u32, q: &Query, wire: &str, start: Instant, end: Instant) {
        let root = self.tracer.record(req, None, "request", start, end);
        let micros = response_field(wire, "micros")
            .and_then(|m| m.parse().ok())
            .unwrap_or(0u64);
        let elapsed = Duration::from_micros(micros);
        let args = q.line.strip_prefix("OPTIMIZE ").unwrap_or(&q.line);
        let parsed = self
            .tracer
            .span(req, root, "server.parse", || parse_optimize(args));
        let (resp, miss) = match parsed {
            Ok(WireRequest::Small(r)) => self.small(req, root, q, &r.spec, elapsed),
            Ok(WireRequest::Big(r)) => {
                (Some(self.big(req, root, q, &r.spec, wire, elapsed)), false)
            }
            Err(_) => (None, false),
        };
        let line = resp.map(|resp| {
            self.tracer
                .span(req, root, "server.format", || format_response(&resp))
        });
        if line.as_deref() != Some(wire) {
            self.mismatches += 1;
        }
        self.facts.push(Facts {
            micros: micros as f64,
            miss,
        });
    }

    fn small(
        &mut self,
        req: u32,
        root: u32,
        q: &Query,
        spec: &JoinSpec,
        elapsed: Duration,
    ) -> (Option<Response>, bool) {
        let cfg = &self.cfg;
        let canon = self.tracer.span(req, root, "fingerprint", || {
            let canon = canonical(cfg, spec, q);
            black_box(canon.fingerprint());
            canon
        });
        let cache = &self.cache;
        let lookup = self.tracer.span(req, root, "cache.lookup", || {
            cache.lookup_or_reserve(canon.fingerprint())
        });
        let (cp, outcome) = match lookup {
            Lookup::Hit(cp) => (cp, CacheOutcome::Hit),
            Lookup::Reserved(reservation) => {
                let options = options(cfg, q);
                let schedule = cfg.default_schedule;
                let fill = Fill {
                    tracer: &mut self.tracer,
                    req,
                    root,
                    spec,
                    options,
                    schedule,
                };
                let out = with_model(q.model, fill);
                self.counters.absorb(out.counters);
                let cp = self
                    .tracer
                    .span(req, root, "plan.relabel", || computed(cfg, &canon, q, out));
                (reservation.fulfill_cached(cp), CacheOutcome::Miss)
            }
            // One closed-loop client: nothing is ever in flight here.
            Lookup::Wait(_) => unreachable!("single-client mirror saw an in-flight entry"),
        };
        let plan = self
            .tracer
            .span(req, root, "plan.relabel", || canon.to_original(&cp.plan));
        let resp = Response {
            plan,
            cost: cp.cost,
            card: cp.card,
            passes: cp.passes,
            source: PlanSource::Exact,
            driver: cp.driver,
            cache: outcome,
            ladder: None,
            elapsed,
        };
        (Some(resp), outcome == CacheOutcome::Miss)
    }

    fn big(
        &mut self,
        req: u32,
        root: u32,
        q: &Query,
        spec: &BigSpec,
        wire: &str,
        elapsed: Duration,
    ) -> Response {
        let path = TracedLadder {
            tracer: &mut self.tracer,
            req,
            root,
            spec,
            cfg: &self.ladder,
        };
        let report = with_model(q.model, path);
        self.ladder_runs += 1;
        self.ladder_steps += report.spent.refine_steps;
        self.ladder_blocks += report.spent.dp_blocks;
        self.stochastic_wins += u64::from(report.rung == blitz_ladder::Rung::Stochastic);
        let spent = response_field(wire, "ladder_micros")
            .and_then(|m| m.parse().ok())
            .unwrap_or(0);
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
                spent: Duration::from_micros(spent),
            }),
            elapsed,
            plan: report.plan,
        }
    }

    /// Write the span log to `path` as JSON lines.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.tracer.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// This replay's layer figures, from the spans plus the METRICS
    /// counters before and after the timed list. Figures a workload
    /// does not exercise are left out.
    pub fn layers(
        &self,
        before: &BTreeMap<String, f64>,
        after: &BTreeMap<String, f64>,
    ) -> Vec<(&'static str, f64)> {
        let delta =
            |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| (b > 0.0).then(|| a / b);
        let mut by_req: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for s in &self.tracer.spans {
            *by_req
                .entry(s.req)
                .or_default()
                .entry(s.name)
                .or_insert(0.0) += s.micros();
        }
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((_, spans), facts) in by_req.iter().zip(&self.facts) {
            let rt = spans["request"];
            let path: f64 = spans
                .iter()
                .filter(|(n, _)| !OFF_PATH.contains(n))
                .map(|(_, d)| d)
                .sum();
            samples.entry("rt").or_default().push(rt);
            samples.entry("residual").or_default().push(rt - path);
            samples
                .entry("frontend")
                .or_default()
                .push(rt - facts.micros);
            for (&name, &d) in spans {
                samples.entry(name).or_default().push(d);
            }
            if facts.miss {
                let dp = spans.get("dp.fill").unwrap_or(&0.0)
                    + spans.get("plan.extract").unwrap_or(&0.0);
                samples.entry("non_dp").or_default().push(facts.micros - dp);
            }
        }
        let q = |name: &str, p: f64| {
            samples
                .get(name)
                .filter(|v| !v.is_empty())
                .map(|v| quantile(v, p))
        };
        let c = &self.counters;
        let fill_total_us: f64 = samples.get("dp.fill").map_or(0.0, |v| v.iter().sum());
        let has_dp = c.loop_iters > 0;
        let has_ladder = self.ladder_runs > 0;
        let mut out: Vec<(&'static str, Option<f64>)> = vec![
            ("trace.rt_us_p50", q("rt", 0.5)),
            ("trace.residual_us_p50", q("residual", 0.5)),
            ("frontend.overhead_us_p50", q("frontend", 0.5)),
            (
                "frontend.lines_per_batch",
                ratio(delta("frontend_batch_lines"), delta("frontend_batches")),
            ),
            ("server.parse_us_p50", q("server.parse", 0.5)),
            ("server.format_us_p50", q("server.format", 0.5)),
            ("fingerprint.us_p50", q("fingerprint", 0.5)),
            ("cache.lookup_us_p50", q("cache.lookup", 0.5)),
            (
                "cache.hit_ratio",
                ratio(
                    delta("cache_hits"),
                    delta("cache_hits") + delta("cache_misses"),
                ),
            ),
            ("cache.misses", Some(delta("cache_misses"))),
            ("service.non_dp_us_p50", q("non_dp", 0.5)),
            (
                "tables.reuse_ratio",
                ratio(
                    delta("table_pool_hits"),
                    delta("table_pool_hits") + delta("table_pool_misses"),
                ),
            ),
            ("pool.steals", Some(delta("pool_steals"))),
            ("dp.fill_us_p50", q("dp.fill", 0.5)),
            ("dp.fill_us_p90", q("dp.fill", 0.9)),
            (
                "dp.ns_per_loop_iter",
                has_dp.then(|| fill_total_us * 1e3 / c.loop_iters as f64),
            ),
            (
                "dp.conv_share",
                ratio(
                    delta("driver_conv"),
                    delta("driver_conv") + delta("driver_split"),
                ),
            ),
            ("plan.extract_us_p50", q("plan.extract", 0.5)),
            ("ladder.us_p50", q("ladder", 0.5)),
            ("ladder.us_p90", q("ladder", 0.9)),
            (
                "ladder.stochastic_win_share",
                ratio(self.stochastic_wins as f64, self.ladder_runs as f64),
            ),
            ("greedy.us_p50", q("greedy", 0.5)),
        ];
        if has_dp {
            out.extend([
                ("dp.loop_iters", Some(c.loop_iters as f64)),
                ("dp.kappa_ind_evals", Some(c.kappa_ind_evals as f64)),
                ("dp.kappa_dep_evals", Some(c.kappa_dep_evals as f64)),
                ("dp.loops_skipped", Some(c.loops_skipped as f64)),
                ("dp.passes", Some(c.passes as f64)),
            ]);
        }
        if has_ladder {
            out.extend([
                ("ladder.refine_steps", Some(self.ladder_steps as f64)),
                ("ladder.dp_blocks", Some(self.ladder_blocks as f64)),
            ]);
        }
        out.into_iter()
            .filter_map(|(k, v)| v.filter(|v| v.is_finite()).map(|v| (k, v)))
            .collect()
    }
}

/// `OptimizerService::drive_options`, restated from the config.
fn options(cfg: &ServiceConfig, q: &Query) -> DriveOptions {
    let base = if q.n() >= cfg.parallel_min_rels && cfg.parallelism != 1 {
        DriveOptions::parallel(cfg.parallelism)
    } else {
        DriveOptions::serial()
    };
    base.with_layout(cfg.layout)
        .with_kernel(cfg.kernel)
        .with_driver(cfg.driver)
}

/// The fingerprinted form the service keys its cache by.
fn canonical(cfg: &ServiceConfig, spec: &JoinSpec, q: &Query) -> CanonicalQuery {
    let d = DriverDisposition::new(q.model, false, &options(cfg, q), q.n());
    CanonicalQuery::new(spec, &d.fingerprint_tag(), Some(&cfg.default_schedule))
}

/// The cache entry the service's job stores for a filled miss.
fn computed(cfg: &ServiceConfig, canon: &CanonicalQuery, q: &Query, out: Filled) -> ComputedPlan {
    let d = DriverDisposition::new(q.model, false, &options(cfg, q), q.n());
    ComputedPlan {
        plan: canon.to_canonical(&out.plan),
        cost: out.cost,
        card: out.card,
        passes: out.passes,
        exact: true,
        driver: Some(d.exact_driver()),
    }
}

struct Filled {
    plan: Plan,
    cost: f32,
    card: f64,
    passes: u32,
    counters: Counters,
}

/// An exact fill and extraction, with a span around each.
struct Fill<'a> {
    tracer: &'a mut Tracer,
    req: u32,
    root: u32,
    spec: &'a JoinSpec,
    options: DriveOptions,
    schedule: ThresholdSchedule,
}

impl WithModel<Filled> for Fill<'_> {
    fn call<M: CostModel + Sync>(self, model: &M) -> Filled {
        let mut counters = Counters::default();
        let (table, out) = self.tracer.span(self.req, self.root, "dp.fill", || {
            optimize_join_threshold_into_with::<HotColdTable, M, Counters, true>(
                self.spec,
                model,
                self.schedule,
                self.options,
                &mut counters,
            )
        });
        let all = self.spec.all_rels();
        let plan = self.tracer.span(self.req, self.root, "plan.extract", || {
            Plan::extract(&table, all)
        });
        Filled {
            plan,
            cost: out.optimized.cost,
            card: out.optimized.card,
            passes: out.passes,
            counters,
        }
    }
}

/// The ladder under the service's config, plus GOO timed beside it.
struct TracedLadder<'a> {
    tracer: &'a mut Tracer,
    req: u32,
    root: u32,
    spec: &'a BigSpec,
    cfg: &'a LadderConfig,
}

impl WithModel<LadderReport> for TracedLadder<'_> {
    fn call<M: CostModel + Sync>(self, model: &M) -> LadderReport {
        let report = self.tracer.span(self.req, self.root, "ladder", || {
            optimize_ladder(self.spec, model, self.cfg)
        });
        self.tracer
            .span(self.req, self.root, "greedy", || goo_big(self.spec, model));
        report
    }
}
