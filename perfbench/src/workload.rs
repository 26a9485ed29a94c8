//! Seeded request lists for the three workloads.
//!
//! Every list is a pure function of `(workload, seed, size)`: the
//! parent process derives the correctness references from it and each
//! replay process regenerates the identical lines, so nothing but the
//! seed crosses the process boundary.

use blitz_baselines::goo;
use blitz_catalog::{Topology, Workload};
use blitz_core::{CostModel, DiskNestedLoops, JoinSpec, Kappa0, SmDnl, SortMerge};
use blitz_ladder::{goo_big, BigSpec};
use blitz_service::server::format_optimize_request;
use blitz_service::{ModelId, ServerOptions};

/// The benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Appendix grid at n = 11–15, every request a distinct cache miss.
    ExactCold,
    /// Small queries drawn skewed from a working set larger than the
    /// plan cache: hits, misses, inserts and evictions side by side.
    WarmMixed,
    /// n = 40–100 (cliques to about 70, the most that fits a request
    /// line), past the exact limit: the anytime ladder.
    LadderBig,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ExactCold, Kind::WarmMixed, Kind::LadderBig];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ExactCold => "exact_cold",
            Kind::WarmMixed => "warm_mixed",
            Kind::LadderBig => "ladder_big",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The `source=` provenance every response of this workload should
    /// carry (a prefix: ladder answers name their winning rung).
    pub fn expected_source(self) -> &'static str {
        match self {
            Kind::ExactCold | Kind::WarmMixed => "exact",
            Kind::LadderBig => "ladder_",
        }
    }

    /// Thread placement. `exact_cold` keeps every CPU because its n = 15
    /// requests run the parallel DP driver; the other two confine the
    /// whole process (client, frontend, workers) to one CPU, the last
    /// one allowed, which removes the cross-CPU wakeup placement that
    /// makes small-request latency bimodal.
    pub fn cpus(self, allowed: &[usize]) -> Vec<usize> {
        match self {
            Kind::ExactCold => allowed.to_vec(),
            Kind::WarmMixed | Kind::LadderBig => allowed.last().into_iter().copied().collect(),
        }
    }

    /// List sizes for a run of nominally `seconds` seconds (30 gives
    /// 240, 8000 and 40 timed requests). The sizes are a fixed function
    /// of the argument — never a clock — so a run is count-bound and
    /// repeats exactly for a seed. On a 2-vCPU Xeon VM a 30-second run
    /// takes about 44 s, 13 s and 33 s, references and set-up included.
    pub fn size(self, seconds: u64) -> Size {
        let s = seconds.max(1) as usize;
        match self {
            Kind::ExactCold => Size {
                timed: GRID_CELLS * s.div_ceil(10),
                priming: 20,
            },
            Kind::WarmMixed => Size {
                timed: 800 * s.div_ceil(3),
                priming: 2 * WORKING_SET,
            },
            Kind::LadderBig => Size {
                timed: 4 * s.div_ceil(3),
                priming: 4,
            },
        }
    }

    /// Replays per timed run; a request's latency is its minimum over
    /// them. A shared host can run slow for tens of seconds at a time
    /// (replays of one run differed 1.3–1.5× by phase on a 2-vCPU Xeon
    /// VM), so what steadies the minimum is a run long enough to take
    /// in a fast phase. `exact_cold` gets 16, about 32 s of timed
    /// requests: over ten seeds on that VM, its `req_per_s` from the
    /// first 8 replays of each run spread 0.20 of the median, and from
    /// the first 16, 0.17.
    pub fn replays(self) -> usize {
        match self {
            Kind::ExactCold => 16,
            Kind::WarmMixed => 10,
            Kind::LadderBig => 5,
        }
    }

    /// Tiny lists for the smoke mode.
    pub fn smoke_size(self) -> Size {
        match self {
            Kind::ExactCold => Size {
                timed: 6,
                priming: 2,
            },
            Kind::WarmMixed => Size {
                timed: 40,
                priming: 40,
            },
            Kind::LadderBig => Size {
                timed: 3,
                priming: 1,
            },
        }
    }
}

/// How many requests a list holds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Size {
    /// Requests timed in each replay.
    pub timed: usize,
    /// Requests sent during set-up, before timing.
    pub priming: usize,
}

/// 4 topologies × 4 models × n = 11–15.
const GRID_CELLS: usize = 80;
/// Distinct `warm_mixed` queries; the default plan cache holds 1024.
pub const WORKING_SET: usize = 2048;
/// Zipf exponent of the `warm_mixed` draw over the working set. With
/// the default cache (8 LRU shards, 1024 plans) about 28% of the timed
/// draws miss: clear of 50% (p50 stays on hits) and of 10% (p90 stays
/// on misses).
const ZIPF_S: f64 = 0.7;
/// Share of `warm_mixed` draws re-sent under a permuted numbering.
const PERMUTED_SHARE: f64 = 0.25;

/// One `OPTIMIZE` request.
#[derive(Clone, Debug)]
pub struct Query {
    pub cards: Vec<f64>,
    pub preds: Vec<(usize, usize, f64)>,
    pub model: ModelId,
    /// Identity of the underlying query before any relabeling; equal
    /// `base` means equal statistics.
    pub base: usize,
    /// The wire line.
    pub line: String,
}

impl Query {
    fn new(cards: Vec<f64>, preds: Vec<(usize, usize, f64)>, model: ModelId, base: usize) -> Query {
        let line = format_optimize_request(&cards, &preds, model, None);
        Query {
            cards,
            preds,
            model,
            base,
            line,
        }
    }

    pub fn n(&self) -> usize {
        self.cards.len()
    }

    /// The spec the server parses from [`Query::line`] (`Display` of an
    /// `f64` round-trips, so the bits agree).
    pub fn spec(&self) -> JoinSpec {
        JoinSpec::new(&self.cards, &self.preds).expect("generated specs are valid")
    }

    pub fn big(&self) -> BigSpec {
        BigSpec::new(&self.cards, &self.preds).expect("generated specs are valid")
    }

    /// The same query under a seeded random numbering of its relations.
    fn renumbered(&self, rng: &mut Rng) -> Query {
        let mut perm: Vec<usize> = (0..self.n()).collect();
        rng.shuffle(&mut perm);
        self.permuted(&perm)
    }

    /// The same query with relation `i` renamed `perm[i]`.
    fn permuted(&self, perm: &[usize]) -> Query {
        let mut cards = vec![0.0; self.n()];
        for (i, &c) in self.cards.iter().enumerate() {
            cards[perm[i]] = c;
        }
        let preds = self
            .preds
            .iter()
            .map(|&(i, j, s)| (perm[i], perm[j], s))
            .collect();
        Query::new(cards, preds, self.model, self.base)
    }
}

/// A workload's requests: the priming list sent during set-up and the
/// list every replay times.
pub struct Lists {
    pub priming: Vec<Query>,
    pub timed: Vec<Query>,
}

/// SplitMix64: tiny, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_b175_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

const MODELS: [ModelId; 4] = [
    ModelId::Kappa0,
    ModelId::SortMerge,
    ModelId::DiskNestedLoops,
    ModelId::SmDnl,
];

/// Run `f` with the concrete cost model behind `id`.
pub fn with_model<R>(id: ModelId, f: impl WithModel<R>) -> R {
    match id {
        ModelId::Kappa0 => f.call(&Kappa0),
        ModelId::SortMerge => f.call(&SortMerge),
        ModelId::DiskNestedLoops => f.call(&DiskNestedLoops::default()),
        ModelId::SmDnl => f.call(&SmDnl::default()),
    }
}

/// A computation generic over the cost model (closures cannot be).
pub trait WithModel<R> {
    fn call<M: CostModel + Sync>(self, model: &M) -> R;
}

struct GooCost<'a>(&'a Query);

impl WithModel<f32> for GooCost<'_> {
    fn call<M: CostModel + Sync>(self, model: &M) -> f32 {
        if self.0.n() > blitz_core::MAX_RELS {
            goo_big(&self.0.big(), model).1
        } else {
            goo(&self.0.spec(), model).1
        }
    }
}

/// The greedy (GOO) plan cost of `q` under its model: the basis of
/// `plan_cost_vs_greedy` and the ceiling every ladder answer must meet.
pub fn greedy_cost(q: &Query) -> f32 {
    with_model(q.model, GooCost(q))
}

/// One point of the input space before the statistics are drawn.
#[derive(Copy, Clone)]
struct Cell {
    n: usize,
    topology: Topology,
    model: ModelId,
}

impl Cell {
    /// The `i`-th of the 16 topology × model pairs, in turn.
    fn cycling(i: usize, n: usize) -> Cell {
        Cell {
            n,
            topology: Topology::ALL[i % 4],
            model: MODELS[i / 4 % 4],
        }
    }
}

/// Point `i` of the R2 low-discrepancy sequence in the unit square:
/// every prefix covers the square evenly.
fn r2(i: usize) -> (f64, f64) {
    const ALPHA: (f64, f64) = (0.754_877_666_246_692_7, 0.569_840_290_998_053_2);
    let x = i as f64 + 0.5;
    ((x * ALPHA.0).fract(), (x * ALPHA.1).fract())
}

/// Latin-hypercube coordinates for `k` points in the unit square: the
/// i-th point's coordinates lie in strata `a[i]` and `b[i]` of `k` (two
/// seeded permutations), jittered within the stratum. Every seed covers
/// the square evenly, so a list's aggregate work barely moves between
/// seeds while every query still differs.
fn latin(rng: &mut Rng, k: usize) -> Vec<(f64, f64)> {
    let mut a: Vec<usize> = (0..k).collect();
    let mut b = a.clone();
    rng.shuffle(&mut a);
    rng.shuffle(&mut b);
    let mut jitter = |stratum: usize| (stratum as f64 + rng.unit()) / k as f64;
    a.iter()
        .zip(&b)
        .map(|(&x, &y)| (jitter(x), jitter(y)))
        .collect()
}

/// The Appendix-grid query of `cell` at mean cardinality `mu` and
/// variability `v`, if its wire line fits the default server's line
/// limit and its greedy cost is finite (a ratio against an overflowed
/// greedy cost is undefined).
fn grid_query(cell: Cell, mu: f64, v: f64) -> Option<Query> {
    let g = Workload::new(cell.n, cell.topology, mu, v).graph();
    let cards = g.relations().iter().map(|r| r.cardinality).collect();
    let preds = g
        .predicates()
        .iter()
        .map(|p| (p.lhs, p.rhs, p.selectivity))
        .collect();
    let q = Query::new(cards, preds, cell.model, 0);
    (q.line.len() <= ServerOptions::default().max_line_bytes && greedy_cost(&q).is_finite())
        .then_some(q)
}

/// [`grid_query`] at unit coordinates `(um, uv)`: mean cardinality
/// `10^(1 + 3·um)`, variability `0.05 + 0.95·uv`. An overflowing
/// query is redrawn with the top of the mean range lowered until it
/// lands.
fn small_query(cell: Cell, (um, uv): (f64, f64)) -> Query {
    let mut top = 4.0;
    loop {
        let log_mu = (1.0 + (top - 1.0) * um).min(top);
        if let Some(q) = grid_query(cell, 10f64.powf(log_mu), 0.05 + 0.95 * uv) {
            return q;
        }
        top *= 0.8;
    }
}

/// [`grid_query`] at the statistics `bin/ladder.rs` uses (mean 100,
/// variability 0.5), shrinking `n` until the query fits a request line
/// and its greedy cost is finite (a 100-way clique does neither).
fn big_query(mut cell: Cell) -> Query {
    loop {
        if let Some(q) = grid_query(cell, 100.0, 0.5) {
            return q;
        }
        cell.n -= 1;
    }
}

/// Generate the request lists of `kind` at `size` from `seed`.
pub fn generate(kind: Kind, seed: u64, size: Size) -> Lists {
    let mut rng = Rng::new(seed.wrapping_mul(3).wrapping_add(kind as u64));
    match kind {
        Kind::ExactCold => {
            // The paper's deterministic grid: every cell `rounds` times,
            // at the centres of `rounds` mean-cardinality strata paired
            // Latin-wise with variability strata. The seed renumbers
            // every query's relations and orders the list. (Seeded
            // statistics move the cliques' cost ratios to greedy, and
            // with them plan_cost_vs_greedy, by about 10% per seed.)
            let rounds = size.timed.div_ceil(GRID_CELLS);
            let mut timed = Vec::with_capacity(rounds * GRID_CELLS);
            for c in 0..GRID_CELLS {
                let cell = Cell::cycling(c / 5, 11 + c % 5);
                for k in 0..rounds {
                    let centre = |stratum: usize| (stratum as f64 + 0.5) / rounds as f64;
                    let q = small_query(cell, (centre(k), centre((k + c) % rounds)));
                    timed.push(q.renumbered(&mut rng));
                }
            }
            rng.shuffle(&mut timed);
            timed.truncate(size.timed);
            // Sizes 11–15 and the topology × model pairs in turn, so
            // every seed's set-up does the same kind of work and warms
            // the table pool for every n, the parallel driver included.
            let priming = latin(&mut rng, size.priming)
                .into_iter()
                .enumerate()
                .map(|(i, u)| small_query(Cell::cycling(i, 11 + i % 5), u))
                .collect();
            Lists {
                priming: numbered(priming, usize::MAX / 2),
                timed: numbered(timed, 0),
            }
        }
        Kind::WarmMixed => {
            // Rank r (its draw weight) fixes size, topology and model,
            // so the hot end covers every combination, and its
            // statistics are point r of the R2 sequence. The seed
            // renumbers every query, draws the requests and picks the
            // re-sends. (Seeded statistics moved plan_cost_vs_greedy by
            // about 5% per seed through the few hottest queries.)
            let working: Vec<Query> = (0..WORKING_SET)
                .map(|r| {
                    let q = small_query(Cell::cycling(r / 7, 4 + r % 7), r2(r));
                    Query {
                        base: r,
                        ..q.renumbered(&mut rng)
                    }
                })
                .collect();
            let cdf = zipf_cdf(WORKING_SET, ZIPF_S);
            let draw = |rng: &mut Rng| {
                let u = rng.unit();
                let q = &working[cdf.partition_point(|&c| c < u).min(WORKING_SET - 1)];
                if rng.unit() < PERMUTED_SHARE {
                    q.renumbered(rng)
                } else {
                    q.clone()
                }
            };
            let priming = (0..size.priming).map(|_| draw(&mut rng)).collect();
            let timed = (0..size.timed).map(|_| draw(&mut rng)).collect();
            Lists { priming, timed }
        }
        Kind::LadderBig => {
            // n steps evenly over 40–100 and the 16 topology × model
            // pairs cycle, at fixed statistics; the seed renumbers every
            // query's relations and orders the list. (Drawn statistics
            // put some cliques right under f32 overflow, where the cost
            // ratio to greedy swings by orders of magnitude per seed.)
            let len = size.timed;
            let relabeled = |rng: &mut Rng, cell: Cell| big_query(cell).renumbered(rng);
            let mut timed: Vec<Query> = (0..len)
                .map(|i| relabeled(&mut rng, Cell::cycling(i, 40 + i * 61 / len)))
                .collect();
            rng.shuffle(&mut timed);
            let priming = (0..size.priming)
                .map(|i| relabeled(&mut rng, Cell::cycling(i, 40)))
                .collect();
            Lists {
                priming: numbered(priming, usize::MAX / 2),
                timed: numbered(timed, 0),
            }
        }
    }
}

/// Give each query of a list of distinct queries its own `base`.
fn numbered(mut list: Vec<Query>, from: usize) -> Vec<Query> {
    for (i, q) in list.iter_mut().enumerate() {
        q.base = from + i;
    }
    list
}

/// Cumulative Zipf(`s`) weights over `n` ranks, normalised to end at 1.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += (r as f64).powf(-s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}
