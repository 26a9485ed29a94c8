//! `find_best_split` — the `O(3^n)` inner engine shared by the Cartesian
//! product optimizer and the join optimizer (paper Figure 1 and
//! Section 4.2).
//!
//! This module realizes the three implementation-critical details of
//! Section 4.2:
//!
//! 1. subsets are walked with the successor trick
//!    `succ(S_lhs) = S & (S_lhs − S)`, never materializing the dilation
//!    operator;
//! 2. the `if` in the loop body is replaced by a series of *nested* `if`s,
//!    so that the split-dependent cost `κ''` is only computed when the
//!    operand costs alone do not already disqualify the split (reducing
//!    its execution count from `3^n` toward `(ln 2 / 2)·n·2^n`);
//! 3. `κ'(S)` is computed *before* the loop, and when it already overflows
//!    the cost cap the loop is skipped entirely (Sections 6.3–6.4).
//!
//! The function is generic over table layout, cost model, statistics sink
//! and the `PRUNE` switch (the ablation benches compile both variants).

use crate::bitset::RelSet;
use crate::conv::{DriverChoice, RowEngine, CONV_AUTO_MIN_RELS};
use crate::cost::{ConvSupport, CostModel};
use crate::stats::Stats;
use crate::table::{LayoutChoice, SyncTable, SyncTableView, TableLayout, WaveTableLayout};

/// The split kernel: only the scalar nested-`if` cascade of
/// [`find_best_split`] remains. This type survives solely because the
/// service benchmark in `perfbench/` still names it (through
/// [`DriveOptions::with_kernel`] and the service config's `kernel`
/// field); nothing else may read it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// The paper's scalar nested-`if` cascade.
    #[default]
    Scalar,
}

/// Execution options for the DP drivers — how much hardware to throw at
/// one optimization, and how the DP table is laid out in memory.
///
/// The default is read once per process from the environment —
/// `BLITZ_TEST_THREADS` (unset or `1` ⇒ the serial driver),
/// `BLITZ_TEST_LAYOUT` (`aos`/`soa`/`hotcold`) and `BLITZ_TEST_DRIVER`
/// (`split`/`conv`/`auto`) — which lets a CI job force every
/// default-configured optimization in the workspace through the parallel
/// rank-wave driver, an alternate table layout and/or the convolution
/// driver without touching call sites. A set but unparseable value
/// panics, naming the variable and its value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DriveOptions {
    /// Worker threads for the rank-wave parallel driver. `1` is the
    /// serial integer-order driver (today's default); `0` resolves to the
    /// machine's available parallelism.
    pub parallelism: usize,
    /// Table layout used by the *non-generic* entry points
    /// ([`crate::join::optimize_join_with`] and friends), which dispatch
    /// to the matching monomorphization. The generic `*_into*` functions
    /// take the layout as a type parameter and ignore this field.
    pub layout: LayoutChoice,
    /// DP driver filling each row: the reference split enumeration, the
    /// anchored layered-convolution driver, or an automatic pick.
    /// Resolved against the cost model's [`CostModel::CONV_SUPPORT`]
    /// capability once per drive; on `Native`/`Canonical` models the
    /// drivers are cost-bit-identical (see [`crate::conv`]).
    pub driver: DriverChoice,
    /// Relation count at which [`DriverChoice::Auto`] switches from the
    /// split driver to the convolution driver (on models whose
    /// [`CostModel::CONV_SUPPORT`] allows it). Compiled default is
    /// [`CONV_AUTO_MIN_RELS`]; [`DriveOptions::default`] replaces it
    /// with the measured crossover from the host calibration profile
    /// when one is loaded (see [`crate::calibrate`]).
    pub conv_min_rels: usize,
}

impl DriveOptions {
    /// Explicit serial execution, ignoring any environment override and
    /// any loaded calibration profile (compiled constants throughout).
    pub fn serial() -> DriveOptions {
        DriveOptions::parallel(1)
    }

    /// Rank-wave parallel execution on `threads` workers (`0` = auto).
    pub fn parallel(threads: usize) -> DriveOptions {
        DriveOptions {
            parallelism: threads,
            layout: LayoutChoice::default(),
            driver: DriverChoice::default(),
            conv_min_rels: CONV_AUTO_MIN_RELS,
        }
    }

    /// This policy with a different table layout.
    pub fn with_layout(self, layout: LayoutChoice) -> DriveOptions {
        DriveOptions { layout, ..self }
    }

    /// The identity: [`KernelChoice`] has one variant, so there is no
    /// kernel to pick. Kept only because the service benchmark in
    /// `perfbench/` still calls it; nothing else may.
    pub fn with_kernel(self, _kernel: KernelChoice) -> DriveOptions {
        self
    }

    /// This policy with a different DP driver.
    pub fn with_driver(self, driver: DriverChoice) -> DriveOptions {
        DriveOptions { driver, ..self }
    }

    /// This policy with a different `Auto` driver crossover.
    pub fn with_conv_min_rels(self, conv_min_rels: usize) -> DriveOptions {
        DriveOptions { conv_min_rels, ..self }
    }

    /// The concrete worker count: resolves `0` to the machine's available
    /// parallelism and never returns 0.
    pub fn effective_parallelism(&self) -> usize {
        match self.parallelism {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            t => t,
        }
    }
}

/// Parse one `BLITZ_TEST_*` override: `None` when the variable is unset,
/// the parsed value when it parses, and a panic naming the variable and
/// its value otherwise — a CI leg with a typo in its override must fail
/// instead of silently testing the default configuration.
fn env_override<T>(
    var: &str,
    value: Option<&str>,
    parse: impl Fn(&str) -> Option<T>,
) -> Option<T> {
    let value = value?;
    match parse(value) {
        Some(parsed) => Some(parsed),
        None => panic!("{var}={value:?} is not a valid value"),
    }
}

impl Default for DriveOptions {
    fn default() -> DriveOptions {
        // Resolved once per process. Precedence per knob: explicit
        // `BLITZ_TEST_*` environment override > measured host profile
        // (`BLITZ_PROFILE`, see [`crate::calibrate`]) > compiled
        // constant. The profile carries only the `Auto` crossover;
        // layout, driver and thread count keep their compiled defaults
        // unless the environment says otherwise.
        static ENV: std::sync::OnceLock<DriveOptions> = std::sync::OnceLock::new();
        *ENV.get_or_init(|| {
            fn env<T>(var: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
                env_override(var, std::env::var(var).ok().as_deref(), parse)
            }
            let parallelism =
                env("BLITZ_TEST_THREADS", |v| v.parse::<usize>().ok()).unwrap_or(1);
            let layout = env("BLITZ_TEST_LAYOUT", LayoutChoice::parse).unwrap_or_default();
            let driver = env("BLITZ_TEST_DRIVER", DriverChoice::parse).unwrap_or_default();
            let conv_min_rels = crate::calibrate::host_profile()
                .and_then(|p| p.conv_min_rels)
                .unwrap_or(CONV_AUTO_MIN_RELS);
            DriveOptions { parallelism, layout, driver, conv_min_rels }
        })
    }
}

/// Evaluate `κ''(S_out; lhs, rhs)` with the operand pair in *canonical*
/// orientation — the operand containing `min(S)` first — for models that
/// declared [`ConvSupport::Canonical`].
///
/// The convolution driver's anchored walk (`lhs = {min S} ∪ sub`)
/// produces exactly this orientation by construction, so normalizing the
/// split walk here makes every driver quote κ'' on the *same* operand
/// order: both orientations of an unordered partition round to the same
/// `f32` bits structurally, not by algebraic accident. The branch on the
/// associated `const` folds at monomorphization — `Native` models (κ''
/// absent or intrinsically symmetric) and `Fallback` models (no
/// exactness claim; raw walk order is the documented historical
/// behavior) pass their operands straight through.
#[inline(always)]
pub(crate) fn kappa_dep_oriented<L, M>(
    table: &L,
    model: &M,
    out_card: f64,
    s: RelSet,
    lhs: RelSet,
    rhs: RelSet,
) -> f32
where
    L: TableLayout,
    M: CostModel,
{
    let (l, r) = if matches!(M::CONV_SUPPORT, ConvSupport::Canonical)
        && lhs.is_disjoint(s.lowest_singleton())
    {
        (rhs, lhs)
    } else {
        (lhs, rhs)
    };
    model.kappa_dep(out_card, table.card(l), table.card(r), table.aux(l), table.aux(r))
}

/// Fill in the `cost` and `best_lhs` fields of the table row for `s` by
/// examining every split of `s` into two nonempty subsets.
///
/// `cap` is the plan-cost threshold of Section 6.4; pass `f32::INFINITY`
/// for pure overflow-rejection semantics. Any plan whose cost reaches
/// `cap` is treated as if its cost had overflowed: the row's cost becomes
/// `+∞` and every superset rejects it through the operand-cost test.
///
/// The row's `card` (and `aux`) fields must already be filled in by the
/// caller's `compute_properties`.
#[inline]
pub(crate) fn find_best_split<L, M, St, const PRUNE: bool>(
    table: &mut L,
    model: &M,
    s: RelSet,
    cap: f32,
    stats: &mut St,
) where
    L: TableLayout,
    M: CostModel,
    St: Stats,
{
    stats.subset();
    let out_card = table.card(s);

    // κ'(S) is split-independent: hoist it out of the loop (fixed 2^n
    // execution count). If it alone breaches the cap, no split can help —
    // κ'' and operand costs are nonnegative — so skip the whole loop.
    stats.kappa_ind();
    let kappa_ind = model.kappa_ind(out_card);
    // Deliberately `!(x < cap)` rather than `x >= cap`: a NaN cost (which
    // a pathological model could produce) must also be rejected.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(kappa_ind < cap) {
        table.set_cost(s, f32::INFINITY);
        table.set_best_lhs(s, RelSet::EMPTY);
        stats.loop_skipped();
        return;
    }

    let mut best = f32::INFINITY;
    let mut best_lhs = RelSet::EMPTY;

    // Walk S_lhs = δ_S(1), δ_S(2), …, δ_S(2^|S|−2); the walk naturally
    // terminates when the successor reaches S itself (= δ_S(2^|S|−1)).
    //
    // Tie-break determinism: dilation is order-preserving (i < j ⇒
    // δ_S(i) < δ_S(j) as integers), so this walk visits `lhs` in strictly
    // increasing bit-vector order, and the strict `<` comparisons below
    // keep the *first* minimum — i.e. the minimum-cost split with the
    // lowest `best_lhs` bits. The choice therefore depends only on the
    // rows of strict subsets of `s`, never on enumeration timing, which
    // is what makes the serial and rank-wave parallel drivers produce
    // bit-identical tables.
    let mut lhs = s.lowest_singleton();
    while lhs != s {
        stats.loop_iter();
        let rhs = s - lhs;

        // The successor walk knows the *next* split one iteration ahead
        // for free, so start its operands' cost lines toward L1 while
        // the current split is judged. Purely advisory: prefetches are
        // hints, not reads, so pruning semantics, statistics and the
        // result bits are untouched. Gated on `L::PREFETCHES` so layouts
        // whose `prefetch_cost` is a no-op (AoS today) don't pay for the
        // `s - next_lhs` subtraction and two dead calls per iteration —
        // the constant folds the whole block away at monomorphization.
        let next_lhs = s.subset_successor(lhs);
        if L::PREFETCHES && next_lhs != s {
            table.prefetch_cost(next_lhs);
            table.prefetch_cost(s - next_lhs);
        }

        if PRUNE {
            // Nested-if structure: each test can disqualify the split
            // before the next (more expensive) quantity is touched.
            let lhs_cost = table.cost(lhs);
            if lhs_cost < best {
                let oprnd_cost = lhs_cost + table.cost(rhs);
                if oprnd_cost < best {
                    let dpnd_cost = if M::HAS_DEP {
                        stats.kappa_dep();
                        oprnd_cost + kappa_dep_oriented(table, model, out_card, s, lhs, rhs)
                    } else {
                        oprnd_cost
                    };
                    if dpnd_cost < best {
                        stats.cond_hit();
                        best = dpnd_cost;
                        best_lhs = lhs;
                    }
                }
            }
        } else {
            // Unpruned variant (ablation): κ'' evaluated on every
            // iteration, exactly as in the Figure 1 pseudo-code.
            let oprnd_cost = table.cost(lhs) + table.cost(rhs);
            stats.kappa_dep();
            let dpnd_cost = oprnd_cost + kappa_dep_oriented(table, model, out_card, s, lhs, rhs);
            if dpnd_cost < best {
                stats.cond_hit();
                best = dpnd_cost;
                best_lhs = lhs;
            }
        }

        lhs = next_lhs;
    }

    let total = best + kappa_ind;
    if total < cap {
        table.set_cost(s, total);
        table.set_best_lhs(s, best_lhs);
    } else {
        // No split beat the threshold (or everything overflowed): reject.
        table.set_cost(s, f32::INFINITY);
        table.set_best_lhs(s, RelSet::EMPTY);
    }
}

/// Initialize the table row for the singleton `{rel}` (paper Figure 1,
/// `init_singleton`): base relations cost nothing (equation (1)) and their
/// cardinality is given.
#[inline]
pub(crate) fn init_singleton<L, M>(table: &mut L, model: &M, rel: usize, card: f64)
where
    L: TableLayout,
    M: CostModel,
{
    let s = RelSet::singleton(rel);
    table.set_card(s, card);
    table.set_cost(s, 0.0);
    table.set_best_lhs(s, RelSet::EMPTY);
    table.set_pi_fan(s, 1.0);
    if M::HAS_AUX {
        table.set_aux(s, model.aux(card));
    }
}

/// Drive `compute_properties` + `find_best_split` over every non-singleton
/// subset in integer order (paper Section 4.2: processing sets by their
/// integer representations guarantees all subsets of `S` precede `S`).
///
/// `compute_properties` receives the table and the set and must fill in
/// `card` (and `pi_fan`/`aux` where applicable).
#[inline]
pub(crate) fn drive<L, M, St, F, const PRUNE: bool>(
    table: &mut L,
    model: &M,
    n: usize,
    cap: f32,
    engine: RowEngine,
    stats: &mut St,
    mut compute_properties: F,
) where
    L: TableLayout,
    M: CostModel,
    St: Stats,
    F: FnMut(&mut L, &M, RelSet),
{
    stats.pass();
    let end = 1u32 << n;
    let mut bits = 3u32;
    while bits < end {
        let s = RelSet::from_bits(bits);
        // Skip powers of two: those are singletons, already initialized.
        if !s.is_singleton() {
            compute_properties(table, model, s);
            engine.run_row::<L, M, St, PRUNE>(table, model, s, cap, stats);
        }
        bits += 1;
    }
}

/// Successor of `v` in the enumeration of same-popcount bit patterns
/// (Gosper's hack). `u64` so the final pattern's successor cannot
/// overflow for any supported `n`.
///
/// The textbook form divides by `c = v & −v`; since `c` is always a
/// power of two, the hardware divide (tens of cycles, unpipelined on
/// most cores) is replaced by a shift by `c.trailing_zeros()` — this
/// runs once per row per worker in every wave of the parallel driver.
#[inline]
fn same_popcount_successor(v: u64) -> u64 {
    let c = v & v.wrapping_neg();
    let r = v + c;
    ((r ^ v) >> (2 + c.trailing_zeros())) | r
}

/// Binomial coefficient `C(n, k)`, exact in `u64` for every `n` the
/// table supports (`C(28, 14) ≈ 4·10^7`). Runs off the hot path: once
/// per worker per wave for chunk sizing and unranking.
pub(crate) fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        // Exact at every step: the running product of `i+1` consecutive
        // integers is divisible by `(i+1)!`.
        acc = acc * (n - i) as u128 / (i + 1) as u128;
    }
    acc as u64
}

/// Row count of the widest wave the parallel driver will run (waves are
/// `k = 2..=n`); the useful upper bound on worker count.
fn widest_wave(n: usize) -> u64 {
    (2..=n).map(|k| binomial(n, k)).max().unwrap_or(0)
}

/// The `m`-th (0-based) `k`-subset in increasing bit-vector order —
/// the order Gosper's successor enumerates — via the combinatorial
/// number system (colex unranking): choosing bits from the highest
/// down, each is the largest `c` with `C(c, j) ≤` the remaining rank.
///
/// Lets a worker jump straight to the start of its chunk of a wave
/// instead of stepping the successor from the wave's first row.
fn nth_same_popcount(k: usize, mut m: u64) -> u64 {
    let mut bits = 0u64;
    for j in (1..=k).rev() {
        let mut c = j - 1;
        while binomial(c + 1, j) <= m {
            c += 1;
        }
        m -= binomial(c, j); // C(j−1, j) = 0: the lowest choice is free
        bits |= 1 << c;
    }
    bits
}

/// Colex rank of `bits` within the enumeration of its own popcount class
/// — the exact inverse of [`nth_same_popcount`]: for the `j`-th lowest
/// set bit (1-based) at position `c`, the patterns preceding `bits` in
/// Gosper order include all `C(c, j)` ways of placing the lowest `j` bits
/// strictly below `c`.
///
/// Off the hot path: used by the checked-build wave guard to validate
/// that a written row falls inside the worker's chunk.
#[cfg(any(blitz_check, debug_assertions))]
pub(crate) fn rank_same_popcount(bits: u64) -> u64 {
    let mut rank = 0u64;
    let mut rest = bits;
    let mut j = 0usize;
    while rest != 0 {
        let c = rest.trailing_zeros() as usize;
        j += 1;
        rank += binomial(c, j);
        rest &= rest - 1;
    }
    rank
}

/// Chunk-boundary alignment within a wave, in rows: 16 dense `f32`
/// costs = one 64-byte cache line of [`crate::table::HotColdTable`]'s
/// hot array, so two workers' hot-cost writes can only meet on a line
/// at most once per wave (at a rounding-truncated final chunk), not on
/// every line as they would if rows were dealt one at a time.
const CHUNK_ALIGN_ROWS: u64 = 16;

/// Drive `compute_properties` + `find_best_split` over every non-singleton
/// subset in **rank waves**: all subsets of cardinality `k` are processed
/// (in parallel across `threads` workers) before any subset of
/// cardinality `k + 1`.
///
/// This is valid because every table access for a set `S` either writes
/// `S`'s own row or reads rows of strict subsets of `S` — which all have
/// smaller popcount and were completed in earlier waves. Within a wave,
/// each row is assigned to exactly one worker — a contiguous,
/// alignment-rounded chunk of the wave's Gosper enumeration per worker
/// (workers jump to their chunk with [`nth_same_popcount`]) — so writes
/// are disjoint; a barrier separates waves. See [`SyncTable`] for the
/// full safety argument.
///
/// The worker count is clamped to the widest wave's row count: surplus
/// workers could never be handed a row and would only ever wait at
/// barriers, so small-`n` tables on many-core hosts (`n = 4`,
/// `threads = 16`) don't spawn 10 threads of pure synchronization.
///
/// Produces a table bit-identical to [`drive`]'s under every worker
/// count: each row's computation is self-contained and
/// deterministic (see the tie-break note in [`find_best_split`]), and
/// all drivers respect the same subset-before-superset dependency order
/// — which rows run on which worker, and in what order within a wave,
/// cannot be observed in the output bits.
pub(crate) fn drive_parallel<L, M, St, F, const PRUNE: bool>(
    table: &mut L,
    model: &M,
    n: usize,
    cap: f32,
    options: DriveOptions,
    stats: &mut St,
    compute_properties: F,
) where
    L: WaveTableLayout + Send,
    M: CostModel + Sync,
    St: Stats + Default + Send,
    F: Fn(&mut SyncTableView<L>, &M, RelSet) + Sync,
{
    let threads = options.effective_parallelism();
    // Resolve the driver once, before any worker spawns: the model
    // capability probe stays off the row path and every worker
    // dispatches on the same `Copy` token.
    let engine = RowEngine::resolve(options, model, n);
    debug_assert!(threads >= 2, "use `drive` for serial execution");
    stats.pass();
    let end = 1u64 << n;
    let threads = threads.min(usize::try_from(widest_wave(n)).unwrap_or(usize::MAX)).max(1);
    let shared = SyncTable::from_mut(table);
    if threads < 2 {
        // Degenerate table (n ≤ 2: every wave is a single row) — fill it
        // on this thread, still in wave order.
        // SAFETY: exactly one view on one thread; trivially race-free.
        let mut view = unsafe { shared.view() };
        for k in 2..=n {
            view.begin_wave(k, None);
            let mut bits = (1u64 << k) - 1;
            while bits < end {
                let s = RelSet::from_wave_bits(bits);
                compute_properties(&mut view, model, s);
                engine.run_row::<SyncTableView<L>, M, St, PRUNE>(&mut view, model, s, cap, stats);
                bits = same_popcount_successor(bits);
            }
        }
        return;
    }
    let compute_properties = &compute_properties;
    let barrier = std::sync::Barrier::new(threads);
    let barrier = &barrier;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                // SAFETY: within each wave every row is handled by
                // exactly one worker (disjoint chunk ranges), reads are
                // confined to strictly-smaller-popcount rows from
                // earlier waves, and a barrier separates waves — the
                // SyncTable discipline.
                let mut view = unsafe { shared.view() };
                scope.spawn(move || {
                    let mut local = St::default();
                    for k in 2..=n {
                        let rows = binomial(n, k);
                        // Even deal, rounded up to whole cache lines of
                        // hot costs; trailing workers may come up empty
                        // on narrow waves.
                        let per = rows.div_ceil(threads as u64);
                        let chunk = per.div_ceil(CHUNK_ALIGN_ROWS) * CHUNK_ALIGN_ROWS;
                        let start = t as u64 * chunk;
                        let stop = (start + chunk).min(rows).max(start);
                        view.begin_wave(k, Some((start, stop)));
                        if start < rows {
                            let mut bits = nth_same_popcount(k, start);
                            for _ in start..stop {
                                let s = RelSet::from_wave_bits(bits);
                                compute_properties(&mut view, model, s);
                                engine.run_row::<SyncTableView<L>, M, St, PRUNE>(
                                    &mut view, model, s, cap, &mut local,
                                );
                                bits = same_popcount_successor(bits);
                            }
                        }
                        barrier.wait();
                    }
                    local
                })
            })
            .collect();
        for worker in workers {
            stats.absorb(worker.join().expect("wave worker panicked"));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shift form of Gosper's successor must agree with the
    /// textbook divide form on every pattern it will ever see.
    #[test]
    fn successor_shift_matches_divide_form() {
        fn divide_form(v: u64) -> u64 {
            let c = v & v.wrapping_neg();
            let r = v + c;
            (((r ^ v) >> 2) / c) | r
        }
        for n in 2..=16usize {
            for k in 1..=n {
                let mut bits = (1u64 << k) - 1;
                while bits < (1u64 << n) {
                    assert_eq!(same_popcount_successor(bits), divide_form(bits), "v={bits:#b}");
                    bits = same_popcount_successor(bits);
                }
            }
        }
    }

    #[test]
    fn binomial_matches_pascal() {
        let mut row = vec![1u64];
        for n in 0..=30usize {
            for (k, &v) in row.iter().enumerate() {
                assert_eq!(binomial(n, k), v, "C({n},{k})");
            }
            assert_eq!(binomial(n, n + 1), 0);
            let mut next = vec![1u64];
            for w in row.windows(2) {
                next.push(w[0] + w[1]);
            }
            next.push(1);
            row = next;
        }
        assert_eq!(binomial(28, 14), 40_116_600);
    }

    /// Unranking must land exactly where stepping the successor from the
    /// wave's first row lands.
    #[test]
    fn unranking_matches_successor_walk() {
        for n in 2..=12usize {
            for k in 1..=n {
                let mut bits = (1u64 << k) - 1;
                let rows = binomial(n, k);
                for m in 0..rows {
                    assert_eq!(
                        nth_same_popcount(k, m),
                        bits,
                        "n={n} k={k} m={m}"
                    );
                    bits = same_popcount_successor(bits);
                }
            }
        }
    }

    /// `rank_same_popcount` must be the exact inverse of
    /// `nth_same_popcount` across every wave of every supported width.
    #[cfg(any(blitz_check, debug_assertions))]
    #[test]
    fn ranking_inverts_unranking() {
        for n in 2..=12usize {
            for k in 1..=n {
                for m in 0..binomial(n, k) {
                    let bits = nth_same_popcount(k, m);
                    assert_eq!(rank_same_popcount(bits), m, "n={n} k={k} m={m}");
                }
            }
        }
    }

    #[test]
    fn widest_wave_is_the_middle_binomial() {
        assert_eq!(widest_wave(2), 1); // only the k=2 wave exists
        assert_eq!(widest_wave(3), 3);
        assert_eq!(widest_wave(4), 6);
        assert_eq!(widest_wave(16), binomial(16, 8));
    }

    /// Chunked dealing must assign every row of every wave to exactly
    /// one worker, whatever the worker count.
    #[test]
    fn chunks_partition_every_wave() {
        for n in 2..=12usize {
            for threads in 2..=17usize {
                for k in 2..=n {
                    let rows = binomial(n, k);
                    let per = rows.div_ceil(threads as u64);
                    let chunk = per.div_ceil(CHUNK_ALIGN_ROWS) * CHUNK_ALIGN_ROWS;
                    let mut covered = 0u64;
                    let mut prev_stop = 0u64;
                    for t in 0..threads as u64 {
                        let start = t * chunk;
                        if start >= rows {
                            continue;
                        }
                        let stop = (start + chunk).min(rows);
                        assert_eq!(start, prev_stop, "gap before worker {t}");
                        covered += stop - start;
                        prev_stop = stop;
                    }
                    assert_eq!(covered, rows, "n={n} k={k} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn drive_options_builders_compose() {
        let o = DriveOptions::parallel(4)
            .with_layout(LayoutChoice::HotCold)
            .with_kernel(KernelChoice::Scalar)
            .with_driver(DriverChoice::Conv)
            .with_conv_min_rels(9);
        assert_eq!(o.parallelism, 4);
        assert_eq!(o.layout, LayoutChoice::HotCold);
        assert_eq!(o.driver, DriverChoice::Conv);
        assert_eq!(o.conv_min_rels, 9);
        assert_eq!(o.with_kernel(KernelChoice::Scalar), o);
        assert_eq!(DriveOptions::serial().effective_parallelism(), 1);
        assert_eq!(DriveOptions::serial().driver, DriverChoice::Split);
        assert_eq!(DriveOptions::serial().conv_min_rels, CONV_AUTO_MIN_RELS);
    }

    #[test]
    fn env_override_parses_or_stays_unset() {
        assert_eq!(env_override("BLITZ_TEST_LAYOUT", None, LayoutChoice::parse), None);
        assert_eq!(
            env_override("BLITZ_TEST_LAYOUT", Some("hotcold"), LayoutChoice::parse),
            Some(LayoutChoice::HotCold)
        );
        assert_eq!(
            env_override("BLITZ_TEST_DRIVER", Some("conv"), DriverChoice::parse),
            Some(DriverChoice::Conv)
        );
        assert_eq!(
            env_override("BLITZ_TEST_THREADS", Some("4"), |v| v.parse::<usize>().ok()),
            Some(4)
        );
    }

    #[test]
    #[should_panic(expected = "BLITZ_TEST_LAYOUT=\"hotcodl\" is not a valid value")]
    fn env_override_rejects_a_misspelled_layout() {
        env_override("BLITZ_TEST_LAYOUT", Some("hotcodl"), LayoutChoice::parse);
    }

    #[test]
    #[should_panic(expected = "BLITZ_TEST_THREADS=\"four\"")]
    fn env_override_rejects_a_non_numeric_thread_count() {
        env_override("BLITZ_TEST_THREADS", Some("four"), |v| v.parse::<usize>().ok());
    }
}
