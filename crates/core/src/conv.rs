//! The layered-convolution driver — `DriverChoice::Conv`.
//!
//! The split-enumeration DP computes, for every non-singleton set `S`,
//!
//! ```text
//! cost[S] = κ'(S) + min over {L, R} partitioning S of
//!               cost[L] + cost[R] + κ''(S, L, R)
//! ```
//!
//! Viewed one popcount layer at a time (as the rank-wave parallel driver
//! already schedules it), the inner `min` over wave `k` is a (min,+)
//! **subset convolution** of the lower layers of the dense cost column
//! with itself: `(cost ⊛ cost)[S] = min_{L ⊂ S} cost[L] + cost[S − L]`
//! (DPconv's formulation of the join-ordering DP). Exact (min,+)
//! convolution over real-valued costs admits no known subexponential
//! evaluation, but the convolution view licenses an *orientation
//! halving* the split enumeration cannot see: `⊛` is commutative, so
//! when a candidate's cost is a symmetric function of `{L, R}` each
//! unordered partition needs evaluating **once**, not once per
//! orientation. This driver anchors every candidate on the lowest
//! relation of `S` — walking `L = {min S} ∪ sub` for `sub ⊆ S − {min S}`
//! — and thereby visits `2^(|S|−1) − 1` candidates per row instead of
//! the split walk's `2^|S| − 2`: half the `3^n` total, an asymptotic
//! constant no further micro-optimization of the split loop can reach.
//!
//! # Exactness boundary
//!
//! The halving is exact when the candidate cost assigns both
//! orientations of an unordered partition the same f32 bits. Each model
//! declares how it reaches that bar via
//! [`CostModel::CONV_SUPPORT`](crate::cost::ConvSupport):
//!
//! * **Native** (κ0): `κ'' ≡ 0`, so a candidate's cost is the single
//!   commutative addition `cost[L] + cost[R]` — exact with no help.
//! * **Canonical** (κ_sm, κ_dnl, min(κ_sm, κ_dnl)): `κ''` is nonzero,
//!   but every κ'' call site — the split walk and this driver's anchored
//!   walk — presents the operands in a
//!   *canonical order*: the operand containing `min S` is always `L`
//!   (the anchored walk satisfies this by construction, since its left
//!   operand always contains the anchor `{min S}`; the split walk swaps
//!   when its `lhs` lacks the lowest relation). Both orientations then
//!   execute the same float expression on identically ordered operands
//!   and round to the same bits, so the halving is exact by
//!   construction. The canonical-split reference — split enumeration
//!   with canonically ordered κ'' operands — is the common ground truth
//!   both drivers are bit-equal to; for the shipped models it is also
//!   bit-equal to the historical un-normalized split output, because
//!   their κ'' happen to be bitwise symmetric (IEEE `+`/`*`/`min`
//!   commute exactly — pinned by a cost-model unit test).
//! * **Fallback** (the default for models that declare nothing):
//!   `Conv`/`Auto` transparently degrade to the split driver via
//!   [`RowEngine::resolve`], and κ'' sees raw walk order.
//!
//! On a supported model the resulting **cost and cardinality columns are
//! bit-identical** to the split driver's: both drivers take the f32
//! minimum (strict `<`, first-wins) over the same multiset of candidate
//! values. The `best_lhs` column may differ in *representation* — the
//! split walk records whichever orientation of the winning partition has
//! the smaller integer bit pattern, the anchored walk always records the
//! orientation containing `min S` — but both denote the same unordered
//! partition, so extracted plans are equal up to commuting join inputs
//! (and compare equal after [`crate::plan::Plan::canonical`]). Only on a
//! genuine *cross-partition* tie (two different partitions at exactly
//! equal f32 cost) can the chosen partition itself differ between
//! drivers; each driver's own choice is deterministic — first minimum in
//! its documented walk order — which is what the driver-equivalence
//! suite pins.
//!
//! # Dispatch
//!
//! [`DriverChoice`] is the user-facing knob on [`crate::DriveOptions`]
//! (env `BLITZ_TEST_DRIVER`, CLI `--driver`, service config/wire
//! `driver=`): `Split` is the reference enumeration, `Conv` uses this
//! driver wherever the model supports it (falling back otherwise), and
//! `Auto` picks Conv only when the model supports it *and* the relation
//! count is at least the crossover — [`CONV_AUTO_MIN_RELS`] by default,
//! or a measured-on-this-host value when a calibration profile is in
//! force ([`crate::calibrate`], [`DriveOptions::conv_min_rels`]) —
//! below the crossover the split loop's smaller per-row constant wins
//! (see EXPERIMENTS.md). Resolution happens once per drive in
//! [`RowEngine::resolve`]; the row path dispatches on a `Copy` token.

use crate::bitset::RelSet;
use crate::cost::{ConvSupport, CostModel};
use crate::split::{find_best_split, DriveOptions};
use crate::stats::Stats;
use crate::table::TableLayout;

/// Relation count at or above which `DriverChoice::Auto` prefers the
/// convolution driver on a supporting model. Below the crossover the
/// split loop's smaller per-row setup wins; the halving only pays once
/// the `O(3^n)` loop body dominates. Measured on the hotpath bench
/// host (see EXPERIMENTS.md): conv is at-or-ahead of the best split
/// configuration from `n = 6` on all four workload topologies, and
/// within noise at `n = 5`.
pub const CONV_AUTO_MIN_RELS: usize = 6;

/// Runtime name for the DP driver used to fill each table row,
/// selectable per [`crate::DriveOptions`] (env `BLITZ_TEST_DRIVER`, CLI
/// `--driver`, service config). On models where the convolution
/// reduction is exact ([`CostModel::CONV_SUPPORT`] of `Native` or
/// `Canonical`) the drivers are cost-bit-identical; elsewhere
/// `Conv`/`Auto` silently run `Split`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum DriverChoice {
    /// The Vance–Maier split enumeration of [`crate::split`]: every
    /// ordered split of every set. The reference, and the default.
    #[default]
    Split,
    /// The anchored layered-convolution driver of this module: each
    /// unordered partition once. Falls back to `Split` on models whose
    /// `κ''` makes the halving inexact.
    Conv,
    /// `Conv` when the model supports it and `n ≥` the measured
    /// crossover ([`CONV_AUTO_MIN_RELS`]); `Split` otherwise.
    Auto,
}

impl DriverChoice {
    /// All selectable drivers, for ablation sweeps.
    pub const ALL: [DriverChoice; 3] =
        [DriverChoice::Split, DriverChoice::Conv, DriverChoice::Auto];

    /// Stable lower-case name (`split` / `conv` / `auto`).
    pub fn name(self) -> &'static str {
        match self {
            DriverChoice::Split => "split",
            DriverChoice::Conv => "conv",
            DriverChoice::Auto => "auto",
        }
    }

    /// Inverse of [`name`](DriverChoice::name); `None` for unknown names.
    pub fn parse(s: &str) -> Option<DriverChoice> {
        match s {
            "split" => Some(DriverChoice::Split),
            "conv" => Some(DriverChoice::Conv),
            "auto" => Some(DriverChoice::Auto),
            _ => None,
        }
    }

    /// Resolve the user-facing choice against a model's capability, the
    /// problem size and the effective `Auto` crossover
    /// ([`DriveOptions::conv_min_rels`] — [`CONV_AUTO_MIN_RELS`] unless
    /// a calibration profile retuned it), once per drive. Never returns
    /// `Auto`; `Conv` on a [`ConvSupport::Fallback`] model degrades to
    /// `Split` (the documented transparent fallback), so requesting
    /// `Conv` is always safe.
    pub fn resolve(self, support: ConvSupport, n: usize, min_rels: usize) -> DriverChoice {
        match self {
            DriverChoice::Split => DriverChoice::Split,
            DriverChoice::Conv => {
                if support.allows_conv() {
                    DriverChoice::Conv
                } else {
                    DriverChoice::Split
                }
            }
            DriverChoice::Auto => {
                if support.allows_conv() && n >= min_rels {
                    DriverChoice::Conv
                } else {
                    DriverChoice::Split
                }
            }
        }
    }
}

impl std::fmt::Display for DriverChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-row execution policy, resolved once per drive: which DP
/// driver fills a row. A `Copy` token handed to every worker so the
/// capability probe never sits on the row path.
#[derive(Copy, Clone, Debug)]
pub(crate) struct RowEngine {
    /// Resolved driver — `Split` or `Conv`, never `Auto`.
    driver: DriverChoice,
}

impl RowEngine {
    /// Resolve a full [`DriveOptions`] policy against the model and
    /// problem size.
    pub(crate) fn resolve<M: CostModel>(options: DriveOptions, _model: &M, n: usize) -> RowEngine {
        RowEngine { driver: options.driver.resolve(M::CONV_SUPPORT, n, options.conv_min_rels) }
    }

    /// The reference split driver. The legacy serial entry points
    /// ([`crate::join::optimize_join_into`] and friends) route here so
    /// their enumeration — and therefore their `Counters` — is exactly
    /// the paper's split walk.
    pub(crate) fn split() -> RowEngine {
        RowEngine { driver: DriverChoice::Split }
    }

    /// Fill the row for `s` with this policy. Same contract as
    /// [`crate::split::find_best_split`]: `card`/`aux` already filled,
    /// `cost` and `best_lhs` written here.
    #[inline]
    pub(crate) fn run_row<L, M, St, const PRUNE: bool>(
        self,
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
        match self.driver {
            DriverChoice::Conv => {
                find_best_split_conv::<L, M, St, PRUNE>(table, model, s, cap, stats);
            }
            _ => find_best_split::<L, M, St, PRUNE>(table, model, s, cap, stats),
        }
    }
}

/// Anchored convolution form of [`crate::split::find_best_split`]:
/// identical contract
/// and identical κ' hoist / cascade / finish stages, but the candidate
/// walk covers each unordered partition of `s` exactly once by fixing
/// `anchor = {min s}` in the left operand and walking
/// `sub ⊆ s − anchor` in dilated-counting order (`sub` starts empty —
/// the first candidate is `anchor` itself — and the walk stops before
/// `sub` reaches `s − anchor`, which would leave an empty right side).
///
/// Tie-break determinism: the walk visits `lhs = anchor ∪ sub` in
/// strictly increasing bit-vector order of `sub` (dilated counting is
/// order-preserving), and the strict `<` below keeps the first minimum
/// — the minimum-cost partition whose *anchored orientation* has the
/// lowest bits. Like the split walk's tie-break, the choice depends
/// only on rows of strict subsets of `s`, so serial and rank-wave
/// parallel execution produce bit-identical tables.
#[inline]
pub(crate) fn find_best_split_conv<L, M, St, const PRUNE: bool>(
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

    // κ'(S) hoist + loop skip — verbatim from `find_best_split`.
    stats.kappa_ind();
    let kappa_ind = model.kappa_ind(out_card);
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(kappa_ind < cap) {
        table.set_cost(s, f32::INFINITY);
        table.set_best_lhs(s, RelSet::EMPTY);
        stats.loop_skipped();
        return;
    }

    let mut best = f32::INFINITY;
    let mut best_lhs = RelSet::EMPTY;

    let anchor = s.lowest_singleton();
    let rest = s - anchor;
    // `rest.subset_successor(RelSet::EMPTY)` is `rest & (0 − rest)` =
    // the lowest singleton of `rest`, so one successor walk covers
    // sub = ∅, δ_rest(1), δ_rest(2), … without a special first step.
    let mut sub = RelSet::EMPTY;
    loop {
        stats.loop_iter();
        let lhs = anchor | sub;
        let rhs = rest - sub;

        // One-candidate lookahead prefetch, exactly as in the split
        // walk: advisory only, gated on `L::PREFETCHES` so no-op
        // layouts pay nothing.
        let next_sub = rest.subset_successor(sub);
        if L::PREFETCHES && next_sub != rest {
            table.prefetch_cost(anchor | next_sub);
            table.prefetch_cost(rest - next_sub);
        }

        if PRUNE {
            // Nested-if cascade — verbatim from `find_best_split`.
            let lhs_cost = table.cost(lhs);
            if lhs_cost < best {
                let oprnd_cost = lhs_cost + table.cost(rhs);
                if oprnd_cost < best {
                    let dpnd_cost = if M::HAS_DEP {
                        stats.kappa_dep();
                        // The anchored walk is canonical by construction
                        // (`lhs ⊇ {min s}`), so passing `(lhs, rhs)`
                        // as-is IS the lowest-relation-first order the
                        // `Canonical` exactness argument requires — no
                        // swap test needed here, unlike the split walk's
                        // `kappa_dep_oriented`.
                        oprnd_cost
                            + model.kappa_dep(
                                out_card,
                                table.card(lhs),
                                table.card(rhs),
                                table.aux(lhs),
                                table.aux(rhs),
                            )
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
            let oprnd_cost = table.cost(lhs) + table.cost(rhs);
            stats.kappa_dep();
            // Anchored ⇒ canonical operand order, as in the pruned arm.
            let dpnd_cost = oprnd_cost
                + model.kappa_dep(
                    out_card,
                    table.card(lhs),
                    table.card(rhs),
                    table.aux(lhs),
                    table.aux(rhs),
                );
            if dpnd_cost < best {
                stats.cond_hit();
                best = dpnd_cost;
                best_lhs = lhs;
            }
        }

        if next_sub == rest {
            break;
        }
        sub = next_sub;
    }

    // Finish — verbatim from `find_best_split`.
    let total = best + kappa_ind;
    if total < cap {
        table.set_cost(s, total);
        table.set_best_lhs(s, best_lhs);
    } else {
        table.set_cost(s, f32::INFINITY);
        table.set_best_lhs(s, RelSet::EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{DiskNestedLoops, Kappa0, SmDnl, SortMerge};
    use crate::spec::JoinSpec;
    use crate::stats::Counters;
    use crate::table::{AosTable, HotColdTable, SoaTable};

    #[test]
    fn driver_choice_names_roundtrip() {
        for choice in DriverChoice::ALL {
            assert_eq!(DriverChoice::parse(choice.name()), Some(choice));
            assert_eq!(format!("{choice}"), choice.name());
        }
        assert_eq!(DriverChoice::parse("fft"), None);
        assert_eq!(DriverChoice::default(), DriverChoice::Split);
    }

    #[test]
    fn resolution_respects_capability_and_crossover() {
        use crate::cost::ConvSupport::{Canonical, Fallback, Native};
        let d = CONV_AUTO_MIN_RELS;
        // Explicit choices: Split always sticks; Conv sticks iff the
        // model's support tier allows the halving at all.
        for n in [2, d, 20] {
            for support in [Native, Canonical] {
                assert_eq!(DriverChoice::Split.resolve(support, n, d), DriverChoice::Split);
                assert_eq!(DriverChoice::Conv.resolve(support, n, d), DriverChoice::Conv);
            }
            assert_eq!(DriverChoice::Split.resolve(Fallback, n, d), DriverChoice::Split);
            assert_eq!(DriverChoice::Conv.resolve(Fallback, n, d), DriverChoice::Split);
        }
        // Auto: conv only at/above the crossover, and only when allowed.
        assert_eq!(DriverChoice::Auto.resolve(Native, d - 1, d), DriverChoice::Split);
        assert_eq!(DriverChoice::Auto.resolve(Native, d, d), DriverChoice::Conv);
        assert_eq!(DriverChoice::Auto.resolve(Canonical, d, d), DriverChoice::Conv);
        assert_eq!(DriverChoice::Auto.resolve(Fallback, d + 4, d), DriverChoice::Split);
        // A calibrated crossover moves the Auto boundary, nothing else.
        assert_eq!(DriverChoice::Auto.resolve(Canonical, 3, 2), DriverChoice::Conv);
        assert_eq!(DriverChoice::Auto.resolve(Canonical, 3, 9), DriverChoice::Split);
        assert_eq!(DriverChoice::Conv.resolve(Canonical, 3, 9), DriverChoice::Conv);
    }

    #[test]
    fn capability_probe_matches_kappa_dep_shape() {
        use crate::cost::ConvSupport;
        // All four shipped models now run the halved enumeration — κ0
        // natively, the κ″ carriers through canonical operand ordering.
        assert_eq!(Kappa0.conv_support(), ConvSupport::Native);
        assert_eq!(SortMerge.conv_support(), ConvSupport::Canonical);
        assert_eq!(DiskNestedLoops::default().conv_support(), ConvSupport::Canonical);
        assert_eq!(SmDnl::default().conv_support(), ConvSupport::Canonical);
        assert!(Kappa0.conv_support().allows_conv());
        assert!(SortMerge.conv_support().allows_conv());
    }

    /// The anchored walk must visit exactly `2^(k−1) − 1` candidates
    /// per row — one orientation of every unordered partition.
    #[test]
    fn conv_visits_each_partition_once() {
        let spec = JoinSpec::cartesian(&[10.0; 7]).unwrap();
        let mut counters = Counters::default();
        let _: AosTable = optimize_conv_into::<AosTable, Kappa0, false>(&spec, &Kappa0, &mut counters);
        // Σ_{k=2..n} C(n,k)·(2^(k−1) − 1) = (3^n + 1)/2 − 2^n + (n(n−1)/2 … )
        // computed directly instead:
        let n = 7u32;
        let mut expect = 0u64;
        for k in 2..=n {
            let rows: u64 = {
                // C(n, k)
                let mut acc = 1u64;
                for i in 0..k {
                    acc = acc * u64::from(n - i) / u64::from(i + 1);
                }
                acc
            };
            expect += rows * ((1u64 << (k - 1)) - 1);
        }
        assert_eq!(counters.loop_iters, expect);
    }

    /// Driving every row through the conv cascade (scalar, unpruned or
    /// pruned per `PRUNE`), for the tests in this module.
    fn optimize_conv_into<L: TableLayout, M: CostModel, const PRUNE: bool>(
        spec: &JoinSpec,
        model: &M,
        stats: &mut Counters,
    ) -> L {
        let n = spec.n();
        let mut table = L::with_rels(n);
        for rel in 0..n {
            crate::split::init_singleton(&mut table, model, rel, spec.card(rel));
        }
        stats.pass();
        let end = 1u32 << n;
        let mut bits = 3u32;
        while bits < end {
            let s = RelSet::from_bits(bits);
            if !s.is_singleton() {
                crate::join::join_properties(&mut table, model, spec, s);
                find_best_split_conv::<L, M, Counters, PRUNE>(
                    &mut table,
                    model,
                    s,
                    f32::INFINITY,
                    stats,
                );
            }
            bits += 1;
        }
        table
    }

    /// On κ0 the conv driver's cost and cardinality columns must be
    /// **bit-identical** to the split driver's, across layouts, and the
    /// recorded `best_lhs` must denote the same unordered partition
    /// wherever the winning partition is unique.
    #[test]
    fn conv_cost_bits_match_split_on_kappa0() {
        let specs = [
            JoinSpec::new(
                &[120.0, 7.0, 3300.0, 42.0, 9.0, 260.0, 18.0],
                &[(0, 1, 0.01), (1, 2, 0.5), (2, 3, 0.002), (3, 4, 0.9), (0, 5, 0.03), (4, 6, 0.25)],
            )
            .unwrap(),
            JoinSpec::cartesian(&[10.0; 8]).unwrap(),
            JoinSpec::new(&[10.0, 20.0, 30.0, 40.0], &[(0, 1, 0.1), (2, 3, 0.2)]).unwrap(),
        ];
        for spec in &specs {
            let mut c_split = Counters::default();
            let split: AosTable = crate::join::optimize_join_into::<_, _, _, true>(
                spec,
                &Kappa0,
                f32::INFINITY,
                &mut c_split,
            );
            let mut c_conv = Counters::default();
            let conv: AosTable = optimize_conv_into::<AosTable, Kappa0, true>(spec, &Kappa0, &mut c_conv);
            let conv_soa: SoaTable = optimize_conv_into::<SoaTable, Kappa0, true>(spec, &Kappa0, &mut Counters::default());
            let conv_hc: HotColdTable =
                optimize_conv_into::<HotColdTable, Kappa0, true>(spec, &Kappa0, &mut Counters::default());
            for bits in 1u32..(1 << spec.n()) {
                let s = RelSet::from_bits(bits);
                assert_eq!(split.cost(s).to_bits(), conv.cost(s).to_bits(), "cost({s:?})");
                assert_eq!(split.card(s).to_bits(), conv.card(s).to_bits(), "card({s:?})");
                assert_eq!(conv.cost(s).to_bits(), conv_soa.cost(s).to_bits());
                assert_eq!(conv.cost(s).to_bits(), conv_hc.cost(s).to_bits());
                // Same unordered partition: conv's pointer is either
                // split's choice or its complement.
                if !s.is_singleton() && split.cost(s).is_finite() {
                    let sp = split.best_lhs(s);
                    let cv = conv.best_lhs(s);
                    assert!(
                        cv == sp || cv == s - sp,
                        "best_lhs({s:?}): split {sp:?} vs conv {cv:?}"
                    );
                }
            }
            // The halving is visible in the counters: conv walks
            // strictly fewer candidates on any spec with a row of
            // popcount ≥ 3.
            assert!(c_conv.loop_iters < c_split.loop_iters);
        }
    }
}

/// Seeded wave-discipline violations driven through [`RowEngine`]'s conv
/// path: the shadow checker must catch the conv anchor walk's reads and
/// final write exactly as it catches the split walk's (the split-driver
/// twins live in `check.rs`). These prove the conv row fill is inside
/// the instrumentation, not just the accessors it happens to share.
#[cfg(all(test, blitz_check))]
mod check_tests {
    use super::*;
    use crate::bitset::RelSet;
    use crate::cost::Kappa0;
    use crate::stats::NoStats;
    use crate::table::{AosTable, SyncTable, TableLayout};

    /// Conv engine, so the seeded rows exercise `find_best_split_conv`.
    fn conv_engine() -> RowEngine {
        RowEngine { driver: DriverChoice::Conv }
    }

    /// Conv fill of a popcount-3 row while wave 4 is in progress: the
    /// anchor walk's reads are all of strictly earlier waves and pass,
    /// but the finishing `set_cost` is a cross-wave write.
    #[test]
    #[should_panic(expected = "wave-discipline violation")]
    fn conv_cross_wave_write_is_detected() {
        let mut t = AosTable::with_rels(5);
        let shared = SyncTable::from_mut(&mut t);
        // SAFETY: single view on one thread; the seeded violation is the
        // checker's to catch, not a real race.
        let mut view = unsafe { shared.view() };
        view.begin_wave(4, None);
        conv_engine().run_row::<_, _, _, true>(
            &mut view,
            &Kappa0,
            RelSet::from_bits(0b0111), // popcount 3 in wave 4
            f32::INFINITY,
            &mut NoStats,
        );
    }

    /// Conv fill of a popcount-3 row while wave 2 is in progress: the
    /// very first access, `card(s)`, reads a future-wave row.
    #[test]
    #[should_panic(expected = "later waves")]
    fn conv_future_wave_read_is_detected() {
        let mut t = AosTable::with_rels(5);
        let shared = SyncTable::from_mut(&mut t);
        // SAFETY: single view on one thread.
        let mut view = unsafe { shared.view() };
        view.begin_wave(2, None);
        conv_engine().run_row::<_, _, _, true>(
            &mut view,
            &Kappa0,
            RelSet::from_bits(0b0111), // popcount 3 in wave 2
            f32::INFINITY,
            &mut NoStats,
        );
    }

    /// Conv fill of a row outside the worker's claimed chunk. The row's
    /// card is written first under an unbounded wave claim (so the
    /// walk's own-row `card(s)` read is legitimate), then the claim is
    /// narrowed and the conv fill's finishing write strays outside it.
    #[test]
    #[should_panic(expected = "outside this worker's chunk")]
    fn conv_out_of_chunk_write_is_detected() {
        let mut t = AosTable::with_rels(6);
        let shared = SyncTable::from_mut(&mut t);
        // SAFETY: single view on one thread.
        let mut view = unsafe { shared.view() };
        let s = RelSet::from_bits(0b11_1000); // {R3,R4,R5}: last wave-3 row (rank 19)
        view.begin_wave(3, None);
        view.set_card(s, 100.0);
        // Re-enter the same wave with a narrowed chunk claim [0, 4).
        view.begin_wave(3, Some((0, 4)));
        conv_engine().run_row::<_, _, _, true>(&mut view, &Kappa0, s, f32::INFINITY, &mut NoStats);
    }
}
