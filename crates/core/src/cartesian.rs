//! Algorithm *blitzsplit* for Cartesian product optimization (paper
//! Section 3, implemented per Section 4).
//!
//! Given only base-relation cardinalities, find the cheapest bushy tree of
//! dyadic `×` operators computing their product. The dynamic-programming
//! table has a row per nonempty subset; `compute_properties` obtains each
//! subset's cardinality by multiplying the cardinalities of an arbitrary
//! split (we use `{min S}` and the rest), and `find_best_split` examines
//! all `2^|S|−2` splits.
//!
//! Although "that result is interesting not because Cartesian product
//! optimization is useful" (Section 1), this optimizer is the foundation:
//! the join optimizer of [`crate::join`] differs *only* in how
//! intermediate-result cardinalities are computed.

use crate::bitset::RelSet;
use crate::conv::RowEngine;
use crate::cost::CostModel;
use crate::plan::Plan;
use crate::spec::{JoinSpec, SpecError};
use crate::split::{drive, drive_parallel, init_singleton, DriveOptions};
use crate::stats::{NoStats, Stats};
use crate::table::{
    AosTable, HotColdTable, LayoutChoice, SoaTable, SyncTableView, TableLayout, WaveTableLayout,
    MAX_TABLE_RELS,
};

/// Result of a successful optimization.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The optimal plan tree.
    pub plan: Plan,
    /// Cost of the optimal plan (`f32`, as stored in the table).
    pub cost: f32,
    /// Estimated cardinality of the final result.
    pub card: f64,
}

/// `compute_properties` for pure products (paper Figure 1): split `S`
/// arbitrarily and multiply the sub-cardinalities.
#[inline]
fn product_properties<L: TableLayout, M: CostModel>(table: &mut L, model: &M, s: RelSet) {
    let u = s.lowest_singleton();
    let v = s - u;
    let card = table.card(u) * table.card(v);
    table.set_card(s, card);
    if M::HAS_AUX {
        table.set_aux(s, model.aux(card));
    }
}

/// Run blitzsplit over `cards` with full control of the table layout,
/// statistics sink, cost cap and pruning switch, returning the filled
/// table. Most callers want [`optimize_products`] instead.
///
/// # Panics
/// Panics if `cards` is empty or longer than [`MAX_TABLE_RELS`].
pub fn optimize_products_into<L, M, St, const PRUNE: bool>(
    cards: &[f64],
    model: &M,
    cap: f32,
    stats: &mut St,
) -> L
where
    L: TableLayout,
    M: CostModel,
    St: Stats,
{
    let n = cards.len();
    assert!((1..=MAX_TABLE_RELS).contains(&n), "unsupported relation count {n}");
    let mut table = L::with_rels(n);
    for (rel, &card) in cards.iter().enumerate() {
        init_singleton(&mut table, model, rel, card);
    }
    drive::<L, M, St, _, PRUNE>(
        &mut table,
        model,
        n,
        cap,
        RowEngine::split(),
        stats,
        product_properties,
    );
    table
}

/// [`optimize_products_into`] with an explicit execution policy: when
/// `options` resolves to two or more workers, the rank-wave parallel
/// driver fills the table; otherwise this is exactly the serial path.
/// Both produce bit-identical tables (see [`crate::split`]).
///
/// # Panics
/// Panics if `cards` is empty or longer than [`MAX_TABLE_RELS`].
pub fn optimize_products_into_with<L, M, St, const PRUNE: bool>(
    cards: &[f64],
    model: &M,
    cap: f32,
    options: DriveOptions,
    stats: &mut St,
) -> L
where
    L: WaveTableLayout + Send,
    M: CostModel + Sync,
    St: Stats + Default + Send,
{
    let threads = options.effective_parallelism();
    if threads < 2 {
        let n = cards.len();
        assert!((1..=MAX_TABLE_RELS).contains(&n), "unsupported relation count {n}");
        let mut table = L::with_rels(n);
        for (rel, &card) in cards.iter().enumerate() {
            init_singleton(&mut table, model, rel, card);
        }
        drive::<L, M, St, _, PRUNE>(
            &mut table,
            model,
            n,
            cap,
            RowEngine::resolve(options, model, n),
            stats,
            product_properties,
        );
        return table;
    }
    let n = cards.len();
    assert!((1..=MAX_TABLE_RELS).contains(&n), "unsupported relation count {n}");
    let mut table = L::with_rels(n);
    for (rel, &card) in cards.iter().enumerate() {
        init_singleton(&mut table, model, rel, card);
    }
    drive_parallel::<L, M, St, _, PRUNE>(
        &mut table,
        model,
        n,
        cap,
        options,
        stats,
        product_properties::<SyncTableView<L>, M>,
    );
    table
}

/// Optimize the Cartesian product of the given relations under `model`,
/// returning the optimal bushy plan.
///
/// Uses the paper's defaults: array-of-structs table, nested-`if` pruning
/// on, no plan-cost threshold (costs only reject on `f32` overflow), and
/// the default [`DriveOptions`] execution policy.
///
/// # Errors
/// Returns [`SpecError`] if `cards` is empty, oversized, or contains a
/// nonpositive/non-finite cardinality. Returns `Err(SpecError::Empty)`
/// never for single relations — a one-relation "product" is just a scan.
pub fn optimize_products<M: CostModel + Sync>(
    cards: &[f64],
    model: &M,
) -> Result<Optimized, SpecError> {
    optimize_products_with(cards, model, DriveOptions::default())
}

/// [`optimize_products`] with an explicit execution policy (worker-thread
/// count for the rank-wave parallel driver; `1` = serial) and table
/// layout ([`DriveOptions::layout`] picks the monomorphization).
///
/// # Errors
/// Returns [`SpecError`] if `cards` is empty, oversized, or contains a
/// nonpositive/non-finite cardinality.
pub fn optimize_products_with<M: CostModel + Sync>(
    cards: &[f64],
    model: &M,
    options: DriveOptions,
) -> Result<Optimized, SpecError> {
    // Validate through JoinSpec for uniform error reporting.
    let spec = JoinSpec::cartesian(cards)?;
    let n = spec.n();
    if n > MAX_TABLE_RELS {
        return Err(SpecError::TooManyRels(n));
    }
    fn run<L, M>(cards: &[f64], model: &M, options: DriveOptions) -> Optimized
    where
        L: WaveTableLayout + Send,
        M: CostModel + Sync,
    {
        let mut stats = NoStats;
        let table: L = optimize_products_into_with::<L, M, NoStats, true>(
            cards,
            model,
            f32::INFINITY,
            options,
            &mut stats,
        );
        let full = RelSet::full(cards.len());
        Optimized {
            plan: Plan::extract(&table, full),
            cost: table.cost(full),
            card: table.card(full),
        }
    }
    Ok(match options.layout {
        LayoutChoice::Aos => run::<AosTable, M>(cards, model, options),
        LayoutChoice::Soa => run::<SoaTable, M>(cards, model, options),
        LayoutChoice::HotCold => run::<HotColdTable, M>(cards, model, options),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{DiskNestedLoops, Kappa0, SortMerge};
    use crate::stats::Counters;
    use crate::table::SoaTable;

    /// Exhaustive reference optimizer: recursively try all splits.
    fn brute_force<M: CostModel>(cards: &[f64], model: &M, s: RelSet) -> (f64, f32) {
        if s.is_singleton() {
            return (cards[s.min_rel().unwrap()], 0.0);
        }
        let mut best = f32::INFINITY;
        let mut out = 0.0;
        for lhs in s.proper_subsets() {
            let rhs = s - lhs;
            let (lc, lcost) = brute_force(cards, model, lhs);
            let (rc, rcost) = brute_force(cards, model, rhs);
            out = lc * rc;
            let c = lcost + rcost + model.kappa(out, lc, rc);
            if c < best {
                best = c;
            }
        }
        (out, best)
    }

    /// Paper Table 1: cards 10/20/30/40 under κ0 → cost 241 000, plan
    /// (A×D)×(B×C) up to commutativity.
    #[test]
    fn table1_reproduction() {
        let cards = [10.0, 20.0, 30.0, 40.0];
        let opt = optimize_products(&cards, &Kappa0).unwrap();
        assert_eq!(opt.card, 240_000.0);
        assert_eq!(opt.cost, 241_000.0);
        let expect = Plan::join(
            Plan::join(Plan::scan(0), Plan::scan(3)),
            Plan::join(Plan::scan(1), Plan::scan(2)),
        );
        assert_eq!(opt.plan.canonical(), expect.canonical());
    }

    /// Every intermediate row of Table 1 must match the paper exactly.
    #[test]
    fn table1_intermediate_rows() {
        let cards = [10.0, 20.0, 30.0, 40.0];
        let mut stats = NoStats;
        let t: AosTable = optimize_products_into::<AosTable, _, _, true>(
            &cards,
            &Kappa0,
            f32::INFINITY,
            &mut stats,
        );
        // (set bits, card, cost) triples straight from Table 1.
        // A=R0, B=R1, C=R2, D=R3.
        let rows: &[(u32, f64, f32)] = &[
            (0b0001, 10.0, 0.0),
            (0b0010, 20.0, 0.0),
            (0b0100, 30.0, 0.0),
            (0b1000, 40.0, 0.0),
            (0b0011, 200.0, 200.0),
            (0b0101, 300.0, 300.0),
            (0b1001, 400.0, 400.0),
            (0b0110, 600.0, 600.0),
            (0b1010, 800.0, 800.0),
            (0b1100, 1200.0, 1200.0),
            (0b0111, 6000.0, 6200.0),
            (0b1011, 8000.0, 8200.0),
            (0b1101, 12000.0, 12300.0),
            (0b1110, 24000.0, 24600.0),
            (0b1111, 240_000.0, 241_000.0),
        ];
        for &(bits, card, cost) in rows {
            let s = RelSet::from_bits(bits);
            assert_eq!(t.card(s), card, "card of {s:?}");
            assert_eq!(t.cost(s), cost, "cost of {s:?}");
        }
        // Best LHS of the full set is {A,D} (or its complement {B,C}).
        let lhs = t.best_lhs(RelSet::full(4));
        assert!(lhs.bits() == 0b1001 || lhs.bits() == 0b0110, "best lhs {lhs:?}");
    }

    #[test]
    fn matches_brute_force_small_n() {
        let cardsets: &[&[f64]] = &[
            &[5.0],
            &[7.0, 3.0],
            &[2.0, 9.0, 4.0],
            &[10.0, 20.0, 30.0, 40.0],
            &[1.0, 1.0, 1.0, 1.0, 1.0],
            &[3.0, 1e4, 2.0, 500.0, 80.0, 7.0],
        ];
        for cards in cardsets {
            for_all_models(cards);
        }
    }

    fn for_all_models(cards: &[f64]) {
        check_model(cards, &Kappa0);
        check_model(cards, &SortMerge);
        check_model(cards, &DiskNestedLoops::default());
    }

    fn check_model<M: CostModel + Sync>(cards: &[f64], model: &M) {
        let opt = optimize_products(cards, model).unwrap();
        if cards.len() == 1 {
            assert_eq!(opt.plan, Plan::scan(0));
            return;
        }
        let (_, bf) = brute_force(cards, model, RelSet::full(cards.len()));
        let tol = bf.abs() * 1e-5 + 1e-5;
        assert!(
            (opt.cost - bf).abs() <= tol,
            "{}: blitzsplit {} vs brute force {} on {cards:?}",
            model.name(),
            opt.cost,
            bf
        );
        // The extracted plan's recomputed cost must agree with the table.
        let spec = JoinSpec::cartesian(cards).unwrap();
        let (_, recost) = opt.plan.cost(&spec, model);
        let tol = opt.cost.abs() * 1e-5 + 1e-5;
        assert!((recost - opt.cost).abs() <= tol, "plan recost {recost} vs table {}", opt.cost);
    }

    #[test]
    fn single_relation_is_a_scan() {
        let opt = optimize_products(&[42.0], &Kappa0).unwrap();
        assert_eq!(opt.plan, Plan::scan(0));
        assert_eq!(opt.cost, 0.0);
        assert_eq!(opt.card, 42.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(optimize_products(&[], &Kappa0).is_err());
        assert!(optimize_products(&[0.0], &Kappa0).is_err());
        assert!(optimize_products(&[f64::NAN, 2.0], &Kappa0).is_err());
    }

    #[test]
    fn layouts_agree() {
        let cards = [12.0, 7.0, 130.0, 2.0, 55.0, 9.0];
        let mut s1 = NoStats;
        let mut s2 = NoStats;
        let aos: AosTable =
            optimize_products_into::<_, _, _, true>(&cards, &Kappa0, f32::INFINITY, &mut s1);
        let soa: SoaTable =
            optimize_products_into::<_, _, _, true>(&cards, &Kappa0, f32::INFINITY, &mut s2);
        for bits in 1u32..(1 << cards.len()) {
            let s = RelSet::from_bits(bits);
            assert_eq!(aos.card(s), soa.card(s));
            assert_eq!(aos.cost(s), soa.cost(s));
        }
    }

    #[test]
    fn pruned_and_unpruned_agree() {
        let cards = [12.0, 7.0, 130.0, 2.0, 55.0, 9.0, 31.0];
        let mut s1 = NoStats;
        let mut s2 = NoStats;
        let a: AosTable = optimize_products_into::<_, _, _, true>(
            &cards,
            &DiskNestedLoops::default(),
            f32::INFINITY,
            &mut s1,
        );
        let b: AosTable = optimize_products_into::<_, _, _, false>(
            &cards,
            &DiskNestedLoops::default(),
            f32::INFINITY,
            &mut s2,
        );
        for bits in 1u32..(1 << cards.len()) {
            let s = RelSet::from_bits(bits);
            assert_eq!(a.cost(s), b.cost(s), "cost of {s:?}");
        }
    }

    /// The counter totals must match the Section 3.3 analysis exactly:
    /// Σ_{m=2}^{n} C(n,m)·(2^m − 2) loop iterations and 2^n − n − 1
    /// non-singleton subsets.
    #[test]
    fn counter_totals_match_analysis() {
        fn binom(n: u64, k: u64) -> u64 {
            (0..k).fold(1u64, |acc, i| acc * (n - i) / (i + 1))
        }
        for n in 2..=10usize {
            let cards: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
            let mut c = Counters::default();
            let _: AosTable = optimize_products_into::<_, _, _, false>(
                &cards,
                &Kappa0,
                f32::INFINITY,
                &mut c,
            );
            let expect_loops: u64 =
                (2..=n as u64).map(|m| binom(n as u64, m) * ((1u64 << m) - 2)).sum();
            let expect_subsets = (1u64 << n) - n as u64 - 1;
            assert_eq!(c.loop_iters, expect_loops, "n={n}");
            assert_eq!(c.subsets, expect_subsets, "n={n}");
            assert_eq!(c.kappa_ind_evals, expect_subsets, "n={n}");
            // Unpruned: κ'' evaluated on every loop iteration.
            assert_eq!(c.kappa_dep_evals, expect_loops, "n={n}");
            assert_eq!(c.passes, 1);
        }
    }

    /// With pruning, κ'' evaluations (for a model with HAS_DEP) are
    /// strictly fewer than loop iterations on any non-degenerate input.
    #[test]
    fn pruning_reduces_kappa_dep_evals() {
        let cards: Vec<f64> = (0..10).map(|i| 10.0 * (i + 1) as f64).collect();
        let mut c = Counters::default();
        let _: AosTable = optimize_products_into::<_, _, _, true>(
            &cards,
            &DiskNestedLoops::default(),
            f32::INFINITY,
            &mut c,
        );
        assert!(c.kappa_dep_evals < c.loop_iters);
        assert!(c.cond_hits <= c.kappa_dep_evals);
    }

    /// Gigantic cardinalities overflow `f32` costs; the optimizer must
    /// reject those plans and still terminate with cost `+∞` rather than
    /// returning garbage.
    #[test]
    fn overflow_yields_infinite_cost() {
        let cards = [1e30, 1e30, 1e30];
        let mut stats = NoStats;
        let t: AosTable =
            optimize_products_into::<_, _, _, true>(&cards, &Kappa0, f32::INFINITY, &mut stats);
        assert!(t.cost(RelSet::full(3)).is_infinite());
    }
}
