//! Join *hypergraphs*: predicates spanning more than two relations.
//!
//! Section 5 of the paper closes with:
//!
//! > Similar techniques can accommodate implied or redundant predicates
//! > and join hypergraphs, but we shall not discuss those topics here.
//!
//! This module supplies the hypergraph half. A hyperpredicate (e.g.
//! `R.a + S.b = T.c`) references a *set* of relations and its selectivity
//! applies exactly when all of them are present — the natural
//! generalization of Section 5.1's induced-subgraph argument. The binary
//! fan recurrence does not survive the generalization (a hyperedge
//! containing `min S` may straddle any split of the remainder), but a
//! different O(2^n)-total recurrence does:
//!
//! ```text
//! card(S) = card(u) · card(S − u) · Π { sel(e) : e ⊆ S, u ∈ e }
//! ```
//!
//! with `u = {min S}`. Every hyperedge inside `S` either avoids `u` — and
//! is then counted inside `card(S − u)` by induction — or contains `u`
//! and is folded in exactly once here. Grouping hyperedges by their
//! minimum relation makes the per-subset work proportional to that
//! relation's edge list, preserving the paper's promise that property
//! computation stays `O(2^n)`-ish and, crucially, leaving
//! `find_best_split` completely untouched.

use crate::bitset::RelSet;
use crate::cartesian::Optimized;
use crate::cost::CostModel;
use crate::plan::Plan;
use crate::spec::SpecError;
use crate::split::{drive, init_singleton};
use crate::stats::{NoStats, Stats};
use crate::table::{AosTable, TableLayout, MAX_TABLE_RELS};

/// A join problem whose predicates may reference any number of relations.
#[derive(Clone, Debug, PartialEq)]
pub struct HyperSpec {
    cards: Vec<f64>,
    /// All hyperedges `(relation set, selectivity)`.
    edges: Vec<(RelSet, f64)>,
    /// Edge indices grouped by the edge's minimum relation.
    by_min: Vec<Vec<usize>>,
}

impl HyperSpec {
    /// Build a hypergraph join problem. Binary predicates are just
    /// two-element hyperedges, so this strictly generalizes
    /// [`crate::spec::JoinSpec`].
    ///
    /// # Errors
    /// Rejects empty problems, oversized problems, nonpositive
    /// cardinalities/selectivities, and hyperedges with fewer than two
    /// relations or out-of-range members.
    pub fn new(cards: &[f64], hyperedges: &[(&[usize], f64)]) -> Result<HyperSpec, SpecError> {
        let n = cards.len();
        if n == 0 {
            return Err(SpecError::Empty);
        }
        if n > MAX_TABLE_RELS {
            return Err(SpecError::TooManyRels(n));
        }
        for (rel, &card) in cards.iter().enumerate() {
            if !(card.is_finite() && card > 0.0) {
                return Err(SpecError::BadCardinality { rel, card });
            }
        }
        let mut edges = Vec::with_capacity(hyperedges.len());
        let mut by_min = vec![Vec::new(); n];
        for &(rels, sel) in hyperedges {
            let set: RelSet = rels.iter().copied().collect();
            if set.len() < 2
                || rels.iter().any(|&r| r >= n)
                || set.len() != rels.len()
                || !(sel.is_finite() && sel > 0.0)
            {
                return Err(SpecError::BadPredicate {
                    lhs: rels.first().copied().unwrap_or(0),
                    rhs: rels.get(1).copied().unwrap_or(0),
                    selectivity: sel,
                });
            }
            by_min[set.min_rel().expect("nonempty")].push(edges.len());
            edges.push((set, sel));
        }
        Ok(HyperSpec { cards: cards.to_vec(), edges, by_min })
    }

    /// Number of relations.
    pub fn n(&self) -> usize {
        self.cards.len()
    }

    /// The full relation set.
    pub fn all_rels(&self) -> RelSet {
        RelSet::full(self.n())
    }

    /// Base cardinality of relation `rel`.
    pub fn card(&self, rel: usize) -> f64 {
        self.cards[rel]
    }

    /// All hyperedges.
    pub fn edges(&self) -> &[(RelSet, f64)] {
        &self.edges
    }

    /// Closed-form join cardinality of `s`: member cardinalities times
    /// the selectivities of all hyperedges wholly inside `s` (the
    /// induced-subhypergraph rule). Reference implementation for tests.
    pub fn join_cardinality(&self, s: RelSet) -> f64 {
        let mut card = 1.0;
        for r in s.iter() {
            card *= self.cards[r];
        }
        for &(e, sel) in &self.edges {
            if e.is_subset_of(s) {
                card *= sel;
            }
        }
        card
    }

    /// Product of selectivities of hyperedges inside `s` that contain
    /// `min s` — the per-subset factor of the recurrence.
    #[inline]
    fn min_factor(&self, s: RelSet) -> f64 {
        let Some(u) = s.min_rel() else { return 1.0 };
        let mut f = 1.0;
        for &ei in &self.by_min[u] {
            let (e, sel) = self.edges[ei];
            if e.is_subset_of(s) {
                f *= sel;
            }
        }
        f
    }

    /// `true` iff some hyperedge has members on both sides (so joining
    /// `u` and `v` is not a pure Cartesian product).
    pub fn spans(&self, u: RelSet, v: RelSet) -> bool {
        self.edges
            .iter()
            .any(|&(e, _)| !e.intersect(u).is_empty() && !e.intersect(v).is_empty())
    }
}

/// `compute_properties` for hypergraphs: the min-relation recurrence.
#[inline]
fn hyper_properties<L: TableLayout, M: CostModel>(
    table: &mut L,
    model: &M,
    spec: &HyperSpec,
    s: RelSet,
) {
    let u = s.lowest_singleton();
    let v = s - u;
    let card = table.card(u) * table.card(v) * spec.min_factor(s);
    table.set_card(s, card);
    if M::HAS_AUX {
        table.set_aux(s, model.aux(card));
    }
}

/// Run the hypergraph optimizer with full control; see
/// [`optimize_hyper`] for the convenient form.
///
/// # Panics
/// Panics if the problem exceeds [`MAX_TABLE_RELS`].
pub fn optimize_hyper_into<L, M, St, const PRUNE: bool>(
    spec: &HyperSpec,
    model: &M,
    cap: f32,
    stats: &mut St,
) -> L
where
    L: TableLayout,
    M: CostModel,
    St: Stats,
{
    let n = spec.n();
    assert!(n <= MAX_TABLE_RELS);
    let mut table = L::with_rels(n);
    for rel in 0..n {
        init_singleton(&mut table, model, rel, spec.card(rel));
    }
    drive::<L, M, St, _, PRUNE>(
        &mut table,
        model,
        n,
        cap,
        crate::conv::RowEngine::split(),
        stats,
        |t, m, s| hyper_properties(t, m, spec, s),
    );
    table
}

/// Optimize a hypergraph join problem over the complete bushy space,
/// Cartesian products included — `find_best_split` is reused verbatim;
/// only the cardinality computation differs.
pub fn optimize_hyper<M: CostModel>(spec: &HyperSpec, model: &M) -> Result<Optimized, SpecError> {
    let mut stats = NoStats;
    let table: AosTable =
        optimize_hyper_into::<AosTable, M, NoStats, true>(spec, model, f32::INFINITY, &mut stats);
    let full = spec.all_rels();
    Ok(Optimized {
        plan: Plan::extract(&table, full),
        cost: table.cost(full),
        card: table.card(full),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{Kappa0, SortMerge};
    use crate::spec::JoinSpec;

    /// 4 relations, one 3-way predicate over {0,1,2} and one binary {2,3}.
    fn mixed_spec() -> HyperSpec {
        HyperSpec::new(
            &[10.0, 20.0, 30.0, 40.0],
            &[(&[0, 1, 2], 0.001), (&[2, 3], 0.05)],
        )
        .unwrap()
    }

    /// Brute force over all splits using the closed-form cardinality.
    fn brute_force<M: CostModel>(spec: &HyperSpec, model: &M, s: RelSet) -> f32 {
        if s.is_singleton() {
            return 0.0;
        }
        let out = spec.join_cardinality(s);
        let mut best = f32::INFINITY;
        for lhs in s.proper_subsets() {
            let rhs = s - lhs;
            let c = brute_force(spec, model, lhs)
                + brute_force(spec, model, rhs)
                + model.kappa(out, spec.join_cardinality(lhs), spec.join_cardinality(rhs));
            if c < best {
                best = c;
            }
        }
        best
    }

    #[test]
    fn cardinalities_match_closed_form() {
        let spec = mixed_spec();
        let mut stats = NoStats;
        let t: AosTable =
            optimize_hyper_into::<_, _, _, true>(&spec, &Kappa0, f32::INFINITY, &mut stats);
        for bits in 1u32..16 {
            let s = RelSet::from_bits(bits);
            let expect = spec.join_cardinality(s);
            let got = t.card(s);
            assert!(
                (got - expect).abs() <= expect.abs() * 1e-12 + 1e-12,
                "card({s:?}) = {got}, want {expect}"
            );
        }
        // Spot checks: the 3-way edge applies only once all of {0,1,2}
        // are present.
        assert_eq!(t.card(RelSet::from_bits(0b0011)), 200.0); // no edge inside
        assert_eq!(t.card(RelSet::from_bits(0b0111)), 6.0); // 6000 · 0.001
    }

    #[test]
    fn matches_brute_force() {
        let specs = vec![
            mixed_spec(),
            // Pure hyperedge over everything.
            HyperSpec::new(&[5.0, 6.0, 7.0, 8.0], &[(&[0, 1, 2, 3], 1e-2)]).unwrap(),
            // Two overlapping 3-way edges.
            HyperSpec::new(
                &[50.0, 40.0, 30.0, 20.0, 10.0],
                &[(&[0, 1, 2], 0.01), (&[2, 3, 4], 0.02), (&[0, 4], 0.5)],
            )
            .unwrap(),
        ];
        for spec in &specs {
            for check in 0..2 {
                let (got, want) = if check == 0 {
                    let o = optimize_hyper(spec, &Kappa0).unwrap();
                    (o.cost, brute_force(spec, &Kappa0, spec.all_rels()))
                } else {
                    let o = optimize_hyper(spec, &SortMerge).unwrap();
                    (o.cost, brute_force(spec, &SortMerge, spec.all_rels()))
                };
                let tol = want.abs() * 1e-4 + 1e-4;
                assert!((got - want).abs() <= tol, "hyper {got} vs brute {want}");
            }
        }
    }

    #[test]
    fn binary_edges_reduce_to_join_spec() {
        // A HyperSpec of only binary edges must agree with the ordinary
        // join optimizer on the same problem.
        let cards = [10.0, 20.0, 30.0, 40.0];
        let pairs = [(0usize, 1usize, 0.1), (0, 2, 0.2), (1, 2, 0.3), (0, 3, 0.4)];
        let members: Vec<[usize; 2]> = pairs.iter().map(|&(a, b, _)| [a, b]).collect();
        let hyperedges: Vec<(&[usize], f64)> = members
            .iter()
            .zip(&pairs)
            .map(|(m, &(_, _, s))| (&m[..], s))
            .collect();
        let hyper = HyperSpec::new(&cards, &hyperedges).unwrap();
        let flat = JoinSpec::new(&cards, &pairs).unwrap();
        let h = optimize_hyper(&hyper, &Kappa0).unwrap();
        let j = crate::join::optimize_join(&flat, &Kappa0).unwrap();
        assert_eq!(h.cost, j.cost);
        assert_eq!(h.card, j.card);
    }

    #[test]
    fn hyperedge_changes_the_optimal_shape() {
        // Without the 3-way edge, {0,1} would be a big product; with it
        // the optimizer delays until relation 2 arrives. Verify the plan
        // actually differs from the edge-free optimum.
        let with = mixed_spec();
        let without = HyperSpec::new(&[10.0, 20.0, 30.0, 40.0], &[(&[2, 3], 0.05)]).unwrap();
        let a = optimize_hyper(&with, &Kappa0).unwrap();
        let b = optimize_hyper(&without, &Kappa0).unwrap();
        assert!(a.cost < b.cost);
    }

    #[test]
    fn spans_detects_hyperedge_straddles() {
        let spec = mixed_spec();
        let u = RelSet::from_bits(0b0011); // {0,1}
        let v = RelSet::from_bits(0b0100); // {2}
        assert!(spec.spans(u, v)); // the 3-way edge straddles
        assert!(!spec.spans(RelSet::from_bits(0b0001), RelSet::from_bits(0b1000)));
    }

    #[test]
    fn validation() {
        assert!(HyperSpec::new(&[], &[]).is_err());
        assert!(HyperSpec::new(&[1.0], &[(&[0, 0], 0.5)]).is_err()); // dup member
        assert!(HyperSpec::new(&[1.0, 2.0], &[(&[0], 0.5)]).is_err()); // too small
        assert!(HyperSpec::new(&[1.0, 2.0], &[(&[0, 5], 0.5)]).is_err()); // range
        assert!(HyperSpec::new(&[1.0, 2.0], &[(&[0, 1], 0.0)]).is_err()); // sel
        assert!(HyperSpec::new(&[1.0, -1.0], &[]).is_err()); // card
    }

    #[test]
    fn single_relation() {
        let spec = HyperSpec::new(&[3.0], &[]).unwrap();
        let o = optimize_hyper(&spec, &Kappa0).unwrap();
        assert_eq!(o.plan, Plan::scan(0));
        assert_eq!(o.cost, 0.0);
    }
}
