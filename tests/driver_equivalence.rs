//! Driver equivalence: the convolution driver is a pure execution-
//! strategy choice wherever it is allowed to run.
//!
//! The contract, layered by strength:
//!
//! * **Cost and cardinality columns are bit-identical** between the
//!   split and conv drivers on every subset, under every layout, serial
//!   and rank-wave parallel, through every threshold schedule — for
//!   *every shipped model*. κ₀ is `Native` (κ″ ≡ 0, the candidate cost
//!   is a commutative `f32` addition); the three κ″ models are
//!   `Canonical`: both drivers evaluate κ″ on the lowest-relation-first
//!   operand orientation, so the halved enumeration sees the exact same
//!   value multiset per row as the full split walk.
//! * **`best_lhs` may differ** — conv visits each {lhs, rhs} pair once
//!   through its anchored half-enumeration, so on cost ties it can
//!   legitimately keep the complement or a different cost-equal split.
//!   What it must still be: a *deterministic* choice (same spec, same
//!   driver → same table, run after run, thread count after thread
//!   count) whose extracted plan re-costs to the optimal cost bits.
//! * **Conv requests on `Fallback` models run split** and are then
//!   bit-identical to an explicit split request in *every* column. No
//!   shipped model falls back any more, so the guard is pinned with a
//!   deliberately orientation-asymmetric model defined here.
//!
//! Random catalogs drive the bulk of the coverage; the paper topologies
//! and tie-heavy uniform-cost Cartesian specs (where *both* operand
//! orientations of every partition tie) pin the brute-force oracle
//! agreement and the per-driver tie-break stability.

use blitzsplit::baselines::best_bushy;
use blitzsplit::catalog::{Topology, Workload};
use blitzsplit::core::{
    optimize_join_threshold_into_with, AosTable, ConvSupport, Counters, HotColdTable, RelSet,
    SoaTable, TableLayout, WaveTableLayout,
};
use blitzsplit::{
    optimize_join_with, CostModel, DiskNestedLoops, DriveOptions, DriverChoice, JoinSpec, Kappa0,
    Plan, SmDnl, SortMerge, ThresholdSchedule,
};
use proptest::prelude::*;

const TOPOLOGIES: [Topology; 4] =
    [Topology::Chain, Topology::CyclePlus3, Topology::Star, Topology::Clique];

/// What both drivers must agree on per row: cost bits and card bits.
type CostBits = (u32, u64);

/// Full per-row identity including the winning split, for fallback and
/// determinism checks.
type RowBits = (u32, u64, RelSet);

struct Snapshot {
    cost_rows: Vec<CostBits>,
    full_rows: Vec<RowBits>,
    passes: u32,
    final_cap: u32,
    plan: Plan,
    cost: f32,
}

fn snapshot<L: WaveTableLayout + Send, M: CostModel + Sync>(
    spec: &JoinSpec,
    model: &M,
    schedule: ThresholdSchedule,
    options: DriveOptions,
) -> Snapshot {
    let mut counters = Counters::default();
    let (table, outcome) = optimize_join_threshold_into_with::<L, M, Counters, true>(
        spec,
        model,
        schedule,
        options,
        &mut counters,
    );
    let full_rows: Vec<RowBits> = (1u32..(1u32 << spec.n()))
        .map(|bits| {
            let s = RelSet::from_bits(bits);
            (table.cost(s).to_bits(), table.card(s).to_bits(), table.best_lhs(s))
        })
        .collect();
    Snapshot {
        cost_rows: full_rows.iter().map(|&(c, k, _)| (c, k)).collect(),
        full_rows,
        passes: outcome.passes,
        final_cap: outcome.final_cap.to_bits(),
        plan: outcome.optimized.plan,
        cost: outcome.optimized.cost,
    }
}

/// The conv driver against the split reference under one model:
/// cost/card columns, pass count and final cap bit-equal everywhere;
/// plans cost-equal and each optimal under a direct re-cost; conv's
/// table deterministic across executions, layouts, and thread counts.
fn check_drivers<M: CostModel + Sync>(spec: &JoinSpec, model: &M, schedule: ThresholdSchedule) {
    let split = snapshot::<AosTable, M>(
        spec,
        model,
        schedule,
        DriveOptions::serial().with_driver(DriverChoice::Split),
    );
    let mut conv_reference: Option<Vec<RowBits>> = None;
    for (label, base) in
        [("serial", DriveOptions::serial()), ("threads=4", DriveOptions::parallel(4))]
    {
        let options = base.with_driver(DriverChoice::Conv);
        let variants = [
            ("aos", snapshot::<AosTable, M>(spec, model, schedule, options)),
            ("soa", snapshot::<SoaTable, M>(spec, model, schedule, options)),
            ("hotcold", snapshot::<HotColdTable, M>(spec, model, schedule, options)),
        ];
        for (name, conv) in variants {
            let ctx = format!("{} conv {label} {name} n={}", model.name(), spec.n());
            assert_eq!(conv.cost_rows, split.cost_rows, "{ctx}: cost/card columns");
            assert_eq!(conv.passes, split.passes, "{ctx}: passes");
            assert_eq!(conv.final_cap, split.final_cap, "{ctx}: final cap");
            assert_eq!(conv.cost.to_bits(), split.cost.to_bits(), "{ctx}: plan cost");
            if conv.cost.is_finite() {
                let (_, recost) = conv.plan.cost(spec, model);
                let tol = conv.cost.abs() * 1e-4 + 1e-4;
                assert!(
                    (recost - conv.cost).abs() <= tol,
                    "{ctx}: plan recost {recost} vs table {}",
                    conv.cost
                );
            }
            // Tie-break stability: whatever split conv picked, it picks
            // it in every run, every layout, every thread count.
            match &conv_reference {
                None => conv_reference = Some(conv.full_rows),
                Some(reference) => {
                    assert_eq!(&conv.full_rows, reference, "{ctx}: best_lhs not deterministic");
                }
            }
        }
    }
}

/// [`check_drivers`] across every shipped model: the κ₀ `Native` path
/// and all three `Canonical` κ″ models ride the same contract.
fn check_all_models(spec: &JoinSpec, schedule: ThresholdSchedule) {
    check_drivers(spec, &Kappa0, schedule);
    check_drivers(spec, &SortMerge, schedule);
    check_drivers(spec, &DiskNestedLoops::default(), schedule);
    check_drivers(spec, &SmDnl::default(), schedule);
}

/// A random join problem of 2..=7 relations with random topology.
fn arb_spec() -> impl Strategy<Value = JoinSpec> {
    (2usize..=7)
        .prop_flat_map(|n| {
            let cards = proptest::collection::vec(1.0f64..1e4, n);
            let edges = proptest::collection::vec(
                ((0..n), (0..n), 1e-4f64..1.0),
                0..=(n * (n - 1) / 2),
            );
            (cards, edges)
        })
        .prop_filter_map("valid spec", |(cards, edges)| {
            let preds: Vec<(usize, usize, f64)> =
                edges.into_iter().filter(|&(a, b, _)| a != b).collect();
            JoinSpec::new(&cards, &preds).ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn drivers_agree_on_random_catalogs(spec in arb_spec()) {
        check_all_models(&spec, ThresholdSchedule::default());
    }

    #[test]
    fn drivers_agree_under_tight_thresholds(spec in arb_spec(), exp in -2i32..6) {
        // Tight caps exercise ∞-cost rows and multi-pass escalation: the
        // conv driver must prune and escalate exactly like split.
        check_all_models(&spec, ThresholdSchedule::new(10f32.powi(exp), 100.0, 4));
    }
}

#[test]
fn drivers_agree_on_paper_topologies() {
    for topo in TOPOLOGIES {
        let spec = Workload::new(8, topo, 100.0, 0.5).spec();
        check_all_models(&spec, ThresholdSchedule::new(10.0, 1e3, 6));
    }
}

/// Conv against ground truth, across the paper topologies and all four
/// shipped cost models. The conv driver genuinely runs on every one of
/// them now (κ₀ natively, the κ″ models canonically) — either way the
/// answer must match the non-memoized brute-force oracle over all
/// bushy trees.
#[test]
fn conv_matches_bruteforce_oracle() {
    fn check<M: CostModel + Sync>(spec: &JoinSpec, model: &M) {
        assert!(
            model.conv_support().allows_conv(),
            "{}: oracle leg expects a conv-capable model",
            model.name()
        );
        let (_, oracle) = best_bushy(spec, model, spec.all_rels());
        let conv = optimize_join_with(
            spec,
            model,
            DriveOptions::serial().with_driver(DriverChoice::Conv),
        )
        .unwrap();
        let tol = oracle.abs() * 1e-4 + 1e-4;
        assert!(
            (conv.cost - oracle).abs() <= tol,
            "{}: conv {} vs oracle {}",
            model.name(),
            conv.cost,
            oracle
        );
        let (_, recost) = conv.plan.cost(spec, model);
        let tol = conv.cost.abs() * 1e-4 + 1e-4;
        assert!((recost - conv.cost).abs() <= tol, "plan recost {recost} vs {}", conv.cost);
    }
    for topo in TOPOLOGIES {
        let spec = Workload::new(6, topo, 50.0, 0.4).spec();
        check(&spec, &Kappa0);
        check(&spec, &SortMerge);
        check(&spec, &DiskNestedLoops::default());
        check(&spec, &SmDnl::default());
    }
}

/// A deliberately orientation-*asymmetric* κ″ — `2|L| + |R|` — for
/// which the conv halving would be wrong. It keeps the default
/// [`ConvSupport::Fallback`], standing in for any third-party model
/// that has not opted in.
#[derive(Copy, Clone, Default)]
struct LopsidedLoops;

impl CostModel for LopsidedLoops {
    const HAS_DEP: bool = true;
    const HAS_AUX: bool = false;

    fn kappa_ind(&self, out_card: f64) -> f32 {
        out_card as f32
    }

    fn kappa_dep(&self, _out: f64, lhs: f64, rhs: f64, _la: f32, _ra: f32) -> f32 {
        (2.0 * lhs + rhs) as f32
    }

    fn name(&self) -> &'static str {
        "lopsided"
    }
}

/// A conv request on a model that never opted into the reduction runs
/// the split driver, and is then bit-identical to an explicit split
/// request in *every* column — `best_lhs` included, since it is
/// literally the same code path. No shipped model declines any more, so
/// the guard is exercised with [`LopsidedLoops`].
#[test]
fn conv_fallback_is_bit_identical_to_split() {
    fn rows<M: CostModel + Sync>(spec: &JoinSpec, model: &M, driver: DriverChoice) -> Vec<RowBits> {
        let mut counters = Counters::default();
        let (table, _) = optimize_join_threshold_into_with::<AosTable, M, Counters, true>(
            spec,
            model,
            ThresholdSchedule::default(),
            DriveOptions::serial().with_driver(driver),
            &mut counters,
        );
        (1u32..(1u32 << spec.n()))
            .map(|bits| {
                let s = RelSet::from_bits(bits);
                (table.cost(s).to_bits(), table.card(s).to_bits(), table.best_lhs(s))
            })
            .collect()
    }
    let model = LopsidedLoops;
    assert_eq!(
        model.conv_support(),
        ConvSupport::Fallback,
        "a model without an exactness argument must default to Fallback"
    );
    for topo in TOPOLOGIES {
        let spec = Workload::new(7, topo, 100.0, 0.5).spec();
        assert_eq!(
            rows(&spec, &model, DriverChoice::Conv),
            rows(&spec, &model, DriverChoice::Split),
            "{}: conv fallback diverged from split",
            model.name()
        );
    }
    // And the shipped models all opted in — the fleet has no silent
    // split degradation left.
    assert_eq!(Kappa0.conv_support(), ConvSupport::Native);
    for support in [
        SortMerge.conv_support(),
        DiskNestedLoops::default().conv_support(),
        SmDnl::default().conv_support(),
    ] {
        assert_eq!(support, ConvSupport::Canonical);
    }
}

/// Uniform cardinalities make every split of every subset tie on cost.
/// Split keeps the first split its subset-successor walk visits; conv
/// keeps the first candidate of its anchored half-enumeration. Both
/// policies must be *stable* across layouts and thread counts.
#[test]
fn tie_break_policy_is_stable_per_driver() {
    let spec = JoinSpec::cartesian(&[10.0; 9]).unwrap();
    check_drivers(&spec, &Kappa0, ThresholdSchedule::default());
}

/// The canonical-orientation analogue of the tie spec: on a uniform
/// Cartesian problem *both operand orientations* of every unordered
/// partition cost the same, so the κ″ orientation normalization decides
/// nothing on values — it must also not perturb tie-breaks or columns.
/// Every Canonical model goes through the full driver contract on it.
#[test]
fn cross_orientation_ties_are_stable_on_canonical_models() {
    let spec = JoinSpec::cartesian(&[10.0; 9]).unwrap();
    let schedule = ThresholdSchedule::default();
    check_drivers(&spec, &SortMerge, schedule);
    check_drivers(&spec, &DiskNestedLoops::default(), schedule);
    check_drivers(&spec, &SmDnl::default(), schedule);
}

/// Costs that overflow the early caps (some overflow `f32` outright):
/// conv's pruning must treat ∞ and NaN exactly like split's.
#[test]
fn drivers_agree_when_costs_overflow_the_cap() {
    let spec = JoinSpec::cartesian(&[1e30, 1e30, 1e32, 1e28, 1e30]).unwrap();
    check_all_models(&spec, ThresholdSchedule::new(1e3, 1e6, 2));
}
