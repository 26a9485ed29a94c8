//! End-to-end runs under the shadow access checker.
//!
//! Compiled only with `RUSTFLAGS='--cfg blitz_check'`. Every raw-pointer
//! row access in the parallel driver is then tagged into per-row atomic
//! shadow words and validated against the wave discipline: disjoint
//! writes within a wave, reads only from strictly earlier waves (or the
//! worker's own already-written row). A violation panics with the exact
//! row, wave and worker — so a clean pass here is a machine-checked
//! witness that the drivers below uphold the `WaveTableLayout` contract,
//! not just that they happened to produce the right numbers.

#![cfg(blitz_check)]

use blitzsplit::catalog::{Topology, Workload};
use blitzsplit::core::{
    optimize_join_into_with, AosTable, HotColdTable, NoStats, SoaTable,
};
use blitzsplit::{
    optimize_join_threshold_with, CostModel, DriveOptions, DriverChoice, JoinSpec, Kappa0,
    SortMerge, ThresholdSchedule,
};

fn drive<L: blitzsplit::core::WaveTableLayout + Send, M: CostModel + Sync>(
    spec: &JoinSpec,
    model: &M,
    opts: DriveOptions,
) {
    let mut stats = NoStats;
    let table: L = optimize_join_into_with::<_, _, _, true>(spec, model, f32::INFINITY, opts, &mut stats);
    // Touch the result so the fill can't be optimized away.
    assert!(table.cost(spec.all_rels()).is_finite() || true);
}

/// Several thread counts, all layouts: the shadow checker must stay
/// silent on the production drivers.
#[test]
fn parallel_drivers_pass_shadow_checking() {
    for topo in [Topology::Chain, Topology::Star, Topology::Clique] {
        let spec = Workload::new(8, topo, 100.0, 0.5).spec();
        for threads in [2usize, 3, 4] {
            let opts = DriveOptions::parallel(threads);
            drive::<AosTable, _>(&spec, &Kappa0, opts);
            drive::<SoaTable, _>(&spec, &SortMerge, opts);
            drive::<HotColdTable, _>(&spec, &Kappa0, opts);
        }
    }
}

/// The conv driver's anchored walk reads the same strict-subset rows in
/// a different pattern than the split walk; it must uphold the same
/// wave discipline. (Its seeded-violation twins
/// live in `crates/core/src/conv.rs`.)
#[test]
fn conv_driver_passes_shadow_checking() {
    for topo in [Topology::Chain, Topology::Star, Topology::Clique] {
        let spec = Workload::new(8, topo, 100.0, 0.5).spec();
        for threads in [2usize, 4] {
            let opts = DriveOptions::parallel(threads).with_driver(DriverChoice::Conv);
            drive::<AosTable, _>(&spec, &Kappa0, opts);
            drive::<SoaTable, _>(&spec, &Kappa0, opts);
            drive::<HotColdTable, _>(&spec, &Kappa0, opts);
        }
    }
}

/// Oversubscription (more workers than the widest wave has rows) must
/// clamp without any worker straying outside its chunk.
#[test]
fn oversubscribed_run_passes_shadow_checking() {
    let spec = Workload::new(4, Topology::CyclePlus3, 50.0, 0.4).spec();
    drive::<AosTable, _>(&spec, &Kappa0, DriveOptions::parallel(16));
}

/// Multi-pass threshold re-optimization rebuilds the table repeatedly;
/// each pass gets a fresh shadow state and must pass independently.
#[test]
fn threshold_schedule_passes_shadow_checking() {
    let spec = Workload::new(9, Topology::Clique, 1000.0, 0.5).spec();
    let schedule = ThresholdSchedule::new(10.0, 1e3, 6);
    let out =
        optimize_join_threshold_with(&spec, &Kappa0, schedule, DriveOptions::parallel(4)).unwrap();
    assert!(out.passes >= 1);
}
