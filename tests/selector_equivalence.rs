//! Equivalence guarantees of this PR's two perf tentpoles.
//!
//! 1. **Lazy-greedy == full-rescan oracle.** The selector's CELF-style
//!    lazy evaluation (`SelectorConfig::full_rescan = false`, the default)
//!    must return a [`Selection`] *bit-identical* to the paper's literal
//!    Fig. 6 loop (`full_rescan = true`) — same choices, same commit
//!    order, same `total_profit` bits, same modeled evaluation count and
//!    overhead — for arbitrary catalogues, budgets, forecasts, resident
//!    sets and in-flight reconfiguration state, while performing at most
//!    as many profit evaluations.
//! 2. **Parallel sweep == serial sweep.** `mrts_bench::par` must return
//!    results in input order so figure output is byte-identical for any
//!    worker count.

use mrts::arch::{
    ArchParams, Cycles, FabricKind, LoadRequest, ReconfigurationController, Resources,
};
use mrts::core::selector::{select_ises, Selection, SelectorConfig};
use mrts::ise::datapath::{DataPathGraph, OpKind};
use mrts::ise::{CatalogBuilder, IseCatalog, KernelSpec, TriggerBlock, TriggerInstruction, UnitId};
use proptest::prelude::*;

/// A random but always-valid data-path graph (chain seeded from up to
/// three inputs) — the same shape family `selector_properties.rs` uses.
fn arb_graph(name: String) -> impl Strategy<Value = DataPathGraph> {
    let ops = prop::collection::vec(0usize..OpKind::ALL.len(), 1..8);
    ops.prop_map(move |indices| {
        let mut b = DataPathGraph::builder(name.clone());
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let mut last = x;
        for i in indices {
            let kind = OpKind::ALL[i];
            let operands: Vec<_> = match kind.arity() {
                1 => vec![last],
                2 => vec![last, y],
                _ => vec![last, y, z],
            };
            last = b.op(kind, &operands);
        }
        b.finish().expect("chains are structurally valid")
    })
}

fn arb_catalog() -> impl Strategy<Value = IseCatalog> {
    let kernel = (0u32..u32::MAX).prop_flat_map(|salt| {
        (
            arb_graph(format!("g{salt}a")),
            arb_graph(format!("g{salt}b")),
            8u32..64,
            10u64..200,
        )
    });
    prop::collection::vec(kernel, 1..5).prop_filter_map(
        "catalogue must build and stay non-trivial",
        |kernels| {
            let mut b = CatalogBuilder::new(ArchParams::default());
            for (i, (ga, gb, calls, overhead)) in kernels.into_iter().enumerate() {
                b = b.kernel(
                    KernelSpec::new(format!("k{i}"))
                        .data_path(ga, calls)
                        .data_path(gb, calls / 2 + 1)
                        .overhead_cycles(overhead),
                );
            }
            b.build().ok().filter(|c| !c.ises().is_empty())
        },
    )
}

fn forecast_for(catalog: &IseCatalog, e: u64, tf: u64, tb: u64) -> TriggerBlock {
    TriggerBlock::new(
        mrts::ise::BlockId(0),
        catalog
            .kernels()
            .iter()
            .map(|k| TriggerInstruction::new(k.id(), e, Cycles::new(tf), Cycles::new(tb)))
            .collect(),
    )
}

/// Bit-exact equality of everything the simulator consumes, plus the
/// cost-model counters. `candidates_evaluated` is deliberately *excluded*:
/// it is the one field the lazy path is allowed (required) to shrink.
fn assert_selections_identical(lazy: &Selection, oracle: &Selection) {
    assert_eq!(lazy.choices, oracle.choices);
    assert_eq!(lazy.selected.len(), oracle.selected.len());
    for (l, o) in lazy.selected.iter().zip(&oracle.selected) {
        assert_eq!(l.kernel, o.kernel);
        assert_eq!(l.ise, o.ise);
        assert_eq!(
            l.profit.to_bits(),
            o.profit.to_bits(),
            "profit bits diverged for kernel {:?}",
            l.kernel
        );
    }
    assert_eq!(lazy.load_order, oracle.load_order);
    assert_eq!(
        lazy.total_profit.to_bits(),
        oracle.total_profit.to_bits(),
        "total_profit bits diverged"
    );
    assert_eq!(lazy.modeled_evaluations, oracle.modeled_evaluations);
    assert_eq!(lazy.overhead_cycles, oracle.overhead_cycles);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cold start: empty controller, nothing resident.
    #[test]
    fn lazy_equals_oracle_cold(
        catalog in arb_catalog(),
        cg in 0u16..8,
        prc in 0u16..5,
        e in 1u64..30_000,
        tb in 1u64..1_000,
    ) {
        let budget = Resources::new(cg, prc);
        let forecast = forecast_for(&catalog, e, 500, tb);
        let rc = ReconfigurationController::new();
        let none = |_: UnitId| false;
        let lazy = select_ises(
            &catalog, &forecast, budget, &none, &rc, Cycles::ZERO,
            &SelectorConfig::default(),
        );
        let oracle = select_ises(
            &catalog, &forecast, budget, &none, &rc, Cycles::ZERO,
            &SelectorConfig { full_rescan: true, ..SelectorConfig::default() },
        );
        assert_selections_identical(&lazy, &oracle);
        prop_assert!(lazy.candidates_evaluated <= oracle.candidates_evaluated);
    }

    /// Warm start: in-flight loads queue behind the ports, some units are
    /// already resident, and the selection starts mid-run — the regime the
    /// per-round profit memo actually has to get right.
    #[test]
    fn lazy_equals_oracle_warm(
        catalog in arb_catalog(),
        cg in 1u16..8,
        prc in 1u16..5,
        e in 1u64..30_000,
        tb in 1u64..1_000,
        now_raw in 0u64..50_000,
        inflight in 0usize..4,
        resident_mod in 1u64..5,
    ) {
        let budget = Resources::new(cg, prc);
        let forecast = forecast_for(&catalog, e, 500, tb);
        let now = Cycles::new(now_raw);

        // Occupy the load ports with unrelated traffic so predicted unit
        // ready times depend on real queueing state.
        let mut rc = ReconfigurationController::new();
        let units = catalog.units();
        for (i, u) in units.iter().take(inflight).enumerate() {
            let fabric = if i % 2 == 0 { FabricKind::FineGrained } else { FabricKind::CoarseGrained };
            let _ = rc.request(now, LoadRequest {
                id: u.id().as_loaded_id(),
                fabric,
                duration: Cycles::new(700 + 300 * i as u64),
            });
        }
        // A deterministic pseudo-random resident subset.
        let resident = move |u: UnitId| u.as_loaded_id().is_multiple_of(resident_mod);

        let lazy = select_ises(
            &catalog, &forecast, budget, &resident, &rc, now,
            &SelectorConfig::default(),
        );
        let oracle = select_ises(
            &catalog, &forecast, budget, &resident, &rc, now,
            &SelectorConfig { full_rescan: true, ..SelectorConfig::default() },
        );
        assert_selections_identical(&lazy, &oracle);
        prop_assert!(lazy.candidates_evaluated <= oracle.candidates_evaluated);
    }
}

/// The H.264 testbed at the largest Fig. 8 machine runs several commit
/// rounds; the lazy path must save evaluations there, not just tie.
#[test]
fn lazy_saves_evaluations_on_the_paper_catalog() {
    let catalog = mrts_bench::Testbed::new("h264", 1).catalog;
    let forecast = forecast_for(&catalog, 4_000, 1_000, 300);
    let rc = ReconfigurationController::new();
    let none = |_: UnitId| false;
    let budget = Resources::new(4, 3);
    let lazy = select_ises(
        &catalog,
        &forecast,
        budget,
        &none,
        &rc,
        Cycles::ZERO,
        &SelectorConfig::default(),
    );
    let oracle = select_ises(
        &catalog,
        &forecast,
        budget,
        &none,
        &rc,
        Cycles::ZERO,
        &SelectorConfig {
            full_rescan: true,
            ..SelectorConfig::default()
        },
    );
    assert_selections_identical(&lazy, &oracle);
    assert!(
        lazy.candidates_evaluated < oracle.candidates_evaluated,
        "lazy path evaluated {} candidates, oracle {}",
        lazy.candidates_evaluated,
        oracle.candidates_evaluated
    );
}

/// The parallel sweep runner returns real figure cells in input order:
/// the formatted table rows are byte-identical for 1, 2 and 8 workers.
#[test]
fn parallel_figure_cells_are_byte_identical_across_thread_counts() {
    use mrts_bench::{par, Testbed, DEFAULT_SEED};

    let tb = Testbed::new("h264", DEFAULT_SEED);
    let combos = [
        Resources::new(0, 1),
        Resources::new(1, 0),
        Resources::new(1, 1),
        Resources::new(2, 1),
        Resources::new(1, 2),
        Resources::new(2, 2),
    ];
    let render = |_: usize, combo: &Resources| {
        let stats = tb.run(*combo, &mut mrts::core::Mrts::new());
        format!(
            "{combo}: {:>12} cycles, {} executions",
            stats.total_execution_time().get(),
            stats.total_executions()
        )
    };
    let serial = par::map_ordered(1, &combos, render);
    for threads in [2, 8] {
        let parallel = par::map_ordered(threads, &combos, render);
        assert_eq!(serial, parallel, "threads={threads} diverged from serial");
    }
}
