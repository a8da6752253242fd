//! Selection-algorithm cost: the greedy O(N·M) heuristic vs. the
//! DP-optimal selection vs. naive exhaustive enumeration (the O(Mᴺ)
//! algorithm the paper deems infeasible at run time — 78+ million
//! combinations for six kernels).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrts_arch::{Cycles, ReconfigurationController, Resources};
use mrts_baselines::{dp_optimal_selection, exhaustive_optimal_profit};
use mrts_core::selector::{select_ises, SelectorConfig};
use mrts_ise::{IseCatalog, TriggerBlock, TriggerInstruction, UnitId};

fn catalog() -> IseCatalog {
    mrts_bench::Testbed::new("h264", 1).catalog
}

fn forecast(catalog: &IseCatalog, kernels: usize) -> TriggerBlock {
    let triggers = catalog
        .kernels()
        .iter()
        .take(kernels)
        .map(|k| TriggerInstruction::new(k.id(), 4_000, Cycles::new(1_000), Cycles::new(300)))
        .collect();
    TriggerBlock::new(mrts_ise::BlockId(0), triggers)
}

fn none_resident(_: UnitId) -> bool {
    false
}

fn bench_selectors(c: &mut Criterion) {
    let catalog = catalog();
    let rc = ReconfigurationController::new();
    let budget = Resources::new(6, 3);
    let mut group = c.benchmark_group("selection");
    for kernels in [2usize, 4, 7] {
        let f = forecast(&catalog, kernels);
        group.bench_with_input(BenchmarkId::new("greedy", kernels), &f, |b, f| {
            b.iter(|| {
                select_ises(
                    &catalog,
                    f,
                    budget,
                    &none_resident,
                    &rc,
                    Cycles::ZERO,
                    &SelectorConfig::default(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("dp_optimal", kernels), &f, |b, f| {
            b.iter(|| {
                dp_optimal_selection(
                    &catalog,
                    f,
                    budget,
                    &none_resident,
                    &rc,
                    Cycles::ZERO,
                    &|_| true,
                )
            })
        });
        // The naive enumeration explodes; cap the node count so the bench
        // finishes while still showing the growth trend.
        group.bench_with_input(BenchmarkId::new("exhaustive", kernels), &f, |b, f| {
            b.iter(|| {
                exhaustive_optimal_profit(
                    &catalog,
                    f,
                    budget,
                    &none_resident,
                    &rc,
                    Cycles::ZERO,
                    200_000,
                )
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_selectors
}
criterion_main!(benches);
