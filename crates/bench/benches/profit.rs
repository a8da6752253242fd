//! Cost of one profit-function evaluation (Eqs. 1–4) — the inner loop of
//! the ISE selector, whose count drives the Section 5.4 overhead model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrts_arch::{Cycles, LoadRequest, ReconfigurationController};
use mrts_bench::Testbed;
use mrts_core::expected_profit;
use mrts_ise::{TriggerInstruction, UnitId};

fn none_resident(_: UnitId) -> bool {
    false
}

fn bench_profit(c: &mut Criterion) {
    let tb = Testbed::new("h264", 1);
    let deblock = tb.kernel("deblock");
    let catalog = tb.catalog;
    let trigger = TriggerInstruction::new(deblock, 4_000, Cycles::new(1_000), Cycles::new(350));
    let idle = ReconfigurationController::new();
    let mut busy = ReconfigurationController::new();
    for i in 0..4 {
        busy.request(
            Cycles::ZERO,
            LoadRequest {
                id: 1_000 + i,
                fabric: mrts_arch::FabricKind::FineGrained,
                duration: Cycles::new(400_000),
            },
        );
    }

    let mut group = c.benchmark_group("profit");
    for (name, ise_id) in [
        ("small_ise", catalog.ises_of(deblock)[0]),
        (
            "largest_ise",
            *catalog
                .ises_of(deblock)
                .iter()
                .max_by_key(|i| catalog.ise(**i).unwrap().stage_count())
                .unwrap(),
        ),
    ] {
        let ise = catalog.ise(ise_id).unwrap();
        group.bench_with_input(BenchmarkId::new("idle_ports", name), ise, |b, ise| {
            b.iter(|| expected_profit(ise, &trigger, Cycles::ZERO, &idle, &none_resident))
        });
        group.bench_with_input(BenchmarkId::new("busy_ports", name), ise, |b, ise| {
            b.iter(|| expected_profit(ise, &trigger, Cycles::ZERO, &busy, &none_resident))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_profit
}
criterion_main!(benches);
