//! Simulator throughput: a full H.264 trace (48 block activations,
//! ~700 000 kernel executions) under the RISC-only, mRTS and
//! online-optimal policies. The epoch-batched engine makes the run cost
//! proportional to residency changes rather than executions.

use criterion::{criterion_group, criterion_main, Criterion};
use mrts_arch::{ArchParams, Machine, Resources};
use mrts_baselines::OnlineOptimalPolicy;
use mrts_bench::Testbed;
use mrts_core::Mrts;
use mrts_sim::{RiscOnlyPolicy, Simulator};

fn machine() -> Machine {
    Machine::new(ArchParams::default(), Resources::new(2, 2)).expect("valid machine")
}

fn bench_simulator(c: &mut Criterion) {
    let Testbed { catalog, trace, .. } = Testbed::new("h264", 1);
    let mut group = c.benchmark_group("simulator_full_trace");
    group.bench_function("risc_only", |b| {
        b.iter(|| Simulator::run(&catalog, machine(), &trace, &mut RiscOnlyPolicy::new()))
    });
    group.bench_function("mrts", |b| {
        b.iter(|| Simulator::run(&catalog, machine(), &trace, &mut Mrts::new()))
    });
    group.bench_function("online_optimal", |b| {
        b.iter(|| Simulator::run(&catalog, machine(), &trace, &mut OnlineOptimalPolicy::new()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_simulator
}
criterion_main!(benches);
