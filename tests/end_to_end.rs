//! End-to-end integration tests: the full pipeline — application →
//! catalogue → video → trace → simulator → policies — across crates.

use mrts::arch::{ArchParams, Machine, Resources};
use mrts::baselines::{
    LooselyCoupledPolicy, OfflineOptimalPolicy, OnlineOptimalPolicy, ProfiledTotals, RisppPolicy,
};
use mrts::core::Mrts;
use mrts::sim::{RiscOnlyPolicy, RunStats, RuntimePolicy, Simulator};
use mrts::workload::{Trace, TraceBuilder, VideoModel, WorkloadModel};

struct Bed {
    catalog: mrts::ise::IseCatalog,
    trace: Trace,
    totals: ProfiledTotals,
}

fn bed() -> Bed {
    let encoder = mrts::ingest::model("h264").expect("builtin h264 lowers");
    let catalog = encoder
        .application()
        .build_catalog(ArchParams::default(), None)
        .expect("encoder kernels are mappable");
    let trace = TraceBuilder::new(&encoder)
        .video(VideoModel::paper_default(1))
        .build();
    let totals = ProfiledTotals::from_trace(&trace);
    Bed {
        catalog,
        trace,
        totals,
    }
}

fn run(bed: &Bed, combo: Resources, policy: &mut dyn RuntimePolicy) -> RunStats {
    let machine = Machine::new(ArchParams::default(), combo).expect("valid machine");
    Simulator::run(&bed.catalog, machine, &bed.trace, policy)
}

#[test]
fn every_policy_executes_the_whole_trace() {
    let bed = bed();
    let combo = Resources::new(2, 2);
    let capacity = Machine::new(ArchParams::default(), combo)
        .expect("valid machine")
        .capacity();
    let expected: u64 = bed
        .trace
        .activations()
        .iter()
        .flat_map(|a| a.actual.iter())
        .map(|a| a.executions)
        .sum();
    let mut policies: Vec<Box<dyn RuntimePolicy>> = vec![
        Box::new(RiscOnlyPolicy::new()),
        Box::new(RisppPolicy::new()),
        Box::new(LooselyCoupledPolicy::new(
            &bed.catalog,
            capacity,
            &bed.totals,
        )),
        Box::new(OfflineOptimalPolicy::new(
            &bed.catalog,
            capacity,
            &bed.totals,
        )),
        Box::new(OnlineOptimalPolicy::new()),
        Box::new(Mrts::new()),
    ];
    for p in &mut policies {
        let stats = run(&bed, combo, p.as_mut());
        assert_eq!(
            stats.total_executions(),
            expected,
            "{} must execute every kernel invocation",
            stats.policy
        );
        assert_eq!(stats.rejected_loads, 0, "{}", stats.policy);
        assert_eq!(stats.blocks.len(), bed.trace.len(), "{}", stats.policy);
    }
}

#[test]
fn policy_ordering_holds_on_multi_grained_machines() {
    let bed = bed();
    for combo in [
        Resources::new(1, 1),
        Resources::new(2, 2),
        Resources::new(3, 2),
    ] {
        let capacity = Machine::new(ArchParams::default(), combo)
            .expect("valid machine")
            .capacity();
        let risc = run(&bed, combo, &mut RiscOnlyPolicy::new());
        let mrts = run(&bed, combo, &mut Mrts::new());
        let optimal = run(&bed, combo, &mut OnlineOptimalPolicy::new());
        let offline = run(
            &bed,
            combo,
            &mut OfflineOptimalPolicy::new(&bed.catalog, capacity, &bed.totals),
        );
        let morpheus = run(
            &bed,
            combo,
            &mut LooselyCoupledPolicy::new(&bed.catalog, capacity, &bed.totals),
        );
        let t = |s: &RunStats| s.total_execution_time().get();
        // Everyone beats plain RISC-mode on a machine with fabric.
        for s in [&mrts, &optimal, &offline, &morpheus] {
            assert!(t(s) < t(&risc), "{combo}: {} vs RISC", s.policy);
        }
        // mRTS beats both static schemes (Fig. 8's ordering).
        assert!(t(&mrts) < t(&offline), "{combo}: mRTS vs offline-optimal");
        assert!(t(&mrts) < t(&morpheus), "{combo}: mRTS vs Morpheus/4S");
        // The offline-optimal (MG-capable) never loses to the loosely
        // coupled scheme it strictly generalizes.
        assert!(t(&offline) <= t(&morpheus), "{combo}: offline vs Morpheus");
        // The online-optimal reference is at most a whisker behind mRTS.
        assert!(
            t(&optimal) as f64 <= t(&mrts) as f64 * 1.02,
            "{combo}: optimal {} vs mRTS {}",
            t(&optimal),
            t(&mrts)
        );
    }
}

#[test]
fn runs_are_deterministic() {
    let bed = bed();
    let combo = Resources::new(2, 3);
    let a = run(&bed, combo, &mut Mrts::new());
    let b = run(&bed, combo, &mut Mrts::new());
    assert_eq!(a, b);
    // And the trace itself regenerates identically.
    let encoder = mrts::ingest::model("h264").expect("builtin h264 lowers");
    let again = TraceBuilder::new(&encoder)
        .video(VideoModel::paper_default(1))
        .build();
    assert_eq!(bed.trace, again);
}

#[test]
fn zero_fabric_machine_degenerates_to_risc_for_all_policies() {
    let bed = bed();
    let combo = Resources::NONE;
    let risc = run(&bed, combo, &mut RiscOnlyPolicy::new());
    let mrts = run(&bed, combo, &mut Mrts::new());
    // Identical busy cycles; only the decision overhead differs.
    assert_eq!(risc.total_busy(), mrts.total_busy());
}

#[test]
fn other_applications_also_profit() {
    for name in ["fft", "cipher"] {
        let app = mrts::ingest::model(name).expect("builtin app lowers");
        let catalog = app
            .application()
            .build_catalog(ArchParams::default(), None)
            .expect("kernels are mappable");
        let trace = TraceBuilder::new(&app)
            .video(VideoModel::paper_default(5))
            .build();
        let mk = || Machine::new(ArchParams::default(), Resources::new(1, 1)).expect("valid");
        let risc = Simulator::run(&catalog, mk(), &trace, &mut RiscOnlyPolicy::new());
        let mrts = Simulator::run(&catalog, mk(), &trace, &mut Mrts::new());
        assert!(
            mrts.total_execution_time() < risc.total_execution_time(),
            "{name}: mRTS must accelerate"
        );
    }
}

#[test]
fn machine_state_persists_across_traces() {
    let bed = bed();
    let machine = Machine::new(ArchParams::default(), Resources::new(2, 2)).expect("valid");
    let mut sim = Simulator::new(&bed.catalog, machine);
    let mut mrts = Mrts::new();
    let acts = bed.trace.activations();
    let first = Trace::new("a", acts[..24].to_vec());
    let second = Trace::new("b", acts[24..].to_vec());
    let s1 = sim.run_trace(&first, &mut mrts);
    let warm_units = sim.machine().free_resources();
    let s2 = sim.run_trace(&second, &mut mrts);
    // Fabric stayed warm between the segments: something was resident.
    assert!(warm_units.total() < sim.machine().capacity().total());
    // Both halves executed.
    assert!(s1.total_executions() > 0 && s2.total_executions() > 0);
    // Split run equals the single run (same machine state evolution).
    let whole = run(&bed, Resources::new(2, 2), &mut Mrts::new());
    assert_eq!(
        whole.total_busy(),
        s1.total_busy() + s2.total_busy(),
        "split simulation must be seamless"
    );
}
