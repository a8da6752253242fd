//! Shape properties of the paper's figures, asserted as integration tests
//! so regressions in any crate surface immediately. Absolute numbers are
//! not checked (our substrate is a simulator, not the authors' testbed);
//! orderings, regions and bounds are.

use mrts::arch::{ArchParams, Cycles, FabricKind, Machine, Resources};
use mrts::baselines::{
    LooselyCoupledPolicy, OfflineOptimalPolicy, OnlineOptimalPolicy, ProfiledTotals,
};
use mrts::core::Mrts;
use mrts::ingest::ManifestModel;
use mrts::ise::{Grain, Ise, IseCatalog, KernelId};
use mrts::sim::{RiscOnlyPolicy, RuntimePolicy, Simulator};
use mrts::workload::{TraceBuilder, VideoModel, WorkloadModel};

fn encoder() -> ManifestModel {
    mrts::ingest::model("h264").expect("builtin h264 lowers")
}

fn catalog() -> IseCatalog {
    encoder()
        .application()
        .build_catalog(ArchParams::default(), None)
        .expect("encoder kernels are mappable")
}

/// The deblocking filter, the Section 2 case-study kernel.
fn deblock(catalog: &IseCatalog) -> KernelId {
    catalog
        .kernels()
        .iter()
        .find(|k| k.name() == "deblock")
        .expect("h264 has a deblock kernel")
        .id()
}

/// The three case-study ISEs of Section 2 (full coverage, single copy).
fn case_study_ises(catalog: &IseCatalog) -> [&Ise; 3] {
    let deblock = deblock(catalog);
    let pick = |grain: Grain| -> &Ise {
        catalog
            .ises_of(deblock)
            .iter()
            .map(|i| catalog.ise(*i).expect("dense ids"))
            .filter(|i| {
                i.grain() == grain
                    && !i.is_mono_extension()
                    && i.stage_count() == 2
                    && !i.label().contains("@sw")
            })
            .max_by_key(|i| i.risc_latency() - i.full_latency())
            .expect("variant exists")
    };
    [
        pick(Grain::FineGrained),
        pick(Grain::CoarseGrained),
        pick(Grain::MultiGrained),
    ]
}

fn reconfig_latency(ise: &Ise) -> Cycles {
    let mut fg = Cycles::ZERO;
    let mut cg = Cycles::ZERO;
    for s in ise.stages() {
        match s.fabric {
            FabricKind::FineGrained => fg += s.load_duration,
            FabricKind::CoarseGrained => cg += s.load_duration,
        }
    }
    fg.max(cg)
}

#[test]
fn fig1_regions_appear_in_paper_order() {
    let catalog = catalog();
    let [ise1, ise2, ise3] = case_study_ises(&catalog);
    let recfg = [
        reconfig_latency(ise1),
        reconfig_latency(ise2),
        reconfig_latency(ise3),
    ];
    let mut regions: Vec<usize> = Vec::new();
    for e in (250..=50_000u64).step_by(250) {
        let pifs = [
            ise1.performance_improvement_factor(e, recfg[0]),
            ise2.performance_improvement_factor(e, recfg[1]),
            ise3.performance_improvement_factor(e, recfg[2]),
        ];
        let best = (0..3)
            .max_by(|a, b| pifs[*a].total_cmp(&pifs[*b]))
            .expect("three");
        if regions.last() != Some(&best) {
            regions.push(best);
        }
    }
    // Paper Fig. 1: CG best at low counts, then MG, then FG.
    assert_eq!(regions, vec![1, 2, 0], "region order ISE-2, ISE-3, ISE-1");
    // The FG ISE's asymptote is the highest (it has the best latency).
    assert!(ise1.full_latency() < ise3.full_latency());
    assert!(ise3.full_latency() < ise2.full_latency());
    // ... and its reconfiguration the slowest by orders of magnitude.
    assert!(recfg[0].get() > recfg[1].get() * 1_000);
}

#[test]
fn fig2_best_ise_changes_across_frames() {
    let catalog = catalog();
    let encoder = encoder();
    let ises = case_study_ises(&catalog);
    let recfg: Vec<Cycles> = ises.iter().map(|i| reconfig_latency(i)).collect();
    let deblock = usize::from(deblock(&catalog).index());
    let mut labels = std::collections::BTreeSet::new();
    for frame in VideoModel::paper_default(1).frames() {
        let e = encoder.kernel_executions(&frame)[deblock];
        let best = (0..3)
            .max_by(|a, b| {
                ises[*a]
                    .performance_improvement_factor(e, recfg[*a])
                    .total_cmp(&ises[*b].performance_improvement_factor(e, recfg[*b]))
            })
            .expect("three");
        labels.insert(best);
    }
    assert!(
        labels.len() >= 2,
        "the performance-wise best ISE must change across frames: {labels:?}"
    );
}

fn run(
    catalog: &IseCatalog,
    trace: &mrts::workload::Trace,
    combo: Resources,
    p: &mut dyn RuntimePolicy,
) -> u64 {
    let machine = Machine::new(ArchParams::default(), combo).expect("valid machine");
    Simulator::run(catalog, machine, trace, p)
        .total_execution_time()
        .get()
}

#[test]
fn fig8_orderings_and_applicability() {
    let catalog = catalog();
    let encoder = encoder();
    let trace = TraceBuilder::new(&encoder)
        .video(VideoModel::paper_default(1))
        .build();
    let totals = ProfiledTotals::from_trace(&trace);

    // MG machine: mRTS beats both static schemes clearly.
    let combo = Resources::new(2, 2);
    let capacity = Machine::new(ArchParams::default(), combo)
        .expect("m")
        .capacity();
    let mrts = run(&catalog, &trace, combo, &mut Mrts::new());
    let offline = run(
        &catalog,
        &trace,
        combo,
        &mut OfflineOptimalPolicy::new(&catalog, capacity, &totals),
    );
    let morpheus = run(
        &catalog,
        &trace,
        combo,
        &mut LooselyCoupledPolicy::new(&catalog, capacity, &totals),
    );
    assert!(
        mrts as f64 * 1.25 < offline as f64,
        "mRTS well ahead of offline-optimal"
    );
    assert!(
        mrts as f64 * 1.25 < morpheus as f64,
        "mRTS well ahead of Morpheus/4S"
    );

    // Applicability (Section 5.2): on a single-fabric machine mRTS
    // collapses to the loosely coupled paradigm — results become similar.
    let fg_only = Resources::prc_only(2);
    let cap_fg = Machine::new(ArchParams::default(), fg_only)
        .expect("m")
        .capacity();
    let mrts_fg = run(&catalog, &trace, fg_only, &mut Mrts::new()) as f64;
    let morph_fg = run(
        &catalog,
        &trace,
        fg_only,
        &mut LooselyCoupledPolicy::new(&catalog, cap_fg, &totals),
    ) as f64;
    let ratio = morph_fg / mrts_fg;
    assert!(
        ratio < 1.45,
        "single-fabric gap should shrink towards parity: {ratio}"
    );
}

#[test]
fn fig9_heuristic_close_to_optimal_in_improvement_terms() {
    let catalog = catalog();
    let encoder = encoder();
    let trace = TraceBuilder::new(&encoder)
        .video(VideoModel::paper_default(1))
        .build();
    let risc = run(
        &catalog,
        &trace,
        Resources::NONE,
        &mut RiscOnlyPolicy::new(),
    ) as f64;
    let mut worst: f64 = 0.0;
    for combo in [
        Resources::new(1, 1),
        Resources::new(2, 2),
        Resources::new(2, 4),
        Resources::new(0, 4),
    ] {
        let m = run(&catalog, &trace, combo, &mut Mrts::new()) as f64;
        let o = run(&catalog, &trace, combo, &mut OnlineOptimalPolicy::new()) as f64;
        let gap = ((risc - o) - (risc - m)) / (risc - o) * 100.0;
        worst = worst.max(gap);
    }
    // Paper Fig. 9: worst ≈ 11%. Allow slack; the property is boundedness.
    assert!(worst < 15.0, "heuristic-vs-optimal gap {worst}% too large");
}

#[test]
fn fig10_speedups_by_grain_group() {
    let catalog = catalog();
    let encoder = encoder();
    let trace = TraceBuilder::new(&encoder)
        .video(VideoModel::paper_default(1))
        .build();
    let risc = run(
        &catalog,
        &trace,
        Resources::NONE,
        &mut RiscOnlyPolicy::new(),
    ) as f64;
    let speedup = |combo| risc / run(&catalog, &trace, combo, &mut Mrts::new()) as f64;

    let fg3 = speedup(Resources::prc_only(3));
    let mg11 = speedup(Resources::new(1, 1));
    let mg43 = speedup(Resources::new(4, 3));
    // FG-only lands in a moderate band (paper: 1.8–2.2x; our fabric model
    // is somewhat stronger, so allow up to 3x).
    assert!((1.5..=3.2).contains(&fg3), "FG-only speedup {fg3}");
    // The big MG machine is the best configuration measured (paper: >5x).
    assert!(mg43 > 4.0, "large MG machine speedup {mg43}");
    assert!(mg43 > fg3 + 1.0, "MG clearly above FG-only");
    // A small mixed machine beats a same-size FG-only machine (paper's
    // 1 PRC + 1 CG vs 3 PRCs argument).
    assert!(mg11 > fg3, "1 CG + 1 PRC ({mg11}) must beat 3 PRCs ({fg3})");
}

#[test]
fn section_5_4_overhead_bounds() {
    let catalog = catalog();
    let encoder = encoder();
    let trace = TraceBuilder::new(&encoder)
        .video(VideoModel::paper_default(1))
        .build();
    let machine = Machine::new(ArchParams::default(), Resources::new(2, 2)).expect("m");
    let mut mrts = Mrts::new();
    let stats = Simulator::run(&catalog, machine, &trace, &mut mrts);
    assert!(
        mrts.avg_selection_cycles_per_kernel() < 3_000.0,
        "selection cost per kernel: {}",
        mrts.avg_selection_cycles_per_kernel()
    );
    assert!(
        stats.overhead_fraction() < 0.019,
        "charged overhead stays below the paper's 1.9%: {}",
        stats.overhead_fraction()
    );
}

#[test]
fn search_space_exceeds_the_papers_78_million() {
    let catalog = catalog();
    let encoder = encoder();
    let biggest = &encoder.application().blocks()[1];
    assert!(biggest.kernels.len() >= 7);
    assert!(catalog.combination_count(&biggest.kernels) > 78_000_000);
}
