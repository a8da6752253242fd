//! `grid_long`: the paper's Fig. 8 grid (CG 0..=4 × PRC 0..=3, five
//! contenders) run serially with no event sink over one long H.264 video
//! whose scenes come from the seed. Policy code dominates it; no ingest,
//! multitask, fleet or spine work is timed. One op is one (combo,
//! contender) `run_trace`, 100 per grid.

use crate::spans::{maybe_span, policy_prefix, run_trace_span, PolicySpans, TracedPolicy, Tracer};
use crate::{end_to_end, min, time_once, Opts, Report, Setups, SplitMix};
use mrts_arch::{ArchParams, Cycles, FaultModel, Machine, Resources};
use mrts_baselines::{make_policy, ProfiledTotals};
use mrts_core::{Mrts, MrtsConfig, SelectorConfig};
use mrts_ise::IseCatalog;
use mrts_sim::{EventSink, RecoveryConfig, RunStats, Simulator, LOAD_RETRY_BUDGET};
use mrts_workload::{Scene, Trace, TraceBuilder, VideoModel, WorkloadModel};
use std::rc::Rc;
use std::time::Instant;

/// Frames of the long video: three functional blocks each, 1200 blocks.
const FRAMES: u32 = 400;

/// The contenders, in the paper's Fig. 8 bar order; RISC first, mRTS last.
const CONTENDERS: [&str; 5] = ["risc", "rispp", "offline", "morpheus", "mrts"];
const RISC: usize = 0;
const MRTS: usize = 4;

/// Cells rerun with the literal Fig. 6 full-rescan selector.
const RESCAN_SAMPLES: usize = 3;

/// The residual the traced run states: it prints whether the summed layer
/// self times miss the untraced time by more than this share, and does not
/// count it as a failed check.
pub const RESIDUAL_BOUND_PCT: f64 = 15.0;

/// The 48-block paper-default video (seed 1), mRTS on 2 CG + 2 PRC: the
/// repository's H.264 fingerprint.
const FINGERPRINT_BUSY: u64 = 126_893_426;

/// The Fig. 8 fabric sweep, combo-major like `fig8_comparison`.
pub fn combos() -> Vec<Resources> {
    (0..=4u16)
        .flat_map(|cg| (0..=3u16).map(move |prc| Resources::new(cg, prc)))
        .collect()
}

/// Inputs of one grid: catalogue, trace and the offline baselines'
/// profile.
pub struct Grid {
    catalog: IseCatalog,
    trace: Trace,
    totals: ProfiledTotals,
}

/// A long video: seeded scenes of 4..=24 frames with random motion and
/// texture, `FRAMES` frames in all.
fn long_video(seed: u64) -> VideoModel {
    let mut rng = SplitMix::new(seed);
    let mut b = VideoModel::builder(22, 18).seed(seed);
    let mut left = FRAMES;
    while left > 0 {
        let frames = (rng.range(4, 24) as u32).min(left);
        b = b.scene(Scene::new(
            frames,
            0.05 + 0.9 * rng.unit(),
            0.05 + 0.9 * rng.unit(),
        ));
        left -= frames;
    }
    b.build()
}

/// An app resolved through the ingestion pipeline, as `mrts-cli` does it.
pub struct App {
    pub name: String,
    pub catalog: IseCatalog,
    pub trace: Trace,
}

/// Resolves and lowers the app, builds its catalogue and trace.
pub fn build_app(app: &str, video: VideoModel, t: Option<&Tracer>) -> App {
    let model = maybe_span(t, "ingest.lower", || mrts_ingest::model(app))
        .unwrap_or_else(|e| panic!("builtin app {app} lowers: {e}"));
    let catalog = maybe_span(t, "ise.build_catalog", || {
        model
            .application()
            .build_catalog(ArchParams::default(), None)
    })
    .unwrap_or_else(|e| panic!("builtin app {app} maps: {e}"));
    let trace = maybe_span(t, "workload.trace_build", || {
        TraceBuilder::new(&model).video(video).build()
    });
    App {
        name: model.application().name().to_owned(),
        catalog,
        trace,
    }
}

fn setup(seed: u64, t: Option<&Tracer>) -> Grid {
    let App { catalog, trace, .. } = build_app("h264", long_video(seed), t);
    let totals = maybe_span(t, "baselines.profile", || {
        ProfiledTotals::from_trace(&trace)
    });
    Grid {
        catalog,
        trace,
        totals,
    }
}

/// How an op builds its simulator.
pub enum Shape {
    /// Like `Simulator::run`: the figure binaries, `mrts-cli sweep` and the
    /// RISC reference of `mrts-cli simulate`.
    Plain,
    /// Like `mrts-cli simulate`: the fault model armed at rate 0, the
    /// default retry budget, and the event sink when `--events-out` is set.
    Simulate(Option<Box<dyn EventSink>>),
}

/// One op: a fresh machine and contender policy, one `run_trace`. With a
/// tracer, construction and every policy call get their own spans inside
/// the contender's `sim.run_trace` span.
pub fn run_contender(
    app: (&IseCatalog, &Trace, &ProfiledTotals),
    combo: Resources,
    contender: &str,
    shape: Shape,
    t: Option<&Rc<Tracer>>,
) -> RunStats {
    let (catalog, trace, totals) = app;
    let params = ArchParams::default();
    let machine = match shape {
        Shape::Plain => Machine::new(params, combo),
        Shape::Simulate(_) => Machine::with_fault_model(params, combo, FaultModel::new(0.0, 1)),
    }
    .expect("default params are valid");
    let capacity = machine.capacity();
    let make = || make_policy(contender, catalog, capacity, totals).expect("known contender");
    let mut sim = Simulator::new(catalog, machine);
    if let Shape::Simulate(sink) = shape {
        sim = sim.with_recovery(RecoveryConfig {
            retry_budget: LOAD_RETRY_BUDGET,
            ..RecoveryConfig::default()
        });
        if let Some(sink) = sink {
            sim.attach_events(0, sink);
        }
    }
    let stats = match t {
        None => sim.run_trace(trace, make().as_mut()),
        Some(t) => {
            let spans = PolicySpans::new(t, contender);
            t.span(&run_trace_span(contender), || {
                t.enter(spans.new);
                let mut p = make();
                t.exit();
                let mut traced = TracedPolicy::new(p.as_mut(), Rc::clone(t), spans);
                sim.run_trace(trace, &mut traced)
            })
        }
    };
    sim.finish_events();
    stats
}

/// Mean engine time per block of `contender`'s runs: its `run_trace` self
/// time over its `plan_block` calls, one per block activation.
pub fn engine_us_per_block(t: &Tracer, contender: &str) -> f64 {
    let blocks = t.count(&format!("{}plan_block", policy_prefix(contender)));
    t.self_comp_ns(&run_trace_span(contender)) / blocks.max(1) as f64 / 1e3
}

/// One grid pass in Fig. 8 order; returns each cell's stats and op time.
fn pass(g: &Grid, t: Option<&Rc<Tracer>>) -> Vec<(RunStats, f64)> {
    let mut out = Vec::with_capacity(100);
    for combo in combos() {
        for c in CONTENDERS {
            let t0 = Instant::now();
            let app = (&g.catalog, &g.trace, &g.totals);
            let stats = run_contender(app, combo, c, Shape::Plain, t);
            out.push((stats, t0.elapsed().as_secs_f64()));
        }
    }
    out
}

/// Checks a pass against the reference cells (or makes it the reference).
fn check_pass(
    r: &mut Report,
    reference: &mut Vec<RunStats>,
    cells: Vec<(RunStats, f64)>,
    what: &str,
) {
    let cells: Vec<RunStats> = cells.into_iter().map(|(s, _)| s).collect();
    if reference.is_empty() {
        for s in &cells {
            r.check(true, String::new);
            r.digest(
                serde_json::to_string(s)
                    .expect("stats serialize")
                    .as_bytes(),
            );
        }
        *reference = cells;
        return;
    }
    for (i, s) in cells.iter().enumerate() {
        r.check(*s == reference[i], || {
            format!("{what}: cell {i} differs from the first pass")
        });
    }
}

/// Checks that need no timing: mRTS beats or ties RISC on every combo,
/// sampled cells rerun with the full-rescan selector match, and the
/// 48-block fingerprint holds. Prints the exact counters.
fn check_outputs(r: &mut Report, g: &Grid, seed: u64, reference: &[RunStats]) {
    let n = CONTENDERS.len();
    let combos = combos();
    for (ci, combo) in combos.iter().enumerate() {
        let risc = reference[ci * n + RISC].total_execution_time();
        let mrts = reference[ci * n + MRTS].total_execution_time();
        r.check(mrts <= risc, || {
            format!("{combo}: mRTS {mrts:?} slower than RISC {risc:?}")
        });
    }
    let mut rng = SplitMix::new(seed ^ 0x7265_7363_616e);
    for _ in 0..RESCAN_SAMPLES {
        let ci = rng.range(1, combos.len() as u64 - 1) as usize;
        let mut cfg = MrtsConfig::default();
        cfg.selector = SelectorConfig {
            full_rescan: true,
            ..cfg.selector
        };
        let machine = Machine::new(ArchParams::default(), combos[ci]).expect("valid params");
        let s = Simulator::run(&g.catalog, machine, &g.trace, &mut Mrts::with_config(cfg));
        r.check(s == reference[ci * n + MRTS], || {
            format!("{}: full-rescan mRTS differs from lazy mRTS", combos[ci])
        });
    }
    let App { catalog, trace, .. } = build_app("h264", VideoModel::paper_default(1), None);
    let machine = Machine::new(ArchParams::default(), Resources::new(2, 2)).expect("valid");
    let busy = Simulator::run(&catalog, machine, &trace, &mut Mrts::new()).total_busy();
    r.check(
        trace.len() == 48 && busy == Cycles::new(FINGERPRINT_BUSY),
        || format!("fingerprint: {} blocks, busy {busy:?}", trace.len()),
    );

    r.counter("workload.blocks", g.trace.len() as u64);
    r.counter(
        "sim.cycles_total",
        reference
            .iter()
            .map(|s| s.total_execution_time().get())
            .sum(),
    );
    r.counter("sim.events", 0);
    r.counter("fleet.accepted", 0);
    r.counter("fleet.rejected", 0);
}

/// One set-up, timed; the body of a `--setup-probe` process.
pub fn setup_seconds(o: &Opts) -> f64 {
    time_once(|| setup(o.seed, None))
}

pub fn run(o: &Opts) -> Report {
    let mut r = Report::default();
    let mut reference = Vec::new();
    let setup_tracer = o.trace.then(Tracer::new);
    let st = setup_tracer.as_deref();
    let g = setup(o.seed, st);
    let mut setups = Setups::start();
    let tracer = o.trace.then(Tracer::new);
    let mut best = vec![f64::INFINITY; combos().len() * CONTENDERS.len()];
    let (mut bare, mut wrapped, mut covered) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss_mb = 0.0;
    let t0 = Instant::now();
    while bare.is_empty() || t0.elapsed() < o.budget() || setups.pending(o) {
        let cells = pass(&g, None);
        bare.push(cells.iter().map(|(_, dt)| dt).sum::<f64>());
        // Set-up and one pass: what a single run of the workload holds.
        // Later passes only add allocator drift.
        if bare.len() == 1 {
            rss_mb = crate::own_peak_rss_mb();
        }
        for (b, (_, dt)) in best.iter_mut().zip(&cells) {
            *b = b.min(*dt);
        }
        check_pass(&mut r, &mut reference, cells, "repeat");
        if let Some(t) = &tracer {
            let before = t.covered_comp_ns();
            let cells = pass(&g, Some(t));
            covered.push((t.covered_comp_ns() - before) * 1e-9);
            wrapped.push(cells.iter().map(|(_, dt)| dt).sum::<f64>());
            check_pass(&mut r, &mut reference, cells, "traced vs bare");
        }
        setups.between_passes(o, &mut r, |_| setup(o.seed, st));
    }
    check_outputs(&mut r, &g, o.seed, &reference);
    let blocks = g.trace.len() as f64;
    let Some(tracer) = tracer else {
        r.note(format!(
            "grid_long: {} grids of {} ops on {blocks} blocks; op percentiles over {} per-op best times",
            bare.len(),
            best.len(),
            best.len()
        ));
        end_to_end(&mut r, &setups, &best, blocks, rss_mb);
        return r;
    };

    let passes = wrapped.len() as f64;
    crate::setup_metrics(&mut r, st.expect("traced"));
    crate::core_metrics(&mut r, &tracer, passes);
    for c in CONTENDERS {
        if c != "mrts" {
            let self_ns = tracer.self_comp_with_prefix(&policy_prefix(c));
            r.metric(
                format!("baselines.{c}.self_ms"),
                self_ns / passes / 1e6,
                "ms",
            );
        }
        r.metric(
            format!("sim.engine_us_per_block.{c}"),
            engine_us_per_block(&tracer, c),
            "us",
        );
    }
    crate::trace_metrics(
        &mut r,
        &tracer,
        min(&bare),
        min(&covered),
        (min(&bare), min(&wrapped)),
        RESIDUAL_BOUND_PCT,
    );
    r.note(format!(
        "grid_long traced: {} bare + {} traced grids",
        bare.len(),
        wrapped.len()
    ));
    crate::write_spans(o, &[st.expect("traced"), &tracer]);
    r
}
