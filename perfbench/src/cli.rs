//! `cli_jobs`: a closed loop with one client running whole `mrts-cli`
//! processes, one at a time, over the six builtin apps: `simulate` bare and
//! with `--events-out`, `sweep`, `ingest --lower`, `ingest --check
//! --replay` of the simulate spine, plus one `multitask --events-out` and
//! one `fleet --arrivals-in --events-out` per cycle. Start-up, lowering,
//! catalogue build and output encoding dominate; selector and engine work
//! is minor (48-block traces). The spine is both written and read, so a
//! speed-up for one that costs the other shows. One op is one process.
//!
//! Every process must exit 0 and print, and write, exactly what the first
//! cycle did; the first cycle's outputs must match the library run
//! in-process on the same (app, seed, combo).

use crate::grid::{build_app, engine_us_per_block, run_contender, App, Shape};
use crate::spans::{maybe_span, TracedSink, Tracer};
use crate::{end_to_end, time_once, Opts, Report, Setups, SplitMix};
use mrts_arch::{ArchParams, Cycles, Resources};
use mrts_baselines::ProfiledTotals;
use mrts_fleet::{
    poisson_arrivals, records_from_jsonl, records_to_jsonl, run_fleet, AppRegistry, FleetConfig,
    PoissonConfig,
};
use mrts_ingest::BUILTIN_APPS;
use mrts_multitask::{run_multitask_with_events, MultitaskConfig, TenantRequest, TenantSpec};
use mrts_sim::{events_to_jsonl, EventSink, SimEvent, VecSink};
use mrts_workload::VideoModel;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::rc::Rc;
use std::time::Instant;

/// Cases per builtin app, multitask jobs and fleet jobs per cycle: 96
/// distinct jobs, so p90 has ten of them beyond it.
const CASES: usize = 3;
/// The multitask job's tenants.
const MULTITASK_APPS: [&str; 3] = ["h264", "fft", "cipher"];
/// The fleet job's arrival stream: sessions over the fft+cipher mix at the
/// CLI's default mean gap.
const FLEET_SESSIONS: usize = 200;
const FLEET_MEAN_GAP: u64 = 150_000;
/// `mrts-cli fleet` defaults the in-process reference must repeat.
const FLEET_VARIANTS: usize = 4;
const FLEET_MAX_BLOCKS: usize = 40;
/// `mrts-cli help` processes timed for `cli.startup_ms`.
const STARTUP_SAMPLES: usize = 25;
/// The residual the traced run states: it prints whether the summed layer
/// self times plus process start-up miss the process time by more than
/// this share, and does not count it as a failed check.
pub const RESIDUAL_BOUND_PCT: f64 = 35.0;

#[derive(Debug, Clone)]
enum Kind {
    Simulate { case: usize, events: bool },
    Sweep { case: usize },
    Lower { case: usize },
    Replay { case: usize },
    Multitask { k: usize },
    Fleet { k: usize },
    Help,
}

#[derive(Debug, Clone)]
struct Job {
    kind: Kind,
    args: Vec<String>,
    /// The spine file the job writes, if any.
    events: Option<PathBuf>,
}

/// One builtin app with its simulation seed and fabric combo.
#[derive(Debug, Clone, Copy)]
struct AppCase {
    app: usize,
    seed: u64,
    combo: Resources,
}

/// One fleet job's arrival stream.
struct FleetInput {
    seed: u64,
    path: PathBuf,
    jsonl: String,
}

struct Inputs {
    cases: Vec<AppCase>,
    multitask_seeds: Vec<u64>,
    fleets: Vec<FleetInput>,
    /// Each case's app as the reference runs need it.
    apps: Vec<App>,
}

/// Draws `CASES` cases per builtin app plus the multitask and fleet seeds.
fn cases(seed: u64) -> (Vec<AppCase>, Vec<u64>, Vec<u64>) {
    let mut rng = SplitMix::new(seed);
    let mut cases = Vec::new();
    for _ in 0..CASES {
        for app in 0..BUILTIN_APPS.len() {
            cases.push(AppCase {
                app,
                seed: rng.range(1, 1_000_000),
                combo: Resources::new(rng.range(0, 4) as u16, rng.range(0, 3) as u16),
            });
        }
    }
    let mut seeds = || {
        (0..CASES)
            .map(|_| rng.range(1, 1_000_000))
            .collect::<Vec<_>>()
    };
    let multitask = seeds();
    (cases, multitask, seeds())
}

fn fleet_mix() -> Vec<TenantRequest> {
    ["fft", "cipher"]
        .iter()
        .map(|&app| TenantRequest {
            app: app.to_owned(),
            weight: 1,
            slo: None,
        })
        .collect()
}

/// Draws the cases, generates and writes the arrival file, and builds
/// every app the reference runs use.
fn setup(seed: u64, work: &Path, t: Option<&Tracer>) -> Inputs {
    let (cases, multitask_seeds, fleet_seeds) = cases(seed);
    let fleets = fleet_seeds
        .into_iter()
        .enumerate()
        .map(|(k, seed)| {
            let records = maybe_span(t, "fleet.arrivals", || {
                poisson_arrivals(&PoissonConfig {
                    seed,
                    sessions: FLEET_SESSIONS,
                    mean_gap: FLEET_MEAN_GAP,
                    mix: fleet_mix(),
                    variants: FLEET_VARIANTS as u64,
                })
            });
            let jsonl = maybe_span(t, "fleet.jsonl_encode", || records_to_jsonl(&records))
                .expect("generated arrivals encode");
            let path = work.join(format!("arrivals-{k}.jsonl"));
            std::fs::write(&path, &jsonl).expect("the work dir is writable");
            FleetInput { seed, path, jsonl }
        })
        .collect();
    let apps = cases
        .iter()
        .map(|c| build_app(BUILTIN_APPS[c.app], VideoModel::paper_default(c.seed), t))
        .collect();
    Inputs {
        cases,
        multitask_seeds,
        fleets,
        apps,
    }
}

fn jobs(inp: &Inputs, work: &Path) -> Vec<Job> {
    let s = |x: &str| x.to_owned();
    let p = |x: &Path| x.display().to_string();
    let mut out = Vec::new();
    for (case, c) in inp.cases.iter().enumerate() {
        let name = BUILTIN_APPS[c.app];
        let spine = work.join(format!("events-{name}-{case}.jsonl"));
        let sim = vec![
            s("simulate"),
            s("--app"),
            s(name),
            s("--seed"),
            c.seed.to_string(),
            s("--cg"),
            c.combo.cg().to_string(),
            s("--prc"),
            c.combo.prc().to_string(),
        ];
        out.push(Job {
            kind: Kind::Simulate {
                case,
                events: false,
            },
            args: sim.clone(),
            events: None,
        });
        let mut with_events = sim;
        with_events.extend([s("--events-out"), p(&spine)]);
        out.push(Job {
            kind: Kind::Simulate { case, events: true },
            args: with_events,
            events: Some(spine.clone()),
        });
        out.push(Job {
            kind: Kind::Sweep { case },
            args: vec![
                s("sweep"),
                s("--app"),
                s(name),
                s("--seed"),
                c.seed.to_string(),
            ],
            events: None,
        });
        out.push(Job {
            kind: Kind::Lower { case },
            args: vec![s("ingest"), s("--lower"), s(name)],
            events: None,
        });
        out.push(Job {
            kind: Kind::Replay { case },
            args: vec![s("ingest"), s("--check"), s(name), s("--replay"), p(&spine)],
            events: None,
        });
    }
    for (k, seed) in inp.multitask_seeds.iter().enumerate() {
        let mt = work.join(format!("events-multitask-{k}.jsonl"));
        out.push(Job {
            kind: Kind::Multitask { k },
            args: vec![
                s("multitask"),
                s("--apps"),
                MULTITASK_APPS.join(","),
                s("--seed"),
                seed.to_string(),
                s("--events-out"),
                p(&mt),
            ],
            events: Some(mt),
        });
    }
    for (k, f) in inp.fleets.iter().enumerate() {
        let fl = work.join(format!("events-fleet-{k}.jsonl"));
        out.push(Job {
            kind: Kind::Fleet { k },
            args: vec![
                s("fleet"),
                s("--arrivals-in"),
                p(&f.path),
                s("--seed"),
                f.seed.to_string(),
                s("--events-out"),
                p(&fl),
            ],
            events: Some(fl),
        });
    }
    out
}

/// What one process produced.
#[derive(Debug, Clone, PartialEq)]
struct Output {
    stdout: String,
    events: Option<Vec<u8>>,
}

/// Runs one process to completion; returns its output and host seconds.
fn spawn(cli: &Path, job: &Job) -> Result<(Output, f64), String> {
    let t0 = Instant::now();
    let out = Command::new(cli)
        .args(&job.args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", cli.display()))?;
    let dt = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "{:?} exited with {}: {}",
            job.args,
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let events = match &job.events {
        Some(path) => Some(std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?),
        None => None,
    };
    Ok((
        Output {
            stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
            events,
        },
        dt,
    ))
}

/// What the library computes in-process for one job: lines the process
/// must print, the spine it must write, and exact counters.
#[derive(Debug, Clone, PartialEq, Default)]
struct Expected {
    lines: Vec<String>,
    /// The whole stdout, where the job prints only a document.
    stdout: Option<String>,
    events: Option<String>,
    cycles: u64,
    accepted: u64,
    rejected: u64,
}

/// An event sink that forwards to a shared `VecSink`, inside `sim.sink`
/// spans when tracing.
fn sink(t: Option<&Rc<Tracer>>) -> (VecSink, Box<dyn EventSink>) {
    let buf = VecSink::new();
    let boxed: Box<dyn EventSink> = match t {
        Some(t) => Box::new(TracedSink::new(buf.clone(), Rc::clone(t))),
        None => Box::new(buf.clone()),
    };
    (buf, boxed)
}

fn encode(events: &[(u32, SimEvent)], t: Option<&Tracer>) -> String {
    maybe_span(t, "sim.jsonl_encode", || events_to_jsonl(events)).expect("events encode")
}

/// The library work of one job, run in-process like the CLI runs it.
fn library(
    job: &Job,
    inp: &Inputs,
    spine: &dyn Fn(usize) -> String,
    t: Option<&Rc<Tracer>>,
) -> Expected {
    let tr = t.map(|t| &**t);
    match job.kind {
        Kind::Simulate { case, events } => {
            let c = inp.cases[case];
            let a = build_app(BUILTIN_APPS[c.app], VideoModel::paper_default(c.seed), tr);
            let totals = maybe_span(tr, "baselines.profile", || {
                ProfiledTotals::from_trace(&a.trace)
            });
            let (buf, boxed) = sink(t);
            let app = (&a.catalog, &a.trace, &totals);
            let shape = Shape::Simulate(events.then_some(boxed));
            let stats = run_contender(app, c.combo, "mrts", shape, t);
            let risc = run_contender(app, c.combo, "risc", Shape::Plain, t);
            Expected {
                lines: vec![
                    format!(
                        "time     : {:.3} Mcycles ({:.3} busy + {:.3} overhead)",
                        stats.total_execution_time().as_mcycles(),
                        stats.total_busy().as_mcycles(),
                        stats.total_overhead().as_mcycles()
                    ),
                    format!(
                        "speedup  : {:.2}x vs RISC-mode",
                        stats.speedup_vs(&risc).max(0.0)
                    ),
                ],
                events: events.then(|| encode(&buf.take(), tr)),
                cycles: stats.total_execution_time().get() + risc.total_execution_time().get(),
                ..Expected::default()
            }
        }
        Kind::Sweep { case } => {
            let c = inp.cases[case];
            let a = build_app(BUILTIN_APPS[c.app], VideoModel::paper_default(c.seed), tr);
            let totals = maybe_span(tr, "baselines.profile", || {
                ProfiledTotals::from_trace(&a.trace)
            });
            let app = (&a.catalog, &a.trace, &totals);
            let risc = run_contender(app, Resources::NONE, "risc", Shape::Plain, t);
            let mut e = Expected {
                cycles: risc.total_execution_time().get(),
                ..Expected::default()
            };
            for combo in crate::grid::combos() {
                let stats = run_contender(app, combo, "mrts", Shape::Plain, t);
                let s = risc.total_execution_time().get() as f64
                    / stats.total_execution_time().get().max(1) as f64;
                e.lines.push(format!(
                    "{:>4} {:>4} {:>12.3} {s:>8.2}x",
                    combo.cg(),
                    combo.prc(),
                    stats.total_execution_time().as_mcycles()
                ));
                e.cycles += stats.total_execution_time().get();
            }
            e
        }
        Kind::Lower { case } => {
            let (lowered, catalog) = lower(BUILTIN_APPS[inp.cases[case].app], tr);
            drop(lowered);
            let mut json = maybe_span(tr, "ingest.catalog_json", || {
                serde_json::to_string_pretty(&catalog)
            })
            .expect("catalogue serializes");
            json.push('\n');
            Expected {
                stdout: Some(json),
                ..Expected::default()
            }
        }
        Kind::Replay { case } => {
            let (lowered, catalog) = lower(BUILTIN_APPS[inp.cases[case].app], tr);
            let text = spine(case);
            let profile = maybe_span(tr, "ingest.replay", || {
                mrts_ingest::events::profile_jsonl(&text)
            })
            .expect("the simulate spine replays");
            Expected {
                lines: vec![
                    format!(
                        "catalogue: {} ISE variants over {} kernels",
                        catalog.ises().len(),
                        catalog.kernels().len()
                    ),
                    format!(
                        "replayed spine: {} lines, {} block starts, {} executions",
                        profile.lines,
                        profile.block_starts,
                        profile.total_executions()
                    ),
                    format!(
                        "manifest '{}' OK: {} kernels, {} functional blocks, {} dead ops removed",
                        lowered.app.name(),
                        lowered.app.kernel_specs().len(),
                        lowered.app.blocks().len(),
                        lowered.dce.removed_ops,
                    ),
                ],
                ..Expected::default()
            }
        }
        Kind::Multitask { k } => {
            let built: Vec<App> = MULTITASK_APPS
                .iter()
                .enumerate()
                .map(|(i, app)| {
                    build_app(
                        app,
                        VideoModel::paper_default(inp.multitask_seeds[k].wrapping_add(i as u64)),
                        tr,
                    )
                })
                .collect();
            let specs: Vec<TenantSpec<'_>> = built
                .iter()
                .map(|a| TenantSpec::new(a.name.clone(), &a.catalog, &a.trace).with_weight(1))
                .collect();
            let (buf, mut boxed) = sink(t);
            let stats = maybe_span(tr, "multitask.run", || {
                run_multitask_with_events(
                    ArchParams::default(),
                    Resources::new(2, 2),
                    &specs,
                    &MultitaskConfig::default(),
                    boxed.as_mut(),
                )
            })
            .expect("the multitask job runs");
            drop(boxed);
            Expected {
                lines: vec![format!("{stats}")],
                events: Some(encode(&buf.take(), tr)),
                cycles: stats.makespan.get(),
                ..Expected::default()
            }
        }
        Kind::Fleet { k } => {
            let f = &inp.fleets[k];
            let records = maybe_span(tr, "fleet.jsonl_decode", || records_from_jsonl(&f.jsonl))
                .expect("the arrival file decodes");
            let mut apps: Vec<&str> = Vec::new();
            for r in &records {
                if !apps.contains(&r.app.as_str()) {
                    apps.push(&r.app);
                }
            }
            let params = ArchParams::default();
            let registry = maybe_span(tr, "fleet.registry", || {
                AppRegistry::new(&params, &apps, FLEET_VARIANTS, f.seed, FLEET_MAX_BLOCKS)
            })
            .expect("the fleet registry builds");
            let cfg = FleetConfig {
                multitask: MultitaskConfig {
                    repartition_min_demand: Cycles::new(50_000),
                    ..MultitaskConfig::default()
                },
                record_events: true,
                ..FleetConfig::default()
            };
            let out = maybe_span(tr, "fleet.run_fleet", || {
                run_fleet(&params, &registry, &records, &cfg)
            })
            .expect("the fleet job runs");
            Expected {
                lines: vec![format!("{}", out.stats)],
                events: Some(encode(&out.events, tr)),
                cycles: out.stats.makespan.get(),
                accepted: out.stats.accepted,
                rejected: out.stats.rejected,
                ..Expected::default()
            }
        }
        Kind::Help => Expected::default(),
    }
}

fn lower(app: &str, t: Option<&Tracer>) -> (mrts_ingest::Lowered, mrts_ise::IseCatalog) {
    let lowered = maybe_span(t, "ingest.lower", || {
        mrts_ingest::builtin::load(app).and_then(|m| mrts_ingest::lower(&m))
    })
    .expect("builtin apps lower");
    let catalog = maybe_span(t, "ise.build_catalog", || {
        lowered.derive_catalog(ArchParams::default(), None)
    })
    .expect("builtin apps map");
    (lowered, catalog)
}

/// Whether a process output shows everything the library expects.
fn matches(out: &Output, exp: &Expected) -> bool {
    let lines_ok = exp.lines.iter().all(|l| out.stdout.contains(l.as_str()));
    let stdout_ok = exp.stdout.as_ref().is_none_or(|s| *s == out.stdout);
    let events_ok = exp.events.as_ref().map(|e| e.as_bytes()) == out.events.as_deref();
    lines_ok && stdout_ok && events_ok
}

/// The largest peak resident set of any child process waited for, in MB.
fn children_peak_rss_mb() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 longs
        /// starting with `ru_maxrss` (in KiB).
        #[repr(C)]
        struct RUsage {
            utime: [i64; 2],
            stime: [i64; 2],
            maxrss: i64,
            rest: [i64; 13],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut RUsage) -> i32;
        }
        const RUSAGE_CHILDREN: i32 = -1;
        let mut u = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `getrusage` writes one `struct rusage` through the
        // pointer, and `RUsage` has that layout and size on 64-bit Linux.
        if unsafe { getrusage(RUSAGE_CHILDREN, &mut u) } == 0 {
            return u.maxrss as f64 / 1024.0;
        }
    }
    0.0
}

/// Runs `job` as a process and checks it against the first cycle.
fn run_job(r: &mut Report, o: &Opts, job: &Job, first: &mut Option<Output>) -> Option<f64> {
    match spawn(&o.cli, job) {
        Ok((out, dt)) => {
            match first {
                None => {
                    r.check(true, String::new);
                    *first = Some(out);
                }
                Some(f) => r.check(out == *f, || {
                    format!("{:?}: output differs from the first cycle", job.args)
                }),
            }
            Some(dt)
        }
        Err(e) => {
            r.error(e);
            None
        }
    }
}

/// Compares every job's first-cycle output with the in-process library
/// result and prints the exact counters. The digest leaves out the work
/// directory, which some jobs print, so it is the same in any checkout.
fn check_outputs(
    r: &mut Report,
    inp: &Inputs,
    jobs: &[Job],
    first: &[Option<Output>],
    work: &Path,
) {
    let mut exp: Vec<Expected> = Vec::new();
    let mut spines: Vec<Option<String>> = vec![None; inp.cases.len()];
    for job in jobs {
        let spine = |case: usize| {
            spines[case]
                .clone()
                .expect("the simulate spine precedes its replay")
        };
        let e = library(job, inp, &spine, None);
        if let Kind::Simulate { case, events: true } = job.kind {
            spines[case] = e.events.clone();
        }
        exp.push(e);
    }
    for ((job, e), out) in jobs.iter().zip(&exp).zip(first) {
        r.check(out.as_ref().is_some_and(|out| matches(out, e)), || {
            format!(
                "{:?}: process output differs from the in-process library result",
                job.args
            )
        });
        if let Some(out) = out {
            let work = work.display().to_string();
            r.digest(out.stdout.replace(&work, "<work>").as_bytes());
            r.digest(out.events.as_deref().unwrap_or_default());
        }
    }
    r.counter(
        "workload.blocks",
        inp.apps.iter().map(|a| a.trace.len() as u64).sum(),
    );
    r.counter("sim.cycles_total", exp.iter().map(|e| e.cycles).sum());
    r.counter(
        "sim.events",
        exp.iter()
            .filter_map(|e| e.events.as_ref())
            .map(|s| s.lines().count() as u64)
            .sum(),
    );
    r.counter("fleet.accepted", exp.iter().map(|e| e.accepted).sum());
    r.counter("fleet.rejected", exp.iter().map(|e| e.rejected).sum());
}

/// One set-up, timed; the body of a `--setup-probe` process.
pub fn setup_seconds(o: &Opts) -> f64 {
    time_once(|| setup(o.seed, &o.work_dir, None))
}

pub fn run(o: &Opts) -> Report {
    let mut r = Report::default();
    let setup_tracer = o.trace.then(Tracer::new);
    let st = setup_tracer.as_deref();
    let inp = setup(o.seed, &o.work_dir, st);
    let mut setups = Setups::start();
    let jobs = jobs(&inp, &o.work_dir);
    let n = jobs.len();
    let mut first: Vec<Option<Output>> = vec![None; n];
    let mut best = vec![f64::INFINITY; n];
    let mut cycles = 0usize;
    let tracer = o.trace.then(Tracer::new);
    let (mut lib_s, mut traced_s, mut covered_s) = (
        vec![f64::INFINITY; n],
        vec![f64::INFINITY; n],
        vec![f64::INFINITY; n],
    );
    let (mut spine_bytes, mut spine_events) = (0u64, 0u64);
    let mut jobs_rss_mb = 0.0;
    let t0 = Instant::now();
    while cycles == 0 || t0.elapsed() < o.budget() || setups.pending(o) {
        let mut spines: Vec<Option<String>> = vec![None; inp.cases.len()];
        for (j, job) in jobs.iter().enumerate() {
            if let Some(dt) = run_job(&mut r, o, job, &mut first[j]) {
                best[j] = best[j].min(dt);
            }
            let Some(t) = &tracer else { continue };
            // Bare and traced library runs swap order every cycle, so
            // neither always finds the caches the other warmed.
            let spine = |case: usize| {
                spines[case]
                    .clone()
                    .expect("the simulate spine precedes its replay")
            };
            let (mut bare, mut traced) = (None, None);
            for tracing in [!cycles.is_multiple_of(2), cycles.is_multiple_of(2)] {
                let t1 = Instant::now();
                if tracing {
                    let before = t.covered_comp_ns();
                    traced = Some(library(job, &inp, &spine, Some(t)));
                    traced_s[j] = traced_s[j].min(t1.elapsed().as_secs_f64());
                    covered_s[j] = covered_s[j].min((t.covered_comp_ns() - before) * 1e-9);
                } else {
                    bare = Some(library(job, &inp, &spine, None));
                    lib_s[j] = lib_s[j].min(t1.elapsed().as_secs_f64());
                }
            }
            let (bare, traced) = (bare.expect("ran bare"), traced.expect("ran traced"));
            r.check(traced == bare, || {
                format!("{:?}: traced library result differs from bare", job.args)
            });
            if let Some(e) = &bare.events {
                spine_bytes += e.len() as u64;
                spine_events += e.lines().count() as u64;
            }
            if let Kind::Simulate { case, events: true } = job.kind {
                spines[case] = bare.events;
            }
        }
        cycles += 1;
        if cycles == 1 {
            // Read before the first set-up probe, itself a child process.
            jobs_rss_mb = children_peak_rss_mb();
        }
        setups.between_passes(o, &mut r, |_| setup(o.seed, &o.work_dir, st));
    }
    check_outputs(&mut r, &inp, &jobs, &first, &o.work_dir);
    let Some(tracer) = tracer else {
        r.note(format!(
            "cli_jobs: {cycles} cycles of {n} jobs; op percentiles over {n} per-job best times"
        ));
        end_to_end(&mut r, &setups, &best, 1.0, jobs_rss_mb);
        return r;
    };

    let help = Job {
        kind: Kind::Help,
        args: vec!["help".to_owned()],
        events: None,
    };
    let mut startup = f64::INFINITY;
    let mut help_first = None;
    for _ in 0..STARTUP_SAMPLES {
        if let Some(dt) = run_job(&mut r, o, &help, &mut help_first) {
            startup = startup.min(dt);
        }
    }
    let per_cycle = cycles as f64;
    let sum = |xs: &[f64]| xs.iter().sum::<f64>();
    let (proc_total, lib_total) = (sum(&best), sum(&lib_s));
    let (traced_total, covered_total) = (sum(&traced_s), sum(&covered_s));

    crate::setup_metrics(&mut r, &tracer);
    r.metric(
        "fleet.arrivals_ms",
        st.expect("traced").per_call_ns("fleet.arrivals") / 1e6,
        "ms",
    );
    crate::core_metrics(&mut r, &tracer, per_cycle);
    r.metric(
        "baselines.risc.self_ms",
        tracer.self_comp_with_prefix("baselines.risc.") / per_cycle / 1e6,
        "ms",
    );
    for c in ["risc", "mrts"] {
        r.metric(
            format!("sim.engine_us_per_block.{c}"),
            engine_us_per_block(&tracer, c),
            "us",
        );
    }
    r.metric("sim.events", spine_events as f64 / per_cycle, "count");
    r.metric(
        "sim.sink_ns_per_event",
        tracer.per_call_ns("sim.sink"),
        "ns",
    );
    r.metric(
        "sim.jsonl_encode_ms",
        tracer.total_comp_ns("sim.jsonl_encode") / per_cycle / 1e6,
        "ms",
    );
    r.metric("sim.jsonl_bytes", spine_bytes as f64 / per_cycle, "bytes");
    r.metric(
        "multitask.run_ms",
        tracer.per_call_ns("multitask.run") / 1e6,
        "ms",
    );
    let fleet_us = tracer.per_call_ns("fleet.run_fleet") / 1e3;
    r.metric(
        "fleet.run_us_per_session",
        fleet_us / FLEET_SESSIONS as f64,
        "us",
    );
    r.metric("cli.startup_ms", startup * 1e3, "ms");
    r.metric(
        "cli.residual_ms",
        (proc_total - lib_total) / n as f64 * 1e3,
        "ms",
    );

    // A process's time is its library work (the spans) plus start-up;
    // the residual is the rest: loader and first-touch page faults beyond
    // `help`, stdout and file writes.
    r.note(format!(
        "cli_jobs traced: {cycles} cycles of {n} jobs; per cycle, processes {proc_total:.6} s, start-up {:.6} s",
        startup * n as f64
    ));
    crate::trace_metrics(
        &mut r,
        &tracer,
        proc_total,
        covered_total + startup * n as f64,
        (lib_total, traced_total),
        RESIDUAL_BOUND_PCT,
    );
    crate::write_spans(o, &[st.expect("traced"), &tracer]);
    r
}
