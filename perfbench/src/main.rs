//! Host-time benchmark of the mRTS stack.
//!
//! ```text
//! perfbench --workload grid_long|fleet_churn|cli_jobs --seed N --seconds S
//!           --trace 0|1 --work-dir DIR --cli PATH [--setup-probe 0|1]
//! ```
//!
//! Every flag but `--setup-probe` is required; `run.py` supplies them.
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` runs the same work bare and wrapped in spans and reports the
//! per-layer metrics. `--setup-probe 1` only times one set-up and prints its
//! seconds: an untraced run starts such processes of itself for `setup_s`. Every run checks every simulated output it produces
//! and prints the exact simulated counters before its last line, a JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod cli;
mod fleet;
mod grid;
mod spans;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the run writes its scratch files (cli_jobs inputs and
    /// outputs) and the span file.
    pub work_dir: PathBuf,
    /// The release `mrts-cli` binary.
    pub cli: PathBuf,
    /// Only time one set-up of the workload, print its seconds and exit.
    pub setup_probe: bool,
}

impl Opts {
    fn parse() -> Result<Opts, String> {
        let mut args = std::env::args().skip(1);
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut work_dir = None;
        let mut cli = None;
        let mut setup_probe = false;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a u64")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "--seconds: not a number")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be within (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => trace = Some(flag_bool(&flag, &value)?),
                "--work-dir" => work_dir = Some(PathBuf::from(value)),
                "--cli" => cli = Some(PathBuf::from(value)),
                "--setup-probe" => setup_probe = flag_bool(&flag, &value)?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            work_dir: work_dir.ok_or("--work-dir is required")?,
            cli: cli.ok_or("--cli is required")?,
            setup_probe,
        })
    }

    /// The timed-phase length.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn flag_bool(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} must be 0 or 1")),
    }
}

/// Set-up probes in an untraced run: fresh processes spread evenly over the
/// timed phase, probe `i` in round `i % SETUP_ROUNDS`, so every round
/// samples the whole run. `setup_s` is the median over the rounds of each
/// round's fastest probe. Other tenants of the machine slow a set-up by up
/// to 1.7× for seconds at a time and only ever add time, so a round's best
/// is its steadiest reading; the median over rounds keeps one lucky probe
/// from deciding.
pub const SETUP_ROUNDS: usize = 5;
pub const SETUP_PROBES: usize = 40;

/// In-process set-ups of a traced run, whose spans give the per-layer
/// set-up metrics.
pub const TRACED_SETUPS: usize = 25;

/// The value of a per-layer metric whose layer the workload runs but whose
/// calls the benchmark cannot reach, so cannot attribute. A layer the
/// workload does not run reads 0.
pub const NOT_ATTRIBUTED: f64 = -1.0;

/// Repeated set-ups of one run. An untraced run times each set-up in a
/// fresh `--setup-probe` process, so every sample is the cold time before
/// the first timed op, as a user's run pays it. A traced run repeats the
/// set-up in-process under the set-up tracer.
pub struct Setups {
    start: Instant,
    probes: usize,
    round_best: [f64; SETUP_ROUNDS],
    traced: usize,
}

impl Setups {
    /// Starts the clock of the timed phase.
    pub fn start() -> Setups {
        Setups {
            start: Instant::now(),
            probes: 0,
            round_best: [f64::INFINITY; SETUP_ROUNDS],
            traced: 0,
        }
    }

    /// Called between passes of ops. Untraced: runs the probes whose share
    /// of the timed phase has gone by. Traced: runs `traced_setup` until
    /// there have been `TRACED_SETUPS`.
    pub fn between_passes<T>(
        &mut self,
        o: &Opts,
        r: &mut Report,
        traced_setup: impl FnOnce(&mut Report) -> T,
    ) {
        if o.trace {
            if self.traced < TRACED_SETUPS {
                traced_setup(r);
                self.traced += 1;
            }
            return;
        }
        while self.pending(o)
            && self.start.elapsed() >= o.budget() * self.probes as u32 / SETUP_PROBES as u32
        {
            match probe(o) {
                Ok(s) => {
                    let best = &mut self.round_best[self.probes % SETUP_ROUNDS];
                    *best = best.min(s);
                }
                Err(e) => r.error(format!("set-up probe: {e}")),
            }
            self.probes += 1;
        }
    }

    /// Whether an untraced run still owes probes.
    pub fn pending(&self, o: &Opts) -> bool {
        !o.trace && self.probes < SETUP_PROBES
    }

    /// Each round's best probe time, in seconds.
    pub fn round_best(&self) -> &[f64] {
        &self.round_best
    }

    /// `setup_s`: the median of the rounds' best probe times.
    pub fn seconds(&self) -> f64 {
        median(&self.round_best)
    }
}

/// Runs one `--setup-probe` process of this run's workload and seed and
/// returns the set-up seconds it printed.
fn probe(o: &Opts) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &o.workload, "--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string(), "--trace", "0"])
        .arg("--work-dir")
        .arg(&o.work_dir)
        .arg("--cli")
        .arg(&o.cli)
        .args(["--setup-probe", "1"])
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    text.trim()
        .parse()
        .map_err(|_| format!("printed {text:?}, not a number of seconds"))
}

/// The end-to-end metrics a `--trace 0` run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics a `--trace 1` run prints. A layer the workload
/// does not run reads 0; one it runs but cannot attribute reads
/// `NOT_ATTRIBUTED`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ingest.lower_us", "us"),
    ("ise.build_catalog_ms", "ms"),
    ("workload.trace_build_ms", "ms"),
    ("core.plan_block_us", "us"),
    ("core.plan_block_calls", "count"),
    ("core.plan_execution_ns", "ns"),
    ("core.plan_execution_calls", "count"),
    ("core.observe_us", "us"),
    ("core.self_share", "ratio"),
    ("baselines.risc.self_ms", "ms"),
    ("baselines.rispp.self_ms", "ms"),
    ("baselines.offline.self_ms", "ms"),
    ("baselines.morpheus.self_ms", "ms"),
    ("sim.engine_us_per_block.risc", "us"),
    ("sim.engine_us_per_block.rispp", "us"),
    ("sim.engine_us_per_block.offline", "us"),
    ("sim.engine_us_per_block.morpheus", "us"),
    ("sim.engine_us_per_block.mrts", "us"),
    ("sim.events", "count"),
    ("sim.sink_ns_per_event", "ns"),
    ("sim.jsonl_encode_ms", "ms"),
    ("sim.jsonl_bytes", "bytes"),
    ("multitask.run_ms", "ms"),
    ("fleet.registry_ms", "ms"),
    ("fleet.arrivals_ms", "ms"),
    ("fleet.jsonl_decode_ms", "ms"),
    ("fleet.run_us_per_session", "us"),
    ("fleet.scaling_ratio", "ratio"),
    ("cli.startup_ms", "ms"),
    ("cli.residual_ms", "ms"),
    ("trace.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    counters: Vec<(&'static str, u64)>,
    digest: Digest,
    notes: Vec<String>,
}

impl Report {
    /// Counts one checked op; a failed check is printed, never fatal.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Counts one op that errored.
    pub fn error(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("OP FAILED: {what}");
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Marks per-layer metrics whose layer runs but cannot be attributed.
    pub fn not_attributed(&mut self, names: &[&str], why: &str) {
        for &name in names {
            let &(name, unit) = PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .expect("a per-layer metric");
            self.metric(name, NOT_ATTRIBUTED, unit);
        }
        self.note(format!(
            "not attributed ({NOT_ATTRIBUTED}): {}: {why}",
            names.join(", ")
        ));
    }

    /// An exact simulated counter, printed on every run as a tripwire.
    pub fn counter(&mut self, name: &'static str, value: u64) {
        self.counters.push((name, value));
    }

    /// Folds one serialized result into the run's output digest.
    pub fn digest(&mut self, bytes: &[u8]) {
        self.digest.update(bytes);
    }

    /// A free-form line printed before the result (sample counts, checks).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for (name, v) in &self.counters {
            println!("counter {name} = {v}");
        }
        println!("counter digest = {:016x}", self.digest.0);
        let list = if self.trace { PER_LAYER } else { END_TO_END };
        for (name, _, _) in &self.metrics {
            assert!(
                list.iter().any(|(n, _)| n == name),
                "metric {name} is not in the metric list of this mode"
            );
        }
        let mut m = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let v = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |(_, v, u)| {
                    assert_eq!(u, unit, "unit of {name}");
                    *v
                });
            let sep = if i == 0 { "" } else { ", " };
            let v = if v.is_finite() { v } else { 0.0 };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Per-call times of the set-up layers that ran: ingest, catalogue and
/// trace builds, and the fleet's arrivals, JSONL decode and registry.
pub fn setup_metrics(r: &mut Report, t: &spans::Tracer) {
    for (metric, span, scale, unit) in [
        ("ingest.lower_us", "ingest.lower", 1e3, "us"),
        ("ise.build_catalog_ms", "ise.build_catalog", 1e6, "ms"),
        ("workload.trace_build_ms", "workload.trace_build", 1e6, "ms"),
        ("fleet.registry_ms", "fleet.registry", 1e6, "ms"),
        ("fleet.arrivals_ms", "fleet.arrivals", 1e6, "ms"),
        ("fleet.jsonl_decode_ms", "fleet.jsonl_decode", 1e6, "ms"),
    ] {
        if t.count(span) > 0 {
            r.metric(metric, t.per_call_ns(span) / scale, unit);
        }
    }
}

/// The `core.*` metrics from the spans of the mRTS policy calls, per
/// traced `passes` (grids or job cycles).
pub fn core_metrics(r: &mut Report, t: &spans::Tracer, passes: f64) {
    r.metric(
        "core.plan_block_us",
        t.per_call_ns("core.plan_block") / 1e3,
        "us",
    );
    r.metric(
        "core.plan_block_calls",
        t.count("core.plan_block") as f64 / passes,
        "count",
    );
    r.metric(
        "core.plan_execution_ns",
        t.per_call_ns("core.plan_execution"),
        "ns",
    );
    r.metric(
        "core.plan_execution_calls",
        t.count("core.plan_execution") as f64 / passes,
        "count",
    );
    r.metric("core.observe_us", t.per_call_ns("core.observe") / 1e3, "us");
    let policy_ns: f64 = [
        "core.plan_block",
        "core.plan_execution",
        "core.observe",
        "core.other",
    ]
    .iter()
    .map(|n| t.self_comp_ns(n))
    .sum();
    let run_ns = t.total_comp_ns("sim.run_trace.mrts");
    r.metric("core.self_share", policy_ns / run_ns.max(1.0), "ratio");
}

/// `trace.residual_pct`: `untraced_s` minus the time the spans account
/// for (their summed self times, less the measured span cost), as a share of
/// `untraced_s`. `trace.overhead_pct`: `traced_s` against `bare_s`, the same
/// work run with and without spans. Whether the residual stays within
/// `bound_pct` is printed, not counted as a failed op: it depends on timing
/// noise, and `failed` counts wrong outputs.
pub fn trace_metrics(
    r: &mut Report,
    t: &spans::Tracer,
    untraced_s: f64,
    accounted_s: f64,
    (bare_s, traced_s): (f64, f64),
    bound_pct: f64,
) {
    let (inside, full) = t.span_cost();
    let residual = (untraced_s - accounted_s) / untraced_s * 100.0;
    r.note(format!(
        "trace: one span costs {inside:.1} ns inside itself, {full:.1} ns in all"
    ));
    r.note(format!(
        "trace: untraced {untraced_s:.6} s, accounted for by spans {accounted_s:.6} s, residual {residual:.2}% ({} the stated {bound_pct}%)",
        if residual.abs() <= bound_pct { "within" } else { "OUTSIDE" }
    ));
    r.metric("trace.residual_pct", residual, "%");
    r.metric(
        "trace.overhead_pct",
        (traced_s - bare_s) / bare_s * 100.0,
        "%",
    );
}

/// Writes each tracer's spans to `<work-dir>/spans-<workload>-<i>.tsv`.
pub fn write_spans(o: &Opts, tracers: &[&spans::Tracer]) {
    for (i, t) in tracers.iter().enumerate() {
        let path = o.work_dir.join(format!("spans-{}-{i}.tsv", o.workload));
        if let Err(e) = t.write_tsv(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
}

/// FNV-1a over every simulated result a run produced.
#[derive(Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Times `f` once, in seconds.
pub fn time_once<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    let out = f();
    let dt = t0.elapsed().as_secs_f64();
    drop(out);
    dt
}

/// The end-to-end metrics of an untraced run. `best_s` holds each distinct
/// op's best time over the run's repeats, in seconds: other tenants of the
/// machine only ever add time, so the best repeat is the steadiest reading
/// of an op's own cost. `work_per_op` is the unit the throughput counts
/// (blocks, sessions or processes) per op.
pub fn end_to_end(r: &mut Report, setups: &Setups, best_s: &[f64], work_per_op: f64, rss_mb: f64) {
    let best_ms: Vec<f64> = best_s.iter().map(|s| s * 1e3).collect();
    r.note(format!(
        "setup_s: median over {SETUP_ROUNDS} rounds of the best of their {} probe processes; round bests {:?} s",
        SETUP_PROBES / SETUP_ROUNDS,
        setups.round_best()
    ));
    r.metric("setup_s", setups.seconds(), "s");
    r.metric(
        "throughput",
        best_s.len() as f64 * work_per_op / best_s.iter().sum::<f64>(),
        "1/s",
    );
    r.metric("op_p50_ms", quantile(&best_ms, 0.5), "ms");
    r.metric("op_p90_ms", quantile(&best_ms, 0.9), "ms");
    r.metric("peak_rss_mb", rss_mb, "MB");
}

/// Smallest of `xs` (infinite when empty).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// splitmix64: the benchmark's own input generator, so inputs depend on
/// `--seed` alone.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn own_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let opts = match Opts::parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work_dir.display());
        std::process::exit(2);
    }
    if opts.setup_probe {
        let seconds = match opts.workload.as_str() {
            "grid_long" => grid::setup_seconds(&opts),
            "fleet_churn" => fleet::setup_seconds(&opts),
            "cli_jobs" => cli::setup_seconds(&opts),
            other => unknown_workload(other),
        };
        println!("{seconds:?}");
        return;
    }
    let mut report = match opts.workload.as_str() {
        "grid_long" => grid::run(&opts),
        "fleet_churn" => fleet::run(&opts),
        "cli_jobs" => cli::run(&opts),
        other => unknown_workload(other),
    };
    report.trace = opts.trace;
    report.print();
}

fn unknown_workload(name: &str) -> ! {
    eprintln!("perfbench: unknown workload '{name}' (grid_long|fleet_churn|cli_jobs)");
    std::process::exit(2);
}
