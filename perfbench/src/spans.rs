//! In-memory span recorder plus the policy and event-sink wrappers that
//! open a span around every call the simulator makes into a layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! started (its parent). Self time is the span's duration minus the time
//! its children cover. Per-name totals are folded as spans close, so hot
//! spans (one per `plan_execution` call) cost a fixed amount of memory; the
//! first [`RAW_CAP`] spans are also kept verbatim and written out by
//! [`Tracer::write_tsv`] when the run ends.
//!
//! Timestamps are time-stamp-counter ticks on x86-64: reading the counter
//! took about 18 ns against about 40 ns for `Instant::now` on the 2-CPU VM
//! the bounds were set on, and the hot spans wrap calls of well under a
//! microsecond. Even so a span is not free, so each tracer measures its own
//! cost when created: `inside`, the part of an empty span that lands
//! between its two timestamps, and `full`, what one enter/exit pair adds to
//! the enclosing span. The `*_comp_ns` readers subtract that cost; the raw
//! sums stay in the span file.

use mrts_arch::Resources;
use mrts_ise::{BlockId, IseId, KernelId};
use mrts_sim::{
    BlockPlan, EventSink, ExecContext, ExecPlan, FaultEvent, RuntimePolicy, SelectionContext,
    SimEvent,
};
use mrts_workload::KernelActivity;
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Spans kept verbatim for the span file; later spans are only folded into
/// the per-name totals.
pub const RAW_CAP: usize = 200_000;

/// Index of an interned span name.
pub type NameId = usize;

const NO_PARENT: u32 = u32::MAX;

#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` is part of the x86-64 base instruction set; it only
    // reads the time-stamp counter and has no memory effects.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds per tick, measured against `Instant` over 20 ms.
fn ns_per_tick() -> f64 {
    let (t0, k0) = (Instant::now(), ticks());
    while t0.elapsed() < Duration::from_millis(20) {}
    let (dt, dk) = (t0.elapsed(), ticks() - k0);
    dt.as_nanos() as f64 / dk.max(1) as f64
}

/// Per-name totals over every closed span, in ticks.
#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    count: u64,
    total: u64,
    /// Duration minus the time covered by child spans.
    self_: u64,
    /// Direct child spans closed under these spans.
    children: u64,
}

#[derive(Debug)]
struct Frame {
    id: u32,
    name: NameId,
    start: u64,
    child: u64,
    children: u64,
}

#[derive(Debug)]
struct RawSpan {
    id: u32,
    parent: u32,
    name: NameId,
    start: u64,
    end: u64,
}

#[derive(Debug, Default)]
struct State {
    names: Vec<String>,
    agg: Vec<Agg>,
    stack: Vec<Frame>,
    raw: Vec<RawSpan>,
    raw_cap: usize,
    next_id: u32,
    root: u64,
    closed: u64,
    roots: u64,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    state: RefCell<State>,
    ns_per_tick: f64,
    /// Tracing cost inside one span's own interval, in ns.
    inside_ns: f64,
    /// Tracing cost one span adds to its parent's interval, in ns.
    full_ns: f64,
}

impl Tracer {
    /// A tracer with its clock and span cost measured.
    pub fn new() -> Rc<Self> {
        let ns_per_tick = ns_per_tick();
        let (inside_ns, full_ns) = Tracer::bare(ns_per_tick, 0).calibrate();
        Rc::new(Tracer {
            inside_ns,
            full_ns,
            ..Tracer::bare(ns_per_tick, RAW_CAP)
        })
    }

    fn bare(ns_per_tick: f64, raw_cap: usize) -> Self {
        Tracer {
            state: RefCell::new(State {
                raw_cap,
                ..State::default()
            }),
            ns_per_tick,
            inside_ns: 0.0,
            full_ns: 0.0,
        }
    }

    /// Times empty spans nested in one outer span and returns (`inside`,
    /// `full`) in ns. The tracer keeps no spans verbatim, like one past
    /// [`RAW_CAP`]; the smallest of several rounds is the cost without
    /// interference.
    fn calibrate(self) -> (f64, f64) {
        const ROUNDS: usize = 7;
        const N: u32 = 20_000;
        let outer = self.name("outer");
        let inner = self.name("inner");
        let (mut inside, mut full) = (f64::MAX, f64::MAX);
        for _ in 0..ROUNDS {
            let (i0, o0) = (self.total_ns("inner"), self.total_ns("outer"));
            self.enter(outer);
            for _ in 0..N {
                self.enter(inner);
                self.exit();
            }
            self.exit();
            let n = f64::from(N);
            inside = inside.min((self.total_ns("inner") - i0) / n);
            full = full.min((self.total_ns("outer") - o0) / n);
        }
        (inside, full)
    }

    /// (`inside`, `full`) span cost in ns.
    pub fn span_cost(&self) -> (f64, f64) {
        (self.inside_ns, self.full_ns)
    }

    /// Interns `name`, returning the id the hot path uses.
    pub fn name(&self, name: &str) -> NameId {
        let mut s = self.state.borrow_mut();
        if let Some(i) = s.names.iter().position(|n| n == name) {
            return i;
        }
        s.names.push(name.to_owned());
        s.agg.push(Agg::default());
        s.names.len() - 1
    }

    /// Opens a span; it nests under the innermost open span.
    pub fn enter(&self, name: NameId) {
        let mut s = self.state.borrow_mut();
        let id = s.next_id;
        s.next_id = s.next_id.wrapping_add(1);
        s.stack.push(Frame {
            id,
            name,
            start: ticks(),
            child: 0,
            children: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&self) {
        let end = ticks();
        let mut s = self.state.borrow_mut();
        let f = s.stack.pop().expect("exit without a matching enter");
        let dur = end.saturating_sub(f.start);
        let a = &mut s.agg[f.name];
        a.count += 1;
        a.total += dur;
        a.self_ += dur.saturating_sub(f.child);
        a.children += f.children;
        s.closed += 1;
        let parent = match s.stack.last_mut() {
            Some(p) => {
                p.child += dur;
                p.children += 1;
                p.id
            }
            None => {
                s.root += dur;
                s.roots += 1;
                NO_PARENT
            }
        };
        if s.raw.len() < s.raw_cap {
            s.raw.push(RawSpan {
                id: f.id,
                parent,
                name: f.name,
                start: f.start,
                end,
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.name(name);
        self.enter(id);
        let out = f();
        self.exit();
        out
    }

    fn agg(&self, name: &str) -> Agg {
        let s = self.state.borrow();
        s.names
            .iter()
            .position(|n| *n == name)
            .map_or(Agg::default(), |i| s.agg[i])
    }

    /// Spans named `name` closed so far.
    pub fn count(&self, name: &str) -> u64 {
        self.agg(name).count
    }

    /// Raw summed duration of the spans named `name`, in ns.
    fn total_ns(&self, name: &str) -> f64 {
        self.agg(name).total as f64 * self.ns_per_tick
    }

    /// Self time of the spans named `name` in ns, less the tracing cost
    /// inside them and that of their children.
    pub fn self_comp_ns(&self, name: &str) -> f64 {
        let a = self.agg(name);
        (a.self_ as f64 * self.ns_per_tick
            - a.count as f64 * self.inside_ns
            - a.children as f64 * self.full_ns)
            .max(0.0)
    }

    /// Duration of the spans named `name` in ns less the tracing cost, for
    /// spans whose children have no children of their own.
    pub fn total_comp_ns(&self, name: &str) -> f64 {
        let a = self.agg(name);
        (self.total_ns(name) - a.count as f64 * self.inside_ns - a.children as f64 * self.full_ns)
            .max(0.0)
    }

    /// Mean compensated duration of one leaf span named `name`, in ns.
    pub fn per_call_ns(&self, name: &str) -> f64 {
        self.total_comp_ns(name) / self.count(name).max(1) as f64
    }

    /// Summed compensated self time of every span whose name starts with
    /// `prefix`, in ns.
    pub fn self_comp_with_prefix(&self, prefix: &str) -> f64 {
        let names: Vec<String> = self
            .state
            .borrow()
            .names
            .iter()
            .filter(|n| n.starts_with(prefix))
            .cloned()
            .collect();
        names.iter().map(|n| self.self_comp_ns(n)).sum()
    }

    /// Summed duration of all root spans less the tracing cost: the
    /// compensated self time of every span closed so far, in ns. Take
    /// differences to cover one stretch of work.
    pub fn covered_comp_ns(&self) -> f64 {
        let s = self.state.borrow();
        s.root as f64 * self.ns_per_tick
            - s.roots as f64 * self.inside_ns
            - (s.closed - s.roots) as f64 * self.full_ns
    }

    /// Writes the per-name totals (raw, in ns) and the verbatim spans
    /// (`id parent name start_ns end_ns`) as tab-separated text.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let s = self.state.borrow();
        let ns = |t: u64| (t as f64 * self.ns_per_tick) as u64;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# span cost: {:.1} ns inside, {:.1} ns in all",
            self.inside_ns, self.full_ns
        )?;
        writeln!(out, "# totals: name\tcount\ttotal_ns\tself_ns\tchildren")?;
        for (n, a) in s.names.iter().zip(&s.agg) {
            writeln!(
                out,
                "total\t{n}\t{}\t{}\t{}\t{}",
                a.count,
                ns(a.total),
                ns(a.self_),
                a.children
            )?;
        }
        writeln!(
            out,
            "# spans: id\tparent\tname\tstart_ns\tend_ns ({} of {} kept)",
            s.raw.len(),
            s.closed
        )?;
        let t0 = s.raw.first().map_or(0, |r| r.start);
        for r in &s.raw {
            let parent = if r.parent == NO_PARENT {
                "-".to_owned()
            } else {
                r.parent.to_string()
            };
            writeln!(
                out,
                "span\t{}\t{parent}\t{}\t{}\t{}",
                r.id,
                s.names[r.name],
                ns(r.start.saturating_sub(t0)),
                ns(r.end.saturating_sub(t0))
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside span `name` when tracing.
pub fn maybe_span<T>(t: Option<&Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// The span-name prefix holding a contender's policy time: mRTS is the
/// `core` layer, the other contenders live in `baselines`.
pub fn policy_prefix(contender: &str) -> String {
    match contender {
        "mrts" => "core.".to_owned(),
        other => format!("baselines.{other}."),
    }
}

/// The engine span around one contender's `run_trace` (its self time is
/// the engine's share).
pub fn run_trace_span(contender: &str) -> String {
    format!("sim.run_trace.{contender}")
}

/// The span names one policy's calls are recorded under: construction,
/// the three hooks the paper's run-time system has, and everything else
/// (fault, slice and plan-recycling callbacks).
#[derive(Debug, Clone, Copy)]
pub struct PolicySpans {
    pub new: NameId,
    plan_block: NameId,
    plan_execution: NameId,
    observe: NameId,
    other: NameId,
}

impl PolicySpans {
    /// Interns `<prefix>{new,plan_block,plan_execution,observe,other}`.
    pub fn new(tracer: &Tracer, contender: &str) -> Self {
        let prefix = policy_prefix(contender);
        let name = |suffix: &str| tracer.name(&format!("{prefix}{suffix}"));
        PolicySpans {
            new: name("new"),
            plan_block: name("plan_block"),
            plan_execution: name("plan_execution"),
            observe: name("observe"),
            other: name("other"),
        }
    }
}

/// Forwards every [`RuntimePolicy`] call to `inner` inside a span, so the
/// policy's self time is separated from the engine's.
pub struct TracedPolicy<'a> {
    inner: &'a mut dyn RuntimePolicy,
    tracer: Rc<Tracer>,
    spans: PolicySpans,
}

impl<'a> TracedPolicy<'a> {
    /// Wraps `inner`, recording under `spans`.
    pub fn new(inner: &'a mut dyn RuntimePolicy, tracer: Rc<Tracer>, spans: PolicySpans) -> Self {
        TracedPolicy {
            inner,
            tracer,
            spans,
        }
    }

    fn timed<T>(&mut self, name: NameId, f: impl FnOnce(&mut dyn RuntimePolicy) -> T) -> T {
        self.tracer.enter(name);
        let out = f(&mut *self.inner);
        self.tracer.exit();
        out
    }
}

impl RuntimePolicy for TracedPolicy<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn plan_block(&mut self, ctx: &SelectionContext<'_>) -> BlockPlan {
        self.timed(self.spans.plan_block, |p| p.plan_block(ctx))
    }

    fn plan_execution(
        &mut self,
        kernel: KernelId,
        selected: Option<IseId>,
        ctx: &ExecContext<'_>,
    ) -> ExecPlan {
        self.timed(self.spans.plan_execution, |p| {
            p.plan_execution(kernel, selected, ctx)
        })
    }

    fn observe_block_end(&mut self, block: BlockId, observed: &[KernelActivity]) {
        self.timed(self.spans.observe, |p| p.observe_block_end(block, observed));
    }

    fn notify_fault(&mut self, event: &FaultEvent) {
        self.timed(self.spans.other, |p| p.notify_fault(event));
    }

    fn set_resource_slice(&mut self, slice: Option<Resources>) {
        self.timed(self.spans.other, |p| p.set_resource_slice(slice));
    }

    fn recycle_plan(&mut self, plan: BlockPlan) {
        self.timed(self.spans.other, |p| p.recycle_plan(plan));
    }
}

/// Forwards every event to `inner` inside a `sim.sink` span.
pub struct TracedSink<S> {
    inner: S,
    tracer: Rc<Tracer>,
    name: NameId,
}

impl<S: EventSink> TracedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: Rc<Tracer>) -> Self {
        let name = tracer.name("sim.sink");
        TracedSink {
            inner,
            tracer,
            name,
        }
    }
}

impl<S: EventSink> EventSink for TracedSink<S> {
    fn emit(&mut self, tenant: u32, event: SimEvent) {
        self.tracer.enter(self.name);
        self.inner.emit(tenant, event);
        self.tracer.exit();
    }
}
