//! `fleet_churn`: one `run_fleet` call per op over seeded Poisson fft+cipher
//! sessions on 2 shards of 4 CG + 3 PRC with the default dynamic arbiter.
//! The mean gap of 3 Mcycles offers 0.33 sessions/Mcycle, just past the
//! 0.30 knee of `fig_fleet_sweep`, so admission rejects and queues. The
//! multitask scheduler, arbiter, admission and the fleet driver do the
//! work; their per-step cost grows with the sessions seen, so the session
//! count sits in the superlinear regime.

use crate::spans::{maybe_span, Tracer};
use crate::{end_to_end, min, time_once, Opts, Report, Setups, SplitMix};
use mrts_arch::{ArchParams, Cycles, Resources};
use mrts_fleet::{
    poisson_arrivals, records_from_jsonl, records_to_jsonl, run_fleet, AppRegistry, FleetConfig,
    PoissonConfig, SessionRecord,
};
use mrts_multitask::{ArbiterPolicy, MultitaskConfig, TenantRequest};
use mrts_sim::FleetStats;
use std::time::Instant;

/// Offered sessions per op.
pub const SESSIONS: usize = 3000;
const MEAN_GAP: u64 = 3_000_000;
const VARIANTS: usize = 4;
const MAX_BLOCKS: usize = 16;
/// Distinct arrival streams; one op is one `run_fleet` call on one stream.
const STREAMS: usize = 3;

struct Fleet {
    registry: AppRegistry,
    /// One arrival list per stream.
    streams: Vec<Vec<SessionRecord>>,
}

fn arrivals(seed: u64, sessions: usize) -> Vec<SessionRecord> {
    let mix = ["fft", "cipher"]
        .iter()
        .map(|&app| TenantRequest {
            app: app.to_owned(),
            weight: 1,
            slo: None,
        })
        .collect();
    poisson_arrivals(&PoissonConfig {
        seed,
        sessions,
        mean_gap: MEAN_GAP,
        mix,
        variants: VARIANTS as u64,
    })
}

/// The `fig_fleet_sweep` dynamic contender.
fn config() -> FleetConfig {
    FleetConfig {
        multitask: MultitaskConfig {
            arbiter: ArbiterPolicy::Dynamic,
            repartition_min_demand: Cycles::new(2_000_000),
            ..MultitaskConfig::default()
        },
        budget: Resources::new(4, 3),
        ..FleetConfig::default()
    }
}

/// The streams' arrival seeds, drawn from the benchmark seed.
fn stream_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix::new(seed);
    (0..STREAMS).map(|_| rng.next_u64()).collect()
}

/// Generates each stream's arrivals, round-trips them through the JSONL
/// format as a replayed arrival file would be, and builds the registry.
fn setup(r: &mut Report, seed: u64, t: Option<&Tracer>) -> Fleet {
    let mut streams = Vec::new();
    for s in stream_seeds(seed) {
        let generated = maybe_span(t, "fleet.arrivals", || arrivals(s, SESSIONS));
        let jsonl = maybe_span(t, "fleet.jsonl_encode", || records_to_jsonl(&generated))
            .expect("generated arrivals encode");
        let records = maybe_span(t, "fleet.jsonl_decode", || records_from_jsonl(&jsonl))
            .expect("encoded arrivals decode");
        r.check(records == generated, || {
            "arrivals differ after a JSONL round trip".into()
        });
        streams.push(records);
    }
    let registry = maybe_span(t, "fleet.registry", || {
        AppRegistry::new(
            &ArchParams::default(),
            &["fft", "cipher"],
            VARIANTS,
            seed,
            MAX_BLOCKS,
        )
    })
    .expect("fft and cipher are builtin apps");
    Fleet { registry, streams }
}

/// One op; returns the stats and the host seconds it took.
fn call(
    f: &Fleet,
    records: &[SessionRecord],
    t: Option<&Tracer>,
) -> Result<(FleetStats, f64), String> {
    let t0 = Instant::now();
    let out = maybe_span(t, "fleet.run_fleet", || {
        run_fleet(&ArchParams::default(), &f.registry, records, &config())
    })
    .map_err(|e| e.to_string())?;
    Ok((out.stats, t0.elapsed().as_secs_f64()))
}

/// Checks one op's stats: the session count balances and the stats
/// repeat the stream's first op exactly.
fn check(
    r: &mut Report,
    reference: &mut Option<FleetStats>,
    stats: FleetStats,
    offered: usize,
    what: &str,
) {
    let balanced =
        stats.offered == offered as u64 && stats.accepted + stats.rejected == stats.offered;
    match reference {
        None => {
            r.check(balanced, || {
                format!(
                    "{what}: offered {} != accepted {} + rejected {}",
                    stats.offered, stats.accepted, stats.rejected
                )
            });
            *reference = Some(stats);
        }
        Some(first) => r.check(balanced && stats == *first, || {
            format!("{what}: fleet stats differ from the stream's first op")
        }),
    }
}

fn counters(r: &mut Report, f: &Fleet, stats: &[Option<FleetStats>]) {
    let stats: Vec<&FleetStats> = stats.iter().flatten().collect();
    for s in &stats {
        r.digest(
            serde_json::to_string(s)
                .expect("stats serialize")
                .as_bytes(),
        );
    }
    let blocks: usize = (0..2)
        .flat_map(|a| (0..VARIANTS).map(move |v| (a, v)))
        .map(|(a, v)| f.registry.trace(a, v).len())
        .sum();
    r.counter("workload.blocks", blocks as u64);
    r.counter(
        "sim.cycles_total",
        stats.iter().map(|s| s.makespan.get()).sum(),
    );
    r.counter("sim.events", 0);
    r.counter("fleet.accepted", stats.iter().map(|s| s.accepted).sum());
    r.counter("fleet.rejected", stats.iter().map(|s| s.rejected).sum());
}

/// One set-up, timed; the body of a `--setup-probe` process. A failed
/// arrival round trip makes the probe fail.
pub fn setup_seconds(o: &Opts) -> f64 {
    let mut r = Report::default();
    let seconds = time_once(|| setup(&mut r, o.seed, None));
    assert_eq!(r.failed, 0, "the set-up failed its checks");
    seconds
}

pub fn run(o: &Opts) -> Report {
    let mut r = Report::default();
    let setup_tracer = o.trace.then(Tracer::new);
    let st = setup_tracer.as_deref();
    let f = setup(&mut r, o.seed, st);
    let mut setups = Setups::start();
    let tracer = o.trace.then(Tracer::new);
    let mut reference: Vec<Option<FleetStats>> = vec![None; STREAMS];
    let mut best = vec![f64::INFINITY; STREAMS];
    let (mut bare, mut wrapped, mut covered) = (Vec::new(), Vec::new(), Vec::new());
    // Scaling probe (traced run): the first half of stream 0, same seed and
    // rate, interleaved with the full calls so both see the same machine.
    let half = &f.streams[0][..SESSIONS / 2];
    let (mut probe, mut probe_ref) = (Vec::new(), None);
    let mut rss_mb = 0.0;
    let t0 = Instant::now();
    while bare.is_empty() || t0.elapsed() < o.budget() || setups.pending(o) {
        for (k, records) in f.streams.iter().enumerate() {
            match call(&f, records, None) {
                Ok((stats, dt)) => {
                    best[k] = best[k].min(dt);
                    if k == 0 {
                        bare.push(dt);
                    }
                    check(&mut r, &mut reference[k], stats, SESSIONS, "repeat");
                }
                Err(e) => r.error(format!("run_fleet: {e}")),
            }
            setups.between_passes(o, &mut r, |r| setup(r, o.seed, st));
        }
        // Set-up and one pass: what a single run of the workload holds.
        // Later passes only add allocator drift.
        if bare.len() == 1 {
            rss_mb = crate::own_peak_rss_mb();
        }
        if let Some(t) = &tracer {
            let before = t.covered_comp_ns();
            match call(&f, &f.streams[0], Some(t)) {
                Ok((stats, dt)) => {
                    wrapped.push(dt);
                    covered.push((t.covered_comp_ns() - before) * 1e-9);
                    check(&mut r, &mut reference[0], stats, SESSIONS, "traced vs bare");
                }
                Err(e) => r.error(format!("run_fleet: {e}")),
            }
            match call(&f, half, None) {
                Ok((stats, dt)) => {
                    probe.push(dt);
                    check(&mut r, &mut probe_ref, stats, SESSIONS / 2, "N/2 probe");
                }
                Err(e) => r.error(format!("run_fleet at N/2: {e}")),
            }
        }
    }
    counters(&mut r, &f, &reference);
    let Some(tracer) = tracer else {
        r.note(format!(
            "fleet_churn: {} rounds over {STREAMS} streams of {SESSIONS} sessions; op percentiles over the per-stream best times {:?} s",
            bare.len(),
            best
        ));
        end_to_end(&mut r, &setups, &best, SESSIONS as f64, rss_mb);
        return r;
    };

    let per_session_us = min(&bare) / SESSIONS as f64 * 1e6;
    let half_us = min(&probe) / (SESSIONS / 2) as f64 * 1e6;
    crate::setup_metrics(&mut r, st.expect("traced"));
    r.not_attributed(
        &[
            "ingest.lower_us",
            "ise.build_catalog_ms",
            "workload.trace_build_ms",
        ],
        "AppRegistry::new lowers, maps and builds traces inside one call",
    );
    r.not_attributed(
        &[
            "core.plan_block_us",
            "core.plan_block_calls",
            "core.plan_execution_ns",
            "core.plan_execution_calls",
            "core.observe_us",
            "core.self_share",
            "sim.engine_us_per_block.mrts",
            "multitask.run_ms",
        ],
        "run_fleet builds its policies, simulators and multitask runners inside one call",
    );
    r.metric("fleet.run_us_per_session", per_session_us, "us");
    r.metric("fleet.scaling_ratio", per_session_us / half_us, "ratio");
    // The timed op is one `fleet.run_fleet` span, so the residual here only
    // compares bare with traced calls; it shows nothing about a breakdown.
    crate::trace_metrics(
        &mut r,
        &tracer,
        min(&bare),
        min(&covered),
        (min(&bare), min(&wrapped)),
        crate::grid::RESIDUAL_BOUND_PCT,
    );
    r.note(format!(
        "fleet_churn traced: {} bare + {} traced calls on stream 0 at N={SESSIONS}, {} at N/2; {half_us:.2} us/session at N/2",
        bare.len(),
        wrapped.len(),
        probe.len()
    ));
    crate::write_spans(o, &[st.expect("traced"), &tracer]);
    r
}
