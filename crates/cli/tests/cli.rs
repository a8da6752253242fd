//! End-to-end tests of the `mrts-cli` binary: every subcommand is invoked
//! as a real process and its output / exit status checked.

use std::path::Path;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mrts-cli"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_lists_all_commands() {
    for args in [vec![], vec!["help"]] {
        let out = run(&args);
        assert!(out.status.success());
        let text = stdout(&out);
        for cmd in ["catalog", "simulate", "sweep", "trace", "pif"] {
            assert!(text.contains(cmd), "help must mention '{cmd}'");
        }
    }
}

#[test]
fn catalog_reports_the_encoder_structure() {
    let out = run(&["catalog"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("11 kernels"));
    assert!(text.contains("deblock"));
    assert!(text.contains("one-ISE-per-kernel combinations"));
}

#[test]
fn simulate_prints_speedup_for_each_policy() {
    for policy in ["mrts", "rispp", "offline"] {
        let out = run(&[
            "simulate", "--app", "toy", "--cg", "1", "--prc", "1", "--policy", policy,
        ]);
        assert!(out.status.success(), "{policy}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("speedup"), "{policy}: {text}");
        assert!(text.contains("Mcycles"));
    }
}

#[test]
fn sweep_csv_has_twenty_rows() {
    let out = run(&["sweep", "--app", "toy", "--format", "csv"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("cg,prc,mcycles,speedup_vs_risc"));
    assert_eq!(lines.count(), 20);
}

#[test]
fn trace_round_trips_to_a_file() {
    let dir = std::env::temp_dir().join("mrts_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.json");
    let out = run(&[
        "trace",
        "--app",
        "fft",
        "--seed",
        "5",
        "--out",
        path.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = std::fs::read_to_string(&path).expect("file written");
    let trace: mrts_workload::Trace = serde_json::from_str(&json).expect("valid JSON trace");
    assert_eq!(trace.len(), 16);
    let _ = std::fs::remove_file(path);
}

#[test]
fn pif_prints_the_case_study_table() {
    let out = run(&["pif", "--kernel", "deblock", "--max-exec", "2000"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("kernel 'deblock'"));
    assert!(text.contains("FG"));
    assert!(text.contains("CG"));
    assert!(text.contains("MG"));
}

/// Runs `args` with `--events-out PATH` appended and returns the log.
fn event_log(args: &[&str], path: &Path) -> String {
    let mut args = args.to_vec();
    args.extend(["--events-out", path.to_str().expect("utf8 path")]);
    let out = run(&args);
    assert!(out.status.success(), "{args:?}: {}", stderr(&out));
    let log = std::fs::read_to_string(path).expect("event log written");
    let _ = std::fs::remove_file(path);
    assert!(!log.is_empty(), "{args:?}: empty event log");
    log
}

/// Every event-spine command replays byte-identically in a second
/// process: one app, two tenants, an EDF/SLO mix under overload, and a
/// fleet whose generated arrival list is replayed from JSONL.
#[test]
fn event_spines_are_byte_identical_across_processes() {
    let dir = std::env::temp_dir().join(format!("mrts_cli_spines_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (a, b) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
    let twice = |args: &[&str]| -> String {
        let log = event_log(args, &a);
        assert_eq!(log, event_log(args, &b), "{args:?}: event logs differ");
        log
    };

    let solo = twice(&["simulate", "--app", "fft"]);
    for line in solo.lines() {
        assert!(
            line.starts_with(r#"{"tenant":0,"event":{"#) && line.ends_with("}}"),
            "malformed JSONL line: {line}"
        );
    }
    let duo = twice(&["multitask", "--apps", "fft,cipher"]);
    assert!(duo.contains("TenantDispatch"), "runner events must appear");
    let slo = twice(&[
        "multitask",
        "--apps",
        "h264,fft",
        "--cg",
        "1",
        "--prc",
        "1",
        "--slo",
        "hard:2500000,-",
        "--sched",
        "edf",
        "--degrade",
        "on",
    ]);
    assert!(
        slo.contains("DeadlineMiss"),
        "the SLO mix must miss deadlines"
    );

    let arrivals = dir.join("arrivals.jsonl");
    let arrivals = arrivals.to_str().expect("utf8 path");
    let generated = event_log(
        &["fleet", "--sessions", "400", "--arrivals-out", arrivals],
        &a,
    );
    let replayed = event_log(
        &["fleet", "--sessions", "400", "--arrivals-in", arrivals],
        &b,
    );
    assert_eq!(generated, replayed, "replayed fleet spine differs");
    assert!(generated.contains("SessionAdmitted"));
    assert!(generated.contains("SessionDeparted"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn errors_exit_nonzero_with_message() {
    // Hostile input files: an arrival at the end of time (whose dense
    // utilization windows would need ~147 TB), one naming a trace variant
    // its app does not have, and JSON nested far deeper than the parser's
    // recursion limit.
    let dir = std::env::temp_dir().join("mrts_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let late = dir.join("late_arrival.jsonl");
    std::fs::write(
        &late,
        "{\"at\":18446744073709551615,\"app\":\"fft\",\"weight\":1,\"slo\":\"-\",\"variant\":0}\n",
    )
    .unwrap();
    let far = dir.join("far_variant.jsonl");
    std::fs::write(
        &far,
        "{\"at\":0,\"app\":\"fft\",\"weight\":1,\"slo\":\"-\",\"variant\":18446744073709551615}\n",
    )
    .unwrap();
    let deep = dir.join("deep_nesting.json");
    std::fs::write(&deep, "[".repeat(200_000)).unwrap();
    let (late_s, far_s, deep_s) = (
        late.to_str().unwrap(),
        far.to_str().unwrap(),
        deep.to_str().unwrap(),
    );
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["simulate", "--policy", "bogus"], "unknown policy"),
        (vec!["simulate", "--app", "bogus"], "unknown app"),
        (vec!["frobnicate"], "unknown command"),
        (vec!["simulate", "--cg"], "missing its value"),
        (vec!["pif", "--kernel", "nope"], "unknown kernel"),
        (vec!["sweep", "--format", "xml"], "unknown format"),
        (vec!["catalog", "--typo", "1"], "unknown flag"),
        (vec!["simulate", "--prefetch", "on"], "unknown flag"),
        (vec!["simulate", "--threads", "4"], "unknown flag --threads"),
        (vec!["fleet", "--window", "1"], "window: 1 cycles"),
        (
            vec!["fleet", "--arrivals-in", late_s],
            "arrival 0: at 18446744073709551615 is past the arrival horizon",
        ),
        (
            vec!["fleet", "--arrivals-in", far_s],
            "arrival 0: variant: 18446744073709551615 is out of range; app 'fft' has 4 trace variants",
        ),
        (
            vec!["ingest", "--check", deep_s],
            "recursion limit exceeded",
        ),
        (
            vec!["fleet", "--arrivals-in", deep_s],
            "arrivals line 1: JSON parse error at byte 127: recursion limit exceeded",
        ),
    ];
    for (args, needle) in cases {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} should exit 1");
        assert!(
            stderr(&out).contains(needle),
            "{args:?}: stderr was {}",
            stderr(&out)
        );
    }
    let _ = std::fs::remove_file(late);
    let _ = std::fs::remove_file(far);
    let _ = std::fs::remove_file(deep);
}
