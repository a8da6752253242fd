//! Helpers shared by the root integration tests: golden files and the
//! determinism harness.
//!
//! Every test binary that declares `mod common;` compiles this module and
//! uses only part of it, hence the crate-level `dead_code` allow.
#![allow(dead_code)]

use std::path::PathBuf;

/// Compares `json` against the committed golden `tests/goldens/{dir}/{name}.json`,
/// or rewrites the golden when `UPDATE_GOLDENS` is set.
pub fn check_golden(dir: &str, name: &str, json: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join(dir);
    let path = dir.join(format!("{name}.json"));
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(&dir).expect("create golden dir");
        std::fs::write(&path, json).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    if json != expected {
        let at = json
            .bytes()
            .zip(expected.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(json.len().min(expected.len()));
        let window = |s: &str| {
            s.get(at.saturating_sub(60)..(at + 60).min(s.len()))
                .unwrap_or("")
                .to_owned()
        };
        panic!(
            "output diverged from golden {} at byte {at}:\n  got      …{}…\n  expected …{}…",
            path.display(),
            window(json),
            window(&expected)
        );
    }
}

/// Runs `run` on `n` OS threads at once and asserts that every replica
/// produced the same bytes. `run` returns the serde JSON of its statistics
/// and its event-spine JSONL; replica 0's pair is returned.
///
/// The simulator is deterministic by construction (no clocks, no shared
/// mutable state, seeded randomness); this is the executable proof.
pub fn assert_replicas_identical<F>(n: usize, run: F) -> (String, String)
where
    F: Fn() -> (String, String) + Sync,
{
    let runs: Vec<(String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n).map(|_| scope.spawn(&run)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replica panicked"))
            .collect()
    });
    for (i, (stats, events)) in runs.iter().enumerate().skip(1) {
        assert!(*stats == runs[0].0, "replica {i}: statistics differ");
        assert!(*events == runs[0].1, "replica {i}: event log differs");
    }
    runs.into_iter().next().expect("at least one replica")
}
