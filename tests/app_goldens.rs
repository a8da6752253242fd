//! Frozen oracles for the builtin H.264, FFT and cipher apps.
//!
//! `tests/goldens/apps/{h264,fft,cipher}.json` were generated from the
//! hand-built Rust constructors these apps used to have, before those were
//! deleted in favour of `manifests/*.json`. Each golden is one compact JSON
//! object holding
//!
//! * `application` — the serde encoding of the lowered `Application`
//!   (kernel specs, data-path graphs, block structure),
//! * `catalog` — the ISE catalogue built with `ArchParams::default()`,
//! * `traces` — the traces for `VideoModel::paper_default` seeds 1–4
//!   (per-frame execution counts, first delays and gaps of every kernel),
//! * `mrts` / `risc` — the mRTS and RISC-mode `RunStats` of the seed-1
//!   trace on 2 CG + 2 PRC.
//!
//! `mrts::ingest::model(name)` must reproduce every field byte for byte.
//! Regenerate deliberately with `UPDATE_GOLDENS=1 cargo test --test
//! app_goldens`, but any diff is a change to a builtin app.

use mrts::arch::{ArchParams, Machine, Resources};
use mrts::core::Mrts;
use mrts::sim::{RiscOnlyPolicy, RuntimePolicy, Simulator};
use mrts::workload::{TraceBuilder, VideoModel, WorkloadModel};

mod common;
use common::check_golden;

/// The golden JSON of one workload model (see the module docs).
fn golden_json(model: &dyn WorkloadModel) -> String {
    let app = model.application();
    let catalog = app
        .build_catalog(ArchParams::default(), None)
        .expect("kernels are mappable");
    let traces: Vec<_> = (1..=4)
        .map(|seed| {
            TraceBuilder::new(model)
                .video(VideoModel::paper_default(seed))
                .build()
        })
        .collect();
    let run = |policy: &mut dyn RuntimePolicy| {
        let machine =
            Machine::new(ArchParams::default(), Resources::new(2, 2)).expect("valid machine");
        Simulator::run(&catalog, machine, &traces[0], policy)
    };
    let mrts = run(&mut Mrts::new());
    let risc = run(&mut RiscOnlyPolicy::new());
    format!(
        "{{\"application\":{},\"catalog\":{},\"traces\":{},\"mrts\":{},\"risc\":{}}}",
        serde_json::to_string(app).expect("serialise"),
        serde_json::to_string(&catalog).expect("serialise"),
        serde_json::to_string(&traces).expect("serialise"),
        serde_json::to_string(&mrts).expect("serialise"),
        serde_json::to_string(&risc).expect("serialise"),
    )
}

fn check_app(name: &str) {
    let model = mrts::ingest::model(name).expect("builtin app lowers");
    check_golden("apps", name, &golden_json(&model));
}

#[test]
fn h264_reproduces_its_golden() {
    check_app("h264");
}

#[test]
fn fft_reproduces_its_golden() {
    check_app("fft");
}

#[test]
fn cipher_reproduces_its_golden() {
    check_app("cipher");
}
