//! Shape properties of the builtin H.264, FFT and cipher manifests: the
//! structure the paper evaluates on and the input-dependent behaviour its
//! Fig. 2 shows. `app_goldens` pins these apps byte for byte; this file
//! says *why* those bytes are the right ones, so a deliberate manifest
//! edit that regenerates the goldens still has to keep the paper's shape.

use mrts::arch::ArchParams;
use mrts::ingest::ManifestModel;
use mrts::ise::{Grain, IseCatalog, KernelId};
use mrts::workload::video::FrameStats;
use mrts::workload::{MergedWorkload, VideoModel, WorkloadModel};

fn model(name: &str) -> ManifestModel {
    mrts::ingest::model(name).expect("builtin app lowers")
}

fn catalog(model: &ManifestModel) -> IseCatalog {
    model
        .application()
        .build_catalog(ArchParams::default(), None)
        .expect("catalog builds")
}

/// The catalogue id of the H.264 kernel called `name`.
fn kernel(model: &ManifestModel, name: &str) -> usize {
    model
        .application()
        .kernel_specs()
        .iter()
        .position(|k| k.name() == name)
        .unwrap_or_else(|| panic!("h264 has no kernel '{name}'"))
}

fn executions(model: &ManifestModel, frame: &FrameStats, kernel: usize) -> u64 {
    model.kernel_executions(frame)[kernel]
}

#[test]
fn h264_structure_matches_paper() {
    // "The complete encoder contains in fact three functional blocks where
    // the biggest one contains more than six kernels."
    let app = model("h264");
    let app = app.application();
    assert_eq!(app.blocks().len(), 3, "three functional blocks");
    let biggest = app.blocks().iter().map(|b| b.kernels.len()).max().unwrap();
    assert!(biggest > 6, "biggest block has more than six kernels");
    assert_eq!(app.kernel_count(), 11);
}

#[test]
fn deblock_offers_fg_cg_and_mg_variants() {
    // The paper's ISE-1 / ISE-2 / ISE-3 of the Section 2 case study.
    let h264 = model("h264");
    let catalog = catalog(&h264);
    assert_eq!(catalog.kernels().len(), 11);
    let deblock = KernelId(kernel(&h264, "deblock") as u16);
    let grains: Vec<Grain> = catalog
        .ises_of(deblock)
        .iter()
        .map(|i| catalog.ise(*i).unwrap().grain())
        .collect();
    assert!(grains.contains(&Grain::FineGrained));
    assert!(grains.contains(&Grain::CoarseGrained));
    assert!(grains.contains(&Grain::MultiGrained));
}

#[test]
fn deblock_counts_track_content() {
    let h264 = model("h264");
    let deblock = kernel(&h264, "deblock");
    let frames = VideoModel::paper_default(1).frames();
    // Fast-pan scene (frames 4..8) filters more edges than the static
    // scene (frames 0..4); compare non-intra frames.
    let calm = executions(&h264, &frames[2], deblock);
    let busy = executions(&h264, &frames[6], deblock);
    assert!(busy > calm, "busy {busy} should exceed calm {calm}");
    // Counts must land in the Fig. 2 order of magnitude (CIF).
    for f in &frames {
        let e = executions(&h264, f, deblock);
        assert!((400..=8_000).contains(&e), "deblock count {e} out of range");
    }
}

#[test]
fn deblock_counts_fluctuate_frame_to_frame() {
    let h264 = model("h264");
    let deblock = kernel(&h264, "deblock");
    let counts: Vec<u64> = VideoModel::paper_default(1)
        .frames()
        .iter()
        .map(|f| executions(&h264, f, deblock))
        .collect();
    let distinct: std::collections::BTreeSet<u64> = counts.iter().copied().collect();
    assert!(
        distinct.len() > 8,
        "per-frame deblock counts should fluctuate: {counts:?}"
    );
}

#[test]
fn scene_change_boosts_intra_work() {
    let h264 = model("h264");
    let frames = VideoModel::paper_default(1).frames();
    let (intra, inter) = (&frames[4], &frames[5]); // frame 4 is a scene change
    let ipred = kernel(&h264, "ipred");
    let sad = kernel(&h264, "sad16");
    assert!(
        executions(&h264, intra, ipred) > executions(&h264, inter, ipred),
        "intra frame does more prediction"
    );
    assert!(
        executions(&h264, intra, sad) < executions(&h264, inter, sad),
        "intra frame does less motion search"
    );
}

#[test]
fn gaps_are_positive_for_all_kernels() {
    for name in ["h264", "fft", "cipher"] {
        let m = model(name);
        for k in 0..m.application().kernel_count() {
            assert!(
                m.kernel_gap(KernelId(k as u16)).get() > 0,
                "{name} kernel {k}"
            );
        }
    }
}

/// For every kernel, the best single-copy variant (highest total saving)
/// must not be of the `excluded` grain.
fn assert_best_variants_avoid(name: &str, excluded: Grain) {
    let catalog = catalog(&model(name));
    for k in catalog.kernels() {
        let best = catalog
            .ises_of(k.id())
            .iter()
            .map(|i| catalog.ise(*i).unwrap())
            .max_by_key(|ise| ise.risc_latency() - ise.full_latency())
            .unwrap();
        assert_ne!(best.grain(), excluded, "{name} kernel {}", k.name());
    }
}

#[test]
fn fft_catalog_is_cg_leaning() {
    // Word arithmetic belongs on CG.
    assert_best_variants_avoid("fft", Grain::FineGrained);
}

#[test]
fn cipher_catalog_is_fg_leaning() {
    // Bit-level substitution and permutation belong on FG.
    assert_best_variants_avoid("cipher", Grain::CoarseGrained);
}

#[test]
fn workload_counts_positive() {
    let frames = VideoModel::paper_default(2).frames();
    for name in ["h264", "fft", "cipher"] {
        let m = model(name);
        for f in &frames {
            assert!(m.kernel_executions(f).iter().all(|&c| c > 0), "{name}");
        }
    }
}

#[test]
fn merged_applications_interleave_blocks_and_rebase_kernels() {
    let (enc, fft, cipher) = (model("h264"), model("fft"), model("cipher"));
    let merged = MergedWorkload::new("soc", vec![&enc, &fft, &cipher]);
    let app = merged.application();
    // 11 + 2 + 2 kernels; 3 + 1 + 1 blocks.
    assert_eq!(app.kernel_count(), 15);
    assert_eq!(app.blocks().len(), 5);
    // Round-robin: enc.b0, fft.b0, cipher.b0, enc.b1, enc.b2.
    let names: Vec<&str> = app.blocks().iter().map(|b| b.name.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "h264_encoder::motion_intra",
            "fft_pipeline::fft",
            "stream_cipher::encrypt",
            "h264_encoder::transform_encode",
            "h264_encoder::loop_filter",
        ]
    );
    // Block ids renumbered densely.
    for (i, b) in app.blocks().iter().enumerate() {
        assert_eq!(b.id, mrts::ise::BlockId(i as u16));
    }
    // The fft block's kernels were rebased past the encoder's 11.
    assert_eq!(app.blocks()[1].kernels, vec![KernelId(11), KernelId(12)]);
    // Execution counts concatenate component outputs.
    let frame = &VideoModel::paper_default(1).frames()[0];
    let counts = merged.kernel_executions(frame);
    assert_eq!(counts.len(), 15);
    assert_eq!(&counts[..11], &enc.kernel_executions(frame)[..]);
    assert_eq!(&counts[11..13], &fft.kernel_executions(frame)[..]);
    // Gaps dispatch to the owning component.
    assert_eq!(merged.kernel_gap(KernelId(11)), fft.kernel_gap(KernelId(0)));
    assert_eq!(
        merged.kernel_gap(KernelId(14)),
        cipher.kernel_gap(KernelId(1))
    );
    // And the merged catalogue builds.
    let catalog = app
        .build_catalog(ArchParams::default(), None)
        .expect("merged catalog builds");
    assert_eq!(catalog.kernels().len(), 15);
}
