//! Workload-substrate cost: synthetic-video generation, trace building and
//! catalogue construction (the "compile-time tool chain").

use criterion::{criterion_group, criterion_main, Criterion};
use mrts_arch::ArchParams;
use mrts_workload::{TraceBuilder, VideoModel, WorkloadModel};

fn bench_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload");
    group.bench_function("video_16_frames_cif", |b| {
        b.iter(|| VideoModel::paper_default(1).frames())
    });
    let encoder = mrts_ingest::model("h264").expect("builtin h264 lowers");
    group.bench_function("trace_build", |b| {
        b.iter(|| {
            TraceBuilder::new(&encoder)
                .video(VideoModel::paper_default(1))
                .build()
        })
    });
    group.bench_function("catalog_build", |b| {
        b.iter(|| {
            encoder
                .application()
                .build_catalog(ArchParams::default(), None)
                .expect("encoder kernels are mappable")
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_workload
}
criterion_main!(benches);
