//! Quickstart: build a machine, a kernel catalogue and a workload trace,
//! then let mRTS manage the reconfigurable fabric.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mrts::arch::{ArchParams, Machine, Resources};
use mrts::core::Mrts;
use mrts::sim::{RiscOnlyPolicy, Simulator};
use mrts::workload::{TraceBuilder, VideoModel, WorkloadModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The application: the builtin H.264-encoder manifest (three
    //    functional blocks, eleven kernels), lowered by the ingestion
    //    pipeline.
    let encoder = mrts::ingest::model("h264")?;

    // 2. The compile-time step: enumerate FG/CG/MG ISE variants for every
    //    kernel (the paper's "compile-time prepared ISEs").
    let catalog = encoder
        .application()
        .build_catalog(ArchParams::default(), None)?;
    println!(
        "catalogue: {} kernels, {} ISE variants, {} load units",
        catalog.kernels().len(),
        catalog.ises().len(),
        catalog.units().len()
    );

    // 3. The dynamic stimulus: a 16-frame synthetic video drives
    //    input-dependent kernel execution counts.
    let trace = TraceBuilder::new(&encoder)
        .video(VideoModel::paper_default(42))
        .build();
    println!("trace: {} functional-block activations", trace.len());

    // 4. A machine with 2 CG-EDPEs and 2 PRCs — one point of the paper's
    //    Fig. 8 sweep.
    let combo = Resources::new(2, 2);
    let machine = || Machine::new(ArchParams::default(), combo);

    // 5. Run once in plain RISC mode and once under mRTS.
    let risc = Simulator::run(&catalog, machine()?, &trace, &mut RiscOnlyPolicy::new());
    let mrts = Simulator::run(&catalog, machine()?, &trace, &mut Mrts::new());

    println!();
    println!(
        "RISC-mode execution time: {:8.2} Mcycles",
        risc.total_execution_time().as_mcycles()
    );
    println!(
        "mRTS execution time     : {:8.2} Mcycles",
        mrts.total_execution_time().as_mcycles()
    );
    println!("speedup                 : {:8.2}x", mrts.speedup_vs(&risc));
    println!();
    println!(
        "how mRTS executed the {} kernel invocations:",
        mrts.total_executions()
    );
    for (class, count) in mrts.class_histogram() {
        println!("  {:<14} {count}", class.to_string());
    }
    Ok(())
}
