//! # mrts-workload — applications and input-dependent execution traces
//!
//! The paper evaluates mRTS on a complete H.264 video encoder because it
//! *"is a complex application and exhibits various compute-intensive
//! kernels with both control- and data-flow dominant processing"*. This
//! crate provides the substrate such applications are built on:
//!
//! * [`video`] — a synthetic, seeded video model standing in for the real
//!   sequences (scene structure, per-macroblock features),
//! * [`app`] — the application/functional-block structure and the
//!   [`app::WorkloadModel`] trait,
//! * [`trace`] — block-activation traces with compile-time forecasts vs.
//!   input-dependent actual behaviour, and
//! * [`synthetic`] — step/ramp/burst patterns and the one-kernel
//!   [`synthetic::ToyApp`] for targeted tests.
//!
//! The applications themselves — the H.264 encoder of the evaluation, an
//! FFT pipeline, a stream cipher and more — are JSON manifests under
//! `manifests/`, lowered to [`WorkloadModel`]s by `mrts-ingest`.
//!
//! ## Example
//!
//! ```
//! use mrts_workload::synthetic::ToyApp;
//! use mrts_workload::trace::TraceBuilder;
//! use mrts_workload::video::VideoModel;
//!
//! let trace = TraceBuilder::new(&ToyApp::new())
//!     .video(VideoModel::paper_default(42))
//!     .build();
//! assert_eq!(trace.len(), 16); // 16 frames x 1 functional block
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod synthetic;
pub mod trace;
pub mod video;

pub use app::{Application, FunctionalBlock, MergeError, MergedWorkload, WorkloadModel};
pub use trace::{BlockActivation, KernelActivity, Trace, TraceBuilder};
pub use video::{Scene, VideoModel};
