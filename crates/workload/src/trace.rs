//! Execution traces: the dynamic stimulus the simulator replays.
//!
//! A [`Trace`] is the sequence of functional-block activations of one
//! application run. Each activation carries
//!
//! * the **forecast** — the compile-time [`TriggerBlock`] whose numbers come
//!   from offline profiling (whole-run averages; the paper: *"They are
//!   initially obtained from an offline profiling"*), identical for every
//!   activation of the same block, and
//! * the **actual** per-kernel behaviour of this activation — which differs
//!   from the forecast because of input-data variation, the very effect
//!   mRTS's Monitoring & Prediction Unit exists to track.

use crate::app::WorkloadModel;
use crate::video::VideoModel;
use mrts_arch::Cycles;
use mrts_ise::{BlockId, KernelId, TriggerBlock, TriggerInstruction};
use serde::{Deserialize, Serialize};

/// Actual dynamic behaviour of one kernel within one block activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelActivity {
    /// The kernel.
    pub kernel: KernelId,
    /// Actual number of executions in this activation.
    pub executions: u64,
    /// Actual delay from the trigger instruction to the first execution.
    pub first_delay: Cycles,
    /// Actual average gap between consecutive executions.
    pub gap: Cycles,
}

/// One activation of a functional block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockActivation {
    /// Which block.
    pub block: BlockId,
    /// The input frame (or iteration) index that produced this activation.
    pub frame: u32,
    /// The compile-time forecast announced by the trigger instructions.
    pub forecast: TriggerBlock,
    /// The actual per-kernel behaviour.
    pub actual: Vec<KernelActivity>,
}

impl BlockActivation {
    /// The actual activity of a given kernel, if it runs in this block.
    #[must_use]
    pub fn activity_of(&self, kernel: KernelId) -> Option<&KernelActivity> {
        self.actual.iter().find(|a| a.kernel == kernel)
    }
}

/// A full application run: block activations in execution order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    name: String,
    activations: Vec<BlockActivation>,
}

impl Trace {
    /// Creates a trace from pre-built activations.
    #[must_use]
    pub fn new(name: impl Into<String>, activations: Vec<BlockActivation>) -> Self {
        Trace {
            name: name.into(),
            activations,
        }
    }

    /// The trace's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The activations in execution order.
    #[must_use]
    pub fn activations(&self) -> &[BlockActivation] {
        &self.activations
    }

    /// Number of activations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.activations.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.activations.is_empty()
    }

    /// Total actual executions of one kernel across the whole trace.
    #[must_use]
    pub fn total_executions(&self, kernel: KernelId) -> u64 {
        self.activations
            .iter()
            .flat_map(|a| a.activity_of(kernel))
            .map(|a| a.executions)
            .sum()
    }

    /// Mean actual executions of one kernel per activation in which it
    /// appears (0 if it never runs).
    #[must_use]
    pub fn mean_executions(&self, kernel: KernelId) -> f64 {
        let (sum, n) = self
            .activations
            .iter()
            .flat_map(|a| a.activity_of(kernel))
            .fold((0u64, 0u64), |(s, n), a| (s + a.executions, n + 1));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }
}

/// Builds a [`Trace`] by running a [`WorkloadModel`] over a synthetic video.
///
/// # Example
///
/// ```
/// use mrts_workload::synthetic::ToyApp;
/// use mrts_workload::trace::TraceBuilder;
/// use mrts_workload::video::VideoModel;
///
/// let trace = TraceBuilder::new(&ToyApp::new())
///     .video(VideoModel::paper_default(1))
///     .build();
/// // 16 frames x 1 functional block.
/// assert_eq!(trace.len(), 16);
/// ```
#[derive(Debug)]
pub struct TraceBuilder<'m, M: WorkloadModel + ?Sized> {
    model: &'m M,
    video: VideoModel,
}

impl<'m, M: WorkloadModel + ?Sized> TraceBuilder<'m, M> {
    /// Starts a builder over the given workload model with the paper's
    /// default video.
    #[must_use]
    pub fn new(model: &'m M) -> Self {
        TraceBuilder {
            model,
            video: VideoModel::paper_default(1),
        }
    }

    /// Replaces the input video.
    #[must_use]
    pub fn video(mut self, video: VideoModel) -> Self {
        self.video = video;
        self
    }

    /// Generates the trace: per frame, every functional block is activated
    /// in application order; forecasts are the whole-video profiling means.
    #[must_use]
    pub fn build(self) -> Trace {
        let app = self.model.application();
        let frames = self.video.frames();

        // Offline profiling pass: whole-run average executions per kernel.
        let mut sums = vec![0u64; app.kernel_count()];
        for f in &frames {
            for (k, e) in self.model.kernel_executions(f).iter().enumerate() {
                sums[k] += e;
            }
        }
        let n = frames.len().max(1) as u64;
        let profiled: Vec<u64> = sums.iter().map(|s| (s / n).max(1)).collect();

        let mut activations = Vec::new();
        for frame in &frames {
            let counts = self.model.kernel_executions(frame);
            for block in app.blocks() {
                let mut triggers = Vec::new();
                let mut actual = Vec::new();
                for &k in &block.kernels {
                    let tf = self.model.kernel_first_delay(block, k);
                    let tb = self.model.kernel_gap(k);
                    triggers.push(TriggerInstruction::new(
                        k,
                        profiled[usize::from(k.index())],
                        tf,
                        tb,
                    ));
                    actual.push(KernelActivity {
                        kernel: k,
                        executions: counts[usize::from(k.index())],
                        first_delay: tf,
                        gap: tb,
                    });
                }
                activations.push(BlockActivation {
                    block: block.id,
                    frame: frame.index,
                    forecast: TriggerBlock::new(block.id, triggers),
                    actual,
                });
            }
        }
        Trace::new(format!("{}@video", app.name()), activations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::MergedWorkload;
    use crate::synthetic::ToyApp;

    const TOY: KernelId = KernelId(0);

    fn trace() -> Trace {
        TraceBuilder::new(&ToyApp::new())
            .video(VideoModel::paper_default(1))
            .build()
    }

    #[test]
    fn structure_is_frames_times_blocks() {
        let (a, b) = (ToyApp::new(), ToyApp::new());
        let pair = MergedWorkload::new("pair", vec![&a, &b]);
        let t = TraceBuilder::new(&pair)
            .video(VideoModel::paper_default(1))
            .build();
        assert_eq!(t.len(), 16 * 2);
        assert_eq!(t.activations()[0].block, BlockId(0));
        assert_eq!(t.activations()[1].block, BlockId(1));
        assert_eq!(t.activations()[2].block, BlockId(0));
        assert_eq!(t.activations()[2].frame, 1);
    }

    #[test]
    fn forecast_is_static_actual_varies() {
        let t = trace();
        let acts: Vec<&BlockActivation> = t.activations().iter().collect();
        let forecasts: Vec<u64> = acts
            .iter()
            .map(|a| a.forecast.trigger_for(TOY).unwrap().expected_executions)
            .collect();
        assert!(
            forecasts.windows(2).all(|w| w[0] == w[1]),
            "compile-time forecast must be identical across activations"
        );
        let actuals: Vec<u64> = acts
            .iter()
            .map(|a| a.activity_of(TOY).unwrap().executions)
            .collect();
        assert!(
            actuals.windows(2).any(|w| w[0] != w[1]),
            "actual counts must vary with input data"
        );
    }

    #[test]
    fn forecast_is_profiling_mean() {
        let t = trace();
        let forecast = t.activations()[2]
            .forecast
            .trigger_for(TOY)
            .unwrap()
            .expected_executions;
        let mean = t.mean_executions(TOY);
        assert!(
            (forecast as f64 - mean).abs() <= mean * 0.05 + 1.0,
            "forecast {forecast} should approximate the mean {mean}"
        );
    }

    #[test]
    fn totals_accumulate() {
        let t = trace();
        let manual: u64 = t
            .activations()
            .iter()
            .filter_map(|a| a.activity_of(TOY))
            .map(|a| a.executions)
            .sum();
        assert_eq!(t.total_executions(TOY), manual);
        assert!(manual > 0);
    }

    #[test]
    fn unknown_kernel_yields_zero() {
        let t = trace();
        assert_eq!(t.total_executions(KernelId(99)), 0);
        assert_eq!(t.mean_executions(KernelId(99)), 0.0);
    }
}
