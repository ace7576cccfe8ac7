//! The ScalFrag framework facade (Fig. 6).

use crate::report::MttkrpReport;
use scalfrag_autotune::TrainedPredictor;
use scalfrag_exec::{run_plan_on, ExecMode, KernelChoice};
use scalfrag_gpusim::{DeviceSpec, Gpu, LaunchConfig};
use scalfrag_kernels::{FactorSet, MttkrpBackend};
use scalfrag_linalg::Mat;
use scalfrag_pipeline::{
    build_hybrid_plan, build_pipelined_plan, build_sync_plan, split_by_slice_population,
    PipelinePlan,
};
use scalfrag_tensor::{CooTensor, TensorFeatures};

/// Feature toggles for the ScalFrag stack — the ablation surface.
#[derive(Clone, Debug)]
pub struct ScalFragConfig {
    /// Use the trained predictor to pick the launch configuration
    /// (§IV-B); otherwise fall back to `fixed_config` or the ParTI
    /// heuristic.
    pub adaptive_launch: bool,
    /// Launch the shared-memory tiled kernel (§IV-A) instead of the plain
    /// atomic COO kernel.
    pub tiled_kernel: bool,
    /// Launch the load-balanced segmented-scan kernel (`balance-segscan`):
    /// fixed-nnz chunks + carry chain, immune to slice/fiber skew. Takes
    /// priority over `tiled_kernel`.
    pub balanced_kernel: bool,
    /// Launch the FLYCOO mode-agnostic kernel (`balance-flycoo`): one
    /// tensor copy + per-mode remap tables, no re-tiling between modes.
    /// Takes priority over `tiled_kernel`; `balanced_kernel` wins if both
    /// are set.
    pub mode_agnostic_kernel: bool,
    /// Segment the tensor and overlap transfers with compute (§IV-C);
    /// otherwise execute synchronously.
    pub pipelined: bool,
    /// Route near-empty slices to the host CPU (§I's hybrid optimisation).
    pub hybrid: bool,
    /// Slice-population threshold for the hybrid split.
    pub hybrid_threshold: u32,
    /// Segment count override (`None` = auto from device memory, min 4).
    pub segments: Option<usize>,
    /// Stream count override (`None` = auto).
    pub streams: Option<usize>,
    /// Launch configuration override used when `adaptive_launch` is off.
    pub fixed_config: Option<LaunchConfig>,
    /// Seed for predictor training.
    pub train_seed: u64,
    /// Non-zero tiers for predictor training (`None` = the autotune
    /// crate's defaults, which cover ~3 K – 2 M nnz).
    pub train_tiers: Option<Vec<usize>>,
}

impl Default for ScalFragConfig {
    fn default() -> Self {
        Self {
            adaptive_launch: true,
            tiled_kernel: true,
            balanced_kernel: false,
            mode_agnostic_kernel: false,
            pipelined: true,
            hybrid: false,
            hybrid_threshold: 4,
            segments: None,
            streams: None,
            fixed_config: None,
            train_seed: 0x5ca1,
            train_tiers: None,
        }
    }
}

/// Builder for [`ScalFrag`].
pub struct ScalFragBuilder {
    device: DeviceSpec,
    config: ScalFragConfig,
    predictor: Option<TrainedPredictor>,
}

impl ScalFragBuilder {
    /// Sets the simulated device (default: RTX 3090).
    pub fn device(mut self, d: DeviceSpec) -> Self {
        self.device = d;
        self
    }

    /// Enables/disables the adaptive launching strategy.
    pub fn adaptive_launch(mut self, on: bool) -> Self {
        self.config.adaptive_launch = on;
        self
    }

    /// Enables/disables the tiled kernel.
    pub fn tiled_kernel(mut self, on: bool) -> Self {
        self.config.tiled_kernel = on;
        self
    }

    /// Enables/disables the load-balanced segmented-scan kernel (takes
    /// priority over `tiled_kernel`).
    pub fn balanced_kernel(mut self, on: bool) -> Self {
        self.config.balanced_kernel = on;
        self
    }

    /// Enables/disables the FLYCOO mode-agnostic kernel (takes priority
    /// over `tiled_kernel`; loses to `balanced_kernel`).
    pub fn mode_agnostic_kernel(mut self, on: bool) -> Self {
        self.config.mode_agnostic_kernel = on;
        self
    }

    /// Enables/disables pipelined execution.
    pub fn pipelined(mut self, on: bool) -> Self {
        self.config.pipelined = on;
        self
    }

    /// Enables/disables the CPU–GPU hybrid split.
    pub fn hybrid(mut self, on: bool) -> Self {
        self.config.hybrid = on;
        self
    }

    /// Slice-population threshold below which slices run on the host
    /// (only meaningful with `hybrid(true)`).
    pub fn hybrid_threshold(mut self, t: u32) -> Self {
        self.config.hybrid_threshold = t;
        self
    }

    /// Overrides the segment count.
    pub fn segments(mut self, n: usize) -> Self {
        self.config.segments = Some(n);
        self
    }

    /// Overrides the stream count.
    pub fn streams(mut self, n: usize) -> Self {
        self.config.streams = Some(n);
        self
    }

    /// Overrides the nnz tiers used to train the launch predictor (useful
    /// for fast tests; defaults cover the full deployment range).
    pub fn train_tiers(mut self, tiers: Vec<usize>) -> Self {
        self.config.train_tiers = Some(tiers);
        self
    }

    /// Pins a fixed launch configuration (implies `adaptive_launch(false)`).
    pub fn fixed_config(mut self, c: LaunchConfig) -> Self {
        self.config.fixed_config = Some(c);
        self.config.adaptive_launch = false;
        self
    }

    /// Shares an already-created [`TrainedPredictor`] handle instead of
    /// training privately — the handle's training device/seed/tiers win
    /// over this builder's. This is how a fleet of facades (one per pool
    /// device, or a serving layer) pays predictor training exactly once.
    pub fn predictor(mut self, handle: TrainedPredictor) -> Self {
        self.predictor = Some(handle);
        self
    }

    /// Finalises the framework instance.
    pub fn build(self) -> ScalFrag {
        let predictor = self.predictor.unwrap_or_else(|| {
            TrainedPredictor::train_once(
                &self.device,
                self.config.train_seed,
                self.config.train_tiers.clone(),
            )
        });
        ScalFrag { device: self.device, config: self.config, predictor }
    }
}

/// The end-to-end ScalFrag framework.
///
/// One instance is reusable across tensors and ranks; launch-parameter
/// predictors are trained lazily per rank and cached (the paper: "the
/// training needs to be performed only once").
pub struct ScalFrag {
    device: DeviceSpec,
    config: ScalFragConfig,
    predictor: TrainedPredictor,
}

impl ScalFrag {
    /// Starts a builder with the paper's defaults (RTX 3090, everything on).
    pub fn builder() -> ScalFragBuilder {
        ScalFragBuilder {
            device: DeviceSpec::rtx3090(),
            config: ScalFragConfig::default(),
            predictor: None,
        }
    }

    /// The simulated device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The active configuration.
    pub fn config(&self) -> &ScalFragConfig {
        &self.config
    }

    /// The shared trained-predictor handle (clone it into other facades or
    /// a serving layer to reuse the trained models).
    pub fn trained_predictor(&self) -> &TrainedPredictor {
        &self.predictor
    }

    /// Selects the launch configuration for `(tensor, mode)` according to
    /// the active strategy.
    pub fn select_config(&self, tensor: &CooTensor, mode: usize, rank: u32) -> LaunchConfig {
        if self.config.adaptive_launch {
            let features = TensorFeatures::extract(tensor, mode).to_vec();
            self.predictor.for_rank(rank).predict_from_features(&features)
        } else {
            self.config.fixed_config.unwrap_or_else(|| LaunchConfig::parti_default(tensor.nnz()))
        }
    }

    fn kernel_choice(&self) -> KernelChoice {
        if self.config.balanced_kernel {
            KernelChoice::Balanced
        } else if self.config.mode_agnostic_kernel {
            KernelChoice::ModeAgnostic
        } else if self.config.tiled_kernel {
            KernelChoice::Tiled
        } else {
            KernelChoice::CooAtomic
        }
    }

    /// Runs one end-to-end MTTKRP (functional: the output is numerically
    /// real and validated against the CPU reference in the test suite).
    pub fn mttkrp(&self, tensor: &CooTensor, factors: &FactorSet, mode: usize) -> MttkrpReport {
        self.run(tensor, factors, mode, true)
    }

    /// Timing-only variant for large benchmark sweeps.
    pub fn mttkrp_dry(&self, tensor: &CooTensor, factors: &FactorSet, mode: usize) -> MttkrpReport {
        self.run(tensor, factors, mode, false)
    }

    fn run(
        &self,
        tensor: &CooTensor,
        factors: &FactorSet,
        mode: usize,
        functional: bool,
    ) -> MttkrpReport {
        let rank = factors.rank();
        let cfg = self.select_config(tensor, mode, rank as u32);
        let kernel = self.kernel_choice();
        let stats = scalfrag_kernels::SegmentStats::compute(tensor, mode);
        let exec = if functional { ExecMode::Functional } else { ExecMode::Dry };
        let plan = if self.config.hybrid && functional {
            let split = split_by_slice_population(tensor, mode, self.config.hybrid_threshold);
            let segs = self.config.segments.unwrap_or(4);
            let strs = self.config.streams.unwrap_or(4.min(segs.max(1)));
            build_hybrid_plan(&self.device, &split, factors, mode, cfg, segs, strs, kernel)
        } else if self.config.pipelined {
            let mut sorted = tensor.clone();
            sorted.sort_for_mode(mode);
            let plan = match (self.config.segments, self.config.streams) {
                (Some(segs), streams) => {
                    PipelinePlan::new(&sorted, mode, cfg, segs, streams.unwrap_or(segs.min(4)))
                }
                (None, _) => {
                    PipelinePlan::auto(&sorted, mode, cfg, &self.device, factors.byte_size())
                }
            };
            build_pipelined_plan(&self.device, &sorted, factors, &plan, kernel)
        } else {
            build_sync_plan(&self.device, tensor, factors, mode, cfg, kernel)
        };
        let outcome = run_plan_on(&mut Gpu::new(self.device.clone()), &plan, exec);
        MttkrpReport::new("scalfrag", &plan, outcome, stats.flops(rank as u32))
    }

    /// An [`MttkrpBackend`] view of this framework (for CPD-ALS), which
    /// also accumulates the simulated device seconds spent.
    pub fn backend(&self) -> ScalFragBackend<'_> {
        ScalFragBackend { ctx: self, simulated_seconds: 0.0 }
    }
}

/// CPD-ALS backend adapter for [`ScalFrag`].
pub struct ScalFragBackend<'a> {
    ctx: &'a ScalFrag,
    /// Total simulated device time over all MTTKRP calls.
    pub simulated_seconds: f64,
}

impl MttkrpBackend for ScalFragBackend<'_> {
    fn name(&self) -> &'static str {
        "scalfrag"
    }

    fn mttkrp(&mut self, tensor: &CooTensor, factors: &FactorSet, mode: usize) -> Mat {
        let report = self.ctx.mttkrp(tensor, factors, mode);
        self.simulated_seconds += report.timing.total_s;
        report.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalfrag_kernels::reference::mttkrp_seq;

    fn small() -> (CooTensor, FactorSet) {
        let dims = [150u32, 100, 80];
        let t = scalfrag_tensor::gen::zipf_slices(&dims, 8_000, 0.9, 51);
        let f = FactorSet::random(&dims, 16, 52);
        (t, f)
    }

    #[test]
    fn full_stack_output_matches_reference() {
        let (t, f) = small();
        // Fixed config avoids predictor training in the unit test.
        let ctx =
            ScalFrag::builder().fixed_config(LaunchConfig::new(1024, 256)).segments(4).build();
        let r = ctx.mttkrp(&t, &f, 0);
        let expect = mttkrp_seq(&t, &f, 0);
        assert!(r.output.max_abs_diff(&expect) < 1e-2, "diff {}", r.output.max_abs_diff(&expect));
        assert!(r.timing.total_s > 0.0);
        assert_eq!(r.segments, 4);
        assert!(r.config.shared_mem_per_block > 0, "tiled kernel requests smem");
    }

    #[test]
    fn hybrid_stack_output_matches_reference() {
        let (t, f) = small();
        // With avg ~50 nnz per slice, a threshold of 30 guarantees a
        // non-empty host tail on the Zipf tensor.
        let ctx = ScalFrag::builder()
            .fixed_config(LaunchConfig::new(1024, 256))
            .hybrid(true)
            .hybrid_threshold(30)
            .build();
        let r = ctx.mttkrp(&t, &f, 0);
        let expect = mttkrp_seq(&t, &f, 0);
        assert!(r.output.max_abs_diff(&expect) < 1e-2);
        assert!(r.timing.host_s > 0.0, "hybrid must use the host engine");
    }

    #[test]
    fn sync_ablation_runs() {
        let (t, f) = small();
        let ctx =
            ScalFrag::builder().fixed_config(LaunchConfig::new(1024, 256)).pipelined(false).build();
        let r = ctx.mttkrp(&t, &f, 1);
        assert_eq!(r.segments, 1);
        assert!(r.overlap_ratio < 0.05);
        let expect = mttkrp_seq(&t, &f, 1);
        assert!(r.output.max_abs_diff(&expect) < 1e-2);
    }

    #[test]
    fn balance_arms_match_reference_end_to_end() {
        let (t, f) = small();
        for (balanced, agnostic) in [(true, false), (false, true)] {
            let ctx = ScalFrag::builder()
                .fixed_config(LaunchConfig::new(1024, 256))
                .pipelined(false)
                .balanced_kernel(balanced)
                .mode_agnostic_kernel(agnostic)
                .build();
            for mode in 0..3 {
                let r = ctx.mttkrp(&t, &f, mode);
                let expect = mttkrp_seq(&t, &f, mode);
                assert!(
                    r.output.max_abs_diff(&expect) < 1e-2,
                    "balanced={balanced} agnostic={agnostic} mode={mode}: {}",
                    r.output.max_abs_diff(&expect)
                );
                assert_eq!(r.config.shared_mem_per_block, 0, "balance arms use no smem tile");
            }
        }
    }

    #[test]
    fn backend_drives_cpd() {
        let (t, f) = small();
        let _ = f;
        let ctx = ScalFrag::builder().fixed_config(LaunchConfig::new(512, 256)).segments(2).build();
        let mut backend = ctx.backend();
        let opts = scalfrag_kernels::CpdOptions {
            rank: 4,
            max_iters: 2,
            tol: 0.0,
            seed: 3,
            nonnegative: false,
        };
        let res = scalfrag_kernels::cpd_als(&t, &opts, &mut backend);
        assert_eq!(res.iters, 2);
        assert!(res.final_fit().is_finite());
        assert!(backend.simulated_seconds > 0.0);
    }

    #[test]
    fn dry_run_times_without_computing() {
        let (t, f) = small();
        let ctx = ScalFrag::builder().fixed_config(LaunchConfig::new(1024, 256)).build();
        let r = ctx.mttkrp_dry(&t, &f, 0);
        assert!(r.timing.total_s > 0.0);
        assert_eq!(r.output.frob_norm(), 0.0);
    }

    #[test]
    fn dry_and_functional_reports_share_their_timing() {
        let (t, f) = small();
        let ctx =
            ScalFrag::builder().fixed_config(LaunchConfig::new(1024, 256)).segments(4).build();
        let wet = ctx.mttkrp(&t, &f, 2);
        let dry = ctx.mttkrp_dry(&t, &f, 2);
        assert_eq!(wet.timing, dry.timing);
        assert_eq!(wet.overlap_ratio.to_bits(), dry.overlap_ratio.to_bits());
        assert_eq!(
            (wet.segments, wet.streams, wet.config),
            (dry.segments, dry.streams, dry.config)
        );
    }

    #[test]
    fn hybrid_report_keeps_the_host_phase_on_its_one_device() {
        let (t, f) = small();
        let ctx = ScalFrag::builder()
            .fixed_config(LaunchConfig::new(1024, 256))
            .hybrid(true)
            .hybrid_threshold(30)
            .segments(3)
            .streams(2)
            .build();
        let r = ctx.mttkrp(&t, &f, 0);
        assert_eq!((r.streams, r.num_shards, r.num_devices()), (2, 1, 1));
        assert!((1..=3).contains(&r.segments), "at most the requested segments: {}", r.segments);
        assert!(r.timing.host_s > 0.0);
        assert_eq!(r.devices[0].timing, r.timing, "the host residue shares the device timeline");
    }

    #[test]
    fn adaptive_launch_trains_once_and_selects_valid_configs() {
        let (t, f) = small();
        let ctx = ScalFrag::builder().train_tiers(vec![3_000, 12_000]).build();
        let c1 = ctx.select_config(&t, 0, f.rank() as u32);
        let c2 = ctx.select_config(&t, 0, f.rank() as u32);
        assert_eq!(c1, c2, "cached predictor must be deterministic");
        assert!(c1.validate(ctx.device()).is_ok());
        assert_eq!(ctx.trained_predictor().trainings(), 1);
    }

    #[test]
    fn shared_predictor_handle_trains_once_across_facades() {
        let (t, f) = small();
        let rank = f.rank() as u32;
        let handle =
            TrainedPredictor::train_once(&DeviceSpec::rtx3090(), 0x5ca1, Some(vec![3_000, 12_000]));
        let a = ScalFrag::builder().predictor(handle.clone()).build();
        let b = ScalFrag::builder().predictor(handle.clone()).build();
        assert_eq!(a.select_config(&t, 0, rank), b.select_config(&t, 0, rank));
        assert_eq!(handle.trainings(), 1, "two facades, one training");
    }
}
