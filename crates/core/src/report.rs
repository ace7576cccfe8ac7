//! End-to-end MTTKRP execution reports — the measurements every figure of
//! the evaluation section is drawn from.

use scalfrag_exec::{ExecOutcome, Plan};
use scalfrag_gpusim::{LaunchConfig, Timeline};
use scalfrag_linalg::Mat;

/// Per-phase busy times of one MTTKRP execution (the Fig. 5 bars).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTiming {
    /// Host→device transfer busy time (s).
    pub h2d_s: f64,
    /// Kernel busy time (s).
    pub kernel_s: f64,
    /// Device→host transfer busy time (s).
    pub d2h_s: f64,
    /// Host-CPU task busy time (s).
    pub host_s: f64,
    /// Time spent queued before execution started (s) — zero for one-shot
    /// runs; the serving layer fills it in. Queue wait is *not* busy time:
    /// it is excluded from [`PhaseTiming::busy_s`] and
    /// [`PhaseTiming::h2d_fraction`] but included in
    /// [`PhaseTiming::total`].
    pub queue_s: f64,
    /// Time spent waiting for a batch group to close after leaving the
    /// queue (s) — zero for solo dispatch; the batch-fused serving layer
    /// fills it in for every member of a fused group. Like `queue_s` it is
    /// idle time: excluded from [`PhaseTiming::busy_s`] and
    /// [`PhaseTiming::h2d_fraction`], included in [`PhaseTiming::total`].
    pub batch_wait_s: f64,
    /// Execution makespan (s), from first phase start to last phase end —
    /// smaller than the busy sum when phases overlap. Excludes queue wait
    /// and batch wait.
    pub total_s: f64,
}

impl PhaseTiming {
    /// Extracts phase timing from a timeline (queue wait zero).
    pub fn from_timeline(t: &Timeline) -> Self {
        let (h2d_s, kernel_s, d2h_s, host_s) = t.breakdown();
        Self {
            h2d_s,
            kernel_s,
            d2h_s,
            host_s,
            queue_s: 0.0,
            batch_wait_s: 0.0,
            total_s: t.makespan(),
        }
    }

    /// Returns `self` with the queue wait filled in.
    pub fn with_queue(mut self, queue_s: f64) -> Self {
        self.queue_s = queue_s;
        self
    }

    /// Returns `self` with the batch-formation wait filled in.
    pub fn with_batch_wait(mut self, batch_wait_s: f64) -> Self {
        self.batch_wait_s = batch_wait_s;
        self
    }

    /// Sum of all busy phases — H2D + kernel + D2H + host. Every phase is
    /// accounted for here; queue wait is idle time and deliberately not
    /// part of the sum.
    pub fn busy_s(&self) -> f64 {
        self.h2d_s + self.kernel_s + self.d2h_s + self.host_s
    }

    /// End-to-end latency: queue wait plus batch-formation wait plus
    /// execution makespan.
    pub fn total(&self) -> f64 {
        self.queue_s + self.batch_wait_s + self.total_s
    }

    /// Fraction of total busy time spent in H2D — the §III-B observation
    /// that "H2D takes up the vast majority of the time".
    pub fn h2d_fraction(&self) -> f64 {
        let busy = self.busy_s();
        if busy <= 0.0 {
            0.0
        } else {
            self.h2d_s / busy
        }
    }

    /// Structural consistency check: every phase is non-negative and
    /// finite, and the makespan is bounded below by the busiest single
    /// engine (engines are exclusive, so no engine can be busy longer than
    /// the whole execution) and above by the serialized busy sum plus
    /// dependency slack.
    pub fn check_consistency(&self) -> Result<(), String> {
        const EPS: f64 = 1e-9;
        let phases = [
            ("h2d_s", self.h2d_s),
            ("kernel_s", self.kernel_s),
            ("d2h_s", self.d2h_s),
            ("host_s", self.host_s),
            ("queue_s", self.queue_s),
            ("batch_wait_s", self.batch_wait_s),
            ("total_s", self.total_s),
        ];
        for (name, v) in phases {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} = {v} is not a finite non-negative time"));
            }
        }
        let busiest = self.h2d_s.max(self.kernel_s).max(self.d2h_s).max(self.host_s);
        if self.total_s + EPS < busiest {
            return Err(format!("makespan {} shorter than busiest engine {busiest}", self.total_s));
        }
        Ok(())
    }
}

/// One device's share of an MTTKRP execution.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceReport {
    /// Marketing name of the simulated device.
    pub name: &'static str,
    /// Global indices of the shards that ran on this device (empty when
    /// the device stayed idle).
    pub shards: Vec<usize>,
    /// This device's phase breakdown (zeros when idle).
    pub timing: PhaseTiming,
}

/// The result of one end-to-end MTTKRP through a framework facade —
/// single-device ([`crate::ScalFrag`], [`crate::Parti`]) or multi-device
/// ([`crate::ClusterScalFrag`]), fault-free or fault-injected.
#[derive(Clone, Debug)]
pub struct MttkrpReport {
    /// Framework name (`"scalfrag"` / `"parti"` / `"cluster"`).
    pub backend: &'static str,
    /// Target mode.
    pub mode: usize,
    /// CPD rank.
    pub rank: usize,
    /// The launch configuration the kernel ran with.
    pub config: LaunchConfig,
    /// Number of pipeline segments used, summed over shards (1 =
    /// synchronous).
    pub segments: usize,
    /// Number of streams used (per device).
    pub streams: usize,
    /// MTTKRP FLOPs.
    pub flops: u64,
    /// Phase breakdown. On multi-device runs the busy phases are summed
    /// across devices and `total_s` is the slowest device plus the
    /// reduction stage.
    pub timing: PhaseTiming,
    /// Overlap ratio of the schedule (0 = serial): the share of device
    /// busy time hidden by overlap, pooled over all devices.
    pub overlap_ratio: f64,
    /// The MTTKRP output (zeros for dry runs or where work was lost).
    pub output: Mat,
    /// Per-device breakdowns, index-aligned with the plan's device list.
    pub devices: Vec<DeviceReport>,
    /// Simulated seconds of the cross-shard reduction stage (0 on one
    /// device and for slice-aligned shards).
    pub reduction_s: f64,
    /// Number of shards the tensor was cut into (1 on one device).
    pub num_shards: usize,
    /// Segments whose work was ultimately lost (0 unless fault-injected).
    pub failed_segments: usize,
    /// Segments that completed.
    pub completed_segments: usize,
    /// Segments that completed on a device other than their original
    /// placement (the re-shard recovery path).
    pub replaced_segments: usize,
    /// Total segment retries across all devices.
    pub retries: usize,
    /// Devices that were down at start or died during the run.
    pub dead_devices: Vec<usize>,
}

impl MttkrpReport {
    /// Builds the report of one interpreted `plan`. Mode, rank, segment,
    /// stream and shard counts come from the plan, as does the launch
    /// configuration (with the kernel's shared-memory request); timings
    /// and recovery counters come from the `outcome`.
    pub fn new(backend: &'static str, plan: &Plan, outcome: ExecOutcome, flops: u64) -> Self {
        let timelines = &outcome.device_timelines;
        let mut timing = PhaseTiming { total_s: outcome.makespan(), ..PhaseTiming::default() };
        for t in timelines {
            let (h2d_s, kernel_s, d2h_s, host_s) = t.breakdown();
            timing.h2d_s += h2d_s;
            timing.kernel_s += kernel_s;
            timing.d2h_s += d2h_s;
            timing.host_s += host_s;
        }
        let busy: f64 = timelines.iter().map(Timeline::total_busy).sum();
        let spans: f64 = timelines.iter().map(Timeline::makespan).sum();
        let overlap_ratio = if busy <= 0.0 { 0.0 } else { (1.0 - spans / busy).max(0.0) };
        let devices = plan
            .devices
            .iter()
            .zip(timelines)
            .zip(&outcome.device_shards)
            .map(|((dev, t), shards)| DeviceReport {
                name: dev.name,
                shards: shards.clone(),
                timing: PhaseTiming::from_timeline(t),
            })
            .collect();
        Self {
            backend,
            mode: plan.mode,
            rank: plan.rank,
            config: plan.kernel.full_config(plan.config, plan.rank as u32),
            segments: plan.seg_lists.iter().map(Vec::len).sum(),
            streams: plan.devices[0].worker_streams,
            flops,
            timing,
            overlap_ratio,
            devices,
            reduction_s: outcome.reduction_s,
            num_shards: plan.shards.len(),
            failed_segments: outcome.failed_segments(),
            completed_segments: outcome.completed_segments,
            replaced_segments: outcome.replaced_segments,
            retries: outcome.retries,
            dead_devices: outcome.dead_devices,
            output: outcome.output,
        }
    }

    /// Number of devices the plan spanned (including idle ones).
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// True when every segment completed (always, unless fault-injected).
    pub fn all_complete(&self) -> bool {
        self.failed_segments == 0
    }

    /// Kernel-only achieved GFLOP/s (the Fig. 9 metric).
    pub fn kernel_gflops(&self) -> f64 {
        if self.timing.kernel_s <= 0.0 {
            0.0
        } else {
            self.flops as f64 / self.timing.kernel_s / 1e9
        }
    }

    /// End-to-end achieved GFLOP/s (the Fig. 10 metric).
    pub fn e2e_gflops(&self) -> f64 {
        if self.timing.total_s <= 0.0 {
            0.0
        } else {
            self.flops as f64 / self.timing.total_s / 1e9
        }
    }

    /// One-line human-readable summary. The host phase shows whenever a
    /// hybrid run put work on the CPU; the node shape and reduction stage
    /// show whenever the tensor was sharded.
    pub fn summary(&self) -> String {
        let host = if self.timing.host_s > 0.0 {
            format!(" host {:.3}ms", self.timing.host_s * 1e3)
        } else {
            String::new()
        };
        let (node, reduce) = if self.num_shards > 1 {
            (
                format!(" gpus={} shards={}", self.num_devices(), self.num_shards),
                format!(" reduce {:.3}ms", self.reduction_s * 1e3),
            )
        } else {
            (String::new(), String::new())
        };
        format!(
            "{:<9} mode-{} {}{node} segs={} streams={} | H2D {:.3}ms kernel {:.3}ms D2H {:.3}ms{host}{reduce} | total {:.3}ms ({:.1} GF/s kernel, {:.1} GF/s e2e, overlap {:.0}%)",
            self.backend,
            self.mode,
            self.config,
            self.segments,
            self.streams,
            self.timing.h2d_s * 1e3,
            self.timing.kernel_s * 1e3,
            self.timing.d2h_s * 1e3,
            self.timing.total_s * 1e3,
            self.kernel_gflops(),
            self.e2e_gflops(),
            self.overlap_ratio * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalfrag_exec::{
        run_plan, run_plan_resilient_on, ExecMode, FaultRecoveryPolicy, KernelChoice,
    };
    use scalfrag_faults::{FaultInjector, FaultKind, FaultPlan, FaultTrigger};
    use scalfrag_gpusim::{DeviceSpec, Engine, Gpu, Span, SpanKind};
    use scalfrag_kernels::FactorSet;
    use scalfrag_pipeline::{build_pipelined_plan, build_sync_plan, PipelinePlan};
    use scalfrag_tensor::CooTensor;

    fn span(engine: Engine, start: f64, end: f64) -> Span {
        Span { op: 0, stream: 0, engine, kind: SpanKind::Kernel, label: String::new(), start, end }
    }

    #[test]
    fn phase_timing_from_timeline() {
        let t = Timeline {
            spans: vec![
                span(Engine::H2D, 0.0, 3.0),
                span(Engine::Compute, 3.0, 4.0),
                span(Engine::D2H, 4.0, 4.5),
            ],
        };
        let p = PhaseTiming::from_timeline(&t);
        assert_eq!(p.h2d_s, 3.0);
        assert_eq!(p.kernel_s, 1.0);
        assert_eq!(p.d2h_s, 0.5);
        assert_eq!(p.total_s, 4.5);
        assert!((p.h2d_fraction() - 3.0 / 4.5).abs() < 1e-12);
    }

    fn report(timing: PhaseTiming, flops: u64, overlap_ratio: f64) -> MttkrpReport {
        MttkrpReport {
            backend: "scalfrag",
            mode: 0,
            rank: 16,
            config: LaunchConfig::new(1024, 256),
            segments: 4,
            streams: 4,
            flops,
            timing,
            overlap_ratio,
            output: Mat::zeros(1, 1),
            devices: Vec::new(),
            reduction_s: 0.0,
            num_shards: 1,
            failed_segments: 0,
            completed_segments: 4,
            replaced_segments: 0,
            retries: 0,
            dead_devices: Vec::new(),
        }
    }

    #[test]
    fn gflops_and_summary() {
        let timing = PhaseTiming {
            h2d_s: 0.01,
            kernel_s: 0.004,
            d2h_s: 0.001,
            total_s: 0.012,
            ..Default::default()
        };
        let r = report(timing, 2_000_000_000, 0.2);
        assert!((r.kernel_gflops() - 500.0).abs() < 1e-9);
        assert!((r.e2e_gflops() - 2_000.0 / 12.0).abs() < 1e-6);
        let s = r.summary();
        assert!(s.contains("scalfrag") && s.contains("segs=4"));
        assert!(!s.contains("gpus="), "single-shard runs print no node shape: {s}");
    }

    #[test]
    fn zero_time_is_safe() {
        let p = PhaseTiming::default();
        assert_eq!(p.h2d_fraction(), 0.0);
        assert!(p.check_consistency().is_ok());
    }

    #[test]
    fn queue_wait_extends_total_but_not_busy() {
        let t =
            Timeline { spans: vec![span(Engine::H2D, 0.0, 2.0), span(Engine::Compute, 2.0, 3.0)] };
        let p = PhaseTiming::from_timeline(&t).with_queue(1.5);
        assert_eq!(p.queue_s, 1.5);
        assert_eq!(p.busy_s(), 3.0, "queue wait is not busy time");
        assert_eq!(p.total_s, 3.0);
        assert_eq!(p.total(), 4.5, "end-to-end latency includes the wait");
        assert!((p.h2d_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!(p.check_consistency().is_ok());
    }

    #[test]
    fn consistency_check_catches_impossible_timings() {
        // Makespan shorter than the busiest engine is impossible.
        let bad = PhaseTiming { h2d_s: 3.0, total_s: 2.0, ..Default::default() };
        assert!(bad.check_consistency().is_err());
        let negative = PhaseTiming { kernel_s: -1.0, ..Default::default() };
        assert!(negative.check_consistency().is_err());
        let nan = PhaseTiming { queue_s: f64::NAN, ..Default::default() };
        assert!(nan.check_consistency().is_err());
        // The batch-formation wait is a phase like any other: negative or
        // non-finite values must fail the structural check.
        let neg_batch = PhaseTiming { batch_wait_s: -0.5, ..Default::default() };
        assert!(neg_batch.check_consistency().is_err());
        let inf_batch = PhaseTiming { batch_wait_s: f64::INFINITY, ..Default::default() };
        assert!(inf_batch.check_consistency().is_err());
    }

    #[test]
    fn batch_wait_extends_total_but_not_busy() {
        let t =
            Timeline { spans: vec![span(Engine::H2D, 0.0, 2.0), span(Engine::Compute, 2.0, 3.0)] };
        let p = PhaseTiming::from_timeline(&t).with_queue(1.0).with_batch_wait(0.5);
        assert_eq!(p.batch_wait_s, 0.5);
        assert_eq!(p.busy_s(), 3.0, "batch wait is idle time, not busy time");
        assert_eq!(p.total_s, 3.0, "makespan excludes the batch wait");
        assert_eq!(p.total(), 4.5, "end-to-end latency includes queue and batch waits");
        assert!((p.h2d_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!(p.check_consistency().is_ok());
    }

    #[test]
    fn hybrid_host_phase_shows_in_summary() {
        let timing = PhaseTiming {
            h2d_s: 0.01,
            kernel_s: 0.004,
            d2h_s: 0.001,
            host_s: 0.002,
            total_s: 0.012,
            ..Default::default()
        };
        let mut r = report(timing, 1_000, 0.0);
        assert!(r.summary().contains("host"), "host phase must not be silently dropped");
        r.timing.host_s = 0.0;
        assert!(!r.summary().contains("host"));
    }

    #[test]
    fn summary_shows_the_node_shape_and_reduction_when_sharded() {
        let mut r = report(PhaseTiming { total_s: 0.01, ..Default::default() }, 1_000, 0.0);
        assert!(!r.summary().contains("reduce"), "one shard has no reduction stage");
        let device = |shards: Vec<usize>| DeviceReport {
            name: "GeForce RTX 3090",
            shards,
            timing: PhaseTiming::default(),
        };
        r.devices = vec![device(vec![0, 2]), device(vec![1, 3])];
        r.num_shards = 4;
        r.reduction_s = 0.002;
        let s = r.summary();
        assert!(s.contains(" gpus=2 shards=4 ") && s.contains(" reduce 2.000ms "), "{s}");
    }

    fn sample() -> (CooTensor, FactorSet) {
        let dims = [120u32, 90, 60];
        let mut t = scalfrag_tensor::gen::zipf_slices(&dims, 6_000, 0.8, 3);
        t.sort_for_mode(0);
        (t, FactorSet::random(&dims, 8, 4))
    }

    fn pipelined(t: &CooTensor, f: &FactorSet) -> (Plan, PipelinePlan) {
        let pp = PipelinePlan::new(t, 0, LaunchConfig::new(512, 256), 4, 2);
        let plan = build_pipelined_plan(&DeviceSpec::rtx3090(), t, f, &pp, KernelChoice::Tiled);
        (plan, pp)
    }

    #[test]
    fn single_device_report_matches_its_timeline() {
        // On one device the pooled timing and overlap must be exactly
        // the device timeline's own numbers.
        let (t, f) = sample();
        let (plan, pp) = pipelined(&t, &f);
        let outcome = run_plan(&plan, ExecMode::Dry);
        let timeline = outcome.timeline.clone();
        let r = MttkrpReport::new("scalfrag", &plan, outcome, 1);
        assert_eq!(r.timing, PhaseTiming::from_timeline(&timeline));
        assert_eq!(r.overlap_ratio.to_bits(), timeline.overlap_ratio().to_bits());
        assert_eq!((r.segments, r.streams, r.num_shards), (pp.num_segments(), 2, 1));
        assert_eq!(r.devices.len(), 1);
        assert_eq!(r.devices[0].timing, r.timing);
        assert!(r.all_complete() && r.completed_segments == pp.num_segments());
    }

    #[test]
    fn sync_plan_reports_one_segment_on_one_stream() {
        let (t, f) = sample();
        let cfg = LaunchConfig::new(512, 256);
        let device = DeviceSpec::rtx3090();
        let plan = build_sync_plan(&device, &t, &f, 1, cfg, KernelChoice::Tiled);
        let r = MttkrpReport::new("scalfrag", &plan, run_plan(&plan, ExecMode::Dry), 1);
        assert_eq!((r.mode, r.rank), (1, 8), "mode and rank come from the plan");
        assert_eq!((r.segments, r.streams, r.num_shards), (1, 1, 1));
        assert_eq!(r.config, KernelChoice::Tiled.full_config(cfg, 8), "smem request shows");
        assert_eq!(r.reduction_s, 0.0);
        assert_eq!(r.devices[0].name, device.name);
    }

    #[test]
    fn a_lost_segment_shows_in_the_recovery_counters() {
        let (t, f) = sample();
        let (plan, pp) = pipelined(&t, &f);
        let faults =
            FaultPlan::new().fault(0, FaultTrigger::AtOp(2), FaultKind::TransferCorruption);
        let outcome = run_plan_resilient_on(
            &mut Gpu::new(DeviceSpec::rtx3090()),
            &plan,
            0,
            &mut FaultInjector::new(faults),
            &FaultRecoveryPolicy::no_retry(),
            ExecMode::Functional,
        );
        let r = MttkrpReport::new("scalfrag", &plan, outcome, 1);
        assert!(!r.all_complete());
        assert_eq!(r.failed_segments, 1, "no-retry loses exactly the faulted segment");
        assert_eq!(r.completed_segments, pp.num_segments() - 1);
        assert_eq!((r.retries, r.replaced_segments), (0, 0));
        assert!(r.dead_devices.is_empty(), "a corrupted transfer kills no device");
    }

    #[test]
    fn pooled_overlap_is_a_busy_weighted_mean_of_the_devices() {
        use scalfrag_cluster::{build_cluster_plan, ClusterOptions, NodeSpec};
        let (t, f) = sample();
        let node = NodeSpec::homogeneous(DeviceSpec::rtx3090(), 3);
        let opts = ClusterOptions::new(LaunchConfig::new(512, 256), 5);
        let plan = build_cluster_plan(&node, &t, &f, 0, &opts);
        let outcome = run_plan(&plan, ExecMode::Dry);
        let weighted: Vec<(f64, f64)> = outcome
            .device_timelines
            .iter()
            .map(|tl| (tl.total_busy(), tl.overlap_ratio()))
            .collect();
        let r = MttkrpReport::new("cluster", &plan, outcome, 1);
        let busy: f64 = weighted.iter().map(|(b, _)| b).sum();
        let mean = weighted.iter().map(|(b, ratio)| b * ratio).sum::<f64>() / busy;
        assert!(weighted.iter().any(|&(_, ratio)| ratio != mean), "devices differ: {weighted:?}");
        assert!((r.overlap_ratio - mean).abs() < 1e-12, "{} vs {mean}", r.overlap_ratio);
    }
}
