//! The single plan interpreter.
//!
//! Every execution path in the workspace — sync, pipelined, hybrid,
//! cluster RR/LPT, the resilient variants and the serving layer — runs
//! through the functions here:
//!
//! * [`run_plan_on`] / [`run_plan`] — fault-free execution of a lowered
//!   plan, functional or dry ([`ExecMode`]).
//! * [`run_plan_resilient_on`] — single-device execution under a
//!   [`FaultInjector`]: segments run in retry waves with exponential
//!   backoff; transient outages are waited out in place.
//! * [`run_plan_resilient`] — multi-device execution under fault
//!   injection, adding bring-up health checks and re-placement of a dead
//!   device's work via the plan's [`ClusterPolicy`].
//!
//! Numerics are decoupled from timing exactly as before the engine
//! existed: fault-free runs launch functional kernels in plan order, while
//! resilient runs schedule timing-only kernels and replay the completed
//! segments functionally in shard-then-segment order, so a fully
//! recovered run is bit-identical to the fault-free one.

use crate::ir::{DeviceOps, ExecMode, PlaceStrategy, Plan, PlanOp, Reduce, ShardDesc, StreamRef};
use crate::retry::{FaultRecoveryPolicy, RecoveryMode};
use crate::trace::PlanTrace;
use parking_lot::Mutex;
use scalfrag_faults::{DeviceHealth, FaultInjector, OpClass, OpVerdict, RecoveryAction};
use scalfrag_gpusim::{Allocation, Gpu, StreamId, Timeline};
use scalfrag_kernels::{reference, AtomicF32Buffer};
use scalfrag_linalg::Mat;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Per-item outcome of a resilient run (trivially "1 attempt, completed"
/// for fault-free runs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UnitOutcome {
    /// Global shard index.
    pub shard: usize,
    /// Segment ordinal within the shard.
    pub segment: usize,
    /// Attempts consumed (1 = clean first try).
    pub attempts: u32,
    /// Whether the item's kernel ultimately completed.
    pub completed: bool,
}

/// Per-device memory accounting of one interpreted plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceMemStats {
    /// Pool high-watermark of live bytes during the device's program.
    pub peak_bytes: u64,
    /// `Evict` ops executed (resident segments dropped for space).
    pub evictions: u64,
    /// `Prefetch` ops executed (segments (re-)staged into a slot).
    pub prefetches: u64,
    /// `Free` ops executed (transient buffers released mid-plan).
    pub frees: u64,
    /// Total H2D payload bytes staged (factors + segments + prefetches).
    pub staged_bytes: u64,
}

/// The result of interpreting one plan.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The MTTKRP output (zero in dry mode or where work was lost).
    pub output: Mat,
    /// The primary device's timeline (single-device plans; the batch of
    /// this run only when the caller's GPU carried earlier work).
    pub timeline: Timeline,
    /// Per-device timelines, index-aligned with the plan's device list.
    pub device_timelines: Vec<Timeline>,
    /// Per-device shard indices that actually ran there.
    pub device_shards: Vec<Vec<usize>>,
    /// The structured plan trace across all devices.
    pub trace: PlanTrace,
    /// Analytic seconds of the cross-shard reduction stage.
    pub reduction_s: f64,
    /// Per-item accounting.
    pub outcomes: Vec<UnitOutcome>,
    /// Total segment retries across all devices.
    pub retries: usize,
    /// Items completed on a device other than their original placement.
    pub replaced_segments: usize,
    /// Items that completed.
    pub completed_segments: usize,
    /// Total items in the plan.
    pub total_items: usize,
    /// Devices that were down at start or died during the run.
    pub dead_devices: Vec<usize>,
    /// Per-device memory accounting, index-aligned with the device list.
    pub mem: Vec<DeviceMemStats>,
    /// Per-shard output matrices, shard-index order — filled only by
    /// functional fault-free runs of [`Reduce::PerJob`] plans (the
    /// batch-fused serving path reads one matrix per fused job); empty
    /// everywhere else.
    pub shard_outputs: Vec<Mat>,
}

impl ExecOutcome {
    /// End-to-end makespan: the slowest device plus the reduction stage.
    pub fn makespan(&self) -> f64 {
        self.device_timelines.iter().map(Timeline::makespan).fold(0.0, f64::max) + self.reduction_s
    }

    /// Whether every item completed.
    pub fn all_complete(&self) -> bool {
        self.completed_segments == self.total_items
    }

    /// Items whose work was ultimately lost.
    pub fn failed_segments(&self) -> usize {
        self.total_items - self.completed_segments
    }
}

type HostAcc = Arc<Mutex<Option<Mat>>>;

fn make_buffers(plan: &Plan, mode: ExecMode) -> Vec<Arc<AtomicF32Buffer>> {
    let size = if mode == ExecMode::Functional { plan.rows * plan.rank } else { 0 };
    plan.shards.iter().map(|_| Arc::new(AtomicF32Buffer::new(size))).collect()
}

fn reduce_output(plan: &Plan, buffers: &[Arc<AtomicF32Buffer>], mode: ExecMode) -> Mat {
    match mode {
        ExecMode::Dry => Mat::zeros(plan.rows, plan.rank),
        ExecMode::Functional => match plan.reduce {
            Reduce::Single => Mat::from_vec(plan.rows, plan.rank, buffers[0].to_vec()),
            Reduce::FoldShards => fold_shards(&plan.shards, buffers, plan.rows, plan.rank),
            // Per-job plans never fold: the canonical output is the group
            // lead's (shard 0); the full set returns via `shard_outputs`.
            Reduce::PerJob => Mat::from_vec(plan.rows, plan.rank, buffers[0].to_vec()),
        },
    }
}

/// Materializes every per-shard buffer as its own output matrix — the
/// per-job results of a [`Reduce::PerJob`] plan. Empty unless the run is
/// functional and the plan is per-job.
fn per_job_outputs(plan: &Plan, buffers: &[Arc<AtomicF32Buffer>], mode: ExecMode) -> Vec<Mat> {
    if mode != ExecMode::Functional || plan.reduce != Reduce::PerJob {
        return Vec::new();
    }
    buffers.iter().map(|b| Mat::from_vec(plan.rows, plan.rank, b.to_vec())).collect()
}

/// Host-side fold of the per-shard partial outputs, in shard-index order.
/// Slice-aligned shards copy their disjoint row blocks (bit-preserving);
/// row-overlapping shards sum in a deterministic shard-ordered
/// accumulation.
fn fold_shards(
    shards: &[ShardDesc],
    buffers: &[Arc<AtomicF32Buffer>],
    rows: usize,
    rank: usize,
) -> Mat {
    let mut out = Mat::zeros(rows, rank);
    for shard in shards {
        let partial = buffers[shard.index].to_vec();
        match shard.rows {
            Some((lo, hi)) => {
                for r in lo as usize..=hi as usize {
                    out.row_mut(r).copy_from_slice(&partial[r * rank..(r + 1) * rank]);
                }
            }
            None => out.axpy(1.0, &Mat::from_vec(rows, rank, partial)),
        }
    }
    out
}

fn submit_residue(
    gpu: &mut Gpu,
    stream: StreamId,
    plan: &Plan,
    dev: &DeviceOps,
    host_acc: &HostAcc,
    functional: bool,
) {
    let res = dev.residue.as_ref().expect("HostResidue op requires residue work");
    if functional {
        let tensor = Arc::clone(&res.tensor);
        let factors = Arc::clone(&plan.factors);
        let acc = Arc::clone(host_acc);
        let mode = plan.mode;
        gpu.host_task(stream, res.flops, res.bytes, res.label, move || {
            let m = reference::mttkrp_par(&tensor, &factors, mode);
            *acc.lock() = Some(m);
        });
    } else {
        gpu.host_task(stream, res.flops, res.bytes, res.label, || {});
    }
}

/// Executes one device's lowered op program. Returns the batch timeline
/// of this program only, plus its memory accounting.
fn run_device(
    gpu: &mut Gpu,
    plan: &Plan,
    dev: &DeviceOps,
    buffers: &[Arc<AtomicF32Buffer>],
    host_acc: &HostAcc,
    mode: ExecMode,
) -> (Timeline, DeviceMemStats) {
    // Stream creation order fixes the raw stream ids that appear in the
    // trace: host (hybrid residue) first, then workers, then the
    // dedicated D2H return stream.
    let host_stream = dev.residue.as_ref().map(|_| gpu.create_stream());
    let workers: Vec<StreamId> = (0..dev.worker_streams).map(|_| gpu.create_stream()).collect();
    let d2h_stream = if dev.dedicated_d2h { Some(gpu.create_stream()) } else { None };
    let resolve = |r: &StreamRef| match r {
        StreamRef::Worker(i) => workers[*i],
        StreamRef::D2h => d2h_stream.expect("plan uses the D2H stream but declared none"),
        StreamRef::Host => host_stream.expect("plan uses the host stream but declared none"),
    };

    // The program-local slot table: slot id → live pool allocation.
    // `transient` slots must be freed by the program itself; the dry-run
    // leak check below enforces it.
    let mut slots: Vec<Option<Allocation>> = Vec::new();
    let mut transient_slots: Vec<bool> = Vec::new();
    let mut stats = DeviceMemStats::default();
    let fill_slot = |slots: &mut Vec<Option<Allocation>>,
                     flags: &mut Vec<bool>,
                     slot: usize,
                     a: Allocation,
                     transient: bool| {
        if slot >= slots.len() {
            slots.resize_with(slot + 1, || None);
            flags.resize(slot + 1, false);
        }
        assert!(slots[slot].is_none(), "plan {:?}: Alloc into live slot {slot}", plan.name);
        slots[slot] = Some(a);
        flags[slot] = transient;
    };
    for op in plan.lower_device(dev) {
        match op {
            PlanOp::Alloc { slot, bytes, what, transient } => {
                let a = gpu.memory().alloc(bytes).expect(what);
                fill_slot(&mut slots, &mut transient_slots, slot, a, transient);
            }
            PlanOp::Free { slot } => {
                let a = slots[slot]
                    .take()
                    .unwrap_or_else(|| panic!("plan {:?}: Free of empty slot {slot}", plan.name));
                gpu.memory().free(a);
                stats.frees += 1;
            }
            PlanOp::Evict { stream, slot, writeback_bytes, label } => {
                if writeback_bytes > 0 {
                    gpu.d2h(resolve(&stream), writeback_bytes, label);
                }
                let a = slots[slot]
                    .take()
                    .unwrap_or_else(|| panic!("plan {:?}: Evict of empty slot {slot}", plan.name));
                gpu.memory().free(a);
                stats.evictions += 1;
            }
            PlanOp::Prefetch { stream, slot, bytes, what, label } => {
                let a = gpu.memory().alloc(bytes).expect(what);
                fill_slot(&mut slots, &mut transient_slots, slot, a, true);
                gpu.h2d(resolve(&stream), bytes, label);
                stats.prefetches += 1;
                stats.staged_bytes += bytes;
            }
            PlanOp::H2D { stream, bytes, label } => {
                gpu.h2d(resolve(&stream), bytes, label);
                stats.staged_bytes += bytes;
            }
            PlanOp::Launch { stream, unit, label, .. } => {
                let u = &dev.units[unit];
                if let Some(workload) = u.workload {
                    // Virtual unit: analytic workload, no tensor data to
                    // slice — the schedule is real, the numerics absent.
                    assert!(
                        mode == ExecMode::Dry,
                        "plan {:?}: virtual work units are dry-only (no data to compute on)",
                        plan.name
                    );
                    let cfg = plan.kernel.full_config(plan.config, plan.rank as u32);
                    gpu.launch(resolve(&stream), cfg, workload, label);
                    continue;
                }
                let shard = &plan.shards[u.shard];
                // A segment covering the whole shard (batched serving
                // plans launch one kernel per job) needs no copy.
                let piece = if u.seg.start == 0 && u.seg.end == shard.tensor.nnz() {
                    Arc::clone(&shard.tensor)
                } else {
                    Arc::new(shard.tensor.slice_range(u.seg.start, u.seg.end))
                };
                plan.kernel.enqueue(
                    gpu,
                    resolve(&stream),
                    plan.config,
                    piece,
                    Arc::clone(&plan.factors),
                    plan.mode,
                    (mode == ExecMode::Functional).then(|| Arc::clone(&buffers[u.shard])),
                    label,
                );
            }
            PlanOp::HostResidue { stream, .. } => {
                submit_residue(
                    gpu,
                    resolve(&stream),
                    plan,
                    dev,
                    host_acc,
                    mode == ExecMode::Functional,
                );
            }
            PlanOp::Barrier { record, wait } => {
                for r in &record {
                    let ev = gpu.record_event(resolve(r));
                    for w in &wait {
                        gpu.wait_event(resolve(w), ev);
                    }
                }
            }
            PlanOp::D2H { stream, bytes, label } => {
                gpu.d2h(resolve(&stream), bytes, label);
            }
            PlanOp::Reduce { .. } => {}
        }
    }
    // Leak check (dry runs): when the program ends, the only live slots
    // may be the persistent ones — a live transient buffer means a plan
    // builder forgot its Free/Evict and would monotonically consume the
    // pool on long plans.
    if mode == ExecMode::Dry {
        let leaked: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|&(i, s)| s.is_some() && transient_slots[i])
            .map(|(i, _)| i)
            .collect();
        assert!(
            leaked.is_empty(),
            "plan {:?}: transient slots {leaked:?} still live at end of device {} program \
             (end-of-plan live bytes must equal the persistent allocations)",
            plan.name,
            dev.device
        );
    }
    let timeline = gpu.synchronize();
    stats.peak_bytes = gpu.memory().peak();
    for a in slots.into_iter().flatten() {
        gpu.memory().free(a);
    }
    (timeline, stats)
}

fn trivial_outcomes(plan: &Plan) -> Vec<UnitOutcome> {
    let mut v = Vec::new();
    for (si, segs) in plan.seg_lists.iter().enumerate() {
        for j in 0..segs.len() {
            v.push(UnitOutcome { shard: si, segment: j, attempts: 1, completed: true });
        }
    }
    v
}

/// Executes a single-device plan on the caller's GPU (fault-free).
pub fn run_plan_on(gpu: &mut Gpu, plan: &Plan, mode: ExecMode) -> ExecOutcome {
    assert_eq!(plan.devices.len(), 1, "run_plan_on executes single-device plans");
    let dev = &plan.devices[0];
    let buffers = make_buffers(plan, mode);
    let host_acc: HostAcc = Arc::new(Mutex::new(None));
    let (timeline, mem) = run_device(gpu, plan, dev, &buffers, &host_acc, mode);
    let mut output = reduce_output(plan, &buffers, mode);
    if let Some(host_m) = host_acc.lock().take() {
        output.axpy(1.0, &host_m);
    }
    let shard_outputs = per_job_outputs(plan, &buffers, mode);
    let outcomes = trivial_outcomes(plan);
    let total = outcomes.len();
    ExecOutcome {
        output,
        shard_outputs,
        trace: PlanTrace::from_timelines([(0, &timeline)]),
        device_timelines: vec![timeline.clone()],
        device_shards: vec![dev.shard_list.clone()],
        timeline,
        reduction_s: plan.reduction_s,
        outcomes,
        retries: 0,
        replaced_segments: 0,
        completed_segments: total,
        total_items: total,
        dead_devices: Vec::new(),
        mem: vec![mem],
    }
}

/// Executes any plan fault-free, instantiating one simulated GPU per
/// device from the plan's specs.
pub fn run_plan(plan: &Plan, mode: ExecMode) -> ExecOutcome {
    let buffers = make_buffers(plan, mode);
    let host_acc: HostAcc = Arc::new(Mutex::new(None));
    let mut device_timelines = Vec::with_capacity(plan.devices.len());
    let mut mem = Vec::with_capacity(plan.devices.len());
    for dev in &plan.devices {
        if dev.skip_if_idle && dev.units.is_empty() {
            device_timelines.push(Timeline::default());
            mem.push(DeviceMemStats::default());
            continue;
        }
        let mut gpu = match &dev.host {
            Some(h) => Gpu::with_host(dev.spec.clone(), h.clone()),
            None => Gpu::new(dev.spec.clone()),
        };
        let (tl, m) = run_device(&mut gpu, plan, dev, &buffers, &host_acc, mode);
        device_timelines.push(tl);
        mem.push(m);
    }
    let mut output = reduce_output(plan, &buffers, mode);
    if let Some(host_m) = host_acc.lock().take() {
        output.axpy(1.0, &host_m);
    }
    let shard_outputs = per_job_outputs(plan, &buffers, mode);
    let outcomes = trivial_outcomes(plan);
    let total = outcomes.len();
    ExecOutcome {
        output,
        shard_outputs,
        trace: PlanTrace::from_timelines(device_timelines.iter().enumerate()),
        timeline: device_timelines.first().cloned().unwrap_or_default(),
        device_shards: plan.devices.iter().map(|d| d.shard_list.clone()).collect(),
        device_timelines,
        reduction_s: plan.reduction_s,
        outcomes,
        retries: 0,
        replaced_segments: 0,
        completed_segments: total,
        total_items: total,
        dead_devices: Vec::new(),
        mem,
    }
}

// ---------------------------------------------------------------------
// Resilient execution
// ---------------------------------------------------------------------

/// Mutable wave state of one device, kept across re-placement rounds so a
/// survivor absorbs rescued work on its existing clock.
#[derive(Default)]
struct WaveState {
    next_stream: usize,
    allocated: HashSet<(usize, usize)>,
    done: Vec<(usize, usize)>,
}

type Item = (usize, usize);

/// The `(lost, orphans, retries, attempts, dead)` outcome of one
/// [`drive_waves`] call.
type DriveOutcome = (Vec<Item>, Vec<Item>, usize, HashMap<Item, u32>, bool);

/// Drives `pending` work items (`(shard, segment)` pairs) on device `d`
/// in retry waves: poll the injector before every H2D and kernel, charge
/// corrupted transfers and aborted kernels, back off exponentially
/// between attempts. Kernels are timing-only — numerics come from the
/// deterministic replay afterwards, so retries can never reorder the
/// accumulation.
///
/// `wait_in_place` selects the down-device semantics: a single-device run
/// waits transient outages out and loses everything on a permanent
/// failure; a multi-device run abandons the device so the re-shard path
/// can rescue its orphans.
#[allow(clippy::too_many_arguments)]
fn drive_waves(
    gpu: &mut Gpu,
    streams: &[StreamId],
    allocs: &mut Vec<Allocation>,
    st: &mut WaveState,
    plan: &Plan,
    d: usize,
    mut pending: Vec<Item>,
    injector: &mut FaultInjector,
    policy: &FaultRecoveryPolicy,
    wait_in_place: bool,
) -> DriveOutcome {
    let retry_allowed = policy.mode != RecoveryMode::NoRetry;
    let mut att: HashMap<Item, u32> = HashMap::new();
    let mut lost = Vec::new();
    let mut retries = 0usize;
    while !pending.is_empty() {
        let now = gpu.clock();
        let mut failed: Vec<Item> = Vec::new();
        // `Some(until)` once the device goes down this wave; every later
        // poll in the wave sees the same down state from the injector.
        let mut down: Option<Option<f64>> = None;
        for &(si, j) in &pending {
            let a = att.entry((si, j)).or_insert(0);
            *a += 1;
            let attempt = *a;
            let seg = &plan.seg_lists[si][j];
            let stream = match &plan.static_streams {
                Some(tbl) => streams[tbl[si][j]],
                None => {
                    let s = streams[st.next_stream % streams.len()];
                    st.next_stream += 1;
                    s
                }
            };
            if attempt > 1 {
                retries += 1;
                let backoff = policy.retry.backoff_s(attempt);
                if backoff > 0.0 {
                    gpu.stall(stream, backoff, format!("{} backoff", plan.tag(si, j)));
                }
                injector.record_recovery(
                    d,
                    now,
                    RecoveryAction::RetrySegment { shard: si, segment: j, attempt },
                );
            }
            let bytes = seg.byte_size(plan.order) as u64;
            if st.allocated.insert((si, j)) {
                allocs.push(gpu.memory().alloc(bytes).expect(plan.seg_alloc_what));
            }
            match injector.on_op(d, OpClass::H2D, now) {
                OpVerdict::DeviceDown { until_s } => {
                    down = Some(until_s);
                    failed.push((si, j));
                    continue;
                }
                verdict => {
                    gpu.h2d(stream, bytes, format!("{} H2D try{attempt}", plan.tag(si, j)));
                    // ECC-style detection: every transfer pays a host-side
                    // checksum scan over the segment.
                    gpu.host_task(
                        stream,
                        seg.nnz() as u64,
                        bytes,
                        format!("{} checksum", plan.tag(si, j)),
                        || {},
                    );
                    if verdict == OpVerdict::Corrupted {
                        failed.push((si, j));
                        continue;
                    }
                }
            }
            match injector.on_op(d, OpClass::Kernel, now) {
                OpVerdict::DeviceDown { until_s } => {
                    down = Some(until_s);
                    failed.push((si, j));
                    continue;
                }
                verdict => {
                    let piece = Arc::new(plan.shards[si].tensor.slice_range(seg.start, seg.end));
                    plan.kernel.enqueue(
                        gpu,
                        stream,
                        plan.config,
                        piece,
                        Arc::clone(&plan.factors),
                        plan.mode,
                        None,
                        format!("{} kernel try{attempt}", plan.tag(si, j)),
                    );
                    // An aborted kernel is charged its full cost too.
                    if verdict == OpVerdict::Aborted {
                        failed.push((si, j));
                        continue;
                    }
                }
            }
            st.done.push((si, j));
        }
        gpu.synchronize();
        if wait_in_place {
            pending = failed.into_iter().filter(|it| att[it] < policy.retry.max_attempts).collect();
            if let Some(until) = down {
                match until {
                    // Transient outage: wait it out (if anything is left
                    // to retry), then resume.
                    Some(u) if !pending.is_empty() => gpu.advance_to(u),
                    Some(_) => {}
                    // Permanent failure: everything still pending is lost.
                    None => pending.clear(),
                }
            }
        } else {
            let (keep, dropped): (Vec<_>, Vec<_>) = failed
                .into_iter()
                .partition(|it| retry_allowed && att[it] < policy.retry.max_attempts);
            match down {
                Some(Some(until)) if retry_allowed => {
                    // Transient outage: wait it out, then retry the wave.
                    gpu.advance_to(until);
                    lost.extend(dropped);
                    pending = keep;
                }
                Some(_) => {
                    // Permanent failure (or any outage under no-retry):
                    // the device is gone; everything unfinished is
                    // orphaned and may be rescued by re-placement.
                    let mut orphans = keep;
                    orphans.extend(dropped);
                    return (lost, orphans, retries, att, true);
                }
                None => {
                    lost.extend(dropped);
                    pending = keep;
                }
            }
        }
    }
    (lost, Vec::new(), retries, att, false)
}

/// Replays the completed items functionally, in shard-then-segment order,
/// on a scratch device — the same per-buffer accumulation order as the
/// fault-free interpreter, so recovery is invisible to the numerics.
fn replay_completed(plan: &Plan, done: &HashSet<Item>, buffers: &[Arc<AtomicF32Buffer>]) {
    let mut scratch = Gpu::new(plan.replay_spec.clone());
    let s = scratch.create_stream();
    for (si, segs) in plan.seg_lists.iter().enumerate() {
        for (j, seg) in segs.iter().enumerate() {
            if !done.contains(&(si, j)) {
                continue;
            }
            let label = if plan.tag_shards {
                format!("replay shard{si} seg{j}")
            } else {
                format!("replay seg{j}")
            };
            plan.kernel.enqueue(
                &mut scratch,
                s,
                plan.config,
                Arc::new(plan.shards[si].tensor.slice_range(seg.start, seg.end)),
                Arc::clone(&plan.factors),
                plan.mode,
                Some(Arc::clone(&buffers[si])),
                label,
            );
        }
    }
    scratch.synchronize();
}

/// Executes a single-device plan on the caller's GPU under fault
/// injection. `device_id` names the device to the injector. The hybrid
/// residue (when present) participates: an aborted or corrupted host fold
/// is charged and retried under the same backoff schedule.
pub fn run_plan_resilient_on(
    gpu: &mut Gpu,
    plan: &Plan,
    device_id: usize,
    injector: &mut FaultInjector,
    policy: &FaultRecoveryPolicy,
    mode: ExecMode,
) -> ExecOutcome {
    assert!(policy.retry.max_attempts >= 1, "at least one attempt is required");
    assert_eq!(plan.devices.len(), 1, "run_plan_resilient_on executes single-device plans");
    let dev = &plan.devices[0];

    let host_stream = dev.residue.as_ref().map(|_| gpu.create_stream());
    let streams: Vec<StreamId> = (0..dev.worker_streams).map(|_| gpu.create_stream()).collect();
    let mut allocs: Vec<Allocation> = plan
        .resilient_prologue
        .iter()
        .map(|&(bytes, what)| gpu.memory().alloc(bytes).expect(what))
        .collect();

    gpu.h2d(streams[0], plan.factors_bytes, "factors H2D");
    let factors_ready = gpu.record_event(streams[0]);
    for &s in &streams[1..] {
        gpu.wait_event(s, factors_ready);
    }
    if plan.sync_after_prologue {
        gpu.synchronize();
    }

    // The hybrid residue runs through the same retry discipline as device
    // segments: a corrupted or aborted host fold is charged (the cost of
    // the failed pass) and resubmitted after backoff.
    let host_acc: HostAcc = Arc::new(Mutex::new(None));
    if dev.residue.is_some() {
        let hs = host_stream.expect("created above");
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let now = gpu.clock();
            if attempt > 1 {
                let backoff = policy.retry.backoff_s(attempt);
                if backoff > 0.0 {
                    gpu.stall(hs, backoff, "host residue backoff".to_string());
                }
            }
            match injector.on_op(device_id, OpClass::Kernel, now) {
                OpVerdict::DeviceDown { .. } => break,
                OpVerdict::Ok => {
                    submit_residue(gpu, hs, plan, dev, &host_acc, mode == ExecMode::Functional);
                    break;
                }
                _corrupted_or_aborted => {
                    submit_residue(gpu, hs, plan, dev, &host_acc, false);
                    if attempt >= policy.retry.max_attempts {
                        break;
                    }
                }
            }
        }
    }

    let items: Vec<Item> =
        (0..plan.seg_lists.first().map_or(0, Vec::len)).map(|j| (0usize, j)).collect();
    let mut st = WaveState::default();
    let (_lost, _orphans, retries, att, _dead) = drive_waves(
        gpu,
        &streams,
        &mut allocs,
        &mut st,
        plan,
        device_id,
        items,
        injector,
        policy,
        true,
    );

    // One D2H of whatever the device accumulated, ordered after all work.
    let done_events: Vec<_> = streams.iter().map(|&s| gpu.record_event(s)).collect();
    for ev in done_events {
        gpu.wait_event(streams[0], ev);
    }
    let (final_bytes, final_label) =
        dev.final_d2h.expect("single-device resilient plans return their output");
    gpu.d2h(streams[0], final_bytes, final_label.to_string());
    gpu.synchronize();
    for a in allocs {
        gpu.memory().free(a);
    }

    let done: HashSet<Item> = st.done.iter().copied().collect();
    let buffers = make_buffers(plan, mode);
    if mode == ExecMode::Functional {
        replay_completed(plan, &done, &buffers);
    }
    let mut output = reduce_output(plan, &buffers, mode);
    if let Some(host_m) = host_acc.lock().take() {
        output.axpy(1.0, &host_m);
    }

    let total_items = plan.total_items();
    let outcomes: Vec<UnitOutcome> = (0..total_items)
        .map(|j| UnitOutcome {
            shard: 0,
            segment: j,
            attempts: att.get(&(0, j)).copied().unwrap_or(0),
            completed: done.contains(&(0, j)),
        })
        .collect();
    let timeline = gpu.full_timeline().clone();
    ExecOutcome {
        output,
        trace: PlanTrace::from_timelines([(0, &timeline)]),
        device_timelines: vec![timeline.clone()],
        device_shards: vec![done
            .iter()
            .map(|&(si, _)| si)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()],
        timeline,
        reduction_s: plan.reduction_s,
        completed_segments: done.len(),
        outcomes,
        retries,
        replaced_segments: 0,
        total_items,
        dead_devices: Vec::new(),
        // Resilient waves alloc lazily outside the slot machinery: only
        // the pool watermark is meaningful here.
        mem: vec![DeviceMemStats { peak_bytes: gpu.memory().peak(), ..Default::default() }],
        shard_outputs: Vec::new(),
    }
}

/// One device's live execution context across re-placement rounds.
struct Ctx {
    gpu: Gpu,
    streams: Vec<StreamId>,
    d2h_stream: Option<StreamId>,
    st: WaveState,
    allocs: Vec<Allocation>,
    dead: bool,
}

/// Brings up device `d`: simulated GPU (derated if the device is
/// straggling), streams, factor upload. Synchronised (per the plan) so
/// the clock can be advanced before rescued work lands.
fn make_ctx(plan: &Plan, dev: &DeviceOps, derate: f64) -> Ctx {
    let mut spec = dev.spec.clone();
    if derate > 1.0 {
        spec = spec.derated(derate);
    }
    let mut gpu = match &dev.host {
        Some(h) => Gpu::with_host(spec, h.clone()),
        None => Gpu::new(spec),
    };
    let streams: Vec<StreamId> = (0..dev.worker_streams).map(|_| gpu.create_stream()).collect();
    let d2h_stream = if dev.dedicated_d2h { Some(gpu.create_stream()) } else { None };
    let mut allocs = Vec::new();
    for &(bytes, what) in &plan.resilient_prologue {
        allocs.push(gpu.memory().alloc(bytes).expect(what));
    }
    gpu.h2d(streams[0], plan.factors_bytes, "factors H2D");
    let factors_ready = gpu.record_event(streams[0]);
    for &s in &streams[1..] {
        gpu.wait_event(s, factors_ready);
    }
    if plan.sync_after_prologue {
        gpu.synchronize();
    }
    Ctx { gpu, streams, d2h_stream, st: WaveState::default(), allocs, dead: false }
}

fn ensure_ctx<'a>(
    ctxs: &'a mut [Option<Ctx>],
    plan: &Plan,
    d: usize,
    now_s: f64,
    injector: &mut FaultInjector,
) -> &'a mut Ctx {
    if ctxs[d].is_none() {
        let derate = match injector.health_at(d, now_s) {
            DeviceHealth::Straggling { derate } => derate,
            _ => 1.0,
        };
        ctxs[d] = Some(make_ctx(plan, &plan.devices[d], derate));
    }
    ctxs[d].as_mut().expect("just created")
}

fn shard_d2h_bytes(shard: &ShardDesc, rank: usize, full_out_bytes: u64) -> u64 {
    match shard.rows {
        Some((lo, hi)) => ((hi - lo + 1) as u64) * rank as u64 * 4,
        None => full_out_bytes,
    }
}

/// Executes a multi-device plan under fault injection: bring-up health
/// checks exclude devices down at t = 0, each device drives its items in
/// retry waves, and (under [`RecoveryMode::RetryReShard`]) a dead
/// device's orphans re-place onto survivors via the plan's
/// [`ClusterPolicy`], no earlier than the simulated time the failure was
/// observed.
pub fn run_plan_resilient(
    plan: &Plan,
    injector: &mut FaultInjector,
    policy: &FaultRecoveryPolicy,
    mode: ExecMode,
) -> ExecOutcome {
    assert!(policy.retry.max_attempts >= 1, "at least one attempt is required");
    let cluster =
        plan.cluster.as_ref().expect("multi-device resilient execution needs a cluster policy");
    let n = plan.devices.len();
    let rank = plan.rank;
    let rows = plan.rows;
    let out_bytes = (rows * rank * 4) as u64;
    let total_items = plan.total_items();
    let buffers = make_buffers(plan, mode);

    // Bring-up health check: devices already down at t = 0 receive no
    // work (failure detection at admission is cheap); stragglers run but
    // derated. Mid-run faults are what the recovery modes differ on.
    let mut dead = vec![false; n];
    for (d, slot) in dead.iter_mut().enumerate() {
        if let DeviceHealth::Down { .. } = injector.health_at(d, 0.0) {
            *slot = true;
        }
    }
    let alive: Vec<usize> = (0..n).filter(|&d| !dead[d]).collect();

    // Initial placement over the healthy devices only.
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); n];
    if !alive.is_empty() {
        assignment = cluster.assign(&alive);
    }
    // Reduction-stage ownership: updated when shards re-place.
    let mut owner: Vec<Option<usize>> = vec![None; plan.shards.len()];
    for (d, list) in assignment.iter().enumerate() {
        for &si in list {
            owner[si] = Some(d);
        }
    }

    let mut ctxs: Vec<Option<Ctx>> = (0..n).map(|_| None).collect();
    let mut lost: Vec<Item> = Vec::new();
    let mut orphans: Vec<Item> = Vec::new();
    let mut rescued: HashSet<Item> = HashSet::new();
    let mut attempts: HashMap<Item, u32> = HashMap::new();
    let mut retries = 0usize;
    // Rescued work cannot start before the failure was observed.
    let mut fail_clock = 0.0f64;

    let merge_att = |total: &mut HashMap<Item, u32>, att: HashMap<Item, u32>| {
        for (k, v) in att {
            *total.entry(k).or_insert(0) += v;
        }
    };

    for d in 0..n {
        let items: Vec<Item> = assignment[d]
            .iter()
            .flat_map(|&si| (0..plan.seg_lists[si].len()).map(move |j| (si, j)))
            .collect();
        if items.is_empty() {
            continue;
        }
        let ctx = ensure_ctx(&mut ctxs, plan, d, 0.0, injector);
        let (l, o, r, att, died) = drive_waves(
            &mut ctx.gpu,
            &ctx.streams.clone(),
            &mut ctx.allocs,
            &mut ctx.st,
            plan,
            d,
            items,
            injector,
            policy,
            false,
        );
        merge_att(&mut attempts, att);
        retries += r;
        lost.extend(l);
        if died {
            ctx.dead = true;
        }
        if !o.is_empty() {
            dead[d] = true;
            fail_clock = fail_clock.max(ctx.gpu.clock());
            orphans.extend(o);
        }
    }

    // Re-placement rounds: re-run the placement policy over the surviving
    // devices for the orphaned work, until everything is placed or no
    // device remains.
    while !orphans.is_empty() {
        if policy.mode != RecoveryMode::RetryReShard {
            lost.append(&mut orphans);
            break;
        }
        let survivors: Vec<usize> = (0..n).filter(|&d| !dead[d]).collect();
        if survivors.is_empty() {
            lost.append(&mut orphans);
            break;
        }
        orphans.sort_unstable();
        let mut by_shard: BTreeMap<usize, Vec<Item>> = BTreeMap::new();
        for it in orphans.drain(..) {
            by_shard.entry(it.0).or_default().push(it);
        }
        let mut extra: Vec<Vec<Item>> = vec![Vec::new(); n];
        match cluster.strategy() {
            PlaceStrategy::RoundRobin => {
                for (k, (si, items)) in by_shard.into_iter().enumerate() {
                    let target = survivors[k % survivors.len()];
                    reshard(injector, &mut owner, si, target, fail_clock);
                    rescued.extend(items.iter().copied());
                    extra[target].extend(items);
                }
            }
            PlaceStrategy::Lpt => {
                // LPT over the survivors: projected finish = current
                // device clock + orphan bytes / end-to-end speed proxy.
                let speeds: Vec<f64> = survivors.iter().map(|&d| cluster.speed_proxy(d)).collect();
                let mut load: Vec<f64> = survivors
                    .iter()
                    .map(|&d| ctxs[d].as_ref().map_or(0.0, |c| c.gpu.clock()).max(fail_clock))
                    .collect();
                let group_bytes = |si: usize, items: &[Item]| -> u64 {
                    items
                        .iter()
                        .map(|&(_, j)| plan.seg_lists[si][j].byte_size(plan.order) as u64)
                        .sum()
                };
                let mut groups: Vec<(usize, Vec<Item>)> = by_shard.into_iter().collect();
                groups.sort_by(|a, b| {
                    group_bytes(b.0, &b.1).cmp(&group_bytes(a.0, &a.1)).then(a.0.cmp(&b.0))
                });
                for (si, items) in groups {
                    let bytes = group_bytes(si, &items) as f64;
                    let best = (0..survivors.len())
                        .min_by(|&a, &b| {
                            let ca = load[a] + bytes / (speeds[a] * 1e9);
                            let cb = load[b] + bytes / (speeds[b] * 1e9);
                            ca.partial_cmp(&cb).expect("finite loads").then(a.cmp(&b))
                        })
                        .expect("survivors is non-empty");
                    load[best] += bytes / (speeds[best] * 1e9);
                    reshard(injector, &mut owner, si, survivors[best], fail_clock);
                    rescued.extend(items.iter().copied());
                    extra[survivors[best]].extend(items);
                }
            }
        }
        for d in survivors {
            if extra[d].is_empty() {
                continue;
            }
            let ctx = ensure_ctx(&mut ctxs, plan, d, fail_clock, injector);
            ctx.gpu.advance_to(fail_clock);
            let (l, o, r, att, died) = drive_waves(
                &mut ctx.gpu,
                &ctx.streams.clone(),
                &mut ctx.allocs,
                &mut ctx.st,
                plan,
                d,
                std::mem::take(&mut extra[d]),
                injector,
                policy,
                false,
            );
            merge_att(&mut attempts, att);
            retries += r;
            lost.extend(l);
            if died {
                ctx.dead = true;
            }
            if !o.is_empty() {
                dead[d] = true;
                fail_clock = fail_clock.max(ctx.gpu.clock());
                orphans.extend(o);
            }
        }
    }

    // Return partial outputs on each surviving device's D2H stream,
    // scaled by the fraction of the shard it actually completed.
    for slot in ctxs.iter_mut().take(n) {
        let Some(ctx) = slot.as_mut() else { continue };
        if ctx.dead || plan.peer_reduce {
            continue;
        }
        let mut per_shard: BTreeMap<usize, usize> = BTreeMap::new();
        for &(si, _) in &ctx.st.done {
            *per_shard.entry(si).or_insert(0) += 1;
        }
        if per_shard.is_empty() {
            continue;
        }
        let d2h_stream = ctx.d2h_stream.expect("multi-device plans return on the D2H stream");
        let worker_streams = ctx.streams.clone();
        let evs: Vec<_> = worker_streams.iter().map(|&s| ctx.gpu.record_event(s)).collect();
        for ev in evs {
            ctx.gpu.wait_event(d2h_stream, ev);
        }
        for (si, cnt) in per_shard {
            let full = shard_d2h_bytes(&plan.shards[si], rank, out_bytes) as f64;
            let frac = cnt as f64 / plan.seg_lists[si].len() as f64;
            let bytes = ((full * frac).ceil() as u64).max(1);
            ctx.gpu.d2h(d2h_stream, bytes, format!("shard{si} D2H"));
        }
        ctx.gpu.synchronize();
    }

    let done: HashSet<Item> =
        ctxs.iter().flatten().flat_map(|c| c.st.done.iter().copied()).collect();
    let completed_segments = done.len();
    let replaced_segments = rescued.intersection(&done).count();

    let mut device_timelines = Vec::with_capacity(n);
    let mut device_shards = Vec::with_capacity(n);
    let mut mem = Vec::with_capacity(n);
    for slot in ctxs.iter_mut() {
        match slot {
            Some(ctx) => {
                mem.push(DeviceMemStats {
                    peak_bytes: ctx.gpu.memory().peak(),
                    ..Default::default()
                });
                for a in ctx.allocs.drain(..) {
                    ctx.gpu.memory().free(a);
                }
                device_shards.push(
                    ctx.st
                        .done
                        .iter()
                        .map(|&(si, _)| si)
                        .collect::<BTreeSet<_>>()
                        .into_iter()
                        .collect(),
                );
                device_timelines.push(ctx.gpu.full_timeline().clone());
            }
            None => {
                device_shards.push(Vec::new());
                device_timelines.push(Timeline::default());
                mem.push(DeviceMemStats::default());
            }
        }
    }

    let mut final_assignment: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (si, o) in owner.iter().enumerate() {
        if let Some(d) = o {
            final_assignment[*d].push(si);
        }
    }
    let reduction_s = cluster.reduction_s(&final_assignment);

    if mode == ExecMode::Functional {
        replay_completed(plan, &done, &buffers);
    }
    let output = reduce_output(plan, &buffers, mode);

    let mut outcomes = Vec::with_capacity(total_items);
    for (si, segs) in plan.seg_lists.iter().enumerate() {
        for j in 0..segs.len() {
            outcomes.push(UnitOutcome {
                shard: si,
                segment: j,
                attempts: attempts.get(&(si, j)).copied().unwrap_or(0),
                completed: done.contains(&(si, j)),
            });
        }
    }

    ExecOutcome {
        output,
        trace: PlanTrace::from_timelines(device_timelines.iter().enumerate()),
        timeline: device_timelines.first().cloned().unwrap_or_default(),
        device_timelines,
        device_shards,
        reduction_s,
        outcomes,
        retries,
        replaced_segments,
        completed_segments,
        total_items,
        dead_devices: (0..n).filter(|&d| dead[d]).collect(),
        mem,
        shard_outputs: Vec::new(),
    }
}

/// Records one shard re-placement in the fault log and the reduction
/// ownership table.
fn reshard(
    injector: &mut FaultInjector,
    owner: &mut [Option<usize>],
    si: usize,
    target: usize,
    now_s: f64,
) {
    injector.record_recovery(
        target,
        now_s,
        RecoveryAction::ReShard {
            shard: si,
            from_device: owner[si].unwrap_or(target),
            to_device: target,
        },
    );
    owner[si] = Some(target);
}
