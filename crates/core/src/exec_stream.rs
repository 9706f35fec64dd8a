//! The per-stream node interpreter of the functional engine.
//!
//! [`crate::dag::exec`] keeps one [`StreamExec`] per stream behind that
//! stream's lock; whichever thread pops one of the stream's ready nodes
//! — the caller at `workers = 0`, a pool worker otherwise — runs it
//! here, handing it the [`DagNode`] to execute. The stream-bound ops
//! (staging copies, transfers, device sorts) run through this
//! interpreter — which reads nothing but the node it is handed and the
//! plan's geometry, and records its span where
//! [`crate::dag::node_span`] places it — and it owns the stream's pinned
//! and device buffers (freed by [`StreamExec::release`] once the stream
//! has run its last node) and implements the per-batch failure model:
//!
//! * every device-buffer growth, HtoD, DtoH, and device sort consults
//!   the configured [`FaultInjector`] (if any);
//! * transient transfer faults are retried up to
//!   [`RecoveryPolicy::max_retries`] times, at once — each retry
//!   consults the injector again, so a schedule that faults occurrence
//!   `k` but not `k+1` models a fault one retry clears. Whether a retry
//!   clears is decided by that occurrence count, never by elapsed time,
//!   and simulated time comes from the plan, so a host sleep between
//!   attempts would change no outcome and only idle the thread;
//! * GPU OOM halves the effective device buffer (`b_s/2` for the
//!   affected remainder) and sorts the batch in device-sized sub-runs
//!   merged host-side ([`Mode::Split`] — the GPU still does the
//!   sorting);
//! * an unrecoverable batch (exhausted retries, failed device sort,
//!   OOM with splitting disabled) gives up: when the policy allows CPU
//!   fallback, [`StreamExec::step`] returns [`Route::Degraded`] and the
//!   engine host-sorts the batch straight from `A`, skipping its
//!   remaining nodes; otherwise the fault propagates as a typed
//!   [`HetSortError`] naming the exact step and batch.
//!
//! When the run records a trace, the interpreter logs the [`Route`]
//! each node took; the executed trace derives the node's accesses from
//! it. Batches handled host-side bypass the DMA path, so later transfer
//! occurrences shift relative to a fault-free run; schedules are
//! defined over *attempted* operations, which keeps replay
//! deterministic for a given schedule and policy.

use std::time::Instant;

use hetsort_algos::keys::{RadixKey, SortOrd};
use hetsort_algos::mem::huge_resize;
use hetsort_algos::multiway::par_multiway_merge_into_cfg;
use hetsort_algos::par::{par_copy, SchedCfg};
use hetsort_algos::radix_par::par_radix_sort_cfg;
use hetsort_obs::ObsSpan;
use hetsort_vgpu::{FaultInjector, FaultSite, TransferDir};

use crate::config::RecoveryPolicy;
use crate::dag::{node_span, DagNode, DagOp};
use crate::error::HetSortError;
use crate::optrace::Route;
use crate::plan::{BatchInfo, Outbound, Plan};
use crate::pool::BufferPool;
use crate::report::RecoveryStats;

/// How the current batch is being processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Normal GPU path: the whole batch fits the device buffer.
    Device,
    /// OOM recovery: the batch is staged host-side and sorted in
    /// device-sized sub-runs the CPU merges.
    Split,
}

/// One stream's executor state: buffers, fault handling, recovery.
pub(crate) struct StreamExec<'a, T> {
    plan: &'a Plan,
    data: &'a [T],
    injector: Option<&'a FaultInjector>,
    policy: RecoveryPolicy,
    /// Split-mode merge workers (the engine's merge width).
    host_threads: usize,
    /// Workers of every device batch sort and Split sub-run.
    sort_threads: usize,
    /// Host↔pinned staging copy workers: the host's under PARMEMCPY,
    /// else one.
    memcpy_threads: usize,
    /// CPU scheduling policy for merges, sorts, and staging copies.
    sched: SchedCfg,
    pinned_in: Vec<T>,
    pinned_out: Vec<T>,
    device: Vec<T>,
    /// Effective device buffer capacity in elements; halved on OOM
    /// (`usize::MAX` until the first OOM).
    device_cap: usize,
    mode: Mode,
    /// Staging for Split batches (holds the whole batch).
    host_batch: Vec<T>,
    /// Recycled scratch buffers (Split-mode merge outputs), so repeated
    /// recoveries stop zero-initializing a fresh batch-sized vector.
    pub(crate) pool: BufferPool<T>,
    /// Per-stream recovery counters (merged by the caller).
    pub(crate) stats: RecoveryStats,
    /// When `config.record_trace` is set: the route each node took,
    /// `(node id, route)`, from which the executed trace derives the
    /// node's accesses.
    pub(crate) routes: Vec<(usize, Route)>,
    /// Run origin shared by every stream of the run, so span timestamps
    /// from different worker threads are directly comparable.
    t0: Instant,
    /// One observability span per executed step (always on: host-scale
    /// steps cost milliseconds, a span record costs nanoseconds).
    pub(crate) span_log: Vec<ObsSpan>,
}

impl<'a, T> StreamExec<'a, T>
where
    T: RadixKey + SortOrd + Default,
{
    /// Fresh state for a stream of `plan` over `data`, with the
    /// engine's merge, sort and copy widths. `t0` is the run origin
    /// every stream of the run shares.
    pub(crate) fn new(
        plan: &'a Plan,
        data: &'a [T],
        host_threads: usize,
        sort_threads: usize,
        memcpy_threads: usize,
        t0: Instant,
    ) -> Self {
        StreamExec {
            plan,
            data,
            injector: plan.config.faults.as_deref(),
            policy: plan.config.recovery,
            host_threads,
            sort_threads,
            memcpy_threads,
            sched: SchedCfg::default(),
            pinned_in: Vec::new(),
            pinned_out: Vec::new(),
            device: Vec::new(),
            device_cap: usize::MAX,
            mode: Mode::Device,
            host_batch: Vec::new(),
            pool: BufferPool::new(),
            stats: RecoveryStats::default(),
            routes: Vec::new(),
            t0,
            span_log: Vec::new(),
        }
    }

    /// Free every buffer the stream holds — device, pinned staging,
    /// recovery staging and the pool's recycled scratch — once it has
    /// run its last node. Counters and logs stay for the engine's fold.
    pub(crate) fn release(&mut self) {
        self.device = Vec::new();
        self.pinned_in = Vec::new();
        self.pinned_out = Vec::new();
        self.host_batch = Vec::new();
        self.pool.clear();
    }

    /// Record one device operation against the batch's physical GPU.
    ///
    /// A [`HetSortError::DeviceLost`] here is *not* absorbed by the
    /// CPU-fallback policy: losing a device invalidates every batch
    /// scheduled on it, so the error must reach the executor, which
    /// re-plans the unfinished work on the survivors.
    fn device_check(&self, b: &BatchInfo) -> Result<(), HetSortError> {
        let gpu = self.plan.physical_gpu(b.gpu);
        match self.injector {
            Some(inj) if !inj.device_op(gpu) => Err(HetSortError::DeviceLost { gpu }),
            _ => Ok(()),
        }
    }

    /// Attempt a DMA operation at `site`: consult the injector, retrying
    /// per policy. `Err(attempts)` when every attempt faulted.
    fn dma(&mut self, site: FaultSite) -> Result<(), usize> {
        let Some(inj) = self.injector else {
            return Ok(());
        };
        let mut attempts = 1usize;
        while inj.trip(site).is_some() {
            if attempts > self.policy.max_retries {
                return Err(attempts);
            }
            self.stats.retries += 1;
            attempts += 1;
        }
        Ok(())
    }

    /// Give the current batch up to the engine's host sort, or name
    /// `fault` when the policy forbids that.
    fn give_up(&mut self, fault: HetSortError) -> Result<Route, HetSortError> {
        if !self.policy.cpu_fallback {
            return Err(fault);
        }
        self.stats.degraded_batches += 1;
        Ok(Route::Degraded)
    }

    /// Log `route` as node `si`'s when the run records a trace.
    pub(crate) fn log_route(&mut self, si: usize, route: Route) {
        if self.plan.config.record_trace {
            self.routes.push((si, route));
        }
    }

    /// Switch the current batch to sub-run splitting (`want` elements).
    fn enter_split(&mut self, want: usize) {
        self.mode = Mode::Split;
        self.stats.oom_replans += 1;
        let cap = self.device_cap.min(want).max(1);
        if self.device.len() < cap {
            huge_resize(&mut self.device, cap, T::default());
        }
        huge_resize(&mut self.host_batch, want, T::default());
    }

    /// Start a new batch: decide its mode and (maybe) grow the device
    /// buffer — the `cudaMalloc` stand-in, and the OOM fault site. `Err`
    /// is the OOM splitting did not absorb.
    fn begin_batch(&mut self, b: &BatchInfo) -> Result<(), HetSortError> {
        self.mode = Mode::Device;
        self.host_batch.clear();
        let want = b.len;
        if want > self.device_cap {
            // A previous OOM shrank this stream's buffer: the remainder
            // of the run keeps the halved batch capacity.
            self.enter_split(want);
            return Ok(());
        }
        if self.device.len() >= want {
            return Ok(());
        }
        let tripped = self
            .injector
            .is_some_and(|i| i.trip(FaultSite::DeviceAlloc).is_some());
        if !tripped {
            huge_resize(&mut self.device, want, T::default());
            return Ok(());
        }
        if self.policy.split_on_oom {
            self.device_cap = (want / 2).max(1);
            self.enter_split(want);
            Ok(())
        } else {
            let cfg = &self.plan.config;
            let used = cfg.device_bytes(self.device.len());
            Err(HetSortError::GpuOom {
                gpu: self.plan.physical_gpu(b.gpu),
                batch: Some(b.index),
                requested_bytes: cfg.device_bytes(want),
                free_bytes: cfg.platform.gpus[b.gpu]
                    .global_mem_bytes
                    .saturating_sub(used),
            })
        }
    }

    /// Execute stream-bound node `si`, which is `node`, and return the
    /// route it took: [`Route::Degraded`] says the batch gave up here
    /// and the engine must host-sort it. `emit` receives every
    /// completed `StageOut` chunk as `(batch, global_start, chunk_data)`.
    /// Chunk extents are trusted: the validator's `chunk-cover` rule
    /// bounds them before any run.
    ///
    /// # Errors
    ///
    /// Typed faults the policy does not recover from.
    pub(crate) fn step(
        &mut self,
        si: usize,
        node: &DagNode,
        emit: &mut impl FnMut(usize, usize, &[T]),
    ) -> Result<Route, HetSortError> {
        let span_start = self.t0.elapsed().as_secs_f64();
        let route = self.run(si, &node.op, emit)?;
        self.log_route(si, route);
        let elem = self.plan.config.elem_bytes.bytes();
        let bytes = match node.op {
            DagOp::PinnedAlloc { bytes, .. } => bytes,
            DagOp::StagingCopy { len, .. } | DagOp::HtoD { len, .. } | DagOp::DtoH { len, .. } => {
                len as u64 * elem
            }
            DagOp::Sort { batch } => self.plan.batches[batch].len as u64 * elem,
            // Not stream-bound: `run` errored out.
            DagOp::PairMerge { .. } | DagOp::MultiwayMerge { .. } => 0,
        };
        let span = ObsSpan {
            bytes: bytes as f64,
            t_start: span_start,
            t_end: self.t0.elapsed().as_secs_f64(),
            ..node_span(self.plan, si, node)
        };
        self.span_log.push(span);
        Ok(route)
    }

    /// [`StreamExec::step`]'s data movement for `op`.
    fn run(
        &mut self,
        si: usize,
        op: &DagOp,
        emit: &mut impl FnMut(usize, usize, &[T]),
    ) -> Result<Route, HetSortError> {
        let ps = self.plan.config.pinned_elems;
        match op {
            // The inbound halves share one allocation; the outbound
            // buffer exists only when the layout gives it its own.
            DagOp::PinnedAlloc { dir_in: true, .. } => {
                let elems = self.plan.staging.halves * ps;
                self.pinned_in.resize(elems, T::default());
            }
            DagOp::PinnedAlloc { dir_in: false, .. } => {
                self.pinned_out.resize(ps, T::default());
            }
            DagOp::StagingCopy {
                start,
                len,
                chunk,
                dir_in: true,
                ..
            } => {
                // Host→pinned staging memcpy: the PARMEMCPY knob makes
                // this copy parallel (self-scheduled chunks).
                let o = self.plan.staging.half(*chunk) * ps;
                par_copy(
                    self.memcpy_threads,
                    &self.data[*start..*start + *len],
                    &mut self.pinned_in[o..o + *len],
                );
            }
            DagOp::HtoD {
                batch,
                chunk,
                start,
                len,
            } => {
                let b = self.plan.batches[*batch];
                if *chunk == 0 {
                    // The cudaMalloc stand-in is a device operation.
                    self.device_check(&b)?;
                    if let Err(oom) = self.begin_batch(&b) {
                        return self.give_up(oom);
                    }
                }
                self.device_check(&b)?;
                if let Err(attempts) = self.dma(FaultSite::HtoD) {
                    return self.give_up(HetSortError::TransferFault {
                        step: si,
                        batch: b.index,
                        dir: TransferDir::HtoD,
                        attempts,
                    });
                }
                let off = *start - b.start;
                let o = self.plan.staging.half(*chunk) * ps;
                let dst = match self.mode {
                    Mode::Device => &mut self.device,
                    Mode::Split => &mut self.host_batch,
                };
                dst[off..off + *len].copy_from_slice(&self.pinned_in[o..o + *len]);
            }
            DagOp::Sort { batch } => {
                let b = self.plan.batches[*batch];
                self.device_check(&b)?;
                if self
                    .injector
                    .is_some_and(|i| i.trip(FaultSite::DeviceSort).is_some())
                {
                    return self.give_up(HetSortError::DeviceSortFault {
                        step: si,
                        batch: b.index,
                        gpu: self.plan.physical_gpu(b.gpu),
                    });
                }
                match self.mode {
                    Mode::Device => {
                        par_radix_sort_cfg(
                            &self.sched,
                            self.sort_threads,
                            &mut self.device[..b.len],
                        );
                    }
                    Mode::Split => {
                        // GPU sorts device-sized sub-runs; the CPU
                        // merges them — the halved-b_s re-plan.
                        let cap = self.device_cap.min(b.len).max(1);
                        let dev_threads = self.sort_threads;
                        let sched = self.sched;
                        let StreamExec {
                            host_batch, device, ..
                        } = self;
                        for run in host_batch.chunks_mut(cap) {
                            device[..run.len()].copy_from_slice(run);
                            par_radix_sort_cfg(&sched, dev_threads, &mut device[..run.len()]);
                            run.copy_from_slice(&device[..run.len()]);
                        }
                        if b.len > cap {
                            // Pooled merge output: repeated Split-mode
                            // batches recycle one allocation instead of
                            // zero-initializing a fresh batch-sized
                            // vector per merge.
                            let mut merged = self.pool.checkout(b.len);
                            let runs: Vec<&[T]> = self.host_batch.chunks(cap).collect();
                            par_multiway_merge_into_cfg(
                                &self.sched,
                                self.host_threads,
                                &runs,
                                &mut merged,
                            );
                            drop(runs);
                            let old = std::mem::replace(&mut self.host_batch, merged);
                            self.pool.checkin(old);
                        }
                    }
                }
            }
            DagOp::DtoH {
                batch, start, len, ..
            } => {
                let b = self.plan.batches[*batch];
                let off = *start - b.start;
                let src = match self.mode {
                    Mode::Device => {
                        self.device_check(&b)?;
                        if let Err(attempts) = self.dma(FaultSite::DtoH) {
                            return self.give_up(HetSortError::TransferFault {
                                step: si,
                                batch: b.index,
                                dir: TransferDir::DtoH,
                                attempts,
                            });
                        }
                        &self.device
                    }
                    Mode::Split => &self.host_batch,
                };
                let chunk = &src[off..off + *len];
                match self.plan.staging.outbound {
                    Outbound::Own => self.pinned_out[..*len].copy_from_slice(chunk),
                    Outbound::Inbound => self.pinned_in[..*len].copy_from_slice(chunk),
                    // Elided stage-out: the chunk stays where the batch
                    // lives; the StageOut marker pages it into W/B.
                    Outbound::Elided => {}
                }
            }
            DagOp::StagingCopy {
                batch,
                start,
                len,
                dir_in: false,
                ..
            } => {
                let chunk = match self.plan.staging.outbound {
                    Outbound::Own => &self.pinned_out[..*len],
                    Outbound::Inbound => &self.pinned_in[..*len],
                    // The outbound bounce was elided: emit straight from
                    // the source the batch actually lives in.
                    Outbound::Elided => {
                        let off = *start - self.plan.batches[*batch].start;
                        let src = match self.mode {
                            Mode::Device => &self.device,
                            Mode::Split => &self.host_batch,
                        };
                        &src[off..off + *len]
                    }
                };
                emit(*batch, *start, chunk);
            }
            DagOp::PairMerge { .. } | DagOp::MultiwayMerge { .. } => {
                return Err(HetSortError::Plan {
                    reason: format!("step {si}: merge steps are not stream-bound"),
                });
            }
        }
        Ok(match self.mode {
            Mode::Device => Route::Device,
            Mode::Split => Route::Split,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HetSortConfig, StagingMode};
    use crate::optrace::{lower_plan, TraceKind};
    use crate::residency::Residency;
    use hetsort_vgpu::{platform1, platform2};

    #[test]
    fn every_reader_holds_the_layouts_pinned_bytes() {
        // One number four ways: the layout, the admission footprint,
        // the static trace's pinned allocs, and what the interpreters
        // hold once their PinnedAlloc nodes ran.
        for platform in [platform1(), platform2()] {
            for approach in [
                Approach::BLine,
                Approach::BLineMulti,
                Approach::PipeData,
                Approach::PipeMerge,
            ] {
                for staging in [StagingMode::Paper, StagingMode::DoubleBuffered] {
                    let (bs, n) = match approach {
                        Approach::BLine => (4_000, 4_000),
                        _ => (1_000, 8_000),
                    };
                    let cfg = HetSortConfig::paper_defaults(platform.clone(), approach)
                        .with_batch_elems(bs)
                        .with_pinned_elems(250)
                        .with_staging(staging);
                    let plan = Plan::build(cfg, n).unwrap();
                    let elem = plan.config.elem_bytes.bytes();
                    let layout = (plan.staging.pinned_elems() * plan.total_streams) as u64 * elem;
                    let admitted = Residency::of_plan(&plan).pinned_bytes;
                    let traced: u64 = lower_plan(&plan)
                        .records
                        .iter()
                        .filter_map(|r| match r.kind {
                            TraceKind::Alloc {
                                buf: crate::optrace::Buffer::Pinned { .. },
                                bytes,
                            } => Some(bytes),
                            _ => None,
                        })
                        .sum();
                    let data: Vec<f64> = Vec::new();
                    let mut held = 0;
                    for s in 0..plan.total_streams {
                        let mut sx = StreamExec::new(&plan, &data, 1, 1, 1, Instant::now());
                        for (i, node) in plan.steps.iter().enumerate() {
                            if node.stream == Some(s)
                                && matches!(node.op, DagOp::PinnedAlloc { .. })
                            {
                                sx.step(i, node, &mut |_, _, _| {}).unwrap();
                            }
                        }
                        held += (sx.pinned_in.len() + sx.pinned_out.len()) as u64 * elem;
                    }
                    let what = format!(
                        "{} {approach:?}/{}",
                        plan.config.platform.name,
                        staging.name()
                    );
                    assert_eq!(
                        (admitted, traced, held),
                        (layout, layout, layout),
                        "{what}: admitted, traced, held vs the layout"
                    );
                }
            }
        }
    }
}
