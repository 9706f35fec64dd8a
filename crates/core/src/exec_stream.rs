//! The per-stream node interpreter of the functional engine.
//!
//! [`crate::dag::exec`] keeps one [`StreamExec`] per stream behind that
//! stream's lock; whichever thread pops one of the stream's ready nodes
//! — the caller at `workers = 0`, a pool worker otherwise — runs it
//! here, handing it the [`DagOp`] to execute. The stream-bound ops
//! (staging copies, transfers, device sorts) run through this
//! interpreter — which reads nothing but the op it is handed and the
//! plan's geometry — and it owns the stream's pinned
//! and device buffers and implements the per-batch failure model:
//!
//! * every device-buffer growth, HtoD, DtoH, and device sort consults
//!   the configured [`FaultInjector`] (if any);
//! * transient transfer faults are retried up to
//!   [`RecoveryPolicy::max_retries`] times with a backoff — each retry
//!   consults the injector again, so a schedule that faults occurrence
//!   `k` but not `k+1` models a fault one retry clears;
//! * GPU OOM halves the effective device buffer (`b_s/2` for the
//!   affected remainder) and sorts the batch in device-sized sub-runs
//!   merged host-side ([`Mode::Split`] — the GPU still does the
//!   sorting);
//! * unrecoverable batches (exhausted retries, failed device sort,
//!   OOM with splitting disabled) degrade to a host-side sort of the
//!   batch straight from `A` ([`Mode::CpuFallback`]) when the policy
//!   allows, and otherwise propagate as typed [`HetSortError`]s naming
//!   the exact step and batch.
//!
//! Batches handled host-side bypass the DMA path, so later transfer
//! occurrences shift relative to a fault-free run; schedules are
//! defined over *attempted* operations, which keeps replay
//! deterministic for a given schedule and policy.

use std::time::Instant;

use hetsort_algos::keys::{RadixKey, SortOrd};
use hetsort_algos::multiway::par_multiway_merge_into_cfg;
use hetsort_algos::par::{par_copy, SchedCfg};
use hetsort_algos::radix_par::par_radix_sort_cfg;
use hetsort_obs::{ObsSpan, OpClass};
use hetsort_sim::{Access, Buffer};
use hetsort_vgpu::{FaultInjector, FaultSite, TransferDir};

use crate::config::RecoveryPolicy;
use crate::dag::DagOp;
use crate::error::HetSortError;
use crate::optrace::{
    pinned_in_id, pinned_out_id, region_host_batch, REGION_A, REGION_B, REGION_W,
};
use crate::plan::{BatchInfo, Plan};
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
    /// Graceful degradation: the batch is sorted host-side from `A`.
    CpuFallback,
}

/// One stream's executor state: buffers, fault handling, recovery.
pub(crate) struct StreamExec<'a, T> {
    plan: &'a Plan,
    data: &'a [T],
    injector: Option<&'a FaultInjector>,
    policy: RecoveryPolicy,
    /// Split-mode merge workers (the engine's merge width).
    host_threads: usize,
    /// Workers of every batch sort: device stand-in, Split sub-runs and
    /// the CpuFallback host sort alike.
    sort_threads: usize,
    /// Host↔pinned staging copy workers (PARMEMCPY), host-capped.
    memcpy_threads: usize,
    /// CPU scheduling policy for merges, sorts, and staging copies.
    sched: SchedCfg,
    /// This interpreter's stream index (buffer identity in traces).
    stream: usize,
    pinned_in: Vec<T>,
    pinned_out: Vec<T>,
    device: Vec<T>,
    /// Effective device buffer capacity in elements; halved on OOM
    /// (`usize::MAX` until the first OOM).
    device_cap: usize,
    mode: Mode,
    /// Staging for Split/CpuFallback batches (holds the whole batch).
    host_batch: Vec<T>,
    /// Recycled scratch buffers (Split-mode merge outputs), so repeated
    /// recoveries stop zero-initializing a fresh batch-sized vector.
    pub(crate) pool: BufferPool<T>,
    /// Per-stream recovery counters (merged by the caller).
    pub(crate) stats: RecoveryStats,
    /// When `config.record_trace` is set: the buffer accesses each node
    /// actually performed, `(node id, accesses)` — the overrides of
    /// [`crate::optrace::trace_nodes`].
    pub(crate) access_log: Vec<(usize, Vec<Access>)>,
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
    /// Fresh state for stream `stream` of `plan` over `data`. `t0` is
    /// the run origin every stream of the run shares.
    pub(crate) fn new(
        plan: &'a Plan,
        data: &'a [T],
        stream: usize,
        host_threads: usize,
        sort_threads: usize,
        t0: Instant,
    ) -> Self {
        let memcpy_threads = usize::try_from(plan.config.memcpy_threads_eff())
            .unwrap_or(usize::MAX)
            .min(4 * hetsort_algos::par::default_threads());
        StreamExec {
            plan,
            data,
            injector: plan.config.faults.as_deref(),
            policy: plan.config.recovery,
            host_threads,
            sort_threads,
            memcpy_threads,
            sched: SchedCfg::default(),
            stream,
            pinned_in: Vec::new(),
            pinned_out: Vec::new(),
            device: Vec::new(),
            device_cap: usize::MAX,
            mode: Mode::Device,
            host_batch: Vec::new(),
            pool: BufferPool::new(),
            stats: RecoveryStats::default(),
            access_log: Vec::new(),
            t0,
            span_log: Vec::new(),
        }
    }

    /// Which half of the inbound staging buffer chunk `chunk` lands in:
    /// double-buffered plans alternate halves per chunk so the stage-in
    /// of chunk `c+1` can overlap the HtoD DMA of chunk `c`.
    fn in_half(&self, chunk: usize) -> usize {
        if self.plan.config.double_buffered() {
            chunk % 2
        } else {
            0
        }
    }

    fn pin_in_buf(&self, half: usize) -> Buffer {
        Buffer::Pinned {
            id: pinned_in_id(self.stream, half),
        }
    }

    fn pin_out_buf(&self) -> Buffer {
        Buffer::Pinned {
            id: pinned_out_id(self.plan.asynchronous, self.stream),
        }
    }

    fn dev_buf(&self, b: &BatchInfo) -> Buffer {
        Buffer::Dev {
            gpu: b.gpu,
            id: self.stream,
        }
    }

    fn host_batch_buf(&self, start: usize, len: usize) -> Buffer {
        Buffer::Host {
            region: region_host_batch(self.stream),
            start,
            len,
        }
    }

    /// Record one device operation against the batch's physical GPU.
    ///
    /// A [`HetSortError::DeviceLost`] here is *not* absorbed by the
    /// CPU-fallback policy: losing a device invalidates every batch
    /// scheduled on it, so the error must reach the executor, which
    /// re-plans the unfinished work on the survivors.
    fn device_check(&self, b: &BatchInfo) -> Result<(), HetSortError> {
        if let Some(inj) = self.injector {
            inj.device_op(self.plan.physical_gpu(b.gpu))?;
        }
        Ok(())
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
            if self.policy.backoff_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(self.policy.backoff_ms));
            }
            self.stats.retries += 1;
            attempts += 1;
        }
        Ok(())
    }

    /// Switch the current batch to host-side sorting.
    fn degrade(&mut self) {
        self.mode = Mode::CpuFallback;
        self.stats.degraded_batches += 1;
    }

    /// Switch the current batch to sub-run splitting (`want` elements).
    fn enter_split(&mut self, want: usize) {
        self.mode = Mode::Split;
        self.stats.oom_replans += 1;
        let cap = self.device_cap.min(want).max(1);
        if self.device.len() < cap {
            self.device.resize(cap, T::default());
        }
        self.host_batch.resize(want, T::default());
    }

    /// Start a new batch: decide its mode and (maybe) grow the device
    /// buffer — the `cudaMalloc` stand-in, and the OOM fault site.
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
            self.device.resize(want, T::default());
            return Ok(());
        }
        if self.policy.split_on_oom {
            self.device_cap = (want / 2).max(1);
            self.enter_split(want);
            Ok(())
        } else if self.policy.cpu_fallback {
            self.degrade();
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

    /// Execute stream-bound node `si`, whose op is `op`. `emit` receives
    /// every completed `StageOut` chunk as
    /// `(batch, global_start, chunk_data)`. Chunk extents are trusted:
    /// the validator's `chunk-cover` rule bounds them before any run.
    ///
    /// # Errors
    ///
    /// Typed faults the policy does not recover from.
    pub(crate) fn step(
        &mut self,
        si: usize,
        op: &DagOp,
        emit: &mut impl FnMut(usize, usize, &[T]),
    ) -> Result<(), HetSortError> {
        let ps = self.plan.config.pinned_elems;
        let span_start = self.t0.elapsed().as_secs_f64();
        // Accesses this step actually performs — which differ from the
        // static lowering once recovery reroutes a batch host-side.
        let mut acc: Vec<Access> = Vec::new();
        match op {
            DagOp::PinnedAlloc { dir_in, .. } => {
                let elided = self.plan.stage_out_elided();
                if *dir_in {
                    // Double-buffered plans carve both halves out of
                    // one allocation (`staging_halves() == 2`).
                    self.pinned_in
                        .resize(self.plan.staging_halves() * ps, T::default());
                } else if !elided {
                    self.pinned_out.resize(ps, T::default());
                }
                // Blocking plans reuse one buffer both ways — unless
                // the stage-out is elided, in which case there is no
                // outbound staging buffer at all.
                if self.pinned_out.is_empty() && !self.plan.asynchronous && !elided {
                    self.pinned_out.resize(ps, T::default());
                }
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
                let half = self.in_half(*chunk);
                let o = half * ps;
                par_copy(
                    self.memcpy_threads,
                    &self.data[*start..*start + *len],
                    &mut self.pinned_in[o..o + *len],
                );
                acc.push(Access::read(Buffer::Host {
                    region: REGION_A,
                    start: *start,
                    len: *len,
                }));
                acc.push(Access::write(self.pin_in_buf(half)));
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
                    self.begin_batch(&b)?;
                }
                if self.mode != Mode::CpuFallback {
                    self.device_check(&b)?;
                    match self.dma(FaultSite::HtoD) {
                        Ok(()) => {
                            let off = *start - b.start;
                            let half = self.in_half(*chunk);
                            let o = half * ps;
                            acc.push(Access::read(self.pin_in_buf(half)));
                            if self.mode == Mode::Device {
                                acc.push(Access::write(self.dev_buf(&b)));
                            } else {
                                acc.push(Access::write(self.host_batch_buf(off, *len)));
                            }
                            let dst = if self.mode == Mode::Device {
                                &mut self.device
                            } else {
                                &mut self.host_batch
                            };
                            dst[off..off + *len].copy_from_slice(&self.pinned_in[o..o + *len]);
                        }
                        Err(attempts) => {
                            if self.policy.cpu_fallback {
                                self.degrade();
                            } else {
                                return Err(HetSortError::TransferFault {
                                    step: si,
                                    batch: b.index,
                                    dir: TransferDir::HtoD,
                                    attempts,
                                });
                            }
                        }
                    }
                }
            }
            DagOp::Sort { batch } => {
                let b = self.plan.batches[*batch];
                if self.mode != Mode::CpuFallback {
                    self.device_check(&b)?;
                    let tripped = self
                        .injector
                        .is_some_and(|i| i.trip(FaultSite::DeviceSort).is_some());
                    if tripped {
                        if self.policy.cpu_fallback {
                            self.degrade();
                        } else {
                            return Err(HetSortError::DeviceSortFault {
                                step: si,
                                batch: b.index,
                                gpu: self.plan.physical_gpu(b.gpu),
                            });
                        }
                    }
                }
                match self.mode {
                    Mode::Device => {
                        par_radix_sort_cfg(
                            &self.sched,
                            self.sort_threads,
                            &mut self.device[..b.len],
                        );
                        let d = self.dev_buf(&b);
                        acc.push(Access::read(d));
                        acc.push(Access::write(d));
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
                        let d = self.dev_buf(&b);
                        let hb = self.host_batch_buf(0, b.len);
                        acc.extend([
                            Access::read(hb),
                            Access::write(hb),
                            Access::read(d),
                            Access::write(d),
                        ]);
                    }
                    Mode::CpuFallback => {
                        // Host-side sort straight from A: correct even
                        // when earlier chunks never reached the device.
                        self.host_batch.clear();
                        self.host_batch
                            .extend_from_slice(&self.data[b.start..b.start + b.len]);
                        par_radix_sort_cfg(&self.sched, self.sort_threads, &mut self.host_batch);
                        acc.push(Access::read(Buffer::Host {
                            region: REGION_A,
                            start: b.start,
                            len: b.len,
                        }));
                        acc.push(Access::write(self.host_batch_buf(0, b.len)));
                    }
                }
            }
            DagOp::DtoH {
                batch, start, len, ..
            } => {
                let b = self.plan.batches[*batch];
                let off = *start - b.start;
                let elided = self.plan.stage_out_elided();
                if self.mode == Mode::Device {
                    self.device_check(&b)?;
                    match self.dma(FaultSite::DtoH) {
                        Ok(()) => {
                            if elided {
                                // Elided stage-out: the chunk stays
                                // device-resident; the StageOut marker
                                // pages it straight into W/B.
                                acc.push(Access::read(self.dev_buf(&b)));
                            } else {
                                self.pinned_out[..*len]
                                    .copy_from_slice(&self.device[off..off + *len]);
                                acc.push(Access::read(self.dev_buf(&b)));
                                acc.push(Access::write(self.pin_out_buf()));
                            }
                        }
                        Err(attempts) => {
                            if self.policy.cpu_fallback {
                                // The sorted batch is still device-
                                // resident: fall back to a pageable-
                                // style host copy of the whole batch,
                                // reusing the staging buffer's capacity
                                // instead of cloning a fresh vector.
                                self.host_batch.clear();
                                self.host_batch.extend_from_slice(&self.device[..b.len]);
                                self.degrade();
                                acc.push(Access::read(self.dev_buf(&b)));
                                acc.push(Access::write(self.host_batch_buf(0, b.len)));
                                if !elided {
                                    self.pinned_out[..*len]
                                        .copy_from_slice(&self.host_batch[off..off + *len]);
                                    acc.push(Access::write(self.pin_out_buf()));
                                }
                            } else {
                                return Err(HetSortError::TransferFault {
                                    step: si,
                                    batch: b.index,
                                    dir: TransferDir::DtoH,
                                    attempts,
                                });
                            }
                        }
                    }
                } else if !elided {
                    self.pinned_out[..*len].copy_from_slice(&self.host_batch[off..off + *len]);
                    acc.push(Access::read(self.host_batch_buf(off, *len)));
                    acc.push(Access::write(self.pin_out_buf()));
                }
            }
            DagOp::StagingCopy {
                batch,
                start,
                len,
                dir_in: false,
                ..
            } => {
                let region = if self.plan.nb() > 1 {
                    REGION_W
                } else {
                    REGION_B
                };
                if self.plan.stage_out_elided() {
                    // The outbound bounce was elided: emit straight from
                    // the source the batch actually lives in.
                    let b = self.plan.batches[*batch];
                    let off = *start - b.start;
                    if self.mode == Mode::Device {
                        emit(*batch, *start, &self.device[off..off + *len]);
                        acc.push(Access::read(self.dev_buf(&b)));
                    } else {
                        emit(*batch, *start, &self.host_batch[off..off + *len]);
                        acc.push(Access::read(self.host_batch_buf(off, *len)));
                    }
                } else {
                    emit(*batch, *start, &self.pinned_out[..*len]);
                    acc.push(Access::read(self.pin_out_buf()));
                }
                acc.push(Access::write(Buffer::Host {
                    region,
                    start: *start,
                    len: *len,
                }));
            }
            DagOp::PairMerge { .. } | DagOp::CpuMerge { .. } | DagOp::MultiwayMerge { .. } => {
                return Err(HetSortError::Plan {
                    reason: format!("step {si}: merge steps are not stream-bound"),
                });
            }
        }
        // Log even empty lists: a CpuFallback HtoD performs no accesses,
        // and that fact must override the static derivation.
        if self.plan.config.record_trace {
            self.access_log.push((si, acc));
        }
        let batch = op.batch();
        let (class, elems) = match *op {
            DagOp::StagingCopy { len, .. } => (OpClass::StagingCopy, len),
            DagOp::HtoD { len, .. } => (OpClass::HtoD, len),
            DagOp::Sort { batch } => (OpClass::GpuSort, self.plan.batches[batch].len),
            DagOp::DtoH { len, .. } => (OpClass::DtoH, len),
            // Merges errored out above.
            _ => (OpClass::PinnedAlloc, ps),
        };
        let bytes = (elems as u64 * self.plan.config.elem_bytes.bytes()) as f64;
        let mut span = ObsSpan::new(
            class,
            match batch {
                Some(b) => format!("{} b{b}.s{}", class.name(), self.stream),
                None => format!("{} s{}", class.name(), self.stream),
            },
            span_start,
            self.t0.elapsed().as_secs_f64(),
        )
        .on_stream(self.stream)
        .with_bytes(bytes);
        if let Some(b) = batch {
            span = span.for_batch(b as u64);
            span.gpu = Some(self.plan.physical_gpu(self.plan.batches[b].gpu));
        }
        self.span_log.push(span);
        Ok(())
    }
}
