//! The virtual machine: lowers CUDA-style operations onto the DES.
//!
//! Resource model (one `Machine` per simulated run):
//!
//! * `cores` — fluid, capacity = CPU core count. Host compute ops demand
//!   `threads` cores at full speed; oversubscription degrades them
//!   proportionally (processor sharing), like the OS scheduler would.
//! * `bus` — fluid, host memory traffic (bytes/s). Staging copies count
//!   2 B of traffic per byte copied (read + write); DMA transfers count
//!   1 B per byte (the device reads/writes host memory once); merges and
//!   sorts use their calibrated per-element traffic.
//! * `pcie_h2d` / `pcie_d2h` — fluids, one per direction, shared by all
//!   GPUs (full-duplex PCIe; the sharing is what makes dual-GPU scaling
//!   sub-linear in Figure 10/11).
//! * per-GPU `exec` token — one sort kernel at a time per device.
//! * per-GPU, per-direction copy-engine tokens — one DMA transfer per
//!   direction per device at a time (dual copy engines, as on
//!   K40m/GP100).
//!
//! **Fair-share weights** are set to each op's full-speed rate (`cap`),
//! which makes a saturated fluid divide bandwidth *proportionally to
//! demand*: cores split proportionally to thread counts, the bus
//! proportionally to full-speed traffic — the standard memory-controller
//! behaviour, and the mechanism behind the paper's host-side-bottleneck
//! findings.

use hetsort_sim::{LaneId, Op, OpId, OpTag, QueueId, SimBuilder, SimError, Timeline};

use crate::calib::{amdahl_speedup, log2_at_least_1};
use crate::platform::PlatformSpec;
use crate::tags;

/// Transfer direction over PCIe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferDir {
    /// Host to device.
    HtoD,
    /// Device to host.
    DtoH,
}

/// A simulated heterogeneous machine under construction.
///
/// Emit ops describing a pipeline, then [`run`](Machine::run) to get the
/// [`Timeline`]. Device-memory allocations are checked against each
/// GPU's global memory so impossible plans fail loudly.
pub struct Machine {
    sim: SimBuilder,
    plat: PlatformSpec,
    cores: hetsort_sim::FluidId,
    bus: hetsort_sim::FluidId,
    pcie_h2d: hetsort_sim::FluidId,
    pcie_d2h: hetsort_sim::FluidId,
    pcie_total: hetsort_sim::FluidId,
    gpu_exec: Vec<hetsort_sim::TokenId>,
    ce_h2d: Vec<hetsort_sim::TokenId>,
    ce_d2h: Vec<hetsort_sim::TokenId>,
    dev_mem_used: Vec<u64>,
}

impl Machine {
    /// Build a machine for the given platform.
    pub fn new(plat: PlatformSpec) -> Self {
        let mut sim = SimBuilder::new();
        let cores = sim.fluid("cpu_cores", plat.cpu.cores as f64);
        let bus = sim.fluid("host_bus", plat.cpu.bus_traffic_bps);
        let pcie_h2d = sim.fluid("pcie_h2d", plat.pcie.pinned_bps);
        let pcie_d2h = sim.fluid("pcie_d2h", plat.pcie.pinned_bps);
        let pcie_total = sim.fluid("pcie_bidir", plat.pcie.bidir_total_bps);
        let mut gpu_exec = Vec::new();
        let mut ce_h2d = Vec::new();
        let mut ce_d2h = Vec::new();
        for (i, _g) in plat.gpus.iter().enumerate() {
            gpu_exec.push(sim.tokens(format!("gpu{i}_exec"), 1));
            ce_h2d.push(sim.tokens(format!("gpu{i}_ce_h2d"), 1));
            ce_d2h.push(sim.tokens(format!("gpu{i}_ce_d2h"), 1));
        }
        let n_gpus = plat.gpus.len();
        Machine {
            sim,
            plat,
            cores,
            bus,
            pcie_h2d,
            pcie_d2h,
            pcie_total,
            gpu_exec,
            ce_h2d,
            ce_d2h,
            dev_mem_used: vec![0; n_gpus],
        }
    }

    /// The platform this machine models.
    pub fn plat(&self) -> &PlatformSpec {
        &self.plat
    }

    /// Create a CUDA stream (FIFO queue).
    pub fn stream(&mut self, name: impl Into<String>) -> QueueId {
        self.sim.queue(name)
    }

    /// Create a Gantt display lane.
    pub fn lane(&mut self, name: impl Into<String>) -> LaneId {
        self.sim.lane(name)
    }

    /// Intern a tag.
    pub fn tag(&mut self, name: &str) -> OpTag {
        self.sim.tag(name)
    }

    /// Record a device allocation; errors if the GPU would overflow.
    pub fn device_alloc(&mut self, gpu: usize, bytes: u64) -> Result<(), crate::error::CudaError> {
        let used = &mut self.dev_mem_used[gpu];
        let cap = self.plat.gpus[gpu].global_mem_bytes;
        if used.saturating_add(bytes) > cap {
            return Err(crate::error::CudaError::DeviceOom {
                gpu,
                requested_bytes: bytes,
                free_bytes: cap.saturating_sub(*used),
            });
        }
        *used += bytes;
        Ok(())
    }

    /// Pinned-memory allocation (`cudaMallocHost`): pure latency from
    /// the paper's affine model.
    pub fn pinned_alloc(&mut self, bytes: u64, deps: &[OpId], lane: Option<LaneId>) -> OpId {
        let tag = self.sim.tag(tags::PINNED_ALLOC);
        let mut op =
            Op::fixed(tag, self.plat.pinned_alloc.seconds(bytes)).deps(deps.iter().copied());
        if let Some(l) = lane {
            op = op.lane(l);
        }
        self.sim.op(op)
    }

    /// Host↔pinned staging copy (`std::memcpy`, possibly parallelized —
    /// PARMEMCPY). `inbound` selects the `MCpyIn` (pageable→pinned) or
    /// `MCpyOut` (pinned→pageable) tag.
    #[allow(clippy::too_many_arguments)]
    pub fn host_memcpy(
        &mut self,
        inbound: bool,
        bytes: f64,
        threads: u32,
        queue: Option<QueueId>,
        deps: &[OpId],
        lane: Option<LaneId>,
        key: u64,
    ) -> OpId {
        let tag = self.sim.tag(if inbound {
            tags::MCPY_IN
        } else {
            tags::MCPY_OUT
        });
        let threads = threads.max(1) as f64;
        let cap = threads * self.plat.cpu.memcpy_core_bps;
        let mut op = Op::new(tag, bytes)
            .cap(cap)
            .weight(cap)
            .demand(self.bus, 2.0)
            .demand(self.cores, 1.0 / self.plat.cpu.memcpy_core_bps)
            .deps(deps.iter().copied())
            .key(key);
        if let Some(q) = queue {
            op = op.queue(q);
        }
        if let Some(l) = lane {
            op = op.lane(l);
        }
        self.sim.op(op)
    }

    /// PCIe transfer (`cudaMemcpy` / `cudaMemcpyAsync`). Asynchronous
    /// chunked copies (`asynchronous = true`) pay the per-chunk
    /// synchronization latency of §IV-E; blocking `cudaMemcpy` calls do
    /// not (the call itself blocks). Pass the stream as `queue` for
    /// CUDA-stream FIFO ordering.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer(
        &mut self,
        dir: TransferDir,
        gpu: usize,
        bytes: f64,
        pinned: bool,
        asynchronous: bool,
        queue: Option<QueueId>,
        deps: &[OpId],
        lane: Option<LaneId>,
        key: u64,
    ) -> OpId {
        let (tag_name, link, engine) = match dir {
            TransferDir::HtoD => (tags::HTOD, self.pcie_h2d, self.ce_h2d[gpu]),
            TransferDir::DtoH => (tags::DTOH, self.pcie_d2h, self.ce_d2h[gpu]),
        };
        let tag = self.sim.tag(tag_name);
        let cap = if pinned {
            self.plat.pcie.pinned_bps
        } else {
            self.plat.pcie.pageable_bps
        };
        // Pinned DMA reads/writes host memory directly; at ≤ 12 GB/s
        // against a ≥ 40 GB/s bus it is a minor consumer, and modeling
        // it as a contending flow lets wide staging copies starve the
        // copy engines (an artifact real memory controllers do not
        // exhibit — DMA traffic is serviced at high priority). Pageable
        // copies do cost bus traffic: the driver's hidden staging copy.
        let bus_demand = if pinned { 0.0 } else { 2.0 };
        let sync = if asynchronous {
            self.plat.pcie.chunk_sync_s
        } else {
            0.0
        };
        let mut op = Op::new(tag, bytes)
            .cap(cap)
            .weight(cap)
            .latency(sync)
            .demand(link, 1.0)
            .demand(self.pcie_total, 1.0)
            .demand(self.bus, bus_demand)
            .tokens(engine, 1)
            .deps(deps.iter().copied())
            .key(key);
        if let Some(q) = queue {
            op = op.queue(q);
        }
        if let Some(l) = lane {
            op = op.lane(l);
        }
        self.sim.op(op)
    }

    /// Device sort kernel (Thrust stand-in): exclusive per-GPU execution
    /// at the calibrated key throughput.
    #[allow(clippy::too_many_arguments)]
    pub fn gpu_sort(
        &mut self,
        gpu: usize,
        elems: f64,
        queue: Option<QueueId>,
        deps: &[OpId],
        lane: Option<LaneId>,
        key: u64,
    ) -> OpId {
        let tag = self.sim.tag(tags::GPU_SORT);
        let g = &self.plat.gpus[gpu];
        let cap = g.sort_keys_per_s;
        let mut op = Op::new(tag, elems)
            .cap(cap)
            .weight(cap)
            .latency(g.kernel_launch_s)
            .tokens(self.gpu_exec[gpu], 1)
            .deps(deps.iter().copied())
            .key(key);
        if let Some(q) = queue {
            op = op.queue(q);
        }
        if let Some(l) = lane {
            op = op.lane(l);
        }
        self.sim.op(op)
    }

    /// Device-side merge of two sorted, device-resident runs (§V's
    /// future-work direction: "merging using the GPUs"). Bandwidth-
    /// bound at 3 memory accesses per output element; exclusive on the
    /// device like any kernel.
    #[allow(clippy::too_many_arguments)]
    pub fn gpu_merge(
        &mut self,
        gpu: usize,
        elems_out: f64,
        elem_bytes: u64,
        queue: Option<QueueId>,
        deps: &[OpId],
        lane: Option<LaneId>,
    ) -> OpId {
        let tag = self.sim.tag(tags::GPU_MERGE);
        let g = &self.plat.gpus[gpu];
        let cap = g.merge_keys_per_s(elem_bytes);
        let mut op = Op::new(tag, elems_out)
            .cap(cap)
            .weight(cap)
            .latency(g.kernel_launch_s)
            .tokens(self.gpu_exec[gpu], 1)
            .deps(deps.iter().copied());
        if let Some(q) = queue {
            op = op.queue(q);
        }
        if let Some(l) = lane {
            op = op.lane(l);
        }
        self.sim.op(op)
    }

    /// Pipelined pair-wise merge on the CPU (PIPEMERGE): merge two
    /// sorted sublists totalling `elems_out` elements with `threads`
    /// workers (merge path).
    pub fn pair_merge(
        &mut self,
        elems_out: f64,
        threads: u32,
        deps: &[OpId],
        lane: Option<LaneId>,
    ) -> OpId {
        let tag = self.sim.tag(tags::PAIR_MERGE);
        let cpu = &self.plat.cpu;
        let per_core = 1e9 / cpu.merge_ns_per_elem_core;
        let cap = amdahl_speedup(cpu.merge_parallel_fraction, threads.max(1) as usize) * per_core;
        let mut op = Op::new(tag, elems_out)
            .cap(cap)
            .weight(cap)
            .demand(self.bus, cpu.merge_traffic_bytes_per_elem)
            .demand(self.cores, 1.0 / per_core)
            .deps(deps.iter().copied());
        if let Some(l) = lane {
            op = op.lane(l);
        }
        self.sim.op(op)
    }

    /// A pair merge routed to the hybrid CPU pool
    /// (`DagOp::CpuMerge`). Identical cost model to [`pair_merge`] —
    /// the work is the same merge path on the same cores — but tagged
    /// [`tags::CPU_MERGE`] so reports separate hybrid-routed merges
    /// from pipelined pair-lane ones.
    ///
    /// [`pair_merge`]: Machine::pair_merge
    pub fn cpu_merge(
        &mut self,
        elems_out: f64,
        threads: u32,
        deps: &[OpId],
        lane: Option<LaneId>,
    ) -> OpId {
        let tag = self.sim.tag(tags::CPU_MERGE);
        let cpu = &self.plat.cpu;
        let per_core = 1e9 / cpu.merge_ns_per_elem_core;
        let cap = amdahl_speedup(cpu.merge_parallel_fraction, threads.max(1) as usize) * per_core;
        let mut op = Op::new(tag, elems_out)
            .cap(cap)
            .weight(cap)
            .demand(self.bus, cpu.merge_traffic_bytes_per_elem)
            .demand(self.cores, 1.0 / per_core)
            .deps(deps.iter().copied());
        if let Some(l) = lane {
            op = op.lane(l);
        }
        self.sim.op(op)
    }

    /// Final multiway merge of `k` sorted sublists, `elems` total
    /// output elements, `threads` workers (GNU parallel-mode stand-in).
    pub fn multiway_merge(
        &mut self,
        elems: f64,
        k: usize,
        threads: u32,
        deps: &[OpId],
        lane: Option<LaneId>,
    ) -> OpId {
        let tag = self.sim.tag(tags::MULTIWAY_MERGE);
        let cpu = &self.plat.cpu;
        let per_elem_ns = cpu.mw_base_ns + cpu.mw_ns_per_level * log2_at_least_1(k as f64);
        let per_core = 1e9 / per_elem_ns;
        let cap = amdahl_speedup(cpu.mw_parallel_fraction, threads.max(1) as usize) * per_core;
        let mut op = Op::new(tag, elems)
            .cap(cap)
            .weight(cap)
            .demand(self.bus, cpu.mw_traffic_bytes_per_elem)
            .demand(self.cores, 1.0 / per_core)
            .deps(deps.iter().copied());
        if let Some(l) = lane {
            op = op.lane(l);
        }
        self.sim.op(op)
    }

    /// The parallel CPU reference sort (GNU parallel mode), modeled as a
    /// calibrated black box: `t = c·n·log₂n / S(φ(n), p)` with the
    /// Amdahl fraction fit to Figure 4b. The libraries are *measured*
    /// baselines in the paper, so reproducing their measured scalability
    /// is the faithful choice (the pipeline ops, by contrast, are
    /// emergent).
    pub fn ref_sort(&mut self, n: f64, threads: u32, deps: &[OpId], lane: Option<LaneId>) -> OpId {
        let tag = self.sim.tag(tags::REF_SORT);
        let cpu = &self.plat.cpu;
        let t_seq = cpu.sort_ns_per_elem_level * 1e-9 * n * log2_at_least_1(n);
        let speedup = amdahl_speedup(cpu.sort_phi(n), threads.max(1) as usize);
        let cap = n / (t_seq / speedup);
        let per_core = cap / threads.max(1) as f64;
        let mut op = Op::new(tag, n)
            .cap(cap)
            .weight(cap)
            .latency(if threads > 1 { cpu.fork_join_s } else { 0.0 })
            .demand(self.bus, cpu.sort_traffic_bytes_per_elem)
            .demand(self.cores, 1.0 / per_core)
            .deps(deps.iter().copied());
        if let Some(l) = lane {
            op = op.lane(l);
        }
        self.sim.op(op)
    }

    /// A pure synchronization / fixed-latency op.
    pub fn barrier(&mut self, latency: f64, deps: &[OpId]) -> OpId {
        let tag = self.sim.tag(tags::SYNC);
        self.sim
            .op(Op::fixed(tag, latency).deps(deps.iter().copied()))
    }

    /// Number of ops emitted so far.
    pub fn op_count(&self) -> usize {
        self.sim.op_count()
    }

    /// Run the simulation.
    pub fn run(self) -> Result<Timeline, SimError> {
        self.sim.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{platform1, platform2};

    fn close(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * b.abs().max(1e-30)
    }

    #[test]
    fn htod_transfer_runs_at_pinned_bandwidth() {
        let mut m = Machine::new(platform1());
        let op = m.transfer(TransferDir::HtoD, 0, 6.4e9, true, false, None, &[], None, 0);
        let tl = m.run().unwrap();
        // Figure 7: 5.96 GiB HtoD at ~0.536 s (≈ 12 GB/s).
        assert!(
            close(tl.span(op).duration(), 6.4e9 / 12e9, 1e-6),
            "{}",
            tl.span(op).duration()
        );
    }

    #[test]
    fn pageable_transfer_is_half_speed() {
        let mut m = Machine::new(platform1());
        let op = m.transfer(TransferDir::DtoH, 0, 6e9, false, false, None, &[], None, 0);
        let tl = m.run().unwrap();
        assert!(
            close(tl.span(op).duration(), 1.0, 1e-6),
            "{}",
            tl.span(op).duration()
        );
    }

    #[test]
    fn bidirectional_transfers_overlap_with_platform_cap() {
        // PLATFORM2 models an uncapped duplex link (24 GB/s total):
        // HtoD and DtoH of equal size finish together at full rate.
        let mut m = Machine::new(platform2());
        let a = m.transfer(TransferDir::HtoD, 0, 12e9, true, false, None, &[], None, 0);
        let b = m.transfer(TransferDir::DtoH, 0, 12e9, true, false, None, &[], None, 0);
        let tl = m.run().unwrap();
        assert!(close(tl.span(a).duration(), 1.0, 1e-6));
        assert!(close(tl.span(b).duration(), 1.0, 1e-6));
        assert!(close(tl.makespan(), 1.0, 1e-6));

        // PLATFORM1's link degrades bidirectionally (13 GB/s total):
        // the same pair shares the cap at 6.5 GB/s each.
        let mut m = Machine::new(platform1());
        let a = m.transfer(TransferDir::HtoD, 0, 12e9, true, false, None, &[], None, 0);
        let b = m.transfer(TransferDir::DtoH, 0, 12e9, true, false, None, &[], None, 0);
        let tl = m.run().unwrap();
        assert!(
            close(tl.span(a).duration(), 12e9 / 6.5e9, 1e-6),
            "{}",
            tl.span(a).duration()
        );
        let _ = b;
    }

    #[test]
    fn two_gpus_share_one_direction() {
        // Two concurrent HtoD transfers to different GPUs share the
        // 12 GB/s host link (the paper's dual-GPU PCIe contention).
        let mut m = Machine::new(platform2());
        let a = m.transfer(TransferDir::HtoD, 0, 12e9, true, false, None, &[], None, 0);
        let b = m.transfer(TransferDir::HtoD, 1, 12e9, true, false, None, &[], None, 0);
        let tl = m.run().unwrap();
        assert!(
            close(tl.span(a).duration(), 2.0, 1e-6),
            "{}",
            tl.span(a).duration()
        );
        assert!(close(tl.span(b).duration(), 2.0, 1e-6));
    }

    #[test]
    fn same_gpu_same_direction_serializes_on_copy_engine() {
        let mut m = Machine::new(platform1());
        let a = m.transfer(TransferDir::HtoD, 0, 12e9, true, false, None, &[], None, 0);
        let b = m.transfer(TransferDir::HtoD, 0, 12e9, true, false, None, &[], None, 0);
        let tl = m.run().unwrap();
        // Engine serializes: each runs at full 12 GB/s, back to back.
        assert!(close(tl.span(a).duration(), 1.0, 1e-6));
        assert!(close(tl.makespan(), 2.0, 1e-6));
        let _ = b;
    }

    #[test]
    fn gpu_sort_throughput_matches_figure7() {
        let mut m = Machine::new(platform1());
        let op = m.gpu_sort(0, 8e8, None, &[], None, 0);
        let tl = m.run().unwrap();
        // GPUSort bar of Figure 7: ≈ 0.42 s for n = 8e8.
        assert!(
            close(tl.span(op).duration(), 8e8 / 1.9e9 + 50e-6, 1e-3),
            "{}",
            tl.span(op).duration()
        );
    }

    #[test]
    fn gpu_sorts_serialize_per_device_but_not_across() {
        let mut m2 = Machine::new(platform2());
        let a = m2.gpu_sort(0, 3.4e8, None, &[], None, 0);
        let b = m2.gpu_sort(0, 3.4e8, None, &[], None, 0);
        let c = m2.gpu_sort(1, 3.4e8, None, &[], None, 0);
        let tl = m2.run().unwrap();
        assert!(tl.span(b).t_start >= tl.span(a).t_end - 1e-9);
        assert!(tl.span(c).t_start < 1e-3, "other GPU starts immediately");
    }

    #[test]
    fn pinned_alloc_costs_match_paper() {
        let mut m = Machine::new(platform1());
        let small = m.pinned_alloc(8_000_000, &[], None);
        let tl = m.run().unwrap();
        assert!(close(tl.span(small).duration(), 0.01, 1e-9));
        let mut m = Machine::new(platform1());
        let big = m.pinned_alloc(6_400_000_000, &[], None);
        let tl = m.run().unwrap();
        assert!(close(tl.span(big).duration(), 2.2, 1e-9));
    }

    #[test]
    fn memcpy_single_core_rate() {
        let mut m = Machine::new(platform1());
        let op = m.host_memcpy(true, 6.5e9, 1, None, &[], None, 0);
        let tl = m.run().unwrap();
        assert!(close(tl.span(op).duration(), 1.0, 1e-6));
    }

    #[test]
    fn parallel_memcpy_is_bus_limited() {
        // PARMEMCPY: 16 threads could copy 104 GB/s but the 40 GB/s
        // traffic bus caps copying at 20 GB/s — a ~3× speedup on
        // staging alone, which the PCIe bidirectional cap then erodes
        // to the paper's 13% end-to-end gain.
        let mut m = Machine::new(platform1());
        let op = m.host_memcpy(true, 20e9, 16, None, &[], None, 0);
        let tl = m.run().unwrap();
        assert!(
            close(tl.span(op).duration(), 1.0, 1e-6),
            "{}",
            tl.span(op).duration()
        );
    }

    #[test]
    fn pair_merge_speedup_matches_figure6() {
        // 16-thread pairwise merge of 1e9 elements: Figure 6 reports a
        // 8.14× speedup over the ~7 s single-thread time → ≈ 0.86 s.
        let plat = platform1();
        let mut m1 = Machine::new(plat.clone());
        let s1 = m1.pair_merge(1e9, 1, &[], None);
        let t1 = m1.run().unwrap().span(s1).duration();
        let mut m16 = Machine::new(plat);
        let s16 = m16.pair_merge(1e9, 16, &[], None);
        let t16 = m16.run().unwrap().span(s16).duration();
        assert!(close(t1, 7.0, 0.01), "t1={t1}");
        let speedup = t1 / t16;
        assert!((speedup - 8.14).abs() < 0.6, "speedup={speedup}");
    }

    #[test]
    fn multiway_merge_scales_with_log_k() {
        let mut m = Machine::new(platform1());
        let a = m.multiway_merge(1e9, 2, 16, &[], None);
        let b = m.multiway_merge(1e9, 16, 16, &[], None);
        let tl = m.run().unwrap();
        assert!(tl.span(b).duration() > tl.span(a).duration());
    }

    #[test]
    fn ref_sort_matches_figure4_endpoints() {
        // 1-thread n=1e9 ≈ 140 s; 16-thread speedup ≈ 10.12.
        let plat = platform1();
        let mut m = Machine::new(plat.clone());
        let s = m.ref_sort(1e9, 1, &[], None);
        let t1 = m.run().unwrap().span(s).duration();
        assert!((t1 - 140.0).abs() < 5.0, "t1={t1}");
        let mut m = Machine::new(plat);
        let s = m.ref_sort(1e9, 16, &[], None);
        let t16 = m.run().unwrap().span(s).duration();
        let speedup = t1 / t16;
        assert!((speedup - 10.12).abs() < 0.8, "speedup={speedup}");
    }

    #[test]
    fn device_memory_accounting() {
        let mut m = Machine::new(platform1());
        assert!(m.device_alloc(0, 8 * crate::calib::GIB).is_ok());
        assert!(m.device_alloc(0, 8 * crate::calib::GIB).is_ok());
        assert!(m.device_alloc(0, 1).is_err(), "16 GiB exhausted");
    }

    #[test]
    fn streams_serialize_their_own_ops_only() {
        let mut m = Machine::new(platform1());
        let s1 = m.stream("s1");
        let s2 = m.stream("s2");
        // Two chunks in s1 (serial), one in s2 (parallel to s1's first).
        let a = m.host_memcpy(true, 8e9, 1, Some(s1), &[], None, 0);
        let b = m.host_memcpy(true, 8e9, 1, Some(s1), &[], None, 0);
        let c = m.host_memcpy(true, 8e9, 1, Some(s2), &[], None, 0);
        let tl = m.run().unwrap();
        assert!(tl.span(b).t_start >= tl.span(a).t_end - 1e-9);
        assert!(tl.span(c).t_start < 1e-9);
    }

    #[test]
    fn sync_latency_applies_to_async_chunks_only() {
        let mut m = Machine::new(platform1());
        let s = m.stream("s");
        let async_op = m.transfer(
            TransferDir::HtoD,
            0,
            1.2e7,
            true,
            true,
            Some(s),
            &[],
            None,
            0,
        );
        let tl = m.run().unwrap();
        let expect = 1.2e7 / 12e9 + platform1().pcie.chunk_sync_s;
        assert!(close(tl.span(async_op).duration(), expect, 1e-6));
        let mut m = Machine::new(platform1());
        let block_op = m.transfer(TransferDir::HtoD, 0, 1.2e7, true, false, None, &[], None, 0);
        let tl = m.run().unwrap();
        assert!(close(tl.span(block_op).duration(), 1e-3, 1e-6));
    }
}
