//! Platform specifications: Table II of the paper as data, with every
//! rate calibrated to a measurement the paper reports.

use crate::calib::{Affine, GIB};

/// Host CPU and memory model.
#[derive(Debug, Clone)]
pub struct CpuSpec {
    /// Total hardware threads used by the paper's reference runs
    /// (16 on PLATFORM1, 20 on PLATFORM2).
    pub cores: u32,
    /// Copied bytes/second one core's `std::memcpy` sustains.
    /// Back-solved from Figure 8: BLINE's full-overhead total minus the
    /// three "related-work" components is dominated by two staging
    /// copies of `n` elements each.
    pub memcpy_core_bps: f64,
    /// Host memory bus capacity in *traffic* bytes/second (reads +
    /// writes). Fit so the 16-thread pairwise merge saturates at the
    /// 8.14× speedup of Figure 6.
    pub bus_traffic_bps: f64,
    /// Sequential comparison-sort cost in seconds per element per
    /// `log₂ n` level (`t_seq = c · n · log₂ n`). Fit to Figure 4a's
    /// 1-thread GNU/std::sort curve (~140 s at n = 10⁹ on PLATFORM1).
    pub sort_ns_per_elem_level: f64,
    /// Memory traffic attributed to sorting, bytes per element (used
    /// only for bus coexistence when a reference sort shares the bus).
    pub sort_traffic_bytes_per_elem: f64,
    /// Pairwise-merge cost per element on one core, nanoseconds. Fit to
    /// Figure 6a's 1-thread point (~7 s for n = 10⁹).
    pub merge_ns_per_elem_core: f64,
    /// Pairwise-merge memory traffic, bytes per element. With the bus
    /// capacity above this reproduces Figure 6b's saturation.
    pub merge_traffic_bytes_per_elem: f64,
    /// Amdahl parallel fraction for the pairwise merge's compute part
    /// (small serial fraction; the bus does most of the saturating).
    pub merge_parallel_fraction: f64,
    /// Multiway merge per-element per-core cost: `base + per_level ·
    /// log₂ k` nanoseconds. Fit so BLINEMULTI's final merge of
    /// n = 5·10⁹ over n_b = 10 batches takes ≈ 12 s on 16 threads
    /// (Figure 9's BLINEMULTI at 31.2 s minus its GPU phase).
    pub mw_base_ns: f64,
    /// See [`CpuSpec::mw_base_ns`].
    pub mw_ns_per_level: f64,
    /// Multiway merge memory traffic, bytes per element (single read +
    /// single write + metadata — the cache-efficiency the paper cites).
    pub mw_traffic_bytes_per_elem: f64,
    /// Amdahl parallel fraction of the multiway merge.
    pub mw_parallel_fraction: f64,
    /// Fixed fork/join latency per parallel region of the *reference*
    /// library sort (explains Figure 4b's poor small-n speedups).
    pub fork_join_s: f64,
    /// Reference-sort Amdahl fraction model: `φ(n) = intercept +
    /// slope · log₁₀ n`, clamped to `[0, 0.975]`. PLATFORM1's values fit
    /// Figure 4b's endpoints; PLATFORM2's fit Figure 5's CPU/GPU ratio
    /// band (1.22–1.32), the only scalability data the paper gives for
    /// that machine.
    pub sort_phi_intercept: f64,
    /// See [`CpuSpec::sort_phi_intercept`].
    pub sort_phi_slope: f64,
    /// Start-time skew between host worker threads / streams (seconds
    /// per stream index). Real pipelines never run in perfect lockstep;
    /// without this, the deterministic simulator phase-aligns identical
    /// streams and overstates PCIe collisions (worst case instead of
    /// the steady interleave of the paper's Figure 2).
    pub stream_skew_s: f64,
}

impl CpuSpec {
    /// Reference-sort parallel fraction at input size `n`.
    pub fn sort_phi(&self, n: f64) -> f64 {
        (self.sort_phi_intercept + self.sort_phi_slope * n.max(2.0).log10()).clamp(0.0, 0.975)
    }
}

/// One GPU.
#[derive(Debug, Clone)]
pub struct GpuSpec {
    /// Marketing name (Table II).
    pub name: String,
    /// Global memory in bytes.
    pub global_mem_bytes: u64,
    /// Device radix-sort throughput for 8-byte keys, elements/second,
    /// measured end-of-kernel to end-of-kernel (no transfers).
    /// GP100: Figure 7's GPUSort bar ≈ 0.42 s at n = 8·10⁸ → 1.9·10⁹/s.
    /// K40m: back-solved from the paper's 1-GPU lower-bound model
    /// (6.278 ns/elem total minus staging + transfer components).
    pub sort_keys_per_s: f64,
    /// Global-memory bandwidth in bytes/second (GP100 HBM2 ≈ 720 GB/s,
    /// K40m GDDR5 ≈ 288 GB/s). Bounds device-side merging (§V's
    /// "merging using the GPUs" future-work experiment): a streaming
    /// merge reads two inputs and writes one output, 3 accesses/elem.
    pub mem_bw_bps: f64,
    /// Fixed kernel-launch/driver latency per sort invocation.
    pub kernel_launch_s: f64,
}

impl GpuSpec {
    /// Device merge throughput (elements/second) for `elem_bytes`-sized
    /// elements: bandwidth-bound at 3 accesses per output element.
    pub fn merge_keys_per_s(&self, elem_bytes: u64) -> f64 {
        self.mem_bw_bps / (3.0 * elem_bytes as f64)
    }
}

/// PCIe topology: one host link per direction, shared by all GPUs
/// (the paper's stated reason dual-GPU scaling is sub-linear).
#[derive(Debug, Clone)]
pub struct PcieSpec {
    /// Pinned-memory transfer bandwidth per direction, bytes/second.
    /// §V: "our pinned memory data transfers occur at ~12 GB/s, which is
    /// 75% of the peak PCIe v3 bandwidth of 16 GB/s".
    pub pinned_bps: f64,
    /// Pageable (plain `cudaMemcpy`) effective bandwidth, bytes/second.
    /// §V: pinned gives "throughput improvements of up to a factor ~2×
    /// over copies without pinned memory".
    pub pageable_bps: f64,
    /// Synchronization overhead per asynchronous chunk copy (§IV-E:
    /// "synchronization time required when using asynchronous memory
    /// transfers").
    pub chunk_sync_s: f64,
    /// Total bidirectional throughput cap, bytes/second. Real PCIe v3
    /// links do not sustain the full 2×12 GB/s when both directions are
    /// active (protocol overhead, root-complex limits); overlapped
    /// HtoD/DtoH degrade each other — one reason PARMEMCPY's staging
    /// speedup does not translate 1:1 into end-to-end speedup.
    pub bidir_total_bps: f64,
}

/// Pinned allocation cost model (affine in bytes). §IV-E measures
/// 0.01 s for a 10⁶-element (8 MB) buffer and 2.2 s for 8·10⁸ elements
/// (6.4 GB).
#[derive(Debug, Clone)]
pub struct PinnedAllocModel {
    /// The affine cost in seconds over bytes.
    pub cost: Affine,
}

impl PinnedAllocModel {
    /// The paper's measured model.
    pub fn paper() -> Self {
        PinnedAllocModel {
            cost: Affine::through(8e6, 0.01, 6.4e9, 2.2),
        }
    }

    /// Seconds to allocate a pinned buffer of `bytes`.
    pub fn seconds(&self, bytes: u64) -> f64 {
        self.cost.eval(bytes as f64).max(0.0)
    }
}

/// A complete platform (one row of Table II).
#[derive(Debug, Clone)]
pub struct PlatformSpec {
    /// Platform name.
    pub name: String,
    /// Host model.
    pub cpu: CpuSpec,
    /// Installed GPUs.
    pub gpus: Vec<GpuSpec>,
    /// PCIe topology.
    pub pcie: PcieSpec,
    /// Pinned allocation model.
    pub pinned_alloc: PinnedAllocModel,
}

impl PlatformSpec {
    /// Largest batch size (elements) that fits `streams_per_gpu` streams
    /// on the smallest GPU, honoring Thrust's 2× out-of-place footprint
    /// (§III-B / §IV-F: "total memory required on the GPU is ≈ 2·b_s·n_s").
    pub fn max_batch_elems(&self, streams_per_gpu: usize) -> usize {
        let min_mem = self
            .gpus
            .iter()
            .map(|g| g.global_mem_bytes)
            .min()
            .unwrap_or(u64::MAX);
        let per_elem = (2 * crate::calib::ELEM_BYTES).saturating_mul(streams_per_gpu.max(1) as u64);
        usize::try_from(min_mem / per_elem).unwrap_or(usize::MAX)
    }

    /// Number of GPUs.
    pub fn n_gpus(&self) -> usize {
        self.gpus.len()
    }
}

/// PLATFORM1 (Table II): 2× Xeon E5-2620 v4 (16 cores), 128 GiB,
/// 1× Quadro GP100 16 GiB, CUDA 9.
pub fn platform1() -> PlatformSpec {
    PlatformSpec {
        name: "PLATFORM1".into(),
        cpu: CpuSpec {
            cores: 16,
            memcpy_core_bps: 6.5e9,
            bus_traffic_bps: 40.0e9,
            sort_ns_per_elem_level: 4.67,
            sort_traffic_bytes_per_elem: 40.0,
            merge_ns_per_elem_core: 7.0,
            merge_traffic_bytes_per_elem: 34.0,
            merge_parallel_fraction: 0.985,
            mw_base_ns: 4.0,
            mw_ns_per_level: 4.8,
            mw_traffic_bytes_per_elem: 34.0,
            mw_parallel_fraction: 0.96,
            fork_join_s: 4.0e-3,
            sort_phi_intercept: 0.268,
            sort_phi_slope: 0.077,
            stream_skew_s: 1.5e-3,
        },
        gpus: vec![GpuSpec {
            name: "Quadro GP100".into(),
            global_mem_bytes: 16 * GIB,
            sort_keys_per_s: 1.9e9,
            mem_bw_bps: 720.0e9,
            kernel_launch_s: 50.0e-6,
        }],
        pcie: PcieSpec {
            pinned_bps: 12.0e9,
            pageable_bps: 6.0e9,
            chunk_sync_s: 0.4e-3,
            bidir_total_bps: 13.0e9,
        },
        pinned_alloc: PinnedAllocModel::paper(),
    }
}

/// PLATFORM2 (Table II): 2× Xeon E5-2660 v3 (20 cores), 128 GiB,
/// 2× Tesla K40m 12 GiB, CUDA 7.5.
pub fn platform2() -> PlatformSpec {
    PlatformSpec {
        name: "PLATFORM2".into(),
        cpu: CpuSpec {
            cores: 20,
            memcpy_core_bps: 6.5e9,
            bus_traffic_bps: 42.0e9,
            sort_ns_per_elem_level: 2.7,
            sort_traffic_bytes_per_elem: 40.0,
            merge_ns_per_elem_core: 6.5,
            merge_traffic_bytes_per_elem: 34.0,
            merge_parallel_fraction: 0.985,
            mw_base_ns: 4.0,
            mw_ns_per_level: 4.8,
            mw_traffic_bytes_per_elem: 34.0,
            mw_parallel_fraction: 0.96,
            fork_join_s: 4.0e-3,
            sort_phi_intercept: 0.82,
            sort_phi_slope: 0.014,
            stream_skew_s: 1.5e-3,
        },
        gpus: vec![
            GpuSpec {
                name: "Tesla K40m #0".into(),
                global_mem_bytes: 12 * GIB,
                sort_keys_per_s: 4.03e8,
                mem_bw_bps: 288.0e9,
                kernel_launch_s: 50.0e-6,
            },
            GpuSpec {
                name: "Tesla K40m #1".into(),
                global_mem_bytes: 12 * GIB,
                sort_keys_per_s: 4.03e8,
                mem_bw_bps: 288.0e9,
                kernel_launch_s: 50.0e-6,
            },
        ],
        pcie: PcieSpec {
            pinned_bps: 12.0e9,
            pageable_bps: 6.0e9,
            chunk_sync_s: 1.1e-3,
            bidir_total_bps: 24.0e9,
        },
        pinned_alloc: PinnedAllocModel::paper(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform1_matches_table2() {
        let p = platform1();
        assert_eq!(p.cpu.cores, 16);
        assert_eq!(p.gpus.len(), 1);
        assert_eq!(p.gpus[0].global_mem_bytes, 16 * GIB);
    }

    #[test]
    fn platform2_matches_table2() {
        let p = platform2();
        assert_eq!(p.cpu.cores, 20);
        assert_eq!(p.gpus.len(), 2);
        assert_eq!(p.gpus[0].global_mem_bytes, 12 * GIB);
    }

    #[test]
    fn pinned_alloc_matches_paper_measurements() {
        let m = PinnedAllocModel::paper();
        // ps = 1e6 elements (8 MB) → 0.01 s (§IV-E).
        assert!((m.seconds(8_000_000) - 0.01).abs() < 1e-9);
        // ps = 8e8 elements (6.4 GB) → 2.2 s (§IV-E).
        assert!((m.seconds(6_400_000_000) - 2.2).abs() < 1e-9);
    }

    #[test]
    fn paper_batch_sizes_fit() {
        // Experiment 1 uses b_s = 5e8 with n_s = 2 on PLATFORM1:
        // 2 streams × 2 × 5e8 × 8 B = 16 GB ≈ the GP100's 16 GiB.
        let p1 = platform1();
        let max1 = p1.max_batch_elems(2);
        assert!(max1 >= 5_000_000_000u64 as usize / 10, "max1={max1}");
        assert!((5e8..6e8).contains(&(max1 as f64)), "max1={max1}");
        // Experiment 2 uses b_s = 3.5e8 on the 12 GiB K40m.
        let p2 = platform2();
        let max2 = p2.max_batch_elems(2);
        assert!((3.5e8..4.1e8).contains(&(max2 as f64)), "max2={max2}");
    }

    #[test]
    fn pcie_matches_section_v() {
        let p = platform1();
        assert_eq!(p.pcie.pinned_bps, 12.0e9); // 75% of 16 GB/s
        assert_eq!(p.pcie.pinned_bps / p.pcie.pageable_bps, 2.0); // ~2×
    }
}
