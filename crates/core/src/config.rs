//! Configuration: the paper's Table I notation as a typed struct.
//!
//! | Symbol | Field | Meaning |
//! |---|---|---|
//! | `n` | run argument | input size |
//! | `n_b` | derived | number of batches (⌈n / b_s⌉) |
//! | `n_GPU` | `platform.gpus.len()` | number of GPUs used |
//! | `n_s` | `streams_per_gpu` | streams per GPU |
//! | `b_s` | `batch_elems` | batch size |
//! | `p_s` | `pinned_elems` | pinned staging buffer size |
//! | `A` | input | unsorted list |
//! | `B` | output | sorted list |
//! | `W` | internal | working memory for sorted sublists |

use std::sync::Arc;

use hetsort_vgpu::{FaultInjector, PlatformSpec};

use crate::error::HetSortError;

/// The paper's heterogeneous sorting approaches (§III-D4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    /// Single batch (`n_b = 1`), blocking copies, default stream.
    BLine,
    /// BLINE per batch plus a final CPU multiway merge.
    BLineMulti,
    /// Pinned-memory staging in `n_s` streams per GPU overlapping HtoD
    /// and DtoH transfers.
    PipeData,
    /// PIPEDATA plus pair-wise merges pipelined while the GPU sorts.
    PipeMerge,
}

impl Approach {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Approach::BLine => "BLine",
            Approach::BLineMulti => "BLineMulti",
            Approach::PipeData => "PipeData",
            Approach::PipeMerge => "PipeMerge",
        }
    }

    /// Does this approach overlap transfers with streams?
    pub fn is_piped(&self) -> bool {
        matches!(self, Approach::PipeData | Approach::PipeMerge)
    }
}

/// Scheduling strategy for the pipelined two-way merges (§III-D3).
///
/// The paper evaluates PIPEMERGE with the batch-pair heuristic and
/// explicitly *rejects* the two alternatives: "We find that merging
/// sublists in an 'online' fashion (i.e., as they are produced on the
/// GPU), or using a merge tree to determine optimal merges, results in
/// delaying the multiway merging procedure, and thus degrades
/// performance." All three are implemented so the rejection is testable
/// (`cargo run -p hetsort-bench --bin experiments -- rejected_strategies`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PairStrategy {
    /// The paper's heuristic: merge the first `⌊(n_b−1)/2⌋` (1 GPU) or
    /// `⌊(n_b−1)/2^n_GPU⌋` (multi-GPU) consecutive batch pairs, never
    /// re-merging a merge output; the rest go to the multiway merge.
    #[default]
    PaperHeuristic,
    /// Rejected: fold each arriving batch into one growing run.
    Online,
    /// Rejected: a full binary merge tree replacing the multiway merge.
    MergeTree,
}

/// Device-memory footprint of one resident batch, in units of `b_s`:
/// the device sort is Thrust's out-of-place radix sort, so every batch
/// on the GPU occupies its data plus an equal scratch area (§III-B,
/// "total memory required on the GPU is ≈ 2·b_s·n_s").
pub const DEVICE_MEM_FACTOR: u64 = 2;

/// Largest plan [`HetSortConfig::validate`] accepts, in dag nodes
/// (`n_b × (4·chunks per batch + 1)`; allocations and merges add a few
/// hundred more). The paper's largest run is 20 027 nodes; the largest
/// plan known to build and simulate in seconds is n = 10¹² under the
/// defaults, 4.0 M nodes — this is twice that. Input size is otherwise
/// unbounded user input, and the lowering allocates per node.
pub const MAX_PLAN_NODES: u128 = 1 << 23;

/// How the executors react to GPU OOM, transfer faults, device-sort
/// failures, and worker panics.
///
/// The default policy retries transient transfer faults with a short
/// backoff, splits batches that overflow device memory into sub-runs
/// (halving the effective `b_s` for the affected remainder), and sorts
/// unrecoverable batches host-side (graceful degradation). Use
/// [`RecoveryPolicy::none`] to propagate every fault as a typed
/// [`HetSortError`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries after a failed DMA transfer (0 = fail on first fault).
    pub max_retries: usize,
    /// Milliseconds to back off before each retry.
    pub backoff_ms: u64,
    /// On GPU OOM, halve the device buffer and sort the batch in
    /// sub-runs merged host-side (instead of failing).
    pub split_on_oom: bool,
    /// Sort batches host-side when the GPU path is unrecoverable
    /// (exhausted retries, device-sort failure, dead worker).
    pub cpu_fallback: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            backoff_ms: 1,
            split_on_oom: true,
            cpu_fallback: true,
        }
    }
}

impl RecoveryPolicy {
    /// No recovery at all: every fault propagates as a typed error.
    pub fn none() -> Self {
        RecoveryPolicy {
            max_retries: 0,
            backoff_ms: 0,
            split_on_oom: false,
            cpu_fallback: false,
        }
    }
}

/// Hybrid CPU/GPU merge routing: which pipelined pair merges are
/// emitted as [`DagOp::CpuMerge`] nodes instead of the default
/// GPU-adjacent pair-merge lane.
///
/// Routing happens where the plan is built (`plan_builders`), so every
/// consumer of a plan — the functional engine, the simulator, the
/// bench gate, and the service — sees the same hybrid dag. The
/// decision is a pure function of the config and the pair slots, never of
/// runtime queue state, so hybrid runs stay deterministic and
/// replayable.
///
/// [`DagOp::CpuMerge`]: crate::dag::DagOp::CpuMerge
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum HybridMode {
    /// Every pair merge stays on the default pair-merge lane.
    #[default]
    Off,
    /// Route the *last* `frac` of the pair-merge slots (rounded to
    /// nearest, `0.0..=1.0`) to CPU merge nodes. Later slots depend on
    /// later batches, so they are the ones most likely to contend with
    /// the multiway-merge warm-up — exactly where the spare merge pool
    /// helps.
    Fraction(f64),
    /// Per-slot greedy earliest-finish routing between the pair-merge
    /// pool and the full CPU merge pool, using the platform's calibrated
    /// merge throughput and each pool's accumulated predicted busy time
    /// as the queue-depth proxy.
    Auto,
}

impl HybridMode {
    /// Stable CLI/display name (`off`, a fraction, or `auto`).
    pub fn describe(&self) -> String {
        match self {
            HybridMode::Off => "off".into(),
            HybridMode::Fraction(f) => format!("{f}"),
            HybridMode::Auto => "auto".into(),
        }
    }

    /// Parse a CLI value: `off`, `auto`, or a fraction in `[0, 1]`.
    pub fn parse(s: &str) -> Result<HybridMode, String> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" => Ok(HybridMode::Off),
            "auto" => Ok(HybridMode::Auto),
            other => other
                .parse::<f64>()
                .ok()
                .filter(|f| (0.0..=1.0).contains(f))
                .map(HybridMode::Fraction)
                .ok_or_else(|| {
                    format!("bad --hybrid value '{s}' (use off, auto, or a fraction in [0,1])")
                }),
        }
    }
}

/// How the host↔pinned staging path is organized.
///
/// The paper's executors bounce every chunk through a single pinned
/// staging buffer per stream per direction, serializing the host
/// memcpy against the DMA that consumes it. [`StagingMode::DoubleBuffered`]
/// splits the inbound buffer into two halves (chunk parity selects the
/// half) so the host→pinned bounce of chunk `c` overlaps the DMA of
/// chunk `c−1`, and — on the blocking approaches, where the sorted
/// batch is still device-resident when it is written out — *elides*
/// the outbound pinned bounce entirely, writing device→output in one
/// pageable copy instead of two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StagingMode {
    /// One pinned buffer per stream per direction; every chunk bounces
    /// host↔pinned↔device exactly as §III-D2 describes.
    Paper,
    /// Two inbound halves per stream (parity-selected) overlapping the
    /// bounce with the previous chunk's DMA; outbound bounce elided on
    /// blocking approaches.
    #[default]
    DoubleBuffered,
}

impl StagingMode {
    /// Stable display name (model labels).
    pub fn name(&self) -> &'static str {
        match self {
            StagingMode::Paper => "paper",
            StagingMode::DoubleBuffered => "double",
        }
    }
}

/// Element width: the two record layouts the executors sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ElemWidth {
    /// 8-byte `f64` keys, the paper's element type.
    #[default]
    Key,
    /// 16-byte key/value records of \[5\]
    /// (`hetsort_algos::keys::KeyValue`).
    KeyValue,
}

impl ElemWidth {
    /// Bytes per element: 8 or 16.
    pub const fn bytes(self) -> u64 {
        match self {
            ElemWidth::Key => 8,
            ElemWidth::KeyValue => 16,
        }
    }
}

/// A fully specified heterogeneous sort configuration.
#[derive(Debug, Clone)]
pub struct HetSortConfig {
    /// Hardware model (Table II row).
    pub platform: PlatformSpec,
    /// Pipeline approach.
    pub approach: Approach,
    /// PARMEMCPY: parallelize host↔pinned staging copies.
    pub par_memcpy: bool,
    /// Batch size `b_s` in elements.
    pub batch_elems: usize,
    /// Streams per GPU `n_s` (piped approaches; blocking approaches use
    /// the single default stream regardless).
    pub streams_per_gpu: usize,
    /// Pinned staging buffer size `p_s` in elements.
    pub pinned_elems: usize,
    /// Threads for the final multiway merge; 0 = all cores.
    pub merge_threads: u32,
    /// Threads for *pipelined* pair-wise merges; 0 = half the cores.
    /// Pair merges run concurrently with the staging pipeline, so
    /// giving them every core would starve the staging copies and delay
    /// batches — the load imbalance §III-D3 warns about.
    pub pair_merge_threads: u32,
    /// Scheduling strategy for pipelined merges (PIPEMERGE only).
    pub pair_strategy: PairStrategy,
    /// Hybrid CPU/GPU merge routing: type some pair merges as
    /// [`DagOp::CpuMerge`](crate::dag::DagOp::CpuMerge) nodes backed by
    /// the full CPU merge pool.
    pub hybrid: HybridMode,
    /// Host↔pinned staging organization (single-buffer paper shape or
    /// double-buffered halves with outbound elision).
    pub staging: StagingMode,
    /// Element width: the paper's 8-byte keys or 16-byte key/value
    /// records. Drives every transfer/staging volume and the GPU memory
    /// check.
    pub elem_bytes: ElemWidth,
    /// Reaction to faults (OOM, transfer, sort, panic).
    pub recovery: RecoveryPolicy,
    /// Fault schedule the executors consult (testing/chaos runs); `None`
    /// means no injected faults.
    pub faults: Option<Arc<FaultInjector>>,
    /// Record a structured op trace of the *executed* accesses (for the
    /// `hetsort-analyze` race detector); off by default.
    pub record_trace: bool,
}

impl HetSortConfig {
    /// Paper defaults for a platform: all cores for merging, `n_s = 2`
    /// (§IV-F Experiment 1), `p_s = 10⁶` elements (§IV-E), and the
    /// largest batch that fits the streams on the smallest GPU.
    pub fn paper_defaults(platform: PlatformSpec, approach: Approach) -> Self {
        let streams_per_gpu = 2;
        // Blocking approaches keep one batch in flight, so the whole
        // device (minus the out-of-place scratch) is one batch.
        let sizing_streams = if approach.is_piped() {
            streams_per_gpu
        } else {
            1
        };
        let batch_elems = platform.max_batch_elems(sizing_streams);
        HetSortConfig {
            platform,
            approach,
            par_memcpy: false,
            batch_elems,
            streams_per_gpu,
            pinned_elems: 1_000_000,
            merge_threads: 0,
            pair_merge_threads: 0,
            pair_strategy: PairStrategy::default(),
            hybrid: HybridMode::default(),
            staging: StagingMode::default(),
            elem_bytes: ElemWidth::Key,
            recovery: RecoveryPolicy::default(),
            faults: None,
            record_trace: false,
        }
    }

    /// [`Self::paper_defaults`] under the paper's measurement protocol:
    /// one pinned staging buffer per stream per direction
    /// ([`StagingMode::Paper`]). Every reproduction of a number the
    /// paper reports — figures, calibration, lower-bound probes —
    /// builds its configs here, so a better default staging protocol
    /// cannot move them (DESIGN.md § 19).
    pub fn paper_protocol(platform: PlatformSpec, approach: Approach) -> Self {
        Self::paper_defaults(platform, approach).with_staging(StagingMode::Paper)
    }

    /// Record executed-access traces for the race detector.
    pub fn with_trace_recording(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Enable PARMEMCPY.
    pub fn with_par_memcpy(mut self) -> Self {
        self.par_memcpy = true;
        self
    }

    /// Set `b_s`.
    pub fn with_batch_elems(mut self, b: usize) -> Self {
        self.batch_elems = b;
        self
    }

    /// Set `n_s`.
    pub fn with_streams(mut self, s: usize) -> Self {
        self.streams_per_gpu = s;
        self
    }

    /// Set `p_s`.
    pub fn with_pinned_elems(mut self, p: usize) -> Self {
        self.pinned_elems = p;
        self
    }

    /// Select a pipelined-merge scheduling strategy (§III-D3).
    pub fn with_pair_strategy(mut self, s: PairStrategy) -> Self {
        self.pair_strategy = s;
        self
    }

    /// Select the hybrid CPU/GPU merge routing mode.
    pub fn with_hybrid(mut self, h: HybridMode) -> Self {
        self.hybrid = h;
        self
    }

    /// Select the staging organization.
    pub fn with_staging(mut self, s: StagingMode) -> Self {
        self.staging = s;
        self
    }

    /// Is the double-buffered staging path selected?
    pub fn double_buffered(&self) -> bool {
        self.staging == StagingMode::DoubleBuffered
    }

    /// Set the element width (keys or key/value records).
    pub fn with_elem_bytes(mut self, w: ElemWidth) -> Self {
        self.elem_bytes = w;
        self
    }

    /// Set the recovery policy.
    pub fn with_recovery(mut self, r: RecoveryPolicy) -> Self {
        self.recovery = r;
        self
    }

    /// Attach a fault schedule (wraps it in an [`Arc`] so both the
    /// config and the test can observe the injected count).
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Simulated multiway-merge thread count (simulator only; the engine's come from the host).
    pub fn merge_threads_eff(&self) -> u32 {
        if self.merge_threads == 0 {
            self.platform.cpu.cores
        } else {
            self.merge_threads
        }
    }

    /// Simulated pipelined pair-merge thread count (simulator only).
    pub fn pair_merge_threads_eff(&self) -> u32 {
        if self.pair_merge_threads == 0 {
            (self.platform.cpu.cores / 2).max(1)
        } else {
            self.pair_merge_threads
        }
    }

    /// Simulated staging copy threads (PARMEMCPY: all cores, §III-D2; simulator only).
    pub fn memcpy_threads_eff(&self) -> u32 {
        if self.par_memcpy {
            self.platform.cpu.cores
        } else {
            1
        }
    }

    /// Number of batches `n_b` for an input of `n` elements.
    pub fn n_batches(&self, n: usize) -> usize {
        n.div_ceil(self.batch_elems.max(1))
    }

    /// The paper's pair-merge count heuristic (§III-D3):
    /// `⌊(n_b−1)/2⌋` on one GPU, `⌊(n_b−1)/2^n_GPU⌋` on multi-GPU.
    pub fn pipelined_pair_merges(&self, nb: usize) -> usize {
        if self.approach != Approach::PipeMerge || nb < 2 {
            return 0;
        }
        let ngpu = u32::try_from(self.platform.n_gpus().max(1)).unwrap_or(u32::MAX);
        if ngpu == 1 {
            (nb - 1) / 2
        } else {
            // 2^n_GPU overflows usize from 64 GPUs up; the heuristic's
            // value there is ⌊(n_b−1)/2^huge⌋ = 0, not a panic.
            2usize.checked_pow(ngpu).map_or(0, |div| (nb - 1) / div)
        }
    }

    /// Device bytes that `elems` resident elements occupy: the data
    /// plus Thrust's out-of-place scratch ([`DEVICE_MEM_FACTOR`]). A
    /// stream's footprint is `device_bytes(batch_elems)`; every sizing
    /// check, allocation and residency count goes through here.
    pub fn device_bytes(&self, elems: usize) -> u64 {
        (DEVICE_MEM_FACTOR * self.elem_bytes.bytes()).saturating_mul(elems as u64)
    }

    /// Validate against the hardware model and `n`.
    pub fn validate(&self, n: usize) -> Result<(), HetSortError> {
        if n == 0 {
            return Err(HetSortError::config("input size n must be positive"));
        }
        if self.batch_elems == 0 {
            return Err(HetSortError::config("batch_elems (b_s) must be positive"));
        }
        if self.pinned_elems == 0 {
            return Err(HetSortError::config("pinned_elems (p_s) must be positive"));
        }
        if self.pinned_elems > self.batch_elems {
            return Err(HetSortError::config(format!(
                "pinned buffer p_s={} exceeds batch size b_s={}",
                self.pinned_elems, self.batch_elems
            )));
        }
        if let HybridMode::Fraction(f) = self.hybrid {
            if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                return Err(HetSortError::config(format!(
                    "hybrid fraction must lie in [0, 1], got {f}"
                )));
            }
        }
        if self.approach.is_piped() && self.streams_per_gpu == 0 {
            return Err(HetSortError::config(
                "piped approaches need at least one stream",
            ));
        }
        // Thrust's 2× footprint per in-flight batch, per stream (§III-B).
        let streams = if self.approach.is_piped() {
            self.streams_per_gpu
        } else {
            1
        };
        let need = self
            .device_bytes(self.batch_elems)
            .saturating_mul(streams as u64);
        let min_mem = self
            .platform
            .gpus
            .iter()
            .map(|g| g.global_mem_bytes)
            .min()
            .unwrap_or(u64::MAX);
        if need > min_mem {
            return Err(HetSortError::config(format!(
                "b_s={} with {streams} stream(s) needs {need:.3e} B on the GPU but only {min_mem:.3e} B exist",
                self.batch_elems
            )));
        }
        let nb = self.n_batches(n);
        if self.approach == Approach::BLine && nb > 1 {
            return Err(HetSortError::config(format!(
                "BLine requires n_b = 1 but n={n} with b_s={} gives n_b={nb}; use BLineMulti",
                self.batch_elems
            )));
        }
        // Plan size, before the lowering allocates anything per batch
        // or per node: four chunk ops per chunk plus one sort per batch.
        let chunks = self.batch_elems.min(n).div_ceil(self.pinned_elems);
        let nodes = nb as u128 * (4 * chunks as u128 + 1);
        if nodes > MAX_PLAN_NODES {
            return Err(HetSortError::config(format!(
                "n={n} is n_b={nb} batches of {chunks} chunk(s): {nodes} dag nodes, the limit is \
                 {MAX_PLAN_NODES} (raise b_s or p_s)"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsort_vgpu::{platform1, platform2};

    #[test]
    fn paper_defaults_platform1() {
        let c = HetSortConfig::paper_defaults(platform1(), Approach::PipeData);
        assert_eq!(c.streams_per_gpu, 2);
        assert_eq!(c.pinned_elems, 1_000_000);
        // b_s close to the paper's 5e8 (§IV-F Experiment 1).
        assert!(
            (4.8e8..5.5e8).contains(&(c.batch_elems as f64)),
            "{}",
            c.batch_elems
        );
        assert_eq!(c.merge_threads_eff(), 16);
        assert_eq!(c.memcpy_threads_eff(), 1);
        assert_eq!(c.clone().with_par_memcpy().memcpy_threads_eff(), 16);
    }

    #[test]
    fn batch_count() {
        let c =
            HetSortConfig::paper_defaults(platform1(), Approach::BLineMulti).with_batch_elems(500);
        assert_eq!(c.n_batches(1000), 2);
        assert_eq!(c.n_batches(1001), 3);
        assert_eq!(c.n_batches(499), 1);
    }

    #[test]
    fn pair_merge_heuristic_matches_paper() {
        // Figure 3 example: n_b = 6 on one GPU → 2 pair merges.
        let c = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge);
        assert_eq!(c.pipelined_pair_merges(6), 2);
        // Odd n_b leaves the last batch unmerged: n_b=7 → 3.
        assert_eq!(c.pipelined_pair_merges(7), 3);
        assert_eq!(c.pipelined_pair_merges(1), 0);
        assert_eq!(c.pipelined_pair_merges(2), 0);
        // Two GPUs divide by 2^n_GPU = 4: n_b=10 → 2.
        let c2 = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge);
        assert_eq!(c2.pipelined_pair_merges(10), 2);
        // Non-PipeMerge approaches never pipeline merges.
        let c3 = HetSortConfig::paper_defaults(platform1(), Approach::PipeData);
        assert_eq!(c3.pipelined_pair_merges(10), 0);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let base = HetSortConfig::paper_defaults(platform1(), Approach::PipeData);
        assert!(base.validate(1000).is_ok());
        assert!(base.clone().with_batch_elems(0).validate(10).is_err());
        assert!(base.clone().with_pinned_elems(0).validate(10).is_err());
        // p_s > b_s.
        assert!(base
            .clone()
            .with_batch_elems(100)
            .with_pinned_elems(200)
            .validate(100)
            .is_err());
        // GPU memory overflow: 3 streams × 2 × 5e8 × 8 B = 24 GB > 16 GiB.
        assert!(base.clone().with_streams(3).validate(1000).is_err());
        // BLine with multiple batches.
        let bl = HetSortConfig::paper_defaults(platform1(), Approach::BLine)
            .with_batch_elems(100)
            .with_pinned_elems(10);
        assert!(bl.validate(150).is_err());
        assert!(bl.validate(100).is_ok());
        assert!(base.validate(0).is_err());
    }

    #[test]
    fn validation_errors_are_typed() {
        let base = HetSortConfig::paper_defaults(platform1(), Approach::PipeData);
        match base.validate(0) {
            Err(HetSortError::Config { reason }) => {
                assert!(reason.contains("must be positive"), "{reason}")
            }
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn plan_size_is_bounded_before_anything_is_built() {
        let base = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge);
        // Everything that finishes today still validates: the paper's
        // largest run, and n = 1e12 (4.0 M nodes).
        assert!(base.validate(5_000_000_000).is_ok());
        assert!(base.validate(1_000_000_000_000).is_ok());
        // A small input through one-element chunks is a small plan,
        // whatever b_s is.
        assert!(base.clone().with_pinned_elems(1).validate(1000).is_ok());
        // Past the limit: a typed error naming n_b, chunks and the
        // limit — at sizes whose node count overflows u64 arithmetic on
        // the way (usize::MAX × 4 chunks) as well as at modest ones.
        for (cfg, n) in [
            (base.clone(), 1_000_000_000_000_000_000),
            (base.clone(), 10_000_000_000_000),
            (base.clone().with_pinned_elems(1), 2_000_000_000),
            (base.clone().with_pinned_elems(1), usize::MAX),
        ] {
            match cfg.validate(n) {
                Err(HetSortError::Config { reason }) => {
                    let nb = cfg.n_batches(n);
                    assert!(reason.contains(&format!("n_b={nb} ")), "{reason}");
                    assert!(reason.contains("chunk(s)"), "{reason}");
                    assert!(reason.contains(&MAX_PLAN_NODES.to_string()), "{reason}");
                }
                other => panic!("n={n}: expected Config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn recovery_policy_defaults_and_none() {
        let d = RecoveryPolicy::default();
        assert_eq!(d.max_retries, 2);
        assert!(d.split_on_oom && d.cpu_fallback);
        let n = RecoveryPolicy::none();
        assert_eq!(n.max_retries, 0);
        assert!(!n.split_on_oom && !n.cpu_fallback);
        let c = HetSortConfig::paper_defaults(platform1(), Approach::PipeData)
            .with_recovery(RecoveryPolicy::none());
        assert_eq!(c.recovery, RecoveryPolicy::none());
        assert!(c.faults.is_none());
    }

    #[test]
    fn hybrid_mode_parse_and_validate() {
        assert_eq!(HybridMode::parse("off"), Ok(HybridMode::Off));
        assert_eq!(HybridMode::parse("auto"), Ok(HybridMode::Auto));
        assert_eq!(HybridMode::parse("0.5"), Ok(HybridMode::Fraction(0.5)));
        assert_eq!(HybridMode::parse("1"), Ok(HybridMode::Fraction(1.0)));
        assert!(HybridMode::parse("1.5").is_err());
        assert!(HybridMode::parse("-0.1").is_err());
        assert!(HybridMode::parse("frob").is_err());
        assert_eq!(HybridMode::Fraction(0.5).describe(), "0.5");

        let base = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge);
        assert_eq!(base.hybrid, HybridMode::Off);
        assert!(base
            .clone()
            .with_hybrid(HybridMode::Fraction(1.0))
            .validate(1000)
            .is_ok());
        for bad in [1.5, -0.1, f64::NAN] {
            assert!(
                base.clone()
                    .with_hybrid(HybridMode::Fraction(bad))
                    .validate(1000)
                    .is_err(),
                "fraction {bad} must be rejected"
            );
        }
    }

    #[test]
    fn staging_mode_knob() {
        let c = HetSortConfig::paper_defaults(platform1(), Approach::PipeData);
        assert_eq!(c.staging, StagingMode::DoubleBuffered);
        assert!(c.double_buffered());
        let p = c.with_staging(StagingMode::Paper);
        assert!(!p.double_buffered());
    }

    #[test]
    fn approach_names() {
        assert_eq!(Approach::BLine.name(), "BLine");
        assert_eq!(Approach::PipeMerge.name(), "PipeMerge");
        assert!(Approach::PipeData.is_piped());
        assert!(!Approach::BLineMulti.is_piped());
    }
}
