//! Canonical op-tag names of the simulated machine (Table I's
//! components). The Gantt renderer draws each span with its tag's
//! first letter; the accounting reads typed `OpClass` spans, never
//! these strings (`OpClass::LITERATURE` is the literature's subset).

/// Host→device transfer over PCIe.
pub const HTOD: &str = "HtoD";
/// Device→host transfer over PCIe.
pub const DTOH: &str = "DtoH";
/// On-device sort kernel (Thrust stand-in).
pub const GPU_SORT: &str = "GPUSort";
/// Host-to-host copy from pageable memory into the pinned staging
/// buffer (the inbound half of the paper's `MCpy`).
pub const MCPY_IN: &str = "MCpyIn";
/// Host-to-host copy from the pinned staging buffer into pageable
/// memory (the outbound half of `MCpy`).
pub const MCPY_OUT: &str = "MCpyOut";
/// Pinned-memory allocation (`cudaMallocHost`).
pub const PINNED_ALLOC: &str = "PinnedAlloc";
/// Pipelined pair-wise merge on the CPU (PIPEMERGE).
pub const PAIR_MERGE: &str = "PairMerge";
/// Device-side merge of sorted runs (the §V future-work experiment).
pub const GPU_MERGE: &str = "GpuMerge";
/// Final multiway merge on the CPU.
pub const MULTIWAY_MERGE: &str = "MultiwayMerge";
/// Parallel CPU reference sort (GNU parallel mode stand-in).
pub const REF_SORT: &str = "RefSort";
/// Synchronization / barrier / fork-join latency.
pub const SYNC: &str = "Sync";
