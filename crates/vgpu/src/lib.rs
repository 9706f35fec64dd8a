//! # hetsort-vgpu — virtual CUDA substrate
//!
//! The paper runs on real CUDA hardware (Table II: a Quadro GP100 and
//! 2× Tesla K40m behind PCIe v3). This environment has no GPU, so the
//! substrate is rebuilt as a *virtual* CUDA layer on top of the
//! [`hetsort_sim`] discrete-event kernel:
//!
//! * a [`PlatformSpec`] describes the host (cores, memory bus, copy
//!   rates), the GPUs (global memory, device sort throughput), the PCIe
//!   topology (per-direction bandwidth shared by all devices — the
//!   mechanism behind the paper's dual-GPU contention findings), and the
//!   pinned-memory allocation cost model;
//! * a [`Machine`] lowers CUDA-style operations — pinned allocation,
//!   host↔staging `memcpy`, `cudaMemcpy[Async]` in streams, device sort
//!   kernels, and the CPU merge family — onto simulation ops with the
//!   correct queueing (stream FIFO), token (copy engines, kernel slot),
//!   and fluid-demand (PCIe direction, host bus, cores) semantics. Its
//!   one caller is `hetsort-core`'s `exec_sim`, which lowers a plan's
//!   op-dag node by node;
//! * a [`FaultInjector`] is the deterministic fault schedule (OOM,
//!   transfer and sort faults, worker panics, device loss) the
//!   functional engine consults at every fault site.
//!
//! Every numeric constant is calibrated against a measurement the paper
//! itself reports; see [`calib`] for the provenance of each number and
//! `DESIGN.md` §6 for the fitting notes.

// Library code must surface failures as typed errors, never panic
// paths; tests are free to unwrap. No unsafe anywhere in this crate.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod calib;
pub mod fault;
pub mod machine;
pub mod platform;
pub mod tags;

pub use fault::{FaultInjector, FaultSite};
pub use machine::{Machine, TransferDir};
pub use platform::{
    platform1, platform2, CpuSpec, GpuSpec, PcieSpec, PinnedAllocModel, PlatformSpec,
};
