//! The typed error hierarchy of the sorting pipeline.
//!
//! Every fallible public entry point — configuration validation, plan
//! construction, the simulated executor, and both functional executors —
//! reports a [`HetSortError`] so callers can distinguish a bad
//! configuration from a GPU that ran out of memory from a flaky bus.
//! Recovery ([`crate::config::RecoveryPolicy`]) pattern-matches on these
//! variants; without recovery they propagate to the caller naming the
//! exact step and batch that failed.

use std::fmt;

use hetsort_vgpu::CudaError;
pub use hetsort_vgpu::TransferDir;

/// A failure anywhere in the heterogeneous sorting pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum HetSortError {
    /// The configuration is invalid for the platform or input size.
    Config {
        /// What rule was violated.
        reason: String,
    },
    /// The plan is internally inconsistent (invariant check failures).
    Plan {
        /// The violated invariant.
        reason: String,
    },
    /// The data handed to an executor does not match the plan.
    Data {
        /// The mismatch.
        reason: String,
    },
    /// A device ran out of memory (real or injected).
    GpuOom {
        /// The device that ran out.
        gpu: usize,
        /// The batch being processed, when known.
        batch: Option<usize>,
        /// Bytes the allocation asked for.
        requested_bytes: u64,
        /// Bytes still free on the device.
        free_bytes: u64,
    },
    /// A DMA transfer failed and retries (if any) were exhausted.
    TransferFault {
        /// Plan step index that failed.
        step: usize,
        /// Batch the transfer belonged to.
        batch: usize,
        /// Copy direction.
        dir: TransferDir,
        /// Attempts made (1 = no retries configured).
        attempts: usize,
    },
    /// A device sort kernel failed.
    DeviceSortFault {
        /// Plan step index that failed.
        step: usize,
        /// Batch being sorted.
        batch: usize,
        /// Device the kernel ran on.
        gpu: usize,
    },
    /// A GPU fell out of the pool mid-run (a scheduled device-loss
    /// fault) and no recovery path remained: either every device is
    /// gone with CPU fallback disabled, or a re-plan itself failed.
    /// While survivors (or CPU fallback) exist the executors recover by
    /// re-planning instead of returning this.
    DeviceLost {
        /// The device that was lost (physical index on the original
        /// platform).
        gpu: usize,
    },
    /// A stream worker thread panicked.
    WorkerPanic {
        /// Worker (stream) index.
        worker: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The discrete-event simulation itself failed.
    Sim {
        /// The simulator's diagnosis.
        reason: String,
    },
    /// The sort service shed a job: the bounded queue was full, the
    /// job's deadline passed while it waited, or its footprint can
    /// never fit the budget. Backpressure, not a failure of the
    /// pipeline — resubmit later or with a smaller configuration.
    Overloaded {
        /// The job that was shed, when known.
        job: Option<u64>,
        /// Why the service refused it.
        reason: String,
    },
    /// A virtual-CUDA driver error that has no more specific mapping.
    Cuda(CudaError),
}

impl HetSortError {
    /// Shorthand for a config error.
    pub(crate) fn config(reason: impl Into<String>) -> Self {
        HetSortError::Config {
            reason: reason.into(),
        }
    }

    /// Shorthand for a data error.
    pub(crate) fn data(reason: impl Into<String>) -> Self {
        HetSortError::Data {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for HetSortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HetSortError::Config { reason } => write!(f, "invalid configuration: {reason}"),
            HetSortError::Plan { reason } => write!(f, "invalid plan: {reason}"),
            HetSortError::Data { reason } => write!(f, "data mismatch: {reason}"),
            HetSortError::GpuOom {
                gpu,
                batch,
                requested_bytes,
                free_bytes,
            } => {
                write!(
                    f,
                    "GPU {gpu} out of memory: requested {requested_bytes:.3e} B, {free_bytes:.3e} B free"
                )?;
                if let Some(b) = batch {
                    write!(f, " (batch {b})")?;
                }
                Ok(())
            }
            HetSortError::TransferFault {
                step,
                batch,
                dir,
                attempts,
            } => {
                let d = match dir {
                    TransferDir::HtoD => "HtoD",
                    TransferDir::DtoH => "DtoH",
                };
                write!(
                    f,
                    "{d} transfer failed at step {step} (batch {batch}) after {attempts} attempt(s)"
                )
            }
            HetSortError::DeviceSortFault { step, batch, gpu } => {
                write!(
                    f,
                    "device sort failed at step {step} (batch {batch}, GPU {gpu})"
                )
            }
            HetSortError::DeviceLost { gpu } => {
                write!(f, "GPU {gpu} lost and no recovery path remains")
            }
            HetSortError::WorkerPanic { worker, message } => {
                write!(f, "stream worker {worker} panicked: {message}")
            }
            HetSortError::Sim { reason } => write!(f, "simulation failed: {reason}"),
            HetSortError::Overloaded { job, reason } => {
                write!(f, "service overloaded")?;
                if let Some(j) = job {
                    write!(f, " (job {j})")?;
                }
                write!(f, ": {reason}")
            }
            HetSortError::Cuda(e) => write!(f, "CUDA error: {e}"),
        }
    }
}

impl std::error::Error for HetSortError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HetSortError::Cuda(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CudaError> for HetSortError {
    fn from(e: CudaError) -> Self {
        match e {
            CudaError::DeviceOom {
                gpu,
                requested_bytes,
                free_bytes,
            } => HetSortError::GpuOom {
                gpu,
                batch: None,
                requested_bytes,
                free_bytes,
            },
            CudaError::DeviceLost { gpu } => HetSortError::DeviceLost { gpu },
            other => HetSortError::Cuda(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_step_and_batch() {
        let e = HetSortError::TransferFault {
            step: 17,
            batch: 3,
            dir: TransferDir::HtoD,
            attempts: 3,
        };
        let s = e.to_string();
        assert!(s.contains("step 17"), "{s}");
        assert!(s.contains("batch 3"), "{s}");
        assert!(s.contains("HtoD"), "{s}");
    }

    #[test]
    fn overloaded_names_the_job() {
        let e = HetSortError::Overloaded {
            job: Some(42),
            reason: "queue full (depth 8)".into(),
        };
        let s = e.to_string();
        assert!(s.contains("overloaded"), "{s}");
        assert!(s.contains("job 42"), "{s}");
        assert!(s.contains("queue full"), "{s}");
        let anon = HetSortError::Overloaded {
            job: None,
            reason: "x".into(),
        }
        .to_string();
        assert!(!anon.contains("job"), "{anon}");
    }

    #[test]
    fn cuda_oom_maps_to_gpu_oom() {
        let e: HetSortError = CudaError::DeviceOom {
            gpu: 1,
            requested_bytes: 4_000_000_000,
            free_bytes: 1_000_000_000,
        }
        .into();
        assert!(matches!(
            e,
            HetSortError::GpuOom {
                gpu: 1,
                batch: None,
                ..
            }
        ));
    }

    #[test]
    fn source_chains_to_cuda() {
        use std::error::Error;
        let e = HetSortError::Cuda(CudaError::BadFaultSpec {
            spec: "htod".into(),
            reason: "missing occurrence".into(),
        });
        assert!(e.source().is_some());
        assert!(HetSortError::config("x").source().is_none());
    }
}
