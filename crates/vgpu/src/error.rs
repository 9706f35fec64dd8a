//! Typed errors for the virtual CUDA substrate.
//!
//! Device allocation ([`Machine::device_alloc`](crate::Machine::device_alloc)),
//! the device-pool liveness check
//! ([`FaultInjector::device_op`](crate::FaultInjector::device_op)) and
//! fault-schedule parsing report a [`CudaError`] instead of a formatted
//! string, so executors can pattern-match on the failure kind — the
//! foundation the recovery policies in `hetsort-core` are built on.

use std::fmt;

/// A driver-level failure of the virtual CUDA layer.
#[derive(Debug, Clone, PartialEq)]
pub enum CudaError {
    /// `cudaMalloc` would exceed the device's global memory (or a fault
    /// schedule injected `cudaErrorMemoryAllocation`).
    DeviceOom {
        /// The device that ran out.
        gpu: usize,
        /// Bytes the allocation asked for.
        requested_bytes: u64,
        /// Bytes still free on the device at the time of the request.
        free_bytes: u64,
    },
    /// The device fell off the bus (a scheduled `DeviceLost` pool
    /// event): every subsequent allocation, copy, or kernel on it fails
    /// until a matching join event restores capacity.
    DeviceLost {
        /// The device that was lost.
        gpu: usize,
    },
    /// A textual fault schedule (`--faults`) could not be parsed.
    BadFaultSpec {
        /// The offending fragment.
        spec: String,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for CudaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CudaError::DeviceOom {
                gpu,
                requested_bytes,
                free_bytes,
            } => write!(
                f,
                "GPU {gpu} out of memory: requested {requested_bytes:.3e} B but only {free_bytes:.3e} B free"
            ),
            CudaError::DeviceLost { gpu } => {
                write!(f, "GPU {gpu} lost: device removed from the pool")
            }
            CudaError::BadFaultSpec { spec, reason } => {
                write!(f, "bad fault spec {spec:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for CudaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = CudaError::DeviceOom {
            gpu: 1,
            requested_bytes: 8_000_000_000,
            free_bytes: 2_000_000_000,
        };
        let s = e.to_string();
        assert!(s.contains("GPU 1"), "{s}");
        assert!(s.contains("8.000e9"), "{s}");
        let e = CudaError::DeviceLost { gpu: 2 };
        assert!(e.to_string().contains("GPU 2 lost"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&CudaError::DeviceLost { gpu: 4 });
    }
}
