//! Structured operation traces for schedule analysis.
//!
//! A [`Timeline`](crate::Timeline) records *when* ops ran; an
//! [`OpTrace`] records *what they touched and how they were ordered* —
//! the input of the `hetsort-analyze` happens-before race detector.
//! The one producer is `hetsort-core`'s `optrace::trace_nodes`: every
//! dag node tagged with the staging / device / host buffers it reads
//! and writes, statically or as the functional engine executed it.
//!
//! The trace model is deliberately CUDA-shaped:
//!
//! * records are in **submission order** (the order the host issued
//!   them), each bound to a *thread* — a stream, or the host itself;
//! * ordering facts are only program order within a thread,
//!   [`TraceKind::EventRecord`] / [`TraceKind::StreamWaitEvent`] edges
//!   between threads, and [`TraceKind::DeviceSync`] full joins;
//! * every data-touching record carries the [`Buffer`]s it accesses, so
//!   a checker can decide whether two conflicting accesses are actually
//!   ordered — without knowing anything about sorting.

/// A buffer identity, as fine-grained as races are meaningful.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Buffer {
    /// A device allocation: one id per allocation per GPU.
    Dev {
        /// Owning GPU.
        gpu: usize,
        /// Allocation id, unique per GPU.
        id: usize,
    },
    /// A pinned host staging buffer: treated as one unit —
    /// chunked copies reuse the whole buffer, which is exactly the
    /// lifetime hazard the analyzer must see.
    Pinned {
        /// Allocation id.
        id: usize,
    },
    /// A byte-addressable host region (`A`, `W`, `B`, per-stream batch
    /// staging, pair-merge outputs). Two host accesses conflict only
    /// when their element ranges overlap.
    Host {
        /// Region id (see `hetsort-core`'s region constants).
        region: usize,
        /// First element touched.
        start: usize,
        /// Element count.
        len: usize,
    },
}

impl Buffer {
    /// Do two buffer references touch overlapping memory?
    pub fn overlaps(&self, other: &Buffer) -> bool {
        match (self, other) {
            (Buffer::Dev { gpu: g1, id: i1 }, Buffer::Dev { gpu: g2, id: i2 }) => {
                g1 == g2 && i1 == i2
            }
            (Buffer::Pinned { id: i1 }, Buffer::Pinned { id: i2 }) => i1 == i2,
            (
                Buffer::Host {
                    region: r1,
                    start: s1,
                    len: l1,
                },
                Buffer::Host {
                    region: r2,
                    start: s2,
                    len: l2,
                },
            ) => r1 == r2 && *l1 > 0 && *l2 > 0 && s1 < &(s2 + l2) && s2 < &(s1 + l1),
            _ => false,
        }
    }

    /// A short display form (`dev0#3`, `pin#2`, `host2[40..60)`).
    pub fn short(&self) -> String {
        match self {
            Buffer::Dev { gpu, id } => format!("dev{gpu}#{id}"),
            Buffer::Pinned { id } => format!("pin#{id}"),
            Buffer::Host { region, start, len } => {
                format!("host{region}[{start}..{})", start + len)
            }
        }
    }
}

/// One buffer access within a record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Access {
    /// The buffer touched.
    pub buf: Buffer,
    /// Write (true) or read (false). Two accesses conflict when they
    /// overlap and at least one is a write.
    pub write: bool,
}

impl Access {
    /// A read access.
    pub fn read(buf: Buffer) -> Access {
        Access { buf, write: false }
    }

    /// A write access.
    pub fn write(buf: Buffer) -> Access {
        Access { buf, write: true }
    }
}

/// What one trace record is.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A data-touching operation (copy, kernel, staging memcpy, merge).
    Op {
        /// Buffers read/written.
        accesses: Vec<Access>,
    },
    /// Allocation of a device or pinned buffer.
    Alloc {
        /// The buffer brought to life.
        buf: Buffer,
        /// Size in bytes (as modeled; 0 when unknown).
        bytes: f64,
    },
    /// Deallocation.
    Free {
        /// The buffer released.
        buf: Buffer,
    },
    /// `cudaEventRecord`: captures "everything this thread did so far".
    EventRecord {
        /// Event id (producer-chosen; need not be dense).
        event: usize,
    },
    /// `cudaStreamWaitEvent`: this thread's subsequent records are
    /// ordered after the event's capture point.
    StreamWaitEvent {
        /// Event id awaited.
        event: usize,
    },
    /// `cudaDeviceSynchronize`: every record after this one (in
    /// submission order, on any thread) is ordered after every record
    /// before it.
    DeviceSync,
}

/// One submitted operation.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Issuing thread: stream index, or the producer's host-thread id.
    pub thread: usize,
    /// Human-readable label (`HtoD b2.c1 (step 17)`).
    pub label: String,
    /// Payload.
    pub kind: TraceKind,
}

/// A complete structured trace in submission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpTrace {
    /// Number of threads (streams + host). Thread ids in records are
    /// `< n_threads`.
    pub n_threads: usize,
    /// Records in submission order.
    pub records: Vec<TraceRecord>,
}

impl OpTrace {
    /// An empty trace over `n_threads` threads.
    pub fn new(n_threads: usize) -> OpTrace {
        OpTrace {
            n_threads,
            records: Vec::new(),
        }
    }

    /// Append a record; returns its index.
    pub fn push(&mut self, thread: usize, label: impl Into<String>, kind: TraceKind) -> usize {
        self.n_threads = self.n_threads.max(thread + 1);
        self.records.push(TraceRecord {
            thread,
            label: label.into(),
            kind,
        });
        self.records.len() - 1
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_ranges_overlap_only_when_ranges_do() {
        let a = Buffer::Host {
            region: 1,
            start: 0,
            len: 10,
        };
        let b = Buffer::Host {
            region: 1,
            start: 9,
            len: 5,
        };
        let c = Buffer::Host {
            region: 1,
            start: 10,
            len: 5,
        };
        let d = Buffer::Host {
            region: 2,
            start: 0,
            len: 100,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(!a.overlaps(&d));
    }

    #[test]
    fn dev_and_pinned_identity() {
        let d0 = Buffer::Dev { gpu: 0, id: 1 };
        let d1 = Buffer::Dev { gpu: 1, id: 1 };
        assert!(d0.overlaps(&d0));
        assert!(!d0.overlaps(&d1));
        assert!(Buffer::Pinned { id: 3 }.overlaps(&Buffer::Pinned { id: 3 }));
        assert!(!Buffer::Pinned { id: 3 }.overlaps(&d0));
    }

    #[test]
    fn push_grows_thread_count() {
        let mut t = OpTrace::new(1);
        t.push(
            4,
            "x",
            TraceKind::Op {
                accesses: vec![Access::read(Buffer::Pinned { id: 0 })],
            },
        );
        assert_eq!(t.n_threads, 5);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
