//! The span vocabulary: one record per executed operation.
//!
//! Classes mirror the paper's component taxonomy (Table I + §IV-E) so
//! that per-class totals line up with the figures: the literature's
//! accounting counts `HtoD + DtoH + GpuSort (+ merges)`, the full
//! accounting adds `StagingCopy`, `PinnedAlloc`, and `Sync`.

use std::fmt;

/// Operation class of a span: the closed vocabulary of every producer
/// (the simulator, the functional executors, the service).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Host→device transfer over PCIe.
    HtoD,
    /// Device→host transfer over PCIe.
    DtoH,
    /// On-device sort kernel.
    GpuSort,
    /// Host↔pinned staging memcpy (both directions of the paper's
    /// `MCpy`).
    StagingCopy,
    /// Pipelined pair-wise merge on the CPU.
    PairMerge,
    /// Final multiway merge on the CPU.
    MultiwayMerge,
    /// Pinned-memory allocation (`cudaMallocHost`).
    PinnedAlloc,
    /// Synchronization / barrier latency surfaced as its own span.
    Sync,
    /// One CPU worker's share of a parallel merge/sort region — the
    /// per-worker breakdown of a `PairMerge`/`MultiwayMerge` span, so
    /// scheduler imbalance is visible in Chrome traces and the
    /// registry. Not part of the literature accounting (the parent
    /// span already covers the wall time).
    CpuPart,
    /// Anything outside the closed vocabulary (reference sorts,
    /// experimental device merges); kept so totals never silently drop
    /// spans.
    Other,
}

impl OpClass {
    /// Every class, in display order.
    pub const ALL: [OpClass; 10] = [
        OpClass::HtoD,
        OpClass::DtoH,
        OpClass::GpuSort,
        OpClass::StagingCopy,
        OpClass::PairMerge,
        OpClass::MultiwayMerge,
        OpClass::PinnedAlloc,
        OpClass::Sync,
        OpClass::CpuPart,
        OpClass::Other,
    ];

    /// The classes the literature's end-to-end accounting includes
    /// (§IV-E: transfers, device sort, host merges).
    pub const LITERATURE: [OpClass; 5] = [
        OpClass::HtoD,
        OpClass::DtoH,
        OpClass::GpuSort,
        OpClass::PairMerge,
        OpClass::MultiwayMerge,
    ];

    /// Stable display name (also the Chrome-trace category).
    pub fn name(&self) -> &'static str {
        match self {
            OpClass::HtoD => "HtoD",
            OpClass::DtoH => "DtoH",
            OpClass::GpuSort => "GPUSort",
            OpClass::StagingCopy => "StagingCopy",
            OpClass::PairMerge => "PairMerge",
            OpClass::MultiwayMerge => "MultiwayMerge",
            OpClass::PinnedAlloc => "PinnedAlloc",
            OpClass::Sync => "Sync",
            OpClass::CpuPart => "CpuPart",
            OpClass::Other => "Other",
        }
    }

    /// Parse a display name back into a class (exact match only).
    pub fn parse(name: &str) -> Option<OpClass> {
        OpClass::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// Stable small integer for deterministic sorting.
    pub(crate) fn ord_key(&self) -> u8 {
        // Position in ALL is the canonical order.
        OpClass::ALL
            .iter()
            .position(|c| c == self)
            .unwrap_or(OpClass::ALL.len()) as u8
    }
}

/// One executed operation: what it was, where it ran, how big it was,
/// and when (seconds relative to the run's origin — simulated time for
/// the DES engine, wall clock since run start for the functional
/// executors).
///
/// Spans carry fields, not names: a span of a dag node has its `node`
/// and the placement `core::dag::node_span` derives from it, and the
/// display name is rendered from those fields at export
/// ([`fmt::Display`]). Only node-less [`OpClass::Other`] spans
/// (failover, pool events, queue waits) carry free `text`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSpan {
    /// Operation class.
    pub class: OpClass,
    /// Dag node the span executed, if any. A [`OpClass::CpuPart`] span
    /// carries its parent merge's node.
    pub node: Option<u32>,
    /// CPU worker of a [`OpClass::CpuPart`] span.
    pub worker: Option<u32>,
    /// Physical GPU the op touched, if any.
    pub gpu: Option<usize>,
    /// Stream the op ran in, if any (host-side merges have none).
    pub stream: Option<usize>,
    /// Batch correlation key, if any.
    pub batch: Option<u64>,
    /// Serve-layer job correlation key, if any (spans from a
    /// single-tenant run have none).
    pub job: Option<u64>,
    /// Bytes moved / work units performed (bytes for transfers,
    /// staging copies, and allocations; calibrated work units for
    /// sorts and merges).
    pub bytes: f64,
    /// Start time, seconds.
    pub t_start: f64,
    /// End time, seconds.
    pub t_end: f64,
    /// What a node-less [`OpClass::Other`] span records
    /// (`"failover: GPU(s) 0 lost …"`); `None` everywhere else.
    pub text: Option<String>,
}

impl ObsSpan {
    /// Build a span of `class` covering `[t_start, t_end]`.
    pub fn new(class: OpClass, t_start: f64, t_end: f64) -> ObsSpan {
        ObsSpan {
            class,
            node: None,
            worker: None,
            gpu: None,
            stream: None,
            batch: None,
            job: None,
            bytes: 0.0,
            t_start,
            t_end,
            text: None,
        }
    }

    /// An [`OpClass::Other`] span outside any dag, described by `text`.
    pub fn other(text: impl Into<String>, t_start: f64, t_end: f64) -> ObsSpan {
        ObsSpan {
            text: Some(text.into()),
            ..ObsSpan::new(OpClass::Other, t_start, t_end)
        }
    }

    /// Set the serve-layer job correlation key.
    pub fn for_job(mut self, job: u64) -> Self {
        self.job = Some(job);
        self
    }

    /// Span duration in seconds (clamped at 0 for degenerate spans).
    pub fn duration(&self) -> f64 {
        (self.t_end - self.t_start).max(0.0)
    }
}

/// The span's display name: its `text` when it has one, else the class
/// followed by whichever of node, batch, stream, worker and job it
/// carries (`"HtoD n17 b2 s1"`, `"CpuPart n40 w3"`).
impl fmt::Display for ObsSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(text) = &self.text {
            return f.write_str(text);
        }
        f.write_str(self.class.name())?;
        let fields = [
            ('n', self.node.map(u64::from)),
            ('b', self.batch),
            ('s', self.stream.map(|s| s as u64)),
            ('w', self.worker.map(u64::from)),
            ('j', self.job),
        ];
        for (key, value) in fields {
            if let Some(v) = value {
                write!(f, " {key}{v}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for c in OpClass::ALL {
            assert_eq!(OpClass::parse(c.name()), Some(c), "{c:?}");
        }
        assert_eq!(OpClass::parse("nope"), None);
    }

    #[test]
    fn ord_keys_are_unique() {
        let mut keys: Vec<u8> = OpClass::ALL.iter().map(|c| c.ord_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), OpClass::ALL.len());
    }

    #[test]
    fn builder_and_duration() {
        let s = ObsSpan::new(OpClass::HtoD, 1.0, 2.5).for_job(9);
        assert_eq!((s.gpu, s.stream, s.batch, s.node), (None, None, None, None));
        assert_eq!(s.job, Some(9));
        assert!((s.duration() - 1.5).abs() < 1e-12);
        let degenerate = ObsSpan::new(OpClass::Sync, 2.0, 1.0);
        assert_eq!(degenerate.duration(), 0.0);
    }

    #[test]
    fn display_renders_the_fields() {
        let s = ObsSpan {
            node: Some(17),
            batch: Some(2),
            stream: Some(1),
            gpu: Some(0),
            ..ObsSpan::new(OpClass::HtoD, 0.0, 1.0)
        };
        assert_eq!(s.to_string(), "HtoD n17 b2 s1");
        let mut part = ObsSpan::new(OpClass::CpuPart, 0.0, 1.0).for_job(4);
        (part.node, part.worker) = (Some(40), Some(3));
        assert_eq!(part.to_string(), "CpuPart n40 w3 j4");
        assert_eq!(ObsSpan::new(OpClass::Sync, 0.0, 0.0).to_string(), "Sync");
        let failover = ObsSpan::other("failover: GPU(s) 0 lost", 0.0, 1.0).for_job(1);
        assert_eq!(failover.class, OpClass::Other);
        assert_eq!(failover.to_string(), "failover: GPU(s) 0 lost");
    }
}
