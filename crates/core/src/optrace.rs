//! Structured operation traces: the vocabulary, and the lowering of an
//! op-dag to it.
//!
//! A simulated [`Timeline`](hetsort_sim::Timeline) records *when* ops
//! ran; an [`OpTrace`] records *what they touched and how they were
//! ordered* — the input of the `hetsort-analyze` happens-before race
//! detector. The trace model is deliberately CUDA-shaped:
//!
//! * records are in **submission order** (the order the host issued
//!   them), each bound to a *thread* — a stream, or the host itself;
//! * ordering facts are only program order within a thread,
//!   [`TraceKind::EventRecord`] / [`TraceKind::StreamWaitEvent`] edges
//!   between threads, and [`TraceKind::DeviceSync`] full joins;
//! * every data-touching record carries the [`Buffer`]s it accesses, so
//!   a checker can decide whether two conflicting accesses are actually
//!   ordered — without knowing anything about sorting.
//!
//! There is one trace builder, `trace_nodes`, over a plan's geometry,
//! the nodes to describe and the route each node took. It synthesizes
//! the event edges from the *nodes'* dependency lists — so a mutated
//! dag (a dropped or rewired edge) lowers to a trace missing exactly
//! that sync edge, which is what lets the happens-before checker kill
//! trace-level mutants instead of silently re-deriving the edge from a
//! pristine plan — and derives every op's buffer accesses from one
//! table over (node, route):
//!
//! * [`lower_plan`] / [`lower_dag`] emit the *static* trace of
//!   `plan.steps` / `dag.nodes` — what the schedule claims it will do,
//!   every node on its device route ([`node_accesses`]). `hetsort
//!   analyze` checks this before anything runs.
//! * The engine emits the *executed* trace — the same thread/event
//!   structure over the nodes that ran, each with the route its stream
//!   interpreter logged: the device path, an OOM split (the batch staged
//!   host-side), the node where a batch gave up to the host sort (reads
//!   its `A` range, writes its `W`/`B` range), or skipped (the batch was
//!   done: no accesses). Recovery touches different buffers than the
//!   static schedule, and this is how those paths get re-checked.
//!
//! Thread model: one trace thread per stream (`0..total_streams`), plus
//! a host thread (`total_streams`) for the pair/multiway merges. The
//! dag's cross-thread dependencies are synthesized as
//! `EventRecord`/`StreamWaitEvent` pairs — the event id is the producer
//! node's index — so the happens-before checker sees exactly the sync
//! edges the executors rely on (stream FIFO order plus the explicit
//! dependencies), and a mutation that drops one produces a reportable
//! race instead of a silently-wrong schedule.
//!
//! Buffer identity:
//!
//! * `Host` regions: `A` (input), `W` (sorted-sublist working memory),
//!   `B` (output), one per stream for its Split staging, and one per
//!   pair-merge output. Host accesses carry element ranges, so only true
//!   overlaps conflict.
//! * `Dev { gpu, id }`: `id` is the owning stream — each stream keeps
//!   one resident batch buffer, as the executors do.
//! * `Pinned { id }`: the plan's
//!   [`StagingLayout`](crate::plan::StagingLayout) names them. Stream
//!   `s` owns the id triple `3·s .. 3·s + 2`. Inbound staging is
//!   `3·s + half` — double-buffered plans split the one inbound
//!   allocation into two halves keyed by `chunk % 2`, so the checker
//!   sees StageIn of chunk `c+1` and HtoD of chunk `c` touching
//!   *different* identities (that overlap is the whole point of double
//!   buffering). Outbound is `3·s + 2` for piped plans; blocking plans
//!   under paper staging reuse inbound half 0 (`3·s`) both ways, as the
//!   executors reuse the buffer. Elided-stage-out plans
//!   ([`Outbound::Elided`](crate::plan::Outbound::Elided)) have no
//!   outbound pinned buffer at all: DtoH pages straight out of device
//!   memory and the StageOut marker reads the device buffer.

use crate::dag::{DagNode, DagOp, PlanDag};
use crate::plan::{MergeSrc, Plan};

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
        /// Region id (the lowering below assigns them).
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
        bytes: u64,
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

/// Host region id of the input list `A`.
const REGION_A: usize = 0;
/// Host region id of the working memory `W` (sorted sublists).
const REGION_W: usize = 1;
/// Host region id of the output list `B`.
const REGION_B: usize = 2;

/// Host region id of stream `s`'s batch staging buffer (the Split
/// recovery route).
fn region_host_batch(stream: usize) -> usize {
    3 + stream
}

/// Host region id of pair-merge slot `slot`'s output buffer.
fn region_pair(total_streams: usize, slot: usize) -> usize {
    3 + total_streams + slot
}

/// The trace thread merges run on.
fn host_thread(plan: &Plan) -> usize {
    plan.total_streams
}

/// How the functional engine ran one node — which row of the access
/// table the executed trace gives it. A node with no logged route took
/// the device route, as every node of the static trace does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// The fault-free path: the batch lives in its stream's device
    /// buffer.
    Device,
    /// OOM recovery: the batch is staged in its stream's host buffer
    /// and sorted there in device-sized sub-runs.
    Split,
    /// The batch gave up at this node: the engine host-sorts it from
    /// its `A` range into its `W`/`B` range.
    Degraded,
    /// The batch was already done (checkpointed by an earlier pass, or
    /// given up at an earlier node): the node touches nothing.
    Skipped,
}

/// The device buffer a stream's batches live in.
fn dev_buf(plan: &Plan, batch: usize) -> Buffer {
    let b = &plan.batches[batch];
    Buffer::Dev {
        gpu: b.gpu,
        id: b.stream,
    }
}

/// One merge source as a read access.
fn src_read(plan: &Plan, src: MergeSrc) -> Access {
    match src {
        MergeSrc::Batch(b) => {
            let bi = &plan.batches[b];
            Access::read(Buffer::Host {
                region: REGION_W,
                start: bi.start,
                len: bi.len,
            })
        }
        MergeSrc::Merged(p) => Access::read(Buffer::Host {
            region: region_pair(plan.total_streams, p),
            start: 0,
            len: plan.pairs[p].out_elems,
        }),
    }
}

/// A short label for node `i` (`HtoD b2.c1 (step 17)`).
pub fn node_label(op: &DagOp, i: usize) -> String {
    match op {
        DagOp::PinnedAlloc { stream, dir_in, .. } => {
            let way = if *dir_in { "in" } else { "out" };
            format!("PinnedAlloc {way} s{stream} (step {i})")
        }
        DagOp::StagingCopy {
            batch,
            chunk,
            dir_in,
            ..
        } => {
            let op = if *dir_in { "StageIn" } else { "StageOut" };
            format!("{op} b{batch}.c{chunk} (step {i})")
        }
        DagOp::HtoD { batch, chunk, .. } => format!("HtoD b{batch}.c{chunk} (step {i})"),
        DagOp::Sort { batch } => format!("GpuSort b{batch} (step {i})"),
        DagOp::DtoH { batch, chunk, .. } => format!("DtoH b{batch}.c{chunk} (step {i})"),
        DagOp::PairMerge { slot } => format!("PairMerge slot {slot} (step {i})"),
        DagOp::MultiwayMerge { inputs } => {
            format!("MultiwayMerge k={} (step {i})", inputs.len())
        }
    }
}

/// The buffer accesses `node` performs on the fault-free path: the
/// device row of the access table.
pub fn node_accesses(plan: &Plan, node: &DagNode) -> Vec<Access> {
    accesses(plan, node, Route::Device)
}

/// The access table: the buffers `node` touches on `route`.
fn accesses(plan: &Plan, node: &DagNode, route: Route) -> Vec<Access> {
    // Single-batch plans stage straight into B; multi-batch into W.
    let out_region = if plan.nb() > 1 { REGION_W } else { REGION_B };
    let host = |region, start, len| Buffer::Host { region, start, len };
    let split = match (route, node.op.batch()) {
        (Route::Device, _) => false,
        (Route::Split, _) => true,
        (Route::Degraded, Some(b)) => {
            let bi = &plan.batches[b];
            return vec![
                Access::read(host(REGION_A, bi.start, bi.len)),
                Access::write(host(out_region, bi.start, bi.len)),
            ];
        }
        (Route::Degraded, None) | (Route::Skipped, _) => return Vec::new(),
    };
    // Stream-less data ops get the sentinel lane `total_streams` so
    // their pinned ids (`3·S ..`) can never alias stream 0's real
    // staging buffers and fabricate conflicts in the checker.
    let stream = node.stream.unwrap_or(plan.total_streams);
    let pin_in = |chunk: usize| Buffer::Pinned {
        id: plan.staging.in_id(stream, chunk),
    };
    // The pinned buffer outbound chunks pass through; `None` when the
    // stage-out is elided.
    let pin_out = plan.staging.out_id(stream).map(|id| Buffer::Pinned { id });
    // Elements `start .. start + len` of the input, as they sit in the
    // stream's Split staging of batch `batch`.
    let staged = |batch: usize, start: usize, len| {
        let region = region_host_batch(stream);
        host(region, start - plan.batches[batch].start, len)
    };
    match &node.op {
        DagOp::PinnedAlloc { .. } => Vec::new(),
        DagOp::StagingCopy {
            start,
            len,
            chunk,
            dir_in: true,
            ..
        } => vec![
            Access::read(host(REGION_A, *start, *len)),
            Access::write(pin_in(*chunk)),
        ],
        DagOp::StagingCopy {
            batch,
            start,
            len,
            dir_in: false,
            ..
        } => vec![
            Access::read(match (pin_out, split) {
                (Some(pin), _) => pin,
                (None, false) => dev_buf(plan, *batch),
                (None, true) => staged(*batch, *start, *len),
            }),
            Access::write(host(out_region, *start, *len)),
        ],
        DagOp::HtoD {
            batch,
            chunk,
            start,
            len,
        } => vec![
            Access::read(pin_in(*chunk)),
            Access::write(if split {
                staged(*batch, *start, *len)
            } else {
                dev_buf(plan, *batch)
            }),
        ],
        DagOp::Sort { batch } => {
            let d = dev_buf(plan, *batch);
            let mut acc = Vec::with_capacity(4);
            if split {
                let bi = &plan.batches[*batch];
                let hb = staged(*batch, bi.start, bi.len);
                acc.extend([Access::read(hb), Access::write(hb)]);
            }
            acc.extend([Access::read(d), Access::write(d)]);
            acc
        }
        DagOp::DtoH {
            batch, start, len, ..
        } => {
            let src = if split {
                staged(*batch, *start, *len)
            } else {
                dev_buf(plan, *batch)
            };
            match pin_out {
                Some(pin) => vec![Access::read(src), Access::write(pin)],
                // An elided Split batch is read from its host staging
                // by the StageOut marker; its DtoH moves nothing.
                None if split => Vec::new(),
                None => vec![Access::read(src)],
            }
        }
        DagOp::PairMerge { slot } => {
            let spec = plan.pairs[*slot];
            let out = host(region_pair(plan.total_streams, *slot), 0, spec.out_elems);
            vec![
                src_read(plan, spec.left),
                src_read(plan, spec.right),
                Access::write(out),
            ]
        }
        DagOp::MultiwayMerge { inputs } => {
            let mut acc: Vec<Access> = inputs.iter().map(|&src| src_read(plan, src)).collect();
            acc.push(Access::write(host(REGION_B, 0, plan.n)));
            acc
        }
    }
}

/// Lower the plan's own nodes to their static trace (fault-free
/// accesses).
pub fn lower_plan(plan: &Plan) -> OpTrace {
    trace_nodes(plan, &plan.steps, &[])
}

/// Lower a dag's nodes to their static trace (fault-free accesses).
pub fn lower_dag(dag: &PlanDag) -> OpTrace {
    trace_nodes(&dag.plan, &dag.nodes, &[])
}

/// Lower `nodes` over `plan`'s geometry, node `i` on `routes[i]` (the
/// device route where `routes` is short). The event edges come from
/// the nodes' dependency lists: nodes whose edges were mutated lower to
/// a trace missing exactly those sync edges, which the happens-before
/// checker then reports as a race.
pub(crate) fn trace_nodes(plan: &Plan, nodes: &[DagNode], routes: &[Route]) -> OpTrace {
    let host = host_thread(plan);
    let thread_of = |i: usize| nodes[i].stream.unwrap_or(host);
    // Nodes with a cross-thread consumer record an event right after
    // completing; consumers wait on it right before starting.
    let mut needs_event = vec![false; nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        for &d in &node.deps {
            if thread_of(d) != thread_of(i) {
                needs_event[d] = true;
            }
        }
    }

    let mut trace = OpTrace::new(host + 1);
    // Buffers allocated during lowering, with their owning thread —
    // each stream releases its own buffers in the epilogue below.
    let mut alloced: Vec<(usize, Buffer)> = Vec::new();
    let mut dev_alloced = vec![false; plan.total_streams];
    let dev_bytes = plan.config.device_bytes(plan.config.batch_elems);
    for (si, node) in nodes.iter().enumerate() {
        let th = thread_of(si);
        for &d in &node.deps {
            if thread_of(d) != th {
                trace.push(
                    th,
                    format!("wait on {} (step {si})", node_label(&nodes[d].op, d)),
                    TraceKind::StreamWaitEvent { event: d },
                );
            }
        }
        match &node.op {
            DagOp::PinnedAlloc {
                stream,
                bytes,
                dir_in,
            } => {
                // One identity per inbound half, so accesses, frees
                // and leak lints line up with the halves the copies use.
                let ids: Vec<usize> = if *dir_in {
                    let halves = 0..plan.staging.halves;
                    halves.map(|h| plan.staging.in_id(*stream, h)).collect()
                } else {
                    plan.staging.out_id(*stream).into_iter().collect()
                };
                for (half, &id) in ids.iter().enumerate() {
                    let buf = Buffer::Pinned { id };
                    alloced.push((th, buf));
                    let mut label = node_label(&node.op, si);
                    if ids.len() > 1 {
                        label = format!("{label} half {half}");
                    }
                    let bytes = *bytes / ids.len() as u64;
                    trace.push(th, label, TraceKind::Alloc { buf, bytes });
                }
            }
            op => {
                // Each stream's device buffer materializes at its first
                // device-touching op (the cudaMalloc stand-in).
                if let DagOp::HtoD { batch, .. } = op {
                    let b = &plan.batches[*batch];
                    if !dev_alloced[b.stream] {
                        dev_alloced[b.stream] = true;
                        alloced.push((th, dev_buf(plan, *batch)));
                        trace.push(
                            th,
                            format!("DevAlloc s{} (step {si})", b.stream),
                            TraceKind::Alloc {
                                buf: dev_buf(plan, *batch),
                                bytes: dev_bytes,
                            },
                        );
                    }
                }
                let route = routes.get(si).copied().unwrap_or(Route::Device);
                let accesses = accesses(plan, node, route);
                trace.push(th, node_label(&node.op, si), TraceKind::Op { accesses });
            }
        }
        if needs_event[si] {
            trace.push(
                th,
                format!("record ev{si} ({})", node_label(&node.op, si)),
                TraceKind::EventRecord { event: si },
            );
        }
    }
    // Epilogue: each stream frees its own buffers after its last op
    // (the executors' sync-then-drop, made explicit so the analyzer's
    // lifetime lints — leak, double-free, use-after-free — apply).
    // Thread-local program order makes each free ordered after every
    // op of the owning stream; the buffers are stream-private, so no
    // cross-thread edge is needed.
    for (th, buf) in alloced {
        trace.push(
            th,
            format!("Free {} (epilogue)", buf.short()),
            TraceKind::Free { buf },
        );
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HetSortConfig};
    use hetsort_vgpu::platform1;

    fn plan(approach: Approach, n: usize) -> Plan {
        let cfg = HetSortConfig::paper_defaults(platform1(), approach)
            .with_batch_elems(1000)
            .with_pinned_elems(300);
        Plan::build(cfg, n).unwrap()
    }

    #[test]
    fn lowering_covers_every_step() {
        let p = plan(Approach::PipeMerge, 6000);
        let tr = lower_plan(&p);
        let ops = tr
            .records
            .iter()
            .filter(|r| matches!(r.kind, TraceKind::Op { .. }))
            .count();
        let allocs = p
            .steps
            .iter()
            .filter(|s| matches!(s.op, DagOp::PinnedAlloc { .. }))
            .count();
        assert_eq!(ops, p.steps.len() - allocs);
        assert_eq!(tr.n_threads, p.total_streams + 1);
    }

    #[test]
    fn cross_thread_deps_become_event_edges() {
        let p = plan(Approach::PipeMerge, 6000);
        let tr = lower_plan(&p);
        let recs = tr
            .records
            .iter()
            .filter(|r| matches!(r.kind, TraceKind::EventRecord { .. }))
            .count();
        let waits = tr
            .records
            .iter()
            .filter(|r| matches!(r.kind, TraceKind::StreamWaitEvent { .. }))
            .count();
        assert!(recs > 0, "merges consume cross-thread results");
        assert!(waits >= recs, "every recorded event has a waiter");
        // Every wait names a recorded event, and the record precedes it.
        for (i, r) in tr.records.iter().enumerate() {
            if let TraceKind::StreamWaitEvent { event } = r.kind {
                let rec_pos = tr.records.iter().position(
                    |x| matches!(x.kind, TraceKind::EventRecord { event: e } if e == event),
                );
                assert!(rec_pos.is_some_and(|p| p < i), "wait at {i} before record");
            }
        }
    }

    #[test]
    fn streamless_data_ops_use_sentinel_pinned_lane() {
        use crate::dag::PlanDag;
        let p = plan(Approach::PipeMerge, 6000);
        let total = p.total_streams;
        let mut dag = PlanDag::from_plan(p);
        // Hand-strip the stream off one HtoD node, as a hand-built or
        // mutated dag may legally do.
        let i = dag
            .nodes
            .iter()
            .position(|n| matches!(n.op, DagOp::HtoD { .. }))
            .unwrap();
        dag.nodes[i].stream = None;
        let DagOp::HtoD { chunk, .. } = dag.nodes[i].op else {
            unreachable!("node {i} is an HtoD")
        };
        let layout = dag.plan.staging;
        let acc = node_accesses(&dag.plan, &dag.nodes[i]);
        let pinned_ids: Vec<usize> = acc
            .iter()
            .filter_map(|a| match a.buf {
                Buffer::Pinned { id } => Some(id),
                _ => None,
            })
            .collect();
        assert!(!pinned_ids.is_empty(), "HtoD reads a pinned buffer");
        for id in pinned_ids {
            assert_eq!(
                id,
                layout.in_id(total, chunk),
                "sentinel lane, not stream 0"
            );
            assert_ne!(id, layout.in_id(0, chunk), "must not alias stream 0");
        }
    }

    #[test]
    fn bline_stages_straight_into_b() {
        let p = plan(Approach::BLine, 1000);
        let tr = lower_plan(&p);
        assert!(tr.records.iter().any(|r| match &r.kind {
            TraceKind::Op { accesses } => accesses.iter().any(|a| {
                a.write && matches!(a.buf, Buffer::Host { region, .. } if region == REGION_B)
            }),
            _ => false,
        }));
        // Under paper staging, blocking plans reuse one pinned buffer
        // both ways (half 0).
        let mut cfg = p.config.clone();
        cfg.staging = crate::config::StagingMode::Paper;
        let paper = Plan::build(cfg, 1000).unwrap();
        assert_eq!(paper.staging.out_id(0), Some(paper.staging.in_id(0, 0)));
    }

    #[test]
    fn elided_stage_out_reads_the_device_buffer() {
        // Blocking + double-buffered (paper_defaults) elides the
        // outbound pinned bounce: the StageOut marker reads device
        // memory, DtoH writes no pinned buffer, and the two inbound
        // halves carry distinct identities.
        let p = plan(Approach::BLineMulti, 4000);
        assert_eq!(p.staging.outbound, crate::plan::Outbound::Elided);
        let dag = PlanDag::from_plan(p.clone());
        for node in &dag.nodes {
            let acc = node_accesses(&dag.plan, node);
            match &node.op {
                DagOp::DtoH { .. } => {
                    assert!(
                        acc.iter().all(|a| !matches!(a.buf, Buffer::Pinned { .. })),
                        "elided DtoH must not touch pinned staging"
                    );
                }
                DagOp::StagingCopy { dir_in: false, .. } => {
                    assert!(
                        acc.iter()
                            .any(|a| !a.write && matches!(a.buf, Buffer::Dev { .. })),
                        "elided StageOut reads device memory"
                    );
                }
                DagOp::StagingCopy {
                    chunk,
                    dir_in: true,
                    ..
                } => {
                    let want = p.staging.in_id(node.stream.unwrap(), *chunk);
                    assert!(
                        acc.iter()
                            .any(|a| a.write && a.buf == (Buffer::Pinned { id: want })),
                        "StageIn c{chunk} writes its own half"
                    );
                }
                _ => {}
            }
        }
    }

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
