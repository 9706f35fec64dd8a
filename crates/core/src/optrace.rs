//! Lowering an op-dag to a structured [`OpTrace`].
//!
//! There is one trace builder, [`trace_nodes`], over a plan's geometry
//! and the nodes to describe. It synthesizes the event edges from the
//! *nodes'* dependency lists — so a mutated dag (a dropped or rewired
//! edge) lowers to a trace missing exactly that sync edge, which is
//! what lets the happens-before checker kill trace-level mutants
//! instead of silently re-deriving the edge from a pristine plan:
//!
//! * [`lower_plan`] / [`lower_dag`] emit the *static* trace of
//!   `plan.steps` / `dag.nodes` — what the schedule claims it will do,
//!   with every op's buffer accesses derived from the node alone
//!   ([`node_accesses`]). `hetsort analyze` checks this before anything
//!   runs.
//! * The engine passes `overrides` to emit the *executed* trace — the
//!   same thread/event structure over the nodes that ran, but with the
//!   accesses each stream interpreter actually performed substituted
//!   in. Recovery re-plans (OOM splits, CPU fallbacks) touch different
//!   buffers than the static schedule, and this is how those paths get
//!   re-checked.
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
//! * `Host` regions: [`REGION_A`] (input), [`REGION_W`] (sorted-sublist
//!   working memory), [`REGION_B`] (output), [`region_host_batch`] (a
//!   stream's Split/CpuFallback staging), [`region_pair`] (a pair-merge
//!   output). Host accesses carry element ranges, so only true overlaps
//!   conflict.
//! * `Dev { gpu, id }`: `id` is the owning stream — each stream keeps
//!   one resident batch buffer, as the executors do.
//! * `Pinned { id }`: stream `s` owns the id triple `3·s .. 3·s + 2`.
//!   Inbound staging is `3·s + half` — double-buffered plans split the
//!   one inbound allocation into two halves keyed by `chunk % 2`, so
//!   the checker sees StageIn of chunk `c+1` and HtoD of chunk `c`
//!   touching *different* identities (that overlap is the whole point
//!   of double buffering). Outbound is `3·s + 2` for piped plans;
//!   blocking plans reuse inbound half 0 (`3·s`) both ways, as the
//!   executors reuse the buffer. Elided-stage-out plans
//!   ([`Plan::stage_out_elided`]) have no outbound pinned buffer at
//!   all: DtoH pages straight out of device memory and the StageOut
//!   marker reads the device buffer.

use hetsort_sim::{Access, Buffer, OpTrace, TraceKind};

use crate::config::DEVICE_MEM_FACTOR;
use crate::dag::{DagNode, DagOp, PlanDag};
use crate::plan::{MergeSrc, Plan};

/// Host region id of the input list `A`.
pub const REGION_A: usize = 0;
/// Host region id of the working memory `W` (sorted sublists).
pub const REGION_W: usize = 1;
/// Host region id of the output list `B`.
pub const REGION_B: usize = 2;

/// Host region id of stream `s`'s batch staging buffer (used by the
/// Split and CpuFallback recovery modes).
pub fn region_host_batch(stream: usize) -> usize {
    3 + stream
}

/// Host region id of pair-merge slot `slot`'s output buffer.
pub fn region_pair(total_streams: usize, slot: usize) -> usize {
    3 + total_streams + slot
}

/// Pinned-buffer id of stream `s`'s inbound staging buffer. `half` is
/// `chunk % 2` for double-buffered plans and 0 otherwise — the two
/// halves of a double-buffered allocation get distinct identities so
/// the stage-in of one chunk may overlap the DMA of the previous.
pub fn pinned_in_id(stream: usize, half: usize) -> usize {
    3 * stream + half
}

/// Pinned-buffer id of stream `s`'s outbound staging buffer. Blocking
/// plans allocate one buffer and reuse it both ways (inbound half 0).
pub fn pinned_out_id(asynchronous: bool, stream: usize) -> usize {
    if asynchronous {
        3 * stream + 2
    } else {
        3 * stream
    }
}

/// The trace thread merges run on.
pub fn host_thread(plan: &Plan) -> usize {
    plan.total_streams
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
        DagOp::CpuMerge { slot } => format!("CpuMerge slot {slot} (step {i})"),
        DagOp::MultiwayMerge { inputs } => {
            format!("MultiwayMerge k={} (step {i})", inputs.len())
        }
    }
}

/// The buffer accesses `node` performs on the fault-free path.
/// [`DagOp::CpuMerge`] touches exactly what the equivalent
/// [`DagOp::PairMerge`] would — only the executing resource differs.
pub fn node_accesses(plan: &Plan, node: &DagNode) -> Vec<Access> {
    // Stream-less data ops get the sentinel lane `total_streams` so
    // their pinned ids (`3·S ..`) can never alias stream 0's real
    // staging buffers and fabricate conflicts in the checker.
    let stream = node.stream.unwrap_or(plan.total_streams);
    let db = plan.config.double_buffered();
    let elided = plan.stage_out_elided();
    let pin_in = |chunk: usize| Buffer::Pinned {
        id: pinned_in_id(stream, if db { chunk % 2 } else { 0 }),
    };
    let pin_out = Buffer::Pinned {
        id: pinned_out_id(plan.asynchronous, stream),
    };
    // Single-batch plans stage straight into B; multi-batch into W.
    let out_region = if plan.nb() > 1 { REGION_W } else { REGION_B };
    let pair_accesses = |slot: usize| {
        let spec = plan.pairs[slot];
        vec![
            src_read(plan, spec.left),
            src_read(plan, spec.right),
            Access::write(Buffer::Host {
                region: region_pair(plan.total_streams, slot),
                start: 0,
                len: spec.out_elems,
            }),
        ]
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
            Access::read(Buffer::Host {
                region: REGION_A,
                start: *start,
                len: *len,
            }),
            Access::write(pin_in(*chunk)),
        ],
        DagOp::StagingCopy {
            batch,
            start,
            len,
            dir_in: false,
            ..
        } => vec![
            if elided {
                Access::read(dev_buf(plan, *batch))
            } else {
                Access::read(pin_out)
            },
            Access::write(Buffer::Host {
                region: out_region,
                start: *start,
                len: *len,
            }),
        ],
        DagOp::HtoD { batch, chunk, .. } => {
            vec![
                Access::read(pin_in(*chunk)),
                Access::write(dev_buf(plan, *batch)),
            ]
        }
        DagOp::Sort { batch } => {
            let d = dev_buf(plan, *batch);
            vec![Access::read(d), Access::write(d)]
        }
        DagOp::DtoH { batch, .. } => {
            if elided {
                vec![Access::read(dev_buf(plan, *batch))]
            } else {
                vec![Access::read(dev_buf(plan, *batch)), Access::write(pin_out)]
            }
        }
        DagOp::PairMerge { slot } | DagOp::CpuMerge { slot } => pair_accesses(*slot),
        DagOp::MultiwayMerge { inputs } => {
            let mut acc: Vec<Access> = inputs.iter().map(|&src| src_read(plan, src)).collect();
            acc.push(Access::write(Buffer::Host {
                region: REGION_B,
                start: 0,
                len: plan.n,
            }));
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

/// Lower `nodes` over `plan`'s geometry, substituting executed accesses
/// where provided: `overrides[i] = Some(accesses)` replaces the static
/// access list of node `i` (data-touching nodes only); `None` or a
/// short vector keeps the static derivation. The event edges come from
/// the nodes' dependency lists: nodes whose edges were mutated lower to
/// a trace missing exactly those sync edges, which the happens-before
/// checker then reports as a race.
pub fn trace_nodes(plan: &Plan, nodes: &[DagNode], overrides: &[Option<Vec<Access>>]) -> OpTrace {
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
    let dev_bytes = DEVICE_MEM_FACTOR * plan.config.elem_bytes * plan.config.batch_elems as f64;
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
                if *dir_in && plan.config.double_buffered() {
                    // One double-sized allocation, but the two halves
                    // get distinct identities: record an Alloc per
                    // half so accesses, frees, and leak lints line up.
                    for half in 0..2 {
                        let buf = Buffer::Pinned {
                            id: pinned_in_id(*stream, half),
                        };
                        alloced.push((th, buf));
                        trace.push(
                            th,
                            format!("{} half {half}", node_label(&node.op, si)),
                            TraceKind::Alloc {
                                buf,
                                bytes: *bytes / 2.0,
                            },
                        );
                    }
                } else {
                    let id = if *dir_in {
                        pinned_in_id(*stream, 0)
                    } else {
                        pinned_out_id(plan.asynchronous, *stream)
                    };
                    alloced.push((th, Buffer::Pinned { id }));
                    trace.push(
                        th,
                        node_label(&node.op, si),
                        TraceKind::Alloc {
                            buf: Buffer::Pinned { id },
                            bytes: *bytes,
                        },
                    );
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
                let accesses = overrides
                    .get(si)
                    .and_then(|o| o.clone())
                    .unwrap_or_else(|| node_accesses(plan, node));
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
        let half = match dag.nodes[i].op {
            DagOp::HtoD { chunk, .. } if dag.plan.config.double_buffered() => chunk % 2,
            _ => 0,
        };
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
            assert_eq!(id, pinned_in_id(total, half), "sentinel lane, not stream 0");
            assert_ne!(id, pinned_in_id(0, half), "must not alias stream 0");
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
        // Blocking plans reuse one pinned buffer both ways (half 0).
        assert_eq!(pinned_out_id(p.asynchronous, 0), pinned_in_id(0, 0));
    }

    #[test]
    fn elided_stage_out_reads_the_device_buffer() {
        // Blocking + double-buffered (paper_defaults) elides the
        // outbound pinned bounce: the StageOut marker reads device
        // memory, DtoH writes no pinned buffer, and the two inbound
        // halves carry distinct identities.
        let p = plan(Approach::BLineMulti, 4000);
        assert!(p.stage_out_elided());
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
                    let want = pinned_in_id(node.stream.unwrap(), chunk % 2);
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
}
