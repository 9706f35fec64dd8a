//! The op-dag IR: what the planner emits and what the functional
//! engine and the simulator execute.
//!
//! [`crate::plan_builders`] emits each approach directly as
//! [`DagNode`]s ([`Plan::steps`]); a [`PlanDag`] pairs a plan's
//! geometry with the executable copy of those nodes. The scheduling
//! contract is explicit and machine-checkable:
//!
//! * every node is a typed op ([`DagOp`]) with explicit dependency
//!   edges (`deps`) and an optional stream binding. Every interpreter
//!   — the stream interpreter, the simulator, the trace builder —
//!   reads the node it is handed, nothing else;
//! * [`PlanDag::validate`] rejects malformed graphs with *named* rules
//!   (`missing-ref`, `cycle`, `duplicate-producer`, `stream-bind`,
//!   `fifo`, `sort-input`, `merge-inputs`, `chunk-cover`, `order`,
//!   `merge-cover`, `placement`) so the mutation kill suite can assert
//!   which rule caught which defect — residency is re-checked by
//!   `hetsort-analyze`, which owns the platform budget model;
//! * [`ReadySet`] is the one scheduling structure: pop any ready
//!   node, deterministically ([`TieBreak::MinId`] is the documented
//!   default — over a backward-dependency dag it reproduces the plan's
//!   submission order exactly).
//!
//! The engine lives in [`exec`]; the test battery's way into it is
//! [`hooks`].

pub(crate) mod check;
pub mod exec;
pub mod hooks;

use hetsort_obs::{ObsSpan, OpClass};

use crate::error::HetSortError;
use crate::plan::{MergeSrc, Plan};

/// Scheduler tie-break among ready nodes. Every choice yields a valid
/// topological execution; [`TieBreak::MinId`] is the determinism
/// contract the differential suite pins (it reproduces plan submission
/// order), [`TieBreak::MaxId`] exists so tests can prove output is
/// invariant to the tie-break permutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Lowest node id first (submission order; the default contract).
    #[default]
    MinId,
    /// Highest node id first (adversarial permutation for tests).
    MaxId,
}

/// A typed DAG operation — the paper's workflow (§III-D) in seven op
/// kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum DagOp {
    /// Allocate a stream's pinned staging buffer.
    PinnedAlloc {
        /// Owning stream.
        stream: usize,
        /// Buffer size in bytes.
        bytes: u64,
        /// Inbound (A→device) or outbound (device→W/B) buffer.
        dir_in: bool,
    },
    /// Copy a chunk between `A`/`W`/`B` and a pinned staging buffer
    /// (`dir_in` = toward the device).
    StagingCopy {
        /// Batch index.
        batch: usize,
        /// Chunk index within the batch.
        chunk: usize,
        /// Global element offset.
        start: usize,
        /// Chunk length in elements.
        len: usize,
        /// Inbound (stage-in) or outbound (stage-out).
        dir_in: bool,
    },
    /// DMA the inbound pinned buffer to the device batch buffer.
    HtoD {
        /// Batch index.
        batch: usize,
        /// Chunk index.
        chunk: usize,
        /// Global element offset.
        start: usize,
        /// Chunk length.
        len: usize,
    },
    /// Sort the device-resident batch.
    Sort {
        /// Batch index.
        batch: usize,
    },
    /// DMA a chunk of the sorted batch into the outbound pinned buffer.
    DtoH {
        /// Batch index.
        batch: usize,
        /// Chunk index.
        chunk: usize,
        /// Global element offset.
        start: usize,
        /// Chunk length.
        len: usize,
    },
    /// Pipelined two-way merge; inputs live in [`Plan::pairs`].
    PairMerge {
        /// Index into [`Plan::pairs`].
        slot: usize,
    },
    /// Final multiway merge into `B`.
    MultiwayMerge {
        /// Sublists merged.
        inputs: Vec<MergeSrc>,
    },
}

impl DagOp {
    /// The batch a stream-bound op operates on, if any.
    pub fn batch(&self) -> Option<usize> {
        match self {
            DagOp::StagingCopy { batch, .. }
            | DagOp::HtoD { batch, .. }
            | DagOp::Sort { batch }
            | DagOp::DtoH { batch, .. } => Some(*batch),
            DagOp::PinnedAlloc { .. } | DagOp::PairMerge { .. } | DagOp::MultiwayMerge { .. } => {
                None
            }
        }
    }

    /// Whether this op is a merge (host-resource op, never stream-bound).
    pub fn is_merge(&self) -> bool {
        matches!(self, DagOp::PairMerge { .. } | DagOp::MultiwayMerge { .. })
    }

    /// Whether this op runs on its stream's device lane (DMA + sort)
    /// rather than the host lane (pinned allocs + staging copies) — the
    /// two FIFO chains double-buffered staging splits a stream into.
    pub fn is_device_lane(&self) -> bool {
        matches!(
            self,
            DagOp::HtoD { .. } | DagOp::Sort { .. } | DagOp::DtoH { .. }
        )
    }

    /// The span class the op is recorded under: the one mapping from
    /// ops to classes that spans, validator messages and the CLI's
    /// census all read.
    pub fn class(&self) -> OpClass {
        match self {
            DagOp::PinnedAlloc { .. } => OpClass::PinnedAlloc,
            DagOp::StagingCopy { .. } => OpClass::StagingCopy,
            DagOp::HtoD { .. } => OpClass::HtoD,
            DagOp::Sort { .. } => OpClass::GpuSort,
            DagOp::DtoH { .. } => OpClass::DtoH,
            DagOp::PairMerge { .. } => OpClass::PairMerge,
            DagOp::MultiwayMerge { .. } => OpClass::MultiwayMerge,
        }
    }
}

/// One DAG node: a typed op, its dependency edges, and its stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DagNode {
    /// The operation.
    pub op: DagOp,
    /// Node ids that must complete first (always backward in a
    /// planner-built dag, and duplicate-free: every edge is
    /// load-bearing). Intra-stream FIFO ordering is encoded here too.
    pub deps: Vec<usize>,
    /// Stream the op is submitted to (`None` for merges; blocking
    /// approaches use stream 0 as "the default stream").
    pub stream: Option<usize>,
}

/// The span skeleton of node `id`: the one placement rule the
/// simulator, the stream interpreter and the merge path share. The
/// class comes from the op ([`DagOp::class`]), the stream from the
/// node, the batch from a stream-bound op, and the batch's physical GPU
/// only for the device ops (HtoD, Sort, DtoH). Executors add only times
/// and bytes.
pub fn node_span(plan: &Plan, id: usize, node: &DagNode) -> ObsSpan {
    let batch = node.op.batch();
    ObsSpan {
        // `config::MAX_PLAN_NODES` keeps every node id within u32.
        node: Some(id as u32),
        stream: node.stream,
        batch: batch.map(|b| b as u64),
        gpu: batch
            .filter(|_| node.op.is_device_lane())
            .and_then(|b| plan.batches.get(b))
            .map(|b| plan.physical_gpu(b.gpu)),
        ..ObsSpan::new(node.op.class(), 0.0, 0.0)
    }
}

/// A plan's geometry plus the executable copy of its op-dag. Engines
/// execute [`PlanDag::nodes`] — never `plan.steps` — so the mutation
/// suites can rewrite the nodes and watch which check notices.
#[derive(Debug, Clone)]
pub struct PlanDag {
    /// The plan whose geometry (batches, pair slots, config, device
    /// map) the nodes index into.
    pub plan: Plan,
    /// The nodes the engines execute; [`Plan::steps`] as built.
    pub nodes: Vec<DagNode>,
}

impl PlanDag {
    /// Wrap a plan with the executable copy of its nodes. No
    /// conversion happens here: [`crate::plan_builders`] already
    /// emitted the dag (duplicate-free deps).
    pub fn from_plan(plan: Plan) -> PlanDag {
        let nodes = plan.steps.clone();
        PlanDag { plan, nodes }
    }

    /// Total dependency edges.
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.deps.len()).sum()
    }

    /// Validate the graph structure. Each rule rejects with a
    /// [`HetSortError::Plan`] whose reason is prefixed by the rule
    /// name, so the mutation suite can assert *which* rule killed a
    /// defect:
    ///
    /// * `missing-ref` — a dep references a node id out of range;
    /// * `cycle` — the dependency relation is not acyclic;
    /// * `duplicate-producer` — two nodes produce the same artifact
    ///   (a batch's sort, a chunk's copy, a merge slot's output);
    /// * `stream-bind` — a stream op is bound to no stream, or to one
    ///   the plan does not have, or a merge is bound to a stream;
    /// * `fifo` — a stream's nodes lack the FIFO discipline the stream
    ///   interpreter relies on: one total chain under paper staging;
    ///   per-lane chains (host staging vs device DMA/sort) plus the
    ///   explicit cross and buffer-reuse edges under double-buffered
    ///   staging;
    /// * `sort-input` — a sort does not depend on its batch's last
    ///   `HtoD` (would sort an incompletely-loaded buffer);
    /// * `merge-inputs` — a merge does not depend on the producer of
    ///   each of its inputs;
    /// * `chunk-cover` — a batch's `StageIn`, `HtoD`, `DtoH` and
    ///   `StageOut` chunks do not carry identical `(start, len)` per
    ///   chunk index, do not tile `[start, start + len)` of the batch
    ///   contiguously in chunk order, or exceed `pinned_elems`;
    /// * `order` — a dependency names a later node (the simulator and
    ///   the trace lowering resolve dependencies first);
    /// * `merge-cover` — walking the pair slots from the final merge's
    ///   inputs, a batch does not reach it exactly once, a slot is not
    ///   consumed exactly once, or a slot's output size is not the sum
    ///   of its inputs;
    /// * `placement` — the device map does not name each GPU's device
    ///   exactly once, a batch names a GPU the platform lacks or a
    ///   stream the plan lacks, or the batches do not tile `[0, n)` in
    ///   index order.
    ///
    /// Residency (peak device bytes vs capacity) is deliberately *not*
    /// here: [`crate::Residency::of_plan`] computes the footprint and
    /// `hetsort-analyze`'s static lint holds it against capacity.
    ///
    /// # Errors
    ///
    /// [`HetSortError::Plan`] naming the violated rule.
    pub fn validate(&self) -> Result<(), HetSortError> {
        check::check(&self.plan, &self.nodes)
    }

    /// The full deterministic execution order under `tie` — what the
    /// engine follows, exposed for the CLI and equivalence tests.
    ///
    /// # Errors
    ///
    /// [`HetSortError::Plan`] if the graph has a cycle (nodes remain
    /// unreachable).
    pub fn ready_order(&self, tie: TieBreak) -> Result<Vec<usize>, HetSortError> {
        let mut rs = ReadySet::new(&self.nodes, |_| true, tie);
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(i) = rs.pop() {
            order.push(i);
            rs.complete(i);
        }
        if order.len() != self.nodes.len() {
            return Err(HetSortError::Plan {
                reason: format!(
                    "cycle: {} node(s) never became ready",
                    self.nodes.len() - order.len()
                ),
            });
        }
        Ok(order)
    }

    /// Maximum ready-set width observed replaying the [`TieBreak::MinId`]
    /// order — an upper bound on exploitable op-level parallelism.
    pub fn max_ready_width(&self) -> usize {
        let mut rs = ReadySet::new(&self.nodes, |_| true, TieBreak::MinId);
        let mut width = 0usize;
        while let Some(i) = rs.pop() {
            width = width.max(rs.ready_len() + 1);
            rs.complete(i);
        }
        width
    }
}

/// The scheduling structure: indegree tracking plus a ready set
/// popped in deterministic [`TieBreak`] order. `in_scope` restricts the
/// set to a subgraph (e.g. stream nodes only); dependencies on
/// out-of-scope nodes are treated as satisfied — the engine guarantees
/// them by phase ordering.
pub struct ReadySet {
    indegree: Vec<usize>,
    dependents: Vec<Vec<usize>>,
    ready: std::collections::BTreeSet<usize>,
    in_scope: Vec<bool>,
    tie: TieBreak,
    remaining: usize,
}

impl ReadySet {
    /// Build the scheduler state for the in-scope subgraph of `nodes`.
    pub fn new(nodes: &[DagNode], in_scope: impl Fn(usize) -> bool, tie: TieBreak) -> ReadySet {
        let n = nodes.len();
        let in_scope: Vec<bool> = (0..n).map(in_scope).collect();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut remaining = 0usize;
        for (i, node) in nodes.iter().enumerate() {
            if !in_scope[i] {
                continue;
            }
            remaining += 1;
            for &d in &node.deps {
                if d < n && in_scope[d] {
                    indegree[i] += 1;
                    dependents[d].push(i);
                }
            }
        }
        let ready = (0..n)
            .filter(|&i| in_scope[i] && indegree[i] == 0)
            .collect();
        ReadySet {
            indegree,
            dependents,
            ready,
            in_scope,
            tie,
            remaining,
        }
    }

    /// Pop the next ready node under the tie-break, if any.
    pub fn pop(&mut self) -> Option<usize> {
        self.pop_where(|_| true)
    }

    /// Pop the next ready node that satisfies `mine` under the
    /// tie-break — how threads with different roles (stream workers,
    /// the merging caller) share one ready set.
    pub fn pop_where(&mut self, mine: impl Fn(usize) -> bool) -> Option<usize> {
        let next = match self.tie {
            TieBreak::MinId => self.ready.iter().copied().find(|&i| mine(i)),
            TieBreak::MaxId => self.ready.iter().rev().copied().find(|&i| mine(i)),
        }?;
        self.ready.remove(&next);
        Some(next)
    }

    /// Mark a popped node complete, releasing its dependents.
    pub fn complete(&mut self, id: usize) {
        self.remaining = self.remaining.saturating_sub(1);
        for di in 0..self.dependents[id].len() {
            let j = self.dependents[id][di];
            self.indegree[j] = self.indegree[j].saturating_sub(1);
            if self.indegree[j] == 0 && self.in_scope[j] {
                self.ready.insert(j);
            }
        }
    }

    /// In-scope nodes not yet completed (ready, running, or blocked).
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Nodes currently ready.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// The ready nodes, ascending.
    pub fn ready(&self) -> impl Iterator<Item = usize> + '_ {
        self.ready.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HetSortConfig, PairStrategy};
    use crate::plan::BatchInfo;
    use hetsort_vgpu::{platform1, platform2};

    fn cfg(approach: Approach) -> HetSortConfig {
        HetSortConfig::paper_defaults(platform1(), approach)
            .with_batch_elems(1000)
            .with_pinned_elems(300)
    }

    fn dag(approach: Approach, n: usize) -> PlanDag {
        PlanDag::from_plan(Plan::build(cfg(approach), n).unwrap())
    }

    #[test]
    fn every_canonical_plan_validates() {
        for (approach, n) in [
            (Approach::BLine, 1000),
            (Approach::BLineMulti, 5000),
            (Approach::PipeData, 6000),
            (Approach::PipeMerge, 7000),
        ] {
            let d = dag(approach, n);
            assert_eq!(d.nodes, d.plan.steps);
            d.validate().unwrap_or_else(|e| panic!("{approach:?}: {e}"));
        }
        for strategy in [PairStrategy::Online, PairStrategy::MergeTree] {
            let c = cfg(Approach::PipeMerge).with_pair_strategy(strategy);
            let d = PlanDag::from_plan(Plan::build(c, 5000).unwrap());
            d.validate().unwrap();
        }
        let c2 = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
            .with_batch_elems(1000)
            .with_pinned_elems(250);
        PlanDag::from_plan(Plan::build(c2, 10_000).unwrap())
            .validate()
            .unwrap();
    }

    #[test]
    fn lowering_dedups_the_sort_dep() {
        // A sort's last-HtoD dep is both an explicit edge and its FIFO
        // edge; the dag keeps one copy so each edge is load-bearing.
        let d = dag(Approach::PipeData, 2000);
        for (i, node) in d.nodes.iter().enumerate() {
            let mut sorted = node.deps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), node.deps.len(), "node {i} has dup deps");
        }
    }

    #[test]
    fn min_id_order_is_submission_order() {
        for approach in [
            Approach::BLineMulti,
            Approach::PipeData,
            Approach::PipeMerge,
        ] {
            let d = dag(approach, 6000);
            let order = d.ready_order(TieBreak::MinId).unwrap();
            let expect: Vec<usize> = (0..d.nodes.len()).collect();
            assert_eq!(order, expect, "{approach:?}");
        }
    }

    #[test]
    fn max_id_order_is_a_valid_topological_permutation() {
        let d = dag(Approach::PipeMerge, 6000);
        let order = d.ready_order(TieBreak::MaxId).unwrap();
        assert_eq!(order.len(), d.nodes.len());
        let mut pos = vec![0usize; order.len()];
        for (p, &i) in order.iter().enumerate() {
            pos[i] = p;
        }
        for (i, node) in d.nodes.iter().enumerate() {
            for &dep in &node.deps {
                assert!(pos[dep] < pos[i], "node {i} ran before dep {dep}");
            }
        }
        assert_ne!(
            order,
            (0..d.nodes.len()).collect::<Vec<_>>(),
            "MaxId must actually permute a multi-stream dag"
        );
    }

    #[test]
    fn validator_names_the_rule() {
        let mut d = dag(Approach::PipeData, 2000);
        let bogus = d.nodes.len() + 7;
        d.nodes[0].deps.push(bogus);
        match d.validate() {
            Err(HetSortError::Plan { reason }) => {
                assert!(reason.starts_with("missing-ref:"), "{reason}")
            }
            other => panic!("expected Plan error, got {other:?}"),
        }
    }

    #[test]
    fn indices_past_the_geometry_are_rejected_by_their_rule() {
        // One case per index kind the validator's tables are sized by,
        // each a batch of 3 chunks: batch = n_b, a chunk past the
        // batch's tiling, stream = total_streams, pair slot =
        // pairs.len(). Each is rejected by the rule and with the message
        // a validator over maps gave, under both staging protocols. Two
        // plan-side cases follow: an empty batch n_b appended to the
        // tiling, which no merge reads, and a batch bound to stream
        // total_streams.
        use crate::config::StagingMode;
        let expect = |staging| {
            let chunk = if staging == StagingMode::Paper {
                "chunk-cover: batch 0 StageIn chunk 3 covers [600, +300); \
                 chunk 2 is due at 600 with ≤ 300 elements"
            } else {
                "fifo: node 8 missing half-reuse dependency on node 7"
            };
            [
                "sort-input: node 127 sorts batch 10 which has no HtoD",
                chunk,
                "stream-bind: node 0 (PinnedAlloc) is bound to stream Some(2) of 2",
                "merge-inputs: node 134 references missing pair slot 4",
                "merge-cover: Batch(10) never reaches the final merge",
                "placement: batch 9 names GPU 0 of 1, stream 2 of 2",
            ]
        };
        for staging in [StagingMode::DoubleBuffered, StagingMode::Paper] {
            let c = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
                .with_batch_elems(900)
                .with_pinned_elems(300)
                .with_staging(staging);
            let base = PlanDag::from_plan(Plan::build(c, 9_000).unwrap());
            base.validate().unwrap();
            let last = |d: &PlanDag, pick: fn(&DagOp) -> bool| {
                d.nodes.iter().rposition(|n| pick(&n.op)).unwrap()
            };

            let mut batch = base.clone();
            let i = last(&batch, |op| matches!(op, DagOp::Sort { .. }));
            batch.nodes[i].op = DagOp::Sort {
                batch: batch.plan.nb(),
            };

            let mut chunk = base.clone();
            let i = last(&chunk, |op| {
                matches!(
                    op,
                    DagOp::StagingCopy {
                        batch: 0,
                        dir_in: true,
                        ..
                    }
                )
            });
            if let DagOp::StagingCopy { chunk: c, .. } = &mut chunk.nodes[i].op {
                *c = 3;
            }

            let mut stream = base.clone();
            stream.nodes[0].stream = Some(stream.plan.total_streams);

            let mut slot = base.clone();
            let i = slot
                .nodes
                .iter()
                .position(|n| matches!(n.op, DagOp::PairMerge { .. }))
                .unwrap();
            slot.nodes[i].op = DagOp::PairMerge {
                slot: slot.plan.pairs.len(),
            };

            let mut merged = base.clone();
            let n = merged.plan.n;
            merged.plan.batches.push(BatchInfo {
                index: merged.plan.nb(),
                start: n,
                len: 0,
                stream: 0,
                gpu: 0,
            });

            let mut placed = base.clone();
            let last = placed.plan.batches.len() - 1;
            placed.plan.batches[last].stream = placed.plan.total_streams;

            let cases = [batch, chunk, stream, slot, merged, placed];
            for (d, want) in cases.iter().zip(expect(staging)) {
                match d.validate() {
                    Err(HetSortError::Plan { reason }) => {
                        assert_eq!(reason, want, "{staging:?}")
                    }
                    other => panic!("{staging:?}: expected {want:?}, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn ready_width_reflects_streams() {
        let one = dag(Approach::BLineMulti, 5000); // 1 stream
        let two = dag(Approach::PipeData, 6000); // 2 streams
        assert!(two.max_ready_width() > one.max_ready_width());
    }

    #[test]
    fn scoped_ready_set_ignores_out_of_scope_deps() {
        let d = dag(Approach::PipeMerge, 6000);
        // Merge-only scope: pair merges become ready immediately (their
        // stream deps are out of scope), the multiway waits on pairs.
        let mut rs = ReadySet::new(&d.nodes, |i| d.nodes[i].op.is_merge(), TieBreak::MinId);
        let mut order = Vec::new();
        while let Some(i) = rs.pop() {
            order.push(i);
            rs.complete(i);
        }
        let merges = d.nodes.iter().filter(|n| n.op.is_merge()).count();
        assert_eq!(order.len(), merges);
        assert!(matches!(
            d.nodes[*order.last().unwrap()].op,
            DagOp::MultiwayMerge { .. }
        ));
    }
}
