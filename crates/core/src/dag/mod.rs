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
//!   `fifo`, `sort-input`, `merge-inputs`, `chunk-cover`) so the mutation kill
//!   suite can assert which rule caught which defect — residency is
//!   re-checked by `hetsort-analyze`, which owns the platform budget
//!   model;
//! * [`ReadySet`] is the one scheduling structure: pop any ready
//!   node, deterministically ([`TieBreak::MinId`] is the documented
//!   default — over a backward-dependency dag it reproduces the plan's
//!   submission order exactly).
//!
//! The engine lives in [`exec`]; defect constructors for the kill suite
//! live in [`mutate`].

pub mod exec;
pub mod mutate;

use std::collections::BTreeMap;

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

/// A typed DAG operation — the paper's workflow (§III-D) in eight op
/// kinds. [`DagOp::CpuMerge`] is a pair merge pinned to the host merge
/// resource: hybrid routing ([`crate::config::HybridMode`]) types a
/// configured subset of pair-merge slots as it when the plan is built.
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
    /// A two-way merge pinned to the CPU merge resource. Same data
    /// semantics as [`DagOp::PairMerge`]; recorded under its own span
    /// class so hybrid schedules are distinguishable.
    CpuMerge {
        /// Index into [`Plan::pairs`].
        slot: usize,
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
            DagOp::PinnedAlloc { .. }
            | DagOp::PairMerge { .. }
            | DagOp::MultiwayMerge { .. }
            | DagOp::CpuMerge { .. } => None,
        }
    }

    /// Whether this op is a merge (host-resource op, never stream-bound).
    pub fn is_merge(&self) -> bool {
        matches!(
            self,
            DagOp::PairMerge { .. } | DagOp::MultiwayMerge { .. } | DagOp::CpuMerge { .. }
        )
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

    /// Short op-class name for summaries and the CLI.
    pub fn class_name(&self) -> &'static str {
        match self {
            DagOp::PinnedAlloc { .. } => "PinnedAlloc",
            DagOp::StagingCopy { .. } => "StagingCopy",
            DagOp::HtoD { .. } => "HtoD",
            DagOp::Sort { .. } => "Sort",
            DagOp::DtoH { .. } => "DtoH",
            DagOp::PairMerge { .. } => "PairMerge",
            DagOp::MultiwayMerge { .. } => "MultiwayMerge",
            DagOp::CpuMerge { .. } => "CpuMerge",
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
    /// emitted the dag (duplicate-free deps, hybrid routing applied).
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
    ///   contiguously in chunk order, or exceed `pinned_elems`.
    ///
    /// Residency (peak device bytes vs capacity) is deliberately *not*
    /// here: `hetsort-analyze` owns the platform budget model and
    /// re-checks it via `Residency::of_plan` on `dag.plan`.
    ///
    /// # Errors
    ///
    /// [`HetSortError::Plan`] naming the violated rule.
    pub fn validate(&self) -> Result<(), HetSortError> {
        PlanDag::check(&self.plan, &self.nodes)
    }

    /// [`PlanDag::validate`] over borrowed parts, so the `&Plan` entry
    /// points check `plan.steps` in place.
    pub(crate) fn check(plan: &Plan, nodes: &[DagNode]) -> Result<(), HetSortError> {
        let err = |reason: String| Err(HetSortError::Plan { reason });
        let n = nodes.len();

        // missing-ref: every dep must name an existing node.
        for (i, node) in nodes.iter().enumerate() {
            for &d in &node.deps {
                if d >= n {
                    return err(format!("missing-ref: node {i} references missing node {d}"));
                }
            }
        }

        // cycle: Kahn's algorithm must consume every node.
        {
            let mut indeg = vec![0usize; n];
            let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (i, node) in nodes.iter().enumerate() {
                indeg[i] = node.deps.len();
                for &d in &node.deps {
                    dependents[d].push(i);
                }
            }
            let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
            let mut seen = 0usize;
            while let Some(i) = queue.pop() {
                seen += 1;
                for &j in &dependents[i] {
                    indeg[j] -= 1;
                    if indeg[j] == 0 {
                        queue.push(j);
                    }
                }
            }
            if seen != n {
                return err(format!(
                    "cycle: {} node(s) locked in a dependency cycle",
                    n - seen
                ));
            }
        }

        // duplicate-producer: every artifact has exactly one producer.
        {
            let mut producers: BTreeMap<String, usize> = BTreeMap::new();
            for (i, node) in nodes.iter().enumerate() {
                let key = match &node.op {
                    DagOp::PinnedAlloc { stream, dir_in, .. } => {
                        format!("pinned s{stream} in={dir_in}")
                    }
                    DagOp::StagingCopy {
                        batch,
                        chunk,
                        dir_in,
                        ..
                    } => format!("staging b{batch}.c{chunk} in={dir_in}"),
                    DagOp::HtoD { batch, chunk, .. } => format!("htod b{batch}.c{chunk}"),
                    DagOp::Sort { batch } => format!("sort b{batch}"),
                    DagOp::DtoH { batch, chunk, .. } => format!("dtoh b{batch}.c{chunk}"),
                    DagOp::PairMerge { slot } | DagOp::CpuMerge { slot } => {
                        format!("pair slot {slot}")
                    }
                    DagOp::MultiwayMerge { .. } => "multiway merge".to_string(),
                };
                if let Some(&j) = producers.get(&key) {
                    return err(format!(
                        "duplicate-producer: node {i} duplicates node {j} ({key})"
                    ));
                }
                producers.insert(key, i);
            }
        }

        // stream-bind: stream ops name a stream of the plan, merges none
        // (the engine indexes per-stream interpreter state by it).
        for (i, node) in nodes.iter().enumerate() {
            let bound = match node.stream {
                None => node.op.is_merge(),
                Some(s) => !node.op.is_merge() && s < plan.total_streams,
            };
            if !bound {
                return err(format!(
                    "stream-bind: node {i} ({}) is bound to stream {:?} of {}",
                    node.op.class_name(),
                    node.stream,
                    plan.total_streams
                ));
            }
        }

        // fifo: each stream's nodes (in id order) must chain via deps.
        //
        // Paper staging chains every node of a stream on one tail.
        // Double-buffered staging splits each stream into a host lane
        // (allocs + staging copies) and a device lane (HtoD/sort/DtoH)
        // and demands, besides the per-lane chains, the explicit cross
        // and buffer-reuse edges the relaxed discipline relies on.
        // Every intra-stream edge the lowering emits is demanded here:
        // the trace gives same-stream ops program order on one thread,
        // so the happens-before analyzer can never see an intra-stream
        // edge deletion — the structural validator must.
        if !plan.config.double_buffered() {
            let mut tail: BTreeMap<usize, usize> = BTreeMap::new();
            for (i, node) in nodes.iter().enumerate() {
                if let Some(s) = node.stream {
                    if let Some(&prev) = tail.get(&s) {
                        if !node.deps.contains(&prev) {
                            return err(format!(
                                "fifo: node {i} (stream {s}) missing dependency on stream predecessor {prev}"
                            ));
                        }
                    }
                    tail.insert(s, i);
                }
            }
        } else {
            let elided = plan.stage_out_elided();
            #[derive(Default)]
            struct LaneState {
                host_tail: Option<usize>,
                dev_tail: Option<usize>,
                cur_batch: Option<usize>,
                stagein: BTreeMap<usize, usize>,
                htod: BTreeMap<usize, usize>,
                dtoh: BTreeMap<usize, usize>,
                sout: BTreeMap<usize, usize>,
                prev_htod: Option<usize>,
                prev_sout: Option<usize>,
            }
            let mut lanes: BTreeMap<usize, LaneState> = BTreeMap::new();
            let demand = |i: usize, deps: &[usize], need: usize, what: &str| {
                if deps.contains(&need) {
                    Ok(())
                } else {
                    Err(HetSortError::Plan {
                        reason: format!("fifo: node {i} missing {what} dependency on node {need}"),
                    })
                }
            };
            for (i, node) in nodes.iter().enumerate() {
                let Some(s) = node.stream else { continue };
                let st = lanes.entry(s).or_default();
                // Batch boundary: the previous batch's last HtoD and
                // StageOut become the cross-batch reuse targets.
                if let Some(b) = node.op.batch() {
                    if st.cur_batch != Some(b) {
                        st.prev_htod = st.htod.values().next_back().copied();
                        st.prev_sout = st.sout.values().next_back().copied();
                        st.stagein.clear();
                        st.htod.clear();
                        st.dtoh.clear();
                        st.sout.clear();
                        st.cur_batch = Some(b);
                    }
                }
                let (tail, lane) = if node.op.is_device_lane() {
                    (&mut st.dev_tail, "device-lane")
                } else {
                    (&mut st.host_tail, "host-lane")
                };
                if let Some(prev) = *tail {
                    demand(i, &node.deps, prev, lane)?;
                }
                *tail = Some(i);
                match node.op {
                    DagOp::StagingCopy {
                        chunk,
                        dir_in: true,
                        ..
                    } => {
                        // The half chunk c overwrites was read by
                        // HtoD(c−2); the first chunk of a later batch
                        // waits on the previous batch's last HtoD.
                        if chunk >= 2 {
                            if let Some(&h) = st.htod.get(&(chunk - 2)) {
                                demand(i, &node.deps, h, "half-reuse")?;
                            }
                        } else if chunk == 0 {
                            if let Some(h) = st.prev_htod {
                                demand(i, &node.deps, h, "cross-batch half-reuse")?;
                            }
                        }
                        st.stagein.insert(chunk, i);
                    }
                    DagOp::HtoD { chunk, .. } => {
                        if let Some(&si) = st.stagein.get(&chunk) {
                            demand(i, &node.deps, si, "staging-copy")?;
                        }
                        // Elided stage-out reads the device buffer at
                        // the emission marker; the next batch's first
                        // DMA must not overwrite it earlier.
                        if elided && chunk == 0 {
                            if let Some(m) = st.prev_sout {
                                demand(i, &node.deps, m, "elided-marker")?;
                            }
                        }
                        st.htod.insert(chunk, i);
                    }
                    DagOp::DtoH { chunk, .. } => {
                        // Bounced stage-out shares one outbound buffer:
                        // the DMA of chunk c overwrites what the
                        // previous StageOut read.
                        if !elided {
                            if chunk >= 1 {
                                if let Some(&o) = st.sout.get(&(chunk - 1)) {
                                    demand(i, &node.deps, o, "out-buffer reuse")?;
                                }
                            } else if let Some(o) = st.prev_sout {
                                demand(i, &node.deps, o, "cross-batch out-buffer reuse")?;
                            }
                        }
                        st.dtoh.insert(chunk, i);
                    }
                    DagOp::StagingCopy {
                        chunk,
                        dir_in: false,
                        ..
                    } => {
                        if let Some(&d) = st.dtoh.get(&chunk) {
                            demand(i, &node.deps, d, "dtoh")?;
                        }
                        st.sout.insert(chunk, i);
                    }
                    _ => {}
                }
            }
        }

        // Producer maps for sort-input / merge-inputs.
        let mut last_htod: BTreeMap<usize, usize> = BTreeMap::new();
        let mut last_stage_out: BTreeMap<usize, usize> = BTreeMap::new();
        let mut slot_node: BTreeMap<usize, usize> = BTreeMap::new();
        for (i, node) in nodes.iter().enumerate() {
            match &node.op {
                DagOp::HtoD { batch, .. } => {
                    last_htod.insert(*batch, i);
                }
                DagOp::StagingCopy {
                    batch,
                    dir_in: false,
                    ..
                } => {
                    last_stage_out.insert(*batch, i);
                }
                DagOp::PairMerge { slot } | DagOp::CpuMerge { slot } => {
                    slot_node.insert(*slot, i);
                }
                _ => {}
            }
        }

        // sort-input: a sort depends on its batch's last HtoD.
        for (i, node) in nodes.iter().enumerate() {
            if let DagOp::Sort { batch } = node.op {
                match last_htod.get(&batch) {
                    Some(&h) if node.deps.contains(&h) => {}
                    Some(&h) => {
                        return err(format!(
                            "sort-input: node {i} sorts batch {batch} without depending on its last HtoD (node {h})"
                        ))
                    }
                    None => {
                        return err(format!(
                            "sort-input: node {i} sorts batch {batch} which has no HtoD"
                        ))
                    }
                }
            }
        }

        // merge-inputs: every merge depends on each input's producer.
        {
            let producer = |src: MergeSrc| -> Option<usize> {
                match src {
                    MergeSrc::Batch(b) => last_stage_out.get(&b).copied(),
                    MergeSrc::Merged(p) => slot_node.get(&p).copied(),
                }
            };
            let check = |i: usize, deps: &[usize], src: MergeSrc| -> Result<(), HetSortError> {
                match producer(src) {
                    Some(p) if deps.contains(&p) => Ok(()),
                    Some(p) => err(format!(
                        "merge-inputs: node {i} missing dependency on producer {p} of {src:?}"
                    )),
                    None => err(format!(
                        "merge-inputs: node {i} input {src:?} has no producer"
                    )),
                }
            };
            for (i, node) in nodes.iter().enumerate() {
                match &node.op {
                    DagOp::PairMerge { slot } | DagOp::CpuMerge { slot } => {
                        let spec = plan.pairs.get(*slot).ok_or_else(|| HetSortError::Plan {
                            reason: format!(
                                "merge-inputs: node {i} references missing pair slot {slot}"
                            ),
                        })?;
                        check(i, &node.deps, spec.left)?;
                        check(i, &node.deps, spec.right)?;
                    }
                    DagOp::MultiwayMerge { inputs } => {
                        for &src in inputs {
                            check(i, &node.deps, src)?;
                        }
                    }
                    _ => {}
                }
            }
        }

        // chunk-cover: the interpreters index buffers by each chunk op's
        // own `(start, len)`, so all four ops of a chunk must agree on
        // it, the chunks must tile the batch in order, and none may
        // exceed the pinned buffer it is staged through.
        {
            let nb = plan.nb();
            // Per batch, per op kind: the `(start, len)` of chunk `c` at
            // index `c` (duplicate-producer already made chunks unique).
            const KINDS: [&str; 4] = ["StageIn", "HtoD", "DtoH", "StageOut"];
            let mut extents: Vec<[BTreeMap<usize, (usize, usize)>; 4]> =
                (0..nb).map(|_| Default::default()).collect();
            for node in nodes {
                let (kind, batch, chunk, start, len) = match node.op {
                    DagOp::StagingCopy {
                        batch,
                        chunk,
                        start,
                        len,
                        dir_in,
                    } => (if dir_in { 0 } else { 3 }, batch, chunk, start, len),
                    DagOp::HtoD {
                        batch,
                        chunk,
                        start,
                        len,
                    } => (1, batch, chunk, start, len),
                    DagOp::DtoH {
                        batch,
                        chunk,
                        start,
                        len,
                    } => (2, batch, chunk, start, len),
                    _ => continue,
                };
                let Some(of_batch) = extents.get_mut(batch) else {
                    return err(format!(
                        "chunk-cover: {} names batch {batch} of {nb}",
                        KINDS[kind]
                    ));
                };
                of_batch[kind].insert(chunk, (start, len));
            }
            let ps = plan.config.pinned_elems;
            for b in &plan.batches {
                let [stage_in, rest @ ..] = &extents[b.index];
                let mut at = b.start;
                for (want, (&chunk, &(start, len))) in stage_in.iter().enumerate() {
                    if chunk != want || start != at || len > ps {
                        return err(format!(
                            "chunk-cover: batch {} StageIn chunk {chunk} covers [{start}, +{len}); \
                             chunk {want} is due at {at} with ≤ {ps} elements",
                            b.index
                        ));
                    }
                    at += len;
                }
                if at != b.start + b.len {
                    return err(format!(
                        "chunk-cover: batch {} stages in {} of {} elements",
                        b.index,
                        at - b.start,
                        b.len
                    ));
                }
                if let Some(k) = rest.iter().position(|chunks| chunks != stage_in) {
                    return err(format!(
                        "chunk-cover: batch {} {} chunks differ from its StageIn chunks",
                        b.index,
                        KINDS[k + 1]
                    ));
                }
            }
        }

        Ok(())
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HetSortConfig, PairStrategy};
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
    fn hybrid_lowering_retypes_pair_merges() {
        use crate::config::HybridMode;
        let count = |d: &PlanDag, cpu: bool| {
            d.nodes
                .iter()
                .filter(|n| match n.op {
                    DagOp::CpuMerge { .. } => cpu,
                    DagOp::PairMerge { .. } => !cpu,
                    _ => false,
                })
                .count()
        };
        let build = |h: HybridMode| {
            let c = cfg(Approach::PipeMerge).with_hybrid(h);
            PlanDag::from_plan(Plan::build(c, 13_000).unwrap())
        };

        let off = build(HybridMode::Off);
        let slots = off.plan.pairs.len();
        assert!(slots >= 2, "need ≥ 2 pair slots, got {slots}");
        assert_eq!(count(&off, true), 0);

        // Fraction 1.0: every pair merge moves to the CPU lane.
        let all = build(HybridMode::Fraction(1.0));
        assert_eq!(count(&all, true), slots);
        assert_eq!(count(&all, false), 0);
        all.validate().expect("hybrid dag must stay valid");

        // Fraction 0.5: the *last* half of the slots move.
        let half = build(HybridMode::Fraction(0.5));
        let moved = ((0.5 * slots as f64).round()) as usize;
        assert_eq!(count(&half, true), moved);
        let cpu_slots: Vec<usize> = half
            .nodes
            .iter()
            .filter_map(|n| match n.op {
                DagOp::CpuMerge { slot } => Some(slot),
                _ => None,
            })
            .collect();
        assert!(
            cpu_slots.iter().all(|&s| s >= slots - moved),
            "fraction routes the trailing slots, got {cpu_slots:?}"
        );
        half.validate().unwrap();

        // Auto balances the two pools: a nonempty proper subset under
        // the paper heuristic (the CPU pool is strictly faster, the
        // greedy finish times alternate).
        let auto = build(HybridMode::Auto);
        assert!(count(&auto, true) > 0, "auto routed nothing");
        assert!(count(&auto, false) > 0, "auto routed everything");
        auto.validate().unwrap();
        // Deterministic: same config, same routing.
        let again = build(HybridMode::Auto);
        assert_eq!(
            auto.nodes
                .iter()
                .map(|n| n.op.class_name())
                .collect::<Vec<_>>(),
            again
                .nodes
                .iter()
                .map(|n| n.op.class_name())
                .collect::<Vec<_>>()
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
