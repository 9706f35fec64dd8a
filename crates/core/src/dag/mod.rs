//! The executable dependency-DAG IR behind the functional engine and
//! the simulator.
//!
//! A [`Plan`] is already a static step DAG, but its `Vec<Step>` form
//! leaves the scheduling contract implicit. [`PlanDag`] makes the
//! contract explicit and machine-checkable:
//!
//! * every node is a typed op ([`DagOp`]) with explicit dependency
//!   edges (`deps`) and an optional stream binding — node `i` of a
//!   lowered dag corresponds 1:1 to `plan.steps[i]`, so the stream
//!   interpreter ([`crate::exec_stream`]) and the fault-injection
//!   occurrence counters keep their exact meaning;
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

use hetsort_vgpu::calib::amdahl_speedup;

use crate::config::{HybridMode, PairStrategy};
use crate::error::HetSortError;
use crate::plan::{MergeInput, MergeSrc, Plan, StepKind};

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

/// A typed DAG operation. Mirrors [`StepKind`] with the staging
/// directions folded into one op and one addition: [`DagOp::CpuMerge`],
/// a pair merge pinned to the host merge resource. Hybrid lowering
/// ([`crate::config::HybridMode`]) re-types a configured subset of
/// pair-merge nodes to it in [`PlanDag::from_plan`].
#[derive(Debug, Clone, PartialEq)]
pub enum DagOp {
    /// Allocate a stream's pinned staging buffer.
    PinnedAlloc {
        /// Owning stream.
        stream: usize,
        /// Buffer size in bytes.
        bytes: f64,
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
        inputs: Vec<MergeInput>,
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
    /// Lower one plan step kind to its DAG op.
    pub fn from_step(kind: &StepKind) -> DagOp {
        match kind {
            StepKind::PinnedAlloc {
                stream,
                bytes,
                dir_in,
            } => DagOp::PinnedAlloc {
                stream: *stream,
                bytes: *bytes,
                dir_in: *dir_in,
            },
            StepKind::StageIn {
                batch,
                chunk,
                start,
                len,
            } => DagOp::StagingCopy {
                batch: *batch,
                chunk: *chunk,
                start: *start,
                len: *len,
                dir_in: true,
            },
            StepKind::HtoD {
                batch,
                chunk,
                start,
                len,
            } => DagOp::HtoD {
                batch: *batch,
                chunk: *chunk,
                start: *start,
                len: *len,
            },
            StepKind::GpuSort { batch } => DagOp::Sort { batch: *batch },
            StepKind::DtoH {
                batch,
                chunk,
                start,
                len,
            } => DagOp::DtoH {
                batch: *batch,
                chunk: *chunk,
                start: *start,
                len: *len,
            },
            StepKind::StageOut {
                batch,
                chunk,
                start,
                len,
            } => DagOp::StagingCopy {
                batch: *batch,
                chunk: *chunk,
                start: *start,
                len: *len,
                dir_in: false,
            },
            StepKind::PairMerge { slot } => DagOp::PairMerge { slot: *slot },
            StepKind::MultiwayMerge { inputs } => DagOp::MultiwayMerge {
                inputs: inputs.clone(),
            },
        }
    }

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
    /// Node ids that must complete first (deduplicated on lowering).
    pub deps: Vec<usize>,
    /// Stream the op is submitted to (`None` for merges).
    pub stream: Option<usize>,
}

/// A plan lowered to its explicit dependency DAG. Node `i` of a
/// lowered dag corresponds to `plan.steps[i]` — the invariant the
/// engine relies on to drive [`crate::exec_stream::StreamExec`] and keep
/// fault-occurrence counters aligned with plan submission order.
#[derive(Debug, Clone)]
pub struct PlanDag {
    /// The plan this dag was lowered from (owned: survivor re-plans
    /// lower their own dags during recovery).
    pub plan: Plan,
    /// Nodes, id == plan step index.
    pub nodes: Vec<DagNode>,
}

/// Which pair-merge slots hybrid lowering routes to the CPU merge
/// resource, per [`HybridMode`].
///
/// * [`HybridMode::Fraction`] routes the *last* `round(frac · slots)`
///   slots: later slots consume later batches and therefore contend
///   with the multiway-merge warm-up, where the spare full merge pool
///   helps most.
/// * [`HybridMode::Auto`] is deterministic greedy earliest-finish
///   scheduling between the pair-merge pool and the full CPU merge
///   pool, using the platform's calibrated merge throughput under
///   Amdahl scaling; each pool's accumulated predicted busy time is
///   the queue-depth proxy.
fn hybrid_cpu_slots(plan: &Plan) -> Vec<bool> {
    let n_slots = plan.pairs.len();
    let mut cpu = vec![false; n_slots];
    match plan.config.hybrid {
        HybridMode::Off => {}
        HybridMode::Fraction(f) => {
            let f = f.clamp(0.0, 1.0);
            let k = ((f * n_slots as f64).round() as usize).min(n_slots);
            for flag in cpu.iter_mut().skip(n_slots - k) {
                *flag = true;
            }
        }
        HybridMode::Auto => {
            let cfg = &plan.config;
            let cpu_model = &cfg.platform.cpu;
            let per_core = 1e9 / cpu_model.merge_ns_per_elem_core;
            // The pair lane runs at the thread count the executors and
            // simulator actually grant pipelined merges; the CPU lane
            // gets the full multiway pool.
            let pair_threads = if cfg.pair_strategy == PairStrategy::PaperHeuristic {
                cfg.pair_merge_threads_eff()
            } else {
                cfg.merge_threads_eff()
            };
            let cap_pair = amdahl_speedup(
                cpu_model.merge_parallel_fraction,
                pair_threads.max(1) as usize,
            ) * per_core;
            let cap_cpu = amdahl_speedup(
                cpu_model.merge_parallel_fraction,
                cfg.merge_threads_eff().max(1) as usize,
            ) * per_core;
            let (mut busy_pair, mut busy_cpu) = (0.0f64, 0.0f64);
            for (slot, spec) in plan.pairs.iter().enumerate() {
                let t_pair = busy_pair + spec.out_elems as f64 / cap_pair;
                let t_cpu = busy_cpu + spec.out_elems as f64 / cap_cpu;
                // Ties keep the default lane, so Auto degrades to Off
                // when the pools are indistinguishable.
                if t_cpu < t_pair {
                    cpu[slot] = true;
                    busy_cpu = t_cpu;
                } else {
                    busy_pair = t_pair;
                }
            }
        }
    }
    cpu
}

impl PlanDag {
    /// Lower a plan to its DAG. Dependency lists are deduplicated (the
    /// planner may emit an explicit dep that coincides with the stream
    /// FIFO dep), so every remaining edge is load-bearing — which is
    /// what makes "any single edge deletion is rejected" a theorem the
    /// property suite can test.
    ///
    /// When the config enables [`HybridMode`], a post-pass re-types the
    /// selected pair-merge slots to [`DagOp::CpuMerge`]. Routing lives
    /// here — not in the engine — so *every* consumer of a plan (the
    /// functional engine, the simulator, the bench gate, the service)
    /// interprets the identical hybrid dag, and the decision depends
    /// only on the config and the plan, never on runtime state.
    pub fn from_plan(plan: Plan) -> PlanDag {
        let mut nodes: Vec<DagNode> = plan
            .steps
            .iter()
            .map(|s| {
                let mut deps: Vec<usize> = Vec::with_capacity(s.deps.len());
                for &d in &s.deps {
                    if !deps.contains(&d) {
                        deps.push(d);
                    }
                }
                DagNode {
                    op: DagOp::from_step(&s.kind),
                    deps,
                    stream: s.stream,
                }
            })
            .collect();
        if plan.config.hybrid.is_on() && !plan.pairs.is_empty() {
            let cpu = hybrid_cpu_slots(&plan);
            for node in &mut nodes {
                if let DagOp::PairMerge { slot } = node.op {
                    if cpu.get(slot).copied().unwrap_or(false) {
                        node.op = DagOp::CpuMerge { slot };
                    }
                }
            }
        }
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
    /// * `chunk-cover` — staging chunks do not tile a batch exactly.
    ///
    /// Residency (peak device bytes vs capacity) is deliberately *not*
    /// here: `hetsort-analyze` owns the platform budget model and
    /// re-checks it via `Residency::of_plan` on `dag.plan`.
    ///
    /// # Errors
    ///
    /// [`HetSortError::Plan`] naming the violated rule.
    pub fn validate(&self) -> Result<(), HetSortError> {
        let err = |reason: String| Err(HetSortError::Plan { reason });
        let n = self.nodes.len();

        // missing-ref: every dep must name an existing node.
        for (i, node) in self.nodes.iter().enumerate() {
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
            for (i, node) in self.nodes.iter().enumerate() {
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
            for (i, node) in self.nodes.iter().enumerate() {
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
        for (i, node) in self.nodes.iter().enumerate() {
            let bound = match node.stream {
                None => node.op.is_merge(),
                Some(s) => !node.op.is_merge() && s < self.plan.total_streams,
            };
            if !bound {
                return err(format!(
                    "stream-bind: node {i} ({}) is bound to stream {:?} of {}",
                    node.op.class_name(),
                    node.stream,
                    self.plan.total_streams
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
        if !self.plan.config.double_buffered() {
            let mut tail: BTreeMap<usize, usize> = BTreeMap::new();
            for (i, node) in self.nodes.iter().enumerate() {
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
            let elided = self.plan.stage_out_elided();
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
            for (i, node) in self.nodes.iter().enumerate() {
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
                let dev_lane = matches!(
                    node.op,
                    DagOp::HtoD { .. } | DagOp::Sort { .. } | DagOp::DtoH { .. }
                );
                let (tail, lane) = if dev_lane {
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
        for (i, node) in self.nodes.iter().enumerate() {
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
        for (i, node) in self.nodes.iter().enumerate() {
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
            for (i, node) in self.nodes.iter().enumerate() {
                match &node.op {
                    DagOp::PairMerge { slot } | DagOp::CpuMerge { slot } => {
                        let spec =
                            self.plan
                                .pairs
                                .get(*slot)
                                .ok_or_else(|| HetSortError::Plan {
                                    reason: format!(
                                    "merge-inputs: node {i} references missing pair slot {slot}"
                                ),
                                })?;
                        check(i, &node.deps, spec.left)?;
                        check(i, &node.deps, spec.right)?;
                    }
                    DagOp::MultiwayMerge { inputs } => {
                        for inp in inputs {
                            let src = match *inp {
                                MergeInput::Batch(b) => MergeSrc::Batch(b),
                                MergeInput::Pair(p) => MergeSrc::Merged(p),
                            };
                            check(i, &node.deps, src)?;
                        }
                    }
                    _ => {}
                }
            }
        }

        // chunk-cover: staging chunks tile each batch exactly, both ways.
        {
            let nb = self.plan.nb();
            let mut cover_in = vec![0usize; nb];
            let mut cover_out = vec![0usize; nb];
            for node in &self.nodes {
                if let DagOp::StagingCopy {
                    batch, len, dir_in, ..
                } = node.op
                {
                    if batch >= nb {
                        return err(format!(
                            "chunk-cover: staging copy names batch {batch} of {nb}"
                        ));
                    }
                    if dir_in {
                        cover_in[batch] += len;
                    } else {
                        cover_out[batch] += len;
                    }
                }
            }
            for b in &self.plan.batches {
                if cover_in[b.index] != b.len {
                    return err(format!(
                        "chunk-cover: batch {} stages in {} of {} elements",
                        b.index, cover_in[b.index], b.len
                    ));
                }
                if cover_out[b.index] != b.len {
                    return err(format!(
                        "chunk-cover: batch {} stages out {} of {} elements",
                        b.index, cover_out[b.index], b.len
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
        let mut rs = ReadySet::new(self, |_| true, tie);
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
        let mut rs = ReadySet::new(self, |_| true, TieBreak::MinId);
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
    /// Build the scheduler state for the in-scope subgraph of `dag`.
    pub fn new(dag: &PlanDag, in_scope: impl Fn(usize) -> bool, tie: TieBreak) -> ReadySet {
        let n = dag.nodes.len();
        let in_scope: Vec<bool> = (0..n).map(in_scope).collect();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut remaining = 0usize;
        for (i, node) in dag.nodes.iter().enumerate() {
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
            assert_eq!(d.nodes.len(), d.plan.steps.len());
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
        // The planner lists a sort's last-HtoD dep twice (explicit +
        // FIFO); the dag keeps one copy so each edge is load-bearing.
        let d = dag(Approach::PipeData, 2000);
        for (i, node) in d.nodes.iter().enumerate() {
            let mut sorted = node.deps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), node.deps.len(), "node {i} has dup deps");
        }
        // And at least one plan step actually had the duplicate.
        assert!(d
            .plan
            .steps
            .iter()
            .any(|s| { matches!(s.kind, StepKind::GpuSort { .. }) && s.deps.len() == 2 }));
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
        let mut rs = ReadySet::new(&d, |i| d.nodes[i].op.is_merge(), TieBreak::MinId);
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
