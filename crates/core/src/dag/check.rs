//! The one structural validator, behind [`PlanDag::validate`] and
//! [`Plan::validate`]: its eleven named rules, each run over flat
//! tables.
//!
//! A rule keys its state on what the nodes name: a stream, a batch, a
//! chunk of a batch, a pair slot. Every such table is a vector sized
//! from the plan's geometry ([`Geometry`]), so a well-formed dag is
//! checked with a fixed number of allocations, however many nodes it
//! has. A malformed dag may name an index past that geometry; the index
//! then lands in a sparse spill beside the table, which answers exactly
//! as a map keyed by the index would. Such a dag is rejected by the
//! rule that would reject it with maps, with the same message, and never
//! by a panic.
//!
//! [`PlanDag::validate`]: super::PlanDag::validate
//! [`Plan::validate`]: crate::plan::Plan::validate

use std::collections::BTreeMap;
use std::fmt;

use super::{DagNode, DagOp};
use crate::error::HetSortError;
use crate::plan::{MergeSrc, Outbound, Plan};

/// The empty slot of a node-id table (no node has this id).
const NONE: usize = usize::MAX;

/// Values at `0..dense.len()` in a vector; an index past it goes to a
/// sparse spill that only a malformed dag fills.
#[derive(Debug, Clone)]
struct Table<T> {
    dense: Vec<T>,
    spill: BTreeMap<usize, T>,
    empty: T,
}

impl<T: Clone> Table<T> {
    fn new(len: usize, empty: T) -> Self {
        Table {
            dense: vec![empty.clone(); len],
            spill: BTreeMap::new(),
            empty,
        }
    }

    fn get(&self, k: usize) -> &T {
        self.dense
            .get(k)
            .or_else(|| self.spill.get(&k))
            .unwrap_or(&self.empty)
    }

    fn get_mut(&mut self, k: usize) -> &mut T {
        if k < self.dense.len() {
            &mut self.dense[k]
        } else {
            self.spill.entry(k).or_insert_with(|| self.empty.clone())
        }
    }
}

impl Table<usize> {
    /// The node id held at `k`, if any.
    fn node(&self, k: usize) -> Option<usize> {
        Some(*self.get(k)).filter(|&id| id != NONE)
    }
}

/// One stream's node ids by chunk index, for the batch the stream is on:
/// a map from chunk to node that is cleared at each batch boundary, at
/// the cost of the chunks written since the last clear.
#[derive(Debug, Clone)]
struct ChunkIds {
    ids: Table<usize>,
    /// Dense slots `..written` may hold ids; the rest are empty.
    written: usize,
    /// The highest chunk index held.
    max: Option<usize>,
}

impl ChunkIds {
    fn new(chunks: usize) -> Self {
        ChunkIds {
            ids: Table::new(chunks, NONE),
            written: 0,
            max: None,
        }
    }

    fn get(&self, chunk: usize) -> Option<usize> {
        self.ids.node(chunk)
    }

    fn insert(&mut self, chunk: usize, id: usize) {
        *self.ids.get_mut(chunk) = id;
        if chunk < self.ids.dense.len() {
            self.written = self.written.max(chunk + 1);
        }
        self.max = self.max.max(Some(chunk));
    }

    /// The id at the highest chunk index held.
    fn last(&self) -> Option<usize> {
        self.max.and_then(|c| self.get(c))
    }

    fn clear(&mut self) {
        self.ids.dense[..self.written].fill(NONE);
        self.ids.spill.clear();
        self.written = 0;
        self.max = None;
    }
}

/// The index ranges the dense tables cover. Each is capped by the node
/// count, and chunks per batch so that the chunk rows hold at most one
/// slot per node and kind: a table never outgrows its dag.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    streams: usize,
    batches: usize,
    chunks: usize,
    pairs: usize,
}

impl Geometry {
    fn of(plan: &Plan, nodes: usize) -> Geometry {
        let ps = plan.config.pinned_elems.max(1);
        let chunks = plan.batches.iter().map(|b| b.len.div_ceil(ps));
        let batches = plan.nb().min(nodes);
        Geometry {
            streams: plan.total_streams.min(nodes),
            batches,
            chunks: chunks.max().unwrap_or(0).min(nodes / batches.max(1)),
            pairs: plan.pairs.len().min(nodes),
        }
    }
}

/// The four ops of a chunk, in the order `chunk-cover` compares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ChunkKind {
    StageIn,
    HtoD,
    DtoH,
    StageOut,
}

impl ChunkKind {
    const ALL: [ChunkKind; 4] = [
        ChunkKind::StageIn,
        ChunkKind::HtoD,
        ChunkKind::DtoH,
        ChunkKind::StageOut,
    ];

    fn name(self) -> &'static str {
        match self {
            ChunkKind::StageIn => "StageIn",
            ChunkKind::HtoD => "HtoD",
            ChunkKind::DtoH => "DtoH",
            ChunkKind::StageOut => "StageOut",
        }
    }
}

/// A chunk op's `(kind, batch, chunk, start, len)`.
fn chunk_op(op: &DagOp) -> Option<(ChunkKind, usize, usize, usize, usize)> {
    match *op {
        DagOp::StagingCopy {
            batch,
            chunk,
            start,
            len,
            dir_in,
        } => {
            let kind = if dir_in {
                ChunkKind::StageIn
            } else {
                ChunkKind::StageOut
            };
            Some((kind, batch, chunk, start, len))
        }
        DagOp::HtoD {
            batch,
            chunk,
            start,
            len,
        } => Some((ChunkKind::HtoD, batch, chunk, start, len)),
        DagOp::DtoH {
            batch,
            chunk,
            start,
            len,
        } => Some((ChunkKind::DtoH, batch, chunk, start, len)),
        _ => None,
    }
}

/// What a node produces: `duplicate-producer`'s key. Ordered by batch
/// first, so one kind's chunks of one batch are a contiguous range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Artifact {
    Pinned {
        stream: usize,
        dir_in: bool,
    },
    Chunk {
        batch: usize,
        kind: ChunkKind,
        chunk: usize,
    },
    Sort {
        batch: usize,
    },
    Pair {
        slot: usize,
    },
    Multiway,
}

impl Artifact {
    fn of(op: &DagOp) -> Artifact {
        if let Some((kind, batch, chunk, ..)) = chunk_op(op) {
            return Artifact::Chunk { batch, kind, chunk };
        }
        match *op {
            DagOp::PinnedAlloc { stream, dir_in, .. } => Artifact::Pinned { stream, dir_in },
            DagOp::Sort { batch } => Artifact::Sort { batch },
            DagOp::PairMerge { slot } => Artifact::Pair { slot },
            // MultiwayMerge; the chunk ops returned above.
            _ => Artifact::Multiway,
        }
    }
}

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Artifact::Pinned { stream, dir_in } => write!(f, "pinned s{stream} in={dir_in}"),
            Artifact::Chunk { batch, kind, chunk } => match kind {
                ChunkKind::StageIn => write!(f, "staging b{batch}.c{chunk} in=true"),
                ChunkKind::HtoD => write!(f, "htod b{batch}.c{chunk}"),
                ChunkKind::DtoH => write!(f, "dtoh b{batch}.c{chunk}"),
                ChunkKind::StageOut => write!(f, "staging b{batch}.c{chunk} in=false"),
            },
            Artifact::Sort { batch } => write!(f, "sort b{batch}"),
            Artifact::Pair { slot } => write!(f, "pair slot {slot}"),
            Artifact::Multiway => write!(f, "multiway merge"),
        }
    }
}

/// Every artifact's producing node, one slot per artifact the geometry
/// has: pinned buffers, then per batch one row of chunks per kind, then
/// sorts, pair slots and the multiway merge.
struct Producers {
    geo: Geometry,
    ids: Vec<usize>,
    spill: BTreeMap<Artifact, usize>,
}

impl Producers {
    fn new(geo: Geometry) -> Producers {
        let len = 2 * geo.streams + 4 * geo.batches * geo.chunks + geo.batches + geo.pairs + 1;
        Producers {
            geo,
            ids: vec![NONE; len],
            spill: BTreeMap::new(),
        }
    }

    /// `a`'s slot, or `None` when it lies past the geometry.
    fn slot(&self, a: Artifact) -> Option<usize> {
        let g = self.geo;
        let chunks_at = 2 * g.streams;
        let sorts_at = chunks_at + 4 * g.batches * g.chunks;
        let pairs_at = sorts_at + g.batches;
        match a {
            Artifact::Pinned { stream, dir_in } => {
                (stream < g.streams).then(|| 2 * stream + usize::from(dir_in))
            }
            Artifact::Chunk { batch, kind, chunk } => (batch < g.batches && chunk < g.chunks)
                .then(|| chunks_at + (4 * batch + kind as usize) * g.chunks + chunk),
            Artifact::Sort { batch } => (batch < g.batches).then(|| sorts_at + batch),
            Artifact::Pair { slot } => (slot < g.pairs).then(|| pairs_at + slot),
            Artifact::Multiway => Some(pairs_at + g.pairs),
        }
    }

    fn get(&self, a: Artifact) -> Option<usize> {
        match self.slot(a) {
            Some(s) => Some(self.ids[s]).filter(|&id| id != NONE),
            None => self.spill.get(&a).copied(),
        }
    }

    fn insert(&mut self, a: Artifact, id: usize) {
        match self.slot(a) {
            Some(s) => self.ids[s] = id,
            None => {
                self.spill.insert(a, id);
            }
        }
    }

    /// The `(chunk, node)` pairs of `kind`'s chunks of `batch`, in chunk
    /// order.
    fn row(&self, batch: usize, kind: ChunkKind) -> impl Iterator<Item = (usize, usize)> + '_ {
        let at = |chunk| Artifact::Chunk { batch, kind, chunk };
        let dense = match self.slot(at(0)) {
            Some(s) => &self.ids[s..s + self.geo.chunks],
            None => &[],
        };
        let spilled = self.spill.range(at(0)..=at(usize::MAX));
        dense
            .iter()
            .enumerate()
            .filter(|&(_, &id)| id != NONE)
            .map(|(chunk, &id)| (chunk, id))
            .chain(spilled.filter_map(|(a, &id)| match *a {
                Artifact::Chunk { chunk, .. } => Some((chunk, id)),
                _ => None,
            }))
    }
}

/// One stream's `fifo` state: its lane tails and current chunk nodes.
#[derive(Debug, Clone)]
struct Lane {
    host_tail: Option<usize>,
    dev_tail: Option<usize>,
    cur_batch: Option<usize>,
    stagein: ChunkIds,
    htod: ChunkIds,
    dtoh: ChunkIds,
    sout: ChunkIds,
    prev_htod: Option<usize>,
    prev_sout: Option<usize>,
}

impl Lane {
    fn new(chunks: usize) -> Lane {
        Lane {
            host_tail: None,
            dev_tail: None,
            cur_batch: None,
            stagein: ChunkIds::new(chunks),
            htod: ChunkIds::new(chunks),
            dtoh: ChunkIds::new(chunks),
            sout: ChunkIds::new(chunks),
            prev_htod: None,
            prev_sout: None,
        }
    }
}

/// Run the rules in order; the first violation is the error.
pub(crate) fn check(plan: &Plan, nodes: &[DagNode]) -> Result<(), HetSortError> {
    let err = |reason: String| Err(HetSortError::Plan { reason });
    let n = nodes.len();
    let geo = Geometry::of(plan, n);

    // missing-ref: every dep must name an existing node.
    let mut backward = true;
    for (i, node) in nodes.iter().enumerate() {
        for &d in &node.deps {
            if d >= n {
                return err(format!("missing-ref: node {i} references missing node {d}"));
            }
            backward &= d < i;
        }
    }

    // cycle: a dag whose edges all point backward is acyclic; otherwise
    // Kahn's algorithm over flat dependents must consume every node.
    if !backward {
        let stuck = stuck_in_cycles(nodes);
        if stuck > 0 {
            return err(format!(
                "cycle: {stuck} node(s) locked in a dependency cycle"
            ));
        }
    }

    // duplicate-producer: every artifact has exactly one producer.
    let mut producers = Producers::new(geo);
    for (i, node) in nodes.iter().enumerate() {
        let key = Artifact::of(&node.op);
        if let Some(j) = producers.get(key) {
            return err(format!(
                "duplicate-producer: node {i} duplicates node {j} ({key})"
            ));
        }
        producers.insert(key, i);
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
                node.op.class().name(),
                node.stream,
                plan.total_streams
            ));
        }
    }

    fifo(plan, nodes, geo)?;

    // Producer maps for sort-input / merge-inputs.
    let mut last_htod = Table::new(geo.batches, NONE);
    let mut last_stage_out = Table::new(geo.batches, NONE);
    for (i, node) in nodes.iter().enumerate() {
        match node.op {
            DagOp::HtoD { batch, .. } => *last_htod.get_mut(batch) = i,
            DagOp::StagingCopy {
                batch,
                dir_in: false,
                ..
            } => *last_stage_out.get_mut(batch) = i,
            _ => {}
        }
    }

    // sort-input: a sort depends on its batch's last HtoD.
    for (i, node) in nodes.iter().enumerate() {
        if let DagOp::Sort { batch } = node.op {
            match last_htod.node(batch) {
                Some(h) if node.deps.contains(&h) => {}
                Some(h) => {
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

    // merge-inputs: every merge depends on each input's producer (a
    // pair slot's producer is unique: duplicate-producer held).
    {
        let producer = |src: MergeSrc| -> Option<usize> {
            match src {
                MergeSrc::Batch(b) => last_stage_out.node(b),
                MergeSrc::Merged(p) => producers.get(Artifact::Pair { slot: p }),
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
                DagOp::PairMerge { slot } => {
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
    // own `(start, len)`, so all four ops of a chunk must agree on it,
    // the chunks must tile the batch in order, and none may exceed the
    // pinned buffer it is staged through. The producer table already
    // holds each batch's chunks per kind (duplicate-producer made them
    // unique).
    let nb = plan.nb();
    for node in nodes {
        if let Some((kind, batch, ..)) = chunk_op(&node.op) {
            if batch >= nb {
                return err(format!(
                    "chunk-cover: {} names batch {batch} of {nb}",
                    kind.name()
                ));
            }
        }
    }
    let extent = |(chunk, id): (usize, usize)| {
        chunk_op(&nodes[id].op).map_or((chunk, 0, 0), |(.., start, len)| (chunk, start, len))
    };
    let ps = plan.config.pinned_elems;
    for b in &plan.batches {
        let row = |kind: ChunkKind| producers.row(b.index, kind).map(extent);
        let mut at = b.start;
        for (want, (chunk, start, len)) in row(ChunkKind::StageIn).enumerate() {
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
        if let Some(kind) = ChunkKind::ALL[1..]
            .iter()
            .find(|&&k| !row(k).eq(row(ChunkKind::StageIn)))
        {
            return err(format!(
                "chunk-cover: batch {} {} chunks differ from its StageIn chunks",
                b.index,
                kind.name()
            ));
        }
    }

    // order: every dependency names an earlier node. The simulator and
    // the trace lowering resolve a node's dependencies before the node.
    if !backward {
        for (i, node) in nodes.iter().enumerate() {
            if let Some(d) = node.deps.iter().find(|&&d| d >= i) {
                return err(format!("order: node {i} depends forward on node {d}"));
            }
        }
    }

    // merge-cover: walking each pair slot from the final merge's inputs,
    // every batch reaches it once and every slot is consumed once (the
    // engine frees a run at its one consumer), and slot sizes add up.
    // Walking the nodes last to first meets each slot's consumer before
    // its merge (`order`, `merge-inputs`). Batch b is key b, slot p nb + p.
    let slots = plan.pairs.len();
    let mut seen = Table::new(geo.batches + geo.pairs, false);
    for (i, node) in nodes.iter().enumerate().rev() {
        let pair;
        let srcs = match &node.op {
            DagOp::MultiwayMerge { inputs } => inputs.as_slice(),
            DagOp::PairMerge { slot } if *seen.get(nb + slot) => {
                pair = [plan.pairs[*slot].left, plan.pairs[*slot].right];
                &pair
            }
            _ => continue,
        };
        for &src in srcs {
            let key = match src {
                MergeSrc::Batch(b) if b < nb => b,
                MergeSrc::Merged(p) if p < slots => nb + p,
                _ => return err(format!("merge-cover: node {i} reaches missing {src:?}")),
            };
            if std::mem::replace(seen.get_mut(key), true) {
                return err(format!("merge-cover: node {i} reaches {src:?} twice"));
            }
        }
    }
    let first = if nb > 1 { 0 } else { nb }; // a lone batch is the output
    if let Some(k) = (first..nb + slots).find(|&k| !seen.get(k)) {
        let src = if k < nb {
            MergeSrc::Batch(k)
        } else {
            MergeSrc::Merged(k - nb)
        };
        return err(format!(
            "merge-cover: {src:?} never reaches the final merge"
        ));
    }
    // Every slot was walked, so its inputs are in range.
    let len = |src: MergeSrc| match src {
        MergeSrc::Batch(b) => plan.batches[b].len,
        MergeSrc::Merged(p) => plan.pairs[p].out_elems,
    };
    if let Some(p) = plan
        .pairs
        .iter()
        .position(|pair| len(pair.left).checked_add(len(pair.right)) != Some(pair.out_elems))
    {
        return err(format!(
            "merge-cover: pair slot {p}'s inputs do not add up to its {} elements",
            plan.pairs[p].out_elems
        ));
    }

    // placement: the device map names each GPU's device once; batches
    // tile [0, n) in index order, each on a GPU and a stream of the plan
    // (the simulator and the engine index per-GPU and per-stream state).
    let ngpu = plan.config.platform.n_gpus();
    let ids = &plan.device_ids;
    if ids.len() != ngpu || ids.iter().enumerate().any(|(g, id)| ids[..g].contains(id)) {
        return err(format!(
            "placement: device map {ids:?} does not name {ngpu} distinct devices"
        ));
    }
    let mut at = 0;
    for (i, b) in plan.batches.iter().enumerate() {
        if b.index != i || b.start != at {
            return err(format!(
                "placement: batch {} at position {i} starts at {}; batch {i} is due at {at}",
                b.index, b.start
            ));
        }
        if b.gpu >= ngpu || b.stream >= plan.total_streams {
            return err(format!(
                "placement: batch {i} names GPU {} of {ngpu}, stream {} of {}",
                b.gpu, b.stream, plan.total_streams
            ));
        }
        at = at.saturating_add(b.len);
    }
    if at != plan.n {
        return err(format!(
            "placement: batches cover {at} of {} elements",
            plan.n
        ));
    }

    Ok(())
}

/// Nodes Kahn's algorithm never frees: 0 iff the dependency relation
/// is acyclic. The dependents are one flat array indexed by offsets.
fn stuck_in_cycles(nodes: &[DagNode]) -> usize {
    let n = nodes.len();
    let mut at = vec![0usize; n + 1];
    for node in nodes {
        for &d in &node.deps {
            at[d + 1] += 1;
        }
    }
    for i in 0..n {
        at[i + 1] += at[i];
    }
    let mut dependents = vec![0usize; at[n]];
    let mut next = at.clone();
    let mut indeg: Vec<usize> = nodes.iter().map(|node| node.deps.len()).collect();
    for (i, node) in nodes.iter().enumerate() {
        for &d in &node.deps {
            dependents[next[d]] = i;
            next[d] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(i) = queue.pop() {
        seen += 1;
        for &j in &dependents[at[i]..at[i + 1]] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                queue.push(j);
            }
        }
    }
    n - seen
}

/// The `fifo` rule: each stream's nodes (in id order) must chain via
/// deps. Without a host lane every node of a stream chains on one tail.
/// A layout with one ([`crate::plan::StagingLayout::host_lane`]) splits
/// each stream into a host lane (allocs + staging copies) and a device
/// lane (HtoD/sort/DtoH) and demands, besides the per-lane chains, the
/// explicit staging-copy, half-reuse, dtoh and out-buffer edges the
/// relaxed discipline relies on, chunk by chunk within each batch the
/// stream runs. Every intra-stream edge the lowering emits is demanded
/// here: the trace gives same-stream ops program order on one thread,
/// so the happens-before analyzer can never see an intra-stream edge
/// deletion — the structural validator must.
fn fifo(plan: &Plan, nodes: &[DagNode], geo: Geometry) -> Result<(), HetSortError> {
    let split = plan.staging.host_lane();
    let elided = plan.staging.outbound == Outbound::Elided;
    let demand = |i: usize, deps: &[usize], need: usize, what: &str| {
        if deps.contains(&need) {
            Ok(())
        } else {
            Err(HetSortError::Plan {
                reason: format!("fifo: node {i} missing {what} dependency on node {need}"),
            })
        }
    };
    let chunks = if split { geo.chunks } else { 0 }; // per-chunk edges
    let mut lanes = Table::new(geo.streams, Lane::new(chunks));
    for (i, node) in nodes.iter().enumerate() {
        let Some(s) = node.stream else { continue };
        let st = lanes.get_mut(s);
        let (tail, lane) = match (split, node.op.is_device_lane()) {
            (false, _) => (&mut st.host_tail, "stream"),
            (true, true) => (&mut st.dev_tail, "device-lane"),
            (true, false) => (&mut st.host_tail, "host-lane"),
        };
        if let Some(prev) = *tail {
            demand(i, &node.deps, prev, lane)?;
        }
        *tail = Some(i);
        if !split {
            continue;
        }
        // Batch boundary: the previous batch's last HtoD and
        // StageOut become the cross-batch reuse targets.
        if let Some(b) = node.op.batch() {
            if st.cur_batch != Some(b) {
                st.prev_htod = st.htod.last();
                st.prev_sout = st.sout.last();
                st.stagein.clear();
                st.htod.clear();
                st.dtoh.clear();
                st.sout.clear();
                st.cur_batch = Some(b);
            }
        }
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
                    if let Some(h) = st.htod.get(chunk - 2) {
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
                if let Some(si) = st.stagein.get(chunk) {
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
                        if let Some(o) = st.sout.get(chunk - 1) {
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
                if let Some(d) = st.dtoh.get(chunk) {
                    demand(i, &node.deps, d, "dtoh")?;
                }
                st.sout.insert(chunk, i);
            }
            _ => {}
        }
    }
    Ok(())
}
