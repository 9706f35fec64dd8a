//! Operation specifications: the nodes of the simulated DAG.

use crate::resource::{FluidId, LaneId, QueueId, TokenId};

/// Identifier of an operation, assigned in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

/// Classification tag for an op, interned via [`crate::SimBuilder::tag`].
///
/// Tags are how higher layers aggregate timeline spans into the paper's
/// component breakdown (`HtoD`, `DtoH`, `GPUSort`, `MCpy`, `PinnedAlloc`,
/// `Sync`, `PairMerge`, `MultiwayMerge`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpTag(pub u32);

/// Full specification of one operation.
///
/// Lifecycle: *waiting* (dependencies unmet) → *ready* → *admitted*
/// (tokens acquired) → *latency phase* (fixed `latency` seconds,
/// rate-free, tokens held) → *rate phase* (progresses `work` units at the
/// fair-share rate) → *done*.
///
/// Ops with `work == 0.0` are pure-latency ops (synchronization points,
/// kernel launches, fixed-cost allocations).
#[derive(Debug, Clone)]
pub struct OpSpec {
    /// Classification tag (interned name).
    pub tag: OpTag,
    /// Amount of work in op-defined units (bytes for transfers/copies,
    /// element-units for sorts/merges). Must be finite and ≥ 0.
    pub work: f64,
    /// Fixed setup latency in seconds spent after admission and before
    /// any rate-based progress. Must be finite and ≥ 0.
    pub latency: f64,
    /// Intrinsic peak rate in work-units/second (e.g. the copy rate a
    /// single core can sustain). `None` means only fluid demands bound
    /// the rate — in that case at least one demand must be present.
    pub cap: Option<f64>,
    /// Fair-share weight; rising flows receive rate `θ·weight` during
    /// progressive filling. Use the op's natural full-speed consumption
    /// so that co-located heterogeneous ops share hardware proportionally.
    pub weight: f64,
    /// `(resource, demand)` pairs: resource-units consumed per work-unit.
    /// An op running at rate ρ uses `ρ·demand` units/s of the resource.
    pub demands: Vec<(FluidId, f64)>,
    /// `(resource, count)` pairs of tokens held from admission to
    /// completion, acquired atomically in op-id order. At most one
    /// entry per resource ([`Op::tokens`] sums repeats), so validation
    /// and admission can judge each entry on its own.
    pub tokens: Vec<(TokenId, u32)>,
    /// Optional FIFO queue (CUDA-stream semantics).
    pub queue: Option<QueueId>,
    /// Explicit dependencies; this op becomes ready when all complete.
    pub deps: Vec<OpId>,
    /// Display lane for Gantt rendering.
    pub lane: Option<LaneId>,
    /// Free-form user key for correlating spans with plan steps.
    pub user_key: u64,
}

/// Ergonomic builder for [`OpSpec`].
///
/// ```
/// use hetsort_sim::{Op, SimBuilder};
/// let mut sim = SimBuilder::new();
/// let pcie = sim.fluid("pcie_down", 12e9);
/// let tag = sim.tag("HtoD");
/// let op = sim.op(Op::new(tag, 8e6).demand(pcie, 1.0));
/// let tl = sim.run().unwrap();
/// assert!((tl.span(op).duration() - 8e6 / 12e9).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Op {
    spec: OpSpec,
}

impl Op {
    /// Start building an op with the given tag and work amount.
    pub fn new(tag: OpTag, work: f64) -> Self {
        Op {
            spec: OpSpec {
                tag,
                work,
                latency: 0.0,
                cap: None,
                weight: 1.0,
                demands: Vec::new(),
                tokens: Vec::new(),
                queue: None,
                deps: Vec::new(),
                lane: None,
                user_key: 0,
            },
        }
    }

    /// A pure-latency op (no rate phase): synchronization, launch, or
    /// fixed-cost allocation.
    pub fn fixed(tag: OpTag, latency: f64) -> Self {
        let mut op = Op::new(tag, 0.0);
        op.spec.latency = latency;
        op
    }

    /// Set the fixed setup latency in seconds.
    pub fn latency(mut self, seconds: f64) -> Self {
        self.spec.latency = seconds;
        self
    }

    /// Set the intrinsic peak rate in work-units/second.
    pub fn cap(mut self, rate: f64) -> Self {
        self.spec.cap = Some(rate);
        self
    }

    /// Set the fair-share weight (default 1.0).
    pub fn weight(mut self, weight: f64) -> Self {
        self.spec.weight = weight;
        self
    }

    /// Add a fluid demand: `demand` resource-units consumed per work-unit.
    pub fn demand(mut self, resource: FluidId, demand: f64) -> Self {
        self.spec.demands.push((resource, demand));
        self
    }

    /// Require `count` tokens of `resource` for the op's whole duration.
    /// Asking for the same resource again adds to the request.
    pub fn tokens(mut self, resource: TokenId, count: u32) -> Self {
        match self.spec.tokens.iter_mut().find(|(r, _)| *r == resource) {
            Some((_, held)) => *held = held.saturating_add(count),
            None => self.spec.tokens.push((resource, count)),
        }
        self
    }

    /// Submit to a FIFO queue (serializes after the queue's previous op).
    pub fn queue(mut self, queue: QueueId) -> Self {
        self.spec.queue = Some(queue);
        self
    }

    /// Add an explicit dependency.
    pub fn dep(mut self, op: OpId) -> Self {
        self.spec.deps.push(op);
        self
    }

    /// Add many explicit dependencies.
    pub fn deps<I: IntoIterator<Item = OpId>>(mut self, ops: I) -> Self {
        self.spec.deps.extend(ops);
        self
    }

    /// Set the Gantt display lane.
    pub fn lane(mut self, lane: LaneId) -> Self {
        self.spec.lane = Some(lane);
        self
    }

    /// Attach a user correlation key (surfaced in spans).
    pub fn key(mut self, key: u64) -> Self {
        self.spec.user_key = key;
        self
    }

    /// Finalize into the raw spec.
    pub fn into_spec(self) -> OpSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_all_fields() {
        let spec = Op::new(OpTag(7), 100.0)
            .latency(0.5)
            .cap(8e9)
            .weight(2.0)
            .demand(FluidId(0), 2.0)
            .tokens(TokenId(1), 3)
            .queue(QueueId(4))
            .dep(OpId(9))
            .deps([OpId(10), OpId(11)])
            .lane(LaneId(2))
            .key(42)
            .into_spec();
        assert_eq!(spec.tag, OpTag(7));
        assert_eq!(spec.work, 100.0);
        assert_eq!(spec.latency, 0.5);
        assert_eq!(spec.cap, Some(8e9));
        assert_eq!(spec.weight, 2.0);
        assert_eq!(spec.demands, vec![(FluidId(0), 2.0)]);
        assert_eq!(spec.tokens, vec![(TokenId(1), 3)]);
        assert_eq!(spec.queue, Some(QueueId(4)));
        assert_eq!(spec.deps, vec![OpId(9), OpId(10), OpId(11)]);
        assert_eq!(spec.lane, Some(LaneId(2)));
        assert_eq!(spec.user_key, 42);
    }

    #[test]
    fn fixed_op_has_no_work() {
        let spec = Op::fixed(OpTag(0), 0.01).into_spec();
        assert_eq!(spec.work, 0.0);
        assert_eq!(spec.latency, 0.01);
    }

    #[test]
    fn defaults_are_sane() {
        let spec = Op::new(OpTag(0), 1.0).into_spec();
        assert_eq!(spec.latency, 0.0);
        assert_eq!(spec.cap, None);
        assert_eq!(spec.weight, 1.0);
        assert!(spec.demands.is_empty());
        assert!(spec.tokens.is_empty());
        assert!(spec.queue.is_none());
        assert!(spec.deps.is_empty());
    }
}
