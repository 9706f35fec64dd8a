//! The event loop: admission, rate computation, progress, completion.
//!
//! # Cost
//!
//! The loop is event-driven over three *live sets* carried from one
//! event to the next: `ready` (dependencies met, tokens not yet held),
//! `in_latency` and `running`. An event solves max-min fairness once
//! over the running ops, advances time to the earliest latency expiry
//! or completion, and then touches only the live ops, the dependents of
//! the ops that completed, and, when something completed, the ready
//! ops. Bookkeeping is O(live) per event; the solve is the solver's
//! O(F·(F+R)) over F = |running|. The op table is walked only before
//! the first event, when the spans are assembled, and on the two error
//! paths (`DependencyCycle`, `Stalled`), which list every unadmitted op.
//! [`SimStats`] counts the visits, so the bound is testable without a
//! clock.
//!
//! Memory is allocated per run, not per event: the dependents are one
//! CSR pair (offsets plus flat op ids), the solver's working vectors
//! live in a `Waterfill` kept across events, and the live sets and
//! the usage samples only grow.
//!
//! # Ordering invariant
//!
//! All three live sets are in ascending op-id order whenever they are
//! read. That is what a scan of `0..n` by phase would produce, and it
//! fixes every floating-point sequence of the run: the solver receives
//! the same flows in the same order, `usage` is accumulated in the same
//! order, and ops complete and are admitted in the same order. A change
//! that visits the same ops in another order moves results by ulps and
//! fails the oracle property at the bottom of this file.

use crate::error::SimError;
use crate::fairshare::{Flow, Waterfill};
use crate::op::{Op, OpId, OpSpec};
use crate::resource::{FluidId, FluidResource, LaneId, QueueId, TokenId, TokenResource};
use crate::trace::{SimStats, Span, Timeline};
use crate::TIME_EPS;

/// Builder for a simulation: register resources, queues, tags, and ops,
/// then [`run`](SimBuilder::run) the whole DAG to completion.
///
/// All ops are submitted before the run (static DAG); the heterogeneous
/// sorting plans are fully static, including the pair-merge heuristic.
#[derive(Debug, Default)]
pub struct SimBuilder {
    fluids: Vec<FluidResource>,
    tokens: Vec<TokenResource>,
    /// The last op submitted to each queue.
    queues: Vec<Option<OpId>>,
    tags: Vec<String>,
    lanes: Vec<String>,
    ops: Vec<OpSpec>,
}

impl SimBuilder {
    /// Create an empty simulation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a fluid resource with `capacity` units/second.
    pub fn fluid(&mut self, name: impl Into<String>, capacity: f64) -> FluidId {
        self.fluids.push(FluidResource {
            name: name.into(),
            capacity,
        });
        FluidId(self.fluids.len() - 1)
    }

    /// Register a token resource with `total` slots.
    pub fn tokens(&mut self, name: impl Into<String>, total: u32) -> TokenId {
        self.tokens.push(TokenResource {
            name: name.into(),
            total,
        });
        TokenId(self.tokens.len() - 1)
    }

    /// Register a FIFO queue (CUDA-stream semantics): ops submitted to
    /// the same queue are chained with implicit dependencies. The name
    /// labels the queue for the caller; spans record the [`QueueId`].
    pub fn queue(&mut self, _name: impl Into<String>) -> QueueId {
        self.queues.push(None);
        QueueId(self.queues.len() - 1)
    }

    /// Intern a tag name, reusing the id when the name already exists.
    pub fn tag(&mut self, name: impl AsRef<str>) -> crate::op::OpTag {
        let name = name.as_ref();
        if let Some(i) = self.tags.iter().position(|t| t == name) {
            return crate::op::OpTag(i as u32);
        }
        self.tags.push(name.to_string());
        crate::op::OpTag((self.tags.len() - 1) as u32)
    }

    /// Register a display lane for Gantt rendering.
    pub fn lane(&mut self, name: impl Into<String>) -> LaneId {
        self.lanes.push(name.into());
        LaneId(self.lanes.len() - 1)
    }

    /// Submit an op; returns its id. Queue chaining happens here.
    pub fn op(&mut self, op: Op) -> OpId {
        let mut spec = op.into_spec();
        let id = OpId(self.ops.len());
        if let Some(q) = spec.queue {
            if let Some(last) = self.queues.get_mut(q.0) {
                spec.deps.extend(last.replace(id));
            }
        }
        self.ops.push(spec);
        id
    }

    /// Number of ops submitted so far.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Make room for `additional` more ops, exactly: a caller that knows
    /// its op count up front keeps the op table from doubling past it.
    pub fn reserve(&mut self, additional: usize) {
        self.ops.reserve_exact(additional);
    }

    /// Validate the DAG and run it to completion, returning the timeline.
    pub fn run(self) -> Result<Timeline, SimError> {
        self.validate()?;
        Engine::new(self).run()
    }

    fn validate(&self) -> Result<(), SimError> {
        for (r, f) in self.fluids.iter().enumerate() {
            if !f.capacity.is_finite() || f.capacity < 0.0 {
                return Err(SimError::InvalidNumber {
                    context: format!("capacity of fluid '{}' ({r})", f.name),
                    value: f.capacity,
                });
            }
        }
        for (i, spec) in self.ops.iter().enumerate() {
            let id = OpId(i);
            for &(FluidId(r), d) in &spec.demands {
                if r >= self.fluids.len() {
                    return Err(SimError::UnknownReference {
                        op: id,
                        what: format!("fluid resource {r}"),
                    });
                }
                if !d.is_finite() || d < 0.0 {
                    return Err(SimError::InvalidNumber {
                        context: format!("demand of op {i} on fluid {r}"),
                        value: d,
                    });
                }
            }
            for &(TokenId(r), count) in &spec.tokens {
                let res = self
                    .tokens
                    .get(r)
                    .ok_or_else(|| SimError::UnknownReference {
                        op: id,
                        what: format!("token resource {r}"),
                    })?;
                if count > res.total {
                    return Err(SimError::ImpossibleTokenRequest {
                        op: id,
                        resource: res.name.clone(),
                        requested: count,
                        available: res.total,
                    });
                }
            }
            for &OpId(d) in &spec.deps {
                if d >= self.ops.len() {
                    return Err(SimError::UnknownReference {
                        op: id,
                        what: format!("dependency op {d}"),
                    });
                }
            }
            if let Some(q) = spec.queue {
                if q.0 >= self.queues.len() {
                    return Err(SimError::UnknownReference {
                        op: id,
                        what: format!("queue {}", q.0),
                    });
                }
            }
            if spec.tag.0 as usize >= self.tags.len() {
                return Err(SimError::UnknownReference {
                    op: id,
                    what: format!("tag {}", spec.tag.0),
                });
            }
            if !spec.work.is_finite() || spec.work < 0.0 {
                return Err(SimError::InvalidNumber {
                    context: format!("work of op {i}"),
                    value: spec.work,
                });
            }
            if !spec.latency.is_finite() || spec.latency < 0.0 {
                return Err(SimError::InvalidNumber {
                    context: format!("latency of op {i}"),
                    value: spec.latency,
                });
            }
            if !spec.weight.is_finite() || spec.weight <= 0.0 {
                return Err(SimError::InvalidNumber {
                    context: format!("weight of op {i}"),
                    value: spec.weight,
                });
            }
            if let Some(c) = spec.cap {
                if !c.is_finite() || c <= 0.0 {
                    return Err(SimError::InvalidNumber {
                        context: format!("cap of op {i}"),
                        value: c,
                    });
                }
            }
            if spec.work > 0.0 && spec.cap.is_none() && spec.demands.iter().all(|&(_, d)| d <= 0.0)
            {
                return Err(SimError::UnboundedRate(id));
            }
        }
        Ok(())
    }
}

/// Admission state of one op. What happens after admission (remaining
/// latency, work done, completion) is carried by the engine's
/// `in_latency` / `running` lists and `t_end`, not here.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Dependencies unmet.
    Waiting,
    /// Dependencies met, tokens not yet acquired (listed in `ready`).
    Ready,
    /// Tokens acquired: live or complete.
    Admitted,
}

struct Engine {
    /// `(name, capacity)` of every fluid, handed to the [`Timeline`].
    fluid_info: Vec<(String, f64)>,
    /// Fluid capacities: the solver's second argument, built once.
    caps: Vec<f64>,
    usage_starts: Vec<f64>,
    usage: Vec<f64>,
    token_totals: Vec<u32>,
    token_free: Vec<u32>,
    tags: Vec<String>,
    lanes: Vec<String>,
    ops: Vec<OpSpec>,
    phase: Vec<Phase>,
    unmet: Vec<usize>,
    /// The dependents of op `i` are `dependents[dependents_at[i]..
    /// dependents_at[i + 1]]`, ascending.
    dependents_at: Vec<usize>,
    dependents: Vec<usize>,
    t_start: Vec<f64>,
    t_end: Vec<f64>,
    /// Ops whose dependencies are met but that hold no tokens yet.
    /// Sorted ascending at the top of every [`admit`](Engine::admit).
    ready: Vec<usize>,
    /// `(op, remaining latency)`, ascending op id at every event.
    in_latency: Vec<(usize, f64)>,
    /// `(op, work done)`, ascending op id at every event.
    running: Vec<(usize, f64)>,
    /// Solver input for `running`, slot `k` describing `running[k]`;
    /// grows to the widest running set and is then reused.
    flows: Vec<Flow>,
    /// The solver's working vectors, reused by every solve.
    fill: Waterfill,
    /// Admission scratch: token resources reserved by an earlier ready op.
    blocked: Vec<bool>,
    stats: SimStats,
}

impl Engine {
    fn new(b: SimBuilder) -> Self {
        let mut ops = b.ops;
        let n = ops.len();
        let mut unmet = vec![0usize; n];
        // Count each op's dependents, prefix-sum the counts into
        // offsets, then place op ids in ascending order.
        let mut dependents_at = vec![0usize; n + 1];
        for (i, spec) in ops.iter_mut().enumerate() {
            // Deduplicate deps so unmet counting is exact.
            spec.deps.sort_unstable();
            spec.deps.dedup();
            unmet[i] = spec.deps.len();
            for &OpId(d) in &spec.deps {
                dependents_at[d + 1] += 1;
            }
        }
        for i in 0..n {
            dependents_at[i + 1] += dependents_at[i];
        }
        let mut dependents = vec![0usize; dependents_at[n]];
        let mut next = dependents_at.clone();
        for (i, spec) in ops.iter().enumerate() {
            for &OpId(d) in &spec.deps {
                dependents[next[d]] = i;
                next[d] += 1;
            }
        }
        let token_totals: Vec<u32> = b.tokens.iter().map(|t| t.total).collect();
        Engine {
            caps: b.fluids.iter().map(|f| f.capacity).collect(),
            fluid_info: b.fluids.into_iter().map(|f| (f.name, f.capacity)).collect(),
            usage_starts: Vec::new(),
            usage: Vec::new(),
            blocked: vec![false; token_totals.len()],
            token_free: token_totals.clone(),
            token_totals,
            tags: b.tags,
            lanes: b.lanes,
            phase: vec![Phase::Waiting; n],
            unmet,
            dependents_at,
            dependents,
            t_start: vec![0.0; n],
            t_end: vec![0.0; n],
            ops,
            ready: Vec::new(),
            in_latency: Vec::new(),
            running: Vec::new(),
            flows: Vec::new(),
            fill: Waterfill::default(),
            stats: SimStats::default(),
        }
    }

    fn run(mut self) -> Result<Timeline, SimError> {
        let n = self.ops.len();
        let mut done = 0usize;
        let mut t = 0.0_f64;
        // Ops that completed at the current event.
        let mut finished: Vec<usize> = Vec::new();

        // Initially ready: no unmet deps.
        for (i, &unmet) in self.unmet.iter().enumerate() {
            if unmet == 0 {
                self.phase[i] = Phase::Ready;
                self.ready.push(i);
            }
        }
        self.admit(t);

        while done < n {
            self.stats.events += 1;
            self.stats.active_visits += (self.running.len() + self.in_latency.len()) as u64;

            if self.running.is_empty() && self.in_latency.is_empty() {
                // Nothing active but ops remain: cycle or token deadlock.
                let waiting = self.unadmitted();
                if waiting
                    .iter()
                    .all(|&OpId(i)| self.phase[i] == Phase::Waiting)
                {
                    return Err(SimError::DependencyCycle {
                        stuck: waiting.len(),
                    });
                }
                return Err(SimError::Stalled {
                    time: t,
                    zero_rate: Vec::new(),
                    waiting,
                });
            }

            // Rates for running ops via max-min fair sharing.
            self.load_flows();
            let rates = self
                .fill
                .solve(&self.flows[..self.running.len()], &self.caps)?;
            self.stats.rate_solves += 1;

            // Record the piecewise-constant fluid usage of this segment.
            let base = self.usage.len();
            self.usage_starts.push(t);
            self.usage.resize(base + self.caps.len(), 0.0);
            for (k, &(i, _)) in self.running.iter().enumerate() {
                for &(FluidId(r), d) in &self.ops[i].demands {
                    self.usage[base + r] += rates[k] * d;
                }
            }

            // Earliest next event: latency expiry or work completion.
            let mut dt = f64::INFINITY;
            for &(_, rem) in &self.in_latency {
                dt = dt.min(rem);
            }
            for (k, &(i, donework)) in self.running.iter().enumerate() {
                let remaining = self.ops[i].work - donework;
                if remaining <= 0.0 {
                    dt = 0.0;
                } else if rates[k] > 0.0 {
                    dt = dt.min(remaining / rates[k]);
                }
            }

            if !dt.is_finite() {
                return Err(SimError::Stalled {
                    time: t,
                    zero_rate: self.running.iter().map(|&(i, _)| OpId(i)).collect(),
                    waiting: self.unadmitted(),
                });
            }

            t += dt;

            // Credit progress; drop completions from the live lists and
            // move expired latencies behind the surviving running ops.
            finished.clear();
            self.in_latency.retain_mut(|(i, rem)| {
                *rem -= dt;
                if *rem <= TIME_EPS {
                    if self.ops[*i].work > 0.0 {
                        self.running.push((*i, 0.0));
                    } else {
                        finished.push(*i);
                    }
                    false
                } else {
                    true
                }
            });
            // `rates` has one entry per op that was running at this event.
            let mut kept = 0;
            for (k, &rate) in rates.iter().enumerate() {
                let (i, donework) = self.running[k];
                let new_done = donework + rate * dt;
                // Complete when within time-epsilon of finishing.
                if new_done >= self.ops[i].work - rate.max(1.0) * TIME_EPS {
                    finished.push(i);
                } else {
                    self.running[kept] = (i, new_done);
                    kept += 1;
                }
            }
            self.running.drain(kept..rates.len());

            for &i in &finished {
                self.t_end[i] = t;
                done += 1;
                for &(TokenId(r), count) in &self.ops[i].tokens {
                    self.token_free[r] += count;
                    debug_assert!(self.token_free[r] <= self.token_totals[r]);
                }
                // Wake dependents. Dedup was applied to the unmet counts,
                // so decrement once per unique edge.
                let wakes = self.dependents_at[i]..self.dependents_at[i + 1];
                for &j in &self.dependents[wakes] {
                    self.unmet[j] -= 1;
                    if self.unmet[j] == 0 && self.phase[j] == Phase::Waiting {
                        self.phase[j] = Phase::Ready;
                        self.ready.push(j);
                    }
                }
            }
            // Tokens are released and ops become ready only on a
            // completion; without one, every ready op would be turned
            // away exactly as it was by the previous call.
            if !finished.is_empty() {
                self.admit(t);
            }

            // Restore ascending op-id order: promoted and newly admitted
            // ops were appended behind the survivors.
            self.in_latency.sort_unstable_by_key(|&(i, _)| i);
            self.running.sort_unstable_by_key(|&(i, _)| i);
        }

        let spans = self
            .ops
            .iter()
            .enumerate()
            .map(|(i, spec)| Span {
                op: OpId(i),
                tag: spec.tag,
                lane: spec.lane,
                queue: spec.queue,
                user_key: spec.user_key,
                work: spec.work,
                t_start: self.t_start[i],
                t_end: self.t_end[i],
            })
            .collect();
        Ok(Timeline::new(
            spans,
            self.tags,
            self.lanes,
            t,
            self.fluid_info,
            self.usage_starts,
            self.usage,
            self.stats,
        ))
    }

    /// Describe `running[k]` to the solver in `flows[k]`, reusing the
    /// slots' allocations.
    fn load_flows(&mut self) {
        for (k, &(i, _)) in self.running.iter().enumerate() {
            if k == self.flows.len() {
                self.flows.push(Flow {
                    weight: 0.0,
                    cap: None,
                    demands: Vec::new(),
                });
            }
            let (flow, spec) = (&mut self.flows[k], &self.ops[i]);
            flow.weight = spec.weight;
            flow.cap = spec.cap;
            flow.demands.clear();
            flow.demands
                .extend(spec.demands.iter().map(|&(FluidId(r), d)| (r, d)));
        }
    }

    /// Ops not yet admitted, in op-id order. O(n): error paths only.
    fn unadmitted(&self) -> Vec<OpId> {
        (0..self.ops.len())
            .filter(|&i| matches!(self.phase[i], Phase::Waiting | Phase::Ready))
            .map(OpId)
            .collect()
    }

    /// Admit ready ops in op-id order with conservative FIFO reservation:
    /// once an op cannot start, every token resource it needs becomes
    /// blocked for later ops, preserving first-come-first-served order
    /// and preventing gang-request starvation.
    fn admit(&mut self, t: f64) {
        self.ready.sort_unstable();
        self.stats.admit_visits += self.ready.len() as u64;
        self.blocked.fill(false);
        self.ready.retain(|&i| {
            let spec = &self.ops[i];
            let needs_blocked = spec.tokens.iter().any(|&(TokenId(r), _)| self.blocked[r]);
            let available = spec
                .tokens
                .iter()
                .all(|&(TokenId(r), c)| self.token_free[r] >= c);
            if needs_blocked || !available {
                for &(TokenId(r), _) in &spec.tokens {
                    self.blocked[r] = true;
                }
                return true;
            }
            for &(TokenId(r), c) in &spec.tokens {
                self.token_free[r] -= c;
            }
            self.t_start[i] = t;
            self.phase[i] = Phase::Admitted;
            if spec.latency > 0.0 {
                self.in_latency.push((i, spec.latency));
            } else if spec.work > 0.0 {
                self.running.push((i, 0.0));
            } else {
                // Zero-latency zero-work op: completes at admission.
                self.in_latency.push((i, 0.0));
            }
            false
        });
    }
}

/// The scanning event loop this engine replaced, kept as the reference
/// the property tests below compare against: per event it rebuilds the
/// running and in-latency sets by filtering `0..n` and admission walks
/// `0..n` again. Apart from the [`SimStats`] counts and the flattened
/// usage samples it is the old code line for line.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::fairshare::max_min_rates;

    /// Validate and run `b` on the scanning loop.
    pub(super) fn run_reference(b: SimBuilder) -> Result<Timeline, SimError> {
        b.validate()?;
        Engine::new(b).run()
    }

    /// Execution phase of one op.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Phase {
        /// Dependencies unmet.
        Waiting,
        /// Dependencies met, tokens not yet acquired.
        Ready,
        /// Admitted; serving the fixed latency. Field = remaining seconds.
        Latency(f64),
        /// Rate phase. Field = work done so far.
        Running(f64),
        /// Complete.
        Done,
    }

    struct Engine {
        fluids: Vec<FluidResource>,
        usage_starts: Vec<f64>,
        usage: Vec<f64>,
        stats: SimStats,
        token_totals: Vec<u32>,
        token_free: Vec<u32>,
        tags: Vec<String>,
        lanes: Vec<String>,
        ops: Vec<OpSpec>,
        phase: Vec<Phase>,
        unmet: Vec<usize>,
        dependents: Vec<Vec<usize>>,
        t_start: Vec<f64>,
        t_end: Vec<f64>,
    }

    impl Engine {
        fn new(b: SimBuilder) -> Self {
            let n = b.ops.len();
            let mut unmet = vec![0usize; n];
            let mut dependents = vec![Vec::new(); n];
            for (i, spec) in b.ops.iter().enumerate() {
                // Deduplicate deps so unmet counting is exact.
                let mut deps = spec.deps.clone();
                deps.sort_unstable();
                deps.dedup();
                unmet[i] = deps.len();
                for OpId(d) in deps {
                    dependents[d].push(i);
                }
            }
            let token_totals: Vec<u32> = b.tokens.iter().map(|t| t.total).collect();
            Engine {
                usage_starts: Vec::new(),
                usage: Vec::new(),
                stats: SimStats::default(),
                fluids: b.fluids,
                token_free: token_totals.clone(),
                token_totals,
                tags: b.tags,
                lanes: b.lanes,
                phase: vec![Phase::Waiting; n],
                unmet,
                dependents,
                t_start: vec![0.0; n],
                t_end: vec![0.0; n],
                ops: b.ops,
            }
        }

        fn run(mut self) -> Result<Timeline, SimError> {
            let n = self.ops.len();
            let mut done = 0usize;
            let mut t = 0.0_f64;

            // Initially ready: no unmet deps.
            for i in 0..n {
                if self.unmet[i] == 0 {
                    self.phase[i] = Phase::Ready;
                }
            }
            self.admit(t);

            while done < n {
                self.stats.events += 1;
                self.stats.active_visits += 2 * n as u64;
                // Active op indices split by phase.
                let running: Vec<usize> = (0..n)
                    .filter(|&i| matches!(self.phase[i], Phase::Running(_)))
                    .collect();
                let in_latency: Vec<usize> = (0..n)
                    .filter(|&i| matches!(self.phase[i], Phase::Latency(_)))
                    .collect();

                if running.is_empty() && in_latency.is_empty() {
                    // Nothing active but ops remain: cycle or token deadlock.
                    let waiting: Vec<OpId> = (0..n)
                        .filter(|&i| matches!(self.phase[i], Phase::Waiting | Phase::Ready))
                        .map(OpId)
                        .collect();
                    if waiting
                        .iter()
                        .all(|&OpId(i)| self.phase[i] == Phase::Waiting)
                    {
                        return Err(SimError::DependencyCycle {
                            stuck: waiting.len(),
                        });
                    }
                    return Err(SimError::Stalled {
                        time: t,
                        zero_rate: Vec::new(),
                        waiting,
                    });
                }

                // Rates for running ops via max-min fair sharing.
                let flows: Vec<Flow> = running
                    .iter()
                    .map(|&i| Flow {
                        weight: self.ops[i].weight,
                        cap: self.ops[i].cap,
                        demands: self.ops[i]
                            .demands
                            .iter()
                            .map(|&(FluidId(r), d)| (r, d))
                            .collect(),
                    })
                    .collect();
                let caps: Vec<f64> = self.fluids.iter().map(|f| f.capacity).collect();
                let rates = max_min_rates(&flows, &caps)?;
                self.stats.rate_solves += 1;

                // Record the piecewise-constant fluid usage of this segment.
                let mut usage = vec![0.0f64; self.fluids.len()];
                for (k, &i) in running.iter().enumerate() {
                    for &(FluidId(r), d) in &self.ops[i].demands {
                        usage[r] += rates[k] * d;
                    }
                }
                self.usage_starts.push(t);
                self.usage.extend(usage);

                // Earliest next event: latency expiry or work completion.
                let mut dt = f64::INFINITY;
                for (k, &i) in in_latency.iter().enumerate() {
                    let _ = k;
                    if let Phase::Latency(rem) = self.phase[i] {
                        dt = dt.min(rem);
                    }
                }
                for (k, &i) in running.iter().enumerate() {
                    if let Phase::Running(donework) = self.phase[i] {
                        let remaining = self.ops[i].work - donework;
                        if remaining <= 0.0 {
                            dt = 0.0;
                        } else if rates[k] > 0.0 {
                            dt = dt.min(remaining / rates[k]);
                        }
                    }
                }

                if !dt.is_finite() {
                    let zero_rate = running.iter().map(|&i| OpId(i)).collect();
                    let waiting = (0..n)
                        .filter(|&i| matches!(self.phase[i], Phase::Waiting | Phase::Ready))
                        .map(OpId)
                        .collect();
                    return Err(SimError::Stalled {
                        time: t,
                        zero_rate,
                        waiting,
                    });
                }

                t += dt;

                // Credit progress and collect completions/transitions.
                let mut finished: Vec<usize> = Vec::new();
                for &i in &in_latency {
                    if let Phase::Latency(rem) = self.phase[i] {
                        let rem = rem - dt;
                        if rem <= TIME_EPS {
                            if self.ops[i].work > 0.0 {
                                self.phase[i] = Phase::Running(0.0);
                            } else {
                                finished.push(i);
                            }
                        } else {
                            self.phase[i] = Phase::Latency(rem);
                        }
                    }
                }
                for (k, &i) in running.iter().enumerate() {
                    if let Phase::Running(donework) = self.phase[i] {
                        let new_done = donework + rates[k] * dt;
                        let work = self.ops[i].work;
                        // Complete when within time-epsilon of finishing.
                        if new_done >= work - rates[k].max(1.0) * TIME_EPS {
                            finished.push(i);
                        } else {
                            self.phase[i] = Phase::Running(new_done);
                        }
                    }
                }

                for i in finished {
                    self.phase[i] = Phase::Done;
                    self.t_end[i] = t;
                    done += 1;
                    for &(TokenId(r), count) in &self.ops[i].tokens {
                        self.token_free[r] += count;
                        debug_assert!(self.token_free[r] <= self.token_totals[r]);
                    }
                    // Wake dependents. Dedup was applied to the unmet counts,
                    // so decrement once per unique edge.
                    let deps = std::mem::take(&mut self.dependents[i]);
                    for j in deps {
                        self.unmet[j] -= 1;
                        if self.unmet[j] == 0 && self.phase[j] == Phase::Waiting {
                            self.phase[j] = Phase::Ready;
                        }
                    }
                }

                self.admit(t);
            }

            let spans = (0..n)
                .map(|i| Span {
                    op: OpId(i),
                    tag: self.ops[i].tag,
                    lane: self.ops[i].lane,
                    queue: self.ops[i].queue,
                    user_key: self.ops[i].user_key,
                    work: self.ops[i].work,
                    t_start: self.t_start[i],
                    t_end: self.t_end[i],
                })
                .collect();
            let fluid_info: Vec<(String, f64)> = self
                .fluids
                .iter()
                .map(|f| (f.name.clone(), f.capacity))
                .collect();
            Ok(Timeline::new(
                spans,
                self.tags,
                self.lanes,
                t,
                fluid_info,
                self.usage_starts,
                self.usage,
                self.stats,
            ))
        }

        /// Admit ready ops in op-id order with conservative FIFO reservation:
        /// once an op cannot start, every token resource it needs becomes
        /// blocked for later ops, preserving first-come-first-served order
        /// and preventing gang-request starvation.
        fn admit(&mut self, t: f64) {
            let n = self.ops.len();
            self.stats.admit_visits += n as u64;
            let mut blocked = vec![false; self.token_totals.len()];
            for i in 0..n {
                if self.phase[i] != Phase::Ready {
                    continue;
                }
                let needs_blocked = self.ops[i].tokens.iter().any(|&(TokenId(r), _)| blocked[r]);
                let available = self.ops[i]
                    .tokens
                    .iter()
                    .all(|&(TokenId(r), c)| self.token_free[r] >= c);
                if !needs_blocked && available {
                    for &(TokenId(r), c) in &self.ops[i].tokens {
                        self.token_free[r] -= c;
                    }
                    self.t_start[i] = t;
                    self.phase[i] = if self.ops[i].latency > 0.0 {
                        Phase::Latency(self.ops[i].latency)
                    } else if self.ops[i].work > 0.0 {
                        Phase::Running(0.0)
                    } else {
                        // Zero-latency zero-work op: completes at admission.
                        Phase::Latency(0.0)
                    };
                } else {
                    for &(TokenId(r), _) in &self.ops[i].tokens {
                        blocked[r] = true;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod oracle_props {
    //! The event-driven loop against the scanning [`oracle`]: same
    //! `Result`, bit for bit, over a generator wide enough to reach
    //! every branch of both loops and both run-time error paths.

    use super::oracle::run_reference;
    use super::*;
    use crate::op::Op;
    use hetsort_prng::{prop_assert_eq, run_cases, Rng};

    /// Sometimes zero, otherwise uniform in `[lo, hi)`.
    fn zero_or(rng: &mut Rng, zero_one_in: u64, lo: f64, hi: f64) -> f64 {
        if rng.u64_in(0, zero_one_in) == 0 {
            0.0
        } else {
            rng.f64_in(lo, hi)
        }
    }

    /// One random simulation, built from `rng` alone so that two calls
    /// with equal generators give equal builders. Beyond
    /// `tests/prop_engine.rs` it draws zero-work and zero-latency ops,
    /// duplicate deps, forward deps (which close a cycle whenever the
    /// later op already depends on the earlier one, e.g. through a
    /// shared queue), gang token requests over several resources, and
    /// zero-capacity fluids (the ops on them run at rate zero and, once
    /// nothing else is live, stall the run while holding the tokens
    /// that ready ops are queued for).
    fn arb_sim(rng: &mut Rng) -> SimBuilder {
        let mut sim = SimBuilder::new();
        let fluids: Vec<FluidId> = (0..3)
            .map(|r| {
                let capacity = zero_or(rng, 8, 1.0, 30.0);
                sim.fluid(format!("f{r}"), capacity)
            })
            .collect();
        let totals: Vec<u32> = (0..3).map(|_| rng.u32_in(1, 4)).collect();
        let tokens: Vec<TokenId> = totals
            .iter()
            .enumerate()
            .map(|(r, &total)| sim.tokens(format!("t{r}"), total))
            .collect();
        let queues: Vec<QueueId> = (0..3).map(|q| sim.queue(format!("q{q}"))).collect();
        let tag = sim.tag("w");
        let n = rng.usize_in(1, 31);
        for i in 0..n {
            let mut op = Op::new(tag, zero_or(rng, 4, 0.0, 50.0))
                .cap(rng.f64_in(0.5, 20.0))
                .weight(rng.f64_in(0.5, 3.0))
                .latency(zero_or(rng, 2, 0.0, 0.5));
            for _ in 0..rng.usize_in(0, 3) {
                op = op.demand(*rng.pick(&fluids), rng.f64_in(0.1, 2.0));
            }
            // Gang request: up to all of each resource, sometimes asked
            // for in two instalments.
            let first = rng.usize_in(0, tokens.len());
            for g in 0..rng.usize_in(0, 3) {
                let r = (first + g) % tokens.len();
                let count = rng.u32_in(1, totals[r] + 1);
                let again = rng.u32_in(0, count);
                if again > 0 {
                    op = op.tokens(tokens[r], again);
                }
                op = op.tokens(tokens[r], count - again);
            }
            if rng.bool() {
                op = op.queue(*rng.pick(&queues));
            }
            if i > 0 {
                for _ in 0..rng.usize_in(0, 4) {
                    let dep = OpId(rng.usize_in(0, i));
                    op = op.dep(dep);
                    if rng.u64_in(0, 4) == 0 {
                        op = op.dep(dep);
                    }
                }
            }
            if i + 1 < n && rng.u64_in(0, 40) == 0 {
                op = op.dep(OpId(rng.usize_in(i + 1, n)));
            }
            sim.op(op);
        }
        sim
    }

    #[test]
    fn event_loop_matches_the_scanning_oracle_bit_for_bit() {
        let (mut total, mut cycles, mut stalls, mut queued_stalls) = (0, 0, 0, 0);
        run_cases("event_loop_matches_oracle", 2_500, |rng| {
            let new = arb_sim(&mut rng.clone()).run();
            let old = run_reference(arb_sim(rng));
            total += 1;
            match (new, old) {
                (Ok(new), Ok(old)) => {
                    prop_assert_eq!(new.makespan().to_bits(), old.makespan().to_bits());
                    prop_assert_eq!(new.spans().len(), old.spans().len());
                    for (a, b) in new.spans().iter().zip(old.spans()) {
                        prop_assert_eq!(a.op, b.op);
                        prop_assert_eq!(a.t_start.to_bits(), b.t_start.to_bits());
                        prop_assert_eq!(a.t_end.to_bits(), b.t_end.to_bits());
                    }
                    for r in 0..new.fluids().len() {
                        prop_assert_eq!(new.utilization(r).to_bits(), old.utilization(r).to_bits());
                        prop_assert_eq!(
                            new.peak_utilization(r).to_bits(),
                            old.peak_utilization(r).to_bits()
                        );
                    }
                    // Same events, same solves; only the visits differ.
                    prop_assert_eq!(new.stats().events, old.stats().events);
                    prop_assert_eq!(new.stats().rate_solves, old.stats().rate_solves);
                }
                (Err(new), Err(old)) => {
                    prop_assert_eq!(new, old);
                    match new {
                        SimError::DependencyCycle { .. } => cycles += 1,
                        SimError::Stalled { waiting, .. } => {
                            stalls += 1;
                            queued_stalls += usize::from(!waiting.is_empty());
                        }
                        _ => {}
                    }
                }
                (new, old) => {
                    return Err(format!(
                        "outcomes differ: new {:?}, oracle {:?}",
                        new.map(|tl| tl.makespan()),
                        old.map(|tl| tl.makespan())
                    ));
                }
            }
            Ok(())
        });
        // The generator must keep reaching the error paths it was
        // widened for (skipped when PTEST_CASES narrows the run).
        if total >= 2_000 {
            assert!(cycles >= 100, "only {cycles} dependency cycles in {total}");
            assert!(stalls >= 300, "only {stalls} stalls in {total}");
            assert!(
                queued_stalls >= 300,
                "only {queued_stalls} stalls with ops queued behind held tokens"
            );
        }
    }

    /// A chain of `n` ops, every third one on a one-token resource: at
    /// most two ops are ever live.
    fn chain(n: usize) -> SimBuilder {
        let mut sim = SimBuilder::new();
        let link = sim.fluid("link", 10.0);
        let slot = sim.tokens("slot", 1);
        let q = sim.queue("q");
        let tag = sim.tag("x");
        for i in 0..n {
            let mut op = Op::new(tag, 5.0).demand(link, 1.0).latency(0.01).queue(q);
            if i % 3 == 0 {
                op = op.tokens(slot, 1);
            }
            sim.op(op);
        }
        sim
    }

    #[test]
    fn visits_per_event_do_not_grow_with_the_dag() {
        let per_event = |s: SimStats| (s.active_visits + s.admit_visits) as f64 / s.events as f64;
        let small = chain(100).run().unwrap().stats();
        let large = chain(800).run().unwrap().stats();
        assert!(per_event(small) <= 3.0, "{small:?}");
        assert!(per_event(large) <= 3.0, "{large:?}");
        assert!((per_event(large) / per_event(small) - 1.0).abs() < 0.1);
        // The scanning loop on the same dag: three visits per op per event.
        let scanned = run_reference(chain(800)).unwrap().stats();
        assert_eq!(scanned.events, large.events);
        assert!(per_event(scanned) >= 3.0 * 800.0, "{scanned:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    #[test]
    fn empty_sim_completes_instantly() {
        let sim = SimBuilder::new();
        let tl = sim.run().unwrap();
        assert_eq!(tl.makespan(), 0.0);
        assert!(tl.spans().is_empty());
    }

    #[test]
    fn single_op_duration_is_work_over_cap() {
        let mut sim = SimBuilder::new();
        let tag = sim.tag("x");
        let op = sim.op(Op::new(tag, 100.0).cap(25.0));
        let tl = sim.run().unwrap();
        let s = tl.span(op);
        assert!((s.duration() - 4.0).abs() < 1e-9, "{}", s.duration());
        assert!((tl.makespan() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn latency_precedes_work() {
        let mut sim = SimBuilder::new();
        let tag = sim.tag("x");
        let op = sim.op(Op::new(tag, 10.0).cap(10.0).latency(2.0));
        let tl = sim.run().unwrap();
        assert!((tl.span(op).duration() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn pure_latency_op() {
        let mut sim = SimBuilder::new();
        let tag = sim.tag("sync");
        let op = sim.op(Op::fixed(tag, 0.25));
        let tl = sim.run().unwrap();
        assert!((tl.span(op).duration() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn zero_work_zero_latency_op_is_instant() {
        let mut sim = SimBuilder::new();
        let tag = sim.tag("noop");
        let a = sim.op(Op::fixed(tag, 1.0));
        let b = sim.op(Op::new(tag, 0.0).dep(a));
        let tl = sim.run().unwrap();
        assert!((tl.span(b).t_start - 1.0).abs() < 1e-9);
        assert!((tl.span(b).t_end - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dependency_serializes() {
        let mut sim = SimBuilder::new();
        let tag = sim.tag("x");
        let a = sim.op(Op::new(tag, 10.0).cap(10.0));
        let b = sim.op(Op::new(tag, 10.0).cap(10.0).dep(a));
        let tl = sim.run().unwrap();
        assert!((tl.span(a).t_end - 1.0).abs() < 1e-9);
        assert!((tl.span(b).t_start - 1.0).abs() < 1e-9);
        assert!((tl.makespan() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn independent_ops_on_shared_fluid_halve_rate() {
        let mut sim = SimBuilder::new();
        let link = sim.fluid("link", 10.0);
        let tag = sim.tag("x");
        let a = sim.op(Op::new(tag, 10.0).demand(link, 1.0));
        let b = sim.op(Op::new(tag, 10.0).demand(link, 1.0));
        let tl = sim.run().unwrap();
        // Each gets 5 units/s → 2 s; both run concurrently.
        assert!((tl.span(a).duration() - 2.0).abs() < 1e-9);
        assert!((tl.span(b).duration() - 2.0).abs() < 1e-9);
        assert!((tl.makespan() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn staggered_ops_speed_up_after_first_finishes() {
        // a: 10 work, b: 30 work on a 10-cap link. Phase 1: both at 5 →
        // a done at t=2 (b has 10 done). Phase 2: b alone at 10 →
        // remaining 20 in 2 s. b ends at t=4.
        let mut sim = SimBuilder::new();
        let link = sim.fluid("link", 10.0);
        let tag = sim.tag("x");
        let a = sim.op(Op::new(tag, 10.0).demand(link, 1.0));
        let b = sim.op(Op::new(tag, 30.0).demand(link, 1.0));
        let tl = sim.run().unwrap();
        assert!((tl.span(a).t_end - 2.0).abs() < 1e-9);
        assert!(
            (tl.span(b).t_end - 4.0).abs() < 1e-9,
            "{}",
            tl.span(b).t_end
        );
    }

    #[test]
    fn tokens_serialize_exclusive_ops() {
        let mut sim = SimBuilder::new();
        let gpu = sim.tokens("gpu", 1);
        let tag = sim.tag("sort");
        let a = sim.op(Op::new(tag, 10.0).cap(10.0).tokens(gpu, 1));
        let b = sim.op(Op::new(tag, 10.0).cap(10.0).tokens(gpu, 1));
        let tl = sim.run().unwrap();
        assert!((tl.span(a).t_end - 1.0).abs() < 1e-9);
        assert!((tl.span(b).t_start - 1.0).abs() < 1e-9);
        assert!((tl.makespan() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn token_admission_is_fifo_and_gang_safe() {
        // Op a holds 1 of 2 tokens; op b needs 2 (must wait for a);
        // op c needs 1 and was submitted after b, so it must NOT jump
        // ahead of b (conservative FIFO blocking).
        let mut sim = SimBuilder::new();
        let pool = sim.tokens("pool", 2);
        let tag = sim.tag("x");
        let a = sim.op(Op::new(tag, 10.0).cap(10.0).tokens(pool, 1));
        let b = sim.op(Op::new(tag, 10.0).cap(10.0).tokens(pool, 2));
        let c = sim.op(Op::new(tag, 10.0).cap(10.0).tokens(pool, 1));
        let tl = sim.run().unwrap();
        assert!((tl.span(a).t_start - 0.0).abs() < 1e-9);
        // b starts when a releases (t=1); c starts when b releases (t=2).
        assert!((tl.span(b).t_start - 1.0).abs() < 1e-9);
        assert!(tl.span(c).t_start >= tl.span(b).t_end - 1e-9);
    }

    #[test]
    fn queue_enforces_fifo() {
        let mut sim = SimBuilder::new();
        let q = sim.queue("stream0");
        let tag = sim.tag("x");
        let a = sim.op(Op::new(tag, 10.0).cap(10.0).queue(q));
        let b = sim.op(Op::new(tag, 10.0).cap(10.0).queue(q));
        let tl = sim.run().unwrap();
        assert!(tl.span(b).t_start >= tl.span(a).t_end - 1e-9);
    }

    #[test]
    fn separate_queues_overlap() {
        let mut sim = SimBuilder::new();
        let q0 = sim.queue("s0");
        let q1 = sim.queue("s1");
        let tag = sim.tag("x");
        let a = sim.op(Op::new(tag, 10.0).cap(10.0).queue(q0));
        let b = sim.op(Op::new(tag, 10.0).cap(10.0).queue(q1));
        let tl = sim.run().unwrap();
        assert!((tl.span(a).t_start).abs() < 1e-9);
        assert!((tl.span(b).t_start).abs() < 1e-9);
        assert!((tl.makespan() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn diamond_dag_joins_correctly() {
        let mut sim = SimBuilder::new();
        let tag = sim.tag("x");
        let a = sim.op(Op::new(tag, 10.0).cap(10.0));
        let b = sim.op(Op::new(tag, 20.0).cap(10.0).dep(a));
        let c = sim.op(Op::new(tag, 10.0).cap(10.0).dep(a));
        let d = sim.op(Op::new(tag, 10.0).cap(10.0).dep(b).dep(c));
        let tl = sim.run().unwrap();
        assert!((tl.span(d).t_start - 3.0).abs() < 1e-9); // max(1+2, 1+1)
        assert!((tl.makespan() - 4.0).abs() < 1e-9);
        let _ = (b, c);
    }

    #[test]
    fn duplicate_deps_counted_once() {
        let mut sim = SimBuilder::new();
        let tag = sim.tag("x");
        let a = sim.op(Op::new(tag, 10.0).cap(10.0));
        let b = sim.op(Op::new(tag, 10.0).cap(10.0).dep(a).dep(a).dep(a));
        let tl = sim.run().unwrap();
        assert!((tl.span(b).t_start - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_token_requests_are_summed() {
        // 2 + 2 of a pool of 3: each request fits, the op never can.
        let mut sim = SimBuilder::new();
        let pool = sim.tokens("pool", 3);
        let tag = sim.tag("x");
        let op = sim.op(Op::new(tag, 1.0).cap(1.0).tokens(pool, 2).tokens(pool, 2));
        assert_eq!(
            sim.run().unwrap_err(),
            SimError::ImpossibleTokenRequest {
                op,
                resource: "pool".into(),
                requested: 4,
                available: 3,
            }
        );
        // 1 + 1 of a pool of 2 fits, but not beside a holder of one:
        // `b` is admitted when `a` releases, not into a negative pool.
        let mut sim = SimBuilder::new();
        let pool = sim.tokens("pool", 2);
        let tag = sim.tag("x");
        sim.op(Op::new(tag, 10.0).cap(10.0).tokens(pool, 1));
        let b = sim.op(Op::new(tag, 10.0).cap(10.0).tokens(pool, 1).tokens(pool, 1));
        let tl = sim.run().unwrap();
        assert!((tl.span(b).t_start - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_is_reported() {
        let mut sim = SimBuilder::new();
        let tag = sim.tag("x");
        // Both ops reference the other (forward reference allowed by
        // construction order: op 0 deps on op 1).
        let _a = sim.op(Op::new(tag, 1.0).cap(1.0).dep(OpId(1)));
        let _b = sim.op(Op::new(tag, 1.0).cap(1.0).dep(OpId(0)));
        match sim.run() {
            Err(SimError::DependencyCycle { stuck }) => assert_eq!(stuck, 2),
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_rate_rejected_at_validation() {
        let mut sim = SimBuilder::new();
        let tag = sim.tag("x");
        sim.op(Op::new(tag, 1.0)); // no cap, no demand
        assert!(matches!(sim.run(), Err(SimError::UnboundedRate(_))));
    }

    #[test]
    fn impossible_token_request_rejected() {
        let mut sim = SimBuilder::new();
        let pool = sim.tokens("pool", 2);
        let tag = sim.tag("x");
        sim.op(Op::new(tag, 1.0).cap(1.0).tokens(pool, 3));
        assert!(matches!(
            sim.run(),
            Err(SimError::ImpossibleTokenRequest { .. })
        ));
    }

    #[test]
    fn tag_interning_reuses_ids() {
        let mut sim = SimBuilder::new();
        let a = sim.tag("HtoD");
        let b = sim.tag("DtoH");
        let c = sim.tag("HtoD");
        assert_eq!(a, c);
        assert_ne!(a, b);
    }

    #[test]
    fn cap_and_fluid_interact() {
        // Two ops with caps of 3 share a fluid of capacity 4:
        // max-min gives 2 each (fluid binds first).
        let mut sim = SimBuilder::new();
        let link = sim.fluid("link", 4.0);
        let tag = sim.tag("x");
        let a = sim.op(Op::new(tag, 6.0).cap(3.0).demand(link, 1.0));
        let b = sim.op(Op::new(tag, 6.0).cap(3.0).demand(link, 1.0));
        let tl = sim.run().unwrap();
        assert!((tl.span(a).duration() - 3.0).abs() < 1e-9);
        assert!((tl.span(b).duration() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn determinism_same_build_same_timeline() {
        let build = || {
            let mut sim = SimBuilder::new();
            let link = sim.fluid("link", 7.0);
            let pool = sim.tokens("pool", 2);
            let q = sim.queue("q");
            let tag = sim.tag("x");
            for i in 0..20 {
                let mut op = Op::new(tag, 5.0 + i as f64).demand(link, 1.0);
                if i % 3 == 0 {
                    op = op.tokens(pool, 1);
                }
                if i % 4 == 0 {
                    op = op.queue(q);
                }
                sim.op(op);
            }
            sim.run().unwrap()
        };
        let t1 = build();
        let t2 = build();
        assert_eq!(t1.makespan(), t2.makespan());
        for (a, b) in t1.spans().iter().zip(t2.spans()) {
            assert_eq!(a.t_start, b.t_start);
            assert_eq!(a.t_end, b.t_end);
        }
    }
}
