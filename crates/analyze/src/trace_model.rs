//! [`SchedModel`] over a structured [`OpTrace`]: explore every
//! linearization of a trace's thread programs.
//!
//! Each trace thread (stream or host) becomes a model thread whose
//! program is its records in submission order. Blocking semantics are
//! exactly the event discipline the executors rely on: a
//! `StreamWaitEvent` is enabled only once its `EventRecord` has
//! executed, so an interleaving that cannot finish (a wait whose
//! record is unreachable, i.e. a wait cycle) manifests as the
//! engine's *reachable deadlock* — the enabled set goes empty with
//! records outstanding.
//!
//! On every completed interleaving the vector-clock happens-before
//! checker ([`crate::hb`]) runs over the executed linearization, so
//! races, event-discipline violations, capacity overshoot, and the
//! buffer-lifetime lints are checked in *every* reachable order, not
//! just the submission order a recorded trace happens to have.
//!
//! `DeviceSync` is modeled as an always-enabled host action whose
//! footprint conflicts with everything. Lowered plan traces only use
//! it where every stream op is already event-ordered before it, so
//! its linearization position is fixed; hand-built traces that lean
//! on a mid-trace sync for ordering will (correctly) see the orders
//! where other threads' work slides past the sync.

use std::collections::BTreeSet;

use hetsort_core::optrace::lower_plan;
use hetsort_core::plan::Plan;
use hetsort_sim::{OpTrace, TraceKind};

use crate::explore::{explore, ExploreConfig, ExploreReport, Footprint, Res, SchedModel};
use crate::finding::Finding;
use crate::hb;

/// Exhaustive-interleaving model of one [`OpTrace`].
pub struct TraceModel {
    trace: OpTrace,
    caps: Option<Vec<u64>>,
    label: String,
    /// Record indices per thread, in submission order.
    queues: Vec<Vec<usize>>,
    /// Next queue position per thread.
    pc: Vec<usize>,
    /// Events whose `EventRecord` has executed.
    recorded: BTreeSet<usize>,
    /// Record indices in execution order.
    executed: Vec<usize>,
}

impl TraceModel {
    /// Model `trace`, optionally checking device capacities (bytes per
    /// GPU, as for [`hb::check_trace`]).
    pub fn new(trace: OpTrace, caps: Option<Vec<u64>>, label: impl Into<String>) -> TraceModel {
        let mut queues = vec![Vec::new(); trace.n_threads];
        for (i, rec) in trace.records.iter().enumerate() {
            if rec.thread < queues.len() {
                queues[rec.thread].push(i);
            }
        }
        let pc = vec![0; queues.len()];
        TraceModel {
            caps,
            label: label.into(),
            pc,
            queues,
            recorded: BTreeSet::new(),
            executed: Vec::new(),
            trace,
        }
    }

    /// The record a thread would execute next.
    fn pending(&self, thread: usize) -> Option<usize> {
        self.queues[thread].get(self.pc[thread]).copied()
    }

    /// The executed prefix as a trace in execution order.
    fn linearized(&self) -> OpTrace {
        let mut lin = OpTrace::new(self.trace.n_threads);
        for &i in &self.executed {
            lin.records.push(self.trace.records[i].clone());
        }
        lin
    }
}

impl SchedModel for TraceModel {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn n_threads(&self) -> usize {
        self.queues.len()
    }

    fn reset(&mut self) {
        self.pc = vec![0; self.queues.len()];
        self.recorded.clear();
        self.executed.clear();
    }

    fn enabled(&self, thread: usize) -> bool {
        match self.pending(thread) {
            None => false,
            Some(i) => match &self.trace.records[i].kind {
                TraceKind::StreamWaitEvent { event } => self.recorded.contains(event),
                _ => true,
            },
        }
    }

    fn is_done(&self) -> bool {
        self.pc.iter().zip(&self.queues).all(|(&p, q)| p == q.len())
    }

    fn next_footprint(&self, thread: usize) -> Footprint {
        let Some(i) = self.pending(thread) else {
            return Footprint::default();
        };
        match &self.trace.records[i].kind {
            TraceKind::Op { accesses } => Footprint(
                accesses
                    .iter()
                    .map(|a| crate::explore::ResAccess {
                        res: Res::Buf(a.buf),
                        write: a.write,
                    })
                    .collect(),
            ),
            TraceKind::Alloc { buf, .. } | TraceKind::Free { buf } => {
                Footprint::write(Res::Buf(*buf))
            }
            TraceKind::EventRecord { event } => Footprint::write(Res::Event(*event)),
            TraceKind::StreamWaitEvent { event } => Footprint::read(Res::Event(*event)),
            TraceKind::DeviceSync => Footprint::global(),
        }
    }

    fn step(&mut self, thread: usize) {
        if let Some(i) = self.pending(thread) {
            if let TraceKind::EventRecord { event } = &self.trace.records[i].kind {
                self.recorded.insert(*event);
            }
            self.executed.push(i);
            self.pc[thread] += 1;
        }
    }

    fn check_final(&self) -> Vec<Finding> {
        hb::check_trace(&self.linearized(), self.caps.as_deref())
    }

    fn blocked_describe(&self) -> String {
        let stuck: Vec<String> = (0..self.n_threads())
            .filter_map(|t| {
                let i = self.pending(t)?;
                match &self.trace.records[i].kind {
                    TraceKind::StreamWaitEvent { event } if !self.recorded.contains(event) => {
                        Some(format!(
                            "thread {t} blocked on ev{event} at '{}'",
                            self.trace.records[i].label
                        ))
                    }
                    _ => None,
                }
            })
            .collect();
        if stuck.is_empty() {
            "no thread reports a wait (model-internal block)".to_string()
        } else {
            stuck.join("; ")
        }
    }
}

/// Explore every interleaving of a plan's lowered static trace,
/// checking happens-before (races, event discipline, capacity,
/// buffer lifetimes) on each.
pub fn explore_plan(plan: &Plan, cfg: &ExploreConfig) -> ExploreReport {
    explore_plan_trace(plan, lower_plan(plan), cfg)
}

/// Explore a specific trace under a plan's capacity model (the
/// lowered trace, a mutated one, or a recorded execution).
pub fn explore_plan_trace(plan: &Plan, trace: OpTrace, cfg: &ExploreConfig) -> ExploreReport {
    let caps: Vec<u64> = plan
        .config
        .platform
        .gpus
        .iter()
        .map(|g| g.global_mem_bytes)
        .collect();
    let label = format!(
        "{} n={} gpus={} streams={}",
        plan.config.approach.name(),
        plan.n,
        plan.config.platform.n_gpus(),
        plan.total_streams,
    );
    let mut model = TraceModel::new(trace, Some(caps), label);
    explore(&mut model, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsort_core::{Approach, HetSortConfig};
    use hetsort_vgpu::platform1;

    fn small_plan(approach: Approach, n: usize) -> Plan {
        let cfg = HetSortConfig::paper_defaults(platform1(), approach)
            .with_batch_elems(1000)
            .with_pinned_elems(500);
        Plan::build(cfg, n).unwrap()
    }

    #[test]
    fn single_batch_plan_explores_clean() {
        let rep = explore_plan(
            &small_plan(Approach::BLine, 1000),
            &ExploreConfig::default(),
        );
        assert!(rep.is_clean(), "{:?}", rep.findings);
        assert!(!rep.truncated);
        assert!(rep.traces >= 1);
    }

    #[test]
    fn tiny_budget_reports_truncation() {
        let rep = explore_plan(
            &small_plan(Approach::PipeData, 2000),
            &ExploreConfig::with_max_ops(5),
        );
        assert!(rep.truncated);
        assert!(rep.summary().contains("TRUNCATED"));
    }
}
