//! # hetsort-analyze — static plan verifier + happens-before race detector
//!
//! The executors in `hetsort-core` interpret a static [`Plan`] op-dag over
//! streams, events, and staging buffers. A schedule bug — a missing
//! wait, an aliased staging buffer, an over-budget allocation — would
//! surface as silent data corruption or a hang at run time. This crate
//! rejects such schedules *before* execution:
//!
//! 1. **Static linter** ([`static_lint`]): plan-level checks — the core
//!    validator's named rules (merge-tree well-formedness among them),
//!    peak device residency per GPU vs capacity, staging chunks vs the
//!    pinned buffer, the PIPEMERGE pair-count heuristic
//!    (`⌊(n_b−1)/2^n_GPU⌋`, §III-D3).
//! 2. **Happens-before checker** ([`hb`]): vector-clock race detection
//!    over a structured [`OpTrace`] — stream program order plus
//!    `event_record`/`stream_wait_event`/`device_synchronize` edges —
//!    reporting any conflicting access pair the schedule leaves
//!    unordered, plus event-discipline violations (waits on unrecorded
//!    or not-yet-recorded events, i.e. wait-graph cycles), buffer
//!    lifetimes (use-after-free, double-free, leaked allocations),
//!    and (with capacities) device over-subscription.
//! 3. **Schedule-space explorer** ([`mod@explore`]): stateless model
//!    checking with persistent-set DPOR + sleep sets over
//!    `enabled()`/`step()` scheduler models — every reachable
//!    interleaving of the shipped dag engine recovering from device
//!    losses ([`engine_model`]) and of `hetsort-serve`'s admission
//!    controller under pool churn ([`admission_model`]), checked for
//!    three interleaving-only invariants: reachable deadlock, budget
//!    safety, and replan cover. A lowered trace needs no exploration:
//!    it records each event id once, so the HB checker's verdict on
//!    submission order holds for every linearization.
//!
//! The plan memory math the linter budgets with — [`Residency`] and the
//! host-memory model — lives beside `Plan` in `hetsort_core::residency`;
//! [`Residency`] is re-exported here.
//!
//! Every trace comes from one producer, `hetsort_core::optrace`:
//! [`lower_plan`] derives the static trace from a plan's nodes, and the
//! executors (with `record_trace` set) hand the nodes they actually
//! ran — recovery detours included — to the same lowering.
//!
//! The analyzer's recall is mutation-tested: [`Mutant`] is the one
//! catalogue of seeded dag, trace and engine defects, each with the
//! [`Kill`] contracted to catch it, and `tests/mutation.rs` fails if
//! any survives its named check.

// Library code must surface failures as typed errors, never panic
// paths; tests are free to unwrap. No unsafe anywhere in this crate.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Truncating `as` casts hide overflow bugs at paper-scale inputs;
// insist on checked conversions.
#![warn(clippy::cast_possible_truncation)]

pub mod admission_model;
pub mod engine_model;
pub mod explore;
pub mod finding;
pub mod hb;
pub mod mutate;
pub mod static_lint;

pub use admission_model::AdmissionModel;
pub use engine_model::EngineModel;
pub use explore::{explore, ExploreConfig, ExploreReport, SchedModel};
pub use finding::{AnalysisReport, Finding, FindingClass};
pub use hetsort_core::Residency;
pub use mutate::{EngineKill, Kill, Mutant, Site};

use hetsort_core::optrace::{lower_dag, lower_plan, OpTrace};
use hetsort_core::plan::Plan;
use hetsort_core::PlanDag;

/// Analyze a plan: static lint plus happens-before over its lowered
/// static trace.
pub fn analyze_plan(plan: &Plan) -> AnalysisReport {
    analyze_plan_with_trace(plan, &lower_plan(plan))
}

/// Analyze an op dag: the static lint over the *dag's* nodes (a
/// failing [`PlanDag::validate`] rule becomes a
/// [`FindingClass::Malformed`] finding instead of an error), then, if
/// the dag validates, happens-before over the trace lowered from its
/// edges. A dag whose dependency edges were mutated loses exactly those
/// sync edges in the lowered trace, so the HB checker reports the race
/// even when the structural validator is blind to it. A rejected dag is
/// not lowered: its edges may name nodes it does not have.
pub fn analyze_dag(dag: &PlanDag) -> AnalysisReport {
    let valid = dag.validate();
    let lowers = valid.is_ok();
    let findings = static_lint::lint(&dag.plan, &dag.nodes, valid);
    if !lowers {
        return AnalysisReport { findings };
    }
    with_races(findings, &dag.plan, &lower_dag(dag))
}

/// Analyze a plan against a specific trace — the lowered static trace,
/// a mutated one, or the executed trace an executor recorded (which
/// re-checks recovery detours the static schedule never had).
pub fn analyze_plan_with_trace(plan: &Plan, trace: &OpTrace) -> AnalysisReport {
    with_races(static_lint::lint_plan(plan), plan, trace)
}

/// `findings` plus the happens-before findings over `trace`, against
/// the capacities of `plan`'s GPUs.
fn with_races(mut findings: Vec<Finding>, plan: &Plan, trace: &OpTrace) -> AnalysisReport {
    let gpus = &plan.config.platform.gpus;
    let caps: Vec<u64> = gpus.iter().map(|g| g.global_mem_bytes).collect();
    findings.extend(hb::check_trace(trace, Some(&caps)));
    AnalysisReport { findings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsort_core::{Approach, HetSortConfig};
    use hetsort_vgpu::platform1;

    #[test]
    fn shipped_plan_analyzes_clean() {
        let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
            .with_batch_elems(1000)
            .with_pinned_elems(250);
        let plan = Plan::build(cfg, 6000).unwrap();
        let report = analyze_plan(&plan);
        assert!(report.is_clean(), "{report}");
    }
}
