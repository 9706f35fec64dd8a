//! # hetsort-analyze — static plan verifier + happens-before race detector
//!
//! The executors in `hetsort-core` interpret a static [`Plan`] op-dag over
//! streams, events, and staging buffers. A schedule bug — a missing
//! wait, an aliased staging buffer, an over-budget allocation — would
//! surface as silent data corruption or a hang at run time. This crate
//! rejects such schedules *before* execution:
//!
//! 1. **Static linter** ([`static_lint`]): plan-level checks — peak
//!    device residency per GPU vs capacity, staging chunks vs the
//!    pinned buffer, merge-tree well-formedness, the PIPEMERGE
//!    pair-count heuristic (`⌊(n_b−1)/2^n_GPU⌋`, §III-D3).
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
//!    interleaving of a lowered trace ([`trace_model`]), of the MT
//!    coordinator's checkpoint/re-plan recovery ([`replan_model`]),
//!    and (via `hetsort-serve`) of the admission state machine. The
//!    HB checker runs on every explored linearization, plus three
//!    interleaving-only invariants: reachable deadlock, budget
//!    safety, and replan cover.
//!
//! Every trace comes from one producer, `hetsort_core::optrace`:
//! [`lower_plan`] derives the static trace from a plan's nodes, and the
//! executors (with `record_trace` set) hand the nodes they actually
//! ran — recovery detours included — to the same lowering.
//!
//! The analyzer's recall is mutation-tested: [`Mutant`] seeds the
//! trace/plan defect classes, [`ExploreMutant`] the model-level ones,
//! and the suites in `tests/` fail if any goes unreported with the
//! right [`FindingClass`].

// Library code must surface failures as typed errors, never panic
// paths; tests are free to unwrap. No unsafe anywhere in this crate.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Truncating `as` casts hide overflow bugs at paper-scale inputs;
// insist on checked conversions.
#![warn(clippy::cast_possible_truncation)]

pub mod explore;
pub mod finding;
pub mod hb;
pub mod mutate;
pub mod replan_model;
pub mod residency;
pub mod static_lint;
pub mod trace_model;

pub use explore::{explore, ExploreConfig, ExploreReport, SchedModel};
pub use finding::{AnalysisReport, Finding, FindingClass};
pub use mutate::{ExploreMutant, Mutant};
pub use replan_model::{ReplanDefect, ReplanModel};
pub use residency::Residency;
pub use trace_model::{explore_plan, explore_plan_trace, TraceModel};

use hetsort_core::optrace::{lower_dag, lower_plan};
use hetsort_core::plan::Plan;
use hetsort_core::PlanDag;
use hetsort_sim::OpTrace;

/// Analyze a plan: static lint plus happens-before over its lowered
/// static trace.
pub fn analyze_plan(plan: &Plan) -> AnalysisReport {
    analyze_plan_with_trace(plan, &lower_plan(plan))
}

/// Analyze an op dag: structural validation (every named
/// [`PlanDag::validate`] rule becomes a [`FindingClass::Malformed`]
/// finding instead of an error), then the full plan analysis — static
/// lint, residency re-check, and happens-before over the trace lowered
/// from the *dag's* edges. A dag whose dependency edges were mutated
/// loses exactly those sync edges in the lowered trace, so the HB
/// checker reports the race even when the structural validator is
/// blind to it.
pub fn analyze_dag(dag: &PlanDag) -> AnalysisReport {
    let mut findings = Vec::new();
    if let Err(e) = dag.validate() {
        findings.push(Finding {
            class: FindingClass::Malformed,
            code: "dag-validate",
            message: e.to_string(),
            ops: Vec::new(),
        });
    }
    let mut report = analyze_plan_with_trace(&dag.plan, &lower_dag(dag));
    findings.append(&mut report.findings);
    AnalysisReport { findings }
}

/// Analyze a plan against a specific trace — the lowered static trace,
/// a mutated one, or the executed trace an executor recorded (which
/// re-checks recovery detours the static schedule never had).
pub fn analyze_plan_with_trace(plan: &Plan, trace: &OpTrace) -> AnalysisReport {
    let mut findings = static_lint::lint_plan(plan);
    let caps: Vec<u64> = plan
        .config
        .platform
        .gpus
        .iter()
        .map(|g| g.global_mem_bytes)
        .collect();
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
