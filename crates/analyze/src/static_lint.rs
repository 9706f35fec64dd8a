//! The static plan linter: everything checkable from a [`Plan`] alone,
//! before a single byte moves.
//!
//! * structural invariants (delegates to [`Plan::check_invariants`]):
//!   backward deps, chunk tiling, merge-tree well-formedness — every
//!   batch produced once and consumed exactly once;
//! * the PIPEMERGE pair-count heuristic: `⌊(n_b−1)/2^n_GPU⌋` pipelined
//!   pair merges (§III-D3) when the paper strategy is selected;
//! * peak device residency per GPU against its capacity — each stream
//!   keeps one `2·elem_bytes·b_s` buffer (`DEVICE_MEM_FACTOR`) resident
//!   for the whole run, so over-subscription is a statically guaranteed
//!   OOM;
//! * staging-chunk sizes against the pinned buffer `p_s` — a chunk
//!   larger than the buffer it is staged through cannot be copied.

use std::collections::BTreeMap;

use hetsort_core::config::{Approach, PairStrategy};
use hetsort_core::dag::DagOp;
use hetsort_core::optrace::node_label;
use hetsort_core::plan::Plan;

use crate::finding::{Finding, FindingClass};
use crate::residency::Residency;

/// Lint a plan; returns all findings (empty = clean).
pub fn lint_plan(plan: &Plan) -> Vec<Finding> {
    let mut findings = Vec::new();
    let cfg = &plan.config;

    if let Err(e) = plan.check_invariants() {
        findings.push(Finding {
            class: FindingClass::Malformed,
            code: "invariant",
            message: format!("plan invariant violated: {e}"),
            ops: Vec::new(),
        });
    }

    if cfg.approach == Approach::PipeMerge && cfg.pair_strategy == PairStrategy::PaperHeuristic {
        let expected = cfg.pipelined_pair_merges(plan.nb());
        if plan.pairs.len() != expected {
            findings.push(Finding {
                class: FindingClass::Malformed,
                code: "pair-count",
                message: format!(
                    "PIPEMERGE schedules {} pipelined pair merge(s) but the paper \
                     heuristic gives ⌊(n_b−1)/2^n_GPU⌋ = {expected} for n_b = {} on \
                     {} GPU(s)",
                    plan.pairs.len(),
                    plan.nb(),
                    cfg.platform.n_gpus()
                ),
                ops: Vec::new(),
            });
        }
    }

    // Peak device residency per GPU ([`Residency`] — the same math the
    // serve-layer admission controller budgets with).
    let residency = Residency::of_plan(plan);
    let dev_bytes = cfg.device_bytes(cfg.batch_elems);
    for (gpu, need) in &residency.device_bytes {
        match cfg.platform.gpus.get(*gpu) {
            None => findings.push(Finding {
                class: FindingClass::Malformed,
                code: "no-such-gpu",
                message: format!(
                    "plan schedules batches on GPU {gpu} but the platform has only {}",
                    cfg.platform.n_gpus()
                ),
                ops: Vec::new(),
            }),
            Some(g) => {
                if *need > g.global_mem_bytes {
                    findings.push(Finding {
                        class: FindingClass::Oom,
                        code: "device-over-capacity",
                        message: format!(
                            "GPU {gpu} holds {} resident stream buffer(s) of \
                             {dev_bytes:.3e} B each ({need:.3e} B peak) but has only \
                             {:.3e} B — statically guaranteed OOM",
                            need / dev_bytes.max(1),
                            g.global_mem_bytes
                        ),
                        ops: Vec::new(),
                    });
                }
            }
        }
    }

    // Staging chunks vs the pinned buffer, one finding per stream.
    let mut over: BTreeMap<usize, (usize, String, usize)> = BTreeMap::new();
    for (si, step) in plan.steps.iter().enumerate() {
        let len = match step.op {
            DagOp::StagingCopy { len, .. } | DagOp::HtoD { len, .. } | DagOp::DtoH { len, .. } => {
                len
            }
            _ => continue,
        };
        if len > cfg.pinned_elems {
            // A stream-less chunk op is charged to the sentinel lane
            // `total_streams` (as `core::optrace` does), never stream 0.
            let stream = step.stream.unwrap_or(plan.total_streams);
            over.entry(stream)
                .or_insert_with(|| (0, node_label(&step.op, si), len))
                .0 += 1;
        }
    }
    for (stream, (count, label, len)) in &over {
        findings.push(Finding {
            class: FindingClass::Oom,
            code: "staging-overflow",
            message: format!(
                "stream {stream}: {count} chunk op(s) exceed the pinned staging buffer \
                 (p_s = {} elems); first is `{label}` with {len} elems",
                cfg.pinned_elems
            ),
            ops: vec![label.clone()],
        });
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsort_core::{Approach, HetSortConfig, Plan};
    use hetsort_vgpu::platform1;

    fn plan(approach: Approach, n: usize) -> Plan {
        let cfg = HetSortConfig::paper_defaults(platform1(), approach)
            .with_batch_elems(1000)
            .with_pinned_elems(250);
        Plan::build(cfg, n).unwrap()
    }

    #[test]
    fn built_plans_are_clean() {
        for a in [
            Approach::BLineMulti,
            Approach::PipeData,
            Approach::PipeMerge,
        ] {
            let p = plan(a, 6000);
            assert!(lint_plan(&p).is_empty(), "{a:?}: {:?}", lint_plan(&p));
        }
    }

    #[test]
    fn oversized_batch_is_flagged_oom() {
        let mut p = plan(Approach::PipeData, 6000);
        p.config.batch_elems = usize::MAX / 1024;
        let fs = lint_plan(&p);
        assert!(
            fs.iter().any(|f| f.code == "device-over-capacity"),
            "{fs:?}"
        );
    }

    #[test]
    fn undersized_staging_is_flagged_per_stream() {
        let mut p = plan(Approach::PipeData, 6000);
        p.config.pinned_elems = 1;
        let fs = lint_plan(&p);
        let staging: Vec<_> = fs.iter().filter(|f| f.code == "staging-overflow").collect();
        assert_eq!(staging.len(), p.total_streams);
        assert!(staging[0].message.contains("chunk op(s) exceed"));
    }

    #[test]
    fn broken_merge_coverage_is_malformed() {
        let mut p = plan(Approach::BLineMulti, 6000);
        for s in p.steps.iter_mut() {
            if let DagOp::MultiwayMerge { inputs } = &mut s.op {
                inputs.pop();
            }
        }
        let fs = lint_plan(&p);
        assert!(fs.iter().any(|f| f.class == FindingClass::Malformed));
    }
}
