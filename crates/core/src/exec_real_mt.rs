//! Concurrent functional execution: the multi-threaded counterpart of
//! [`crate::exec_real`].
//!
//! The inline run proves the plan's data path correct; this entry point
//! proves its *concurrency structure* correct by actually running it
//! concurrently, the way the paper's implementation does. It is the
//! same engine ([`crate::dag::exec`]) with one worker per stream: the
//! workers pop ready stream-bound ops from the shared ready set (a
//! stream's ops run under its lock in FIFO-edge order, so streams never
//! interleave internally) while the calling thread pops the merges —
//! each pipelined pair merge the moment its dag edges release it
//! (PIPEMERGE semantics), then the final multiway merge.
//!
//! Batch payloads are owned `Vec`s published once by their stream, so
//! there is no shared mutable state on the data path — the safe-Rust
//! translation of the paper's `W` buffer (which is only ever written
//! once per region).
//!
//! The engine is panic-safe: a stream whose worker dies (injected via
//! [`hetsort_vgpu::FaultInjector::panic_worker`] or otherwise) never
//! poisons the run. Its unfinished ops stay blocked, the pass drains
//! around them, and the engine either host-sorts the dead stream's
//! missing batches (when [`crate::config::RecoveryPolicy::cpu_fallback`]
//! is on) or reports a typed [`HetSortError::WorkerPanic`] naming the
//! worker — never a raw panic or a hang.

use hetsort_algos::keys::{RadixKey, SortOrd};

use crate::error::HetSortError;
use crate::exec_real::RealOutcome;
use crate::plan::Plan;

/// Sort `data` by executing the plan's streams on real OS threads.
///
/// Produces bit-identical output to [`crate::exec_real::sort_real_plan`]
/// (the data path is deterministic; only wall-clock interleaving
/// differs). With a fault injector armed, global occurrence counters are
/// still exact, but *which* stream observes an occurrence depends on
/// interleaving — concurrent fault tests should use single-stream
/// configs or worker-addressed panics.
///
/// # Errors
///
/// [`HetSortError::Data`] on plan/data mismatches; typed fault errors
/// when the recovery policy does not absorb an injected fault;
/// [`HetSortError::WorkerPanic`] when a stream worker dies and CPU
/// fallback is disabled.
pub fn sort_real_parallel<T>(plan: &Plan, data: &[T]) -> Result<RealOutcome<T>, HetSortError>
where
    T: RadixKey + SortOrd + Default,
{
    let workers = plan.total_streams.max(1);
    crate::dag::exec::execute_nodes(plan, &plan.steps, data, workers, Default::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HetSortConfig, PairStrategy, RecoveryPolicy};
    use crate::exec_real::sort_real_plan;
    use hetsort_vgpu::{platform1, platform2, FaultInjector};
    use std::sync::Arc;

    fn data(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    fn check_equivalence(cfg: HetSortConfig, n: usize) {
        let d = data(n, 77);
        let plan = Plan::build(cfg, n).expect("plan");
        let seq = sort_real_plan(&plan, &d).expect("sequential");
        let par = sort_real_parallel(&plan, &d).expect("parallel");
        assert!(seq.verified && par.verified);
        assert_eq!(
            par.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            seq.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(par.nb, seq.nb);
        assert!(!par.recovery.any());
    }

    #[test]
    fn matches_sequential_for_all_approaches() {
        for approach in [
            Approach::BLineMulti,
            Approach::PipeData,
            Approach::PipeMerge,
        ] {
            let cfg = HetSortConfig::paper_defaults(platform1(), approach)
                .with_batch_elems(5_000)
                .with_pinned_elems(1_000);
            check_equivalence(cfg, 42_000);
        }
    }

    #[test]
    fn matches_sequential_on_multi_gpu() {
        let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
            .with_batch_elems(4_000)
            .with_pinned_elems(700);
        check_equivalence(cfg, 37_123);
    }

    #[test]
    fn matches_sequential_for_rejected_strategies() {
        for strategy in [PairStrategy::Online, PairStrategy::MergeTree] {
            let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
                .with_batch_elems(3_000)
                .with_pinned_elems(500)
                .with_pair_strategy(strategy);
            check_equivalence(cfg, 25_000);
        }
    }

    #[test]
    fn single_batch_bline() {
        let cfg = HetSortConfig::paper_defaults(platform1(), Approach::BLine)
            .with_batch_elems(8_000)
            .with_pinned_elems(1_000);
        check_equivalence(cfg, 8_000);
    }

    #[test]
    fn ragged_sizes() {
        let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
            .with_batch_elems(1_234)
            .with_pinned_elems(100);
        check_equivalence(cfg, 9_999);
    }

    #[test]
    fn length_mismatch_rejected() {
        let cfg = HetSortConfig::paper_defaults(platform1(), Approach::BLineMulti)
            .with_batch_elems(1_000)
            .with_pinned_elems(100);
        let plan = Plan::build(cfg, 5_000).unwrap();
        assert!(matches!(
            sort_real_parallel(&plan, &data(4_000, 1)),
            Err(HetSortError::Data { .. })
        ));
    }

    /// A PIPEDATA config whose stream 0 panics at its first batch.
    fn panicking_cfg() -> HetSortConfig {
        HetSortConfig::paper_defaults(platform1(), Approach::PipeData)
            .with_batch_elems(5_000)
            .with_pinned_elems(1_000)
            .with_faults(Arc::new(FaultInjector::new().panic_worker(0, 1)))
    }

    /// Both entry points: `panic:W@K` means the same at every worker
    /// count (inline, then one worker per stream).
    type Entry = fn(&Plan, &[f64]) -> Result<RealOutcome<f64>, HetSortError>;
    const ENTRIES: [(&str, Entry); 2] = [
        ("inline", sort_real_plan::<f64>),
        ("pooled", sort_real_parallel::<f64>),
    ];

    #[test]
    fn worker_panic_degrades_gracefully() {
        let n = 42_000;
        let d = data(n, 5);
        for (name, sort) in ENTRIES {
            let plan = Plan::build(panicking_cfg(), n).unwrap();
            let out = sort(&plan, &d).unwrap();
            assert!(out.verified, "{name}: must recover from a dead worker");
            assert!(out.recovery.degraded_batches >= 1, "{name}");
            assert_eq!(out.recovery.faults_injected, 1, "{name}");
        }
    }

    #[test]
    fn worker_panic_without_fallback_is_typed() {
        let n = 42_000;
        let d = data(n, 5);
        for (name, sort) in ENTRIES {
            let cfg = panicking_cfg().with_recovery(RecoveryPolicy::none());
            let plan = Plan::build(cfg, n).unwrap();
            let err = sort(&plan, &d).unwrap_err();
            assert!(
                matches!(err, HetSortError::WorkerPanic { worker: 0, .. }),
                "{name}: expected WorkerPanic, got {err:?}"
            );
        }
    }
}
