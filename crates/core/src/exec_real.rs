//! Functional execution: run the *same* plan on real data.
//!
//! This module owns the inline entry points ([`sort_real`],
//! [`sort_real_plan`]) and the [`RealOutcome`] result type; the
//! interpretation is the one DAG engine in [`crate::dag::exec`]. A
//! plan's `steps` already are the op-dag (typed ops + explicit
//! dependency edges): [`sort_real_plan`] validates them and runs them
//! in place on the engine with zero workers — every node inline on the
//! calling thread in deterministic min-node-id ready order, which for
//! planner-built dags is the plan's submission order.
//!
//! Stream-bound ops run through the per-stream interpreter
//! (`exec_stream::StreamExec`), which implements the failure model:
//! injected faults, bounded retries, OOM batch splitting, and
//! CPU-fallback degradation per the
//! configured [`crate::config::RecoveryPolicy`]. Unrecovered faults
//! surface as typed [`HetSortError`]s.
//!
//! The output is verified (sorted + multiset-preserving) so every test
//! of the simulated pipelines is backed by a functional proof of the
//! identical orchestration.

use hetsort_algos::keys::{RadixKey, SortOrd};
use hetsort_obs::MetricsRegistry;

use crate::config::HetSortConfig;
use crate::error::HetSortError;
use crate::optrace::OpTrace;
use crate::plan::Plan;
use crate::report::RecoveryStats;

/// Result of a functional run (over `f64` keys by default; any
/// [`RadixKey`]+[`SortOrd`] element works, e.g.
/// [`hetsort_algos::keys::KeyValue`] records).
#[derive(Debug)]
pub struct RealOutcome<T = f64> {
    /// The sorted output `B`.
    pub sorted: Vec<T>,
    /// Wall-clock seconds of the run (this machine, not the simulated
    /// platform — use [`crate::simulate`] for paper-scale timing).
    pub wall_s: f64,
    /// Output is sorted and a permutation of the input.
    pub verified: bool,
    /// Number of batches executed.
    pub nb: usize,
    /// Number of pipelined pair merges executed.
    pub pair_merges: usize,
    /// What recovery had to do (all zeros on a fault-free run).
    pub recovery: RecoveryStats,
    /// Structured op trace of the *executed* accesses, when the config
    /// asked for one ([`HetSortConfig::with_trace_recording`]). Recovery
    /// reroutes show up here, so re-planned schedules get re-checked by
    /// `hetsort-analyze`.
    pub trace: Option<OpTrace>,
    /// Observability: every executed step as a wall-clock span, plus
    /// `recovery.*` counters — always recorded (spans cost nanoseconds
    /// against host-scale steps).
    pub metrics: MetricsRegistry,
    /// Recovery re-plans built after device losses, in the order they
    /// were adopted (empty on runs that lost no device). Each passed
    /// [`Plan::validate`] in [`Plan::on_devices`]; callers with access
    /// to `hetsort-analyze` re-run the residency check on them — the
    /// dependency points that way, so the executor cannot.
    pub replans: Vec<Plan>,
}

/// Sort `data` with the configured heterogeneous pipeline, functionally.
///
/// # Errors
///
/// [`HetSortError::Config`] for invalid configurations, plus everything
/// [`sort_real_plan`] reports.
pub fn sort_real<T>(config: HetSortConfig, data: &[T]) -> Result<RealOutcome<T>, HetSortError>
where
    T: RadixKey + SortOrd + Default,
{
    let plan = Plan::build(config, data.len())?;
    sort_real_plan(&plan, data)
}

/// Execute an already-built plan on `data` (must match `plan.n` and the
/// configured element size).
///
/// # Errors
///
/// [`HetSortError::Data`] on plan/data mismatches; typed fault errors
/// ([`HetSortError::GpuOom`], [`HetSortError::TransferFault`],
/// [`HetSortError::DeviceSortFault`]) when the recovery policy does not
/// absorb an injected fault.
pub fn sort_real_plan<T>(plan: &Plan, data: &[T]) -> Result<RealOutcome<T>, HetSortError>
where
    T: RadixKey + SortOrd + Default,
{
    crate::dag::exec::execute_nodes(plan, &plan.steps, data, 0, Default::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Approach;
    use hetsort_algos::introsort::introsort;
    use hetsort_vgpu::{platform1, platform2};

    fn data(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    fn cfg(approach: Approach, bs: usize, ps: usize) -> HetSortConfig {
        HetSortConfig::paper_defaults(platform1(), approach)
            .with_batch_elems(bs)
            .with_pinned_elems(ps)
    }

    fn check(approach: Approach, n: usize, bs: usize, ps: usize) -> RealOutcome {
        let d = data(n, 42);
        let mut expect = d.clone();
        introsort(&mut expect);
        let out = sort_real(cfg(approach, bs, ps), &d).unwrap();
        assert!(out.verified, "{approach:?} failed verification");
        assert!(
            !out.recovery.any(),
            "fault-free run must report no recovery"
        );
        assert_eq!(
            out.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "{approach:?} output mismatch"
        );
        out
    }

    #[test]
    fn bline_single_batch() {
        let out = check(Approach::BLine, 10_000, 10_000, 1_000);
        assert_eq!(out.nb, 1);
        assert_eq!(out.pair_merges, 0);
    }

    #[test]
    fn bline_multi_batches() {
        let out = check(Approach::BLineMulti, 50_000, 8_000, 1_000);
        assert_eq!(out.nb, 7);
        assert_eq!(out.pair_merges, 0);
    }

    #[test]
    fn pipedata_streams() {
        let out = check(Approach::PipeData, 60_000, 7_000, 1_000);
        assert_eq!(out.nb, 9);
    }

    #[test]
    fn pipemerge_with_pair_merges() {
        let out = check(Approach::PipeMerge, 60_000, 6_000, 1_500);
        assert_eq!(out.nb, 10);
        assert_eq!(out.pair_merges, 4); // ⌊9/2⌋
    }

    #[test]
    fn parmemcpy_changes_nothing_functionally() {
        let d = data(30_000, 7);
        let a = sort_real(cfg(Approach::PipeMerge, 4_000, 500), &d).unwrap();
        let b = sort_real(cfg(Approach::PipeMerge, 4_000, 500).with_par_memcpy(), &d).unwrap();
        assert!(a.verified && b.verified);
        assert_eq!(
            a.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn multi_gpu_platform() {
        let d = data(40_000, 9);
        let mut expect = d.clone();
        introsort(&mut expect);
        let c = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
            .with_batch_elems(5_000)
            .with_pinned_elems(1_000);
        let out = sort_real(c, &d).unwrap();
        assert!(out.verified);
        assert_eq!(out.nb, 8);
        assert_eq!(
            out.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ragged_sizes() {
        // n not divisible by b_s, b_s not divisible by p_s.
        check(Approach::PipeMerge, 12_345, 1_234, 100);
        check(Approach::BLineMulti, 9_999, 1_000, 333);
    }

    #[test]
    fn special_values_survive_pipeline() {
        let mut d = data(5_000, 3);
        d[0] = f64::INFINITY;
        d[1] = f64::NEG_INFINITY;
        d[2] = -0.0;
        d[3] = 0.0;
        d[4] = f64::NAN;
        let mut expect = d.clone();
        introsort(&mut expect);
        let out = sort_real(cfg(Approach::PipeData, 600, 100), &d).unwrap();
        assert!(out.verified);
        assert_eq!(
            out.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rejected_strategies_still_sort_correctly() {
        use crate::config::PairStrategy;
        for strategy in [PairStrategy::Online, PairStrategy::MergeTree] {
            let d = data(40_000, 13);
            let mut expect = d.clone();
            introsort(&mut expect);
            let c = cfg(Approach::PipeMerge, 6_000, 1_000).with_pair_strategy(strategy);
            let out = sort_real(c, &d).unwrap();
            assert!(out.verified, "{strategy:?}");
            assert_eq!(
                out.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{strategy:?}"
            );
            // Online merges n_b−1 times; tree merges n_b−1 times too.
            assert_eq!(out.pair_merges, out.nb - 1, "{strategy:?}");
        }
    }

    #[test]
    fn length_mismatch_rejected() {
        let plan = Plan::build(cfg(Approach::BLineMulti, 1_000, 100), 5_000).unwrap();
        assert!(matches!(
            sort_real_plan(&plan, &data(4_999, 1)),
            Err(HetSortError::Data { .. })
        ));
    }
}
