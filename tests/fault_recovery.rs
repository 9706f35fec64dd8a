//! Acceptance tests for the failure model: deterministic fault
//! schedules against both functional executors, with recovery on
//! (verified output + accurate stats) and off (typed errors naming the
//! exact step/batch — never a panic or abort).

use std::sync::Arc;

use hetsort::core::{
    sort_real, sort_real_parallel, Approach, HetSortConfig, HetSortError, Plan, RecoveryPolicy,
    StagingMode,
};
use hetsort::vgpu::{platform1, FaultInjector, TransferDir};

fn lcg_data(n: usize, seed: u64) -> Vec<f64> {
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

/// n = 30_000, b_s = 6_000 → 5 batches, p_s = 1_000 → 30 HtoD chunks.
fn base_cfg() -> HetSortConfig {
    HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_batch_elems(6_000)
        .with_pinned_elems(1_000)
}

/// Both staging protocols: their chunk loops reach the transfer sites in
/// a different order.
const STAGINGS: [StagingMode; 2] = [StagingMode::Paper, StagingMode::DoubleBuffered];

/// A schedule that fails the listed occurrences of `dir`'s transfers.
fn fail_transfers(dir: TransferDir, occurrences: &[usize]) -> FaultInjector {
    occurrences
        .iter()
        .fold(FaultInjector::new(), |inj, &k| match dir {
            TransferDir::HtoD => inj.fail_htod(k),
            TransferDir::DtoH => inj.fail_dtoh(k),
        })
}

/// OOM on the very first device allocation (batch 0) plus a transient
/// fault on the 5th HtoD: the run must still complete verified.
fn oom_plus_transfer_schedule() -> Arc<FaultInjector> {
    Arc::new(FaultInjector::new().oom_on_alloc(1).fail_htod(5))
}

#[test]
fn oom_and_transfer_fault_recovered_sequential() {
    let data = lcg_data(30_000, 11);
    let cfg = base_cfg().with_faults(oom_plus_transfer_schedule());
    let out = sort_real(cfg, &data).unwrap();
    assert!(out.verified, "recovery must produce a verified sort");
    assert_eq!(out.recovery.faults_injected, 2, "oom:1 + htod:5 both fire");
    assert_eq!(out.recovery.retries, 1, "one retry clears the transient");
    assert_eq!(out.recovery.degraded_batches, 0, "GPU path never abandoned");
    assert!(
        out.recovery.oom_replans >= 1,
        "batch 0 must be re-planned into sub-runs"
    );
}

#[test]
fn oom_and_transfer_fault_recovered_parallel() {
    // streams = 1 keeps the global occurrence counters deterministic in
    // the concurrent executor.
    let data = lcg_data(30_000, 11);
    let cfg = base_cfg()
        .with_streams(1)
        .with_faults(oom_plus_transfer_schedule());
    let plan = Plan::build(cfg, data.len()).unwrap();
    let out = sort_real_parallel(&plan, &data).unwrap();
    assert!(out.verified);
    assert_eq!(out.recovery.faults_injected, 2);
    assert_eq!(out.recovery.retries, 1);
    assert_eq!(out.recovery.degraded_batches, 0);
    assert!(out.recovery.oom_replans >= 1);
}

#[test]
fn recovery_disabled_surfaces_typed_oom() {
    let data = lcg_data(30_000, 11);
    let cfg = base_cfg()
        .with_recovery(RecoveryPolicy::none())
        .with_faults(oom_plus_transfer_schedule());
    let err = sort_real(cfg, &data).unwrap_err();
    let HetSortError::GpuOom {
        gpu,
        batch,
        requested_bytes,
        ..
    } = err
    else {
        panic!("expected GpuOom, got {err:?}");
    };
    assert_eq!(gpu, 0);
    assert_eq!(batch, Some(0), "the OOM hits batch 0's allocation");
    assert!(requested_bytes > 0);
}

#[test]
fn recovery_disabled_surfaces_typed_oom_parallel() {
    let data = lcg_data(30_000, 11);
    let cfg = base_cfg()
        .with_streams(1)
        .with_recovery(RecoveryPolicy::none())
        .with_faults(oom_plus_transfer_schedule());
    let plan = Plan::build(cfg, data.len()).unwrap();
    let err = sort_real_parallel(&plan, &data).unwrap_err();
    assert!(
        matches!(err, HetSortError::GpuOom { batch: Some(0), .. }),
        "expected GpuOom on batch 0, got {err:?}"
    );
}

#[test]
fn exhausted_transfer_retries_name_step_and_batch() {
    // Four consecutive HtoD faults exceed a 2-retry budget; with CPU
    // fallback off the error reports every attempt.
    let inj = Arc::new(
        FaultInjector::new()
            .fail_htod(1)
            .fail_htod(2)
            .fail_htod(3)
            .fail_htod(4),
    );
    let policy = RecoveryPolicy {
        max_retries: 2,
        split_on_oom: true,
        cpu_fallback: false,
    };
    let data = lcg_data(30_000, 11);
    let cfg = base_cfg().with_recovery(policy).with_faults(inj);
    let err = sort_real(cfg, &data).unwrap_err();
    let HetSortError::TransferFault {
        step,
        batch,
        dir,
        attempts,
    } = err
    else {
        panic!("expected TransferFault, got {err:?}");
    };
    assert_eq!(batch, 0);
    assert_eq!(dir, TransferDir::HtoD);
    assert_eq!(attempts, 3, "initial attempt + 2 retries");
    assert!(step > 0, "step id points into the plan");
}

#[test]
fn dtoh_failure_degrades_to_host_copy() {
    // Every DtoH attempt for the first chunk faults: the sorted batch
    // is still device-resident, so recovery serves it host-side.
    let inj = Arc::new(FaultInjector::new().fail_dtoh(1).fail_dtoh(2).fail_dtoh(3));
    let data = lcg_data(30_000, 11);
    let out = sort_real(base_cfg().with_faults(inj), &data).unwrap();
    assert!(out.verified);
    assert_eq!(out.recovery.degraded_batches, 1);
    assert_eq!(out.recovery.retries, 2);
    assert_eq!(out.recovery.faults_injected, 3);
}

#[test]
fn device_sort_failure_falls_back_to_cpu() {
    let inj = Arc::new(FaultInjector::new().fail_device_sort(2));
    let data = lcg_data(30_000, 11);
    let out = sort_real(base_cfg().with_faults(inj), &data).unwrap();
    assert!(out.verified);
    assert_eq!(out.recovery.degraded_batches, 1);
    assert_eq!(out.recovery.faults_injected, 1);

    // Same schedule, fallback disabled: typed error naming the batch.
    let inj = Arc::new(FaultInjector::new().fail_device_sort(2));
    let cfg = base_cfg()
        .with_recovery(RecoveryPolicy::none())
        .with_faults(inj);
    let err = sort_real(cfg, &lcg_data(30_000, 11)).unwrap_err();
    assert!(
        matches!(err, HetSortError::DeviceSortFault { batch: 1, .. }),
        "the 2nd device sort is batch 1, got {err:?}"
    );
}

#[test]
fn fault_free_run_reports_clean_stats() {
    // An armed-but-never-tripped injector must not perturb the run.
    let inj = Arc::new(FaultInjector::new().fail_htod(10_000));
    let data = lcg_data(30_000, 11);
    let out = sort_real(base_cfg().with_faults(inj), &data).unwrap();
    assert!(out.verified);
    assert!(!out.recovery.any());
}

#[test]
fn transient_transfer_faults_clear_on_the_next_attempt() {
    // Each scheduled occurrence is followed by one that does not fault,
    // so its retry clears it: the GPU path is never abandoned, the
    // output is the fault-free run's bit for bit, and every trip costs
    // exactly one retry. The first, a middle and the last of the 30
    // chunks' transfers, then three transients in one run.
    let data = lcg_data(30_000, 11);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for staging in STAGINGS {
        let cfg = base_cfg().with_staging(staging);
        let clean = sort_real(cfg.clone(), &data).unwrap();
        assert!(clean.verified && !clean.recovery.any());
        for dir in [TransferDir::HtoD, TransferDir::DtoH] {
            for schedule in [&[1][..], &[13], &[30], &[2, 4, 9]] {
                let inj = Arc::new(fail_transfers(dir, schedule));
                let out = sort_real(cfg.clone().with_faults(Arc::clone(&inj)), &data).unwrap();
                let case = format!("{staging:?} {dir:?} at {schedule:?}");
                assert!(out.verified, "{case}");
                assert!(
                    bits(&out.sorted) == bits(&clean.sorted),
                    "{case}: output moved"
                );
                assert_eq!(inj.injected(), schedule.len(), "{case}: every fault fires");
                assert_eq!(out.recovery.faults_injected, schedule.len(), "{case}");
                assert_eq!(
                    out.recovery.retries,
                    schedule.len(),
                    "{case}: one retry per trip"
                );
                assert_eq!(out.recovery.degraded_batches, 0, "{case}");
            }
        }
    }
}

#[test]
fn exhausted_retry_budget_reports_every_attempt() {
    // The first transfer of `dir` faults on every attempt the budget
    // allows: with CPU fallback off the typed error counts the initial
    // attempt plus `max_retries` retries.
    let data = lcg_data(30_000, 11);
    for staging in STAGINGS {
        for dir in [TransferDir::HtoD, TransferDir::DtoH] {
            for max_retries in 0..=3 {
                let attempts: Vec<usize> = (1..=max_retries + 1).collect();
                let policy = RecoveryPolicy {
                    max_retries,
                    cpu_fallback: false,
                    ..RecoveryPolicy::default()
                };
                let cfg = base_cfg()
                    .with_staging(staging)
                    .with_recovery(policy)
                    .with_faults(Arc::new(fail_transfers(dir, &attempts)));
                let err = sort_real(cfg, &data).unwrap_err();
                let case = format!("{staging:?} {dir:?} max_retries {max_retries}");
                assert!(
                    matches!(
                        err,
                        HetSortError::TransferFault { batch: 0, dir: d, attempts: a, .. }
                            if d == dir && a == max_retries + 1
                    ),
                    "{case}: got {err:?}"
                );
            }
        }
    }
}
