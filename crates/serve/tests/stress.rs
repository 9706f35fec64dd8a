//! Deterministic concurrent stress harness for the sort service.
//!
//! Drives 220 jobs across all three priorities through a budget that
//! forces queuing, coalescing, and shedding, then audits the run:
//! every admitted set re-verified against the plan's residency
//! math, every output bit-identical to a reference sort, every shed a
//! typed `Overloaded`, and the whole schedule reproducible to the bit
//! on a second run. The audited run goes under both staging protocols.
//! No wall clock enters the service, so this is stable on any machine.

use std::sync::Arc;

use hetsort_core::reference::reference_sort_real;
use hetsort_core::{Approach, HetSortConfig, HetSortError, Plan, Residency, StagingMode};
use hetsort_prng::Rng;
use hetsort_serve::{Priority, ServeBudget, ServeConfig, SortJob, SortService};
use hetsort_vgpu::{platform1, FaultInjector};

const N_JOBS: usize = 220;
const BURST: usize = 48;
const QUEUE_CAP: usize = 24;
const SEED: u64 = 0x5e21;

fn shape_a(staging: StagingMode) -> HetSortConfig {
    // Small, coalescible shape.
    HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_batch_elems(1_000)
        .with_pinned_elems(250)
        .with_staging(staging)
}

fn shape_b(staging: StagingMode) -> HetSortConfig {
    HetSortConfig::paper_defaults(platform1(), Approach::PipeData)
        .with_batch_elems(2_000)
        .with_pinned_elems(500)
        .with_staging(staging)
}

fn shape_c(staging: StagingMode) -> HetSortConfig {
    HetSortConfig::paper_defaults(platform1(), Approach::BLineMulti)
        .with_batch_elems(1_500)
        .with_pinned_elems(500)
        .with_staging(staging)
}

fn serve_config() -> ServeConfig {
    // Room for a handful of concurrent reservations — enough to force
    // queuing under the burst without serializing everything.
    ServeConfig::new(ServeBudget::new(1.0e6, 1.0e6))
        .with_queue_cap(QUEUE_CAP)
        .with_coalescing(2_000)
}

fn data(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.f64_unit()).collect()
}

/// The deterministic job mix: a same-instant burst of small same-shape
/// jobs (guaranteed queue-full sheds + coalescing), a spread tail of
/// mixed shapes and priorities, every 10th job fault-injected under
/// the default recovery policy, and one job too big for the budget at
/// any load. Every job stages under `staging`.
fn make_jobs(seed: u64, staging: StagingMode) -> Vec<SortJob> {
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::with_capacity(N_JOBS);
    let mut arrival = 0.0_f64;
    for i in 0..N_JOBS {
        let job = if i < BURST {
            // Burst: all arrive at t = 0 with the coalescible shape.
            let n = rng.usize_in(800, 2_000);
            SortJob::new(data(&mut rng, n), shape_a(staging))
        } else if i == BURST {
            // Unadmittable at any load: device footprint far past the
            // budget. Arrives long after the rest drains, so the queue
            // is empty — it must still shed (typed), not queue forever.
            SortJob::new(
                data(&mut rng, 1_000),
                shape_a(staging).with_batch_elems(1 << 24),
            )
            .arriving_at(1.0e9)
        } else {
            arrival += rng.f64_in(0.0, 2.0e-3);
            let (cfg, n) = match i % 3 {
                0 => (shape_a(staging), rng.usize_in(800, 2_000)),
                1 => (shape_b(staging), rng.usize_in(4_000, 12_000)),
                _ => (shape_c(staging), rng.usize_in(3_000, 8_000)),
            };
            SortJob::new(data(&mut rng, n), cfg).arriving_at(arrival)
        };
        let job = match i % 3 {
            0 => job,
            1 => job.with_priority(*rng.pick(&[Priority::Low, Priority::High])),
            _ => job.with_priority(Priority::Low),
        };
        let job = if i % 10 == 9 {
            let mut cfg = job.config.clone();
            cfg = cfg.with_faults(Arc::new(FaultInjector::from_seed(seed ^ i as u64, 1)));
            SortJob { config: cfg, ..job }
        } else {
            job
        };
        jobs.push(job);
    }
    jobs
}

struct RunDigest {
    completed: Vec<(u64, u64, u64, Vec<u64>)>, // (id, admitted bits, completed bits, sorted bits)
    shed_ids: Vec<u64>,
    makespan_bits: u64,
}

fn digest(out: &hetsort_serve::ServeOutcome) -> RunDigest {
    RunDigest {
        completed: out
            .completed
            .iter()
            .map(|r| {
                (
                    r.id,
                    r.admitted_s.to_bits(),
                    r.completed_s.to_bits(),
                    r.sorted.iter().map(|x| x.to_bits()).collect(),
                )
            })
            .collect(),
        shed_ids: out.shed.iter().map(|(id, _)| *id).collect(),
        makespan_bits: out.makespan_s.to_bits(),
    }
}

#[test]
fn stress_220_jobs_audited_end_to_end() {
    for staging in [StagingMode::default(), StagingMode::Paper] {
        audited_run(staging);
    }
}

/// The 220-job run under `staging`, audited end to end.
fn audited_run(staging: StagingMode) {
    let jobs = make_jobs(SEED, staging);
    let audit: Vec<SortJob> = jobs.clone();
    let svc = SortService::new(serve_config());
    let out = svc.run(jobs);

    // Conservation: every job lands in exactly one bucket, none fail.
    assert_eq!(
        out.completed.len() + out.shed.len() + out.failed.len(),
        N_JOBS,
        "jobs lost: {} completed, {} shed, {} failed",
        out.completed.len(),
        out.shed.len(),
        out.failed.len()
    );
    assert!(
        out.failed.is_empty(),
        "unexpected failures: {:?}",
        out.failed
    );

    // Overload really happened, and every shed is a typed Overloaded
    // naming its job. The same-instant burst overflows the bounded
    // queue by construction.
    assert!(
        out.shed.len() >= BURST - QUEUE_CAP,
        "burst must overflow the queue: {} shed",
        out.shed.len()
    );
    for (id, e) in &out.shed {
        match e {
            HetSortError::Overloaded { job, .. } => assert_eq!(*job, Some(*id)),
            other => panic!("shed must be typed Overloaded, got {other}"),
        }
    }
    // The oversized job shed with the "never admittable" diagnosis.
    let oversized = out
        .shed
        .iter()
        .find(|(id, _)| *id == BURST as u64)
        .map(|(_, e)| e.to_string())
        .unwrap_or_else(|| panic!("oversized job must be shed"));
    assert!(oversized.contains("unadmittable"), "{oversized}");

    // Throughput floor and priority coverage.
    assert!(
        out.completed.len() >= 120,
        "too few completions: {}",
        out.completed.len()
    );
    for p in [Priority::Low, Priority::Normal, Priority::High] {
        assert!(
            out.completed.iter().any(|r| r.priority == p),
            "no {} -priority completion",
            p.name()
        );
    }

    // Functional truth: every output bit-identical to the reference
    // sort of that job's input.
    for r in &out.completed {
        assert!(r.verified, "job {} not verified", r.id);
        let mut expect = audit[r.id as usize].data.clone();
        reference_sort_real(1, &mut expect);
        assert_eq!(expect.len(), r.sorted.len());
        assert!(
            expect
                .iter()
                .zip(&r.sorted)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "job {} output differs from reference",
            r.id
        );
    }

    // Coalescing engaged on the burst shape.
    assert!(
        out.completed.iter().any(|r| r.coalesced_into.is_some()),
        "no job coalesced"
    );
    assert!(out.metrics.counter("jobs_coalesced") > 0.0);

    // Fault-injected jobs completed by *recovering*, not failing.
    let recovered: Vec<u64> = out
        .completed
        .iter()
        .filter(|r| r.recovered)
        .map(|r| r.id)
        .collect();
    assert!(!recovered.is_empty(), "no faulted job recovered");
    for id in &recovered {
        assert_eq!(*id % 10, 9, "only fault-injected jobs should recover");
    }

    // Every span the service emitted is job-scoped.
    assert!(!out.metrics.spans().is_empty());
    assert!(out.metrics.spans().iter().all(|s| s.job.is_some()));

    // Admission audit: recompute every reservation's footprint from
    // scratch with `Residency::of_plan` (element-wise max over coalesced
    // members, sum across reservations) and hold it against the
    // budget.
    let budget = serve_config().budget;
    assert!(!out.admission_log.is_empty());
    for ev in &out.admission_log {
        let mut agg = Residency::default();
        for reservation in &ev.reservations {
            let group = reservation
                .iter()
                .map(|&id| {
                    let j = &audit[id as usize];
                    let plan = Plan::build(j.config.clone(), j.data.len())
                        .unwrap_or_else(|e| panic!("job {id} plan must rebuild: {e}"));
                    Residency::of_plan(&plan)
                })
                .fold(Residency::default(), |acc, r| acc.max(&r));
            agg.add(&group);
        }
        for (gpu, bytes) in &agg.device_bytes {
            assert!(
                *bytes <= budget.device_bytes,
                "t={}: GPU {gpu} over budget: {bytes} > {}",
                ev.t_s,
                budget.device_bytes
            );
        }
        assert!(
            agg.pinned_bytes <= budget.pinned_bytes,
            "t={}: pinned over budget: {} > {}",
            ev.t_s,
            agg.pinned_bytes,
            budget.pinned_bytes
        );
        // The controller's own aggregate agrees with the recompute.
        for (gpu, bytes) in &ev.in_flight.device_bytes {
            let re = agg.device_bytes.get(gpu).copied().unwrap_or(0);
            assert_eq!(
                re, *bytes,
                "t={}: controller says GPU {gpu} holds {bytes}, audit says {re}",
                ev.t_s
            );
        }
    }

    // Virtual clocks are sane: admission never precedes arrival,
    // completion never precedes admission.
    for r in &out.completed {
        assert!(r.admitted_s >= r.arrival_s - 1e-12, "job {}", r.id);
        assert!(r.completed_s > r.admitted_s, "job {}", r.id);
        assert!(r.completed_s <= out.makespan_s + 1e-12);
    }
}

#[test]
fn stress_rerun_is_bitwise_identical() {
    let run = || {
        let svc = SortService::new(serve_config());
        digest(&svc.run(make_jobs(SEED, StagingMode::default())))
    };
    let a = run();
    let b = run();
    assert_eq!(a.completed.len(), b.completed.len());
    for (x, y) in a.completed.iter().zip(&b.completed) {
        assert_eq!(x.0, y.0, "completion order diverged");
        assert_eq!(x.1, y.1, "admission time diverged for job {}", x.0);
        assert_eq!(x.2, y.2, "completion time diverged for job {}", x.0);
        assert_eq!(x.3, y.3, "output bits diverged for job {}", x.0);
    }
    assert_eq!(a.shed_ids, b.shed_ids);
    assert_eq!(a.makespan_bits, b.makespan_bits);
}

#[test]
fn stress_across_seeds_conserves_jobs_and_budget() {
    // A lighter sweep: whatever the mix, nothing is lost, nothing
    // panics, sheds stay typed.
    for seed in [1u64, 7, 42, 1234] {
        let jobs = make_jobs(seed, StagingMode::default());
        let svc = SortService::new(serve_config());
        let out = svc.run(jobs);
        assert_eq!(
            out.completed.len() + out.shed.len() + out.failed.len(),
            N_JOBS,
            "seed {seed}"
        );
        assert!(out.failed.is_empty(), "seed {seed}: {:?}", out.failed);
        for (_, e) in &out.shed {
            assert!(
                matches!(e, HetSortError::Overloaded { .. }),
                "seed {seed}: {e}"
            );
        }
        for r in &out.completed {
            assert!(r.verified, "seed {seed} job {}", r.id);
        }
    }
}
