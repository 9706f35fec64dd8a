//! Deterministic chaos harness: elastic-pool churn over the virtual
//! clock, composed with executor-level fault injection.
//!
//! Every schedule is pinned by a seed ([`chaos_schedule`] never loses
//! GPU 0, so at least one device always survives). Under any such
//! schedule the harness asserts:
//!
//! * **conservation** — every job lands in exactly one of
//!   completed/shed/failed, nothing is silently dropped;
//! * **functional truth** — every completed output is bit-identical to
//!   a reference sort of that job's input;
//! * **typed failure** — sheds are `Overloaded`, never panics;
//! * **accounting** — the admission controller's in-flight footprint
//!   stays under budget at every audit point, across displacements and
//!   re-admissions;
//! * **replay** — a same-seed rerun reproduces completions, outputs,
//!   *and the admission audit log* to the bit.
//!
//! The multi-seed audit runs under both staging protocols.

use std::sync::Arc;

use hetsort_core::reference::reference_sort_real;
use hetsort_core::{Approach, HetSortConfig, HetSortError, StagingMode};
use hetsort_prng::Rng;
use hetsort_serve::{
    chaos_schedule, parse_schedule, synthetic_jobs, Priority, ServeBudget, ServeConfig,
    ServeOutcome, SortJob, SortService, MIX_COALESCE_ELEMS,
};
use hetsort_vgpu::{platform2, FaultInjector};

const N_JOBS: usize = 36;

fn shape(staging: StagingMode) -> HetSortConfig {
    HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
        .with_batch_elems(1_000)
        .with_pinned_elems(250)
        .with_staging(staging)
}

fn serve_config() -> ServeConfig {
    // Generous pinned pool, a few concurrent device reservations.
    ServeConfig::new(ServeBudget::new(2.0e5, 2.0e6)).with_queue_cap(N_JOBS)
}

fn data(rng: &mut Rng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.f64_unit()).collect()
}

/// The chaos mix: multi-GPU jobs spread over the clock, every third
/// one carrying an executor-level fault schedule (transfer faults and
/// in-run device losses) under the default recovery policy. Every job
/// stages under `staging`.
fn make_jobs(seed: u64, staging: StagingMode) -> Vec<SortJob> {
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
    let mut jobs = Vec::with_capacity(N_JOBS);
    let mut arrival = 0.0_f64;
    for i in 0..N_JOBS {
        arrival += rng.f64_in(0.0, 4.0e-4);
        let n = rng.usize_in(3_000, 9_000);
        let mut cfg = shape(staging);
        match i % 3 {
            1 => {
                // In-run device loss on GPU 1 (never GPU 0): the
                // executor must re-plan onto the survivor.
                let nth = rng.usize_in(1, 6);
                cfg = cfg.with_faults(Arc::new(FaultInjector::new().lose_device(1, nth)));
            }
            2 => {
                let nth = rng.usize_in(1, 4);
                cfg = cfg.with_faults(Arc::new(FaultInjector::new().fail_htod(nth)));
            }
            _ => {}
        }
        let job = SortJob::new(data(&mut rng, n), cfg)
            .arriving_at(arrival)
            .with_priority(*rng.pick(&[Priority::Low, Priority::Normal, Priority::High]));
        jobs.push(job);
    }
    jobs
}

/// Fault-free makespan for a seed — used to aim pool events at the
/// middle of the run instead of guessing absolute times.
fn baseline_makespan(seed: u64, staging: StagingMode) -> f64 {
    let out = SortService::new(serve_config()).run(make_jobs(seed, staging));
    assert!(out.makespan_s > 0.0);
    out.makespan_s
}

fn run_chaos(seed: u64, staging: StagingMode) -> ServeOutcome {
    let horizon = baseline_makespan(seed, staging);
    let events = chaos_schedule(seed, platform2().gpus.len(), horizon);
    let cfg = serve_config().with_pool_events(events);
    SortService::new(cfg).run(make_jobs(seed, staging))
}

fn audit(seed: u64, staging: StagingMode, out: &ServeOutcome) {
    let inputs = make_jobs(seed, staging);
    // Conservation: nothing dropped, nothing failed, sheds typed.
    assert_eq!(
        out.completed.len() + out.shed.len() + out.failed.len(),
        N_JOBS,
        "seed {seed}: jobs lost ({} completed, {} shed, {} failed)",
        out.completed.len(),
        out.shed.len(),
        out.failed.len()
    );
    assert!(out.failed.is_empty(), "seed {seed}: {:?}", out.failed);
    for (id, e) in &out.shed {
        match e {
            HetSortError::Overloaded { job, .. } => assert_eq!(*job, Some(*id)),
            other => panic!("seed {seed}: shed must be typed Overloaded, got {other}"),
        }
    }
    // Functional truth on every survivor.
    for r in &out.completed {
        assert!(r.verified, "seed {seed} job {}", r.id);
        let mut expect = inputs[r.id as usize].data.clone();
        reference_sort_real(1, &mut expect);
        assert!(
            expect
                .iter()
                .zip(&r.sorted)
                .all(|(a, b)| a.to_bits() == b.to_bits())
                && expect.len() == r.sorted.len(),
            "seed {seed}: job {} output differs from reference",
            r.id
        );
    }
    // Admission accounting holds at every audit point, pool churn
    // included: per-GPU device bytes and the pinned pool never exceed
    // the budget.
    let budget = serve_config().budget;
    for ev in &out.admission_log {
        for (gpu, bytes) in &ev.in_flight.device_bytes {
            assert!(
                *bytes <= budget.device_bytes,
                "seed {seed} t={}: GPU {gpu} over budget: {bytes}",
                ev.t_s
            );
        }
        assert!(
            ev.in_flight.pinned_bytes <= budget.pinned_bytes,
            "seed {seed} t={}: pinned over budget",
            ev.t_s
        );
    }
}

#[test]
fn chaos_multi_seed_conserves_jobs_and_bitwise_outputs() {
    for staging in [StagingMode::default(), StagingMode::Paper] {
        let mut any_loss = false;
        let mut any_recovered = false;
        for seed in [3u64, 11, 29, 77, 123] {
            let out = run_chaos(seed, staging);
            audit(seed, staging, &out);
            any_loss |= out.metrics.counter("pool_losses") > 0.0;
            any_recovered |= out.completed.iter().any(|r| r.recovered);
        }
        assert!(
            any_loss,
            "{staging:?}: no seed produced pool churn — harness is inert"
        );
        assert!(
            any_recovered,
            "{staging:?}: no job recovered from an injected fault — injectors are inert"
        );
    }
}

/// Bit-for-bit replay: same seed, same schedule, same everything —
/// including the admission audit log (times as raw bits, reservation
/// groupings, and in-flight byte counts).
#[test]
fn chaos_same_seed_rerun_replays_admission_log_exactly() {
    let seed = 29u64;
    let a = run_chaos(seed, StagingMode::default());
    let b = run_chaos(seed, StagingMode::default());
    assert_eq!(a.completed.len(), b.completed.len());
    for (x, y) in a.completed.iter().zip(&b.completed) {
        assert_eq!(x.id, y.id, "completion order diverged");
        assert_eq!(x.admitted_s.to_bits(), y.admitted_s.to_bits());
        assert_eq!(x.completed_s.to_bits(), y.completed_s.to_bits());
        assert!(x
            .sorted
            .iter()
            .zip(&y.sorted)
            .all(|(p, q)| p.to_bits() == q.to_bits()));
    }
    assert_eq!(
        a.shed.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        b.shed.iter().map(|(id, _)| *id).collect::<Vec<_>>()
    );
    assert_eq!(a.admission_log.len(), b.admission_log.len());
    for (x, y) in a.admission_log.iter().zip(&b.admission_log) {
        assert_eq!(x.t_s.to_bits(), y.t_s.to_bits(), "audit time diverged");
        assert_eq!(x.reservations, y.reservations, "groupings diverged");
        assert_eq!(x.in_flight, y.in_flight, "in-flight footprint diverged");
    }
    assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
}

/// A pinned mid-run loss must *displace and re-queue* the in-flight
/// job — never drop it — and a later join must let it complete on the
/// restored pool.
#[test]
fn pinned_loss_displaces_then_join_readmits() {
    let seed = 7u64;
    let staging = StagingMode::default();
    let horizon = baseline_makespan(seed, staging);
    let first_done = {
        let out = SortService::new(serve_config()).run(make_jobs(seed, staging));
        out.completed
            .iter()
            .map(|r| r.completed_s)
            .fold(f64::INFINITY, f64::min)
    };
    // Lose GPU 1 while the first admitted group is still in flight;
    // bring it back well after everything would have drained.
    let spec = format!("lose:1@{},join:1@{}", first_done * 0.5, horizon * 4.0);
    let events = parse_schedule(&spec).unwrap();
    let out =
        SortService::new(serve_config().with_pool_events(events)).run(make_jobs(seed, staging));
    audit(seed, staging, &out);
    assert_eq!(out.metrics.counter("pool_losses"), 1.0);
    assert_eq!(out.metrics.counter("pool_joins"), 1.0);
    assert!(
        out.metrics.counter("jobs_displaced") >= 1.0,
        "the in-flight job must be displaced, got {:?}",
        out.metrics.counter("jobs_displaced")
    );
    // Displacement never turned into a drop: conservation already
    // audited; additionally every displaced job still completed (the
    // survivor pool could hold every shape in this mix).
    assert_eq!(out.shed.len(), 0, "{:?}", out.shed);
    assert_eq!(out.completed.len(), N_JOBS);
}

#[test]
fn pool_shed_reasons_name_a_quantity_over_its_budget() {
    // PLATFORM2 mixes under a 1e6 B/GPU device and 2e4 B pinned budget
    // with a loss and then a join: the queue is re-planned on the
    // restored pool (more streams, more pinned staging) and sheds on
    // the pinned budget, though no device budget is exceeded. Every
    // pool shed must name what is over which budget.
    let (device, pinned) = (1.0e6, 2.0e4);
    let events = parse_schedule("lose:1@0.001,join:1@0.01").unwrap();
    let mut sheds = 0;
    for seed in 1..=4 {
        let cfg = ServeConfig::new(ServeBudget::new(device, pinned))
            .with_queue_cap(24)
            .with_coalescing(MIX_COALESCE_ELEMS)
            .with_pool_events(events.clone());
        let out = SortService::new(cfg).run(synthetic_jobs(&platform2(), 60, seed));
        let reasons: Vec<String> = out
            .shed
            .iter()
            .filter_map(|(_, e)| match e {
                HetSortError::Overloaded { reason, .. }
                    if reason.contains("unadmittable on the") =>
                {
                    Some(reason.clone())
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            reasons.len() as f64,
            out.metrics.counter("jobs_shed_pool"),
            "seed {seed}: every pool shed says why: {reasons:?}"
        );
        for reason in &reasons {
            // "(pinned X B vs budget Y B)" or "(device X B on GPU g vs
            // budget Y B/GPU)": the named quantity is over the budget
            // the service was given for it.
            let why = &reason[reason.find('(').expect(reason) + 1..];
            let (quantity, budget) = why.split_once(" vs budget ").expect(reason);
            let number = |s: &str| {
                let mut tokens = s.split(' ');
                tokens.find_map(|t| t.parse::<f64>().ok()).expect(reason)
            };
            let limit = match quantity.split(' ').next() {
                Some("pinned") => pinned,
                Some("device") => device,
                _ => panic!("seed {seed}: `{reason}` names no budget"),
            };
            assert_eq!(number(budget), limit, "seed {seed}: {reason}");
            assert!(number(quantity) > limit, "seed {seed}: {reason}");
        }
        sheds += reasons.len();
    }
    assert!(sheds > 0, "the mix sheds on the pool");
}
