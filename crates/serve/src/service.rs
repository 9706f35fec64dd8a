//! The multi-tenant sort service: a deterministic virtual-time event
//! loop over arrivals, admissions, and completions.
//!
//! Jobs enter a bounded queue; the [`AdmissionController`] lets them
//! start only while the aggregate device + pinned footprint (computed
//! with the plan's [`Residency`] math from each job's built
//! [`Plan`]) stays under budget. Small same-shape jobs coalesce into
//! one shared reservation. Overload sheds jobs with a typed
//! [`HetSortError::Overloaded`] — never a panic.
//!
//! Two clocks, deliberately separated — both dispatched from the same
//! lowered [`PlanDag`] per job:
//!
//! * outputs are produced *functionally* (`execute_dag`), so every
//!   completed job's `sorted` is bit-identical to a reference sort;
//! * durations come from the *simulator* (`simulate_dag`), so queue
//!   waits, admissions, and completions advance a virtual clock that
//!   is reproducible to the bit across runs — no wall-clock anywhere
//!   in service state.
//!
//! One run's state — pending arrivals and pool events, the controller,
//! the queue, the running groups and the outcome — lives in one private
//! `Run`, advanced one event time per `step`. Every job that meets the
//! pool (an arrival, a displaced member, a queued job after a pool
//! change) goes through one placement verdict, `Run::place`: queue it
//! on a plan, shed it, or fail it.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use hetsort_core::recover::survivor_plan;
use hetsort_core::{execute_dag, simulate_dag, HetSortError, Plan, PlanDag, Residency};
use hetsort_obs::{MetricsRegistry, ObsSpan};

use crate::admission::{AdmissionController, ServeBudget};
use crate::job::{JobReport, SortJob};
use crate::pool::{PoolEvent, PoolEventKind};

/// Most members a coalesced group may hold (bounds the latency a
/// member adds to the ones behind it).
const COALESCE_MAX_JOBS: usize = 8;

/// Service knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bounded queue depth; arrivals past this are shed immediately.
    pub queue_cap: usize,
    /// The aggregate memory budget.
    pub budget: ServeBudget,
    /// Jobs with `n ≤ coalesce_max_elems` are "small": same-shape
    /// small jobs admit together under one shared reservation.
    /// `0` disables coalescing.
    pub coalesce_max_elems: usize,
    /// Scheduled changes to the device pool (losses and joins on the
    /// virtual clock). Empty means the pool is static.
    pub pool_events: Vec<PoolEvent>,
}

impl ServeConfig {
    /// A config with the given budget and conventional depths.
    pub fn new(budget: ServeBudget) -> ServeConfig {
        ServeConfig {
            queue_cap: 64,
            budget,
            coalesce_max_elems: 0,
            pool_events: Vec::new(),
        }
    }

    /// Set the queue depth.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Enable coalescing for jobs up to `max_elems`.
    pub fn with_coalescing(mut self, max_elems: usize) -> Self {
        self.coalesce_max_elems = max_elems;
        self
    }

    /// Attach an elastic-pool schedule (see [`crate::pool`]).
    pub fn with_pool_events(mut self, events: Vec<PoolEvent>) -> Self {
        self.pool_events = events;
        self
    }
}

/// One admission decision, for audit: who was in flight afterwards and
/// how the reservations group jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionEvent {
    /// Virtual time of the decision.
    pub t_s: f64,
    /// Job ids per reservation in flight *after* the decision (a
    /// coalesced group is one reservation with several ids).
    pub reservations: Vec<Vec<u64>>,
    /// Aggregate footprint after the decision.
    pub in_flight: Residency,
}

/// Everything a service run produces.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Completed jobs, in completion order (ties: admission order).
    pub completed: Vec<JobReport>,
    /// Jobs shed with backpressure: `(id, Overloaded)`.
    pub shed: Vec<(u64, HetSortError)>,
    /// Jobs that failed in validation or execution (typed, non-shed).
    pub failed: Vec<(u64, HetSortError)>,
    /// Virtual completion time of the last job (0 for an empty run).
    pub makespan_s: f64,
    /// Every admission decision, for budget auditing.
    pub admission_log: Vec<AdmissionEvent>,
    /// Job-scoped spans (simulated op spans shifted to admission time,
    /// plus one queue-wait span per admitted job), one zero-length span
    /// per pool event, and service counters.
    pub metrics: MetricsRegistry,
}

struct Queued {
    id: u64,
    job: SortJob,
    plan: Plan,
    residency: Residency,
}

struct Done {
    report: JobReport,
    recovered: bool,
    /// The original submission, retained so a pool loss can re-queue
    /// the job instead of silently dropping it.
    job: SortJob,
    /// Job-tagged spans, recorded into the registry only when the job
    /// actually completes (a displaced job's aborted run leaves no
    /// spans behind).
    spans: Vec<ObsSpan>,
    /// `bytes_sorted` contribution, counted at completion.
    bytes: f64,
}

struct Running {
    leader: u64,
    finish_s: f64,
    done: Vec<Done>,
}

/// Why a job meets the pool. The verdict is the same for all three;
/// this names what differs: the counter and wording of an unfit shed,
/// and what the job waits on through a total outage.
enum Placing {
    /// A new arrival: an unfit footprint counts as
    /// `jobs_shed_oversized`.
    Arrival,
    /// A member displaced by a device loss.
    Displaced,
    /// A queued job re-planned after a pool change. Through a total
    /// outage it keeps this plan: `fits` blocks it either way, and the
    /// join's re-plan replaces it, so it never rebuilds (or fails on)
    /// a full-pool plan it cannot use.
    Queued(Box<Plan>, Residency),
}

impl Placing {
    /// The counter and reason of shedding a job whose footprint can
    /// never fit the pool as it stands, for `why`
    /// ([`AdmissionController::unfit`]).
    fn unfit(&self, why: String) -> (&'static str, String) {
        let pool = |prefix| {
            let reason = format!("{prefix}unadmittable on the current pool ({why})");
            ("jobs_shed_pool", reason)
        };
        match self {
            Placing::Arrival => (
                "jobs_shed_oversized",
                format!("footprint exceeds the service budget ({why}) — unadmittable at any load"),
            ),
            Placing::Displaced => pool("displaced by device loss and "),
            Placing::Queued(..) => pool(""),
        }
    }
}

/// The service. Create with a [`ServeConfig`], then [`Self::run`] a
/// job list; the run is self-contained and deterministic.
#[derive(Debug, Clone)]
pub struct SortService {
    cfg: ServeConfig,
}

/// Shape key for coalescing: jobs sharing it can reuse each other's
/// buffers.
fn shape_key(job: &SortJob) -> String {
    let c = &job.config;
    format!(
        "{}/{}/b{}/p{}/s{}/e{}/pm{}",
        c.platform.name,
        c.approach.name(),
        c.batch_elems,
        c.pinned_elems,
        c.streams_per_gpu,
        c.elem_bytes.bytes(),
        c.par_memcpy,
    )
}

/// Build a job's plan against the pool as it stands
/// ([`survivor_plan`]: a plain [`Plan::build`] on a full pool, the
/// survivors' plan on physical GPU indices otherwise). An empty pool is
/// reported as a typed `Overloaded`.
fn build_plan_for(
    job: &SortJob,
    dead: &BTreeSet<usize>,
) -> Result<(Plan, Residency), HetSortError> {
    let plan = survivor_plan(&job.config, job.data.len(), dead)?.ok_or_else(|| {
        HetSortError::Overloaded {
            job: None,
            reason: "device pool is empty: every GPU has left the service".to_string(),
        }
    })?;
    let residency = Residency::of_plan(&plan);
    Ok((plan, residency))
}

impl SortService {
    /// A service with the given knobs.
    pub fn new(cfg: ServeConfig) -> SortService {
        SortService { cfg }
    }

    /// Run a whole job list to completion.
    ///
    /// Ids are assigned in list order; arrivals are processed in
    /// `(arrival_s, id)` order. The returned outcome contains every
    /// job exactly once across `completed` / `shed` / `failed`.
    pub fn run(&self, jobs: Vec<SortJob>) -> ServeOutcome {
        let mut run = Run::new(&self.cfg, jobs);
        while run.step() {}
        run.out
    }
}

/// One run's state, advanced by [`Run::step`].
struct Run<'a> {
    cfg: &'a ServeConfig,
    /// Jobs not yet arrived, in `(arrival_s, id)` order.
    arrivals: VecDeque<(u64, SortJob)>,
    /// Pool events not yet applied, in time order.
    pool: VecDeque<PoolEvent>,
    admission: AdmissionController,
    queue: Vec<Queued>,
    running: Vec<Running>,
    out: ServeOutcome,
}

impl<'a> Run<'a> {
    fn new(cfg: &'a ServeConfig, jobs: Vec<SortJob>) -> Run<'a> {
        let mut metrics = MetricsRegistry::new();
        metrics.add_counter("jobs_submitted", jobs.len() as f64);
        let mut arrivals: Vec<(u64, SortJob)> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, j)| (i as u64, j))
            .collect();
        arrivals.sort_by(|a, b| a.1.arrival_s.total_cmp(&b.1.arrival_s).then(a.0.cmp(&b.0)));
        let mut pool = cfg.pool_events.clone();
        pool.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
        Run {
            cfg,
            arrivals: arrivals.into(),
            pool: pool.into(),
            admission: AdmissionController::new(cfg.budget),
            queue: Vec::new(),
            running: Vec::new(),
            out: ServeOutcome {
                completed: Vec::new(),
                shed: Vec::new(),
                failed: Vec::new(),
                makespan_s: 0.0,
                admission_log: Vec::new(),
                metrics,
            },
        }
    }

    /// Process everything due at the next event time; `false` once no
    /// event is left.
    fn step(&mut self) -> bool {
        // Drain completions due strictly before the next arrival —
        // released budget must be re-offered to the queue first.
        // Pool events are a third time source: a queued job may be
        // waiting on nothing but a scheduled device join.
        let next_arrival = self.arrivals.front().map(|(_, j)| j.arrival_s);
        let next_finish = self
            .running
            .iter()
            .map(|r| r.finish_s)
            .min_by(f64::total_cmp);
        let next_pool = self.pool.front().map(|e| e.t_s);
        let Some(now) = [next_arrival, next_finish, next_pool]
            .into_iter()
            .flatten()
            .min_by(f64::total_cmp)
        else {
            debug_assert!(
                self.queue.is_empty(),
                "queue cannot outlive the event stream"
            );
            return false;
        };

        // 1. Completions at `now`: release reservations, file reports.
        // Ties with a pool event resolve in the job's favour — a
        // group whose finish time equals the loss instant completed.
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].finish_s <= now {
                let r = self.running.remove(i);
                self.admission.release(r.leader);
                for d in r.done {
                    self.complete(d);
                }
            } else {
                i += 1;
            }
        }

        // 2. Pool events at `now`: shrink or grow the device pool,
        // displace and re-queue, re-plan what still waits.
        while let Some(ev) = self.pool.front().copied().filter(|e| e.t_s <= now) {
            self.pool.pop_front();
            self.apply_pool_event(now, ev);
        }

        // 3. Arrivals at `now`: bounded queue or immediate shed.
        while self
            .arrivals
            .front()
            .is_some_and(|(_, j)| j.arrival_s <= now)
        {
            if let Some((id, job)) = self.arrivals.pop_front() {
                self.submit(id, job);
            }
        }

        // 4. Shed queued jobs whose admission deadline has passed.
        let mut i = 0;
        while i < self.queue.len() {
            match self.queue[i].job.deadline_s.filter(|&d| d < now) {
                Some(d) => {
                    let id = self.queue.remove(i).id;
                    let reason = format!("deadline {d:.3}s passed while queued (now {now:.3}s)");
                    self.shed(id, "jobs_shed_deadline", reason);
                }
                None => i += 1,
            }
        }

        // 5. Admission scan: priority order with backfill.
        self.admit(now);
        true
    }

    /// A job unadmittable on the pool *right now* is only shed once no
    /// scheduled join can still change that verdict.
    fn joins_pending(&self) -> bool {
        self.pool.iter().any(|e| e.kind == PoolEventKind::Join)
    }

    fn shed(&mut self, id: u64, counter: &str, reason: String) {
        self.out.metrics.add_counter(counter, 1.0);
        let e = HetSortError::Overloaded {
            job: Some(id),
            reason,
        };
        self.out.shed.push((id, e));
    }

    fn fail(&mut self, id: u64, e: HetSortError) {
        self.out.metrics.add_counter("jobs_failed", 1.0);
        self.out.failed.push((id, e));
    }

    /// File a finished member: counters, spans, report.
    fn complete(&mut self, d: Done) {
        let m = &mut self.out.metrics;
        m.add_counter("jobs_completed", 1.0);
        if d.recovered {
            m.add_counter("jobs_recovered", 1.0);
        }
        m.add_counter("bytes_sorted", d.bytes);
        m.record_all(d.spans);
        self.out.makespan_s = self.out.makespan_s.max(d.report.completed_s);
        self.out.completed.push(d.report);
    }

    /// Record who is in flight after a decision at `now`, for the
    /// budget audit.
    fn log_admission(&mut self, now: f64) {
        let reservations = self
            .running
            .iter()
            .map(|r| {
                let mut ids: Vec<u64> = r.done.iter().map(|d| d.report.id).collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        self.out.admission_log.push(AdmissionEvent {
            t_s: now,
            reservations,
            in_flight: self.admission.in_flight().clone(),
        });
    }

    fn submit(&mut self, id: u64, job: SortJob) {
        if self.queue.len() >= self.cfg.queue_cap {
            let reason = format!("queue full (depth {})", self.cfg.queue_cap);
            return self.shed(id, "jobs_shed_queue_full", reason);
        }
        self.place(id, job, Placing::Arrival);
    }

    /// The one placement verdict: build the job's plan on the pool as
    /// it stands and queue it, or shed it (only what can never fit, and
    /// only once no scheduled join can change that), or fail it, typed.
    fn place(&mut self, id: u64, job: SortJob, why: Placing) {
        let joins_pending = self.joins_pending();
        let placed = match build_plan_for(&job, self.admission.dead()) {
            Ok((plan, r)) => match self.admission.unfit(&r) {
                Some(unfit) if !joins_pending => {
                    let (counter, reason) = why.unfit(unfit);
                    return self.shed(id, counter, reason);
                }
                _ => Ok((plan, r)),
            },
            // Total outage with a join still scheduled: wait for it, a
            // queued job on the plan it holds, any other on its
            // full-pool plan. The dead-device check in `fits` keeps the
            // job from admitting; the join's re-plan revisits it.
            Err(HetSortError::Overloaded { .. }) if joins_pending => match why {
                Placing::Queued(plan, r) => Ok((*plan, r)),
                _ => Plan::build(job.config.clone(), job.data.len()).map(|p| {
                    let r = Residency::of_plan(&p);
                    (p, r)
                }),
            },
            Err(HetSortError::Overloaded { reason, .. }) => {
                return self.shed(id, "jobs_shed_pool", reason);
            }
            Err(e) => Err(e),
        };
        match placed {
            Ok((plan, residency)) => self.queue.push(Queued {
                id,
                job,
                plan,
                residency,
            }),
            Err(e) => self.fail(id, e),
        }
    }

    /// Apply one elastic-pool event.
    ///
    /// A **loss** shrinks the admission pool and displaces every
    /// in-flight reservation whose footprint touches the dead device
    /// (members that finished before `now` still complete; the rest
    /// re-queue — exempt from the queue cap, since the service already
    /// accepted them, never silently dropped). A **join** restores
    /// capacity. Either way the whole queue is re-planned on the pool
    /// as it now stands and an [`AdmissionEvent`] is logged so the
    /// audit trail records the pool change.
    fn apply_pool_event(&mut self, now: f64, ev: PoolEvent) {
        let (counter, verb) = match ev.kind {
            PoolEventKind::Lose => ("pool_losses", "lost"),
            PoolEventKind::Join => ("pool_joins", "joined"),
        };
        self.out.metrics.add_counter(counter, 1.0);
        let span = ObsSpan::other(format!("pool: GPU {} {verb}", ev.gpu), now, now);
        self.out.metrics.record(span);
        match ev.kind {
            PoolEventKind::Lose => {
                for leader in self.admission.lose_gpu(ev.gpu) {
                    let Some(idx) = self.running.iter().position(|r| r.leader == leader) else {
                        continue;
                    };
                    let r = self.running.remove(idx);
                    self.admission.release(r.leader);
                    for d in r.done {
                        if d.report.completed_s <= now {
                            // This member drained before the device
                            // vanished; its output stands.
                            self.complete(d);
                        } else {
                            self.out.metrics.add_counter("jobs_displaced", 1.0);
                            self.place(d.report.id, d.job, Placing::Displaced);
                        }
                    }
                }
            }
            PoolEventKind::Join => self.admission.join_gpu(ev.gpu),
        }
        for q in std::mem::take(&mut self.queue) {
            let held = Placing::Queued(Box::new(q.plan), q.residency);
            self.place(q.id, q.job, held);
        }
        self.log_admission(now);
    }

    fn admit(&mut self, now: f64) {
        // Priority first, then arrival, then id — stable and total.
        self.queue.sort_by(|a, b| {
            b.job
                .priority
                .cmp(&a.job.priority)
                .then(a.job.arrival_s.total_cmp(&b.job.arrival_s))
                .then(a.id.cmp(&b.id))
        });
        let max_elems = self.cfg.coalesce_max_elems;
        let small = |q: &Queued| max_elems > 0 && q.job.data.len() <= max_elems;
        let mut admitted_any = false;
        let mut i = 0;
        while i < self.queue.len() {
            // Gather the candidate group: the job itself plus, when it
            // is small, every later same-shape small job (backfill
            // order preserves priority fairness).
            let mut member_idx = vec![i];
            if small(&self.queue[i]) {
                let key = shape_key(&self.queue[i].job);
                for (j, q) in self.queue.iter().enumerate().skip(i + 1) {
                    if member_idx.len() >= COALESCE_MAX_JOBS {
                        break;
                    }
                    if small(q) && shape_key(&q.job) == key {
                        member_idx.push(j);
                    }
                }
            }
            let group_res = member_idx
                .iter()
                .map(|&j| &self.queue[j].residency)
                .fold(Residency::default(), |acc, r| acc.max(r));
            if !self.admission.fits(&group_res) {
                // Backfill: a blocked job does not block smaller ones
                // behind it.
                i += 1;
                continue;
            }

            // Remove members back-to-front so indices stay valid.
            member_idx.sort_unstable();
            let mut members: Vec<Queued> = Vec::with_capacity(member_idx.len());
            for &j in member_idx.iter().rev() {
                members.push(self.queue.remove(j));
            }
            members.reverse();
            let leader = members[0].id;
            let coalesced = members.len() > 1;
            if coalesced {
                let extra = (members.len() - 1) as f64;
                self.out.metrics.add_counter("jobs_coalesced", extra);
            }
            self.admission.reserve(leader, group_res);
            let run = self.execute_group(now, leader, coalesced, members);
            self.running.push(run);
            admitted_any = true;
            // Restart the scan: the queue shrank and indices moved.
            i = 0;
        }
        if admitted_any {
            self.log_admission(now);
        }
    }

    /// Execute a reservation's members sequentially from `now`:
    /// functional truth for outputs, simulated durations for the
    /// clock, job-tagged spans for observability.
    fn execute_group(
        &mut self,
        now: f64,
        leader: u64,
        coalesced: bool,
        members: Vec<Queued>,
    ) -> Running {
        let mut cursor = now;
        let mut done = Vec::new();
        for mut q in members {
            // Deadline enforcement at *dispatch*, not only while
            // queued: a coalesced member waiting behind slow siblings
            // (or a job admitted exactly at its deadline) must not
            // start after its deadline passed.
            if let Some(d) = q.job.deadline_s.filter(|&d| d < cursor) {
                let reason =
                    format!("deadline {d:.3}s passed before dispatch (dispatch at {cursor:.3}s)");
                self.shed(q.id, "jobs_shed_deadline_dispatch", reason);
                continue;
            }
            // Scope the fault schedule to this job: members sharing an
            // injector would make "fail the 2nd HtoD" depend on queue
            // order. A fork keeps the schedule, zeroes the counters.
            if let Some(inj) = q.plan.config.faults.clone() {
                q.plan.config.faults = Some(Arc::new(inj.fork()));
            }
            // Lower once, dispatch twice: the functional executor and
            // the simulator both consume the same validated dag, so a
            // job's output and its billed duration can never come from
            // structurally different schedules.
            let dag = PlanDag::from_plan(q.plan.clone());
            let (real, sim) = match execute_dag(&dag, &q.job.data)
                .and_then(|real| Ok((real, simulate_dag(&dag)?)))
            {
                Ok(rs) => rs,
                Err(e) => {
                    self.fail(q.id, e);
                    continue;
                }
            };
            let start = cursor;
            cursor += sim.total_s;
            // Queue wait + the job's simulated op spans, shifted onto
            // the service clock and tagged with the job id. Recorded
            // into the registry only if the job survives to completion.
            let wait = ObsSpan::other(format!("queue-wait j{}", q.id), q.job.arrival_s, start);
            let mut spans = vec![wait.for_job(q.id)];
            spans.extend(sim.spans().map(|s| {
                let mut s = s.for_job(q.id);
                s.t_start += start;
                s.t_end += start;
                s
            }));
            let bytes = (q.plan.config.elem_bytes.bytes() * q.job.data.len() as u64) as f64;
            done.push(Done {
                recovered: real.recovery.any(),
                report: JobReport {
                    id: q.id,
                    priority: q.job.priority,
                    arrival_s: q.job.arrival_s,
                    admitted_s: start,
                    completed_s: cursor,
                    sorted: real.sorted,
                    verified: real.verified,
                    coalesced_into: coalesced.then_some(leader),
                    recovered: real.recovery.any(),
                },
                job: q.job,
                spans,
                bytes,
            });
        }
        Running {
            leader,
            finish_s: cursor,
            done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use hetsort_core::{Approach, HetSortConfig};
    use hetsort_vgpu::platform1;

    fn small_cfg() -> HetSortConfig {
        HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
            .with_batch_elems(1_000)
            .with_pinned_elems(250)
    }

    fn budget_for(n_jobs: usize) -> ServeBudget {
        // One PipeMerge job at b_s = 1000 holds 2 streams × 2 × 8 B ×
        // 1000 = 32 kB device and, under the default double-buffered
        // staging, 2 streams × 3 buffers (two inbound halves + one
        // outbound) × 8 B × 250 = 12 kB pinned.
        ServeBudget {
            device_bytes: 32_000 * n_jobs as u64,
            pinned_bytes: 12_000 * n_jobs as u64,
        }
    }

    fn data(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = hetsort_prng::Rng::new(seed);
        (0..n).map(|_| rng.f64_unit()).collect()
    }

    #[test]
    fn single_job_completes_and_sorts() {
        let svc = SortService::new(ServeConfig::new(budget_for(1)));
        let out = svc.run(vec![SortJob::new(data(5_000, 1), small_cfg())]);
        assert_eq!(out.completed.len(), 1);
        assert!(out.shed.is_empty() && out.failed.is_empty());
        let r = &out.completed[0];
        assert!(r.verified);
        assert!(r.sorted.windows(2).all(|w| w[0] <= w[1]));
        assert!(out.makespan_s > 0.0);
        assert_eq!(out.metrics.counter("jobs_completed"), 1.0);
    }

    #[test]
    fn queue_full_sheds_typed_overloaded() {
        let cfg = ServeConfig::new(budget_for(1)).with_queue_cap(1);
        let svc = SortService::new(cfg);
        let jobs: Vec<SortJob> = (0..4)
            .map(|i| SortJob::new(data(2_000, i), small_cfg()))
            .collect();
        let out = svc.run(jobs);
        // One admits instantly, one queues, two shed.
        assert_eq!(out.completed.len() + out.shed.len(), 4);
        assert!(!out.shed.is_empty());
        for (id, e) in &out.shed {
            match e {
                HetSortError::Overloaded { job, reason } => {
                    assert_eq!(*job, Some(*id));
                    assert!(reason.contains("queue full"), "{reason}");
                }
                other => panic!("expected Overloaded, got {other}"),
            }
        }
    }

    #[test]
    fn oversized_job_is_shed_not_queued_forever() {
        let svc = SortService::new(ServeConfig::new(ServeBudget::new(1.0, 1.0)));
        let out = svc.run(vec![SortJob::new(data(2_000, 3), small_cfg())]);
        assert_eq!(out.completed.len(), 0);
        assert_eq!(out.shed.len(), 1);
        assert!(matches!(out.shed[0].1, HetSortError::Overloaded { .. }));
    }

    #[test]
    fn budget_serializes_admissions() {
        // Budget for exactly one job; three arrive together → they run
        // one after another, never overlapping.
        let svc = SortService::new(ServeConfig::new(budget_for(1)));
        let jobs: Vec<SortJob> = (0..3)
            .map(|i| SortJob::new(data(3_000, 10 + i), small_cfg()))
            .collect();
        let out = svc.run(jobs);
        assert_eq!(out.completed.len(), 3);
        let mut windows: Vec<(f64, f64)> = out
            .completed
            .iter()
            .map(|r| (r.admitted_s, r.completed_s))
            .collect();
        windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in windows.windows(2) {
            assert!(
                w[1].0 >= w[0].1 - 1e-12,
                "admissions overlap under a one-job budget: {windows:?}"
            );
        }
        // The admission log never shows more than one reservation.
        for ev in &out.admission_log {
            assert!(ev.reservations.len() <= 1, "{ev:?}");
        }
    }

    #[test]
    fn high_priority_jumps_the_queue() {
        let svc = SortService::new(ServeConfig::new(budget_for(1)));
        // Job 0 admits at t=0 (queue empty). Jobs 1 (low) and 2 (high)
        // wait; when budget frees, high goes first despite arriving
        // later by id.
        let jobs = vec![
            SortJob::new(data(3_000, 20), small_cfg()),
            SortJob::new(data(3_000, 21), small_cfg()).with_priority(Priority::Low),
            SortJob::new(data(3_000, 22), small_cfg()).with_priority(Priority::High),
        ];
        let out = svc.run(jobs);
        assert_eq!(out.completed.len(), 3);
        let find = |id: u64| {
            out.completed
                .iter()
                .find(|r| r.id == id)
                .map(|r| r.admitted_s)
        };
        let low = find(1).unwrap_or(f64::NAN);
        let high = find(2).unwrap_or(f64::NAN);
        assert!(high < low, "high {high} must admit before low {low}");
    }

    #[test]
    fn deadline_expiry_sheds_while_queued() {
        let svc = SortService::new(ServeConfig::new(budget_for(1)));
        let jobs = vec![
            SortJob::new(data(3_000, 30), small_cfg()),
            // Deadline far shorter than job 0's service time.
            SortJob::new(data(3_000, 31), small_cfg()).with_deadline(1e-9),
        ];
        let out = svc.run(jobs);
        assert_eq!(out.completed.len(), 1);
        assert_eq!(out.shed.len(), 1);
        let (id, e) = &out.shed[0];
        assert_eq!(*id, 1);
        match e {
            HetSortError::Overloaded { reason, .. } => {
                assert!(reason.contains("deadline"), "{reason}")
            }
            other => panic!("expected Overloaded, got {other}"),
        }
    }

    #[test]
    fn coalescing_groups_small_jobs_under_one_reservation() {
        let cfg = ServeConfig::new(budget_for(1)).with_coalescing(5_000);
        let svc = SortService::new(cfg);
        let jobs: Vec<SortJob> = (0..4)
            .map(|i| SortJob::new(data(2_000, 40 + i), small_cfg()))
            .collect();
        let out = svc.run(jobs);
        assert_eq!(out.completed.len(), 4);
        // All four share the leader's reservation.
        let leaders: Vec<Option<u64>> = out.completed.iter().map(|r| r.coalesced_into).collect();
        assert!(
            leaders.iter().filter(|l| l.is_some()).count() >= 3,
            "{leaders:?}"
        );
        assert_eq!(out.metrics.counter("jobs_coalesced"), 3.0);
        // One reservation in the log despite a one-job budget.
        assert!(out
            .admission_log
            .iter()
            .any(|ev| ev.reservations.iter().any(|r| r.len() == 4)));
    }

    #[test]
    fn runs_are_bitwise_deterministic() {
        let mk = || {
            let cfg = ServeConfig::new(budget_for(2)).with_coalescing(3_000);
            let svc = SortService::new(cfg);
            let jobs: Vec<SortJob> = (0..6)
                .map(|i| {
                    SortJob::new(
                        data(1_500 + 100 * usize::try_from(i).unwrap(), 50 + i),
                        small_cfg(),
                    )
                    .arriving_at(0.001 * i as f64)
                })
                .collect();
            svc.run(jobs)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.completed.len(), b.completed.len());
        for (x, y) in a.completed.iter().zip(&b.completed) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.admitted_s.to_bits(), y.admitted_s.to_bits());
            assert_eq!(x.completed_s.to_bits(), y.completed_s.to_bits());
            assert_eq!(x.sorted, y.sorted);
        }
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
    }

    #[test]
    fn dispatch_deadline_sheds_coalesced_member_that_waited_too_long() {
        // Two same-shape small jobs coalesce into one reservation at
        // t = 0. Member 1 runs after member 0, so by its dispatch time
        // the tiny deadline has passed — the queued-deadline scan
        // (which runs at t = 0, before any time elapses) cannot catch
        // it; only dispatch-time enforcement can.
        let cfg = ServeConfig::new(budget_for(1)).with_coalescing(5_000);
        let svc = SortService::new(cfg);
        let jobs = vec![
            SortJob::new(data(3_000, 70), small_cfg()),
            SortJob::new(data(3_000, 71), small_cfg()).with_deadline(1e-9),
        ];
        let out = svc.run(jobs);
        assert_eq!(out.completed.len(), 1);
        assert_eq!(out.completed[0].id, 0);
        assert_eq!(out.shed.len(), 1);
        let (id, e) = &out.shed[0];
        assert_eq!(*id, 1);
        match e {
            HetSortError::Overloaded { job, reason } => {
                assert_eq!(*job, Some(1));
                assert!(reason.contains("before dispatch"), "{reason}");
            }
            other => panic!("expected Overloaded, got {other}"),
        }
        assert_eq!(out.metrics.counter("jobs_shed_deadline_dispatch"), 1.0);
    }

    #[test]
    fn fault_schedules_are_scoped_per_job_not_per_queue() {
        // Two jobs share one injector armed to fail the 2nd HtoD. With
        // a shared schedule only the first job would see the fault (and
        // leave the counter spent); the per-dispatch fork gives each
        // job its own "2nd HtoD" — both must recover, regardless of
        // queue order.
        use std::sync::Arc;
        let inj = Arc::new(hetsort_vgpu::FaultInjector::new().fail_htod(2));
        let cfg = small_cfg().with_faults(inj);
        let svc = SortService::new(ServeConfig::new(budget_for(1)));
        let jobs: Vec<SortJob> = (0..2)
            .map(|i| SortJob::new(data(3_000, 80 + i), cfg.clone()))
            .collect();
        let out = svc.run(jobs);
        assert_eq!(out.completed.len(), 2, "failed: {:?}", out.failed);
        for r in &out.completed {
            assert!(r.verified);
            assert!(r.recovered, "job {} never saw its injected fault", r.id);
        }
        assert_eq!(out.metrics.counter("jobs_recovered"), 2.0);
    }

    #[test]
    fn pool_loss_displaces_and_requeues_never_drops() {
        use crate::pool::{PoolEvent, PoolEventKind};
        // One job admits at t = 0 on a healthy pool; GPU 0 drops out
        // mid-run. The job is displaced and re-queued — platform1 has
        // a single GPU, so nothing can ever fit again and the job is
        // shed with a typed error, not dropped or panicked.
        let cfg = ServeConfig::new(budget_for(1)).with_pool_events(vec![PoolEvent {
            t_s: 1e-6,
            gpu: 0,
            kind: PoolEventKind::Lose,
        }]);
        let svc = SortService::new(cfg);
        let out = svc.run(vec![SortJob::new(data(5_000, 90), small_cfg())]);
        assert_eq!(out.completed.len() + out.shed.len() + out.failed.len(), 1);
        assert!(out.completed.is_empty());
        assert_eq!(out.metrics.counter("pool_losses"), 1.0);
        assert_eq!(out.metrics.counter("jobs_displaced"), 1.0);
        assert!(matches!(
            out.shed.first(),
            Some((0, HetSortError::Overloaded { .. }))
        ));
    }

    #[test]
    fn pool_join_readmits_a_waiting_job() {
        use crate::pool::{PoolEvent, PoolEventKind};
        // GPU 0 is lost before the job arrives and rejoins later: the
        // job must wait out the outage, then admit and complete.
        let cfg = ServeConfig::new(budget_for(1)).with_pool_events(vec![
            PoolEvent {
                t_s: 0.0,
                gpu: 0,
                kind: PoolEventKind::Lose,
            },
            PoolEvent {
                t_s: 0.5,
                gpu: 0,
                kind: PoolEventKind::Join,
            },
        ]);
        let svc = SortService::new(cfg);
        let out = svc.run(vec![
            SortJob::new(data(3_000, 91), small_cfg()).arriving_at(0.01)
        ]);
        assert_eq!(out.completed.len(), 1, "shed: {:?}", out.shed);
        let r = &out.completed[0];
        assert!(r.verified);
        assert!(
            r.admitted_s >= 0.5,
            "admitted at {} during the outage",
            r.admitted_s
        );
        assert_eq!(out.metrics.counter("pool_joins"), 1.0);
    }

    #[test]
    fn total_outage_parks_running_and_queued_jobs_until_the_join() {
        use crate::pool::{PoolEvent, PoolEventKind};
        // A one-job budget on PLATFORM1's single GPU: job 0 admits at
        // t = 0, job 1 queues behind it. Losing GPU 0 mid-run empties
        // the pool while a join is still scheduled, so the displaced
        // job parks on its full-pool plan and the queued one keeps its
        // plan; neither may admit, or be shed, before the join.
        let join_s = 0.5;
        let cfg = ServeConfig::new(budget_for(1)).with_pool_events(vec![
            PoolEvent {
                t_s: 1e-6,
                gpu: 0,
                kind: PoolEventKind::Lose,
            },
            PoolEvent {
                t_s: join_s,
                gpu: 0,
                kind: PoolEventKind::Join,
            },
        ]);
        let svc = SortService::new(cfg);
        let out = svc.run(vec![
            SortJob::new(data(3_000, 92), small_cfg()),
            SortJob::new(data(3_000, 93), small_cfg()),
        ]);
        assert!(out.shed.is_empty(), "shed: {:?}", out.shed);
        assert!(out.failed.is_empty(), "failed: {:?}", out.failed);
        assert_eq!(out.completed.len(), 2);
        for r in &out.completed {
            assert!(r.verified, "job {} unverified", r.id);
            assert!(
                r.admitted_s >= join_s,
                "job {} admitted at {} during the outage",
                r.id,
                r.admitted_s
            );
        }
        assert_eq!(out.metrics.counter("jobs_displaced"), 1.0);
    }

    #[test]
    fn spans_carry_job_ids() {
        let svc = SortService::new(ServeConfig::new(budget_for(2)));
        let out = svc.run(vec![
            SortJob::new(data(2_000, 60), small_cfg()),
            SortJob::new(data(2_000, 61), small_cfg()),
        ]);
        let ids: std::collections::BTreeSet<u64> =
            out.metrics.spans().iter().filter_map(|s| s.job).collect();
        assert_eq!(ids, [0u64, 1].into_iter().collect());
        // Every span is job-tagged (the service records nothing else).
        assert!(out.metrics.spans().iter().all(|s| s.job.is_some()));
    }
}
