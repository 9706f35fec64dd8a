//! The multi-tenant sort service: a deterministic virtual-time event
//! loop over arrivals, admissions, and completions.
//!
//! Jobs enter a bounded queue; the [`AdmissionController`] lets them
//! start only while the aggregate device + pinned footprint (computed
//! with the analyzer's [`Residency`] math from each job's built
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

use std::collections::BTreeSet;
use std::sync::Arc;

use hetsort_analyze::Residency;
use hetsort_core::{execute_dag, simulate_dag, HetSortError, Plan, PlanDag};
use hetsort_obs::{MetricsRegistry, ObsSpan, OpClass};

use crate::admission::{footprint_max, AdmissionController, ServeBudget};
use crate::job::{JobReport, SortJob};
use crate::pool::{PoolEvent, PoolEventKind};

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
    /// Most members a coalesced group may hold (bounds the latency a
    /// member adds to the ones behind it).
    pub coalesce_max_jobs: usize,
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
            coalesce_max_jobs: 8,
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
    /// plus one queue-wait span per admitted job) and service counters.
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

/// File a finished member: counters, spans, report.
fn file_completed(d: Done, outcome: &mut ServeOutcome, metrics: &mut MetricsRegistry) {
    metrics.add_counter("jobs_completed", 1.0);
    if d.recovered {
        metrics.add_counter("jobs_recovered", 1.0);
    }
    metrics.add_counter("bytes_sorted", d.bytes);
    metrics.record_all(d.spans);
    outcome.makespan_s = outcome.makespan_s.max(d.report.completed_s);
    outcome.completed.push(d.report);
}

/// Build a job's plan against the pool as it stands: on a full pool
/// this is a plain [`Plan::build`]; with devices missing, the platform
/// is filtered to the survivors and the plan relabelled
/// ([`Plan::on_devices`]) so its batches account against physical GPU
/// indices. An empty pool is reported as a typed `Overloaded`.
fn build_plan_for(
    job: &SortJob,
    dead: &BTreeSet<usize>,
) -> Result<(Plan, Residency), HetSortError> {
    let n = job.data.len();
    if dead.is_empty() {
        let plan = Plan::build(job.config.clone(), n)?;
        let residency = Residency::of_plan(&plan);
        return Ok((plan, residency));
    }
    let alive: Vec<usize> = (0..job.config.platform.gpus.len())
        .filter(|g| !dead.contains(g))
        .collect();
    if alive.is_empty() {
        return Err(HetSortError::Overloaded {
            job: None,
            reason: "device pool is empty: every GPU has left the service".to_string(),
        });
    }
    let mut cfg = job.config.clone();
    cfg.platform.gpus = alive
        .iter()
        .map(|&g| cfg.platform.gpus[g].clone())
        .collect();
    let plan = Plan::build(cfg, n)?.on_devices(alive)?;
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
        let mut metrics = MetricsRegistry::new();
        metrics.add_counter("jobs_submitted", jobs.len() as f64);

        let mut pending: Vec<(u64, SortJob)> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, j)| (i as u64, j))
            .collect();
        pending.sort_by(|a, b| a.1.arrival_s.total_cmp(&b.1.arrival_s).then(a.0.cmp(&b.0)));
        let mut pending = std::collections::VecDeque::from(pending);

        let mut admission = AdmissionController::new(self.cfg.budget);
        let mut queue: Vec<Queued> = Vec::new();
        let mut running: Vec<Running> = Vec::new();
        let mut pool: std::collections::VecDeque<PoolEvent> = {
            let mut evs = self.cfg.pool_events.clone();
            evs.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
            evs.into()
        };
        let mut outcome = ServeOutcome {
            completed: Vec::new(),
            shed: Vec::new(),
            failed: Vec::new(),
            makespan_s: 0.0,
            admission_log: Vec::new(),
            metrics: MetricsRegistry::new(),
        };
        let mut now: f64;

        loop {
            // Drain completions due strictly before the next arrival —
            // released budget must be re-offered to the queue first.
            // Pool events are a third time source: a queued job may be
            // waiting on nothing but a scheduled device join.
            let next_arrival = pending.front().map(|(_, j)| j.arrival_s);
            let next_finish = running.iter().map(|r| r.finish_s).min_by(f64::total_cmp);
            let next_pool = pool.front().map(|e| e.t_s);
            now = match [next_arrival, next_finish, next_pool]
                .into_iter()
                .flatten()
                .min_by(f64::total_cmp)
            {
                Some(t) => t,
                None => {
                    debug_assert!(queue.is_empty(), "queue cannot outlive the event stream");
                    break;
                }
            };

            // 1. Completions at `now`: release reservations, file reports.
            // Ties with a pool event resolve in the job's favour — a
            // group whose finish time equals the loss instant completed.
            let mut i = 0;
            while i < running.len() {
                if running[i].finish_s <= now {
                    let r = running.remove(i);
                    admission.release(r.leader);
                    for d in r.done {
                        file_completed(d, &mut outcome, &mut metrics);
                    }
                } else {
                    i += 1;
                }
            }

            // 2. Pool events at `now`: shrink or grow the device pool,
            // displace and re-queue, re-plan what still waits.
            while pool.front().is_some_and(|e| e.t_s <= now) {
                if let Some(ev) = pool.pop_front() {
                    // A job unadmittable on the pool *right now* is
                    // only shed once no scheduled join can still
                    // change that verdict.
                    let joins_pending = pool.iter().any(|e| e.kind == PoolEventKind::Join);
                    self.apply_pool_event(
                        now,
                        ev,
                        joins_pending,
                        &mut queue,
                        &mut running,
                        &mut admission,
                        &mut outcome,
                        &mut metrics,
                    );
                }
            }

            // 3. Arrivals at `now`: bounded queue or immediate shed.
            let joins_pending = pool.iter().any(|e| e.kind == PoolEventKind::Join);
            while pending.front().is_some_and(|(_, j)| j.arrival_s <= now) {
                if let Some((id, job)) = pending.pop_front() {
                    self.submit(
                        id,
                        job,
                        joins_pending,
                        &mut queue,
                        &admission,
                        &mut outcome,
                        &mut metrics,
                    );
                }
            }

            // 4. Shed queued jobs whose admission deadline has passed.
            let mut i = 0;
            while i < queue.len() {
                let expired = queue[i].job.deadline_s.filter(|&d| d < now);
                if let Some(d) = expired {
                    let q = queue.remove(i);
                    metrics.add_counter("jobs_shed_deadline", 1.0);
                    outcome.shed.push((
                        q.id,
                        HetSortError::Overloaded {
                            job: Some(q.id),
                            reason: format!("deadline {d:.3}s passed while queued (now {now:.3}s)"),
                        },
                    ));
                } else {
                    i += 1;
                }
            }

            // 5. Admission scan: priority order with backfill.
            self.admit(
                now,
                &mut queue,
                &mut running,
                &mut admission,
                &mut outcome,
                &mut metrics,
            );
        }

        outcome.metrics.merge(metrics);
        outcome
    }

    #[allow(clippy::too_many_arguments)]
    fn submit(
        &self,
        id: u64,
        job: SortJob,
        joins_pending: bool,
        queue: &mut Vec<Queued>,
        admission: &AdmissionController,
        outcome: &mut ServeOutcome,
        metrics: &mut MetricsRegistry,
    ) {
        if queue.len() >= self.cfg.queue_cap {
            metrics.add_counter("jobs_shed_queue_full", 1.0);
            outcome.shed.push((
                id,
                HetSortError::Overloaded {
                    job: Some(id),
                    reason: format!("queue full (depth {})", self.cfg.queue_cap),
                },
            ));
            return;
        }
        let (plan, residency) = match build_plan_for(&job, admission.dead()) {
            Ok(pr) => pr,
            Err(HetSortError::Overloaded { reason, .. }) if !joins_pending => {
                metrics.add_counter("jobs_shed_pool", 1.0);
                outcome.shed.push((
                    id,
                    HetSortError::Overloaded {
                        job: Some(id),
                        reason,
                    },
                ));
                return;
            }
            Err(HetSortError::Overloaded { .. }) => {
                // Total outage with a join still scheduled: park the
                // job on its full-pool plan. The dead-device check in
                // `fits` keeps it from admitting; the join's queue
                // re-plan revisits it.
                match Plan::build(job.config.clone(), job.data.len()) {
                    Ok(p) => {
                        let r = Residency::of_plan(&p);
                        (p, r)
                    }
                    Err(e) => {
                        metrics.add_counter("jobs_failed", 1.0);
                        outcome.failed.push((id, e));
                        return;
                    }
                }
            }
            Err(e) => {
                metrics.add_counter("jobs_failed", 1.0);
                outcome.failed.push((id, e));
                return;
            }
        };
        if !admission.ever_fits(&residency) && !joins_pending {
            metrics.add_counter("jobs_shed_oversized", 1.0);
            outcome.shed.push((
                id,
                HetSortError::Overloaded {
                    job: Some(id),
                    reason: format!(
                        "footprint (device peak {:.3e} B, pinned {:.3e} B) exceeds the \
                         service budget (device {:.3e} B/GPU, pinned {:.3e} B) — \
                         unadmittable at any load",
                        residency.device_peak(),
                        residency.pinned_bytes,
                        self.cfg.budget.device_bytes,
                        self.cfg.budget.pinned_bytes,
                    ),
                },
            ));
            return;
        }
        queue.push(Queued {
            id,
            job,
            plan,
            residency,
        });
    }

    /// Apply one elastic-pool event.
    ///
    /// A **loss** shrinks the admission pool, displaces every in-flight
    /// reservation whose footprint touches the dead device (members
    /// that finished before `now` still complete; the rest re-queue —
    /// exempt from the queue cap, never silently dropped), and re-plans
    /// the whole queue on the survivors. A **join** restores capacity
    /// and re-plans the queue so waiting jobs can spread back out.
    /// Either way an [`AdmissionEvent`] is logged so the audit trail
    /// records the pool change.
    #[allow(clippy::too_many_arguments)]
    fn apply_pool_event(
        &self,
        now: f64,
        ev: PoolEvent,
        joins_pending: bool,
        queue: &mut Vec<Queued>,
        running: &mut Vec<Running>,
        admission: &mut AdmissionController,
        outcome: &mut ServeOutcome,
        metrics: &mut MetricsRegistry,
    ) {
        match ev.kind {
            PoolEventKind::Lose => {
                metrics.add_counter("pool_losses", 1.0);
                outcome.metrics.record(ObsSpan::new(
                    OpClass::Other,
                    format!("pool: GPU {} lost", ev.gpu),
                    now,
                    now,
                ));
                for leader in admission.lose_gpu(ev.gpu) {
                    let Some(idx) = running.iter().position(|r| r.leader == leader) else {
                        continue;
                    };
                    let r = running.remove(idx);
                    admission.release(r.leader);
                    for d in r.done {
                        if d.report.completed_s <= now {
                            // This member drained before the device
                            // vanished; its output stands.
                            file_completed(d, outcome, metrics);
                        } else {
                            metrics.add_counter("jobs_displaced", 1.0);
                            self.requeue_displaced(
                                d,
                                joins_pending,
                                queue,
                                admission,
                                outcome,
                                metrics,
                            );
                        }
                    }
                }
                self.replan_queue(joins_pending, queue, admission, outcome, metrics);
            }
            PoolEventKind::Join => {
                metrics.add_counter("pool_joins", 1.0);
                outcome.metrics.record(ObsSpan::new(
                    OpClass::Other,
                    format!("pool: GPU {} joined", ev.gpu),
                    now,
                    now,
                ));
                admission.join_gpu(ev.gpu);
                self.replan_queue(joins_pending, queue, admission, outcome, metrics);
            }
        }
        let mut reservations: Vec<Vec<u64>> = Vec::new();
        for r in running.iter() {
            let mut ids: Vec<u64> = r.done.iter().map(|d| d.report.id).collect();
            ids.sort_unstable();
            reservations.push(ids);
        }
        outcome.admission_log.push(AdmissionEvent {
            t_s: now,
            reservations,
            in_flight: admission.in_flight().clone(),
        });
    }

    /// Put a displaced member back on the queue with a plan rebuilt on
    /// the surviving devices. Deliberately exempt from the queue cap:
    /// the service already accepted this job, so a pool loss must not
    /// turn into a silent drop. Only a job that can *never* fit on the
    /// shrunk pool is shed, typed.
    fn requeue_displaced(
        &self,
        d: Done,
        joins_pending: bool,
        queue: &mut Vec<Queued>,
        admission: &AdmissionController,
        outcome: &mut ServeOutcome,
        metrics: &mut MetricsRegistry,
    ) {
        let id = d.report.id;
        match build_plan_for(&d.job, admission.dead()) {
            Ok((plan, residency)) if admission.ever_fits(&residency) || joins_pending => {
                queue.push(Queued {
                    id,
                    job: d.job,
                    plan,
                    residency,
                });
            }
            Ok((_, residency)) => {
                metrics.add_counter("jobs_shed_pool", 1.0);
                outcome.shed.push((
                    id,
                    HetSortError::Overloaded {
                        job: Some(id),
                        reason: format!(
                            "displaced by device loss and unadmittable on the shrunk pool \
                             (device peak {:.3e} B vs budget {:.3e} B/GPU)",
                            residency.device_peak(),
                            self.cfg.budget.device_bytes,
                        ),
                    },
                ));
            }
            Err(HetSortError::Overloaded { .. }) if joins_pending => {
                // Total outage with a join still scheduled: park the
                // displaced job on its full-pool plan until then.
                match Plan::build(d.job.config.clone(), d.job.data.len()) {
                    Ok(p) => {
                        let residency = Residency::of_plan(&p);
                        queue.push(Queued {
                            id,
                            job: d.job,
                            plan: p,
                            residency,
                        });
                    }
                    Err(e) => {
                        metrics.add_counter("jobs_failed", 1.0);
                        outcome.failed.push((id, e));
                    }
                }
            }
            Err(HetSortError::Overloaded { reason, .. }) => {
                metrics.add_counter("jobs_shed_pool", 1.0);
                outcome.shed.push((
                    id,
                    HetSortError::Overloaded {
                        job: Some(id),
                        reason,
                    },
                ));
            }
            Err(e) => {
                metrics.add_counter("jobs_failed", 1.0);
                outcome.failed.push((id, e));
            }
        }
    }

    /// Rebuild every queued job's plan against the current pool. Jobs
    /// whose footprint can no longer ever fit are shed, typed.
    fn replan_queue(
        &self,
        joins_pending: bool,
        queue: &mut Vec<Queued>,
        admission: &AdmissionController,
        outcome: &mut ServeOutcome,
        metrics: &mut MetricsRegistry,
    ) {
        let mut i = 0;
        while i < queue.len() {
            match build_plan_for(&queue[i].job, admission.dead()) {
                Ok((plan, residency)) if admission.ever_fits(&residency) || joins_pending => {
                    queue[i].plan = plan;
                    queue[i].residency = residency;
                    i += 1;
                }
                Ok((_, residency)) => {
                    let q = queue.remove(i);
                    metrics.add_counter("jobs_shed_pool", 1.0);
                    outcome.shed.push((
                        q.id,
                        HetSortError::Overloaded {
                            job: Some(q.id),
                            reason: format!(
                                "unadmittable on the shrunk pool (device peak {:.3e} B \
                                 vs budget {:.3e} B/GPU)",
                                residency.device_peak(),
                                self.cfg.budget.device_bytes,
                            ),
                        },
                    ));
                }
                Err(HetSortError::Overloaded { .. }) if joins_pending => {
                    // Total outage, join scheduled: leave the entry on
                    // its current plan — `fits` blocks it until then.
                    i += 1;
                }
                Err(HetSortError::Overloaded { reason, .. }) => {
                    let q = queue.remove(i);
                    metrics.add_counter("jobs_shed_pool", 1.0);
                    outcome.shed.push((
                        q.id,
                        HetSortError::Overloaded {
                            job: Some(q.id),
                            reason,
                        },
                    ));
                }
                Err(e) => {
                    let q = queue.remove(i);
                    metrics.add_counter("jobs_failed", 1.0);
                    outcome.failed.push((q.id, e));
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn admit(
        &self,
        now: f64,
        queue: &mut Vec<Queued>,
        running: &mut Vec<Running>,
        admission: &mut AdmissionController,
        outcome: &mut ServeOutcome,
        metrics: &mut MetricsRegistry,
    ) {
        // Priority first, then arrival, then id — stable and total.
        queue.sort_by(|a, b| {
            b.job
                .priority
                .cmp(&a.job.priority)
                .then(a.job.arrival_s.total_cmp(&b.job.arrival_s))
                .then(a.id.cmp(&b.id))
        });
        let mut admitted_any = false;
        let mut i = 0;
        while i < queue.len() {
            // Gather the candidate group: the job itself plus, when it
            // is small, every later same-shape small job (backfill
            // order preserves priority fairness).
            let small = |q: &Queued| {
                self.cfg.coalesce_max_elems > 0 && q.job.data.len() <= self.cfg.coalesce_max_elems
            };
            let mut member_idx = vec![i];
            if small(&queue[i]) {
                let key = shape_key(&queue[i].job);
                for (j, q) in queue.iter().enumerate().skip(i + 1) {
                    if member_idx.len() >= self.cfg.coalesce_max_jobs {
                        break;
                    }
                    if small(q) && shape_key(&q.job) == key {
                        member_idx.push(j);
                    }
                }
            }
            let group_res = member_idx
                .iter()
                .map(|&j| &queue[j].residency)
                .fold(Residency::default(), |acc, r| footprint_max(&acc, r));
            if !admission.fits(&group_res) {
                // Backfill: a blocked job does not block smaller ones
                // behind it.
                i += 1;
                continue;
            }

            // Remove members back-to-front so indices stay valid.
            member_idx.sort_unstable();
            let mut members: Vec<Queued> = Vec::with_capacity(member_idx.len());
            for &j in member_idx.iter().rev() {
                members.push(queue.remove(j));
            }
            members.reverse();
            let leader = members[0].id;
            let coalesced = members.len() > 1;
            if coalesced {
                metrics.add_counter("jobs_coalesced", (members.len() - 1) as f64);
            }
            admission.reserve(leader, group_res);
            let run = self.execute_group(now, leader, coalesced, members, outcome, metrics);
            running.push(run);
            admitted_any = true;
            // Restart the scan: the queue shrank and indices moved.
            i = 0;
        }
        if admitted_any {
            let mut reservations: Vec<Vec<u64>> = Vec::new();
            for r in running.iter() {
                let mut ids: Vec<u64> = r.done.iter().map(|d| d.report.id).collect();
                ids.sort_unstable();
                reservations.push(ids);
            }
            outcome.admission_log.push(AdmissionEvent {
                t_s: now,
                reservations,
                in_flight: admission.in_flight().clone(),
            });
        }
    }

    /// Execute a reservation's members sequentially from `now`:
    /// functional truth for outputs, simulated durations for the
    /// clock, job-tagged spans for observability.
    fn execute_group(
        &self,
        now: f64,
        leader: u64,
        coalesced: bool,
        members: Vec<Queued>,
        outcome: &mut ServeOutcome,
        metrics: &mut MetricsRegistry,
    ) -> Running {
        let mut cursor = now;
        let mut done = Vec::new();
        for mut q in members {
            // Deadline enforcement at *dispatch*, not only while
            // queued: a coalesced member waiting behind slow siblings
            // (or a job admitted exactly at its deadline) must not
            // start after its deadline passed.
            if let Some(d) = q.job.deadline_s {
                if d < cursor {
                    metrics.add_counter("jobs_shed_deadline_dispatch", 1.0);
                    outcome.shed.push((
                        q.id,
                        HetSortError::Overloaded {
                            job: Some(q.id),
                            reason: format!(
                                "deadline {d:.3}s passed before dispatch \
                                 (dispatch at {cursor:.3}s)"
                            ),
                        },
                    ));
                    continue;
                }
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
            let real = match execute_dag(&dag, &q.job.data) {
                Ok(r) => r,
                Err(e) => {
                    metrics.add_counter("jobs_failed", 1.0);
                    outcome.failed.push((q.id, e));
                    continue;
                }
            };
            let sim = match simulate_dag(&dag) {
                Ok(r) => r,
                Err(e) => {
                    metrics.add_counter("jobs_failed", 1.0);
                    outcome.failed.push((q.id, e));
                    continue;
                }
            };
            let start = cursor;
            cursor += sim.total_s;
            // Queue wait + the job's simulated op spans, shifted onto
            // the service clock and tagged with the job id. Recorded
            // into the registry only if the job survives to completion.
            let mut spans = vec![ObsSpan::new(
                OpClass::Other,
                format!("queue-wait j{}", q.id),
                q.job.arrival_s,
                start,
            )
            .for_job(q.id)];
            spans.extend(sim.metrics().spans().iter().map(|s| {
                let mut s = s.clone().for_job(q.id);
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
    fn hybrid_job_completes_through_the_dag_engine() {
        // A tenant submitting a hybrid-routed config goes through the
        // same admission/dispatch path; the CpuMerge lowering happens
        // inside the job's own dag and changes nothing observable at
        // the service layer except where its merges ran.
        use hetsort_core::HybridMode;
        let svc = SortService::new(ServeConfig::new(budget_for(2)));
        let d = data(6_000, 7);
        let hybrid_cfg = small_cfg().with_hybrid(HybridMode::Auto);
        let out = svc.run(vec![
            SortJob::new(d.clone(), small_cfg()),
            SortJob::new(d, hybrid_cfg),
        ]);
        assert_eq!(out.completed.len(), 2, "hybrid job must not shed or fail");
        assert!(out.shed.is_empty() && out.failed.is_empty());
        let bits =
            |r: &crate::job::JobReport| r.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(out.completed.iter().all(|r| r.verified));
        assert_eq!(
            bits(&out.completed[0]),
            bits(&out.completed[1]),
            "hybrid routing must not change the sorted output"
        );
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
