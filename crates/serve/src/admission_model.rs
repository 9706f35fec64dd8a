//! [`SchedModel`] of the admission state machine under `PoolEvent`
//! lose/join sequences — the serve-side half of the schedule-space
//! explorer (`hetsort-analyze::explore`).
//!
//! Threads are the jobs (admit → run → release) plus one pool thread
//! playing an ordered lose/join script, so the explorer covers every
//! alignment of reservations, releases, displacements, and rejoins.
//! Two independent layers keep the model honest:
//!
//! * a `MirrorCtl` re-implements [`AdmissionController`] semantics
//!   op for op — including the empty-state round-off reset — with
//!   injectable [`AdmissionDefect`]s for the mutation kill-suite;
//! * when no defect is seeded, the model *also* drives a real
//!   [`AdmissionController`] in lockstep and reports any divergence —
//!   so the model checking applies to the shipped controller, not a
//!   drifted copy of it.
//!
//! The **budget-safety invariant** is checked against ground truth
//! (the sum of *running* jobs' footprints, not the controller's own
//! counters, which a defect may corrupt): no interleaving may
//! overcommit any device or the pinned pool, keep a running job on a
//! dead device, or leak reservations past quiescence. Violations are
//! [`FindingClass::Budget`] findings; admission livelocks (a job
//! forever queued though `ever_fits` holds) surface as the engine's
//! reachable deadlock.

use std::collections::BTreeSet;

use hetsort_analyze::explore::{AdmissionDefect, Footprint, Res, SchedModel};
use hetsort_analyze::{Finding, FindingClass, Residency};

use crate::admission::{AdmissionController, ServeBudget};
use crate::pool::PoolEventKind;

/// One modeled job: a footprint that gets reserved, held, released.
#[derive(Debug, Clone)]
pub struct ModelJob {
    /// Reservation key.
    pub id: u64,
    /// The job's full-run footprint.
    pub fp: Residency,
}

/// A scripted admission scenario: jobs racing a lose/join schedule.
#[derive(Debug, Clone)]
pub struct AdmissionScenario {
    /// Scenario name (appears in findings).
    pub name: String,
    /// The budget under test.
    pub budget: ServeBudget,
    /// Jobs, one model thread each.
    pub jobs: Vec<ModelJob>,
    /// Ordered pool script (kind, gpu).
    pub events: Vec<(PoolEventKind, usize)>,
    /// Seeded controller defect (`None` = model the shipped
    /// semantics and cross-validate against the real controller).
    pub defect: Option<AdmissionDefect>,
}

/// Exact reimplementation of [`AdmissionController`]'s bookkeeping
/// with seedable defects.
#[derive(Debug, Clone)]
struct MirrorCtl {
    budget: ServeBudget,
    agg: Residency,
    reservations: Vec<(u64, Residency)>,
    dead: BTreeSet<usize>,
    defect: Option<AdmissionDefect>,
}

impl MirrorCtl {
    fn new(budget: ServeBudget, defect: Option<AdmissionDefect>) -> MirrorCtl {
        MirrorCtl {
            budget,
            agg: Residency::default(),
            reservations: Vec::new(),
            dead: BTreeSet::new(),
            defect,
        }
    }

    fn fits(&self, r: &Residency) -> bool {
        let alive_ok = r
            .device_bytes
            .iter()
            .all(|(gpu, b)| *b <= 0.0 || !self.dead.contains(gpu));
        let pinned_ok = self.agg.pinned_bytes + r.pinned_bytes <= self.budget.pinned_bytes;
        let device_ok = r.device_bytes.iter().all(|(gpu, b)| {
            self.agg.device_bytes.get(gpu).copied().unwrap_or(0.0) + b <= self.budget.device_bytes
        });
        alive_ok && pinned_ok && device_ok
    }

    fn ever_fits(&self, r: &Residency) -> bool {
        r.device_bytes
            .iter()
            .all(|(gpu, b)| *b <= 0.0 || !self.dead.contains(gpu))
            && r.pinned_bytes <= self.budget.pinned_bytes
            && r.device_bytes
                .values()
                .all(|b| *b <= self.budget.device_bytes)
    }

    fn reserve(&mut self, id: u64, r: Residency) {
        self.agg.add(&r);
        self.reservations.push((id, r));
    }

    fn release(&mut self, id: u64) -> bool {
        match self.reservations.iter().position(|(k, _)| *k == id) {
            Some(i) => {
                let (_, r) = self.reservations.remove(i);
                self.agg.sub(&r);
                if self.defect == Some(AdmissionDefect::DoubleRelease) {
                    // Seeded defect: the footprint comes off twice, so
                    // the controller under-counts what is in flight.
                    self.agg.sub(&r);
                }
                if self.reservations.is_empty()
                    && self.defect != Some(AdmissionDefect::NoDrainReset)
                {
                    // The shipped empty-state round-off reset;
                    // NoDrainReset seeds its omission.
                    self.agg = Residency::default();
                }
                true
            }
            None => false,
        }
    }

    fn lose_gpu(&mut self, gpu: usize) -> Vec<u64> {
        self.dead.insert(gpu);
        self.reservations
            .iter()
            .filter(|(_, r)| r.device_bytes.get(&gpu).copied().unwrap_or(0.0) > 0.0)
            .map(|(k, _)| *k)
            .collect()
    }

    fn join_gpu(&mut self, gpu: usize) {
        self.dead.remove(&gpu);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Shed,
}

/// Exhaustive-interleaving model of one [`AdmissionScenario`].
pub struct AdmissionModel {
    scenario: AdmissionScenario,
    mirror: MirrorCtl,
    /// The shipped controller, driven in lockstep when no defect is
    /// seeded.
    real: Option<AdmissionController>,
    state: Vec<JobState>,
    event_pc: usize,
}

impl AdmissionModel {
    /// Build the model for a scenario.
    pub fn new(scenario: AdmissionScenario) -> AdmissionModel {
        let mirror = MirrorCtl::new(scenario.budget, scenario.defect);
        let real = match scenario.defect {
            None => Some(AdmissionController::new(scenario.budget)),
            Some(_) => None,
        };
        let state = vec![JobState::Queued; scenario.jobs.len()];
        AdmissionModel {
            scenario,
            mirror,
            real,
            state,
            event_pc: 0,
        }
    }

    fn pool_thread(&self) -> usize {
        self.scenario.jobs.len()
    }

    /// Does any Join remain in the unplayed script? While one does, a
    /// currently-impossible job keeps waiting instead of shedding.
    fn join_pending(&self) -> bool {
        self.scenario.events[self.event_pc..]
            .iter()
            .any(|(k, _)| *k == PoolEventKind::Join)
    }

    fn budget_finding(&self, code: &'static str, message: String) -> Finding {
        Finding {
            class: FindingClass::Budget,
            code,
            message: format!("{}: {message}", self.scenario.name),
            ops: Vec::new(),
        }
    }

    /// Ground-truth budget safety: sum the *running* jobs' footprints
    /// directly — a defective controller's counters are not trusted.
    fn ground_truth(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        let mut truth = Residency::default();
        for (j, job) in self.scenario.jobs.iter().enumerate() {
            if self.state[j] == JobState::Running {
                truth.add(&job.fp);
                if let Some(gpu) = job
                    .fp
                    .device_bytes
                    .iter()
                    .find(|(g, b)| **b > 0.0 && self.mirror.dead.contains(g))
                    .map(|(g, _)| *g)
                {
                    out.push(self.budget_finding(
                        "dead-reservation",
                        format!("job {} runs on GPU {gpu} after the pool lost it", job.id),
                    ));
                }
            }
        }
        let eps = 1e-9;
        for (gpu, bytes) in &truth.device_bytes {
            if *bytes > self.scenario.budget.device_bytes * (1.0 + eps) + eps {
                out.push(self.budget_finding(
                    "overcommit",
                    format!(
                        "running jobs hold {bytes:.6e} B on GPU {gpu}, over the \
                         {:.6e} B device budget",
                        self.scenario.budget.device_bytes
                    ),
                ));
            }
        }
        if truth.pinned_bytes > self.scenario.budget.pinned_bytes * (1.0 + eps) + eps {
            out.push(self.budget_finding(
                "overcommit",
                format!(
                    "running jobs hold {:.6e} B of pinned staging, over the {:.6e} B cap",
                    truth.pinned_bytes, self.scenario.budget.pinned_bytes
                ),
            ));
        }
        out
    }

    /// Cross-validation: with no seeded defect the mirror and the
    /// shipped controller must agree bit for bit.
    fn divergence(&self) -> Vec<Finding> {
        let Some(real) = &self.real else {
            return Vec::new();
        };
        let mut out = Vec::new();
        if real.in_flight() != &self.mirror.agg {
            out.push(self.budget_finding(
                "mirror-divergence",
                format!(
                    "model in-flight {:?} != shipped controller {:?}",
                    self.mirror.agg,
                    real.in_flight()
                ),
            ));
        }
        if real.dead() != &self.mirror.dead {
            out.push(self.budget_finding(
                "mirror-divergence",
                format!(
                    "model dead set {:?} != shipped controller {:?}",
                    self.mirror.dead,
                    real.dead()
                ),
            ));
        }
        let held: Vec<u64> = self.mirror.reservations.iter().map(|(k, _)| *k).collect();
        if real.held() != held {
            out.push(self.budget_finding(
                "mirror-divergence",
                format!(
                    "model reservations {held:?} != shipped controller {:?}",
                    real.held()
                ),
            ));
        }
        out
    }
}

impl SchedModel for AdmissionModel {
    fn name(&self) -> String {
        format!(
            "admission {} jobs={} events={}",
            self.scenario.name,
            self.scenario.jobs.len(),
            self.scenario.events.len()
        )
    }

    fn n_threads(&self) -> usize {
        self.scenario.jobs.len() + 1
    }

    fn reset(&mut self) {
        self.mirror = MirrorCtl::new(self.scenario.budget, self.scenario.defect);
        self.real = match self.scenario.defect {
            None => Some(AdmissionController::new(self.scenario.budget)),
            Some(_) => None,
        };
        self.state = vec![JobState::Queued; self.scenario.jobs.len()];
        self.event_pc = 0;
    }

    fn enabled(&self, thread: usize) -> bool {
        if thread == self.pool_thread() {
            return self.event_pc < self.scenario.events.len();
        }
        match self.state[thread] {
            JobState::Running => true,
            JobState::Done | JobState::Shed => false,
            JobState::Queued => {
                let fp = &self.scenario.jobs[thread].fp;
                if self.mirror.fits(fp) {
                    true
                } else {
                    // Shed only once no pending Join can revive the
                    // job; until then it waits in the queue.
                    !self.mirror.ever_fits(fp) && !self.join_pending()
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.event_pc == self.scenario.events.len()
            && self
                .state
                .iter()
                .all(|s| matches!(s, JobState::Done | JobState::Shed))
    }

    fn next_footprint(&self, thread: usize) -> Footprint {
        if thread == self.pool_thread() {
            // Lose/join rewrites liveness and displaces reservations:
            // dependent with every admission action.
            return Footprint::global();
        }
        // Reserve/release mutate the shared aggregate counters for
        // every GPU the job touches plus the pinned pool.
        let fp = &self.scenario.jobs[thread].fp;
        let mut out = Footprint::write(Res::Pinned);
        for (gpu, b) in &fp.device_bytes {
            if *b > 0.0 {
                out = out.and_write(Res::Gpu(*gpu));
            }
        }
        out
    }

    fn step(&mut self, thread: usize) {
        if thread == self.pool_thread() {
            let (kind, gpu) = self.scenario.events[self.event_pc];
            self.event_pc += 1;
            match kind {
                PoolEventKind::Lose => {
                    let displaced = self.mirror.lose_gpu(gpu);
                    if let Some(real) = &mut self.real {
                        real.lose_gpu(gpu);
                    }
                    for id in displaced {
                        if self.scenario.defect != Some(AdmissionDefect::SkipDisplaceRelease) {
                            self.mirror.release(id);
                            if let Some(real) = &mut self.real {
                                real.release(id);
                            }
                        }
                        // The service never drops a displaced job: it
                        // re-queues for the next admission scan.
                        for (j, job) in self.scenario.jobs.iter().enumerate() {
                            if job.id == id && self.state[j] == JobState::Running {
                                self.state[j] = JobState::Queued;
                            }
                        }
                    }
                }
                PoolEventKind::Join => {
                    self.mirror.join_gpu(gpu);
                    if let Some(real) = &mut self.real {
                        real.join_gpu(gpu);
                    }
                }
            }
            return;
        }
        let job = self.scenario.jobs[thread].clone();
        match self.state[thread] {
            JobState::Queued => {
                if self.mirror.fits(&job.fp) {
                    self.mirror.reserve(job.id, job.fp.clone());
                    if let Some(real) = &mut self.real {
                        real.reserve(job.id, job.fp.clone());
                    }
                    self.state[thread] = JobState::Running;
                } else {
                    self.state[thread] = JobState::Shed;
                }
            }
            JobState::Running => {
                self.mirror.release(job.id);
                if let Some(real) = &mut self.real {
                    real.release(job.id);
                }
                self.state[thread] = JobState::Done;
            }
            JobState::Done | JobState::Shed => {}
        }
    }

    fn check_state(&self) -> Vec<Finding> {
        let mut out = self.ground_truth();
        out.extend(self.divergence());
        out
    }

    fn check_final(&self) -> Vec<Finding> {
        let mut out = self.check_state();
        if !self.mirror.reservations.is_empty() {
            let ids: Vec<u64> = self.mirror.reservations.iter().map(|(k, _)| *k).collect();
            out.push(self.budget_finding(
                "leaked-reservation",
                format!("reservations {ids:?} still held after every job finished"),
            ));
        }
        if self.mirror.agg.device_total() > 0.0 || self.mirror.agg.pinned_bytes > 0.0 {
            out.push(self.budget_finding(
                "leaked-reservation",
                format!(
                    "controller still counts {:.3e} B device / {:.3e} B pinned \
                     at quiescence",
                    self.mirror.agg.device_total(),
                    self.mirror.agg.pinned_bytes
                ),
            ));
        }
        out
    }

    fn blocked_describe(&self) -> String {
        let waiting: Vec<String> = self
            .scenario
            .jobs
            .iter()
            .enumerate()
            .filter(|(j, _)| self.state[*j] == JobState::Queued)
            .map(|(_, job)| {
                format!(
                    "job {} queued (fits={}, ever_fits={})",
                    job.id,
                    self.mirror.fits(&job.fp),
                    self.mirror.ever_fits(&job.fp)
                )
            })
            .collect();
        format!(
            "{} pool event(s) left; {}",
            self.scenario.events.len() - self.event_pc,
            if waiting.is_empty() {
                "no job queued".to_string()
            } else {
                waiting.join("; ")
            }
        )
    }
}

/// A footprint on one GPU.
pub fn gpu_footprint(gpu: usize, dev: f64, pinned: f64) -> Residency {
    let mut r = Residency::default();
    r.device_bytes.insert(gpu, dev);
    r.pinned_bytes = pinned;
    r
}

/// Clean lose→join churn: two jobs on different GPUs race a loss and
/// rejoin of GPU 1. Must explore with zero findings.
pub fn scenario_lose_join(defect: Option<AdmissionDefect>) -> AdmissionScenario {
    AdmissionScenario {
        name: "lose-join".into(),
        budget: ServeBudget::new(2.0, 2.0),
        jobs: vec![
            ModelJob {
                id: 1,
                fp: gpu_footprint(0, 1.0, 0.5),
            },
            ModelJob {
                id: 2,
                fp: gpu_footprint(1, 1.0, 0.5),
            },
        ],
        events: vec![(PoolEventKind::Lose, 1), (PoolEventKind::Join, 1)],
        defect,
    }
}

/// Round-off scenario: 0.1 + 0.3 released in a concurrent order
/// leaves ~5.6e-17 residue, which blocks the budget-sized job 3
/// forever unless the empty-state reset clears it. Only *some*
/// interleavings exhibit the residue — serialized reserve/release
/// pairs cancel exactly — which is precisely why the explorer is
/// needed to catch [`AdmissionDefect::NoDrainReset`].
pub fn scenario_roundoff(defect: Option<AdmissionDefect>) -> AdmissionScenario {
    AdmissionScenario {
        name: "roundoff".into(),
        budget: ServeBudget::new(0.4, 1.0),
        jobs: vec![
            ModelJob {
                id: 1,
                fp: gpu_footprint(0, 0.1, 0.0),
            },
            ModelJob {
                id: 2,
                fp: gpu_footprint(0, 0.3, 0.0),
            },
            ModelJob {
                id: 3,
                fp: gpu_footprint(0, 0.4, 0.0),
            },
        ],
        events: Vec::new(),
        defect,
    }
}

/// Four equal jobs against a two-job budget: a double release frees
/// phantom capacity and later admissions overcommit the device.
pub fn scenario_equal_jobs(defect: Option<AdmissionDefect>) -> AdmissionScenario {
    AdmissionScenario {
        name: "equal-jobs".into(),
        budget: ServeBudget::new(2.0, 4.0),
        jobs: (1..=4)
            .map(|id| ModelJob {
                id,
                fp: gpu_footprint(0, 1.0, 0.25),
            })
            .collect(),
        events: Vec::new(),
        defect,
    }
}

/// Every shipped-semantics scenario the sweep explores.
pub fn clean_scenarios() -> Vec<AdmissionScenario> {
    vec![
        scenario_lose_join(None),
        scenario_roundoff(None),
        scenario_equal_jobs(None),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsort_analyze::explore::{explore, ExploreConfig};

    #[test]
    fn clean_scenarios_explore_clean() {
        for sc in clean_scenarios() {
            let name = sc.name.clone();
            let mut m = AdmissionModel::new(sc);
            let rep = explore(&mut m, &ExploreConfig::default());
            assert!(rep.is_clean(), "{name}: {:?}", rep.findings);
            assert!(!rep.truncated, "{name}");
            assert!(rep.traces >= 1, "{name}");
        }
    }

    #[test]
    fn displaced_job_waits_for_rejoin_and_completes() {
        let mut m = AdmissionModel::new(scenario_lose_join(None));
        let rep = explore(&mut m, &ExploreConfig::default());
        assert!(rep.is_clean(), "{:?}", rep.findings);
        // The schedule space must actually branch (loss lands before,
        // between, and after the admissions).
        assert!(rep.traces > 1, "{}", rep.summary());
    }
}
