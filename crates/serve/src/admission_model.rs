//! [`SchedModel`] of the admission state machine under `PoolEvent`
//! lose/join sequences — the serve-side half of the schedule-space
//! explorer (`hetsort-analyze::explore`).
//!
//! Threads are the jobs (admit → run → release) plus one pool thread
//! playing an ordered lose/join script, so the explorer covers every
//! alignment of reservations, releases, displacements, and rejoins.
//! Each step drives the one shipped [`AdmissionController`]; there is
//! no model copy of it to keep in sync. The mutation kill-suite seeds
//! an [`AdmissionDefect`] either into that controller (through a
//! crate-private hook) or into the model's own pool step.
//!
//! The **budget-safety invariant** is checked against ground truth
//! (the sum of *running* jobs' footprints, not the controller's own
//! counters, which a defect may corrupt): no interleaving may
//! overcommit any device or the pinned pool by a single byte, keep a
//! running job on a dead device, or leak reservations past quiescence.
//! Violations are [`FindingClass::Budget`] findings; admission
//! livelocks (a job forever queued though `ever_fits` holds) surface
//! as the engine's reachable deadlock.

use hetsort_analyze::explore::{Footprint, Res, SchedModel};
use hetsort_analyze::{Finding, FindingClass, Residency};

use crate::admission::{AdmissionController, ServeBudget};
use crate::pool::PoolEventKind;

/// A seeded admission defect for the mutation kill-suite. Exploration
/// must report a [`FindingClass::Budget`] finding for each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDefect {
    /// `release` subtracts the reservation's footprint twice — the
    /// controller under-accounts and later admissions overcommit.
    /// Seeded into the shipped controller.
    DoubleRelease,
    /// Reservations displaced by `lose_gpu` are re-queued without
    /// being released — the controller leaks the dead reservation.
    /// Seeded in the model's pool step, which plays the service's part.
    SkipDisplaceRelease,
}

impl AdmissionDefect {
    /// Every admission defect, in a stable order.
    pub const ALL: [AdmissionDefect; 2] = [
        AdmissionDefect::DoubleRelease,
        AdmissionDefect::SkipDisplaceRelease,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionDefect::DoubleRelease => "double-release",
            AdmissionDefect::SkipDisplaceRelease => "skip-displace-release",
        }
    }
}

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
    /// Seeded defect (`None` = the shipped semantics).
    pub defect: Option<AdmissionDefect>,
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
    ctl: AdmissionController,
    state: Vec<JobState>,
    event_pc: usize,
}

impl AdmissionModel {
    /// Build the model for a scenario.
    pub fn new(scenario: AdmissionScenario) -> AdmissionModel {
        AdmissionModel {
            ctl: Self::controller(&scenario),
            state: vec![JobState::Queued; scenario.jobs.len()],
            scenario,
            event_pc: 0,
        }
    }

    /// A fresh shipped controller, with the scenario's controller
    /// defect seeded.
    fn controller(scenario: &AdmissionScenario) -> AdmissionController {
        let mut ctl = AdmissionController::new(scenario.budget);
        if scenario.defect == Some(AdmissionDefect::DoubleRelease) {
            ctl.seed_double_release();
        }
        ctl
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
                    .find(|(g, b)| **b > 0 && self.ctl.dead().contains(g))
                    .map(|(g, _)| *g)
                {
                    out.push(self.budget_finding(
                        "dead-reservation",
                        format!("job {} runs on GPU {gpu} after the pool lost it", job.id),
                    ));
                }
            }
        }
        for (gpu, bytes) in &truth.device_bytes {
            if *bytes > self.scenario.budget.device_bytes {
                out.push(self.budget_finding(
                    "overcommit",
                    format!(
                        "running jobs hold {bytes} B on GPU {gpu}, over the {} B device budget",
                        self.scenario.budget.device_bytes
                    ),
                ));
            }
        }
        if truth.pinned_bytes > self.scenario.budget.pinned_bytes {
            out.push(self.budget_finding(
                "overcommit",
                format!(
                    "running jobs hold {} B of pinned staging, over the {} B cap",
                    truth.pinned_bytes, self.scenario.budget.pinned_bytes
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
        self.ctl = Self::controller(&self.scenario);
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
                if self.ctl.fits(fp) {
                    true
                } else {
                    // Shed only once no pending Join can revive the
                    // job; until then it waits in the queue.
                    !self.ctl.ever_fits(fp) && !self.join_pending()
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
            if *b > 0 {
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
                    for id in self.ctl.lose_gpu(gpu) {
                        if self.scenario.defect != Some(AdmissionDefect::SkipDisplaceRelease) {
                            self.ctl.release(id);
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
                PoolEventKind::Join => self.ctl.join_gpu(gpu),
            }
            return;
        }
        let job = self.scenario.jobs[thread].clone();
        match self.state[thread] {
            JobState::Queued => {
                if self.ctl.fits(&job.fp) {
                    self.ctl.reserve(job.id, job.fp);
                    self.state[thread] = JobState::Running;
                } else {
                    self.state[thread] = JobState::Shed;
                }
            }
            JobState::Running => {
                self.ctl.release(job.id);
                self.state[thread] = JobState::Done;
            }
            JobState::Done | JobState::Shed => {}
        }
    }

    fn check_state(&self) -> Vec<Finding> {
        self.ground_truth()
    }

    fn check_final(&self) -> Vec<Finding> {
        let mut out = self.check_state();
        let held = self.ctl.held();
        if !held.is_empty() {
            out.push(self.budget_finding(
                "leaked-reservation",
                format!("reservations {held:?} still held after every job finished"),
            ));
        }
        let agg = self.ctl.in_flight();
        if agg.device_total() > 0 || agg.pinned_bytes > 0 {
            out.push(self.budget_finding(
                "leaked-reservation",
                format!(
                    "controller still counts {} B device / {} B pinned at quiescence",
                    agg.device_total(),
                    agg.pinned_bytes
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
                    self.ctl.fits(&job.fp),
                    self.ctl.ever_fits(&job.fp)
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
pub fn gpu_footprint(gpu: usize, dev: u64, pinned: u64) -> Residency {
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
        budget: ServeBudget {
            device_bytes: 4,
            pinned_bytes: 4,
        },
        jobs: vec![
            ModelJob {
                id: 1,
                fp: gpu_footprint(0, 2, 1),
            },
            ModelJob {
                id: 2,
                fp: gpu_footprint(1, 2, 1),
            },
        ],
        events: vec![(PoolEventKind::Lose, 1), (PoolEventKind::Join, 1)],
        defect,
    }
}

/// Four equal jobs against a two-job budget: a double release frees
/// phantom capacity and later admissions overcommit the device.
pub fn scenario_equal_jobs(defect: Option<AdmissionDefect>) -> AdmissionScenario {
    AdmissionScenario {
        name: "equal-jobs".into(),
        budget: ServeBudget {
            device_bytes: 8,
            pinned_bytes: 16,
        },
        jobs: (1..=4)
            .map(|id| ModelJob {
                id,
                fp: gpu_footprint(0, 4, 1),
            })
            .collect(),
        events: Vec::new(),
        defect,
    }
}

/// Every shipped-semantics scenario the sweep explores.
pub fn clean_scenarios() -> Vec<AdmissionScenario> {
    vec![scenario_lose_join(None), scenario_equal_jobs(None)]
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
