//! Deterministic fault injection for the functional executors.
//!
//! A [`FaultInjector`] holds an immutable *schedule* — "fail the 2nd
//! device allocation", "fail the 3rd HtoD copy", "panic worker 1 when it
//! starts its 2nd batch" — plus atomic occurrence counters. Executors
//! call [`FaultInjector::trip`] at each fault site; the injector counts
//! the occurrence and reports whether the schedule says this one fails.
//!
//! Determinism: the schedule never changes after construction, and each
//! site's counter is a single atomic, so a single-threaded executor
//! replays identically. In the multi-threaded executor, counters are
//! still exact (atomic), but *which* stream observes a given occurrence
//! depends on interleaving — schedules for concurrent tests should
//! either target worker-addressed faults ([`FaultInjector::panic_worker`])
//! or make assertions that hold for any interleaving.
//!
//! Retried operations consult the injector again, so each retry is a new
//! occurrence: a schedule that faults occurrence 2 but not 3 models a
//! *transient* fault that a single retry clears.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::error::CudaError;

/// A fault site the injector can arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Device memory allocation (`cudaMalloc` / device buffer growth).
    DeviceAlloc,
    /// Host-to-device DMA.
    HtoD,
    /// Device-to-host DMA.
    DtoH,
    /// Device sort kernel.
    DeviceSort,
}

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::DeviceAlloc => 0,
            FaultSite::HtoD => 1,
            FaultSite::DtoH => 2,
            FaultSite::DeviceSort => 3,
        }
    }
}

const N_SITES: usize = 4;

/// Mutable device-pool state: which GPUs are currently dead and how
/// many device operations each has observed. Kept separate from the
/// immutable loss/join schedule so [`FaultInjector::fork`] can reset
/// state without touching the schedule.
#[derive(Debug, Default)]
struct PoolState {
    /// Device operations observed per GPU.
    per_gpu: BTreeMap<usize, usize>,
    /// Device operations observed across all GPUs.
    global: usize,
    /// GPUs currently marked dead.
    lost: BTreeSet<usize>,
    /// Indices into `lose_sched` already applied.
    applied_lose: BTreeSet<usize>,
    /// Indices into `join_sched` already applied.
    applied_join: BTreeSet<usize>,
}

/// A deterministic, seedable schedule of injected faults.
///
/// One injector instance represents one run's fault history: counters
/// only advance. Build a fresh injector per run when comparing runs.
#[derive(Debug, Default)]
pub struct FaultInjector {
    /// Per site: sorted 1-based occurrence numbers that fail.
    schedule: [Vec<usize>; N_SITES],
    /// Per site: occurrences observed so far.
    counters: [AtomicUsize; N_SITES],
    /// `(worker, nth_batch)` pairs that panic (both 0-based worker,
    /// 1-based batch count on that worker).
    panics: Vec<(usize, usize)>,
    /// Batches started per worker.
    worker_batches: Mutex<BTreeMap<usize, usize>>,
    /// Total faults injected (tripped sites + fired panics).
    injected: AtomicUsize,
    /// `(gpu, nth_op_on_that_gpu)` device-loss events (1-based count of
    /// device operations observed *on that GPU*).
    lose_sched: Vec<(usize, usize)>,
    /// `(gpu, nth_global_op)` device-join events (1-based count of
    /// device operations observed across *all* GPUs).
    join_sched: Vec<(usize, usize)>,
    /// Mutable pool state (dead set + op counters).
    pool: Mutex<PoolState>,
}

impl FaultInjector {
    /// An empty schedule (never faults).
    pub fn new() -> Self {
        FaultInjector::default()
    }

    fn arm(mut self, site: FaultSite, nth: usize) -> Self {
        let list = &mut self.schedule[site.index()];
        list.push(nth.max(1));
        list.sort_unstable();
        list.dedup();
        self
    }

    /// Fail the `nth` device allocation (1-based) with OOM.
    pub fn oom_on_alloc(self, nth: usize) -> Self {
        self.arm(FaultSite::DeviceAlloc, nth)
    }

    /// Fail the `nth` host-to-device copy (1-based).
    pub fn fail_htod(self, nth: usize) -> Self {
        self.arm(FaultSite::HtoD, nth)
    }

    /// Fail the `nth` device-to-host copy (1-based).
    pub fn fail_dtoh(self, nth: usize) -> Self {
        self.arm(FaultSite::DtoH, nth)
    }

    /// Fail the `nth` device sort (1-based).
    pub fn fail_device_sort(self, nth: usize) -> Self {
        self.arm(FaultSite::DeviceSort, nth)
    }

    /// Panic `worker` (0-based) when it starts its `nth_batch`-th batch
    /// (1-based). Only the multi-threaded executor honours this.
    pub fn panic_worker(mut self, worker: usize, nth_batch: usize) -> Self {
        self.panics.push((worker, nth_batch.max(1)));
        self
    }

    /// Mark GPU `gpu` dead at its `nth_op`-th device operation
    /// (1-based, counted per GPU). From then on every allocation, copy,
    /// or sort touching it returns [`CudaError::DeviceLost`] until a
    /// matching [`FaultInjector::join_device`] event revives it.
    pub fn lose_device(mut self, gpu: usize, nth_op: usize) -> Self {
        self.lose_sched.push((gpu, nth_op.max(1)));
        self
    }

    /// Revive GPU `gpu` at the `nth_op`-th device operation counted
    /// across *all* GPUs (1-based). Global counting lets a join fire
    /// even while no operation targets the dead device.
    pub fn join_device(mut self, gpu: usize, nth_op: usize) -> Self {
        self.join_sched.push((gpu, nth_op.max(1)));
        self
    }

    /// Parse a comma-separated schedule:
    /// `oom:2,htod:3,dtoh:1,sort:2,panic:1@2,lose:1@4,join:1@20`.
    ///
    /// `oom:K` fails the K-th device allocation, `htod:K`/`dtoh:K` the
    /// K-th transfer in that direction, `sort:K` the K-th device sort,
    /// `panic:W@K` panics worker `W` at its K-th batch, `lose:G@K`
    /// kills GPU `G` at its K-th device operation, and `join:G@K`
    /// revives GPU `G` at the K-th device operation pool-wide.
    ///
    /// # Errors
    ///
    /// [`CudaError::BadFaultSpec`] on unknown sites or malformed counts.
    pub fn parse(spec: &str) -> Result<Self, CudaError> {
        let mut inj = FaultInjector::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let bad = |reason: &str| CudaError::BadFaultSpec {
                spec: part.to_string(),
                reason: reason.to_string(),
            };
            let (site, arg) = part
                .split_once(':')
                .ok_or_else(|| bad("expected site:count"))?;
            let nth = |s: &str| {
                s.parse::<usize>()
                    .map_err(|_| bad("count must be a positive integer"))
            };
            inj = match site {
                "oom" | "alloc" => inj.oom_on_alloc(nth(arg)?),
                "htod" => inj.fail_htod(nth(arg)?),
                "dtoh" => inj.fail_dtoh(nth(arg)?),
                "sort" => inj.fail_device_sort(nth(arg)?),
                "panic" => {
                    let (w, b) = arg
                        .split_once('@')
                        .ok_or_else(|| bad("expected panic:worker@batch"))?;
                    inj.panic_worker(nth(w)?, nth(b)?)
                }
                "lose" => {
                    let (g, n) = arg
                        .split_once('@')
                        .ok_or_else(|| bad("expected lose:gpu@op"))?;
                    inj.lose_device(nth(g)?, nth(n)?)
                }
                "join" => {
                    let (g, n) = arg
                        .split_once('@')
                        .ok_or_else(|| bad("expected join:gpu@op"))?;
                    inj.join_device(nth(g)?, nth(n)?)
                }
                _ => return Err(bad("unknown site (oom|htod|dtoh|sort|panic|lose|join)")),
            };
        }
        Ok(inj)
    }

    /// A pseudo-random schedule of `n_faults` faults derived from
    /// `seed` (SplitMix64), spread over the first 8 occurrences of
    /// random sites. Same seed → same schedule.
    pub fn from_seed(seed: u64, n_faults: usize) -> Self {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut inj = FaultInjector::new();
        for _ in 0..n_faults {
            let nth = (next() % 8 + 1) as usize;
            inj = match next() % 4 {
                0 => inj.oom_on_alloc(nth),
                1 => inj.fail_htod(nth),
                2 => inj.fail_dtoh(nth),
                _ => inj.fail_device_sort(nth),
            };
        }
        inj
    }

    /// Does the schedule contain anything at all?
    pub fn is_armed(&self) -> bool {
        self.schedule.iter().any(|s| !s.is_empty())
            || !self.panics.is_empty()
            || !self.lose_sched.is_empty()
            || !self.join_sched.is_empty()
    }

    /// A fresh injector with the *same schedule* but zeroed occurrence
    /// counters and an empty dead set. This is how a service scopes one
    /// shared schedule per job: each job runs against its own fork, so
    /// "fail the 2nd HtoD" means the job's own 2nd HtoD regardless of
    /// queue order.
    pub fn fork(&self) -> FaultInjector {
        FaultInjector {
            schedule: self.schedule.clone(),
            counters: Default::default(),
            panics: self.panics.clone(),
            worker_batches: Mutex::new(BTreeMap::new()),
            injected: AtomicUsize::new(0),
            lose_sched: self.lose_sched.clone(),
            join_sched: self.join_sched.clone(),
            pool: Mutex::new(PoolState::default()),
        }
    }

    /// Record one device operation targeting `gpu`, applying any
    /// scheduled loss/join transitions, and fail with
    /// [`CudaError::DeviceLost`] if the device is (now) dead.
    ///
    /// Joins are keyed on the pool-wide operation count and are applied
    /// *before* the liveness check, so a revived device serves the very
    /// operation that observed the join.
    ///
    /// # Errors
    ///
    /// [`CudaError::DeviceLost`] while `gpu` is marked dead.
    pub fn device_op(&self, gpu: usize) -> Result<(), CudaError> {
        if self.lose_sched.is_empty() && self.join_sched.is_empty() {
            return Ok(());
        }
        let mut st = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        st.global += 1;
        let global = st.global;
        for (i, &(g, nth)) in self.join_sched.iter().enumerate() {
            if nth <= global && st.applied_join.insert(i) {
                st.lost.remove(&g);
            }
        }
        let on_gpu = {
            let c = st.per_gpu.entry(gpu).or_insert(0);
            *c += 1;
            *c
        };
        for (i, &(g, nth)) in self.lose_sched.iter().enumerate() {
            if g == gpu && nth <= on_gpu && st.applied_lose.insert(i) {
                st.lost.insert(g);
                self.injected.fetch_add(1, Ordering::Relaxed);
            }
        }
        if st.lost.contains(&gpu) {
            Err(CudaError::DeviceLost { gpu })
        } else {
            Ok(())
        }
    }

    /// Fire `gpu`'s first scheduled loss that has not fired yet, now,
    /// whatever its op count — how a schedule hook on the inline engine
    /// places a loss between two nodes. Counts as injected.
    pub fn fire_loss(&self, gpu: usize) {
        let mut st = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        let pending = (0..self.lose_sched.len())
            .find(|&i| self.lose_sched[i].0 == gpu && !st.applied_lose.contains(&i));
        if let Some(i) = pending {
            st.applied_lose.insert(i);
            st.lost.insert(gpu);
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Is `gpu` currently marked dead?
    pub fn is_lost(&self, gpu: usize) -> bool {
        self.pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .lost
            .contains(&gpu)
    }

    /// The GPUs this injector is *scheduled* to lose, in schedule
    /// order (before any op has tripped them). Lets schedule-space
    /// tools lift a fault spec into an explicit loss sequence without
    /// running the executor.
    pub fn scheduled_losses(&self) -> Vec<usize> {
        self.lose_sched.iter().map(|&(gpu, _)| gpu).collect()
    }

    /// The GPUs this injector is scheduled to revive, in schedule order.
    pub fn scheduled_joins(&self) -> Vec<usize> {
        self.join_sched.iter().map(|&(gpu, _)| gpu).collect()
    }

    /// The workers this injector is scheduled to panic, in schedule
    /// order.
    pub fn scheduled_panics(&self) -> Vec<usize> {
        self.panics.iter().map(|&(worker, _)| worker).collect()
    }

    /// Whether the schedule holds device losses and nothing else.
    pub fn schedules_only_losses(&self) -> bool {
        self.schedule.iter().all(Vec::is_empty)
            && self.panics.is_empty()
            && self.join_sched.is_empty()
    }

    /// Record one occurrence of `site`; `Some(occurrence)` if the
    /// schedule fails this one.
    pub fn trip(&self, site: FaultSite) -> Option<usize> {
        let occ = self.counters[site.index()].fetch_add(1, Ordering::Relaxed) + 1;
        if self.schedule[site.index()].contains(&occ) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            Some(occ)
        } else {
            None
        }
    }

    /// Record that `worker` starts a batch; `true` if the schedule says
    /// it should panic now.
    pub fn should_panic(&self, worker: usize) -> bool {
        let mut counts = self
            .worker_batches
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let c = counts.entry(worker).or_insert(0);
        *c += 1;
        if self.panics.contains(&(worker, *c)) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Total faults injected so far (tripped sites + fired panics).
    pub fn injected(&self) -> usize {
        self.injected.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_exactly_the_scheduled_occurrence() {
        let inj = FaultInjector::new().fail_htod(2).fail_htod(4);
        assert_eq!(inj.trip(FaultSite::HtoD), None);
        assert_eq!(inj.trip(FaultSite::HtoD), Some(2));
        assert_eq!(inj.trip(FaultSite::HtoD), None);
        assert_eq!(inj.trip(FaultSite::HtoD), Some(4));
        assert_eq!(inj.trip(FaultSite::HtoD), None);
        // Other sites unaffected.
        assert_eq!(inj.trip(FaultSite::DtoH), None);
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn worker_panics_count_per_worker() {
        let inj = FaultInjector::new().panic_worker(1, 2);
        assert!(!inj.should_panic(0));
        assert!(!inj.should_panic(1)); // worker 1, batch 1
        assert!(!inj.should_panic(0));
        assert!(inj.should_panic(1)); // worker 1, batch 2
        assert!(!inj.should_panic(1));
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn parse_round_trips_every_site() {
        let inj = FaultInjector::parse("oom:2, htod:3,dtoh:1,sort:2,panic:1@2").unwrap();
        assert!(inj.is_armed());
        assert_eq!(inj.trip(FaultSite::DtoH), Some(1));
        assert_eq!(inj.trip(FaultSite::DeviceAlloc), None);
        assert_eq!(inj.trip(FaultSite::DeviceAlloc), Some(2));
        assert!(!inj.should_panic(1));
        assert!(inj.should_panic(1));
        assert_eq!(inj.scheduled_panics(), vec![1]);
        assert!(!inj.schedules_only_losses());
        assert!(FaultInjector::parse("lose:1@3,lose:0@2")
            .unwrap()
            .schedules_only_losses());
        assert!(!FaultInjector::parse("").unwrap().is_armed());
        assert!(matches!(
            FaultInjector::parse("gpu:1"),
            Err(CudaError::BadFaultSpec { .. })
        ));
        assert!(matches!(
            FaultInjector::parse("htod:x"),
            Err(CudaError::BadFaultSpec { .. })
        ));
        assert!(matches!(
            FaultInjector::parse("panic:1"),
            Err(CudaError::BadFaultSpec { .. })
        ));
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let a = FaultInjector::from_seed(42, 5);
        let b = FaultInjector::from_seed(42, 5);
        assert_eq!(a.schedule, b.schedule);
        assert!(a.is_armed());
        let c = FaultInjector::from_seed(43, 5);
        // Overwhelmingly likely to differ; if this ever flakes the seeds
        // simply collided and the assertion can use another pair.
        assert_ne!(a.schedule, c.schedule);
    }

    #[test]
    fn device_loss_fires_at_nth_op_and_persists() {
        let inj = FaultInjector::new().lose_device(1, 3);
        // Ops on GPU 0 never count against GPU 1's schedule.
        assert!(inj.device_op(0).is_ok());
        assert!(inj.device_op(1).is_ok());
        assert!(inj.device_op(1).is_ok());
        assert_eq!(inj.device_op(1), Err(CudaError::DeviceLost { gpu: 1 }));
        assert!(inj.is_lost(1));
        assert!(!inj.is_lost(0));
        // Dead stays dead without a join.
        assert_eq!(inj.device_op(1), Err(CudaError::DeviceLost { gpu: 1 }));
        assert!(inj.device_op(0).is_ok());
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn fired_loss_ignores_its_op_count_and_fires_once() {
        let inj = FaultInjector::new().lose_device(1, usize::MAX);
        assert!(inj.device_op(1).is_ok());
        for gpu in [0, 1, 1] {
            inj.fire_loss(gpu);
        }
        assert!(inj.device_op(1).is_err() && inj.device_op(0).is_ok());
        assert_eq!(
            inj.injected(),
            1,
            "GPU 1's one loss fires once, GPU 0 has none"
        );
    }

    #[test]
    fn join_revives_a_lost_device() {
        // Lose GPU 1 at its 1st op; revive it at the 4th pool-wide op.
        let inj = FaultInjector::new().lose_device(1, 1).join_device(1, 4);
        assert_eq!(inj.device_op(1), Err(CudaError::DeviceLost { gpu: 1 })); // global 1
        assert_eq!(inj.device_op(1), Err(CudaError::DeviceLost { gpu: 1 })); // global 2
        assert!(inj.device_op(0).is_ok()); // global 3
        assert!(inj.device_op(1).is_ok()); // global 4: join applies first
        assert!(!inj.is_lost(1));
    }

    #[test]
    fn fork_resets_counters_but_keeps_the_schedule() {
        let inj = FaultInjector::new().fail_htod(2).lose_device(0, 2);
        assert_eq!(inj.trip(FaultSite::HtoD), None);
        assert_eq!(inj.trip(FaultSite::HtoD), Some(2));
        assert!(inj.device_op(0).is_ok());
        assert!(inj.device_op(0).is_err());
        // The fork replays the same schedule from scratch.
        let f = inj.fork();
        assert!(f.is_armed());
        assert_eq!(f.injected(), 0);
        assert!(!f.is_lost(0));
        assert_eq!(f.trip(FaultSite::HtoD), None);
        assert_eq!(f.trip(FaultSite::HtoD), Some(2));
        assert!(f.device_op(0).is_ok());
        assert!(f.device_op(0).is_err());
        // The original's state was not disturbed by the fork.
        assert!(inj.is_lost(0));
    }

    #[test]
    fn parse_pool_events() {
        let inj = FaultInjector::parse("lose:1@2,join:1@5").unwrap();
        assert!(inj.device_op(1).is_ok()); // gpu1 op 1, global 1
        assert!(inj.device_op(1).is_err()); // gpu1 op 2: lost
        assert!(inj.device_op(0).is_ok()); // global 3
        assert!(inj.device_op(0).is_ok()); // global 4
        assert!(inj.device_op(1).is_ok()); // global 5: rejoined
        assert!(matches!(
            FaultInjector::parse("lose:1"),
            Err(CudaError::BadFaultSpec { .. })
        ));
    }

    #[test]
    fn empty_injector_never_trips() {
        let inj = FaultInjector::new();
        assert!(!inj.is_armed());
        for _ in 0..100 {
            assert_eq!(inj.trip(FaultSite::DeviceAlloc), None);
            assert!(!inj.should_panic(0));
        }
        assert_eq!(inj.injected(), 0);
    }
}
