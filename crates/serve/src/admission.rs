//! Memory-budget admission control.
//!
//! The controller reuses the analyzer's peak-residency math
//! ([`Residency`]): a job's footprint is what its built plan keeps
//! resident for its whole run — per-GPU device buffers plus pinned
//! host staging. Jobs are admitted only while, on every GPU,
//!
//! ```text
//! Σ_{jobs in flight} 2 · elem_bytes · b_s · streams_on_gpu
//!     ≤ device_budget_bytes
//! ```
//!
//! and the summed pinned staging stays under `pinned_budget_bytes`.
//! A coalesced group shares one reservation (the element-wise maximum
//! of its members' footprints — members run back-to-back through the
//! same buffers), which is exactly why coalescing relieves budget
//! pressure.

use std::collections::BTreeSet;

use hetsort_analyze::Residency;

/// The service's aggregate memory budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeBudget {
    /// Cap on aggregate resident bytes **per GPU** across all jobs in
    /// flight (a job set is admissible only if every GPU stays under).
    pub device_bytes: f64,
    /// Cap on total pinned host staging bytes across all jobs in
    /// flight.
    pub pinned_bytes: f64,
}

impl ServeBudget {
    /// A budget from explicit byte caps.
    pub fn new(device_bytes: f64, pinned_bytes: f64) -> ServeBudget {
        ServeBudget {
            device_bytes,
            pinned_bytes,
        }
    }
}

/// Tracks the footprints of reservations currently in flight, plus
/// the set of GPUs currently missing from the elastic pool.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    budget: ServeBudget,
    agg: Residency,
    reservations: Vec<(u64, Residency)>,
    dead: BTreeSet<usize>,
}

impl AdmissionController {
    /// An empty controller under `budget`.
    pub fn new(budget: ServeBudget) -> AdmissionController {
        AdmissionController {
            budget,
            agg: Residency::default(),
            reservations: Vec::new(),
            dead: BTreeSet::new(),
        }
    }

    /// The configured budget.
    pub fn budget(&self) -> ServeBudget {
        self.budget
    }

    /// The aggregate footprint currently reserved.
    pub fn in_flight(&self) -> &Residency {
        &self.agg
    }

    /// Would adding `r` keep every GPU and the pinned pool under
    /// budget? A footprint touching a GPU that has left the pool
    /// never fits — plans must be rebuilt on the surviving devices
    /// first.
    pub fn fits(&self, r: &Residency) -> bool {
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

    /// Could `r` *ever* be admitted, even with nothing else in flight,
    /// on the pool as it stands today? Jobs failing this are shed
    /// immediately instead of queuing forever.
    pub fn ever_fits(&self, r: &Residency) -> bool {
        r.device_bytes
            .iter()
            .all(|(gpu, b)| *b <= 0.0 || !self.dead.contains(gpu))
            && r.pinned_bytes <= self.budget.pinned_bytes
            && r.device_bytes
                .values()
                .all(|b| *b <= self.budget.device_bytes)
    }

    /// Reserve `r` under key `id` (a job id or a coalesced-group
    /// leader id).
    pub fn reserve(&mut self, id: u64, r: Residency) {
        self.agg.add(&r);
        self.reservations.push((id, r));
    }

    /// Release the reservation keyed `id`; returns whether it existed.
    pub fn release(&mut self, id: u64) -> bool {
        match self.reservations.iter().position(|(k, _)| *k == id) {
            Some(i) => {
                let (_, r) = self.reservations.remove(i);
                self.agg.sub(&r);
                if self.reservations.is_empty() {
                    // Drop any f64 round-off residue: an empty
                    // controller must admit exactly what `ever_fits`
                    // admits, or boundary-sized jobs could queue
                    // forever.
                    self.agg = Residency::default();
                }
                true
            }
            None => false,
        }
    }

    /// Ids of reservations currently held, in reservation order.
    pub fn held(&self) -> Vec<u64> {
        self.reservations.iter().map(|(k, _)| *k).collect()
    }

    /// Remove `gpu` from the pool. Returns the leader ids of every
    /// in-flight reservation whose footprint touches the lost device —
    /// the service must release them and decide (re-queue, never drop)
    /// what happens to their jobs. Idempotent.
    pub fn lose_gpu(&mut self, gpu: usize) -> Vec<u64> {
        self.dead.insert(gpu);
        self.reservations
            .iter()
            .filter(|(_, r)| r.device_bytes.get(&gpu).copied().unwrap_or(0.0) > 0.0)
            .map(|(k, _)| *k)
            .collect()
    }

    /// Return `gpu` to the pool (no-op when it was never lost).
    pub fn join_gpu(&mut self, gpu: usize) {
        self.dead.remove(&gpu);
    }

    /// Physical GPU indices currently missing from the pool.
    pub fn dead(&self) -> &BTreeSet<usize> {
        &self.dead
    }
}

/// Element-wise maximum of two footprints — the shared reservation of
/// a coalesced group whose members reuse the same buffers
/// sequentially.
pub fn footprint_max(a: &Residency, b: &Residency) -> Residency {
    let mut out = a.clone();
    for (gpu, bytes) in &b.device_bytes {
        let cur = out.device_bytes.entry(*gpu).or_insert(0.0);
        *cur = cur.max(*bytes);
    }
    out.pinned_bytes = out.pinned_bytes.max(b.pinned_bytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn footprint(gpu: usize, dev: f64, pinned: f64) -> Residency {
        let mut r = Residency::default();
        r.device_bytes.insert(gpu, dev);
        r.pinned_bytes = pinned;
        r
    }

    #[test]
    fn admits_until_either_budget_is_hit() {
        let mut ac = AdmissionController::new(ServeBudget::new(100.0, 50.0));
        let r = footprint(0, 40.0, 10.0);
        assert!(ac.fits(&r));
        ac.reserve(1, r.clone());
        assert!(ac.fits(&r));
        ac.reserve(2, r.clone());
        // Third job would hit 120 device bytes on GPU 0 → refused.
        assert!(!ac.fits(&r));
        // But a job on a *different* GPU still fits (per-GPU budget),
        // as long as the pinned pool holds.
        assert!(ac.fits(&footprint(1, 90.0, 30.0)));
        assert!(!ac.fits(&footprint(1, 90.0, 31.0)), "pinned pool full");
        assert!(ac.release(1));
        assert!(ac.fits(&r), "released budget is reusable");
        assert!(!ac.release(1), "double release is a no-op");
    }

    #[test]
    fn ever_fits_is_budget_against_empty_controller() {
        let mut ac = AdmissionController::new(ServeBudget::new(100.0, 50.0));
        ac.reserve(1, footprint(0, 90.0, 40.0));
        let r = footprint(0, 95.0, 5.0);
        assert!(!ac.fits(&r), "not now");
        assert!(ac.ever_fits(&r), "but possible once drained");
        assert!(!ac.ever_fits(&footprint(0, 101.0, 0.0)));
        assert!(!ac.ever_fits(&footprint(0, 1.0, 51.0)));
    }

    #[test]
    fn losing_a_gpu_reports_displaced_reservations_and_blocks_admission() {
        let mut ac = AdmissionController::new(ServeBudget::new(100.0, 50.0));
        ac.reserve(1, footprint(0, 40.0, 10.0));
        ac.reserve(2, footprint(1, 40.0, 10.0));
        let displaced = ac.lose_gpu(1);
        assert_eq!(displaced, vec![2]);
        // Footprints touching the dead GPU no longer fit — not now,
        // not ever — while GPU-0 jobs are untouched.
        assert!(!ac.fits(&footprint(1, 1.0, 0.0)));
        assert!(!ac.ever_fits(&footprint(1, 1.0, 0.0)));
        assert!(ac.fits(&footprint(0, 1.0, 0.0)));
        assert_eq!(ac.dead().iter().copied().collect::<Vec<_>>(), vec![1]);
        // Idempotent loss; join restores admissibility.
        assert!(ac.lose_gpu(1).contains(&2));
        ac.join_gpu(1);
        assert!(ac.ever_fits(&footprint(1, 1.0, 0.0)));
        assert!(ac.dead().is_empty());
    }

    #[test]
    fn coalesced_groups_share_the_max_footprint() {
        let a = footprint(0, 40.0, 10.0);
        let b = footprint(0, 30.0, 20.0);
        let m = footprint_max(&a, &b);
        assert_eq!(m.device_bytes.get(&0), Some(&40.0));
        assert_eq!(m.pinned_bytes, 20.0);
        // Sharing beats summing: the group fits where two solo
        // reservations would not.
        let mut ac = AdmissionController::new(ServeBudget::new(50.0, 25.0));
        assert!(ac.fits(&m));
        ac.reserve(1, a);
        assert!(!ac.fits(&b), "solo reservations would overflow");
    }
}
