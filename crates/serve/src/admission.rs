//! Memory-budget admission control.
//!
//! The controller reuses the analyzer's peak-residency math
//! ([`Residency`]): a job's footprint is what its built plan keeps
//! resident for its whole run — per-GPU device buffers plus pinned
//! host staging. Every count is an integer number of bytes, so with
//! `R` the set of reservations in flight a footprint `r` is admitted
//! only while, on every GPU `g` it touches,
//!
//! ```text
//! Σ_{q ∈ R} device_q[g] + r.device[g] ≤ budget.device_bytes
//! Σ_{q ∈ R} pinned_q    + r.pinned    ≤ budget.pinned_bytes
//! ```
//!
//! where a job's `device[g]` is `2 · elem_bytes · b_s` per stream it
//! runs on `g` (`HetSortConfig::device_bytes`). Release subtracts
//! exactly what reserve added, so a drained controller holds zero
//! bytes and admits exactly what [`AdmissionController::ever_fits`]
//! admits — no reset on drain is needed.
//!
//! A coalesced group shares one reservation (the element-wise maximum
//! of its members' footprints — members run back-to-back through the
//! same buffers), which is exactly why coalescing relieves budget
//! pressure.

use std::collections::BTreeSet;

use hetsort_analyze::Residency;

/// The service's aggregate memory budget, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeBudget {
    /// Cap on aggregate resident bytes **per GPU** across all jobs in
    /// flight (a job set is admissible only if every GPU stays under).
    pub device_bytes: u64,
    /// Cap on total pinned host staging bytes across all jobs in
    /// flight.
    pub pinned_bytes: u64,
}

impl ServeBudget {
    /// A budget from byte caps given as floats (`1.0e6`). Each cap is
    /// floored to whole bytes and saturates: NaN and negative values
    /// become 0, +∞ becomes `u64::MAX`.
    pub fn new(device_bytes: f64, pinned_bytes: f64) -> ServeBudget {
        // `as` from f64 truncates toward zero and saturates, NaN → 0.
        ServeBudget {
            device_bytes: device_bytes as u64,
            pinned_bytes: pinned_bytes as u64,
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
    /// Seeded `double-release` defect: `release` subtracts the
    /// footprint twice. Set only by the admission model's kill-suite
    /// ([`AdmissionController::seed_double_release`]).
    double_release: bool,
}

impl AdmissionController {
    /// An empty controller under `budget`.
    pub fn new(budget: ServeBudget) -> AdmissionController {
        AdmissionController {
            budget,
            agg: Residency::default(),
            reservations: Vec::new(),
            dead: BTreeSet::new(),
            double_release: false,
        }
    }

    /// Seed the `double-release` defect for the admission model's
    /// mutation kill-suite (crate-private, like the engine's
    /// `EngineHooks`: no production path can set it).
    pub(crate) fn seed_double_release(&mut self) {
        self.double_release = true;
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
        let held = |gpu| self.agg.device_bytes.get(gpu).copied().unwrap_or(0);
        let device_ok = r
            .device_bytes
            .iter()
            .all(|(gpu, b)| held(gpu).saturating_add(*b) <= self.budget.device_bytes);
        let pinned_ok =
            self.agg.pinned_bytes.saturating_add(r.pinned_bytes) <= self.budget.pinned_bytes;
        self.alive(r) && pinned_ok && device_ok
    }

    /// Could `r` *ever* be admitted, even with nothing else in flight,
    /// on the pool as it stands today? Jobs failing this are shed
    /// immediately instead of queuing forever.
    pub fn ever_fits(&self, r: &Residency) -> bool {
        self.alive(r)
            && r.pinned_bytes <= self.budget.pinned_bytes
            && r.device_bytes
                .values()
                .all(|b| *b <= self.budget.device_bytes)
    }

    /// Does `r` hold no bytes on a GPU that has left the pool?
    fn alive(&self, r: &Residency) -> bool {
        r.device_bytes
            .iter()
            .all(|(gpu, b)| *b == 0 || !self.dead.contains(gpu))
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
                if self.double_release {
                    self.agg.sub(&r);
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
            .filter(|(_, r)| r.device_bytes.get(&gpu).is_some_and(|b| *b > 0))
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
        let cur = out.device_bytes.entry(*gpu).or_insert(0);
        *cur = (*cur).max(*bytes);
    }
    out.pinned_bytes = out.pinned_bytes.max(b.pinned_bytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn footprint(gpu: usize, dev: u64, pinned: u64) -> Residency {
        let mut r = Residency::default();
        r.device_bytes.insert(gpu, dev);
        r.pinned_bytes = pinned;
        r
    }

    #[test]
    fn admits_until_either_budget_is_hit() {
        let mut ac = AdmissionController::new(ServeBudget::new(100.0, 50.0));
        let r = footprint(0, 40, 10);
        assert!(ac.fits(&r));
        ac.reserve(1, r.clone());
        assert!(ac.fits(&r));
        ac.reserve(2, r.clone());
        // Third job would hit 120 device bytes on GPU 0 → refused.
        assert!(!ac.fits(&r));
        // But a job on a *different* GPU still fits (per-GPU budget),
        // as long as the pinned pool holds.
        assert!(ac.fits(&footprint(1, 90, 30)));
        assert!(!ac.fits(&footprint(1, 90, 31)), "pinned pool full");
        assert!(ac.release(1));
        assert!(ac.fits(&r), "released budget is reusable");
        assert!(!ac.release(1), "double release is a no-op");
    }

    #[test]
    fn ever_fits_is_budget_against_empty_controller() {
        let mut ac = AdmissionController::new(ServeBudget::new(100.0, 50.0));
        ac.reserve(1, footprint(0, 90, 40));
        let r = footprint(0, 95, 5);
        assert!(!ac.fits(&r), "not now");
        assert!(ac.ever_fits(&r), "but possible once drained");
        assert!(!ac.ever_fits(&footprint(0, 101, 0)));
        assert!(!ac.ever_fits(&footprint(0, 1, 51)));
    }

    #[test]
    fn losing_a_gpu_reports_displaced_reservations_and_blocks_admission() {
        let mut ac = AdmissionController::new(ServeBudget::new(100.0, 50.0));
        ac.reserve(1, footprint(0, 40, 10));
        ac.reserve(2, footprint(1, 40, 10));
        let displaced = ac.lose_gpu(1);
        assert_eq!(displaced, vec![2]);
        // Footprints touching the dead GPU no longer fit — not now,
        // not ever — while GPU-0 jobs are untouched.
        assert!(!ac.fits(&footprint(1, 1, 0)));
        assert!(!ac.ever_fits(&footprint(1, 1, 0)));
        assert!(ac.fits(&footprint(0, 1, 0)));
        assert_eq!(ac.dead().iter().copied().collect::<Vec<_>>(), vec![1]);
        // Idempotent loss; join restores admissibility.
        assert!(ac.lose_gpu(1).contains(&2));
        ac.join_gpu(1);
        assert!(ac.ever_fits(&footprint(1, 1, 0)));
        assert!(ac.dead().is_empty());
    }

    #[test]
    fn coalesced_groups_share_the_max_footprint() {
        let a = footprint(0, 40, 10);
        let b = footprint(0, 30, 20);
        let m = footprint_max(&a, &b);
        assert_eq!(m.device_bytes.get(&0), Some(&40));
        assert_eq!(m.pinned_bytes, 20);
        // Sharing beats summing: the group fits where two solo
        // reservations would not.
        let mut ac = AdmissionController::new(ServeBudget::new(50.0, 25.0));
        assert!(ac.fits(&m));
        ac.reserve(1, a);
        assert!(!ac.fits(&b), "solo reservations would overflow");
    }

    #[test]
    fn budget_boundary_is_exact_after_paper_scale_churn() {
        // Paper magnitude: one stream of 16-byte records at b_s = 5·10⁸
        // holds 2 · 16 B · 5·10⁸ = 1.6·10¹⁰ B on its GPU.
        let big = 2 * 16 * 500_000_000;
        let budget = ServeBudget {
            device_bytes: 3 * big,
            pinned_bytes: big,
        };
        let mut ac = AdmissionController::new(budget);
        let shapes = [
            footprint(0, big, 3),
            footprint(0, big / 7, 1),
            footprint(1, big - 1, 11),
            footprint(0, 13, big / 3),
        ];
        let mut held = std::collections::VecDeque::new();
        for id in 0..10_000 {
            let r = &shapes[id as usize % shapes.len()];
            while !ac.fits(r) {
                let old = held
                    .pop_front()
                    .expect("an empty controller admits every shape");
                assert!(ac.release(old));
            }
            ac.reserve(id, r.clone());
            held.push_back(id);
        }
        for id in held {
            assert!(ac.release(id));
        }
        assert_eq!(ac.in_flight().device_total(), 0);
        assert_eq!(ac.in_flight().pinned_bytes, 0);
        // Exactly at budget fits; one byte more on either cap does not.
        assert!(ac.fits(&footprint(0, 3 * big, big)));
        assert!(!ac.fits(&footprint(0, 3 * big + 1, 0)));
        assert!(!ac.fits(&footprint(1, 0, big + 1)));
        ac.reserve(0, footprint(0, big, 0));
        assert!(ac.fits(&footprint(0, 2 * big, big)));
        assert!(!ac.fits(&footprint(0, 2 * big + 1, 0)));
    }

    #[test]
    fn float_budgets_floor_and_saturate() {
        let b = |x: f64| ServeBudget::new(x, x).device_bytes;
        assert_eq!(b(1.0e6), 1_000_000);
        assert_eq!(b(0.4), 0);
        assert_eq!(b(-1.0), 0);
        assert_eq!(b(f64::NAN), 0);
        assert_eq!(b(f64::INFINITY), u64::MAX);
        assert_eq!(ServeBudget::new(2.5, 7.9).pinned_bytes, 7);
    }
}
