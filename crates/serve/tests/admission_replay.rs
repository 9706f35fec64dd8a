//! Minimal counterexample schedules found by the schedule-space
//! explorer, replayed step for step against the **shipped**
//! [`AdmissionController`]. Each test pins one adversarial order the
//! explorer surfaced; if a future edit re-introduces the defect the
//! explorer seeds (double-releasing, skipping displacement releases),
//! the corresponding replay fails directly — no model in the loop.

use hetsort_core::Residency;
use hetsort_serve::{AdmissionController, ServeBudget};

fn budget(device_bytes: u64, pinned_bytes: u64) -> ServeBudget {
    ServeBudget {
        device_bytes,
        pinned_bytes,
    }
}

/// Byte counts are integers, so a drained controller holds exactly
/// zero whichever order two reservations are released in, and a
/// budget-sized job fits again.
#[test]
fn either_release_order_drains_to_an_exact_budget() {
    let boundary = Residency::on_gpu(0, 4, 0);
    for order in [[1, 2], [2, 1]] {
        let mut ac = AdmissionController::new(budget(4, 1));
        ac.reserve(1, Residency::on_gpu(0, 1, 0));
        ac.reserve(2, Residency::on_gpu(0, 3, 0));
        assert!(!ac.fits(&boundary), "pool is exactly full");
        for id in order {
            assert!(ac.release(id));
        }
        assert!(ac.ever_fits(&boundary));
        assert!(ac.fits(&boundary), "{order:?}: {:?}", ac.in_flight());
    }
}

/// Explorer counterexample for lose/join revalidation: losing a GPU
/// mid-flight must displace its reservations, refuse new footprints
/// on the dead device (now *and* ever), and restore admissibility
/// after a rejoin — with the displaced reservation released so the
/// budget is whole again.
#[test]
fn lose_then_join_revalidates_displaced_reservations() {
    let mut ac = AdmissionController::new(budget(4, 4));
    ac.reserve(1, Residency::on_gpu(0, 2, 1));
    ac.reserve(2, Residency::on_gpu(1, 2, 1));

    let displaced = ac.lose_gpu(1);
    assert_eq!(displaced, vec![2], "only the GPU-1 reservation is hit");
    let on_lost = Residency::on_gpu(1, 1, 0);
    assert!(!ac.fits(&on_lost), "dead device admits nothing");
    assert!(!ac.ever_fits(&on_lost), "… and never will while dead");

    // The service releases every displaced reservation before
    // re-queuing the job (explorer mutant `skip-displace-release`
    // models forgetting this — the budget then leaks).
    for id in displaced {
        assert!(ac.release(id));
    }
    assert_eq!(ac.held(), vec![1]);

    ac.join_gpu(1);
    assert!(ac.ever_fits(&on_lost), "rejoin restores the device");
    assert!(ac.fits(&on_lost), "released budget is available again");

    assert!(ac.release(1));
    assert!(ac.held().is_empty());
    assert_eq!(ac.in_flight().device_total(), 0);
    assert_eq!(ac.in_flight().pinned_bytes, 0);
}

/// Explorer counterexample shape for `AdmissionDefect::DoubleRelease`:
/// replaying reserve/release reuse against the real controller and
/// asserting the ground-truth budget is respected at every step.
/// Releasing an id twice must be a no-op the second time, never a
/// second subtraction.
#[test]
fn release_is_idempotent_and_budget_holds_under_reuse() {
    let fp = Residency::on_gpu(0, 4, 1);
    let mut ac = AdmissionController::new(budget(8, 16));

    ac.reserve(1, fp.clone());
    ac.reserve(2, fp.clone());
    assert!(!ac.fits(&fp), "two in flight fill the device budget");

    assert!(ac.release(1));
    assert!(!ac.release(1), "second release of the same id is a no-op");
    // A defective double-subtraction would free phantom capacity here
    // and admit two more jobs on top of job 2.
    assert!(ac.fits(&fp));
    ac.reserve(3, fp.clone());
    assert!(
        !ac.fits(&fp),
        "in flight: {:?} — admitting a third would overcommit",
        ac.held()
    );

    assert!(ac.release(2));
    assert!(ac.release(3));
    assert!(ac.held().is_empty());
    assert!(ac.fits(&Residency::on_gpu(0, 8, 0)), "fully drained");
}
