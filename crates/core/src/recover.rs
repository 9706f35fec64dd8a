//! Device-loss re-planning for the functional engine.
//!
//! When a [`FaultInjector`](hetsort_vgpu::FaultInjector) pool schedule
//! kills a GPU mid-run, the engine checkpoints per-batch completion
//! (host-resident sorted runs survive; device-resident state died with
//! the card) and rebuilds the *unfinished* work as a fresh plan over the
//! surviving devices. Two properties make that re-plan cheap and safe:
//!
//! * batch tiling (`index`/`start`/`len`) depends only on `n` and
//!   `batch_elems`, never on the GPU count — so a survivor plan has the
//!   *identical* batch set, and the original plan's merge schedule
//!   (pair slots, multiway inputs) stays valid verbatim;
//! * [`Plan::on_devices`] relabels the survivor plan's compacted GPU
//!   indices back to physical device numbers, so the shared fault
//!   schedule, spans, and residency accounting keep addressing the same
//!   hardware, and validates it ([`Plan::validate`]) once: the engine
//!   resumes on its nodes without checking them again.

use std::collections::BTreeSet;

use crate::config::HetSortConfig;
use crate::error::HetSortError;
use crate::plan::Plan;

/// `cfg`'s plan of `n` elements on the devices not in `dead`: a plain
/// [`Plan::build`] when none is dead, else the survivors' plan
/// relabelled to physical devices and validated ([`Plan::on_devices`]).
/// The engine re-plans a device loss with it (`cfg`, `n` of the original
/// plan); the service plans a job on a shrunken pool. `Ok(None)` when
/// no device survives.
///
/// # Errors
///
/// Propagates [`Plan::build`] / [`Plan::on_devices`] failures.
pub fn survivor_plan(
    cfg: &HetSortConfig,
    n: usize,
    dead: &BTreeSet<usize>,
) -> Result<Option<Plan>, HetSortError> {
    if dead.is_empty() {
        return Plan::build(cfg.clone(), n).map(Some);
    }
    let surv: Vec<usize> = (0..cfg.platform.n_gpus())
        .filter(|g| !dead.contains(g))
        .collect();
    if surv.is_empty() {
        return Ok(None);
    }
    let mut cfg = cfg.clone();
    cfg.platform.gpus = surv.iter().map(|&g| cfg.platform.gpus[g].clone()).collect();
    Plan::build(cfg, n)?.on_devices(surv).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Approach;
    use hetsort_vgpu::platform2;

    #[test]
    fn survivor_plan_keeps_tiling_and_maps_devices() {
        let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
            .with_batch_elems(5_000)
            .with_pinned_elems(1_000);
        let base = Plan::build(cfg, 40_000).unwrap();
        assert_eq!(base.device_ids, vec![0, 1]);
        let lost: BTreeSet<usize> = [0].into_iter().collect();
        let rp = survivor_plan(&base.config, base.n, &lost).unwrap().unwrap();
        rp.validate().unwrap();
        assert_eq!(rp.device_ids, vec![1]);
        assert_eq!(rp.nb(), base.nb());
        for (a, b) in base.batches.iter().zip(rp.batches.iter()) {
            assert_eq!((a.index, a.start, a.len), (b.index, b.start, b.len));
        }
        // Every batch now addresses physical device 1.
        for b in &rp.batches {
            assert_eq!(rp.physical_gpu(b.gpu), 1);
        }
        // Losing everything yields None.
        let all: BTreeSet<usize> = [0, 1].into_iter().collect();
        assert!(survivor_plan(&base.config, base.n, &all).unwrap().is_none());
    }
}
