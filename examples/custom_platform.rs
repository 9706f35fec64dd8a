//! Bring your own hardware: define a custom platform and auto-tune the
//! pipeline for it.
//!
//! Models a hypothetical NVLink-attached accelerator (75 GB/s per
//! direction, 32 GiB HBM, 4× the K40m sort rate) on a 32-core host,
//! then sweeps batch size and stream count to find the best
//! configuration for a 10⁺-billion-element sort — the workflow a
//! downstream user follows for their own machine.
//!
//! ```bash
//! cargo run --release --example custom_platform
//! ```

use hetsort::core::{simulate, Approach, HetSortConfig};
use hetsort::vgpu::{platform1, CpuSpec, GpuSpec, PcieSpec, PinnedAllocModel, PlatformSpec};

fn nvlink_box() -> PlatformSpec {
    let base = platform1();
    PlatformSpec {
        name: "NVLINK-BOX".into(),
        cpu: CpuSpec {
            cores: 32,
            bus_traffic_bps: 80.0e9,
            ..base.cpu
        },
        gpus: vec![GpuSpec {
            name: "Hypothetical V100-class".into(),
            global_mem_bytes: 32 << 30,
            sort_keys_per_s: 3.2e9,
            kernel_launch_s: 20.0e-6,
            mem_bw_bps: 900.0e9,
        }],
        pcie: PcieSpec {
            pinned_bps: 75.0e9,
            pageable_bps: 30.0e9,
            chunk_sync_s: 0.2e-3,
            bidir_total_bps: 120.0e9,
        },
        pinned_alloc: PinnedAllocModel::paper(),
    }
}

fn main() {
    let plat = nvlink_box();
    let n = 10_000_000_000usize; // 74.5 GiB
    println!(
        "auto-tuning {} for n = {:.0e} ({:.1} GiB)\n",
        plat.name,
        n as f64,
        n as f64 * 8.0 / 1.074e9
    );
    println!(
        "{:>5} {:>14} {:>5} {:>10} {:>12}",
        "n_s", "b_s", "n_b", "total(s)", "vs CPU ref"
    );

    let ref_t = hetsort::core::reference::reference_time_full(&plat, n);
    let mut best: Option<(f64, usize, usize)> = None;
    for ns in [1usize, 2, 3, 4] {
        let bs = (plat.max_batch_elems(ns) / 1_000_000) * 1_000_000;
        let cfg = HetSortConfig::paper_defaults(plat.clone(), Approach::PipeMerge)
            .with_streams(ns)
            .with_batch_elems(bs)
            .with_par_memcpy();
        match simulate(cfg, n) {
            Ok(r) => {
                println!(
                    "{:>5} {:>14} {:>5} {:>10.2} {:>11.2}x",
                    ns,
                    bs,
                    r.nb,
                    r.total_s,
                    ref_t / r.total_s
                );
                if best.map(|(t, _, _)| r.total_s < t).unwrap_or(true) {
                    best = Some((r.total_s, ns, bs));
                }
            }
            Err(e) => println!("{ns:>5} {bs:>14}   configuration rejected: {e}"),
        }
    }
    let (t, ns, bs) = best.expect("at least one config must work");
    println!(
        "\nbest: n_s = {ns}, b_s = {bs} → {t:.2} s ({:.2}x over the 32-core CPU reference)",
        ref_t / t
    );
    println!(
        "note how even at 75 GB/s the speedup is bounded by CPU merging —\n\
         the paper's §V prediction for the NVLink era."
    );
}
