//! Quickstart: sort a dataset with the heterogeneous CPU/GPU pipeline.
//!
//! Runs the PIPEMERGE pipeline *functionally* (real data through staging
//! buffers, device-resident radix sorts, pair merges, multiway merge),
//! verifies the result, then asks the calibrated simulator what the same
//! configuration would cost at paper scale on PLATFORM1.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use hetsort::core::{simulate, sort_real, Approach, HetSortConfig};
use hetsort::vgpu::platform1;
use hetsort::workloads::{generate, Distribution};

fn main() {
    // ---- 1. Functional sort of 2M real doubles ----------------------
    let n = 2_000_000;
    let workload = generate(Distribution::Uniform, n, 42).expect("valid workload");
    println!("sorting {n} uniform f64 with PipeMerge (functional run)...");

    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_batch_elems(250_000) // scaled-down "GPU memory" for the demo
        .with_pinned_elems(50_000);
    let out = sort_real(cfg, &workload.data).expect("pipeline failed");

    println!(
        "  sorted {} elements in {:.3} s wall ({} batches, {} pipelined pair merges)",
        out.sorted.len(),
        out.wall_s,
        out.nb,
        out.pair_merges
    );
    println!("  verified (sorted + permutation): {}", out.verified);
    assert!(out.verified);

    // ---- 2. Paper-scale timing of the same approach ------------------
    let n_big = 5_000_000_000usize;
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_batch_elems(500_000_000)
        .with_par_memcpy();
    let report = simulate(cfg, n_big).expect("simulation failed");
    println!(
        "\nsimulated on {}: n = {:.0e} (37 GiB) in {:.2} s",
        report.platform, n_big as f64, report.total_s
    );
    println!("{}", report.summary(&report.metrics().totals()));

    let ref_t = hetsort::core::reference::reference_time_full(&platform1(), n_big);
    println!(
        "reference CPU sort (16 threads): {ref_t:.2} s → speedup {:.2}x (paper: 3.21x)",
        ref_t / report.total_s
    );
}
