//! Multi-GPU scaling on PLATFORM2 (2× Tesla K40m behind one PCIe host
//! link): how much does the second GPU buy when the bus is shared? Also
//! checks PIPEDATA against the paper's §IV-G lower-bound models.
//!
//! ```bash
//! cargo run --release --example multi_gpu
//! ```

use hetsort::core::{simulate, sort_real, Approach, HetSortConfig};
use hetsort::model::LowerBoundModel;
use hetsort::vgpu::platform2;
use hetsort::workloads::{generate, Distribution};

fn main() {
    let p2 = platform2();
    let mut p2_single = p2.clone();
    p2_single.gpus.truncate(1);
    let bs = 350_000_000usize;

    println!("PLATFORM2: 2× K40m (12 GiB each) sharing one PCIe link\n");
    println!(
        "{:>12} {:>14} {:>14} {:>14}",
        "n", "1 GPU (s)", "2 GPUs (s)", "2-GPU gain"
    );
    for i in [2usize, 4, 7] {
        let n = i * 700_000_000;
        let t1 = simulate(
            HetSortConfig::paper_defaults(p2_single.clone(), Approach::PipeMerge)
                .with_batch_elems(bs)
                .with_par_memcpy(),
            n,
        )
        .expect("sim")
        .total_s;
        let t2 = simulate(
            HetSortConfig::paper_defaults(p2.clone(), Approach::PipeMerge)
                .with_batch_elems(bs)
                .with_par_memcpy(),
            n,
        )
        .expect("sim")
        .total_s;
        println!("{n:>12} {t1:>14.2} {t2:>14.2} {:>13.2}x", t1 / t2);
    }
    println!("\n(gain < 2x: the PCIe link is shared and the CPU still does all merging —");
    println!(" the paper's motivation for GPU-side merging in the NVLink era)\n");

    // Lower-bound efficiency, as in Figure 11.
    let m1 = LowerBoundModel::one_gpu(&p2).expect("1-GPU model");
    let m2 = LowerBoundModel::two_gpu(&p2).expect("2-GPU model");
    println!(
        "lower-bound models: 1 GPU y={:.3}ns·n, 2 GPUs y={:.3}ns·n (paper: 6.278 / 3.706)",
        m1.slope * 1e9,
        m2.slope * 1e9
    );
    let n = 4_900_000_000usize;
    let t1 = simulate(
        HetSortConfig::paper_defaults(p2_single, Approach::PipeData).with_batch_elems(bs),
        n,
    )
    .expect("sim")
    .total_s;
    println!(
        "PipeData (1 GPU) at n=4.9e9: {:.2} s → {:.2}x of the bound (paper: 0.93x)",
        t1,
        m1.slowdown(n, t1)
    );

    // Functional proof at demo scale: dual-GPU plan sorts correctly.
    let data = generate(Distribution::Uniform, 400_000, 7)
        .expect("valid workload")
        .data;
    let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
        .with_batch_elems(50_000)
        .with_pinned_elems(10_000);
    let out = sort_real(cfg, &data).expect("functional run");
    println!(
        "\nfunctional dual-GPU run: {} batches over 4 streams/2 GPUs, verified = {}",
        out.nb, out.verified
    );
    assert!(out.verified);
}
