//! The missing-overhead audit (§IV-E): what does "end-to-end" really
//! include?
//!
//! Reproduces the paper's critique of the literature's accounting:
//! summing only HtoD + GPUSort + DtoH hides the pinned-memory
//! allocation, the host staging copies, and the per-chunk
//! synchronization — which together are a large fraction of the truth.
//! Every number comes from the run's metrics registry
//! (`TimingReport::metrics`): the literature's total is the busy time
//! of `OpClass::LITERATURE` less the sync and launch latency the
//! simulator embeds in those spans, and the omitted components are the
//! other classes.
//!
//! ```bash
//! cargo run --release --example overhead_audit
//! ```

use hetsort::core::accounting::OverheadRow;
use hetsort::core::{simulate, Approach, HetSortConfig};
use hetsort::obs::OpClass;
use hetsort::vgpu::platform1;

fn main() {
    println!("BLINE on PLATFORM1 — both accountings, sweeping n:\n");
    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>12}",
        "n", "lit (s)", "full (s)", "missing", "missing %"
    );
    for i in 1..=5 {
        let n = i * 200_000_000usize;
        let cfg = HetSortConfig::paper_defaults(platform1(), Approach::BLine);
        let r = simulate(cfg, n).expect("sim");
        let row = OverheadRow::from_report(&r);
        println!(
            "{:>12} {:>10.3} {:>10.3} {:>10.3} {:>11.1}%",
            n,
            row.literature_total_s,
            row.full_total_s,
            row.missing_s(),
            100.0 * row.missing_fraction()
        );
    }

    // Where does the missing time go? Break down the largest run.
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::BLine);
    let r = simulate(cfg, 1_000_000_000).expect("sim");
    let t = r.metrics().totals();
    println!("\nomitted components at n = 1e9:");
    for (class, st) in t.present() {
        if !OpClass::LITERATURE.contains(&class) && st.busy_s > 0.0 {
            println!("  {:<12} {:>8.3} s", class.name(), st.busy_s);
        }
    }
    println!(
        "  {:<12} {:>8.3} s  (async-copy sync, inside transfer spans)",
        "(sync)", r.sync_s
    );

    // The tempting "fix" the paper shoots down: one giant pinned buffer.
    println!("\nwhat if we pinned the whole input instead (p_s = n)?");
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::BLine)
        .with_batch_elems(1_000_000_000)
        .with_pinned_elems(1_000_000_000);
    let r2 = simulate(cfg, 1_000_000_000).expect("sim");
    println!(
        "  allocation alone: {:.2} s — more than the literature's whole end-to-end ({:.2} s); total {:.2} s vs {:.2} s",
        r2.metrics().class_stats(OpClass::PinnedAlloc).busy_s,
        t.literature_total_s(),
        r2.total_s,
        r.total_s,
    );
}
