//! A sort's n-sized host buffers sit on huge pages.
//!
//! The engine builds its batch runs, pair outputs, `B`, device buffers
//! and sort scratch through `hetsort_algos::mem`, which advises the
//! kernel to back them with 2 MiB pages. Through 4 KiB pages, merely
//! writing `B` and the runs it is merged from costs `2·n·elem / 4096`
//! minor faults; this test holds one whole `sort_real_plan` call well
//! below that. An n-sized allocation that bypasses the helper brings
//! thousands of faults back.
//!
//! Linux only, and only where transparent huge pages honour the advice
//! (`always` or `madvise` in `/sys/kernel/mm/transparent_hugepage/enabled`)
//! with 2 MiB huge pages; elsewhere the test says why it skipped and
//! passes. This binary holds exactly one `#[test]`, so nothing else
//! faults while the call runs.

use hetsort::algos::mem::HUGE_PAGE;
use hetsort::core::exec_real::sort_real_plan;
use hetsort::core::{Approach, HetSortConfig, Plan};
use hetsort::vgpu::platform1;
use hetsort::workloads::{generate, Distribution};

const N: usize = 4_000_000;
const BATCH: usize = 1_000_000;
const PINNED: usize = 100_000;
const ELEM: usize = std::mem::size_of::<f64>();

/// Why huge pages cannot back the engine's buffers here, if they cannot:
/// THP off, or a huge page other than the helper's 2 MiB.
fn no_huge_pages() -> Option<String> {
    let thp = "/sys/kernel/mm/transparent_hugepage";
    let Ok(enabled) = std::fs::read_to_string(format!("{thp}/enabled")) else {
        return Some(format!("{thp}/enabled is not readable"));
    };
    if !(enabled.contains("[always]") || enabled.contains("[madvise]")) {
        return Some(format!("transparent huge pages are {:?}", enabled.trim()));
    }
    let size = std::fs::read_to_string(format!("{thp}/hpage_pmd_size")).unwrap_or_default();
    if size.trim() != HUGE_PAGE.to_string() {
        return Some(format!(
            "the huge page is {:?} bytes, not {HUGE_PAGE}",
            size.trim()
        ));
    }
    None
}

/// This process's minor faults so far (`minflt`, field 10 of
/// `/proc/self/stat`; counted after the parenthesised command name).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let after = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    after
        .split_whitespace()
        .nth(7)
        .and_then(|f| f.parse().ok())
        .expect("minflt field")
}

#[test]
fn a_sort_faults_its_big_buffers_in_huge_pages() {
    if let Some(why) = no_huge_pages() {
        eprintln!("skipped: {why}");
        return;
    }
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_batch_elems(BATCH)
        .with_pinned_elems(PINNED);
    let plan = Plan::build(cfg, N).unwrap();
    let data = generate(Distribution::Uniform, N, 42).unwrap().data;

    let before = minor_faults();
    let out = sort_real_plan(&plan, &data).unwrap();
    let faults = minor_faults() - before;
    assert!(out.verified);

    // 15 625 at 4 KiB pages for `B` and its inputs alone. On huge pages
    // a call reads 5.9–7.0 k (2 vCPU, 4 KiB base pages): the unaligned
    // head and tail of each big buffer and the sub-2 MiB pinned staging.
    // One n-sized buffer on 4 KiB pages adds 7.8 k.
    let small_pages = (2 * N * ELEM / 4096) as u64;
    eprintln!("minor faults: {faults} (2·n·elem in 4 KiB pages: {small_pages})");
    assert!(
        faults < 2 * small_pages / 3,
        "{faults} minor faults for one sort of n = {N}: an n-sized buffer \
         is not on huge pages (2·n·elem is {small_pages} 4 KiB pages)"
    );
}
