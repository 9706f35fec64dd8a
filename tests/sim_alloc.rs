//! The simulate path allocates per plan, not per node or per event.
//!
//! A counting `GlobalAlloc` over `System` counts allocator calls
//! (`alloc`, `alloc_zeroed`, `realloc`) and tracks peak live heap
//! bytes. The plans are Figure 9's largest PIPEMERGE run (PLATFORM1,
//! n = 5·10⁹: 20 027 nodes, 28 965 simulated events) and the same
//! configuration at n/8 (2 511 nodes, 3 767 events):
//!
//! * (a) `PlanDag::validate` allocates the same number of times at both
//!   sizes: its tables are sized by the plan's geometry (16 calls at
//!   each size when this was written);
//! * (b) `SimBuilder::run` over one op per node of the plan's dag
//!   allocates a number of times that does not follow the events: the
//!   larger plan's ≈ 4.8 × the events cost at most [`RUN_GROWTH`] more
//!   calls, the doublings of the per-event usage record and of the live
//!   sets (measured: 46 calls over 2 333 events at n/8, 55 over
//!   11 093 at n);
//! * (c) `simulate_plan` allocates at most [`PER_NODE`] times per node
//!   (measured: 2.55 at n/8, 2.51 at n, most of it the three `Vec`s of
//!   each op's spec) and its peak live bytes at n stay within
//!   [`PEAK_BYTES`], the 10 086 012 B measured plus 10 %.
//!
//! This binary holds exactly one `#[test]`, so nothing else allocates
//! while a call is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hetsort::core::exec_sim::simulate_plan;
use hetsort::core::{Approach, DagOp, HetSortConfig, Plan, PlanDag};
use hetsort::sim::{Op, OpId, SimBuilder};
use hetsort::vgpu::platform1;

/// Figure 9's largest input.
const N: usize = 5_000_000_000;
/// Extra allocator calls `SimBuilder::run` may make at `N` over `N / 8`.
const RUN_GROWTH: u64 = 16;
/// Allocator calls `simulate_plan` may make per dag node.
const PER_NODE: f64 = 4.0;
/// Peak live bytes of `simulate_plan` at `N`: measured + 10 %.
const PEAK_BYTES: u64 = 10_086_012 * 11 / 10;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                CALLS.fetch_add(1, Ordering::Relaxed);
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f`; return its result, the allocator calls it made and its peak
/// live bytes above those live before it.
fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let calls = CALLS.load(Ordering::Relaxed);
    let out = f();
    let calls = CALLS.load(Ordering::Relaxed) - calls;
    (out, calls, PEAK.load(Ordering::Relaxed) - base)
}

/// One engine op per dag node, on the node's dependency edges: staging
/// copies and merges share a host bus, transfers a PCIe link, so the
/// run's events follow the dag's size.
fn engine_of(plan: &Plan) -> SimBuilder {
    let mut sb = SimBuilder::new();
    let bus = sb.fluid("bus", 28e9);
    let pcie = sb.fluid("pcie", 12e9);
    let tag = sb.tag("node");
    for node in &plan.steps {
        let op = match node.op {
            DagOp::PinnedAlloc { .. } => Op::fixed(tag, 1e-3),
            DagOp::StagingCopy { len, .. } => {
                Op::new(tag, 8.0 * len as f64).cap(6.5e9).demand(bus, 2.0)
            }
            DagOp::HtoD { len, .. } | DagOp::DtoH { len, .. } => {
                Op::new(tag, 8.0 * len as f64).demand(pcie, 1.0)
            }
            DagOp::Sort { batch } => Op::new(tag, plan.batches[batch].len as f64).cap(1.9e9),
            DagOp::PairMerge { slot } => Op::new(tag, plan.pairs[slot].out_elems as f64)
                .cap(2.3e9)
                .demand(bus, 24.0),
            DagOp::MultiwayMerge { .. } => Op::new(tag, plan.n as f64).cap(2.3e9).demand(bus, 24.0),
        };
        sb.op(op.deps(node.deps.iter().map(|&d| OpId(d))));
    }
    sb
}

struct Sample {
    nodes: usize,
    validate_calls: u64,
    run_calls: u64,
    run_events: u64,
    events: u64,
    simulate_calls: u64,
    simulate_peak: u64,
}

fn sample(n: usize) -> Sample {
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge);
    let plan = Plan::build(cfg, n).unwrap();
    let dag = PlanDag::from_plan(plan.clone());
    let (valid, validate_calls, _) = measure(|| dag.validate());
    valid.unwrap();
    let sb = engine_of(&plan);
    let (timeline, run_calls, _) = measure(|| sb.run());
    let run_events = timeline.unwrap().stats().events;
    let (report, simulate_calls, simulate_peak) = measure(|| simulate_plan(&plan));
    let events = report.unwrap().timeline.stats().events;
    Sample {
        nodes: plan.steps.len(),
        validate_calls,
        run_calls,
        run_events,
        events,
        simulate_calls,
        simulate_peak,
    }
}

#[test]
fn simulation_allocates_per_plan() {
    let (paper, eighth) = (sample(N), sample(N / 8));
    assert_eq!(paper.nodes, 20_027, "not Figure 9's largest plan");
    assert!(
        paper.events >= 7 * eighth.events,
        "simulated events did not scale"
    );
    assert!(
        paper.run_events >= 4 * eighth.run_events,
        "run events did not scale"
    );

    // (a) The validator's allocations do not follow the dag.
    assert_eq!(
        paper.validate_calls, eighth.validate_calls,
        "validate: {} calls at {} nodes, {} at {}",
        paper.validate_calls, paper.nodes, eighth.validate_calls, eighth.nodes
    );

    // (b) Nor do the engine's follow its events.
    assert!(
        paper.run_calls <= eighth.run_calls + RUN_GROWTH,
        "SimBuilder::run: {} calls over {} events, {} over {}",
        paper.run_calls,
        paper.run_events,
        eighth.run_calls,
        eighth.run_events
    );

    // (c) The whole path: a few calls per node, bounded peak bytes.
    for s in [&paper, &eighth] {
        let per_node = s.simulate_calls as f64 / s.nodes as f64;
        assert!(
            per_node <= PER_NODE,
            "simulate_plan: {per_node:.2} calls per node at {} nodes",
            s.nodes
        );
    }
    assert!(
        paper.simulate_peak <= PEAK_BYTES,
        "simulate_plan: peak {} B live > {PEAK_BYTES} B",
        paper.simulate_peak
    );
}
