//! Differential tests: the simulated executor and both functional
//! executors replay the *same plan*, so for every shipped configuration
//! they must agree — bit-identical sorted output between the
//! single-threaded and multi-threaded real executors, the same metric
//! *structure* (ratio ranges, interval sanity) across all three
//! observability exports, and the same placement of every dag node's
//! span: class, stream, batch and GPU, node by node.

use std::collections::{BTreeMap, BTreeSet};

use hetsort::algos::introsort::introsort;
use hetsort::core::exec_real::sort_real_plan;
use hetsort::core::exec_real_mt::sort_real_parallel;
use hetsort::core::exec_sim::simulate_plan;
use hetsort::core::{Approach, HetSortConfig, Plan, StagingMode};
use hetsort::obs::{MetricsRegistry, OpClass};
use hetsort::vgpu::{platform1, platform2};
use hetsort::workloads::{generate, Distribution};

/// The seeded config matrix: all five shipped configurations on both
/// platforms under both staging protocols, with a batch size that does
/// NOT divide n so the last batch is short (uneven-batch coverage).
fn matrix() -> Vec<(String, HetSortConfig, usize)> {
    let mut out = Vec::new();
    for plat in [platform1(), platform2()] {
        for staging in [StagingMode::Paper, StagingMode::DoubleBuffered] {
            let name = |a: &str| format!("{}/{}/{a}", plat.name, staging.name());
            let base = |a| {
                HetSortConfig::paper_defaults(plat.clone(), a)
                    .with_batch_elems(7_000)
                    .with_pinned_elems(1_500)
                    .with_staging(staging)
            };
            // BLine is single-batch: n = b_s exactly.
            out.push((name("BLine"), base(Approach::BLine), 7_000));
            for a in [
                Approach::BLineMulti,
                Approach::PipeData,
                Approach::PipeMerge,
            ] {
                // 30_000 / 7_000 → 5 batches, last one 2_000 elements.
                out.push((name(a.name()), base(a), 30_000));
            }
            out.push((
                name("ParMemCpy"),
                base(Approach::PipeMerge).with_par_memcpy(),
                30_000,
            ));
        }
    }
    out
}

fn classes(reg: &MetricsRegistry) -> BTreeSet<&'static str> {
    reg.classes().into_iter().map(|c| c.name()).collect()
}

/// Where a node's span sits: class, stream, batch, GPU.
type Placement = (OpClass, Option<usize>, Option<u64>, Option<usize>);

/// `node → placement` over a fault-free run's spans, checking on the
/// way that each node recorded exactly one span, that each `CpuPart`
/// breakdown names a merge node, that merges, pinned allocs and
/// barriers carry no batch, and that the only node-less spans are the
/// simulator's start-skew barriers.
fn node_placements(label: &str, reg: &MetricsRegistry) -> BTreeMap<u32, Placement> {
    let mut placed = BTreeMap::new();
    let mut parts = Vec::new();
    for s in reg.spans() {
        let batchless = matches!(
            s.class,
            OpClass::PairMerge
                | OpClass::MultiwayMerge
                | OpClass::PinnedAlloc
                | OpClass::Sync
                | OpClass::CpuPart
        );
        assert!(
            !batchless || s.batch.is_none(),
            "{label}: {s} carries a batch"
        );
        let Some(node) = s.node else {
            assert_eq!(s.class, OpClass::Sync, "{label}: {s} has no node");
            continue;
        };
        if s.class == OpClass::CpuPart {
            parts.push(node);
            continue;
        }
        let prev = placed.insert(node, (s.class, s.stream, s.batch, s.gpu));
        assert!(prev.is_none(), "{label}: node {node} recorded twice");
    }
    for node in parts {
        let class = placed.get(&node).map(|p| p.0);
        assert!(
            matches!(class, Some(OpClass::PairMerge | OpClass::MultiwayMerge)),
            "{label}: CpuPart span of node {node}, a {class:?}"
        );
    }
    placed
}

/// Structural invariants every registry must satisfy, whatever produced it.
fn check_structure(label: &str, reg: &MetricsRegistry) {
    assert!(!reg.spans().is_empty(), "{label}: no spans recorded");
    let ratio = reg.overlap_ratio();
    assert!((0.0..=1.0).contains(&ratio), "{label}: overlap {ratio}");
    let bus = reg.bus_util();
    assert!((0.0..=1.0).contains(&bus), "{label}: bus util {bus}");
    let e2e = reg.end_to_end_s();
    assert!(e2e >= 0.0 && e2e.is_finite(), "{label}: end-to-end {e2e}");
    // Union time (overlap collapsed) can never exceed the window; busy
    // sums can, which is exactly what overlap_ratio expresses.
    assert!(
        reg.union_total_s() <= e2e * (1.0 + 1e-9) + 1e-12,
        "{label}: union {} > window {e2e}",
        reg.union_total_s()
    );
    for class in reg.classes() {
        let st = reg.class_stats(class);
        assert!(st.count > 0, "{label}/{}: empty class listed", class.name());
        assert!(
            st.union_s <= st.busy_s * (1.0 + 1e-9) + 1e-12,
            "{label}/{}: union {} > busy {}",
            class.name(),
            st.union_s,
            st.busy_s
        );
    }
}

#[test]
fn executors_agree_on_output_and_metric_structure() {
    for (label, cfg, n) in matrix() {
        let data = generate(Distribution::Uniform, n, 0xD1FF)
            .expect("valid workload")
            .data;
        let mut expect = data.clone();
        introsort(&mut expect);
        let expect: Vec<u64> = expect.iter().map(|x| x.to_bits()).collect();

        let plan = Plan::build(cfg, n).expect(&label);
        let st = sort_real_plan(&plan, &data).expect(&label);
        let mt = sort_real_parallel(&plan, &data).expect(&label);
        let sim = simulate_plan(&plan).expect(&label);

        // Identical sorted output, bit for bit.
        let st_bits: Vec<u64> = st.sorted.iter().map(|x| x.to_bits()).collect();
        let mt_bits: Vec<u64> = mt.sorted.iter().map(|x| x.to_bits()).collect();
        assert!(st.verified && mt.verified, "{label}: verification failed");
        assert_eq!(st_bits, expect, "{label}: st output wrong");
        assert_eq!(mt_bits, expect, "{label}: mt output wrong");

        // Same metric structure everywhere.
        let sim_reg = sim.metrics();
        check_structure(&format!("{label}/sim"), &sim_reg);
        check_structure(&format!("{label}/real"), &st.metrics);
        check_structure(&format!("{label}/real_mt"), &mt.metrics);

        // Both functional executors executed the same plan, so they must
        // emit exactly the same span classes, CpuPart breakdowns
        // included.
        assert_eq!(
            classes(&st.metrics),
            classes(&mt.metrics),
            "{label}: class sets differ"
        );
        // All three place every dag node's span alike: one placement
        // rule, whichever executor ran the node.
        let sim_nodes = node_placements(&format!("{label}/sim"), &sim_reg);
        assert_eq!(
            sim_nodes.keys().copied().collect::<Vec<_>>(),
            (0..plan.steps.len() as u32).collect::<Vec<_>>(),
            "{label}: the simulation skipped a node"
        );
        for (name, reg) in [("real", &st.metrics), ("real_mt", &mt.metrics)] {
            let nodes = node_placements(&format!("{label}/{name}"), reg);
            for (node, want) in &sim_nodes {
                assert_eq!(
                    nodes.get(node),
                    Some(want),
                    "{label}/{name}: node {node} placed unlike the simulation"
                );
            }
            assert_eq!(nodes.len(), sim_nodes.len(), "{label}/{name}");
        }

        // Literature accounting covers a strict subset of the classes.
        for reg in [&sim_reg, &st.metrics, &mt.metrics] {
            assert!(
                reg.literature_total_s() <= reg.busy_total_s() + 1e-12,
                "{label}"
            );
        }
    }
}

#[test]
fn span_counts_match_plan_shape() {
    // The functional executors emit one span per executed step, so the
    // per-class counts are fully determined by the plan.
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_batch_elems(7_000)
        .with_pinned_elems(1_500);
    let n = 30_000;
    let data = generate(Distribution::Uniform, n, 7)
        .expect("valid workload")
        .data;
    let plan = Plan::build(cfg, n).expect("plan");
    let out = sort_real_plan(&plan, &data).expect("run");

    let st = out.metrics.class_stats(OpClass::GpuSort);
    assert_eq!(st.count as usize, plan.nb(), "one GPUSort per batch");
    let pm = out.metrics.class_stats(OpClass::PairMerge);
    assert_eq!(
        pm.count as usize,
        plan.config.pipelined_pair_merges(plan.nb()),
        "paper heuristic pair-merge count"
    );
    let mw = out.metrics.class_stats(OpClass::MultiwayMerge);
    assert_eq!(mw.count, 1, "exactly one final multiway merge");
    // Transferred bytes match n both ways (every element crosses once).
    let bytes_in = out.metrics.class_stats(OpClass::HtoD).bytes;
    let bytes_out = out.metrics.class_stats(OpClass::DtoH).bytes;
    let expect_bytes = (n as u64 * plan.config.elem_bytes.bytes()) as f64;
    assert!(
        (bytes_in - expect_bytes).abs() < 1.0,
        "HtoD bytes {bytes_in}"
    );
    assert!(
        (bytes_out - expect_bytes).abs() < 1.0,
        "DtoH bytes {bytes_out}"
    );
}
