//! Differential tests: the simulated executor and both functional
//! executors replay the *same plan*, so for every shipped configuration
//! they must agree — bit-identical sorted output between the
//! single-threaded and multi-threaded real executors, and the same
//! metric *structure* (span classes, ratio ranges, interval sanity)
//! across all three observability exports.

use std::collections::BTreeSet;

use hetsort::algos::introsort::introsort;
use hetsort::core::exec_real::sort_real_plan;
use hetsort::core::exec_real_mt::sort_real_parallel;
use hetsort::core::exec_sim::simulate_plan;
use hetsort::core::{Approach, HetSortConfig, Plan};
use hetsort::obs::{MetricsRegistry, OpClass};
use hetsort::vgpu::{platform1, platform2};
use hetsort::workloads::{generate, Distribution};

/// The seeded config matrix: all five shipped configurations on both
/// platforms, with a batch size that does NOT divide n so the last
/// batch is short (uneven-batch coverage).
fn matrix() -> Vec<(String, HetSortConfig, usize)> {
    let mut out = Vec::new();
    for plat in [platform1(), platform2()] {
        let base = |a| {
            HetSortConfig::paper_defaults(plat.clone(), a)
                .with_batch_elems(7_000)
                .with_pinned_elems(1_500)
        };
        // BLine is single-batch: n = b_s exactly.
        out.push((format!("{}/BLine", plat.name), base(Approach::BLine), 7_000));
        for a in [
            Approach::BLineMulti,
            Approach::PipeData,
            Approach::PipeMerge,
        ] {
            // 30_000 / 7_000 → 5 batches, last one 2_000 elements.
            out.push((format!("{}/{}", plat.name, a.name()), base(a), 30_000));
        }
        out.push((
            format!("{}/ParMemCpy", plat.name),
            base(Approach::PipeMerge).with_par_memcpy(),
            30_000,
        ));
    }
    out
}

fn classes(reg: &MetricsRegistry) -> BTreeSet<&'static str> {
    reg.classes().into_iter().map(|c| c.name()).collect()
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
        // emit exactly the same span classes; the simulator sees at
        // least those classes (it may add e.g. Sync as a separate span).
        let st_classes = classes(&st.metrics);
        let mt_classes = classes(&mt.metrics);
        assert_eq!(st_classes, mt_classes, "{label}: class sets differ");
        let sim_classes = classes(&sim_reg);
        for c in &st_classes {
            // CpuPart is the per-worker breakdown of the real merges —
            // the simulator models merges as single calibrated spans and
            // never emits it.
            if *c == "CpuPart" {
                continue;
            }
            assert!(
                sim_classes.contains(c),
                "{label}: class {c} in real run but not simulated ({sim_classes:?})"
            );
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
