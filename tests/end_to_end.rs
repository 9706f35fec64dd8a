//! Cross-crate end-to-end tests: every approach, on both platforms,
//! functionally sorts real data that the simulator times — the plan is
//! shared, so these runs validate exactly the orchestration that the
//! figures measure.

use hetsort::algos::introsort::introsort;
use hetsort::core::{simulate, sort_real, Approach, ElemWidth, HetSortConfig};
use hetsort::vgpu::{platform1, platform2};
use hetsort::workloads::{generate, Distribution};

fn sorted_bits(mut v: Vec<f64>) -> Vec<u64> {
    introsort(&mut v);
    v.into_iter().map(f64::to_bits).collect()
}

fn all_configs() -> Vec<(String, HetSortConfig)> {
    let mut out = Vec::new();
    for plat in [platform1(), platform2()] {
        for approach in [
            Approach::BLineMulti,
            Approach::PipeData,
            Approach::PipeMerge,
        ] {
            for par in [false, true] {
                let mut cfg = HetSortConfig::paper_defaults(plat.clone(), approach)
                    .with_batch_elems(7_000)
                    .with_pinned_elems(1_000);
                if par {
                    cfg = cfg.with_par_memcpy();
                }
                out.push((format!("{}/{}/par={par}", plat.name, approach.name()), cfg));
            }
        }
    }
    out
}

#[test]
fn every_approach_sorts_correctly_on_every_platform() {
    let data = generate(Distribution::Uniform, 50_000, 4242)
        .expect("valid workload")
        .data;
    let expect = sorted_bits(data.clone());
    for (label, cfg) in all_configs() {
        let out = sort_real(cfg, &data).expect(&label);
        assert!(out.verified, "{label}: verification failed");
        let got: Vec<u64> = out.sorted.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, expect, "{label}: wrong output");
    }
}

#[test]
fn bline_single_batch_on_both_platforms() {
    let data = generate(Distribution::Uniform, 9_000, 7)
        .expect("valid workload")
        .data;
    let expect = sorted_bits(data.clone());
    for plat in [platform1(), platform2()] {
        let cfg = HetSortConfig::paper_defaults(plat, Approach::BLine)
            .with_batch_elems(9_000)
            .with_pinned_elems(2_000);
        let out = sort_real(cfg, &data).expect("bline");
        assert!(out.verified);
        assert_eq!(out.nb, 1);
        let got: Vec<u64> = out.sorted.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, expect);
    }
}

#[test]
fn every_distribution_sorts_correctly() {
    for dist in Distribution::catalog() {
        let data = generate(dist, 20_000, 11).expect("valid workload").data;
        let expect = sorted_bits(data.clone());
        let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
            .with_batch_elems(3_000)
            .with_pinned_elems(500);
        let out = sort_real(cfg, &data).expect("pipeline");
        assert!(out.verified, "{dist}");
        let got: Vec<u64> = out.sorted.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, expect, "{dist}");
    }
}

#[test]
fn simulation_and_functional_share_the_same_plan() {
    // Build one plan; run it both ways; both must succeed with the same
    // structure (batch count, pair merges).
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_batch_elems(4_000)
        .with_pinned_elems(800);
    let n = 30_000;
    let plan = hetsort::core::Plan::build(cfg, n).expect("plan");
    plan.validate().expect("invariants");
    let data = generate(Distribution::Uniform, n, 5)
        .expect("valid workload")
        .data;
    let real = hetsort::core::exec_real::sort_real_plan(&plan, &data).expect("real");
    let sim = hetsort::core::exec_sim::simulate_plan(&plan).expect("sim");
    assert!(real.verified);
    assert_eq!(real.nb, sim.nb);
    assert_eq!(real.pair_merges, plan.pairs.len());
    assert!(sim.total_s > 0.0);
}

#[test]
fn simulated_timing_is_deterministic_and_distribution_free() {
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_batch_elems(500_000_000);
    let a = simulate(cfg.clone(), 3_000_000_000).unwrap();
    let b = simulate(cfg, 3_000_000_000).unwrap();
    assert_eq!(a.total_s, b.total_s);
    assert_eq!(a.metrics().to_json(), b.metrics().to_json());
}

#[test]
fn key_value_records_sort_with_payload_integrity() {
    use hetsort::algos::keys::KeyValue;
    use hetsort::workloads::generate_kv;
    let records = generate_kv(Distribution::Uniform, 30_000, 17).expect("valid workload");
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_elem_bytes(ElemWidth::KeyValue)
        .with_batch_elems(4_000)
        .with_pinned_elems(800);
    let out = sort_real(cfg, &records).expect("kv pipeline");
    assert!(out.verified);
    // Keys non-decreasing and every payload still present exactly once.
    assert!(out
        .sorted
        .windows(2)
        .all(|w| w[0].key.total_cmp(&w[1].key) != std::cmp::Ordering::Greater));
    let mut payloads: Vec<u64> = out.sorted.iter().map(|r| r.value).collect();
    payloads.sort_unstable();
    assert!(payloads.iter().enumerate().all(|(i, &v)| v == i as u64));
    // And each payload still sits next to its original key.
    let _ = KeyValue::default();
    for r in out.sorted.iter().take(100) {
        assert_eq!(records[r.value as usize].key.to_bits(), r.key.to_bits());
    }
}

#[test]
fn element_size_mismatch_is_rejected() {
    let records =
        hetsort::workloads::generate_kv(Distribution::Uniform, 1_000, 1).expect("valid workload");
    // Config still models 8-byte elements → must be refused.
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::BLineMulti)
        .with_batch_elems(200)
        .with_pinned_elems(50);
    assert!(sort_real(cfg, &records).is_err());
}

#[test]
fn key_value_records_sort_in_parallel_executor() {
    use hetsort::workloads::generate_kv;
    // The elem_bytes = 16 path through the threaded executor.
    let records = generate_kv(Distribution::Uniform, 20_000, 23).expect("valid workload");
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_elem_bytes(ElemWidth::KeyValue)
        .with_batch_elems(3_000)
        .with_pinned_elems(600);
    let plan = hetsort::core::Plan::build(cfg, records.len()).expect("plan");
    let seq = hetsort::core::exec_real::sort_real_plan(&plan, &records).expect("seq kv");
    let par = hetsort::core::sort_real_parallel(&plan, &records).expect("par kv");
    assert!(seq.verified && par.verified);
    assert_eq!(
        seq.sorted
            .iter()
            .map(|r| (r.key.to_bits(), r.value))
            .collect::<Vec<_>>(),
        par.sorted
            .iter()
            .map(|r| (r.key.to_bits(), r.value))
            .collect::<Vec<_>>(),
        "parallel KV output must be bit-identical to sequential"
    );
}

#[test]
fn parallel_executor_matches_sequential_at_integration_scale() {
    let data = generate(Distribution::Uniform, 80_000, 3)
        .expect("valid workload")
        .data;
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_batch_elems(9_000)
        .with_pinned_elems(1_500);
    let plan = hetsort::core::Plan::build(cfg, data.len()).unwrap();
    let seq = hetsort::core::exec_real::sort_real_plan(&plan, &data).unwrap();
    let par = hetsort::core::sort_real_parallel(&plan, &data).unwrap();
    assert!(seq.verified && par.verified);
    assert_eq!(
        seq.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        par.sorted.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
}

#[test]
fn tiny_inputs_and_edge_sizes() {
    for n in [1usize, 2, 999, 1_000, 1_001, 2_047] {
        let data = generate(Distribution::Uniform, n, n as u64)
            .expect("valid workload")
            .data;
        let expect = sorted_bits(data.clone());
        let cfg = HetSortConfig::paper_defaults(platform1(), Approach::BLineMulti)
            .with_batch_elems(1_000)
            .with_pinned_elems(333);
        let out = sort_real(cfg, &data).unwrap_or_else(|e| panic!("n={n}: {e}"));
        assert!(out.verified, "n={n}");
        let got: Vec<u64> = out.sorted.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, expect, "n={n}");
    }
}
