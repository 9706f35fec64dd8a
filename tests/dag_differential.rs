//! DAG-engine differential suite: every way of running a [`PlanDag`]
//! must agree on the data.
//!
//! Every scenario runs under the cross product of hybrid lowering
//! ([`HybridMode::Off`] / `Fraction` / `Auto` — which re-types trailing
//! or cost-model-selected pair merges to [`DagOp::CpuMerge`] nodes),
//! staging protocol ([`StagingMode::Paper`] / `DoubleBuffered`) and
//! worker count (`0` = every node inline on the caller, and one worker
//! per stream). The contract:
//!
//! * **Output** is bitwise identical across the whole grid and equal to
//!   the reference CPU sort — hybrid routing, the staging protocol and
//!   the worker count change *where and when* work runs, never what it
//!   computes.
//! * **Worker counts** additionally agree on the failover span labels,
//!   and on fault-free runs on recovery stats and the span multiset
//!   (class × label): the worker count is a resource parameter of one
//!   engine, so the observable schedule is the inline run's.
//! * Hybrid dags — including the all-CPU `Fraction(1.0)` extreme —
//!   pass [`analyze_dag`] with zero findings: the re-typed nodes keep
//!   the validator's producer keys and the lowered trace's sync edges.
//! * Fault injection (transient faults, OOM splits, device loss up to
//!   losing *every* GPU) recovers to the reference output everywhere,
//!   and every lost device is attributed in
//!   [`RecoveryStats::lost_gpu_mask`].
//!
//! [`PlanDag`]: hetsort::core::PlanDag
//! [`HybridMode::Off`]: hetsort::core::HybridMode
//! [`StagingMode::Paper`]: hetsort::core::StagingMode
//! [`DagOp::CpuMerge`]: hetsort::core::DagOp
//! [`analyze_dag`]: hetsort::analyze::analyze_dag
//! [`RecoveryStats::lost_gpu_mask`]: hetsort::core::RecoveryStats

use std::collections::BTreeMap;
use std::sync::Arc;

use hetsort::algos::introsort::introsort;
use hetsort::algos::keys::{KeyValue, RadixKey, SortOrd};
use hetsort::analyze::analyze_dag;
use hetsort::core::exec_real::RealOutcome;
use hetsort::core::{
    execute_dag_pooled, Approach, DagOp, HetSortConfig, HybridMode, Plan, PlanDag, StagingMode,
};
use hetsort::obs::{MetricsRegistry, OpClass};
use hetsort::vgpu::{platform1, platform2, FaultInjector, PlatformSpec};

/// Deterministic input stream (same LCG as the core unit tests).
fn lcg_data(n: usize, seed: u64) -> Vec<f64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// Bit-exact element identity, so `assert_eq!` on outputs is a bitwise
/// claim even for NaN-bearing floats.
trait Bits {
    fn bits(&self) -> (u64, u64);
}
impl Bits for f64 {
    fn bits(&self) -> (u64, u64) {
        (self.to_bits(), 0)
    }
}
impl Bits for KeyValue {
    fn bits(&self) -> (u64, u64) {
        (self.key.to_bits(), self.value)
    }
}

fn all_bits<T: Bits>(xs: &[T]) -> Vec<(u64, u64)> {
    xs.iter().map(Bits::bits).collect()
}

/// Span multiset keyed on (class, label). `CpuPart` spans are the
/// per-worker breakdown of a parallel merge region — their count
/// depends on how the self-scheduler happened to split the region, so
/// they are structure, not schedule, and are excluded.
fn span_multiset(reg: &MetricsRegistry) -> BTreeMap<(OpClass, String), usize> {
    let mut m = BTreeMap::new();
    for s in reg.spans() {
        if s.class == OpClass::CpuPart {
            continue;
        }
        *m.entry((s.class, s.label.clone())).or_insert(0) += 1;
    }
    m
}

/// The lowering grid every scenario runs under: hybrid mode × staging
/// protocol.
fn lowering_grid() -> Vec<(String, HybridMode, StagingMode)> {
    let mut grid = Vec::new();
    for (hname, hybrid) in [
        ("off", HybridMode::Off),
        ("frac0.5", HybridMode::Fraction(0.5)),
        ("auto", HybridMode::Auto),
    ] {
        for staging in [StagingMode::Paper, StagingMode::DoubleBuffered] {
            grid.push((format!("h={hname}/{}", staging.name()), hybrid, staging));
        }
    }
    grid
}

/// The failover span labels of a run, sorted.
fn failover_labels(reg: &MetricsRegistry) -> Vec<String> {
    let mut labels: Vec<String> = reg
        .spans()
        .iter()
        .filter(|s| s.label.starts_with("failover"))
        .map(|s| s.label.clone())
        .collect();
    labels.sort();
    labels
}

/// Run one config at both worker counts — inline (`workers = 0`) and
/// one worker per stream —, cross-check the two, and return the inline
/// outcome. `mk` builds the config from scratch each time so per-run
/// fault-injector state never leaks between executions.
fn check_modes<T>(label: &str, mk: &dyn Fn() -> HetSortConfig, data: &[T]) -> RealOutcome<T>
where
    T: RadixKey + SortOrd + Default + Bits,
{
    let run = |per_stream: bool| {
        let plan = Plan::build(mk().with_trace_recording(), data.len())
            .unwrap_or_else(|e| panic!("{label}: plan: {e}"));
        let workers = if per_stream {
            plan.total_streams.max(1)
        } else {
            0
        };
        execute_dag_pooled(&PlanDag::from_plan(plan), data, workers)
            .unwrap_or_else(|e| panic!("{label}: workers={workers}: {e}"))
    };
    let inline = run(false);
    let pooled = run(true);

    assert!(inline.verified, "{label}/inline: verification failed");
    assert!(pooled.verified, "{label}/pooled: verification failed");
    assert_eq!(
        all_bits(&inline.sorted),
        all_bits(&pooled.sorted),
        "{label}: output differs between worker counts"
    );
    assert_eq!(inline.nb, pooled.nb, "{label}: batch counts differ");
    assert_eq!(
        inline.pair_merges, pooled.pair_merges,
        "{label}: pair-merge counts differ"
    );
    assert_eq!(
        failover_labels(&inline.metrics),
        failover_labels(&pooled.metrics),
        "{label}: worker counts disagree on the failover spans"
    );
    // Which stream meets an injected fault depends on the pooled
    // interleaving; without faults the worker count must be
    // observationally invisible: identical recovery stats and span
    // multiset, not just identical bytes.
    if mk().faults.is_none() {
        assert_eq!(
            inline.recovery,
            pooled.recovery,
            "{label}: worker count changes recovery stats\n  0: {}\n  N: {}",
            inline.recovery.summary(),
            pooled.recovery.summary()
        );
        assert_eq!(
            span_multiset(&inline.metrics),
            span_multiset(&pooled.metrics),
            "{label}: worker count changes the span multiset"
        );
    }
    inline
}

/// Run `mk`'s config across the lowering grid (each at both worker
/// counts) and assert the outputs are all bitwise equal to `expect`.
fn check_hybrid_grid<T>(label: &str, mk: &dyn Fn() -> HetSortConfig, data: &[T], expect: &[T])
where
    T: RadixKey + SortOrd + Default + Bits,
{
    for (gname, hybrid, staging) in lowering_grid() {
        let label = format!("{label}/{gname}");
        let out = check_modes(
            &label,
            &|| mk().with_hybrid(hybrid).with_staging(staging),
            data,
        );
        assert_eq!(
            all_bits(&out.sorted),
            all_bits(expect),
            "{label}: output differs from reference sort"
        );
    }
}

/// The approach × geometry matrix on one platform: BLine's single
/// batch, an uneven final batch (30_000 = 4×7_000 + 2_000), and a
/// one-element final batch (14_001 = 2×7_000 + 1).
fn matrix(plat: &PlatformSpec) -> Vec<(String, HetSortConfig, usize)> {
    let base = |a| {
        HetSortConfig::paper_defaults(plat.clone(), a)
            .with_batch_elems(7_000)
            .with_pinned_elems(1_500)
    };
    let mut out = vec![(format!("{}/BLine", plat.name), base(Approach::BLine), 7_000)];
    for a in [
        Approach::BLineMulti,
        Approach::PipeData,
        Approach::PipeMerge,
    ] {
        for n in [30_000, 14_001] {
            out.push((format!("{}/{}/n{}", plat.name, a.name(), n), base(a), n));
        }
    }
    out.push((
        format!("{}/ParMemCpy", plat.name),
        base(Approach::PipeMerge).with_par_memcpy(),
        30_000,
    ));
    out
}

#[test]
fn hybrid_modes_agree_bitwise_f64() {
    for plat in [platform1(), platform2()] {
        for (label, cfg, n) in matrix(&plat) {
            let data = lcg_data(n, 0xDA6);
            let mut expect = data.clone();
            hetsort::core::reference::reference_sort_real(4, &mut expect);
            check_hybrid_grid(&label, &|| cfg.clone(), &data, &expect);
        }
    }
}

#[test]
fn hybrid_modes_agree_bitwise_key_value_records() {
    // 16-byte key/value rows (§IV-E workload of [5]): the payload must
    // ride along bit-exactly through staging, device sort, and merges —
    // including merges routed to the CPU pool. One geometry per
    // platform keeps the grid (3 hybrid × 2 staging × 2 worker counts)
    // affordable.
    for plat in [platform1(), platform2()] {
        let label = format!("{}/PipeMerge/kv16", plat.name);
        let n = 30_000;
        let keys = lcg_data(n, 0x16BE);
        let rows: Vec<KeyValue> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| KeyValue {
                key: k,
                value: i as u64,
            })
            .collect();
        let cfg = HetSortConfig::paper_defaults(plat.clone(), Approach::PipeMerge)
            .with_batch_elems(7_000)
            .with_pinned_elems(1_500)
            .with_elem_bytes(hetsort::core::ElemWidth::KeyValue);
        let mut expect = rows.clone();
        introsort(&mut expect);
        check_hybrid_grid(&label, &|| cfg.clone(), &rows, &expect);
    }
}

#[test]
fn cpu_merge_heavy_dag_analyzes_clean() {
    // The all-CPU extreme: Fraction(1.0) re-types every pair merge.
    // The dag must still satisfy all validator rules and lower to a
    // race-free trace — CpuMerge keeps PairMerge's producer key,
    // dependency edges, and buffer accesses.
    for plat in [platform1(), platform2()] {
        let cfg = HetSortConfig::paper_defaults(plat.clone(), Approach::PipeMerge)
            .with_batch_elems(7_000)
            .with_pinned_elems(1_500)
            .with_hybrid(HybridMode::Fraction(1.0));
        let plan = Plan::build(cfg, 30_000).expect("plan");
        let dag = PlanDag::from_plan(plan);
        let cpu_merges = dag
            .nodes
            .iter()
            .filter(|n| matches!(n.op, DagOp::CpuMerge { .. }))
            .count();
        assert!(cpu_merges > 0, "{}: no CpuMerge nodes lowered", plat.name);
        assert!(
            !dag.nodes
                .iter()
                .any(|n| matches!(n.op, DagOp::PairMerge { .. })),
            "{}: Fraction(1.0) must re-type every pair merge",
            plat.name
        );
        let report = analyze_dag(&dag);
        assert!(
            report.findings.is_empty(),
            "{}: CpuMerge-heavy dag has findings: {:?}",
            plat.name,
            report.findings
        );
    }
}

#[test]
fn hybrid_modes_agree_under_faults() {
    // Recovery paths must hold in every mode: transient transfer faults
    // with retries, an OOM split, and a mid-run device loss each
    // recover to the reference output whether merges run on the pair
    // lane or the CPU pool, under either staging protocol. Fresh
    // injectors per
    // execution (the config closure) keep occurrence counters from
    // leaking across runs.
    let n = 40_000;
    let data = lcg_data(n, 0xFA17);
    let mut expect = data.clone();
    introsort(&mut expect);
    let cases: [(&str, &str); 3] = [
        ("transient", "htod:3,dtoh:5"),
        ("oom-split", "oom:1"),
        ("device-loss", "lose:1@3"),
    ];
    for (name, spec) in cases {
        let label = format!("p2/PipeMerge/{name}");
        let mk = || {
            HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
                .with_batch_elems(5_000)
                .with_pinned_elems(1_000)
                .with_faults(Arc::new(
                    FaultInjector::parse(spec).expect("valid fault spec"),
                ))
        };
        for (gname, hybrid, staging) in lowering_grid() {
            let label = format!("{label}/{gname}");
            let out = check_modes(
                &label,
                &|| mk().with_hybrid(hybrid).with_staging(staging),
                &data,
            );
            assert!(out.recovery.any(), "{label}: fault schedule never fired");
            assert_eq!(
                all_bits(&out.sorted),
                all_bits(&expect),
                "{label}: recovered output differs from reference"
            );
        }
    }
}

#[test]
fn no_survivor_fallback_attributes_the_loss() {
    // Losing the only GPU forces the host-sort fallback; every mode
    // must degrade identically, and the casualty must land in the
    // lost-device mask.
    let n = 20_000;
    let data = lcg_data(n, 0x1057);
    let mk = || {
        HetSortConfig::paper_defaults(platform1(), Approach::PipeData)
            .with_batch_elems(4_000)
            .with_pinned_elems(800)
            .with_faults(Arc::new(FaultInjector::new().lose_device(0, 2)))
    };
    for (gname, hybrid, staging) in lowering_grid() {
        let label = format!("p1/PipeData/no-survivors/{gname}");
        let out = check_modes(
            &label,
            &|| mk().with_hybrid(hybrid).with_staging(staging),
            &data,
        );
        assert!(out.recovery.device_lost >= 1);
        assert!(
            out.recovery.degraded_batches > 0,
            "{label}: no survivors must degrade to host sorting"
        );
        assert_eq!(
            out.recovery.lost_gpus(),
            vec![0],
            "{label}: the lost device must be attributed"
        );
    }
}
