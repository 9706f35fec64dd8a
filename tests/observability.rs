//! Observability-layer integration tests: the Chrome-trace export the
//! CLI writes is structurally valid for both executor families, and the
//! `--json` metrics document round-trips through the schema parser.

use hetsort::core::exec_real::sort_real_plan;
use hetsort::core::exec_sim::simulate_plan;
use hetsort::core::{Approach, HetSortConfig, Plan};
use hetsort::obs::{chrome_trace, validate_chrome, Json, OpClass};
use hetsort::vgpu::platform1;
use hetsort::workloads::{generate, Distribution};

fn small_plan() -> Plan {
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge)
        .with_batch_elems(6_000)
        .with_pinned_elems(1_000);
    Plan::build(cfg, 25_000).expect("plan")
}

#[test]
fn chrome_trace_from_functional_run_validates() {
    let plan = small_plan();
    let data = generate(Distribution::Uniform, plan.n, 99)
        .expect("valid workload")
        .data;
    let out = sort_real_plan(&plan, &data).expect("run");
    let text = chrome_trace(&out.metrics, "test functional");
    let summary = validate_chrome(&text).expect("structurally valid trace");
    assert_eq!(summary.complete_events, out.metrics.spans().len());
    assert!(summary.metadata_events > 0, "lane names must be emitted");
    assert!(summary.categories.iter().any(|c| c == "GPUSort"));
    assert!(summary.categories.iter().any(|c| c == "StagingCopy"));
    // The piped schedule overlaps staging with transfers on each lane's
    // wall clock, but within one lane spans nest or abut — never deeper
    // than the pipeline allows.
    assert!(summary.max_depth >= 1);
}

#[test]
fn chrome_trace_from_simulated_run_validates() {
    let plan = small_plan();
    let report = simulate_plan(&plan).expect("sim");
    let reg = report.metrics();
    let text = chrome_trace(&reg, "test simulated");
    let summary = validate_chrome(&text).expect("structurally valid trace");
    assert_eq!(summary.complete_events, reg.spans().len());
    // Every category the simulator emits is part of the span vocabulary.
    for c in &summary.categories {
        assert!(OpClass::parse(c).is_some(), "unknown category {c}");
    }
}

#[test]
fn metrics_json_round_trips_through_parser() {
    let plan = small_plan();
    let report = simulate_plan(&plan).expect("sim");
    let reg = report.metrics();
    let doc = reg.to_json();
    let text = doc.pretty();
    let back = Json::parse(&text).expect("parses");
    // Headline numbers survive the round trip exactly (our writer emits
    // full-precision doubles).
    let e2e = back
        .get("end_to_end_s")
        .and_then(Json::as_f64)
        .expect("e2e");
    assert_eq!(e2e, reg.end_to_end_s());
    let overlap = back
        .get("overlap_ratio")
        .and_then(Json::as_f64)
        .expect("ratio");
    assert_eq!(overlap, reg.overlap_ratio());
    let comps = back
        .get("components")
        .and_then(Json::as_obj)
        .expect("components");
    assert_eq!(comps.len(), reg.classes().len());
    let counters = back
        .get("counters")
        .and_then(Json::as_obj)
        .expect("counters");
    assert!(counters.contains_key("sim.sync_s"));
    assert!(counters.contains_key("sim.launch_s"));
}

#[test]
fn simulate_text_and_json_report_one_literature_total() {
    // The summary line and the --json document of one `simulate` run
    // read the same registry: the literature's total and the overhead
    // it misses agree at the printed precision.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hetsort"))
        .args([
            "simulate", "-n", "2e9", "-p", "p2", "-a", "pipedata", "--json", "-",
        ])
        .output()
        .expect("spawn hetsort");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let (text, json) = stdout.split_at(stdout.find("\n{").expect("a JSON document") + 1);
    let printed = |label: &str| {
        let at = text
            .find(label)
            .unwrap_or_else(|| panic!("no {label:?} in {text}"));
        let rest = &text[at + label.len()..];
        rest[..rest.find(" s").expect("seconds")].to_string()
    };
    let metrics = Json::parse(json).expect("parses");
    let metrics = metrics.get("metrics").expect("metrics");
    for (label, key) in [
        ("literature method: ", "literature_total_s"),
        ("missing overhead: ", "missing_overhead_s"),
    ] {
        let v = metrics.get(key).and_then(Json::as_f64).expect(key);
        assert_eq!(printed(label), format!("{v:.3}"), "{key}");
    }
}

#[test]
fn split_merges_recycle_pooled_buffers() {
    use hetsort::vgpu::FaultInjector;
    use std::sync::Arc;

    // oom:1 drops one stream into Split mode for the rest of the run;
    // with 5 batches over 2 streams that stream merges 3 batches
    // host-side. The first merge-output checkout must miss (pool is
    // empty) and every later one must hit — before the buffer pool each
    // merge allocated a fresh zeroed vector, observable here as
    // pool.hits == 0.
    let faults = Arc::new(FaultInjector::new().oom_on_alloc(1));
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeData)
        .with_batch_elems(6_000)
        .with_pinned_elems(1_000)
        .with_faults(faults);
    let plan = Plan::build(cfg, 25_000).expect("plan");
    let data = generate(Distribution::Uniform, plan.n, 5)
        .expect("valid workload")
        .data;
    let out = sort_real_plan(&plan, &data).expect("run survives OOM");
    assert!(out.verified);
    assert_eq!(
        out.metrics.counter("pool.misses"),
        1.0,
        "only the first Split merge may allocate: {:?}",
        out.metrics.counters()
    );
    assert!(
        out.metrics.counter("pool.hits") >= 1.0,
        "repeated Split merges must be serviced by recycled buffers: {:?}",
        out.metrics.counters()
    );
}

#[test]
fn recovery_counters_surface_in_metrics() {
    use hetsort::vgpu::FaultInjector;
    use std::sync::Arc;

    let faults = Arc::new(FaultInjector::new().oom_on_alloc(1));
    let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeData)
        .with_batch_elems(6_000)
        .with_pinned_elems(1_000)
        .with_faults(faults);
    let plan = Plan::build(cfg, 25_000).expect("plan");
    let data = generate(Distribution::Uniform, plan.n, 5)
        .expect("valid workload")
        .data;
    let out = sort_real_plan(&plan, &data).expect("run survives OOM");
    assert!(out.verified);
    assert!(out.recovery.any(), "the injected OOM must be recovered");
    // The same stats are observable as counters in every export path.
    assert!(
        out.metrics.counter("recovery.faults_injected") >= 1.0,
        "counters: {:?}",
        out.metrics.counters()
    );
    assert_eq!(
        out.metrics.counter("recovery.oom_replans"),
        out.recovery.oom_replans as f64
    );
}
