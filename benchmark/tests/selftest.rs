//! The benchmark checks itself: the names it prints are the names in
//! `BENCHMARK.json`, its output checks can fail, and the same seed
//! reproduces the same inputs and the same exact counts.
//!
//! Everything runs at 1/100 size with two iterations.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use hetsort_benchmark::metrics::EXACT;
use hetsort_benchmark::run::{run, RunOpts, RunResult};
use hetsort_benchmark::suite::{result_json, Contract};
use hetsort_benchmark::workload::{
    check_sim, Kind, Primary, ServeInput, SimBaseline, SortInput, Spec, Tally,
};
use hetsort_core::exec_sim::simulate_plan;
use hetsort_core::Plan;
use hetsort_obs::Json;

const SCALE: usize = 100;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
}

/// The release `hetsort` CLI in the root workspace's own target
/// directory, built on first use (a no-op after `cargo build --release`
/// at the root).
fn cli_bin() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let target = root().join("target");
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "hetsort",
            ])
            .arg("--manifest-path")
            .arg(root().join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the hetsort CLI failed");
        target.join("release").join("hetsort")
    })
    .clone()
}

fn opts(kind: Kind, seed: u64, trace: bool, tag: &str) -> RunOpts {
    RunOpts {
        kind,
        seed,
        seconds: 1.0,
        iters: Some(2),
        scale: SCALE,
        trace,
        out_dir: root().join("benchmark/out").join(format!("selftest-{tag}")),
        cli_bin: cli_bin(),
    }
}

fn contract() -> Contract {
    Contract::load(root()).expect("BENCHMARK.json parses")
}

#[test]
fn workloads_and_exact_counts_are_in_benchmark_json() {
    let c = contract();
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(c.workloads, names);
    for name in EXACT {
        assert!(c.per_layer.iter().any(|(n, _)| n == name), "{name}");
    }
}

#[test]
fn every_workload_prints_exactly_the_contract_names() {
    let c = contract();
    for kind in Kind::ALL {
        for trace in [false, true] {
            let r = run(&opts(kind, 42, trace, "names"), &c)
                .unwrap_or_else(|e| panic!("{} trace {trace}: {e}", kind.name()));
            let line = result_json(&c, &r).dump();
            let parsed = Json::parse(&line).expect("result line parses");
            c.check_result(&parsed, trace)
                .unwrap_or_else(|e| panic!("{} trace {trace}: {e}", kind.name()));
            assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)), "{line}");
            assert!(r.tally.attempted >= 1 && r.tally.failed == 0);
        }
    }
}

#[test]
fn result_check_rejects_missing_extra_and_mistyped_metrics() {
    let c = contract();
    let r = run(&opts(Kind::ServeMix, 42, false, "reject"), &c).expect("runs");
    let good = result_json(&c, &r);
    c.check_result(&good, false)
        .expect("the real result passes");
    assert!(
        c.check_result(&good, true).is_err(),
        "end-to-end names are not per-layer names"
    );
    let edit = |f: &dyn Fn(&mut std::collections::BTreeMap<String, Json>)| {
        let Json::Obj(mut top) = good.clone() else {
            unreachable!()
        };
        let Some(Json::Obj(metrics)) = top.get_mut("metrics") else {
            unreachable!()
        };
        f(metrics);
        Json::Obj(top)
    };
    let missing = edit(&|m| {
        m.remove("wall_s");
    });
    assert!(c
        .check_result(&missing, false)
        .unwrap_err()
        .contains("missing"));
    let extra = edit(&|m| {
        m.insert(
            "bogus".into(),
            Json::obj(vec![("value", Json::n(1.0)), ("unit", Json::s("s"))]),
        );
    });
    assert!(c.check_result(&extra, false).unwrap_err().contains("bogus"));
    let unit = edit(&|m| {
        m.insert(
            "wall_s".into(),
            Json::obj(vec![("value", Json::n(1.0)), ("unit", Json::s("ms"))]),
        );
    });
    assert!(c.check_result(&unit, false).unwrap_err().contains("unit"));
    let nan = edit(&|m| {
        m.insert(
            "wall_s".into(),
            Json::obj(vec![("value", Json::Null), ("unit", Json::s("s"))]),
        );
    });
    assert!(c.check_result(&nan, false).unwrap_err().contains("value"));
}

#[test]
fn a_corrupted_sort_output_fails_the_check() {
    for kind in [Kind::SortUniform, Kind::SortDups, Kind::SortPooled] {
        let spec = Spec::new(kind, SCALE, 7);
        let input = SortInput::prepare(&spec.sort, 7).expect("prepares");
        let mut out = input.run().expect("sorts");
        assert!(input.check(&out), "{}", kind.name());
        // Swap two elements that differ: still a permutation of the
        // input, no longer its sorted order.
        let last = out.sorted.len() - 1;
        assert_ne!(out.sorted[0].to_bits(), out.sorted[last].to_bits());
        out.sorted.swap(0, last);
        assert!(!input.check(&out), "{}", kind.name());
        out.sorted.swap(0, last);
        // The executor's own verdict is part of the check.
        out.verified = false;
        assert!(!input.check(&out));
    }
}

#[test]
fn a_perturbed_simulated_total_fails_the_check() {
    let spec = Spec::new(Kind::SimPaper, SCALE, 7);
    let plan = Plan::build(spec.sim.cfg.clone(), spec.sim.n).expect("plans");
    let nodes = plan.steps.len();
    let report = simulate_plan(&plan).expect("simulates");
    let mut baseline = SimBaseline::default();
    assert!(check_sim(&mut baseline, &report, nodes));
    assert!(check_sim(&mut baseline, &report, nodes), "a repeat passes");
    let mut off = report.clone();
    off.total_s = f64::from_bits(report.total_s.to_bits() + 1);
    assert!(
        !check_sim(&mut baseline, &off, nodes),
        "one ulp off the first total"
    );
    let mut fresh = SimBaseline::default();
    off.total_s = f64::NAN;
    assert!(!check_sim(&mut fresh, &off, nodes), "not finite");
    assert!(
        !check_sim(&mut SimBaseline::default(), &report, nodes * 2),
        "too few spans"
    );
}

#[test]
fn corrupted_shed_or_drifting_service_runs_fail_the_check() {
    let input = ServeInput::prepare(12, 7);
    let submitted = input.jobs.len() as u64;
    let good = input.service().run(input.build_jobs());
    let mut baseline = None;
    assert_eq!(input.check(&mut baseline, &good), 0);

    let mut swapped = good.clone();
    let sorted = &mut swapped.completed[0].sorted;
    let last = sorted.len() - 1;
    sorted.swap(0, last);
    assert_eq!(input.check(&mut baseline, &swapped), 1);

    let mut lost = good.clone();
    lost.completed.pop();
    assert_eq!(
        input.check(&mut baseline, &lost),
        submitted,
        "a job unaccounted for"
    );

    let mut drift = good.clone();
    drift.makespan_s = f64::from_bits(good.makespan_s.to_bits() + 1);
    assert_eq!(
        input.check(&mut baseline, &drift),
        submitted,
        "makespan must repeat"
    );

    // A queue too short to hold the burst sheds, and shed jobs count.
    let tight = hetsort_serve::SortService::new(
        hetsort_serve::ServeConfig::new(hetsort_serve::ServeBudget::new(1.0e6, 1.0e6))
            .with_queue_cap(1),
    );
    let shed = tight.run(input.build_jobs());
    assert!(!shed.shed.is_empty());
    assert!(input.check(&mut None, &shed) >= shed.shed.len() as u64);
}

#[test]
fn a_failed_check_reaches_the_result_line() {
    let c = contract();
    let ok = run(&opts(Kind::SimPaper, 42, false, "line"), &c).expect("runs");
    let failed = RunResult {
        tally: Tally {
            attempted: ok.tally.attempted,
            failed: 1,
        },
        ..ok.clone()
    };
    assert_eq!(result_json(&c, &ok).get("correct"), Some(&Json::Bool(true)));
    let line = result_json(&c, &failed);
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(1.0));
}

#[test]
fn same_seed_same_inputs_and_exact_counts() {
    for kind in Kind::ALL {
        let prepare = |seed| {
            Primary::prepare(&Spec::new(kind, SCALE, seed), seed)
                .expect("prepares")
                .input_fingerprint()
        };
        assert_eq!(prepare(5), prepare(5), "{}", kind.name());
        assert_ne!(prepare(5), prepare(6), "{}", kind.name());
    }
    for kind in [Kind::SortUniform, Kind::SimPaper, Kind::ServeMix] {
        let exact = |tag: &str| -> Vec<u64> {
            let r = run(&opts(kind, 9, true, tag), &contract()).expect("traced run");
            EXACT
                .iter()
                .map(|name| {
                    let m = r.metrics.iter().find(|m| m.name == *name).expect("listed");
                    m.value.to_bits()
                })
                .collect()
        };
        assert_eq!(exact("exact-a"), exact("exact-b"), "{}", kind.name());
    }
}
