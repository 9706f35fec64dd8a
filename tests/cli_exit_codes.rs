//! The CLI never reports partial work as a pass and never dies on its
//! input: a truncated exploration is exit 1, an oversized plan is a
//! typed exit 1 (not an allocation abort), an explicit zero reaches
//! validation instead of meaning "default", a fractional count, a
//! deleted option or a schedule naming a GPU or stream the run lacks is
//! a usage error, and a fault the run recovers from writes nothing to
//! stderr.

use std::process::{Command, Output};

fn hetsort(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hetsort"))
        .args(args.split_whitespace())
        .output()
        .expect("spawn hetsort")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn truncated_exploration_is_exit_one_and_names_the_models() {
    // Single plan: the one explored model, the engine, hits the 20-op
    // budget (it takes 56 steps at this geometry).
    let out = hetsort("analyze -n 2500 -b 1000 --pinned 500 --explore --max-ops 20");
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert!(stdout.contains("TRUNCATED at op budget"), "{stdout}");
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(
        stderr.contains("1 of 1 truncated at the op budget"),
        "{stderr}"
    );
    assert!(stderr.contains("engine PipeMerge n=2500"), "{stderr}");

    // Matrix: some of the 28 models finish inside 50 ops, most do not.
    let out = hetsort("analyze --matrix --explore --max-ops 50");
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    assert!(!stdout.contains("explored models are clean"), "{stdout}");
    let truncated = stdout.matches("TRUNCATED at op budget").count();
    assert!((1..28).contains(&truncated), "{stdout}");
    assert!(
        stderr.contains(&format!("{truncated} of 28 truncated at the op budget")),
        "{stderr}"
    );
    assert!(stderr.contains("admission equal-jobs"), "{stderr}");

    // The same plan under a budget that completes is still exit 0.
    let out = hetsort("analyze -n 2500 -b 1000 --pinned 500 --explore");
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
}

#[test]
fn exploring_the_engine_at_paper_scale_is_a_usage_error() {
    // The engine model sorts n elements per explored interleaving, with
    // or without a loss schedule (the default n is 2e9).
    for args in [
        "analyze -n 2e9 -p p2 --faults lose:1@3 --explore",
        "analyze --explore",
    ] {
        let out = hetsort(args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(stderr.contains("use -n ≤ 1e6"), "{args}: {stderr}");
    }
}

#[test]
fn oversized_plan_is_a_typed_error_not_an_abort() {
    for args in ["simulate -n 1e18", "simulate -n 2e9 --pinned 1"] {
        let out = hetsort(args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert!(stderr.contains("invalid configuration"), "{args}: {stderr}");
        assert!(
            stderr.contains("n_b=") && stderr.contains("dag nodes"),
            "{args}: {stderr}"
        );
        assert!(!stderr.contains("memory allocation"), "{args}: {stderr}");
    }
}

#[test]
fn fractional_count_is_a_usage_error() {
    let out = hetsort("sort -n 1.5");
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("cannot parse count '1.5'"), "{stderr}");
    // Scientific notation with an integral value stays valid.
    let out = hetsort("simulate -n 2.5e9");
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
}

#[test]
fn a_deleted_option_is_a_usage_error() {
    // `--hybrid` left with the hybrid merge route; a script that still
    // passes it must fail loudly, not run a different plan.
    let out = hetsort("sort --hybrid 0.5");
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown option '--hybrid'"), "{stderr}");
}

#[test]
fn explicit_zero_overrides_are_config_errors() {
    for (args, reason) in [
        ("sort -n 1000 --streams 0", "at least one stream"),
        ("sort -n 1000 --batch 0", "b_s) must be positive"),
        ("sort -n 1000 --pinned 0", "p_s) must be positive"),
        ("simulate --streams 0 -a pipedata", "at least one stream"),
    ] {
        let out = hetsort(args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert!(stderr.contains(reason), "{args}: {stderr}");
    }
}

#[test]
fn schedules_naming_a_missing_gpu_are_usage_errors() {
    for (args, names) in [
        ("sort -n 1000 --faults lose:5@1", "PLATFORM1 has 1 GPU(s)"),
        // A loss is permanent: there is no fault that revives a GPU.
        (
            "sort -n 1000 -p p2 --faults join:1@3",
            "--faults: bad fault spec \"join:1@3\": unknown site",
        ),
        (
            "serve-sim --jobs 10 -p p1 --chaos lose:3@0.001",
            "PLATFORM1 has 1 GPU(s)",
        ),
        // One batch, so one stream: there is no stream 9 to panic.
        ("sort -n 1000 --faults panic:9@1", "has 1 stream(s)"),
    ] {
        let out = hetsort(args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(stderr.contains(names), "{args}: {stderr}");
    }
    // GPU 1 exists on PLATFORM2.
    let out = hetsort("serve-sim --jobs 10 -p p2 --chaos lose:1@0.001");
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
}

#[test]
fn a_recovered_injected_panic_writes_nothing_to_stderr() {
    // The panic unwinds without the panic hook, so not even a
    // backtrace reaches stderr; the engine still catches its message.
    let run = |args: &str| {
        Command::new(env!("CARGO_BIN_EXE_hetsort"))
            .args(args.split_whitespace())
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("spawn hetsort")
    };
    let args = "sort -n 6e4 -b 8000 --pinned 2000 --faults panic:0@1";
    let out = run(args);
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("verified: true"), "{stdout}");
    assert_eq!(stderr, "", "{args}");

    // Without the fallback the caught message is the run's error.
    let out = run(&format!("{args} --no-cpu-fallback"));
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("stream worker 0 panicked: injected panic in stream worker 0 at batch 0"),
        "{stderr}"
    );
}
