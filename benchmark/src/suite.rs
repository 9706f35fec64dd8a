//! Everything around a single run: the result line the driver reads,
//! the provenance block, the `BENCHMARK.json` contract, the all-workload
//! suite (`run.sh` without `--workload`) and the A/A comparison
//! (`aa.sh`). Each run is a fresh child process of this executable, so
//! no workload inherits another's heap, page cache warmth or peak RSS.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use hetsort_obs::Json;

use crate::metrics::EXACT;
use crate::procstat;
use crate::run::{RunOpts, RunResult};
use crate::stats::{quartiles, spread};
use crate::workload::{IterSample, Kind};

/// Where every run writes its documents and span file, relative to the
/// repository root the benchmark runs from.
pub const OUT_DIR: &str = "benchmark/out";

/// Runs per workload in each set of the A/A comparison: the driver's
/// count.
const AA_RUNS: usize = 10;

/// The one JSON object a run prints as its last line of standard
/// output: exactly `correct`, `attempted`, `failed` and `metrics`, each
/// metric with the unit `BENCHMARK.json` gives it.
pub fn result_json(contract: &Contract, r: &RunResult) -> Json {
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            let unit = contract.unit_of(m.name).unwrap_or("");
            let entry = Json::obj(vec![("value", Json::n(m.value)), ("unit", Json::s(unit))]);
            (m.name.to_string(), entry)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(r.tally.failed == 0)),
        ("attempted", Json::n(r.tally.attempted as f64)),
        ("failed", Json::n(r.tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what a result was measured. Every document written
/// under `benchmark/out/` carries this block.
pub fn provenance(opts: &RunOpts, r: &RunResult) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut fields = vec![
        (
            "git_commit",
            Json::s(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::s(first_line_of("rustc", &["-V"]))),
        ("nproc", Json::n(nproc as f64)),
        (
            "cpus_allowed",
            Json::s(procstat::cpus_allowed_list().unwrap_or_default()),
        ),
        ("cpu_model", Json::s(procstat::cpu_model())),
        ("llc_bytes", Json::n(procstat::llc_bytes() as f64)),
        ("workload", Json::s(opts.kind.name())),
        ("work_unit", Json::s(opts.kind.work_unit())),
        ("seed", Json::n(opts.seed as f64)),
        ("scale_divisor", Json::n(opts.scale as f64)),
        ("seconds", Json::n(opts.seconds)),
        ("traced", Json::Bool(opts.trace)),
        ("input_fingerprint", Json::s(r.input_fingerprint.clone())),
        ("host_steal_s", Json::n(r.host_steal_s)),
    ];
    if let Some((working_set, dram)) = r.roofline_bytes {
        fields.push(("memcpy_working_set_bytes", Json::n(working_set as f64)));
        fields.push(("memcpy_dram_array_bytes", Json::n(dram as f64)));
    }
    Json::obj(fields)
}

/// Write `out/<workload>.trace<0|1>.json`: provenance, the result line
/// and the untraced iteration samples behind it.
///
/// # Errors
///
/// I/O errors, as text.
pub fn write_run_document(
    opts: &RunOpts,
    contract: &Contract,
    r: &RunResult,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let name = format!("{}.trace{}.json", opts.kind.name(), u8::from(opts.trace));
    let path = opts.out_dir.join(name);
    let column = |f: &dyn Fn(&IterSample) -> f64| {
        Json::Arr(r.samples.iter().map(|s| Json::n(f(s))).collect())
    };
    let doc = Json::obj(vec![
        ("provenance", provenance(opts, r)),
        ("result", result_json(contract, r)),
        ("wall_samples_s", column(&|s| s.wall_s)),
        ("cpu_samples_s", column(&|s| s.used.cpu_s())),
        ("sys_samples_s", column(&|s| s.used.sys_s)),
        ("peak_rss_samples_mib", column(&|s| s.peak_rss_mib)),
        ("steal_samples_s", column(&|s| s.used.steal_s)),
        ("fastest_samples", Json::n(r.fastest_samples as f64)),
    ]);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// One end-to-end metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Share of the reference median it may worsen by.
    pub bound: f64,
}

/// `BENCHMARK.json`, as far as the harness reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<Bounded>,
    /// Per-layer metrics `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
    /// Seconds one run measures for.
    pub run_seconds: f64,
}

impl Contract {
    /// Parse the text of a `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no `{key}` array"))
        };
        let text_of = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without `{key}`"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?;
        let end_to_end = list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(Bounded {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("BENCHMARK.json: end_to_end entry without `bound`")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let per_layer = list("per_layer")?
            .iter()
            .map(|m| Ok((text_of(m, "name")?, text_of(m, "unit")?)))
            .collect::<Result<_, String>>()?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: no `run_seconds`")?;
        Ok(Contract {
            workloads,
            end_to_end,
            per_layer,
            run_seconds,
        })
    }

    /// Read `BENCHMARK.json` from `root`.
    ///
    /// # Errors
    ///
    /// I/O and parse errors, as text.
    pub fn load(root: &Path) -> Result<Contract, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Contract::parse(&text)
    }

    /// Unit of a metric, end-to-end or per-layer.
    pub fn unit_of(&self, name: &str) -> Option<&str> {
        let bounded = self.end_to_end.iter().map(|m| (&m.name, &m.unit));
        let layered = self.per_layer.iter().map(|(n, u)| (n, u));
        bounded
            .chain(layered)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| u.as_str())
    }

    /// The `(name, unit)` pairs a run with `--trace <traced>` must print.
    pub fn expected(&self, traced: bool) -> Vec<(String, String)> {
        if traced {
            self.per_layer.clone()
        } else {
            self.end_to_end
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        }
    }

    /// Check a result line against the contract: exactly the four keys,
    /// exactly the expected metric names, each with a finite value and
    /// the contract's unit.
    ///
    /// # Errors
    ///
    /// Names the first key, metric or unit that is off.
    pub fn check_result(&self, result: &Json, traced: bool) -> Result<(), String> {
        let keys: Vec<&str> = result
            .as_obj()
            .ok_or("result is not an object")?
            .keys()
            .map(String::as_str)
            .collect();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("result keys are {keys:?}"));
        }
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("`metrics` is not an object")?;
        let expected = self.expected(traced);
        for (name, unit) in &expected {
            let m = metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} is missing"))?;
            match m.get("value").and_then(Json::as_f64) {
                Some(v) if v.is_finite() => {}
                other => return Err(format!("metric {name} has value {other:?}")),
            }
            if m.get("unit").and_then(Json::as_str) != Some(unit) {
                return Err(format!(
                    "metric {name} has unit {:?}, not {unit:?}",
                    m.get("unit")
                ));
            }
        }
        match metrics
            .keys()
            .find(|k| !expected.iter().any(|(n, _)| n == *k))
        {
            Some(extra) => Err(format!("metric {extra} is not in BENCHMARK.json")),
            None => Ok(()),
        }
    }
}

/// How the suite and the A/A comparison start runs.
#[derive(Debug, Clone)]
pub struct Launcher {
    /// This executable.
    pub exe: PathBuf,
    /// Seconds each run measures for.
    pub seconds: f64,
    /// Every run is a smoke run (`--smoke`).
    pub smoke: bool,
}

impl Launcher {
    /// Run one workload pass in a fresh process and parse its last
    /// line of standard output.
    ///
    /// # Errors
    ///
    /// Spawn failures, a non-zero exit, or an unparseable result line.
    pub fn run(&self, kind: Kind, seed: u64, traced: bool) -> Result<Json, String> {
        let mut cmd = Command::new(&self.exe);
        cmd.args(["--workload", kind.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }]);
        if self.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", self.exe.display()))?;
        if !out.status.success() {
            return Err(format!(
                "{} (trace {}) exited with {}",
                kind.name(),
                u8::from(traced),
                out.status
            ));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().ok_or("run printed nothing")?;
        Json::parse(last)
    }
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn print_metrics(result: &Json, expected: &[(String, String)]) {
    for (name, unit) in expected {
        let v = metric_value(result, name).unwrap_or(f64::NAN);
        println!("  {name:<34} {v:>16.6} {unit}");
    }
}

/// Run every workload once untraced and once traced, check each result
/// against the contract, print every metric by name with its unit, and
/// write `out/suite.json`.
///
/// # Errors
///
/// The first run that fails, prints a malformed result, or reports an
/// incorrect output.
pub fn run_suite(launcher: &Launcher, contract: &Contract, seed: u64) -> Result<(), String> {
    let mut doc = Vec::new();
    for kind in Kind::ALL {
        println!(
            "== {} (seed {seed}, work unit: {}) ==",
            kind.name(),
            kind.work_unit()
        );
        let mut passes = Vec::new();
        for traced in [false, true] {
            let result = launcher.run(kind, seed, traced)?;
            contract.check_result(&result, traced)?;
            let attempted = result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let failed = result
                .get("failed")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            println!(
                " {} pass: failed_share {} ({failed} of {attempted} checks)",
                if traced { "traced" } else { "untraced" },
                failed / attempted,
            );
            print_metrics(&result, &contract.expected(traced));
            if result.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("{}: outputs are not correct", kind.name()));
            }
            passes.push((if traced { "per_layer" } else { "end_to_end" }, result));
        }
        doc.push((kind.name(), Json::obj(passes)));
    }
    let path = Path::new(OUT_DIR).join("suite.json");
    std::fs::write(&path, Json::obj(doc).pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} (per-run provenance is in the files next to it)",
        path.display()
    );
    Ok(())
}

/// One side of the A/A comparison: per workload, the end-to-end values
/// of [`AA_RUNS`] untraced runs (seeds `seed`, `seed + 1`, …) and the
/// exact counts of one traced run.
fn aa_set(
    launcher: &Launcher,
    contract: &Contract,
    seed: u64,
) -> Result<Vec<(Kind, Vec<Json>, Json)>, String> {
    let mut set = Vec::new();
    for kind in Kind::ALL {
        let mut untraced = Vec::with_capacity(AA_RUNS);
        for i in 0..AA_RUNS {
            let r = launcher.run(kind, seed + i as u64, false)?;
            contract.check_result(&r, false)?;
            untraced.push(r);
        }
        let traced = launcher.run(kind, seed, true)?;
        contract.check_result(&traced, true)?;
        set.push((kind, untraced, traced));
    }
    Ok(set)
}

/// Run the suite's untraced pass ten times per workload, twice over,
/// and hold the two sets of the same build to the contract's bounds:
/// for every (end-to-end metric, workload) pair each set's quartile
/// spread must stay within the metric's bound (`setup_s` excepted, as
/// the driver excepts it) and the two medians may not differ, in either
/// direction, by more than the bound; every exact count must be
/// bit-identical between the sets. Prints one row per pair. Returns
/// whether everything agreed.
///
/// # Errors
///
/// The first run that fails or prints a malformed result.
pub fn run_aa(launcher: &Launcher, contract: &Contract, seed: u64) -> Result<bool, String> {
    let a = aa_set(launcher, contract, seed)?;
    let b = aa_set(launcher, contract, seed)?;
    let mut agree = true;
    println!(
        "{:<13} {:<17} {:>12} {:>12} {:>12} {:>7}   {:>12} {:>12} {:>12} {:>7}   {:>8} {:>6}  verdict",
        "workload", "metric", "A.q1", "A.median", "A.q3", "A.iqr%", "B.q1", "B.median", "B.q3", "B.iqr%", "B-A%", "bound%"
    );
    for ((kind, ua, ta), (_, ub, tb)) in a.iter().zip(&b) {
        for m in &contract.end_to_end {
            let values = |set: &[Json]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| metric_value(r, &m.name))
                    .collect()
            };
            let (va, vb) = (values(ua), values(ub));
            let (qa, qb) = quartiles(&va)
                .zip(quartiles(&vb))
                .ok_or("A/A needs at least two runs per set")?;
            let (sa, sb) = (
                spread(&va).unwrap_or(f64::NAN),
                spread(&vb).unwrap_or(f64::NAN),
            );
            // Same code on both sides: a faster second set is drift
            // just as a slower one is.
            let drift = (qb.1 - qa.1) / qa.1;
            let steady = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let ok = steady && drift.abs() <= m.bound;
            agree &= ok;
            println!(
                "{:<13} {:<17} {:>12.5} {:>12.5} {:>12.5} {:>7.2}   {:>12.5} {:>12.5} {:>12.5} {:>7.2}   {:>+8.2} {:>6.1}  {}",
                kind.name(), m.name, qa.0, qa.1, qa.2, sa * 100.0, qb.0, qb.1, qb.2, sb * 100.0,
                drift * 100.0, m.bound * 100.0,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
        for name in EXACT {
            let (x, y) = (metric_value(ta, name), metric_value(tb, name));
            let same = x.zip(y).is_some_and(|(x, y)| x.to_bits() == y.to_bits());
            agree &= same;
            println!(
                "{:<13} {:<26} A {:?}  B {:?}  {}",
                kind.name(),
                name,
                x,
                y,
                if same { "identical" } else { "DIFFERENT" }
            );
        }
    }
    Ok(agree)
}
