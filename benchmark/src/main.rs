//! Command line of the benchmark; `run.sh` builds and then execs this
//! from the repository root.

use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use hetsort_benchmark::procstat;
use hetsort_benchmark::run::{run, RunOpts};
use hetsort_benchmark::suite::{
    result_json, run_aa, run_suite, write_run_document, Contract, Launcher, OUT_DIR,
};
use hetsort_benchmark::workload::Kind;

const USAGE: &str = "\
usage (from the repository root, normally through benchmark/run.sh):
  hetsort-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
      one pass of one workload; the last line of standard output is the
      result object (end-to-end metrics with --trace 0, per-layer
      metrics with --trace 1)
  hetsort-benchmark [--seed N] [--seconds S] [--smoke]
      every workload, untraced then traced, each in a fresh process;
      prints every metric by name with its unit. --smoke: 1/50 size,
      two iterations, correctness and name checks only
  hetsort-benchmark aa [--seed N] [--seconds S]
      the untraced suite ten times per workload, twice, compared under
      the bounds in BENCHMARK.json; exit 1 on disagreement
workloads: sort_uniform sort_dups sort_pooled sim_paper serve_mix";

/// Scale and iteration count of `--smoke`.
const SMOKE: (usize, usize) = (50, 2);

struct Args {
    aa: bool,
    smoke: bool,
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        aa: false,
        smoke: false,
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let bad = |v: &str| format!("{arg}: cannot read {v:?}");
        match arg.as_str() {
            "aa" => a.aa = true,
            "--smoke" => a.smoke = true,
            "--workload" => {
                let v = value()?;
                a.workload = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// The `hetsort` CLI `run.sh` built next to this executable.
fn cli_bin(exe: &Path) -> Result<PathBuf, String> {
    let bin = exe.with_file_name("hetsort");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found: build it with benchmark/run.sh (cargo build --release --bin hetsort)",
            bin.display()
        ))
    }
}

/// Set on the process [`pin_to_one_cpu`] re-executes, so it pins once.
const PINNED_ENV: &str = "HETSORT_BENCHMARK_PINNED";

/// Re-execute this process under `taskset` on the last CPU it is
/// allowed, for a workload that is measured on one CPU
/// ([`Kind::single_cpu`]). Returns only when there is nothing to do
/// (already pinned, or one CPU allowed anyway) or `taskset` cannot be
/// run; the run then goes on unpinned and says so.
fn pin_to_one_cpu(exe: &Path, argv: &[String]) {
    let allowed = procstat::cpus_allowed_list().unwrap_or_default();
    let Some(cpu) = procstat::last_cpu_of(&allowed) else {
        eprintln!("cannot read the allowed CPUs ({allowed:?}): running unpinned");
        return;
    };
    if std::env::var_os(PINNED_ENV).is_some() || allowed == cpu.to_string() {
        return;
    }
    let err = Command::new("taskset")
        .args(["-c", &cpu.to_string()])
        .arg(exe)
        .args(argv)
        .env(PINNED_ENV, "1")
        .exec();
    eprintln!("taskset: {err}: running unpinned on CPUs {allowed}");
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    if args.workload.is_some_and(Kind::single_cpu) {
        pin_to_one_cpu(&exe, &argv);
    }
    let contract = Contract::load(Path::new("."))?;
    let seconds = args.seconds.unwrap_or(contract.run_seconds);

    if let Some(kind) = args.workload {
        let (scale, iters) = if args.smoke {
            (SMOKE.0, Some(SMOKE.1))
        } else {
            (1, None)
        };
        let opts = RunOpts {
            kind,
            seed: args.seed,
            seconds,
            iters,
            scale,
            trace: args.trace,
            out_dir: PathBuf::from(OUT_DIR),
            cli_bin: cli_bin(&exe)?,
        };
        let result = run(&opts, &contract)?;
        let doc = write_run_document(&opts, &contract, &result)?;
        eprintln!(
            "{}: {} untraced samples (times over the {} fastest), {:.2} s host steal, {} of {} checks failed, details in {}",
            kind.name(),
            result.samples.len(),
            result.fastest_samples,
            result.host_steal_s,
            result.tally.failed,
            result.tally.attempted,
            doc.display()
        );
        println!("{}", result_json(&contract, &result).dump());
        return Ok(true);
    }

    cli_bin(&exe)?;
    let launcher = Launcher {
        exe,
        seconds,
        smoke: args.smoke,
    };
    if args.aa {
        run_aa(&launcher, &contract, args.seed)
    } else {
        run_suite(&launcher, &contract, args.seed).map(|()| true)
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("A/A comparison: the two sets disagree");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("hetsort-benchmark: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
