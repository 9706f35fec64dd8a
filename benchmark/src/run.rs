//! One benchmark run: one workload, one seed, one process.
//!
//! An untraced run sets up, measures iterations for the time budget and
//! reports the end-to-end metrics. A traced run measures untraced
//! iterations for the same budget (the harness's own spread rows), then
//! a few traced ones, replays every layer, writes the span file and
//! reports the per-layer metrics. The two never mix: an end-to-end
//! number is never taken with the recorder on.

use std::path::PathBuf;
use std::time::Instant;

use crate::ladder;
use crate::metrics::Metric;
use crate::procstat;
use crate::spans::{validate_span_file, Recorder};
use crate::stats::{high_percentile, median, quartiles};
use crate::suite::Contract;
use crate::workload::{IterSample, Kind, Primary, Spec, Tally};

/// Times the in-process set-up is repeated in an untraced run; the
/// reported `setup_s` is the second fastest, for the reason [`fastest`]
/// gives.
pub const SETUP_REPS: usize = 5;

/// Fewest timed iterations of a run, and fewest behind its times.
const MIN_ITERS: usize = 3;

/// Iterations a traced run repeats with the recorder on.
const TRACED_ITERS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Fixed iteration count instead of the time budget (smoke runs
    /// and self-tests).
    pub iters: Option<usize>,
    /// Size divisor (1 = the benchmark).
    pub scale: usize,
    /// Traced pass (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Where the traced pass writes `trace-<workload>.json`.
    pub out_dir: PathBuf,
    /// The `hetsort` CLI binary the `cli.*` rows spawn.
    pub cli_bin: PathBuf,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Checked operations and how many failed.
    pub tally: Tally,
    /// The metrics of the pass that ran, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Every untraced iteration that ran.
    pub samples: Vec<IterSample>,
    /// How many of them, the [`fastest`], are behind the end-to-end
    /// times.
    pub fastest_samples: usize,
    /// Fingerprint of the generated input.
    pub input_fingerprint: String,
    /// `(working-set, DRAM array)` bytes behind the memcpy rooflines
    /// (traced pass only).
    pub roofline_bytes: Option<(u64, u64)>,
    /// Seconds of hypervisor steal on this machine during the run.
    pub host_steal_s: f64,
}

/// The iterations behind the end-to-end times: the fastest fifth of
/// the run, at least [`MIN_ITERS`] of them, fastest first.
///
/// Every workload is deterministic, so an iteration can only be slowed
/// by what else the machine is doing, never sped up. On the shared
/// two-CPU reference VM that is most of the noise: neighbours slow
/// whole stretches of 5–30 s by 1.3–1.5 ×, with or without reported
/// steal, and the median of a 15 s run lands wherever the stretches
/// fall (medians of ten runs of the same build spread 7–17 %, their
/// fastest fifths 5–12 %, measured on the same samples). Over several
/// samples rather than the single minimum, so that one lucky iteration
/// does not set the result and `cpu_s`, which the kernel counts in
/// 10 ms ticks, is not a one-tick reading.
pub fn fastest(samples: &[IterSample]) -> Vec<IterSample> {
    let mut by_wall = samples.to_vec();
    by_wall.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    by_wall.truncate(samples.len().div_ceil(5).max(MIN_ITERS));
    by_wall
}

/// Mean of one column of the iteration samples.
fn mean(samples: &[IterSample], f: impl Fn(&IterSample) -> f64) -> f64 {
    column(samples, f).iter().sum::<f64>() / samples.len() as f64
}

/// One column of the iteration samples.
fn column(samples: &[IterSample], f: impl Fn(&IterSample) -> f64) -> Vec<f64> {
    samples.iter().map(f).collect()
}

/// Iterate for `seconds` and at least [`MIN_ITERS`] times, or exactly
/// `iters` times when given.
fn measure(
    primary: &mut Primary,
    rec: &mut Recorder,
    tally: &mut Tally,
    seconds: f64,
    iters: Option<usize>,
) -> Result<Vec<IterSample>, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let done = samples.len();
        let enough = match iters {
            Some(n) => done >= n,
            None => done >= MIN_ITERS && start.elapsed().as_secs_f64() >= seconds,
        };
        if enough {
            return Ok(samples);
        }
        rec.set_iteration(Some(done as u32));
        samples.push(primary.iterate(rec, tally)?);
    }
}

/// `found` in the order `BENCHMARK.json` lists the pass's metrics.
fn ordered(
    contract: &Contract,
    traced: bool,
    mut found: Vec<Metric>,
) -> Result<Vec<Metric>, String> {
    let expected = contract.expected(traced);
    let mut out = Vec::with_capacity(expected.len());
    for (name, _) in &expected {
        let i = found
            .iter()
            .position(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} of BENCHMARK.json was not measured"))?;
        out.push(found.swap_remove(i));
    }
    match found.first() {
        Some(extra) => Err(format!("metric {} is not in BENCHMARK.json", extra.name)),
        None => Ok(out),
    }
}

fn run_untraced(opts: &RunOpts, contract: &Contract) -> Result<RunResult, String> {
    let spec = Spec::new(opts.kind, opts.scale, opts.seed);
    let mut rec = Recorder::new(false);
    let mut tally = Tally::default();

    // Set-up, several times over: generate the input, build what the
    // check compares against, build the plan, run one checked warm-up
    // iteration. The last set-up is the one measured on; the earlier
    // ones are dropped first so the peak holds one input, not two.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut primary = None;
    for _ in 0..SETUP_REPS {
        drop(primary.take());
        let t0 = Instant::now();
        let mut p = Primary::prepare(&spec, opts.seed)?;
        p.iterate(&mut rec, &mut tally)?;
        setups.push(t0.elapsed().as_secs_f64());
        primary = Some(p);
    }
    let mut primary = primary.ok_or("no set-up ran")?;

    let samples = measure(&mut primary, &mut rec, &mut tally, opts.seconds, opts.iters)?;
    let kept = fastest(&samples);
    let wall_s = mean(&kept, |s| s.wall_s);
    setups.sort_by(f64::total_cmp);
    let found = vec![
        Metric {
            name: "wall_s",
            value: wall_s,
        },
        Metric {
            name: "throughput_per_s",
            value: mean(&kept, |s| s.work) / wall_s,
        },
        Metric {
            name: "cpu_s",
            value: mean(&kept, |s| s.used.cpu_s()),
        },
        Metric {
            name: "peak_rss_mb",
            value: median(&column(&samples, |s| s.peak_rss_mib)),
        },
        Metric {
            name: "setup_s",
            value: setups[1],
        },
    ];
    Ok(RunResult {
        tally,
        metrics: ordered(contract, false, found)?,
        fastest_samples: kept.len(),
        samples,
        input_fingerprint: primary.input_fingerprint(),
        roofline_bytes: None,
        host_steal_s: 0.0,
    })
}

fn run_traced(opts: &RunOpts, contract: &Contract) -> Result<RunResult, String> {
    let spec = Spec::new(opts.kind, opts.scale, opts.seed);
    let mut tally = Tally::default();
    let mut primary = Primary::prepare(&spec, opts.seed)?;
    let mut off = Recorder::new(false);
    primary.iterate(&mut off, &mut tally)?;

    // The whole budget untraced, as in the untraced pass, so the
    // harness's spread and tail rows rest on as many samples as the
    // end-to-end medians do; then a fixed few traced iterations and the
    // replay, which is a fixed amount of work too.
    let plain = measure(&mut primary, &mut off, &mut tally, opts.seconds, opts.iters)?;
    let mut rec = Recorder::new(true);
    let traced = measure(
        &mut primary,
        &mut rec,
        &mut tally,
        0.0,
        Some(opts.iters.unwrap_or(TRACED_ITERS)),
    )?;
    rec.set_iteration(None);

    let walls = column(&plain, |s| s.wall_s);
    let (q1, _, q3) = quartiles(&walls).ok_or("too few untraced iterations")?;
    // Never empty: `measure` runs at least one iteration.
    let fastest_of = |v: &[IterSample]| fastest(v)[0].wall_s;
    let mut found = vec![
        Metric {
            name: "harness.samples",
            value: walls.len() as f64,
        },
        Metric {
            name: "harness.wall_min_s",
            value: fastest_of(&plain),
        },
        Metric {
            name: "harness.wall_iqr_s",
            value: q3 - q1,
        },
        Metric {
            name: "harness.wall_hi_s",
            value: high_percentile(&walls),
        },
        Metric {
            name: "harness.sys_s",
            value: mean(&plain, |s| s.used.sys_s),
        },
        Metric {
            name: "harness.minor_faults",
            value: mean(&plain, |s| s.used.minor_faults),
        },
        Metric {
            name: "harness.trace_overhead_ratio",
            value: fastest_of(&traced) / fastest_of(&plain),
        },
    ];

    let replay = ladder::replay(&spec, opts.seed, &primary, &opts.cli_bin, &mut rec)?;
    tally.attempted += replay.tally.attempted;
    tally.failed += replay.tally.failed;
    found.extend(replay.metrics);

    // Flush the spans, then hold the file to the validator's rules.
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let path = opts
        .out_dir
        .join(format!("trace-{}.json", opts.kind.name()));
    let text = rec.chrome_trace(&format!("hetsort benchmark: {}", opts.kind.name()));
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    let written = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let summary = validate_span_file(&written).map_err(|e| format!("{}: {e}", path.display()))?;
    if summary.spans != rec.spans().len() {
        return Err(format!(
            "{}: {} spans written, {} recorded",
            path.display(),
            summary.spans,
            rec.spans().len()
        ));
    }

    Ok(RunResult {
        tally,
        metrics: ordered(contract, true, found)?,
        fastest_samples: fastest(&plain).len(),
        samples: plain,
        input_fingerprint: primary.input_fingerprint(),
        roofline_bytes: Some(replay.roofline_bytes),
        host_steal_s: 0.0,
    })
}

/// Run one pass of one workload.
///
/// # Errors
///
/// A typed error from the program, a failed replay check, a measured
/// metric that `contract` does not list (or the reverse), or an I/O
/// error on the span file.
pub fn run(opts: &RunOpts, contract: &Contract) -> Result<RunResult, String> {
    let steal_before = procstat::host_steal_s();
    let mut result = if opts.trace {
        run_traced(opts, contract)?
    } else {
        run_untraced(opts, contract)?
    };
    result.host_steal_s = procstat::host_steal_s() - steal_before;
    match result.metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is not finite ({})", m.name, m.value)),
        None => Ok(result),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procstat::ProcSample;

    fn sample(wall_s: f64) -> IterSample {
        IterSample {
            wall_s,
            work: 1.0,
            used: ProcSample::default(),
            peak_rss_mib: 1.0,
        }
    }

    #[test]
    fn fastest_is_a_fifth_but_never_fewer_than_three() {
        let walls = |v: Vec<IterSample>| column(&v, |s| s.wall_s);
        let run: Vec<IterSample> = [1.4, 1.0, 1.1, 2.5, 0.9, 1.0, 1.3, 1.2, 1.6, 1.5, 3.0]
            .iter()
            .map(|&w| sample(w))
            .collect();
        assert_eq!(
            walls(fastest(&run)),
            [0.9, 1.0, 1.0],
            "11 iterations: three"
        );
        let long: Vec<IterSample> = (0..21).map(|i| sample(f64::from(30 - i))).collect();
        assert_eq!(walls(fastest(&long)), [10.0, 11.0, 12.0, 13.0, 14.0]);
        assert_eq!(fastest(&run[..2]).len(), 2, "never more than there are");
    }
}
