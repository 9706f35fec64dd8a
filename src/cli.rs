//! Command-line interface plumbing for the `hetsort` binary.
//!
//! Hand-rolled parsing (no extra dependencies): subcommands `simulate`,
//! `sort`, `gantt`, `dag`, `analyze`, `trace`, `serve-sim`, `platforms`
//! and `help`, with `--key value` options. See `hetsort help`.

use std::sync::Arc;

use hetsort_core::{
    Approach, HetSortConfig, HetSortError, HybridMode, PairStrategy, RecoveryPolicy,
};
use hetsort_vgpu::{platform1, platform2, FaultInjector, PlatformSpec};

/// Errors from the CLI layer.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line: print usage, exit 2.
    Usage(String),
    /// The run itself failed: exit 1.
    Run(HetSortError),
    /// Writing the report to stdout failed; a closed pipe is exit 0
    /// (`hetsort_obs::stdout_exit_code`), anything else exit 1.
    Io(std::io::Error),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Run(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Usage(_) => None,
            CliError::Run(e) => Some(e),
            CliError::Io(e) => Some(e),
        }
    }
}

impl From<HetSortError> for CliError {
    fn from(e: HetSortError) -> Self {
        CliError::Run(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Simulate a configuration at paper scale.
    Simulate(RunArgs),
    /// Functionally sort generated data and verify.
    Sort(RunArgs),
    /// Render the schedule of a configuration as an ASCII Gantt.
    Gantt(RunArgs),
    /// Inspect a configuration's lowered op dag: node/edge census,
    /// validator verdict, and analyzer findings.
    Dag(RunArgs),
    /// Statically verify a schedule (plan lint + happens-before race
    /// detection) without executing it.
    Analyze {
        /// Configuration to analyze.
        run: RunArgs,
        /// Analyze the whole shipped config matrix instead of one run.
        matrix: bool,
        /// Also model-check the schedule space: explore every reachable
        /// interleaving (DPOR) and re-check each one.
        explore: bool,
        /// Exploration op budget (`--max-ops`); `None` = default.
        max_ops: Option<usize>,
    },
    /// Export a run's spans as Chrome-trace JSON.
    Trace {
        /// Configuration to trace.
        run: RunArgs,
        /// Output path for the Chrome-trace document (`-` = stdout).
        chrome: String,
        /// Trace a functional run instead of the simulator.
        real: bool,
    },
    /// Run the multi-tenant sort service on a deterministic synthetic
    /// job mix (virtual time, sim-backed durations, functional
    /// outputs).
    ServeSim(ServeArgs),
    /// Print the modeled platforms.
    Platforms,
    /// Print usage.
    Help,
}

/// Options for `serve-sim`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Number of synthetic jobs to submit.
    pub jobs: usize,
    /// Mix seed (drives data, sizes, priorities, arrivals, faults).
    pub seed: u64,
    /// Platform key (`p1` or `p2`).
    pub platform: String,
    /// Bounded queue depth.
    pub queue_cap: usize,
    /// Per-GPU device-memory budget in bytes.
    pub device_budget: u64,
    /// Total pinned-staging budget in bytes.
    pub pinned_budget: u64,
    /// Disable small-job coalescing.
    pub no_coalesce: bool,
    /// Elastic-pool chaos schedule (`lose:G@T,join:G@T`, virtual
    /// seconds), validated at parse time.
    pub chaos: Option<String>,
    /// Write the service outcome as JSON to this path (`-` = stdout).
    pub json: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            jobs: 150,
            seed: 42,
            platform: "p1".into(),
            queue_cap: 24,
            device_budget: 1_000_000,
            pinned_budget: 1_000_000,
            no_coalesce: false,
            chaos: None,
            json: None,
        }
    }
}

impl ServeArgs {
    /// Resolve the platform spec.
    pub fn platform_spec(&self) -> Result<PlatformSpec, CliError> {
        platform_by_key(&self.platform).map_err(CliError::Usage)
    }

    /// Resolve the `--chaos` schedule (empty when the flag is absent).
    /// An event naming a GPU the platform does not have is a usage
    /// error.
    pub fn pool_events(&self) -> Result<Vec<hetsort_serve::PoolEvent>, CliError> {
        let Some(spec) = &self.chaos else {
            return Ok(Vec::new());
        };
        let events = hetsort_serve::parse_schedule(spec)
            .map_err(|e| CliError::Usage(format!("bad --chaos schedule: {e}")))?;
        check_gpus(
            "--chaos",
            events.iter().map(|e| e.gpu),
            &self.platform_spec()?,
        )?;
        Ok(events)
    }
}

/// Reject a schedule that names a GPU `platform` does not have.
fn check_gpus(
    flag: &str,
    gpus: impl IntoIterator<Item = usize>,
    platform: &PlatformSpec,
) -> Result<(), CliError> {
    let n = platform.n_gpus();
    match gpus.into_iter().find(|&g| g >= n) {
        Some(g) => Err(CliError::Usage(format!(
            "{flag} names GPU {g}, but {} has {n} GPU(s)",
            platform.name
        ))),
        None => Ok(()),
    }
}

fn platform_by_key(key: &str) -> Result<PlatformSpec, String> {
    match key {
        "p1" | "platform1" | "PLATFORM1" => Ok(platform1()),
        "p2" | "platform2" | "PLATFORM2" => Ok(platform2()),
        other => Err(format!("unknown platform '{other}' (use p1 or p2)")),
    }
}

/// Options shared by `simulate`, `sort`, and `gantt`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Input size.
    pub n: usize,
    /// Platform key (`p1` or `p2`).
    pub platform: String,
    /// Approach name (case-insensitive).
    pub approach: Approach,
    /// PARMEMCPY.
    pub par_memcpy: bool,
    /// Batch size override (`None` = auto).
    pub batch: Option<usize>,
    /// Streams per GPU override (`None` = default 2).
    pub streams: Option<usize>,
    /// Pinned buffer size override (`None` = default 1e6).
    pub pinned: Option<usize>,
    /// Pair-merge strategy.
    pub strategy: PairStrategy,
    /// Hybrid CPU/GPU merge routing (`off`, a fraction, or `auto`).
    pub hybrid: HybridMode,
    /// RNG seed (functional sort).
    pub seed: u64,
    /// Fault schedule spec (functional sort), e.g. `oom:1,htod:3`.
    pub faults: Option<String>,
    /// Transfer retry budget override.
    pub retries: Option<usize>,
    /// Disable CPU-fallback degradation.
    pub no_cpu_fallback: bool,
    /// Run the schedule analyzer before (and, for `sort`, after)
    /// executing.
    pub analyze: bool,
    /// Write the run's metrics as JSON to this path (`-` = stdout).
    pub json: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            n: 1_000_000,
            platform: "p1".into(),
            approach: Approach::PipeMerge,
            par_memcpy: false,
            batch: None,
            streams: None,
            pinned: None,
            strategy: PairStrategy::PaperHeuristic,
            hybrid: HybridMode::Off,
            seed: 42,
            faults: None,
            retries: None,
            no_cpu_fallback: false,
            analyze: false,
            json: None,
        }
    }
}

impl RunArgs {
    /// Resolve the platform spec.
    pub fn platform_spec(&self) -> Result<PlatformSpec, CliError> {
        platform_by_key(&self.platform).map_err(CliError::Usage)
    }

    /// Build the sort configuration. An explicit override reaches
    /// [`HetSortConfig::validate`] as given, 0 included.
    pub fn config(&self) -> Result<HetSortConfig, CliError> {
        let mut cfg = HetSortConfig::paper_defaults(self.platform_spec()?, self.approach)
            .with_pair_strategy(self.strategy)
            .with_hybrid(self.hybrid);
        if self.par_memcpy {
            cfg = cfg.with_par_memcpy();
        }
        if let Some(b) = self.batch {
            cfg = cfg.with_batch_elems(b);
        }
        if let Some(s) = self.streams {
            cfg = cfg.with_streams(s);
        }
        if let Some(p) = self.pinned {
            cfg = cfg.with_pinned_elems(p);
        }
        let mut policy = RecoveryPolicy::default();
        if let Some(r) = self.retries {
            policy.max_retries = r;
        }
        if self.no_cpu_fallback {
            policy.cpu_fallback = false;
        }
        cfg = cfg.with_recovery(policy);
        if let Some(spec) = &self.faults {
            let inj = FaultInjector::parse(spec).map_err(HetSortError::from)?;
            let gpus = inj.scheduled_losses().into_iter();
            check_gpus("--faults", gpus.chain(inj.scheduled_joins()), &cfg.platform)?;
            cfg = cfg.with_faults(Arc::new(inj));
        }
        Ok(cfg)
    }
}

/// Parse a count with optional scientific/underscore notation
/// (`5e9`, `2.5e9`, `1_000_000`, `250000`). A value that is not a whole
/// number (`1.5`) is an error, not a truncation.
pub fn parse_count(s: &str) -> Result<usize, String> {
    let cleaned: String = s.chars().filter(|&c| c != '_').collect();
    if let Ok(v) = cleaned.parse::<usize>() {
        return Ok(v);
    }
    cleaned
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v >= 0.0 && *v <= 1e18 && v.fract() == 0.0)
        .map(|v| v as usize)
        .ok_or_else(|| format!("cannot parse count '{s}'"))
}

fn parse_approach(s: &str) -> Result<Approach, String> {
    match s.to_ascii_lowercase().as_str() {
        "bline" => Ok(Approach::BLine),
        "blinemulti" | "bline-multi" => Ok(Approach::BLineMulti),
        "pipedata" | "pipe-data" => Ok(Approach::PipeData),
        "pipemerge" | "pipe-merge" => Ok(Approach::PipeMerge),
        other => Err(format!(
            "unknown approach '{other}' (bline|blinemulti|pipedata|pipemerge)"
        )),
    }
}

fn parse_strategy(s: &str) -> Result<PairStrategy, String> {
    match s.to_ascii_lowercase().as_str() {
        "paper" | "heuristic" => Ok(PairStrategy::PaperHeuristic),
        "online" => Ok(PairStrategy::Online),
        "tree" | "mergetree" => Ok(PairStrategy::MergeTree),
        other => Err(format!("unknown strategy '{other}' (paper|online|tree)")),
    }
}

/// Parse a full argument list (without the program name).
///
/// # Errors
///
/// [`CliError::Usage`] on unknown commands, options, or values.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    parse_inner(args).map_err(CliError::Usage)
}

fn parse_inner(args: &[String]) -> Result<Command, String> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "platforms" => Ok(Command::Platforms),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "serve-sim" => {
            let mut s = ServeArgs::default();
            let mut it = args[1..].iter();
            while let Some(key) = it.next() {
                let mut need = |name: &str| -> Result<&String, String> {
                    it.next().ok_or(format!("missing value for {name}"))
                };
                match key.as_str() {
                    "--jobs" | "-j" => s.jobs = parse_count(need("--jobs")?)?,
                    "--seed" => {
                        s.seed = need("--seed")?
                            .parse()
                            .map_err(|e| format!("bad seed: {e}"))?
                    }
                    "--platform" | "-p" => s.platform = need("--platform")?.clone(),
                    "--queue-cap" => s.queue_cap = parse_count(need("--queue-cap")?)?,
                    "--device-budget" => {
                        s.device_budget = parse_count(need("--device-budget")?)? as u64
                    }
                    "--pinned-budget" => {
                        s.pinned_budget = parse_count(need("--pinned-budget")?)? as u64
                    }
                    "--no-coalesce" => s.no_coalesce = true,
                    "--chaos" => {
                        let spec = need("--chaos")?.clone();
                        hetsort_serve::parse_schedule(&spec)
                            .map_err(|e| format!("bad --chaos schedule: {e}"))?;
                        s.chaos = Some(spec);
                    }
                    "--json" => s.json = Some(need("--json")?.clone()),
                    other => return Err(format!("unknown option '{other}'")),
                }
            }
            if s.jobs == 0 {
                return Err("serve-sim needs --jobs ≥ 1".into());
            }
            Ok(Command::ServeSim(s))
        }
        "simulate" | "sort" | "gantt" | "analyze" | "trace" | "dag" => {
            let mut run = RunArgs::default();
            if sub == "sort" {
                run.n = 1_000_000;
            } else {
                run.n = 2_000_000_000;
            }
            let mut matrix = false;
            let mut explore = false;
            let mut max_ops: Option<usize> = None;
            let mut chrome: Option<String> = None;
            let mut real = false;
            let mut it = args[1..].iter();
            while let Some(key) = it.next() {
                let mut need = |name: &str| -> Result<&String, String> {
                    it.next().ok_or(format!("missing value for {name}"))
                };
                match key.as_str() {
                    "-n" | "--n" => run.n = parse_count(need("-n")?)?,
                    "--platform" | "-p" => run.platform = need("--platform")?.clone(),
                    "--approach" | "-a" => run.approach = parse_approach(need("--approach")?)?,
                    "--par-memcpy" => run.par_memcpy = true,
                    "--batch" | "-b" => run.batch = Some(parse_count(need("--batch")?)?),
                    "--streams" | "-s" => run.streams = Some(parse_count(need("--streams")?)?),
                    "--pinned" => run.pinned = Some(parse_count(need("--pinned")?)?),
                    "--strategy" => run.strategy = parse_strategy(need("--strategy")?)?,
                    "--hybrid" => run.hybrid = HybridMode::parse(need("--hybrid")?)?,
                    "--seed" => {
                        run.seed = need("--seed")?
                            .parse()
                            .map_err(|e| format!("bad seed: {e}"))?
                    }
                    "--faults" => run.faults = Some(need("--faults")?.clone()),
                    "--retries" => run.retries = Some(parse_count(need("--retries")?)?),
                    "--no-cpu-fallback" => run.no_cpu_fallback = true,
                    "--analyze" => run.analyze = true,
                    "--json" => run.json = Some(need("--json")?.clone()),
                    "--matrix" if sub == "analyze" => matrix = true,
                    "--explore" if sub == "analyze" => explore = true,
                    "--max-ops" if sub == "analyze" => {
                        max_ops = Some(parse_count(need("--max-ops")?)?)
                    }
                    "--chrome" if sub == "trace" => chrome = Some(need("--chrome")?.clone()),
                    "--real" if sub == "trace" => real = true,
                    other => return Err(format!("unknown option '{other}'")),
                }
            }
            Ok(match sub.as_str() {
                "simulate" => Command::Simulate(run),
                "sort" => Command::Sort(run),
                "analyze" => Command::Analyze {
                    run,
                    matrix,
                    explore,
                    max_ops,
                },
                "trace" => Command::Trace {
                    run,
                    chrome: chrome.ok_or("trace requires --chrome <path> (use '-' for stdout)")?,
                    real,
                },
                "dag" => Command::Dag(run),
                _ => Command::Gantt(run),
            })
        }
        other => Err(format!("unknown command '{other}'; try 'hetsort help'")),
    }
}

/// Usage text.
pub const USAGE: &str = "\
hetsort — heterogeneous CPU/GPU sorting (IPPS 2018 reproduction)

USAGE:
  hetsort simulate  [-n 5e9] [--platform p1|p2] [--approach pipemerge]
                    [--par-memcpy] [--batch 5e8] [--streams 2]
                    [--pinned 1e6] [--strategy paper|online|tree]
                    [--hybrid off|FRAC|auto]
  hetsort sort      [-n 1e6] [--seed 42] [--faults SPEC] [--retries K]
                    [--no-cpu-fallback] [... same options]
  hetsort gantt     [-n 2e9] [... same options]
  hetsort dag       [-n 2e9] [... same options]
  hetsort analyze   [--matrix] [--explore [--max-ops N]] [... same options]
  hetsort trace     --chrome out.json [--real] [... same options]
  hetsort serve-sim [--jobs 150] [--seed 42] [--platform p1|p2]
                    [--queue-cap 24] [--device-budget 1e6]
                    [--pinned-budget 1e6] [--no-coalesce]
                    [--chaos SPEC] [--json PATH]
  hetsort platforms
  hetsort help

OBSERVABILITY:
  hetsort trace      export every operation of a run as Chrome-trace
                     JSON (open in chrome://tracing or Perfetto); by
                     default the simulated schedule at paper scale,
                     with --real the functional executor's wall-clock
                     spans on this machine
  --chrome PATH      where to write the trace ('-' = stdout)
  --json PATH        (on simulate/sort) also write the run's metrics —
                     component totals, overlap ratio, bus utilization,
                     literature-vs-full delta, recovery counters, and
                     analyzer findings — as JSON ('-' = stdout)

HYBRID CPU/GPU EXECUTION:
  --hybrid MODE      route pair merges to the CPU merge pool: 'off'
                     (default) keeps every merge on the pipelined pair
                     lane; a fraction in [0,1] (e.g. 0.5) re-types the
                     trailing share of merge slots as CpuMerge nodes;
                     'auto' lets a greedy earliest-finish cost model
                     split slots between the pair lane and the CPU
                     pool per batch. Routing happens at dag lowering,
                     so the simulator, analyzer, and both functional
                     engines all see the identical hybrid schedule

ANALYSIS:
  hetsort dag        print the op dag every executor interprets: node
                     census per op class, dependency-edge count,
                     max ready-front width, the structural validator's
                     verdict (cycle/missing-ref/duplicate-producer/
                     FIFO/coverage rules), and any analyzer findings
                     over the dag-lowered trace
  hetsort analyze    statically verify a schedule before running it:
                     plan lint (device-memory budget, staging sizes,
                     merge-tree shape, pair-count heuristic) plus
                     happens-before race/deadlock detection over the
                     stream/event schedule
  --matrix           analyze every shipped configuration (approaches ×
                     pair strategies × both platforms); exit 1 on any
                     finding
  --explore          model-check the schedule space: exhaustively
                     explore every reachable interleaving of the
                     lowered trace (persistent-set DPOR + sleep sets),
                     re-running the happens-before checker per trace
                     and checking reachable-deadlock, budget-safety,
                     and replan-cover invariants; with --faults, also
                     explores the checkpoint/re-plan coordinator, and
                     with --matrix sweeps approaches × platforms ×
                     loss schedules × admission scenarios
  --max-ops N        exploration op budget (default 1e6 per model);
                     hitting it is reported as TRUNCATED, never silent
  --analyze          (on simulate/sort) run the same verification
                     before executing; sort additionally re-checks the
                     executed trace, recovery detours included

MULTI-TENANT SERVICE:
  hetsort serve-sim  run the sort service on a deterministic synthetic
                     tenant mix: a bounded queue, memory-budget
                     admission control (analyzer residency math),
                     small-job coalescing, priority scheduling, and
                     typed Overloaded shedding — durations from the
                     simulator (virtual time), outputs functionally
                     sorted and verified
  --jobs N           mix size (default 150)
  --queue-cap K      bounded queue depth; arrivals past it shed
  --device-budget B  per-GPU resident-bytes cap across jobs in flight
  --pinned-budget B  total pinned-staging cap across jobs in flight
  --no-coalesce      admit every job under its own reservation
  --chaos SPEC       elastic-pool schedule in virtual seconds, e.g.
                     'lose:1@0.004,join:1@0.02': a lost GPU displaces
                     and re-queues in-flight jobs (typed sheds only
                     when nothing can ever fit); a join restores
                     capacity at the next admission scan

FAULT INJECTION (sort only):
  --faults SPEC      deterministic fault schedule, e.g. 'oom:1,htod:3':
                     oom:K fails the K-th device allocation, htod:K /
                     dtoh:K the K-th transfer, sort:K the K-th device
                     sort, panic:W@K kills stream W at its K-th batch,
                     lose:G@N loses GPU G at its N-th device op
                     (persistent; the engine re-plans onto the
                     survivors), join:G@N revives it at the N-th
                     global op
  --retries K        retry budget for transient transfer faults (default 2)
  --no-cpu-fallback  fail with a typed error instead of degrading a
                     broken batch to a host-side sort

EXAMPLES:
  hetsort simulate -n 5e9 -a pipemerge --par-memcpy       # Figure 9's best
  hetsort sort -n 2e6 -b 250000 --pinned 50000            # functional + verify
  hetsort sort -n 2e6 --faults oom:1,htod:3               # recovery drill
  hetsort gantt -n 2e9 -a pipemerge --pinned 1e8          # schedule picture
  hetsort trace -n 2e9 -a pipemerge --chrome trace.json   # profile a run
  hetsort sort -n 2e6 --faults oom:1 --json -             # metrics to stdout
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_count_formats() {
        assert_eq!(parse_count("123").unwrap(), 123);
        assert_eq!(parse_count("1_000_000").unwrap(), 1_000_000);
        assert_eq!(parse_count("5e9").unwrap(), 5_000_000_000);
        assert_eq!(parse_count("2.5e3").unwrap(), 2_500);
        assert_eq!(parse_count("2.5e9").unwrap(), 2_500_000_000);
        assert!(parse_count("1.5").is_err(), "not a whole number");
        assert!(parse_count("2.5e0").is_err());
        assert!(parse_count("abc").is_err());
        assert!(parse_count("-5").is_err());
    }

    #[test]
    fn parse_simulate_full() {
        let cmd = parse(&argv(
            "simulate -n 5e9 --platform p2 -a pipedata --par-memcpy --batch 3.5e8 --streams 2 --pinned 1e6 --strategy tree",
        ))
        .unwrap();
        let Command::Simulate(r) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(r.n, 5_000_000_000);
        assert_eq!(r.platform, "p2");
        assert_eq!(r.approach, Approach::PipeData);
        assert!(r.par_memcpy);
        assert_eq!(r.batch, Some(350_000_000));
        assert_eq!(r.strategy, PairStrategy::MergeTree);
    }

    #[test]
    fn parse_defaults_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("platforms")).unwrap(), Command::Platforms);
        let Command::Sort(r) = parse(&argv("sort")).unwrap() else {
            panic!()
        };
        assert_eq!(r.n, 1_000_000);
        assert_eq!(r.approach, Approach::PipeMerge);
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&argv("simulate --approach nope")).is_err());
        assert!(parse(&argv("simulate --frobnicate")).is_err());
        assert!(parse(&argv("simulate -n")).is_err());
        assert!(parse(&argv("bogus")).is_err());
    }

    #[test]
    fn parse_fault_flags() {
        let Command::Sort(r) = parse(&argv(
            "sort -n 1e5 --faults oom:1,htod:3 --retries 4 --no-cpu-fallback",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(r.faults.as_deref(), Some("oom:1,htod:3"));
        assert_eq!(r.retries, Some(4));
        assert!(r.no_cpu_fallback);
        let cfg = r.config().unwrap();
        assert_eq!(cfg.recovery.max_retries, 4);
        assert!(!cfg.recovery.cpu_fallback);
        assert!(cfg.faults.as_ref().is_some_and(|f| f.is_armed()));
        // Bad schedules surface as typed run errors, not panics.
        let mut bad = r.clone();
        bad.faults = Some("gpu:1".into());
        assert!(matches!(bad.config(), Err(CliError::Run(_))));
    }

    #[test]
    fn sched_flags_are_unknown_options() {
        // The self/rr A/B knob is gone (DESIGN.md § 13): both spellings
        // are usage errors (exit 2), not silently accepted.
        for line in ["sort -n 1e5 --sched rr", "sort --sched-chunks 8"] {
            let Err(CliError::Usage(msg)) = parse(&argv(line)) else {
                panic!("{line} must be a usage error")
            };
            assert!(msg.contains("unknown option '--sched"), "{line}: {msg}");
        }
    }

    #[test]
    fn parse_hybrid_knob() {
        let Command::Sort(r) = parse(&argv("sort -n 1e5 --hybrid 0.5")).unwrap() else {
            panic!()
        };
        assert_eq!(r.hybrid, HybridMode::Fraction(0.5));
        assert_eq!(r.config().unwrap().hybrid, HybridMode::Fraction(0.5));

        let Command::Simulate(r) = parse(&argv("simulate --hybrid auto")).unwrap() else {
            panic!()
        };
        assert_eq!(r.hybrid, HybridMode::Auto);

        let Command::Sort(r) = parse(&argv("sort --hybrid off")).unwrap() else {
            panic!()
        };
        assert_eq!(r.hybrid, HybridMode::Off);

        // Default stays off.
        let Command::Sort(r) = parse(&argv("sort")).unwrap() else {
            panic!()
        };
        assert_eq!(r.hybrid, HybridMode::Off);

        assert!(parse(&argv("sort --hybrid 1.5")).is_err());
        assert!(parse(&argv("sort --hybrid bogus")).is_err());
        assert!(parse(&argv("sort --hybrid")).is_err());
    }

    #[test]
    fn parse_analyze() {
        let Command::Analyze {
            run,
            matrix,
            explore,
            max_ops,
        } = parse(&argv("analyze --matrix -a pipedata")).unwrap()
        else {
            panic!()
        };
        assert!(matrix);
        assert!(!explore);
        assert_eq!(max_ops, None);
        assert_eq!(run.approach, Approach::PipeData);
        let Command::Analyze {
            matrix,
            explore,
            max_ops,
            ..
        } = parse(&argv("analyze -n 1e6 --explore --max-ops 5e4")).unwrap()
        else {
            panic!()
        };
        assert!(!matrix);
        assert!(explore);
        assert_eq!(max_ops, Some(50_000));
        // --matrix/--explore only exist on analyze; --analyze exists
        // everywhere.
        assert!(parse(&argv("sort --matrix")).is_err());
        assert!(parse(&argv("sort --explore")).is_err());
        let Command::Sort(r) = parse(&argv("sort --analyze")).unwrap() else {
            panic!()
        };
        assert!(r.analyze);
    }

    #[test]
    fn parse_dag() {
        let Command::Dag(r) = parse(&argv("dag -n 1e6 -a pipemerge --streams 3")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(r.n, 1_000_000);
        assert_eq!(r.approach, Approach::PipeMerge);
        assert_eq!(r.streams, Some(3));
        // Analyze-only flags stay analyze-only.
        assert!(parse(&argv("dag --matrix")).is_err());
        // Paper-scale default like the other non-sort inspectors.
        let Command::Dag(r) = parse(&argv("dag")).unwrap() else {
            panic!()
        };
        assert_eq!(r.n, 2_000_000_000);
    }

    #[test]
    fn parse_serve_sim() {
        let Command::ServeSim(s) = parse(&argv(
            "serve-sim --jobs 200 --seed 7 -p p2 --queue-cap 16 \
             --device-budget 2e6 --pinned-budget 5e5 --no-coalesce",
        ))
        .unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(s.jobs, 200);
        assert_eq!(s.seed, 7);
        assert_eq!(s.platform, "p2");
        assert_eq!(s.queue_cap, 16);
        assert_eq!(s.device_budget, 2_000_000);
        assert_eq!(s.pinned_budget, 500_000);
        assert!(s.no_coalesce);
        assert_eq!(s.platform_spec().unwrap().name, "PLATFORM2");

        let Command::ServeSim(s) = parse(&argv("serve-sim")).unwrap() else {
            panic!()
        };
        assert_eq!(s.jobs, 150);
        assert!(!s.no_coalesce);

        assert!(parse(&argv("serve-sim --jobs 0")).is_err());
        assert!(parse(&argv("serve-sim --frobnicate")).is_err());
        assert!(parse(&argv("serve-sim --jobs")).is_err());

        let Command::ServeSim(s) =
            parse(&argv("serve-sim -p p2 --chaos lose:1@0.004,join:1@0.02")).unwrap()
        else {
            panic!()
        };
        let evs = s.pool_events().unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].gpu, 1);
        // PLATFORM1 has no GPU 1.
        let p1 = ServeArgs {
            platform: "p1".into(),
            ..s
        };
        assert!(matches!(p1.pool_events(), Err(CliError::Usage(_))));
        assert!(parse(&argv("serve-sim --chaos evict:1@2")).is_err());
    }

    #[test]
    fn config_resolution() {
        let Command::Simulate(r) = parse(&argv("simulate --platform p1 -a blinemulti")).unwrap()
        else {
            panic!()
        };
        let cfg = r.config().unwrap();
        assert_eq!(cfg.platform.name, "PLATFORM1");
        assert_eq!(cfg.approach, Approach::BLineMulti);
        let mut bad = r.clone();
        bad.platform = "p9".into();
        assert!(bad.platform_spec().is_err());
    }
}
