//! Command-line interface plumbing for the `hetsort` binary.
//!
//! One option table declares every option once: its spellings, its
//! value placeholder, the commands that read it, its help text and the
//! setter that parses its value. [`parse`] and [`usage`] are both
//! derived from that table and from a short list of rules for the reads
//! that depend on another option of the same command. An option the
//! command would not read is a usage error, never silently dropped.

use std::sync::Arc;

use hetsort_core::{Approach, HetSortConfig, HetSortError, PairStrategy, Plan, RecoveryPolicy};
use hetsort_serve::{parse_schedule, PoolEvent};
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

/// A subcommand; `hetsort help` says what each one does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    Simulate,
    Sort,
    Gantt,
    Dag,
    Analyze,
    Trace,
    ServeSim,
    Platforms,
    Help,
}

/// Every option's value: each field holds the option of the same name
/// (`hetsort help` says what each one means). A field whose option the
/// command does not read keeps its default.
#[derive(Debug, Clone)]
pub struct Args {
    pub n: usize,
    pub platform: PlatformSpec,
    pub approach: Approach,
    pub par_memcpy: bool,
    pub batch: Option<usize>,
    pub streams: Option<usize>,
    pub pinned: Option<usize>,
    pub strategy: PairStrategy,
    pub seed: u64,
    pub faults: Option<Arc<FaultInjector>>,
    pub retries: Option<usize>,
    pub no_cpu_fallback: bool,
    pub analyze: bool,
    pub json: Option<String>,
    pub matrix: bool,
    pub explore: bool,
    pub max_ops: Option<usize>,
    pub chrome: String,
    pub real: bool,
    pub jobs: usize,
    pub queue_cap: usize,
    pub device_budget: u64,
    pub pinned_budget: u64,
    pub no_coalesce: bool,
    pub chaos: Vec<PoolEvent>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            n: 1_000_000,
            platform: platform1(),
            approach: Approach::PipeMerge,
            par_memcpy: false,
            batch: None,
            streams: None,
            pinned: None,
            strategy: PairStrategy::PaperHeuristic,
            seed: 42,
            faults: None,
            retries: None,
            no_cpu_fallback: false,
            analyze: false,
            json: None,
            matrix: false,
            explore: false,
            max_ops: None,
            chrome: String::new(),
            real: false,
            jobs: 150,
            queue_cap: 24,
            device_budget: 1_000_000,
            pinned_budget: 1_000_000,
            no_coalesce: false,
            chaos: Vec::new(),
        }
    }
}

impl Args {
    /// Build the sort configuration. An explicit override reaches
    /// [`HetSortConfig::validate`] as given, 0 included.
    pub fn config(&self) -> HetSortConfig {
        let mut cfg = HetSortConfig::paper_defaults(self.platform.clone(), self.approach)
            .with_pair_strategy(self.strategy);
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
        if self.analyze {
            cfg = cfg.with_trace_recording();
        }
        let policy = RecoveryPolicy::default();
        cfg = cfg.with_recovery(RecoveryPolicy {
            max_retries: self.retries.unwrap_or(policy.max_retries),
            cpu_fallback: policy.cpu_fallback && !self.no_cpu_fallback,
            ..policy
        });
        match &self.faults {
            Some(inj) => cfg.with_faults(Arc::clone(inj)),
            None => cfg,
        }
    }

    /// Build the plan of [`Self::config`] over `n` elements. A fault
    /// schedule that panics a stream the plan does not have is a usage
    /// error.
    pub fn plan(&self) -> Result<Plan, CliError> {
        let plan = Plan::build(self.config(), self.n)?;
        if let Some(inj) = &self.faults {
            let (streams, have) = (inj.scheduled_panics(), plan.total_streams);
            check_ids(&FAULTS, "stream", streams, have, "the plan").map_err(CliError::Usage)?;
        }
        Ok(plan)
    }
}

/// Reject a schedule naming a device or stream (`what`) that `owner`,
/// which has `have` of them, lacks.
fn check_ids(
    opt: &Opt,
    what: &str,
    ids: impl IntoIterator<Item = usize>,
    have: usize,
    owner: &str,
) -> Result<(), String> {
    match ids.into_iter().find(|&id| id >= have) {
        Some(id) => Err(format!(
            "{} names {what} {id}, but {owner} has {have} {what}(s)",
            opt.names[0]
        )),
        None => Ok(()),
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

fn parse_platform(s: &str) -> Result<PlatformSpec, String> {
    match s {
        "p1" | "platform1" | "PLATFORM1" => Ok(platform1()),
        "p2" | "platform2" | "PLATFORM2" => Ok(platform2()),
        other => Err(format!("unknown platform '{other}' (use p1 or p2)")),
    }
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

use Command::{Analyze, Dag, Gantt, Help, Platforms, ServeSim, Simulate, Sort, Trace};

/// Every command: its spellings (usage shows the first) and what it
/// does.
#[rustfmt::skip]
const COMMANDS: &[(Command, &[&str], &str)] = &[
    (Simulate, &["simulate"], "time a configuration on the simulator, with bus utilization"),
    (Sort, &["sort"], "sort generated uniform keys on this machine and verify the output"),
    (Gantt, &["gantt"], "draw the simulated schedule as an ASCII Gantt chart"),
    (Dag, &["dag"], "print the op dag: node census, edges, ready-front width, verdicts"),
    (Analyze, &["analyze"], "verify a schedule statically (plan lint, host bytes, races)"),
    (Trace, &["trace"], "export a run's spans as Chrome-trace JSON (Perfetto, chrome://tracing)"),
    (ServeSim, &["serve-sim"], "run the multi-tenant sort service on a synthetic job mix"),
    (Platforms, &["platforms"], "print the modeled platforms"),
    (Help, &["help", "--help", "-h"], "print this text"),
];

/// How an option takes its value.
enum Kind {
    /// A flag: no value.
    Flag(fn(&mut Args)),
    /// A value, shown as the placeholder, parsed once by the setter.
    Value(&'static str, fn(&mut Args, &str) -> Result<(), String>),
}
use Kind::{Flag, Value};

/// One row of the option table.
struct Opt {
    /// Spellings; usage and errors show the first.
    names: &'static [&'static str],
    /// The commands that read it.
    commands: &'static [Command],
    /// Flag or value, with its setter.
    kind: Kind,
    /// Help text, word-wrapped when rendered.
    help: &'static str,
}

/// Declares each option once: a named row, and its place in `OPTIONS`.
macro_rules! options {
    ($($id:ident = $names:expr, $commands:expr, $kind:expr, $help:expr;)*) => {
        $(const $id: Opt = Opt { names: &$names, commands: $commands, kind: $kind, help: $help };)*
        /// The option table, in the order usage lists it.
        const OPTIONS: &[&Opt] = &[$(&$id),*];
    };
}

/// The commands that run one configuration.
const RUN: &[Command] = &[Simulate, Sort, Gantt, Dag, Analyze, Trace];

options! {
    N = ["-n", "--n"], RUN, Value("N", |a, v| parse_count(v).map(|n| a.n = n)),
        "input size in elements, a whole number such as 5e9 or 1_000_000 (default 1e6 for sort, \
         2e9 otherwise)";
    PLATFORM = ["--platform", "-p"], &[Simulate, Sort, Gantt, Dag, Analyze, Trace, ServeSim],
        Value("P", |a, v| parse_platform(v).map(|p| a.platform = p)),
        "p1 (PLATFORM1, one GPU; default) or p2 (PLATFORM2, two GPUs)";
    APPROACH = ["--approach", "-a"], RUN,
        Value("A", |a, v| parse_approach(v).map(|x| a.approach = x)),
        "bline, blinemulti, pipedata or pipemerge (default)";
    PAR_MEMCPY = ["--par-memcpy"], RUN, Flag(|a| a.par_memcpy = true),
        "PARMEMCPY: parallel host-to-pinned staging copies";
    BATCH = ["--batch", "-b"], RUN, Value("N", |a, v| parse_count(v).map(|b| a.batch = Some(b))),
        "batch size b_s in elements (default: the largest that fits the GPU)";
    STREAMS = ["--streams", "-s"], RUN,
        Value("N", |a, v| parse_count(v).map(|s| a.streams = Some(s))),
        "streams per GPU n_s (default 2)";
    PINNED = ["--pinned"], RUN, Value("N", |a, v| parse_count(v).map(|p| a.pinned = Some(p))),
        "pinned staging buffer p_s in elements (default 1e6)";
    STRATEGY = ["--strategy"], RUN, Value("S", |a, v| parse_strategy(v).map(|s| a.strategy = s)),
        "pair-merge strategy: paper (the paper's heuristic; default), online or tree";
    SEED = ["--seed"], &[Sort, Trace, ServeSim],
        Value("N", |a, v| v.parse().map(|s| a.seed = s).map_err(|e| e.to_string())),
        "seed of the generated input, or of serve-sim's job mix (default 42)";
    FAULTS = ["--faults"], &[Sort, Trace, Analyze], Value("SPEC", |a, v| {
            a.faults = Some(Arc::new(FaultInjector::parse(v)?));
            Ok(())
        }),
        "deterministic fault schedule, e.g. oom:1,htod:3: oom:K fails the K-th device \
         allocation, htod:K / dtoh:K the K-th transfer, sort:K the K-th device sort, panic:W@K \
         kills stream W at its K-th batch, lose:G@N loses GPU G for good at its N-th device op \
         (the engine re-plans onto the survivors); analyze --explore explores the engine \
         recovering from lose: entries";
    RETRIES = ["--retries"], &[Sort, Trace],
        Value("K", |a, v| parse_count(v).map(|r| a.retries = Some(r))),
        "retry budget for transient transfer faults (default 2)";
    NO_CPU_FALLBACK = ["--no-cpu-fallback"], &[Sort, Trace], Flag(|a| a.no_cpu_fallback = true),
        "fail with a typed error instead of host-sorting a broken batch";
    ANALYZE = ["--analyze"], &[Simulate, Sort], Flag(|a| a.analyze = true),
        "run analyze's checks first; sort also re-checks the executed trace";
    JSON = ["--json"], &[Simulate, Sort, ServeSim], Value("PATH", |a, v| {
            a.json = Some(v.into());
            Ok(())
        }),
        "also write the metrics as JSON ('-' = stdout): component totals, overlap, bus \
         utilization, recovery counters, analyzer findings; serve-sim's service outcome";
    MATRIX = ["--matrix"], &[Analyze], Flag(|a| a.matrix = true),
        "analyze every shipped configuration (approaches x strategies x platforms)";
    EXPLORE = ["--explore"], &[Analyze], Flag(|a| a.explore = true),
        "model-check the schedule space (n <= 1e6): every node order of the shipped engine \
         running the plan, at every alignment of the --faults losses (DPOR + sleep sets), \
         against the deadlock and replan-cover invariants; with the matrix, approaches x \
         platforms x staging x loss schedules, plus the admission controller's scenarios \
         against the budget invariant";
    MAX_OPS = ["--max-ops"], &[Analyze],
        Value("N", |a, v| parse_count(v).map(|m| a.max_ops = Some(m))),
        "exploration op budget (default 1e6 per model); hitting it is TRUNCATED, exit 1";
    CHROME = ["--chrome"], &[Trace], Value("PATH", |a, v| {
            a.chrome = v.into();
            Ok(())
        }),
        "where to write the trace ('-' = stdout)";
    REAL = ["--real"], &[Trace], Flag(|a| a.real = true),
        "trace a functional run on this machine (n <= 2e8) instead of the simulator";
    JOBS = ["--jobs", "-j"], &[ServeSim], Value("N", |a, v| match parse_count(v)? {
            0 => Err("the mix needs at least one job".into()),
            j => {
                a.jobs = j;
                Ok(())
            }
        }),
        "mix size (default 150)";
    QUEUE_CAP = ["--queue-cap"], &[ServeSim],
        Value("K", |a, v| parse_count(v).map(|k| a.queue_cap = k)),
        "bounded queue depth; arrivals past it shed (default 24)";
    DEVICE_BUDGET = ["--device-budget"], &[ServeSim],
        Value("B", |a, v| parse_count(v).map(|b| a.device_budget = b as u64)),
        "per-GPU resident-bytes cap across jobs in flight (default 1e6)";
    PINNED_BUDGET = ["--pinned-budget"], &[ServeSim],
        Value("B", |a, v| parse_count(v).map(|b| a.pinned_budget = b as u64)),
        "total pinned-staging cap across jobs in flight (default 1e6)";
    NO_COALESCE = ["--no-coalesce"], &[ServeSim], Flag(|a| a.no_coalesce = true),
        "admit every job under its own reservation";
    CHAOS = ["--chaos"], &[ServeSim],
        Value("SPEC", |a, v| parse_schedule(v).map(|e| a.chaos = e).map_err(|e| e.to_string())),
        "pool schedule in virtual seconds, e.g. lose:1@0.004,join:1@0.02: a loss re-queues the \
         jobs in flight on the GPU, a join restores capacity at the next admission scan";
}

/// A read that depends on another option of the same command.
enum Rule {
    /// The options are read only beside the gate.
    Needs(&'static Opt, &'static [&'static Opt]),
    /// The gate leaves every option but these unread.
    Only(&'static Opt, &'static [&'static Opt]),
    /// The command cannot run without the option.
    Required(&'static Opt),
}

/// The rules beside the table, each for one command.
const RULES: &[(Command, Rule)] = &[
    (
        Trace,
        Rule::Needs(&REAL, &[&SEED, &FAULTS, &RETRIES, &NO_CPU_FALLBACK]),
    ),
    (Analyze, Rule::Needs(&EXPLORE, &[&FAULTS, &MAX_OPS])),
    (Analyze, Rule::Only(&MATRIX, &[&EXPLORE, &MAX_OPS])),
    (Trace, Rule::Required(&CHROME)),
];

fn command_name(command: Command) -> &'static str {
    COMMANDS
        .iter()
        .find(|(c, ..)| *c == command)
        .map_or("", |(_, names, _)| names[0])
}

/// The value placeholder after a space, or nothing for a flag.
fn placeholder(opt: &Opt) -> String {
    match opt.kind {
        Flag(_) => String::new(),
        Value(v, _) => format!(" {v}"),
    }
}

fn listed(opts: &[&Opt]) -> String {
    let names: Vec<_> = opts.iter().map(|o| o.names[0]).collect();
    names.join(", ")
}

impl Rule {
    fn describe(&self, command: Command) -> String {
        let cmd = command_name(command);
        match self {
            Rule::Needs(gate, opts) => {
                format!("{cmd} reads {} only with {}", listed(opts), gate.names[0])
            }
            Rule::Only(gate, opts) => {
                let (gate, opts) = (gate.names[0], listed(opts));
                format!("{cmd} {gate} takes no option but {opts}")
            }
            Rule::Required(opt) => format!("{cmd} needs {}{}", opt.names[0], placeholder(opt)),
        }
    }

    /// The option that breaks the rule on a command line that gave
    /// `given`, if any.
    fn broken_by(&self, given: &[&'static Opt]) -> Option<&'static Opt> {
        let has = |o: &Opt| given.iter().any(|g| g.names == o.names);
        match *self {
            Rule::Needs(gate, opts) if !has(gate) => opts.iter().copied().find(|o| has(o)),
            Rule::Only(gate, opts) if has(gate) => given
                .iter()
                .copied()
                .find(|g| g.names != gate.names && !opts.iter().any(|o| o.names == g.names)),
            Rule::Required(opt) if !has(opt) => Some(opt),
            _ => None,
        }
    }
}

/// Parse a full argument list (without the program name).
///
/// # Errors
///
/// [`CliError::Usage`] on an unknown command or option, an option the
/// command does not read, a missing or unparseable value, and a
/// schedule naming a GPU the platform lacks.
pub fn parse(argv: &[String]) -> Result<(Command, Args), CliError> {
    parse_inner(argv).map_err(CliError::Usage)
}

fn parse_inner(argv: &[String]) -> Result<(Command, Args), String> {
    let Some((name, rest)) = argv.split_first() else {
        return Ok((Help, Args::default()));
    };
    let &(command, ..) = COMMANDS
        .iter()
        .find(|(_, names, _)| names.contains(&name.as_str()))
        .ok_or_else(|| format!("unknown command '{name}'; try 'hetsort help'"))?;
    let mut args = Args::default();
    if command != Sort {
        args.n = 2_000_000_000;
    }
    let mut given: Vec<&'static Opt> = Vec::new();
    let mut it = rest.iter();
    while let Some(key) = it.next() {
        let opt = *OPTIONS
            .iter()
            .find(|o| o.names.contains(&key.as_str()))
            .ok_or_else(|| format!("unknown option '{key}'"))?;
        if !opt.commands.contains(&command) {
            return Err(format!("{} does not take {key}", command_name(command)));
        }
        match opt.kind {
            Flag(set) => set(&mut args),
            Value(_, set) => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("missing value for {key}"))?;
                set(&mut args, value).map_err(|e| format!("{key}: {e}"))?;
            }
        }
        given.push(opt);
    }
    for (_, rule) in RULES.iter().filter(|(c, _)| *c == command) {
        if let Some(opt) = rule.broken_by(&given) {
            return Err(format!("{}: {}", opt.names[0], rule.describe(command)));
        }
    }
    let (gpus, platform) = (args.platform.n_gpus(), &args.platform.name);
    let chaos = args.chaos.iter().map(|e| e.gpu);
    check_ids(&CHAOS, "GPU", chaos, gpus, platform)?;
    if let Some(inj) = &args.faults {
        check_ids(&FAULTS, "GPU", inj.scheduled_losses(), gpus, platform)?;
        if command == Analyze && !inj.schedules_only_losses() {
            let faults = FAULTS.names[0];
            return Err(format!("{faults}: analyze reads lose: entries only"));
        }
    }
    Ok((command, args))
}

/// Append `words` wrapped at 79 columns after `head`, which is padded
/// to `indent`, continuation lines indented by `indent`.
fn wrap<'a>(out: &mut String, head: &str, indent: usize, words: impl Iterator<Item = &'a str>) {
    let mut line = format!("{head:indent$}");
    for word in words {
        if line.trim_end().len() > indent && line.chars().count() + word.chars().count() > 79 {
            out.push_str(line.trim_end());
            out.push('\n');
            line = " ".repeat(indent);
        }
        line.push_str(word);
        line.push(' ');
    }
    out.push_str(line.trim_end());
    out.push('\n');
}

/// Examples, each a command line [`parse`] accepts.
const EXAMPLES: &str = "
  hetsort simulate -n 5e9 -a pipemerge --par-memcpy       # Figure 9's best
  hetsort sort -n 2e6 -b 250000 --pinned 50000            # functional + verify
  hetsort sort -n 2e6 --faults oom:1,htod:3               # recovery drill
  hetsort gantt -n 2e9 -a pipemerge --pinned 1e8          # schedule picture
  hetsort trace -n 2e9 -a pipemerge --chrome trace.json   # profile a run
  hetsort sort -n 2e6 --faults oom:1 --json -             # metrics to stdout
  hetsort analyze --matrix --explore                      # model-check all
  hetsort serve-sim --jobs 60 -p p2 --chaos lose:1@0.002  # service under churn
";

/// The usage text, derived from the command and option tables and the
/// rules.
pub fn usage() -> String {
    let mut out =
        String::from("hetsort — heterogeneous CPU/GPU sorting (IPPS 2018 reproduction)\n");
    out.push_str("\nUSAGE:\n");
    for &(command, names, _) in COMMANDS {
        let reads = OPTIONS.iter().filter(|o| o.commands.contains(&command));
        let synopsis: Vec<_> = reads
            .map(|o| format!("[{}{}]", o.names[0], placeholder(o)))
            .collect();
        let head = format!("  hetsort {}", names[0]);
        wrap(&mut out, &head, 20, synopsis.iter().map(String::as_str));
    }
    out.push_str("\nCOMMANDS:\n");
    for &(_, names, about) in COMMANDS {
        let head = format!("  {}", names.join(", "));
        wrap(&mut out, &head, 20, about.split_whitespace());
    }
    out.push_str("\nOPTIONS:\n");
    for opt in OPTIONS {
        let head = format!("  {}{}", opt.names.join(", "), placeholder(opt));
        wrap(&mut out, &head, 22, opt.help.split_whitespace());
    }
    out.push_str("\nAn option a command does not read is a usage error (exit 2), and:\n");
    for (command, rule) in RULES {
        let rule = rule.describe(*command);
        wrap(&mut out, "  ", 4, rule.split_whitespace());
    }
    out.push_str("\nEXAMPLES:");
    out.push_str(EXAMPLES);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Parse `line`, expecting `command`.
    fn args(line: &str, command: Command) -> Args {
        let (parsed, args) = parse(&argv(line)).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(parsed, command, "{line}");
        args
    }

    /// The usage error `line` must be, naming `needle`.
    fn usage_error(line: &str, needle: &str) {
        match parse(&argv(line)) {
            Err(CliError::Usage(msg)) => assert!(msg.contains(needle), "{line}: {msg}"),
            other => panic!("{line} must be a usage error, got {other:?}"),
        }
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
        let r = args(
            "simulate -n 5e9 --platform p2 -a pipedata --par-memcpy --batch 3.5e8 --streams 2 --pinned 1e6 --strategy tree",
            Command::Simulate,
        );
        assert_eq!(r.n, 5_000_000_000);
        assert_eq!(r.platform.name, "PLATFORM2");
        assert_eq!(r.approach, Approach::PipeData);
        assert!(r.par_memcpy);
        assert_eq!(r.batch, Some(350_000_000));
        assert_eq!(r.strategy, PairStrategy::MergeTree);
    }

    #[test]
    fn parse_defaults_and_help() {
        assert_eq!(parse(&[]).unwrap().0, Command::Help);
        args("help", Command::Help);
        args("--help", Command::Help);
        args("platforms", Command::Platforms);
        let r = args("sort", Command::Sort);
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
        let r = args(
            "sort -n 1e5 --faults oom:1,htod:3 --retries 4 --no-cpu-fallback",
            Command::Sort,
        );
        assert!(r.faults.as_ref().is_some_and(|f| f.is_armed()));
        assert_eq!(r.retries, Some(4));
        assert!(r.no_cpu_fallback);
        let cfg = r.config();
        assert_eq!(cfg.recovery.max_retries, 4);
        assert!(!cfg.recovery.cpu_fallback);
        assert!(cfg.faults.as_ref().is_some_and(|f| f.is_armed()));
        // A bad schedule is parsed once, by the option's setter: a
        // usage error, not a panic.
        usage_error("sort --faults gpu:1", "--faults");
    }

    #[test]
    fn sched_flags_are_unknown_options() {
        // The self/rr A/B knob is gone (DESIGN.md § 13): both spellings
        // are usage errors (exit 2), not silently accepted.
        for line in ["sort -n 1e5 --sched rr", "sort --sched-chunks 8"] {
            usage_error(line, "unknown option '--sched");
        }
    }

    #[test]
    fn parse_analyze() {
        let r = args("analyze --matrix", Command::Analyze);
        assert!(r.matrix);
        assert!(!r.explore);
        assert_eq!(r.max_ops, None);
        // The matrix is fixed: a per-run option would be ignored.
        usage_error("analyze --matrix -a pipedata", "-a");
        let r = args("analyze -n 1e6 --explore --max-ops 5e4", Command::Analyze);
        assert!(!r.matrix);
        assert!(r.explore);
        assert_eq!(r.max_ops, Some(50_000));
        // --matrix/--explore only exist on analyze; --analyze is read by
        // simulate and sort.
        assert!(parse(&argv("sort --matrix")).is_err());
        assert!(parse(&argv("sort --explore")).is_err());
        assert!(args("sort --analyze", Command::Sort).analyze);
    }

    #[test]
    fn parse_dag() {
        let r = args("dag -n 1e6 -a pipemerge --streams 3", Command::Dag);
        assert_eq!(r.n, 1_000_000);
        assert_eq!(r.approach, Approach::PipeMerge);
        assert_eq!(r.streams, Some(3));
        // Analyze-only flags stay analyze-only.
        assert!(parse(&argv("dag --matrix")).is_err());
        // Paper-scale default like the other non-sort inspectors.
        assert_eq!(args("dag", Command::Dag).n, 2_000_000_000);
    }

    #[test]
    fn parse_serve_sim() {
        let s = args(
            "serve-sim --jobs 200 --seed 7 -p p2 --queue-cap 16 \
             --device-budget 2e6 --pinned-budget 5e5 --no-coalesce",
            Command::ServeSim,
        );
        assert_eq!(s.jobs, 200);
        assert_eq!(s.seed, 7);
        assert_eq!(s.platform.name, "PLATFORM2");
        assert_eq!(s.queue_cap, 16);
        assert_eq!(s.device_budget, 2_000_000);
        assert_eq!(s.pinned_budget, 500_000);
        assert!(s.no_coalesce);

        let s = args("serve-sim", Command::ServeSim);
        assert_eq!(s.jobs, 150);
        assert!(!s.no_coalesce);

        assert!(parse(&argv("serve-sim --jobs 0")).is_err());
        assert!(parse(&argv("serve-sim --frobnicate")).is_err());
        assert!(parse(&argv("serve-sim --jobs")).is_err());

        let s = args(
            "serve-sim -p p2 --chaos lose:1@0.004,join:1@0.02",
            Command::ServeSim,
        );
        assert_eq!(s.chaos.len(), 2);
        assert_eq!(s.chaos[0].gpu, 1);
        // PLATFORM1 has no GPU 1, whichever order the options come in.
        usage_error(
            "serve-sim --chaos lose:1@0.004 -p p1",
            "PLATFORM1 has 1 GPU(s)",
        );
        assert!(parse(&argv("serve-sim --chaos evict:1@2")).is_err());
    }

    #[test]
    fn config_resolution() {
        let r = args("simulate --platform p1 -a blinemulti", Command::Simulate);
        let cfg = r.config();
        assert_eq!(cfg.platform.name, "PLATFORM1");
        assert_eq!(cfg.approach, Approach::BLineMulti);
        usage_error("simulate --platform p9", "unknown platform 'p9'");
    }

    /// A value for each option that differs from its default.
    fn sample(opt: &Opt) -> &'static str {
        match opt.names[0] {
            "-n" => "12345",
            "--platform" => "p2",
            "--approach" => "bline",
            "--batch" => "1000",
            "--streams" => "3",
            "--pinned" => "500",
            "--strategy" => "tree",
            "--seed" => "7",
            "--faults" => "lose:0@1",
            "--retries" => "5",
            "--json" => "-",
            "--max-ops" => "1000",
            "--chrome" => "t.json",
            "--jobs" => "10",
            "--queue-cap" => "4",
            "--device-budget" | "--pinned-budget" => "2e6",
            "--chaos" => "lose:0@0.001",
            _ => "",
        }
    }

    #[test]
    fn every_accepted_option_is_read() {
        for &(command, names, _) in COMMANDS {
            // trace cannot run without --chrome.
            let base = match command {
                Command::Trace => format!("{} --chrome -", names[0]),
                _ => names[0].to_string(),
            };
            for &opt in OPTIONS {
                let gate = RULES.iter().find_map(|(c, r)| match r {
                    Rule::Needs(gate, opts)
                        if *c == command && opts.iter().any(|o| o.names == opt.names) =>
                    {
                        Some(gate.names[0])
                    }
                    _ => None,
                });
                let without = format!("{base} {}", gate.unwrap_or(""));
                let with = |name: &str| format!("{without} {name} {}", sample(opt));
                if !opt.commands.contains(&command) {
                    usage_error(&with(opt.names[0]), opt.names[0]);
                    continue;
                }
                let read = format!("{:?}", args(&with(opt.names[0]), command));
                assert_ne!(
                    read,
                    format!("{:?}", args(&without, command)),
                    "{}",
                    with("")
                );
                for alias in opt.names {
                    let alias_read = format!("{:?}", args(&with(alias), command));
                    assert_eq!(alias_read, read, "{}", with(alias));
                }
            }
        }
        // The pairs the table leaves out, and the rules beside it.
        for (line, needle) in [
            ("simulate --seed 7", "--seed"),
            ("simulate --faults oom:1", "--faults"),
            ("simulate --retries 9", "--retries"),
            ("simulate --no-cpu-fallback", "--no-cpu-fallback"),
            ("gantt --json x.json", "--json"),
            ("gantt --analyze", "--analyze"),
            ("gantt --faults oom:1", "--faults"),
            ("dag --json -", "--json"),
            ("dag --analyze", "--analyze"),
            ("dag --seed 7", "--seed"),
            ("dag --retries 9", "--retries"),
            ("dag --no-cpu-fallback", "--no-cpu-fallback"),
            ("analyze --seed 7", "--seed"),
            ("analyze --retries 9", "--retries"),
            ("analyze --no-cpu-fallback", "--no-cpu-fallback"),
            ("analyze --analyze", "--analyze"),
            ("analyze --json -", "--json"),
            ("trace --chrome - --analyze", "--analyze"),
            ("trace --chrome - --json -", "--json"),
            ("trace --chrome - --seed 7", "--seed"),
            ("trace --chrome - --faults lose:0@1", "--faults"),
            ("trace --chrome - --retries 9", "--retries"),
            ("trace --chrome - --no-cpu-fallback", "--no-cpu-fallback"),
            ("trace -n 1e6", "--chrome"),
            ("analyze --faults lose:0@1", "--faults"),
            ("analyze --max-ops 5", "--max-ops"),
            ("analyze --faults oom:1 --explore", "--faults"),
            ("analyze --matrix -n 7", "-n"),
            ("analyze --matrix -a bline", "-a"),
            ("analyze --matrix --explore --faults lose:0@1", "--faults"),
            ("platforms -n 5", "-n"),
            ("platforms extra", "extra"),
            ("help -n 5", "-n"),
            ("help extra", "extra"),
        ] {
            usage_error(line, needle);
        }
        args("analyze --matrix --explore --max-ops 50", Command::Analyze);
        args(
            "trace --chrome - --real --seed 7 --faults oom:1",
            Command::Trace,
        );
    }

    /// The command lines a doc shows: each `hetsort …` example of
    /// `usage()` and each `cargo run … --bin hetsort -- …` of the README,
    /// `\` continuations joined, comments and quotes dropped.
    fn documented(text: &str, marker: &str) -> Vec<String> {
        let joined = text.replace("\\\n", " ");
        joined
            .lines()
            .filter_map(|line| line.split_once(marker).map(|(_, rest)| rest))
            .map(|rest| {
                let rest = rest.split(" #").next().unwrap_or(rest);
                rest.replace(['\'', '"', '`'], "").trim().to_string()
            })
            .collect()
    }

    #[test]
    fn documented_command_lines_parse() {
        // What the README shows as a usage error.
        let refused = ["gantt -n 2e8 --json -", "simulate --faults oom:1"];
        let usage = usage();
        let examples = usage.split("EXAMPLES:").nth(1).unwrap_or_default();
        let mut lines = documented(examples, "hetsort ");
        assert_eq!(lines.len(), 8, "{examples}");
        let readme = documented(include_str!("../README.md"), "--bin hetsort -- ");
        assert!(readme.len() >= 20, "{readme:?}");
        lines.extend(readme);
        for line in lines {
            let parsed = parse(&argv(&line)).map(|(command, _)| command);
            if refused.contains(&line.as_str()) {
                assert!(matches!(parsed, Err(CliError::Usage(_))), "{line}");
            } else {
                assert!(parsed.is_ok(), "{line}: {parsed:?}");
            }
        }
    }
}
