//! The five workloads: what each one feeds the program, what one
//! iteration calls, and how the harness decides the output is right.
//!
//! Every workload is a closed loop with one client and one operation in
//! flight; the harness starts no threads of its own. Inputs derive from
//! the seed alone and the program only ever sees the generated data.

use std::sync::Arc;

use hetsort_algos::verify::{fingerprint, Fingerprint};
use hetsort_core::exec_real::sort_real_plan;
use hetsort_core::exec_sim::simulate_plan;
use hetsort_core::{
    execute_dag, execute_dag_pooled, simulate_dag, sort_real_parallel, Approach, HetSortConfig,
    Plan, PlanDag, RealOutcome, TimingReport,
};
use hetsort_prng::Rng;
use hetsort_serve::{Priority, ServeBudget, ServeConfig, ServeOutcome, SortJob, SortService};
use hetsort_vgpu::{platform1, platform2, FaultInjector, PlatformSpec};
use hetsort_workloads::{generate, Distribution};

use crate::procstat::{peak_rss_mib, reset_peak_rss, ProcSample};
use crate::spans::Recorder;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// PIPEMERGE on uniform keys through the sequential dag engine.
    SortUniform,
    /// The same plan on sixteen distinct key values.
    SortDups,
    /// PIPEDATA through the pooled engine: one 16-way merge, no pairs.
    SortPooled,
    /// Plan build plus simulation of the paper's largest run.
    SimPaper,
    /// Six hundred small jobs through the sort service.
    ServeMix,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 5] = [
        Kind::SortUniform,
        Kind::SortDups,
        Kind::SortPooled,
        Kind::SimPaper,
        Kind::ServeMix,
    ];

    /// Name as listed in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SortUniform => "sort_uniform",
            Kind::SortDups => "sort_dups",
            Kind::SortPooled => "sort_pooled",
            Kind::SimPaper => "sim_paper",
            Kind::ServeMix => "serve_mix",
        }
    }

    /// Parse a `BENCHMARK.json` workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the run pins itself to one CPU. `serve_mix` does: its 600
    /// tiny jobs spawn and join some 2 400 short-lived kernel threads
    /// per iteration, and with two CPUs every one of those is a wake-up
    /// of the other CPU. On a shared host that measures the host's
    /// scheduler (7 × slower beside two busy neighbours, against
    /// 1.6 × on one CPU and 1.7 × for single-threaded `sim_paper`),
    /// while on a quiet machine one CPU and two take the same time:
    /// the jobs are too small for a second CPU to help.
    pub fn single_cpu(self) -> bool {
        self == Kind::ServeMix
    }

    /// The work unit `throughput_per_s` counts on this workload.
    pub fn work_unit(self) -> &'static str {
        match self {
            Kind::SortUniform | Kind::SortDups | Kind::SortPooled => "elements",
            Kind::SimPaper => "dag nodes",
            Kind::ServeMix => "verified jobs",
        }
    }
}

/// A functional sort: configuration, input size, key distribution and
/// which engine runs it.
#[derive(Debug, Clone)]
pub struct SortSpec {
    /// Pipeline configuration.
    pub cfg: HetSortConfig,
    /// Elements to sort.
    pub n: usize,
    /// Key distribution.
    pub dist: Distribution,
    /// Run on the pooled engine (`sort_real_parallel`) instead of the
    /// sequential one (`sort_real_plan`).
    pub pooled: bool,
}

/// A run that is only simulated.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// Pipeline configuration.
    pub cfg: HetSortConfig,
    /// Elements the simulated run sorts.
    pub n: usize,
}

/// A workload at a scale: its own input (the primary) plus the smaller
/// companions the traced pass needs so that every layer has something
/// to run on every workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The workload.
    pub kind: Kind,
    /// Size divisor: 1 is the benchmark, 50 the smoke run, 100 the
    /// self-tests.
    pub scale: usize,
    /// The functional sort: the workload itself on `sort_*`; on
    /// `sim_paper` a 1/8-size `sort_uniform`, on `serve_mix` the mix's
    /// piped shape at its mean job size.
    pub sort: SortSpec,
    /// The simulated run: the workload itself on `sim_paper`, the
    /// functional plan elsewhere (`serve_mix` simulates its job plans).
    pub sim: SimSpec,
    /// Jobs in the service mix: 600 on `serve_mix`, 60 elsewhere.
    pub serve_jobs: usize,
}

fn pipeline(
    platform: PlatformSpec,
    approach: Approach,
    batch: usize,
    pinned: usize,
) -> HetSortConfig {
    HetSortConfig::paper_defaults(platform, approach)
        .with_batch_elems(batch.max(8))
        .with_pinned_elems(pinned.max(2))
}

impl Spec {
    /// The workload `kind` at 1/`scale` size. The seed only enters here
    /// through `sim_paper`'s input size, which is drawn from the last
    /// thousand elements below 5·10⁹ so the dag keeps its shape.
    pub fn new(kind: Kind, scale: usize, seed: u64) -> Spec {
        let s = scale.max(1);
        let uniform = |n: usize, b: usize, p: usize| SortSpec {
            cfg: pipeline(platform1(), Approach::PipeMerge, b / s, p / s),
            n: n / s,
            dist: Distribution::Uniform,
            pooled: false,
        };
        let sort = match kind {
            Kind::SortUniform => uniform(8_000_000, 1_000_000, 100_000),
            Kind::SortDups => SortSpec {
                dist: Distribution::DuplicateHeavy { distinct: 16 },
                ..uniform(8_000_000, 1_000_000, 100_000)
            },
            Kind::SortPooled => SortSpec {
                cfg: pipeline(platform2(), Approach::PipeData, 500_000 / s, 100_000 / s),
                n: 8_000_000 / s,
                dist: Distribution::Uniform,
                pooled: true,
            },
            Kind::SimPaper => uniform(1_000_000, 125_000, 12_500),
            Kind::ServeMix => SortSpec {
                cfg: shape_config(&platform1(), Shape::Piped),
                n: 8_000,
                dist: Distribution::Uniform,
                pooled: false,
            },
        };
        let sim = match kind {
            Kind::SimPaper => {
                let cfg = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge);
                let batch = cfg.batch_elems / s;
                let jitter = Rng::new(seed).usize_in(0, 1_000);
                SimSpec {
                    cfg: cfg.with_batch_elems(batch),
                    n: 5_000_000_000 / s - jitter,
                }
            }
            _ => SimSpec {
                cfg: sort.cfg.clone(),
                n: sort.n,
            },
        };
        let serve_jobs = match kind {
            Kind::ServeMix => (600 / s).max(6),
            _ => (60 / s).max(6),
        };
        Spec {
            kind,
            scale: s,
            sort,
            sim,
            serve_jobs,
        }
    }
}

/// Running count of checked operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations checked (iterations, or jobs on `serve_mix`).
    pub attempted: u64,
    /// Operations that failed the harness's check.
    pub failed: u64,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
    }
}

/// Bit-exact order-sensitive equality of two key vectors.
pub fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The reference order: `sort_unstable_by(f64::total_cmp)`.
pub fn reference_sort(data: &[f64]) -> Vec<f64> {
    let mut v = data.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

// ---------------------------------------------------------------- sort

/// A prepared functional sort: generated keys, their reference order
/// and the built plan.
#[derive(Debug)]
pub struct SortInput {
    /// What was prepared.
    pub spec: SortSpec,
    /// The unsorted keys.
    pub data: Vec<f64>,
    /// `data` in reference order.
    pub reference: Vec<f64>,
    /// The plan `spec.cfg` builds for `spec.n`.
    pub plan: Plan,
}

impl SortInput {
    /// Generate keys from `seed`, sort the reference, build the plan.
    ///
    /// # Errors
    ///
    /// The generator's or planner's error, as text.
    pub fn prepare(spec: &SortSpec, seed: u64) -> Result<SortInput, String> {
        let data = generate(spec.dist, spec.n, seed)
            .map_err(|e| e.to_string())?
            .data;
        let reference = reference_sort(&data);
        let plan = Plan::build(spec.cfg.clone(), spec.n).map_err(|e| e.to_string())?;
        Ok(SortInput {
            spec: spec.clone(),
            data,
            reference,
            plan,
        })
    }

    /// One untraced iteration: the public entry point `hetsort sort`
    /// (or the pooled executor) runs.
    ///
    /// # Errors
    ///
    /// The executor's typed error, as text.
    pub fn run(&self) -> Result<RealOutcome, String> {
        if self.spec.pooled {
            sort_real_parallel(&self.plan, &self.data)
        } else {
            sort_real_plan(&self.plan, &self.data)
        }
        .map_err(|e| e.to_string())
    }

    /// Execute an already lowered dag on this input's keys.
    ///
    /// # Errors
    ///
    /// The executor's typed error, as text.
    pub fn execute(&self, dag: &PlanDag, pooled: bool) -> Result<RealOutcome, String> {
        if pooled {
            execute_dag_pooled(dag, &self.data, dag.plan.total_streams.max(1))
        } else {
            execute_dag(dag, &self.data)
        }
        .map_err(|e| e.to_string())
    }

    /// The harness's own check: the executor's verdict **and** bit
    /// equality with the reference order.
    pub fn check(&self, out: &RealOutcome) -> bool {
        out.verified && bit_equal(&out.sorted, &self.reference)
    }
}

// ----------------------------------------------------------------- sim

/// Total bits and span count of the first checked simulation; later
/// ones must repeat them.
pub type SimBaseline = Option<(u64, usize)>;

/// The harness's check of one simulated run: total finite and positive,
/// at least one timeline span per dag node, and the same total bits and
/// span count as every earlier run of the same input.
pub fn check_sim(baseline: &mut SimBaseline, report: &TimingReport, dag_nodes: usize) -> bool {
    let spans = report.timeline.spans().len();
    let sane = report.total_s.is_finite() && report.total_s > 0.0 && spans >= dag_nodes;
    let seen = (report.total_s.to_bits(), spans);
    sane && *baseline.get_or_insert(seen) == seen
}

// --------------------------------------------------------------- serve

/// The three job shapes of the service mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// PIPEMERGE, 0.8–2 k elements: small enough to coalesce.
    Small,
    /// PIPEDATA, 4–12 k elements.
    Piped,
    /// BLINEMULTI, 3–8 k elements.
    Blocking,
}

impl Shape {
    const ALL: [Shape; 3] = [Shape::Small, Shape::Piped, Shape::Blocking];

    /// Job sizes of this shape, elements: `lo..hi`.
    fn size_range(self) -> (usize, usize) {
        match self {
            Shape::Small => (800, COALESCE_ELEMS),
            Shape::Piped => (4_000, 12_000),
            Shape::Blocking => (3_000, 8_000),
        }
    }
}

/// Configuration of a mix shape on `platform`.
pub fn shape_config(platform: &PlatformSpec, shape: Shape) -> HetSortConfig {
    match shape {
        Shape::Small => pipeline(platform.clone(), Approach::PipeMerge, 1_000, 250),
        Shape::Piped => pipeline(platform.clone(), Approach::PipeData, 2_000, 500),
        Shape::Blocking => pipeline(platform.clone(), Approach::BLineMulti, 1_500, 500),
    }
}

/// Jobs at or under this size share a reservation with same-shape jobs.
const COALESCE_ELEMS: usize = 2_000;

/// One job of the mix, kept as a recipe: the fault injector inside a
/// built [`SortJob`] counts operations, so every iteration builds fresh
/// jobs from these.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The unsorted keys.
    pub data: Vec<f64>,
    /// `data` in reference order.
    pub reference: Vec<f64>,
    /// Configuration shape.
    pub shape: Shape,
    /// Scheduling priority.
    pub priority: Priority,
    /// Virtual arrival time, seconds.
    pub arrival_s: f64,
    /// Seed of a one-fault injection schedule (every tenth job).
    pub fault_seed: Option<u64>,
}

/// A prepared service mix. The harness owns the recipe (it does not
/// call `serve::synthetic_jobs`), so the workload cannot drift when the
/// library's demo mix changes.
#[derive(Debug)]
pub struct ServeInput {
    platform: PlatformSpec,
    /// The job recipes, in submission order.
    pub jobs: Vec<JobSpec>,
}

/// `count` sizes covering `lo..hi` evenly, in seeded random order: the
/// mix's total work is the same for every seed, only its order and keys
/// change, so runs on different seeds measure the same amount of work.
fn stratified_sizes(rng: &mut Rng, count: usize, lo: usize, hi: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..count)
        .map(|i| lo + (hi - lo) * (2 * i + 1) / (2 * count.max(1)))
        .collect();
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.usize_in(0, i + 1));
    }
    sizes
}

impl ServeInput {
    /// Build `n_jobs` job recipes from `seed`: the first fifth arrive
    /// together at t = 0 as small coalescible jobs, the rest cycle
    /// through the three shapes up to 2 ms apart; priorities cycle
    /// normal / low-or-high / low; every tenth job carries one injected
    /// fault for the default recovery policy to absorb.
    pub fn prepare(n_jobs: usize, seed: u64) -> ServeInput {
        let platform = platform1();
        let mut rng = Rng::new(seed);
        let burst = (n_jobs / 5).max(1);
        let shape_of = |i: usize| match (i < burst, i % 3) {
            (true, _) | (false, 0) => Shape::Small,
            (false, 1) => Shape::Piped,
            _ => Shape::Blocking,
        };
        let mut sizes = Shape::ALL.map(|shape| {
            let count = (0..n_jobs).filter(|&i| shape_of(i) == shape).count();
            let (lo, hi) = shape.size_range();
            stratified_sizes(&mut rng, count, lo, hi)
        });
        let mut arrival = 0.0_f64;
        let jobs = (0..n_jobs)
            .map(|i| {
                let shape = shape_of(i);
                let n = sizes[shape as usize]
                    .pop()
                    .expect("one size was drawn per job of each shape");
                if i >= burst {
                    arrival += rng.f64_in(0.0, 2.0e-3);
                }
                let data: Vec<f64> = (0..n).map(|_| rng.f64_unit()).collect();
                let priority = match i % 3 {
                    0 => Priority::Normal,
                    1 => *rng.pick(&[Priority::Low, Priority::High]),
                    _ => Priority::Low,
                };
                JobSpec {
                    reference: reference_sort(&data),
                    data,
                    shape,
                    priority,
                    arrival_s: arrival,
                    fault_seed: (i % 10 == 9).then_some(seed ^ i as u64),
                }
            })
            .collect();
        ServeInput { platform, jobs }
    }

    /// Configuration of job `j`, with a fresh fault injector.
    pub fn job_config(&self, j: &JobSpec) -> HetSortConfig {
        let cfg = shape_config(&self.platform, j.shape);
        match j.fault_seed {
            Some(s) => cfg.with_faults(Arc::new(FaultInjector::from_seed(s, 1))),
            None => cfg,
        }
    }

    /// Fresh jobs for one iteration.
    pub fn build_jobs(&self) -> Vec<SortJob> {
        self.jobs
            .iter()
            .map(|j| {
                SortJob::new(j.data.clone(), self.job_config(j))
                    .with_priority(j.priority)
                    .arriving_at(j.arrival_s)
            })
            .collect()
    }

    /// The service under test: 10⁶ B device and 10⁶ B pinned budget,
    /// coalescing on, and a queue deep enough that nothing is shed.
    pub fn service(&self) -> SortService {
        SortService::new(
            ServeConfig::new(ServeBudget::new(1.0e6, 1.0e6))
                .with_queue_cap(self.jobs.len())
                .with_coalescing(COALESCE_ELEMS),
        )
    }

    /// Fingerprint of every job's keys, combined (provenance).
    pub fn fingerprint(&self) -> Fingerprint {
        self.jobs
            .iter()
            .map(|j| fingerprint(&j.data))
            .reduce(hetsort_algos::verify::combine)
            .unwrap_or_else(|| fingerprint::<f64>(&[]))
    }

    /// The harness's check of one service run; returns the number of
    /// failed jobs. Every submitted job must come back exactly once,
    /// verified and bit-equal to its reference; shed and failed jobs
    /// count as failures; the virtual makespan must repeat bit for bit
    /// (or the whole run counts as failed).
    pub fn check(&self, baseline: &mut Option<u64>, out: &ServeOutcome) -> u64 {
        let submitted = self.jobs.len();
        let accounted = out.completed.len() + out.shed.len() + out.failed.len();
        let mut seen = vec![false; submitted];
        let mut bad = out.shed.len() + out.failed.len();
        for r in &out.completed {
            let ok = usize::try_from(r.id).ok().is_some_and(|id| {
                id < submitted
                    && !std::mem::replace(&mut seen[id], true)
                    && r.verified
                    && bit_equal(&r.sorted, &self.jobs[id].reference)
            });
            bad += usize::from(!ok);
        }
        let makespan = out.makespan_s.to_bits();
        if accounted != submitted || *baseline.get_or_insert(makespan) != makespan {
            bad = submitted;
        }
        bad as u64
    }
}

// ------------------------------------------------------------- primary

/// The prepared input of a workload's own iteration.
#[derive(Debug)]
pub enum Primary {
    /// `sort_uniform`, `sort_dups`, `sort_pooled`.
    Sort(Box<SortInput>),
    /// `sim_paper`.
    Sim {
        /// What is simulated.
        spec: SimSpec,
        /// First checked result; later iterations must repeat it.
        baseline: SimBaseline,
    },
    /// `serve_mix`.
    Serve {
        /// The job recipes.
        input: ServeInput,
        /// First checked makespan bits.
        baseline: Option<u64>,
    },
}

/// One timed iteration.
#[derive(Debug, Clone, Copy)]
pub struct IterSample {
    /// Wall seconds inside the program (checks excluded).
    pub wall_s: f64,
    /// Work units completed (see [`Kind::work_unit`]).
    pub work: f64,
    /// CPU time and page faults of the process over the same interval.
    pub used: ProcSample,
    /// Peak resident set of the process over the same interval, MiB
    /// (the harness's resident input and reference included).
    pub peak_rss_mib: f64,
}

impl Primary {
    /// Prepare the workload's own input from `seed`.
    ///
    /// # Errors
    ///
    /// Generator or planner errors, as text.
    pub fn prepare(spec: &Spec, seed: u64) -> Result<Primary, String> {
        Ok(match spec.kind {
            Kind::SortUniform | Kind::SortDups | Kind::SortPooled => {
                Primary::Sort(Box::new(SortInput::prepare(&spec.sort, seed)?))
            }
            Kind::SimPaper => Primary::Sim {
                spec: spec.sim.clone(),
                baseline: None,
            },
            Kind::ServeMix => Primary::Serve {
                input: ServeInput::prepare(spec.serve_jobs, seed),
                baseline: None,
            },
        })
    }

    /// Fingerprint of the generated input (provenance): the keys, or
    /// for `sim_paper` just the input size.
    pub fn input_fingerprint(&self) -> String {
        let fp = match self {
            Primary::Sort(s) => fingerprint(&s.data),
            Primary::Sim { spec, .. } => return format!("n={}", spec.n),
            Primary::Serve { input, .. } => input.fingerprint(),
        };
        format!("{:016x}{:016x}{:016x}/{}", fp.sum, fp.xor, fp.sq, fp.count)
    }

    /// Run one iteration and check it. With a disabled recorder this is
    /// exactly the public call the workload is defined as; with an
    /// enabled one the same work is split at the layer boundaries
    /// (`core.plan_build`, `core.dag_lower`, then `core.execute` /
    /// `core.simulate_dag` / `serve.run`, then the harness's `verify`)
    /// under one `iteration` root span.
    ///
    /// # Errors
    ///
    /// A typed error from the program: on these workloads no operation
    /// is meant to fail, so the run stops instead of counting it.
    pub fn iterate(&mut self, rec: &mut Recorder, tally: &mut Tally) -> Result<IterSample, String> {
        let traced = rec.enabled();
        rec.open("iteration");
        let sample = match self {
            Primary::Sort(input) => {
                reset_peak_rss();
                let before = ProcSample::now();
                let (out, wall_s) = if traced {
                    let (dag, built_s) = build_and_lower(rec, &input.spec.cfg, input.spec.n)?;
                    let (out, t) =
                        rec.timed("core.execute", || input.execute(&dag, input.spec.pooled));
                    (out?, built_s + t)
                } else {
                    let (out, t) = rec.timed("core.execute", || input.run());
                    (out?, t)
                };
                let used = ProcSample::now().since(&before);
                let peak_rss_mib = peak_rss_mib();
                let (ok, _) = rec.timed("verify", || input.check(&out));
                tally.add(1, u64::from(!ok));
                IterSample {
                    wall_s,
                    work: input.spec.n as f64,
                    used,
                    peak_rss_mib,
                }
            }
            Primary::Sim { spec, baseline } => {
                reset_peak_rss();
                let before = ProcSample::now();
                let (report, nodes, wall_s) = if traced {
                    let (dag, built_s) = build_and_lower(rec, &spec.cfg, spec.n)?;
                    let (report, t) = rec.timed("core.simulate_dag", || simulate_dag(&dag));
                    (report, dag.nodes.len(), built_s + t)
                } else {
                    let mut nodes = 0;
                    let (report, t) = rec.timed("core.simulate_dag", || {
                        let plan = Plan::build(spec.cfg.clone(), spec.n)?;
                        nodes = plan.steps.len();
                        simulate_plan(&plan)
                    });
                    (report, nodes, t)
                };
                let used = ProcSample::now().since(&before);
                let peak_rss_mib = peak_rss_mib();
                let report = report.map_err(|e| e.to_string())?;
                let (ok, _) = rec.timed("verify", || check_sim(baseline, &report, nodes));
                tally.add(1, u64::from(!ok));
                IterSample {
                    wall_s,
                    work: nodes as f64,
                    used,
                    peak_rss_mib,
                }
            }
            Primary::Serve { input, baseline } => {
                let service = input.service();
                let jobs = input.build_jobs();
                reset_peak_rss();
                let before = ProcSample::now();
                let (out, wall_s) = rec.timed("serve.run", || service.run(jobs));
                let used = ProcSample::now().since(&before);
                let peak_rss_mib = peak_rss_mib();
                let (bad, _) = rec.timed("verify", || input.check(baseline, &out));
                let submitted = input.jobs.len() as u64;
                tally.add(submitted, bad);
                IterSample {
                    wall_s,
                    work: (submitted - bad.min(submitted)) as f64,
                    used,
                    peak_rss_mib,
                }
            }
        };
        rec.close();
        Ok(sample)
    }
}

/// `Plan::build` then [`lower`], each under its own span; returns the
/// dag and the two spans' total seconds.
fn build_and_lower(
    rec: &mut Recorder,
    cfg: &HetSortConfig,
    n: usize,
) -> Result<(PlanDag, f64), String> {
    let (plan, a) = rec.timed("core.plan_build", || Plan::build(cfg.clone(), n));
    let plan = plan.map_err(|e| e.to_string())?;
    let (dag, b) = rec.timed("core.dag_lower", || lower(plan));
    Ok((dag?, a + b))
}

/// Lower a plan to its dag and validate it.
///
/// # Errors
///
/// The validator's typed error, as text.
pub fn lower(plan: Plan) -> Result<PlanDag, String> {
    let dag = PlanDag::from_plan(plan);
    dag.validate().map_err(|e| e.to_string())?;
    Ok(dag)
}
