//! The `hetsort` command-line tool: simulate, sort, and visualize
//! heterogeneous sorting pipelines. See `hetsort help`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::io::{self, Write};
use std::process::ExitCode;

use hetsort::analyze::admission_model::clean_scenarios;
use hetsort::analyze::{
    analyze_plan, analyze_plan_with_trace, AdmissionModel, AnalysisReport, EngineModel,
    ExploreConfig,
};
use hetsort::cli::{parse, usage, Args, CliError, Command};
use hetsort::core::dag::hooks::EngineHooks;
use hetsort::core::{
    host_bound_bytes, host_peak_bytes, Approach, HetSortConfig, HetSortError, PairStrategy, Plan,
    PlanDag, StagingMode,
};
use hetsort::obs::{chrome_trace, stdout_exit_code, Json, MetricsRegistry};
use hetsort::serve::{synthetic_jobs, ServeBudget, ServeConfig, SortService, MIX_COALESCE_ELEMS};
use hetsort::vgpu::{platform1, platform2};
use hetsort::workloads::{generate, Distribution};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, args) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Everything the CLI prints goes through this one locked writer, so
    // a reader that closes the pipe (`hetsort dag … | head -1`) surfaces
    // as an `io::Error` here instead of a `println!` panic.
    let written = match run(command, args, &mut io::stdout().lock()) {
        Ok(()) => Ok(()),
        Err(CliError::Io(e)) => Err(e),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(if let CliError::Usage(_) = e { 2 } else { 1 });
        }
    };
    stdout_exit_code("hetsort", written)
}

fn run(command: Command, r: Args, w: &mut impl Write) -> Result<(), CliError> {
    match command {
        Command::Help => writeln!(w, "{}", usage())?,
        Command::Platforms => {
            for p in [platform1(), platform2()] {
                writeln!(
                    w,
                    "{:<10} {} cores, {} GPU(s): {}",
                    p.name,
                    p.cpu.cores,
                    p.gpus.len(),
                    p.gpus
                        .iter()
                        .map(|g| g.name.clone())
                        .collect::<Vec<_>>()
                        .join(", ")
                )?;
            }
        }
        Command::Simulate => {
            let plan = r.plan()?;
            let analysis = r.analyze.then(|| analyze_plan(&plan));
            let report = hetsort::core::exec_sim::simulate_plan(&plan)?;
            let reg = report.metrics();
            writeln!(w, "{}", report.summary(&reg.totals()))?;
            writeln!(
                w,
                "PCIe/bus utilization: {}",
                utilization_line(&report.timeline)
            )?;
            let ref_t = hetsort::core::reference::reference_time_full(&r.platform, r.n);
            writeln!(
                w,
                "reference CPU sort: {ref_t:.3} s → speedup {:.2}x",
                ref_t / report.total_s
            )?;
            if let Some(path) = &r.json {
                let doc = metrics_doc(&plan, "simulate", &reg, analysis.as_ref());
                write_output(path, &doc.pretty(), w)?;
            }
            if let Some(a) = analysis {
                require_clean(&plan, a, "static schedule")?;
            }
        }
        Command::Sort => {
            let plan = r.plan()?;
            let data = gen_input(r.n, r.seed)?;
            let static_analysis = r.analyze.then(|| analyze_plan(&plan));
            // Even a dirty schedule gets executed when --json asked for
            // observability output (the findings ship in the JSON); the
            // analyzer verdict still fails the run afterwards.
            if r.json.is_none() {
                if let Some(a) = static_analysis.clone() {
                    require_clean(&plan, a, "static schedule")?;
                }
            }
            let out = hetsort::core::exec_real::sort_real_plan(&plan, &data)?;
            let trace_analysis = out
                .trace
                .as_ref()
                .map(|trace| analyze_plan_with_trace(&plan, trace));
            writeln!(
                w,
                "sorted {} elements in {:.3} s wall — {} batches, {} pair merges, verified: {}",
                out.sorted.len(),
                out.wall_s,
                out.nb,
                out.pair_merges,
                out.verified
            )?;
            if out.recovery.any() {
                writeln!(w, "recovery: {}", out.recovery.summary())?;
            }
            if let Some(path) = &r.json {
                // Merge both analyses into one findings list for export.
                let both = static_analysis.iter().chain(&trace_analysis);
                let merged = r.analyze.then(|| AnalysisReport {
                    findings: both.flat_map(|a| a.findings.clone()).collect(),
                });
                let doc = metrics_doc(&plan, "sort", &out.metrics, merged.as_ref());
                write_output(path, &doc.pretty(), w)?;
            }
            if let Some(a) = static_analysis {
                require_clean(&plan, a, "static schedule")?;
            }
            if let Some(a) = trace_analysis {
                require_clean(&plan, a, "executed trace")?;
            }
            if !out.verified {
                return Err(CliError::Run(HetSortError::Data {
                    reason: "output verification failed".into(),
                }));
            }
        }
        Command::Trace => {
            let plan = r.plan()?;
            let reg = if r.real {
                // Functional runs allocate ~3n×8 bytes on this host;
                // refuse paper-scale n instead of thrashing swap.
                if r.n > 200_000_000 {
                    return Err(CliError::Usage(format!(
                        "trace --real executes on this machine: use -n ≤ 2e8 (got {})",
                        r.n
                    )));
                }
                let data = gen_input(r.n, r.seed)?;
                hetsort::core::exec_real::sort_real_plan(&plan, &data)?.metrics
            } else {
                hetsort::core::exec_sim::simulate_plan(&plan)?.metrics()
            };
            let mode = if r.real { "functional" } else { "simulated" };
            let (platform, approach) = (&plan.config.platform.name, plan.config.approach.name());
            let label = format!("{platform}/{approach} n={} ({mode})", plan.n);
            write_output(&r.chrome, &chrome_trace(&reg, &label), w)?;
            eprintln!(
                "trace: {} spans over {:.6} s, overlap {:.3}, bus util {:.3}",
                reg.spans().len(),
                reg.end_to_end_s(),
                reg.overlap_ratio(),
                reg.bus_util(),
            );
        }
        Command::Gantt => {
            let report = hetsort::core::exec_sim::simulate_plan(&r.plan()?)?;
            writeln!(w, "{}", report.timeline.gantt(100))?;
            writeln!(
                w,
                "legend: first letter of component (M=MCpy/MultiwayMerge, H=HtoD, D=DtoH, G=GPUSort, P=PinnedAlloc/PairMerge)"
            )?;
        }
        Command::Dag => {
            let dag = PlanDag::from_plan(r.plan()?);
            writeln!(
                w,
                "{} on {}: n={} → {} nodes, {} dependency edges, {} streams, ready-front width ≤ {}",
                dag.plan.config.approach.name(),
                dag.plan.config.platform.name,
                dag.plan.n,
                dag.nodes.len(),
                dag.edge_count(),
                dag.plan.total_streams,
                dag.max_ready_width(),
            )?;
            let mut census = std::collections::BTreeMap::new();
            for node in &dag.nodes {
                *census.entry(node.op.class()).or_insert(0) += 1;
            }
            for (class, count) in &census {
                writeln!(w, "  {:<14} × {count}", class.name())?;
            }
            match dag.validate() {
                Ok(()) => writeln!(w, "validator: structurally sound")?,
                Err(e) => writeln!(w, "validator: REJECTED — {e}")?,
            }
            let report = hetsort::analyze::analyze_dag(&dag);
            if report.is_clean() {
                writeln!(w, "analyzer: clean")?;
            } else {
                write!(w, "{report}")?;
            }
            require_clean(&dag.plan, report, "op dag")?;
        }
        Command::ServeSim => serve_sim(r, w)?,
        Command::Analyze => {
            let ecfg = match r.max_ops {
                Some(m) => ExploreConfig::with_max_ops(m),
                None => ExploreConfig::default(),
            };
            if r.matrix {
                analyze_matrix(w)?;
                if r.explore {
                    explore_matrix(&ecfg, w)?;
                }
            } else {
                let plan = r.plan()?;
                // The engine model sorts n elements per explored
                // interleaving.
                if r.explore && plan.n > 1_000_000 {
                    return Err(CliError::Usage(format!(
                        "--explore runs the engine per explored interleaving: use -n ≤ 1e6 (got {})",
                        plan.n
                    )));
                }
                writeln!(
                    w,
                    "analyzing {} on {}: n={} → {} batches, {} streams, {} steps",
                    plan.config.approach.name(),
                    plan.config.platform.name,
                    plan.n,
                    plan.nb(),
                    plan.total_streams,
                    plan.steps.len()
                )?;
                let peak = host_peak_bytes(&plan);
                writeln!(
                    w,
                    "peak host bytes: {peak} ({:.2} × n·elem)",
                    input_multiple(&plan, peak)
                )?;
                let report = analyze_plan(&plan);
                write!(w, "{report}")?;
                require_clean(&plan, report, "static schedule")?;
                if r.explore {
                    explore_one(&plan, &ecfg, w)?;
                }
            }
        }
    }
    Ok(())
}

/// `serve-sim`: run the multi-tenant service on the deterministic
/// synthetic mix and report what happened.
fn serve_sim(s: Args, w: &mut impl Write) -> Result<(), CliError> {
    let platform = &s.platform;
    let budget = ServeBudget {
        device_bytes: s.device_budget,
        pinned_bytes: s.pinned_budget,
    };
    let mut cfg = ServeConfig::new(budget).with_queue_cap(s.queue_cap);
    if !s.no_coalesce {
        cfg = cfg.with_coalescing(MIX_COALESCE_ELEMS);
    }
    if !s.chaos.is_empty() {
        writeln!(w, "chaos: {} pool event(s) scheduled", s.chaos.len())?;
        cfg = cfg.with_pool_events(s.chaos);
    }
    let jobs = synthetic_jobs(platform, s.jobs, s.seed);
    let out = SortService::new(cfg).run(jobs);

    let verified = out.completed.iter().filter(|r| r.verified).count();
    let recovered = out.completed.iter().filter(|r| r.recovered).count();
    let coalesced = out
        .completed
        .iter()
        .filter(|r| r.coalesced_into.is_some())
        .count();
    let bytes = out.metrics.counter("bytes_sorted");
    writeln!(
        w,
        "serve-sim: {} jobs on {} (seed {}, queue {}, budget dev {:.1e} B/GPU + pinned {:.1e} B)",
        s.jobs, platform.name, s.seed, s.queue_cap, s.device_budget, s.pinned_budget
    )?;
    writeln!(
        w,
        "completed {} (verified {verified}, recovered {recovered}, coalesced {coalesced}), shed {}, failed {}",
        out.completed.len(),
        out.shed.len(),
        out.failed.len()
    )?;
    let losses = out.metrics.counter("pool_losses");
    let joins = out.metrics.counter("pool_joins");
    if losses > 0.0 || joins > 0.0 {
        writeln!(
            w,
            "pool churn: {losses:.0} loss(es), {joins:.0} join(s), {:.0} job(s) displaced and re-queued",
            out.metrics.counter("jobs_displaced"),
        )?;
    }
    if out.makespan_s > 0.0 {
        writeln!(
            w,
            "makespan {:.6} s virtual — {:.1} MB sorted, {:.1} MB/s service throughput, {} admission decisions",
            out.makespan_s,
            bytes / 1e6,
            bytes / 1e6 / out.makespan_s,
            out.admission_log.len()
        )?;
    }
    for (id, e) in out.shed.iter().take(3) {
        writeln!(w, "  shed example: job {id}: {e}")?;
    }
    if let Some(path) = &s.json {
        let doc = Json::obj(vec![
            ("schema", Json::s("hetsort-serve-sim")),
            ("version", Json::n(1.0)),
            ("platform", Json::s(platform.name.clone())),
            ("jobs", Json::n(s.jobs as f64)),
            ("seed", Json::n(s.seed as f64)),
            ("completed", Json::n(out.completed.len() as f64)),
            ("verified", Json::n(verified as f64)),
            ("recovered", Json::n(recovered as f64)),
            ("coalesced", Json::n(coalesced as f64)),
            ("shed", Json::n(out.shed.len() as f64)),
            ("failed", Json::n(out.failed.len() as f64)),
            ("makespan_s", Json::n(out.makespan_s)),
            ("bytes_sorted", Json::n(bytes)),
            (
                "admission_decisions",
                Json::n(out.admission_log.len() as f64),
            ),
        ]);
        write_output(path, &doc.pretty(), w)?;
    }
    if !out.failed.is_empty() {
        let (id, e) = &out.failed[0];
        return Err(CliError::Run(HetSortError::Data {
            reason: format!("{} job(s) failed; first: job {id}: {e}", out.failed.len()),
        }));
    }
    if verified != out.completed.len() {
        return Err(CliError::Run(HetSortError::Data {
            reason: "completed job failed output verification".into(),
        }));
    }
    Ok(())
}

/// Generate the CLI's uniform input, mapping generator rejections into
/// the typed CLI error instead of panicking.
fn gen_input(n: usize, seed: u64) -> Result<Vec<f64>, CliError> {
    Ok(generate(Distribution::Uniform, n, seed)
        .map_err(|e| {
            CliError::Run(HetSortError::Data {
                reason: format!("workload generation: {e}"),
            })
        })?
        .data)
}

/// Write `content` to `path`, with `-` meaning the CLI's stdout `w`.
fn write_output(path: &str, content: &str, w: &mut impl Write) -> Result<(), CliError> {
    if path == "-" {
        Ok(w.write_all(content.as_bytes())?)
    } else {
        std::fs::write(path, content).map_err(|e| {
            CliError::Run(HetSortError::Data {
                reason: format!("cannot write {path}: {e}"),
            })
        })
    }
}

/// The `--json` document: run identity + metrics registry + analyzer
/// findings (when an analysis ran; `null` otherwise).
fn metrics_doc(
    plan: &Plan,
    mode: &str,
    reg: &MetricsRegistry,
    analysis: Option<&AnalysisReport>,
) -> Json {
    let findings = match analysis {
        None => Json::Null,
        Some(a) => Json::Arr(
            a.findings
                .iter()
                .map(|f| {
                    Json::obj(vec![
                        ("class", Json::s(f.class.name())),
                        ("code", Json::s(f.code)),
                        ("message", Json::s(f.message.clone())),
                        (
                            "ops",
                            Json::Arr(f.ops.iter().map(|o| Json::s(o.clone())).collect()),
                        ),
                    ])
                })
                .collect(),
        ),
    };
    Json::obj(vec![
        ("schema", Json::s("hetsort-metrics")),
        ("version", Json::n(1.0)),
        ("mode", Json::s(mode)),
        ("approach", Json::s(plan.config.approach.name())),
        ("platform", Json::s(plan.config.platform.name.clone())),
        ("n", Json::n(plan.n as f64)),
        ("nb", Json::n(plan.nb() as f64)),
        ("metrics", reg.to_json()),
        ("analyzer_findings", findings),
    ])
}

/// Fail the run (exit 1) when the analyzer found anything.
fn require_clean(plan: &Plan, report: AnalysisReport, what: &str) -> Result<(), CliError> {
    if report.is_clean() {
        return Ok(());
    }
    eprint!("{report}");
    Err(CliError::Run(HetSortError::Plan {
        reason: format!(
            "{what} of {} n={} has {} analyzer finding(s)",
            plan.config.approach.name(),
            plan.n,
            report.findings.len()
        ),
    }))
}

/// `bytes` as a multiple of the plan's input size `n·elem`.
fn input_multiple(plan: &Plan, bytes: u64) -> f64 {
    bytes as f64 / (plan.n as u64 * plan.config.elem_bytes.bytes()) as f64
}

/// Analyze every shipped configuration: all approaches × pair
/// strategies × both platforms, at paper-scale geometry. A plan whose
/// modelled peak host bytes exceed the any-order host bound is a
/// finding too.
fn analyze_matrix(w: &mut impl Write) -> Result<(), CliError> {
    let mut total = 0usize;
    let mut dirty = 0usize;
    for platform in [platform1(), platform2()] {
        for approach in [
            Approach::BLine,
            Approach::BLineMulti,
            Approach::PipeData,
            Approach::PipeMerge,
        ] {
            let strategies: &[PairStrategy] = if approach == Approach::PipeMerge {
                &[
                    PairStrategy::PaperHeuristic,
                    PairStrategy::Online,
                    PairStrategy::MergeTree,
                ]
            } else {
                &[PairStrategy::PaperHeuristic]
            };
            for &strategy in strategies {
                let cfg = HetSortConfig::paper_defaults(platform.clone(), approach)
                    .with_pair_strategy(strategy);
                // BLine is single-batch by definition; the rest get a
                // paper-scale multi-batch input.
                let n = if approach == Approach::BLine {
                    cfg.batch_elems
                } else {
                    2_000_000_000
                };
                let plan = Plan::build(cfg, n)?;
                let report = analyze_plan(&plan);
                let (peak, bound) = (host_peak_bytes(&plan), host_bound_bytes(&plan));
                total += 1;
                let mut problems = Vec::new();
                if !report.is_clean() {
                    problems.push(format!("{} finding(s)", report.findings.len()));
                }
                if peak > bound {
                    problems.push(format!("peak host bytes {peak} above the bound {bound}"));
                }
                let verdict = if problems.is_empty() {
                    "clean".to_string()
                } else {
                    dirty += 1;
                    problems.join(", ")
                };
                writeln!(
                    w,
                    "{:<10} {:<11} {:<15} n={:<12} steps={:<6} host={:.2}× {verdict}",
                    plan.config.platform.name,
                    approach.name(),
                    format!("{strategy:?}"),
                    n,
                    plan.steps.len(),
                    input_multiple(&plan, peak)
                )?;
                if !report.is_clean() {
                    write!(w, "{report}")?;
                }
            }
        }
    }
    if dirty > 0 {
        return Err(CliError::Run(HetSortError::Plan {
            reason: format!("{dirty} of {total} shipped configurations have findings"),
        }));
    }
    writeln!(w, "all {total} shipped configurations analyze clean")?;
    Ok(())
}

/// What a run of explorations found. A model whose exploration hit the
/// op budget proves nothing about the interleavings it never reached,
/// so it fails the run exactly like one with findings.
#[derive(Default)]
struct ExploreTally {
    total: usize,
    with_findings: usize,
    truncated: Vec<String>,
}

impl ExploreTally {
    /// Print one exploration report line (and its findings) and tally it.
    fn record(
        &mut self,
        report: &hetsort::analyze::ExploreReport,
        w: &mut impl Write,
    ) -> io::Result<()> {
        writeln!(w, "{}", report.summary())?;
        self.total += 1;
        if !report.is_clean() {
            self.with_findings += 1;
            for f in &report.findings {
                writeln!(w, "  {f}")?;
            }
        }
        if report.truncated {
            self.truncated.push(report.model.clone());
        }
        Ok(())
    }

    /// The model count, or the exit-1 error unless every model was
    /// explored to the end and is clean.
    fn verdict(self) -> Result<usize, CliError> {
        let total = self.total;
        let mut reasons = Vec::new();
        if self.with_findings > 0 {
            reasons.push(format!(
                "{} of {total} explored model(s) have findings",
                self.with_findings
            ));
        }
        if !self.truncated.is_empty() {
            reasons.push(format!(
                "{} of {total} truncated at the op budget (raise --max-ops): {}",
                self.truncated.len(),
                self.truncated.join("; ")
            ));
        }
        if !reasons.is_empty() {
            return Err(CliError::Run(HetSortError::Plan {
                reason: format!("schedule-space exploration: {}", reasons.join(", and ")),
            }));
        }
        Ok(total)
    }
}

/// Model-check one configured plan: explore the shipped engine running
/// it in every node order and, when a fault spec schedules device
/// losses, at every loss alignment.
fn explore_one(plan: &Plan, ecfg: &ExploreConfig, w: &mut impl Write) -> Result<(), CliError> {
    let losses: Vec<usize> = plan
        .config
        .faults
        .as_ref()
        .map(|f| f.scheduled_losses())
        .unwrap_or_default();
    let mut tally = ExploreTally::default();
    let mut model = EngineModel::new(plan, &losses, EngineHooks::default());
    tally.record(&hetsort::analyze::explore(&mut model, ecfg), w)?;
    tally.verdict().map(|_| ())
}

/// Model-check the shipped matrix at small exhaustive geometry, under
/// both staging protocols: the shipped engine running every approach
/// (PIPEMERGE with and without --par-memcpy) on both platforms and
/// under single- and double-loss schedules, and the admission state
/// machine's scenarios.
fn explore_matrix(ecfg: &ExploreConfig, w: &mut impl Write) -> Result<(), CliError> {
    let mut tally = ExploreTally::default();
    writeln!(
        w,
        "model-checking the schedule space (small exhaustive geometry):"
    )?;
    for staging in [StagingMode::DoubleBuffered, StagingMode::Paper] {
        for platform in [platform1(), platform2()] {
            let base = |a| {
                HetSortConfig::paper_defaults(platform.clone(), a)
                    .with_batch_elems(1000)
                    .with_pinned_elems(500)
                    .with_staging(staging)
            };
            let shapes = [
                (base(Approach::BLine), 700),
                (base(Approach::BLineMulti), 2500),
                (base(Approach::PipeData), 2500),
                (base(Approach::PipeMerge), 2500),
                (base(Approach::PipeMerge).with_par_memcpy(), 2500),
            ];
            for (cfg, n) in shapes {
                let mut model =
                    EngineModel::new(&Plan::build(cfg, n)?, &[], EngineHooks::default());
                tally.record(&hetsort::analyze::explore(&mut model, ecfg), w)?;
            }
            if platform.n_gpus() < 2 {
                continue;
            }
            // The shipped engine: PIPEMERGE on PLATFORM2 racing a single
            // loss of either GPU and the lose-everything schedule.
            let plan = Plan::build(base(Approach::PipeMerge), 4500)?;
            for faults in [vec![0], vec![1], vec![1, 0]] {
                let mut model = EngineModel::new(&plan, &faults, EngineHooks::default());
                tally.record(&hetsort::analyze::explore(&mut model, ecfg), w)?;
            }
        }
    }
    // The shipped admission controller under its scenarios (equal-job
    // churn, lose→join displacement).
    for scenario in clean_scenarios() {
        let mut model = AdmissionModel::new(scenario);
        tally.record(&hetsort::analyze::explore(&mut model, ecfg), w)?;
    }
    let total = tally.verdict()?;
    writeln!(w, "all {total} explored models are clean")?;
    Ok(())
}

fn utilization_line(tl: &hetsort::sim::Timeline) -> String {
    tl.fluids()
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{name} {:.0}%", 100.0 * tl.utilization(i)))
        .collect::<Vec<_>>()
        .join(", ")
}
