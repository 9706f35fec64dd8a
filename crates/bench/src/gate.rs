//! The pinned scenario matrix behind the root `BENCH.json`.
//!
//! The matrix replays every paper approach on both platforms at fixed
//! sizes through the *simulated* executor — deterministic, so a result
//! moves only when someone changes the cost model, the planner, or the
//! simulator itself. [`run_matrix`] renders it as the `BENCH.json`
//! document, a pure function of the tree (no clock, no environment);
//! the registry's `bench` entry writes it and `tests/golden_results.rs`
//! compares it with the committed file byte for byte, like every other
//! deterministic artefact. There is no tolerance band: after an
//! intended model change, regenerate (`experiments all`), bump
//! [`GENERATED`], and say why in the PR.
//!
//! The document (schema version 1; object keys print sorted):
//!
//! ```json
//! {
//!   "generated": "YYYY-MM-DD",
//!   "scenarios": [
//!     {
//!       "id": "p1/pipedata/n2e9",
//!       "platform": "p1",
//!       "approach": "PIPEDATA",
//!       "n": 2000000000,
//!       "nb": 16,
//!       "total_s": 12.34,
//!       "literature_total_s": 10.1,
//!       "overlap_ratio": 0.42,
//!       "bus_util": 0.61,
//!       "components": {"HtoD": 1.2, "GPUSort": 3.4, ...},
//!       "counters": {"recovery.retries": 0, ...}
//!     }
//!   ],
//!   "schema": "hetsort-bench",
//!   "version": 1
//! }
//! ```

use std::collections::BTreeMap;

use hetsort_core::exec_sim::simulate_plan;
use hetsort_core::{Approach, HetSortConfig, HetSortError, Plan};
use hetsort_obs::{Json, Totals};
use hetsort_serve::{synthetic_jobs, ServeBudget, ServeConfig, SortService, MIX_COALESCE_ELEMS};
use hetsort_vgpu::{platform1, platform2, PlatformSpec};

/// `generated` of the document: the date `BENCH.json` was last
/// refrozen, bumped by hand in the PR that moves a number on purpose.
pub const GENERATED: &str = "2026-10-19";

/// Paper-scale input for the multi-batch scenarios (§IV: 2×10⁹ keys).
pub const PAPER_N: usize = 2_000_000_000;

/// Job count of the pinned serve-throughput scenario.
pub const SERVE_JOBS: usize = 150;

/// Mix seed of the pinned serve-throughput scenario.
pub const SERVE_SEED: u64 = 42;

/// How a scenario executes.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioKind {
    /// One configuration through the simulated executor.
    Simulated,
    /// The multi-tenant service over the deterministic synthetic mix;
    /// `total_s` is the virtual makespan (all durations sim-backed, so
    /// `BENCH.json` pins service throughput exactly like any other run).
    Serve {
        /// Jobs in the mix.
        jobs: usize,
        /// Mix seed.
        seed: u64,
    },
}

/// Measured result of one pinned scenario: one element of the
/// document's `scenarios`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Stable identifier, e.g. `"p1/pipedata/n2e9"`.
    pub id: String,
    /// Platform name (`p1`/`p2`).
    pub platform: String,
    /// Approach label (`BLINE`, `PIPEDATA`, `PARMEMCPY`, ...).
    pub approach: String,
    /// Elements sorted.
    pub n: u64,
    /// Batch count.
    pub nb: u64,
    /// Full end-to-end seconds.
    pub total_s: f64,
    /// The literature's accounting for the same run.
    pub literature_total_s: f64,
    /// Overlap ratio in `[0, 1]`.
    pub overlap_ratio: f64,
    /// Bus utilization in `[0, 1]`.
    pub bus_util: f64,
    /// Per-component busy seconds, keyed by op-class name.
    pub components: BTreeMap<String, f64>,
    /// Named counters (recovery stats etc.).
    pub counters: BTreeMap<String, f64>,
}

impl ScenarioResult {
    fn to_json(&self) -> Json {
        let map = |m: &BTreeMap<String, f64>| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::n(*v))).collect())
        };
        Json::obj(vec![
            ("id", Json::s(self.id.clone())),
            ("platform", Json::s(self.platform.clone())),
            ("approach", Json::s(self.approach.clone())),
            ("n", Json::n(self.n as f64)),
            ("nb", Json::n(self.nb as f64)),
            ("total_s", Json::n(self.total_s)),
            ("literature_total_s", Json::n(self.literature_total_s)),
            ("overlap_ratio", Json::n(self.overlap_ratio)),
            ("bus_util", Json::n(self.bus_util)),
            ("components", map(&self.components)),
            ("counters", map(&self.counters)),
        ])
    }
}

/// One pinned scenario: a fully determined simulated run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable id, e.g. `"p1/pipedata/n2e9"` — its key in the document.
    pub id: String,
    /// Short platform key (`p1`/`p2`).
    pub platform_key: &'static str,
    /// Approach label as the paper spells it (`PIPEDATA`, `PARMEMCPY`...).
    pub label: &'static str,
    /// The full run configuration (for `Serve`, the platform carrier —
    /// the mix builds its own per-job configs).
    pub config: HetSortConfig,
    /// Input size in elements (for `Serve`, total elements submitted).
    pub n: usize,
    /// Execution mode.
    pub kind: ScenarioKind,
}

fn scenario(
    platform_key: &'static str,
    platform: &PlatformSpec,
    label: &'static str,
    approach: Approach,
    par_memcpy: bool,
    n: Option<usize>,
) -> Scenario {
    let mut config = HetSortConfig::paper_defaults(platform.clone(), approach);
    if par_memcpy {
        config = config.with_par_memcpy();
    }
    // BLINE is single-batch by definition: its input is one full batch.
    let n = n.unwrap_or(config.batch_elems);
    let ntag = if n == PAPER_N {
        "n2e9".to_string()
    } else {
        format!("n{n}")
    };
    Scenario {
        id: format!("{platform_key}/{}/{ntag}", label.to_lowercase()),
        platform_key,
        label,
        config,
        n,
        kind: ScenarioKind::Simulated,
    }
}

/// The serve-throughput scenario: the whole synthetic mix through the
/// admission-controlled service on platform 1.
fn serve_scenario() -> Scenario {
    let platform = platform1();
    let jobs = synthetic_jobs(&platform, SERVE_JOBS, SERVE_SEED);
    let n: usize = jobs.iter().map(|j| j.data.len()).sum();
    Scenario {
        id: format!("p1/serve/j{SERVE_JOBS}"),
        platform_key: "p1",
        label: "SERVE",
        config: HetSortConfig::paper_defaults(platform, Approach::PipeMerge),
        n,
        kind: ScenarioKind::Serve {
            jobs: SERVE_JOBS,
            seed: SERVE_SEED,
        },
    }
}

/// The service configuration the serve scenario pins (mirrors the `serve-sim`
/// CLI defaults).
pub fn serve_gate_config() -> ServeConfig {
    ServeConfig::new(ServeBudget::new(1.0e6, 1.0e6))
        .with_queue_cap(24)
        .with_coalescing(MIX_COALESCE_ELEMS)
}

/// The pinned matrix: all five approaches on both platforms.
///
/// BLINE runs at its single-batch maximum (`n = b_s`, which differs per
/// platform); everything multi-batch runs at the paper's 2×10⁹.
pub fn scenario_matrix() -> Vec<Scenario> {
    let mut out = Vec::new();
    for (key, platform) in [("p1", platform1()), ("p2", platform2())] {
        out.push(scenario(
            key,
            &platform,
            "BLINE",
            Approach::BLine,
            false,
            None,
        ));
        for (label, approach) in [
            ("BLINEMULTI", Approach::BLineMulti),
            ("PIPEDATA", Approach::PipeData),
            ("PIPEMERGE", Approach::PipeMerge),
        ] {
            out.push(scenario(
                key,
                &platform,
                label,
                approach,
                false,
                Some(PAPER_N),
            ));
        }
        // PARMEMCPY = PIPEMERGE + parallel host↔pinned staging copies.
        out.push(scenario(
            key,
            &platform,
            "PARMEMCPY",
            Approach::PipeMerge,
            true,
            Some(PAPER_N),
        ));
        // SKEWMERGE: ragged n — one element past a whole number of
        // batches leaves a single-element final batch, so the final
        // multiway merge sees maximally skewed list lengths (the
        // regression the self-scheduling runtime and skew-aware
        // partitioner guard against).
        let batch =
            HetSortConfig::paper_defaults(platform.clone(), Approach::PipeMerge).batch_elems;
        out.push(scenario(
            key,
            &platform,
            "SKEWMERGE",
            Approach::PipeMerge,
            false,
            Some((PAPER_N / batch) * batch + 1),
        ));
    }
    out.push(serve_scenario());
    out
}

/// Simulate one scenario and fold it into the document's shape.
pub fn run_scenario(s: &Scenario) -> Result<ScenarioResult, HetSortError> {
    if let ScenarioKind::Serve { jobs, seed } = s.kind {
        return run_serve_scenario(s, jobs, seed);
    }
    let plan = Plan::build(s.config.clone(), s.n)?;
    let report = simulate_plan(&plan)?;
    let reg = report.metrics();
    let t = reg.totals();
    Ok(ScenarioResult {
        id: s.id.clone(),
        platform: s.platform_key.to_string(),
        approach: s.label.to_string(),
        n: s.n as u64,
        nb: plan.nb() as u64,
        total_s: report.total_s,
        literature_total_s: t.literature_total_s(),
        overlap_ratio: t.overlap_ratio(),
        bus_util: t.bus_util(),
        components: busy_by_class(&t),
        counters: reg.counters().clone(),
    })
}

/// The document's `components`: busy seconds of every present class.
fn busy_by_class(t: &Totals) -> BTreeMap<String, f64> {
    t.present()
        .map(|(c, st)| (c.name().to_string(), st.busy_s))
        .collect()
}

/// Run the serve scenario: virtual makespan as `total_s`, completed
/// jobs as `nb`, service counters (completions, sheds, coalesces,
/// recoveries, bytes) pinned alongside.
fn run_serve_scenario(
    s: &Scenario,
    jobs: usize,
    seed: u64,
) -> Result<ScenarioResult, HetSortError> {
    let mix = synthetic_jobs(&s.config.platform, jobs, seed);
    let out = SortService::new(serve_gate_config()).run(mix);
    if let Some((id, e)) = out.failed.first() {
        return Err(HetSortError::Data {
            reason: format!("serve gate scenario: job {id} failed: {e}"),
        });
    }
    if let Some(bad) = out.completed.iter().find(|r| !r.verified) {
        return Err(HetSortError::Data {
            reason: format!("serve gate scenario: job {} unverified", bad.id),
        });
    }
    let reg = &out.metrics;
    let t = reg.totals();
    let mut counters = reg.counters().clone();
    counters.insert("makespan_jobs_completed".into(), out.completed.len() as f64);
    counters.insert("jobs_shed".into(), out.shed.len() as f64);
    counters.insert("admission_decisions".into(), out.admission_log.len() as f64);
    Ok(ScenarioResult {
        id: s.id.clone(),
        platform: s.platform_key.to_string(),
        approach: s.label.to_string(),
        n: s.n as u64,
        nb: out.completed.len() as u64,
        total_s: out.makespan_s,
        literature_total_s: out.makespan_s,
        overlap_ratio: t.overlap_ratio(),
        bus_util: t.bus_util(),
        components: busy_by_class(&t),
        counters,
    })
}

/// Run the whole matrix into the text of `BENCH.json` (pretty JSON,
/// scenarios in id order).
pub fn run_matrix() -> Result<String, HetSortError> {
    let mut results = scenario_matrix()
        .iter()
        .map(run_scenario)
        .collect::<Result<Vec<_>, _>>()?;
    results.sort_by(|a, b| a.id.cmp(&b.id));
    let doc = Json::obj(vec![
        ("schema", Json::s("hetsort-bench")),
        ("version", Json::n(1.0)),
        ("generated", Json::s(GENERATED)),
        (
            "scenarios",
            Json::Arr(results.iter().map(ScenarioResult::to_json).collect()),
        ),
    ]);
    Ok(doc.pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_thirteen_pinned_scenarios() {
        let m = scenario_matrix();
        assert_eq!(m.len(), 13);
        // Ids are unique and stable-keyed.
        let mut ids: Vec<&str> = m.iter().map(|s| s.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 13);
        assert!(m.iter().any(|s| s.id == "p1/pipedata/n2e9"));
        assert!(m.iter().any(|s| s.id == "p2/parmemcpy/n2e9"));
        assert_eq!(
            m.iter().filter(|s| s.label == "SKEWMERGE").count(),
            2,
            "one SKEWMERGE per platform"
        );
        // BLINE scenarios are single-batch.
        for s in m.iter().filter(|s| s.label == "BLINE") {
            assert_eq!(s.config.n_batches(s.n), 1, "{}", s.id);
        }
        // PARMEMCPY is PIPEMERGE with parallel staging.
        for s in m.iter().filter(|s| s.label == "PARMEMCPY") {
            assert_eq!(s.config.approach, Approach::PipeMerge);
            assert!(s.config.par_memcpy);
        }
        // SKEWMERGE scenarios carry a one-element final batch (maximal
        // length skew in the final multiway merge).
        for s in m.iter().filter(|s| s.label == "SKEWMERGE") {
            assert!(s.config.n_batches(s.n) > 1, "{}", s.id);
            assert_eq!(s.n % s.config.batch_elems, 1, "{}: final batch len", s.id);
        }
        // Exactly one serve-throughput scenario, on platform 1.
        let serve: Vec<&Scenario> = m.iter().filter(|s| s.label == "SERVE").collect();
        assert_eq!(serve.len(), 1);
        assert_eq!(serve[0].id, format!("p1/serve/j{SERVE_JOBS}"));
        assert_eq!(
            serve[0].kind,
            ScenarioKind::Serve {
                jobs: SERVE_JOBS,
                seed: SERVE_SEED
            }
        );
    }

    #[test]
    fn serve_scenario_runs_deterministically() {
        let m = scenario_matrix();
        let s = m.iter().find(|s| s.label == "SERVE").expect("serve pinned");
        let a = run_scenario(s).expect("serve run a");
        let b = run_scenario(s).expect("serve run b");
        assert_eq!(a, b, "service makespan must reproduce bitwise");
        assert!(a.total_s > 0.0);
        assert!(a.nb > 0, "some jobs must complete");
        assert!(a.counters.get("jobs_completed").copied().unwrap_or(0.0) > 0.0);
        assert!(
            a.counters.get("jobs_coalesced").copied().unwrap_or(0.0) > 0.0,
            "gate mix must exercise coalescing"
        );
        assert!((0.0..=1.0).contains(&a.overlap_ratio));
        assert!((0.0..=1.0).contains(&a.bus_util));
    }

    #[test]
    fn scenario_runs_and_its_ratios_are_in_range() {
        let m = scenario_matrix();
        let s = m
            .iter()
            .find(|s| s.id == "p1/pipemerge/n2e9")
            .expect("pinned id");
        let r = run_scenario(s).expect("simulated run");
        assert!(r.total_s > 0.0);
        // Double-buffered staging lets the piped schedules overlap the
        // host bounce with DMA, so the true end-to-end can undercut the
        // literature's *serial* HtoD+sort+DtoH sum — the subset is a
        // comparison figure, not a lower bound.
        assert!(r.literature_total_s > 0.0);
        assert!((0.0..=1.0).contains(&r.overlap_ratio));
        assert!((0.0..=1.0).contains(&r.bus_util));
        assert!(r.components.contains_key("GPUSort"), "{:?}", r.components);
        assert!(r.nb > 1);
    }

    #[test]
    fn staging_copy_tax_reduced_on_bline_scenarios() {
        // PR 10's headline claim: double-buffered pinned staging halves
        // the StagingCopy component on the blocking scenarios (the
        // outbound pinned bounce is elided — StageOut drains straight
        // from the transfer buffer). These are the frozen StagingCopy
        // seconds of the single-buffer baseline (BENCH.json before the
        // refreeze); the component must stay *strictly* below them.
        const BASELINE_BLINE_STAGING_S: f64 = 2.6430567975385784;
        const BASELINE_BLINEMULTI_STAGING_S: f64 = 4.923076923077294;
        let m = scenario_matrix();
        let staging = |id: &str| {
            let s = m.iter().find(|s| s.id == id).expect("pinned id");
            let r = run_scenario(s).expect("simulated run");
            (r.components["StagingCopy"], r.total_s)
        };
        let (sc, total) = staging("p1/bline/n1073741824");
        assert!(
            sc < BASELINE_BLINE_STAGING_S,
            "BLINE StagingCopy must stay below the single-buffer baseline: {sc}"
        );
        // Inbound-only staging is half the old two-way bounce.
        assert!(sc < BASELINE_BLINE_STAGING_S * 0.55, "{sc}");
        assert!(total < 4.65, "BLINE total must keep the win: {total}");
        let (sc, total) = staging("p1/blinemulti/n2e9");
        assert!(
            sc < BASELINE_BLINEMULTI_STAGING_S,
            "BLINEMULTI StagingCopy must stay below the single-buffer baseline: {sc}"
        );
        assert!(sc < BASELINE_BLINEMULTI_STAGING_S * 0.55, "{sc}");
        assert!(total < 10.41, "BLINEMULTI total must keep the win: {total}");
    }

    #[test]
    fn simulation_is_deterministic() {
        let m = scenario_matrix();
        let s = &m[0];
        let a = run_scenario(s).expect("run a");
        let b = run_scenario(s).expect("run b");
        assert_eq!(a, b, "same scenario must reproduce bitwise");
    }
}
