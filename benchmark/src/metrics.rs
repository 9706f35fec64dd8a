//! A measured value under its `BENCHMARK.json` name. The contract file
//! is the one list of names and units: a run fails if it measured a
//! name the file does not list, or did not measure one it lists.

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Per-layer metrics that are counts made by the program, not times:
/// the same seed must reproduce them bit for bit, on any machine.
pub const EXACT: &[&str] = &[
    "core.dag_nodes",
    "sim.model_total_s",
    "sim.timeline_spans",
    "serve.completed",
    "serve.shed",
    "serve.coalesced",
    "serve.admission_decisions",
    "serve.makespan_s",
];
