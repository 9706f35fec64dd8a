//! Timing reports: the paper's end-to-end accounting, both ways.
//!
//! §IV-E's central finding is that the literature (\[5\]) computes
//! "end-to-end" time from only `HtoD + GPUSort + DtoH (+ merge)`,
//! omitting pinned allocation, host staging copies, and per-copy
//! synchronization. A [`TimingReport`] therefore carries both totals:
//!
//! * [`TimingReport::total_s`] — the honest wall clock (simulation
//!   makespan, every overhead included);
//! * [`TimingReport::literature_total_s`] — the literature's method:
//!   the sum of the included components' *pure service* time.

use std::collections::BTreeMap;

use hetsort_obs::{MetricsRegistry, ObsSpan};
use hetsort_sim::{OpId, Timeline};
use hetsort_vgpu::tags;

/// What the executor had to do to survive faults during a functional
/// run (all zeros on a fault-free run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Faults the schedule actually injected (tripped sites + panics).
    pub faults_injected: usize,
    /// DMA transfer retry attempts performed.
    pub retries: usize,
    /// Batches sorted host-side because the GPU path was unrecoverable
    /// (exhausted retries, sort failure, or a dead worker).
    pub degraded_batches: usize,
    /// Batches re-planned into device-sized sub-runs after a GPU OOM
    /// (GPU still sorts; the CPU merges the sub-runs).
    pub oom_replans: usize,
    /// Device-loss events observed (a GPU fell out of the pool).
    pub device_lost: usize,
    /// Whole-plan rebuilds onto surviving devices after a loss.
    pub replans: usize,
    /// Batches whose device-resident state died with a lost GPU and
    /// were re-sorted from the host-resident input checkpoint.
    pub batches_recomputed: usize,
    /// Bitmask of *which* physical GPUs were lost (bit `g` = GPU `g`).
    /// Several devices can die inside one checkpoint window, so a
    /// single "first lost" id would mis-attribute the event; the mask
    /// records every casualty.
    pub lost_gpu_mask: u64,
}

impl RecoveryStats {
    /// Anything non-zero?
    pub fn any(&self) -> bool {
        *self != RecoveryStats::default()
    }

    /// Record a lost physical GPU id in the mask (ids ≥ 64 saturate
    /// into the top bit rather than wrapping onto GPU 0).
    pub fn record_lost_gpu(&mut self, gpu: usize) {
        self.lost_gpu_mask |= 1u64 << gpu.min(63);
    }

    /// The lost physical GPU ids, in ascending order.
    pub fn lost_gpus(&self) -> Vec<usize> {
        (0..64)
            .filter(|g| self.lost_gpu_mask & (1 << g) != 0)
            .collect()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "faults injected: {}, retries: {}, degraded batches: {}, OOM re-plans: {}, \
             devices lost: {} {:?}, re-plans: {}, batches recomputed: {}",
            self.faults_injected,
            self.retries,
            self.degraded_batches,
            self.oom_replans,
            self.device_lost,
            self.lost_gpus(),
            self.replans,
            self.batches_recomputed
        )
    }

    /// Surface the stats as `recovery.*` counters in a metrics registry,
    /// so fault-injection runs are observable in every export path.
    pub fn fold_into(&self, reg: &mut MetricsRegistry) {
        reg.add_counter("recovery.faults_injected", self.faults_injected as f64);
        reg.add_counter("recovery.retries", self.retries as f64);
        reg.add_counter("recovery.degraded_batches", self.degraded_batches as f64);
        reg.add_counter("recovery.oom_replans", self.oom_replans as f64);
        reg.add_counter("recovery.device_lost", self.device_lost as f64);
        reg.add_counter("recovery.replans", self.replans as f64);
        reg.add_counter(
            "recovery.batches_recomputed",
            self.batches_recomputed as f64,
        );
        reg.add_counter("recovery.lost_gpu_mask", self.lost_gpu_mask as f64);
    }
}

/// Component breakdown and totals for one simulated run.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Approach name.
    pub approach: String,
    /// Platform name.
    pub platform: String,
    /// Input size (elements).
    pub n: usize,
    /// Number of batches.
    pub nb: usize,
    /// Full end-to-end response time (simulation makespan), seconds.
    pub total_s: f64,
    /// The literature's end-to-end method: included components only.
    pub literature_total_s: f64,
    /// Busy seconds per component tag (sum of span durations; overlap
    /// counts multiply — this is "component time" as papers report it).
    pub components: BTreeMap<String, f64>,
    /// Total async-copy synchronization latency (inside HtoD/DtoH spans).
    pub sync_s: f64,
    /// Total kernel-launch latency (inside GPUSort spans).
    pub launch_s: f64,
    /// The timeline, for Gantt rendering and further analysis.
    pub timeline: Timeline,
    /// The span skeleton of every op the run reports, keyed by the op
    /// whose timeline span supplies its times and work: one per dag
    /// node ([`crate::dag::node_span`]) plus the node-less per-stream
    /// start-skew barriers. Empty for a report assembled from a bare
    /// timeline.
    pub op_spans: Vec<(OpId, ObsSpan)>,
}

impl TimingReport {
    /// Assemble a report from a finished timeline.
    pub fn from_timeline(
        approach: &str,
        platform: &str,
        n: usize,
        nb: usize,
        sync_s: f64,
        launch_s: f64,
        timeline: Timeline,
    ) -> Self {
        let mut components = BTreeMap::new();
        for (tag, name) in timeline.tags() {
            let t = timeline.busy_time(tag);
            if t > 0.0 {
                components.insert(name.to_string(), t);
            }
        }
        // Literature accounting: pure transfer + sort + merge service
        // time (their embedded sync/launch latencies removed — the
        // literature's numbers are DMA/kernel time proper).
        let mut lit = 0.0;
        for &name in tags::LITERATURE_COMPONENTS {
            if let Some(&t) = components.get(name) {
                lit += t;
            }
        }
        lit -= sync_s + launch_s;
        let total_s = timeline.makespan();
        TimingReport {
            approach: approach.to_string(),
            platform: platform.to_string(),
            n,
            nb,
            total_s,
            literature_total_s: lit.max(0.0),
            components,
            sync_s,
            launch_s,
            timeline,
            op_spans: Vec::new(),
        }
    }

    /// Busy time of one component, or `None` when the tag never
    /// appeared in the run. Absence is surfaced rather than folded to
    /// `0.0` so a typo'd span name in a gate scenario or golden-shape
    /// test cannot pass vacuously — callers that genuinely treat a
    /// missing component as zero (CSV columns) opt in with
    /// `unwrap_or(0.0)`.
    pub fn component(&self, name: &str) -> Option<f64> {
        self.components.get(name).copied()
    }

    /// The run as a structured metrics registry: each of
    /// [`TimingReport::op_spans`] with its op's simulated times and
    /// work, and the embedded sync/launch latencies as counters.
    pub fn metrics(&self) -> MetricsRegistry {
        let spans = self.op_spans.iter().map(|(op, skeleton)| {
            let s = self.timeline.span(*op);
            ObsSpan {
                bytes: s.work,
                t_start: s.t_start,
                t_end: s.t_end,
                ..skeleton.clone()
            }
        });
        let mut reg = MetricsRegistry::from_spans(spans.collect());
        reg.add_counter("sim.sync_s", self.sync_s);
        reg.add_counter("sim.launch_s", self.launch_s);
        reg
    }

    /// The overhead the literature omits: full total minus what their
    /// accounting would report (≥ 0 for serial pipelines; may be
    /// negative under overlap, where busy-sums over-count).
    pub fn missing_overhead_s(&self) -> f64 {
        self.total_s - self.literature_total_s
    }

    /// Render a human-readable component table.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} on {} (n={}, n_b={}): total {:.3} s  (literature method: {:.3} s)\n",
            self.approach, self.platform, self.n, self.nb, self.total_s, self.literature_total_s
        );
        for (name, t) in &self.components {
            s.push_str(&format!("  {name:<14} {t:>10.4} s\n"));
        }
        s.push_str(&format!(
            "  {:<14} {:>10.4} s\n  {:<14} {:>10.4} s\n",
            "(sync)", self.sync_s, "(launch)", self.launch_s
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsort_sim::{Op, SimBuilder};

    fn sample_report() -> TimingReport {
        let mut sim = SimBuilder::new();
        let htod = sim.tag(tags::HTOD);
        let sort = sim.tag(tags::GPU_SORT);
        let mcpy = sim.tag(tags::MCPY_IN);
        let a = sim.op(Op::new(mcpy, 10.0).cap(10.0));
        let b = sim.op(Op::new(htod, 10.0).cap(5.0).dep(a));
        let _c = sim.op(Op::new(sort, 10.0).cap(10.0).dep(b));
        let tl = sim.run().unwrap();
        TimingReport::from_timeline("BLine", "PLATFORM1", 10, 1, 0.0, 0.0, tl)
    }

    #[test]
    fn totals_and_components() {
        let r = sample_report();
        assert!((r.total_s - 4.0).abs() < 1e-9);
        // Literature counts HtoD (2 s) + GPUSort (1 s) but not MCpyIn.
        assert!((r.literature_total_s - 3.0).abs() < 1e-9);
        assert!((r.missing_overhead_s() - 1.0).abs() < 1e-9);
        assert!((r.component(tags::MCPY_IN).expect("MCpyIn ran") - 1.0).abs() < 1e-9);
        // Unknown components are a None, not a vacuous 0.0.
        assert_eq!(r.component("Nope"), None);
    }

    #[test]
    fn recovery_stats_record_every_lost_gpu() {
        let mut r = RecoveryStats::default();
        assert!(!r.any());
        r.record_lost_gpu(1);
        r.record_lost_gpu(3);
        assert_eq!(r.lost_gpu_mask, 0b1010);
        assert_eq!(r.lost_gpus(), vec![1, 3]);
        assert!(r.any());
        assert!(r.summary().contains("[1, 3]"));
        // Absurd ids saturate instead of wrapping onto GPU 0.
        r.record_lost_gpu(200);
        assert_eq!(r.lost_gpus(), vec![1, 3, 63]);
    }

    #[test]
    fn summary_mentions_components() {
        let r = sample_report();
        let s = r.summary();
        assert!(s.contains("HtoD"));
        assert!(s.contains("total 4.000 s"));
    }

    #[test]
    fn sync_subtracted_from_literature() {
        let mut sim = SimBuilder::new();
        let htod = sim.tag(tags::HTOD);
        sim.op(Op::new(htod, 10.0).cap(10.0).latency(0.5));
        let tl = sim.run().unwrap();
        let r = TimingReport::from_timeline("X", "P", 1, 1, 0.5, 0.0, tl);
        // Span is 1.5 s but the pure transfer is 1.0 s.
        assert!((r.literature_total_s - 1.0).abs() < 1e-9);
        assert!((r.total_s - 1.5).abs() < 1e-9);
    }
}
