//! Timing reports: what a simulated run did, and recovery statistics.
//!
//! §IV-E's central finding is that the literature (\[5\]) computes
//! "end-to-end" time from only `HtoD + GPUSort + DtoH (+ merge)`,
//! omitting pinned allocation, host staging copies, and per-copy
//! synchronization. A [`TimingReport`] keeps the honest wall clock
//! ([`TimingReport::total_s`], the simulation makespan) and the spans
//! of the run; [`TimingReport::metrics`] hands them to the one
//! accounting, [`MetricsRegistry`], which computes the per-class
//! components, the literature's total and the overhead it misses.

use hetsort_obs::{MetricsRegistry, ObsSpan, Totals};
use hetsort_sim::{OpId, Timeline};

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
    /// Total async-copy synchronization latency (inside HtoD/DtoH spans).
    pub sync_s: f64,
    /// Total kernel-launch latency (inside GPUSort spans).
    pub launch_s: f64,
    /// The timeline, for Gantt rendering and further analysis.
    pub timeline: Timeline,
    /// The span skeleton of every op the run reports, keyed by the op
    /// whose timeline span supplies its times and work: one per dag
    /// node ([`crate::dag::node_span`]) plus the node-less per-stream
    /// start-skew barriers.
    pub op_spans: Vec<(OpId, ObsSpan)>,
}

impl TimingReport {
    /// Each of [`TimingReport::op_spans`] with its op's simulated times
    /// and work, by value: the one place a skeleton is cloned.
    pub fn spans(&self) -> impl Iterator<Item = ObsSpan> + '_ {
        self.op_spans.iter().map(|(op, skeleton)| {
            let s = self.timeline.span(*op);
            ObsSpan {
                bytes: s.work,
                t_start: s.t_start,
                t_end: s.t_end,
                ..skeleton.clone()
            }
        })
    }

    /// The run as a structured metrics registry: its
    /// [`spans`](TimingReport::spans), and the embedded sync/launch
    /// latencies as counters.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::from_spans(self.spans().collect());
        reg.add_counter("sim.sync_s", self.sync_s);
        reg.add_counter("sim.launch_s", self.launch_s);
        reg
    }

    /// Render a human-readable component table from the totals `t` of
    /// this run's [`metrics`](TimingReport::metrics): per-class busy
    /// seconds, the literature total and missing overhead, and the
    /// latency the simulator embeds in transfer and sort spans.
    pub fn summary(&self, t: &Totals) -> String {
        let mut s = format!(
            "{} on {} (n={}, n_b={}): total {:.3} s  (literature method: {:.3} s, \
             missing overhead: {:.3} s)\n",
            self.approach,
            self.platform,
            self.n,
            self.nb,
            self.total_s,
            t.literature_total_s(),
            t.missing_overhead_s()
        );
        for (class, st) in t.present() {
            s.push_str(&format!("  {:<14} {:>10.4} s\n", class.name(), st.busy_s));
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
    use hetsort_obs::OpClass;
    use hetsort_sim::{Op, SimBuilder};
    use hetsort_vgpu::tags;

    /// Stage in, transfer (with `latency` folded in), sort: one op each.
    fn sample_report(latency: f64) -> TimingReport {
        let mut sim = SimBuilder::new();
        let htod = sim.tag(tags::HTOD);
        let sort = sim.tag(tags::GPU_SORT);
        let mcpy = sim.tag(tags::MCPY_IN);
        let a = sim.op(Op::new(mcpy, 10.0).cap(10.0));
        let b = sim.op(Op::new(htod, 10.0).cap(5.0).latency(latency).dep(a));
        let c = sim.op(Op::new(sort, 10.0).cap(10.0).dep(b));
        let timeline = sim.run().unwrap();
        TimingReport {
            approach: "BLine".into(),
            platform: "PLATFORM1".into(),
            n: 10,
            nb: 1,
            total_s: timeline.makespan(),
            sync_s: latency,
            launch_s: 0.0,
            timeline,
            op_spans: [a, b, c]
                .into_iter()
                .zip([OpClass::StagingCopy, OpClass::HtoD, OpClass::GpuSort])
                .map(|(op, class)| (op, ObsSpan::new(class, 0.0, 0.0)))
                .collect(),
        }
    }

    #[test]
    fn totals_and_components() {
        let r = sample_report(0.0);
        assert!((r.total_s - 4.0).abs() < 1e-9);
        let reg = r.metrics();
        // Literature counts HtoD (2 s) + GPUSort (1 s) but not the
        // staging copy.
        assert!((reg.literature_total_s() - 3.0).abs() < 1e-9);
        assert!((reg.missing_overhead_s() - 1.0).abs() < 1e-9);
        let staging = reg.class_stats(OpClass::StagingCopy);
        assert_eq!(staging.count, 1);
        assert!((staging.busy_s - 1.0).abs() < 1e-9);
        // A class the run never issued has no spans, not a vacuous 0.0.
        assert_eq!(reg.class_stats(OpClass::PairMerge).count, 0);
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
        let r = sample_report(0.0);
        let s = r.summary(&r.metrics().totals());
        assert!(s.contains("HtoD"), "{s}");
        assert!(s.contains("StagingCopy"), "{s}");
        assert!(
            s.contains("total 4.000 s  (literature method: 3.000 s, missing overhead: 1.000 s)"),
            "{s}"
        );
    }

    #[test]
    fn sync_subtracted_from_literature() {
        let r = sample_report(0.5);
        let reg = r.metrics();
        // The HtoD span is 2.5 s but the pure transfer is 2.0 s.
        assert!((reg.class_stats(OpClass::HtoD).busy_s - 2.5).abs() < 1e-9);
        assert!((reg.literature_total_s() - 3.0).abs() < 1e-9);
        assert!((r.total_s - 4.5).abs() < 1e-9);
        assert!((reg.missing_overhead_s() - 1.5).abs() < 1e-9);
    }
}
