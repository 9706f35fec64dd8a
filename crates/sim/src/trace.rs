//! Timeline: the complete record of a finished simulation.
//!
//! One span per op, fluid-resource utilization, and an ASCII Gantt
//! renderer used for the Figure 1–3 illustrations. Aggregating spans
//! into the paper's component accounting is not done here: callers map
//! ops to typed spans and hand them to `hetsort-obs`'s registry.

use crate::op::{OpId, OpTag};
use crate::resource::{LaneId, QueueId};

/// One executed op: when it started, when it ended, what it was.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The op this span records.
    pub op: OpId,
    /// Classification tag.
    pub tag: OpTag,
    /// Display lane, if assigned.
    pub lane: Option<LaneId>,
    /// Queue (stream), if assigned.
    pub queue: Option<QueueId>,
    /// User correlation key.
    pub user_key: u64,
    /// Work units performed.
    pub work: f64,
    /// Admission time (seconds).
    pub t_start: f64,
    /// Completion time (seconds).
    pub t_end: f64,
}

impl Span {
    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.t_end - self.t_start
    }
}

/// Work the event loop did, as exact counts: equal dags give equal
/// counts on every machine, so cost per event can be gated without a
/// clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events processed (iterations of the event loop).
    pub events: u64,
    /// Fair-share solves (one per event that reached the solver).
    pub rate_solves: u64,
    /// Running and in-latency ops visited, summed over events.
    pub active_visits: u64,
    /// Ready ops examined by admission, summed over admission passes.
    pub admit_visits: u64,
}

/// Complete result of a simulation run.
#[derive(Debug, Clone)]
pub struct Timeline {
    spans: Vec<Span>,
    tag_names: Vec<String>,
    lane_names: Vec<String>,
    makespan: f64,
    /// `(name, capacity)` of every fluid resource.
    fluid_info: Vec<(String, f64)>,
    /// Start time of each piecewise-constant usage segment.
    usage_starts: Vec<f64>,
    /// Usage per fluid in each segment: segment `i`, fluid `r` at
    /// `i * fluid_info.len() + r`.
    usage: Vec<f64>,
    stats: SimStats,
}

impl Timeline {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        spans: Vec<Span>,
        tag_names: Vec<String>,
        lane_names: Vec<String>,
        makespan: f64,
        fluid_info: Vec<(String, f64)>,
        usage_starts: Vec<f64>,
        usage: Vec<f64>,
        stats: SimStats,
    ) -> Self {
        Timeline {
            spans,
            tag_names,
            lane_names,
            makespan,
            fluid_info,
            usage_starts,
            usage,
            stats,
        }
    }

    /// Event-loop work counts of the run that produced this timeline.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Names and capacities of the fluid resources.
    pub fn fluids(&self) -> &[(String, f64)] {
        &self.fluid_info
    }

    /// Usage of `fluid` in every segment, in time order.
    fn usage_of(&self, fluid: usize) -> impl Iterator<Item = f64> + '_ {
        self.usage
            .iter()
            .skip(fluid)
            .step_by(self.fluid_info.len())
            .copied()
    }

    /// Time-averaged utilization of a fluid resource over the whole run,
    /// as a fraction of its capacity in `[0, 1]`.
    pub fn utilization(&self, fluid: usize) -> f64 {
        let cap = self.fluid_info[fluid].1;
        if cap <= 0.0 || self.makespan <= 0.0 {
            return 0.0;
        }
        let mut weighted = 0.0;
        for (i, (t0, usage)) in self
            .usage_starts
            .iter()
            .zip(self.usage_of(fluid))
            .enumerate()
        {
            let t1 = self
                .usage_starts
                .get(i + 1)
                .copied()
                .unwrap_or(self.makespan);
            weighted += usage * (t1 - t0).max(0.0);
        }
        weighted / (cap * self.makespan)
    }

    /// Peak instantaneous usage of a fluid as a fraction of capacity.
    pub fn peak_utilization(&self, fluid: usize) -> f64 {
        let cap = self.fluid_info[fluid].1;
        if cap <= 0.0 {
            return 0.0;
        }
        self.usage_of(fluid).fold(0.0f64, f64::max) / cap
    }

    /// Total simulated wall-clock (time of the last completion).
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// All spans, indexed by op id.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span of a specific op.
    pub fn span(&self, op: OpId) -> &Span {
        &self.spans[op.0]
    }

    /// Name of a tag.
    pub fn tag_name(&self, tag: OpTag) -> &str {
        &self.tag_names[tag.0 as usize]
    }

    /// Render an ASCII Gantt chart, one row per lane, `width` columns.
    ///
    /// Each op is drawn with the first letter of its tag; overlapping ops
    /// within one lane are drawn left-to-right by start time (later spans
    /// overwrite). Lanes without any span are omitted.
    pub fn gantt(&self, width: usize) -> String {
        if self.makespan <= 0.0 || width == 0 {
            return String::new();
        }
        let label_w = self
            .lane_names
            .iter()
            .map(|n| n.len())
            .max()
            .unwrap_or(0)
            .max(4);
        let scale = width as f64 / self.makespan;
        let mut out = String::new();
        for (lane_idx, lane_name) in self.lane_names.iter().enumerate() {
            let mut row = vec![b'.'; width];
            let mut any = false;
            let mut lane_spans: Vec<&Span> = self
                .spans
                .iter()
                .filter(|s| s.lane == Some(LaneId(lane_idx)))
                .collect();
            lane_spans.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
            for s in lane_spans {
                any = true;
                let c0 = ((s.t_start * scale) as usize).min(width - 1);
                let c1 = ((s.t_end * scale).ceil() as usize).clamp(c0 + 1, width);
                let ch = self.tag_name(s.tag).bytes().next().unwrap_or(b'#');
                for cell in &mut row[c0..c1] {
                    *cell = ch;
                }
            }
            if any {
                out.push_str(&format!(
                    "{lane_name:>label_w$} |{}|\n",
                    String::from_utf8_lossy(&row)
                ));
            }
        }
        out.push_str(&format!(
            "{:>label_w$}  0{}{:.3}s\n",
            "t",
            " ".repeat(width.saturating_sub(8)),
            self.makespan
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimBuilder;
    use crate::op::Op;

    fn two_op_timeline() -> (Timeline, OpId, OpId) {
        let mut sim = SimBuilder::new();
        let tag_a = sim.tag("alpha");
        let tag_b = sim.tag("beta");
        let lane = sim.lane("L0");
        let a = sim.op(Op::new(tag_a, 10.0).cap(10.0).lane(lane));
        let b = sim.op(Op::new(tag_b, 10.0).cap(5.0).lane(lane).dep(a));
        (sim.run().unwrap(), a, b)
    }

    #[test]
    fn gantt_renders_lanes() {
        let (tl, _, _) = two_op_timeline();
        let g = tl.gantt(30);
        assert!(g.contains("L0"), "{g}");
        assert!(g.contains('a'), "{g}"); // alpha
        assert!(g.contains('b'), "{g}"); // beta
    }

    #[test]
    fn gantt_empty_timeline_is_empty() {
        let sim = SimBuilder::new();
        let tl = sim.run().unwrap();
        assert!(tl.gantt(40).is_empty());
    }

    #[test]
    fn utilization_full_and_half() {
        // One op saturating a fluid for the whole run → utilization 1.
        let mut sim = SimBuilder::new();
        let link = sim.fluid("l", 10.0);
        let tag = sim.tag("x");
        sim.op(Op::new(tag, 20.0).demand(link, 1.0));
        let tl = sim.run().unwrap();
        let f = 0; // the only fluid
        assert!(
            (tl.utilization(f) - 1.0).abs() < 1e-9,
            "{}",
            tl.utilization(f)
        );
        assert!((tl.peak_utilization(f) - 1.0).abs() < 1e-9);

        // Capped op using half the capacity → utilization 0.5.
        let mut sim = SimBuilder::new();
        let link = sim.fluid("l", 10.0);
        let tag = sim.tag("x");
        sim.op(Op::new(tag, 10.0).cap(5.0).demand(link, 1.0));
        let tl = sim.run().unwrap();
        let f = 0; // the only fluid
        assert!((tl.utilization(f) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn utilization_averages_over_phases() {
        // Phase 1: two ops (full). Phase 2: one op capped at half.
        // a: work 10 at 5/s (cap). b: work 5 at 5/s → done at t=1.
        // After t=1, a continues alone at 5/s until t=2.
        // Usage: [0,1): 10/10; [1,2): 5/10 → avg 0.75.
        let mut sim = SimBuilder::new();
        let link = sim.fluid("l", 10.0);
        let tag = sim.tag("x");
        sim.op(Op::new(tag, 10.0).cap(5.0).demand(link, 1.0));
        sim.op(Op::new(tag, 5.0).cap(5.0).demand(link, 1.0));
        let tl = sim.run().unwrap();
        let f = 0; // the only fluid
        assert!(
            (tl.utilization(f) - 0.75).abs() < 1e-6,
            "{}",
            tl.utilization(f)
        );
    }

    #[test]
    fn span_accessors() {
        let (tl, a, b) = two_op_timeline();
        assert_eq!(tl.span(a).op, a);
        assert!((tl.span(b).duration() - 2.0).abs() < 1e-9);
        assert_eq!(tl.spans().len(), 2);
        assert_eq!(tl.tag_name(tl.span(a).tag), "alpha");
        assert_eq!(tl.tag_name(tl.span(b).tag), "beta");
    }
}
