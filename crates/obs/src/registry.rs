//! The metrics registry: aggregate spans and counters into the
//! paper's accounting.
//!
//! The registry is the run's one accounting: per-class components, the
//! literature's total and the overhead it misses are computed here and
//! nowhere else. Aggregation is *permutation-invariant*: spans are put
//! into a canonical total order once, and every statistic is folded
//! from that one sequence ([`MetricsRegistry::totals`]), so merging
//! per-stream span logs in any order yields bit-identical totals
//! (floating-point addition happens in one fixed sequence). The
//! property tests in `tests/prop_metrics.rs` pin this down.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use crate::json::Json;
use crate::span::{ObsSpan, OpClass};

/// Aggregated statistics of one op class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassStats {
    /// Number of spans.
    pub count: usize,
    /// Sum of span durations (the paper's additive "component time";
    /// overlap counts multiply).
    pub busy_s: f64,
    /// Wall clock covered by at least one span of the class (union of
    /// intervals; the honest measure under overlap).
    pub union_s: f64,
    /// Total bytes / work units.
    pub bytes: f64,
}

/// Span + counter aggregator.
///
/// Producers [`record`](MetricsRegistry::record) spans and bump named
/// [`counters`](MetricsRegistry::counter); consumers read per-class
/// totals, the overlap ratio, bus utilization, and the
/// literature-vs-full accounting delta.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    spans: Vec<ObsSpan>,
    counters: BTreeMap<String, f64>,
}

/// Canonical total order on spans: time, class, placement, size, then
/// node, worker and free text.
fn span_cmp(a: &ObsSpan, b: &ObsSpan) -> Ordering {
    a.t_start
        .total_cmp(&b.t_start)
        .then(a.t_end.total_cmp(&b.t_end))
        .then(a.class.ord_key().cmp(&b.class.ord_key()))
        .then(a.stream.cmp(&b.stream))
        .then(a.gpu.cmp(&b.gpu))
        .then(a.batch.cmp(&b.batch))
        .then(a.job.cmp(&b.job))
        .then(a.bytes.total_cmp(&b.bytes))
        .then(a.node.cmp(&b.node))
        .then(a.worker.cmp(&b.worker))
        .then(a.text.cmp(&b.text))
}

/// Length of a union of intervals, fed in ascending start order.
/// Empty and inverted intervals (`end <= start`) add nothing.
#[derive(Debug, Clone, Copy, Default)]
struct Union {
    total: f64,
    cur: Option<(f64, f64)>,
}

impl Union {
    fn push(&mut self, s: f64, e: f64) {
        if e > s {
            self.cur = Some(match self.cur {
                None => (s, e),
                Some((cs, ce)) if s > ce => {
                    self.total += ce - cs;
                    (s, e)
                }
                Some((cs, ce)) => (cs, if e > ce { e } else { ce }),
            });
        }
    }

    fn length(&self) -> f64 {
        self.cur.map_or(0.0, |(cs, ce)| self.total + (ce - cs))
    }
}

/// Every aggregate of a registry, folded in one pass over its spans in
/// canonical order ([`MetricsRegistry::totals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// `(first start, last end)` over all spans; `None` when empty.
    pub window: Option<(f64, f64)>,
    /// Per-class statistics, in [`OpClass::ALL`] order
    /// ([`Totals::class`], [`Totals::present`]).
    classes: [ClassStats; OpClass::ALL.len()],
    /// Sum of all span durations (counts overlap multiply).
    pub busy_s: f64,
    /// Union of all spans (wall clock with at least one op in flight).
    pub union_s: f64,
    /// Union of the transfer (HtoD, DtoH) spans.
    pub bus_s: f64,
    /// Latency the simulator folds into transfer and sort spans: the
    /// `sim.sync_s` + `sim.launch_s` counters (0 for functional and
    /// service runs, which record neither).
    pub embedded_latency_s: f64,
}

impl Totals {
    /// Statistics of one class.
    pub fn class(&self, class: OpClass) -> ClassStats {
        self.classes[class.ord_key() as usize]
    }

    /// Classes with at least one span, in canonical class order.
    pub fn present(&self) -> impl Iterator<Item = (OpClass, ClassStats)> + '_ {
        OpClass::ALL
            .iter()
            .zip(self.classes)
            .filter(|(_, st)| st.count > 0)
            .map(|(&c, st)| (c, st))
    }

    /// End-to-end seconds: the full window covered by the run.
    pub fn end_to_end_s(&self) -> f64 {
        self.window.map_or(0.0, |(a, b)| (b - a).max(0.0))
    }

    /// How much of the busy time ran concurrently with other work:
    /// `1 − union/busy`, clamped to `[0, 1]`. 0 for a fully serial
    /// pipeline, approaching 1 as more ops overlap.
    pub fn overlap_ratio(&self) -> f64 {
        if self.busy_s <= 0.0 {
            return 0.0;
        }
        (1.0 - self.union_s / self.busy_s).clamp(0.0, 1.0)
    }

    /// PCIe/host-bus utilization: the fraction of the end-to-end window
    /// with at least one transfer (HtoD or DtoH) in flight.
    pub fn bus_util(&self) -> f64 {
        let e2e = self.end_to_end_s();
        if e2e <= 0.0 {
            return 0.0;
        }
        (self.bus_s / e2e).clamp(0.0, 1.0)
    }

    /// The literature's end-to-end method (§IV-E): the busy sum of the
    /// [`OpClass::LITERATURE`] classes as pure DMA and kernel time, so
    /// without the latency the simulator embeds in those spans.
    pub fn literature_total_s(&self) -> f64 {
        let mut lit = 0.0;
        for c in OpClass::LITERATURE {
            lit += self.class(c).busy_s;
        }
        (lit - self.embedded_latency_s).max(0.0)
    }

    /// The accounting delta the paper is about: full end-to-end minus
    /// what the literature's method would report. May be negative under
    /// heavy overlap, where busy-sums over-count.
    pub fn missing_overhead_s(&self) -> f64 {
        self.end_to_end_s() - self.literature_total_s()
    }
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Build a registry from a span list.
    pub fn from_spans(spans: Vec<ObsSpan>) -> Self {
        MetricsRegistry {
            spans,
            counters: BTreeMap::new(),
        }
    }

    /// Record one span.
    pub fn record(&mut self, span: ObsSpan) {
        self.spans.push(span);
    }

    /// Record many spans.
    pub fn record_all(&mut self, spans: impl IntoIterator<Item = ObsSpan>) {
        self.spans.extend(spans);
    }

    /// Add `v` to the named counter (creates it at 0).
    pub fn add_counter(&mut self, name: &str, v: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// All counters in name order.
    pub fn counters(&self) -> &BTreeMap<String, f64> {
        &self.counters
    }

    /// Absorb another registry (spans concatenated, counters summed).
    pub fn merge(&mut self, other: MetricsRegistry) {
        self.spans.extend(other.spans);
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0.0) += v;
        }
    }

    /// All recorded spans, unsorted (insertion order).
    pub fn spans(&self) -> &[ObsSpan] {
        &self.spans
    }

    /// Spans in the canonical order every statistic is computed in.
    /// Unstable is exact: `span_cmp` compares every field (floats by
    /// `total_cmp`), so spans it calls equal are bit-identical.
    pub fn sorted_spans(&self) -> Vec<&ObsSpan> {
        let mut v: Vec<&ObsSpan> = self.spans.iter().collect();
        v.sort_unstable_by(|a, b| span_cmp(a, b));
        v
    }

    /// Every aggregate, from one sort of the spans: each sum runs in
    /// canonical order, so any permutation of the spans folds to the
    /// same bits. The accessors below each fold once; a caller that
    /// reads several aggregates folds once and reads this.
    pub fn totals(&self) -> Totals {
        let mut t = Totals {
            embedded_latency_s: self.counter("sim.sync_s") + self.counter("sim.launch_s"),
            ..Totals::default()
        };
        let mut unions = [Union::default(); OpClass::ALL.len()];
        let (mut all, mut bus) = (Union::default(), Union::default());
        for s in self.sorted_spans() {
            t.window = Some(match t.window {
                None => (s.t_start, s.t_end),
                Some((a, b)) => (a.min(s.t_start), b.max(s.t_end)),
            });
            let k = s.class.ord_key() as usize;
            let st = &mut t.classes[k];
            st.count += 1;
            st.busy_s += s.duration();
            st.bytes += s.bytes;
            unions[k].push(s.t_start, s.t_end);
            t.busy_s += s.duration();
            all.push(s.t_start, s.t_end);
            if matches!(s.class, OpClass::HtoD | OpClass::DtoH) {
                bus.push(s.t_start, s.t_end);
            }
        }
        for (st, u) in t.classes.iter_mut().zip(unions) {
            st.union_s = u.length();
        }
        t.union_s = all.length();
        t.bus_s = bus.length();
        t
    }

    /// Classes with at least one span, in canonical class order.
    pub fn classes(&self) -> Vec<OpClass> {
        self.totals().present().map(|(c, _)| c).collect()
    }

    /// Aggregate statistics of one class.
    pub fn class_stats(&self, class: OpClass) -> ClassStats {
        self.totals().class(class)
    }

    /// [`Totals::end_to_end_s`].
    pub fn end_to_end_s(&self) -> f64 {
        self.totals().end_to_end_s()
    }

    /// [`Totals::busy_s`].
    pub fn busy_total_s(&self) -> f64 {
        self.totals().busy_s
    }

    /// [`Totals::union_s`].
    pub fn union_total_s(&self) -> f64 {
        self.totals().union_s
    }

    /// [`Totals::overlap_ratio`].
    pub fn overlap_ratio(&self) -> f64 {
        self.totals().overlap_ratio()
    }

    /// [`Totals::bus_util`].
    pub fn bus_util(&self) -> f64 {
        self.totals().bus_util()
    }

    /// [`Totals::literature_total_s`].
    pub fn literature_total_s(&self) -> f64 {
        self.totals().literature_total_s()
    }

    /// [`Totals::missing_overhead_s`].
    pub fn missing_overhead_s(&self) -> f64 {
        self.totals().missing_overhead_s()
    }

    /// The registry as a JSON value: totals, ratios, per-class stats,
    /// and counters — the machine-readable form of [`summary`](Self::summary).
    pub fn to_json(&self) -> Json {
        let t = self.totals();
        let per_class = Json::Obj(
            t.present()
                .map(|(c, st)| {
                    (
                        c.name().to_string(),
                        Json::obj(vec![
                            ("count", Json::n(st.count as f64)),
                            ("busy_s", Json::n(st.busy_s)),
                            ("union_s", Json::n(st.union_s)),
                            ("bytes", Json::n(st.bytes)),
                        ]),
                    )
                })
                .collect(),
        );
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::n(*v)))
                .collect(),
        );
        Json::obj(vec![
            ("end_to_end_s", Json::n(t.end_to_end_s())),
            ("literature_total_s", Json::n(t.literature_total_s())),
            ("missing_overhead_s", Json::n(t.missing_overhead_s())),
            ("overlap_ratio", Json::n(t.overlap_ratio())),
            ("bus_util", Json::n(t.bus_util())),
            ("span_count", Json::n(self.spans.len() as f64)),
            ("components", per_class),
            ("counters", counters),
        ])
    }

    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let t = self.totals();
        let mut s = format!(
            "end-to-end {:.6} s, literature method {:.6} s, overlap {:.3}, bus util {:.3}\n",
            t.end_to_end_s(),
            t.literature_total_s(),
            t.overlap_ratio(),
            t.bus_util(),
        );
        for (c, st) in t.present() {
            s.push_str(&format!(
                "  {:<14} n={:<5} busy {:>10.6} s  union {:>10.6} s  bytes {:.3e}\n",
                c.name(),
                st.count,
                st.busy_s,
                st.union_s,
                st.bytes
            ));
        }
        for (name, v) in &self.counters {
            s.push_str(&format!("  counter {name} = {v}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(class: OpClass, t0: f64, t1: f64) -> ObsSpan {
        ObsSpan::new(class, t0, t1)
    }

    #[test]
    fn class_stats_and_totals() {
        let mut r = MetricsRegistry::new();
        for (t0, t1) in [(0.0, 1.0), (0.5, 1.5)] {
            r.record(ObsSpan {
                bytes: 8.0,
                ..span(OpClass::HtoD, t0, t1)
            });
        }
        r.record(span(OpClass::GpuSort, 1.5, 2.5));
        let h = r.class_stats(OpClass::HtoD);
        assert_eq!(h.count, 2);
        assert!((h.busy_s - 2.0).abs() < 1e-12);
        assert!((h.union_s - 1.5).abs() < 1e-12);
        assert!((h.bytes - 16.0).abs() < 1e-12);
        assert!((r.end_to_end_s() - 2.5).abs() < 1e-12);
        assert!((r.busy_total_s() - 3.0).abs() < 1e-12);
        assert!((r.union_total_s() - 2.5).abs() < 1e-12);
        // overlap = 1 - 2.5/3.0.
        assert!((r.overlap_ratio() - (1.0 - 2.5 / 3.0)).abs() < 1e-12);
        // bus covered [0,1.5] of [0,2.5].
        assert!((r.bus_util() - 0.6).abs() < 1e-12);
        assert_eq!(r.classes(), vec![OpClass::HtoD, OpClass::GpuSort]);
    }

    #[test]
    fn literature_vs_full_accounting() {
        let mut r = MetricsRegistry::new();
        r.record(span(OpClass::StagingCopy, 0.0, 1.0));
        r.record(span(OpClass::HtoD, 1.0, 2.0));
        r.record(span(OpClass::GpuSort, 2.0, 3.0));
        r.record(span(OpClass::DtoH, 3.0, 4.0));
        r.record(span(OpClass::StagingCopy, 4.0, 5.0));
        // Literature counts 3 of the 5 serial seconds.
        assert!((r.literature_total_s() - 3.0).abs() < 1e-12);
        assert!((r.missing_overhead_s() - 2.0).abs() < 1e-12);
        assert_eq!(r.overlap_ratio(), 0.0, "serial pipeline has no overlap");
    }

    #[test]
    fn literature_total_excludes_embedded_latency() {
        // The simulator folds sync latency into transfer spans and
        // launch latency into sort spans; the literature counts pure
        // DMA and kernel time, clamped at zero.
        let mut r = MetricsRegistry::new();
        r.record(span(OpClass::HtoD, 0.0, 1.5));
        r.record(span(OpClass::GpuSort, 1.5, 2.5));
        r.add_counter("sim.sync_s", 0.5);
        r.add_counter("sim.launch_s", 0.25);
        assert!((r.literature_total_s() - 1.75).abs() < 1e-12);
        assert!((r.missing_overhead_s() - 0.75).abs() < 1e-12);
        r.add_counter("sim.sync_s", 10.0);
        assert_eq!(r.literature_total_s(), 0.0);
    }

    #[test]
    fn one_fold_matches_every_accessor() {
        let mut r = MetricsRegistry::new();
        r.record(span(OpClass::DtoH, 3.0, 4.0));
        r.record(span(OpClass::HtoD, 1.0, 2.0));
        r.record(span(OpClass::GpuSort, 2.0, 3.0));
        r.record(span(OpClass::HtoD, 0.0, 1.5));
        let t = r.totals();
        assert_eq!(t.window, Some((0.0, 4.0)));
        assert_eq!(t.class(OpClass::HtoD).count, 2);
        assert!((t.class(OpClass::HtoD).union_s - 2.0).abs() < 1e-12);
        assert_eq!(t.class(OpClass::PairMerge), ClassStats::default());
        assert!((t.bus_s - 3.0).abs() < 1e-12);
        assert_eq!(r.class_stats(OpClass::HtoD), t.class(OpClass::HtoD));
        assert_eq!(r.busy_total_s(), t.busy_s);
        assert_eq!(r.union_total_s(), t.union_s);
        assert_eq!(r.bus_util(), t.bus_util());
        assert_eq!(
            t.present().map(|(c, _)| c).collect::<Vec<_>>(),
            vec![OpClass::HtoD, OpClass::DtoH, OpClass::GpuSort]
        );
    }

    #[test]
    fn merge_sums_counters_and_concatenates_spans() {
        let mut a = MetricsRegistry::new();
        a.record(span(OpClass::HtoD, 0.0, 1.0));
        a.add_counter("recovery.retries", 2.0);
        let mut b = MetricsRegistry::new();
        b.record(span(OpClass::DtoH, 1.0, 2.0));
        b.add_counter("recovery.retries", 3.0);
        a.merge(b);
        assert_eq!(a.spans().len(), 2);
        assert_eq!(a.counter("recovery.retries"), 5.0);
        assert_eq!(a.counter("absent"), 0.0);
    }

    #[test]
    fn empty_registry_is_all_zeros() {
        let r = MetricsRegistry::new();
        assert_eq!(r.end_to_end_s(), 0.0);
        assert_eq!(r.overlap_ratio(), 0.0);
        assert_eq!(r.bus_util(), 0.0);
        assert!(r.classes().is_empty());
        assert!(r.totals().window.is_none());
    }

    #[test]
    fn union_drops_degenerate_intervals() {
        let union = |iv: &[(f64, f64)]| {
            let mut u = Union::default();
            for &(s, e) in iv {
                u.push(s, e);
            }
            u.length()
        };
        assert_eq!(union(&[(1.0, 1.0), (2.0, 1.0)]), 0.0);
        assert!((union(&[(0.0, 1.0), (1.0, 1.0), (3.0, 4.0)]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_classes_and_counters() {
        let mut r = MetricsRegistry::new();
        r.record(span(OpClass::PairMerge, 0.0, 1.0));
        r.add_counter("recovery.oom_replans", 1.0);
        let s = r.summary();
        assert!(s.contains("PairMerge"), "{s}");
        assert!(s.contains("recovery.oom_replans"), "{s}");
    }
}
