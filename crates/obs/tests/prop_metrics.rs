//! Property tests for the metrics aggregator and the Chrome-trace
//! exporter, driven by `hetsort-prng` (no external proptest crate).
//!
//! The aggregator's contract is permutation invariance: a registry's
//! totals come from a canonical span ordering, so merging any shuffling
//! of any partitioning of the same spans yields *bitwise* identical
//! results. The exporter's contract is structural: every export
//! validates, and the validator's summary recovers the span counts.

use hetsort_obs::{chrome_trace, validate_chrome, MetricsRegistry, ObsSpan, OpClass};
use hetsort_prng::{run_cases, Rng};

fn random_span(rng: &mut Rng) -> ObsSpan {
    let class = *rng.pick(&OpClass::ALL);
    let t0 = rng.f64_in(0.0, 100.0);
    let dur = rng.f64_in(0.0, 10.0);
    let mut s = ObsSpan {
        bytes: rng.f64_in(0.0, 1e9),
        ..ObsSpan::new(class, t0, t0 + dur)
    };
    draw_tie_breaks(rng, &mut s);
    s.gpu = rng.bool().then(|| rng.usize_in(0, 3));
    s.stream = rng.bool().then(|| rng.usize_in(0, 7));
    s.batch = rng.bool().then(|| rng.u64_in(0, 99));
    s.job = rng.bool().then(|| rng.u64_in(0, 9));
    s
}

/// Draw the keys the canonical order compares last — node, worker and
/// text — from a few values each, so twins collide on some of them.
fn draw_tie_breaks(rng: &mut Rng, s: &mut ObsSpan) {
    s.node = rng.bool().then(|| rng.u32_in(0, 3));
    s.worker = (s.class == OpClass::CpuPart && rng.bool()).then(|| rng.u32_in(0, 3));
    s.text =
        (s.class == OpClass::Other && rng.bool()).then(|| format!("event {}", rng.u64_in(0, 2)));
}

/// A copy of `s` that may differ only in node, worker and text: it
/// ties with `s` on every key before them, so only those keys order
/// the two.
fn twin(rng: &mut Rng, s: &ObsSpan) -> ObsSpan {
    let mut t = s.clone();
    draw_tie_breaks(rng, &mut t);
    t
}

/// The registry's spans in canonical order.
fn canonical(reg: &MetricsRegistry) -> Vec<ObsSpan> {
    reg.sorted_spans().into_iter().cloned().collect()
}

fn shuffle<T>(rng: &mut Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = rng.usize_in(0, i);
        xs.swap(i, j);
    }
}

/// Everything the registry derives, as raw bits for exact comparison.
fn fingerprint(reg: &MetricsRegistry) -> Vec<u64> {
    let mut out = vec![
        reg.end_to_end_s().to_bits(),
        reg.busy_total_s().to_bits(),
        reg.union_total_s().to_bits(),
        reg.overlap_ratio().to_bits(),
        reg.bus_util().to_bits(),
        reg.literature_total_s().to_bits(),
    ];
    for class in reg.classes() {
        let st = reg.class_stats(class);
        out.push(st.count as u64);
        out.push(st.busy_s.to_bits());
        out.push(st.union_s.to_bits());
        out.push(st.bytes.to_bits());
    }
    out
}

#[test]
fn prop_totals_are_permutation_invariant() {
    run_cases("permutation invariance", 60, |rng| {
        let n = rng.usize_in(1, 120);
        let mut spans: Vec<ObsSpan> = (0..n).map(|_| random_span(rng)).collect();
        for _ in 0..rng.usize_in(0, n) {
            let of = rng.usize_in(0, n);
            let t = twin(rng, &spans[of]);
            spans.push(t);
        }
        let reference = MetricsRegistry::from_spans(spans.clone());
        let want = fingerprint(&reference);
        let order = canonical(&reference);

        // Any shuffle, recorded one by one.
        let mut shuffled = spans.clone();
        shuffle(rng, &mut shuffled);
        let mut one_by_one = MetricsRegistry::new();
        for s in shuffled {
            one_by_one.record(s);
        }
        if fingerprint(&one_by_one) != want {
            return Err("shuffled one-by-one differs from reference".into());
        }
        // The canonical order is total over the span's fields, twins
        // included: no insertion order survives into it.
        if canonical(&one_by_one) != order {
            return Err("shuffled one-by-one sorts differently from reference".into());
        }

        // Any partitioning into sub-registries, merged in random order.
        let mut parts: Vec<MetricsRegistry> = (0..rng.usize_in(1, 4))
            .map(|_| MetricsRegistry::new())
            .collect();
        let k = parts.len();
        let mut shuffled = spans;
        shuffle(rng, &mut shuffled);
        for (i, s) in shuffled.into_iter().enumerate() {
            parts[i % k].record(s);
        }
        shuffle(rng, &mut parts);
        let mut merged = MetricsRegistry::new();
        for p in parts {
            merged.merge(p);
        }
        if fingerprint(&merged) != want || canonical(&merged) != order {
            return Err("partitioned merge differs from reference".into());
        }
        Ok(())
    });
}

#[test]
fn prop_counters_are_order_independent() {
    run_cases("counter order independence", 40, |rng| {
        let names = ["a.x", "b.y", "c.z"];
        let mut adds: Vec<(&str, f64)> = (0..rng.usize_in(1, 30))
            .map(|_| (*rng.pick(&names), rng.f64_in(0.0, 5.0)))
            .collect();
        let mut r1 = MetricsRegistry::new();
        for (k, v) in &adds {
            r1.add_counter(k, *v);
        }
        // Summation per key is order-independent only up to float
        // rounding, so compare against a per-key shuffle-free total with
        // a tight tolerance instead of bitwise.
        shuffle(rng, &mut adds);
        let mut r2 = MetricsRegistry::new();
        for (k, v) in &adds {
            r2.add_counter(k, *v);
        }
        for k in names {
            let (a, b) = (r1.counter(k), r2.counter(k));
            if (a - b).abs() > 1e-9 * (1.0 + a.abs()) {
                return Err(format!("counter {k}: {a} vs {b}"));
            }
        }
        Ok(())
    });
}

#[test]
fn prop_chrome_export_round_trips_structure() {
    run_cases("chrome export round trip", 40, |rng| {
        let n = rng.usize_in(1, 80);
        let spans: Vec<ObsSpan> = (0..n).map(|_| random_span(rng)).collect();
        let reg = MetricsRegistry::from_spans(spans);
        let text = chrome_trace(&reg, "prop");
        let summary = validate_chrome(&text).map_err(|e| format!("invalid trace: {e}"))?;
        if summary.complete_events != reg.spans().len() {
            return Err(format!(
                "lost spans: {} exported of {}",
                summary.complete_events,
                reg.spans().len()
            ));
        }
        // Every category present in the registry appears in the trace.
        for class in reg.classes() {
            if !summary.categories.iter().any(|c| c == class.name()) {
                return Err(format!("category {} missing", class.name()));
            }
        }
        if summary.max_depth < 1 {
            return Err("non-empty trace must have depth >= 1".into());
        }
        Ok(())
    });
}

#[test]
fn prop_nesting_depth_is_preserved() {
    // Build explicitly nested spans on one lane and check the validator
    // recovers the exact depth.
    run_cases("nesting depth", 30, |rng| {
        let depth = rng.usize_in(1, 12);
        let mut spans = Vec::new();
        for d in 0..depth {
            let pad = d as f64;
            spans.push(ObsSpan {
                gpu: Some(0),
                stream: Some(0),
                ..ObsSpan::new(OpClass::GpuSort, pad, 100.0 - pad)
            });
        }
        shuffle(rng, &mut spans);
        let reg = MetricsRegistry::from_spans(spans);
        let summary =
            validate_chrome(&chrome_trace(&reg, "nest")).map_err(|e| format!("invalid: {e}"))?;
        if summary.max_depth != depth {
            return Err(format!("depth {} != expected {depth}", summary.max_depth));
        }
        Ok(())
    });
}
