//! Chrome-trace ("trace event format") export.
//!
//! Emits the JSON-object form `{"traceEvents": [...]}` with complete
//! (`"X"`) events so a run can be opened in `chrome://tracing` or
//! Perfetto. One process per GPU (plus a host process), one thread per
//! stream; timestamps are microseconds relative to the run origin.
//! [`validate_chrome`] structurally checks an exported document — the
//! acceptance test for the CLI path.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::Json;
use crate::registry::MetricsRegistry;
use crate::span::OpClass;

/// Host-side work (merges, staging) is grouped under this pid.
const HOST_PID: usize = 0;
/// Host ops with no stream id land on this tid.
const HOST_TID: usize = 0;

fn span_pid(gpu: Option<usize>) -> usize {
    // pid 0 is the host; GPU g becomes pid g+1.
    gpu.map(|g| g + 1).unwrap_or(HOST_PID)
}

fn span_tid(stream: Option<usize>) -> usize {
    stream.map(|s| s + 1).unwrap_or(HOST_TID)
}

/// Export every span in `reg` as a Chrome-trace JSON document.
/// `process_label` names the run in the viewer (e.g. the CLI's
/// platform/approach string).
pub fn chrome_trace(reg: &MetricsRegistry, process_label: &str) -> String {
    let mut events: Vec<Json> = Vec::new();

    // Metadata: name the processes and threads that occur.
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for s in reg.sorted_spans() {
        seen.insert((span_pid(s.gpu), span_tid(s.stream)));
    }
    let mut named_pids: BTreeSet<usize> = BTreeSet::new();
    for &(pid, tid) in &seen {
        if named_pids.insert(pid) {
            let pname = if pid == HOST_PID {
                format!("host ({process_label})")
            } else {
                format!("gpu{} ({process_label})", pid - 1)
            };
            events.push(Json::obj(vec![
                ("ph", Json::s("M")),
                ("name", Json::s("process_name")),
                ("pid", Json::n(pid as f64)),
                ("tid", Json::n(0.0)),
                ("args", Json::obj(vec![("name", Json::s(pname))])),
            ]));
        }
        let tname = if tid == HOST_TID {
            "host".to_string()
        } else {
            format!("stream{}", tid - 1)
        };
        events.push(Json::obj(vec![
            ("ph", Json::s("M")),
            ("name", Json::s("thread_name")),
            ("pid", Json::n(pid as f64)),
            ("tid", Json::n(tid as f64)),
            ("args", Json::obj(vec![("name", Json::s(tname))])),
        ]));
    }

    // Complete events, sorted so nesting renders correctly: within a
    // (pid, tid) lane, outer spans (earlier start, longer duration)
    // must precede the spans they contain.
    let t0 = reg.totals().window.map_or(0.0, |(a, _)| a);
    let mut spans = reg.sorted_spans();
    spans.sort_by(|a, b| {
        span_pid(a.gpu)
            .cmp(&span_pid(b.gpu))
            .then(span_tid(a.stream).cmp(&span_tid(b.stream)))
            .then(a.t_start.total_cmp(&b.t_start))
            .then(b.duration().total_cmp(&a.duration()))
    });
    for s in spans {
        let mut args = vec![("bytes", Json::n(s.bytes))];
        if let Some(batch) = s.batch {
            args.push(("batch", Json::n(batch as f64)));
        }
        if let Some(job) = s.job {
            args.push(("job", Json::n(job as f64)));
        }
        events.push(Json::obj(vec![
            ("ph", Json::s("X")),
            ("name", Json::s(s.to_string())),
            ("cat", Json::s(s.class.name())),
            ("pid", Json::n(span_pid(s.gpu) as f64)),
            ("tid", Json::n(span_tid(s.stream) as f64)),
            ("ts", Json::n((s.t_start - t0) * 1e6)),
            ("dur", Json::n(s.duration() * 1e6)),
            ("args", Json::obj(args)),
        ]));
    }

    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::s("ms")),
    ])
    .pretty()
}

/// What a structurally valid Chrome trace contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Number of `"X"` complete events.
    pub complete_events: usize,
    /// Number of `"M"` metadata events.
    pub metadata_events: usize,
    /// Distinct categories (op-class names) seen on complete events.
    pub categories: Vec<String>,
    /// Maximum nesting depth observed within any (pid, tid) lane.
    pub max_depth: usize,
}

/// Structurally validate a Chrome-trace document: parses as JSON, has a
/// `traceEvents` array, every event carries the required fields, and
/// complete events have non-negative `ts`/`dur`. Returns a summary used
/// by round-trip tests.
pub fn validate_chrome(text: &str) -> Result<ChromeSummary, String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut complete = 0usize;
    let mut metadata = 0usize;
    let mut categories: Vec<String> = Vec::new();
    // Per-lane stack of open interval ends to measure nesting depth.
    let mut lanes: BTreeMap<(u64, u64), Vec<f64>> = BTreeMap::new();
    let mut max_depth = 0usize;

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        match ph {
            "M" => {
                metadata += 1;
                ev.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: metadata without args.name"))?;
            }
            "X" => {
                complete += 1;
                ev.get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: complete event without name"))?;
                let cat = ev
                    .get("cat")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: complete event without cat"))?;
                if OpClass::parse(cat).is_none() {
                    return Err(format!("event {i}: unknown category {cat:?}"));
                }
                if !categories.iter().any(|c| c == cat) {
                    categories.push(cat.to_string());
                }
                let ts = ev
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: missing ts"))?;
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: missing dur"))?;
                if ts < 0.0 || dur < 0.0 || !ts.is_finite() || !dur.is_finite() {
                    return Err(format!("event {i}: negative or non-finite ts/dur"));
                }
                let stack = lanes.entry((pid as u64, tid as u64)).or_default();
                // Close intervals that ended before this one starts.
                // Small tolerance: equal-boundary spans are siblings.
                while matches!(stack.last(), Some(&end) if end <= ts + 1e-9) {
                    stack.pop();
                }
                stack.push(ts + dur);
                max_depth = max_depth.max(stack.len());
            }
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
    }
    categories.sort();
    Ok(ChromeSummary {
        complete_events: complete,
        metadata_events: metadata,
        categories,
        max_depth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::ObsSpan;

    fn sample_registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        let on_gpu0 = |class, t0, t1| ObsSpan {
            gpu: Some(0),
            stream: Some(0),
            ..ObsSpan::new(class, t0, t1)
        };
        r.record(ObsSpan {
            bytes: 1024.0,
            ..on_gpu0(OpClass::HtoD, 0.0, 1.0)
        });
        r.record(ObsSpan {
            batch: Some(0),
            ..on_gpu0(OpClass::GpuSort, 1.0, 2.0)
        });
        r.record(ObsSpan::new(OpClass::PairMerge, 2.0, 3.0));
        r
    }

    #[test]
    fn export_validates_and_counts_events() {
        let text = chrome_trace(&sample_registry(), "p1/pipedata");
        let sum = validate_chrome(&text).unwrap();
        assert_eq!(sum.complete_events, 3);
        // host process+thread, gpu process+stream thread.
        assert_eq!(sum.metadata_events, 4);
        assert_eq!(
            sum.categories,
            vec![
                "GPUSort".to_string(),
                "HtoD".to_string(),
                "PairMerge".to_string()
            ]
        );
    }

    #[test]
    fn timestamps_are_relative_microseconds() {
        let mut r = MetricsRegistry::new();
        r.record(ObsSpan::new(OpClass::Sync, 10.0, 10.5));
        let text = chrome_trace(&r, "x");
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let x = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        assert_eq!(x.get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(x.get("dur").and_then(Json::as_f64), Some(0.5e6));
    }

    #[test]
    fn nesting_depth_is_observed() {
        let mut r = MetricsRegistry::new();
        r.record(ObsSpan::other("outer", 0.0, 4.0));
        r.record(ObsSpan::new(OpClass::Sync, 1.0, 2.0));
        let sum = validate_chrome(&chrome_trace(&r, "nest")).unwrap();
        assert_eq!(sum.max_depth, 2);
    }

    #[test]
    fn validator_rejects_junk() {
        assert!(validate_chrome("not json").is_err());
        assert!(validate_chrome("{}").is_err());
        assert!(
            validate_chrome(r#"{"traceEvents":[{"ph":"X","pid":0,"tid":0}]}"#).is_err(),
            "complete event missing name/cat/ts/dur must fail"
        );
        assert!(
            validate_chrome(
                r#"{"traceEvents":[{"ph":"X","name":"a","cat":"NotAClass","pid":0,"tid":0,"ts":0,"dur":1}]}"#
            )
            .is_err(),
            "unknown category must fail"
        );
    }
}
