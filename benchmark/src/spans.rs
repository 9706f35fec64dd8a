//! The harness's own span recorder: one span around every call into a
//! layer, kept in memory and flushed as a Chrome trace when the run
//! ends. Spans *inside* the program are out of scope here — the
//! recorder only sees what the benchmark's own files call.

use std::time::Instant;

use hetsort_obs::{validate_chrome, Json};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, or a structural name (`iteration`, `replay`).
    pub name: String,
    /// Seconds since the recorder was created.
    pub start_s: f64,
    /// Seconds since the recorder was created.
    pub end_s: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Iteration the span belongs to (shared by a whole iteration tree).
    pub iteration: Option<u32>,
}

/// In-memory span recorder for a single-threaded caller. A disabled
/// recorder still times (callers use the returned durations) but keeps
/// nothing, which is what the untraced pass runs with.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Start time of every open span, innermost last, with its index
    /// in `spans` when enabled.
    open: Vec<(f64, Option<usize>)>,
    iteration: Option<u32>,
}

impl Recorder {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            iteration: None,
        }
    }

    /// Does this recorder keep spans?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Tag spans opened from now on with iteration `it`.
    pub fn set_iteration(&mut self, it: Option<u32>) {
        self.iteration = it;
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &str) {
        let t = self.now();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_s: t,
                end_s: t,
                parent: self.open.last().and_then(|(_, id)| *id),
                iteration: self.iteration,
            });
            self.spans.len() - 1
        });
        self.open.push((t, id));
    }

    /// Close the innermost open span; returns its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics when no span is open — a bug in the harness.
    pub fn close(&mut self) -> f64 {
        let t = self.now();
        let (start, id) = self
            .open
            .pop()
            .expect("Recorder::close without a matching open");
        if let Some(id) = id {
            self.spans[id].end_s = t;
        }
        t - start
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn timed<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        self.open(name);
        let r = f();
        let d = self.close();
        (r, d)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto). Every
    /// event carries its span id, parent id and iteration in `args`;
    /// the category is `Other`, the op-class vocabulary's slot for
    /// spans that are not pipeline operations.
    pub fn chrome_trace(&self, process_label: &str) -> String {
        let mut events = vec![Json::obj(vec![
            ("name", Json::s("process_name")),
            ("ph", Json::s("M")),
            ("pid", Json::n(1.0)),
            ("tid", Json::n(1.0)),
            ("args", Json::obj(vec![("name", Json::s(process_label))])),
        ])];
        for (id, s) in self.spans.iter().enumerate() {
            let mut args = vec![("id", Json::n(id as f64))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::n(p as f64)));
            }
            if let Some(it) = s.iteration {
                args.push(("iteration", Json::n(f64::from(it))));
            }
            events.push(Json::obj(vec![
                ("name", Json::s(s.name.clone())),
                ("cat", Json::s("Other")),
                ("ph", Json::s("X")),
                ("pid", Json::n(1.0)),
                ("tid", Json::n(1.0)),
                ("ts", Json::n(s.start_s * 1e6)),
                ("dur", Json::n((s.end_s - s.start_s) * 1e6)),
                ("args", Json::obj(args)),
            ]));
        }
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::s("ms")),
        ])
        .pretty()
    }
}

/// What a valid span file contained.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Number of spans.
    pub spans: usize,
    /// Number of root spans (trees).
    pub roots: usize,
    /// Self time per span name, seconds, in name order.
    pub self_s: Vec<(String, f64)>,
}

/// Rounding slack for times that went through a decimal file, in µs.
const EPS_US: f64 = 1e-3;

/// Validate a span file written by [`Recorder::chrome_trace`]: it is a
/// structurally valid Chrome trace, every non-root span has a live
/// parent and lies inside it, every self time (duration minus the part
/// its children cover) is ≥ 0, and the self times of each tree sum to
/// its root's duration.
///
/// # Errors
///
/// A description of the first violated rule.
pub fn validate_span_file(text: &str) -> Result<SpanSummary, String> {
    validate_chrome(text)?;
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    // (name, ts, dur, parent) by span id.
    type Parsed = (String, f64, f64, Option<usize>);
    let mut spans: Vec<Option<Parsed>> = Vec::new();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let num = |k: &str| ev.get(k).and_then(Json::as_f64);
        let arg = |k: &str| ev.get("args").and_then(|a| a.get(k)).and_then(Json::as_f64);
        let name = ev.get("name").and_then(Json::as_str).unwrap_or_default();
        let id = arg("id").ok_or_else(|| format!("span {name:?} has no id"))? as usize;
        let (ts, dur) = num("ts").zip(num("dur")).ok_or("span without ts/dur")?;
        if spans.len() <= id {
            spans.resize(id + 1, None);
        }
        if spans[id].is_some() {
            return Err(format!("span id {id} appears twice"));
        }
        spans[id] = Some((name.to_string(), ts, dur, arg("parent").map(|p| p as usize)));
    }
    let spans: Vec<Parsed> = spans
        .into_iter()
        .enumerate()
        .map(|(id, s)| s.ok_or_else(|| format!("span id {id} is missing")))
        .collect::<Result<_, _>>()?;

    let mut child_dur = vec![0.0_f64; spans.len()];
    let mut root_of = vec![0usize; spans.len()];
    for (id, (name, ts, dur, parent)) in spans.iter().enumerate() {
        let Some(p) = *parent else {
            root_of[id] = id;
            continue;
        };
        // Parents open first, so a live parent has a smaller id.
        if p >= id {
            return Err(format!(
                "span {id} ({name}) names parent {p}, which is not live"
            ));
        }
        let (pname, pts, pdur, _) = &spans[p];
        if *ts < pts - EPS_US || ts + dur > pts + pdur + EPS_US {
            return Err(format!(
                "span {id} ({name}) leaves its parent {p} ({pname})"
            ));
        }
        child_dur[p] += dur;
        root_of[id] = root_of[p];
    }
    let mut tree_self = vec![0.0_f64; spans.len()];
    let mut by_name: std::collections::BTreeMap<String, f64> = Default::default();
    for (id, (name, _, dur, _)) in spans.iter().enumerate() {
        let self_us = dur - child_dur[id];
        if self_us < -EPS_US * (1.0 + spans.len() as f64) {
            return Err(format!(
                "span {id} ({name}) has negative self time {self_us} us"
            ));
        }
        tree_self[root_of[id]] += self_us;
        *by_name.entry(name.clone()).or_insert(0.0) += self_us.max(0.0) * 1e-6;
    }
    let mut roots = 0;
    for (id, (name, _, dur, parent)) in spans.iter().enumerate() {
        if parent.is_some() {
            continue;
        }
        roots += 1;
        if (tree_self[id] - dur).abs() > EPS_US * (1.0 + spans.len() as f64) {
            return Err(format!(
                "tree {id} ({name}): self times sum to {} us, root lasts {dur} us",
                tree_self[id]
            ));
        }
    }
    Ok(SpanSummary {
        spans: spans.len(),
        roots,
        self_s: by_name.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Recorder {
        let mut r = Recorder::new(true);
        r.set_iteration(Some(0));
        r.open("iteration");
        r.timed("core.execute", || std::hint::black_box(1 + 1));
        r.timed("verify", || ());
        r.close();
        r.set_iteration(None);
        r.timed("replay", || ());
        r
    }

    #[test]
    fn recorded_tree_validates() {
        let r = sample();
        assert_eq!(r.spans().len(), 4);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[3].parent, None);
        let s = validate_span_file(&r.chrome_trace("t")).expect("valid");
        assert_eq!((s.spans, s.roots), (4, 2));
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut r = Recorder::new(false);
        r.open("outer");
        let ((), d) = r.timed("inner", || ());
        assert!(d >= 0.0 && r.close() >= d);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn validator_rejects_broken_trees() {
        let good = sample().chrome_trace("t");
        // A child that outlives its parent.
        let mut r = sample();
        r.spans[1].end_s = r.spans[0].end_s + 1.0;
        assert!(validate_span_file(&r.chrome_trace("t"))
            .unwrap_err()
            .contains("leaves its parent"));
        // A parent that is not live (forward reference).
        let mut r = sample();
        r.spans[1].parent = Some(2);
        assert!(validate_span_file(&r.chrome_trace("t"))
            .unwrap_err()
            .contains("not live"));
        // Overlapping children: more child time than the parent lasted.
        let mut r = sample();
        r.spans[1].start_s = r.spans[0].start_s;
        r.spans[1].end_s = r.spans[0].end_s;
        r.spans[2].start_s = r.spans[0].start_s;
        r.spans[2].end_s = r.spans[0].end_s;
        r.spans[0].end_s = r.spans[0].start_s + 1.0;
        r.spans[1].end_s = r.spans[0].end_s;
        r.spans[2].end_s = r.spans[0].end_s;
        assert!(validate_span_file(&r.chrome_trace("t"))
            .unwrap_err()
            .contains("negative self time"));
        assert!(validate_span_file("{}").is_err());
        assert!(validate_span_file(&good).is_ok());
    }
}
