//! Happens-before race detection over an [`OpTrace`].
//!
//! Vector-clock analysis in the style of FastTrack (Flanagan & Freund,
//! PLDI 2009), adapted to the CUDA stream model the executors use:
//!
//! * each trace *thread* (a stream, or the submitting host) carries a
//!   vector clock advanced by its own records in program order;
//! * [`TraceKind::EventRecord`] snapshots the recording thread's clock;
//!   [`TraceKind::StreamWaitEvent`] joins that snapshot into the waiting
//!   thread — the only cross-thread edges streams have;
//! * [`TraceKind::DeviceSync`] joins every thread into every other
//!   (a full barrier at its submission point).
//!
//! Two accesses *race* when their buffers overlap, at least one writes,
//! and neither op happens-before the other. Each race finding names both
//! ops, their threads, and the happens-before edge that would fix it.
//!
//! Deadlock freedom falls out of submission order: all records are
//! submitted by one host thread, so any cycle in the stream→event wait
//! graph must contain a wait submitted *before* the record it waits on —
//! which is exactly what [`check_trace`] flags (along with waits on
//! events never recorded at all).

use std::collections::HashMap;

use hetsort_sim::{Access, Buffer, OpTrace, TraceKind};

use crate::finding::{Finding, FindingClass};

/// Comparison bucket: exact identity for device/pinned buffers, the
/// region for host ranges (ranges inside a region are compared by
/// overlap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CoarseKey {
    Dev(usize, usize),
    Pinned(usize),
    Host(usize),
}

/// Exact allocation identity (host regions are never allocated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ExactKey {
    Dev(usize, usize),
    Pinned(usize),
}

fn coarse(buf: &Buffer) -> CoarseKey {
    match buf {
        Buffer::Dev { gpu, id } => CoarseKey::Dev(*gpu, *id),
        Buffer::Pinned { id } => CoarseKey::Pinned(*id),
        Buffer::Host { region, .. } => CoarseKey::Host(*region),
    }
}

fn exact(buf: &Buffer) -> Option<ExactKey> {
    match buf {
        Buffer::Dev { gpu, id } => Some(ExactKey::Dev(*gpu, *id)),
        Buffer::Pinned { id } => Some(ExactKey::Pinned(*id)),
        Buffer::Host { .. } => None,
    }
}

/// One remembered access: which record made it, on which thread, at
/// which point of that thread's own clock.
struct Past {
    rec: usize,
    thread: usize,
    clock: u64,
    access: Access,
}

/// Did `past` happen before the op whose thread clock is `cur`?
fn ordered(past: &Past, cur: &[u64]) -> bool {
    cur[past.thread] >= past.clock
}

fn rw(write: bool) -> &'static str {
    if write {
        "writes"
    } else {
        "reads"
    }
}

/// Check a trace for races, event-discipline violations, aliasing
/// hazards, and (when GPU capacities are given) device-memory
/// over-subscription.
pub fn check_trace(trace: &OpTrace, gpu_capacity: Option<&[u64]>) -> Vec<Finding> {
    let n = trace.n_threads.max(1);
    let mut findings = Vec::new();
    let mut clocks: Vec<Vec<u64>> = vec![vec![0; n]; n];
    let mut event_vcs: HashMap<usize, Vec<u64>> = HashMap::new();
    // Submission index of each event's first record, for diagnosing
    // waits that precede their record (the deadlock shape).
    let mut first_record: HashMap<usize, usize> = HashMap::new();
    for (i, r) in trace.records.iter().enumerate() {
        if let TraceKind::EventRecord { event } = r.kind {
            first_record.entry(event).or_insert(i);
        }
    }
    let mut live: HashMap<ExactKey, (usize, u64)> = HashMap::new();
    // Freed (and not since re-allocated) buffers: key → freeing record.
    let mut freed: HashMap<ExactKey, usize> = HashMap::new();
    let mut saw_free = false;
    let mut dev_used: HashMap<usize, u64> = HashMap::new();
    let mut history: HashMap<CoarseKey, Vec<Past>> = HashMap::new();

    for (i, r) in trace.records.iter().enumerate() {
        let t = r.thread;
        match &r.kind {
            TraceKind::EventRecord { event } => {
                clocks[t][t] += 1;
                event_vcs.insert(*event, clocks[t].clone());
            }
            TraceKind::StreamWaitEvent { event } => {
                if let Some(vc) = event_vcs.get(event) {
                    for (c, v) in clocks[t].iter_mut().zip(vc) {
                        *c = (*c).max(*v);
                    }
                } else {
                    match first_record.get(event) {
                        Some(&ri) => findings.push(Finding {
                            class: FindingClass::Deadlock,
                            code: "wait-before-record",
                            message: format!(
                                "`{}` (thread {t}) waits on event {event} before `{}` \
                                 (thread {}) records it; the wait captures nothing and \
                                 any stream/event wait cycle reduces to this shape",
                                r.label, trace.records[ri].label, trace.records[ri].thread
                            ),
                            ops: vec![r.label.clone(), trace.records[ri].label.clone()],
                        }),
                        None => findings.push(Finding {
                            class: FindingClass::Deadlock,
                            code: "unrecorded-event-wait",
                            message: format!(
                                "`{}` (thread {t}) waits on event {event}, which no \
                                 record in the trace ever records — the stream stalls \
                                 forever",
                                r.label
                            ),
                            ops: vec![r.label.clone()],
                        }),
                    }
                }
            }
            TraceKind::DeviceSync => {
                // Full barrier: every thread joins every other, and all
                // earlier accesses are ordered before all later records.
                let mut joined = vec![0u64; n];
                for c in &clocks {
                    for (j, v) in c.iter().enumerate() {
                        joined[j] = joined[j].max(*v);
                    }
                }
                for c in clocks.iter_mut() {
                    c.clone_from(&joined);
                }
                history.clear();
            }
            TraceKind::Alloc { buf, bytes } => {
                clocks[t][t] += 1;
                if let Some(key) = exact(buf) {
                    // Re-allocation makes the identity live again.
                    freed.remove(&key);
                    if let Some((prev, _)) = live.insert(key, (i, *bytes)) {
                        findings.push(Finding {
                            class: FindingClass::Aliasing,
                            code: "double-alloc",
                            message: format!(
                                "`{}` (thread {t}) allocates {} while `{}` (thread {}) \
                                 still holds it — two owners alias one buffer",
                                r.label,
                                buf.short(),
                                trace.records[prev].label,
                                trace.records[prev].thread
                            ),
                            ops: vec![r.label.clone(), trace.records[prev].label.clone()],
                        });
                    }
                    if let ExactKey::Dev(gpu, _) = key {
                        let used = dev_used.entry(gpu).or_insert(0);
                        *used += bytes;
                        if let Some(cap) = gpu_capacity.and_then(|c| c.get(gpu)) {
                            if *used > *cap {
                                findings.push(Finding {
                                    class: FindingClass::Oom,
                                    code: "device-over-capacity",
                                    message: format!(
                                        "`{}` brings GPU {gpu} residency to {used:.3e} B, \
                                         over its {cap:.3e} B capacity — statically \
                                         guaranteed OOM",
                                        r.label
                                    ),
                                    ops: vec![r.label.clone()],
                                });
                            }
                        }
                    }
                }
            }
            TraceKind::Free { buf } => {
                clocks[t][t] += 1;
                saw_free = true;
                match exact(buf).map(|key| (key, live.remove(&key))) {
                    Some((key, Some((_, bytes)))) => {
                        freed.insert(key, i);
                        if let ExactKey::Dev(gpu, _) = key {
                            if let Some(used) = dev_used.get_mut(&gpu) {
                                *used -= bytes;
                            }
                        }
                        // An un-synchronized async op on a freed buffer
                        // is a use-after-free in waiting.
                        if let Some(past) = history.get(&coarse(buf)) {
                            for p in past {
                                if p.access.buf.overlaps(buf) && !ordered(p, &clocks[t]) {
                                    findings.push(Finding {
                                        class: FindingClass::Aliasing,
                                        code: "free-outstanding",
                                        message: format!(
                                            "`{}` (thread {t}) frees {} while `{}` \
                                             (thread {}) is not ordered before the free",
                                            r.label,
                                            buf.short(),
                                            trace.records[p.rec].label,
                                            p.thread
                                        ),
                                        ops: vec![
                                            r.label.clone(),
                                            trace.records[p.rec].label.clone(),
                                        ],
                                    });
                                }
                            }
                        }
                    }
                    Some((key, None)) => match freed.get(&key) {
                        Some(&fi) => findings.push(Finding {
                            class: FindingClass::DoubleFree,
                            code: "double-free",
                            message: format!(
                                "`{}` (thread {t}) frees {} again — `{}` (thread {}) \
                                 already freed it",
                                r.label,
                                buf.short(),
                                trace.records[fi].label,
                                trace.records[fi].thread
                            ),
                            ops: vec![r.label.clone(), trace.records[fi].label.clone()],
                        }),
                        None => findings.push(Finding {
                            class: FindingClass::Malformed,
                            code: "free-dead",
                            message: format!(
                                "`{}` (thread {t}) frees {}, which was never allocated",
                                r.label,
                                buf.short()
                            ),
                            ops: vec![r.label.clone()],
                        }),
                    },
                    None => findings.push(Finding {
                        class: FindingClass::Malformed,
                        code: "free-dead",
                        message: format!(
                            "`{}` (thread {t}) frees {}, which is not an allocation",
                            r.label,
                            buf.short()
                        ),
                        ops: vec![r.label.clone()],
                    }),
                }
            }
            TraceKind::Op { accesses } => {
                clocks[t][t] += 1;
                for a in accesses {
                    if let Some(fi) = exact(&a.buf).and_then(|k| freed.get(&k)) {
                        findings.push(Finding {
                            class: FindingClass::UseAfterFree,
                            code: "use-after-free",
                            message: format!(
                                "`{}` (thread {t}) {} {} after `{}` (thread {}) freed it",
                                r.label,
                                rw(a.write),
                                a.buf.short(),
                                trace.records[*fi].label,
                                trace.records[*fi].thread
                            ),
                            ops: vec![r.label.clone(), trace.records[*fi].label.clone()],
                        });
                    }
                    let key = coarse(&a.buf);
                    let entry = history.entry(key).or_default();
                    // At most one race report per conflicting thread per
                    // op — chunked pipelines would otherwise flood.
                    let mut reported: Vec<usize> = Vec::new();
                    for p in entry.iter() {
                        let conflict = p.access.buf.overlaps(&a.buf) && (p.access.write || a.write);
                        if conflict && !ordered(p, &clocks[t]) && !reported.contains(&p.thread) {
                            reported.push(p.thread);
                            let class = if matches!(key, CoarseKey::Pinned(_)) {
                                FindingClass::Aliasing
                            } else {
                                FindingClass::MissingSync
                            };
                            findings.push(Finding {
                                class,
                                code: "race",
                                message: format!(
                                    "data race on {}: `{}` (thread {}) {} it and `{}` \
                                     (thread {t}) {} it with no happens-before edge; \
                                     record an event on thread {} after the former and \
                                     stream-wait on it in thread {t} before the latter \
                                     (or synchronize the device between them)",
                                    a.buf.short(),
                                    trace.records[p.rec].label,
                                    p.thread,
                                    rw(p.access.write),
                                    r.label,
                                    rw(a.write),
                                    p.thread,
                                ),
                                ops: vec![trace.records[p.rec].label.clone(), r.label.clone()],
                            });
                        }
                    }
                    // A write that happens-after an identical-buffer
                    // access supersedes it for all future ordering
                    // questions — prune to keep history bounded.
                    if a.write {
                        let cur = &clocks[t];
                        entry.retain(|p| !(p.access.buf == a.buf && ordered(p, cur)));
                    }
                    entry.push(Past {
                        rec: i,
                        thread: t,
                        clock: clocks[t][t],
                        access: *a,
                    });
                }
            }
        }
    }
    // Leak check, gated on the trace actually releasing buffers:
    // plan-lowered and executor traces free what they allocate, so a
    // survivor in `live` is a leak there; hand-built traces with no
    // Free records at all opt out.
    if saw_free {
        let mut leaked: Vec<&(usize, u64)> = live.values().collect();
        leaked.sort_by_key(|(rec, _)| *rec);
        for (rec, _) in leaked {
            let r = &trace.records[*rec];
            findings.push(Finding {
                class: FindingClass::Leak,
                code: "leaked-alloc",
                message: format!(
                    "`{}` (thread {}) is never freed, though the trace frees its \
                     other buffers — the allocation outlives the schedule",
                    r.label, r.thread
                ),
                ops: vec![r.label.clone()],
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsort_sim::Access;

    fn dev(id: usize) -> Buffer {
        Buffer::Dev { gpu: 0, id }
    }

    #[test]
    fn ordered_ops_are_clean() {
        let mut tr = OpTrace::new(3);
        tr.push(
            1,
            "write",
            TraceKind::Op {
                accesses: vec![Access::write(dev(0))],
            },
        );
        tr.push(1, "record", TraceKind::EventRecord { event: 7 });
        tr.push(2, "wait", TraceKind::StreamWaitEvent { event: 7 });
        tr.push(
            2,
            "read",
            TraceKind::Op {
                accesses: vec![Access::read(dev(0))],
            },
        );
        assert!(check_trace(&tr, None).is_empty());
    }

    #[test]
    fn unordered_conflict_is_a_race() {
        let mut tr = OpTrace::new(3);
        tr.push(
            1,
            "writer",
            TraceKind::Op {
                accesses: vec![Access::write(dev(0))],
            },
        );
        tr.push(
            2,
            "reader",
            TraceKind::Op {
                accesses: vec![Access::read(dev(0))],
            },
        );
        let fs = check_trace(&tr, None);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].class, FindingClass::MissingSync);
        assert!(fs[0].message.contains("writer"));
        assert!(fs[0].message.contains("reader"));
        assert!(fs[0].message.contains("happens-before"));
    }

    #[test]
    fn device_sync_orders_everything() {
        let mut tr = OpTrace::new(3);
        tr.push(
            1,
            "writer",
            TraceKind::Op {
                accesses: vec![Access::write(dev(0))],
            },
        );
        tr.push(0, "sync", TraceKind::DeviceSync);
        tr.push(
            2,
            "reader",
            TraceKind::Op {
                accesses: vec![Access::read(dev(0))],
            },
        );
        assert!(check_trace(&tr, None).is_empty());
    }

    #[test]
    fn wait_on_unrecorded_event_is_deadlock() {
        let mut tr = OpTrace::new(2);
        tr.push(1, "wait", TraceKind::StreamWaitEvent { event: 3 });
        let fs = check_trace(&tr, None);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].class, FindingClass::Deadlock);
        assert_eq!(fs[0].code, "unrecorded-event-wait");
    }

    #[test]
    fn wait_before_record_is_deadlock() {
        let mut tr = OpTrace::new(3);
        tr.push(1, "early wait", TraceKind::StreamWaitEvent { event: 3 });
        tr.push(2, "late record", TraceKind::EventRecord { event: 3 });
        let fs = check_trace(&tr, None);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].code, "wait-before-record");
        assert!(fs[0].message.contains("late record"));
    }

    #[test]
    fn double_alloc_is_aliasing_and_capacity_is_oom() {
        let mut tr = OpTrace::new(1);
        tr.push(
            0,
            "alloc a",
            TraceKind::Alloc {
                buf: dev(0),
                bytes: 6,
            },
        );
        tr.push(
            0,
            "alloc a again",
            TraceKind::Alloc {
                buf: dev(0),
                bytes: 6,
            },
        );
        let fs = check_trace(&tr, Some(&[10]));
        assert!(fs.iter().any(|f| f.code == "double-alloc"));
        assert!(fs.iter().any(|f| f.code == "device-over-capacity"));
    }

    #[test]
    fn free_dead_buffer_is_malformed() {
        let mut tr = OpTrace::new(1);
        tr.push(0, "free", TraceKind::Free { buf: dev(0) });
        let fs = check_trace(&tr, None);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].class, FindingClass::Malformed);
    }

    #[test]
    fn use_after_free_double_free_and_leak_are_typed() {
        // alloc a, alloc b, free a, read a (UAF), free a (double),
        // b never freed (leak).
        let mut tr = OpTrace::new(1);
        tr.push(
            0,
            "alloc a",
            TraceKind::Alloc {
                buf: dev(0),
                bytes: 1,
            },
        );
        tr.push(
            0,
            "alloc b",
            TraceKind::Alloc {
                buf: dev(1),
                bytes: 1,
            },
        );
        tr.push(0, "free a", TraceKind::Free { buf: dev(0) });
        tr.push(
            0,
            "stale read",
            TraceKind::Op {
                accesses: vec![Access::read(dev(0))],
            },
        );
        tr.push(0, "free a again", TraceKind::Free { buf: dev(0) });
        let fs = check_trace(&tr, None);
        assert!(
            fs.iter()
                .any(|f| f.class == FindingClass::UseAfterFree && f.code == "use-after-free"),
            "{fs:?}"
        );
        assert!(
            fs.iter()
                .any(|f| f.class == FindingClass::DoubleFree && f.code == "double-free"),
            "{fs:?}"
        );
        assert!(
            fs.iter().any(|f| f.class == FindingClass::Leak
                && f.code == "leaked-alloc"
                && f.ops == vec!["alloc b".to_string()]),
            "{fs:?}"
        );
    }

    #[test]
    fn realloc_after_free_is_clean_and_freeless_traces_skip_leak_lint() {
        let mut tr = OpTrace::new(1);
        tr.push(
            0,
            "alloc",
            TraceKind::Alloc {
                buf: dev(0),
                bytes: 1,
            },
        );
        tr.push(0, "free", TraceKind::Free { buf: dev(0) });
        tr.push(
            0,
            "realloc",
            TraceKind::Alloc {
                buf: dev(0),
                bytes: 1,
            },
        );
        tr.push(
            0,
            "use",
            TraceKind::Op {
                accesses: vec![Access::write(dev(0))],
            },
        );
        tr.push(0, "free 2", TraceKind::Free { buf: dev(0) });
        assert!(check_trace(&tr, None).is_empty());

        // A trace that never frees anything (recorder-style) is not a
        // leak — the lint is gated on the trace releasing buffers.
        let mut rec = OpTrace::new(1);
        rec.push(
            0,
            "alloc",
            TraceKind::Alloc {
                buf: dev(0),
                bytes: 1,
            },
        );
        assert!(check_trace(&rec, None).is_empty());
    }

    #[test]
    fn same_thread_reuse_is_program_ordered() {
        let pin = Buffer::Pinned { id: 0 };
        let mut tr = OpTrace::new(2);
        for c in 0..4 {
            tr.push(
                1,
                format!("chunk {c}"),
                TraceKind::Op {
                    accesses: vec![Access::write(pin)],
                },
            );
        }
        assert!(check_trace(&tr, None).is_empty());
    }
}
