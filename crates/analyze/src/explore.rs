//! Stateless model checking of scheduler state spaces with dynamic
//! partial-order reduction.
//!
//! The happens-before checker ([`crate::hb`]) judges a lowered trace
//! once: with one record per event id its verdict holds for every
//! linearization (DESIGN § 16). This module explores **every**
//! reachable interleaving of a scheduler whose choices change what
//! runs — the dag engine racing device losses, the admission
//! controller racing pool churn: a [`SchedModel`]
//! exposes the scheduler state as deterministic per-thread next
//! actions behind an `enabled()`/`step()` interface (CDSChecker-style
//! stateless model checking — the model is replayed from `reset()`
//! along each schedule prefix, so no state is ever hashed or stored),
//! and [`explore`] drives a depth-first search over schedule choices.
//!
//! Exhaustive enumeration is factorial in trace length, so the search
//! applies **persistent-set DPOR** (Flanagan & Godefroid, POPL 2005)
//! with **sleep sets**: a backtrack point is added only where two
//! *dependent* actions of different threads actually met (their
//! [`Footprint`]s conflict), and sleep sets prune interleavings that
//! merely commute independent actions.
//!
//! Three invariant classes ride on the exploration, surfaced as
//! ordinary [`Finding`]s:
//!
//! * **reachable deadlock** — the enabled set goes empty before the
//!   schedule completes (engine-level, every model gets it for free);
//! * **budget safety** — no interleaving of
//!   reserve/release/lose/join overcommits a device or pinned cap
//!   ([`FindingClass::Budget`], checked by
//!   [`crate::admission_model`], which drives serve's shipped
//!   controller);
//! * **replan cover** — in every node order and loss alignment of the
//!   shipped dag engine, each batch's run is published exactly once
//!   and every survivor plan keeps the base tiling
//!   ([`FindingClass::ReplanCover`], checked by
//!   [`crate::engine_model`], which drives the engine itself).
//!
//! The search is bounded by [`ExploreConfig::max_ops`] (total `step`
//! calls, replays included). Hitting the bound sets
//! [`ExploreReport::truncated`] and the report's summary says so —
//! a truncated exploration proves nothing about the unexplored
//! suffix, it only reports what was seen.

use std::collections::{BTreeMap, BTreeSet};

use hetsort_core::optrace::{Access, Buffer};

use crate::finding::{Finding, FindingClass};

/// A scheduler-visible resource two pending actions can conflict on.
#[derive(Debug, Clone, PartialEq)]
pub enum Res {
    /// A traced buffer; conflict is overlap-aware (host ranges clash
    /// only when their element ranges intersect).
    Buf(Buffer),
    /// A physical device: its liveness flag and budget counter.
    Gpu(usize),
    /// The shared pinned-staging budget pool.
    Pinned,
    /// The epoch every pending action belongs to (the dag engine's
    /// pass); see [`Footprint::ends_epoch`].
    Epoch,
    /// Conflicts with everything (barriers, whole-state scans).
    Global,
}

impl Res {
    fn overlaps(&self, other: &Res) -> bool {
        match (self, other) {
            (Res::Global | Res::Epoch, _) | (_, Res::Global | Res::Epoch) => true,
            (Res::Buf(a), Res::Buf(b)) => a.overlaps(b),
            (Res::Gpu(a), Res::Gpu(b)) => a == b,
            (Res::Pinned, Res::Pinned) => true,
            _ => false,
        }
    }
}

/// One resource an action touches, read or write.
#[derive(Debug, Clone)]
pub struct ResAccess {
    /// What is touched.
    pub res: Res,
    /// Whether the action mutates it.
    pub write: bool,
}

/// The complete resource footprint of one pending action. Two actions
/// are *dependent* (their order can matter) iff their footprints
/// conflict.
#[derive(Debug, Clone, Default)]
pub struct Footprint(pub Vec<ResAccess>);

impl Footprint {
    /// A footprint writing one resource.
    pub fn write(res: Res) -> Footprint {
        Footprint(vec![ResAccess { res, write: true }])
    }

    /// The footprint of buffer accesses.
    pub fn of(accesses: impl IntoIterator<Item = Access>) -> Footprint {
        let access = |a: Access| ResAccess {
            res: Res::Buf(a.buf),
            write: a.write,
        };
        Footprint(accesses.into_iter().map(access).collect())
    }

    /// A footprint conflicting with everything.
    pub fn global() -> Footprint {
        Footprint::write(Res::Global)
    }

    /// Add a write access.
    pub fn and_write(mut self, res: Res) -> Footprint {
        self.0.push(ResAccess { res, write: true });
        self
    }

    /// Add a read access.
    pub fn and_read(mut self, res: Res) -> Footprint {
        self.0.push(ResAccess { res, write: false });
        self
    }

    /// Dependence: some overlapping resource with at least one writer.
    pub fn conflicts(&self, other: &Footprint) -> bool {
        self.0.iter().any(|a| {
            other
                .0
                .iter()
                .any(|b| (a.write || b.write) && a.res.overlaps(&b.res))
        })
    }

    /// Dependence restricted to *reversible* pairs: an [`Res::Epoch`]
    /// access seeds no backtrack point, only an epoch-ending action's
    /// other accesses do. Everything else falls through to
    /// [`Footprint::conflicts`].
    pub fn conflicts_reversible(&self, other: &Footprint) -> bool {
        self.0.iter().any(|a| {
            other.0.iter().any(|b| {
                let ordered = matches!((&a.res, &b.res), (Res::Epoch, _) | (_, Res::Epoch));
                !ordered && (a.write || b.write) && a.res.overlaps(&b.res)
            })
        })
    }

    /// Whether this action ends the epoch ([`Res::Epoch`] write): it
    /// replaces every other thread's pending action, so it wakes every
    /// sleeper, and is reversed against the pending actions its other
    /// accesses conflict with where they are pending, since they never
    /// execute after it.
    pub fn ends_epoch(&self) -> bool {
        self.0.iter().any(|a| a.write && a.res == Res::Epoch)
    }
}

/// A deterministic-per-thread scheduler state the explorer can drive.
///
/// Threads have at most one pending action each; `step(t)` executes
/// thread `t`'s pending action. The model must be *replayable*: after
/// `reset()`, the same sequence of `step` calls reaches the same
/// state (models must not consult ambient nondeterminism).
pub trait SchedModel {
    /// Human-readable model identity for findings and summaries.
    fn name(&self) -> String;

    /// Number of schedulable threads.
    fn n_threads(&self) -> usize;

    /// Return to the initial state.
    fn reset(&mut self);

    /// May thread `t` execute its pending action now? `false` for
    /// blocked *and* finished threads.
    fn enabled(&self, thread: usize) -> bool;

    /// Has the whole schedule completed?
    fn is_done(&self) -> bool;

    /// The resource footprint of thread `t`'s pending action. Only
    /// called while `enabled(t)`.
    fn next_footprint(&self, thread: usize) -> Footprint;

    /// Execute thread `t`'s pending action. Only called while
    /// `enabled(t)`.
    fn step(&mut self, thread: usize);

    /// Invariants checked after every step (return violations).
    fn check_state(&self) -> Vec<Finding> {
        Vec::new()
    }

    /// Invariants checked once a schedule completes.
    fn check_final(&self) -> Vec<Finding> {
        Vec::new()
    }

    /// Describe what blocked threads are waiting on, for deadlock
    /// findings.
    fn blocked_describe(&self) -> String;
}

/// Exploration bounds and strategy.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Total `step` budget (replays included); exceeding it truncates
    /// the exploration and sets [`ExploreReport::truncated`].
    pub max_ops: usize,
    /// `true` = persistent-set DPOR + sleep sets; `false` = naive
    /// full enumeration (for measuring the reduction).
    pub dpor: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_ops: 1_000_000,
            dpor: true,
        }
    }
}

impl ExploreConfig {
    /// Default DPOR exploration under a custom op budget.
    pub fn with_max_ops(max_ops: usize) -> ExploreConfig {
        ExploreConfig {
            max_ops,
            ..ExploreConfig::default()
        }
    }

    /// Naive enumeration (no reduction) under the same budget.
    pub fn naive(self) -> ExploreConfig {
        ExploreConfig {
            dpor: false,
            ..self
        }
    }
}

/// What an exploration covered and found.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Model identity.
    pub model: String,
    /// Maximal interleavings executed to completion or deadlock.
    pub traces: usize,
    /// Interleavings abandoned by sleep sets as redundant.
    pub pruned: usize,
    /// Total `step` calls, replays included.
    pub steps: usize,
    /// The op budget was hit; coverage is partial and a clean report
    /// proves nothing about the unexplored suffix.
    pub truncated: bool,
    /// Deduplicated findings across all explored interleavings.
    pub findings: Vec<Finding>,
}

impl ExploreReport {
    /// No findings? (A truncated exploration can still be "clean" —
    /// callers deciding pass/fail should also consult
    /// [`ExploreReport::truncated`].)
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// One-line human summary, truncation called out explicitly.
    pub fn summary(&self) -> String {
        let verdict = if self.findings.is_empty() {
            "no findings".to_string()
        } else {
            format!("{} finding(s)", self.findings.len())
        };
        let bound = if self.truncated {
            " — TRUNCATED at op budget, coverage is partial"
        } else {
            ""
        };
        format!(
            "{}: {} interleaving(s) explored, {} pruned, {} step(s): {verdict}{bound}",
            self.model, self.traces, self.pruned, self.steps
        )
    }
}

/// One schedule-choice point on the current DFS path.
struct Node {
    /// Thread chosen at this state (the currently-executing branch).
    chosen: usize,
    /// Sleep set on entry to this state.
    sleep: BTreeSet<usize>,
    /// Choices already fully explored from this state.
    done: BTreeSet<usize>,
    /// Persistent set: choices that must be explored from this state.
    backtrack: BTreeSet<usize>,
    /// Threads enabled at this state.
    enabled: Vec<usize>,
    /// Footprints of the enabled threads' pending actions here.
    fps: BTreeMap<usize, Footprint>,
}

/// Order-insensitive dedup key so the same defect reported from two
/// interleavings (or with the racing pair named in either order)
/// counts once.
fn finding_key(f: &Finding) -> String {
    let mut ops = f.ops.clone();
    ops.sort();
    format!("{}|{}|{}", f.class.name(), f.code, ops.join("|"))
}

/// The engine-level deadlock finding: the enabled set went empty
/// before the schedule completed.
fn deadlock_finding(model: &dyn SchedModel, depth: usize) -> Finding {
    Finding {
        class: FindingClass::Deadlock,
        code: "reachable-deadlock",
        message: format!(
            "{}: reachable deadlock — after {depth} step(s) no thread is enabled \
             but the schedule is incomplete; {}",
            model.name(),
            model.blocked_describe()
        ),
        ops: Vec::new(),
    }
}

/// Flanagan–Godefroid race detection: when node `j`'s chosen action
/// is dependent with an earlier different-thread action, register a
/// backtrack point at the latest such node. An epoch-ending action
/// also races the actions pending beside it at `j`.
fn add_backtracks(path: &mut [Node], j: usize) {
    let p = path[j].chosen;
    let Some(pf) = path[j].fps.get(&p).cloned() else {
        return;
    };
    if pf.ends_epoch() {
        let node = &mut path[j];
        let racing: Vec<usize> = node
            .fps
            .iter()
            .filter(|&(&q, qf)| q != p && qf.conflicts_reversible(&pf))
            .map(|(&q, _)| q)
            .collect();
        node.backtrack.extend(racing);
    }
    for i in (0..j).rev() {
        if path[i].chosen == p {
            continue;
        }
        let dependent = path[i]
            .fps
            .get(&path[i].chosen)
            .is_some_and(|cf| cf.conflicts_reversible(&pf));
        if dependent {
            if path[i].enabled.contains(&p) {
                path[i].backtrack.insert(p);
            } else {
                // `p` was not schedulable there; conservatively try
                // everything that was.
                let all: Vec<usize> = path[i].enabled.clone();
                path[i].backtrack.extend(all);
            }
            break;
        }
    }
}

/// Sleep set handed to the successor state after executing `chosen`
/// at `node`: previously-explored siblings stay asleep only while
/// independent of the executed action.
fn successor_sleep(node: &Node, chosen: usize) -> BTreeSet<usize> {
    let Some(cf) = node.fps.get(&chosen) else {
        return BTreeSet::new();
    };
    node.sleep
        .iter()
        .chain(node.done.iter())
        .copied()
        .filter(|&q| q != chosen && node.fps.get(&q).is_some_and(|qf| !qf.conflicts(cf)))
        .collect()
}

/// Explore every reachable interleaving of `model` (up to the op
/// budget), running its invariant hooks along the way.
pub fn explore(model: &mut dyn SchedModel, cfg: &ExploreConfig) -> ExploreReport {
    let mut rep = ExploreReport {
        model: model.name(),
        traces: 0,
        pruned: 0,
        steps: 0,
        truncated: false,
        findings: Vec::new(),
    };
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut push = |rep: &mut ExploreReport, f: Finding| {
        if seen.insert(finding_key(&f)) {
            rep.findings.push(f);
        }
    };

    model.reset();
    let mut path: Vec<Node> = Vec::new();
    // Sleep set for the state the model currently sits in.
    let mut sleep_next: BTreeSet<usize> = BTreeSet::new();

    'explore: loop {
        // Forward extension: run the current interleaving out.
        loop {
            if model.is_done() {
                for f in model.check_final() {
                    push(&mut rep, f);
                }
                rep.traces += 1;
                break;
            }
            let enabled: Vec<usize> = (0..model.n_threads())
                .filter(|&t| model.enabled(t))
                .collect();
            if enabled.is_empty() {
                push(&mut rep, deadlock_finding(model, path.len()));
                rep.traces += 1;
                break;
            }
            let fps: BTreeMap<usize, Footprint> = enabled
                .iter()
                .map(|&t| (t, model.next_footprint(t)))
                .collect();
            let sleep = if cfg.dpor {
                sleep_next.clone()
            } else {
                BTreeSet::new()
            };
            let Some(&t) = enabled.iter().find(|t| !sleep.contains(t)) else {
                // Every enabled thread is asleep: this interleaving
                // only commutes independent actions of one already
                // explored.
                rep.pruned += 1;
                break;
            };
            path.push(Node {
                chosen: t,
                sleep,
                done: BTreeSet::new(),
                backtrack: BTreeSet::from([t]),
                enabled,
                fps,
            });
            let j = path.len() - 1;
            if cfg.dpor {
                add_backtracks(&mut path, j);
            }
            if rep.steps >= cfg.max_ops {
                rep.truncated = true;
                break 'explore;
            }
            model.step(t);
            rep.steps += 1;
            for f in model.check_state() {
                push(&mut rep, f);
            }
            sleep_next = if cfg.dpor {
                successor_sleep(&path[j], t)
            } else {
                BTreeSet::new()
            };
        }

        // Backtrack to the deepest node with an unexplored mandatory
        // choice, replay the prefix, and branch.
        loop {
            let Some(j) = path.len().checked_sub(1) else {
                break 'explore;
            };
            let chosen = path[j].chosen;
            path[j].done.insert(chosen);
            let next = {
                let n = &path[j];
                let pool: Vec<usize> = if cfg.dpor {
                    n.backtrack.iter().copied().collect()
                } else {
                    n.enabled.clone()
                };
                pool.into_iter()
                    .find(|q| !n.done.contains(q) && !n.sleep.contains(q) && n.fps.contains_key(q))
            };
            let Some(q) = next else {
                path.pop();
                continue;
            };
            // Replay the prefix up to (not including) node j.
            model.reset();
            for node in path.iter().take(j) {
                if rep.steps >= cfg.max_ops {
                    rep.truncated = true;
                    break 'explore;
                }
                model.step(node.chosen);
                rep.steps += 1;
            }
            path[j].chosen = q;
            if cfg.dpor {
                add_backtracks(&mut path, j);
            }
            if rep.steps >= cfg.max_ops {
                rep.truncated = true;
                break 'explore;
            }
            model.step(q);
            rep.steps += 1;
            for f in model.check_state() {
                push(&mut rep, f);
            }
            sleep_next = if cfg.dpor {
                successor_sleep(&path[j], q)
            } else {
                BTreeSet::new()
            };
            continue 'explore;
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy model: each thread runs `per_thread` ops against its own
    /// resource (`shared == false`) or one shared resource
    /// (`shared == true`).
    struct Counters {
        threads: usize,
        per_thread: usize,
        shared: bool,
        pc: Vec<usize>,
    }

    impl Counters {
        fn new(threads: usize, per_thread: usize, shared: bool) -> Counters {
            Counters {
                threads,
                per_thread,
                shared,
                pc: vec![0; threads],
            }
        }
    }

    impl SchedModel for Counters {
        fn name(&self) -> String {
            "counters".into()
        }
        fn n_threads(&self) -> usize {
            self.threads
        }
        fn reset(&mut self) {
            self.pc = vec![0; self.threads];
        }
        fn enabled(&self, t: usize) -> bool {
            self.pc[t] < self.per_thread
        }
        fn is_done(&self) -> bool {
            self.pc.iter().all(|&p| p == self.per_thread)
        }
        fn next_footprint(&self, t: usize) -> Footprint {
            let g = if self.shared { 0 } else { t };
            Footprint::write(Res::Gpu(g))
        }
        fn step(&mut self, t: usize) {
            self.pc[t] += 1;
        }
        fn blocked_describe(&self) -> String {
            "counters never block".into()
        }
    }

    /// Thread 1 waits forever on a flag thread 0 never raises.
    struct Stuck {
        stepped: bool,
    }

    impl SchedModel for Stuck {
        fn name(&self) -> String {
            "stuck".into()
        }
        fn n_threads(&self) -> usize {
            2
        }
        fn reset(&mut self) {
            self.stepped = false;
        }
        fn enabled(&self, t: usize) -> bool {
            t == 0 && !self.stepped
        }
        fn is_done(&self) -> bool {
            false
        }
        fn next_footprint(&self, _t: usize) -> Footprint {
            Footprint::global()
        }
        fn step(&mut self, _t: usize) {
            self.stepped = true;
        }
        fn blocked_describe(&self) -> String {
            "thread 1 waits on a flag nobody raises".into()
        }
    }

    #[test]
    fn independent_threads_collapse_to_one_trace() {
        let mut m = Counters::new(3, 2, false);
        let dpor = explore(&mut m, &ExploreConfig::default());
        assert!(dpor.is_clean(), "{:?}", dpor.findings);
        assert!(!dpor.truncated);
        assert_eq!(dpor.traces, 1, "independent ops need one interleaving");
        let naive = explore(&mut m, &ExploreConfig::default().naive());
        // 6 ops, 2 per thread: 6!/(2!·2!·2!) = 90 interleavings.
        assert_eq!(naive.traces, 90);
        assert!(dpor.traces < naive.traces, "the reduction must be real");
    }

    #[test]
    fn dependent_threads_still_explore_both_orders() {
        let mut m = Counters::new(2, 1, true);
        let dpor = explore(&mut m, &ExploreConfig::default());
        assert_eq!(dpor.traces, 2, "conflicting writes: both orders matter");
        let naive = explore(&mut m, &ExploreConfig::default().naive());
        assert_eq!(naive.traces, 2);
    }

    #[test]
    fn deadlock_is_reported_once() {
        let mut m = Stuck { stepped: false };
        let rep = explore(&mut m, &ExploreConfig::default());
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].class, FindingClass::Deadlock);
        assert_eq!(rep.findings[0].code, "reachable-deadlock");
        assert!(rep.findings[0].message.contains("nobody raises"));
    }

    #[test]
    fn op_budget_truncates_with_a_report() {
        let mut m = Counters::new(3, 3, true);
        let rep = explore(&mut m, &ExploreConfig::with_max_ops(10));
        assert!(rep.truncated);
        assert!(rep.steps <= 10);
        assert!(rep.summary().contains("TRUNCATED"));
    }

    #[test]
    fn footprint_conflicts_and_reversibility() {
        let epoch = Footprint::write(Res::Epoch);
        let gpu = Footprint::write(Res::Gpu(0));
        assert!(
            epoch.conflicts(&gpu),
            "an epoch end is dependent for sleep sets"
        );
        assert!(
            !epoch.conflicts_reversible(&gpu),
            "but its Epoch access seeds no backtrack point"
        );
        assert!(epoch.and_read(Res::Gpu(0)).conflicts_reversible(&gpu));
        let a = Footprint::write(Res::Buf(Buffer::Host {
            region: 1,
            start: 0,
            len: 10,
        }));
        let b = Footprint::default().and_read(Res::Buf(Buffer::Host {
            region: 1,
            start: 5,
            len: 10,
        }));
        let c = Footprint::write(Res::Buf(Buffer::Host {
            region: 1,
            start: 20,
            len: 10,
        }));
        assert!(a.conflicts(&b), "overlapping ranges conflict");
        assert!(!a.conflicts(&c), "disjoint ranges commute");
        assert!(Footprint::global().conflicts(&c));
        let read = || Footprint::default().and_read(Res::Pinned);
        assert!(!read().conflicts(&read()));
        assert!(read().conflicts(&Footprint::write(Res::Pinned)));
    }
}
