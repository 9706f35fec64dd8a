//! The per-layer ladder: every layer of the repo timed from outside, by
//! calling its public functions at the workload's geometry inside the
//! `replay` span tree. Nothing here runs in the untraced pass.
//!
//! Kernel replays use `par::default_threads()` threads and assert each
//! output bit-equal to a reference before its time is reported, so a
//! faster-but-wrong kernel cannot post a number.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use hetsort_algos::merge::{merge_into, merge_into_reference, par_merge_into_cfg};
use hetsort_algos::multiway::{multiway_merge_into, par_multiway_merge_into_cfg};
use hetsort_algos::par::{default_threads, par_copy, SchedCfg};
use hetsort_algos::radix::radix_sort;
use hetsort_algos::radix_par::par_radix_sort_cfg;
use hetsort_algos::verify::{fingerprint, is_sorted};
use hetsort_analyze::{analyze_plan, Residency};
use hetsort_core::{execute_dag, simulate_dag, HetSortConfig, Plan, PlanDag, TimingReport};
use hetsort_obs::{chrome_trace, OpClass};
use hetsort_serve::{AdmissionController, ServeBudget};
use hetsort_sim::{max_min_rates, Flow, Op, SimBuilder};
use hetsort_vgpu::{Machine, PlatformSpec, TransferDir};
use hetsort_workloads::{generate, Distribution};

use crate::metrics::Metric;
use crate::procstat;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workload::{
    bit_equal, lower, reference_sort, Primary, ServeInput, SortInput, SortSpec, Spec, Tally,
};

/// What the replay hands back besides the metrics.
#[derive(Debug, Default)]
pub struct Replay {
    /// One entry per per-layer metric this module owns.
    pub metrics: Vec<Metric>,
    /// Checks made during the replay (kernel outputs, engine runs).
    pub tally: Tally,
    /// Array sizes behind the two memcpy rooflines, for the provenance
    /// block: `(working-set bytes, DRAM array bytes)`.
    pub roofline_bytes: (u64, u64),
}

struct Ctx<'a> {
    rec: &'a mut Recorder,
    out: Replay,
}

impl Ctx<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.out.metrics.push(Metric { name, value });
    }

    fn check(&mut self, ok: bool, what: &str) -> Result<(), String> {
        self.out.tally.attempted += 1;
        if ok {
            Ok(())
        } else {
            self.out.tally.failed += 1;
            Err(format!("replay check failed: {what}"))
        }
    }

    /// Median duration of `reps` runs of `f` under span `name`; `prep`
    /// runs before each one, outside the span. Returns the last result.
    fn median_of<S, R>(
        &mut self,
        name: &str,
        reps: usize,
        mut prep: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) -> (R, f64) {
        let mut times = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps.max(1) {
            let state = prep();
            let (r, t) = self.rec.timed(name, || f(state));
            times.push(t);
            last = Some(r);
        }
        (last.expect("at least one repetition ran"), median(&times))
    }
}

/// Largest array the DRAM memcpy roofline allocates, in bytes.
const DRAM_ARRAY_CAP: u64 = 128 << 20;

/// Kernel repetitions: enough for a median, few enough for the budget.
const REPS: usize = 3;

fn melem_per_s(elems: usize, seconds: f64) -> f64 {
    elems as f64 / seconds / 1e6
}

fn gbps(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / seconds / 1e9
}

/// Fewest elements per thread worth a thread: below 1 MiB each, the
/// spawn costs more than the copy and one thread is the roofline.
const MIN_COPY_PER_THREAD: usize = 1 << 17;

/// `copy_from_slice` split over `threads` scoped threads: the memcpy
/// roofline the kernels are compared to.
fn threaded_copy(threads: usize, src: &[f64], dst: &mut [f64]) {
    if threads <= 1 || src.len() < threads * MIN_COPY_PER_THREAD {
        dst.copy_from_slice(src);
        return;
    }
    let chunk = src.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (from, to) in src.chunks(chunk).zip(dst.chunks_mut(chunk)) {
            s.spawn(move || to.copy_from_slice(from));
        }
    });
}

/// Median seconds to copy `elems` f64 with `threads` threads. Source
/// and destination are written once first, so neither page faults nor
/// the kernel's shared zero page enter the timing.
fn memcpy_seconds(cx: &mut Ctx, name: &str, elems: usize, threads: usize) -> f64 {
    let src: Vec<f64> = (0..elems).map(|i| i as f64).collect();
    let mut dst = vec![1.0_f64; elems];
    threaded_copy(threads, &src, &mut dst);
    let ((), t) = cx.median_of(
        name,
        REPS,
        || (),
        |()| threaded_copy(threads, &src, &mut dst),
    );
    std::hint::black_box(&dst);
    t
}

/// A sorted run that is either borrowed from the input lists or owned
/// by an earlier pass of the merge tree.
enum Run<'a> {
    Borrowed(&'a [f64]),
    Owned(Vec<f64>),
}

impl Run<'_> {
    fn as_slice(&self) -> &[f64] {
        match self {
            Run::Borrowed(s) => s,
            Run::Owned(v) => v,
        }
    }
}

/// The loser tree's reference: merge `lists` with ⌈log₂ k⌉ passes of
/// the two-way `merge_into`, an odd run carried up unchanged.
fn merge_tree(lists: &[&[f64]]) -> Vec<f64> {
    let mut level: Vec<Run> = lists.iter().map(|l| Run::Borrowed(l)).collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut runs = level.into_iter();
        while let Some(a) = runs.next() {
            next.push(match runs.next() {
                Some(b) => {
                    let (a, b) = (a.as_slice(), b.as_slice());
                    let mut out = vec![0.0; a.len() + b.len()];
                    merge_into(a, b, &mut out);
                    Run::Owned(out)
                }
                None => a,
            });
        }
        level = next;
    }
    match level.pop() {
        Some(Run::Owned(v)) => v,
        Some(Run::Borrowed(s)) => s.to_vec(),
        None => Vec::new(),
    }
}

/// Cut `input`'s keys into the `k` sorted lists its plan's final merge
/// sees: the pair-merged slots hold two batches, the rest one.
fn final_lists(input: &SortInput, k: usize) -> Vec<Vec<f64>> {
    let batches = &input.plan.batches;
    let nb = batches.len();
    let mut bounds = vec![0usize];
    if nb >= k {
        let doubles = nb - k;
        let mut b = 0;
        for slot in 0..k {
            b += if slot < doubles { 2 } else { 1 };
            bounds.push(batches.get(b).map_or(input.data.len(), |bi| bi.start));
        }
    } else {
        bounds.extend((1..=k).map(|i| input.data.len() * i / k));
    }
    bounds
        .windows(2)
        .map(|w| reference_sort(&input.data[w[0]..w[1]]))
        .collect()
}

struct KernelTimes {
    kernel_sum_s: f64,
    generate_s: f64,
}

fn harness_rooflines(cx: &mut Ctx, spec: &Spec, input: &SortInput) {
    let threads = default_threads();
    let elems = input.data.len();
    let t = memcpy_seconds(cx, "harness.memcpy", elems, threads);
    cx.put("harness.memcpy_gbps", gbps(elems * 8, t));

    // Arrays of four last-level caches each, so the copy runs from
    // memory — but never more than DRAM_ARRAY_CAP: on the reference VM
    // the first touch of guest memory the host has not backed yet costs
    // about 6 s per GiB, and a reported LLC of 260 MiB would ask for
    // 2 GiB. Both sizes go into the provenance block.
    let llc = procstat::llc_bytes();
    let want = (4 * llc).max(elems as u64 * 8) / spec.scale as u64;
    let bytes = want.clamp(1 << 16, DRAM_ARRAY_CAP);
    let dram_elems = usize::try_from(bytes / 8).unwrap_or(1 << 13);
    let t = memcpy_seconds(cx, "harness.memcpy_dram", dram_elems, threads);
    cx.put("harness.memcpy_dram_gbps", gbps(dram_elems * 8, t));
    cx.out.roofline_bytes = (elems as u64 * 8, dram_elems as u64 * 8);
}

fn algos_layer(cx: &mut Ctx, input: &SortInput, seed: u64) -> Result<KernelTimes, String> {
    let threads = default_threads();
    let sched = SchedCfg::default();
    let plan = &input.plan;
    let n = input.data.len();
    let batch = |i: usize| {
        let b = plan.batches[i.min(plan.batches.len() - 1)];
        &input.data[b.start..b.start + b.len]
    };
    let (b0, b1) = (batch(0), batch(1));
    let bs = b0.len();

    let (w, generate_s) = cx
        .rec
        .timed("workloads.generate", || generate(input.spec.dist, n, seed));
    let same = w.is_ok_and(|w| bit_equal(&w.data, &input.data));
    cx.check(same, "generate repeats for the same seed")?;
    cx.put("workloads.generate_melem_per_s", melem_per_s(n, generate_s));

    // Radix sort of one batch: the GPUSort stand-in, and its plain
    // single-thread baseline.
    let sorted0 = reference_sort(b0);
    let sorted1 = reference_sort(b1);
    let (buf, radix_s) = cx.median_of(
        "algos.radix",
        REPS,
        || b0.to_vec(),
        |mut buf| {
            par_radix_sort_cfg(&sched, threads, &mut buf);
            buf
        },
    );
    cx.check(bit_equal(&buf, &sorted0), "par_radix_sort_cfg output")?;
    let (buf, radix_seq_s) = cx.median_of(
        "algos.radix_seq",
        REPS,
        || b0.to_vec(),
        |mut buf| {
            radix_sort(&mut buf);
            buf
        },
    );
    cx.check(bit_equal(&buf, &sorted0), "radix_sort output")?;
    let copy_bs_s = memcpy_seconds(cx, "harness.memcpy_batch", bs, threads);
    cx.put("algos.radix_melem_per_s", melem_per_s(bs, radix_s));
    cx.put("algos.radix_seq_melem_per_s", melem_per_s(bs, radix_seq_s));
    cx.put("algos.radix_memcpy_equiv", radix_s / copy_bs_s);

    // Two-way merges of two sorted batches.
    let pair_len = sorted0.len() + sorted1.len();
    let pair_ref = reference_sort(&[b0, b1].concat());
    let mut out = vec![0.0_f64; pair_len];
    let ((), pair_s) = cx.median_of(
        "algos.pair_merge",
        REPS,
        || (),
        |()| {
            par_merge_into_cfg(&sched, threads, &sorted0, &sorted1, &mut out);
        },
    );
    cx.check(bit_equal(&out, &pair_ref), "par_merge_into_cfg output")?;
    let ((), seq_s) = cx.median_of(
        "algos.merge_seq",
        REPS,
        || (),
        |()| merge_into(&sorted0, &sorted1, &mut out),
    );
    cx.check(bit_equal(&out, &pair_ref), "merge_into output")?;
    let ((), branchy_s) = cx.median_of(
        "algos.merge_reference",
        REPS,
        || (),
        |()| merge_into_reference(&sorted0, &sorted1, &mut out),
    );
    cx.check(bit_equal(&out, &pair_ref), "merge_into_reference output")?;
    let copy_pair_s = memcpy_seconds(cx, "harness.memcpy_pair", pair_len, threads);
    cx.put(
        "algos.pair_merge_melem_per_s",
        melem_per_s(pair_len, pair_s),
    );
    cx.put("algos.pair_merge_memcpy_equiv", pair_s / copy_pair_s);
    cx.put("algos.merge_seq_melem_per_s", melem_per_s(pair_len, seq_s));
    cx.put("algos.merge_branchless_speedup", branchy_s / seq_s);
    drop(out);

    // The final merge at the plan's fan-in: parallel, single loser
    // tree, and the loser tree's reference — a log₂k-pass tree of
    // two-way merges over the identical lists.
    let k = plan.multiway_k().max(2);
    let lists = final_lists(input, k);
    let views: Vec<&[f64]> = lists.iter().map(Vec::as_slice).collect();
    let mut out = vec![0.0_f64; n];
    let ((), multiway_s) = cx.median_of(
        "algos.multiway",
        REPS,
        || (),
        |()| {
            par_multiway_merge_into_cfg(&sched, threads, &views, &mut out);
        },
    );
    cx.check(
        bit_equal(&out, &input.reference),
        "par_multiway_merge_into_cfg output",
    )?;
    let ((), loser_s) = cx.median_of(
        "algos.losertree",
        REPS,
        || (),
        |()| multiway_merge_into(&views, &mut out),
    );
    cx.check(
        bit_equal(&out, &input.reference),
        "multiway_merge_into output",
    )?;
    let (tree_out, tree_s) = cx.median_of("algos.merge_tree", REPS, || (), |()| merge_tree(&views));
    cx.check(bit_equal(&tree_out, &out), "merge tree equals loser tree")?;
    cx.put("algos.multiway_melem_per_s", melem_per_s(n, multiway_s));
    cx.put("algos.losertree_melem_per_s", melem_per_s(n, loser_s));
    cx.put("algos.losertree_vs_tree_ratio", tree_s / loser_s);
    drop((out, tree_out, lists));

    // Staging copies: one batch moved in pinned-buffer-sized chunks.
    let ps = plan.config.pinned_elems.clamp(1, bs);
    let mut dst = vec![0.0_f64; bs];
    let ((), copy_s) = cx.median_of(
        "algos.par_copy",
        REPS,
        || (),
        |()| {
            for (from, to) in b0.chunks(ps).zip(dst.chunks_mut(ps)) {
                par_copy(threads, from, to);
            }
        },
    );
    cx.check(bit_equal(&dst, b0), "par_copy output")?;
    cx.put("algos.par_copy_gbps", gbps(bs * 8, copy_s));
    cx.put("algos.par_copy_over_memcpy", copy_bs_s / copy_s);

    let (ok, verify_s) = cx.rec.timed("algos.verify", || {
        is_sorted(&input.reference) && fingerprint(&input.reference) == fingerprint(&input.data)
    });
    cx.check(ok, "is_sorted + fingerprint of the reference")?;
    // Two fingerprints and one sortedness scan: three passes over n.
    cx.put("algos.verify_melem_per_s", melem_per_s(3 * n, verify_s));

    // What one iteration's plan would cost if it were kernels only:
    // every batch sorted, every pair merged, one final merge, and each
    // element staged through pinned memory once in and once out.
    let staged_s = copy_s * (2 * n) as f64 / bs as f64;
    let kernel_sum_s = plan.nb() as f64 * radix_s
        + plan.pairs.len() as f64 * pair_s
        + if plan.nb() > 1 { multiway_s } else { 0.0 }
        + staged_s;
    cx.put("algos.kernel_sum_s", kernel_sum_s);
    Ok(KernelTimes {
        kernel_sum_s,
        generate_s,
    })
}

/// Engine run of the kernel geometry: `core.execute_s` and everything
/// read off the returned `RealOutcome`.
fn core_execute(cx: &mut Ctx, input: &SortInput, kernel_sum_s: f64) -> Result<f64, String> {
    let dag = lower(input.plan.clone())?;
    let pooled = input.spec.pooled;
    let (out, execute_s) = cx.rec.timed("core.execute", || input.execute(&dag, pooled));
    let out = out?;
    cx.check(input.check(&out), "engine output")?;
    let (other, other_s) = cx
        .rec
        .timed("core.execute_other_engine", || input.execute(&dag, !pooled));
    cx.check(input.check(&other?), "other engine's output")?;
    let (pooled_s, seq_s) = if pooled {
        (execute_s, other_s)
    } else {
        (other_s, execute_s)
    };
    let busy = |c: OpClass| out.metrics.class_stats(c).busy_s;
    cx.put("core.execute_s", execute_s);
    cx.put("core.engine_overhead_ratio", execute_s / kernel_sum_s);
    cx.put("core.span.gpusort_s", busy(OpClass::GpuSort));
    cx.put("core.span.staging_s", busy(OpClass::StagingCopy));
    cx.put("core.span.htod_s", busy(OpClass::HtoD));
    cx.put("core.span.dtoh_s", busy(OpClass::DtoH));
    cx.put("core.span.pair_merge_s", busy(OpClass::PairMerge));
    cx.put("core.span.multiway_s", busy(OpClass::MultiwayMerge));
    cx.put("core.span.cpu_part_s", busy(OpClass::CpuPart));
    cx.put(
        "core.unattributed_s",
        execute_s - out.metrics.union_total_s(),
    );
    cx.put("core.pool_hits", out.metrics.counter("pool.hits"));
    cx.put("core.pool_misses", out.metrics.counter("pool.misses"));
    cx.put("core.pooled_over_seq_ratio", pooled_s / seq_s);
    Ok(execute_s)
}

/// Plan build, dag lowering and simulation of the workload's own plan
/// set (one plan, or every job plan of the mix). Returns the plans and
/// the simulation report of the largest one.
fn core_plans(
    cx: &mut Ctx,
    set: &[(HetSortConfig, usize)],
) -> Result<(Vec<PlanDag>, TimingReport), String> {
    let (mut build_s, mut lower_s, mut sim_s) = (0.0, 0.0, 0.0);
    let (mut nodes, mut spans, mut total_s) = (0usize, 0usize, 0.0_f64);
    let mut dags = Vec::with_capacity(set.len());
    let mut largest: Option<TimingReport> = None;
    for (cfg, n) in set {
        let (plan, t) = cx
            .rec
            .timed("core.plan_build", || Plan::build(cfg.clone(), *n));
        build_s += t;
        let plan = plan.map_err(|e| e.to_string())?;
        let (dag, t) = cx.rec.timed("core.dag_lower", || lower(plan));
        lower_s += t;
        let dag = dag?;
        let (report, t) = cx.rec.timed("core.simulate_dag", || simulate_dag(&dag));
        sim_s += t;
        let report = report.map_err(|e| e.to_string())?;
        nodes += dag.nodes.len();
        spans += report.timeline.spans().len();
        total_s += report.total_s;
        if largest
            .as_ref()
            .is_none_or(|l| l.timeline.spans().len() < report.timeline.spans().len())
        {
            largest = Some(report);
        }
        dags.push(dag);
    }
    cx.check(
        spans >= nodes && total_s.is_finite() && total_s > 0.0,
        "simulated totals",
    )?;
    cx.put("core.plan_build_s", build_s);
    cx.put("core.dag_lower_s", lower_s);
    cx.put("core.dag_nodes", nodes as f64);
    cx.put("core.simulate_dag_s", sim_s);
    cx.put("core.sim_us_per_op", sim_s / nodes as f64 * 1e6);
    cx.put("sim.model_total_s", total_s);
    cx.put("sim.timeline_spans", spans as f64);
    let largest = largest.ok_or("the workload has no plan to simulate")?;
    Ok((dags, largest))
}

/// A pipeline-shaped op sequence: per batch, `chunks` staged transfers
/// in, one sort, `chunks` staged transfers out, on the batch's stream;
/// then pair merges and one multiway merge. The same sequence is
/// lowered once through `vgpu::Machine` and once straight onto a
/// `SimBuilder`, so each layer's cost is timed without the other's.
#[derive(Debug, Clone, Copy)]
struct PipelineShape {
    batches: usize,
    chunks: usize,
    streams: usize,
    gpus: usize,
    pairs: usize,
}

impl PipelineShape {
    fn of(dag: &PlanDag) -> PipelineShape {
        let plan = &dag.plan;
        let cfg = &plan.config;
        PipelineShape {
            batches: plan.nb().max(1),
            chunks: cfg.batch_elems.div_ceil(cfg.pinned_elems.max(1)).max(1),
            streams: plan.total_streams.max(1),
            gpus: cfg.platform.n_gpus().max(1),
            pairs: plan.pairs.len(),
        }
    }

    fn ops(&self) -> usize {
        self.batches * (4 * self.chunks + 1) + self.pairs.min(self.batches / 2) + 1
    }

    /// About an eighth of the ops, same structure.
    fn eighth(&self) -> PipelineShape {
        if self.batches >= 8 {
            PipelineShape {
                batches: self.batches / 8,
                pairs: self.pairs / 8,
                ..*self
            }
        } else {
            PipelineShape {
                chunks: (self.chunks / 8).max(1),
                ..*self
            }
        }
    }

    fn on_machine(&self, plat: &PlatformSpec) -> Machine {
        let mut m = Machine::new(plat.clone());
        let streams: Vec<_> = (0..self.streams)
            .map(|s| m.stream(format!("s{s}")))
            .collect();
        let (chunk_bytes, batch_elems) = (8.0e6, 1.0e6 * self.chunks as f64);
        let mut tails = Vec::with_capacity(self.batches);
        for b in 0..self.batches {
            let q = Some(streams[b % self.streams]);
            let gpu = (b % self.streams) % self.gpus;
            let key = b as u64;
            for _ in 0..self.chunks {
                m.host_memcpy(true, chunk_bytes, 1, q, &[], None, key);
                m.transfer(
                    TransferDir::HtoD,
                    gpu,
                    chunk_bytes,
                    true,
                    true,
                    q,
                    &[],
                    None,
                    key,
                );
            }
            m.gpu_sort(gpu, batch_elems, q, &[], None, key);
            let mut tail = None;
            for _ in 0..self.chunks {
                m.transfer(
                    TransferDir::DtoH,
                    gpu,
                    chunk_bytes,
                    true,
                    true,
                    q,
                    &[],
                    None,
                    key,
                );
                tail = Some(m.host_memcpy(false, chunk_bytes, 1, q, &[], None, key));
            }
            tails.extend(tail);
        }
        let mut inputs = Vec::new();
        let mut it = tails.chunks(2);
        for _ in 0..self.pairs {
            match it.next() {
                Some(&[a, b]) => inputs.push(m.pair_merge(2.0 * batch_elems, 8, &[a, b], None)),
                _ => break,
            }
        }
        inputs.extend(it.flatten().copied());
        let total = batch_elems * self.batches as f64;
        m.multiway_merge(total, inputs.len(), 16, &inputs, None);
        m
    }

    fn on_builder(&self, plat: &PlatformSpec) -> SimBuilder {
        let mut sb = SimBuilder::new();
        let cores = sb.fluid("cpu_cores", f64::from(plat.cpu.cores));
        let bus = sb.fluid("host_bus", plat.cpu.bus_traffic_bps);
        let h2d = sb.fluid("pcie_h2d", plat.pcie.pinned_bps);
        let d2h = sb.fluid("pcie_d2h", plat.pcie.pinned_bps);
        let bidir = sb.fluid("pcie_bidir", plat.pcie.bidir_total_bps);
        let engines: Vec<_> = (0..self.gpus)
            .map(|g| {
                (
                    sb.tokens(format!("gpu{g}_exec"), 1),
                    sb.tokens(format!("gpu{g}_ce_h2d"), 1),
                    sb.tokens(format!("gpu{g}_ce_d2h"), 1),
                )
            })
            .collect();
        let streams: Vec<_> = (0..self.streams)
            .map(|s| sb.queue(format!("s{s}")))
            .collect();
        let tags = [
            "MCpyIn",
            "HtoD",
            "GPUSort",
            "DtoH",
            "MCpyOut",
            "PairMerge",
            "MultiwayMerge",
        ]
        .map(|t| sb.tag(t));
        let (chunk_bytes, batch_elems) = (8.0e6, 1.0e6 * self.chunks as f64);
        let copy_bps = plat.cpu.memcpy_core_bps;
        let pcie = plat.pcie.pinned_bps;
        let mut tails = Vec::with_capacity(self.batches);
        for b in 0..self.batches {
            let q = streams[b % self.streams];
            let (exec, ce_in, ce_out) = engines[(b % self.streams) % self.gpus];
            let key = b as u64;
            let memcpy = |tag| {
                Op::new(tag, chunk_bytes)
                    .cap(copy_bps)
                    .weight(copy_bps)
                    .demand(bus, 2.0)
                    .demand(cores, 1.0 / copy_bps)
                    .queue(q)
                    .key(key)
            };
            let dma = |tag, link, engine| {
                Op::new(tag, chunk_bytes)
                    .cap(pcie)
                    .weight(pcie)
                    .latency(plat.pcie.chunk_sync_s)
                    .demand(link, 1.0)
                    .demand(bidir, 1.0)
                    .tokens(engine, 1)
                    .queue(q)
                    .key(key)
            };
            for _ in 0..self.chunks {
                sb.op(memcpy(tags[0]));
                sb.op(dma(tags[1], h2d, ce_in));
            }
            let rate = plat.gpus[0].sort_keys_per_s;
            sb.op(Op::new(tags[2], batch_elems)
                .cap(rate)
                .weight(rate)
                .latency(plat.gpus[0].kernel_launch_s)
                .tokens(exec, 1)
                .queue(q)
                .key(key));
            let mut tail = None;
            for _ in 0..self.chunks {
                sb.op(dma(tags[3], d2h, ce_out));
                tail = Some(sb.op(memcpy(tags[4])));
            }
            tails.extend(tail);
        }
        let merge_rate = 1e9 / plat.cpu.merge_ns_per_elem_core;
        let merge = |tag, elems: f64| {
            Op::new(tag, elems)
                .cap(4.0 * merge_rate)
                .weight(4.0 * merge_rate)
                .demand(bus, plat.cpu.merge_traffic_bytes_per_elem)
                .demand(cores, 1.0 / merge_rate)
        };
        let mut inputs = Vec::new();
        let mut it = tails.chunks(2);
        for _ in 0..self.pairs {
            match it.next() {
                Some(&[a, b]) => {
                    inputs.push(sb.op(merge(tags[5], 2.0 * batch_elems).deps([a, b])));
                }
                _ => break,
            }
        }
        inputs.extend(it.flatten().copied());
        sb.op(merge(tags[6], batch_elems * self.batches as f64).deps(inputs));
        sb
    }
}

fn vgpu_and_sim_layers(cx: &mut Ctx, dag: &PlanDag) -> Result<(), String> {
    let plat = &dag.plan.config.platform;
    let shape = PipelineShape::of(dag);
    // Small shapes finish in microseconds: repeat them so the clock's
    // resolution does not set the number.
    let reps = (20_000 / shape.ops()).clamp(1, 200);

    let (m, submit_s) = cx.median_of(
        "vgpu.submit",
        reps.min(9),
        || (),
        |()| shape.on_machine(plat),
    );
    cx.check(m.op_count() == shape.ops(), "hand-lowered op count")?;
    cx.put("vgpu.submit_us_per_op", submit_s / shape.ops() as f64 * 1e6);

    let run = |cx: &mut Ctx, name: &str, shape: PipelineShape, reps: usize| {
        let (tl, t) = cx.median_of(name, reps, || shape.on_builder(plat), |sb| sb.run());
        let ok = tl.is_ok_and(|tl| tl.spans().len() == shape.ops() && tl.makespan() > 0.0);
        cx.check(ok, "engine ran the shape-matched dag").map(|()| t)
    };
    let big_s = run(cx, "sim.engine", shape, reps.min(9))?;
    let small = shape.eighth();
    let small_s = run(cx, "sim.engine_eighth", small, (8 * reps).min(200))?;
    cx.put("sim.engine_kops_per_s", shape.ops() as f64 / big_s / 1e3);
    let size_ratio = shape.ops() as f64 / small.ops() as f64;
    cx.put(
        "sim.engine_scaling_exp",
        (big_s / small_s).ln() / size_ratio.ln(),
    );

    // Sixteen flows over four resources, the size the pipelines reach.
    let flows: Vec<Flow> = (0..16)
        .map(|i| Flow {
            weight: 1.0 + (i % 3) as f64,
            cap: Some(2.0 + i as f64),
            demands: vec![(i % 4, 1.0), ((i + 1) % 4, 0.5)],
        })
        .collect();
    let capacities = [10.0, 12.0, 8.0, 20.0];
    let solves = 2_000;
    let (ok, t) = cx.rec.timed("sim.fairshare", || {
        (0..solves).all(|_| std::hint::black_box(max_min_rates(&flows, &capacities)).is_ok())
    });
    cx.check(ok, "max_min_rates solves")?;
    cx.put("sim.fairshare_solves_per_s", f64::from(solves) / t);
    Ok(())
}

fn serve_layer(cx: &mut Ctx, input: &ServeInput) -> Result<(), String> {
    let service = input.service();
    let jobs = input.build_jobs();
    let (out, run_s) = cx.rec.timed("serve.run", || service.run(jobs));
    let submitted = input.jobs.len() as u64;
    let bad = input.check(&mut None, &out);
    cx.out.tally.attempted += submitted;
    cx.out.tally.failed += bad;
    if bad > 0 {
        return Err(format!(
            "serve replay: {bad} of {submitted} jobs failed the check"
        ));
    }
    cx.put("serve.run_s", run_s);
    cx.put("serve.completed", out.completed.len() as f64);
    cx.put("serve.shed", out.shed.len() as f64);
    cx.put("serve.coalesced", out.metrics.counter("jobs_coalesced"));
    cx.put("serve.admission_decisions", out.admission_log.len() as f64);
    cx.put("serve.makespan_s", out.makespan_s);

    // What the loop spends in the two engines, replayed standalone on
    // every job's plan; the rest of `run_s` is the service's own.
    let (mut exec_s, mut sim_s, mut residency_s) = (0.0, 0.0, 0.0);
    let mut residencies = Vec::with_capacity(input.jobs.len());
    for j in &input.jobs {
        let plan = Plan::build(input.job_config(j), j.data.len()).map_err(|e| e.to_string())?;
        let (r, t) = cx
            .rec
            .timed("analyze.residency", || Residency::of_plan(&plan));
        residency_s += t;
        residencies.push(r);
        let dag = PlanDag::from_plan(plan);
        let (out, t) = cx
            .rec
            .timed("serve.replay_execute", || execute_dag(&dag, &j.data));
        exec_s += t;
        let ok = out.is_ok_and(|o| o.verified && bit_equal(&o.sorted, &j.reference));
        cx.check(ok, "standalone job execution")?;
        let (report, t) = cx.rec.timed("serve.replay_simulate", || simulate_dag(&dag));
        sim_s += t;
        cx.check(report.is_ok(), "standalone job simulation")?;
    }
    cx.put("serve.exec_share", exec_s / run_s);
    cx.put("serve.sim_share", sim_s / run_s);
    cx.put("serve.loop_overhead_s", run_s - exec_s - sim_s);
    cx.put(
        "analyze.residency_us",
        residency_s / input.jobs.len() as f64 * 1e6,
    );

    // Admission bookkeeping alone: admit every footprint in turn,
    // releasing the oldest reservations until the next one fits.
    let rounds = (20_000 / residencies.len()).max(1);
    let (ops, t) = cx.rec.timed("serve.admission", || {
        let mut ctl = AdmissionController::new(ServeBudget::new(1.0e6, 1.0e6));
        let mut held = std::collections::VecDeque::new();
        let mut ops = 0u64;
        let mut id = 0u64;
        for _ in 0..rounds {
            for r in &residencies {
                while !ctl.fits(r) {
                    ops += 2;
                    match held.pop_front() {
                        Some(old) => ctl.release(old),
                        None => break,
                    };
                }
                ctl.reserve(id, r.clone());
                held.push_back(id);
                id += 1;
                ops += 2;
            }
        }
        ops
    });
    cx.put("serve.admission_kops_per_s", ops as f64 / t / 1e3);
    Ok(())
}

fn analyze_and_obs_layers(cx: &mut Ctx, dags: &[PlanDag], report: &TimingReport) {
    let mut plan_s = 0.0;
    for dag in dags {
        let (findings, t) = cx.rec.timed("analyze.plan", || analyze_plan(&dag.plan));
        std::hint::black_box(findings);
        plan_s += t;
    }
    cx.put("analyze.plan_s", plan_s);

    let (reg, t) = cx.rec.timed("obs.registry", || report.metrics());
    cx.put("obs.registry_s", t);
    let (text, t) = cx.rec.timed("obs.metrics_json", || reg.to_json().pretty());
    std::hint::black_box(text);
    cx.put("obs.metrics_json_s", t);
    let (text, t) = cx
        .rec
        .timed("obs.chrome_trace", || chrome_trace(&reg, "hetsort"));
    std::hint::black_box(text);
    cx.put("obs.chrome_trace_s", t);
}

/// Median wall seconds of `runs` fresh processes of the `hetsort` CLI.
fn spawn_cli(
    cx: &mut Ctx,
    name: &str,
    bin: &Path,
    args: &[String],
    runs: usize,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs {
        cx.rec.open(name);
        let t0 = Instant::now();
        let status = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
        times.push(t0.elapsed().as_secs_f64());
        cx.rec.close();
        let ok = status.as_ref().is_ok_and(std::process::ExitStatus::success);
        cx.check(
            ok,
            &format!(
                "`{} {}` exits 0 ({status:?})",
                bin.display(),
                args.join(" ")
            ),
        )?;
    }
    Ok(median(&times))
}

fn cli_args(cfg: &HetSortConfig, n: usize) -> Vec<String> {
    let platform = if cfg.platform.n_gpus() > 1 {
        "p2"
    } else {
        "p1"
    };
    [
        "-n",
        &n.to_string(),
        "--approach",
        &cfg.approach.name().to_lowercase(),
        "--platform",
        platform,
        "--batch",
        &cfg.batch_elems.to_string(),
        "--pinned",
        &cfg.pinned_elems.to_string(),
    ]
    .map(str::to_string)
    .to_vec()
}

fn cli_layer(
    cx: &mut Ctx,
    bin: &Path,
    input: &SortInput,
    sim: &PlanDag,
    seed: u64,
    in_process_s: f64,
) -> Result<(), String> {
    let startup_s = spawn_cli(cx, "cli.startup", bin, &["platforms".to_string()], 5)?;
    cx.put("cli.startup_ms", startup_s * 1e3);

    // `hetsort sort` generates uniform keys itself, so its in-process
    // counterpart is timed on uniform keys too where the workload's
    // own keys are not.
    let in_process_s = if input.spec.dist == Distribution::Uniform {
        in_process_s
    } else {
        let (keys, generate_s) = cx.rec.timed("cli.reference_generate", || {
            generate(Distribution::Uniform, input.spec.n, seed)
        });
        let data = keys.map_err(|e| e.to_string())?.data;
        let uniform = SortInput {
            spec: SortSpec {
                dist: Distribution::Uniform,
                ..input.spec.clone()
            },
            reference: reference_sort(&data),
            data,
            plan: input.plan.clone(),
        };
        let (out, execute_s) = cx.rec.timed("cli.reference_execute", || uniform.run());
        cx.check(uniform.check(&out?), "engine output on uniform keys")?;
        generate_s + execute_s
    };
    let mut args = vec!["sort".to_string()];
    args.extend(cli_args(&input.spec.cfg, input.spec.n));
    args.extend(["--seed".to_string(), seed.to_string()]);
    let sort_s = spawn_cli(cx, "cli.sort", bin, &args, REPS)?;
    cx.put("cli.sort_wall_s", sort_s);
    cx.put("cli.sort_overhead_s", sort_s - in_process_s);

    let mut args = vec!["simulate".to_string()];
    args.extend(cli_args(&sim.plan.config, sim.plan.n));
    let runs = if sim.nodes.len() > 5_000 { 2 } else { REPS };
    let simulate_s = spawn_cli(cx, "cli.simulate", bin, &args, runs)?;
    cx.put("cli.simulate_wall_s", simulate_s);
    Ok(())
}

/// Run the whole ladder for `spec` under one `replay` root span.
///
/// `primary` is the workload's prepared input; the companions it lacks
/// (a functional sort on `sim_paper` and `serve_mix`, a service mix
/// everywhere else) are prepared here from the same seed.
///
/// # Errors
///
/// The first failed check or typed program error, as text: a layer
/// that computes a wrong answer gets no number.
pub fn replay(
    spec: &Spec,
    seed: u64,
    primary: &Primary,
    cli_bin: &Path,
    rec: &mut Recorder,
) -> Result<Replay, String> {
    rec.open("replay");
    let mut cx = Ctx {
        rec,
        out: Replay::default(),
    };
    let companion_sort;
    let sort = match primary {
        Primary::Sort(s) => s,
        _ => {
            companion_sort = SortInput::prepare(&spec.sort, seed)?;
            &companion_sort
        }
    };
    let companion_mix;
    let mix = match primary {
        Primary::Serve { input, .. } => input,
        _ => {
            companion_mix = ServeInput::prepare(spec.serve_jobs, seed);
            &companion_mix
        }
    };
    let plan_set: Vec<(HetSortConfig, usize)> = match primary {
        Primary::Serve { input, .. } => input
            .jobs
            .iter()
            .map(|j| (input.job_config(j), j.data.len()))
            .collect(),
        _ => vec![(spec.sim.cfg.clone(), spec.sim.n)],
    };

    harness_rooflines(&mut cx, spec, sort);
    let kernels = algos_layer(&mut cx, sort, seed)?;
    let execute_s = core_execute(&mut cx, sort, kernels.kernel_sum_s)?;
    let (dags, report) = core_plans(&mut cx, &plan_set)?;
    let largest = dags
        .iter()
        .max_by_key(|d| d.nodes.len())
        .ok_or("the workload has no plan")?;
    vgpu_and_sim_layers(&mut cx, largest)?;
    serve_layer(&mut cx, mix)?;
    analyze_and_obs_layers(&mut cx, &dags, &report);
    cli_layer(
        &mut cx,
        cli_bin,
        sort,
        largest,
        seed,
        kernels.generate_s + execute_s,
    )?;
    let out = cx.out;
    rec.close();
    Ok(out)
}
