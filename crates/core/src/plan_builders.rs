//! The one lowering: each paper approach emitted straight as an op-dag.
//!
//! The four approaches (§III-D) share one pipeline — batch geometry,
//! the pipelined pair-merge schedule, and FIFO node emission — and
//! differ only in what they ask of it: blocking approaches stage
//! through one pinned buffer per host thread with synchronous
//! transfers, piped approaches run `n_s` streams per GPU with separate
//! in/out pinned buffers and asynchronous chunked transfers, and
//! PIPEMERGE additionally schedules pair merges. [`build`] emits the
//! [`DagNode`]s every interpreter reads — there is no second IR and no
//! conversion pass: dependency lists are duplicate-free as emitted
//! (every edge is load-bearing, which is what makes "any single edge
//! deletion is rejected" a theorem the property suite can test) and
//! hybrid routing ([`HybridMode`]) types the selected pair-merge slots
//! [`DagOp::CpuMerge`] here, so every consumer of a plan sees the
//! identical hybrid dag. [`build_dag`] wraps the result as the
//! [`PlanDag`] the engines execute.

use hetsort_vgpu::calib::amdahl_speedup;

use crate::config::{HetSortConfig, HybridMode, PairStrategy};
use crate::dag::{DagNode, DagOp, PlanDag};
use crate::error::HetSortError;
use crate::plan::{BatchInfo, MergeSrc, PairSpec, Plan};

/// Build the plan for sorting `n` elements under `config`.
///
/// # Errors
///
/// Propagates [`HetSortConfig::validate`] failures
/// ([`HetSortError::Config`]).
pub fn build(config: HetSortConfig, n: usize) -> Result<Plan, HetSortError> {
    config.validate(n)?;
    Ok(lower(config, n))
}

/// Build and wrap in one step: the [`PlanDag`] the engines execute.
///
/// # Errors
///
/// As [`build`].
pub fn build_dag(config: HetSortConfig, n: usize) -> Result<PlanDag, HetSortError> {
    Ok(PlanDag::from_plan(build(config, n)?))
}

/// Batch geometry: round-robin stream and GPU assignment.
fn geometry(config: &HetSortConfig, n: usize) -> (usize, usize, usize, Vec<BatchInfo>) {
    let nb = config.n_batches(n);
    let ngpu = config.platform.n_gpus().max(1);
    let piped = config.approach.is_piped();
    // Piped: n_s streams per GPU. Blocking: one host thread per GPU
    // (the paper's 2-GPU lower-bound run drives both K40m's with
    // blocking calls concurrently, §IV-G), never more than n_b.
    let total_streams = if piped {
        (config.streams_per_gpu * ngpu).min(nb.max(1))
    } else {
        ngpu.min(nb.max(1))
    };
    // Batch geometry and stream/GPU assignment (round-robin; each GPU
    // owns n_s stream slots → batches alternate across GPUs).
    let bs = config.batch_elems;
    let mut batches = Vec::with_capacity(nb);
    for b in 0..nb {
        let start = b * bs;
        let len = bs.min(n - start);
        let stream = b % total_streams;
        let gpu = stream % ngpu;
        batches.push(BatchInfo {
            index: b,
            start,
            len,
            stream,
            gpu,
        });
    }
    (nb, ngpu, total_streams, batches)
}

/// The pipelined merge schedule under the configured strategy: pair
/// specs plus the final multiway merge's inputs.
fn pair_schedule(config: &HetSortConfig, n: usize, nb: usize) -> (Vec<PairSpec>, Vec<MergeSrc>) {
    let bs = config.batch_elems;
    let batch_len = |b: usize| bs.min(n - b * bs);
    match (nb > 1, config.pair_strategy) {
        (false, _) => (Vec::new(), Vec::new()),
        (true, PairStrategy::PaperHeuristic) => {
            let npairs = config.pipelined_pair_merges(nb);
            let pairs: Vec<PairSpec> = (0..npairs)
                .map(|p| PairSpec {
                    left: MergeSrc::Batch(2 * p),
                    right: MergeSrc::Batch(2 * p + 1),
                    out_elems: batch_len(2 * p) + batch_len(2 * p + 1),
                })
                .collect();
            let mut inputs: Vec<MergeSrc> = (0..npairs).map(MergeSrc::Merged).collect();
            inputs.extend((2 * npairs..nb).map(MergeSrc::Batch));
            (pairs, inputs)
        }
        (true, PairStrategy::Online) => {
            // Rejected strategy (§III-D3): fold each arriving batch into
            // one growing run. Re-merges the accumulated prefix every
            // time.
            let mut pairs = Vec::new();
            let mut acc = MergeSrc::Batch(0);
            let mut acc_len = batch_len(0);
            for b in 1..nb {
                acc_len += batch_len(b);
                pairs.push(PairSpec {
                    left: acc,
                    right: MergeSrc::Batch(b),
                    out_elems: acc_len,
                });
                acc = MergeSrc::Merged(pairs.len() - 1);
            }
            (pairs, vec![MergeSrc::Merged(nb - 2)])
        }
        (true, PairStrategy::MergeTree) => {
            // Rejected strategy (§III-D3): a full binary merge tree;
            // upper levels are giant pairwise merges that replace the
            // cache-efficient multiway merge.
            let mut pairs: Vec<PairSpec> = Vec::new();
            let mut level: Vec<(MergeSrc, usize)> = (0..nb)
                .map(|b| (MergeSrc::Batch(b), batch_len(b)))
                .collect();
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len().div_ceil(2));
                let mut it = level.into_iter();
                while let Some((l, ll)) = it.next() {
                    match it.next() {
                        Some((r, rl)) => {
                            pairs.push(PairSpec {
                                left: l,
                                right: r,
                                out_elems: ll + rl,
                            });
                            next.push((MergeSrc::Merged(pairs.len() - 1), ll + rl));
                        }
                        None => next.push((l, ll)),
                    }
                }
                level = next;
            }
            (pairs, vec![level[0].0])
        }
    }
}

/// Which pair-merge slots hybrid routing sends to the CPU merge
/// resource, per [`HybridMode`]. The decision depends only on the
/// config and the pair slots, never on runtime state.
///
/// * [`HybridMode::Fraction`] routes the *last* `round(frac · slots)`
///   slots: later slots consume later batches and therefore contend
///   with the multiway-merge warm-up, where the spare full merge pool
///   helps most.
/// * [`HybridMode::Auto`] is deterministic greedy earliest-finish
///   scheduling between the pair-merge pool and the full CPU merge
///   pool, using the platform's calibrated merge throughput under
///   Amdahl scaling; each pool's accumulated predicted busy time is
///   the queue-depth proxy.
fn hybrid_cpu_slots(cfg: &HetSortConfig, pairs: &[PairSpec]) -> Vec<bool> {
    let n_slots = pairs.len();
    let mut cpu = vec![false; n_slots];
    match cfg.hybrid {
        HybridMode::Off => {}
        HybridMode::Fraction(f) => {
            let f = f.clamp(0.0, 1.0);
            let k = ((f * n_slots as f64).round() as usize).min(n_slots);
            for flag in cpu.iter_mut().skip(n_slots - k) {
                *flag = true;
            }
        }
        HybridMode::Auto => {
            let cpu_model = &cfg.platform.cpu;
            let per_core = 1e9 / cpu_model.merge_ns_per_elem_core;
            // The pair lane runs at the thread count the executors and
            // simulator actually grant pipelined merges; the CPU lane
            // gets the full multiway pool.
            let pair_threads = if cfg.pair_strategy == PairStrategy::PaperHeuristic {
                cfg.pair_merge_threads_eff()
            } else {
                cfg.merge_threads_eff()
            };
            let cap_pair = amdahl_speedup(
                cpu_model.merge_parallel_fraction,
                pair_threads.max(1) as usize,
            ) * per_core;
            let cap_cpu = amdahl_speedup(
                cpu_model.merge_parallel_fraction,
                cfg.merge_threads_eff().max(1) as usize,
            ) * per_core;
            let (mut busy_pair, mut busy_cpu) = (0.0f64, 0.0f64);
            for (slot, spec) in pairs.iter().enumerate() {
                let t_pair = busy_pair + spec.out_elems as f64 / cap_pair;
                let t_cpu = busy_cpu + spec.out_elems as f64 / cap_cpu;
                // Ties keep the default lane, so Auto degrades to Off
                // when the pools are indistinguishable.
                if t_cpu < t_pair {
                    cpu[slot] = true;
                    busy_cpu = t_cpu;
                } else {
                    busy_pair = t_pair;
                }
            }
        }
    }
    cpu
}

/// Node emission state: the dag so far plus each stream's FIFO tails.
/// The paper shape serializes every node of a stream on one tail;
/// double-buffered staging splits each stream into a host lane (pinned
/// allocs + staging copies) and a device lane (HtoD, sort, DtoH) so the
/// host→pinned bounce of chunk c overlaps the DMA of chunk c−1.
/// Buffer-reuse hazards that the single tail made implicit become
/// explicit edges in [`lower`] (and the validator's `fifo` rule demands
/// exactly this discipline).
struct Emit {
    nodes: Vec<DagNode>,
    host_tail: Vec<Option<usize>>,
    dev_tail: Vec<Option<usize>>,
    db: bool,
}

impl Emit {
    /// Append a node depending on `deps` plus its lane's FIFO tail
    /// (skipped when `deps` already names it); returns the node id.
    fn push(&mut self, op: DagOp, mut deps: Vec<usize>, stream: Option<usize>) -> usize {
        let idx = self.nodes.len();
        if let Some(s) = stream {
            let tail = if self.db && op.is_device_lane() {
                &mut self.dev_tail[s]
            } else {
                &mut self.host_tail[s]
            };
            if let Some(prev) = tail.replace(idx) {
                if !deps.contains(&prev) {
                    deps.push(prev);
                }
            }
        }
        self.nodes.push(DagNode { op, deps, stream });
        idx
    }
}

/// The lowering: geometry + merge schedule + FIFO node emission. The
/// approach selects the staging discipline: piped approaches use
/// separate in/out pinned buffers and asynchronous chunked transfers,
/// blocking ones a single buffer.
fn lower(config: HetSortConfig, n: usize) -> Plan {
    let piped = config.approach.is_piped();
    let (nb, ngpu, total_streams, batches) = geometry(&config, n);
    let (pairs, final_inputs) = pair_schedule(&config, n, nb);
    let db = config.double_buffered();
    // Blocking + double-buffered: the sorted batch is still
    // device-resident when it is written out, so the outbound pinned
    // bounce is elided — `DtoH` carries the (pageable) device→host cost
    // and the outbound `StagingCopy` becomes the zero-byte marker where
    // the chunk is emitted straight from device memory.
    let elided = db && !piped;
    let mut e = Emit {
        nodes: Vec::new(),
        host_tail: vec![None; total_streams],
        dev_tail: vec![None; total_streams],
        db,
    };

    // 1. Pinned allocations: two per stream (in + out) for piped
    //    approaches; blocking approaches reuse one staging buffer per
    //    host thread for both directions (as in the §IV-E
    //    reproduction) — and elided stage-out never bounces outbound
    //    at all, so the inbound halves are the whole pinned footprint.
    let ps_bytes = config.elem_bytes.bytes() * config.pinned_elems as u64;
    // Double-buffered staging doubles the *inbound* buffer: two
    // parity-selected halves share one allocation (one producer key, so
    // the alloc count per stream is unchanged either way).
    let in_bytes = if db { 2 * ps_bytes } else { ps_bytes };
    for s in 0..total_streams {
        let alloc = |bytes, dir_in| DagOp::PinnedAlloc {
            stream: s,
            bytes,
            dir_in,
        };
        e.push(alloc(in_bytes, true), vec![], Some(s));
        if piped {
            e.push(alloc(ps_bytes, false), vec![], Some(s));
        }
    }

    // 2. Per batch: chunked stage-in/HtoD, sort, chunked DtoH/
    //    stage-out, all FIFO within the batch's stream.
    let ps = config.pinned_elems;
    let mut last_stage_out: Vec<usize> = vec![0; nb];
    // Per stream: the previous batch's last HtoD and StageOut, for the
    // explicit buffer-reuse edges of the double-buffered discipline.
    let mut prev_htod: Vec<Option<usize>> = vec![None; total_streams];
    let mut prev_sout: Vec<Option<usize>> = vec![None; total_streams];
    for b in &batches {
        let s = b.stream;
        let stream = Some(s);
        let batch = b.index;
        let nchunks = b.len.div_ceil(ps);
        let extent = |chunk: usize| {
            let start = b.start + chunk * ps;
            (start, ps.min(b.start + b.len - start))
        };
        let mut htods: Vec<usize> = Vec::with_capacity(nchunks);
        // A batch always has ≥ 1 chunk, so the loop below assigns this.
        let mut last_htod = 0;
        let mut souts: Vec<usize> = Vec::with_capacity(nchunks);
        for chunk in 0..nchunks {
            let (start, len) = extent(chunk);
            // Double-buffered: the half chunk c overwrites (parity
            // c % 2) was last read by HtoD(c−2); the first chunk of a
            // later batch waits for the previous batch's last HtoD.
            let mut si_deps = Vec::new();
            if db {
                if chunk >= 2 {
                    si_deps.push(htods[chunk - 2]);
                } else if chunk == 0 {
                    si_deps.extend(prev_htod[s]);
                }
            }
            let stage_in = DagOp::StagingCopy {
                batch,
                chunk,
                start,
                len,
                dir_in: true,
            };
            let si = e.push(stage_in, si_deps, stream);
            // The DMA waits for its staging copy (explicit under the
            // two-lane discipline; the single tail implies it in the
            // paper shape). When stage-out is elided, the first HtoD of
            // a batch also waits for the previous batch's last emission
            // marker — the device buffer it overwrites was read there.
            let mut h_deps = Vec::new();
            if db {
                h_deps.push(si);
                if elided && chunk == 0 {
                    h_deps.extend(prev_sout[s]);
                }
            }
            let htod = DagOp::HtoD {
                batch,
                chunk,
                start,
                len,
            };
            last_htod = e.push(htod, h_deps, stream);
            htods.push(last_htod);
        }
        let sort = e.push(DagOp::Sort { batch }, vec![last_htod], stream);
        let mut prev = sort;
        for chunk in 0..nchunks {
            let (start, len) = extent(chunk);
            // Bounced stage-out reuses one outbound pinned buffer: the
            // DMA of chunk c overwrites what StageOut(c−1) read (or, at
            // a batch boundary, what the previous batch's last StageOut
            // read). Elided mode has no outbound buffer to protect.
            let mut d_deps = Vec::new();
            if db && !elided {
                if chunk >= 1 {
                    d_deps.push(souts[chunk - 1]);
                } else {
                    d_deps.extend(prev_sout[s]);
                }
            }
            let dtoh = DagOp::DtoH {
                batch,
                chunk,
                start,
                len,
            };
            let d = e.push(dtoh, d_deps, stream);
            let stage_out = DagOp::StagingCopy {
                batch,
                chunk,
                start,
                len,
                dir_in: false,
            };
            prev = e.push(stage_out, if db { vec![d] } else { vec![] }, stream);
            souts.push(prev);
        }
        prev_htod[s] = Some(last_htod);
        prev_sout[s] = Some(prev);
        last_stage_out[batch] = prev;
    }

    // 3. Pipelined two-way merges: ready when both inputs exist. Hybrid
    //    routing types the selected slots onto the CPU merge resource.
    let cpu_slots = hybrid_cpu_slots(&config, &pairs);
    let mut pair_nodes: Vec<usize> = Vec::with_capacity(pairs.len());
    let src_dep = |src: MergeSrc, pair_nodes: &[usize]| match src {
        MergeSrc::Batch(b) => last_stage_out[b],
        MergeSrc::Merged(slot) => pair_nodes[slot],
    };
    for (slot, spec) in pairs.iter().enumerate() {
        let deps = vec![
            src_dep(spec.left, &pair_nodes),
            src_dep(spec.right, &pair_nodes),
        ];
        let op = if cpu_slots[slot] {
            DagOp::CpuMerge { slot }
        } else {
            DagOp::PairMerge { slot }
        };
        pair_nodes.push(e.push(op, deps, None));
    }

    // 4. Final multiway merge (absent when n_b = 1: StageOut wrote B).
    if nb > 1 {
        let deps: Vec<usize> = final_inputs
            .iter()
            .map(|&src| src_dep(src, &pair_nodes))
            .collect();
        let merge = DagOp::MultiwayMerge {
            inputs: final_inputs,
        };
        e.push(merge, deps, None);
    }

    Plan {
        config,
        n,
        batches,
        pairs,
        steps: e.nodes,
        total_streams,
        asynchronous: piped,
        device_ids: (0..ngpu).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Approach;
    use hetsort_vgpu::{platform1, platform2};

    fn cfg(approach: Approach) -> HetSortConfig {
        HetSortConfig::paper_defaults(platform1(), approach)
            .with_batch_elems(1000)
            .with_pinned_elems(300)
    }

    #[test]
    fn builders_validate_and_lower() {
        for (approach, n) in [
            (Approach::BLine, 1000),
            (Approach::BLineMulti, 5000),
            (Approach::PipeData, 6000),
            (Approach::PipeMerge, 7000),
        ] {
            let dag = build_dag(cfg(approach), n).unwrap();
            dag.plan.check_invariants().unwrap();
            dag.validate().unwrap();
            assert_eq!(dag.plan.config.approach, approach);
        }
    }

    #[test]
    fn piped_discipline_is_the_only_structural_difference() {
        // Same geometry, different staging: blocking allocs 1 pinned
        // buffer per stream, piped allocs 2 and is asynchronous.
        let blocking = build(cfg(Approach::BLineMulti), 5000).unwrap();
        let piped = build(cfg(Approach::PipeData), 5000).unwrap();
        let allocs = |p: &Plan| {
            p.steps
                .iter()
                .filter(|s| matches!(s.op, DagOp::PinnedAlloc { .. }))
                .count()
        };
        assert_eq!(allocs(&blocking), blocking.total_streams);
        assert_eq!(allocs(&piped), 2 * piped.total_streams);
        assert!(!blocking.asynchronous);
        assert!(piped.asynchronous);
    }

    #[test]
    fn emitted_dag_sizes_are_pinned() {
        // `(nodes, edges)` of the canonical small plans and of the
        // paper's 5·10⁹ PIPEMERGE run on PLATFORM1, recorded before the
        // builder emitted the dag directly: an emission change (a lost
        // FIFO edge, a duplicate that survives) cannot hide behind a
        // matching re-lowering, because there is none.
        use crate::config::PairStrategy::{MergeTree, Online};
        let p2 = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
            .with_batch_elems(1000)
            .with_pinned_elems(250);
        let paper = HetSortConfig::paper_defaults(platform1(), Approach::PipeMerge);
        for (config, n, nodes, edges) in [
            (cfg(Approach::BLine), 1000, 18, 26),
            (cfg(Approach::BLineMulti), 5000, 87, 147),
            (cfg(Approach::PipeData), 6000, 107, 194),
            (cfg(Approach::PipeMerge), 7000, 127, 230),
            (
                cfg(Approach::PipeMerge).with_pair_strategy(Online),
                5000,
                94,
                165,
            ),
            (
                cfg(Approach::PipeMerge).with_pair_strategy(MergeTree),
                5000,
                94,
                165,
            ),
            (p2, 10_000, 181, 324),
            (paper, 5_000_000_000, 20_027, 40_026),
        ] {
            let what = format!("{:?} n={n}", config.approach);
            let dag = build_dag(config, n).unwrap();
            assert_eq!(
                (dag.nodes.len(), dag.edge_count()),
                (nodes, edges),
                "{what}"
            );
        }
    }

    #[test]
    fn multi_gpu_pair_schedule_matches_heuristic() {
        let cfg = HetSortConfig::paper_defaults(platform2(), Approach::PipeMerge)
            .with_batch_elems(1000)
            .with_pinned_elems(250);
        let plan = build(cfg, 10_000).unwrap();
        assert_eq!(plan.pairs.len(), 2); // ⌊9/2²⌋ on 2 GPUs
    }
}
