//! Simulated execution: map an op-dag onto the calibrated [`Machine`]
//! and time it at paper scale.
//!
//! Like the functional engine, the simulator reads the nodes it is
//! handed: [`simulate_plan`] times `plan.steps` in place,
//! [`simulate_dag`] times `dag.nodes`; both validate first and map each
//! typed op onto the corresponding machine primitive. Dependency edges become
//! op-start constraints, so the simulated timeline is exactly the
//! plan's dependency structure under the platform's calibrated costs.

use hetsort_sim::OpId;
use hetsort_vgpu::{Machine, TransferDir};

use crate::dag::{DagNode, DagOp, PlanDag};
use crate::error::HetSortError;
use crate::plan::Plan;
use crate::report::TimingReport;

/// Build the plan for `(config, n)` and simulate it.
///
/// # Errors
///
/// [`HetSortError::Config`]/[`HetSortError::Plan`] for invalid inputs,
/// [`HetSortError::GpuOom`] when the plan's resident buffers overflow
/// device memory, [`HetSortError::Sim`] when the engine fails.
pub fn simulate(
    config: crate::config::HetSortConfig,
    n: usize,
) -> Result<TimingReport, HetSortError> {
    let plan = Plan::build(config, n)?;
    simulate_plan(&plan)
}

/// Simulate an already-built plan's own nodes.
///
/// # Errors
///
/// [`HetSortError::GpuOom`] and [`HetSortError::Sim`] as above.
pub fn simulate_plan(plan: &Plan) -> Result<TimingReport, HetSortError> {
    simulate_nodes(plan, &plan.steps)
}

/// Simulate a validated op dag on the configured platform.
///
/// # Errors
///
/// [`HetSortError::Plan`] when the dag fails validation,
/// [`HetSortError::GpuOom`] and [`HetSortError::Sim`] as above.
pub fn simulate_dag(dag: &PlanDag) -> Result<TimingReport, HetSortError> {
    simulate_nodes(&dag.plan, &dag.nodes)
}

/// Time `nodes` over `plan`'s geometry: what [`simulate_plan`] (the
/// plan's own nodes, in place) and [`simulate_dag`] share.
fn simulate_nodes(plan: &Plan, nodes: &[DagNode]) -> Result<TimingReport, HetSortError> {
    // Re-validate on every execution path, not only at build time.
    plan.check_invariants()?;
    PlanDag::check(plan, nodes)?;
    let cfg = &plan.config;
    let mut m = Machine::new(cfg.platform.clone());

    // Device memory bookkeeping: each stream keeps one batch buffer of
    // 2·b_s elements resident (data + Thrust's out-of-place scratch,
    // §III-B) on its GPU for the whole run.
    for s in 0..plan.total_streams {
        let gpu = plan
            .batches
            .iter()
            .find(|b| b.stream == s)
            .map(|b| b.gpu)
            .unwrap_or(s % cfg.platform.n_gpus().max(1));
        m.device_alloc(gpu, cfg.device_bytes(cfg.batch_elems))?;
    }

    let db = cfg.double_buffered();
    let elided = plan.stage_out_elided();
    // Work amount of a transfer or staging copy: the simulator divides
    // it by a bandwidth, so the exact byte count becomes an f64 here.
    let volume = |elems: usize| (cfg.elem_bytes.bytes() * elems as u64) as f64;

    // Streams and display lanes.
    let queues: Vec<_> = (0..plan.total_streams)
        .map(|s| m.stream(format!("s{s}")))
        .collect();
    // Double-buffered staging gives each stream a second, host-side
    // queue: staging copies still serialize among themselves, but they
    // overlap the device queue's DMA — the point of the two pinned
    // halves. The dependency edges (StageIn c needs HtoD c−2's half
    // back) bound the overlap to one chunk.
    let host_queues: Vec<_> = if db {
        (0..plan.total_streams)
            .map(|s| m.stream(format!("s{s}.host")))
            .collect()
    } else {
        queues.clone()
    };
    let stream_lanes: Vec<_> = (0..plan.total_streams)
        .map(|s| m.lane(format!("S{s}")))
        .collect();
    // Label lanes with physical device numbers so a recovery re-plan's
    // Gantt rows name the same hardware as the original run.
    let gpu_lanes: Vec<_> = (0..cfg.platform.n_gpus())
        .map(|g| m.lane(format!("GPU{}", plan.physical_gpu(g))))
        .collect();
    let cpu_lane = m.lane("CPU");

    let memcpy_threads = cfg.memcpy_threads_eff();
    let merge_threads = cfg.merge_threads_eff();
    let pair_merge_threads = cfg.pair_merge_threads_eff();
    let mut op_ids: Vec<OpId> = Vec::with_capacity(nodes.len());
    let mut n_async_transfers = 0usize;
    let mut n_sorts = 0usize;

    // Break stream lockstep: host worker threads never start in perfect
    // phase; stagger each stream's first op by the platform skew so the
    // pipeline settles into Figure 2's interleave instead of the
    // worst-case phase-aligned collision pattern.
    let skew = cfg.platform.cpu.stream_skew_s;
    let skews: Vec<OpId> = (0..plan.total_streams)
        .map(|s| m.barrier(skew * s as f64, &[]))
        .collect();
    let mut stream_started = vec![false; plan.total_streams];

    for node in nodes {
        let mut deps: Vec<OpId> = node.deps.iter().map(|&d| op_ids[d]).collect();
        if let Some(s) = node.stream {
            if !stream_started[s] {
                stream_started[s] = true;
                deps.push(skews[s]);
            }
        }
        let queue = node.stream.map(|s| queues[s]);
        let lane = node.stream.map(|s| stream_lanes[s]);
        let id = match &node.op {
            DagOp::PinnedAlloc { bytes, .. } => m.pinned_alloc(*bytes, &deps, lane),
            DagOp::StagingCopy {
                batch, len, dir_in, ..
            } => {
                if elided && !*dir_in {
                    // Elided stage-out: the DtoH below paged straight
                    // into W/B, so the marker keeps the dag shape (and
                    // its ordering edges) at zero cost.
                    m.barrier(0.0, &deps)
                } else {
                    m.host_memcpy(
                        *dir_in,
                        volume(*len),
                        memcpy_threads,
                        node.stream.map(|s| host_queues[s]),
                        &deps,
                        lane,
                        *batch as u64,
                    )
                }
            }
            DagOp::HtoD { batch, len, .. } => {
                // Double-buffered blocking plans issue chunked
                // cudaMemcpyAsync + event sync like the piped ones do,
                // so they pay the same per-chunk sync latency.
                let asynchronous = plan.asynchronous || db;
                if asynchronous {
                    n_async_transfers += 1;
                }
                let gpu = plan.batches[*batch].gpu;
                m.transfer(
                    TransferDir::HtoD,
                    gpu,
                    volume(*len),
                    true,
                    asynchronous,
                    queue,
                    &deps,
                    lane,
                    *batch as u64,
                )
            }
            DagOp::Sort { batch } => {
                n_sorts += 1;
                let b = &plan.batches[*batch];
                // Device radix sort is memory-bandwidth-bound: key/value
                // records move twice the bytes of bare keys, so work
                // scales with the element size (CUB's pairs sort shows
                // the same ratio).
                m.gpu_sort(
                    b.gpu,
                    volume(b.len) / 8.0,
                    queue,
                    &deps,
                    Some(gpu_lanes[b.gpu]),
                    *batch as u64,
                )
            }
            DagOp::DtoH { batch, len, .. } => {
                let gpu = plan.batches[*batch].gpu;
                if elided {
                    // Elided stage-out: a blocking pageable cudaMemcpy
                    // straight into W/B — slower per byte than pinned
                    // DMA, but it replaces pinned DtoH *plus* the
                    // outbound staging memcpy.
                    m.transfer(
                        TransferDir::DtoH,
                        gpu,
                        volume(*len),
                        false,
                        false,
                        queue,
                        &deps,
                        lane,
                        *batch as u64,
                    )
                } else {
                    if plan.asynchronous {
                        n_async_transfers += 1;
                    }
                    m.transfer(
                        TransferDir::DtoH,
                        gpu,
                        volume(*len),
                        true,
                        plan.asynchronous,
                        queue,
                        &deps,
                        lane,
                        *batch as u64,
                    )
                }
            }
            DagOp::PairMerge { slot } => {
                let spec = &plan.pairs[*slot];
                // The paper's heuristic deliberately leaves cores for
                // the staging pipeline; the rejected strategies are
                // given every core (favorable to them — they lose on
                // schedule structure, not thread starvation).
                let threads =
                    if plan.config.pair_strategy == crate::config::PairStrategy::PaperHeuristic {
                        pair_merge_threads
                    } else {
                        merge_threads
                    };
                m.pair_merge(spec.out_elems as f64, threads, &deps, Some(cpu_lane))
            }
            DagOp::CpuMerge { slot } => {
                // Pinned to the host merge resource: always the full
                // merge thread pool, never the paper heuristic's
                // reserved-core split. Tagged CpuMerge so hybrid runs
                // account CPU-routed merges on their own line.
                let spec = &plan.pairs[*slot];
                m.cpu_merge(spec.out_elems as f64, merge_threads, &deps, Some(cpu_lane))
            }
            DagOp::MultiwayMerge { inputs } => m.multiway_merge(
                plan.n as f64,
                inputs.len(),
                merge_threads,
                &deps,
                Some(cpu_lane),
            ),
        };
        op_ids.push(id);
    }

    let sync_s = n_async_transfers as f64 * cfg.platform.pcie.chunk_sync_s;
    let launch_s: f64 = n_sorts as f64
        * cfg
            .platform
            .gpus
            .first()
            .map(|g| g.kernel_launch_s)
            .unwrap_or(0.0);

    let tl = m.run().map_err(|e| HetSortError::Sim {
        reason: e.to_string(),
    })?;
    Ok(TimingReport::from_timeline(
        cfg.approach.name(),
        &cfg.platform.name,
        plan.n,
        plan.nb(),
        sync_s,
        launch_s,
        tl,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HetSortConfig};
    use hetsort_vgpu::{platform1, platform2, tags};

    fn p1(approach: Approach) -> HetSortConfig {
        HetSortConfig::paper_defaults(platform1(), approach)
    }

    #[test]
    fn bline_paper_staging_matches_hand_computation() {
        // n = 8e8 on PLATFORM1 (Figure 7/8 point), with the paper's
        // single-buffer staging pinned: serial pipeline of alloc +
        // MCpyIn + HtoD + sort + DtoH + MCpyOut.
        use crate::config::StagingMode;
        let cfg = p1(Approach::BLine).with_staging(StagingMode::Paper);
        let n = 800_000_000usize;
        let r = simulate(cfg, n).unwrap();
        let gib = 8.0 * n as f64;
        let expect = 0.01                    // pinned alloc (ps = 1e6)
            + gib / 6.5e9                    // stage in @ 6.5 GB/s/core
            + gib / 12e9                     // HtoD @ 12 GB/s
            + n as f64 / 1.9e9 + 50e-6       // sort + one kernel launch
            + gib / 12e9                     // DtoH
            + gib / 6.5e9; // stage out
        assert!(
            (r.total_s - expect).abs() < 0.02,
            "total={} expect={expect}",
            r.total_s
        );
        // Figure 7 cross-check: HtoD ≈ 0.536 s, DtoH ≈ 0.484 s in the
        // paper; our symmetric model gives 0.533 s each.
        assert!((r.component(tags::HTOD).expect("HtoD ran") - 0.533).abs() < 0.01);
        assert!((r.component(tags::DTOH).expect("DtoH ran") - 0.533).abs() < 0.01);
        // Literature total = HtoD + Sort + DtoH ≈ 0.533+0.421+0.533.
        assert!(
            (r.literature_total_s - 1.487).abs() < 0.02,
            "{}",
            r.literature_total_s
        );
        // Missing overhead ≈ 2 staging copies + alloc ≈ 1.61 s.
        assert!(r.missing_overhead_s() > 1.5, "{}", r.missing_overhead_s());
    }

    #[test]
    fn bline_total_matches_hand_computation() {
        // Same point under the default double-buffered staging: the
        // inbound bounce hides the HtoD DMA (only the last chunk's DMA
        // pokes out), the outbound bounce is elided entirely, and the
        // DtoH pages straight into B at pageable bandwidth.
        let cfg = p1(Approach::BLine);
        let n = 800_000_000usize;
        let ps_bytes = 8.0 * 1_000_000.0;
        let r = simulate(cfg, n).unwrap();
        let gib = 8.0 * n as f64;
        let alloc = 0.0073 + 3.43e-10 * 2.0 * ps_bytes; // both halves
        let chunk_htod = ps_bytes / 12e9 + 0.4e-3; // DMA + chunk sync
        let expect = alloc
            + gib / 6.5e9                    // stage in @ 6.5 GB/s/core
            + chunk_htod                     // last chunk's DMA tail
            + n as f64 / 1.9e9 + 50e-6       // sort + one kernel launch
            + gib / 6e9; // pageable DtoH straight into B
        assert!(
            (r.total_s - expect).abs() < 0.02,
            "total={} expect={expect}",
            r.total_s
        );
        // StagingCopy is inbound-only now: the outbound markers cost
        // nothing and the component halves vs the paper protocol.
        let staging = r.component(tags::MCPY_IN).expect("stage in ran")
            + r.component(tags::MCPY_OUT).unwrap_or(0.0);
        assert!(
            (staging - gib / 6.5e9).abs() < 0.02,
            "staging={staging} expect inbound-only {}",
            gib / 6.5e9
        );
        // And the end-to-end beats the paper-staging run outright.
        use crate::config::StagingMode;
        let paper = simulate(p1(Approach::BLine).with_staging(StagingMode::Paper), n).unwrap();
        assert!(
            r.total_s < paper.total_s - 0.5,
            "double-buffered {} !< paper {}",
            r.total_s,
            paper.total_s
        );
    }

    #[test]
    fn pipedata_beats_blinemulti() {
        let n = 2_000_000_000usize;
        let bl = simulate(p1(Approach::BLineMulti), n).unwrap();
        let pd = simulate(p1(Approach::PipeData), n).unwrap();
        assert!(
            pd.total_s < bl.total_s,
            "PipeData {} !< BLineMulti {}",
            pd.total_s,
            bl.total_s
        );
    }

    #[test]
    fn engine_visits_per_event_do_not_scale_with_the_dag() {
        // Clock-free cost gate on the simulator's event loop: what it
        // visits per event is the dag's live and ready ops, never the op
        // table. A loop that scans the table per event visits 3 x 20 027
        // slots at n = 5e9 and 8 x fewer at n/8, failing both bounds.
        let visits_per_event = |approach, n: usize| {
            let plan = Plan::build(p1(approach), n).unwrap();
            let stats = simulate_plan(&plan).unwrap().timeline.stats();
            assert_eq!(stats.rate_solves, stats.events);
            (stats.active_visits + stats.admit_visits) as f64 / stats.events as f64
        };
        // PIPEMERGE's own concurrency grows until the pipeline is full
        // (1.7 live ops per event at n/8, 2.7 at n: 1.39 x the visits
        // for 8 x the nodes); BLINEMULTI's dag is equally wide at every
        // n, so there the count must be flat.
        let n = 5_000_000_000;
        for (approach, max_growth) in [(Approach::PipeMerge, 1.5), (Approach::BLineMulti, 1.1)] {
            let (paper, eighth) = (
                visits_per_event(approach, n),
                visits_per_event(approach, n / 8),
            );
            assert!(
                paper <= 8.0 && eighth <= 8.0,
                "{approach:?}: {eighth} visits per event at n/8, {paper} at n"
            );
            assert!(
                paper / eighth <= max_growth && eighth / paper <= max_growth,
                "{approach:?}: visits per event moved with n: {eighth} at n/8, {paper} at n"
            );
        }
    }

    #[test]
    fn pipemerge_not_slower_than_pipedata() {
        let n = 5_000_000_000usize;
        let pd = simulate(p1(Approach::PipeData), n).unwrap();
        let pm = simulate(p1(Approach::PipeMerge), n).unwrap();
        assert!(
            pm.total_s <= pd.total_s * 1.02,
            "PipeMerge {} vs PipeData {}",
            pm.total_s,
            pd.total_s
        );
    }

    #[test]
    fn parmemcpy_improves_piped_runs() {
        let n = 5_000_000_000usize;
        let pm = simulate(p1(Approach::PipeMerge), n).unwrap();
        let pmc = simulate(p1(Approach::PipeMerge).with_par_memcpy(), n).unwrap();
        assert!(
            pmc.total_s < pm.total_s,
            "ParMemCpy {} !< {}",
            pmc.total_s,
            pm.total_s
        );
    }

    #[test]
    fn two_gpus_beat_one_gpu() {
        let n = 2_800_000_000usize;
        let cfg2 = HetSortConfig::paper_defaults(platform2(), Approach::PipeData)
            .with_batch_elems(350_000_000);
        let r2 = simulate(cfg2, n).unwrap();
        // Single-GPU platform2: strip one GPU.
        let mut plat1g = platform2();
        plat1g.gpus.truncate(1);
        let cfg1 =
            HetSortConfig::paper_defaults(plat1g, Approach::PipeData).with_batch_elems(350_000_000);
        let r1 = simulate(cfg1, n).unwrap();
        assert!(
            r2.total_s < r1.total_s,
            "2 GPUs {} !< 1 GPU {}",
            r2.total_s,
            r1.total_s
        );
    }

    #[test]
    fn deterministic() {
        let n = 1_000_000_000usize;
        let a = simulate(p1(Approach::PipeMerge), n).unwrap();
        let b = simulate(p1(Approach::PipeMerge), n).unwrap();
        assert_eq!(a.total_s, b.total_s);
    }

    #[test]
    fn hybrid_plans_surface_cpu_merge_component() {
        use crate::config::HybridMode;
        let n = 5_000_000_000usize;
        let base = simulate(p1(Approach::PipeMerge), n).unwrap();
        assert_eq!(base.component(tags::CPU_MERGE), None, "no hybrid, no line");
        let hy = simulate(
            p1(Approach::PipeMerge).with_hybrid(HybridMode::Fraction(0.5)),
            n,
        )
        .unwrap();
        assert!(
            hy.component(tags::CPU_MERGE).expect("cpu merges ran") > 0.0,
            "hybrid run accounts CPU-routed merges separately"
        );
    }

    #[test]
    fn oversized_batches_rejected() {
        let cfg = p1(Approach::PipeData).with_batch_elems(2_000_000_000);
        assert!(simulate(cfg, 4_000_000_000).is_err());
    }
}
