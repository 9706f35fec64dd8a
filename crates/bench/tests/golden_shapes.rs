//! Golden-shape tests over the pinned scenarios: structural facts the
//! paper fixes that must hold in every BENCH.json the matrix can ever
//! produce — independent of cost-model retuning, which only moves the
//! *magnitudes* (a refreeze of the byte-pinned file, said in the PR).

use hetsort_bench::gate::{
    run_scenario, scenario_matrix, Scenario, ScenarioKind, ScenarioResult, PAPER_N,
};
use hetsort_core::accounting::LowerBoundModel;
use hetsort_core::exec_sim::simulate_plan;
use hetsort_core::{Approach, HetSortConfig, Plan};
use hetsort_obs::OpClass;
use hetsort_vgpu::{platform2, Machine, TransferDir};

fn run(id: &str) -> (Scenario, ScenarioResult) {
    let s = scenario_matrix()
        .into_iter()
        .find(|s| s.id == id)
        .unwrap_or_else(|| panic!("pinned id {id} missing from matrix"));
    let r = run_scenario(&s).expect(id);
    (s, r)
}

#[test]
fn pipedata_stays_within_085x_of_the_lower_bound() {
    // §IV-G / Figure 11: at the paper's largest size the PIPEDATA
    // slowdown against the one-GPU lower-bound model "is only 0.93×";
    // the shape we freeze is efficiency ≥ 0.85 at the gate's geometry.
    let mut p2s = platform2();
    p2s.gpus.truncate(1);
    let model = LowerBoundModel::one_gpu(&p2s).expect("model");
    // Same single-buffer staging protocol the model was fitted under
    // (DESIGN.md § 19) — efficiency compares like with like.
    let cfg = HetSortConfig::paper_protocol(p2s, Approach::PipeData).with_batch_elems(350_000_000);
    let n = 4_900_000_000usize;
    let total = simulate_plan(&Plan::build(cfg, n).expect("plan"))
        .expect("sim")
        .total_s;
    let efficiency = model.predict(n) / total;
    assert!(
        efficiency >= 0.85,
        "PIPEDATA efficiency {efficiency:.3} fell below 0.85x the bound"
    );
    assert!(efficiency <= 1.05, "suspicious: beating the bound by >5%");
}

#[test]
fn pair_merge_span_count_matches_the_paper_formula() {
    // §III-D3: ⌊(n_b−1)/2⌋ pipelined pair merges on one GPU,
    // ⌊(n_b−1)/2^n_GPU⌋ on multi-GPU — counted as PairMerge *spans* in
    // the scenario's own metrics, not re-derived from the config.
    for id in ["p1/pipemerge/n2e9", "p2/pipemerge/n2e9"] {
        let (s, r) = run(id);
        let plan = Plan::build(s.config.clone(), s.n).expect(id);
        let reg = simulate_plan(&plan).expect(id).metrics();
        let want = s.config.pipelined_pair_merges(plan.nb());
        let got = reg.class_stats(OpClass::PairMerge).count as usize;
        assert_eq!(got, want, "{id}: PairMerge spans");
        assert!(
            r.components.contains_key("PairMerge") == (want > 0),
            "{id}: component presence must track the formula"
        );
    }
}

#[test]
fn pageable_transfers_run_at_half_pinned_bandwidth() {
    // §IV-E / §V: pageable copies go through the driver's hidden staging
    // copy at ~half the pinned DMA rate. Measured, not read off the
    // spec: one 1 GB blocking HtoD each way through the machine model.
    let bytes = 1e9;
    let time = |pinned: bool| {
        let mut m = Machine::new(platform2());
        let op = m.transfer(
            TransferDir::HtoD,
            0,
            bytes,
            pinned,
            false,
            None,
            &[],
            None,
            0,
        );
        m.run().expect("machine run").span(op).duration()
    };
    let ratio = time(false) / time(true);
    assert!(
        (1.8..=2.2).contains(&ratio),
        "pageable/pinned transfer-time ratio {ratio:.3}, expected ~2"
    );
}

#[test]
fn gate_scenarios_expose_the_missing_overhead() {
    // The reproduction's central finding must be visible in the gate
    // document itself. On the serial single-GPU platform the literature
    // accounting strictly underestimates the end-to-end time; on the
    // two-GPU platform busy sums over-count across overlapping GPUs, so
    // only the structural half of the claim (StagingCopy is recorded
    // but excluded from literature accounting) applies there.
    for id in ["p1/blinemulti/n2e9", "p2/blinemulti/n2e9"] {
        let (_, r) = run(id);
        assert_eq!(r.n, PAPER_N as u64);
        // Staging copies are the dominant omitted component.
        assert!(
            r.components.get("StagingCopy").copied().unwrap_or(0.0) > 0.0,
            "{id}: StagingCopy missing from components"
        );
    }
    let (_, r) = run("p1/blinemulti/n2e9");
    assert!(
        r.literature_total_s < r.total_s,
        "p1/blinemulti: literature {} !< total {}",
        r.literature_total_s,
        r.total_s
    );
}

#[test]
fn literature_total_is_the_literature_components_less_embedded_latency() {
    // One accounting: every simulated scenario's `literature_total_s`
    // is, bit for bit, the busy seconds of the literature's classes
    // minus the sync and launch latency the simulator folds into those
    // spans — the same document's `components` and `counters`.
    let simulated = scenario_matrix()
        .into_iter()
        .filter(|s| s.kind == ScenarioKind::Simulated);
    for s in simulated {
        let r = run_scenario(&s).expect(&s.id);
        let mut lit = 0.0;
        for c in OpClass::LITERATURE {
            lit += r.components.get(c.name()).copied().unwrap_or(0.0);
        }
        let embedded = r.counters["sim.sync_s"] + r.counters["sim.launch_s"];
        assert_eq!(
            r.literature_total_s.to_bits(),
            (lit - embedded).max(0.0).to_bits(),
            "{}: literature {} vs components {lit} less {embedded}",
            s.id,
            r.literature_total_s
        );
    }
}
