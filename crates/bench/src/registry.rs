//! The experiments registry: one entry per file under `results/`, plus
//! the root `BENCH.json`.
//!
//! An entry names its file, the file's header line, and a function that
//! returns the rows plus a one-line comparison with the paper. The
//! `experiments` binary prints every entry through one column printer
//! and writes the file; `tests/golden_results.rs` runs every
//! deterministic entry and compares with the committed file byte for
//! byte. Every simulated config of a `results/` file comes from
//! [`HetSortConfig::paper_protocol`]: the committed numbers reproduce
//! the paper's single-buffer staging measurements, so they must not
//! move when the default staging protocol improves (DESIGN.md § 19).

use std::io::{self, Write};
use std::time::Instant;

use hetsort_core::reference::{reference_time, reference_time_full};
use hetsort_core::{simulate, Approach, ElemWidth, HetSortConfig, PairStrategy};
use hetsort_obs::OpClass;
use hetsort_vgpu::{platform1, platform2, Machine, PlatformSpec, TransferDir};

use crate::experiments as ex;
use crate::output::{print_table, write_csv};

/// What an experiment produced.
pub struct Output {
    /// The file's lines after the header: CSV records, or text lines
    /// for the `.txt` and console-only entries.
    pub rows: Vec<String>,
    /// One-line comparison with the paper (empty = nothing to compare).
    pub note: String,
}

/// How an entry obtains its numbers.
pub enum Run {
    /// Model time from the deterministic simulator: part of `all`, and
    /// pinned byte for byte by the golden test.
    Model(fn() -> Output),
    /// Wall-clock time of the real algorithms on this host at input
    /// size `n`: run by name only, never compared.
    Host(fn(usize) -> Output),
}

/// One registry entry.
pub struct Experiment {
    /// Name on the `experiments` command line.
    pub name: &'static str,
    /// What it reproduces.
    pub about: &'static str,
    /// File, relative to `results/` (`BENCH.json` alone sits beside
    /// that directory, at the repository root); `None` = console only.
    pub file: Option<&'static str>,
    /// The file's first line (the CSV header).
    pub header: &'static str,
    /// Row producer.
    pub run: Run,
}

const APPROACH_SWEEP_HEADER: &str =
    "n,n_gpus,blinemulti_s,pipedata_s,pipemerge_s,pipemerge_parmemcpy_s,reference_s";

/// Every experiment, in paper order.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "table2",
        about: "Table II: the hardware platforms, as modeled",
        file: None,
        header: "",
        run: Run::Model(table2),
    },
    Experiment {
        name: "fig01_03",
        about: "Figures 1-3: BLineMulti / PipeData / PipeMerge schedules as ASCII Gantt charts",
        file: Some("fig01_03_gantt.txt"),
        header: "ascii gantt renderings",
        run: Run::Model(fig01_03),
    },
    Experiment {
        name: "fig04",
        about: "Figure 4: CPU sort scalability, PLATFORM1",
        file: Some("fig04_cpu_sort_scalability.csv"),
        header: "n,threads,gnu_s,tbb_s,std_sort_s,qsort_s",
        run: Run::Model(fig04),
    },
    Experiment {
        name: "fig05",
        about: "Figure 5: BLine vs the 20-thread reference, PLATFORM2 (n_b = 1)",
        file: Some("fig05_bline_vs_ref.csv"),
        header: "n,bline_s,ref_s,ratio",
        run: Run::Model(fig05),
    },
    Experiment {
        name: "fig06",
        about: "Figure 6: pair-merge scalability, PLATFORM1, n = 1e9",
        file: Some("fig06_merge_scalability.csv"),
        header: "threads,time_s,speedup",
        run: Run::Model(fig06),
    },
    Experiment {
        name: "fig07",
        about: "Figure 7: components at n = 8e8 (5.96 GiB) vs related work, PLATFORM1",
        file: Some("fig07_components.csv"),
        header: "component,ours_s,related_s",
        run: Run::Model(fig07),
    },
    Experiment {
        name: "fig08",
        about: "Figure 8: the missing-overhead sweep (BLine, PLATFORM1)",
        file: Some("fig08_missing_overhead.csv"),
        header: "n,htod_s,dtoh_s,sort_s,literature_total_s,full_total_s",
        run: Run::Model(fig08),
    },
    Experiment {
        name: "fig09",
        about: "Figure 9: every approach vs n, PLATFORM1 (b_s = 5e8, n_s = 2)",
        file: Some("fig09_platform1_approaches.csv"),
        header: APPROACH_SWEEP_HEADER,
        run: Run::Model(fig09),
    },
    Experiment {
        name: "fig10",
        about: "Figure 10: 1 vs 2 GPUs, PLATFORM2 (b_s = 3.5e8)",
        file: Some("fig10_platform2_multi_gpu.csv"),
        header: APPROACH_SWEEP_HEADER,
        run: Run::Model(fig10),
    },
    Experiment {
        name: "fig11",
        about: "Figure 11: lower-bound models vs PipeData, PLATFORM2",
        file: Some("fig11_lower_bound.csv"),
        header: "n,model1_s,pipedata1_s,model2_s,pipedata2_s",
        run: Run::Model(fig11),
    },
    Experiment {
        name: "calibrate",
        about: "every headline number the paper states next to the model's",
        file: Some("calibration_report.txt"),
        header: "target (paper value)                                           paper     model      err",
        run: Run::Model(calibrate),
    },
    Experiment {
        name: "calibrate_components",
        about: "component breakdown of the four Figure 9 approaches at n = 5e9",
        file: None,
        header: "",
        run: Run::Model(calibrate_components),
    },
    Experiment {
        name: "ablation_batch_streams",
        about: "extension: b_s x n_s trade-off (PipeMerge, n = 4e9, PLATFORM1; §IV-F text)",
        file: Some("ablation_batch_streams.csv"),
        header: "n_s,b_s,n_b,total_s,multiway_s",
        run: Run::Model(ablation_batch_streams),
    },
    Experiment {
        name: "ablation_pinned_size",
        about: "extension: pinned buffer size p_s (PipeData, n = 2e9; §IV-E text)",
        file: Some("ablation_pinned_size.csv"),
        header: "p_s,total_s,alloc_s,sync_chunks",
        run: Run::Model(ablation_pinned_size),
    },
    Experiment {
        name: "ablation_nvlink",
        about: "extension: NVLink what-if (PipeMerge+ParMemCpy, n = 5e9; §V)",
        file: Some("ablation_nvlink.csv"),
        header: "link_gbs,total_s,merge_s",
        run: Run::Model(ablation_nvlink),
    },
    Experiment {
        name: "ablation_pair_merge_threads",
        about: "extension: pair-merge thread budget (PipeMerge, n = 5e9; §III-D3)",
        file: Some("ablation_pair_merge_threads.csv"),
        header: "threads,total_s",
        run: Run::Model(ablation_pair_merge_threads),
    },
    Experiment {
        name: "ablation_pageable",
        about: "extension: pageable cudaMemcpy vs pinned staging (BLine, n = 8e8; §V)",
        file: Some("ablation_pageable.csv"),
        header: "variant,total_s",
        run: Run::Model(ablation_pageable),
    },
    Experiment {
        name: "rejected_strategies",
        about: "extension: §III-D3's rejected merge strategies (PipeMerge, PLATFORM1, b_s = 5e8)",
        file: Some("ablation_rejected_strategies.csv"),
        header: "n,paper_heuristic_s,online_s,merge_tree_s",
        run: Run::Model(rejected_strategies),
    },
    Experiment {
        name: "kv_records",
        about: "extension: [5]'s 16-byte key/value workload vs the paper's bare-key substitution",
        file: Some("ablation_kv_records.csv"),
        header: "workload,n,elem_bytes,htod_s,dtoh_s,sort_s,lit_s,full_s",
        run: Run::Model(kv_records),
    },
    Experiment {
        name: "nvlink_future",
        about: "extension: GPU-side pair merging on an NVLink-class platform (n = 4e9; §V)",
        file: Some("ablation_nvlink_gpu_merge.csv"),
        header: "architecture,total_s,cpu_merge_s",
        run: Run::Model(nvlink_future),
    },
    Experiment {
        name: "bench",
        about: "BENCH.json: the 13 pinned scenarios (every approach on both platforms, the serve mix) under the shipped defaults",
        file: Some("../BENCH.json"),
        header: "{",
        run: Run::Model(bench),
    },
    Experiment {
        name: "host_fig04",
        about: "Figure 4 with the real from-scratch sorts on this host",
        file: Some("host_fig04_sorts.csv"),
        header: "algorithm,threads,seconds",
        run: Run::Host(host_fig04),
    },
    Experiment {
        name: "host_fig06",
        about: "Figure 6 with the real pair merge on this host",
        file: Some("host_fig06_merge.csv"),
        header: "keys,threads,seconds,speedup",
        run: Run::Host(host_fig06),
    },
];

/// Largest size a host-timed entry takes: `host_fig04` holds the input,
/// one copy being sorted and the sort's scratch, 3 · n · 8 B = 4.8 GB
/// at the bound (the CLI's `trace --real` stops at the same n).
pub const HOST_N_MAX: usize = 200_000_000;

/// Look an entry up by its command-line name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

impl Experiment {
    /// Is this entry deterministic model time (part of `all`)?
    pub fn is_model(&self) -> bool {
        matches!(self.run, Run::Model(_))
    }

    /// Run the entry (`host_n` reaches only the host-timed ones), print
    /// it to `out`, and write its file.
    pub fn report(&self, host_n: usize, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "=== {}: {} ===", self.name, self.about)?;
        let o = match self.run {
            Run::Model(f) => f(),
            Run::Host(f) => f(host_n),
        };
        if self.file.is_some_and(|f| f.ends_with(".csv")) {
            print_table(out, self.header, &o.rows)?;
        } else {
            if !self.header.is_empty() {
                writeln!(out, "{}", self.header)?;
            }
            for line in &o.rows {
                writeln!(out, "{line}")?;
            }
        }
        if !o.note.is_empty() {
            writeln!(out, "{}", o.note)?;
        }
        if let Some(file) = self.file {
            let path = write_csv(file, self.header, &o.rows)?;
            writeln!(out, "wrote {}", path.display())?;
        }
        writeln!(out)
    }
}

/// Busy seconds of one class of a report; a class the run never
/// issued renders as zero.
fn comp(r: &hetsort_core::TimingReport, class: OpClass) -> f64 {
    r.metrics().class_stats(class).busy_s
}

// ---------------------------------------------------------------- paper

fn table2() -> Output {
    let mut rows = Vec::new();
    for p in [platform1(), platform2()] {
        rows.push(p.name.clone());
        rows.push(format!("  CPU   cores: {}", p.cpu.cores));
        rows.push(format!(
            "  CPU   memcpy/core: {:.1} GB/s, bus: {:.0} GB/s traffic",
            p.cpu.memcpy_core_bps / 1e9,
            p.cpu.bus_traffic_bps / 1e9
        ));
        for g in &p.gpus {
            rows.push(format!(
                "  GPU   {}: {:.0} GiB, sort {:.2e} keys/s",
                g.name,
                g.global_mem_bytes as f64 / (1024.0 * 1024.0 * 1024.0),
                g.sort_keys_per_s
            ));
        }
        rows.push(format!(
            "  PCIe  pinned {:.0} GB/s per dir, pageable {:.0} GB/s, bidir cap {:.0} GB/s, sync {:.1} ms/chunk",
            p.pcie.pinned_bps / 1e9,
            p.pcie.pageable_bps / 1e9,
            p.pcie.bidir_total_bps / 1e9,
            p.pcie.chunk_sync_s * 1e3
        ));
        rows.push(format!(
            "  Pinned alloc: {:.1} ms + {:.3} ns/B",
            p.pinned_alloc.cost.base_s * 1e3,
            p.pinned_alloc.cost.per_unit_s * 1e9
        ));
        let piped = HetSortConfig::paper_defaults(p, Approach::PipeMerge);
        rows.push(format!(
            "  Max b_s (n_s=2): {:.3e} elements",
            piped.max_batch_elems() as f64
        ));
    }
    Output {
        rows,
        note: String::new(),
    }
}

fn fig01_03() -> Output {
    let (f1, f2, f3) = ex::fig01_03();
    Output {
        rows: vec![f1, f2, f3],
        note: "lanes: S = streams (P pinned alloc, M staging copy, H HtoD, D DtoH), G GPU sort; \
               CPU lane: M multiway merge (Fig. 1 starts it after every batch), P pair merges \
               (Fig. 3 runs them while the GPU still sorts)"
            .into(),
    }
}

fn fig04() -> Output {
    let rows = ex::fig04(&platform1());
    let speedup = |n: usize| {
        let at = |t: u32| rows.iter().find(|r| r.n == n && r.threads == t);
        match (at(1), at(16)) {
            (Some(one), Some(r)) => r.speedup_vs(one),
            _ => f64::NAN,
        }
    };
    Output {
        note: format!(
            "GNU speedup on 16 threads: {:.2}x at n=1e6, {:.2}x at n=1e9 (paper: 3.17x / 10.12x)",
            speedup(1_000_000),
            speedup(1_000_000_000)
        ),
        rows: rows.iter().map(ex::Fig4Row::csv).collect(),
    }
}

fn fig05() -> Output {
    let rows = ex::fig05();
    let ratios = rows.iter().map(ex::Fig5Row::ratio);
    Output {
        note: format!(
            "CPU/GPU response-time ratio {:.3} - {:.3} (paper: 1.22 - 1.32)",
            ratios.clone().fold(f64::INFINITY, f64::min),
            ratios.fold(0.0, f64::max)
        ),
        rows: rows.iter().map(ex::Fig5Row::csv).collect(),
    }
}

fn fig06() -> Output {
    let rows = ex::fig06();
    Output {
        note: format!(
            "speedup on {} threads: {:.2}x (paper: 8.14x on 16)",
            rows.last().map_or(0, |r| r.threads),
            rows.last().map_or(f64::NAN, |r| r.speedup)
        ),
        rows: rows.iter().map(ex::Fig6Row::csv).collect(),
    }
}

fn fig07() -> Output {
    let d = ex::fig07();
    let r = &d.report;
    let t = r.metrics().totals();
    let omitted: Vec<String> = t
        .present()
        .filter(|(c, st)| !OpClass::LITERATURE.contains(c) && st.busy_s > 0.0)
        .map(|(c, st)| format!("{} {:.3} s", c.name(), st.busy_s))
        .collect();
    Output {
        rows: vec![
            format!("HtoD,{:.4},{:.4}", d.ours.0, d.related.0),
            format!("DtoH,{:.4},{:.4}", d.ours.1, d.related.1),
            format!("GPUSort,{:.4},{:.4}", d.ours.2, d.related.2),
            format!("literature_total,{:.4},", t.literature_total_s()),
            format!("full_total,{:.4},", r.total_s),
        ],
        note: format!(
            "the related work's accounting omits {} = {:.3} s, {:.0}% of the truth",
            omitted.join(", "),
            t.missing_overhead_s(),
            100.0 * t.missing_overhead_s() / r.total_s
        ),
    }
}

fn fig08() -> Output {
    let rows = ex::fig08();
    Output {
        note: format!(
            "at the largest size the literature's 1+2+3 misses {:.0}% of the true time",
            100.0 * rows.last().map_or(f64::NAN, |r| r.missing_fraction())
        ),
        rows: rows
            .iter()
            .map(|r| {
                format!(
                    "{},{:.4},{:.4},{:.4},{:.4},{:.4}",
                    r.n, r.htod_s, r.dtoh_s, r.sort_s, r.literature_total_s, r.full_total_s
                )
            })
            .collect(),
    }
}

/// Speedup of the fastest approach over the reference at the two
/// sizes the paper quotes.
fn sweep_note(small: &ex::ApproachSweepRow, large: &ex::ApproachSweepRow, paper: &str) -> String {
    let speedup = |r: &ex::ApproachSweepRow| {
        let total = |label| r.total(label).unwrap_or(f64::NAN);
        total("Reference") / total("PipeMerge+ParMemCpy")
    };
    format!(
        "fastest (PipeMerge+ParMemCpy) vs reference: {:.2}x at n={:.1e}, {:.2}x at n={:.1e} (paper: {paper})",
        speedup(small),
        small.n as f64,
        speedup(large),
        large.n as f64
    )
}

fn fig09() -> Output {
    let rows = ex::fig09();
    Output {
        note: sweep_note(&rows[0], &rows[rows.len() - 1], "3.47x / 3.21x"),
        rows: rows.iter().map(ex::ApproachSweepRow::csv).collect(),
    }
}

fn fig10() -> Output {
    let (one, two) = ex::fig10();
    Output {
        // The paper's sizes are multiples of b_s·n_s·n_GPU = 1.4e9.
        note: sweep_note(&two[1], &two[two.len() - 1], "1.89x / 2.02x, 2 GPUs"),
        rows: one
            .iter()
            .chain(&two)
            .map(ex::ApproachSweepRow::csv)
            .collect(),
    }
}

fn fig11() -> Output {
    let d = ex::fig11();
    let n_big = d.points.last().map_or(0, |p| p.0);
    Output {
        rows: d
            .points
            .iter()
            .map(|&(n, t1, t2)| {
                format!(
                    "{},{:.4},{:.4},{:.4},{:.4}",
                    n,
                    d.model1.predict(n),
                    t1,
                    d.model2.predict(n),
                    t2
                )
            })
            .collect(),
        note: format!(
            "models y = {:.3e}n / {:.3e}n (paper: 6.278e-9 / 3.706e-9); PipeData (1 GPU) stops \
             beating its model at n = {:.1e} (paper: 2.1e9); slowdown at n={:.1e}: {:.2}x / {:.2}x \
             (paper: 0.93x / 0.88x)",
            d.model1.slope,
            d.model2.slope,
            d.crossover_1gpu().map_or(f64::NAN, |c| c as f64),
            n_big as f64,
            d.slowdown_1gpu(n_big).unwrap_or(f64::NAN),
            d.slowdown_2gpu(n_big).unwrap_or(f64::NAN)
        ),
    }
}

// ---------------------------------------------------------------- calibration

/// The calibration report being assembled: its lines and the target
/// that deviates most from the paper.
struct Calibration {
    rows: Vec<String>,
    worst: (String, f64),
}

impl Calibration {
    fn row(&mut self, name: &str, paper: f64, ours: f64) {
        let err = 100.0 * (ours - paper) / paper;
        if err.abs() > self.worst.1.abs() {
            self.worst = (name.to_string(), err);
        }
        self.rows
            .push(format!("{name:<58} {paper:>9.3} {ours:>9.3} {err:>+7.1}%"));
    }
}

fn calibrate() -> Output {
    let mut c = Calibration {
        rows: vec!["-".repeat(88)],
        worst: (String::new(), 0.0),
    };
    let total = |cfg: HetSortConfig, n: usize| simulate(cfg, n).expect("calibration sim").total_s;
    let p1 = platform1();
    let p2 = platform2();
    let mut p2_1g = p2.clone();
    p2_1g.gpus.truncate(1);

    // --- Figure 4 (PLATFORM1 CPU reference) -------------------------
    let t1 = reference_time(&p1, 1_000_000_000, 1);
    c.row("Fig4a ref sort n=1e9 1 thread (s)", 140.0, t1);
    c.row(
        "Fig4b speedup n=1e9, 16t",
        10.12,
        t1 / reference_time(&p1, 1_000_000_000, 16),
    );
    c.row(
        "Fig4b speedup n=1e6, 16t",
        3.17,
        reference_time(&p1, 1_000_000, 1) / reference_time(&p1, 1_000_000, 16),
    );

    // --- Figure 5 (PLATFORM2, BLine vs ref) -------------------------
    for n in [200_000_000usize, 400_000_000, 700_000_000] {
        let bline = total(
            HetSortConfig::paper_protocol(p2.clone(), Approach::BLine),
            n,
        );
        c.row(
            &format!("Fig5 ratio CPU/GPU at n={:.0e} (1.22..1.32)", n as f64),
            1.27,
            reference_time_full(&p2, n) / bline,
        );
        if n == 700_000_000 {
            c.row(
                "Fig5/IV-G BLine n=7e8 total (6.278 ns/elem → s)",
                6.278e-9 * n as f64,
                bline,
            );
        }
    }

    // --- Figures 7/8 (PLATFORM1, n=8e8 components) -------------------
    let r7 = ex::fig07().report;
    c.row("Fig7 HtoD (s)", 0.536, comp(&r7, OpClass::HtoD));
    c.row("Fig7 DtoH (s)", 0.484, comp(&r7, OpClass::DtoH));
    c.row("Fig7 GPUSort ~ (s)", 0.42, comp(&r7, OpClass::GpuSort));
    c.row(
        "Fig8 literature total @8e8 (s)",
        1.44,
        r7.metrics().literature_total_s(),
    );
    c.rows.push(format!(
        "{:<58} {:>9} {:>9.3}",
        "Fig8 full total @8e8 (s, paper shows 'much larger')", "> 2.5", r7.total_s
    ));

    // --- Figure 9 (PLATFORM1, b_s=5e8, n_s=2) -----------------------
    let n9 = 5_000_000_000usize;
    let [blm, pd, pmg, pmc] = ex::SERIES.map(|s| total(ex::series_cfg(&p1, s, 500_000_000), n9));
    c.row("Fig9 BLineMulti n=5e9 (s)", 31.2, blm);
    c.row("Fig9 PipeData n=5e9 (s)", 25.55, pd);
    c.row(
        "Fig9 PipeData gain over BLineMulti (22%)",
        0.22,
        (blm - pd) / blm,
    );
    c.row("Fig9 PipeMerge n=5e9 (s, ≲ PipeData)", 25.0, pmg);
    c.row(
        "Fig9 ParMemCpy gain over PipeMerge (13%)",
        0.13,
        (pmg - pmc) / pmg,
    );
    c.row(
        "Fig9 speedup fastest vs ref @5e9",
        3.21,
        reference_time_full(&p1, n9) / pmc,
    );
    let n1 = 1_000_000_000usize;
    c.row(
        "Fig9 speedup fastest vs ref @1e9",
        3.47,
        reference_time_full(&p1, n1) / total(ex::series_cfg(&p1, ex::PAR_MEMCPY, 500_000_000), n1),
    );

    // --- Figure 10 (PLATFORM2, b_s=3.5e8, 2 GPUs) --------------------
    let n10 = 4_900_000_000usize;
    let fastest2 = |n| total(ex::series_cfg(&p2, ex::PAR_MEMCPY, 350_000_000), n);
    c.row(
        "Fig10 speedup fastest(2gpu) vs ref @4.9e9",
        2.02,
        reference_time_full(&p2, n10) / fastest2(n10),
    );
    let n10s = 1_400_000_000usize;
    c.row(
        "Fig10 speedup fastest(2gpu) vs ref @1.4e9",
        1.89,
        reference_time_full(&p2, n10s) / fastest2(n10s),
    );

    // --- Figure 11 (lower-bound models) ------------------------------
    // 1-GPU model slope from BLine at n=7e8 (must be 6.278 ns/elem).
    let slope1 = total(
        HetSortConfig::paper_protocol(p2_1g.clone(), Approach::BLine),
        700_000_000,
    ) / 7e8;
    c.row("Fig11 1-GPU model slope (ns/elem)", 6.278, slope1 * 1e9);
    // 2-GPU model: BLineMulti, n=1.4e9, b_s = n/2 per GPU.
    let slope2 = total(
        ex::series_cfg(&p2, ex::BLINE_MULTI, 700_000_000),
        1_400_000_000,
    ) / 1.4e9;
    c.row("Fig11 2-GPU model slope (ns/elem)", 3.706, slope2 * 1e9);
    c.row(
        "Fig11 PipeData/model 1 GPU @4.9e9 (slowdown 0.93x)",
        1.0 / 0.93,
        total(ex::series_cfg(&p2_1g, ex::PIPE_DATA, 350_000_000), n10) / (slope1 * n10 as f64),
    );
    c.row(
        "Fig11 PipeData/model 2 GPU @4.9e9 (slowdown 0.88x)",
        1.0 / 0.88,
        total(ex::series_cfg(&p2, ex::PIPE_DATA, 350_000_000), n10) / (slope2 * n10 as f64),
    );
    Output {
        note: format!("largest deviation: {} {:+.1}%", c.worst.0, c.worst.1),
        rows: c.rows,
    }
}

fn calibrate_components() -> Output {
    let mut rows = Vec::new();
    for series in ex::SERIES {
        let r = simulate(
            ex::series_cfg(&platform1(), series, 500_000_000),
            5_000_000_000,
        )
        .expect("components sim");
        rows.push(format!("par_memcpy={}", series.2));
        let reg = r.metrics();
        rows.extend(r.summary(&reg.totals()).lines().map(str::to_string));
        // When did the (one, final) multiway merge start and end?
        if let Some(s) = reg
            .spans()
            .iter()
            .find(|s| s.class == OpClass::MultiwayMerge)
        {
            rows.push(format!(
                "  multiway window: {:.2} .. {:.2}",
                s.t_start, s.t_end
            ));
        }
        rows.push(String::new());
    }
    Output {
        rows,
        note: String::new(),
    }
}

// ---------------------------------------------------------------- extensions

fn ablation_batch_streams() -> Output {
    let plat = platform1();
    let mut best = (0, f64::INFINITY);
    let rows = [1usize, 2, 4, 8]
        .iter()
        .map(|&ns| {
            let cfg =
                HetSortConfig::paper_protocol(plat.clone(), Approach::PipeMerge).with_streams(ns);
            let bs = (cfg.max_batch_elems() / 1_000_000) * 1_000_000;
            let cfg = cfg.with_batch_elems(bs);
            let r = simulate(cfg, 4_000_000_000).expect("ablation sim");
            if r.total_s < best.1 {
                best = (ns, r.total_s);
            }
            format!(
                "{ns},{bs},{},{:.4},{:.4}",
                r.nb,
                r.total_s,
                comp(&r, OpClass::MultiwayMerge)
            )
        })
        .collect();
    Output {
        rows,
        note: format!(
            "n_s = {} is the optimum: more streams overlap more transfers but force smaller \
             batches and a longer multiway merge (the paper runs n_s = 2)",
            best.0
        ),
    }
}

fn ablation_pinned_size() -> Output {
    let plat = platform1();
    let mut best = (0, f64::INFINITY);
    let rows = [
        100_000usize,
        1_000_000,
        10_000_000,
        100_000_000,
        500_000_000,
    ]
    .iter()
    .map(|&ps| {
        let cfg = HetSortConfig::paper_protocol(plat.clone(), Approach::PipeData)
            .with_batch_elems(500_000_000)
            .with_pinned_elems(ps);
        let r = simulate(cfg, 2_000_000_000).expect("ablation sim");
        if r.total_s < best.1 {
            best = (ps, r.total_s);
        }
        format!(
            "{ps},{:.4},{:.4},{}",
            r.total_s,
            comp(&r, OpClass::PinnedAlloc),
            (r.sync_s / plat.pcie.chunk_sync_s).round()
        )
    })
    .collect();
    Output {
        rows,
        note: format!(
            "U-shaped: per-chunk sync dominates below p_s = {:.0e}, pinned allocation above \
             (the paper's 1e6 sits on the cheap flank)",
            best.0 as f64
        ),
    }
}

fn ablation_nvlink() -> Output {
    let mut shares = Vec::new();
    let rows = [12.0f64, 25.0, 50.0, 75.0, 150.0]
        .iter()
        .map(|&link_gbs| {
            let mut p = platform1();
            p.pcie.pinned_bps = link_gbs * 1e9;
            p.pcie.bidir_total_bps = 2.0 * link_gbs * 1e9 * 0.55;
            let r = simulate(
                ex::series_cfg(&p, ex::PAR_MEMCPY, 500_000_000),
                5_000_000_000,
            )
            .expect("ablation sim");
            // The final multiway merge never overlaps anything, so its
            // busy time is an honest share of the makespan.
            let merge = comp(&r, OpClass::MultiwayMerge);
            shares.push(100.0 * merge / r.total_s);
            format!("{link_gbs},{:.4},{merge:.4}", r.total_s)
        })
        .collect();
    Output {
        rows,
        note: format!(
            "the CPU multiway merge's share of the makespan grows {:.0}% -> {:.0}% as the link \
             speeds up 12 -> 150 GB/s (§V's closing claim)",
            shares.first().copied().unwrap_or(f64::NAN),
            shares.last().copied().unwrap_or(f64::NAN)
        ),
    }
}

fn ablation_pair_merge_threads() -> Output {
    let rows = [2u32, 4, 8, 12, 16]
        .iter()
        .map(|&t| {
            let mut cfg = ex::series_cfg(&platform1(), ex::PIPE_MERGE, 500_000_000);
            cfg.pair_merge_threads = t;
            let r = simulate(cfg, 5_000_000_000).expect("ablation sim");
            format!("{t},{:.4}", r.total_s)
        })
        .collect();
    Output {
        rows,
        note: "too few threads and the merges lag the pipeline; too many and they starve the \
               staging copies (the load imbalance §III-D3 warns about)"
            .into(),
    }
}

fn ablation_pageable() -> Output {
    let plat = platform1();
    let pinned = ex::fig07().report.total_s;
    // Pageable path: transfers at the pageable rate with no staging
    // copies (the driver stages internally).
    let mut m = Machine::new(plat.clone());
    let h = m.transfer(
        TransferDir::HtoD,
        0,
        6.4e9,
        false,
        false,
        None,
        &[],
        None,
        0,
    );
    let s = m.gpu_sort(0, 8e8, None, &[h], None, 0);
    m.transfer(
        TransferDir::DtoH,
        0,
        6.4e9,
        false,
        false,
        None,
        &[s],
        None,
        0,
    );
    let pageable = m.run().expect("pageable sim").makespan();
    Output {
        rows: vec![
            format!("pinned_staging,{pinned:.4}"),
            format!("pageable,{pageable:.4}"),
        ],
        note: format!(
            "raw link rates are pinned {:.0} GB/s vs pageable {:.0} GB/s (the paper's ~2x); the \
             blocking baseline's serial chunked staging gives it back — §IV-E's overhead \
             argument, which the piped approaches answer by overlapping the copies",
            plat.pcie.pinned_bps / 1e9,
            plat.pcie.pageable_bps / 1e9
        ),
    }
}

fn rejected_strategies() -> Output {
    let mut heuristic_wins = true;
    let rows = [2usize, 3, 4, 5]
        .iter()
        .map(|&i| {
            let n = i * 1_000_000_000;
            let [heuristic, online, tree] = [
                PairStrategy::PaperHeuristic,
                PairStrategy::Online,
                PairStrategy::MergeTree,
            ]
            .map(|strategy| {
                let cfg = ex::series_cfg(&platform1(), ex::PIPE_MERGE, 500_000_000)
                    .with_pair_strategy(strategy);
                simulate(cfg, n).expect("strategy sim").total_s
            });
            heuristic_wins &= heuristic < online.min(tree);
            format!("{n},{heuristic:.4},{online:.4},{tree:.4}")
        })
        .collect();
    Output {
        rows,
        note: format!(
            "the paper's heuristic wins at every size: {heuristic_wins} (paper: online merging \
             and a merge tree \"delay the multiway merging procedure\")"
        ),
    }
}

fn kv_records() -> Output {
    // The paper's substitution: 8e8 bare keys = 5.96 GiB.
    let keys = ex::fig07().report;
    // [5]'s actual workload: 3.75e8 16-byte records = 5.59 GiB. Sizing
    // is in elements; 2 × 16 B × 5e8 = 16 GB fits.
    let kv_cfg = HetSortConfig::paper_protocol(platform1(), Approach::BLine)
        .with_elem_bytes(ElemWidth::KeyValue)
        .with_batch_elems(500_000_000);
    let kv = simulate(kv_cfg, 375_000_000).expect("kv sim");
    let htod = |r: &hetsort_core::TimingReport| comp(r, OpClass::HtoD);
    let row = |name: &str, n: usize, bytes: u32, r: &hetsort_core::TimingReport| {
        format!(
            "{name},{n},{bytes},{:.4},{:.4},{:.4},{:.4},{:.4}",
            htod(r),
            comp(r, OpClass::DtoH),
            comp(r, OpClass::GpuSort),
            r.metrics().literature_total_s(),
            r.total_s
        )
    };
    Output {
        rows: vec![
            row("keys", 800_000_000, 8, &keys),
            row("kv", 375_000_000, 16, &kv),
        ],
        note: format!(
            "transfer times agree within {:.0}% (same byte volume — the paper's §IV-E check)",
            100.0 * ((htod(&keys) - htod(&kv)) / htod(&keys)).abs()
        ),
    }
}

fn nvlink_platform() -> PlatformSpec {
    let mut p = platform1();
    p.name = "NVLINK-ERA".into();
    p.pcie.pinned_bps = 75.0e9;
    p.pcie.pageable_bps = 30.0e9;
    p.pcie.bidir_total_bps = 120.0e9;
    p.pcie.chunk_sync_s = 0.2e-3;
    p.gpus[0].global_mem_bytes = 32 << 30;
    p.gpus[0].sort_keys_per_s = 3.2e9;
    p.gpus[0].mem_bw_bps = 900.0e9;
    p
}

/// GPU-merge-assist pipeline, hand-built on [`Machine`] with double
/// buffering: two buffer *sets* (A/B) of two streams each alternate
/// between batch pairs, so pair k+1 uploads and sorts in set B while
/// pair k's device-merged run drains to the host from set A. The
/// 32 GiB device affords the four slots (4 × 2·b_s·8 B = 16 GB at
/// b_s = 2.5·10⁸). Returns `(makespan, CPU multiway seconds)`.
fn gpu_merge_assist(plat: &PlatformSpec, n: usize, bs: usize, ps: usize) -> (f64, f64) {
    let nb = n / bs;
    assert_eq!(nb % 2, 0, "demo assumes even batch count");
    let mut m = Machine::new(plat.clone());
    let sets = [
        [m.stream("sA0"), m.stream("sA1")],
        [m.stream("sB0"), m.stream("sB1")],
    ];
    let chunk_bytes = 8.0 * ps as f64;
    let chunks = bs / ps;
    // One pinned buffer per stream.
    let allocs = [[(); 2]; 2].map(|set| set.map(|()| m.pinned_alloc(8 * ps as u64, &[], None)));

    let mut merged_outs = Vec::new();
    for k in 0..nb / 2 {
        let set = k % 2;
        let queues = sets[set];
        let mut sorts = Vec::new();
        for half in 0..2 {
            let q = queues[half];
            let batch = (2 * k + half) as u64;
            let mut last = allocs[set][half];
            for c in 0..chunks {
                let key = batch * 10_000 + c as u64;
                let st = m.host_memcpy(true, chunk_bytes, 1, Some(q), &[last], None, key);
                last = m.transfer(
                    TransferDir::HtoD,
                    0,
                    chunk_bytes,
                    true,
                    true,
                    Some(q),
                    &[st],
                    None,
                    key,
                );
            }
            sorts.push(m.gpu_sort(0, bs as f64, Some(q), &[last], None, batch));
        }
        // Device merge of the two sorted runs (exclusive on the GPU),
        // shipped back through this set's first stream while the other
        // set's next pair proceeds.
        let q = Some(queues[0]);
        let mut last = m.gpu_merge(0, 2.0 * bs as f64, 8, q, &sorts, None);
        for c in 0..2 * chunks {
            let key = k as u64 * 100_000 + c as u64;
            let dt = m.transfer(
                TransferDir::DtoH,
                0,
                chunk_bytes,
                true,
                true,
                q,
                &[last],
                None,
                key,
            );
            last = m.host_memcpy(false, chunk_bytes, 1, q, &[dt], None, key);
        }
        merged_outs.push(last);
    }
    // CPU multiway merge of nb/2 double-length runs.
    let mw = m.multiway_merge(n as f64, nb / 2, plat.cpu.cores, &merged_outs, None);
    let tl = m.run().expect("gpu-merge-assist sim");
    (tl.makespan(), tl.span(mw).duration())
}

fn nvlink_future() -> Output {
    let plat = nvlink_platform();
    let n = 4_000_000_000usize;
    let bs = 250_000_000usize; // 4 double-buffered slots fit in 32 GiB

    // Baseline: the paper's architecture on the same platform.
    let cpu_arch = simulate(ex::series_cfg(&plat, ex::PAR_MEMCPY, bs), n).expect("baseline sim");
    let cpu_merge = comp(&cpu_arch, OpClass::MultiwayMerge) + comp(&cpu_arch, OpClass::PairMerge);
    let (assist_total, assist_mw) = gpu_merge_assist(&plat, n, bs, 1_000_000);
    Output {
        rows: vec![
            format!("cpu_merge,{:.4},{cpu_merge:.4}", cpu_arch.total_s),
            format!("gpu_merge_assist,{assist_total:.4},{assist_mw:.4}"),
        ],
        note: format!(
            "merging batch pairs on the device shrinks the CPU's merge work and the end-to-end \
             time by {:.0}% — the paper's closing argument for GPU-side merging",
            100.0 * (cpu_arch.total_s - assist_total) / cpu_arch.total_s
        ),
    }
}

// ---------------------------------------------------------------- BENCH.json

/// `BENCH.json`, a JSON document in the registry's header + rows shape:
/// its first line is the header, the rest are the rows.
fn bench() -> Output {
    let doc = crate::gate::run_matrix().expect("pinned scenario matrix");
    let mut lines = doc.lines().map(String::from);
    assert_eq!(lines.next().as_deref(), Some("{"));
    Output {
        rows: lines.collect(),
        note: format!(
            "model seconds, pinned byte for byte (generated {}): after an intended model \
             change rerun this, bump gate::GENERATED, and say why in the PR",
            crate::gate::GENERATED
        ),
    }
}

// ---------------------------------------------------------------- host-timed

/// Best of three runs, in seconds.
fn best_of_3(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Thread counts worth timing on this host.
fn host_threads() -> impl Iterator<Item = usize> {
    let host = hetsort_algos::par::default_threads();
    [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(move |&t| t <= host * 4)
}

fn host_fig04(n: usize) -> Output {
    use hetsort_algos::introsort::introsort;
    use hetsort_algos::mergesort::par_mergesort;
    use hetsort_algos::qsort::{cmp_f64, qsort};
    use hetsort_algos::radix::radix_sort;
    use hetsort_algos::radix_par::par_radix_sort;
    use hetsort_algos::samplesort::par_samplesort;

    let base = hetsort_workloads::generate(hetsort_workloads::Distribution::Uniform, n, 42)
        .expect("valid workload")
        .data;
    let time_sort = |sort: &dyn Fn(&mut Vec<f64>)| {
        best_of_3(|| {
            let mut v = base.clone();
            sort(&mut v);
        })
    };
    let t_intro = time_sort(&|v| introsort(v));
    let t_qsort = time_sort(&|v| qsort(v, cmp_f64));
    let t_radix = time_sort(&|v| radix_sort(v));
    let mut rows = vec![
        format!("introsort,1,{t_intro:.6}"),
        format!("qsort,1,{t_qsort:.6}"),
        format!("radix,1,{t_radix:.6}"),
    ];
    for p in host_threads() {
        rows.push(format!(
            "par_mergesort,{p},{:.6}",
            time_sort(&|v| par_mergesort(p, v))
        ));
        rows.push(format!(
            "par_samplesort,{p},{:.6}",
            time_sort(&|v| par_samplesort(p, v))
        ));
        rows.push(format!(
            "par_radix,{p},{:.6}",
            time_sort(&|v| par_radix_sort(p, v))
        ));
    }
    Output {
        rows,
        note: format!(
            "n = {n}, {} hw threads: qsort is {:.2}x introsort (paper: ~2x), LSD radix {:.2}x",
            hetsort_algos::par::default_threads(),
            t_qsort / t_intro,
            t_radix / t_intro
        ),
    }
}

fn host_fig06(n: usize) -> Output {
    use hetsort_algos::merge::par_merge_into;
    use hetsort_workloads::{generate_batch_sorted, Distribution};

    // Uniform keys, and the 16 distinct keys of `sort_dups`, whose
    // merges are runs of ties.
    let shapes = [
        ("uniform", Distribution::Uniform),
        ("16_distinct", Distribution::DuplicateHeavy { distinct: 16 }),
    ];
    let mut rows = Vec::new();
    for (keys, dist) in shapes {
        let w = generate_batch_sorted(dist, n / 2, 2, 7).expect("valid workload");
        let (a, b) = w.split_at(n / 2);
        let mut out = vec![0.0f64; a.len() + b.len()];
        let mut time = |p| best_of_3(|| par_merge_into(p, a, b, &mut out));
        let t1 = time(1);
        for p in host_threads() {
            let t = if p == 1 { t1 } else { time(p) };
            rows.push(format!("{keys},{p},{t:.6},{:.4}", t1 / t));
        }
    }
    Output {
        rows,
        note: format!(
            "two sorted halves of n = {n}, {} hw threads (paper: 8.14x on 16 cores)",
            hetsort_algos::par::default_threads()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_files_are_unique() {
        for (i, a) in REGISTRY.iter().enumerate() {
            assert_eq!(find(a.name).map(|e| e.name), Some(a.name));
            for b in &REGISTRY[i + 1..] {
                assert_ne!(a.name, b.name);
                assert!(a.file.is_none() || a.file != b.file, "{}", a.name);
            }
        }
    }

    #[test]
    fn console_only_entries_print_and_write_nothing() {
        let mut out = Vec::new();
        find("table2").unwrap().report(0, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("=== table2: Table II"));
        assert!(text.contains("PLATFORM1") && text.contains("PLATFORM2"));
        assert!(!text.contains("wrote "));
    }

    #[test]
    fn report_stops_on_a_closed_pipe() {
        struct Closed;
        impl Write for Closed {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = find("table2").unwrap().report(0, &mut Closed).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }
}
