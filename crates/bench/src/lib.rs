//! # hetsort-bench — the experiment harness
//!
//! [`registry::REGISTRY`] holds one entry per reproduced table/figure
//! and per file under `results/`; the `experiments` binary runs them by
//! name (`experiments list` prints the table below from the registry
//! itself), and `experiments all` regenerates every deterministic file
//! — the root `BENCH.json` ([`gate`]'s pinned scenario matrix, the
//! `bench` entry) among them.
//!
//! | Entries | Reproduce |
//! |---|---|
//! | `table2` | Table II (platform inventory) |
//! | `fig01_03` | Figures 1–3 (illustrative schedules, ASCII Gantt) |
//! | `fig04` … `fig11` | Figures 4–11 |
//! | `calibrate`, `calibrate_components` | model vs paper headline numbers |
//! | `ablation_*`, `rejected_strategies`, `kv_records`, `nvlink_future` | extensions beyond the paper's figures |
//! | `bench` | `BENCH.json`: model seconds of the 13 pinned scenarios |
//! | `host_fig04`, `host_fig06` | the real algorithms timed on this host (not part of `all`) |

// No unsafe anywhere in this crate — enforced, not assumed.
#![forbid(unsafe_code)]

pub mod experiments;
pub mod gate;
pub mod output;
pub mod registry;

pub use output::results_dir;
