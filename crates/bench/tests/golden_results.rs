//! `results/` is the repository's record of reproducing the paper and
//! the root `BENCH.json` its record of model time under the shipped
//! defaults, and nothing else runs the experiments that produced them —
//! so this test does: every deterministic registry entry must
//! regenerate its committed file byte for byte. A difference means the
//! experiment (or the model under it) moved, not that the file is
//! stale: regenerate with `experiments all` only when the change is
//! intended, and say so.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use hetsort_bench::output::file_contents;
use hetsort_bench::registry::{Run, REGISTRY};

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn every_deterministic_entry_reproduces_its_committed_file() {
    let mut differing = Vec::new();
    for e in REGISTRY {
        let (Run::Model(run), Some(file)) = (&e.run, e.file) else {
            continue;
        };
        let committed = std::fs::read_to_string(results().join(file))
            .unwrap_or_else(|err| panic!("results/{file}: {err}"));
        if file_contents(e.header, &run().rows) != committed {
            differing.push(file);
        }
    }
    assert!(
        differing.is_empty(),
        "no longer reproduced byte for byte: {differing:?}"
    );
}

#[test]
fn results_files_and_registry_entries_correspond() {
    // Every file in results/ is written by exactly one entry
    // (uniqueness is a registry unit test), and no entry writes a name
    // that is not committed. The one entry outside results/ is the
    // root BENCH.json.
    let on_disk: BTreeSet<String> = std::fs::read_dir(results())
        .expect("results/")
        .map(|f| {
            f.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .collect();
    let (outside, owned): (BTreeSet<&str>, BTreeSet<&str>) = REGISTRY
        .iter()
        .filter_map(|e| e.file)
        .partition(|f| f.starts_with("../"));
    assert_eq!(on_disk, owned.into_iter().map(str::to_string).collect());
    assert_eq!(outside, BTreeSet::from(["../BENCH.json"]));
}

#[test]
fn all_is_every_file_but_the_host_timed_ones() {
    let host: Vec<&str> = REGISTRY
        .iter()
        .filter(|e| !e.is_model())
        .filter_map(|e| e.file)
        .collect();
    assert_eq!(host, ["host_fig04_sorts.csv", "host_fig06_merge.csv"]);
}
