//! `experiments` — every reproduced table, figure and extension, by name.
//!
//! ```text
//! experiments list                 # every entry, its file, what it reproduces
//! experiments all                  # every deterministic entry → results/
//! experiments fig09 table2         # just these
//! experiments host_fig04 host_fig06 2000000   # host-timed entries at n = 2e6
//! ```
//!
//! Files go to `results/` (or `$HETSORT_RESULTS`). Exit codes: 0 = done
//! (also when stdout is a closed pipe), 1 = I/O error, 2 = usage error.

use std::io::{self, Write};
use std::process::ExitCode;

use hetsort_bench::registry::{find, Experiment, REGISTRY};
use hetsort_obs::stdout_exit_code;

const USAGE: &str = "usage: experiments list | all | <name>... [n]   (names: `experiments list`)";

fn list(out: &mut impl Write) -> io::Result<()> {
    for e in REGISTRY {
        let file = e.file.unwrap_or("(console only)");
        writeln!(out, "{:<28} {:<34} {}", e.name, file, e.about)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut selected: Vec<&Experiment> = Vec::new();
    let mut host_n = 500_000;
    let mut listing = false;
    for arg in std::env::args().skip(1) {
        if arg == "list" {
            listing = true;
        } else if arg == "all" {
            selected.extend(REGISTRY.iter().filter(|e| e.is_model()));
        } else if let Some(e) = find(&arg) {
            selected.push(e);
        } else if let Ok(n) = arg.parse::<usize>() {
            if n == 0 {
                eprintln!("experiments: a host-timed size must be at least 1\n{USAGE}");
                return ExitCode::from(2);
            }
            host_n = n;
        } else {
            eprintln!("experiments: unknown experiment {arg:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if !listing && selected.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let mut out = io::stdout().lock();
    let done = if listing {
        list(&mut out)
    } else {
        selected.iter().try_for_each(|e| e.report(host_n, &mut out))
    };
    // `experiments table2 | head`: a closed pipe is success.
    stdout_exit_code("experiments", done)
}
