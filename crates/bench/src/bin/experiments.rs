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
//! (also when stdout is a closed pipe), 1 = I/O error, 2 = usage error
//! (also a size with no host-timed entry to read it, or one above
//! [`HOST_N_MAX`]).

use std::io::{self, Write};
use std::process::ExitCode;

use hetsort_bench::registry::{find, Experiment, HOST_N_MAX, REGISTRY};
use hetsort_obs::stdout_exit_code;

const USAGE: &str = "usage: experiments list | all | <name>... [n]   (names: `experiments list`)";

fn list(out: &mut impl Write) -> io::Result<()> {
    for e in REGISTRY {
        let file = e.file.unwrap_or("(console only)");
        writeln!(out, "{:<28} {:<34} {}", e.name, file, e.about)?;
    }
    Ok(())
}

fn usage_error(why: &str) -> ExitCode {
    eprintln!("experiments: {why}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut selected: Vec<&Experiment> = Vec::new();
    let mut host_n = None;
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
                return usage_error("a host-timed size must be at least 1");
            }
            if n > HOST_N_MAX {
                return usage_error(&format!(
                    "a host-timed size must be at most {HOST_N_MAX:.0e} (got {n})"
                ));
            }
            host_n = Some(n);
        } else {
            return usage_error(&format!("unknown experiment {arg:?}"));
        }
    }
    if !listing && selected.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    if host_n.is_some() && (listing || selected.iter().all(|e| e.is_model())) {
        return usage_error(
            "a size is read only by the host-timed entries (host_fig04, host_fig06)",
        );
    }
    let host_n = host_n.unwrap_or(500_000);
    let mut out = io::stdout().lock();
    let done = if listing {
        list(&mut out)
    } else {
        selected.iter().try_for_each(|e| e.report(host_n, &mut out))
    };
    // `experiments table2 | head`: a closed pipe is success.
    stdout_exit_code("experiments", done)
}
