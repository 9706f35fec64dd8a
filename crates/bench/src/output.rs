//! File/console output helpers (hand-rolled; no serde dependency).

use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The repository's `results/` directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("HETSORT_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            // crates/bench → workspace root.
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("results")
        });
    std::fs::create_dir_all(&dir).expect("cannot create results dir");
    dir
}

/// The bytes of a results file: the header line, then one line per row.
pub fn file_contents(header: &str, rows: &[String]) -> String {
    let mut s = String::new();
    for line in std::iter::once(header).chain(rows.iter().map(String::as_str)) {
        s.push_str(line);
        s.push('\n');
    }
    s
}

/// Write a file into `results/` and return its path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> io::Result<PathBuf> {
    let path = results_dir().join(name);
    std::fs::write(&path, file_contents(header, rows))?;
    Ok(path)
}

/// Print comma-separated records (`header` first) as right-aligned
/// columns — the one console table every experiment shares.
pub fn print_table(out: &mut impl Write, header: &str, rows: &[String]) -> io::Result<()> {
    let records: Vec<Vec<&str>> = std::iter::once(header)
        .chain(rows.iter().map(String::as_str))
        .map(|r| r.split(',').collect())
        .collect();
    let mut width: Vec<usize> = Vec::new();
    for r in &records {
        width.resize(width.len().max(r.len()), 0);
        for (w, cell) in width.iter_mut().zip(r) {
            *w = (*w).max(cell.chars().count());
        }
    }
    for r in &records {
        let cells: Vec<String> = r
            .iter()
            .zip(&width)
            .map(|(cell, &w)| format!("{cell:>w$}"))
            .collect();
        writeln!(out, "{}", cells.join("  ").trim_end())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        std::env::set_var(
            "HETSORT_RESULTS",
            std::env::temp_dir().join("hetsort_test_results"),
        );
        let p = write_csv("t.csv", "a,b", &["1,2".into(), "3,4".into()]).unwrap();
        let s = std::fs::read_to_string(&p).unwrap();
        assert_eq!(s, "a,b\n1,2\n3,4\n");
        std::env::remove_var("HETSORT_RESULTS");
    }

    #[test]
    fn table_aligns_ragged_records() {
        let mut out = Vec::new();
        print_table(
            &mut out,
            "name,ours_s",
            &["HtoD,0.5333".into(), "x,1,".into()],
        )
        .unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "name  ours_s\nHtoD  0.5333\n   x       1\n"
        );
    }
}
