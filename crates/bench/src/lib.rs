//! Shared plumbing for the experiment binaries that regenerate every
//! table and figure of the paper (see DESIGN.md §3 for the index).
//!
//! Each binary under `src/bin/` prints one figure's rows to stdout and,
//! with `--json <path>`, also serialises the raw series for archival.
//! The binaries are deliberately thin: all experiment logic lives in
//! `heb_core::experiments` so that the integration tests exercise the
//! exact same code paths.
//!
//! [`ledger`] is the codec of `BENCH_engine_throughput.json`, the
//! ledger the `microbench` guards and sweeps read and write.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod ledger;

use std::fs;
use std::path::Path;

/// A labelled series of `(x, y)` points — the common shape every
/// figure's output reduces to.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    #[must_use]
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            label: label.into(),
            points,
        }
    }
}

/// A complete figure: a title plus its series, serialisable to JSON.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure identifier ("Figure 12(a)").
    pub title: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates a figure.
    #[must_use]
    pub fn new(title: impl Into<String>, series: Vec<Series>) -> Self {
        Self {
            title: title.into(),
            series,
        }
    }

    /// Writes the figure as pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn write_json(&self, path: &Path) -> Result<(), Box<dyn std::error::Error>> {
        fs::write(path, self.to_json_pretty())?;
        Ok(())
    }

    /// Renders the figure as pretty-printed JSON.
    ///
    /// Hand-rolled emitter: the build environment is offline, so the
    /// figure shape is kept simple enough (strings and finite floats)
    /// that serde is unnecessary.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"title\": {},\n", json_string(&self.title)));
        out.push_str("  \"series\": [\n");
        for (si, s) in self.series.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"label\": {},\n", json_string(&s.label)));
            out.push_str("      \"points\": [\n");
            for (pi, (x, y)) in s.points.iter().enumerate() {
                let comma = if pi + 1 < s.points.len() { "," } else { "" };
                out.push_str(&format!(
                    "        [{}, {}]{comma}\n",
                    json_number(*x),
                    json_number(*y)
                ));
            }
            out.push_str("      ]\n");
            let comma = if si + 1 < self.series.len() { "," } else { "" };
            out.push_str(&format!("    }}{comma}\n"));
        }
        out.push_str("  ]\n}");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float as a JSON number (JSON has no NaN/Inf — map to null).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // `{}` prints integral floats without a dot; keep them valid
        // JSON numbers either way, but add `.0` for round-trip clarity.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Prints a markdown-style table: a header row and aligned cells.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (idx, cell) in row.iter().enumerate() {
            if idx < widths.len() {
                widths[idx] = widths[idx].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::from("|");
        for (idx, cell) in cells.iter().enumerate() {
            let w = widths.get(idx).copied().unwrap_or(cell.len());
            line.push_str(&format!(" {cell:>w$} |"));
        }
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Parses an optional `--json <path>` argument pair from `args`.
#[must_use]
pub fn json_path(args: &[String]) -> Option<std::path::PathBuf> {
    args.windows(2)
        .find(|w| w[0] == "--json")
        .map(|w| std::path::PathBuf::from(&w[1]))
}

/// Parses an optional `--hours <f64>` argument (scale knob so CI can run
/// the binaries quickly while full runs default to paper-scale).
#[must_use]
pub fn hours_arg(args: &[String], default: f64) -> f64 {
    args.windows(2)
        .find(|w| w[0] == "--hours")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_path_parsing() {
        let args = vec!["--json".to_string(), "/tmp/x.json".to_string()];
        assert_eq!(json_path(&args).unwrap().to_str().unwrap(), "/tmp/x.json");
        assert!(json_path(&[]).is_none());
    }

    #[test]
    fn hours_parsing() {
        let args = vec!["--hours".to_string(), "2.5".to_string()];
        assert_eq!(hours_arg(&args, 8.0), 2.5);
        assert_eq!(hours_arg(&[], 8.0), 8.0);
        let bad = vec!["--hours".to_string(), "x".to_string()];
        assert_eq!(hours_arg(&bad, 8.0), 8.0);
    }

    #[test]
    fn figure_round_trips_to_json() {
        let fig = Figure::new("test", vec![Series::new("s", vec![(1.0, 2.0)])]);
        let dir = std::env::temp_dir().join("heb_fig_test.json");
        fig.write_json(&dir).unwrap();
        let body = std::fs::read_to_string(&dir).unwrap();
        assert!(body.contains("\"label\": \"s\""));
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn print_table_is_total() {
        print_table(
            "t",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
