//! What one benchmark run found: counts, output checks, and metrics,
//! printed as readable lines followed by the one-line JSON result.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (windows, days, scenario passes, queries).
    pub attempted: u64,
    /// Operations that failed, were refused, or timed out.
    pub failed: u64,
    /// Every output check that did not hold.
    pub mismatches: Vec<String>,
    /// Metrics reported in the JSON result.
    pub metrics: Vec<Metric>,
    /// Readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records an output check; `what` describes a failure.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.mismatches.push(what());
        }
    }

    /// Adds a metric to the JSON result.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every check held and every metric is a finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The JSON result line.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Non-finite values have no JSON form; `correct` is already
            // false for them.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Prints the readable lines, every metric with its unit, each
    /// failed check, and the JSON result as the last line.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for m in &self.metrics {
            println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_rate {rate} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        for m in &self.mismatches {
            println!("MISMATCH: {m}");
        }
        println!("{}", self.json());
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or NaN
/// where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.25, "s");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.check(false, || "boom".into());
        assert!(!o.correct());
    }
}
