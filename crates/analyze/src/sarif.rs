//! Minimal SARIF 2.1.0 rendering, so CI can publish the gate's
//! findings as a standard artifact (uploaded by the workflow; any
//! SARIF viewer can consume it).
//!
//! Hand-rolled like [`crate::diagnostics::to_json`] — the subset is
//! tiny: one run, the rule table from
//! [`RULE_SUMMARIES`], and one result
//! per finding with `error`/`warning` level and a single physical
//! location.

use crate::diagnostics::{escape, Diagnostic};
use crate::rules::RULE_SUMMARIES;

/// Renders errors (new violations) and warnings (unused suppressions)
/// as one SARIF 2.1.0 document.
#[must_use]
pub fn render(errors: &[Diagnostic], warnings: &[Diagnostic]) -> String {
    let mut out = String::from(
        "{\n  \"version\": \"2.1.0\",\n  \"$schema\": \
         \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"runs\": [\n    {\n      \
         \"tool\": {\n        \"driver\": {\n          \"name\": \"heb-analyze\",\n          \
         \"rules\": [\n",
    );
    for (i, (id, summary)) in RULE_SUMMARIES.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{id}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            escape(summary),
            if i + 1 < RULE_SUMMARIES.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    let total = errors.len() + warnings.len();
    let mut emitted = 0;
    for (diags, level) in [(errors, "error"), (warnings, "warning")] {
        for d in diags {
            emitted += 1;
            out.push_str(&format!(
                "        {{\"ruleId\": \"{}\", \"level\": \"{level}\", \"message\": \
                 {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": \
                 {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": \
                 {}}}}}}}]}}{}\n",
                d.rule,
                escape(&d.message),
                escape(&d.path),
                d.line,
                if emitted < total { "," } else { "" }
            ));
        }
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, line: usize) -> Diagnostic {
        Diagnostic {
            rule,
            path: "crates/x/src/lib.rs".to_string(),
            line,
            message: "say \"hi\"".to_string(),
            snippet: String::new(),
        }
    }

    #[test]
    fn renders_levels_rules_and_escaped_messages() {
        let s = render(&[diag("HEB003", 4)], &[diag("HEB000", 9)]);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\": \"HEB003\", \"level\": \"error\""));
        assert!(s.contains("\"ruleId\": \"HEB000\", \"level\": \"warning\""));
        assert!(s.contains("say \\\"hi\\\""));
        assert!(s.contains("\"startLine\": 4"));
        // Rule metadata for every rule, including HEB000.
        for (id, _) in RULE_SUMMARIES {
            assert!(s.contains(&format!("\"id\": \"{id}\"")), "{id}");
        }
        // No trailing commas before closing brackets (strict parsers).
        assert!(!s.contains(",\n      ]"));
        assert!(!s.contains(",\n          ]"));
    }

    #[test]
    fn empty_input_is_still_valid_shape() {
        let s = render(&[], &[]);
        assert!(s.contains("\"results\": [\n      ]"));
    }
}
