//! The per-file item index: the structural facts the semantic rules
//! consume, plus a line-oriented serialization for the incremental
//! cache.
//!
//! An index is *derived* state — [`parse_index`](crate::parser) builds
//! the structure, [`scan_taints`] pre-computes the HEB007 taint-token
//! hits per function body (so a cached file never needs re-scrubbing),
//! and [`encode`]/[`decode`] round-trip a whole
//! [`FileAnalysis`] through
//! `results/analyze-cache/`. Any decode irregularity returns `None`:
//! a cache miss, never a wrong answer.

use crate::diagnostics::Diagnostic;
use crate::rules::{DirectiveKind, DirectiveRec, FileAnalysis};

/// One call-shaped token run inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// The called name (last path segment or method name).
    pub name: String,
    /// 0-based line of the call.
    pub line: usize,
    /// Whether the call was `.name(` (method syntax).
    pub method: bool,
}

/// One function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// The function name.
    pub name: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// Whether it sits inside a `#[cfg(test)]` span.
    pub in_test: bool,
    /// 0-based inclusive line range of the body braces.
    pub body: (usize, usize),
    /// Calls made in the body (over-approximate for nested items).
    pub calls: Vec<Call>,
    /// HEB007 taint-token hits in the body: `(token, 0-based line)`.
    pub taints: Vec<(String, usize)>,
}

/// Everything structural the semantic rules need from one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileIndex {
    /// Function definitions (methods included).
    pub fns: Vec<FnDef>,
}

/// Fills each function's `taints` with HEB007 taint-token hits found
/// in its body lines. Runs on scrubbed code, so strings and comments
/// never hit.
pub fn scan_taints(index: &mut FileIndex, code: &[String]) {
    for f in &mut index.fns {
        let (start, end) = f.body;
        let end = end.min(code.len().saturating_sub(1));
        for (line, text) in code.iter().enumerate().take(end + 1).skip(start) {
            for token in crate::rules::TAINT_TOKENS {
                if crate::rules::contains_word(text, token) {
                    f.taints.push(((*token).to_string(), line));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Cache serialization: one record per line, tab-separated fields, with
// `\t`/`\n`/`\\` escaped in free text. The format is versioned by the
// cache key (see `cache::key`), not in-band.
// ---------------------------------------------------------------------

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

fn flag(b: bool) -> &'static str {
    if b {
        "1"
    } else {
        "0"
    }
}

/// Serializes a whole per-file analysis for the incremental cache.
#[must_use]
pub fn encode(fa: &FileAnalysis) -> String {
    let mut out = String::new();
    for d in &fa.raw {
        out.push_str(&format!(
            "D\t{}\t{}\t{}\t{}\n",
            d.rule,
            d.line,
            esc(&d.message),
            esc(&d.snippet)
        ));
    }
    for d in &fa.directives {
        let kind = match d.kind {
            DirectiveKind::Line => "L",
            DirectiveKind::File => "F",
            DirectiveKind::Crate => "C",
        };
        out.push_str(&format!("S\t{kind}\t{}\t{}\n", d.rule, d.line));
    }
    let idx = &fa.index;
    for f in &idx.fns {
        out.push_str(&format!(
            "F\t{}\t{}\t{}\t{}\t{}\n",
            f.line,
            flag(f.in_test),
            f.body.0,
            f.body.1,
            esc(&f.name)
        ));
        for c in &f.calls {
            out.push_str(&format!(
                "C\t{}\t{}\t{}\n",
                c.line,
                flag(c.method),
                esc(&c.name)
            ));
        }
        for (token, line) in &f.taints {
            out.push_str(&format!("T\t{line}\t{}\n", esc(token)));
        }
    }
    out
}

/// Deserializes [`encode`] output. Any malformed record yields `None`
/// so the caller re-analyzes from source.
#[must_use]
pub fn decode(text: &str, path: &str) -> Option<FileAnalysis> {
    let mut fa = FileAnalysis::default();
    for line in text.lines() {
        let mut parts = line.split('\t');
        let tag = parts.next()?;
        match tag {
            "D" => {
                let rule = crate::rules::rule_id(parts.next()?)?;
                let line_no: usize = parts.next()?.parse().ok()?;
                let message = unesc(parts.next()?);
                let snippet = unesc(parts.next()?);
                fa.raw.push(Diagnostic {
                    rule,
                    path: path.to_string(),
                    line: line_no,
                    message,
                    snippet,
                });
            }
            "S" => {
                let kind = match parts.next()? {
                    "L" => DirectiveKind::Line,
                    "F" => DirectiveKind::File,
                    "C" => DirectiveKind::Crate,
                    _ => return None,
                };
                let rule = parts.next()?.to_string();
                let line_no: usize = parts.next()?.parse().ok()?;
                fa.directives.push(DirectiveRec {
                    kind,
                    rule,
                    line: line_no,
                });
            }
            "F" => {
                let line_no: usize = parts.next()?.parse().ok()?;
                let in_test = parts.next()? == "1";
                let body0: usize = parts.next()?.parse().ok()?;
                let body1: usize = parts.next()?.parse().ok()?;
                let name = unesc(parts.next()?);
                fa.index.fns.push(FnDef {
                    name,
                    line: line_no,
                    in_test,
                    body: (body0, body1),
                    calls: Vec::new(),
                    taints: Vec::new(),
                });
            }
            "C" => {
                let line_no: usize = parts.next()?.parse().ok()?;
                let method = parts.next()? == "1";
                let name = unesc(parts.next()?);
                fa.index.fns.last_mut()?.calls.push(Call {
                    name,
                    line: line_no,
                    method,
                });
            }
            "T" => {
                let line_no: usize = parts.next()?.parse().ok()?;
                let token = unesc(parts.next()?);
                fa.index.fns.last_mut()?.taints.push((token, line_no));
            }
            "" => {}
            _ => return None,
        }
    }
    Some(fa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{analyze_file, FileContext};

    #[test]
    fn encode_decode_round_trips_a_real_analysis() {
        let src = "use std::x::Y;\npub enum E { A, B(u8) }\nimpl H for T {\n    fn m(&self) { a.unwrap(); }\n}\nfn f(e: E) -> u8 {\n    match e {\n        E::A => 1,\n        _ => 0,\n    }\n}\n// heb-analyze: allow(HEB003, demo)\n";
        let ctx = FileContext::lib("core", "crates/core/src/x.rs");
        let fa = analyze_file(src, &ctx);
        let text = encode(&fa);
        let back = decode(&text, &ctx.path).expect("round trip");
        assert_eq!(fa.raw, back.raw);
        assert_eq!(fa.directives, back.directives);
        assert_eq!(fa.index, back.index);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode("Z\tnope\n", "x.rs").is_none());
        assert!(decode("D\tHEB999\t1\tm\ts\n", "x.rs").is_none());
        assert!(decode("F\tnot-a-number\t00\t0\t0\tname\n", "x.rs").is_none());
    }

    #[test]
    fn escaping_survives_tabs_and_newlines() {
        let s = "a\tb\\c";
        assert_eq!(unesc(&esc(s)), s);
    }
}
