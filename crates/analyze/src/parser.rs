//! A token-tree parser over the scrubbed code channel.
//!
//! The lexical rules only need per-line token scans, but HEB007 and
//! HEB009 need *structure*: which functions exist, where their bodies
//! run, and what they call. This module builds that structure without
//! `syn` (the environment is offline): [`tokenize`] splits the scrubbed code into
//! identifier/punctuation tokens, and [`parse_index`] walks the token
//! stream with a precomputed delimiter-match table to extract an
//! [`FileIndex`].
//!
//! It is a *recognizer*, not a compiler front-end: it has to be right
//! about item boundaries and call-shaped token runs, and it is allowed
//! to over-approximate everywhere else (see DESIGN §8 for the
//! documented limits).

use crate::index::{Call, FileIndex, FnDef};
use std::collections::BTreeSet;

/// One token: an identifier/number or a (possibly two-character)
/// punctuation mark, with the 0-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// The token text (`fn`, `run_one`, `::`, `=>`, `{`, …).
    pub text: String,
    /// 0-based source line.
    pub line: usize,
}

/// Splits scrubbed code lines into tokens. Strings and comments have
/// already been blanked by [`scrub`](crate::lexer::scrub), so every
/// token here is real code.
#[must_use]
pub fn tokenize(code: &[String]) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (line, text) in code.iter().enumerate() {
        let chars: Vec<char> = text.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    text: chars[start..i].iter().collect(),
                    line,
                });
            } else {
                // Join the two-character marks the parser keys on:
                // paths, match arms, and return arrows (`->` must not
                // count as a `>` when skipping generics).
                let pair: String = chars[i..(i + 2).min(chars.len())].iter().collect();
                if matches!(pair.as_str(), "::" | "->" | "=>") {
                    toks.push(Tok { text: pair, line });
                    i += 2;
                } else {
                    toks.push(Tok {
                        text: c.to_string(),
                        line,
                    });
                    i += 1;
                }
            }
        }
    }
    toks
}

/// Parses the token stream into a structural index. `test_lines` is
/// the `#[cfg(test)]` span set from
/// [`rules::test_spans`](crate::rules); items starting on those lines
/// are marked test-only.
#[must_use]
pub fn parse_index(code: &[String], test_lines: &BTreeSet<usize>) -> FileIndex {
    let toks = tokenize(code);
    let close = match_delims(&toks);
    let mut parser = Parser {
        toks: &toks,
        close: &close,
        test_lines,
        out: FileIndex::default(),
    };
    parser.scan(0, toks.len());
    parser.out
}

/// For every opening `(`/`[`/`{` token index, the index of its
/// matching close (unmatched opens close at the last token).
fn match_delims(toks: &[Tok]) -> Vec<usize> {
    let mut close: Vec<usize> = (0..toks.len()).collect();
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" => stack.push(i),
            ")" | "]" | "}" => {
                if let Some(open) = stack.pop() {
                    close[open] = i;
                }
            }
            _ => {}
        }
    }
    for open in stack {
        close[open] = toks.len().saturating_sub(1);
    }
    close
}

/// Identifiers that look call-shaped (`ident(`) but are keywords.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "let", "mut", "ref", "move", "in",
    "as", "impl", "dyn", "where", "pub", "use", "mod", "struct", "enum", "trait", "type", "const",
    "static", "unsafe", "extern", "crate", "super", "break", "continue", "fn", "async", "await",
    "yield", "box", "self", "Self", "true", "false",
];

struct Parser<'a> {
    toks: &'a [Tok],
    close: &'a [usize],
    test_lines: &'a BTreeSet<usize>,
    out: FileIndex,
}

impl Parser<'_> {
    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    fn in_test(&self, line: usize) -> bool {
        self.test_lines.contains(&line)
    }

    /// The main walk. Deliberately descends *into* item bodies (a
    /// `fn` returns a position just inside its body) so nested items —
    /// fns inside impls, traits, modules, or other fns — are found by
    /// the same loop. Enum and use bodies are the exception: they may
    /// contain `fn`-pointer types and path tokens that would misparse
    /// as items, so those are skipped whole.
    fn scan(&mut self, mut i: usize, end: usize) {
        while i < end {
            match self.text(i) {
                "#" => i = self.attr(i),
                "use" => i = self.skip_use(i, end),
                "fn" if is_ident(self.text(i + 1)) => i = self.fn_def(i, end),
                "enum" if is_ident(self.text(i + 1)) => i = self.skip_enum(i, end),
                _ => i += 1,
            }
        }
    }

    /// `#[attr(…)]` / `#![attr]`: returns the position after the
    /// attribute, so nothing inside it parses as an item.
    fn attr(&self, i: usize) -> usize {
        let bracket = if self.text(i + 1) == "[" {
            i + 1
        } else if self.text(i + 1) == "!" && self.text(i + 2) == "[" {
            i + 2
        } else {
            return i + 1;
        };
        self.close[bracket] + 1
    }

    /// `use a::b::{c, d};` — returns the position after the `;`.
    fn skip_use(&self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        while j < end && self.text(j) != ";" {
            j += 1;
        }
        j + 1
    }

    /// `fn name…(…) … { body }` — records the def with its body line
    /// range and call-shaped token runs, then resumes *inside* the
    /// body so nested items are still found.
    fn fn_def(&mut self, i: usize, end: usize) -> usize {
        let line = self.toks[i].line;
        let name = self.text(i + 1).to_string();
        // Find the body: skip parameter/return groups; `;` means a
        // trait-method declaration without a body.
        let mut j = i + 2;
        let mut body = None;
        while j < end {
            match self.text(j) {
                "(" | "[" => j = self.close[j] + 1,
                "{" => {
                    body = Some((j, self.close[j]));
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        let (calls, span, resume) = match body {
            Some((open, close)) => (
                self.extract_calls(open + 1, close),
                (self.toks[open].line, self.toks[close].line),
                open + 1,
            ),
            None => (Vec::new(), (line, line), j + 1),
        };
        self.out.fns.push(FnDef {
            name,
            line,
            in_test: self.in_test(line),
            body: span,
            calls,
            taints: Vec::new(),
        });
        resume
    }

    /// Call-shaped token runs inside a body: `name(`, `.name(`,
    /// `name::<T>(`. Macros (`name!(`) and keywords are skipped.
    fn extract_calls(&self, from: usize, to: usize) -> Vec<Call> {
        let mut calls = Vec::new();
        for k in from..to {
            let name = self.text(k);
            if !is_ident(name) || KEYWORDS.contains(&name) || self.text(k + 1) == "!" {
                continue;
            }
            if k > 0 && self.text(k - 1) == "fn" {
                continue; // a definition, not a call
            }
            let mut after = k + 1;
            if self.text(after) == "::" && self.text(after + 1) == "<" {
                after = self.skip_angles(after + 1, to);
            }
            if self.text(after) == "(" {
                calls.push(Call {
                    name: name.to_string(),
                    line: self.toks[k].line,
                    method: k > 0 && self.text(k - 1) == ".",
                });
            }
        }
        calls
    }

    /// Skips a balanced `<…>` run starting at `open` (which must be
    /// `<`); returns the position after the closing `>`. `->` is a
    /// single token, so arrows never miscount.
    fn skip_angles(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut j = open;
        while j < end {
            match self.text(j) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// `enum Name {…}`: returns the position after the body, which is
    /// skipped whole (variant field types may contain `fn`-pointer
    /// tokens).
    fn skip_enum(&self, i: usize, end: usize) -> usize {
        let mut j = i + 2;
        while j < end && self.text(j) != "{" && self.text(j) != ";" {
            if self.text(j) == "<" {
                j = self.skip_angles(j, end);
            } else {
                j += 1;
            }
        }
        if j >= end || self.text(j) != "{" {
            return j + 1;
        }
        self.close[j] + 1
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.starts_with(|c: char| c.is_alphabetic() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;

    fn parse(src: &str) -> FileIndex {
        let scrubbed = scrub(src);
        parse_index(&scrubbed.code, &BTreeSet::new())
    }

    #[test]
    fn finds_fns_with_calls_and_bodies() {
        let idx = parse("fn a() {\n    b();\n    x.c();\n    d::<u64>(1);\n}\nfn b() {}\n");
        assert_eq!(idx.fns.len(), 2);
        let a = &idx.fns[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.body, (0, 4));
        let names: Vec<&str> = a.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["b", "c", "d"]);
        assert!(a.calls[1].method && !a.calls[0].method);
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let idx = parse("fn a() {\n    assert!(x);\n    if cond() { loop {} }\n    return;\n}\n");
        let names: Vec<&str> = idx.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["cond"]);
    }

    #[test]
    fn impl_methods_are_indexed_as_fns() {
        let idx = parse(
            "impl<F: Fn(u32) -> u32> Hook for Wrap<F> {\n    fn fire(&self) { self.run(); }\n    \
             fn idle(&mut self) {}\n}\nimpl Plain {\n    fn new() -> Self { Plain }\n}\n",
        );
        let names: Vec<&str> = idx.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["fire", "idle", "new"]);
        assert_eq!(idx.fns[0].calls[0].name, "run");
        assert_eq!(idx.fns[0].body, (1, 1));
    }

    #[test]
    fn use_decls_are_skipped_whole() {
        let idx = parse("use std::collections::{BTreeMap, BTreeSet};\nfn real() { go(); }\n");
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].name, "real");
    }

    #[test]
    fn fn_pointer_types_in_enums_do_not_misparse() {
        let idx = parse("enum E {\n    F(fn(u32) -> u32),\n    G,\n}\nfn real() {}\n");
        assert_eq!(idx.fns.len(), 1);
        assert_eq!(idx.fns[0].name, "real");
    }

    #[test]
    fn test_span_items_are_marked() {
        let src = "#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn lib_fn() {}\n";
        let scrubbed = scrub(src);
        let spans = crate::rules::test_spans(&scrubbed.code);
        let idx = parse_index(&scrubbed.code, &spans);
        let helper = idx.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(helper.in_test);
        let lib_fn = idx.fns.iter().find(|f| f.name == "lib_fn").unwrap();
        assert!(!lib_fn.in_test);
    }
}
