//! A token-tree parser over the scrubbed code channel.
//!
//! The lexical rules only need per-line token scans, but HEB007–HEB009
//! need *structure*: which functions exist, what they call, which
//! `impl` blocks define which methods, which `match` expressions have
//! which arms. This module builds that structure without `syn` (the
//! environment is offline): [`tokenize`] splits the scrubbed code into
//! identifier/punctuation tokens, and [`parse_index`] walks the token
//! stream with a precomputed delimiter-match table to extract an
//! [`FileIndex`](crate::index::FileIndex).
//!
//! It is a *recognizer*, not a compiler front-end: it has to be right
//! about item boundaries and call-shaped token runs, and it is allowed
//! to over-approximate everywhere else (see DESIGN §8 for the
//! documented limits).

use crate::index::{Call, EnumDef, FileIndex, FnDef, ImplDef, MatchDef, UseDecl};
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

    /// The main walk. Deliberately descends *into* item bodies (the
    /// branches return a position just inside the body) so nested
    /// items — matches inside fns, fns inside impls — are found by the
    /// same loop. Enum and use bodies are the exception: they may
    /// contain `fn`-pointer types and path tokens that would misparse
    /// as items, so those are skipped whole.
    fn scan(&mut self, mut i: usize, end: usize) {
        while i < end {
            match self.text(i) {
                "#" => i = self.attr(i),
                "use" => i = self.use_decl(i, end),
                "fn" if is_ident(self.text(i + 1)) => i = self.fn_def(i, end),
                "impl" => i = self.impl_block(i, end),
                "enum" if is_ident(self.text(i + 1)) => i = self.enum_def(i, end),
                "match" => i = self.match_expr(i, end),
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

    /// `use a::b::{c, d};` — recorded as one path string.
    fn use_decl(&mut self, i: usize, end: usize) -> usize {
        let line = self.toks[i].line;
        let mut path = String::new();
        let mut j = i + 1;
        while j < end && self.text(j) != ";" {
            path.push_str(self.text(j));
            j += 1;
        }
        self.out.uses.push(UseDecl { path, line });
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

    /// `impl<…> Trait for Type {…}` / `impl Type {…}`: the trait name
    /// is the last path segment before `for` (outside generics), the
    /// type name the first segment after it.
    fn impl_block(&mut self, i: usize, end: usize) -> usize {
        let line = self.toks[i].line;
        let mut j = i + 1;
        if self.text(j) == "<" {
            j = self.skip_angles(j, end);
        }
        let mut first_path: Vec<String> = Vec::new();
        let mut second_path: Vec<String> = Vec::new();
        let mut saw_for = false;
        let mut angle_depth = 0i32;
        while j < end {
            match self.text(j) {
                "{" => break,
                "where" if angle_depth == 0 => break,
                "<" => angle_depth += 1,
                ">" => angle_depth -= 1,
                "for" if angle_depth == 0 => saw_for = true,
                t if is_ident(t) && angle_depth == 0 => {
                    if saw_for {
                        second_path.push(t.to_string());
                    } else {
                        first_path.push(t.to_string());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= end || self.text(j) != "{" {
            return j; // `impl Trait for Type;` or malformed — nothing to index
        }
        let (open, close) = (j, self.close[j]);
        // Method names at the impl body's top level.
        let mut fns = BTreeSet::new();
        let mut k = open + 1;
        while k < close {
            match self.text(k) {
                "fn" if is_ident(self.text(k + 1)) => {
                    fns.insert(self.text(k + 1).to_string());
                    // Skip past the method body so nested closures or
                    // blocks are not mistaken for more methods.
                    let mut b = k + 2;
                    while b < close {
                        match self.text(b) {
                            "(" | "[" => b = self.close[b] + 1,
                            "{" => {
                                b = self.close[b] + 1;
                                break;
                            }
                            ";" => {
                                b += 1;
                                break;
                            }
                            _ => b += 1,
                        }
                    }
                    k = b;
                }
                "(" | "[" | "{" => k = self.close[k] + 1,
                _ => k += 1,
            }
        }
        let (trait_name, type_name) = if saw_for {
            (
                first_path.last().cloned(),
                second_path.first().cloned().unwrap_or_default(),
            )
        } else {
            (None, first_path.last().cloned().unwrap_or_default())
        };
        self.out.impls.push(ImplDef {
            trait_name,
            type_name,
            line,
            fns,
            in_test: self.in_test(line),
        });
        open + 1 // descend into the body: methods become FnDefs
    }

    /// `enum Name {…}`: unit/tuple/struct variants; the body is
    /// skipped whole (field types may contain `fn`-pointer tokens).
    fn enum_def(&mut self, i: usize, end: usize) -> usize {
        let line = self.toks[i].line;
        let name = self.text(i + 1).to_string();
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
        let (open, close) = (j, self.close[j]);
        let mut variants = Vec::new();
        let mut k = open + 1;
        while k < close {
            match self.text(k) {
                "#" => {
                    // Variant attribute: skip it.
                    let b = if self.text(k + 1) == "[" { k + 1 } else { k };
                    k = if self.text(b) == "[" {
                        self.close[b] + 1
                    } else {
                        k + 1
                    };
                }
                t if is_ident(t) => {
                    variants.push(t.to_string());
                    // Skip the variant payload / discriminant to the
                    // next top-level comma.
                    while k < close && self.text(k) != "," {
                        match self.text(k) {
                            "(" | "[" | "{" => k = self.close[k] + 1,
                            _ => k += 1,
                        }
                    }
                    k += 1;
                }
                _ => k += 1,
            }
        }
        self.out.enums.push(EnumDef {
            name,
            line,
            variants,
            in_test: self.in_test(line),
        });
        close + 1
    }

    /// `match scrutinee { arms }`: records `Head::Variant` path pairs
    /// seen in arm patterns and the line of a catch-all arm (`_` or a
    /// lone lowercase binding), if any.
    fn match_expr(&mut self, i: usize, end: usize) -> usize {
        let line = self.toks[i].line;
        // Find the arm block: first top-level `{` after the scrutinee.
        let mut j = i + 1;
        while j < end {
            match self.text(j) {
                "(" | "[" => j = self.close[j] + 1,
                "{" => break,
                ";" => return j, // `match` with no block: malformed
                _ => j += 1,
            }
        }
        if j >= end {
            return end;
        }
        let (open, close) = (j, self.close[j]);
        let mut paths = Vec::new();
        let mut wildcard_line = None;
        let mut k = open + 1;
        while k < close {
            // Pattern: tokens up to the arm's `=>` (patterns cannot
            // contain `=>`, so a literal scan is safe).
            let pat_start = k;
            while k < close && self.text(k) != "=>" {
                k += 1;
            }
            if k >= close {
                break;
            }
            let mut pat_end = k; // exclusive; trim a guard if present
            for g in pat_start..k {
                if self.text(g) == "if" {
                    pat_end = g;
                    break;
                }
            }
            for p in pat_start..pat_end {
                if self.text(p) == "::" && is_ident(self.text(p.wrapping_sub(1))) && p >= 1 {
                    let (head, variant) = (self.text(p - 1), self.text(p + 1));
                    if is_ident(variant) {
                        paths.push((head.to_string(), variant.to_string()));
                    }
                }
            }
            if pat_end == pat_start + 1 {
                let only = self.text(pat_start);
                let catch_all = only == "_"
                    || (is_ident(only)
                        && only.starts_with(|c: char| c.is_lowercase())
                        && !KEYWORDS.contains(&only));
                if catch_all && wildcard_line.is_none() {
                    wildcard_line = Some(self.toks[pat_start].line);
                }
            }
            // Skip the arm expression: a brace block, or tokens to the
            // next top-level comma.
            k += 1; // past `=>`
            if self.text(k) == "{" {
                k = self.close[k] + 1;
                if self.text(k) == "," {
                    k += 1;
                }
            } else {
                while k < close && self.text(k) != "," {
                    match self.text(k) {
                        "(" | "[" | "{" => k = self.close[k] + 1,
                        _ => k += 1,
                    }
                }
                k += 1;
            }
        }
        self.out.matches.push(MatchDef {
            line,
            paths,
            wildcard_line,
            in_test: self.in_test(line),
        });
        open + 1 // descend: nested matches inside arm bodies
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
    fn impls_record_trait_type_and_methods() {
        let idx = parse(
            "impl<D: Device> EventHandler for Bank<D> {\n    fn next_activity(&self) {}\n    \
             fn on_event(&mut self) {}\n}\nimpl Plain {\n    fn new() -> Self { Plain }\n}\n",
        );
        assert_eq!(idx.impls.len(), 2);
        let h = &idx.impls[0];
        assert_eq!(h.trait_name.as_deref(), Some("EventHandler"));
        assert_eq!(h.type_name, "Bank");
        assert!(h.fns.contains("next_activity") && h.fns.contains("on_event"));
        let p = &idx.impls[1];
        assert_eq!(p.trait_name, None);
        assert_eq!(p.type_name, "Plain");
        assert!(p.fns.contains("new"));
        // Methods are also indexed as fns in their own right.
        assert!(idx.fns.iter().any(|f| f.name == "next_activity"));
    }

    #[test]
    fn enums_record_variants_and_skip_payloads() {
        let idx = parse(
            "pub enum Event {\n    Tick,\n    SlotBoundary,\n    Fault(FaultKind),\n    \
             Stamp { at: u64 },\n}\n",
        );
        assert_eq!(idx.enums.len(), 1);
        assert_eq!(
            idx.enums[0].variants,
            ["Tick", "SlotBoundary", "Fault", "Stamp"]
        );
    }

    #[test]
    fn match_arms_record_paths_and_wildcards() {
        let idx = parse(
            "fn f(e: Event) -> u32 {\n    match e {\n        Event::Tick => 1,\n        \
             Event::SlotBoundary => { 2 }\n        _ => 0,\n    }\n}\n",
        );
        assert_eq!(idx.matches.len(), 1);
        let m = &idx.matches[0];
        assert!(m.paths.contains(&("Event".to_string(), "Tick".to_string())));
        assert_eq!(m.wildcard_line, Some(4));
    }

    #[test]
    fn lone_lowercase_binding_is_a_catch_all_but_literals_are_not() {
        let idx = parse("fn f(x: u8) -> u8 {\n    match x {\n        0 => 1,\n        other => other,\n    }\n}\n");
        assert_eq!(idx.matches[0].wildcard_line, Some(3));
        let idx = parse(
            "fn f(x: B) -> u8 {\n    match x {\n        B::T => 1,\n        B::F => 0,\n    }\n}\n",
        );
        assert_eq!(idx.matches[0].wildcard_line, None);
    }

    #[test]
    fn guards_do_not_hide_wildcards_and_nested_matches_are_found() {
        let idx = parse(
            "fn f(x: u8, y: u8) -> u8 {\n    match x {\n        _ if y > 0 => match y {\n            \
             E::A => 1,\n            _ => 2,\n        },\n        _ => 0,\n    }\n}\n",
        );
        assert_eq!(idx.matches.len(), 2, "{:?}", idx.matches);
        assert!(idx.matches.iter().all(|m| m.wildcard_line.is_some()));
    }

    #[test]
    fn use_decls_are_joined_paths() {
        let idx = parse("use std::collections::{BTreeMap, BTreeSet};\nuse heb_core::Event;\n");
        assert_eq!(idx.uses.len(), 2);
        assert!(idx.uses[0].path.starts_with("std::collections::{"));
        assert_eq!(idx.uses[1].path, "heb_core::Event");
    }

    #[test]
    fn fn_pointer_types_in_enums_do_not_misparse() {
        let idx = parse("enum E {\n    F(fn(u32) -> u32),\n    G,\n}\nfn real() {}\n");
        assert_eq!(idx.enums[0].variants, ["F", "G"]);
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
