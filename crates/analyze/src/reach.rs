//! The workspace symbol table, the conservative call-reachability
//! graph, and the cross-file rule built on them (HEB007).
//!
//! Name resolution is deliberately conservative (documented in DESIGN
//! §8): a call resolves to every *same-file* function of that name
//! when one exists, otherwise to every function of that name anywhere
//! in the workspace's library code. That over-approximates — which is
//! the right failure mode for a gate: reachability can only
//! over-report, never silently miss a path, and a false positive is
//! one reasoned suppression away.
//!
//! Two pruning exceptions keep the over-approximation from collapsing
//! into "everything reaches everything" (both documented as known
//! blind spots in DESIGN §8): a *method* call (`.name(…)`) with no
//! same-file definition is not followed cross-file (the receiver type
//! is unknown, so every implementor would match), and a path call
//! whose name is defined in more than [`AMBIGUITY_CUTOFF`] distinct
//! files (`new`, `from`, `get`, …) is not followed cross-file either —
//! following `new` links every constructor in the workspace into one
//! blob and the taint report becomes pure noise. Direct taint in a
//! hash-root file's own functions is always caught regardless, because
//! same-file edges are never pruned.

use crate::diagnostics::Diagnostic;
use crate::rules::{
    crate_class, CrateClass, FileAnalysis, FileContext, Role, HASH_ROOT_FILES, HASH_ROOT_FNS,
};
use std::collections::{BTreeMap, BTreeSet};

/// A function node: `(file index, fn index within that file)`.
type Node = (usize, usize);

/// A call target name defined in more than this many distinct files is
/// too ambiguous to follow cross-file (see the module docs).
const AMBIGUITY_CUTOFF: usize = 2;

/// Runs every cross-file rule over the analyzed file set and returns
/// the extra raw findings (pre-suppression), in no particular order.
#[must_use]
pub(crate) fn cross_file(
    files: &[(String, FileContext)],
    analyses: &[FileAnalysis],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    heb007_hash_taint(files, analyses, &mut out);
    out
}

fn snippet(source: &str, line0: usize) -> String {
    source.lines().nth(line0).map_or("", str::trim).to_string()
}

/// HEB007: nothing transitively reachable from `Scenario` content
/// hashing may touch telemetry, clocks, env, or I/O.
fn heb007_hash_taint(
    files: &[(String, FileContext)],
    analyses: &[FileAnalysis],
    out: &mut Vec<Diagnostic>,
) {
    // The graph spans library code only: binaries, tests, and benches
    // cannot sit on the hash path of a shipped run.
    let in_graph = |ctx: &FileContext| {
        ctx.role == Role::Lib && crate_class(&ctx.crate_name) != CrateClass::Harness
    };
    let mut by_name: BTreeMap<&str, Vec<Node>> = BTreeMap::new();
    for (fi, (_, ctx)) in files.iter().enumerate() {
        if !in_graph(ctx) {
            continue;
        }
        for (gi, f) in analyses[fi].index.fns.iter().enumerate() {
            if !f.in_test {
                by_name.entry(f.name.as_str()).or_default().push((fi, gi));
            }
        }
    }

    let mut queue: Vec<Node> = Vec::new();
    let mut parent: BTreeMap<Node, Option<Node>> = BTreeMap::new();
    for (fi, (_, ctx)) in files.iter().enumerate() {
        if HASH_ROOT_FILES.contains(&ctx.path.as_str()) && in_graph(ctx) {
            for (gi, f) in analyses[fi].index.fns.iter().enumerate() {
                if !f.in_test && HASH_ROOT_FNS.contains(&f.name.as_str()) {
                    parent.insert((fi, gi), None);
                    queue.push((fi, gi));
                }
            }
        }
    }

    let distinct_files: BTreeMap<&str, usize> = by_name
        .iter()
        .map(|(name, nodes)| {
            (
                *name,
                nodes.iter().map(|n| n.0).collect::<BTreeSet<_>>().len(),
            )
        })
        .collect();

    while let Some(node) = queue.pop() {
        let (fi, gi) = node;
        for call in &analyses[fi].index.fns[gi].calls {
            let Some(candidates) = by_name.get(call.name.as_str()) else {
                continue;
            };
            let same_file: Vec<Node> = candidates.iter().copied().filter(|n| n.0 == fi).collect();
            let targets = if !same_file.is_empty() {
                same_file
            } else if call.method
                || distinct_files
                    .get(call.name.as_str())
                    .is_some_and(|&n| n > AMBIGUITY_CUTOFF)
            {
                // Unknown receiver / ubiquitous name: not followed
                // cross-file (see module docs).
                continue;
            } else {
                candidates.clone()
            };
            for t in targets {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(t) {
                    e.insert(Some(node));
                    queue.push(t);
                }
            }
        }
    }

    for &(fi, gi) in parent.keys() {
        let f = &analyses[fi].index.fns[gi];
        if f.taints.is_empty() {
            continue;
        }
        // One finding per tainted line, naming the first token on it.
        let mut lines: BTreeMap<usize, &str> = BTreeMap::new();
        for (token, line) in &f.taints {
            lines.entry(*line).or_insert(token.as_str());
        }
        let witness = witness_path(&parent, (fi, gi), analyses);
        let (source, ctx) = &files[fi];
        for (line, token) in lines {
            out.push(Diagnostic {
                rule: "HEB007",
                path: ctx.path.clone(),
                line: line + 1,
                message: format!(
                    "`{}` is reachable from the scenario content hash ({witness}) but \
                     touches `{token}`: the hash must be a pure function of scenario \
                     content — telemetry, clocks, env, and I/O poison content \
                     addressing (HEB005 pre-filters the cache file; HEB007 follows \
                     the call graph)",
                    f.name
                ),
                snippet: snippet(source, line),
            });
        }
    }
}

/// Renders `content_hash → a → b` from the BFS parent chain.
fn witness_path(
    parent: &BTreeMap<Node, Option<Node>>,
    mut node: Node,
    analyses: &[FileAnalysis],
) -> String {
    let mut names = Vec::new();
    loop {
        names.push(analyses[node.0].index.fns[node.1].name.clone());
        match parent.get(&node) {
            Some(Some(p)) => node = *p,
            _ => break,
        }
    }
    names.reverse();
    names.join(" -> ")
}
