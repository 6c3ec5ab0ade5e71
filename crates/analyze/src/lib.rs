//! `heb-analyze` — workspace-aware static analysis for the HEB
//! reproduction.
//!
//! Every figure in the paper's evaluation is reproducible only because
//! every simulation run is bit-identical: the fleet engine's
//! content-addressed cache and the golden-trace suite both assume that
//! nothing in the simulation crates reads wall-clock time, iterates a
//! `HashMap`, or folds recorder state into cache keys. This crate turns
//! those conventions into a CI-gated analyzer with structured
//! `file:line` diagnostics, rule IDs, reasoned suppressions, and a
//! checked-in ratcheting baseline.
//!
//! The environment is offline (no registry crates, so no `syn`); the
//! analysis is purpose-built in the same dependency-free spirit as the
//! workspace's `heb-rng` and `proptest` shims. It runs in two layers:
//! a lexical pass ([`lexer`]) for the token-family rules HEB001–HEB006,
//! and a semantic pass — a token-tree parser ([`parser`]) building a
//! per-file item index ([`index`]) that feeds a workspace symbol table
//! and conservative call-reachability graph — for HEB007 and HEB009,
//! where the invariant needs function bodies and calls (hash-path
//! taint across files, parallel float reductions within one).
//!
//! The analyzer is production-shaped: per-file analysis runs in
//! parallel with byte-identical output at any thread count
//! ([`workspace`]), an incremental content-addressed cache under
//! `results/analyze-cache/` skips unchanged files ([`cache`]), and
//! findings render as text, JSON, or SARIF ([`sarif`]).
//!
//! See [`rules`] for the rule table and suppression syntax, and
//! [`baseline`] for how the gate ratchets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cache;
pub mod diagnostics;
pub mod index;
pub mod lexer;
pub mod parser;
mod reach;
pub mod rules;
pub mod sarif;
pub mod workspace;

pub use baseline::{Baseline, Reconciled};
pub use cache::AnalysisCache;
pub use diagnostics::Diagnostic;
pub use rules::{
    analyze_file, analyze_source, apply_suppressions, crate_class, Applied, CrateClass,
    DirectiveKind, DirectiveRec, FileAnalysis, FileContext, Role,
};
pub use workspace::{
    analyze_files, analyze_workspace, analyze_workspace_with, AnalysisReport, AnalyzeOptions,
    RunStats,
};

/// The default baseline file name, at the workspace root.
pub const BASELINE_FILE: &str = "heb-analyze.baseline";

/// The default incremental-cache directory, relative to the root.
pub const CACHE_DIR: &str = "results/analyze-cache";
