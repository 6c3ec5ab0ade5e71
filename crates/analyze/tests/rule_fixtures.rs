//! Fixture-based rule tests: every rule must fire on its seeded
//! violation (with the right rule ID and line) and stay silent on the
//! clean counterpart — plus the self-check that the workspace itself is
//! analyzer-clean against the checked-in baseline.
//!
//! Fixtures live under `tests/fixtures/`, which cargo does not compile
//! and the workspace walker deliberately skips: they are analyzer
//! *inputs*, some of them violating on purpose.

use heb_analyze::{analyze_files, analyze_source, Baseline, Diagnostic, FileContext};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn run(name: &str, ctx: &FileContext) -> Vec<Diagnostic> {
    analyze_source(&fixture(name), ctx)
}

fn sim_ctx() -> FileContext {
    FileContext::lib("core", "crates/core/src/fixture.rs")
}

#[test]
fn heb001_fires_on_wall_clock_in_sim_crate() {
    let diags = run("heb001_violation.rs", &sim_ctx());
    assert!(!diags.is_empty(), "seeded Instant use must be flagged");
    assert!(diags.iter().all(|d| d.rule == "HEB001"), "{diags:?}");
    assert!(
        diags.iter().any(|d| d.line == 6),
        "must flag the Instant::now() call line: {diags:?}"
    );
}

#[test]
fn heb001_silent_on_clean_source_and_comments() {
    assert_eq!(run("heb001_clean.rs", &sim_ctx()), vec![]);
}

#[test]
fn heb001_does_not_apply_outside_sim_crates() {
    let ctx = FileContext::lib("fleet", "crates/fleet/src/engine.rs");
    assert_eq!(run("heb001_violation.rs", &ctx), vec![]);
}

#[test]
fn heb002_fires_on_hashmap_in_sim_crate() {
    let diags = run("heb002_violation.rs", &sim_ctx());
    assert!(!diags.is_empty());
    assert!(diags.iter().all(|d| d.rule == "HEB002"), "{diags:?}");
    assert!(
        diags.iter().any(|d| d.line == 7),
        "must flag the HashMap construction line: {diags:?}"
    );
}

#[test]
fn heb002_silent_on_ordered_collections() {
    assert_eq!(run("heb002_clean.rs", &sim_ctx()), vec![]);
}

#[test]
fn heb003_fires_on_unwrap_in_library_code() {
    let diags = run("heb003_violation.rs", &sim_ctx());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "HEB003");
    assert_eq!(diags[0].line, 4);
}

#[test]
fn heb003_silent_on_fallible_code_with_test_unwraps() {
    assert_eq!(run("heb003_clean.rs", &sim_ctx()), vec![]);
}

#[test]
fn heb004_fires_on_bare_f64_unit_parameter() {
    let ctx = FileContext::lib("esd", "crates/esd/src/fixture.rs");
    let diags = run("heb004_violation.rs", &ctx);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "HEB004");
    assert_eq!(diags[0].line, 4);
}

#[test]
fn heb004_silent_on_newtyped_signature() {
    let ctx = FileContext::lib("esd", "crates/esd/src/fixture.rs");
    assert_eq!(run("heb004_clean.rs", &ctx), vec![]);
}

#[test]
fn heb005_fires_on_telemetry_in_cache_hash_path() {
    let ctx = FileContext::lib("fleet", "crates/fleet/src/cache.rs");
    let diags = run("heb005_violation.rs", &ctx);
    assert!(!diags.is_empty());
    assert!(diags.iter().all(|d| d.rule == "HEB005"), "{diags:?}");
    assert!(diags.iter().any(|d| d.line == 4), "{diags:?}");
}

#[test]
fn heb005_silent_on_content_only_hashing() {
    let ctx = FileContext::lib("fleet", "crates/fleet/src/cache.rs");
    assert_eq!(run("heb005_clean.rs", &ctx), vec![]);
}

#[test]
fn heb005_scoped_to_the_hash_path_file_only() {
    // The same telemetry reference is fine anywhere else in fleet.
    let ctx = FileContext::lib("fleet", "crates/fleet/src/engine.rs");
    assert_eq!(run("heb005_violation.rs", &ctx), vec![]);
}

#[test]
fn heb000_fires_on_reasonless_directive_and_keeps_the_violation() {
    let diags = run("heb000_malformed.rs", &sim_ctx());
    assert!(
        diags.iter().any(|d| d.rule == "HEB000" && d.line == 3),
        "reasonless allow must be flagged: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.rule == "HEB003" && d.line == 5),
        "an invalid directive must not suppress the violation: {diags:?}"
    );
}

/// Builds in-memory `(source, context)` units from fixture files, for
/// the cross-file rules that need a multi-file workspace view.
fn units(list: &[(&str, FileContext)]) -> Vec<(String, FileContext)> {
    list.iter()
        .map(|(name, ctx)| (fixture(name), ctx.clone()))
        .collect()
}

#[test]
fn heb007_fires_on_taint_reachable_from_content_hash() {
    let u = units(&[(
        "heb007_violation.rs",
        FileContext::lib("core", "crates/core/src/scenario.rs"),
    )]);
    let (errors, warnings) = analyze_files(&u, 1);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert_eq!(errors[0].rule, "HEB007");
    assert_eq!(errors[0].line, 20, "the heb_telemetry line: {errors:?}");
    assert!(
        errors[0]
            .message
            .contains("content_hash -> fold_seed -> note_progress"),
        "witness path must name the call chain: {}",
        errors[0].message
    );
}

#[test]
fn heb007_silent_when_taint_is_unreachable() {
    // Same telemetry touch, but in a helper the hash never calls — the
    // near miss that separates reachability from HEB005's file list.
    let u = units(&[(
        "heb007_clean.rs",
        FileContext::lib("core", "crates/core/src/scenario.rs"),
    )]);
    let (errors, warnings) = analyze_files(&u, 1);
    assert_eq!(errors, vec![], "unreachable taint must not fire");
    assert!(warnings.is_empty());
}

#[test]
fn heb007_roots_are_scoped_to_the_hash_root_file() {
    // The identical source outside crates/core/src/scenario.rs defines
    // no roots, so nothing is reachable and nothing fires.
    let u = units(&[(
        "heb007_violation.rs",
        FileContext::lib("core", "crates/core/src/other.rs"),
    )]);
    let (errors, _) = analyze_files(&u, 1);
    assert_eq!(errors, vec![]);
}

#[test]
fn heb009_fires_on_parallel_float_fold_fixture() {
    let u = units(&[(
        "heb009_violation.rs",
        FileContext::lib("fleet", "crates/fleet/src/agg.rs"),
    )]);
    let (errors, warnings) = analyze_files(&u, 1);
    assert!(warnings.is_empty());
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert_eq!(errors[0].rule, "HEB009");
    assert_eq!(errors[0].line, 5, "the sum::<f64> line: {errors:?}");
}

#[test]
fn heb009_silent_on_serial_floats_and_parallel_integers() {
    let u = units(&[(
        "heb009_clean.rs",
        FileContext::lib("fleet", "crates/fleet/src/agg.rs"),
    )]);
    let (errors, _) = analyze_files(&u, 1);
    assert_eq!(errors, vec![]);
}

#[test]
fn unused_suppressions_warn_and_used_ones_do_not() {
    let src = "// heb-analyze: allow(HEB003, used: the line below unwraps)\n\
               pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
               // heb-analyze: allow(HEB001, unused: nothing here reads clocks)\n\
               pub fn g() -> u32 { 7 }\n";
    let u = vec![(
        src.to_string(),
        FileContext::lib("core", "crates/core/src/x.rs"),
    )];
    let (errors, warnings) = analyze_files(&u, 1);
    assert_eq!(errors, vec![], "the used suppression still suppresses");
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert_eq!(warnings[0].rule, "HEB000");
    assert_eq!(warnings[0].line, 3, "the unused HEB001 allow: {warnings:?}");
    assert!(warnings[0].message.contains("unused suppression"));
}

#[test]
fn unused_crate_wide_suppressions_warn_too() {
    let lib = "// heb-analyze: allow-crate(HEB002, legacy maps pending migration)\n\
               pub fn nothing_ordered_here() {}\n";
    let u = vec![(
        lib.to_string(),
        FileContext::lib("core", "crates/core/src/lib.rs"),
    )];
    let (errors, warnings) = analyze_files(&u, 1);
    assert_eq!(errors, vec![]);
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert_eq!(warnings[0].path, "crates/core/src/lib.rs");

    // The same allow-crate with a HashMap user elsewhere in the crate
    // is used — no warning.
    let user = "pub fn m() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
    let u = vec![
        (
            lib.to_string(),
            FileContext::lib("core", "crates/core/src/lib.rs"),
        ),
        (
            user.to_string(),
            FileContext::lib("core", "crates/core/src/maps.rs"),
        ),
    ];
    let (errors, warnings) = analyze_files(&u, 1);
    assert_eq!(errors, vec![], "crate-wide allow suppresses the finding");
    assert_eq!(warnings, vec![], "and is therefore not unused");
}

#[test]
fn workspace_is_clean_against_checked_in_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = heb_analyze::analyze_workspace(&root).expect("workspace scan");
    let baseline =
        Baseline::load(&root.join(heb_analyze::BASELINE_FILE)).expect("baseline readable");
    let rec = baseline.reconcile(&diags);
    assert!(
        rec.new.is_empty(),
        "new violations not in baseline:\n{}",
        rec.new
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        rec.stale.is_empty(),
        "stale baseline entries (ratchet down with --fix-baseline): {:?}",
        rec.stale
    );
}

#[test]
fn workspace_has_no_unused_suppressions() {
    // The strict-suppressions CI gate, as a test: every allow comment
    // in the workspace must still be earning its keep.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report =
        heb_analyze::analyze_workspace_with(&root, &heb_analyze::AnalyzeOptions::default())
            .expect("workspace scan");
    assert!(
        report.warnings.is_empty(),
        "unused suppressions in the workspace:\n{}",
        report
            .warnings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
