//! The rule set: what each `HEB00N` enforces and where.
//!
//! | ID | Scope | Invariant |
//! |----|-------|-----------|
//! | HEB001 | `Sim`/`Physics` lib code | no wall-clock / OS entropy (`Instant`, `SystemTime`, `thread_rng`) — run determinism |
//! | HEB002 | `Sim`/`Physics`/`Service` lib code | no `HashMap`/`HashSet` — iteration-order nondeterminism; `BTreeMap`/`BTreeSet` required |
//! | HEB003 | all lib code | no `.unwrap()` / `.expect(...)` / `panic!` — typed errors required |
//! | HEB004 | physics-crate public fns | no bare `f64` for unit-suffixed quantities (`*_w`, `*_wh`, `*_v`, …) |
//! | HEB005 | result-cache hash path | no `heb-telemetry` references — recorder hash-blindness (fast file-list pre-filter) |
//! | HEB006 | `Sim`/`Physics` lib code outside `heb_core::event` | no raw `tick_index` counters or tick-count-times-`dt` seconds arithmetic — timestamps are minted by `heb_core::event::SimClock` only |
//! | HEB007 | fns reachable from `Scenario` content hashing | no telemetry / clock / env / I/O taint anywhere on the hash path — call-graph generalisation of HEB005 |
//! | HEB009 | `fleet`/`serve` lib code + the powersys `soa`/`agg` hot path | no order-sensitive `f64` reductions in functions that also use parallel constructs — float addition is not associative |
//! | HEB000 | everywhere | a malformed, reason-less, or (in the workspace gate) unused suppression comment |
//!
//! Suppressions: `// heb-analyze: allow(HEB003, why this is fine)` on
//! the offending line or the line above; `allow-file(...)` anywhere in
//! the file; `allow-crate(...)` in the crate's `src/lib.rs`. The reason
//! is mandatory — a suppression without one is itself a finding, and a
//! suppression that no longer suppresses anything is reported by the
//! workspace gate so the suppression set ratchets down like the
//! baseline does.
//!
//! Rule scope is **crate-level configuration**, not per-line
//! suppression: every workspace crate is classified by
//! [`crate_class`], and each class carries a documented rule profile.
//! A crate the table does not know is held to the *strictest* profile,
//! so adding a crate forces a deliberate classification decision here
//! instead of silently escaping the gate.
//!
//! HEB007 and HEB009 are *semantic*: they consume the
//! [`FileIndex`] built by
//! [`parser`](crate::parser) — per-file for HEB009, cross-file via
//! the `reach` module for HEB007.

use crate::diagnostics::Diagnostic;
use crate::index::FileIndex;
use crate::lexer::{scrub, Scrubbed};
use std::collections::BTreeSet;

/// A crate's relationship to the determinism contract, which decides
/// the rules its library code is held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateClass {
    /// Feeds the simulation; must be bit-deterministic.
    /// HEB001 + HEB002 + HEB003.
    Sim,
    /// `Sim`, plus public signatures must speak `heb-units` types
    /// rather than bare `f64`. HEB001 + HEB002 + HEB003 + HEB004.
    Physics,
    /// Long-running service code: reading clocks and opening sockets
    /// is its *job*, so HEB001 does not apply — but its answers must
    /// still be deterministic (HEB002) and it must not panic (HEB003).
    Service,
    /// Infrastructure and drivers (telemetry, fleet orchestration,
    /// the analyzer itself): HEB003 only.
    Infra,
    /// Test/assertion harnesses whose very contract is panicking.
    /// No rules; their output is asserts, not library behaviour.
    Harness,
}

/// Classifies a crate (by its directory name under `crates/`, or
/// `heb` for the workspace-root umbrella package).
///
/// Unknown names fall through to [`CrateClass::Sim`] — the strictest
/// profile — so a freshly added crate is flagged until it is
/// classified here with a one-line rationale.
#[must_use]
pub fn crate_class(name: &str) -> CrateClass {
    match name {
        // Physical models: unit discipline on top of determinism.
        "esd" | "powersys" => CrateClass::Physics,
        // Simulation logic and its deterministic inputs. `rng` is the
        // seeded entropy source itself — nothing needs determinism more.
        "core" | "workload" | "forecast" | "tco" | "rng" => CrateClass::Sim,
        // The capacity advisor measures latencies and serves sockets.
        "serve" => CrateClass::Service,
        // Drivers and observability; `heb` is the umbrella package.
        "units" | "fleet" | "telemetry" | "analyze" | "heb" => CrateClass::Infra,
        // `proptest` is the assertion shim (panicking is its contract);
        // `bench` is the experiment driver, morally a set of binaries.
        "proptest" | "bench" => CrateClass::Harness,
        _ => CrateClass::Sim,
    }
}

/// Files on the result cache's hash path (HEB005): nothing here may
/// reference telemetry types, or recorder wiring could leak into cache
/// keys/payloads and poison content addressing. HEB005 is the fast
/// lexical pre-filter; HEB007 follows the call graph from the hash
/// roots so the file list can never go stale silently.
pub const HASH_BLIND_FILES: &[&str] = &["crates/fleet/src/cache.rs"];

/// The driver core (`heb_core::event`): the one place allowed to spell out the
/// tick-index ↔ seconds conversion (HEB006). `SimClock::time_at` is
/// the single authoritative formula; everywhere else must go through
/// the clock so tick mode and event mode can never disagree on a
/// timestamp.
pub const CLOCK_FILES: &[&str] = &["crates/core/src/event.rs"];

/// Fleet-scale hot-path modules outside the orchestration crates: the
/// struct-of-arrays cluster state and the hierarchical power
/// aggregation tree. Their `f64` reductions feed bit-identical
/// reports at 100 k-server scale, so HEB009's order-sensitivity rule
/// binds here exactly as it does in `fleet`/`serve` lib code.
pub const HOT_PATH_FILES: &[&str] = &["crates/powersys/src/soa.rs", "crates/powersys/src/agg.rs"];

/// Where the scenario content hash lives: HEB007's reachability roots
/// are the [`HASH_ROOT_FNS`] defined in these files.
pub const HASH_ROOT_FILES: &[&str] = &["crates/core/src/scenario.rs"];

/// The hash-path entry points within [`HASH_ROOT_FILES`].
pub const HASH_ROOT_FNS: &[&str] = &["content_hash", "hash_hex"];

/// Tokens whose presence in a hash-path function body taints it
/// (HEB007): recorder wiring, wall clocks, OS entropy, environment,
/// and file/stream I/O all make the hash depend on something other
/// than scenario content.
pub const TAINT_TOKENS: &[&str] = &[
    "heb_telemetry",
    "Recorder",
    "RecorderHandle",
    "Metrics",
    "Instant",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "env",
    "fs",
    "File",
    "stdin",
    "stdout",
    "stderr",
    "println",
    "eprintln",
    "read_to_string",
];

/// Tokens that mark a function body as using parallel or
/// cross-thread constructs (HEB009).
pub const PARALLEL_TOKENS: &[&str] = &[
    "spawn",
    "scope",
    "par_iter",
    "into_par_iter",
    "par_chunks",
    "rayon",
    "channel",
    "Sender",
    "Receiver",
];

/// Line patterns that look like an order-sensitive `f64` reduction
/// (HEB009).
const REDUCTION_PATTERNS: &[&str] = &[
    "sum::<f64>",
    ".fold(0.0",
    ".fold(0f64",
    ".fold(0_f64",
    ".reduce(",
];

/// All rule IDs, for validation of suppression directives.
pub const RULES: &[&str] = &[
    "HEB001", "HEB002", "HEB003", "HEB004", "HEB005", "HEB006", "HEB007", "HEB009",
];

/// One-line summaries per rule (HEB000 included), for SARIF metadata.
pub const RULE_SUMMARIES: &[(&str, &str)] = &[
    (
        "HEB000",
        "suppression hygiene: malformed, reason-less, or unused allow directives",
    ),
    (
        "HEB001",
        "no wall-clock time or OS entropy in simulation crates",
    ),
    (
        "HEB002",
        "no hash-ordered collections in deterministic crates",
    ),
    ("HEB003", "no unwrap/expect/panic in library code"),
    (
        "HEB004",
        "no bare f64 for unit-suffixed quantities in physics APIs",
    ),
    (
        "HEB005",
        "result-cache hash path must not reference telemetry (file-list pre-filter)",
    ),
    (
        "HEB006",
        "timestamps are minted by SimClock, not raw tick arithmetic",
    ),
    (
        "HEB007",
        "nothing reachable from Scenario content hashing may touch telemetry/env/IO",
    ),
    (
        "HEB009",
        "no order-sensitive parallel f64 reductions in fleet/serve hot paths",
    ),
];

/// Maps a rule name to its canonical `&'static str` (used when
/// deserializing cached diagnostics).
#[must_use]
pub fn rule_id(name: &str) -> Option<&'static str> {
    if name == "HEB000" {
        return Some("HEB000");
    }
    RULES.iter().find(|r| **r == name).copied()
}

/// What kind of target a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Library code: the rules' main subject.
    Lib,
    /// A `src/bin/` or `src/main.rs` binary.
    Bin,
    /// An integration test under `tests/`.
    Test,
    /// A benchmark under `benches/`.
    Bench,
    /// An example under `examples/`.
    Example,
}

/// Everything the rules need to know about the file being analysed.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Crate identifier: the directory name under `crates/`, or `heb`
    /// for the workspace root package.
    pub crate_name: String,
    /// Target kind.
    pub role: Role,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Rules suppressed crate-wide (from `allow-crate` in `lib.rs`).
    pub crate_allows: Vec<String>,
}

impl FileContext {
    /// A library-code context, convenient for tests.
    #[must_use]
    pub fn lib(crate_name: &str, path: &str) -> Self {
        Self {
            crate_name: crate_name.to_string(),
            role: Role::Lib,
            path: path.to_string(),
            crate_allows: Vec::new(),
        }
    }

    fn class(&self) -> CrateClass {
        crate_class(&self.crate_name)
    }

    /// HEB001: crates that must not read clocks or OS entropy.
    fn needs_determinism(&self) -> bool {
        matches!(self.class(), CrateClass::Sim | CrateClass::Physics)
    }

    /// HEB002: crates whose outputs must not depend on hash order.
    fn needs_ordered_collections(&self) -> bool {
        matches!(
            self.class(),
            CrateClass::Sim | CrateClass::Physics | CrateClass::Service
        )
    }

    fn is_physics(&self) -> bool {
        self.class() == CrateClass::Physics
    }

    fn is_panic_exempt(&self) -> bool {
        self.class() == CrateClass::Harness
    }

    fn is_hash_blind(&self) -> bool {
        HASH_BLIND_FILES.contains(&self.path.as_str())
    }

    /// HEB006: deterministic-simulation code that must mint timestamps
    /// through `SimClock` rather than raw tick arithmetic. The event
    /// core is the sole exemption — it *is* the clock.
    fn needs_clock_discipline(&self) -> bool {
        self.needs_determinism() && !CLOCK_FILES.contains(&self.path.as_str())
    }

    /// HEB009: long-lived orchestration code whose aggregates feed
    /// reports and answers, plus the fleet-scale hot-path modules
    /// ([`HOT_PATH_FILES`]) those aggregates are computed in.
    fn is_hot_path_crate(&self) -> bool {
        matches!(self.crate_name.as_str(), "fleet" | "serve")
            || HOT_PATH_FILES.contains(&self.path.as_str())
    }
}

/// Where a suppression directive applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectiveKind {
    /// `allow(...)`: the directive's line and the line below it.
    Line,
    /// `allow-file(...)`: the whole file.
    File,
    /// `allow-crate(...)` in `src/lib.rs`: the whole crate.
    Crate,
}

/// One well-formed suppression directive, with its location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectiveRec {
    /// Scope.
    pub kind: DirectiveKind,
    /// The rule it suppresses.
    pub rule: String,
    /// 0-based line of the comment.
    pub line: usize,
}

/// The full per-file analysis product: raw (pre-suppression) findings,
/// the parsed suppression directives, and the structural index. This
/// is the unit the incremental cache stores.
#[derive(Debug, Clone, Default)]
pub struct FileAnalysis {
    /// Findings before suppression filtering (HEB000 included).
    pub raw: Vec<Diagnostic>,
    /// Well-formed directives found in the file.
    pub directives: Vec<DirectiveRec>,
    /// The structural item index.
    pub index: FileIndex,
}

/// The result of applying suppressions to a file's findings.
#[derive(Debug, Clone, Default)]
pub struct Applied {
    /// Findings that survived.
    pub kept: Vec<Diagnostic>,
    /// Per input directive: whether it suppressed at least one
    /// finding. (`Crate`-kind directives are resolved by the
    /// workspace pass, which sees the whole crate.)
    pub used: Vec<bool>,
    /// Crate-wide rules (from `FileContext::crate_allows`) that
    /// suppressed at least one finding in this file.
    pub crate_rules_used: BTreeSet<String>,
}

/// Analyses one file: lexical rules, per-file semantic rules, the
/// item index, and directive collection — all pre-suppression.
#[must_use]
pub fn analyze_file(source: &str, ctx: &FileContext) -> FileAnalysis {
    let scrubbed = scrub(source);
    let original: Vec<&str> = source.lines().collect();
    let test_lines = test_spans(&scrubbed.code);
    let mut index = crate::parser::parse_index(&scrubbed.code, &test_lines);
    crate::index::scan_taints(&mut index, &scrubbed.code);

    let mut raw = Vec::new();
    let directives = collect_directives(&scrubbed, ctx, &mut raw);

    let lib_code = |line: usize| ctx.role == Role::Lib && !test_lines.contains(&line);
    let snippet = |line: usize| original.get(line).map_or("", |s| s.trim()).to_string();
    let mut emit = |rule: &'static str, line: usize, message: String| {
        raw.push(Diagnostic {
            rule,
            path: ctx.path.clone(),
            line: line + 1,
            message,
            snippet: snippet(line),
        });
    };

    for (idx, code) in scrubbed.code.iter().enumerate() {
        if ctx.needs_determinism() && lib_code(idx) {
            for word in ["Instant", "SystemTime", "thread_rng", "from_entropy"] {
                if contains_word(code, word) {
                    emit(
                        "HEB001",
                        idx,
                        format!(
                            "`{word}` in simulation crate `{}`: wall-clock time and OS \
                             entropy break run determinism; use simulated time \
                             (`heb_units::Seconds`) and seeded `heb_rng` streams \
                             (service crates are exempted by class, see `crate_class`)",
                            ctx.crate_name
                        ),
                    );
                }
            }
        }
        if ctx.needs_ordered_collections() && lib_code(idx) {
            for word in ["HashMap", "HashSet"] {
                if contains_word(code, word) {
                    emit(
                        "HEB002",
                        idx,
                        format!(
                            "`{word}` in deterministic crate `{}`: iteration order is \
                             nondeterministic and poisons content-addressed caching \
                             and answer bytes; use `BTreeMap`/`BTreeSet` or sorted keys",
                            ctx.crate_name
                        ),
                    );
                }
            }
        }
        if !ctx.is_panic_exempt() && lib_code(idx) {
            for (pat, what) in [
                (".unwrap()", "`.unwrap()`"),
                (".expect(", "`.expect(...)`"),
                ("panic!", "`panic!`"),
            ] {
                if find_pattern(code, pat) {
                    emit(
                        "HEB003",
                        idx,
                        format!(
                            "{what} in library code: return a typed error \
                             (`SimError`, `ConfigError`, …) so callers can recover"
                        ),
                    );
                }
            }
        }
        if ctx.needs_clock_discipline() && lib_code(idx) {
            if contains_word(code, "tick_index") {
                emit(
                    "HEB006",
                    idx,
                    "raw `tick_index` outside the event core: simulated time lives in \
                     `heb_core::event::SimClock` (`index()`, `now()`, `time_at(i)`); \
                     a second counter can drift from the driver's clock"
                        .to_string(),
                );
            } else if code.contains("as f64 * dt") || code.contains("as f64 * self.dt") {
                emit(
                    "HEB006",
                    idx,
                    "tick-count-times-dt seconds arithmetic outside the event core: \
                     mint timestamps with `SimClock::time_at` so tick mode and event \
                     mode can never disagree on a timestamp"
                        .to_string(),
                );
            }
        }
        if ctx.is_hash_blind() && !test_lines.contains(&idx) {
            for word in ["heb_telemetry", "Recorder", "RecorderHandle", "Metrics"] {
                if contains_word(code, word) {
                    emit(
                        "HEB005",
                        idx,
                        format!(
                            "`{word}` on the result-cache hash path: cache entries must \
                             be blind to recorder state or identical scenarios stop \
                             sharing cache keys"
                        ),
                    );
                    break;
                }
            }
        }
    }

    if ctx.is_physics() && ctx.role == Role::Lib {
        check_unit_discipline(&scrubbed, &test_lines, &mut emit);
    }

    // HEB009: in fleet/serve library code, a function that uses
    // parallel constructs must not also fold f64s in an
    // order-sensitive way — float addition is not associative, and a
    // nondeterministic sum poisons byte-identical reports.
    if ctx.is_hot_path_crate() && ctx.role == Role::Lib {
        for f in &index.fns {
            if f.in_test {
                continue;
            }
            let (start, end) = f.body;
            let body_lines = || start..=end.min(scrubbed.code.len().saturating_sub(1));
            let parallel = body_lines().any(|l| {
                PARALLEL_TOKENS
                    .iter()
                    .any(|t| contains_word(&scrubbed.code[l], t))
            });
            if !parallel {
                continue;
            }
            for l in body_lines() {
                if REDUCTION_PATTERNS
                    .iter()
                    .any(|p| scrubbed.code[l].contains(p))
                {
                    emit(
                        "HEB009",
                        l,
                        format!(
                            "order-sensitive `f64` reduction in `{}`, which also uses \
                             parallel constructs: float addition is not associative, so \
                             the sum depends on arrival order; reduce in a deterministic \
                             order (e.g. by batch index) and document it with a \
                             suppression if the order is already fixed",
                            f.name
                        ),
                    );
                }
            }
        }
    }

    FileAnalysis {
        raw,
        directives,
        index,
    }
}

/// Applies suppression directives (and crate-wide allows) to a file's
/// findings. HEB000 findings are never suppressible. Returns the kept
/// findings plus per-directive usage, so the workspace gate can report
/// suppressions that no longer suppress anything.
#[must_use]
pub fn apply_suppressions(
    diags: Vec<Diagnostic>,
    directives: &[DirectiveRec],
    crate_allows: &[String],
) -> Applied {
    let mut applied = Applied {
        used: vec![false; directives.len()],
        ..Applied::default()
    };
    for d in diags {
        if d.rule == "HEB000" {
            applied.kept.push(d);
            continue;
        }
        let line0 = d.line.saturating_sub(1);
        let mut suppressed = false;
        for (i, dir) in directives.iter().enumerate() {
            if dir.rule != d.rule {
                continue;
            }
            let hit = match dir.kind {
                DirectiveKind::Line => dir.line == line0 || dir.line + 1 == line0,
                DirectiveKind::File => true,
                DirectiveKind::Crate => false, // resolved crate-wide by the workspace pass
            };
            if hit {
                suppressed = true;
                applied.used[i] = true;
            }
        }
        if crate_allows.iter().any(|r| r == d.rule) {
            suppressed = true;
            applied.crate_rules_used.insert(d.rule.to_string());
        }
        if !suppressed {
            applied.kept.push(d);
        }
    }
    applied
}

/// Analyses one file's source under the given context, returning the
/// post-suppression findings. This is the single-file view: the
/// cross-file rule (HEB007) and
/// unused-suppression reporting need the workspace pipeline
/// ([`analyze_files`](crate::workspace::analyze_files)).
#[must_use]
pub fn analyze_source(source: &str, ctx: &FileContext) -> Vec<Diagnostic> {
    let fa = analyze_file(source, ctx);
    let mut kept = apply_suppressions(fa.raw, &fa.directives, &ctx.crate_allows).kept;
    crate::diagnostics::sort(&mut kept);
    kept
}

/// A parsed `heb-analyze:` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Directive {
    Allow(String),
    AllowFile(String),
    AllowCrate(String),
}

/// Scans comments for `heb-analyze:` directives; malformed ones become
/// HEB000 findings, well-formed ones are recorded with their scope.
fn collect_directives(
    scrubbed: &Scrubbed,
    ctx: &FileContext,
    diags: &mut Vec<Diagnostic>,
) -> Vec<DirectiveRec> {
    let mut out = Vec::new();
    for (idx, comment) in scrubbed.comments.iter().enumerate() {
        // A directive must *start* the comment (after the `///`/`//!`
        // marker tail): prose or doc examples that merely mention the
        // syntax mid-sentence are not directives.
        let trimmed = comment
            .trim_start()
            .trim_start_matches(['/', '!', '*'])
            .trim_start();
        let Some(rest) = trimmed.strip_prefix("heb-analyze:") else {
            continue;
        };
        let rest = rest.trim();
        if !rest.starts_with("allow") {
            // Prose that merely mentions the tool, not a directive.
            continue;
        }
        match parse_directive(rest) {
            Ok(Directive::Allow(rule)) => out.push(DirectiveRec {
                kind: DirectiveKind::Line,
                rule,
                line: idx,
            }),
            Ok(Directive::AllowFile(rule)) => out.push(DirectiveRec {
                kind: DirectiveKind::File,
                rule,
                line: idx,
            }),
            Ok(Directive::AllowCrate(rule)) => {
                if ctx.path.ends_with("src/lib.rs") {
                    out.push(DirectiveRec {
                        kind: DirectiveKind::Crate,
                        rule,
                        line: idx,
                    });
                } else {
                    diags.push(Diagnostic {
                        rule: "HEB000",
                        path: ctx.path.clone(),
                        line: idx + 1,
                        message: "allow-crate is only honoured in the crate's src/lib.rs"
                            .to_string(),
                        snippet: comment.trim().to_string(),
                    });
                }
            }
            Err(why) => {
                diags.push(Diagnostic {
                    rule: "HEB000",
                    path: ctx.path.clone(),
                    line: idx + 1,
                    message: format!("malformed suppression: {why}"),
                    snippet: comment.trim().to_string(),
                });
            }
        }
    }
    out
}

/// Parses `allow(HEB00N, reason)` / `allow-file(...)` / `allow-crate(...)`.
fn parse_directive(rest: &str) -> Result<Directive, String> {
    let (kind, args) = if let Some(a) = rest.strip_prefix("allow-file(") {
        ("file", a)
    } else if let Some(a) = rest.strip_prefix("allow-crate(") {
        ("crate", a)
    } else if let Some(a) = rest.strip_prefix("allow(") {
        ("line", a)
    } else {
        return Err(format!(
            "expected allow(...), allow-file(...), or allow-crate(...), got {rest:?}"
        ));
    };
    // Trailing comment text after the closing parenthesis is fine.
    let Some((args, _)) = args.split_once(')') else {
        return Err("missing closing parenthesis".to_string());
    };
    let Some((rule, reason)) = args.split_once(',') else {
        return Err("a reason is required: allow(HEB00N, why this is fine)".to_string());
    };
    let rule = rule.trim().to_string();
    if !RULES.contains(&rule.as_str()) {
        return Err(format!("unknown rule {rule:?}"));
    }
    if reason.trim().is_empty() {
        return Err("the reason must be non-empty".to_string());
    }
    Ok(match kind {
        "file" => Directive::AllowFile(rule),
        "crate" => Directive::AllowCrate(rule),
        _ => Directive::Allow(rule),
    })
}

/// The set of 0-based lines inside `#[cfg(test)]`-gated items.
pub(crate) fn test_spans(code: &[String]) -> BTreeSet<usize> {
    let mut lines = BTreeSet::new();
    for (idx, line) in code.iter().enumerate() {
        let gated =
            (line.contains("#[cfg(") && contains_word(line, "test")) || line.contains("#[test]");
        if !gated || lines.contains(&idx) {
            continue;
        }
        // Find the gated item's opening brace within the next few
        // lines (attributes may stack above it).
        let mut open = None;
        'scan: for j in idx..code.len().min(idx + 6) {
            let start = if j == idx {
                line.find(']').map_or(0, |p| p + 1)
            } else {
                0
            };
            for (k, c) in code[j][start.min(code[j].len())..].char_indices() {
                match c {
                    '{' => {
                        open = Some((j, start + k));
                        break 'scan;
                    }
                    ';' => break 'scan, // e.g. `#[cfg(test)] use …;`
                    _ => {}
                }
            }
        }
        let Some((open_line, open_col)) = open else {
            lines.insert(idx);
            continue;
        };
        // Brace-match to the item's end.
        let mut depth = 0usize;
        let mut end = open_line;
        'outer: for (j, l) in code.iter().enumerate().skip(open_line) {
            let from = if j == open_line { open_col } else { 0 };
            for c in l[from.min(l.len())..].chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            end = j;
                            break 'outer;
                        }
                    }
                    _ => {}
                }
            }
            end = j;
        }
        for l in idx..=end {
            lines.insert(l);
        }
    }
    lines
}

/// HEB004: `pub fn` parameters and returns that pass unit-suffixed
/// quantities as bare `f64`.
fn check_unit_discipline(
    scrubbed: &Scrubbed,
    test_lines: &BTreeSet<usize>,
    emit: &mut impl FnMut(&'static str, usize, String),
) {
    let joined = scrubbed.joined_code();
    let line_of = |offset: usize| joined[..offset].matches('\n').count();
    let bytes = joined.as_bytes();
    let mut from = 0;
    while let Some(rel) = joined[from..].find("pub fn ") {
        let at = from + rel;
        from = at + "pub fn ".len();
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        if test_lines.contains(&line_of(at)) {
            continue;
        }
        let Some(sig) = parse_signature(&joined, at + "pub fn ".len()) else {
            continue;
        };
        for (name, ty, offset) in &sig.params {
            if ty == "f64" {
                if let Some(unit) = unit_for_suffix(name) {
                    emit(
                        "HEB004",
                        line_of(*offset),
                        format!(
                            "public fn `{}` takes `{name}: f64`: quantities named \
                             `*{}` carry units; use `heb_units::{unit}`",
                            sig.name,
                            suffix_of(name).unwrap_or_default(),
                        ),
                    );
                }
            }
        }
        if sig.ret.as_deref() == Some("f64") {
            if let Some(unit) = unit_for_suffix(&sig.name) {
                emit(
                    "HEB004",
                    line_of(at),
                    format!(
                        "public fn `{}` returns bare `f64`: its name carries units; \
                         return `heb_units::{unit}`",
                        sig.name
                    ),
                );
            }
        }
    }
}

struct Signature {
    name: String,
    /// (param name, param type, byte offset of the param).
    params: Vec<(String, String, usize)>,
    ret: Option<String>,
}

/// Parses the signature starting right after `pub fn `.
fn parse_signature(joined: &str, mut i: usize) -> Option<Signature> {
    let bytes = joined.as_bytes();
    let name_start = i;
    while i < bytes.len() && is_ident_byte(bytes[i]) {
        i += 1;
    }
    let name = joined[name_start..i].to_string();
    if name.is_empty() {
        return None;
    }
    // Skip generics: `<…>` with `->` guarded.
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if bytes.get(i) == Some(&b'<') {
        let mut depth = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                b'<' => depth += 1,
                b'>' if i > 0 && bytes[i - 1] == b'-' => {}
                b'>' => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    while i < bytes.len() && bytes[i] != b'(' {
        i += 1;
    }
    let params_start = i + 1;
    let mut depth = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    if i >= bytes.len() {
        return None;
    }
    let params_src = &joined[params_start..i];
    let params = split_params(params_src)
        .into_iter()
        .filter_map(|(piece, rel)| {
            let piece_trimmed = piece.trim();
            let (raw_name, ty) = piece_trimmed.split_once(':')?;
            let raw_name = raw_name.trim().trim_start_matches("mut ").trim();
            if !raw_name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
                || raw_name.is_empty()
            {
                return None;
            }
            Some((
                raw_name.to_string(),
                ty.trim().to_string(),
                params_start + rel,
            ))
        })
        .collect();
    // Return type: `-> T` before `{`, `;`, or `where`.
    let after = &joined[i + 1..];
    let ret = after.trim_start().strip_prefix("->").map(|r| {
        let end = r
            .find(['{', ';'])
            .or_else(|| r.find(" where "))
            .unwrap_or(r.len());
        r[..end].trim().to_string()
    });
    Some(Signature { name, params, ret })
}

/// Splits a parameter list on top-level commas; yields each piece with
/// its byte offset into the list.
fn split_params(src: &str) -> Vec<(&str, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in src.char_indices() {
        match c {
            '(' | '[' | '{' | '<' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            '>' if !src[..i].ends_with('-') => depth -= 1,
            ',' if depth == 0 => {
                out.push((&src[start..i], start));
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < src.len() {
        out.push((&src[start..], start));
    }
    out
}

fn suffix_of(name: &str) -> Option<&'static str> {
    UNIT_SUFFIXES
        .iter()
        .filter(|(s, _)| name.ends_with(s) && name.len() > s.len())
        .map(|(s, _)| *s)
        .max_by_key(|s| s.len())
}

fn unit_for_suffix(name: &str) -> Option<&'static str> {
    let suffix = suffix_of(name)?;
    UNIT_SUFFIXES
        .iter()
        .find(|(s, _)| *s == suffix)
        .map(|(_, u)| *u)
}

/// Parameter-name suffixes that imply a `heb-units` type.
const UNIT_SUFFIXES: &[(&str, &str)] = &[
    ("_w", "Watts"),
    ("_kw", "Watts"),
    ("_watts", "Watts"),
    ("_wh", "Joules"),
    ("_kwh", "Joules"),
    ("_watt_hours", "Joules"),
    ("_j", "Joules"),
    ("_joules", "Joules"),
    ("_v", "Volts"),
    ("_volts", "Volts"),
    ("_a", "Amps"),
    ("_amps", "Amps"),
    ("_ah", "AmpHours"),
    ("_ohm", "Ohms"),
    ("_ohms", "Ohms"),
    ("_s", "Seconds"),
    ("_secs", "Seconds"),
    ("_seconds", "Seconds"),
    ("_hours", "Seconds"),
    ("_soc", "Ratio"),
    ("_frac", "Ratio"),
    ("_usd", "Dollars"),
    ("_dollars", "Dollars"),
];

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whole-word containment (`Instant` but not `Instantaneous`).
pub(crate) fn contains_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(rel) = line[from..].find(word) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = at + word.len();
    }
    false
}

/// Literal pattern containment with a guard against over-matching
/// method families (`.unwrap()` must not match `.unwrap_or()`, and
/// `panic!` must be a word).
fn find_pattern(line: &str, pat: &str) -> bool {
    if pat == "panic!" {
        return contains_word(line, "panic");
    }
    line.contains(pat)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_ctx() -> FileContext {
        FileContext::lib("core", "crates/core/src/x.rs")
    }

    #[test]
    fn heb001_flags_wall_clock() {
        let d = analyze_source("use std::time::Instant;\n", &sim_ctx());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "HEB001");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn heb001_ignores_comments_and_non_sim_crates() {
        assert!(analyze_source("// Instantaneous draw\n", &sim_ctx()).is_empty());
        let tele = FileContext::lib("telemetry", "crates/telemetry/src/x.rs");
        assert!(analyze_source("use std::time::Instant;\n", &tele).is_empty());
    }

    #[test]
    fn service_class_permits_clocks_but_keeps_order_and_panic_discipline() {
        // The serve crate's whole job is clocks and sockets: HEB001
        // must not fire there — by crate classification, with no
        // per-line suppression comments needed.
        let serve = FileContext::lib("serve", "crates/serve/src/service.rs");
        let clocky = "use std::time::Instant;\nuse std::net::TcpListener;\n\
                      pub fn t() -> Instant { Instant::now() }\n";
        assert!(analyze_source(clocky, &serve).is_empty());
        // …but its answers must stay deterministic (HEB002)…
        let d = analyze_source("use std::collections::HashMap;\n", &serve);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "HEB002");
        // …and it must not panic (HEB003).
        let d = analyze_source("pub fn f() { x.unwrap(); }\n", &serve);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "HEB003");
    }

    #[test]
    fn unknown_crates_default_to_the_strictest_class() {
        assert_eq!(crate_class("brand-new-crate"), CrateClass::Sim);
        let ctx = FileContext::lib("brand-new-crate", "crates/brand-new-crate/src/lib.rs");
        let d = analyze_source("use std::time::Instant;\n", &ctx);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "HEB001");
    }

    #[test]
    fn every_workspace_crate_is_deliberately_classified() {
        // Mirror of the workspace layout: if a crate is added without
        // updating `crate_class`, the unknown→Sim default will flag it
        // in CI; this test documents the intended mapping.
        for (name, class) in [
            ("units", CrateClass::Infra),
            ("esd", CrateClass::Physics),
            ("powersys", CrateClass::Physics),
            ("workload", CrateClass::Sim),
            ("forecast", CrateClass::Sim),
            ("core", CrateClass::Sim),
            ("tco", CrateClass::Sim),
            ("rng", CrateClass::Sim),
            ("fleet", CrateClass::Infra),
            ("telemetry", CrateClass::Infra),
            ("analyze", CrateClass::Infra),
            ("serve", CrateClass::Service),
            ("proptest", CrateClass::Harness),
            ("bench", CrateClass::Harness),
            ("heb", CrateClass::Infra),
        ] {
            assert_eq!(crate_class(name), class, "{name}");
        }
    }

    #[test]
    fn heb002_flags_hash_collections() {
        let d = analyze_source("let m: HashMap<K, V> = HashMap::new();\n", &sim_ctx());
        assert_eq!(d.len(), 1, "one diagnostic per line, not per mention");
        assert_eq!(d[0].rule, "HEB002");
    }

    #[test]
    fn heb003_flags_unwrap_but_not_unwrap_or() {
        let d = analyze_source("let x = y.unwrap();\n", &sim_ctx());
        assert_eq!(d[0].rule, "HEB003");
        assert!(analyze_source("let x = y.unwrap_or(0);\n", &sim_ctx()).is_empty());
        assert!(analyze_source("let x = y.unwrap_or_else(f);\n", &sim_ctx()).is_empty());
    }

    #[test]
    fn heb003_exempts_tests_bins_and_harness_crates() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\n";
        assert!(analyze_source(src, &sim_ctx()).is_empty());
        let mut binctx = sim_ctx();
        binctx.role = Role::Bin;
        assert!(analyze_source("fn main() { x.unwrap(); }\n", &binctx).is_empty());
        let harness = FileContext::lib("proptest", "crates/proptest/src/lib.rs");
        assert!(analyze_source("pub fn f() { panic!(\"x\") }\n", &harness).is_empty());
    }

    #[test]
    fn heb004_flags_unit_suffixed_f64_params_and_returns() {
        let ctx = FileContext::lib("esd", "crates/esd/src/x.rs");
        let d = analyze_source("pub fn set_cap(cap_wh: f64, n: usize) {}\n", &ctx);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "HEB004");
        assert!(d[0].message.contains("Joules"));
        let d = analyze_source("pub fn voltage_v(&self) -> f64 { 1.0 }\n", &ctx);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("Volts"));
        assert!(analyze_source("pub fn count(&self) -> f64 { 1.0 }\n", &ctx).is_empty());
        assert!(analyze_source("pub fn cap_wh(&self) -> Joules { j }\n", &ctx).is_empty());
    }

    #[test]
    fn heb004_only_in_physics_crates() {
        let d = analyze_source("pub fn set_cap(cap_wh: f64) {}\n", &sim_ctx());
        assert!(d.is_empty());
    }

    #[test]
    fn heb005_guards_the_hash_path() {
        let ctx = FileContext::lib("fleet", "crates/fleet/src/cache.rs");
        let d = analyze_source("use heb_telemetry::RecorderHandle;\n", &ctx);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "HEB005");
        let other = FileContext::lib("fleet", "crates/fleet/src/engine.rs");
        assert!(analyze_source("use heb_telemetry::RecorderHandle;\n", &other).is_empty());
    }

    #[test]
    fn heb006_flags_raw_tick_arithmetic_outside_the_event_core() {
        let d = analyze_source("let t = self.tick_index + 1;\n", &sim_ctx());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "HEB006");
        let d = analyze_source("let t = Seconds::new(ticks as f64 * dt);\n", &sim_ctx());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "HEB006");
        let d = analyze_source("let t = n as f64 * self.dt.get();\n", &sim_ctx());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "HEB006");
    }

    #[test]
    fn heb006_exempts_the_event_core_tests_and_infra_crates() {
        let clock = FileContext::lib("core", "crates/core/src/event.rs");
        let src = "pub fn time_at(&self, i: u64) -> Seconds { Seconds::new(i as f64 * dt) }\n";
        assert!(analyze_source(src, &clock).is_empty());
        // Ordinary physics math (power × dt) is not tick-index minting.
        assert!(analyze_source("let e = power * dt.get();\n", &sim_ctx()).is_empty());
        // Test code and non-sim crates are out of scope.
        let gated = "#[cfg(test)]\nmod tests {\n    fn f() { let t = tick_index; }\n}\n";
        assert!(analyze_source(gated, &sim_ctx()).is_empty());
        let infra = FileContext::lib("fleet", "crates/fleet/src/engine.rs");
        assert!(analyze_source("let t = tick_index;\n", &infra).is_empty());
    }

    #[test]
    fn suppressions_require_reasons_and_silence_findings() {
        let src = "// heb-analyze: allow(HEB003, documented panicking constructor)\n\
                   pub fn f() { panic!(\"x\") }\n";
        assert!(analyze_source(src, &sim_ctx()).is_empty());
        let trailing = "pub fn f() { x.unwrap() } // heb-analyze: allow(HEB003, setup)\n";
        assert!(analyze_source(trailing, &sim_ctx()).is_empty());
        let bad = "// heb-analyze: allow(HEB003)\npub fn f() { panic!(\"x\") }\n";
        let d = analyze_source(bad, &sim_ctx());
        assert!(d.iter().any(|d| d.rule == "HEB000"));
        assert!(d.iter().any(|d| d.rule == "HEB003"), "not suppressed");
    }

    #[test]
    fn file_and_crate_wide_suppressions() {
        let src = "// heb-analyze: allow-file(HEB002, frozen before iteration)\n\
                   fn a() -> HashMap<K,V> { HashMap::new() }\n\
                   fn b() -> HashSet<K> { HashSet::new() }\n";
        assert!(analyze_source(src, &sim_ctx()).is_empty());
        let mut ctx = sim_ctx();
        ctx.crate_allows.push("HEB002".to_string());
        assert!(analyze_source("let m: HashMap<K,V> = m;\n", &ctx).is_empty());
        // allow-crate outside lib.rs is itself a finding.
        let stray = "// heb-analyze: allow-crate(HEB002, nope)\n";
        let d = analyze_source(stray, &sim_ctx());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "HEB000");
    }

    #[test]
    fn strings_and_doc_comments_never_fire() {
        let src = "/// call `.unwrap()` at your peril; panic! ensues\n\
                   pub fn f() -> String { \"panic!\".to_string() }\n";
        assert!(analyze_source(src, &sim_ctx()).is_empty());
    }

    #[test]
    fn heb009_flags_parallel_float_folds_in_hot_crates_only() {
        let fleet = FileContext::lib("fleet", "crates/fleet/src/agg.rs");
        let par = "fn total(xs: &[f64]) -> f64 {\n    std::thread::scope(|s| {\n        \
                   xs.iter().sum::<f64>()\n    })\n}\n";
        let d = analyze_source(par, &fleet);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "HEB009");
        assert_eq!(d[0].line, 3);
        // Serial reductions are fine; parallel integer work is fine.
        let serial = "fn total(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
        assert!(analyze_source(serial, &fleet).is_empty());
        let int_par = "fn count(xs: &[u64]) -> u64 {\n    std::thread::scope(|s| xs.len() \
                       as u64)\n}\n";
        assert!(analyze_source(int_par, &fleet).is_empty());
        // Sim crates are governed by determinism rules, not HEB009.
        assert!(analyze_source(par, &sim_ctx()).is_empty());
    }

    #[test]
    fn heb009_covers_the_powersys_hot_path_modules() {
        let par = "fn total(xs: &[f64]) -> f64 {\n    std::thread::scope(|s| {\n        \
                   xs.iter().sum::<f64>()\n    })\n}\n";
        for path in HOT_PATH_FILES {
            let ctx = FileContext::lib("powersys", path);
            let d = analyze_source(par, &ctx);
            assert!(
                d.iter().any(|f| f.rule == "HEB009"),
                "{path} must be in HEB009 scope: {d:?}"
            );
        }
        // The rest of powersys keeps its sim-crate scoping.
        let elsewhere = FileContext::lib("powersys", "crates/powersys/src/cluster.rs");
        assert!(analyze_source(par, &elsewhere)
            .iter()
            .all(|f| f.rule != "HEB009"));
    }

    #[test]
    fn new_rules_are_suppressible_by_directive() {
        let fleet = FileContext::lib("fleet", "crates/fleet/src/agg.rs");
        let src = "fn total(xs: &[f64]) -> f64 {\n    std::thread::scope(|s| {\n        \
                   // heb-analyze: allow(HEB009, batch-index order is fixed)\n        \
                   xs.iter().sum::<f64>()\n    })\n}\n";
        assert!(analyze_source(src, &fleet).is_empty());
    }

    #[test]
    fn apply_suppressions_reports_directive_usage() {
        let ctx = sim_ctx();
        let src = "// heb-analyze: allow(HEB003, used below)\npub fn f() { x.unwrap() }\n\
                   // heb-analyze: allow(HEB001, nothing here uses clocks)\n";
        let fa = analyze_file(src, &ctx);
        assert_eq!(fa.directives.len(), 2);
        let applied = apply_suppressions(fa.raw, &fa.directives, &[]);
        assert!(applied.kept.is_empty());
        assert_eq!(applied.used, vec![true, false], "second allow is unused");
    }

    #[test]
    fn rule_id_maps_names_to_static_ids() {
        assert_eq!(rule_id("HEB007"), Some("HEB007"));
        assert_eq!(rule_id("HEB000"), Some("HEB000"));
        assert_eq!(rule_id("HEB999"), None);
    }
}
