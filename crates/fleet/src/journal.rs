//! Crash-safe run journal: an append-only manifest plus a per-run
//! report store, making interrupted fleet runs resumable.
//!
//! Layout under `<runs-dir>/<run-id>/`:
//!
//! ```text
//! manifest.jsonl       append-only state transitions, one JSON line each
//! reports/v<N>/…       completed reports (the cache entry format)
//! ```
//!
//! Manifest lines (all single-line JSON, strings escaped):
//!
//! ```text
//! {"type":"batch.open","run_id":"…","scenarios":N}
//! {"type":"scenario","index":I,"hash":"…","label":"…"}
//! {"type":"state","hash":"…","state":"running","attempt":A}
//! {"type":"state","hash":"…","state":"failed","attempt":A,"error":"…"}
//! {"type":"state","hash":"…","state":"done","attempt":A}
//! {"type":"batch.close","done":D,"failed":F,"quarantined":Q,"pending":P,"aborted":B}
//! ```
//!
//! Crash-safety rules: every line is committed with a single
//! `write_all` of the full line (so a crash can only truncate the
//! *last* line, never interleave two), the parser ignores a torn tail,
//! and a scenario's `done` line is appended only *after* its report
//! has been atomically renamed into the report store. Resuming
//! therefore re-executes exactly the scenarios without a durable
//! report — `running` states dangling from a kill included — and
//! replays the rest bit-identically from the store.
//!
//! Journal I/O itself degrades instead of failing the run: an append
//! or report-store error (disk full, injected failpoint) marks the
//! journal unhealthy, further appends become no-ops, and the engine
//! surfaces the fact in its stats; the simulation results are
//! unaffected. Cache hits are mirrored into the report store by hard
//! link ([`RunJournal::record_cache_hit`]), falling back to a write.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use heb_core::{Scenario, SimReport};
use heb_telemetry::json_field;

use crate::cache::ResultCache;
use crate::failpoint::{site, Failpoints};
use crate::harden::ScenarioState;

/// The manifest file name inside a run directory.
pub const MANIFEST_FILE: &str = "manifest.jsonl";

/// When journal appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every line: maximal crash-safety, slowest.
    Always,
    /// Flush per line, `fsync` once when the batch closes (default).
    #[default]
    Batch,
    /// Never `fsync`; rely on the OS (fastest, test runs).
    Never,
}

impl FsyncPolicy {
    /// Stable lowercase name (`always` / `batch` / `never`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Never => "never",
        }
    }

    /// Parses a policy name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "always" => Some(FsyncPolicy::Always),
            "batch" => Some(FsyncPolicy::Batch),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }
}

/// A crash-safe, append-only journal for one run id.
#[derive(Debug)]
pub struct RunJournal {
    dir: PathBuf,
    run_id: String,
    fsync: FsyncPolicy,
    file: Mutex<Option<File>>,
    healthy: AtomicBool,
    store: ResultCache,
    /// Last journaled state per scenario hash from *prior* sessions
    /// (empty for a fresh run).
    prior: BTreeMap<String, ScenarioState>,
    failpoints: Option<Arc<Failpoints>>,
}

impl RunJournal {
    /// Creates (or re-opens for appending) the journal for `run_id`
    /// under `runs_dir`, without reading prior state — a fresh run.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and manifest-open failures; the
    /// caller may then run journal-less rather than not at all.
    pub fn create(runs_dir: &Path, run_id: &str, fsync: FsyncPolicy) -> io::Result<Self> {
        Self::open_inner(runs_dir, run_id, fsync, false)
    }

    /// Opens an existing run for resumption: prior manifest lines are
    /// parsed (tolerating a torn tail) so completed scenarios can be
    /// settled from the report store.
    ///
    /// # Errors
    ///
    /// Fails if the run directory or manifest does not exist, or
    /// cannot be opened for appending.
    pub fn resume(runs_dir: &Path, run_id: &str, fsync: FsyncPolicy) -> io::Result<Self> {
        if !runs_dir.join(run_id).join(MANIFEST_FILE).is_file() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "no manifest for run {run_id:?} under {}",
                    runs_dir.display()
                ),
            ));
        }
        Self::open_inner(runs_dir, run_id, fsync, true)
    }

    fn open_inner(
        runs_dir: &Path,
        run_id: &str,
        fsync: FsyncPolicy,
        read_prior: bool,
    ) -> io::Result<Self> {
        let dir = runs_dir.join(run_id);
        fs::create_dir_all(&dir)?;
        let manifest = dir.join(MANIFEST_FILE);
        let prior = if read_prior {
            parse_manifest(&fs::read_to_string(&manifest)?)
        } else {
            BTreeMap::new()
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&manifest)?;
        Ok(Self {
            run_id: run_id.to_string(),
            fsync,
            file: Mutex::new(Some(file)),
            healthy: AtomicBool::new(true),
            store: ResultCache::new(dir.join("reports")),
            prior,
            dir,
            failpoints: None,
        })
    }

    /// Attaches a failpoint set whose `journal.append` site injects
    /// manifest write failures.
    #[must_use]
    pub fn with_failpoints(mut self, failpoints: Arc<Failpoints>) -> Self {
        self.failpoints = Some(failpoints);
        self
    }

    /// The run id this journal belongs to.
    #[must_use]
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// The run directory (`<runs-dir>/<run-id>`).
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether every append so far reached the manifest.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.healthy.load(Ordering::Relaxed)
    }

    /// The scenario's last journaled state from prior sessions.
    #[must_use]
    pub fn prior_state(&self, hash: &str) -> Option<ScenarioState> {
        self.prior.get(hash).copied()
    }

    /// Settles a scenario from a prior session: its journaled state
    /// must be `done` *and* its report must load from the run store
    /// (the done line is only ever written after the store commit, so
    /// a miss here means a torn run — re-execute).
    #[must_use]
    pub fn completed_report(&self, scenario: &Scenario) -> Option<SimReport> {
        if self.prior_state(&scenario.hash_hex()) != Some(ScenarioState::Done) {
            return None;
        }
        self.store.load(scenario)
    }

    /// Opens a batch: membership lines let post-mortem tooling map
    /// hashes back to labels and positions.
    pub fn record_batch_open(&self, batch: &[Scenario]) {
        self.append(&format!(
            "{{\"type\":\"batch.open\",\"run_id\":\"{}\",\"scenarios\":{}}}",
            escape(&self.run_id),
            batch.len()
        ));
        for (index, scenario) in batch.iter().enumerate() {
            self.append(&format!(
                "{{\"type\":\"scenario\",\"index\":{index},\"hash\":\"{}\",\"label\":\"{}\"}}",
                scenario.hash_hex(),
                escape(scenario.label())
            ));
        }
    }

    /// Journals a state transition for one scenario attempt.
    pub fn record_state(
        &self,
        hash: &str,
        state: ScenarioState,
        attempt: u32,
        error: Option<&str>,
    ) {
        let mut line = format!(
            "{{\"type\":\"state\",\"hash\":\"{hash}\",\"state\":\"{}\",\"attempt\":{attempt}",
            state.name()
        );
        if let Some(error) = error {
            line.push_str(",\"error\":\"");
            line.push_str(&escape(error));
            line.push('"');
        }
        line.push('}');
        self.append(&line);
    }

    /// Commits a completed scenario: report first (atomic rename into
    /// the run store), `done` line after — the ordering resume relies
    /// on.
    pub fn record_done(&self, scenario: &Scenario, report: &SimReport, attempt: u32) {
        let committed = self.store.store(scenario, report);
        self.commit_done(scenario, attempt, committed);
    }

    /// Commits a scenario the probe pass settled from `cache`, whose
    /// entry for it was just loaded and verified: the entry is
    /// hard-linked into the run store, so the hit is mirrored without
    /// re-encoding or rewriting the report. When linking fails (the
    /// entry was evicted since, or the run store sits on another
    /// filesystem) the report is written as [`RunJournal::record_done`]
    /// writes it. Either way the store holds the bytes
    /// [`ResultCache::store`] writes, and resume verifies them as it
    /// verifies any other entry.
    pub fn record_cache_hit(&self, scenario: &Scenario, report: &SimReport, cache: &ResultCache) {
        let committed = self
            .store
            .link_entry(cache, scenario)
            .or_else(|_| self.store.store(scenario, report));
        self.commit_done(scenario, 0, committed);
    }

    /// Appends `done` once the report's store commit succeeded. A
    /// failed commit leaves no `done` line — resume would find no
    /// report behind it — and marks the journal unhealthy, as a failed
    /// append does.
    fn commit_done(&self, scenario: &Scenario, attempt: u32, committed: io::Result<()>) {
        match committed {
            Ok(()) => self.record_state(&scenario.hash_hex(), ScenarioState::Done, attempt, None),
            Err(_) => self.mark_unhealthy(),
        }
    }

    /// Closes a batch with final tallies, honouring the fsync policy.
    pub fn record_batch_close(
        &self,
        done: usize,
        failed: usize,
        quarantined: usize,
        pending: usize,
        aborted: bool,
    ) {
        self.append(&format!(
            "{{\"type\":\"batch.close\",\"done\":{done},\"failed\":{failed},\
             \"quarantined\":{quarantined},\"pending\":{pending},\"aborted\":{aborted}}}"
        ));
        if self.fsync == FsyncPolicy::Batch {
            self.sync();
        }
    }

    /// Forces buffered manifest bytes to disk.
    pub fn sync(&self) {
        let guard = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(file) = guard.as_ref() {
            let _ = file.sync_data();
        }
    }

    /// Appends one manifest line atomically (single `write_all` of
    /// line + newline). On failure the journal goes unhealthy and
    /// stays silent — observability must never take the run down.
    fn append(&self, line: &str) {
        if let Some(fp) = &self.failpoints {
            if fp.fires(site::JOURNAL_APPEND) {
                self.mark_unhealthy();
                return;
            }
        }
        let mut guard = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(file) = guard.as_mut() else {
            return;
        };
        let mut payload = String::with_capacity(line.len() + 1);
        payload.push_str(line);
        payload.push('\n');
        let result = file
            .write_all(payload.as_bytes())
            .and_then(|()| match self.fsync {
                FsyncPolicy::Always => file.sync_data(),
                FsyncPolicy::Batch | FsyncPolicy::Never => Ok(()),
            });
        if result.is_err() {
            *guard = None;
            drop(guard);
            self.mark_unhealthy();
        }
    }

    fn mark_unhealthy(&self) {
        self.healthy.store(false, Ordering::Relaxed);
        let mut guard = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        *guard = None;
    }
}

/// Parses manifest lines into last-state-wins per-scenario states.
/// Lines that do not parse (torn tail after a crash, foreign garbage)
/// are skipped — the worst case is re-executing a scenario, never
/// trusting a phantom result.
fn parse_manifest(body: &str) -> BTreeMap<String, ScenarioState> {
    let mut states = BTreeMap::new();
    for line in body.lines() {
        if !line.ends_with('}') || json_field(line, "type") != Some("state") {
            continue;
        }
        let (Some(hash), Some(state)) = (json_field(line, "hash"), json_field(line, "state"))
        else {
            continue;
        };
        if let Some(state) = ScenarioState::parse(state) {
            states.insert(hash.to_string(), state);
        }
    }
    states
}

/// JSON string escaping for manifest values (labels, error messages).
fn escape(value: &str) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use heb_core::SimConfig;
    use heb_workload::Archetype;

    fn scenario(seed: u64) -> Scenario {
        Scenario::new(
            format!("journal-test/{seed}"),
            SimConfig::prototype(),
            &[Archetype::WebSearch],
            0.05,
            seed,
        )
    }

    fn temp_runs(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("heb-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn done_scenarios_resume_bit_identically() {
        let runs = temp_runs("resume");
        let s = scenario(1);
        let report = s.run_expect();
        {
            let journal = RunJournal::create(&runs, "r1", FsyncPolicy::Batch).unwrap();
            journal.record_batch_open(std::slice::from_ref(&s));
            journal.record_state(&s.hash_hex(), ScenarioState::Running, 1, None);
            journal.record_done(&s, &report, 1);
            journal.record_batch_close(1, 0, 0, 0, false);
            assert!(journal.healthy());
        }
        let resumed = RunJournal::resume(&runs, "r1", FsyncPolicy::Batch).unwrap();
        assert_eq!(
            resumed.prior_state(&s.hash_hex()),
            Some(ScenarioState::Done)
        );
        assert_eq!(resumed.completed_report(&s), Some(report));
        // A scenario the journal never saw is not settled.
        assert_eq!(resumed.completed_report(&scenario(2)), None);
    }

    #[test]
    fn dangling_running_state_is_not_settled() {
        let runs = temp_runs("dangling");
        let s = scenario(3);
        {
            let journal = RunJournal::create(&runs, "r1", FsyncPolicy::Never).unwrap();
            journal.record_batch_open(std::slice::from_ref(&s));
            journal.record_state(&s.hash_hex(), ScenarioState::Running, 1, None);
            // Process "dies" here: no report, no done line.
        }
        let resumed = RunJournal::resume(&runs, "r1", FsyncPolicy::Never).unwrap();
        assert_eq!(
            resumed.prior_state(&s.hash_hex()),
            Some(ScenarioState::Running)
        );
        assert_eq!(resumed.completed_report(&s), None, "must re-execute");
    }

    #[test]
    fn torn_tail_and_garbage_lines_are_tolerated() {
        let runs = temp_runs("torn");
        let s = scenario(4);
        let report = s.run_expect();
        {
            let journal = RunJournal::create(&runs, "r1", FsyncPolicy::Always).unwrap();
            journal.record_done(&s, &report, 1);
        }
        // Simulate a crash mid-append: a torn, unterminated last line.
        let manifest = runs.join("r1").join(MANIFEST_FILE);
        let mut body = fs::read_to_string(&manifest).unwrap();
        body.push_str("not json\n{\"type\":\"state\",\"hash\":\"feed\",\"sta");
        fs::write(&manifest, body).unwrap();
        let resumed = RunJournal::resume(&runs, "r1", FsyncPolicy::Always).unwrap();
        assert_eq!(resumed.completed_report(&s), Some(report));
        assert_eq!(resumed.prior_state("feed"), None, "torn line ignored");
    }

    #[test]
    fn resume_requires_an_existing_manifest() {
        let runs = temp_runs("missing");
        assert!(RunJournal::resume(&runs, "nope", FsyncPolicy::Batch).is_err());
    }

    #[test]
    fn quarantine_and_error_lines_round_trip_with_escaping() {
        let runs = temp_runs("quarantine");
        let journal = RunJournal::create(&runs, "r1", FsyncPolicy::Batch).unwrap();
        journal.record_state(
            "aa",
            ScenarioState::Failed,
            1,
            Some("panic: \"boom\"\nline2"),
        );
        journal.record_state("aa", ScenarioState::Quarantined, 2, Some("gave up"));
        journal.sync();
        let body = fs::read_to_string(runs.join("r1").join(MANIFEST_FILE)).unwrap();
        assert!(body.contains("\\\"boom\\\"\\nline2"));
        let states = parse_manifest(&body);
        assert_eq!(states.get("aa"), Some(&ScenarioState::Quarantined));
    }

    #[test]
    fn append_failures_turn_the_journal_unhealthy_quietly() {
        let runs = temp_runs("unhealthy");
        let journal = RunJournal::create(&runs, "r1", FsyncPolicy::Batch).unwrap();
        // Close the file handle out from under the journal.
        journal.mark_unhealthy();
        journal.record_state("aa", ScenarioState::Done, 1, None);
        assert!(!journal.healthy());
    }
}
