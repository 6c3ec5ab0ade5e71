//! Execution-robustness types: failure taxonomy, retry policy, and
//! per-run accounting.
//!
//! The contract this module anchors (see DESIGN §9): a scenario
//! failure — worker panic, typed build error, watchdog timeout, or an
//! injected failpoint — is converted to a [`ScenarioFailure`] value,
//! retried on a bounded, seed-deterministic backoff schedule, and
//! finally *quarantined* rather than allowed to poison the batch. The
//! engine returns a [`RunOutcome`] accounting for every scenario as
//! done / failed / quarantined / pending, mirroring the states in the
//! crash-safe run journal.

use std::fmt;

use heb_core::SimReport;
use heb_rng::splitmix64;

use crate::journal::RunJournal;

/// Why one scenario attempt (or the scenario terminally) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioFailure {
    /// The worker panicked; the message is the stringified payload.
    Panic {
        /// Panic payload (or a placeholder for non-string payloads).
        message: String,
    },
    /// `Scenario::run` returned a typed `SimError`.
    Error {
        /// The error's display form.
        message: String,
    },
    /// The per-scenario wall-clock watchdog expired.
    Timeout {
        /// The configured limit, in milliseconds.
        limit_ms: u64,
    },
    /// A failpoint injected the failure directly.
    Injected {
        /// The failpoint site that fired.
        site: String,
    },
    /// The run was aborted (fail-fast or an emulated kill) before this
    /// scenario could complete.
    Aborted,
}

impl ScenarioFailure {
    /// Short stable class name, used in journal lines and metrics.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ScenarioFailure::Panic { .. } => "panic",
            ScenarioFailure::Error { .. } => "error",
            ScenarioFailure::Timeout { .. } => "timeout",
            ScenarioFailure::Injected { .. } => "injected",
            ScenarioFailure::Aborted => "aborted",
        }
    }
}

impl fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioFailure::Panic { message } => write!(f, "panic: {message}"),
            ScenarioFailure::Error { message } => write!(f, "error: {message}"),
            ScenarioFailure::Timeout { limit_ms } => {
                write!(f, "timeout: exceeded {limit_ms} ms watchdog")
            }
            ScenarioFailure::Injected { site } => write!(f, "injected: failpoint {site}"),
            ScenarioFailure::Aborted => write!(f, "aborted: run stopped before completion"),
        }
    }
}

/// Per-scenario execution state, as journaled in the run manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioState {
    /// Not yet scheduled (a run that stopped early leaves these).
    Pending,
    /// An attempt is (or was, if the process died) in flight.
    Running,
    /// A report was produced — simulated, cached, or resumed.
    Done,
    /// An attempt failed; a retry is scheduled (non-terminal), or the
    /// run stopped while the scenario was unfinished (terminal).
    Failed,
    /// Every attempt failed; the scenario is out of the run for good.
    Quarantined,
}

impl ScenarioState {
    /// Stable lowercase name used in the manifest and summaries.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScenarioState::Pending => "pending",
            ScenarioState::Running => "running",
            ScenarioState::Done => "done",
            ScenarioState::Failed => "failed",
            ScenarioState::Quarantined => "quarantined",
        }
    }

    /// Parses a manifest state name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "pending" => Some(ScenarioState::Pending),
            "running" => Some(ScenarioState::Running),
            "done" => Some(ScenarioState::Done),
            "failed" => Some(ScenarioState::Failed),
            "quarantined" => Some(ScenarioState::Quarantined),
            _ => None,
        }
    }
}

/// Knobs governing panic isolation, retries, the watchdog, and
/// fail-fast scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HardenPolicy {
    /// Retries after the first failed attempt (0 = single attempt).
    pub max_retries: u32,
    /// Base backoff in milliseconds; attempt `k` sleeps
    /// `base * 2^(k-1)` plus a seed-deterministic jitter in
    /// `[0, base)`. Zero disables sleeping entirely (tests, CI).
    pub backoff_base_ms: u64,
    /// Per-scenario wall-clock watchdog: a scenario exceeding this
    /// many milliseconds is marked failed without killing siblings.
    /// `None` disables the watchdog (and its thread-per-attempt cost).
    pub timeout_ms: Option<u64>,
    /// Stop scheduling new scenarios after the first quarantine.
    pub fail_fast: bool,
}

impl HardenPolicy {
    /// Attempts a scenario gets in total under this policy.
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.max_retries.saturating_add(1)
    }

    /// The backoff before retrying after failed attempt `attempt`
    /// (1-based), in milliseconds: exponential in the attempt with a
    /// jitter derived from the scenario's content hash — deterministic
    /// for a given (scenario, attempt), uncorrelated across scenarios
    /// so a storm of retries does not thunder in lockstep.
    #[must_use]
    pub fn backoff_ms(&self, scenario_hash: u128, attempt: u32) -> u64 {
        if self.backoff_base_ms == 0 {
            return 0;
        }
        let shift = u64::from(attempt.saturating_sub(1).min(6));
        let exponential = self.backoff_base_ms.saturating_mul(1 << shift);
        let mut state = (scenario_hash as u64)
            ^ ((scenario_hash >> 64) as u64).rotate_left(31)
            ^ u64::from(attempt);
        let jitter = splitmix64(&mut state) % self.backoff_base_ms;
        exponential.saturating_add(jitter)
    }
}

/// Per-run options of the fleet engine's single entry point,
/// `FleetEngine::run`: the optional crash-safe [`RunJournal`].
///
/// The robustness knobs are not here: they are the engine's
/// [`HardenPolicy`], set once by `FleetEngine::with_policy`. The
/// historical panicking contract of the old `run` lives on
/// [`RunOutcome::expect_reports`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RunPolicy<'a> {
    journal: Option<&'a RunJournal>,
}

impl<'a> RunPolicy<'a> {
    /// A run without a journal.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a crash-safe run journal: progress is persisted so an
    /// interrupted run resumes bit-identically.
    #[must_use]
    pub fn journal(mut self, journal: &'a RunJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// [`RunPolicy::journal`] taking an `Option` — convenient for
    /// callers whose journal is itself optional.
    #[must_use]
    pub fn maybe_journal(mut self, journal: Option<&'a RunJournal>) -> Self {
        self.journal = journal;
        self
    }

    /// The attached journal, if any.
    #[must_use]
    pub fn journal_ref(&self) -> Option<&'a RunJournal> {
        self.journal
    }
}

/// How a scenario's report was obtained (or why it is absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportSource {
    /// Simulated fresh in this run.
    Simulated,
    /// Replayed from the content-addressed result cache.
    Cache,
    /// Settled from a prior interrupted run's journal store.
    Resumed,
    /// No report: the scenario did not finish.
    None,
}

/// The terminal record for one scenario of a hardened run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Position in the submitted batch.
    pub index: usize,
    /// The scenario's display label.
    pub label: String,
    /// The scenario's content hash (32 hex digits).
    pub hash: String,
    /// Terminal state.
    pub state: ScenarioState,
    /// Attempts consumed (0 when settled without simulating).
    pub attempts: u32,
    /// Where the report came from.
    pub source: ReportSource,
    /// The report, when `state` is [`ScenarioState::Done`].
    pub report: Option<SimReport>,
    /// The terminal failure, when the scenario did not finish.
    pub failure: Option<ScenarioFailure>,
}

/// Per-state tallies of a [`RunOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateCounts {
    /// Scenarios with a report.
    pub done: usize,
    /// Scenarios terminally failed (run stopped mid-flight).
    pub failed: usize,
    /// Scenarios quarantined after exhausting attempts.
    pub quarantined: usize,
    /// Scenarios never scheduled before the run stopped.
    pub pending: usize,
}

/// Everything a hardened batch execution produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// One outcome per scenario, in submission order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Whether the run stopped early (fail-fast or an emulated kill).
    pub aborted: bool,
}

impl RunOutcome {
    /// Per-state tallies.
    #[must_use]
    pub fn counts(&self) -> StateCounts {
        let mut counts = StateCounts::default();
        for outcome in &self.outcomes {
            match outcome.state {
                ScenarioState::Done => counts.done += 1,
                ScenarioState::Quarantined => counts.quarantined += 1,
                ScenarioState::Pending => counts.pending += 1,
                ScenarioState::Failed | ScenarioState::Running => counts.failed += 1,
            }
        }
        counts
    }

    /// Whether every scenario produced a report.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.outcomes.iter().all(|o| o.state == ScenarioState::Done)
    }

    /// The reports in submission order, if every scenario finished.
    #[must_use]
    pub fn reports(&self) -> Option<Vec<SimReport>> {
        self.outcomes.iter().map(|o| o.report.clone()).collect()
    }

    /// The reports in submission order, panicking on the first
    /// failure — the historical contract of the pre-redesign
    /// `FleetEngine::run`, now an explicit opt-in at the call site.
    ///
    /// # Panics
    ///
    /// Re-raises the first non-`Done` scenario's failure with the same
    /// payload [`heb_core::Scenario::run_expect`] would raise serially:
    /// a worker panic's message verbatim, a typed error as
    /// `scenario "label": message`.
    #[must_use]
    pub fn expect_reports(self) -> Vec<SimReport> {
        if let Some(reports) = self.reports() {
            return reports;
        }
        let mut payload = String::from("fleet run failed");
        for o in &self.outcomes {
            if o.state == ScenarioState::Done {
                continue;
            }
            payload = match &o.failure {
                // A worker panic's payload already carries the
                // `scenario "label": …` format from run_expect.
                Some(ScenarioFailure::Panic { message }) => message.clone(),
                Some(ScenarioFailure::Error { message }) => {
                    format!("scenario {:?}: {message}", o.label)
                }
                Some(failure) => format!("scenario {:?}: {failure}", o.label),
                None => format!("scenario {:?}: did not complete", o.label),
            };
            break;
        }
        // heb-analyze: allow(HEB003, documented re-raise preserving the historical reports-or-panic contract)
        std::panic::resume_unwind(Box::new(payload));
    }

    /// One-line per-state summary, e.g. `12 done, 1 quarantined`.
    #[must_use]
    pub fn summary(&self) -> String {
        let counts = self.counts();
        let mut parts = vec![format!("{} done", counts.done)];
        if counts.failed > 0 {
            parts.push(format!("{} failed", counts.failed));
        }
        if counts.quarantined > 0 {
            parts.push(format!("{} quarantined", counts.quarantined));
        }
        if counts.pending > 0 {
            parts.push(format!("{} pending", counts.pending));
        }
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_exponential() {
        let policy = HardenPolicy {
            max_retries: 3,
            backoff_base_ms: 10,
            ..HardenPolicy::default()
        };
        let hash = 0xdead_beef_cafe_f00d_u128;
        assert_eq!(policy.backoff_ms(hash, 1), policy.backoff_ms(hash, 1));
        for attempt in 1..=8 {
            let b = policy.backoff_ms(hash, attempt);
            let exponential = 10 * (1 << u64::from((attempt - 1).min(6)));
            assert!(
                (exponential..exponential + 10).contains(&b),
                "{attempt}: {b}"
            );
        }
        assert_ne!(
            policy.backoff_ms(hash, 1),
            policy.backoff_ms(hash ^ 1, 1),
            "different scenarios must not thunder in lockstep"
        );
        let silent = HardenPolicy::default();
        assert_eq!(silent.backoff_ms(hash, 1), 0, "base 0 disables sleeping");
    }

    #[test]
    fn state_names_round_trip() {
        for state in [
            ScenarioState::Pending,
            ScenarioState::Running,
            ScenarioState::Done,
            ScenarioState::Failed,
            ScenarioState::Quarantined,
        ] {
            assert_eq!(ScenarioState::parse(state.name()), Some(state));
        }
        assert_eq!(ScenarioState::parse("bogus"), None);
    }

    #[test]
    fn failure_display_names_the_class() {
        let cases: Vec<(ScenarioFailure, &str)> = vec![
            (
                ScenarioFailure::Panic {
                    message: "boom".into(),
                },
                "panic: boom",
            ),
            (ScenarioFailure::Timeout { limit_ms: 250 }, "timeout"),
            (
                ScenarioFailure::Injected {
                    site: "worker.panic".into(),
                },
                "injected",
            ),
            (ScenarioFailure::Aborted, "aborted"),
        ];
        for (failure, needle) in cases {
            assert!(failure.to_string().contains(needle));
            assert!(!failure.kind().is_empty());
        }
    }

    #[test]
    fn expect_reports_returns_reports_when_all_done() {
        let run = RunOutcome {
            outcomes: vec![],
            aborted: false,
        };
        assert!(run.expect_reports().is_empty());
    }

    #[test]
    fn expect_reports_re_raises_the_first_failure() {
        let outcome = |label: &str, failure| ScenarioOutcome {
            index: 0,
            label: label.into(),
            hash: "h".into(),
            state: ScenarioState::Quarantined,
            attempts: 1,
            source: ReportSource::None,
            report: None,
            failure: Some(failure),
        };
        let run = RunOutcome {
            outcomes: vec![
                outcome(
                    "h/first",
                    ScenarioFailure::Error {
                        message: "need at least one workload".into(),
                    },
                ),
                outcome("h/second", ScenarioFailure::Aborted),
            ],
            aborted: false,
        };
        let caught = std::panic::catch_unwind(move || run.expect_reports());
        let payload = caught.expect_err("must re-raise");
        let message = payload
            .downcast_ref::<String>()
            .expect("string payload")
            .clone();
        assert_eq!(message, "scenario \"h/first\": need at least one workload");
    }

    #[test]
    fn summary_counts_every_state() {
        let outcome = |state| ScenarioOutcome {
            index: 0,
            label: "l".into(),
            hash: "h".into(),
            state,
            attempts: 1,
            source: ReportSource::None,
            report: None,
            failure: None,
        };
        let run = RunOutcome {
            outcomes: vec![
                outcome(ScenarioState::Done),
                outcome(ScenarioState::Quarantined),
                outcome(ScenarioState::Pending),
                outcome(ScenarioState::Failed),
            ],
            aborted: true,
        };
        let counts = run.counts();
        assert_eq!((counts.done, counts.quarantined), (1, 1));
        assert_eq!((counts.failed, counts.pending), (1, 1));
        assert!(!run.all_done());
        assert!(run.reports().is_none());
        assert_eq!(run.summary(), "1 done, 1 failed, 1 quarantined, 1 pending");
    }
}
