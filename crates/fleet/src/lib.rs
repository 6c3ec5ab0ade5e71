//! heb-fleet — deterministically-parallel scenario engine with
//! content-addressed result caching.
//!
//! The simulation core (`heb-core`) defines [`heb_core::Scenario`]: a
//! self-contained, content-hashed description of one run. This crate
//! supplies the machinery that makes scenario *batches* cheap:
//!
//! * [`FleetEngine`] — a fixed worker pool executing a batch with
//!   results in submission order, bit-identical to serial execution at
//!   any `--jobs` level; its single entry point [`FleetEngine::run`]
//!   takes a [`RunPolicy`] (the journal) and returns a [`RunOutcome`];
//! * [`ResultCache`] — an on-disk store keyed by scenario content hash
//!   and engine version, so re-running an experiment whose inputs are
//!   unchanged performs zero simulations;
//! * [`replicate`] / [`MetricSummary`] — seed replication and
//!   distribution summaries (mean / p50 / p95 / min / max) across the
//!   replica set;
//! * the **heb-harden** execution-robustness layer (DESIGN §9) —
//!   per-scenario panic isolation with deterministic retry and
//!   quarantine ([`HardenPolicy`], [`RunOutcome`]), a crash-safe
//!   resumable run journal ([`RunJournal`]), graceful cache
//!   degradation ([`DegradableCache`]), and seeded failpoints for
//!   chaos testing ([`Failpoints`], attachable only under the
//!   `failpoints` feature).
//!
//! The `heb_fleet` binary drives every scenario-ised experiment of the
//! evaluation through this engine.
//!
//! # Examples
//!
//! ```
//! use heb_core::{Scenario, SimConfig};
//! use heb_fleet::{FleetEngine, RunPolicy};
//! use heb_workload::Archetype;
//!
//! let batch: Vec<Scenario> = (0..4)
//!     .map(|seed| {
//!         Scenario::new(
//!             format!("demo/{seed}"),
//!             SimConfig::prototype(),
//!             &[Archetype::WebSearch],
//!             0.02,
//!             seed,
//!         )
//!     })
//!     .collect();
//! let engine = FleetEngine::new(2);
//! let outcome = engine.run(&batch, &RunPolicy::new());
//! assert!(outcome.all_done());
//! assert_eq!(outcome.expect_reports().len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod cache;
mod degrade;
mod engine;
mod failpoint;
mod harden;
mod journal;

pub use aggregate::{replicate, MetricSummary};
pub use cache::{CacheReadError, ResultCache, ENGINE_VERSION};
pub use degrade::{CacheMode, DegradableCache, Degradation};
pub use engine::{EngineStats, FleetEngine};
pub use failpoint::{site, Failpoints};
pub use harden::{
    HardenPolicy, ReportSource, RunOutcome, RunPolicy, ScenarioFailure, ScenarioOutcome,
    ScenarioState, StateCounts,
};
pub use journal::{FsyncPolicy, RunJournal, MANIFEST_FILE};
