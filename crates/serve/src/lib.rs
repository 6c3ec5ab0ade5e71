//! `heb-serve` — the capacity-advisor service (DESIGN §10).
//!
//! A long-running HTTP server answering provisioning what-if queries
//! — workload mix × buffer sizing × tariff → MPPU, REU, TCO, and the
//! headline [`SimReport`] metrics — over the fleet engine:
//!
//! * Requests validate through `SimConfig::builder()` (the same gate
//!   as every other entry point) and lower to a [`Scenario`], whose
//!   content hash keys the shared [`ResultCache`]. Warm queries are
//!   pure cache reads.
//! * Cold queries dispatch to a bounded worker pool wrapping
//!   [`FleetEngine`] under a [`HardenPolicy`]
//!   (timeout/retry/quarantine), so a wedged or crashing simulation
//!   degrades one answer, never the server.
//! * Identical in-flight queries coalesce onto one simulation via a
//!   singleflight map.
//! * Answers are **deterministic**: a warm answer is byte-identical
//!   to the cold answer it replays. Anything nondeterministic —
//!   latencies, hit ratios, queue depths — lives in `/metrics`.
//!
//! Endpoints: `POST /query`, `GET /healthz`, `GET /metrics`,
//! `POST /shutdown` (graceful: stops accepting, drains in-flight
//! work, exits).
//!
//! [`SimReport`]: heb_core::SimReport
//! [`Scenario`]: heb_core::Scenario
//! [`ResultCache`]: heb_fleet::ResultCache
//! [`FleetEngine`]: heb_fleet::FleetEngine
//! [`HardenPolicy`]: heb_fleet::HardenPolicy

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod json;
mod server;
mod service;
mod singleflight;

pub use json::{Json, JsonError};
pub use server::{Server, ShutdownSignal, MAX_HANDLERS};
pub use service::{Advisor, AdvisorConfig, Answer};
pub use singleflight::{FlightRole, Singleflight};
