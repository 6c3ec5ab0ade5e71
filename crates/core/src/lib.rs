//! HEB — hybrid energy buffering for datacenter power-mismatch
//! management.
//!
//! This crate is the paper's primary contribution (Sections 4–5): the
//! *hControl* controller that pools lead-acid batteries and
//! super-capacitors behind a relay fabric and dynamically decides, slot
//! by slot, which fraction of server load each buffer carries.
//!
//! The moving parts:
//!
//! * [`HybridBuffers`] — the SC pool + battery pool, sized to a total
//!   usable capacity and an SC:battery ratio (3:7 by default, as in the
//!   prototype);
//! * [`PowerAllocationTable`] — the PAT of Figure 10: a coarse-grained
//!   lookup from (SC level, battery level, predicted mismatch) to the
//!   load-assignment ratio `R_λ`, with nearest-entry *similar* search
//!   and the `Δr` self-optimisation update;
//! * [`PolicyKind`] — the six power-management schemes of Table 2
//!   (`BaOnly`, `BaFirst`, `SCFirst`, `HEB-F`, `HEB-S`, `HEB-D`);
//! * [`HebController`] — slot-level decision making: Holt-Winters
//!   peak/valley prediction, small/large peak classification, PAT
//!   lookup and update;
//! * [`Simulation`] — the engine state tying cluster, feeds, relays,
//!   buffers, and controller together at 1-second tick resolution,
//!   built only from a [`Scenario`];
//! * [`SimDriver`] — the driver core ([`event`]) that advances a
//!   simulation: [`DriverMode::Tick`] reproduces the seed tick loop
//!   bit-for-bit, [`DriverMode::Event`] runs the leap loop, which
//!   fast-forwards provably-quiet spans for valley-heavy traces without
//!   changing a single reported bit;
//! * [`SimReport`] — the paper's four metrics: energy efficiency,
//!   server downtime, battery lifetime, and renewable-energy
//!   utilisation;
//! * [`Scenario`] — a content-addressed, self-contained run
//!   description (config + workloads + mode + faults + horizon + seed)
//!   with a stable 128-bit hash and the one way to build a
//!   [`Simulation`] or a [`SimDriver`]; executed serially by
//!   [`SerialRunner`] or in parallel (with result caching) by the
//!   `heb-fleet` engine;
//! * [`experiments`] — ready-made drivers for every figure of the
//!   evaluation (used by the `heb-bench` binaries, the examples, and
//!   the integration tests); each sweep exposes a scenario-batch
//!   builder so the fleet engine can run it.
//!
//! # Examples
//!
//! ```
//! use heb_core::{PolicyKind, Scenario, SimConfig};
//! use heb_workload::Archetype;
//!
//! // Twelve simulated minutes of Terasort under the dynamic HEB policy:
//! let config = SimConfig::prototype().with_policy(PolicyKind::HebD);
//! let report = Scenario::new("doc/ts", config, &[Archetype::Terasort], 0.2, 42)
//!     .run()
//!     .unwrap();
//! assert!(report.energy_efficiency().get() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffers;
mod config;
mod controller;
mod errors;
pub mod event;
pub mod experiments;
mod faults;
#[cfg(debug_assertions)]
pub mod invariants;
mod metrics;
mod pat;
mod policy;
pub mod query;
mod scenario;
mod sim;

pub use buffers::HybridBuffers;
pub use config::{ConfigError, SimConfig, SimConfigBuilder, MAX_TICKS_PER_SLOT};
pub use controller::{HebController, SlotPlan};
pub use errors::SimError;
pub use event::{DriverMode, SimClock, SimDriver};
pub use faults::{
    FaultEvent, FaultInjector, FaultKind, FaultLedger, FaultProfile, FaultSchedule, FaultSpecError,
    FaultTransition,
};
pub use metrics::SimReport;
pub use pat::{PatEntry, PatKey, PowerAllocationTable};
pub use policy::{ChargePriority, DischargePriority, PeakSize, PolicyKind};
pub use query::{demand_trace, scenario_mppu, QueryError, WhatIfQuery};
pub use scenario::{ticks_for, ContentHasher, Scenario, ScenarioRunner, SerialRunner};
pub use sim::{PowerMode, Simulation, SlotRecord};
