//! # HEB — Hybrid Energy Buffers for datacenter efficiency and economy
//!
//! A full reproduction, as a Rust library, of *"HEB: Deploying and
//! Managing Hybrid Energy Buffers for Improving Datacenter Efficiency
//! and Economy"* (ISCA 2015): pooled lead-acid batteries and
//! super-capacitors behind a relay fabric, dispatched slot-by-slot by
//! the *hControl* power-management framework to absorb the power
//! mismatches of under-provisioned and renewable-powered datacenters.
//!
//! The original evaluation ran on a hardware prototype; this crate
//! bundles physics-faithful simulation substitutes for every piece of
//! that hardware (see `DESIGN.md`) and re-exports the whole stack:
//!
//! * [`units`] — typed physical quantities ([`Watts`], [`Joules`], …);
//! * [`esd`] — battery/super-capacitor device models
//!   ([`LeadAcidBattery`], [`SuperCapacitor`], [`Bank`]);
//! * [`powersys`] — servers, metering, relays, converters, feeds;
//! * [`workload`] — the Table 1 workload archetypes, cluster and solar
//!   trace generators;
//! * [`forecast`] — Holt-Winters and baseline predictors;
//! * [`core`] — the HEB controller, the six Table 2 policies, the
//!   power-allocation table, and the end-to-end [`Simulation`], built
//!   and run from a [`Scenario`];
//! * [`tco`] — the Figure 15 economics (cost breakdown, ROI,
//!   peak-shaving revenue);
//! * [`telemetry`] — typed trace events, zero-cost recorders
//!   ([`NullRecorder`], [`RingRecorder`], [`JsonlRecorder`]) and a
//!   [`Metrics`] registry for counters, gauges and phase timers.
//!
//! # Quickstart
//!
//! ```
//! use heb::{PolicyKind, Scenario, SimConfig};
//! use heb::workload::Archetype;
//!
//! // Simulate the scale-down prototype for half an hour under the
//! // dynamic HEB policy:
//! let config = SimConfig::prototype().with_policy(PolicyKind::HebD);
//! let report = Scenario::new("quickstart", config, &[Archetype::WebSearch], 0.5, 42)
//!     .run()
//!     .unwrap();
//! println!("buffer efficiency: {}", report.energy_efficiency());
//! assert!(report.energy_efficiency().get() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use heb_core as core;
pub use heb_esd as esd;
pub use heb_forecast as forecast;
pub use heb_powersys as powersys;
pub use heb_tco as tco;
pub use heb_telemetry as telemetry;
pub use heb_units as units;
pub use heb_workload as workload;

pub use heb_core::{
    experiments, ConfigError, FaultInjector, FaultKind, FaultLedger, FaultProfile, FaultSchedule,
    HebController, HybridBuffers, PolicyKind, PowerAllocationTable, PowerMode, Scenario, SimConfig,
    SimConfigBuilder, SimDriver, SimError, SimReport, Simulation, SlotPlan,
};
pub use heb_esd::{Bank, LeadAcidBattery, StorageDevice, SuperCapacitor};
pub use heb_telemetry::{
    null_recorder, JsonlRecorder, Metrics, NullRecorder, Recorder, RecorderHandle, RingRecorder,
};
pub use heb_units::{Joules, Ratio, Seconds, Watts};
