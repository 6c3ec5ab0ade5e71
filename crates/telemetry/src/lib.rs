//! Zero-cost observability for the HEB simulator.
//!
//! Three pieces:
//!
//! * **Events** ([`Event`] and friends) — typed descriptions of every
//!   observable state change: controller slot plans and PAT updates,
//!   per-pool ESD state, power-delivery transitions, fault edges.
//!   Each has a canonical, deterministic one-line JSON encoding.
//! * **Recorders** ([`Recorder`]) — pluggable sinks. The default
//!   [`NullRecorder`] reports `is_enabled() == false`, so call sites
//!   never construct events and the layer costs one cached bool per
//!   instrumented scope. [`RingRecorder`] keeps a bounded in-memory
//!   tail, [`JsonlRecorder`] streams to disk, [`MetricsRecorder`]
//!   counts per event type, and [`TeeRecorder`] fans out.
//! * **Metrics** ([`Metrics`]) — name-keyed counters, gauges, and
//!   histograms with a deterministic [`Snapshot`] export and
//!   [`ScopedTimer`] wall-clock phase timers.
//!
//! The overhead contract — instrumented code with a `NullRecorder`
//! stays within noise of uninstrumented code — is enforced by the
//! telemetry-overhead guard of the engine microbench
//! (`microbench -- --guard PATH`, wired into `scripts/verify.sh`),
//! plus a deterministic test proving `record()` is never reached when
//! recording is disabled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod metrics;
mod recorder;

pub use event::{
    json_field, ControllerEvent, DriverEvent, EsdEvent, Event, FaultEvent, FleetEvent, PoolId,
    PowerEvent, ServeEvent,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, Metrics, ScopedTimer, Snapshot};
pub use recorder::{
    null_recorder, JsonlRecorder, MetricsRecorder, NullRecorder, Recorder, RecorderHandle,
    RingRecorder, TeeRecorder,
};
