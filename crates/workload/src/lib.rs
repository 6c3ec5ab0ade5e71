//! Workload and power-trace generation for the HEB simulator.
//!
//! The paper evaluates on eight HiBench/CloudSuite workloads (Table 1)
//! grouped into two *peak shapes* — small, narrow demand peaks and
//! large, wide ones — plus a Google cluster trace (Figure 1(a)) and a
//! rooftop solar array (Figure 12(d)). None of those are shippable in a
//! library, so this crate generates faithful synthetic equivalents:
//!
//! * [`Archetype`] — the eight named workloads as stochastic
//!   utilization processes (base load + Poisson bursts) whose burst
//!   height/width reproduce each group's peak shape;
//! * [`UtilizationGenerator`] — a seeded, reproducible per-server
//!   utilization stream for any archetype;
//! * [`UtilizationLanes`] — the same streams for a whole fleet as
//!   parallel arrays, stepped in one pass (the simulator's drive);
//! * [`PowerTrace`] — a fixed-interval power series with the statistics
//!   the evaluation needs (peaks, valleys, MPPU, mismatch segments);
//! * [`ClusterTraceBuilder`] — a heavy-tailed aggregate datacenter
//!   demand trace in the style of the Google trace behind Figure 1(a);
//! * [`SolarTraceBuilder`] — a diurnal solar generation trace with
//!   stochastic cloud transients for the renewable experiments.
//!
//! Everything is deterministic under a caller-supplied seed.
//!
//! # Examples
//!
//! ```
//! use heb_workload::{Archetype, PeakClass};
//!
//! let mut gen = Archetype::Terasort.generator(42);
//! let trace = gen.take_utilization(600);
//! assert_eq!(trace.len(), 600);
//! assert_eq!(Archetype::Terasort.peak_class(), PeakClass::Large);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod archetype;
mod cluster_trace;
mod generator;
mod io;
mod lanes;
mod solar;
mod stats;
mod trace;

pub use archetype::{Archetype, BurstProfile, PeakClass};
pub use cluster_trace::ClusterTraceBuilder;
pub use generator::UtilizationGenerator;
pub use io::{read_trace_csv, write_trace_csv, ParseTraceError};
pub use lanes::UtilizationLanes;
pub use solar::SolarTraceBuilder;
pub use stats::{autocorrelation, bursts, percentile, summarize, Burst, TraceSummary};
pub use trace::{MismatchSegment, PowerTrace, SegmentKind};
