//! Ready-made drivers for the paper's evaluation (Figures 3–14).
//!
//! Each submodule reproduces one experiment end-to-end and returns a
//! structured result; the `heb-bench` binaries print them as the
//! paper's tables/series and the integration tests assert the paper's
//! qualitative findings on them.
//!
//! A scenario-based experiment exports two functions: its
//! `*_scenarios` batch builder, and one function whose first argument
//! is the [`ScenarioRunner`](crate::ScenarioRunner) that runs that
//! batch — pass [`SerialRunner`](crate::SerialRunner) for a serial run,
//! or the fleet engine to parallelise and cache it.

mod architecture;
mod assignment;
mod capacity;
mod chemistry;
mod deployment;
mod discharge;
mod efficiency;
mod faults;
mod megafleet;
mod outage;
mod prediction;
mod schemes;
mod sharing;
mod valley;

use std::sync::{Arc, Mutex, PoisonError, Weak};

use heb_units::{Seconds, Watts};
use heb_workload::{Archetype, PowerTrace, SolarTraceBuilder};

pub use architecture::{architecture_comparison, architecture_scenarios, ArchitecturePoint};
pub use assignment::{assignment_sweep, AssignmentPoint};
pub use capacity::{
    capacity_growth_scenarios, capacity_growth_sweep, capacity_ratio_scenarios,
    capacity_ratio_sweep, CapacityPoint,
};
pub use chemistry::{chemistry_comparison, ChemistryPoint, DutyCycle};
pub use deployment::{deployment_comparison, deployment_scenarios, DeploymentResult};
pub use discharge::{discharge_curves, DischargeCurve};
pub use efficiency::{efficiency_characterization, EfficiencyResult};
pub use faults::{fault_intensity_sweep, fault_sweep_scenarios, FaultSweepPoint};
pub use megafleet::{megafleet_config, megafleet_scenario, MEGAFLEET_SCALES};
pub use outage::{outage_ride_through, outage_scenarios, OutagePoint};
pub use prediction::{predictor_comparison, PredictionPoint};
pub use schemes::{
    scheme_comparison, scheme_comparison_scenarios, SchemeResult, WorkloadGroupResult,
};
pub use sharing::{sharing_comparison, SharingResult};
pub use valley::{deep_valley_absorption, valley_scenarios, ValleyPoint};

/// The mixed rack of six archetypes — both peak classes represented —
/// that the architecture, capacity and solar (REU) runs share.
pub(crate) const MIXED_RACK: [Archetype; 6] = [
    Archetype::WebSearch,
    Archetype::Terasort,
    Archetype::PageRank,
    Archetype::Dfsioe,
    Archetype::MediaStreaming,
    Archetype::Hivebench,
];

/// A one-day 500 W solar trace rotated to start at sunrise, so short
/// solar runs see generation immediately.
///
/// Each seed's day is synthesised once per process and shared: the
/// memo holds only weak handles to the sample allocations, so a call
/// returns the day that a live scenario (or any other clone) still
/// holds, and once the last holder drops the day is freed and the next
/// call synthesises it afresh, bit for bit the same.
pub(crate) fn sunrise_solar(seed: u64) -> PowerTrace {
    /// One weak handle per seed whose day was synthesised; a `Vec`,
    /// since it holds as many entries as seeds in use (HEB002).
    static DAYS: Mutex<Vec<(u64, Weak<[Watts]>)>> = Mutex::new(Vec::new());
    // A panic elsewhere while the lock was held cannot leave a torn
    // entry behind: every entry is pushed whole.
    let mut days = DAYS.lock().unwrap_or_else(PoisonError::into_inner);
    days.retain(|(_, day)| day.strong_count() > 0);
    if let Some(samples) = days
        .iter()
        .find(|(key, _)| *key == seed)
        .and_then(|(_, day)| day.upgrade())
    {
        return PowerTrace::from_shared(samples, SOLAR_DT);
    }
    let trace = SolarTraceBuilder::new(Watts::new(500.0))
        .seed(seed)
        .days(1.0)
        .clouds_per_day(80.0)
        .mean_cloud_secs(360.0)
        .dt(SOLAR_DT)
        .build();
    let sunrise_tick = 6 * 3600;
    let samples = trace.samples();
    let rotated: Arc<[Watts]> = samples[sunrise_tick..]
        .iter()
        .chain(&samples[..sunrise_tick])
        .copied()
        .collect();
    days.push((seed, Arc::downgrade(&rotated)));
    PowerTrace::from_shared(rotated, SOLAR_DT)
}

/// The sunrise day's sampling interval: one second.
const SOLAR_DT: Seconds = Seconds::new(1.0);

/// Pulls the next report off a runner's output while assembling an
/// experiment result.
///
/// Every assembler pairs a `*_scenarios()` list with the reports from
/// running exactly that list, so with a conforming
/// [`crate::ScenarioRunner`] the iterator cannot run dry; a short batch
/// is a broken runner contract and unrecoverable here.
///
/// # Panics
///
/// Panics when the runner returned fewer reports than scenarios.
pub(crate) fn take_report(
    reports: &mut impl Iterator<Item = crate::SimReport>,
    what: &str,
) -> crate::SimReport {
    reports
        .next()
        // heb-analyze: allow(HEB003, runner contract: one report per scenario; centralised so each assembler carries no panic site)
        .unwrap_or_else(|| panic!("runner returned too few reports: missing {what}"))
}
