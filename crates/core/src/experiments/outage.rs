//! Utility-outage ride-through: the original UPS duty.
//!
//! HEB repurposes backup energy storage for mismatch management, but
//! the buffers remain the rack's blackout insurance ("an additional
//! layer of safety in the event of unexpected power mismatches"). This
//! experiment cuts the feed entirely for a window and measures how long
//! each buffer configuration keeps the rack alive — the worst-case
//! emergency the paper's equal-total-capacity fairness rule is designed
//! around.

use crate::config::SimConfig;
use crate::event::SimClock;
use crate::policy::PolicyKind;
use crate::scenario::{Scenario, ScenarioRunner};
use crate::sim::PowerMode;
use heb_units::{Seconds, Watts};
use heb_workload::{Archetype, PowerTrace};

/// One scheme's blackout performance.
#[derive(Debug, Clone, PartialEq)]
pub struct OutagePoint {
    /// The scheme.
    pub policy: PolicyKind,
    /// Server-seconds of downtime accumulated during the outage window.
    pub downtime: Seconds,
    /// Time until the *first* server was shed (full window if none).
    pub survival: Seconds,
}

/// The outage experiment as a scenario batch: per scheme, the full
/// warmup-plus-outage run followed by a warmup-only run. The
/// warmup-only run is a bit-identical prefix of the full run
/// (determinism), so subtracting its downtime isolates the outage
/// window without stepping the simulation by hand.
#[must_use]
pub fn outage_scenarios(
    base: &SimConfig,
    warmup_minutes: f64,
    outage_minutes: f64,
    seed: u64,
) -> Vec<Scenario> {
    let warmup_ticks = (warmup_minutes * 60.0).round() as u64;
    let outage_ticks = (outage_minutes * 60.0).round() as u64;
    let mut samples = vec![base.budget; warmup_ticks as usize];
    samples.extend(vec![Watts::zero(); outage_ticks as usize]);
    let trace = PowerTrace::new(samples, base.tick);
    let mix = [Archetype::WebSearch, Archetype::MediaStreaming];

    let mut batch = Vec::with_capacity(PolicyKind::ALL.len() * 2);
    for &policy in &PolicyKind::ALL {
        let full = Scenario::from_ticks(
            format!("outage/{}/full", policy.name()),
            base.clone().with_policy(policy),
            &mix,
            warmup_ticks + outage_ticks,
            seed,
        )
        .with_mode(PowerMode::Solar(trace.clone()));
        let warmup = full
            .clone()
            .relabeled(format!("outage/{}/warmup", policy.name()))
            .with_ticks(warmup_ticks);
        batch.push(full);
        batch.push(warmup);
    }
    batch
}

/// Simulates a total feed outage of `outage_minutes`, preceded by
/// `warmup_minutes` of normal budgeted operation, for every scheme.
///
/// `runner` executes the batch; every runner returns the same bits.
#[must_use]
pub fn outage_ride_through(
    runner: &dyn ScenarioRunner,
    base: &SimConfig,
    warmup_minutes: f64,
    outage_minutes: f64,
    seed: u64,
) -> Vec<OutagePoint> {
    let warmup_ticks = (warmup_minutes * 60.0).round() as u64;
    let dt = base.tick.get();
    let warmup_end = SimClock::new(base.tick).time_at(warmup_ticks);
    let batch = outage_scenarios(base, warmup_minutes, outage_minutes, seed);
    let mut reports = runner.run_batch(&batch).into_iter();
    PolicyKind::ALL
        .iter()
        .map(|&policy| {
            let full = super::take_report(&mut reports, "full-run report");
            let warmup = super::take_report(&mut reports, "warmup-run report");
            // Survival is the outage tick of the first shed at or past
            // the cut, in the original tick-count-as-seconds units.
            let survival = full
                .first_shed_at_or_after(warmup_end)
                .map_or(Seconds::new(outage_minutes * 60.0), |at| {
                    Seconds::new(((at.get() / dt).round() - warmup_ticks as f64).max(0.0))
                });
            OutagePoint {
                policy,
                downtime: full.server_downtime - warmup.server_downtime,
                survival,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SerialRunner;

    fn run() -> Vec<OutagePoint> {
        outage_ride_through(&SerialRunner, &SimConfig::prototype(), 5.0, 30.0, 13)
    }

    #[test]
    fn covers_all_schemes() {
        let points = run();
        assert_eq!(points.len(), 6);
    }

    #[test]
    fn full_buffers_ride_through_several_minutes() {
        // 150 Wh against a ~230 W idle-ish rack is well over 30 minutes
        // of ride-through; every scheme must survive meaningfully.
        for p in run() {
            assert!(
                p.survival.as_minutes() >= 5.0,
                "{} survived only {:.1} min",
                p.policy,
                p.survival.as_minutes()
            );
        }
    }

    #[test]
    fn tiny_buffers_fail_fast() {
        let base =
            SimConfig::prototype().with_total_capacity(heb_units::Joules::from_watt_hours(10.0));
        let points = outage_ride_through(&SerialRunner, &base, 2.0, 30.0, 13);
        for p in points {
            assert!(
                p.survival.as_minutes() < 15.0,
                "{} should not survive a blackout on 10 Wh",
                p.policy
            );
            assert!(p.downtime.get() > 0.0);
        }
    }

    #[test]
    fn survival_grows_with_capacity() {
        let small =
            SimConfig::prototype().with_total_capacity(heb_units::Joules::from_watt_hours(30.0));
        let large =
            SimConfig::prototype().with_total_capacity(heb_units::Joules::from_watt_hours(120.0));
        let s = outage_ride_through(&SerialRunner, &small, 2.0, 40.0, 3);
        let l = outage_ride_through(&SerialRunner, &large, 2.0, 40.0, 3);
        for (a, b) in s.iter().zip(&l) {
            assert!(
                b.survival >= a.survival,
                "{}: {:.0}s on 120Wh vs {:.0}s on 30Wh",
                a.policy,
                b.survival.get(),
                a.survival.get()
            );
        }
    }
}
