//! Figure 12(d) at event scale: deep-valley surplus absorption.
//!
//! The paper's renewable-utilisation argument is about *moments*: a
//! deep power valley (generation far above demand) lasts minutes, and
//! whatever the buffers cannot swallow in that window is curtailed
//! forever. A lead-acid pool is pinned at its charge-acceptance limit;
//! a super-capacitor pool takes the whole surplus. This experiment
//! measures REU over exactly one such window — drained buffers, steady
//! demand, a constant generation step above it — which is the regime
//! where the paper's ~81 % REU improvement lives. (The daily-integral
//! REU, also reported by the harness, shows the same ordering with a
//! smaller spread because direct use dominates the denominator.)

use crate::config::SimConfig;
use crate::policy::PolicyKind;
use crate::scenario::{Scenario, ScenarioRunner};
use crate::sim::PowerMode;
use heb_units::{Ratio, Watts};
use heb_workload::{Archetype, PowerTrace};

/// One scheme's REU over a single deep-valley window.
#[derive(Debug, Clone, PartialEq)]
pub struct ValleyPoint {
    /// The scheme.
    pub policy: PolicyKind,
    /// REU over the window.
    pub reu: Ratio,
    /// Energy stored into buffers during the window, in watt-hours.
    pub absorbed_wh: f64,
}

/// The deep-valley test as a scenario batch: one scenario per scheme,
/// in [`PolicyKind::ALL`] order.
#[must_use]
pub fn valley_scenarios(
    base: &SimConfig,
    surplus: Watts,
    minutes: f64,
    seed: u64,
) -> Vec<Scenario> {
    let ticks = (minutes * 60.0).round() as usize;
    // Generation sits `surplus` above the nominal budget; the steady
    // MediaStreaming rack draws just under the budget, so essentially
    // the whole `surplus` is up for absorption.
    let supply = base.budget + surplus;
    let trace = PowerTrace::new(vec![supply; ticks.max(1)], base.tick);
    PolicyKind::ALL
        .iter()
        .map(|&policy| {
            Scenario::from_ticks(
                format!("valley/{}", policy.name()),
                base.clone().with_policy(policy),
                &[Archetype::MediaStreaming],
                ticks as u64,
                seed,
            )
            .with_mode(PowerMode::Solar(trace.clone()))
            .with_initial_soc(Ratio::new_clamped(0.05))
        })
        .collect()
}

/// Runs the deep-valley absorption test for every scheme: buffers start
/// drained (5 % SoC), the rack runs a steady low-noise workload, and
/// generation holds `surplus` above the configured budget for
/// `minutes`.
///
/// `runner` executes the batch; every runner returns the same bits.
#[must_use]
pub fn deep_valley_absorption(
    runner: &dyn ScenarioRunner,
    base: &SimConfig,
    surplus: Watts,
    minutes: f64,
    seed: u64,
) -> Vec<ValleyPoint> {
    let batch = valley_scenarios(base, surplus, minutes, seed);
    PolicyKind::ALL
        .iter()
        .zip(runner.run_batch(&batch))
        .map(|(&policy, report)| ValleyPoint {
            policy,
            reu: report.reu(),
            absorbed_wh: report.charge_stored.as_watt_hours().get(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SerialRunner;

    fn run() -> Vec<ValleyPoint> {
        deep_valley_absorption(
            &SerialRunner,
            &SimConfig::prototype(),
            Watts::new(230.0),
            15.0,
            4,
        )
    }

    #[test]
    fn covers_all_schemes() {
        let points = run();
        assert_eq!(points.len(), 6);
        for p in &points {
            assert!(p.reu.get() > 0.0 && p.reu.get() <= 1.0);
        }
    }

    #[test]
    fn sc_schemes_absorb_far_more_than_battery_only() {
        let points = run();
        let reu = |p: PolicyKind| points.iter().find(|v| v.policy == p).unwrap().reu.get();
        let improvement =
            (reu(PolicyKind::HebD) - reu(PolicyKind::BaOnly)) / reu(PolicyKind::BaOnly);
        assert!(
            improvement > 0.3,
            "deep-valley REU improvement {improvement} too small (BaOnly {} vs HEB-D {})",
            reu(PolicyKind::BaOnly),
            reu(PolicyKind::HebD)
        );
    }

    #[test]
    fn absorbed_energy_ordering() {
        let points = run();
        let absorbed = |p: PolicyKind| points.iter().find(|v| v.policy == p).unwrap().absorbed_wh;
        assert!(absorbed(PolicyKind::ScFirst) > 2.0 * absorbed(PolicyKind::BaOnly));
        assert!(absorbed(PolicyKind::HebD) > 2.0 * absorbed(PolicyKind::BaOnly));
    }
}
