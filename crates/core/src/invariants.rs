//! Runtime invariant checks, compiled into every build with
//! `debug_assertions` (every `cargo test`, no release build).
//!
//! These are the physical-conservation properties every HEB figure
//! rests on, asserted *while the simulation runs* instead of only
//! post-hoc in tests:
//!
//! * **SoC bounds** — every pool and every member device stays inside
//!   its usable window, `soc ∈ [0, 1]` (to float tolerance).
//! * **Energy conservation** — cumulatively, discharge accounting
//!   satisfies `delivered + discharge_loss = drained`, and charge
//!   accounting satisfies `stored + charge_loss = drawn`.
//! * **Feed power-balance** — no tick draws more energy through the
//!   feed than the supply limit in force that tick allows.
//!
//! The hooks in [`crate::Simulation::step`] and the slot-boundary path
//! are themselves `#[cfg(debug_assertions)]`, so a release build
//! carries zero overhead — not even a branch — while every debug test
//! run checks them: each randomized fault storm of the chaos suites
//! (`crates/core/tests/proptest_faults.rs`) doubles as a conservation
//! audit.
//!
//! All checks use `assert!`, which is permitted in simulation library
//! code (heb-analyze HEB003 bans `unwrap`/`expect`/`panic!`, not
//! assertions): a violated invariant is a simulator bug, and aborting
//! the run beats silently producing a figure from unphysical state.

use crate::buffers::HybridBuffers;
use crate::metrics::SimReport;
use heb_esd::StorageDevice;
use heb_units::{Joules, Ratio, Seconds, Watts};

/// Absolute slack added to every tolerance, in the checked unit.
const ABS_TOL: f64 = 1e-6;

/// Relative slack: generous against ~1e-11 accumulated rounding over a
/// day of one-second ticks, tight against real accounting bugs.
const REL_TOL: f64 = 1e-6;

/// SoC slack: devices clamp to the usable window, so anything beyond a
/// hair outside `[0, 1]` is a model bug, not rounding.
const SOC_TOL: f64 = 1e-9;

fn close(actual: f64, expected: f64, scale: f64) -> bool {
    (actual - expected).abs() <= ABS_TOL + REL_TOL * scale.abs().max(1.0)
}

fn soc_in_unit_interval(soc: Ratio) -> bool {
    let s = soc.get();
    s.is_finite() && (-SOC_TOL..=1.0 + SOC_TOL).contains(&s)
}

/// Asserts both pools and every member device sit inside the usable
/// SoC window.
///
/// # Panics
///
/// Panics naming the offending pool or device when any state of charge
/// leaves `[0, 1]` (beyond float tolerance) or goes non-finite.
pub fn check_soc_bounds(buffers: &HybridBuffers) {
    if !buffers.sc_pool().is_empty() {
        let soc = StorageDevice::soc(buffers.sc_pool());
        assert!(
            soc_in_unit_interval(soc),
            "invariant violated: sc pool SoC {} outside [0, 1]",
            soc.get()
        );
        for (i, d) in buffers.sc_pool().devices().iter().enumerate() {
            let soc = d.soc();
            assert!(
                soc_in_unit_interval(soc),
                "invariant violated: sc device {i} SoC {} outside [0, 1]",
                soc.get()
            );
        }
    }
    if !buffers.ba_pool().is_empty() {
        let soc = StorageDevice::soc(buffers.ba_pool());
        assert!(
            soc_in_unit_interval(soc),
            "invariant violated: battery pool SoC {} outside [0, 1]",
            soc.get()
        );
        for (i, d) in buffers.ba_pool().devices().iter().enumerate() {
            let soc = d.soc();
            assert!(
                soc_in_unit_interval(soc),
                "invariant violated: battery device {i} SoC {} outside [0, 1]",
                soc.get()
            );
        }
    }
}

/// Asserts the cumulative charge/discharge ledgers conserve energy:
/// `delivered + discharge_loss = drained` and
/// `stored + charge_loss = drawn`, each within scaled tolerance.
///
/// # Panics
///
/// Panics with both sides of the violated balance.
pub fn check_energy_conservation(report: &SimReport) {
    let out = report.buffer_delivered.get() + report.discharge_loss.get();
    let drained = report.buffer_drained.get();
    assert!(
        close(out, drained, drained),
        "invariant violated: discharge ledger leaks energy \
         (delivered {} + loss {} != drained {drained})",
        report.buffer_delivered.get(),
        report.discharge_loss.get(),
    );
    let kept = report.charge_stored.get() + report.charge_loss.get();
    let drawn = report.charge_drawn.get();
    assert!(
        close(kept, drawn, drawn),
        "invariant violated: charge ledger leaks energy \
         (stored {} + loss {} != drawn {drawn})",
        report.charge_stored.get(),
        report.charge_loss.get(),
    );
}

/// Asserts one tick's feed draw respects the supply limit in force:
/// `supplied_delta <= raw_limit · dt` within tolerance.
///
/// `supplied_delta` is the growth of
/// `utility.energy_supplied() + renewable.energy_used()` across the
/// tick; `raw_limit` is the effective budget (utility) or available
/// generation (solar) the tick was planned against.
///
/// # Panics
///
/// Panics with the drawn energy and the limit when the feed
/// over-draws.
pub fn check_feed_balance(supplied_delta: Joules, raw_limit: Watts, dt: Seconds) {
    let cap = raw_limit.get() * dt.get();
    assert!(
        supplied_delta.get() <= cap + ABS_TOL + REL_TOL * cap.abs().max(1.0),
        "invariant violated: feed drew {} J in one tick against a {cap} J limit",
        supplied_delta.get(),
    );
}

/// Full-report audit: energy conservation plus finiteness and
/// non-negativity of every energy ledger — the entry point the chaos
/// suites call on each completed run.
///
/// # Panics
///
/// Panics on the first violated property.
pub fn check_report(report: &SimReport) {
    check_energy_conservation(report);
    for (value, name) in [
        (report.buffer_delivered, "buffer_delivered"),
        (report.buffer_drained, "buffer_drained"),
        (report.discharge_loss, "discharge_loss"),
        (report.charge_drawn, "charge_drawn"),
        (report.charge_stored, "charge_stored"),
        (report.charge_loss, "charge_loss"),
        (report.unserved_energy, "unserved_energy"),
        (report.restart_waste, "restart_waste"),
    ] {
        assert!(
            value.get().is_finite() && value.get() >= -ABS_TOL,
            "invariant violated: {name} = {} (must be finite and non-negative)",
            value.get()
        );
    }
    assert!(
        report.conversion_loss.get().is_finite(),
        "invariant violated: conversion_loss = {} (must be finite)",
        report.conversion_loss.get()
    );
    assert!(
        report.sim_time.get().is_finite() && report.sim_time.get() >= 0.0,
        "invariant violated: sim_time = {}",
        report.sim_time.get()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_passes() {
        let r = SimReport {
            buffer_delivered: Joules::new(90.0),
            discharge_loss: Joules::new(10.0),
            buffer_drained: Joules::new(100.0),
            charge_drawn: Joules::new(50.0),
            charge_stored: Joules::new(45.0),
            charge_loss: Joules::new(5.0),
            ..SimReport::default()
        };
        check_report(&r);
    }

    #[test]
    #[should_panic(expected = "discharge ledger leaks energy")]
    fn leaking_discharge_ledger_panics() {
        let r = SimReport {
            buffer_delivered: Joules::new(90.0),
            discharge_loss: Joules::new(10.0),
            buffer_drained: Joules::new(150.0),
            ..SimReport::default()
        };
        check_energy_conservation(&r);
    }

    #[test]
    #[should_panic(expected = "charge ledger leaks energy")]
    fn leaking_charge_ledger_panics() {
        let r = SimReport {
            charge_drawn: Joules::new(50.0),
            charge_stored: Joules::new(10.0),
            charge_loss: Joules::new(5.0),
            ..SimReport::default()
        };
        check_energy_conservation(&r);
    }

    #[test]
    #[should_panic(expected = "feed drew")]
    fn overdrawn_feed_panics() {
        check_feed_balance(Joules::new(301.0), Watts::new(300.0), Seconds::new(1.0));
    }

    #[test]
    fn feed_at_limit_passes() {
        check_feed_balance(Joules::new(300.0), Watts::new(300.0), Seconds::new(1.0));
    }

    #[test]
    fn pool_soc_bounds_hold_on_fresh_buffers() {
        let buffers = HybridBuffers::build(
            Joules::from_watt_hours(150.0),
            Ratio::new_clamped(0.3),
            Ratio::new_clamped(0.8),
        );
        check_soc_bounds(&buffers);
    }

    #[test]
    #[should_panic(expected = "invariant violated")]
    fn nan_energy_panics() {
        let r = SimReport {
            unserved_energy: Joules::new(f64::NAN),
            ..SimReport::default()
        };
        check_report(&r);
    }
}
