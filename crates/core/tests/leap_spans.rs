//! Pins where the event driver leaps.
//!
//! `event_parity` proves event-mode reports equal tick-mode reports,
//! but it filters `driver.leaped` lines out before comparing, so a
//! change to *which* spans are leaped passes it silently. This suite
//! records the exact `(start time, ticks)` sequence of every leap and
//! a digest of the final [`SimReport`] for a few fixed event-mode runs
//! and asserts both against constants recorded from the driver.

use heb_core::experiments::megafleet_scenario;
use heb_core::{
    ContentHasher, DriverMode, FaultSchedule, PolicyKind, Scenario, SimConfig, SimReport,
};
use heb_telemetry::{DriverEvent, Event, Recorder};
use heb_units::{Ratio, Watts};
use heb_workload::Archetype;
use std::sync::{Arc, Mutex};

/// Keeps only the leaps, as `(start time in seconds, ticks)`.
#[derive(Debug, Default)]
struct LeapLog(Mutex<Vec<(f64, u64)>>);

impl Recorder for LeapLog {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        if let Event::Driver(DriverEvent::Leaped { time, ticks }) = event {
            if let Ok(mut leaps) = self.0.lock() {
                leaps.push((time.get(), *ticks));
            }
        }
    }
}

impl LeapLog {
    fn leaps(&self) -> Vec<(f64, u64)> {
        self.0.lock().map(|l| l.clone()).unwrap_or_default()
    }
}

fn report_digest(report: &SimReport) -> String {
    let mut h = ContentHasher::new();
    h.write_str(&report.to_record());
    format!("{:032x}", h.finish())
}

/// The steady WordCount valley at a 2,000 W budget, run in two calls
/// (3 h + 17 ticks, then 1,234 more) so one call ends mid-slot.
fn valley_run(faults: Option<&str>) -> (Vec<(f64, u64)>, String) {
    let log = Arc::new(LeapLog::default());
    let mut scenario = Scenario::from_ticks(
        "valley",
        SimConfig::prototype()
            .with_policy(PolicyKind::HebD)
            .with_budget(Watts::new(2000.0)),
        &[Archetype::WordCount],
        0,
        42,
    )
    .with_steady_workload(Ratio::new_clamped(0.3))
    .with_recorder(log.clone())
    .with_driver_mode(DriverMode::Event);
    if let Some(spec) = faults {
        scenario = scenario.with_faults(FaultSchedule::parse(spec).expect("valid fault spec"));
    }
    let mut driver = scenario.build_driver().expect("valid scenario");
    let _ = driver.run_ticks(3 * 3600 + 17);
    let report = driver.run_ticks(1234);
    (log.leaps(), report_digest(&report))
}

fn assert_pinned(got: &(Vec<(f64, u64)>, String), leaps: &[(f64, u64)], digest: &str) {
    assert_eq!(got.0, leaps, "leap spans moved");
    assert_eq!(got.1, digest, "report moved");
}

#[test]
fn steady_valley_leap_spans_are_pinned() {
    let got = valley_run(None);
    assert_pinned(&got, VALLEY_LEAPS, VALLEY_REPORT);
}

#[test]
fn fault_storm_leap_spans_are_pinned() {
    let got = valley_run(Some(
        "blackout@1800~600; brownout(0.9)@5000~300; ba-fail(0)@7000~900",
    ));
    assert_pinned(&got, STORM_LEAPS, STORM_REPORT);
}

#[test]
fn megafleet_leap_spans_are_pinned() {
    let log = Arc::new(LeapLog::default());
    let report = megafleet_scenario(1000, 6.0, 42)
        .with_recorder(log.clone())
        .run()
        .expect("megafleet scenario builds");
    let got = (log.leaps(), report_digest(&report));
    assert_pinned(&got, MEGAFLEET_LEAPS, MEGAFLEET_REPORT);
}

// Recorded from the driver: the valley leaps 12,031 of its 12,051 ticks
// in 22 spans, the storm 10,143 in 21, the megafleet day 355 of 360
// (one-minute ticks) in 6.
const VALLEY_LEAPS: &[(f64, u64)] = &[
    (0.0, 600),
    (601.0, 599),
    (1201.0, 599),
    (1801.0, 599),
    (2401.0, 599),
    (3001.0, 599),
    (3601.0, 599),
    (4201.0, 599),
    (4801.0, 599),
    (5401.0, 599),
    (6001.0, 599),
    (6601.0, 599),
    (7201.0, 599),
    (7801.0, 599),
    (8401.0, 599),
    (9001.0, 599),
    (9601.0, 599),
    (10201.0, 599),
    (10801.0, 16),
    (10817.0, 583),
    (11401.0, 599),
    (12001.0, 50),
];
const VALLEY_REPORT: &str = "0b7c5c08ba4f361a28217336f0bea70b";
const STORM_LEAPS: &[(f64, u64)] = &[
    (0.0, 600),
    (601.0, 599),
    (1201.0, 599),
    (2490.0, 510),
    (3001.0, 599),
    (3601.0, 599),
    (4201.0, 599),
    (4801.0, 199),
    (5301.0, 99),
    (5401.0, 599),
    (6001.0, 599),
    (6601.0, 399),
    (7901.0, 499),
    (8401.0, 599),
    (9001.0, 599),
    (9601.0, 599),
    (10201.0, 599),
    (10801.0, 16),
    (10817.0, 583),
    (11401.0, 599),
    (12001.0, 50),
];
const STORM_REPORT: &str = "c3ab3f7402f900341d4f379d6971ff36";
const MEGAFLEET_LEAPS: &[(f64, u64)] = &[
    (0.0, 60),
    (3660.0, 59),
    (7260.0, 59),
    (10860.0, 59),
    (14460.0, 59),
    (18060.0, 59),
];
const MEGAFLEET_REPORT: &str = "27e2688fe372d2f494d55413deb50859";
