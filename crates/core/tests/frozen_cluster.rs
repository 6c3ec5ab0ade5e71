//! Pins a steady run that freezes, thaws and freezes again.
//!
//! A steady valley holds every server at one level, so between
//! disturbances nothing about the cluster changes from tick to tick.
//! This suite drives such a valley through a meter spike, a meter
//! freeze, a brownout deep enough to shed servers and the restore that
//! follows, and asserts the final [`SimReport`], a digest of the full
//! JSONL trace and a digest of the meter's retained history against
//! constants recorded from the stepping engine. Both drivers are
//! pinned: the tick driver steps every tick, the event driver leaps
//! the quiet spans between the disturbances.

use heb_core::{
    ContentHasher, DriverMode, FaultSchedule, PolicyKind, Scenario, SimConfig, SimReport,
    Simulation,
};
use heb_telemetry::{Event, Recorder};
use heb_units::{Joules, Ratio, Watts};
use heb_workload::Archetype;
use std::sync::{Arc, Mutex};

/// Hashes every event as its JSONL line, in order.
#[derive(Debug)]
struct TraceDigest(Mutex<(ContentHasher, u64)>);

impl Recorder for TraceDigest {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event) {
        let mut line = String::new();
        event.write_json(&mut line);
        line.push('\n');
        if let Ok(mut state) = self.0.lock() {
            state.0.write_str(&line);
            state.1 += 1;
        }
    }
}

impl TraceDigest {
    fn digest(&self) -> String {
        self.0
            .lock()
            .map(|state| format!("{:032x}/{}", state.0.finish(), state.1))
            .unwrap_or_default()
    }
}

fn report_digest(report: &SimReport) -> String {
    let mut h = ContentHasher::new();
    h.write_str(&report.to_record());
    format!("{:032x}", h.finish())
}

/// Every retained meter reading as `(time bits, total bits)`, the
/// latest per-server channels and the metered peak-to-valley of every
/// closed slot, hashed in order.
fn meter_digest(sim: &Simulation) -> String {
    let mut h = ContentHasher::new();
    for slot in sim.slot_log() {
        h.write_u64(slot.actual_mismatch.get().to_bits());
        h.write_u64(slot.predicted_mismatch.get().to_bits());
    }
    for reading in sim.meter().history() {
        h.write_u64(reading.at.get().to_bits());
        h.write_u64(reading.total.get().to_bits());
    }
    for channel in sim.meter().channels() {
        h.write_u64(channel.get().to_bits());
    }
    format!("{:032x}/{}", h.finish(), sim.meter().len())
}

/// The disturbances, in time order: a 3× meter spike, a meter freeze,
/// a brownout to 5 % of the budget that outlasts the buffers and sheds
/// (the restore follows once the feed is back), and a relay stuck open
/// across two slot boundaries.
const SCHEDULE: &str = "meter-spike(3)@700~40; meter-freeze@1500~90; \
                        brownout(0.05)@2500~900; relay-open(2)@3100~1300";

/// The 6-server steady WordCount valley at a 2,000 W budget under
/// [`SCHEDULE`], run for 2 h in two calls so one ends mid-slot. The
/// meter is digested at the end of both calls: the first ends just
/// after the restore, with the brownout inside the retained window.
fn run(event: bool) -> (String, String, String) {
    let trace = Arc::new(TraceDigest(Mutex::new((ContentHasher::new(), 0))));
    let mut driver = Scenario::from_ticks(
        "frozen",
        SimConfig::prototype()
            .with_policy(PolicyKind::HebD)
            .with_budget(Watts::new(2000.0))
            .with_total_capacity(Joules::from_watt_hours(20.0)),
        &[Archetype::WordCount],
        0,
        42,
    )
    .with_steady_workload(Ratio::new_clamped(0.3))
    .with_faults(FaultSchedule::parse(SCHEDULE).expect("valid fault spec"))
    .with_recorder(trace.clone())
    .with_driver_mode(if event {
        DriverMode::Event
    } else {
        DriverMode::Tick
    })
    .build_driver()
    .expect("valid scenario");
    let _ = driver.run_ticks(3600 + 17);
    let thawed = meter_digest(driver.sim());
    let report = driver.run_ticks(3600 - 17);
    (
        report_digest(&report),
        trace.digest(),
        format!("{thawed} {}", meter_digest(driver.sim())),
    )
}

#[test]
fn tick_driver_thaw_is_pinned() {
    let (report, trace, meter) = run(false);
    assert_eq!(report, REPORT, "report moved");
    assert_eq!(trace, TICK_TRACE, "trace moved");
    assert_eq!(meter, METER, "meter history moved");
}

#[test]
fn event_driver_thaw_is_pinned() {
    let (report, trace, meter) = run(true);
    assert_eq!(report, REPORT, "report moved");
    assert_eq!(trace, EVENT_TRACE, "trace moved");
    assert_eq!(meter, METER, "meter history moved");
}

// Recorded from the engine that re-drives, re-meters and re-ticks every
// server on every stepped tick. The event run leaps 7 spans, so its
// trace holds 7 more lines.
const REPORT: &str = "f5f4d0094262b45e07e0e9f2df18920c";
const TICK_TRACE: &str = "069834e472abf53ae9ed7e5af081fc15/64";
const EVENT_TRACE: &str = "a9dfd7f5d9b016ff3623f8146b4f7e13/71";
const METER: &str = "2664480e2de67c475d44065dd3d52d0b/600 277bde5a56a8e2ea269ed5fedf7b871e/600";
