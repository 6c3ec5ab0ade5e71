//! Event-core parity at the fleet level: the redesigned `SimDriver`
//! must be invisible to every consumer of the seed tick loop.
//!
//! Three contracts, property-tested across seeds, workloads, and
//! worker counts (the event-versus-tick property also across steady
//! and bursty lanes, SoC presets, policies, multi-rack fleets, solar
//! and fault schedules, so that it compares real leaps with stepping):
//!
//! * the tick-compatibility adapter (`DriverMode::Tick`, the default)
//!   is byte-identical to the raw `Simulation::step` loop — reports
//!   *and* JSONL traces;
//! * event mode (`DriverMode::Event`) produces the same reports and
//!   the same trace apart from its purely-additive `driver.leaped`
//!   telemetry lines;
//! * content hashes are tick-transparent: every `ResultCache` entry
//!   minted before the event core existed replays verbatim for
//!   tick-mode scenarios, while event-mode scenarios address a
//!   distinct cache identity.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use heb_core::{DriverMode, FaultSchedule, PolicyKind, PowerMode, Scenario, SimConfig};
use heb_fleet::{FleetEngine, ReportSource, ResultCache, RunPolicy};
use heb_telemetry::{RecorderHandle, RingRecorder};
use heb_units::{Joules, Ratio, Watts};
use heb_workload::{Archetype, PowerTrace, SolarTraceBuilder};
use proptest::prelude::*;

/// Short horizon (15 simulated minutes) keeping the property cases
/// cheap while still crossing a slot boundary.
const HOURS: f64 = 0.25;

fn archetype_strategy() -> impl Strategy<Value = Archetype> {
    proptest::sample::select(Archetype::ALL.to_vec())
}

fn config() -> SimConfig {
    SimConfig::prototype().with_policy(PolicyKind::HebD)
}

/// The blackout + brownout storm a faulted case folds in, so the
/// comparison also covers the fault-handling paths.
fn storm() -> FaultSchedule {
    FaultSchedule::parse("blackout@120~90;brownout(0.85)@420~120").expect("fault spec")
}

/// One parity scenario on the HEB-D prototype rack.
fn scenario(label: &str, workload: Archetype, seed: u64, faulted: bool) -> Scenario {
    let scenario = Scenario::new(label, config(), &[workload], HOURS, seed);
    if faulted {
        scenario.with_faults(storm())
    } else {
        scenario
    }
}

/// One drawn case of the event-versus-tick property.
#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    workload: Archetype,
    /// A steady utilization for every server, or the bursty archetype.
    steady: Option<f64>,
    /// The SoC both pools start at.
    soc: f64,
    policy: PolicyKind,
    /// 1 and 6 fit one rack; 129 and 201 span three and four racks of
    /// `RACK_FANOUT` (64) servers.
    servers: usize,
    solar: bool,
    faulted: bool,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (
            0u64..10_000,
            archetype_strategy(),
            proptest::sample::select(vec![None, Some(0.1), Some(0.5), Some(0.9)]),
            proptest::sample::select(vec![1.0, 0.99, 0.6]),
        ),
        (
            proptest::sample::select(PolicyKind::ALL.to_vec()),
            proptest::sample::select(vec![1usize, 6, 129, 201]),
            proptest::sample::select(vec![false, true]),
            proptest::sample::select(vec![false, true]),
        ),
    )
        .prop_map(
            |((seed, workload, steady, soc), (policy, servers, solar, faulted))| Case {
                seed,
                workload,
                steady,
                soc,
                policy,
                servers,
                solar,
                faulted,
            },
        )
}

impl Case {
    /// Steady, full, utility-fed and fault-free: the event driver has
    /// quiet ticks to leap.
    fn quiet(&self) -> bool {
        self.steady.is_some() && self.soc == 1.0 && !self.solar && !self.faulted
    }

    /// The case's scenario. Budget and buffer scale with the rack: a
    /// steady rack gets 80 W a server, above the 70 W server peak, so
    /// its ticks are valleys; a bursty rack gets the prototype's 260 W
    /// per 6 servers and peaks past it. A solar case runs the late
    /// morning of a sunrise day.
    fn scenario(&self, label: &str) -> Scenario {
        let servers = self.servers as f64;
        let per_server = if self.steady.is_some() {
            80.0
        } else {
            260.0 / 6.0
        };
        let mut config = SimConfig::prototype()
            .with_policy(self.policy)
            .with_budget(Watts::new(per_server * servers))
            .with_total_capacity(Joules::from_watt_hours(25.0 * servers));
        config.servers = self.servers;
        let mut scenario = Scenario::new(label, config, &[self.workload], HOURS, self.seed)
            .with_initial_soc(Ratio::new_clamped(self.soc));
        if let Some(level) = self.steady {
            scenario = scenario.with_steady_workload(Ratio::new_clamped(level));
        }
        if self.solar {
            let day = SolarTraceBuilder::new(Watts::new(70.0 * servers))
                .seed(self.seed)
                .build();
            let morning = day.samples()[10 * 3600..11 * 3600].to_vec();
            scenario = scenario.with_mode(PowerMode::Solar(PowerTrace::new(morning, day.dt())));
        }
        if self.faulted {
            scenario = scenario.with_faults(storm());
        }
        scenario
    }
}

/// Trace lines with the event driver's additive leap telemetry
/// removed.
fn without_leaps(jsonl: &str) -> Vec<String> {
    jsonl
        .lines()
        .filter(|line| !line.contains("\"type\":\"driver.leaped\""))
        .map(str::to_string)
        .collect()
}

fn lines(jsonl: &str) -> Vec<String> {
    jsonl.lines().map(str::to_string).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tick_adapter_is_byte_identical_to_the_raw_step_loop(
        seed in 0u64..10_000,
        workload in archetype_strategy(),
        jobs in 1usize..5,
    ) {
        let ring = Arc::new(RingRecorder::new(8192));
        let traced = scenario("parity/adapter", workload, seed, false)
            .with_recorder(Arc::clone(&ring) as RecorderHandle);
        let ticks = traced.ticks();
        let reports = FleetEngine::new(jobs)
            .run(std::slice::from_ref(&traced), &RunPolicy::new())
            .expect_reports();

        // The seed's tick loop: a raw Simulation stepped by hand.
        let raw_ring = Arc::new(RingRecorder::new(8192));
        let mut sim = Scenario::new("parity/raw", config(), &[workload], HOURS, seed)
            .with_recorder(Arc::clone(&raw_ring) as RecorderHandle)
            .build()
            .expect("valid scenario");
        for _ in 0..ticks {
            sim.step();
        }
        prop_assert_eq!(&reports[0], &sim.snapshot());
        prop_assert_eq!(ring.to_jsonl(), raw_ring.to_jsonl());
    }

    #[test]
    fn event_mode_reports_and_traces_match_tick_mode(
        case in case_strategy(),
        jobs in 1usize..5,
    ) {
        let tick_ring = Arc::new(RingRecorder::new(8192));
        let event_ring = Arc::new(RingRecorder::new(8192));
        let tick = case
            .scenario("parity/mode")
            .with_recorder(Arc::clone(&tick_ring) as RecorderHandle);
        let event = case
            .scenario("parity/mode")
            .with_driver_mode(DriverMode::Event)
            .with_recorder(Arc::clone(&event_ring) as RecorderHandle);

        // Hash discipline: the default (tick) identity is exactly the
        // seed's; event mode addresses a distinct cache entry.
        prop_assert_eq!(
            tick.content_hash(),
            case.scenario("parity/mode").content_hash(),
            "recorder and the default driver mode must stay hash-blind"
        );
        prop_assert_ne!(event.content_hash(), tick.content_hash());

        let batch = vec![tick, event];
        let reports = FleetEngine::new(jobs)
            .run(&batch, &RunPolicy::new())
            .expect_reports();
        prop_assert_eq!(&reports[0], &reports[1], "event mode must match tick mode: {:?}", case);
        let event_jsonl = event_ring.to_jsonl();
        prop_assert_eq!(
            without_leaps(&event_jsonl),
            lines(&tick_ring.to_jsonl()),
            "leap telemetry must be purely additive: {:?}",
            case
        );
        prop_assert_eq!(event_ring.dropped(), 0);
        if case.quiet() {
            prop_assert!(
                event_jsonl.contains("\"type\":\"driver.leaped\""),
                "a quiet case must leap: {:?}",
                case
            );
        }
    }
}

/// The property asserts that every quiet case it draws leaps, but its
/// eight draws need not hold one at each fleet size: here one quiet
/// case per size, the policies taken in turn, must leap.
#[test]
fn quiet_cases_leap_at_every_fleet_size() {
    for (i, servers) in [1usize, 6, 129, 201].into_iter().enumerate() {
        let case = Case {
            seed: 5 + i as u64,
            workload: Archetype::WordCount,
            steady: Some(0.5),
            soc: 1.0,
            policy: PolicyKind::ALL[i % PolicyKind::ALL.len()],
            servers,
            solar: false,
            faulted: false,
        };
        assert!(case.quiet());
        let ring = Arc::new(RingRecorder::new(8192));
        let _ = case
            .scenario("parity/quiet")
            .with_driver_mode(DriverMode::Event)
            .with_recorder(Arc::clone(&ring) as RecorderHandle)
            .run()
            .expect("valid scenario");
        assert!(
            ring.to_jsonl().contains("\"type\":\"driver.leaped\""),
            "a quiet case must leap: {case:?}"
        );
    }
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("heb-fleet-parity-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

#[test]
fn tick_cache_entries_replay_while_event_mode_addresses_its_own() {
    let root = temp_root("cache");
    let batch: Vec<Scenario> = (0..3u64)
        .map(|i| {
            scenario(
                &format!("parity/cache/{i}"),
                Archetype::Terasort,
                31 + i,
                i == 1,
            )
        })
        .collect();

    // A seed-era engine fills the cache through the default path.
    let writer = FleetEngine::new(2).with_cache(ResultCache::new(&root));
    let first = writer.run(&batch, &RunPolicy::new());
    assert!(first
        .outcomes
        .iter()
        .all(|o| o.source == ReportSource::Simulated));

    // Explicit tick mode hashes identically, so a fresh engine replays
    // every scenario from the cache without simulating.
    let explicit: Vec<Scenario> = batch
        .iter()
        .map(|s| s.clone().with_driver_mode(DriverMode::Tick))
        .collect();
    for (legacy, tick) in batch.iter().zip(&explicit) {
        assert_eq!(legacy.content_hash(), tick.content_hash());
    }
    let warm = FleetEngine::new(2).with_cache(ResultCache::new(&root));
    let replayed = warm.run(&explicit, &RunPolicy::new());
    assert!(replayed
        .outcomes
        .iter()
        .all(|o| o.source == ReportSource::Cache));
    assert_eq!(replayed.reports(), first.reports());

    // Event mode misses the tick-era entries (distinct identity) but
    // computes the same physics.
    let event: Vec<Scenario> = batch
        .iter()
        .map(|s| s.clone().with_driver_mode(DriverMode::Event))
        .collect();
    let fresh = warm.run(&event, &RunPolicy::new());
    assert!(fresh
        .outcomes
        .iter()
        .all(|o| o.source == ReportSource::Simulated));
    assert_eq!(fresh.reports(), first.reports());

    let _ = fs::remove_dir_all(&root);
}
