//! Scenarios: self-contained, content-addressed simulation runs.
//!
//! A [`Scenario`] captures *everything* a [`Simulation`] run depends on
//! — the [`SimConfig`], the workload mix, the power mode (utility
//! budget or a solar trace), the fault schedule, the initial buffer
//! state of charge, the horizon in ticks, and the RNG seed — so that
//! the run is a pure function of the scenario. That purity is what the
//! fleet engine (`heb-fleet`) builds on:
//!
//! * **determinism** — the same scenario yields a bit-identical
//!   [`SimReport`] no matter which worker thread executes it or in
//!   which order the batch is scheduled;
//! * **content addressing** — [`Scenario::content_hash`] folds every
//!   semantic field (but *not* the cosmetic label) into a stable
//!   128-bit FNV-1a digest, giving an on-disk cache key that changes
//!   exactly when the result could;
//! * **batching** — experiment drivers build `Vec<Scenario>` and hand
//!   them to any [`ScenarioRunner`]; the bundled [`SerialRunner`] runs
//!   them inline, while `heb_fleet::FleetEngine` runs them on a worker
//!   pool with a result cache.

use crate::config::SimConfig;
use crate::errors::SimError;
use crate::event::{DriverMode, SimDriver};
use crate::faults::{FaultKind, FaultSchedule};
use crate::metrics::SimReport;
use crate::sim::{PowerMode, Simulation};
use heb_powersys::DeliveryPath;
use heb_units::Ratio;
use heb_workload::Archetype;
use std::sync::OnceLock;

/// Streaming FNV-1a hasher over 128 bits — stable across runs,
/// platforms, and Rust versions (unlike `std::hash`, which is seeded
/// per process). Used to derive scenario cache keys.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u128,
}

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl ContentHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: FNV128_OFFSET,
        }
    }

    /// Folds one byte into the digest.
    pub fn write_byte(&mut self, byte: u8) {
        self.state ^= u128::from(byte);
        self.state = self.state.wrapping_mul(FNV128_PRIME);
    }

    /// Folds a byte slice into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_byte(b);
        }
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Folds a `usize` into the digest (widened to `u64` so 32- and
    /// 64-bit builds agree).
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// Folds an `f64` into the digest *by bit pattern*, so that any
    /// representable change — however small — changes the hash.
    pub fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// Folds a boolean into the digest.
    pub fn write_bool(&mut self, value: bool) {
        self.write_byte(u8::from(value));
    }

    /// Folds a length-prefixed string into the digest (the prefix keeps
    /// `"ab" + "c"` distinct from `"a" + "bc"`).
    pub fn write_str(&mut self, value: &str) {
        self.write_usize(value.len());
        self.write_bytes(value.as_bytes());
    }

    /// The 128-bit digest.
    #[must_use]
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// A complete, self-contained simulation run: configuration, workload
/// mix, power mode, faults, initial state, horizon, and seed.
///
/// # Examples
///
/// ```
/// use heb_core::{Scenario, SimConfig};
/// use heb_workload::Archetype;
///
/// let s = Scenario::new(
///     "quick/ws",
///     SimConfig::prototype(),
///     &[Archetype::WebSearch],
///     0.1,
///     7,
/// );
/// let report = s.run().unwrap();
/// assert!(report.sim_time.as_hours() > 0.09);
/// // Same scenario, same hash; the label is cosmetic.
/// assert_eq!(
///     s.content_hash(),
///     s.clone().relabeled("other").content_hash()
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    label: String,
    config: SimConfig,
    workloads: Vec<Archetype>,
    mode: PowerMode,
    faults: Option<FaultSchedule>,
    initial_soc: Option<Ratio>,
    /// When set, every server's workload stream is replaced by this
    /// constant, noiseless utilization (see
    /// [`Scenario::with_steady_workload`]) — the regime that lets the
    /// event driver leap across megafleet-scale quiet spans.
    steady: Option<Ratio>,
    ticks: u64,
    seed: u64,
    /// Telemetry sink installed on the built simulation. Observational
    /// only, so — like the label — it is excluded from
    /// [`Scenario::content_hash`].
    recorder: Option<heb_telemetry::RecorderHandle>,
    /// How the built [`SimDriver`] advances time. [`DriverMode::Tick`]
    /// (the default) reproduces the legacy fixed loop bit for bit and
    /// keeps the legacy content hash; [`DriverMode::Event`] folds a
    /// marker into the hash so event-mode results get their own cache
    /// entries.
    driver: DriverMode,
    /// [`Scenario::content_hash`], folded on first use. A solar
    /// scenario's digest covers every trace sample (a day is 86,400 of
    /// them), and the engine, cache and journal each ask for it, so it
    /// is folded once per scenario, not once per asker. Every setter of
    /// a hashed field clears it; clones carry it.
    hash: OnceLock<u128>,
}

impl Scenario {
    /// A utility-mode scenario spanning `hours` of simulated time, as
    /// [`ticks_for`] rounds it into metering ticks.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        config: SimConfig,
        workloads: &[Archetype],
        hours: f64,
        seed: u64,
    ) -> Self {
        let ticks = ticks_for(&config, hours);
        Self::from_ticks(label, config, workloads, ticks, seed)
    }

    /// A utility-mode scenario spanning an explicit number of metering
    /// ticks.
    #[must_use]
    pub fn from_ticks(
        label: impl Into<String>,
        config: SimConfig,
        workloads: &[Archetype],
        ticks: u64,
        seed: u64,
    ) -> Self {
        Self {
            label: label.into(),
            config,
            workloads: workloads.to_vec(),
            mode: PowerMode::Utility,
            faults: None,
            initial_soc: None,
            steady: None,
            ticks,
            seed,
            recorder: None,
            driver: DriverMode::Tick,
            hash: OnceLock::new(),
        }
    }

    /// Replaces the power mode (chainable).
    #[must_use]
    pub fn with_mode(mut self, mode: PowerMode) -> Self {
        self.mode = mode;
        self.hash.take();
        self
    }

    /// Installs a fault schedule (chainable).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = Some(faults);
        self.hash.take();
        self
    }

    /// Presets both buffer pools to `soc` before the run (chainable).
    #[must_use]
    pub fn with_initial_soc(mut self, soc: Ratio) -> Self {
        self.initial_soc = Some(soc);
        self.hash.take();
        self
    }

    /// Replaces every server's workload stream with a constant,
    /// noiseless utilization (chainable). The streams satisfy
    /// [`heb_workload::UtilizationLanes::is_steady`], so an event-mode
    /// driver can leap across the whole valley. Unlike the archetype
    /// mix the override is semantic — it changes the report — so it folds into
    /// [`Scenario::content_hash`]; scenarios without it keep their
    /// legacy hash verbatim.
    #[must_use]
    pub fn with_steady_workload(mut self, utilization: Ratio) -> Self {
        self.steady = Some(utilization);
        self.hash.take();
        self
    }

    /// Replaces the seed (chainable) — the Monte-Carlo replication
    /// knob.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.hash.take();
        self
    }

    /// Replaces the horizon in ticks (chainable).
    #[must_use]
    pub fn with_ticks(mut self, ticks: u64) -> Self {
        self.ticks = ticks;
        self.hash.take();
        self
    }

    /// Installs a telemetry recorder on the built simulation
    /// (chainable). Recorders are observational: like the label, they
    /// do **not** contribute to [`Scenario::content_hash`], so a
    /// traced run and an untraced run share a cache key.
    #[must_use]
    pub fn with_recorder(mut self, recorder: heb_telemetry::RecorderHandle) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Selects how the built driver advances time (chainable).
    ///
    /// Unlike the label and the recorder, the driver mode **does**
    /// contribute to [`Scenario::content_hash`] when it is
    /// [`DriverMode::Event`]: event-mode runs are verified bit-identical
    /// to tick mode, but giving them distinct cache keys means a cache
    /// populated before the event core existed can never be consulted
    /// for — or poisoned by — event-mode results. [`DriverMode::Tick`]
    /// folds nothing, preserving every pre-existing hash.
    #[must_use]
    pub fn with_driver_mode(mut self, driver: DriverMode) -> Self {
        self.driver = driver;
        self.hash.take();
        self
    }

    /// Replaces the display label (chainable). Labels are cosmetic:
    /// they do **not** contribute to [`Scenario::content_hash`].
    #[must_use]
    pub fn relabeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The display label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The workload mix.
    #[must_use]
    pub fn workloads(&self) -> &[Archetype] {
        &self.workloads
    }

    /// The power mode.
    #[must_use]
    pub fn mode(&self) -> &PowerMode {
        &self.mode
    }

    /// The fault schedule, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultSchedule> {
        self.faults.as_ref()
    }

    /// The preset initial state of charge, if any.
    #[must_use]
    pub fn initial_soc(&self) -> Option<Ratio> {
        self.initial_soc
    }

    /// The steady-workload override, if any.
    #[must_use]
    pub fn steady_workload(&self) -> Option<Ratio> {
        self.steady
    }

    /// How many servers the scenario simulates — surfaced so fleet
    /// tooling can flag megafleet-scale runs before paying for a cold
    /// execution.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.config.servers
    }

    /// The horizon in metering ticks.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The RNG seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// How the built driver advances time.
    #[must_use]
    pub fn driver_mode(&self) -> DriverMode {
        self.driver
    }

    /// The telemetry sink the built simulation records to, if any.
    pub(crate) fn recorder(&self) -> Option<&heb_telemetry::RecorderHandle> {
        self.recorder.as_ref()
    }

    /// The stable 128-bit content digest over every semantic field.
    ///
    /// Two scenarios share a hash exactly when they would produce the
    /// same [`SimReport`]: the digest folds in the config (including
    /// the topology's converter chains), the workload mix, the power
    /// mode (with every trace sample, bit-exact), the fault schedule,
    /// the initial SoC, the horizon, and the seed. The label is
    /// excluded — it is presentation, not physics.
    ///
    /// Folded on the first call and memoised; later calls (and clones)
    /// return the memo. Debug builds re-fold on every call and assert
    /// the memo still matches, so a setter that forgets to clear it
    /// fails every test that reaches it.
    #[must_use]
    pub fn content_hash(&self) -> u128 {
        let hash = *self.hash.get_or_init(|| self.fold_content_hash());
        #[cfg(debug_assertions)]
        assert_eq!(
            hash,
            self.fold_content_hash(),
            "invariant violated: scenario {:?} carries a stale content-hash memo",
            self.label
        );
        hash
    }

    /// Folds every semantic field into a fresh digest (the memo's
    /// source of truth).
    fn fold_content_hash(&self) -> u128 {
        let mut h = ContentHasher::new();
        h.write_str("heb-scenario v1");
        hash_config(&mut h, &self.config);
        h.write_usize(self.workloads.len());
        for w in &self.workloads {
            h.write_str(w.abbreviation());
        }
        match &self.mode {
            PowerMode::Utility => h.write_str("utility"),
            PowerMode::Solar(trace) => {
                h.write_str("solar");
                h.write_f64(trace.dt().get());
                h.write_usize(trace.len());
                for sample in trace.samples() {
                    h.write_f64(sample.get());
                }
            }
        }
        match &self.faults {
            None => h.write_bool(false),
            Some(schedule) => {
                h.write_bool(true);
                h.write_usize(schedule.len());
                for event in schedule.events() {
                    h.write_f64(event.at.get());
                    match event.duration {
                        None => h.write_bool(false),
                        Some(d) => {
                            h.write_bool(true);
                            h.write_f64(d.get());
                        }
                    }
                    hash_fault_kind(&mut h, &event.kind);
                }
            }
        }
        match self.initial_soc {
            None => h.write_bool(false),
            Some(soc) => {
                h.write_bool(true);
                h.write_f64(soc.get());
            }
        }
        h.write_u64(self.ticks);
        h.write_u64(self.seed);
        // Folded only when set, so every hash minted before the knob
        // existed remains valid verbatim.
        if let Some(level) = self.steady {
            h.write_str("steady-workload");
            h.write_f64(level.get());
        }
        // Tick mode folds nothing: every hash minted before the event
        // core existed remains valid verbatim.
        if self.driver == DriverMode::Event {
            h.write_str("driver=event");
        }
        h.finish()
    }

    /// The content hash as a 32-character lowercase hex string — the
    /// cache file stem.
    #[must_use]
    pub fn hash_hex(&self) -> String {
        format!("{:032x}", self.content_hash())
    }

    /// Builds the simulation (mode, faults, initial SoC, steady lanes
    /// and recorder installed) without running it — the one way to
    /// construct a [`Simulation`].
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for an invalid config, an empty workload
    /// mix, or an empty solar trace.
    pub fn build(&self) -> Result<Simulation, SimError> {
        Simulation::from_scenario(self)
    }

    /// Builds the scenario's [`SimDriver`] — the one construction path
    /// shared by the serial runner, the fleet engine, and the serve
    /// service — without running it.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when [`Scenario::build`] does.
    pub fn build_driver(&self) -> Result<SimDriver, SimError> {
        Ok(SimDriver::new(self.build()?, self.driver))
    }

    /// Runs the scenario to completion through its [`SimDriver`].
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when [`Scenario::build`] does.
    pub fn run(&self) -> Result<SimReport, SimError> {
        let mut driver = self.build_driver()?;
        Ok(driver.run_ticks(self.ticks))
    }

    /// Runs the scenario, panicking with the scenario label on error.
    ///
    /// # Panics
    ///
    /// Panics if the scenario cannot be built; the message names the
    /// scenario and the underlying [`SimError`].
    #[must_use]
    pub fn run_expect(&self) -> SimReport {
        self.run()
            // heb-analyze: allow(HEB003, documented panicking twin of run; the fleet engine relies on its message format)
            .unwrap_or_else(|err| panic!("scenario {:?}: {err}", self.label))
    }
}

/// Ticks covered by `hours` under `config` — the one rounding every
/// hours-based run applies.
#[must_use]
pub fn ticks_for(config: &SimConfig, hours: f64) -> u64 {
    (hours * 3600.0 / config.tick.get()).round() as u64
}

fn hash_config(h: &mut ContentHasher, config: &SimConfig) {
    h.write_usize(config.servers);
    h.write_f64(config.budget.get());
    h.write_f64(config.total_capacity.get());
    h.write_f64(config.sc_fraction.get());
    h.write_f64(config.dod_limit.get());
    h.write_f64(config.slot_length.get());
    h.write_f64(config.tick.get());
    h.write_str(config.policy.name());
    h.write_f64(config.small_peak_threshold.get());
    h.write_f64(config.delta_r.get());
    h.write_f64(config.pat_energy_bucket.get());
    h.write_f64(config.pat_power_bucket.get());
    h.write_usize(config.forecast_period);
    h.write_str(config.topology.name());
    for path in [
        DeliveryPath::UtilityToLoad,
        DeliveryPath::BufferToLoad,
        DeliveryPath::SourceToBuffer,
    ] {
        let chain = config.topology.chain(path);
        h.write_usize(chain.stages().len());
        for stage in chain.stages() {
            h.write_str(stage.label());
            h.write_f64(stage.efficiency().get());
        }
    }
    h.write_f64(config.metering_noise);
    h.write_usize(config.battery_strings);
}

fn hash_fault_kind(h: &mut ContentHasher, kind: &FaultKind) {
    h.write_str(kind.name());
    match kind {
        FaultKind::UtilityBrownout { derate } => h.write_f64(derate.get()),
        FaultKind::BatteryStringFailure { index } | FaultKind::ScModuleFailure { index } => {
            h.write_usize(*index);
        }
        FaultKind::BatteryDegradation {
            capacity_fade,
            resistance_growth,
        } => {
            h.write_f64(capacity_fade.get());
            h.write_f64(*resistance_growth);
        }
        FaultKind::RelayStuckOpen { server } => h.write_usize(*server),
        FaultKind::MeterSpike { factor } => h.write_f64(*factor),
        FaultKind::UtilityBlackout
        | FaultKind::SolarDropout
        | FaultKind::MeterDropout
        | FaultKind::MeterFreeze => {}
    }
}

/// Anything that can execute a scenario batch and return one report per
/// scenario, **in scenario order**.
///
/// The determinism contract every implementation must honour: the
/// returned reports are bit-identical to
/// `batch.iter().map(Scenario::run_expect)`, regardless of worker
/// count, scheduling, or caching.
pub trait ScenarioRunner: Sync {
    /// Executes the batch, returning reports ordered by scenario index.
    fn run_batch(&self, batch: &[Scenario]) -> Vec<SimReport>;

    /// Executes one scenario through its [`SimDriver`] — the single
    /// construction path all runners share. Implementations that farm
    /// scenarios out to workers call this per scenario; overriding it
    /// is possible but forfeits the one-way-to-build guarantee, so
    /// don't.
    fn run_scenario(&self, scenario: &Scenario) -> SimReport {
        scenario.run_expect()
    }
}

/// The reference implementation: runs every scenario inline, in order.
/// The parallel engine is verified against this.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialRunner;

impl ScenarioRunner for SerialRunner {
    fn run_batch(&self, batch: &[Scenario]) -> Vec<SimReport> {
        batch.iter().map(|s| self.run_scenario(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use heb_units::{Seconds, Watts};
    use heb_workload::PowerTrace;

    fn base() -> Scenario {
        Scenario::new(
            "t/base",
            SimConfig::prototype(),
            &[Archetype::WebSearch, Archetype::Terasort],
            0.2,
            11,
        )
    }

    #[test]
    fn hash_is_stable_and_label_blind() {
        let a = base();
        assert_eq!(a.content_hash(), base().content_hash());
        assert_eq!(a.content_hash(), a.clone().relabeled("x").content_hash());
        assert_eq!(a.hash_hex().len(), 32);
    }

    #[test]
    fn every_hashed_setter_clears_the_memo_and_rehashes() {
        type Setter = fn(Scenario) -> Scenario;
        let setters: [(&str, Setter); 7] = [
            ("mode", |s| {
                s.with_mode(PowerMode::Solar(PowerTrace::new(
                    vec![Watts::new(260.0); 10],
                    Seconds::new(1.0),
                )))
            }),
            ("faults", |s| {
                s.with_faults(FaultSchedule::parse("blackout@60~30").unwrap())
            }),
            ("initial soc", |s| {
                s.with_initial_soc(Ratio::new_clamped(0.5))
            }),
            ("steady", |s| {
                s.with_steady_workload(Ratio::new_clamped(0.4))
            }),
            ("seed", |s| s.with_seed(12)),
            ("ticks", |s| s.with_ticks(721)),
            ("driver", |s| s.with_driver_mode(DriverMode::Event)),
        ];
        for (name, set) in setters {
            let hashed = base();
            let before = hashed.content_hash();
            let after = set(hashed);
            assert!(
                after.hash.get().is_none(),
                "{name}: setter must clear the memo"
            );
            assert_eq!(
                after.content_hash(),
                set(base()).content_hash(),
                "{name}: hashing first must not change the result"
            );
            assert_ne!(
                after.content_hash(),
                before,
                "{name}: setter must move the hash"
            );
        }
    }

    #[test]
    fn label_recorder_and_clone_keep_the_memo() {
        let hashed = base();
        let h = hashed.content_hash();
        let cloned = hashed.clone();
        assert_eq!(cloned.hash.get(), Some(&h), "a clone carries the memo");
        let relabeled = hashed.relabeled("t/other");
        assert_eq!(relabeled.hash.get(), Some(&h), "relabeling keeps the memo");
        let traced = relabeled.with_recorder(std::sync::Arc::new(heb_telemetry::NullRecorder));
        assert_eq!(traced.hash.get(), Some(&h), "a recorder keeps the memo");
        assert_eq!(traced.content_hash(), h);
    }

    #[test]
    fn recorder_is_hash_blind_like_the_label() {
        let traced = base().with_recorder(std::sync::Arc::new(heb_telemetry::RingRecorder::new(8)));
        assert_eq!(base().content_hash(), traced.content_hash());
    }

    #[test]
    fn traced_scenario_captures_events_without_changing_the_report() {
        let ring = std::sync::Arc::new(heb_telemetry::RingRecorder::new(4096));
        let traced = base().with_recorder(std::sync::Arc::clone(&ring) as _);
        let report = traced.run().unwrap();
        assert_eq!(report, base().run().unwrap(), "tracing must not perturb");
        assert!(!ring.is_empty(), "a run must produce events");
    }

    #[test]
    fn every_semantic_field_moves_the_hash() {
        let a = base();
        let h = a.content_hash();
        assert_ne!(a.clone().with_seed(12).content_hash(), h);
        assert_ne!(a.clone().with_ticks(721).content_hash(), h);
        assert_ne!(
            a.clone()
                .with_steady_workload(Ratio::new_clamped(0.4))
                .content_hash(),
            h
        );
        assert_ne!(
            a.clone()
                .with_initial_soc(Ratio::new_clamped(0.5))
                .content_hash(),
            h
        );
        assert_ne!(
            a.clone()
                .with_faults(FaultSchedule::parse("blackout@60~30").unwrap())
                .content_hash(),
            h
        );
        let trace = PowerTrace::new(vec![Watts::new(260.0); 10], Seconds::new(1.0));
        assert_ne!(
            a.clone().with_mode(PowerMode::Solar(trace)).content_hash(),
            h
        );
        let cfg = SimConfig::prototype().with_budget(Watts::new(259.0));
        assert_ne!(
            Scenario::new(
                "t/base",
                cfg,
                &[Archetype::WebSearch, Archetype::Terasort],
                0.2,
                11
            )
            .content_hash(),
            h
        );
        let cfg = SimConfig::prototype().with_policy(PolicyKind::ScFirst);
        assert_ne!(
            Scenario::new(
                "t/base",
                cfg,
                &[Archetype::WebSearch, Archetype::Terasort],
                0.2,
                11
            )
            .content_hash(),
            h
        );
    }

    #[test]
    fn steady_workload_flattens_demand_and_levels_move_the_hash() {
        let steady = base().with_steady_workload(Ratio::new_clamped(0.5));
        // Distinct levels get distinct cache identities.
        assert_ne!(
            steady.content_hash(),
            base()
                .with_steady_workload(Ratio::new_clamped(0.6))
                .content_hash()
        );
        // A steady run sees zero mismatch under the prototype budget, so
        // nothing is ever shed.
        let report = steady.run().unwrap();
        assert_eq!(report.shed_events, 0);
        // Tick and event drivers agree bitwise on steady scenarios too.
        assert_eq!(
            report,
            steady
                .clone()
                .with_driver_mode(DriverMode::Event)
                .run()
                .unwrap()
        );
    }

    #[test]
    fn trace_samples_are_hashed_bit_exactly() {
        let mk = |level: f64| {
            base().with_mode(PowerMode::Solar(PowerTrace::new(
                vec![Watts::new(level); 60],
                Seconds::new(1.0),
            )))
        };
        assert_eq!(mk(260.0).content_hash(), mk(260.0).content_hash());
        assert_ne!(
            mk(260.0).content_hash(),
            mk(260.0 + f64::EPSILON * 260.0).content_hash()
        );
    }

    #[test]
    fn scenario_run_matches_direct_simulation() {
        let report = base().run().unwrap();
        let mut sim = base().build().unwrap();
        // A raw step loop is the oracle: no driver on this side.
        for _ in 0..base().ticks() {
            sim.step();
        }
        assert_eq!(report, sim.snapshot());
    }

    #[test]
    fn serial_runner_preserves_order() {
        let batch = vec![
            base(),
            base().with_seed(3).relabeled("t/3"),
            base().with_seed(4).relabeled("t/4"),
        ];
        let reports = SerialRunner.run_batch(&batch);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0], batch[0].run().unwrap());
        assert_eq!(reports[1], batch[1].run().unwrap());
        assert_eq!(reports[2], batch[2].run().unwrap());
    }

    #[test]
    fn event_mode_scenarios_match_tick_mode_bitwise() {
        let tick = base().run().unwrap();
        let event = base().with_driver_mode(DriverMode::Event).run().unwrap();
        assert_eq!(tick, event);
        // The hostile variant — faults, tight budget — must also agree.
        let hostile = || {
            Scenario::new(
                "t/hostile",
                SimConfig::prototype()
                    .with_policy(PolicyKind::HebD)
                    .with_budget(Watts::new(150.0)),
                &[Archetype::Terasort],
                0.5,
                3,
            )
            .with_faults(FaultSchedule::parse("blackout@600~300").unwrap())
        };
        assert_eq!(
            hostile().run().unwrap(),
            hostile().with_driver_mode(DriverMode::Event).run().unwrap()
        );
    }

    #[test]
    fn driver_mode_hashing_is_tick_transparent_event_distinct() {
        // Tick mode folds nothing: the default hash is the legacy hash.
        assert_eq!(
            base().content_hash(),
            base().with_driver_mode(DriverMode::Tick).content_hash()
        );
        // Event mode gets its own cache identity.
        assert_ne!(
            base().content_hash(),
            base().with_driver_mode(DriverMode::Event).content_hash()
        );
    }

    #[test]
    fn build_driver_honours_the_mode() {
        assert_eq!(base().build_driver().unwrap().mode(), DriverMode::Tick);
        assert_eq!(
            base()
                .with_driver_mode(DriverMode::Event)
                .build_driver()
                .unwrap()
                .mode(),
            DriverMode::Event
        );
    }

    #[test]
    fn invalid_scenarios_report_errors() {
        let s = Scenario::new("t/empty", SimConfig::prototype(), &[], 0.1, 0);
        assert_eq!(s.run().err(), Some(SimError::NoWorkloads));
        let empty = PowerTrace::new(Vec::new(), Seconds::new(1.0));
        let s = base().with_mode(PowerMode::Solar(empty));
        assert_eq!(s.run().err(), Some(SimError::EmptySolarTrace));
    }

    #[test]
    fn nan_config_fields_are_typed_errors_not_panics() {
        // Each of these once passed validation and then panicked inside
        // the clock or the meter.
        type Edit = fn(&mut SimConfig);
        let edits: [(&str, Edit); 3] = [
            ("tick", |c| c.tick = Seconds::new(f64::NAN)),
            ("budget", |c| c.budget = Watts::new(f64::NAN)),
            ("metering_noise", |c| c.metering_noise = f64::NAN),
        ];
        for (field, edit) in edits {
            let mut config = SimConfig::prototype();
            edit(&mut config);
            let s = Scenario::from_ticks("t/nan", config, &[Archetype::WebSearch], 30, 1);
            assert!(
                matches!(s.run(), Err(SimError::Config(_))),
                "NaN {field} must be a config error"
            );
        }
    }
}
