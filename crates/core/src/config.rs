//! Simulation and controller configuration.

use crate::policy::PolicyKind;
use heb_powersys::Topology;
use heb_units::{Joules, Ratio, Seconds, Watts};

/// The most metering ticks one control slot may span: a day of 1 s
/// ticks. The meter keeps one slot of samples, so this bounds its
/// window; the longest slot in use spans 1,200 ticks (20 minutes at
/// 1 s, `fig12_schemes --ablate-slot`).
pub const MAX_TICKS_PER_SLOT: u64 = 86_400;

/// Everything a [`Simulation`](crate::Simulation) run is parameterised
/// by. Defaults mirror the scale-down prototype of Section 6.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of servers in the rack.
    pub servers: usize,
    /// Utility power budget (the under-provisioned supply).
    pub budget: Watts,
    /// Total *usable* energy across both buffer pools.
    pub total_capacity: Joules,
    /// Fraction of `total_capacity` held in super-capacitors. The
    /// prototype's initial ratio is SC:battery = 3:7.
    pub sc_fraction: Ratio,
    /// Management depth-of-discharge limit applied to both pools (the
    /// Figure 13–14 capacity knob).
    pub dod_limit: Ratio,
    /// Control-slot length (10 minutes by default).
    pub slot_length: Seconds,
    /// Metering tick (1 second, the IPDU rate).
    pub tick: Seconds,
    /// The power-management scheme under test.
    pub policy: PolicyKind,
    /// Predicted mismatch below which a peak is classified *small*
    /// (handled by SCs alone). Ablation knob.
    pub small_peak_threshold: Watts,
    /// PAT self-optimisation step `Δr` (default 1 %). Ablation knob.
    pub delta_r: Ratio,
    /// PAT bucket width for stored-energy dimensions.
    pub pat_energy_bucket: Joules,
    /// PAT bucket width for the mismatch dimension.
    pub pat_power_bucket: Watts,
    /// Holt-Winters seasonal period, in slots (one day of 10-minute
    /// slots by default would be 144; the prototype runs shorter
    /// sessions, so default to a single-hour season of 6).
    pub forecast_period: usize,
    /// The energy-storage architecture (Figure 7): where conversion
    /// losses sit on the utility→load, buffer→load, and source→buffer
    /// paths. The prototype deploys HEB at rack level (direct DC).
    pub topology: Topology,
    /// Relative (1-sigma) IPDU measurement noise. The controller only
    /// sees metered values, so noise here degrades its predictions and
    /// PAT keys — a robustness ablation knob. 0 = ideal instrument.
    pub metering_noise: f64,
    /// Number of independent battery strings the battery pool is split
    /// into. More strings mean a single string failure quarantines a
    /// smaller capacity slice — the fault-tolerance granularity knob.
    pub battery_strings: usize,
}

impl SimConfig {
    /// The prototype configuration: six 30–70 W servers, a 260 W
    /// budget, 150 Wh of usable buffer at 3:7 SC:battery, 10-minute
    /// slots, `HEB-D` policy.
    #[must_use]
    pub fn prototype() -> Self {
        Self {
            servers: 6,
            budget: Watts::new(260.0),
            total_capacity: Joules::from_watt_hours(150.0),
            sc_fraction: Ratio::new_clamped(0.3),
            dod_limit: Ratio::new_clamped(0.8),
            slot_length: Seconds::from_minutes(10.0),
            tick: Seconds::new(1.0),
            policy: PolicyKind::HebD,
            small_peak_threshold: Watts::new(80.0),
            delta_r: Ratio::new_clamped(0.01),
            pat_energy_bucket: Joules::from_watt_hours(10.0),
            pat_power_bucket: Watts::new(20.0),
            forecast_period: 6,
            topology: Topology::heb_rack_level(),
            metering_noise: 0.0,
            battery_strings: 1,
        }
    }

    /// A validating builder seeded with the prototype defaults.
    ///
    /// Unlike mutating the public fields directly, the builder
    /// range-checks every knob in [`SimConfigBuilder::build`] and
    /// reports the offending value instead of clamping or panicking;
    /// [`Scenario::build`](crate::Scenario::build) runs the same checks
    /// on a config assembled by hand.
    #[must_use]
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// A validating builder seeded from this configuration.
    #[must_use]
    pub fn to_builder(&self) -> SimConfigBuilder {
        SimConfigBuilder::from_config(self.clone())
    }

    /// Same configuration with a different storage architecture (the
    /// Figure 7 comparison knob).
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Same configuration with a different policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Same configuration with a different SC capacity fraction (the
    /// Figure 13 ratio knob).
    #[must_use]
    pub fn with_sc_fraction(mut self, sc_fraction: Ratio) -> Self {
        self.sc_fraction = sc_fraction;
        self
    }

    /// Same configuration with a different total usable capacity (the
    /// Figure 14 growth knob).
    #[must_use]
    pub fn with_total_capacity(mut self, total: Joules) -> Self {
        self.total_capacity = total;
        self
    }

    /// Same configuration with a different utility budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Watts) -> Self {
        self.budget = budget;
        self
    }

    /// Same configuration with the battery pool split into `strings`
    /// independent strings (fault-isolation granularity).
    #[must_use]
    pub fn with_battery_strings(mut self, strings: usize) -> Self {
        self.battery_strings = strings;
        self
    }

    /// Ticks per control slot, at most [`MAX_TICKS_PER_SLOT`] in a
    /// config that passes [`SimConfig::try_validate`].
    #[must_use]
    pub fn ticks_per_slot(&self) -> u64 {
        (self.slot_length.get() / self.tick.get()).round().max(1.0) as u64
    }

    /// Validates internal consistency, reporting the first field that
    /// is outside its meaningful range — the one check every
    /// configuration passes, whether it came from
    /// [`SimConfigBuilder::build`] or from editing the public fields.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] encountered, checked in field
    /// declaration order (the tick before the slot that must span it).
    /// Every float check is written so that NaN fails it.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        let positive = |v: f64| v > 0.0;
        let non_negative = |v: f64| v >= 0.0;
        let fraction = |v: f64| (0.0..=1.0).contains(&v);
        if self.servers == 0 {
            return Err(ConfigError::NoServers);
        }
        if !non_negative(self.budget.get()) {
            return Err(ConfigError::NegativeBudget(self.budget.get()));
        }
        if !positive(self.total_capacity.get()) {
            return Err(ConfigError::NonPositiveCapacity(self.total_capacity.get()));
        }
        if !fraction(self.sc_fraction.get()) {
            return Err(ConfigError::ScFractionOutOfRange(self.sc_fraction.get()));
        }
        if !(positive(self.dod_limit.get()) && fraction(self.dod_limit.get())) {
            return Err(ConfigError::DodLimitOutOfRange(self.dod_limit.get()));
        }
        if !(positive(self.tick.get()) && self.tick.get().is_finite()) {
            return Err(ConfigError::NonPositiveTick(self.tick.get()));
        }
        let slot = self.slot_length.get();
        if slot.is_nan() || slot < self.tick.get() {
            return Err(ConfigError::SlotShorterThanTick {
                slot,
                tick: self.tick.get(),
            });
        }
        // The meter keeps one slot of samples: an infinite slot, or a
        // tick far shorter than the slot, asks for an unbounded window.
        let ticks_per_slot = slot / self.tick.get();
        if ticks_per_slot.round() > MAX_TICKS_PER_SLOT as f64 {
            return Err(ConfigError::SlotTooLong { ticks_per_slot });
        }
        if !non_negative(self.small_peak_threshold.get()) {
            return Err(ConfigError::NegativeSmallPeakThreshold(
                self.small_peak_threshold.get(),
            ));
        }
        if !(positive(self.delta_r.get()) && fraction(self.delta_r.get())) {
            return Err(ConfigError::DeltaROutOfRange(self.delta_r.get()));
        }
        if !(positive(self.pat_energy_bucket.get()) && positive(self.pat_power_bucket.get())) {
            return Err(ConfigError::NonPositivePatBucket);
        }
        if self.forecast_period < 2 {
            return Err(ConfigError::ForecastPeriodTooShort(self.forecast_period));
        }
        if !non_negative(self.metering_noise) {
            return Err(ConfigError::NegativeMeteringNoise(self.metering_noise));
        }
        if self.battery_strings == 0 {
            return Err(ConfigError::NoBatteryStrings);
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

/// Why a [`SimConfigBuilder`] rejected its inputs. Each variant carries
/// the offending value so CLI layers can echo it back to the user.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The rack was configured with zero servers.
    NoServers,
    /// The utility budget is negative (watts).
    NegativeBudget(f64),
    /// The total usable capacity is zero or negative (joules).
    NonPositiveCapacity(f64),
    /// The SC capacity fraction is outside `[0, 1]` (zero is legal:
    /// a battery-only deployment).
    ScFractionOutOfRange(f64),
    /// The depth-of-discharge limit is outside `(0, 1]`.
    DodLimitOutOfRange(f64),
    /// The metering tick is zero, negative or not finite (seconds).
    NonPositiveTick(f64),
    /// The control slot is shorter than one metering tick.
    SlotShorterThanTick {
        /// Configured slot length, seconds.
        slot: f64,
        /// Configured metering tick, seconds.
        tick: f64,
    },
    /// The control slot spans more than [`MAX_TICKS_PER_SLOT`] metering
    /// ticks, or infinitely many.
    SlotTooLong {
        /// Configured slot length over configured tick.
        ticks_per_slot: f64,
    },
    /// The small-peak threshold is negative (watts).
    NegativeSmallPeakThreshold(f64),
    /// The PAT self-optimisation step `Δr` is outside `(0, 1]`.
    DeltaROutOfRange(f64),
    /// A PAT bucket width is zero or negative.
    NonPositivePatBucket,
    /// The Holt-Winters seasonal period is below two slots.
    ForecastPeriodTooShort(usize),
    /// The IPDU noise sigma is negative.
    NegativeMeteringNoise(f64),
    /// The battery pool was configured with zero strings.
    NoBatteryStrings,
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::NoServers => f.write_str("need at least one server"),
            ConfigError::NegativeBudget(w) => {
                write!(f, "budget must be non-negative, got {w} W")
            }
            ConfigError::NonPositiveCapacity(j) => {
                write!(f, "buffer capacity must be positive, got {j} J")
            }
            ConfigError::ScFractionOutOfRange(v) => {
                write!(f, "sc_fraction must be within [0, 1], got {v}")
            }
            ConfigError::DodLimitOutOfRange(v) => {
                write!(f, "dod_limit must be within (0, 1], got {v}")
            }
            ConfigError::NonPositiveTick(s) => {
                write!(f, "tick must be positive and finite, got {s} s")
            }
            ConfigError::SlotShorterThanTick { slot, tick } => {
                write!(
                    f,
                    "slot must span at least one tick ({slot} s slot < {tick} s tick)"
                )
            }
            ConfigError::SlotTooLong { ticks_per_slot } => {
                write!(
                    f,
                    "slot must span at most {MAX_TICKS_PER_SLOT} ticks, got {ticks_per_slot}"
                )
            }
            ConfigError::NegativeSmallPeakThreshold(w) => {
                write!(f, "threshold must be non-negative, got {w} W")
            }
            ConfigError::DeltaROutOfRange(v) => {
                write!(f, "delta_r must be within (0, 1], got {v}")
            }
            ConfigError::NonPositivePatBucket => f.write_str("PAT bucket widths must be positive"),
            ConfigError::ForecastPeriodTooShort(p) => {
                write!(f, "forecast period must be >= 2, got {p}")
            }
            ConfigError::NegativeMeteringNoise(n) => {
                write!(f, "metering noise must be non-negative, got {n}")
            }
            ConfigError::NoBatteryStrings => f.write_str("need at least one battery string"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A validating constructor for [`SimConfig`].
///
/// Ratios are staged as raw `f64` and reach
/// [`SimConfig::try_validate`] unclamped — `Ratio::new_clamped` would
/// otherwise silently pin an out-of-range `sc_fraction` or `dod_limit`
/// to the nearest bound instead of reporting the mistake.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfigBuilder {
    servers: usize,
    budget: Watts,
    total_capacity: Joules,
    sc_fraction: f64,
    dod_limit: f64,
    slot_length: Seconds,
    tick: Seconds,
    policy: PolicyKind,
    small_peak_threshold: Watts,
    delta_r: f64,
    pat_energy_bucket: Joules,
    pat_power_bucket: Watts,
    forecast_period: usize,
    topology: Topology,
    metering_noise: f64,
    battery_strings: usize,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        Self::from_config(SimConfig::prototype())
    }
}

impl SimConfigBuilder {
    /// Starts from an existing configuration (ratios unpacked back to
    /// raw fractions).
    #[must_use]
    pub fn from_config(config: SimConfig) -> Self {
        Self {
            servers: config.servers,
            budget: config.budget,
            total_capacity: config.total_capacity,
            sc_fraction: config.sc_fraction.get(),
            dod_limit: config.dod_limit.get(),
            slot_length: config.slot_length,
            tick: config.tick,
            policy: config.policy,
            small_peak_threshold: config.small_peak_threshold,
            delta_r: config.delta_r.get(),
            pat_energy_bucket: config.pat_energy_bucket,
            pat_power_bucket: config.pat_power_bucket,
            forecast_period: config.forecast_period,
            topology: config.topology,
            metering_noise: config.metering_noise,
            battery_strings: config.battery_strings,
        }
    }

    /// Number of servers in the rack.
    #[must_use]
    pub fn servers(mut self, servers: usize) -> Self {
        self.servers = servers;
        self
    }

    /// Utility power budget.
    #[must_use]
    pub fn budget(mut self, budget: Watts) -> Self {
        self.budget = budget;
        self
    }

    /// Total usable buffer energy across both pools.
    #[must_use]
    pub fn total_capacity(mut self, total: Joules) -> Self {
        self.total_capacity = total;
        self
    }

    /// Fraction of the capacity held in super-capacitors, `[0, 1]`.
    #[must_use]
    pub fn sc_fraction(mut self, fraction: f64) -> Self {
        self.sc_fraction = fraction;
        self
    }

    /// Depth-of-discharge limit for both pools, `(0, 1]`.
    #[must_use]
    pub fn dod_limit(mut self, limit: f64) -> Self {
        self.dod_limit = limit;
        self
    }

    /// Control-slot length.
    #[must_use]
    pub fn slot_length(mut self, slot: Seconds) -> Self {
        self.slot_length = slot;
        self
    }

    /// Metering tick.
    #[must_use]
    pub fn tick(mut self, tick: Seconds) -> Self {
        self.tick = tick;
        self
    }

    /// Power-management scheme under test.
    #[must_use]
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Predicted-mismatch threshold below which a peak is *small*.
    #[must_use]
    pub fn small_peak_threshold(mut self, threshold: Watts) -> Self {
        self.small_peak_threshold = threshold;
        self
    }

    /// PAT self-optimisation step `Δr`, `(0, 1]`.
    #[must_use]
    pub fn delta_r(mut self, delta_r: f64) -> Self {
        self.delta_r = delta_r;
        self
    }

    /// PAT bucket width for stored-energy dimensions.
    #[must_use]
    pub fn pat_energy_bucket(mut self, bucket: Joules) -> Self {
        self.pat_energy_bucket = bucket;
        self
    }

    /// PAT bucket width for the mismatch dimension.
    #[must_use]
    pub fn pat_power_bucket(mut self, bucket: Watts) -> Self {
        self.pat_power_bucket = bucket;
        self
    }

    /// Holt-Winters seasonal period, in slots.
    #[must_use]
    pub fn forecast_period(mut self, period: usize) -> Self {
        self.forecast_period = period;
        self
    }

    /// Energy-storage architecture.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Relative 1-sigma IPDU measurement noise.
    #[must_use]
    pub fn metering_noise(mut self, noise: f64) -> Self {
        self.metering_noise = noise;
        self
    }

    /// Number of independent battery strings.
    #[must_use]
    pub fn battery_strings(mut self, strings: usize) -> Self {
        self.battery_strings = strings;
        self
    }

    /// Assembles the configuration and validates it with
    /// [`SimConfig::try_validate`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] encountered, checked in field
    /// declaration order; an out-of-range ratio is reported with its
    /// raw value.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        // Unclamped, so validation sees (and reports) the raw fractions;
        // a config that passes holds them within range unchanged.
        let config = SimConfig {
            servers: self.servers,
            budget: self.budget,
            total_capacity: self.total_capacity,
            sc_fraction: Ratio::new_unclamped(self.sc_fraction),
            dod_limit: Ratio::new_unclamped(self.dod_limit),
            slot_length: self.slot_length,
            tick: self.tick,
            policy: self.policy,
            small_peak_threshold: self.small_peak_threshold,
            delta_r: Ratio::new_unclamped(self.delta_r),
            pat_energy_bucket: self.pat_energy_bucket,
            pat_power_bucket: self.pat_power_bucket,
            forecast_period: self.forecast_period,
            topology: self.topology,
            metering_noise: self.metering_noise,
            battery_strings: self.battery_strings,
        };
        config.try_validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_is_valid() {
        assert_eq!(SimConfig::prototype().try_validate(), Ok(()));
    }

    #[test]
    fn ticks_per_slot() {
        assert_eq!(SimConfig::prototype().ticks_per_slot(), 600);
    }

    #[test]
    fn builder_methods() {
        let c = SimConfig::prototype()
            .with_policy(PolicyKind::BaOnly)
            .with_sc_fraction(Ratio::HALF)
            .with_budget(Watts::new(200.0))
            .with_total_capacity(Joules::from_watt_hours(300.0));
        assert_eq!(c.policy, PolicyKind::BaOnly);
        assert_eq!(c.sc_fraction, Ratio::HALF);
        assert_eq!(c.budget, Watts::new(200.0));
        assert_eq!(c.total_capacity, Joules::from_watt_hours(300.0));
        assert_eq!(c.try_validate(), Ok(()));
    }

    #[test]
    fn try_validate_reports_typed_errors() {
        type Edit = fn(&mut SimConfig);
        // Errors compare by their debug form, so a NaN payload matches.
        let cases: [(Edit, &str); 16] = [
            (|c| c.servers = 0, "NoServers"),
            (|c| c.battery_strings = 0, "NoBatteryStrings"),
            (|c| c.budget = Watts::new(-1.0), "NegativeBudget(-1.0)"),
            (|c| c.forecast_period = 1, "ForecastPeriodTooShort(1)"),
            (
                |c| c.slot_length = Seconds::new(0.5),
                "SlotShorterThanTick { slot: 0.5, tick: 1.0 }",
            ),
            // A stored ratio of zero is in range for the SC share but
            // not for the DoD limit or the PAT step.
            (|c| c.dod_limit = Ratio::ZERO, "DodLimitOutOfRange(0.0)"),
            (|c| c.delta_r = Ratio::ZERO, "DeltaROutOfRange(0.0)"),
            (
                |c| c.sc_fraction = Ratio::new_unclamped(1.5),
                "ScFractionOutOfRange(1.5)",
            ),
            // Each of these once passed validation and then panicked
            // inside the clock, the meter or the PAT.
            (|c| c.tick = Seconds::new(f64::NAN), "NonPositiveTick(NaN)"),
            (
                |c| {
                    c.tick = Seconds::new(f64::INFINITY);
                    c.slot_length = Seconds::new(f64::INFINITY);
                },
                "NonPositiveTick(inf)",
            ),
            // These asked the meter for an unbounded window.
            (
                |c| c.slot_length = Seconds::new(f64::INFINITY),
                "SlotTooLong { ticks_per_slot: inf }",
            ),
            (
                |c| c.tick = Seconds::new(1e-9),
                "SlotTooLong { ticks_per_slot: 600000000000.0 }",
            ),
            (
                |c| c.slot_length = Seconds::new(1e12),
                "SlotTooLong { ticks_per_slot: 1000000000000.0 }",
            ),
            (|c| c.budget = Watts::new(f64::NAN), "NegativeBudget(NaN)"),
            (
                |c| c.metering_noise = f64::NAN,
                "NegativeMeteringNoise(NaN)",
            ),
            (
                |c| c.pat_power_bucket = Watts::new(f64::NAN),
                "NonPositivePatBucket",
            ),
        ];
        for (edit, expected) in cases {
            let mut c = SimConfig::prototype();
            edit(&mut c);
            assert_eq!(format!("{:?}", c.try_validate().unwrap_err()), expected);
        }
    }

    #[test]
    fn battery_strings_builder() {
        let c = SimConfig::prototype().with_battery_strings(3);
        assert_eq!(c.battery_strings, 3);
        assert_eq!(c.try_validate(), Ok(()));
    }

    #[test]
    fn builder_defaults_equal_prototype() {
        assert_eq!(SimConfig::builder().build(), Ok(SimConfig::prototype()));
        assert_eq!(
            SimConfig::default().to_builder().build(),
            Ok(SimConfig::default())
        );
    }

    #[test]
    fn builder_round_trips_every_knob() {
        let c = SimConfig::builder()
            .servers(12)
            .budget(Watts::new(500.0))
            .total_capacity(Joules::from_watt_hours(300.0))
            .sc_fraction(0.5)
            .dod_limit(0.6)
            .slot_length(Seconds::from_minutes(5.0))
            .tick(Seconds::new(2.0))
            .policy(PolicyKind::BaOnly)
            .small_peak_threshold(Watts::new(40.0))
            .delta_r(0.02)
            .pat_energy_bucket(Joules::from_watt_hours(5.0))
            .pat_power_bucket(Watts::new(10.0))
            .forecast_period(12)
            .topology(Topology::heb_cluster_level())
            .metering_noise(0.01)
            .battery_strings(4)
            .build()
            .expect("all knobs in range");
        assert_eq!(c.servers, 12);
        assert_eq!(c.budget, Watts::new(500.0));
        assert_eq!(c.sc_fraction, Ratio::HALF);
        assert_eq!(c.dod_limit, Ratio::new_clamped(0.6));
        assert_eq!(c.slot_length, Seconds::from_minutes(5.0));
        assert_eq!(c.tick, Seconds::new(2.0));
        assert_eq!(c.policy, PolicyKind::BaOnly);
        assert_eq!(c.delta_r, Ratio::new_clamped(0.02));
        assert_eq!(c.forecast_period, 12);
        assert_eq!(c.topology, Topology::heb_cluster_level());
        assert_eq!(c.metering_noise, 0.01);
        assert_eq!(c.battery_strings, 4);
        assert_eq!(c.try_validate(), Ok(()));
    }

    #[test]
    fn builder_rejects_out_of_range_ratios_instead_of_clamping() {
        // `Ratio::new_clamped(1.3)` would silently pin to 1.0; the
        // builder reports the raw value instead.
        assert_eq!(
            SimConfig::builder().sc_fraction(1.3).build(),
            Err(ConfigError::ScFractionOutOfRange(1.3))
        );
        assert_eq!(
            SimConfig::builder().sc_fraction(-0.1).build(),
            Err(ConfigError::ScFractionOutOfRange(-0.1))
        );
        // Zero SC is a legal battery-only deployment…
        assert!(SimConfig::builder().sc_fraction(0.0).build().is_ok());
        // …but a zero DoD limit would make both pools unusable.
        assert_eq!(
            SimConfig::builder().dod_limit(0.0).build(),
            Err(ConfigError::DodLimitOutOfRange(0.0))
        );
        assert_eq!(
            SimConfig::builder().delta_r(1.5).build(),
            Err(ConfigError::DeltaROutOfRange(1.5))
        );
        // NaN != NaN, so match on the variant rather than the payload.
        assert!(matches!(
            SimConfig::builder().sc_fraction(f64::NAN).build(),
            Err(ConfigError::ScFractionOutOfRange(v)) if v.is_nan()
        ));
    }

    #[test]
    fn builder_rejects_structural_mistakes() {
        assert_eq!(
            SimConfig::builder().servers(0).build(),
            Err(ConfigError::NoServers)
        );
        assert_eq!(
            SimConfig::builder().budget(Watts::new(-5.0)).build(),
            Err(ConfigError::NegativeBudget(-5.0))
        );
        assert_eq!(
            SimConfig::builder().tick(Seconds::new(0.0)).build(),
            Err(ConfigError::NonPositiveTick(0.0))
        );
        assert_eq!(
            SimConfig::builder().slot_length(Seconds::new(0.5)).build(),
            Err(ConfigError::SlotShorterThanTick {
                slot: 0.5,
                tick: 1.0
            })
        );
        assert_eq!(
            SimConfig::builder().forecast_period(1).build(),
            Err(ConfigError::ForecastPeriodTooShort(1))
        );
        assert_eq!(
            SimConfig::builder().battery_strings(0).build(),
            Err(ConfigError::NoBatteryStrings)
        );
    }

    #[test]
    fn builder_errors_keep_the_offending_value() {
        let msg = ConfigError::DodLimitOutOfRange(1.7).to_string();
        assert!(msg.contains("(0, 1]") && msg.contains("1.7"), "{msg}");
    }
}
