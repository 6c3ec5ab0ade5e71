//! The heterogeneous buffer pair the controller dispatches.

use heb_esd::{
    Bank, LeadAcidBattery, LeadAcidParams, StorageDevice, SuperCapacitor, SuperCapacitorParams,
};
use heb_units::{AmpHours, Farads, Joules, Ratio, Seconds, Volts, Watts};

/// One of the two pools, for dispatch in a plan's order; it also
/// indexes per-pool arrays (`[sc, ba]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pool {
    /// The super-capacitor pool.
    Sc = 0,
    /// The battery pool.
    Ba = 1,
}

/// The SC pool and battery pool, sized jointly.
///
/// All compared schemes get *equal total usable capacity* (the paper's
/// fairness rule in Section 7): `BaOnly` puts everything into the
/// battery pool; hybrid schemes split it by `sc_fraction`.
///
/// # Examples
///
/// ```
/// use heb_core::HybridBuffers;
/// use heb_units::{Joules, Ratio};
///
/// let buffers = HybridBuffers::build(
///     Joules::from_watt_hours(150.0),
///     Ratio::new_clamped(0.3),
///     Ratio::new_clamped(0.8),
/// );
/// let total = buffers.total_capacity();
/// assert!((total.as_watt_hours().get() - 150.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct HybridBuffers {
    sc_pool: Bank<SuperCapacitor>,
    ba_pool: Bank<LeadAcidBattery>,
}

impl HybridBuffers {
    /// Builds pools totalling `total_usable` energy with `sc_fraction`
    /// of it in super-capacitors, both managed at `dod_limit`.
    ///
    /// The battery's management DoD is `dod_limit`; the SC pool's usable
    /// voltage window is scaled so its usable share matches. Device
    /// internal parameters scale with size as in the prototype.
    ///
    /// # Panics
    ///
    /// Panics if `total_usable` is not positive.
    #[must_use]
    pub fn build(total_usable: Joules, sc_fraction: Ratio, dod_limit: Ratio) -> Self {
        Self::build_split(total_usable, sc_fraction, dod_limit, 1)
    }

    /// Like [`HybridBuffers::build`], but splits the battery share into
    /// `ba_strings` equal independent strings. Total usable capacity is
    /// unchanged; what changes is the failure granularity — the
    /// fault-injection layer quarantines one string at a time, so more
    /// strings lose a smaller slice per failure.
    ///
    /// # Panics
    ///
    /// Panics if `total_usable` is not positive or `ba_strings` is zero.
    #[must_use]
    pub fn build_split(
        total_usable: Joules,
        sc_fraction: Ratio,
        dod_limit: Ratio,
        ba_strings: usize,
    ) -> Self {
        assert!(total_usable.get() > 0.0, "capacity must be positive");
        assert!(ba_strings > 0, "need at least one battery string");
        let sc_usable = Joules::new(total_usable.get() * sc_fraction.get());
        let ba_usable = total_usable - sc_usable;

        let sc_pool = if sc_usable.get() > 0.0 {
            // Usable window is rated→half-rated voltage (75 % of the
            // physical energy): ½·C·V² · 0.75 = usable.
            let params = SuperCapacitorParams::prototype_module();
            let v = params.rated_voltage.get();
            let window = 1.0 - (params.min_voltage.get() / v).powi(2);
            let capacitance = 2.0 * sc_usable.get() / (v * v * window);
            Bank::new(vec![SuperCapacitor::new(SuperCapacitorParams {
                capacitance: Farads::new(capacitance),
                ..params
            })])
        } else {
            Bank::empty()
        };

        let ba_pool = if ba_usable.get() > 0.0 {
            // usable = Ah · DoD · V_nominal, divided evenly over the
            // strings (parallel strings share the bus voltage).
            let nominal = Volts::new(24.0);
            let ah = ba_usable.as_watt_hours().get()
                / (dod_limit.get() * nominal.get() * ba_strings as f64);
            let params = LeadAcidParams::with_capacity(AmpHours::new(ah)).with_dod_limit(dod_limit);
            (0..ba_strings)
                .map(|_| LeadAcidBattery::new(params.clone()))
                .collect()
        } else {
            Bank::empty()
        };

        Self { sc_pool, ba_pool }
    }

    /// The super-capacitor pool.
    #[must_use]
    pub fn sc_pool(&self) -> &Bank<SuperCapacitor> {
        &self.sc_pool
    }

    /// Mutable super-capacitor pool.
    pub fn sc_pool_mut(&mut self) -> &mut Bank<SuperCapacitor> {
        &mut self.sc_pool
    }

    /// The battery pool.
    #[must_use]
    pub fn ba_pool(&self) -> &Bank<LeadAcidBattery> {
        &self.ba_pool
    }

    /// Mutable battery pool.
    pub fn ba_pool_mut(&mut self) -> &mut Bank<LeadAcidBattery> {
        &mut self.ba_pool
    }

    /// Combined usable capacity.
    #[must_use]
    pub fn total_capacity(&self) -> Joules {
        self.sc_pool.usable_capacity() + self.ba_pool.usable_capacity()
    }

    /// Combined available energy (`ΔSC + ΔBA` in the paper's notation).
    #[must_use]
    pub fn total_available(&self) -> Joules {
        self.sc_pool.available_energy() + self.ba_pool.available_energy()
    }

    /// Available energy in the SC pool (`ΔSC`).
    #[must_use]
    pub fn sc_available(&self) -> Joules {
        self.sc_pool.available_energy()
    }

    /// Available energy in the battery pool (`ΔBA`).
    #[must_use]
    pub fn ba_available(&self) -> Joules {
        self.ba_pool.available_energy()
    }

    /// Combined dispatchable power right now.
    #[must_use]
    pub fn total_discharge_power(&self) -> Watts {
        self.sc_pool.max_discharge_power() + self.ba_pool.max_discharge_power()
    }

    /// `pool` as a device, to dispatch it by name.
    pub(crate) fn pool_mut(&mut self, pool: Pool) -> &mut dyn StorageDevice {
        match pool {
            Pool::Sc => &mut self.sc_pool,
            Pool::Ba => &mut self.ba_pool,
        }
    }

    /// One batched settling sweep over every device in both pools (SC
    /// members first, then battery strings, quarantined members
    /// included) — the bulk form of per-device
    /// [`StorageDevice::idle_settled`] the event core probes with while
    /// hunting a fixed point. True only when *every* device settled;
    /// every device is driven exactly once regardless.
    pub fn idle_settled_all(&mut self, dt: Seconds) -> bool {
        let mut settled = true;
        settled &= self.sc_pool.idle_settled(dt);
        settled &= self.ba_pool.idle_settled(dt);
        settled
    }

    /// Replays `n` idle steps for every device in both pools in one
    /// sweep. Only valid after [`HybridBuffers::idle_settled_all`]
    /// returned `true` for the same `dt`.
    pub fn idle_accumulate_all(&mut self, dt: Seconds, n: u64) {
        self.sc_pool.idle_accumulate(dt, n);
        self.ba_pool.idle_accumulate(dt, n);
    }

    /// Projected battery lifetime under the usage so far (the
    /// Figure 12(c) metric); `None` when there is no battery pool.
    #[must_use]
    pub fn battery_projected_lifetime(&self) -> Option<Seconds> {
        let devices = self.ba_pool.devices();
        if devices.is_empty() {
            return None;
        }
        // The pool's lifetime is its worst member's.
        devices
            .iter()
            .map(|d| d.lifetime().projected_lifetime())
            .min_by(|a, b| a.get().total_cmp(&b.get()))
    }

    /// Total battery life fraction consumed so far (0 for no battery).
    #[must_use]
    pub fn battery_life_used(&self) -> Ratio {
        let devices = self.ba_pool.devices();
        devices
            .iter()
            .map(|d| d.lifetime().life_used())
            .fold(Ratio::ZERO, Ratio::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_default() -> HybridBuffers {
        HybridBuffers::build(
            Joules::from_watt_hours(150.0),
            Ratio::new_clamped(0.3),
            Ratio::new_clamped(0.8),
        )
    }

    #[test]
    fn capacity_split_matches_fractions() {
        let b = build_default();
        let sc = b.sc_pool().usable_capacity().as_watt_hours().get();
        let ba = b.ba_pool().usable_capacity().as_watt_hours().get();
        assert!((sc - 45.0).abs() < 0.5, "SC share {sc} Wh");
        assert!((ba - 105.0).abs() < 0.5, "battery share {ba} Wh");
    }

    #[test]
    fn starts_full() {
        let b = build_default();
        assert!((b.total_available() / b.total_capacity() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ba_only_configuration_has_empty_sc_pool() {
        let b = HybridBuffers::build(
            Joules::from_watt_hours(150.0),
            Ratio::ZERO,
            Ratio::new_clamped(0.8),
        );
        assert!(b.sc_pool().is_empty());
        // An empty pool has no usable capacity, so its SoC reads zero.
        assert_eq!(b.sc_pool().soc(), Ratio::ZERO);
        assert!((b.total_capacity().as_watt_hours().get() - 150.0).abs() < 0.5);
        assert!(b.battery_projected_lifetime().is_some());
    }

    #[test]
    fn sc_only_configuration_has_no_battery_lifetime() {
        let b = HybridBuffers::build(
            Joules::from_watt_hours(50.0),
            Ratio::ONE,
            Ratio::new_clamped(0.8),
        );
        assert!(b.ba_pool().is_empty());
        assert!(b.battery_projected_lifetime().is_none());
        assert_eq!(b.battery_life_used(), Ratio::ZERO);
    }

    #[test]
    fn discharge_power_is_meaningful() {
        let b = build_default();
        // The pools must be able to cover the prototype's worst-case
        // 160 W mismatch comfortably.
        assert!(b.total_discharge_power().get() > 160.0);
    }

    #[test]
    fn capacity_scales_with_dod() {
        let tight = HybridBuffers::build(
            Joules::from_watt_hours(100.0),
            Ratio::new_clamped(0.3),
            Ratio::new_clamped(0.4),
        );
        // Total usable is what was asked for, regardless of DoD — DoD
        // changes the *physical* battery behind it.
        assert!((tight.total_capacity().as_watt_hours().get() - 100.0).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = HybridBuffers::build(Joules::zero(), Ratio::HALF, Ratio::HALF);
    }

    #[test]
    fn split_strings_preserve_total_capacity() {
        let mono = build_default();
        let split = HybridBuffers::build_split(
            Joules::from_watt_hours(150.0),
            Ratio::new_clamped(0.3),
            Ratio::new_clamped(0.8),
            3,
        );
        assert_eq!(split.ba_pool().len(), 3);
        let mono_wh = mono.total_capacity().as_watt_hours().get();
        let split_wh = split.total_capacity().as_watt_hours().get();
        assert!(
            (mono_wh - split_wh).abs() < 1.0,
            "splitting must not change capacity: {mono_wh} vs {split_wh}"
        );
        // Quarantining one of three strings removes ~1/3 of the battery
        // share and nothing else.
        let mut split = split;
        let before = split.ba_available().get();
        assert!(split.ba_pool_mut().quarantine(1));
        let after = split.ba_available().get();
        assert!(
            (after / before - 2.0 / 3.0).abs() < 0.05,
            "one string of three is a third of the pool: {before} -> {after}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one battery string")]
    fn zero_strings_panics() {
        let _ =
            HybridBuffers::build_split(Joules::from_watt_hours(10.0), Ratio::HALF, Ratio::HALF, 0);
    }
}
