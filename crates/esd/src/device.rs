//! The common interface every energy buffer exposes to the controller.

use heb_units::{Joules, Ratio, Seconds, Volts, Watts};

/// Accounting for one discharge step.
///
/// Invariant: `delivered + loss == drained` (up to floating-point noise),
/// and `drained` never exceeds what the device held.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DischargeResult {
    /// Useful energy handed to the load at the device terminals.
    pub delivered: Joules,
    /// Energy removed from the internal store.
    pub drained: Joules,
    /// Energy dissipated inside the device (ohmic and conversion loss).
    pub loss: Joules,
}

impl DischargeResult {
    /// A zero transfer (device empty or request zero).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any energy moved.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.drained.is_zero()
    }

    /// Fraction of the drained energy that reached the load.
    ///
    /// Returns `Ratio::ONE` for an empty transfer so that aggregating
    /// code never divides by zero.
    #[must_use]
    pub fn efficiency(&self) -> Ratio {
        if self.drained.is_zero() {
            Ratio::ONE
        } else {
            Ratio::new_clamped(self.delivered / self.drained)
        }
    }

    /// Accumulates another step's accounting into this one.
    pub fn absorb(&mut self, other: Self) {
        self.delivered += other.delivered;
        self.drained += other.drained;
        self.loss += other.loss;
    }
}

/// Accounting for one charge step.
///
/// Invariant: `drawn == stored + loss` (up to floating-point noise).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChargeResult {
    /// Energy pulled from the source (utility or renewable surplus).
    pub drawn: Joules,
    /// Energy that ended up in the internal store.
    pub stored: Joules,
    /// Energy dissipated during charging.
    pub loss: Joules,
}

impl ChargeResult {
    /// A zero transfer (device full or offer zero).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any energy moved.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.drawn.is_zero()
    }

    /// Fraction of the drawn energy that was actually stored.
    ///
    /// Returns `Ratio::ONE` for an empty transfer.
    #[must_use]
    pub fn efficiency(&self) -> Ratio {
        if self.drawn.is_zero() {
            Ratio::ONE
        } else {
            Ratio::new_clamped(self.stored / self.drawn)
        }
    }

    /// Accumulates another step's accounting into this one.
    pub fn absorb(&mut self, other: Self) {
        self.drawn += other.drawn;
        self.stored += other.stored;
        self.loss += other.loss;
    }
}

/// A dispatchable energy buffer: a battery string, a super-capacitor
/// module, or a [`Bank`](crate::Bank) of either.
///
/// The HEB controller drives devices exclusively through this trait, which
/// keeps the policy layer agnostic of chemistry. Implementations advance
/// their own internal state on every `discharge`/`charge`/`idle` call;
/// exactly one of the three must be invoked per simulation tick.
pub trait StorageDevice {
    /// Usable energy when completely full, after depth-of-discharge
    /// limits. This is the "capacity" in the paper's capacity-planning
    /// experiments (Figures 13–14).
    fn usable_capacity(&self) -> Joules;

    /// Usable energy currently available for discharge, after
    /// depth-of-discharge limits and (for batteries) the kinetic
    /// availability of charge.
    fn available_energy(&self) -> Joules;

    /// State of charge over the usable window: `available / usable`.
    fn soc(&self) -> Ratio {
        if self.usable_capacity().is_zero() {
            Ratio::ZERO
        } else {
            Ratio::new_clamped(self.available_energy() / self.usable_capacity())
        }
    }

    /// Room left for charging, in stored joules.
    fn headroom(&self) -> Joules;

    /// The greatest load power the device can serve *right now* without
    /// violating current limits or collapsing its terminal voltage.
    /// A [`Bank`](crate::Bank) splits requests in proportion to it; a
    /// member that reports `+inf` is offered everything still unserved.
    fn max_discharge_power(&self) -> Watts;

    /// The greatest charging power the device can absorb *right now*.
    /// For lead-acid this is bounded by the charge-current cap; for
    /// super-capacitors it is effectively the wiring limit. A bank splits
    /// by it as by [`StorageDevice::max_discharge_power`].
    fn max_charge_power(&self) -> Watts;

    /// Terminal voltage at open circuit (no load).
    fn open_circuit_voltage(&self) -> Volts;

    /// Terminal voltage while sourcing `load` (sagging under current).
    fn loaded_voltage(&self, load: Watts) -> Volts;

    /// Sources up to `request` watts for `dt`, returning the accounting.
    /// Delivers less than requested when the device is empty or
    /// current-limited; never delivers more.
    fn discharge(&mut self, request: Watts, dt: Seconds) -> DischargeResult;

    /// Sinks up to `offered` watts for `dt`, returning the accounting.
    /// Accepts less than offered when full or charge-current-limited.
    fn charge(&mut self, offered: Watts, dt: Seconds) -> ChargeResult;

    /// Advances `dt` with no power exchanged. Batteries use this to model
    /// the recovery effect (bound charge migrating back to the available
    /// well).
    fn idle(&mut self, dt: Seconds);

    /// Performs one [`StorageDevice::idle`] step and reports whether the
    /// device's *feedback* state — everything that influences future
    /// charge/discharge behaviour — ended bitwise-identical to where it
    /// started. Pure time accumulators (calendar-life clocks, cycle
    /// counters) are excluded: they keep advancing but never feed back
    /// into the physics.
    ///
    /// Once this returns `true`, every further idle of the same `dt` is
    /// guaranteed to leave the feedback state untouched (the update is a
    /// pure function of that state), so a caller may replay the
    /// remaining idles of a quiet span with
    /// [`StorageDevice::idle_accumulate`]. The default implementation is
    /// conservative: it idles and reports `false`, which keeps unknown
    /// chemistries on the exact per-tick path.
    fn idle_settled(&mut self, dt: Seconds) -> bool {
        self.idle(dt);
        false
    }

    /// Replays only the pure-accumulator portion of `n` idle steps —
    /// the part of [`StorageDevice::idle`] that is not covered by a
    /// settled feedback state. Callers must only use this after
    /// [`StorageDevice::idle_settled`] returned `true` for the same
    /// `dt`; the result is then bitwise-identical to `n` further
    /// [`StorageDevice::idle`] calls. The default implementation simply
    /// performs the full idles, which is always correct.
    fn idle_accumulate(&mut self, dt: Seconds, n: u64) {
        for _ in 0..n {
            self.idle(dt);
        }
    }

    /// Whether the device can still deliver meaningful power (not
    /// depleted to its DoD floor).
    fn is_depleted(&self) -> bool {
        self.available_energy().get() <= 1e-9
    }

    /// Whether the device has no charging headroom left.
    fn is_full(&self) -> bool {
        self.headroom().get() <= 1e-9
    }

    /// Applies a step of ageing: permanently fades usable capacity by
    /// `capacity_fade` (0 = none, 1 = total) and grows internal
    /// resistance by `resistance_growth` (0 = none, 1 = doubled). The
    /// fault-injection layer uses this to model calendar/cycle ageing
    /// and sulfation events mid-run.
    ///
    /// The default implementation is a no-op so that chemistries without
    /// an ageing model remain valid implementations.
    fn degrade(&mut self, capacity_fade: Ratio, resistance_growth: f64) {
        let _ = (capacity_fade, resistance_growth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discharge_result_efficiency() {
        let r = DischargeResult {
            delivered: Joules::new(80.0),
            drained: Joules::new(100.0),
            loss: Joules::new(20.0),
        };
        assert!((r.efficiency().get() - 0.8).abs() < 1e-12);
        assert!(!r.is_empty());
        assert_eq!(DischargeResult::none().efficiency(), Ratio::ONE);
        assert!(DischargeResult::none().is_empty());
    }

    #[test]
    fn charge_result_efficiency() {
        let r = ChargeResult {
            drawn: Joules::new(100.0),
            stored: Joules::new(90.0),
            loss: Joules::new(10.0),
        };
        assert!((r.efficiency().get() - 0.9).abs() < 1e-12);
        assert_eq!(ChargeResult::none().efficiency(), Ratio::ONE);
    }

    #[test]
    fn absorb_accumulates() {
        let mut acc = DischargeResult::none();
        for _ in 0..3 {
            acc.absorb(DischargeResult {
                delivered: Joules::new(10.0),
                drained: Joules::new(12.0),
                loss: Joules::new(2.0),
            });
        }
        assert_eq!(acc.delivered, Joules::new(30.0));
        assert_eq!(acc.drained, Joules::new(36.0));
        assert_eq!(acc.loss, Joules::new(6.0));

        let mut c = ChargeResult::none();
        c.absorb(ChargeResult {
            drawn: Joules::new(5.0),
            stored: Joules::new(4.0),
            loss: Joules::new(1.0),
        });
        assert_eq!(c.drawn, Joules::new(5.0));
    }
}
