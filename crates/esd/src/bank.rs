//! Parallel composition of identical devices into a dispatchable pool.
//!
//! The HEB architecture (Figure 8) pools batteries into a battery bank
//! and super-capacitor modules into an SC pool; the controller addresses
//! each pool as one logical buffer. [`Bank`] implements that aggregation:
//! power requests are split across member devices proportionally to what
//! each can serve, with a redistribution pass so that one depleted member
//! does not strand capacity held by its siblings.

use crate::device::{ChargeResult, DischargeResult, StorageDevice};
use heb_telemetry::{null_recorder, EsdEvent, Event, PoolId, RecorderHandle};
use heb_units::{Joules, Seconds, Volts, Watts};

/// A pool of identical storage devices dispatched as one logical buffer.
///
/// # Examples
///
/// ```
/// use heb_esd::{Bank, StorageDevice, SuperCapacitor};
/// use heb_units::{Seconds, Watts};
///
/// let mut pool = Bank::new(
///     (0..3).map(|_| SuperCapacitor::prototype_module()).collect::<Vec<_>>(),
/// );
/// assert_eq!(pool.len(), 3);
/// let r = pool.discharge(Watts::new(300.0), Seconds::new(1.0));
/// assert!(r.delivered.get() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Bank<D> {
    devices: Vec<D>,
    /// Per-member quarantine flags (fault isolation). A quarantined
    /// member is excluded from aggregates and dispatch but keeps its
    /// state of charge, so restoring it returns exactly the energy it
    /// held — nothing is created or destroyed by isolation itself.
    quarantined: Vec<bool>,
    /// Telemetry sink (default null). Purely observational: it never
    /// influences dispatch, so it is excluded from equality.
    recorder: RecorderHandle,
    /// Which logical pool this bank plays in the telemetry stream;
    /// `None` until [`Bank::set_recorder`] assigns one.
    pool: Option<PoolId>,
    /// Dispatch scratch (per-member weights), recycled call to call so
    /// the per-tick hot path does not allocate. Not state: excluded
    /// from equality.
    scratch_weights: Vec<Watts>,
    /// Dispatch scratch (members driven this call), recycled likewise.
    scratch_used: Vec<bool>,
}

/// Equality is over simulated state only — two banks with the same
/// members and quarantine flags are equal regardless of where their
/// telemetry flows.
impl<D: PartialEq> PartialEq for Bank<D> {
    fn eq(&self, other: &Self) -> bool {
        self.devices == other.devices && self.quarantined == other.quarantined
    }
}

impl<D: StorageDevice> Bank<D> {
    /// Creates a bank from member devices. An empty bank is legal and
    /// behaves as a zero-capacity buffer (useful for `BaOnly`-style
    /// configurations with no SC pool).
    #[must_use]
    pub fn new(devices: Vec<D>) -> Self {
        let quarantined = vec![false; devices.len()];
        Self {
            devices,
            quarantined,
            recorder: null_recorder(),
            pool: None,
            scratch_weights: Vec::new(),
            scratch_used: Vec::new(),
        }
    }

    /// An empty, zero-capacity bank.
    #[must_use]
    pub fn empty() -> Self {
        Self::new(Vec::new())
    }

    /// Routes this bank's structural events (quarantine, restore,
    /// ageing) to `recorder`, identified as `pool` in the stream.
    pub fn set_recorder(&mut self, pool: PoolId, recorder: RecorderHandle) {
        self.pool = Some(pool);
        self.recorder = recorder;
    }

    /// Emits an ESD event if recording is on and a pool id was
    /// assigned; with the default null recorder the closure never
    /// runs, so event construction costs nothing.
    fn emit(&self, event: impl FnOnce(PoolId) -> EsdEvent) {
        if let Some(pool) = self.pool {
            if self.recorder.is_enabled() {
                self.recorder.record(&Event::Esd(event(pool)));
            }
        }
    }

    /// Number of member devices (including quarantined ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the bank has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Immutable view of the member devices (including quarantined
    /// ones — check [`Bank::is_quarantined`] before interpreting one as
    /// dispatchable).
    #[must_use]
    pub fn devices(&self) -> &[D] {
        &self.devices
    }

    /// Mutable view of the member devices (for experiment setup such as
    /// presetting SoC).
    pub fn devices_mut(&mut self) -> &mut [D] {
        &mut self.devices
    }

    /// Adds a device to the pool (the architecture's scale-out knob).
    pub fn push(&mut self, device: D) {
        self.devices.push(device);
        self.quarantined.push(false);
    }

    /// Takes member `index` out of service: it stops contributing to
    /// capacity, power limits, and dispatch, but retains its charge.
    /// Returns `false` (and does nothing) if the index is out of range
    /// or the member is already quarantined.
    pub fn quarantine(&mut self, index: usize) -> bool {
        match self.quarantined.get_mut(index) {
            Some(q) if !*q => {
                *q = true;
                self.emit(|pool| EsdEvent::MemberQuarantined {
                    pool,
                    member: index,
                });
                true
            }
            _ => false,
        }
    }

    /// Returns member `index` to service. Returns `false` if the index
    /// is out of range or the member was not quarantined.
    pub fn restore(&mut self, index: usize) -> bool {
        match self.quarantined.get_mut(index) {
            Some(q) if *q => {
                *q = false;
                self.emit(|pool| EsdEvent::MemberRestored {
                    pool,
                    member: index,
                });
                true
            }
            _ => false,
        }
    }

    /// Whether member `index` is currently quarantined (out-of-range
    /// indices read as not quarantined).
    #[must_use]
    pub fn is_quarantined(&self, index: usize) -> bool {
        self.quarantined.get(index).copied().unwrap_or(false)
    }

    /// Number of members currently quarantined.
    #[must_use]
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.iter().filter(|&&q| q).count()
    }

    /// Number of members currently in service.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.devices.len() - self.quarantined_count()
    }

    /// Iterator over the in-service members.
    fn active(&self) -> impl Iterator<Item = &D> {
        self.devices
            .iter()
            .zip(self.quarantined.iter())
            .filter_map(|(d, &q)| (!q).then_some(d))
    }

    /// Whether an offered charge would move no energy through this bank:
    /// every in-service member is full with zero charge acceptance.
    ///
    /// In this state `Bank::charge` with any positive offer reduces to
    /// exactly one [`StorageDevice::idle`] per member (in-service
    /// members through their own full-device charge path, quarantined
    /// members through the untouched-member sweep), which is what lets
    /// the event core fast-forward quiet spans without calling the
    /// dispatch machinery per tick.
    #[must_use]
    pub fn charge_quiescent(&self) -> bool {
        self.devices
            .iter()
            .zip(self.quarantined.iter())
            .all(|(d, &q)| q || (d.is_full() && d.max_charge_power().get() <= 0.0))
    }

    /// Splits `total` across members proportionally to `weight`, calls
    /// `f` per member, and re-offers any shortfall to members the first
    /// pass did not touch. A member is driven **at most once per call**
    /// — each `f` invocation advances that device's internal clock by
    /// `dt`, so re-offering to an already-driven member would make it
    /// live two ticks in one. Members never driven this call idle
    /// instead (battery recovery keeps flowing).
    ///
    /// An infinite weight makes its member's pass-1 share `total·(∞/∞)`,
    /// a NaN; the share is capped as `remaining.min(share)`, which keeps
    /// `remaining` against a NaN, so such a member is offered everything
    /// still unserved, and a finite-weight member's share is zero.
    ///
    /// A one-member bank skips the split when `total > 1e-9`: its
    /// member is driven with exactly `total` (pass 1 offers
    /// `total·(w/w) = total` for a finite positive weight `w` and
    /// `remaining = total` for an infinite one, and pass 2 offers
    /// `total` for any other `w`), and a quarantined member
    /// idles. The weight is then never computed; a smaller or NaN
    /// `total` takes the general path.
    fn dispatch<R: Copy + Default>(
        &mut self,
        total: Watts,
        dt: Seconds,
        weight: impl Fn(&D) -> Watts,
        mut f: impl FnMut(&mut D, Watts, Seconds) -> R,
        realized: impl Fn(&R) -> Watts,
        mut absorb: impl FnMut(&mut R, R),
    ) -> R {
        let mut acc = R::default();
        if self.devices.is_empty() {
            return acc;
        }
        if total.get() <= 0.0 {
            self.idle(dt);
            return acc;
        }
        if let ([member], [quarantined]) =
            (self.devices.as_mut_slice(), self.quarantined.as_slice())
        {
            if *quarantined {
                member.idle(dt);
                return acc;
            }
            if total.get() > 1e-9 {
                absorb(&mut acc, f(member, total, dt));
                return acc;
            }
        }
        // Quarantined members carry zero weight and are skipped by both
        // passes; they idle with the rest of the untouched members.
        let mut weights = std::mem::take(&mut self.scratch_weights);
        weights.clear();
        weights.extend(
            self.devices
                .iter()
                .zip(self.quarantined.iter())
                .map(|(d, &q)| if q { Watts::zero() } else { weight(d) }),
        );
        let cap: Watts = weights.iter().copied().sum();
        let mut used = std::mem::take(&mut self.scratch_used);
        used.clear();
        used.resize(self.devices.len(), false);
        let mut remaining = total;
        // Pass 1: proportional split by capability.
        if cap.get() > 0.0 {
            for (idx, device) in self.devices.iter_mut().enumerate() {
                let share = total * (weights[idx] / cap);
                let share = remaining.min(share);
                if share.get() <= 0.0 {
                    continue;
                }
                let r = f(device, share, dt);
                used[idx] = true;
                remaining -= realized(&r);
                absorb(&mut acc, r);
                if remaining.get() <= 1e-9 {
                    break;
                }
            }
        }
        // Pass 2: offer the shortfall to members pass 1 never drove.
        if remaining.get() > 1e-9 {
            for (idx, device) in self.devices.iter_mut().enumerate() {
                if used[idx] || self.quarantined[idx] {
                    continue;
                }
                let r = f(device, remaining, dt);
                used[idx] = true;
                remaining -= realized(&r);
                absorb(&mut acc, r);
                if remaining.get() <= 1e-9 {
                    break;
                }
            }
        }
        // Untouched members idle so their internal clocks stay aligned.
        for (idx, device) in self.devices.iter_mut().enumerate() {
            if !used[idx] {
                device.idle(dt);
            }
        }
        self.scratch_weights = weights;
        self.scratch_used = used;
        acc
    }
}

impl<D: StorageDevice> StorageDevice for Bank<D> {
    fn usable_capacity(&self) -> Joules {
        self.active().map(StorageDevice::usable_capacity).sum()
    }

    fn available_energy(&self) -> Joules {
        self.active().map(StorageDevice::available_energy).sum()
    }

    fn headroom(&self) -> Joules {
        self.active().map(StorageDevice::headroom).sum()
    }

    fn max_discharge_power(&self) -> Watts {
        self.active().map(StorageDevice::max_discharge_power).sum()
    }

    fn max_charge_power(&self) -> Watts {
        self.active().map(StorageDevice::max_charge_power).sum()
    }

    fn open_circuit_voltage(&self) -> Volts {
        // Members are paralleled behind per-device converters; report the
        // mean in-service member voltage as the pool telemetry value.
        let n = self.active_count();
        if n == 0 {
            return Volts::zero();
        }
        let sum: Volts = self.active().map(StorageDevice::open_circuit_voltage).sum();
        sum / n as f64
    }

    fn loaded_voltage(&self, load: Watts) -> Volts {
        let n = self.active_count();
        if n == 0 {
            return Volts::zero();
        }
        let share = load / n as f64;
        let sum: Volts = self.active().map(|d| d.loaded_voltage(share)).sum();
        sum / n as f64
    }

    fn discharge(&mut self, request: Watts, dt: Seconds) -> DischargeResult {
        if request.get() <= 0.0 {
            self.idle(dt);
            return DischargeResult::none();
        }

        self.dispatch(
            request,
            dt,
            StorageDevice::max_discharge_power,
            |d, p, dt| d.discharge(p, dt),
            |r: &DischargeResult| {
                if dt.get() > 0.0 {
                    r.delivered / dt
                } else {
                    Watts::zero()
                }
            },
            DischargeResult::absorb,
        )
    }

    fn charge(&mut self, offered: Watts, dt: Seconds) -> ChargeResult {
        if offered.get() <= 0.0 {
            self.idle(dt);
            return ChargeResult::none();
        }
        self.dispatch(
            offered,
            dt,
            StorageDevice::max_charge_power,
            |d, p, dt| d.charge(p, dt),
            |r: &ChargeResult| {
                if dt.get() > 0.0 {
                    r.drawn / dt
                } else {
                    Watts::zero()
                }
            },
            ChargeResult::absorb,
        )
    }

    fn idle(&mut self, dt: Seconds) {
        for device in &mut self.devices {
            device.idle(dt);
        }
    }

    /// One batched settling sweep over every member (quarantined ones
    /// included — their clocks advance exactly as [`Bank::idle`] would
    /// advance them). True only when *every* member settled; no
    /// short-circuit, so each member is driven exactly once.
    fn idle_settled(&mut self, dt: Seconds) -> bool {
        let mut settled = true;
        for device in &mut self.devices {
            settled &= device.idle_settled(dt);
        }
        settled
    }

    /// Replays `n` idle steps for every member in one sweep. Valid under
    /// the same contract as the per-device method: only after
    /// [`StorageDevice::idle_settled`] returned `true` for this bank at
    /// the same `dt`, which implies every member settled.
    fn idle_accumulate(&mut self, dt: Seconds, n: u64) {
        for device in &mut self.devices {
            device.idle_accumulate(dt, n);
        }
    }

    fn degrade(&mut self, capacity_fade: heb_units::Ratio, resistance_growth: f64) {
        // Ageing hits every member, quarantined or not — a string on the
        // repair bench fades just like its in-service siblings.
        for device in &mut self.devices {
            device.degrade(capacity_fade, resistance_growth);
        }
        self.emit(|pool| EsdEvent::Degraded {
            pool,
            capacity_fade,
            resistance_growth,
        });
    }
}

impl<D> FromIterator<D> for Bank<D> {
    fn from_iter<I: IntoIterator<Item = D>>(iter: I) -> Self {
        let devices: Vec<D> = iter.into_iter().collect();
        let quarantined = vec![false; devices.len()];
        Self {
            devices,
            quarantined,
            recorder: null_recorder(),
            pool: None,
            scratch_weights: Vec::new(),
            scratch_used: Vec::new(),
        }
    }
}

impl<D> Extend<D> for Bank<D> {
    fn extend<I: IntoIterator<Item = D>>(&mut self, iter: I) {
        self.devices.extend(iter);
        self.quarantined.resize(self.devices.len(), false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LeadAcidBattery, SuperCapacitor};
    use heb_units::Ratio;

    const TICK: Seconds = Seconds::new(1.0);

    fn sc_bank(n: usize) -> Bank<SuperCapacitor> {
        (0..n).map(|_| SuperCapacitor::prototype_module()).collect()
    }

    #[test]
    fn empty_bank_is_inert() {
        let mut bank: Bank<SuperCapacitor> = Bank::empty();
        assert!(bank.is_empty());
        assert!(bank.usable_capacity().is_zero());
        assert!(bank.discharge(Watts::new(100.0), TICK).is_empty());
        assert!(bank.charge(Watts::new(100.0), TICK).is_empty());
        assert_eq!(bank.open_circuit_voltage(), Volts::zero());
    }

    #[test]
    fn charge_quiescence_tracks_headroom_and_quarantine() {
        let mut bank = sc_bank(2);
        // Factory-full modules accept nothing: quiescent.
        assert!(bank.charge_quiescent());
        // Drain one member; it now has headroom and a nonzero charge cap.
        let _ = bank.devices_mut()[0].discharge(Watts::new(100.0), TICK);
        assert!(!bank.charge_quiescent());
        // Quarantining the drained member removes it from dispatch, so
        // the bank is quiescent again even though the member could charge.
        assert!(bank.quarantine(0));
        assert!(bank.charge_quiescent());
        assert!(bank.restore(0));
        assert!(!bank.charge_quiescent());
        // An empty bank has nothing to charge.
        assert!(Bank::<SuperCapacitor>::empty().charge_quiescent());
    }

    #[test]
    fn an_infinite_weight_gets_finite_requests() {
        // Member 1 reports an unbounded power limit; the split must
        // still offer every member a finite share of the total.
        let mut bank = sc_bank(3);
        bank.devices_mut()[1].set_soc(Ratio::new_unclamped(0.9));
        let weight = |d: &SuperCapacitor| {
            if d.soc().get() < 0.95 {
                Watts::new(f64::INFINITY)
            } else {
                Watts::new(100.0)
            }
        };
        for (total, served) in [(300.0, 1.0), (300.0, 0.5)] {
            let mut offers = Vec::new();
            let realized = bank.dispatch(
                Watts::new(total),
                TICK,
                weight,
                |_, request, _| {
                    offers.push(request.get());
                    request * served
                },
                |r: &Watts| *r,
                |acc: &mut Watts, r| *acc += r,
            );
            assert!(!offers.is_empty(), "{total} W must be offered");
            assert!(
                offers.iter().all(|o| o.is_finite() && *o > 0.0),
                "{offers:?}"
            );
            assert!(realized.get() <= total, "{realized:?} of {total} W");
            // The unbounded member is offered the whole total; pass 2
            // offers any shortfall to the others in member order.
            assert_eq!(offers[0], total, "{offers:?}");
        }
    }

    #[test]
    fn capacity_aggregates() {
        let bank = sc_bank(3);
        let single = SuperCapacitor::prototype_module();
        assert!((bank.usable_capacity().get() - 3.0 * single.usable_capacity().get()).abs() < 1e-6);
    }

    #[test]
    fn discharge_splits_across_members() {
        let mut bank = sc_bank(2);
        let r = bank.discharge(Watts::new(200.0), TICK);
        assert!((r.delivered.get() - 200.0).abs() < 5.0);
        let socs: Vec<f64> = bank.devices().iter().map(|d| d.soc().get()).collect();
        assert!((socs[0] - socs[1]).abs() < 1e-6, "equal split expected");
    }

    #[test]
    fn shortfall_redistributes_to_charged_members() {
        let mut bank = sc_bank(2);
        bank.devices_mut()[0].set_soc(Ratio::ZERO);
        let r = bank.discharge(Watts::new(200.0), TICK);
        // Member 1 must cover (nearly) the whole request.
        assert!(
            r.delivered.get() > 190.0,
            "got only {} W·s",
            r.delivered.get()
        );
    }

    #[test]
    fn charge_respects_member_limits() {
        let mut bank: Bank<LeadAcidBattery> = (0..2)
            .map(|_| LeadAcidBattery::prototype_string())
            .collect();
        for d in bank.devices_mut() {
            d.set_soc(Ratio::HALF);
        }
        let r = bank.charge(Watts::new(10_000.0), TICK);
        // Two strings at 0.25C (2 A) each accept well under 10 kW.
        assert!(r.drawn.get() < 300.0);
        assert!(r.stored.get() > 0.0);
    }

    #[test]
    fn bank_of_batteries_recovers_when_idle() {
        let mut bank: Bank<LeadAcidBattery> = (0..2)
            .map(|_| LeadAcidBattery::prototype_string())
            .collect();
        for _ in 0..20_000 {
            if bank.discharge(Watts::new(400.0), TICK).is_empty() {
                break;
            }
        }
        let exhausted = bank.max_discharge_power();
        bank.idle(Seconds::from_hours(1.0));
        assert!(bank.max_discharge_power() > exhausted);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut bank: Bank<SuperCapacitor> =
            std::iter::once(SuperCapacitor::prototype_module()).collect();
        bank.extend(std::iter::once(SuperCapacitor::prototype_module()));
        bank.push(SuperCapacitor::prototype_module());
        assert_eq!(bank.len(), 3);
        assert_eq!(bank.active_count(), 3);
    }

    #[test]
    fn quarantine_excludes_member_without_destroying_energy() {
        let mut bank = sc_bank(3);
        let full = bank.available_energy();
        let per_member = full.get() / 3.0;
        assert!(bank.quarantine(1));
        assert!(bank.is_quarantined(1));
        assert_eq!(bank.quarantined_count(), 1);
        assert_eq!(bank.active_count(), 2);
        // Aggregates drop to the two in-service members...
        assert!((bank.available_energy().get() - 2.0 * per_member).abs() < 1e-6);
        // ...and return exactly on restore: isolation moves no energy.
        assert!(bank.restore(1));
        assert!((bank.available_energy().get() - full.get()).abs() < 1e-6);
    }

    #[test]
    fn quarantined_member_is_never_dispatched() {
        let mut bank = sc_bank(2);
        let before = bank.devices()[0].soc();
        bank.quarantine(0);
        let r = bank.discharge(Watts::new(150.0), TICK);
        assert!(r.delivered.get() > 0.0, "survivor must carry the load");
        assert_eq!(
            bank.devices()[0].soc(),
            before,
            "quarantined member must hold its charge"
        );
        assert!(bank.devices()[1].soc() < before);
    }

    #[test]
    fn quarantine_is_idempotent_and_bounds_checked() {
        let mut bank = sc_bank(2);
        assert!(bank.quarantine(0));
        assert!(!bank.quarantine(0), "double quarantine must be a no-op");
        assert!(!bank.quarantine(7), "out of range must be a no-op");
        assert!(!bank.restore(1), "restoring a healthy member is a no-op");
        assert!(!bank.is_quarantined(7));
    }

    #[test]
    fn fully_quarantined_bank_is_inert() {
        let mut bank = sc_bank(2);
        bank.quarantine(0);
        bank.quarantine(1);
        assert!(bank.available_energy().is_zero());
        assert_eq!(bank.max_discharge_power(), Watts::zero());
        assert!(bank.discharge(Watts::new(100.0), TICK).is_empty());
        assert_eq!(bank.open_circuit_voltage(), Volts::zero());
    }

    #[test]
    fn degrade_forwards_to_members() {
        let mut bank = sc_bank(2);
        let before = bank.usable_capacity();
        bank.degrade(Ratio::new_clamped(0.2), 0.5);
        assert!(bank.usable_capacity() < before);
    }

    #[test]
    fn structural_events_flow_to_the_recorder() {
        use heb_telemetry::{PoolId, RingRecorder};
        use std::sync::Arc;

        let ring = Arc::new(RingRecorder::new(16));
        let mut bank = sc_bank(2);
        bank.set_recorder(PoolId::SuperCap, Arc::clone(&ring) as _);
        bank.quarantine(0);
        bank.quarantine(0); // no-op: must not emit
        bank.restore(0);
        bank.degrade(Ratio::new_clamped(0.1), 0.2);
        let kinds: Vec<&str> = ring.events().iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            [
                "esd.member_quarantined",
                "esd.member_restored",
                "esd.degraded"
            ]
        );
    }

    #[test]
    fn equality_ignores_the_recorder() {
        use heb_telemetry::{PoolId, RingRecorder};
        use std::sync::Arc;

        let plain = sc_bank(2);
        let mut instrumented = sc_bank(2);
        instrumented.set_recorder(PoolId::SuperCap, Arc::new(RingRecorder::new(4)) as _);
        assert_eq!(plain, instrumented);
    }
}
