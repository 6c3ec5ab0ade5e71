//! Lead-acid battery model: KiBaM kinetics + Shepherd-style voltage.
//!
//! The model reproduces the four battery behaviours the paper's
//! characterisation (Section 3.1) turns into design constraints:
//!
//! 1. **Rate-capacity (Peukert) effect** — at high discharge current the
//!    available well of the kinetic battery model (KiBaM) empties faster
//!    than bound charge can migrate in, so less total energy is usable.
//! 2. **Recovery effect** — during idle periods bound charge migrates
//!    back into the available well, "recovering" energy that seemed lost
//!    (Figure 3's +6–24 % recovered efficiency).
//! 3. **Sharp voltage knee under load** — terminal voltage is open-circuit
//!    voltage minus an SoC-dependent internal drop, collapsing under the
//!    combination of high current and low SoC (Figure 5).
//! 4. **Bounded charge acceptance** — charging current is capped at a
//!    C-rate limit with a taper near full, which is what throttles
//!    renewable-valley absorption (Section 2.2).

use crate::device::{ChargeResult, DischargeResult, StorageDevice};
use crate::lifetime::{AhThroughputModel, LifetimeParams};
use heb_units::{AmpHours, Amps, Joules, Ohms, Ratio, Seconds, Volts, Watts, SECONDS_PER_HOUR};

/// Electrical and kinetic parameters of a lead-acid string.
#[derive(Debug, Clone, PartialEq)]
pub struct LeadAcidParams {
    /// Nominal string voltage used for capacity bookkeeping (24 V in the
    /// prototype).
    pub nominal_voltage: Volts,
    /// Nameplate capacity at the 20-hour rate.
    pub capacity: AmpHours,
    /// KiBaM available-well fraction `c` (0 < c < 1).
    pub kibam_c: f64,
    /// KiBaM rate constant `k'` in 1/s governing well-to-well charge
    /// migration (and thus recovery speed).
    pub kibam_k: f64,
    /// Base ohmic internal resistance.
    pub internal_resistance: Ohms,
    /// Concentration-polarisation coefficient: the effective resistance
    /// grows as `polarization / (h₁ + 0.08)` where `h₁` is the
    /// available-well fullness, producing the voltage knee under
    /// sustained load and its recovery after rest.
    pub polarization: Ohms,
    /// Open-circuit voltage when full.
    pub ocv_full: Volts,
    /// Open-circuit voltage when (physically) empty.
    pub ocv_empty: Volts,
    /// Low-voltage cutoff: discharge current is limited so the terminal
    /// voltage never drops below this.
    pub cutoff_voltage: Volts,
    /// Coulombic efficiency of charging (gassing losses).
    pub coulombic_efficiency: Ratio,
    /// Maximum charging C-rate (fraction of capacity per hour).
    pub max_charge_c_rate: f64,
    /// Management depth-of-discharge limit: the controller never draws
    /// the battery below `1 − dod_limit` of nameplate charge.
    pub dod_limit: Ratio,
    /// Ah-throughput lifetime parameters.
    pub lifetime: LifetimeParams,
    /// Thermal parameters: overheating is what physically caps charging
    /// current ("batteries cannot be re-charged very fast with large
    /// charging current"), and heat accelerates plate wear.
    pub thermal: ThermalParams,
}

/// Lumped thermal model of a battery string: internal losses heat one
/// thermal mass that Newton-cools to ambient; charging derates linearly
/// between the derate-onset and shutdown temperatures; wear accelerates
/// with temperature (the classic lead-acid rule of thumb: life halves
/// per +10 K over 25 °C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalParams {
    /// Ambient temperature, °C.
    pub ambient_c: f64,
    /// Thermal capacitance of the string, J/K.
    pub capacitance_j_per_k: f64,
    /// Thermal resistance to ambient, K/W.
    pub resistance_k_per_w: f64,
    /// Temperature at which charge-current derating begins, °C.
    pub derate_onset_c: f64,
    /// Temperature at which charging is cut entirely, °C.
    pub charge_cutoff_c: f64,
    /// Extra wear per kelvin above 25 °C (0.07 ≈ the half-life-per-10-K
    /// rule linearised).
    pub wear_per_kelvin: f64,
}

impl ThermalParams {
    /// Defaults for a small enclosed 24 V string.
    #[must_use]
    pub fn prototype() -> Self {
        Self {
            ambient_c: 25.0,
            capacitance_j_per_k: 6_000.0,
            resistance_k_per_w: 1.0,
            derate_onset_c: 40.0,
            charge_cutoff_c: 55.0,
            wear_per_kelvin: 0.07,
        }
    }
}

impl LeadAcidParams {
    /// The 24 V / 8 Ah deep-cycle string of the scale-down prototype.
    #[must_use]
    pub fn prototype_string() -> Self {
        let capacity = AmpHours::new(8.0);
        Self {
            nominal_voltage: Volts::new(24.0),
            capacity,
            kibam_c: 0.55,
            kibam_k: 3.0e-4,
            internal_resistance: Ohms::new(0.12),
            polarization: Ohms::new(0.09),
            ocv_full: Volts::new(25.2),
            ocv_empty: Volts::new(23.1),
            cutoff_voltage: Volts::new(21.0),
            coulombic_efficiency: Ratio::new_clamped(0.85),
            max_charge_c_rate: 0.12,
            dod_limit: Ratio::new_clamped(0.8),
            lifetime: LifetimeParams::deep_cycle_lead_acid(capacity),
            thermal: ThermalParams::prototype(),
        }
    }

    /// Prototype string scaled to a different nameplate capacity, with
    /// internal resistance scaled inversely (bigger banks have more
    /// parallel paths).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive.
    #[must_use]
    pub fn with_capacity(capacity: AmpHours) -> Self {
        assert!(capacity.get() > 0.0, "capacity must be positive");
        let base = Self::prototype_string();
        let scale = base.capacity / capacity;
        Self {
            capacity,
            internal_resistance: base.internal_resistance * scale,
            polarization: base.polarization * scale,
            lifetime: LifetimeParams::deep_cycle_lead_acid(capacity),
            ..base
        }
    }

    /// Same parameters with a different management DoD limit (used by the
    /// capacity-planning sweeps of Figures 13–14).
    #[must_use]
    pub fn with_dod_limit(mut self, dod: Ratio) -> Self {
        self.dod_limit = dod;
        self
    }

    fn validate(&self) {
        assert!(
            self.kibam_c > 0.0 && self.kibam_c < 1.0,
            "KiBaM c must be in (0, 1)"
        );
        assert!(self.kibam_k > 0.0, "KiBaM k must be positive");
        assert!(self.capacity.get() > 0.0, "capacity must be positive");
        assert!(
            self.ocv_full > self.ocv_empty,
            "full OCV must exceed empty OCV"
        );
        assert!(
            self.cutoff_voltage < self.ocv_empty,
            "cutoff must sit below the empty OCV"
        );
    }
}

/// A simulated lead-acid battery string.
///
/// # Examples
///
/// ```
/// use heb_esd::{LeadAcidBattery, StorageDevice};
/// use heb_units::{Seconds, Watts};
///
/// let mut battery = LeadAcidBattery::prototype_string();
/// let full = battery.available_energy();
/// let step = battery.discharge(Watts::new(120.0), Seconds::new(60.0));
/// assert!(step.delivered.get() > 0.0);
/// assert!(battery.available_energy() < full);
/// ```
#[derive(Debug, Clone)]
pub struct LeadAcidBattery {
    params: LeadAcidParams,
    /// Available-well charge in coulombs.
    y1: f64,
    /// Bound-well charge in coulombs.
    y2: f64,
    /// String temperature, °C.
    temperature_c: f64,
    lifetime: AhThroughputModel,
    /// The step constants of the last `dt` a charge, discharge or idle
    /// ran. Not state: a pure function of `dt` and the KiBaM `k` and
    /// `c`, which no method changes, so equality ignores it.
    step_memo: KineticStep,
}

/// Equality is over simulated state only; the step-constant memo is
/// ignored.
impl PartialEq for LeadAcidBattery {
    fn eq(&self, other: &Self) -> bool {
        let Self {
            params,
            y1,
            y2,
            temperature_c,
            lifetime,
            step_memo: _,
        } = self;
        *params == other.params
            && *y1 == other.y1
            && *y2 == other.y2
            && *temperature_c == other.temperature_c
            && *lifetime == other.lifetime
    }
}

/// The parts of the closed-form KiBaM step that depend only on `k`,
/// `c` and `dt`: `e = exp(−k·dt)` and the current coefficient `B1` of
/// `y1(dt; i) = A1 − i·B1`.
#[derive(Debug, Clone, Copy)]
struct KineticStep {
    /// The bits of the `dt` the constants were computed for.
    dt_bits: u64,
    e: f64,
    b1: f64,
}

impl KineticStep {
    fn new(k: f64, c: f64, dt: f64) -> Self {
        let e = (-k * dt).exp();
        let b1 = (1.0 - e) / k + c * (k * dt - 1.0 + e) / k;
        Self {
            dt_bits: dt.to_bits(),
            e,
            b1,
        }
    }
}

/// The closed-form KiBaM step from the present wells: `e` and the
/// affine map `y1(dt; i) = a1 − i·b1`.
#[derive(Debug, Clone, Copy)]
struct Kinetics {
    e: f64,
    a1: f64,
    b1: f64,
}

impl LeadAcidBattery {
    /// Creates a full battery from `params`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (see
    /// [`LeadAcidParams`] field docs for the constraints).
    #[must_use]
    pub fn new(params: LeadAcidParams) -> Self {
        params.validate();
        let q_max = params.capacity.as_coulombs().get();
        let lifetime = AhThroughputModel::new(params.lifetime);
        Self {
            y1: params.kibam_c * q_max,
            y2: (1.0 - params.kibam_c) * q_max,
            temperature_c: params.thermal.ambient_c,
            step_memo: KineticStep::new(params.kibam_k, params.kibam_c, 1.0),
            params,
            lifetime,
        }
    }

    /// A full 24 V / 8 Ah prototype string.
    #[must_use]
    pub fn prototype_string() -> Self {
        Self::new(LeadAcidParams::prototype_string())
    }

    /// The model parameters.
    #[must_use]
    pub fn params(&self) -> &LeadAcidParams {
        &self.params
    }

    /// The lifetime (Ah-throughput) accounting for this battery.
    #[must_use]
    pub fn lifetime(&self) -> &AhThroughputModel {
        &self.lifetime
    }

    /// Current string temperature in °C.
    #[must_use]
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// Advances the lumped thermal state: internal `loss` heats the
    /// mass, Newton cooling pulls it toward ambient.
    fn advance_thermal(&mut self, loss: Joules, dt: f64) {
        let t = &self.params.thermal;
        let cooling = (self.temperature_c - t.ambient_c) / t.resistance_k_per_w;
        let net = loss.get() / dt.max(1e-9) - cooling;
        self.temperature_c += net * dt / t.capacitance_j_per_k;
        self.temperature_c = self.temperature_c.max(t.ambient_c - 5.0);
    }

    /// Charge-current multiplier from thermal derating: 1 below the
    /// onset, linearly to 0 at the cutoff.
    fn thermal_charge_derate(&self) -> f64 {
        let t = &self.params.thermal;
        if self.temperature_c <= t.derate_onset_c {
            1.0
        } else if self.temperature_c >= t.charge_cutoff_c {
            0.0
        } else {
            (t.charge_cutoff_c - self.temperature_c) / (t.charge_cutoff_c - t.derate_onset_c)
        }
    }

    /// Wear multiplier from operating temperature.
    fn thermal_wear_factor(&self) -> f64 {
        1.0 + self.params.thermal.wear_per_kelvin * (self.temperature_c - 25.0).max(0.0)
    }

    /// Sets the stored charge to `soc` of nameplate, distributed between
    /// wells at their equilibrium ratio. Intended for experiment setup.
    pub fn set_soc(&mut self, soc: Ratio) {
        let q = soc.get() * self.q_max();
        self.y1 = self.params.kibam_c * q;
        self.y2 = (1.0 - self.params.kibam_c) * q;
    }

    /// Total stored charge in coulombs (both wells).
    fn q_total(&self) -> f64 {
        self.y1 + self.y2
    }

    /// Nameplate charge in coulombs.
    fn q_max(&self) -> f64 {
        self.params.capacity.as_coulombs().get()
    }

    /// Management floor in coulombs (`1 − DoD` of nameplate).
    fn q_floor(&self) -> f64 {
        (1.0 - self.params.dod_limit.get()) * self.q_max()
    }

    /// Physical state of charge (total charge over nameplate).
    fn physical_soc(&self) -> f64 {
        (self.q_total() / self.q_max()).clamp(0.0, 1.0)
    }

    /// Fullness of the available well — the driver of concentration
    /// polarisation. Coincides with total SoC at well equilibrium, but
    /// collapses faster under sustained high current and *recovers*
    /// during rest, which is exactly the paper's recovery effect.
    fn available_fullness(&self) -> f64 {
        let cap = self.params.kibam_c * self.q_max();
        if cap <= 0.0 {
            0.0
        } else {
            (self.y1 / cap).clamp(0.0, 1.0)
        }
    }

    /// Effective series resistance: base ohmic plus concentration
    /// polarisation keyed to available-well fullness.
    fn effective_resistance(&self) -> Ohms {
        let h1 = self.available_fullness();
        self.params.internal_resistance + self.params.polarization / (h1 + 0.08) * 1.0
    }

    fn ocv(&self) -> Volts {
        let soc = self.physical_soc();
        self.params.ocv_empty + (self.params.ocv_full - self.params.ocv_empty) * soc
    }

    /// Advances the KiBaM wells under constant current `i` (positive =
    /// discharge) for `dt`, clamping wells to their physical bounds.
    /// `kin` is the closed-form step from the present wells at the
    /// same `dt`.
    fn advance_wells(&mut self, i: f64, dt: f64, kin: Kinetics) {
        let Kinetics { e, a1, b1 } = kin;
        let k = self.params.kibam_k;
        let c = self.params.kibam_c;
        let q0 = self.q_total();
        let y1 = a1 - i * b1;
        let y2 = self.y2 * e + q0 * (1.0 - c) * (1.0 - e) - i * (1.0 - c) * (k * dt - 1.0 + e) / k;
        self.y1 = y1.clamp(0.0, c * self.q_max());
        self.y2 = y2.clamp(0.0, (1.0 - c) * self.q_max());
    }

    /// The step constants for `dt`: the memo's when it holds `dt`,
    /// else computed by the same expressions.
    fn step_constants(&self, dt: f64) -> KineticStep {
        if self.step_memo.dt_bits == dt.to_bits() {
            self.step_memo
        } else {
            KineticStep::new(self.params.kibam_k, self.params.kibam_c, dt)
        }
    }

    /// The closed-form step over `dt` from the present wells, keeping
    /// its step constants for the next call.
    fn kinetics_mut(&mut self, dt: f64) -> Kinetics {
        self.step_memo = self.step_constants(dt);
        self.kinetics(self.step_memo)
    }

    /// The closed-form step with constants `step` from the present
    /// wells.
    fn kinetics(&self, step: KineticStep) -> Kinetics {
        let c = self.params.kibam_c;
        let e = step.e;
        let q0 = self.q_total();
        let a1 = self.y1 * e + q0 * c * (1.0 - e);
        Kinetics { e, a1, b1: step.b1 }
    }

    /// The largest discharge current sustainable for `dt` seconds given
    /// kinetic availability, the voltage cutoff, and the DoD floor.
    fn max_discharge_current(&self, dt: f64, kin: Kinetics) -> f64 {
        let Kinetics { a1, b1, .. } = kin;
        let i_kinetic = if b1 > 0.0 { a1 / b1 } else { 0.0 };
        let r = self.effective_resistance().get();
        let i_voltage = (self.ocv() - self.params.cutoff_voltage).get() / r;
        let i_dod = (self.q_total() - self.q_floor()).max(0.0) / dt;
        i_kinetic.min(i_voltage).min(i_dod).max(0.0)
    }

    /// The largest charging current acceptable for `dt` seconds given the
    /// C-rate cap, remaining headroom, and the kinetic acceptance limit.
    ///
    /// The kinetic bound is the charge-side mirror of the discharge
    /// limit: the available well can only take charge up to its own
    /// capacity; beyond that, acceptance is paced by how fast charge
    /// migrates into the bound well — the real absorption-phase taper
    /// of lead-acid charging.
    fn max_charge_current(&self, dt: f64, kin: Kinetics) -> f64 {
        let i_cap = self.params.max_charge_c_rate * self.params.capacity.get();
        let ce = self.params.coulombic_efficiency.get().max(1e-6);
        let headroom_q = (self.q_max() - self.q_total()).max(0.0);
        let i_fill = headroom_q / (ce * dt);
        // Kinetic acceptance: keep y1(dt) within the available well.
        let Kinetics { a1, b1, .. } = kin;
        let y1_cap = self.params.kibam_c * self.q_max();
        let i_accept = if b1 > 0.0 {
            ((y1_cap - a1) / (b1 * ce)).max(0.0)
        } else {
            0.0
        };
        let derate = self.thermal_charge_derate();
        (i_cap * derate).min(i_fill).min(i_accept).max(0.0)
    }
}

impl StorageDevice for LeadAcidBattery {
    fn usable_capacity(&self) -> Joules {
        let usable_ah = self.params.capacity * self.params.dod_limit.get();
        usable_ah.energy_at(self.params.nominal_voltage)
    }

    fn available_energy(&self) -> Joules {
        let q = (self.q_total() - self.q_floor()).max(0.0);
        AmpHours::new(q / SECONDS_PER_HOUR).energy_at(self.params.nominal_voltage)
    }

    fn headroom(&self) -> Joules {
        let q = (self.q_max() - self.q_total()).max(0.0);
        AmpHours::new(q / SECONDS_PER_HOUR).energy_at(self.params.nominal_voltage)
    }

    fn max_discharge_power(&self) -> Watts {
        let i = self.max_discharge_current(1.0, self.kinetics(self.step_constants(1.0)));
        let v = self.ocv() - Amps::new(i) * self.effective_resistance();
        (Amps::new(i) * v).max(Watts::zero())
    }

    fn max_charge_power(&self) -> Watts {
        let i = self.max_charge_current(1.0, self.kinetics(self.step_constants(1.0)));
        let v = self.ocv() + Amps::new(i) * self.effective_resistance();
        Amps::new(i) * v
    }

    fn open_circuit_voltage(&self) -> Volts {
        self.ocv()
    }

    fn loaded_voltage(&self, load: Watts) -> Volts {
        let r = self.effective_resistance();
        let ocv = self.ocv();
        // Fixed-point solve of V = OCV − (P/V)·R.
        let mut v = ocv;
        for _ in 0..4 {
            let i = load / v;
            v = ocv - i * r;
            if v < self.params.cutoff_voltage {
                return self.params.cutoff_voltage;
            }
        }
        v
    }

    fn discharge(&mut self, request: Watts, dt: Seconds) -> DischargeResult {
        let dt_s = dt.get();
        if dt_s <= 0.0 {
            return DischargeResult::none();
        }
        if request.get() <= 0.0 || self.is_depleted() {
            self.idle(dt);
            return DischargeResult::none();
        }
        let ocv = self.ocv();
        let r = self.effective_resistance();
        // Fixed-point current solve, then apply limits.
        let mut i = (request / ocv).get();
        for _ in 0..3 {
            let v = (ocv - Amps::new(i) * r).max(self.params.cutoff_voltage);
            i = (request / v).get();
        }
        let soc_before = self.soc();
        let kin = self.kinetics_mut(dt_s);
        let i = i.min(self.max_discharge_current(dt_s, kin));
        if i <= 0.0 {
            self.idle(dt);
            return DischargeResult::none();
        }
        let v_loaded = (ocv - Amps::new(i) * r).max(self.params.cutoff_voltage);
        self.advance_wells(i, dt_s, kin);

        let ah = AmpHours::new(i * dt_s / SECONDS_PER_HOUR);
        let c_rate = i / self.params.capacity.get();
        // Heat accelerates plate wear: scale the recorded amp-hours.
        let ah_weighted = ah * self.thermal_wear_factor();
        self.lifetime
            .record_discharge(ah_weighted, soc_before, c_rate);
        self.lifetime.advance(dt);

        let drained = Joules::new(i * ocv.get() * dt_s);
        let delivered = Joules::new(i * v_loaded.get() * dt_s);
        let loss = drained - delivered;
        self.advance_thermal(loss, dt_s);
        DischargeResult {
            delivered,
            drained,
            loss,
        }
    }

    fn charge(&mut self, offered: Watts, dt: Seconds) -> ChargeResult {
        let dt_s = dt.get();
        if dt_s <= 0.0 {
            return ChargeResult::none();
        }
        if offered.get() <= 0.0 || self.is_full() {
            self.idle(dt);
            return ChargeResult::none();
        }
        let ocv = self.ocv();
        let r = self.effective_resistance();
        let mut i = (offered / ocv).get();
        for _ in 0..3 {
            let v = ocv + Amps::new(i) * r;
            i = (offered / v).get();
        }
        let kin = self.kinetics_mut(dt_s);
        let i = i.min(self.max_charge_current(dt_s, kin));
        if i <= 0.0 {
            self.idle(dt);
            return ChargeResult::none();
        }
        let ce = self.params.coulombic_efficiency.get();
        let v_charge = ocv + Amps::new(i) * r;
        // Gassing: only `ce` of the current becomes stored charge.
        self.advance_wells(-i * ce, dt_s, kin);
        self.lifetime.advance(dt);

        let drawn = Joules::new(i * v_charge.get() * dt_s);
        let stored = Joules::new(i * ce * ocv.get() * dt_s);
        let loss = drawn - stored;
        self.advance_thermal(loss, dt_s);
        ChargeResult {
            drawn,
            stored,
            loss,
        }
    }

    fn idle(&mut self, dt: Seconds) {
        if dt.get() > 0.0 {
            let kin = self.kinetics_mut(dt.get());
            self.advance_wells(0.0, dt.get(), kin);
            self.advance_thermal(Joules::zero(), dt.get());
            self.lifetime.advance(dt);
        }
    }

    fn idle_settled(&mut self, dt: Seconds) -> bool {
        if dt.get() <= 0.0 {
            // idle() is a no-op for non-positive dt.
            return true;
        }
        let before = (
            self.y1.to_bits(),
            self.y2.to_bits(),
            self.temperature_c.to_bits(),
        );
        StorageDevice::idle(self, dt);
        before
            == (
                self.y1.to_bits(),
                self.y2.to_bits(),
                self.temperature_c.to_bits(),
            )
    }

    fn idle_accumulate(&mut self, dt: Seconds, n: u64) {
        if dt.get() <= 0.0 {
            return;
        }
        // Wells and thermal state are at a bitwise fixed point (the
        // idle_settled contract); only the calendar-life clock still
        // advances. Repeated `+= dt` is not `n·dt` in floating point,
        // so the adds are replayed one per tick.
        for _ in 0..n {
            self.lifetime.advance(dt);
        }
    }

    fn degrade(&mut self, capacity_fade: Ratio, resistance_growth: f64) {
        // Sulfation: the nameplate shrinks and the series resistance
        // grows. Stored charge above the shrunken wells is lost to the
        // plates (it was never dispatched, so the energy books — which
        // only track flows — stay balanced).
        let keep = (1.0 - capacity_fade.get()).max(0.01);
        self.params.capacity = AmpHours::new(self.params.capacity.get() * keep);
        let growth = 1.0 + resistance_growth.max(0.0);
        self.params.internal_resistance = self.params.internal_resistance * growth;
        self.params.polarization = self.params.polarization * growth;
        let q_max = self.q_max();
        let c = self.params.kibam_c;
        self.y1 = self.y1.clamp(0.0, c * q_max);
        self.y2 = self.y2.clamp(0.0, (1.0 - c) * q_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: Seconds = Seconds::new(1.0);

    fn drain_fully(b: &mut LeadAcidBattery, power: Watts) -> Joules {
        let mut total = Joules::zero();
        for _ in 0..200_000 {
            let r = b.discharge(power, TICK);
            if r.is_empty() {
                break;
            }
            total += r.delivered;
        }
        total
    }

    #[test]
    fn starts_full() {
        let b = LeadAcidBattery::prototype_string();
        assert!((b.soc().get() - 1.0).abs() < 1e-9);
        assert!(b.is_full());
        assert!(!b.is_depleted());
        // 8 Ah * 0.8 DoD * 24 V = 153.6 Wh usable.
        assert!((b.usable_capacity().as_watt_hours().get() - 153.6).abs() < 1e-6);
    }

    #[test]
    fn discharge_accounting_is_conservative() {
        let mut b = LeadAcidBattery::prototype_string();
        let r = b.discharge(Watts::new(150.0), TICK);
        assert!(r.delivered.get() > 0.0);
        assert!(r.loss.get() > 0.0);
        assert!(((r.delivered + r.loss) - r.drained).get().abs() < 1e-9);
    }

    #[test]
    fn charge_accounting_is_conservative() {
        let mut b = LeadAcidBattery::prototype_string();
        b.set_soc(Ratio::HALF);
        let r = b.charge(Watts::new(40.0), TICK);
        assert!(r.stored.get() > 0.0);
        assert!(((r.stored + r.loss) - r.drawn).get().abs() < 1e-9);
    }

    #[test]
    fn rate_capacity_effect() {
        // The same battery delivers less total energy at 4x the power.
        let mut slow = LeadAcidBattery::prototype_string();
        let mut fast = LeadAcidBattery::prototype_string();
        let e_slow = drain_fully(&mut slow, Watts::new(40.0));
        let e_fast = drain_fully(&mut fast, Watts::new(160.0));
        assert!(
            e_fast.get() < e_slow.get() * 0.97,
            "high-rate discharge should forfeit usable energy: slow={} fast={}",
            e_slow.as_watt_hours(),
            e_fast.as_watt_hours()
        );
    }

    #[test]
    fn recovery_effect() {
        // Drain hard until the available well starves (sustained power
        // collapses), rest, then verify the battery can again sustain a
        // load it could not before the rest.
        let mut b = LeadAcidBattery::prototype_string();
        for _ in 0..200_000 {
            let r = b.discharge(Watts::new(220.0), TICK);
            // Stop when the battery can no longer sustain half the load.
            if r.delivered.get() < 110.0 {
                break;
            }
        }
        let starved = b.max_discharge_power();
        assert!(
            starved.get() < 150.0,
            "battery should be kinetically starved, still offers {starved}"
        );
        b.idle(Seconds::from_hours(2.0));
        let recovered = b.max_discharge_power();
        assert!(
            recovered.get() > starved.get() + 20.0,
            "rest should recover deliverable power: {starved} -> {recovered}"
        );
    }

    #[test]
    fn voltage_sags_with_load_and_soc() {
        let b = LeadAcidBattery::prototype_string();
        let v_idle = b.loaded_voltage(Watts::zero());
        let v_loaded = b.loaded_voltage(Watts::new(250.0));
        assert!(v_loaded < v_idle);

        let mut low = LeadAcidBattery::prototype_string();
        low.set_soc(Ratio::new_clamped(0.3));
        // Same load sags more at low SoC (higher effective resistance).
        let sag_full = v_idle - v_loaded;
        let sag_low = low.open_circuit_voltage() - low.loaded_voltage(Watts::new(250.0));
        assert!(sag_low > sag_full);
    }

    #[test]
    fn voltage_respects_cutoff() {
        let mut b = LeadAcidBattery::prototype_string();
        b.set_soc(Ratio::new_clamped(0.25));
        let v = b.loaded_voltage(Watts::new(2_000.0));
        assert!(v >= b.params().cutoff_voltage);
    }

    #[test]
    fn charge_current_is_capped() {
        let mut b = LeadAcidBattery::prototype_string();
        b.set_soc(Ratio::new_clamped(0.3));
        // Offer far more than the 0.25C cap can absorb.
        let r = b.charge(Watts::new(10_000.0), TICK);
        let i_cap = 0.25 * 8.0; // amps
        let max_drawn = i_cap * (b.params().ocv_full.get() + 1.0) * 1.0;
        assert!(
            r.drawn.get() <= max_drawn,
            "drawn {} exceeds C-rate cap bound {max_drawn}",
            r.drawn.get()
        );
    }

    #[test]
    fn dod_floor_is_respected() {
        let mut b = LeadAcidBattery::prototype_string();
        let _ = drain_fully(&mut b, Watts::new(30.0));
        // Physical charge never drops below 20 % of nameplate.
        assert!(b.q_total() >= b.q_floor() - 1.0);
        assert!(b.is_depleted());
    }

    #[test]
    fn round_trip_efficiency_in_lead_acid_band() {
        let mut b = LeadAcidBattery::prototype_string();
        b.set_soc(Ratio::HALF);
        // Charge for a while, then discharge the same stored energy out.
        let mut drawn = Joules::zero();
        let mut stored = Joules::zero();
        for _ in 0..3600 {
            let r = b.charge(Watts::new(45.0), TICK);
            drawn += r.drawn;
            stored += r.stored;
        }
        let mut delivered = Joules::zero();
        let mut drained = Joules::zero();
        while drained < stored {
            let r = b.discharge(Watts::new(100.0), TICK);
            if r.is_empty() {
                break;
            }
            delivered += r.delivered;
            drained += r.drained;
        }
        let round_trip = delivered.get() / drawn.get();
        assert!(
            (0.6..0.88).contains(&round_trip),
            "lead-acid round trip should be distinctly below SC levels, got {round_trip}"
        );
    }

    #[test]
    fn discharge_zero_is_idle() {
        let mut b = LeadAcidBattery::prototype_string();
        let before = b.available_energy();
        let r = b.discharge(Watts::zero(), Seconds::new(100.0));
        assert!(r.is_empty());
        assert_eq!(b.available_energy(), before);
    }

    #[test]
    fn lifetime_accrues_only_on_discharge() {
        let mut b = LeadAcidBattery::prototype_string();
        b.idle(Seconds::from_hours(1.0));
        assert_eq!(b.lifetime().raw_throughput(), AmpHours::zero());
        let _ = b.discharge(Watts::new(100.0), Seconds::new(60.0));
        assert!(b.lifetime().raw_throughput().get() > 0.0);
    }

    #[test]
    fn with_capacity_scales_resistance() {
        let small = LeadAcidParams::with_capacity(AmpHours::new(4.0));
        let large = LeadAcidParams::with_capacity(AmpHours::new(16.0));
        assert!(small.internal_resistance > large.internal_resistance);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LeadAcidParams::with_capacity(AmpHours::zero());
    }

    #[test]
    fn temperature_rises_under_load_and_cools_at_rest() {
        let mut b = LeadAcidBattery::prototype_string();
        assert_eq!(b.temperature_c(), 25.0);
        for _ in 0..1800 {
            let _ = b.discharge(Watts::new(300.0), TICK);
        }
        let hot = b.temperature_c();
        assert!(
            hot > 25.5,
            "sustained 300 W should heat the string, got {hot}"
        );
        b.idle(Seconds::from_hours(4.0));
        assert!(
            b.temperature_c() < hot && b.temperature_c() < 26.0,
            "string should cool toward ambient, got {}",
            b.temperature_c()
        );
    }

    #[test]
    fn hot_battery_derates_charging() {
        let mut cool = LeadAcidBattery::prototype_string();
        cool.set_soc(Ratio::HALF);
        let mut hot = cool.clone();
        hot.temperature_c = 50.0;
        let r_cool = cool.charge(Watts::new(60.0), TICK);
        let r_hot = hot.charge(Watts::new(60.0), TICK);
        assert!(
            r_hot.drawn.get() < 0.5 * r_cool.drawn.get(),
            "50 degC charge {} should be well under cool charge {}",
            r_hot.drawn.get(),
            r_cool.drawn.get()
        );
        let mut cooked = cool.clone();
        cooked.temperature_c = 60.0;
        let r_cooked = cooked.charge(Watts::new(60.0), TICK);
        assert!(r_cooked.is_empty(), "charging past cutoff must stop");
    }

    #[test]
    fn heat_accelerates_wear() {
        let mut cool = LeadAcidBattery::prototype_string();
        let mut hot = LeadAcidBattery::prototype_string();
        hot.temperature_c = 45.0;
        // Keep the hot one hot by pinning temperature between ticks.
        for _ in 0..600 {
            let _ = cool.discharge(Watts::new(100.0), TICK);
            hot.temperature_c = 45.0;
            let _ = hot.discharge(Watts::new(100.0), TICK);
        }
        assert!(
            hot.lifetime().weighted_throughput() > cool.lifetime().weighted_throughput() * 1.5,
            "45 degC wear {} should far exceed 25 degC wear {}",
            hot.lifetime().weighted_throughput().get(),
            cool.lifetime().weighted_throughput().get()
        );
    }

    #[test]
    fn degrade_fades_capacity_and_grows_resistance() {
        let mut b = LeadAcidBattery::prototype_string();
        let cap_before = b.usable_capacity();
        let r_before = b.effective_resistance();
        b.degrade(Ratio::new_clamped(0.25), 0.5);
        assert!((b.params().capacity.get() - 6.0).abs() < 1e-9);
        assert!(b.usable_capacity() < cap_before);
        assert!(b.effective_resistance() > r_before);
        // Wells were clamped into the shrunken envelope: SoC stays valid
        // and the device still serves load.
        assert!(b.soc().get() <= 1.0 + 1e-9);
        let r = b.discharge(Watts::new(50.0), TICK);
        assert!(r.delivered.get() > 0.0);
        assert!(((r.delivered + r.loss) - r.drained).get().abs() < 1e-9);
    }

    #[test]
    fn degrade_is_bounded_below() {
        let mut b = LeadAcidBattery::prototype_string();
        b.degrade(Ratio::ONE, -2.0);
        // Full fade clamps to a 1 % floor and negative growth is ignored.
        assert!(b.params().capacity.get() > 0.0);
        assert!((b.params().internal_resistance.get() - 0.12).abs() < 1e-12);
    }

    #[test]
    fn max_discharge_power_is_positive_when_charged() {
        let b = LeadAcidBattery::prototype_string();
        assert!(b.max_discharge_power().get() > 100.0);
        let mut empty = LeadAcidBattery::prototype_string();
        let _ = drain_fully(&mut empty, Watts::new(50.0));
        assert!(empty.max_discharge_power().get() < 5.0);
    }
}

#[cfg(test)]
mod idle_span_tests {
    use super::*;

    /// `idle_settled` until fixed, then `idle_accumulate` for the rest,
    /// must be bitwise-identical to the same number of per-tick idles —
    /// the contract the event core's quiet-span fast path builds on.
    fn assert_span_matches_per_tick(mut device: LeadAcidBattery, n: u64) {
        let dt = Seconds::new(1.0);
        let mut per_tick = device.clone();
        for _ in 0..n {
            StorageDevice::idle(&mut per_tick, dt);
        }
        let mut done = 0;
        while done < n {
            let settled = device.idle_settled(dt);
            done += 1;
            if settled {
                break;
            }
        }
        device.idle_accumulate(dt, n - done);
        assert_eq!(device, per_tick);
    }

    #[test]
    fn span_idle_matches_per_tick_idle_from_full() {
        assert_span_matches_per_tick(LeadAcidBattery::prototype_string(), 5_000);
    }

    #[test]
    fn span_idle_matches_per_tick_idle_from_mid_soc() {
        let mut b = LeadAcidBattery::prototype_string();
        b.set_soc(Ratio::new_clamped(0.5));
        assert_span_matches_per_tick(b, 5_000);
    }

    #[test]
    fn span_idle_matches_per_tick_idle_after_discharge() {
        // A fresh discharge leaves the wells off equilibrium and the
        // string warm, so the first idles move real state (recovery and
        // cooling) before the fixed point is reached.
        let mut b = LeadAcidBattery::prototype_string();
        for _ in 0..120 {
            let _ = b.discharge(Watts::new(150.0), Seconds::new(1.0));
        }
        assert_span_matches_per_tick(b, 5_000);
    }

    #[test]
    fn full_battery_is_settled_immediately() {
        // The wells clamp pins a factory-full string at its caps, so the
        // very first idle already reports a fixed point — this is what
        // makes valley fast-forwarding O(1) per tick from the start.
        let mut b = LeadAcidBattery::prototype_string();
        assert!(b.idle_settled(Seconds::new(1.0)));
    }
}
