//! `LeadAcidBattery` must give the same bits as the closed-form KiBaM
//! model written out plainly: every call solving `exp(−k·dt)` and the
//! well coefficients afresh, the current limit and the well update
//! each solving them on their own.
//!
//! [`Reference`] is that model, transcribed call for call. Random runs
//! mix discharges, charges, idles and ageing, change `dt` mid-run, and
//! compare every result's bits and the device's observable state after
//! every step.

use heb_esd::{
    AhThroughputModel, ChargeResult, DischargeResult, LeadAcidBattery, LeadAcidParams,
    StorageDevice,
};
use heb_units::{AmpHours, Amps, Joules, Ohms, Ratio, Seconds, Volts, Watts, SECONDS_PER_HOUR};
use proptest::prelude::*;

/// The lead-acid string with no memo and no shared coefficients.
#[derive(Debug, Clone)]
struct Reference {
    params: LeadAcidParams,
    y1: f64,
    y2: f64,
    temperature_c: f64,
    lifetime: AhThroughputModel,
}

impl Reference {
    fn new(params: LeadAcidParams) -> Self {
        let q_max = params.capacity.as_coulombs().get();
        let lifetime = AhThroughputModel::new(params.lifetime);
        Self {
            y1: params.kibam_c * q_max,
            y2: (1.0 - params.kibam_c) * q_max,
            temperature_c: params.thermal.ambient_c,
            params,
            lifetime,
        }
    }

    fn advance_thermal(&mut self, loss: Joules, dt: f64) {
        let t = &self.params.thermal;
        let cooling = (self.temperature_c - t.ambient_c) / t.resistance_k_per_w;
        let net = loss.get() / dt.max(1e-9) - cooling;
        self.temperature_c += net * dt / t.capacitance_j_per_k;
        self.temperature_c = self.temperature_c.max(t.ambient_c - 5.0);
    }

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

    fn thermal_wear_factor(&self) -> f64 {
        1.0 + self.params.thermal.wear_per_kelvin * (self.temperature_c - 25.0).max(0.0)
    }

    fn set_soc(&mut self, soc: Ratio) {
        let q = soc.get() * self.q_max();
        self.y1 = self.params.kibam_c * q;
        self.y2 = (1.0 - self.params.kibam_c) * q;
    }

    fn q_total(&self) -> f64 {
        self.y1 + self.y2
    }

    fn q_max(&self) -> f64 {
        self.params.capacity.as_coulombs().get()
    }

    fn q_floor(&self) -> f64 {
        (1.0 - self.params.dod_limit.get()) * self.q_max()
    }

    fn physical_soc(&self) -> f64 {
        (self.q_total() / self.q_max()).clamp(0.0, 1.0)
    }

    fn available_fullness(&self) -> f64 {
        let cap = self.params.kibam_c * self.q_max();
        if cap <= 0.0 {
            0.0
        } else {
            (self.y1 / cap).clamp(0.0, 1.0)
        }
    }

    fn effective_resistance(&self) -> Ohms {
        let h1 = self.available_fullness();
        self.params.internal_resistance + self.params.polarization / (h1 + 0.08) * 1.0
    }

    fn ocv(&self) -> Volts {
        let soc = self.physical_soc();
        self.params.ocv_empty + (self.params.ocv_full - self.params.ocv_empty) * soc
    }

    fn advance_wells(&mut self, i: f64, dt: f64) {
        let (a1, b1) = self.kinetic_coefficients(dt);
        let k = self.params.kibam_k;
        let c = self.params.kibam_c;
        let e = (-k * dt).exp();
        let q0 = self.q_total();
        let y1 = a1 - i * b1;
        let y2 = self.y2 * e + q0 * (1.0 - c) * (1.0 - e) - i * (1.0 - c) * (k * dt - 1.0 + e) / k;
        self.y1 = y1.clamp(0.0, c * self.q_max());
        self.y2 = y2.clamp(0.0, (1.0 - c) * self.q_max());
    }

    fn kinetic_coefficients(&self, dt: f64) -> (f64, f64) {
        let k = self.params.kibam_k;
        let c = self.params.kibam_c;
        let e = (-k * dt).exp();
        let q0 = self.q_total();
        let a1 = self.y1 * e + q0 * c * (1.0 - e);
        let b1 = (1.0 - e) / k + c * (k * dt - 1.0 + e) / k;
        (a1, b1)
    }

    fn max_discharge_current(&self, dt: f64) -> f64 {
        let (a1, b1) = self.kinetic_coefficients(dt);
        let i_kinetic = if b1 > 0.0 { a1 / b1 } else { 0.0 };
        let r = self.effective_resistance().get();
        let i_voltage = (self.ocv() - self.params.cutoff_voltage).get() / r;
        let i_dod = (self.q_total() - self.q_floor()).max(0.0) / dt;
        i_kinetic.min(i_voltage).min(i_dod).max(0.0)
    }

    fn max_charge_current(&self, dt: f64) -> f64 {
        let i_cap = self.params.max_charge_c_rate * self.params.capacity.get();
        let ce = self.params.coulombic_efficiency.get().max(1e-6);
        let headroom_q = (self.q_max() - self.q_total()).max(0.0);
        let i_fill = headroom_q / (ce * dt);
        let (a1, b1) = self.kinetic_coefficients(dt);
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

impl StorageDevice for Reference {
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
        let i = self.max_discharge_current(1.0);
        let v = self.ocv() - Amps::new(i) * self.effective_resistance();
        (Amps::new(i) * v).max(Watts::zero())
    }

    fn max_charge_power(&self) -> Watts {
        let i = self.max_charge_current(1.0);
        let v = self.ocv() + Amps::new(i) * self.effective_resistance();
        Amps::new(i) * v
    }

    fn open_circuit_voltage(&self) -> Volts {
        self.ocv()
    }

    fn loaded_voltage(&self, load: Watts) -> Volts {
        let r = self.effective_resistance();
        let ocv = self.ocv();
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
        let mut i = (request / ocv).get();
        for _ in 0..3 {
            let v = (ocv - Amps::new(i) * r).max(self.params.cutoff_voltage);
            i = (request / v).get();
        }
        let soc_before = self.soc();
        let i = i.min(self.max_discharge_current(dt_s));
        if i <= 0.0 {
            self.idle(dt);
            return DischargeResult::none();
        }
        let v_loaded = (ocv - Amps::new(i) * r).max(self.params.cutoff_voltage);
        self.advance_wells(i, dt_s);

        let ah = AmpHours::new(i * dt_s / SECONDS_PER_HOUR);
        let c_rate = i / self.params.capacity.get();
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
        let i = i.min(self.max_charge_current(dt_s));
        if i <= 0.0 {
            self.idle(dt);
            return ChargeResult::none();
        }
        let ce = self.params.coulombic_efficiency.get();
        let v_charge = ocv + Amps::new(i) * r;
        self.advance_wells(-i * ce, dt_s);
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
            self.advance_wells(0.0, dt.get());
            self.advance_thermal(Joules::zero(), dt.get());
            self.lifetime.advance(dt);
        }
    }

    fn degrade(&mut self, capacity_fade: Ratio, resistance_growth: f64) {
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

/// One step of a random run; each carries its own `dt`.
#[derive(Debug, Clone, Copy)]
enum Op {
    Discharge(f64, f64),
    Charge(f64, f64),
    Idle(f64),
    Degrade(f64, f64),
}

/// Mostly the simulator's 1 s tick, with other ticks mid-run.
fn tick() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(1.0),
        Just(1.0),
        Just(1.0),
        Just(0.5),
        Just(60.0),
        Just(600.0),
        Just(0.0),
        0.01..5.0f64,
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0.0..800.0f64, tick()).prop_map(|(p, dt)| Op::Discharge(p, dt)),
        (0.0..800.0f64, tick()).prop_map(|(p, dt)| Op::Charge(p, dt)),
        (0.0..800.0f64, tick()).prop_map(|(p, dt)| Op::Discharge(p, dt)),
        (0.0..800.0f64, tick()).prop_map(|(p, dt)| Op::Charge(p, dt)),
        tick().prop_map(Op::Idle),
        (0.0..0.2f64, 0.0..0.5f64).prop_map(|(fade, growth)| Op::Degrade(fade, growth)),
    ]
}

/// The bits of everything a caller can observe of a device.
fn observe<D: StorageDevice>(d: &D) -> Vec<u64> {
    [
        d.available_energy().get(),
        d.headroom().get(),
        d.usable_capacity().get(),
        d.soc().get(),
        d.max_discharge_power().get(),
        d.max_charge_power().get(),
        d.open_circuit_voltage().get(),
        d.loaded_voltage(Watts::new(150.0)).get(),
    ]
    .iter()
    .map(|x| x.to_bits())
    .collect()
}

fn check_run(soc: f64, ops: &[Op]) {
    let mut device = LeadAcidBattery::prototype_string();
    let mut reference = Reference::new(LeadAcidParams::prototype_string());
    device.set_soc(Ratio::new_clamped(soc));
    reference.set_soc(Ratio::new_clamped(soc));
    for (step, &op) in ops.iter().enumerate() {
        let (got, want) = match op {
            Op::Discharge(p, dt) => {
                let (p, dt) = (Watts::new(p), Seconds::new(dt));
                let (a, b) = (device.discharge(p, dt), reference.discharge(p, dt));
                (
                    [a.delivered, a.drained, a.loss],
                    [b.delivered, b.drained, b.loss],
                )
            }
            Op::Charge(p, dt) => {
                let (p, dt) = (Watts::new(p), Seconds::new(dt));
                let (a, b) = (device.charge(p, dt), reference.charge(p, dt));
                ([a.drawn, a.stored, a.loss], [b.drawn, b.stored, b.loss])
            }
            Op::Idle(dt) => {
                device.idle(Seconds::new(dt));
                reference.idle(Seconds::new(dt));
                ([Joules::zero(); 3], [Joules::zero(); 3])
            }
            Op::Degrade(fade, growth) => {
                device.degrade(Ratio::new_clamped(fade), growth);
                reference.degrade(Ratio::new_clamped(fade), growth);
                ([Joules::zero(); 3], [Joules::zero(); 3])
            }
        };
        let bits = |r: [Joules; 3]| r.map(|j| j.get().to_bits());
        assert_eq!(bits(got), bits(want), "step {step}: {op:?}");
        assert_eq!(observe(&device), observe(&reference), "step {step}: {op:?}");
        assert_eq!(
            device.temperature_c().to_bits(),
            reference.temperature_c.to_bits(),
            "step {step}: {op:?}"
        );
        assert_eq!(
            device.lifetime(),
            &reference.lifetime,
            "step {step}: {op:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lead_acid_matches_the_closed_form(
        ops in proptest::collection::vec(op(), 1..200),
        soc in 0.0..=1.0f64,
    ) {
        check_run(soc, &ops);
    }
}

/// A long discharge at one tick, a change of tick with the wells far
/// from equilibrium, then a rest: the memo must follow the new `dt`.
#[test]
fn a_tick_change_mid_discharge_matches_the_closed_form() {
    let mut ops = vec![Op::Discharge(220.0, 1.0); 2_000];
    ops.extend([Op::Discharge(220.0, 0.5); 500]);
    ops.extend([Op::Charge(300.0, 60.0); 50]);
    ops.push(Op::Degrade(0.1, 0.2));
    ops.extend([Op::Idle(1.0); 100]);
    ops.extend([Op::Idle(600.0); 10]);
    check_run(1.0, &ops);
}
