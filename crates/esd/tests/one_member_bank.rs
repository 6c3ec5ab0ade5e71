//! A one-member bank must dispatch exactly as its member driven
//! directly by the two-pass split the bank applies to any number of
//! members: same result bits, same member state, after every step.
//!
//! The reference below is that split transcribed for a single member
//! (pass 1 by capability weight, pass 2 for the shortfall, an idle if
//! neither drove it). Real devices cover the physics; a probe device
//! covers the weight classes real devices rarely reach — zero,
//! negative, NaN and tiny weights — and results holding `-0.0`.

use heb_esd::{
    Bank, ChargeResult, DischargeResult, LeadAcidBattery, LithiumIonBattery, StorageDevice,
    SuperCapacitor,
};
use heb_units::{Joules, Ratio, Seconds, Volts, Watts};
use proptest::prelude::*;

/// The two-pass split of one member, as the bank runs it for any
/// number of members.
#[allow(clippy::too_many_arguments)]
fn split_one<D: StorageDevice, R: Copy + Default>(
    member: &mut D,
    quarantined: bool,
    total: Watts,
    dt: Seconds,
    weight: impl Fn(&D) -> Watts,
    mut f: impl FnMut(&mut D, Watts, Seconds) -> R,
    realized: impl Fn(&R) -> Watts,
    mut absorb: impl FnMut(&mut R, R),
) -> R {
    let mut acc = R::default();
    if total.get() <= 0.0 {
        member.idle(dt);
        return acc;
    }
    let w = if quarantined {
        Watts::zero()
    } else {
        weight(member)
    };
    let cap = w;
    let mut used = false;
    let mut remaining = total;
    if cap.get() > 0.0 {
        let share = (total * (w / cap)).min(remaining);
        // A NaN share is driven, as the bank's `<= 0.0` skip lets it be.
        let skipped = share.get() <= 0.0;
        if !skipped {
            let r = f(member, share, dt);
            used = true;
            remaining -= realized(&r);
            absorb(&mut acc, r);
        }
    }
    if remaining.get() > 1e-9 && !used && !quarantined {
        let r = f(member, remaining, dt);
        used = true;
        absorb(&mut acc, r);
    }
    if !used {
        member.idle(dt);
    }
    acc
}

fn per_second(energy: Joules, dt: Seconds) -> Watts {
    if dt.get() > 0.0 {
        energy / dt
    } else {
        Watts::zero()
    }
}

fn discharge_one<D: StorageDevice>(
    member: &mut D,
    quarantined: bool,
    request: Watts,
    dt: Seconds,
) -> DischargeResult {
    split_one(
        member,
        quarantined,
        request,
        dt,
        StorageDevice::max_discharge_power,
        |d, p, dt| d.discharge(p, dt),
        |r: &DischargeResult| per_second(r.delivered, dt),
        DischargeResult::absorb,
    )
}

fn charge_one<D: StorageDevice>(
    member: &mut D,
    quarantined: bool,
    offered: Watts,
    dt: Seconds,
) -> ChargeResult {
    split_one(
        member,
        quarantined,
        offered,
        dt,
        StorageDevice::max_charge_power,
        |d, p, dt| d.charge(p, dt),
        |r: &ChargeResult| per_second(r.drawn, dt),
        ChargeResult::absorb,
    )
}

/// A device that logs every call with the bits of its arguments and
/// reports whatever power limits it is told to.
#[derive(Debug, Clone, PartialEq)]
struct Probe {
    discharge_limit: f64,
    charge_limit: f64,
    log: Vec<(&'static str, u64, u64)>,
}

impl Probe {
    fn new() -> Self {
        Self {
            discharge_limit: 1.0,
            charge_limit: 1.0,
            log: Vec::new(),
        }
    }
}

impl StorageDevice for Probe {
    fn usable_capacity(&self) -> Joules {
        Joules::new(1000.0)
    }

    fn available_energy(&self) -> Joules {
        Joules::new(500.0)
    }

    fn headroom(&self) -> Joules {
        Joules::new(500.0)
    }

    fn max_discharge_power(&self) -> Watts {
        Watts::new(self.discharge_limit)
    }

    fn max_charge_power(&self) -> Watts {
        Watts::new(self.charge_limit)
    }

    fn open_circuit_voltage(&self) -> Volts {
        Volts::new(24.0)
    }

    fn loaded_voltage(&self, _load: Watts) -> Volts {
        Volts::new(24.0)
    }

    fn discharge(&mut self, request: Watts, dt: Seconds) -> DischargeResult {
        self.log
            .push(("discharge", request.get().to_bits(), dt.get().to_bits()));
        // Serves a tenth short, so a second pass would have work; the
        // loss field is `-0.0`, which absorbing into zero turns `+0.0`.
        DischargeResult {
            delivered: request * dt * 0.9,
            drained: request * dt,
            loss: Joules::new(-0.0),
        }
    }

    fn charge(&mut self, offered: Watts, dt: Seconds) -> ChargeResult {
        self.log
            .push(("charge", offered.get().to_bits(), dt.get().to_bits()));
        ChargeResult {
            drawn: offered * dt * 0.9,
            stored: Joules::new(-0.0),
            loss: offered * dt * 0.9,
        }
    }

    fn idle(&mut self, dt: Seconds) {
        self.log.push(("idle", 0, dt.get().to_bits()));
    }
}

/// One step of a random run.
#[derive(Debug, Clone, Copy)]
enum Op {
    Discharge(f64, f64),
    Charge(f64, f64),
    Idle(f64),
    /// Quarantines the member, or restores a quarantined one.
    ToggleQuarantine,
    /// Sets the probe's power limits (ignored by real devices).
    Limits(f64, f64),
}

/// Zero, non-positive, at-most-1e-9 and NaN requests beside normal ones.
fn request() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(-5.0),
        Just(1e-9),
        1e-15..1e-9f64,
        Just(f64::NAN),
        1e-9..1e-6f64,
        1.0..600.0f64,
        1.0..600.0f64,
        1.0..600.0f64,
    ]
}

fn tick() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1.0), Just(1.0), Just(0.5), Just(60.0), Just(0.0)]
}

/// Power limits a probe reports: every weight class the split
/// distinguishes, except `+inf`, which no device reports.
fn limit() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-3.0),
        Just(f64::NAN),
        Just(5e-324),
        1e-12..1e-6f64,
        1.0..800.0f64,
        Just(1e300),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (request(), tick()).prop_map(|(p, dt)| Op::Discharge(p, dt)),
        (request(), tick()).prop_map(|(p, dt)| Op::Charge(p, dt)),
        tick().prop_map(Op::Idle),
        Just(Op::ToggleQuarantine),
        (limit(), limit()).prop_map(|(d, c)| Op::Limits(d, c)),
    ]
}

fn discharge_bits(r: &DischargeResult) -> [u64; 3] {
    [r.delivered, r.drained, r.loss].map(|j| j.get().to_bits())
}

fn charge_bits(r: &ChargeResult) -> [u64; 3] {
    [r.drawn, r.stored, r.loss].map(|j| j.get().to_bits())
}

/// Runs `ops` on a one-member bank of `device` and on `device` driven
/// by [`split_one`], comparing the results' bits and the member's
/// state (its `Debug` form, which prints every float exactly) after
/// every step.
fn check_run<D>(device: D, ops: &[Op], mut set_limits: impl FnMut(&mut D, f64, f64))
where
    D: StorageDevice + Clone + std::fmt::Debug,
{
    let mut bank = Bank::new(vec![device.clone()]);
    let mut member = device;
    let mut quarantined = false;
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Discharge(p, dt) => {
                let (p, dt) = (Watts::new(p), Seconds::new(dt));
                let got = bank.discharge(p, dt);
                let want = discharge_one(&mut member, quarantined, p, dt);
                assert_eq!(
                    discharge_bits(&got),
                    discharge_bits(&want),
                    "step {step}: {op:?}"
                );
            }
            Op::Charge(p, dt) => {
                let (p, dt) = (Watts::new(p), Seconds::new(dt));
                let got = bank.charge(p, dt);
                let want = charge_one(&mut member, quarantined, p, dt);
                assert_eq!(charge_bits(&got), charge_bits(&want), "step {step}: {op:?}");
            }
            Op::Idle(dt) => {
                bank.idle(Seconds::new(dt));
                member.idle(Seconds::new(dt));
            }
            Op::ToggleQuarantine => {
                if quarantined {
                    assert!(bank.restore(0));
                } else {
                    assert!(bank.quarantine(0));
                }
                quarantined = !quarantined;
            }
            Op::Limits(d, c) => {
                set_limits(&mut bank.devices_mut()[0], d, c);
                set_limits(&mut member, d, c);
            }
        }
        assert_eq!(
            format!("{:?}", bank.devices()[0]),
            format!("{member:?}"),
            "step {step}: {op:?}"
        );
    }
}

/// Real devices ignore the probe's limits.
fn no_limits<D>(_: &mut D, _: f64, _: f64) {}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn one_member_lead_acid_bank_matches_its_member(
        ops in proptest::collection::vec(op(), 1..160),
        soc in 0.0..=1.0f64,
    ) {
        let mut battery = LeadAcidBattery::prototype_string();
        battery.set_soc(Ratio::new_clamped(soc));
        check_run(battery, &ops, no_limits);
    }

    #[test]
    fn one_member_supercap_bank_matches_its_member(
        ops in proptest::collection::vec(op(), 1..160),
        soc in 0.0..=1.0f64,
    ) {
        let mut sc = SuperCapacitor::prototype_module();
        sc.set_soc(Ratio::new_clamped(soc));
        check_run(sc, &ops, no_limits);
    }

    #[test]
    fn one_member_li_ion_bank_matches_its_member(
        ops in proptest::collection::vec(op(), 1..160),
        soc in 0.0..=1.0f64,
    ) {
        let mut li = LithiumIonBattery::prototype_string();
        li.set_soc(Ratio::new_clamped(soc));
        check_run(li, &ops, no_limits);
    }

    #[test]
    fn one_member_probe_bank_matches_its_member(
        ops in proptest::collection::vec(op(), 1..160),
    ) {
        check_run(Probe::new(), &ops, |probe: &mut Probe, d, c| {
            probe.discharge_limit = d;
            probe.charge_limit = c;
        });
    }
}

/// The corner the split decides by weight: a request of at most 1e-9
/// drives a member with a positive weight and idles one without.
#[test]
fn a_tiny_request_drives_only_a_member_with_capability() {
    for (limit, driven) in [(5.0, true), (0.0, false), (f64::NAN, false), (-1.0, false)] {
        let mut probe = Probe::new();
        probe.discharge_limit = limit;
        let mut bank = Bank::new(vec![probe]);
        let _ = bank.discharge(Watts::new(1e-10), Seconds::new(1.0));
        let kind = bank.devices()[0].log[0].0;
        assert_eq!(kind == "discharge", driven, "limit {limit}: {kind}");
    }
}
