//! The paper's headline claims, asserted against the simulation at
//! reduced (CI-friendly) scale. EXPERIMENTS.md records the full-scale
//! paper-vs-measured comparison; these tests pin the *shape* — who
//! wins, and in which direction — so regressions are caught.

use heb::core::experiments::{
    assignment_sweep, deep_valley_absorption, discharge_curves, efficiency_characterization,
    scheme_comparison,
};
use heb::core::SerialRunner;
use heb::tco::{PeakShavingModel, RoiModel, SchemeEconomics, StorageTechnology};
use heb::units::Dollars;
use heb::workload::{ClusterTraceBuilder, PeakClass};
use heb::{Joules, PolicyKind, Ratio, SimConfig, Watts};

/// Figure 1(a): under-provisioning raises MPPU monotonically.
#[test]
fn claim_fig1_underprovisioning_raises_mppu() {
    let trace = ClusterTraceBuilder::new(Watts::new(1000.0))
        .seed(42)
        .days(2.0)
        .build();
    let mppu: Vec<f64> = [1.0, 0.8, 0.6, 0.4]
        .iter()
        .map(|f| trace.mppu(Watts::new(1000.0 * f)))
        .collect();
    assert!(mppu.windows(2).all(|w| w[1] >= w[0]), "{mppu:?}");
    assert!(mppu[3] > 10.0 * mppu[0].max(0.001));
}

/// Figure 3: SC round trip 90–95 %, battery below 80 % and falling with
/// load, recovery helping, on/off waste eating a chunk of the gain.
#[test]
fn claim_fig3_efficiency_characterisation() {
    let rs = efficiency_characterization(&[1, 4]);
    for r in &rs {
        let sc = r.sc_efficiency.get();
        assert!(
            (0.90..=0.95).contains(&sc),
            "SC round trip {sc} at {} server(s) outside the paper's 90-95 %",
            r.servers
        );
        assert!(r.battery_one_shot.get() < 0.80);
        assert!(r.battery_with_recovery >= r.battery_one_shot);
    }
    assert!(rs[1].battery_one_shot < rs[0].battery_one_shot);
    assert!(rs[1].on_off_waste_fraction.get() > 0.2);
}

/// Figure 4: SC initial cost is orders above lead-acid, amortised cost
/// lands in the NiCd/Li-ion band.
#[test]
fn claim_fig4_amortised_cost_competitive() {
    let sc = StorageTechnology::super_capacitor();
    let la = StorageTechnology::lead_acid();
    assert!(sc.initial_cost_per_kwh().get() > 30.0 * la.initial_cost_per_kwh().get());
    let amort = sc.amortized_cost_per_kwh_cycle().get();
    assert!((0.2..=0.6).contains(&amort));
}

/// Figure 5: SC discharge is near-linear, battery shows a knee that
/// worsens with load.
#[test]
fn claim_fig5_discharge_shapes() {
    let curves = discharge_curves(&[1, 4]);
    let get = |dev: &str, n: usize| {
        curves
            .iter()
            .find(|c| c.device == dev && c.servers == n)
            .unwrap()
            .clone()
    };
    assert!(get("supercap", 1).nonlinearity() < 0.1);
    assert!(get("supercap", 4).nonlinearity() < 0.1);
    assert!(get("battery", 4).nonlinearity() > get("supercap", 4).nonlinearity());
}

/// Figure 6: runtime is maximised at an interior assignment; leaning
/// fully on SCs costs ~10 % or more.
#[test]
fn claim_fig6_interior_assignment_optimum() {
    let points = assignment_sweep(
        4,
        Watts::new(65.0),
        Joules::from_watt_hours(150.0),
        Ratio::new_clamped(0.3),
    );
    let best = points
        .iter()
        .max_by(|a, b| a.runtime.get().partial_cmp(&b.runtime.get()).unwrap())
        .unwrap();
    assert!(best.sc_servers > 0 && best.sc_servers < 4);
    let all_sc = points.last().unwrap().runtime.get();
    assert!(all_sc < 0.92 * best.runtime.get());
}

/// Figure 12(a): hybrid schemes beat BaOnly on energy efficiency, with
/// a bigger margin on small peaks than large.
#[test]
fn claim_fig12a_efficiency_ordering() {
    let base = SimConfig::prototype();
    let results = scheme_comparison(&SerialRunner, &base, 2.0, 0.2, 2015);
    let eff = |p: PolicyKind, class| {
        results
            .iter()
            .find(|r| r.policy == p)
            .unwrap()
            .mean_efficiency(class)
            .get()
    };
    assert!(eff(PolicyKind::HebD, None) > eff(PolicyKind::BaOnly, None));
    assert!(eff(PolicyKind::ScFirst, None) > eff(PolicyKind::BaOnly, None));
    let small_gain = eff(PolicyKind::HebD, Some(PeakClass::Small))
        - eff(PolicyKind::BaOnly, Some(PeakClass::Small));
    let large_gain = eff(PolicyKind::HebD, Some(PeakClass::Large))
        - eff(PolicyKind::BaOnly, Some(PeakClass::Large));
    assert!(
        small_gain > large_gain,
        "small-peak gain {small_gain} should exceed large-peak gain {large_gain}"
    );
}

/// Figure 12(b): under a lowered budget, HEB reduces downtime vs
/// BaOnly; BaFirst is the worst hybrid.
#[test]
fn claim_fig12b_downtime_ordering() {
    let base = SimConfig::prototype()
        .with_budget(Watts::new(245.0))
        .with_total_capacity(Joules::from_watt_hours(60.0));
    let results = scheme_comparison(&SerialRunner, &base, 6.0, 0.2, 2015);
    let down = |p: PolicyKind| {
        results
            .iter()
            .find(|r| r.policy == p)
            .unwrap()
            .total_downtime(None)
            .get()
    };
    assert!(
        down(PolicyKind::HebD) < down(PolicyKind::BaOnly),
        "HEB-D {} vs BaOnly {}",
        down(PolicyKind::HebD),
        down(PolicyKind::BaOnly)
    );
}

/// Figure 12(c): SC-preferential schemes cut battery wear by a large
/// factor — at least the paper's 4.7×. Ours runs larger (7.48× in
/// this 4 h run, 6.8× in the 8 h table of `results/fig12_schemes.txt`);
/// the 10× ceiling keeps that gap from growing unnoticed
/// (EXPERIMENTS.md, "Magnitude gaps").
#[test]
fn claim_fig12c_battery_life_extension() {
    let base = SimConfig::prototype();
    let results = scheme_comparison(&SerialRunner, &base, 4.0, 0.2, 2015);
    let find = |p: PolicyKind| results.iter().find(|r| r.policy == p).unwrap();
    let improvement =
        find(PolicyKind::HebD).lifetime_improvement_vs(find(PolicyKind::BaOnly), 10.0);
    assert!(
        (4.7..=10.0).contains(&improvement),
        "HEB-D wear improvement {improvement} outside 4.7x-10x"
    );
}

/// Figure 12(d): in a deep-valley window, SC-charging schemes utilise
/// far more renewable energy than battery-only.
#[test]
fn claim_fig12d_deep_valley_reu() {
    let points = deep_valley_absorption(
        &SerialRunner,
        &SimConfig::prototype(),
        Watts::new(230.0),
        15.0,
        2015,
    );
    let reu = |p: PolicyKind| points.iter().find(|v| v.policy == p).unwrap().reu.get();
    let improvement = (reu(PolicyKind::HebD) - reu(PolicyKind::BaOnly)) / reu(PolicyKind::BaOnly);
    assert!(
        improvement > 0.35,
        "deep-valley REU improvement {improvement} too small"
    );
}

/// Figure 15(b)–(c): positive ROI over most of the region; break-even
/// ordering HEB < BaOnly < SCFirst < BaFirst; ≥1.9× 8-year gain;
/// BaFirst below BaOnly.
#[test]
fn claim_fig15_economics() {
    let roi = RoiModel::paper_defaults();
    assert!(roi.roi(Dollars::new(10.0), 0.5) > 0.0);

    let m = PeakShavingModel::paper_defaults();
    let be = |s: &SchemeEconomics| m.break_even_years(s, 20.0).unwrap();
    let heb = SchemeEconomics::heb();
    let ba = SchemeEconomics::ba_only();
    assert!(be(&heb) < be(&ba));
    assert!(be(&ba) < be(&SchemeEconomics::sc_first()));
    assert!(be(&SchemeEconomics::sc_first()) < be(&SchemeEconomics::ba_first()));
    assert!(m.gain_vs(&heb, &ba, 8.0).unwrap() >= 1.9);
    assert!(m.net_profit(&SchemeEconomics::ba_first(), 8.0) < m.net_profit(&ba, 8.0));
}
