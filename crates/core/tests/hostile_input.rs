//! Hostile-input properties for the two parsers every run passes
//! through: the fault-spec grammar and configuration validation.
//!
//! Neither may panic on any input. A fault spec either fails with a
//! typed error or yields a schedule whose times and arguments are
//! finite; a configuration either fails [`SimConfig::try_validate`]
//! — and then fails the builder and [`Scenario::run`] with the same
//! error — or runs.

use heb_core::{
    ConfigError, FaultKind, FaultSchedule, PolicyKind, Scenario, SimConfig, SimError, SimReport,
    MAX_TICKS_PER_SLOT,
};
use heb_units::{Joules, Ratio, Seconds, Watts};
use heb_workload::Archetype;
use proptest::prelude::*;

/// Characters the fault grammar gives meaning to, digits, letters of
/// the fault names, and a few that it does not know at all.
const ALPHABET: &[char] = &[
    '@', '~', ';', '(', ')', ',', '.', '-', '+', 'e', 'E', ' ', '0', '1', '2', '5', '9', 'a', 'b',
    'c', 'd', 'f', 'i', 'k', 'l', 'N', 'n', 'o', 'r', 's', 't', 'u', 'w', 'x', 'y', '\t', '\n',
    '\0', 'é', '∞', '💥',
];

/// Whole tokens a mutation splices in: the non-finite spellings
/// `f64::from_str` accepts, overflowing and signed numbers, and grammar
/// fragments.
const TOKENS: &[&str] = &[
    "NaN",
    "nan",
    "inf",
    "-inf",
    "infinity",
    "1e309",
    "-0",
    "-1",
    "0",
    "0.5",
    "3",
    "1e18",
    "@",
    "~",
    ";",
    "(",
    ")",
    ",",
    "()",
    "(,)",
    "blackout",
    "brownout(",
    "ba-fail",
    "meter-spike",
];

/// Well-formed specs the mutations start from.
const VALID: &[&str] = &[
    "blackout@1800~600",
    "brownout(0.5)@3600~1200; ba-fail(0)@7200",
    "ba-degrade(0.1,0.2)@1200; sc-fail(0)@200~400",
    "relay-open(2)@100~900; meter-drop@300~120; meter-freeze@10~5",
    "meter-spike(3)@1500~60; solar-drop@36000~3600",
];

fn arbitrary_spec() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..ALPHABET.len(), 0..48)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

/// One edit: (kind, position, token or alphabet pick, length).
type Mutation = (usize, usize, usize, usize);

fn mutated_spec() -> impl Strategy<Value = String> {
    (
        0..VALID.len(),
        proptest::collection::vec((0..3usize, 0..64usize, 0..64usize, 1..6usize), 1..5),
    )
        .prop_map(|(base, edits)| mutate(VALID[base], &edits))
}

fn mutate(base: &str, edits: &[Mutation]) -> String {
    let mut chars: Vec<char> = base.chars().collect();
    for &(kind, pos, pick, len) in edits {
        let at = pos % (chars.len() + 1);
        match kind {
            // Insert a token.
            0 => {
                let token = TOKENS[pick % TOKENS.len()];
                chars.splice(at..at, token.chars());
            }
            // Delete a run of characters.
            1 => {
                let end = (at + len).min(chars.len());
                chars.drain(at..end);
            }
            // Overwrite one character.
            _ => {
                if at < chars.len() {
                    chars[at] = ALPHABET[pick % ALPHABET.len()];
                }
            }
        }
    }
    chars.into_iter().collect()
}

/// Parses `spec`; an accepted schedule must hold only finite,
/// non-negative times and finite arguments.
fn assert_parse_is_sane(spec: &str) {
    let Ok(schedule) = FaultSchedule::parse(spec) else {
        return;
    };
    for event in schedule.events() {
        let at = event.at.get();
        assert!(at.is_finite() && at >= 0.0, "{spec:?}: start {at}");
        if let Some(d) = event.duration {
            assert!(
                d.get().is_finite() && d.get() > 0.0,
                "{spec:?}: duration {d:?}"
            );
        }
        let args: Vec<f64> = match event.kind {
            FaultKind::UtilityBrownout { derate } => vec![derate.get()],
            FaultKind::BatteryDegradation {
                capacity_fade,
                resistance_growth,
            } => vec![capacity_fade.get(), resistance_growth],
            FaultKind::MeterSpike { factor } => vec![factor],
            _ => Vec::new(),
        };
        assert!(
            args.iter().all(|a| a.is_finite()),
            "{spec:?}: arguments {args:?}"
        );
    }
}

/// One of `bad` (each once) or `good` (each 16 times), so that most
/// drawn configs are valid in most fields and a fair share of them run.
fn field<T: Copy + 'static>(bad: &[T], good: &[T]) -> proptest::sample::Select<T> {
    let mut values = bad.to_vec();
    for _ in 0..16 {
        values.extend_from_slice(good);
    }
    proptest::sample::select(values)
}

/// The f64 fields of a [`SimConfig`], in declaration order (ratios
/// raw): budget, capacity (Wh), sc_fraction, dod_limit, slot, tick,
/// small-peak threshold, delta_r, energy bucket (Wh), power bucket,
/// metering noise — each drawn from NaN, ±∞, negative, zero and
/// in-range values. A 1e12 s slot and a 1e-9 s tick each ask for a
/// meter window far past any real slot.
type Floats = (f64, f64, f64, f64, f64, f64, f64, f64, f64, f64, f64);

fn floats() -> impl Strategy<Value = Floats> {
    let nan = f64::NAN;
    let inf = f64::INFINITY;
    (
        (
            field(&[nan, inf, -inf, -50.0], &[0.0, 260.0, 1.0e4]),
            field(&[nan, inf, -inf, -1.0, 0.0], &[150.0, 0.01]),
            field(&[nan, inf, -inf, -0.2, 1.5], &[0.0, 0.3, 1.0]),
            field(&[nan, inf, -inf, -0.2, 0.0, 1.5], &[0.8, 1.0]),
            field(&[nan, inf, -inf, -60.0, 0.0, 1.0e12], &[0.5, 60.0, 600.0]),
            field(&[nan, inf, -inf, -1.0, 0.0, 1.0e-9], &[0.5, 1.0, 2.0]),
        ),
        (
            field(&[nan, inf, -inf, -1.0], &[0.0, 80.0]),
            field(&[nan, inf, -inf, -0.01, 0.0], &[0.01, 1.0]),
            field(&[nan, inf, -inf, -1.0, 0.0], &[10.0]),
            field(&[nan, inf, -inf, -1.0, 0.0], &[20.0]),
            field(&[nan, inf, -inf, -0.1], &[0.0, 0.03]),
        ),
    )
        .prop_map(|((b, c, sc, dod, slot, tick), (th, dr, eb, pb, noise))| {
            (b, c, sc, dod, slot, tick, th, dr, eb, pb, noise)
        })
}

/// (servers, forecast period, battery strings, policy).
fn counts() -> impl Strategy<Value = (usize, usize, usize, PolicyKind)> {
    (
        field(&[0], &[1, 6, 24]),
        field(&[0, 1], &[2, 6]),
        field(&[0], &[1, 3]),
        proptest::sample::select(PolicyKind::ALL.to_vec()),
    )
}

fn config(floats: Floats, counts: (usize, usize, usize, PolicyKind)) -> SimConfig {
    let (budget, capacity_wh, sc, dod, slot, tick, threshold, delta_r, energy_wh, power, noise) =
        floats;
    let (servers, forecast_period, battery_strings, policy) = counts;
    let mut c = SimConfig::prototype().with_policy(policy);
    c.servers = servers;
    c.budget = Watts::new(budget);
    c.total_capacity = Joules::from_watt_hours(capacity_wh);
    c.sc_fraction = Ratio::new_unclamped(sc);
    c.dod_limit = Ratio::new_unclamped(dod);
    c.slot_length = Seconds::new(slot);
    c.tick = Seconds::new(tick);
    c.small_peak_threshold = Watts::new(threshold);
    c.delta_r = Ratio::new_unclamped(delta_r);
    c.pat_energy_bucket = Joules::from_watt_hours(energy_wh);
    c.pat_power_bucket = Watts::new(power);
    c.forecast_period = forecast_period;
    c.metering_noise = noise;
    c.battery_strings = battery_strings;
    c
}

/// Errors compared by their debug form, so a NaN payload matches.
fn verdict<T>(result: &Result<T, impl std::fmt::Debug>) -> Option<String> {
    result.as_ref().err().map(|e| format!("{e:?}"))
}

/// A slot that would size the meter window past [`MAX_TICKS_PER_SLOT`]
/// samples, or without bound, is a typed config error from
/// [`Scenario::run`]; a slot of exactly the bound runs.
#[test]
fn unbounded_meter_windows_are_config_errors() {
    let bound = MAX_TICKS_PER_SLOT as f64;
    for (slot, tick) in [
        (f64::INFINITY, 1.0),
        (1.0e12, 1.0),
        (600.0, 1.0e-9),
        (bound + 1.0, 1.0),
    ] {
        let mut config = SimConfig::prototype();
        config.slot_length = Seconds::new(slot);
        config.tick = Seconds::new(tick);
        let run = Scenario::from_ticks("window", config, &[Archetype::WebSearch], 3, 1).run();
        assert!(
            matches!(run, Err(SimError::Config(ConfigError::SlotTooLong { .. }))),
            "{slot} s slot on a {tick} s tick gave {:?}",
            run.map(|_| ())
        );
    }
    let mut config = SimConfig::prototype();
    config.slot_length = Seconds::new(bound);
    let run = Scenario::from_ticks("window", config, &[Archetype::WebSearch], 3, 1).run();
    assert!(run.is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_fault_specs_never_panic(spec in arbitrary_spec()) {
        assert_parse_is_sane(&spec);
    }

    #[test]
    fn mutated_fault_specs_never_panic(spec in mutated_spec()) {
        assert_parse_is_sane(&spec);
    }

    #[test]
    fn config_validation_is_one_verdict_and_runs_never_panic(
        floats in floats(),
        counts in counts(),
        seed in 0u64..1_000,
    ) {
        let config = config(floats, counts);
        let validated = config.try_validate();
        prop_assert_eq!(
            verdict(&validated),
            verdict(&config.to_builder().build()),
            "builder and try_validate disagree on {:?}",
            config
        );
        let mix = [Archetype::WebSearch, Archetype::Terasort];
        let run: Result<SimReport, SimError> =
            Scenario::from_ticks("hostile", config.clone(), &mix, 30, seed).run();
        match (validated, run) {
            (Ok(()), Ok(_)) => {}
            (Err(expected), Err(SimError::Config(got))) => prop_assert_eq!(
                format!("{expected:?}"),
                format!("{got:?}")
            ),
            (validated, run) => panic!(
                "{config:?}: try_validate gave {validated:?} but run gave {:?}",
                run.map(|_| ())
            ),
        }
    }
}
