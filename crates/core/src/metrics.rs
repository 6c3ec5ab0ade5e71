//! The evaluation metrics of Section 7.

use crate::faults::FaultLedger;
use heb_units::{Joules, Ratio, Seconds, Watts};

/// Aggregated results of one simulation run — the paper's four headline
/// metrics plus the raw energy accounting they derive from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimReport {
    /// Simulated time covered.
    pub sim_time: Seconds,
    /// Energy buffers delivered to servers.
    pub buffer_delivered: Joules,
    /// Energy drained out of buffer stores (delivered + discharge loss).
    pub buffer_drained: Joules,
    /// Energy dissipated while discharging buffers.
    pub discharge_loss: Joules,
    /// Energy drawn from sources into buffers while charging.
    pub charge_drawn: Joules,
    /// Energy actually stored while charging.
    pub charge_stored: Joules,
    /// Energy dissipated while charging.
    pub charge_loss: Joules,
    /// Energy dissipated in the architecture's conversion stages
    /// (Figure 7: double conversion, inverters, rectifiers).
    pub conversion_loss: Joules,
    /// Energy supplied directly by the utility feed.
    pub utility_supplied: Joules,
    /// Highest power the utility meter registered (what a demand charge
    /// bills on).
    pub utility_peak: Watts,
    /// Renewable energy generated (solar mode only).
    pub renewable_generated: Joules,
    /// Renewable energy put to use — load plus storage (solar mode).
    pub renewable_used: Joules,
    /// Aggregated server downtime (the paper's SD metric).
    pub server_downtime: Seconds,
    /// Server off→on cycles performed.
    pub server_restarts: u64,
    /// Demand energy that went unserved because servers were shed.
    pub unserved_energy: Joules,
    /// Boot energy burned by power-capping off/on cycles (Figure 3's
    /// "server on/off" waste), chargeable to the management scheme.
    pub restart_waste: Joules,
    /// Number of shedding events.
    pub shed_events: u64,
    /// Projected battery lifetime under the observed usage; `None` when
    /// the configuration has no battery pool.
    pub battery_lifetime: Option<Seconds>,
    /// Fraction of battery lifetime budget consumed during the run.
    pub battery_life_used: Ratio,
    /// Control slots executed.
    pub slots: u64,
    /// PAT entries at the end of the run (0 for non-PAT policies).
    pub pat_entries: usize,
    /// Relay actuations performed by the switch fabric.
    pub relay_actuations: u64,
    /// Simulated times of every shedding event, in onset order (one
    /// entry per `shed_events` increment). Lets post-hoc analyses —
    /// e.g. outage survival — locate sheds without re-running.
    pub shed_times: Vec<Seconds>,
    /// Fault-injection audit trail (all-zero for fault-free runs).
    pub faults: FaultLedger,
}

impl SimReport {
    /// The paper's *energy efficiency* metric: the fraction of the
    /// energy a power-management scheme handled that did useful work —
    /// `delivered / (delivered + charge losses + discharge losses +
    /// restart waste)`. The restart term charges the scheme for the
    /// boot energy its power-capping shutdowns burn, exactly the
    /// "server on/off" waste the paper's Figure 3 accounts.
    ///
    /// Returns `Ratio::ONE` for a run in which the buffers were never
    /// used (nothing was wasted).
    #[must_use]
    pub fn energy_efficiency(&self) -> Ratio {
        let useful = self.buffer_delivered.get();
        let wasted = self.charge_loss.get()
            + self.discharge_loss.get()
            + self.restart_waste.get()
            + self.conversion_loss.get();
        if useful + wasted <= 0.0 {
            Ratio::ONE
        } else {
            Ratio::new_clamped(useful / (useful + wasted))
        }
    }

    /// Renewable-energy utilisation: `(ΣB_RE + ΣL_RE) / ΣS_RE`
    /// (Section 2.2). `Ratio::ONE` when no renewable generation was
    /// simulated.
    #[must_use]
    pub fn reu(&self) -> Ratio {
        if self.renewable_generated.get() <= 0.0 {
            Ratio::ONE
        } else {
            Ratio::new_clamped(self.renewable_used / self.renewable_generated)
        }
    }

    /// Downtime as a fraction of total server-time, given the fleet
    /// size.
    #[must_use]
    pub fn downtime_fraction(&self, servers: usize) -> Ratio {
        let total = self.sim_time.get() * servers as f64;
        if total <= 0.0 {
            Ratio::ZERO
        } else {
            Ratio::new_clamped(self.server_downtime.get() / total)
        }
    }

    /// Battery lifetime in years (convenience for reports); `None` when
    /// there is no battery pool.
    #[must_use]
    pub fn battery_lifetime_years(&self) -> Option<f64> {
        self.battery_lifetime.map(|s| s.as_hours() / (24.0 * 365.0))
    }

    /// The first shedding event at or after `t`, if any — e.g. the
    /// first shed inside an outage window that opens at `t`.
    #[must_use]
    pub fn first_shed_at_or_after(&self, t: Seconds) -> Option<Seconds> {
        self.shed_times.iter().copied().find(|&s| s >= t)
    }

    /// Serialises the report to the `heb-report v1` record format: one
    /// `key = value` line per field, floats rendered as their IEEE-754
    /// bit patterns in hex so that [`SimReport::from_record`] round-trips
    /// bit-exactly. This is the fleet cache's on-disk value format —
    /// hand-rolled because the build environment has no registry access
    /// for serde.
    #[must_use]
    pub fn to_record(&self) -> String {
        fn f(out: &mut String, key: &str, value: f64) {
            out.push_str(&format!("{key} = {:016x}\n", value.to_bits()));
        }
        fn u(out: &mut String, key: &str, value: u64) {
            out.push_str(&format!("{key} = {value}\n"));
        }
        let mut out = String::from("heb-report v1\n");
        f(&mut out, "sim_time", self.sim_time.get());
        f(&mut out, "buffer_delivered", self.buffer_delivered.get());
        f(&mut out, "buffer_drained", self.buffer_drained.get());
        f(&mut out, "discharge_loss", self.discharge_loss.get());
        f(&mut out, "charge_drawn", self.charge_drawn.get());
        f(&mut out, "charge_stored", self.charge_stored.get());
        f(&mut out, "charge_loss", self.charge_loss.get());
        f(&mut out, "conversion_loss", self.conversion_loss.get());
        f(&mut out, "utility_supplied", self.utility_supplied.get());
        f(&mut out, "utility_peak", self.utility_peak.get());
        f(
            &mut out,
            "renewable_generated",
            self.renewable_generated.get(),
        );
        f(&mut out, "renewable_used", self.renewable_used.get());
        f(&mut out, "server_downtime", self.server_downtime.get());
        u(&mut out, "server_restarts", self.server_restarts);
        f(&mut out, "unserved_energy", self.unserved_energy.get());
        f(&mut out, "restart_waste", self.restart_waste.get());
        u(&mut out, "shed_events", self.shed_events);
        match self.battery_lifetime {
            Some(s) => f(&mut out, "battery_lifetime", s.get()),
            None => out.push_str("battery_lifetime = none\n"),
        }
        f(&mut out, "battery_life_used", self.battery_life_used.get());
        u(&mut out, "slots", self.slots);
        u(&mut out, "pat_entries", self.pat_entries as u64);
        u(&mut out, "relay_actuations", self.relay_actuations);
        let times: Vec<String> = self
            .shed_times
            .iter()
            .map(|s| format!("{:016x}", s.get().to_bits()))
            .collect();
        out.push_str(&format!("shed_times = {}\n", times.join(",")));
        u(
            &mut out,
            "faults.events_applied",
            self.faults.events_applied,
        );
        u(
            &mut out,
            "faults.events_recovered",
            self.faults.events_recovered,
        );
        u(
            &mut out,
            "faults.blackout_ticks",
            self.faults.blackout_ticks,
        );
        u(
            &mut out,
            "faults.brownout_ticks",
            self.faults.brownout_ticks,
        );
        u(
            &mut out,
            "faults.solar_dropout_ticks",
            self.faults.solar_dropout_ticks,
        );
        u(
            &mut out,
            "faults.meter_gap_ticks",
            self.faults.meter_gap_ticks,
        );
        u(
            &mut out,
            "faults.meter_spike_ticks",
            self.faults.meter_spike_ticks,
        );
        f(
            &mut out,
            "faults.ride_through",
            self.faults.ride_through.get(),
        );
        f(
            &mut out,
            "faults.fault_unserved",
            self.faults.fault_unserved.get(),
        );
        u(&mut out, "faults.replans", self.faults.replans);
        u(
            &mut out,
            "faults.forecast_fallbacks",
            self.faults.forecast_fallbacks,
        );
        u(
            &mut out,
            "faults.strings_quarantined",
            self.faults.strings_quarantined,
        );
        u(
            &mut out,
            "faults.strings_restored",
            self.faults.strings_restored,
        );
        f(
            &mut out,
            "faults.recovery_latency",
            self.faults.recovery_latency.get(),
        );
        out
    }

    /// Parses a record produced by [`SimReport::to_record`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing line.
    /// Callers treating records as cache entries should map any error
    /// to a cache miss.
    pub fn from_record(record: &str) -> Result<Self, String> {
        let mut lines = record.lines();
        match lines.next() {
            Some("heb-report v1") => {}
            other => return Err(format!("bad record header {other:?}")),
        }
        let mut map = std::collections::BTreeMap::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("malformed line {line:?}"))?;
            map.insert(key.trim(), value.trim());
        }
        let raw = |key: &str| -> Result<&str, String> {
            map.get(key)
                .copied()
                .ok_or_else(|| format!("missing field {key:?}"))
        };
        let bits = |key: &str| -> Result<f64, String> {
            let v = raw(key)?;
            u64::from_str_radix(v, 16)
                .map(f64::from_bits)
                .map_err(|_| format!("bad float bits for {key:?}: {v:?}"))
        };
        let int = |key: &str| -> Result<u64, String> {
            let v = raw(key)?;
            v.parse()
                .map_err(|_| format!("bad integer for {key:?}: {v:?}"))
        };
        let battery_lifetime = match raw("battery_lifetime")? {
            "none" => None,
            v => Some(Seconds::new(
                u64::from_str_radix(v, 16)
                    .map(f64::from_bits)
                    .map_err(|_| format!("bad float bits for battery_lifetime: {v:?}"))?,
            )),
        };
        let shed_raw = raw("shed_times")?;
        let shed_times = if shed_raw.is_empty() {
            Vec::new()
        } else {
            shed_raw
                .split(',')
                .map(|v| {
                    u64::from_str_radix(v, 16)
                        .map(|b| Seconds::new(f64::from_bits(b)))
                        .map_err(|_| format!("bad shed time {v:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?
        };
        Ok(Self {
            sim_time: Seconds::new(bits("sim_time")?),
            buffer_delivered: Joules::new(bits("buffer_delivered")?),
            buffer_drained: Joules::new(bits("buffer_drained")?),
            discharge_loss: Joules::new(bits("discharge_loss")?),
            charge_drawn: Joules::new(bits("charge_drawn")?),
            charge_stored: Joules::new(bits("charge_stored")?),
            charge_loss: Joules::new(bits("charge_loss")?),
            conversion_loss: Joules::new(bits("conversion_loss")?),
            utility_supplied: Joules::new(bits("utility_supplied")?),
            utility_peak: Watts::new(bits("utility_peak")?),
            renewable_generated: Joules::new(bits("renewable_generated")?),
            renewable_used: Joules::new(bits("renewable_used")?),
            server_downtime: Seconds::new(bits("server_downtime")?),
            server_restarts: int("server_restarts")?,
            unserved_energy: Joules::new(bits("unserved_energy")?),
            restart_waste: Joules::new(bits("restart_waste")?),
            shed_events: int("shed_events")?,
            battery_lifetime,
            battery_life_used: Ratio::new_unclamped(bits("battery_life_used")?),
            slots: int("slots")?,
            pat_entries: int("pat_entries")? as usize,
            relay_actuations: int("relay_actuations")?,
            shed_times,
            faults: FaultLedger {
                events_applied: int("faults.events_applied")?,
                events_recovered: int("faults.events_recovered")?,
                blackout_ticks: int("faults.blackout_ticks")?,
                brownout_ticks: int("faults.brownout_ticks")?,
                solar_dropout_ticks: int("faults.solar_dropout_ticks")?,
                meter_gap_ticks: int("faults.meter_gap_ticks")?,
                meter_spike_ticks: int("faults.meter_spike_ticks")?,
                ride_through: Seconds::new(bits("faults.ride_through")?),
                fault_unserved: Joules::new(bits("faults.fault_unserved")?),
                replans: int("faults.replans")?,
                forecast_fallbacks: int("faults.forecast_fallbacks")?,
                strings_quarantined: int("faults.strings_quarantined")?,
                strings_restored: int("faults.strings_restored")?,
                recovery_latency: Seconds::new(bits("faults.recovery_latency")?),
            },
        })
    }
}

impl core::fmt::Display for SimReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "simulated {:.1} h", self.sim_time.as_hours())?;
        writeln!(
            f,
            "  buffer: delivered {:.1} Wh, eff {:.1}",
            self.buffer_delivered.as_watt_hours().get(),
            self.energy_efficiency()
        )?;
        writeln!(
            f,
            "  downtime {:.0} s over {} shed events, {} restarts",
            self.server_downtime.get(),
            self.shed_events,
            self.server_restarts
        )?;
        if let Some(years) = self.battery_lifetime_years() {
            writeln!(f, "  battery lifetime projection {years:.1} y")?;
        }
        if self.renewable_generated.get() > 0.0 {
            writeln!(f, "  REU {:.1}", self.reu())?;
        }
        write!(
            f,
            "  slots {}, PAT entries {}",
            self.slots, self.pat_entries
        )?;
        if self.faults.any() {
            write!(f, "\n  {}", self.faults)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_of_unused_buffers_is_one() {
        let r = SimReport::default();
        assert_eq!(r.energy_efficiency(), Ratio::ONE);
        assert_eq!(r.reu(), Ratio::ONE);
    }

    #[test]
    fn efficiency_accounts_both_loss_sides() {
        let r = SimReport {
            buffer_delivered: Joules::new(800.0),
            charge_loss: Joules::new(100.0),
            discharge_loss: Joules::new(100.0),
            ..SimReport::default()
        };
        assert!((r.energy_efficiency().get() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn reu_ratio() {
        let r = SimReport {
            renewable_generated: Joules::new(1000.0),
            renewable_used: Joules::new(650.0),
            ..SimReport::default()
        };
        assert!((r.reu().get() - 0.65).abs() < 1e-12);
    }

    #[test]
    fn downtime_fraction() {
        let r = SimReport {
            sim_time: Seconds::new(100.0),
            server_downtime: Seconds::new(30.0),
            ..SimReport::default()
        };
        assert!((r.downtime_fraction(6).get() - 0.05).abs() < 1e-12);
        assert_eq!(r.downtime_fraction(0), Ratio::ZERO);
    }

    #[test]
    fn display_is_nonempty() {
        let out = SimReport::default().to_string();
        assert!(out.contains("simulated"));
    }

    fn awkward_report() -> SimReport {
        SimReport {
            sim_time: Seconds::new(3600.0),
            buffer_delivered: Joules::new(0.1 + 0.2), // not exactly 0.3
            buffer_drained: Joules::new(1.0 / 3.0),
            utility_peak: Watts::new(f64::MIN_POSITIVE),
            server_restarts: u64::MAX,
            battery_lifetime: Some(Seconds::new(1e9)),
            battery_life_used: Ratio::new_clamped(0.25),
            shed_times: vec![Seconds::new(12.0), Seconds::new(610.5)],
            faults: crate::faults::FaultLedger {
                events_applied: 3,
                ride_through: Seconds::new(0.1),
                fault_unserved: Joules::new(7.25),
                ..Default::default()
            },
            ..SimReport::default()
        }
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        for report in [SimReport::default(), awkward_report()] {
            let parsed = SimReport::from_record(&report.to_record()).unwrap();
            assert_eq!(parsed, report);
            // PartialEq on f64 newtypes already compares values; check
            // the tricky bits explicitly too.
            assert_eq!(
                parsed.buffer_delivered.get().to_bits(),
                report.buffer_delivered.get().to_bits()
            );
        }
    }

    #[test]
    fn record_parser_rejects_corruption() {
        let good = awkward_report().to_record();
        assert!(SimReport::from_record("not a record").is_err());
        assert!(SimReport::from_record(&good.replace("heb-report v1", "heb-report v9")).is_err());
        assert!(SimReport::from_record(&good.replace("sim_time", "sim_tome")).is_err());
        let truncated = good.lines().take(5).collect::<Vec<_>>().join("\n");
        assert!(SimReport::from_record(&truncated).is_err());
    }

    #[test]
    fn first_shed_lookup() {
        let r = awkward_report();
        assert_eq!(
            r.first_shed_at_or_after(Seconds::new(0.0)),
            Some(Seconds::new(12.0))
        );
        assert_eq!(
            r.first_shed_at_or_after(Seconds::new(13.0)),
            Some(Seconds::new(610.5))
        );
        assert_eq!(r.first_shed_at_or_after(Seconds::new(1e6)), None);
    }
}
