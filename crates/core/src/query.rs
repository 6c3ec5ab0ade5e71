//! What-if provisioning queries: the typed request model of the
//! capacity-advisor service (`heb_serve`, DESIGN §10).
//!
//! A [`WhatIfQuery`] names a workload mix, a horizon, and optional
//! sizing overrides on top of [`SimConfig::prototype`]. It validates
//! through [`SimConfig::builder`] — exactly the same gate the fleet
//! CLI uses — and lowers to a [`Scenario`], so a query's identity is
//! the scenario's content hash and warm answers come straight from the
//! content-addressed result cache.
//!
//! The module also synthesises the aggregate demand trace a query
//! implies ([`demand_trace`]): the total demand the rack
//! [`Scenario::build`] builds would report under its workload lanes
//! alone, bit for bit, so the paper's MPPU metric (§2.1) can be
//! reported without re-running the simulation ([`scenario_mppu`], which
//! counts the ticks at budget in the same drive loop instead of
//! collecting the trace).

use std::fmt;

use heb_units::{Joules, Watts};
use heb_workload::{Archetype, PowerTrace};

use crate::config::{ConfigError, SimConfig};
use crate::policy::PolicyKind;
use crate::scenario::Scenario;

/// Why a what-if query could not be lowered to a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The workload mix was empty.
    NoWorkloads,
    /// The horizon was zero, negative, or not finite.
    BadHours(f64),
    /// A sizing override failed [`SimConfig::builder`] validation.
    Config(ConfigError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NoWorkloads => write!(f, "query names no workloads"),
            QueryError::BadHours(hours) => {
                write!(f, "query horizon must be finite and positive, got {hours}")
            }
            QueryError::Config(err) => write!(f, "query config rejected: {err}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ConfigError> for QueryError {
    fn from(err: ConfigError) -> Self {
        QueryError::Config(err)
    }
}

/// A provisioning what-if: workload mix × buffer sizing × horizon.
///
/// `None` fields inherit [`SimConfig::prototype`] defaults, so the
/// smallest valid query is just a workload mix and a horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfQuery {
    /// Workload mix, assigned to servers round-robin.
    pub workloads: Vec<Archetype>,
    /// Simulated horizon in hours.
    pub hours: f64,
    /// Base seed for the per-server utilization generators.
    pub seed: u64,
    /// Cluster size override.
    pub servers: Option<usize>,
    /// Utility power budget override.
    pub budget: Option<Watts>,
    /// Total buffer capacity override.
    pub capacity: Option<Joules>,
    /// Super-capacitor share of the buffer capacity (0..=1).
    pub sc_fraction: Option<f64>,
    /// Battery depth-of-discharge limit (0..=1).
    pub dod_limit: Option<f64>,
    /// Buffer-management scheme override.
    pub policy: Option<PolicyKind>,
}

impl WhatIfQuery {
    /// A query for `workloads` over `hours` with every sizing knob at
    /// its prototype default.
    #[must_use]
    pub fn new(workloads: Vec<Archetype>, hours: f64, seed: u64) -> Self {
        Self {
            workloads,
            hours,
            seed,
            servers: None,
            budget: None,
            capacity: None,
            sc_fraction: None,
            dod_limit: None,
            policy: None,
        }
    }

    /// Resolves the query's configuration through
    /// [`SimConfig::builder`], applying overrides on top of the
    /// prototype defaults.
    ///
    /// # Errors
    ///
    /// Returns the builder's [`ConfigError`] for any out-of-range or
    /// non-finite override.
    pub fn config(&self) -> Result<SimConfig, ConfigError> {
        let mut builder = SimConfig::prototype().to_builder();
        if let Some(servers) = self.servers {
            builder = builder.servers(servers);
        }
        if let Some(budget) = self.budget {
            builder = builder.budget(budget);
        }
        if let Some(capacity) = self.capacity {
            builder = builder.total_capacity(capacity);
        }
        if let Some(fraction) = self.sc_fraction {
            builder = builder.sc_fraction(fraction);
        }
        if let Some(limit) = self.dod_limit {
            builder = builder.dod_limit(limit);
        }
        if let Some(policy) = self.policy {
            builder = builder.policy(policy);
        }
        builder.build()
    }

    /// The query's canonical display label. Cosmetic only: the label
    /// is excluded from [`Scenario::content_hash`], so it never
    /// affects cache identity.
    #[must_use]
    pub fn label(&self) -> String {
        let mix: Vec<&str> = self.workloads.iter().map(|w| w.abbreviation()).collect();
        format!("serve/{}/h{}/seed{}", mix.join("+"), self.hours, self.seed)
    }

    /// Lowers the query to a runnable [`Scenario`]. The scenario's
    /// content hash is the query's cache key.
    ///
    /// # Errors
    ///
    /// Returns a [`QueryError`] when the mix is empty, the horizon is
    /// not positive and finite, or an override fails validation.
    pub fn scenario(&self) -> Result<Scenario, QueryError> {
        if self.workloads.is_empty() {
            return Err(QueryError::NoWorkloads);
        }
        if !self.hours.is_finite() || self.hours <= 0.0 {
            return Err(QueryError::BadHours(self.hours));
        }
        let config = self.config()?;
        Ok(Scenario::new(
            self.label(),
            config,
            &self.workloads,
            self.hours,
            self.seed,
        ))
    }

    /// The fraction of the horizon in which aggregate demand reaches
    /// the provisioned budget — the paper's MPPU (§2.1) — computed on
    /// the synthesised demand trace of the lowered scenario (see
    /// [`scenario_mppu`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`WhatIfQuery::scenario`].
    pub fn mppu(&self) -> Result<f64, QueryError> {
        Ok(scenario_mppu(&self.scenario()?))
    }
}

/// The paper's MPPU (§2.1) for a scenario: the fraction of its horizon
/// in which the open-loop [`demand_trace`] of its config, workload mix
/// and seed reaches the config's budget. A pure function of the
/// scenario, so callers may memoise it by [`Scenario::content_hash`].
/// MPPU is defined over open-loop demand, so the scenario's power
/// mode, faults, initial state of charge and steady-workload override
/// play no part.
///
/// The ticks at or above budget are counted as the demand is driven,
/// so no trace is collected; the result equals
/// [`PowerTrace::mppu`] of the collected trace bit for bit.
#[must_use]
pub fn scenario_mppu(scenario: &Scenario) -> f64 {
    let config = scenario.config();
    let mut ticks = 0_usize;
    let mut at_budget = 0_usize;
    drive_demand(
        config,
        scenario.workloads(),
        scenario.ticks(),
        scenario.seed(),
        |demand| {
            ticks += 1;
            at_budget += usize::from(demand >= config.budget);
        },
    );
    if ticks == 0 {
        return 0.0;
    }
    at_budget as f64 / ticks as f64
}

/// Synthesises the aggregate cluster demand trace a scenario implies:
/// per tick, the [`Cluster::total_demand`] that the rack of
/// `config.servers` prototype servers would report once its
/// utilization lanes were driven, with every server running and no
/// power-capping feedback. Servers get the simulator's assignment
/// (round-robin workloads, server `i` seeded `seed + i * 7919`,
/// small-peak archetypes in the low-frequency group), so this is the
/// open-loop demand the paper's MPPU metric is defined over.
///
/// [`Cluster::total_demand`]: heb_powersys::Cluster::total_demand
#[must_use]
pub fn demand_trace(
    config: &SimConfig,
    workloads: &[Archetype],
    ticks: u64,
    seed: u64,
) -> PowerTrace {
    let mut samples = Vec::new();
    drive_demand(config, workloads, ticks, seed, |demand| {
        samples.push(demand)
    });
    PowerTrace::new(samples, config.tick)
}

/// The one open-loop drive loop behind [`demand_trace`] and
/// [`scenario_mppu`]: hands `sink` the rack's total demand once per
/// tick, and nothing for an empty mix or cluster.
///
/// The rack and its lanes are the simulator's own
/// ([`crate::sim::seeded_rack`]). The lanes are drawn a block of ticks
/// at a time, lane by lane ([`UtilizationLanes::next_block_into`]), and
/// [`Cluster::block_demand`] gives each tick's total without driving
/// the cluster tick by tick.
///
/// [`UtilizationLanes::next_block_into`]: heb_workload::UtilizationLanes::next_block_into
/// [`Cluster::block_demand`]: heb_powersys::Cluster::block_demand
fn drive_demand(
    config: &SimConfig,
    workloads: &[Archetype],
    ticks: u64,
    seed: u64,
    mut sink: impl FnMut(Watts),
) {
    if workloads.is_empty() || config.servers == 0 {
        return;
    }
    let (cluster, mut lanes) = crate::sim::seeded_rack(config.servers, workloads, seed, None);
    let block = crate::sim::drive_block(lanes.len());
    let (mut samples, mut totals) = (Vec::new(), Vec::new());
    let mut left = ticks;
    while left > 0 {
        let n = block.min(usize::try_from(left).unwrap_or(block));
        left -= n as u64;
        lanes.next_block_into(n, &mut samples);
        totals.clear();
        cluster.block_demand(&samples, n, &mut totals);
        totals.iter().copied().for_each(&mut sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ticks_for;
    use heb_powersys::{Cluster, FrequencyLevel, RACK_FANOUT};
    use heb_workload::PeakClass;

    fn quick_query() -> WhatIfQuery {
        WhatIfQuery::new(vec![Archetype::WebSearch, Archetype::Terasort], 0.05, 7)
    }

    #[test]
    fn defaults_resolve_to_prototype_config() {
        let query = quick_query();
        let config = query.config().expect("prototype defaults must validate");
        assert_eq!(config, SimConfig::prototype());
    }

    #[test]
    fn overrides_flow_through_the_builder() {
        let mut query = quick_query();
        query.servers = Some(12);
        query.budget = Some(Watts::new(400.0));
        query.sc_fraction = Some(0.5);
        query.policy = Some(PolicyKind::BaOnly);
        let config = query.config().expect("valid overrides");
        assert_eq!(config.servers, 12);
        assert_eq!(config.budget, Watts::new(400.0));
        assert!((config.sc_fraction.get() - 0.5).abs() < 1e-12);
        assert_eq!(config.policy, PolicyKind::BaOnly);
    }

    #[test]
    fn invalid_inputs_produce_typed_errors() {
        let mut empty = quick_query();
        empty.workloads.clear();
        assert_eq!(empty.scenario().unwrap_err(), QueryError::NoWorkloads);

        let mut negative = quick_query();
        negative.hours = -1.0;
        assert!(matches!(
            negative.scenario().unwrap_err(),
            QueryError::BadHours(h) if h == -1.0
        ));

        let mut bad = quick_query();
        bad.sc_fraction = Some(1.5);
        assert!(matches!(bad.scenario().unwrap_err(), QueryError::Config(_)));
        assert!(!bad.scenario().unwrap_err().to_string().is_empty());
    }

    #[test]
    fn identical_queries_share_a_content_hash() {
        let a = quick_query().scenario().expect("valid");
        let b = quick_query().scenario().expect("valid");
        assert_eq!(a.content_hash(), b.content_hash());

        let mut tweaked = quick_query();
        tweaked.seed = 8;
        let c = tweaked.scenario().expect("valid");
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn demand_trace_is_deterministic_and_horizon_sized() {
        let query = quick_query();
        let config = query.config().expect("valid");
        let ticks = ticks_for(&config, query.hours);
        let a = demand_trace(&config, &query.workloads, ticks, query.seed);
        let b = demand_trace(&config, &query.workloads, ticks, query.seed);
        assert_eq!(a.samples(), b.samples(), "same seed, same trace");
        assert_eq!(a.len() as u64, ticks);
        assert!(a.peak().get() > 0.0, "servers draw idle power at least");
    }

    /// The per-tick loop as first written: one generator per server,
    /// one `Vec` of utilizations per tick applied to a `Cluster` with
    /// `set_utilizations`, and the cluster's `total_demand`. Kept as
    /// the oracle the block sums in [`demand_trace`] must match bit for
    /// bit.
    fn demand_trace_oracle(
        config: &SimConfig,
        workloads: &[Archetype],
        ticks: u64,
        seed: u64,
    ) -> Vec<Watts> {
        let mut cluster = Cluster::prototype(config.servers);
        let mut generators = Vec::with_capacity(config.servers);
        for idx in 0..config.servers {
            let archetype = workloads[idx % workloads.len()];
            generators.push(archetype.generator(seed.wrapping_add(idx as u64 * 7919)));
            let freq = match archetype.peak_class() {
                PeakClass::Small => FrequencyLevel::Low,
                PeakClass::Large => FrequencyLevel::High,
            };
            cluster.set_frequency(idx, freq);
        }
        let mut samples = Vec::with_capacity(ticks as usize);
        for _ in 0..ticks {
            let utilizations: Vec<_> = generators
                .iter_mut()
                .map(|g| g.next_utilization())
                .collect();
            cluster.set_utilizations(&utilizations);
            samples.push(cluster.total_demand());
        }
        samples
    }

    #[test]
    fn demand_trace_matches_the_per_tick_vec_oracle() {
        use Archetype::{DataAnalysis, Hivebench, MediaStreaming, PageRank, Terasort, WebSearch};
        let mixes: [&[Archetype]; 4] = [
            &[WebSearch],
            &[WebSearch, Terasort],
            &[PageRank, MediaStreaming, Hivebench],
            &[Terasort, DataAnalysis, WebSearch, Hivebench, PageRank],
        ];
        // 64, 65 and 129 servers span one full and two or three racks
        // of `RACK_FANOUT`, so the block sums must keep the tree order
        // of `Cluster::total_demand`, not a flat sum.
        for servers in [1, 6, 7, RACK_FANOUT, RACK_FANOUT + 1, 2 * RACK_FANOUT + 1] {
            let config = SimConfig::prototype()
                .to_builder()
                .servers(servers)
                .build()
                .expect("valid server count");
            for mix in mixes {
                for seed in [0, 7, 42, 1013, u64::MAX] {
                    let fast = demand_trace(&config, mix, 600, seed);
                    let oracle = demand_trace_oracle(&config, mix, 600, seed);
                    let bits =
                        |s: &[Watts]| s.iter().map(|w| w.get().to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(fast.samples()),
                        bits(&oracle),
                        "servers {servers}, mix {mix:?}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn query_mppu_is_the_mppu_of_its_scenario_trace() {
        let mut query = quick_query();
        query.budget = Some(Watts::new(250.0));
        let config = query.config().expect("valid");
        let ticks = ticks_for(&config, query.hours);
        let trace = demand_trace(&config, &query.workloads, ticks, query.seed);
        let scenario = query.scenario().expect("valid");
        assert_eq!(
            scenario_mppu(&scenario).to_bits(),
            trace.mppu(config.budget).to_bits()
        );
        assert_eq!(
            query.mppu().expect("valid").to_bits(),
            scenario_mppu(&scenario).to_bits()
        );
    }

    #[test]
    fn mppu_is_a_fraction_and_falls_with_budget() {
        let query = quick_query();
        let tight = {
            let mut q = query.clone();
            q.budget = Some(Watts::new(200.0));
            q.mppu().expect("valid")
        };
        let generous = {
            let mut q = query.clone();
            q.budget = Some(Watts::new(500.0));
            q.mppu().expect("valid")
        };
        assert!((0.0..=1.0).contains(&tight));
        assert!((0.0..=1.0).contains(&generous));
        assert!(generous <= tight, "raising the budget cannot raise MPPU");
    }
}
