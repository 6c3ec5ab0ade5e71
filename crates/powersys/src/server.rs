//! The server power model.
//!
//! The prototype's computing nodes (Intel i7-2720QM, 30 W idle / 70 W
//! peak) only matter to HEB as controllable power sinks: their draw
//! tracks utilization, scales with the on-demand frequency governor
//! (1.3 GHz vs 1.8 GHz — how the paper constructs its small-peak and
//! large-peak workload groups), and costs extra energy across off/on
//! cycles (the waste Figure 3 attributes to power-capping via shutdown).

use heb_units::{Joules, Ratio, Seconds, Watts};

/// The two operating points of the on-demand frequency governor used in
/// the paper's evaluation (Section 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FrequencyLevel {
    /// 1.3 GHz — the low-power group, producing *small* demand peaks.
    Low,
    /// 1.8 GHz — the high-power group, producing *large* demand peaks.
    #[default]
    High,
}

impl FrequencyLevel {
    /// Multiplier applied to the dynamic (utilization-driven) power
    /// component. Low frequency trims dynamic power roughly with `f·V²`;
    /// the 0.6 factor matches the prototype's measured band.
    #[must_use]
    pub fn dynamic_scale(self) -> f64 {
        match self {
            FrequencyLevel::Low => 0.6,
            FrequencyLevel::High => 1.0,
        }
    }
}

/// Whether a server is running or has been shut down by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PowerState {
    /// Serving load.
    #[default]
    On,
    /// Shut down (by power capping); contributes downtime.
    Off,
}

/// Static parameters of one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerParams {
    /// Power at zero utilization.
    pub idle_power: Watts,
    /// Power at full utilization and high frequency.
    pub peak_power: Watts,
    /// Extra energy burned by one off→on cycle (BIOS/OS boot at high
    /// draw). Figure 3 shows this waste eats about half the battery
    /// energy "recovered" by capping, so it must be accounted.
    pub restart_energy: Joules,
}

impl ServerParams {
    /// The prototype's 30 W idle / 70 W peak node, with a restart cost
    /// of 60 s at peak draw.
    #[must_use]
    pub fn prototype() -> Self {
        Self {
            idle_power: Watts::new(30.0),
            peak_power: Watts::new(70.0),
            restart_energy: Watts::new(70.0) * Seconds::new(60.0),
        }
    }
}

/// The single authoritative prospective-draw expression. Both the
/// object-per-server [`Server`] and the struct-of-arrays
/// [`crate::soa::ServerArrays`] evaluate power through this one
/// function, so the two layouts cannot drift apart bitwise.
#[inline]
pub(crate) fn prospective_draw_raw(
    params: &ServerParams,
    utilization: Ratio,
    frequency: FrequencyLevel,
) -> Watts {
    let dynamic =
        (params.peak_power - params.idle_power) * (utilization.get() * frequency.dynamic_scale());
    params.idle_power + dynamic
}

/// One metering tick of the server power model over exploded state —
/// the shared kernel behind [`Server::tick`] and the SoA batch sweep.
/// Field-for-field identical to the historical per-object tick.
/// `draw` is the server's current draw (its [`prospective_draw_raw`]
/// when running; unused when off), which the SoA layout keeps cached.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn tick_raw(
    params: &ServerParams,
    state: PowerState,
    draw: Watts,
    downtime: &mut Seconds,
    last_active: &mut Seconds,
    pending_restart_energy: &mut Joules,
    now: Seconds,
    dt: Seconds,
) -> Joules {
    match state {
        PowerState::Off => {
            *downtime += dt;
            Joules::zero()
        }
        PowerState::On => {
            *last_active = now;
            let mut energy = draw * dt;
            if pending_restart_energy.get() > 0.0 {
                // Spread the boot-energy surcharge over the first
                // post-restart ticks at up to peak draw.
                let surcharge = (params.peak_power * dt).min(*pending_restart_energy);
                *pending_restart_energy -= surcharge;
                energy += surcharge;
            }
            energy
        }
    }
}

/// One simulated server.
///
/// # Examples
///
/// ```
/// use heb_powersys::{FrequencyLevel, Server};
/// use heb_units::Ratio;
///
/// let mut s = Server::prototype(0);
/// s.set_utilization(Ratio::ONE);
/// assert_eq!(s.power_draw().get(), 70.0);
/// s.set_frequency(FrequencyLevel::Low);
/// assert!(s.power_draw().get() < 70.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    id: usize,
    params: ServerParams,
    state: PowerState,
    frequency: FrequencyLevel,
    utilization: Ratio,
    downtime: Seconds,
    restarts: u64,
    last_active: Seconds,
    pending_restart_energy: Joules,
}

impl Server {
    /// Creates a running, idle server with the given id.
    #[must_use]
    pub fn new(id: usize, params: ServerParams) -> Self {
        Self {
            id,
            params,
            state: PowerState::On,
            frequency: FrequencyLevel::High,
            utilization: Ratio::ZERO,
            downtime: Seconds::zero(),
            restarts: 0,
            last_active: Seconds::zero(),
            pending_restart_energy: Joules::zero(),
        }
    }

    /// Creates a prototype-spec server.
    #[must_use]
    pub fn prototype(id: usize) -> Self {
        Self::new(id, ServerParams::prototype())
    }

    /// The server's identifier (its relay index in the switch fabric).
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The static parameters.
    #[must_use]
    pub fn params(&self) -> &ServerParams {
        &self.params
    }

    /// Current power state.
    #[must_use]
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// Current frequency level.
    #[must_use]
    pub fn frequency(&self) -> FrequencyLevel {
        self.frequency
    }

    /// Current utilization.
    #[must_use]
    pub fn utilization(&self) -> Ratio {
        self.utilization
    }

    /// Total time spent shut down by power capping.
    #[must_use]
    pub fn downtime(&self) -> Seconds {
        self.downtime
    }

    /// Number of off→on cycles.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Simulation time at which this server last served load, for the
    /// controller's least-recently-used shutdown victim selection.
    #[must_use]
    pub fn last_active(&self) -> Seconds {
        self.last_active
    }

    /// Sets the workload utilization for the next tick.
    pub fn set_utilization(&mut self, utilization: Ratio) {
        self.utilization = utilization.clamp_unit();
    }

    /// Sets the frequency-governor level.
    pub fn set_frequency(&mut self, frequency: FrequencyLevel) {
        self.frequency = frequency;
    }

    /// Shuts the server down (power capping). Idempotent.
    pub fn power_off(&mut self) {
        self.state = PowerState::Off;
    }

    /// Powers the server back on, charging the restart energy to the
    /// next tick. Idempotent for already-running servers.
    pub fn power_on(&mut self) {
        if self.state == PowerState::Off {
            self.state = PowerState::On;
            self.restarts += 1;
            self.pending_restart_energy = self.params.restart_energy;
        }
    }

    /// Instantaneous electrical draw: zero when off, otherwise idle plus
    /// the frequency-scaled dynamic component.
    #[must_use]
    pub fn power_draw(&self) -> Watts {
        match self.state {
            PowerState::Off => Watts::zero(),
            PowerState::On => self.prospective_draw(),
        }
    }

    /// What the server *would* draw if running — used by the controller
    /// to decide whether shed servers can be restored under the current
    /// budget. Equals [`Server::power_draw`] for running servers.
    #[must_use]
    pub fn prospective_draw(&self) -> Watts {
        prospective_draw_raw(&self.params, self.utilization, self.frequency)
    }

    /// Whether part of the boot-energy surcharge from the last restart
    /// is still waiting to be drained by upcoming ticks. A running
    /// server with no pending surcharge has a tick that reduces to
    /// stamping [`Server::last_active`] — the property the event core's
    /// quiet-span fast path relies on.
    #[must_use]
    pub fn has_pending_restart(&self) -> bool {
        self.pending_restart_energy.get() > 0.0
    }

    /// Stamps the last-active time without running a tick. The event
    /// core uses this to fast-forward a running, surcharge-free server
    /// across a quiet span: `n` ticks of [`Server::tick`] in the `On`
    /// state touch nothing but this timestamp.
    pub fn mark_active(&mut self, now: Seconds) {
        self.last_active = now;
    }

    /// Advances one metering tick of length `dt` at simulation time
    /// `now`, returning the energy consumed this tick (including any
    /// amortised restart energy).
    pub fn tick(&mut self, now: Seconds, dt: Seconds) -> Joules {
        let draw = self.power_draw();
        tick_raw(
            &self.params,
            self.state,
            draw,
            &mut self.downtime,
            &mut self.last_active,
            &mut self.pending_restart_energy,
            now,
            dt,
        )
    }

    /// The undrained portion of the boot-energy surcharge (SoA
    /// materialisation hook).
    pub(crate) fn pending_restart_energy(&self) -> Joules {
        self.pending_restart_energy
    }

    /// Reassembles a server from exploded state — the inverse of the
    /// struct-of-arrays decomposition in [`crate::soa::ServerArrays`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        id: usize,
        params: ServerParams,
        state: PowerState,
        frequency: FrequencyLevel,
        utilization: Ratio,
        downtime: Seconds,
        restarts: u64,
        last_active: Seconds,
        pending_restart_energy: Joules,
    ) -> Self {
        Self {
            id,
            params,
            state,
            frequency,
            utilization,
            downtime,
            restarts,
            last_active,
            pending_restart_energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_and_peak_power() {
        let mut s = Server::prototype(3);
        assert_eq!(s.id(), 3);
        assert_eq!(s.power_draw(), Watts::new(30.0));
        s.set_utilization(Ratio::ONE);
        assert_eq!(s.power_draw(), Watts::new(70.0));
    }

    #[test]
    fn low_frequency_trims_dynamic_power() {
        let mut s = Server::prototype(0);
        s.set_utilization(Ratio::ONE);
        s.set_frequency(FrequencyLevel::Low);
        // 30 + 40 * 0.6 = 54 W
        assert_eq!(s.power_draw(), Watts::new(54.0));
        // Idle power is unaffected by frequency.
        s.set_utilization(Ratio::ZERO);
        assert_eq!(s.power_draw(), Watts::new(30.0));
    }

    #[test]
    fn utilization_is_clamped() {
        let mut s = Server::prototype(0);
        s.set_utilization(Ratio::new_unclamped(2.0).clamp_unit());
        assert_eq!(s.power_draw(), Watts::new(70.0));
    }

    #[test]
    fn off_servers_draw_nothing_and_accrue_downtime() {
        let mut s = Server::prototype(0);
        s.power_off();
        assert_eq!(s.power_draw(), Watts::zero());
        let e = s.tick(Seconds::new(10.0), Seconds::new(1.0));
        assert!(e.is_zero());
        assert_eq!(s.downtime(), Seconds::new(1.0));
    }

    #[test]
    fn restart_charges_boot_energy() {
        let mut s = Server::prototype(0);
        s.power_off();
        let _ = s.tick(Seconds::new(0.0), Seconds::new(1.0));
        s.power_on();
        assert_eq!(s.restarts(), 1);
        // First tick after restart: idle (30 J) + surcharge (70 J).
        let e = s.tick(Seconds::new(1.0), Seconds::new(1.0));
        assert_eq!(e, Joules::new(100.0));
        // The full 4200 J surcharge drains over 60 ticks.
        let mut total = e;
        for t in 2..62 {
            total += s.tick(Seconds::new(t as f64), Seconds::new(1.0));
        }
        assert!((total.get() - (61.0 * 30.0 + 4200.0)).abs() < 1e-9);
    }

    #[test]
    fn power_on_is_idempotent() {
        let mut s = Server::prototype(0);
        s.power_on();
        assert_eq!(s.restarts(), 0, "already-on server should not restart");
        s.power_off();
        s.power_off();
        s.power_on();
        s.power_on();
        assert_eq!(s.restarts(), 1);
    }

    #[test]
    fn last_active_tracks_running_ticks() {
        let mut s = Server::prototype(0);
        let _ = s.tick(Seconds::new(5.0), Seconds::new(1.0));
        assert_eq!(s.last_active(), Seconds::new(5.0));
        s.power_off();
        let _ = s.tick(Seconds::new(6.0), Seconds::new(1.0));
        assert_eq!(s.last_active(), Seconds::new(5.0));
    }
}
