//! Recorded `SimReport` fingerprints of `dense_day` and `steady_day`.
//!
//! A change that only makes the simulator faster must leave every
//! simulated statistic bit-identical, so each run compares its report
//! with the fingerprint recorded here for its seed. The tables were
//! produced by `perfbench fingerprints <workload> <seed>...`. The dense
//! table covers seeds 0 to 31, the pinned default seed 42 and the
//! held-out seed 1013; a dense run on any other seed is checked only
//! against its own repeats.

use heb_core::SimReport;

use crate::day::Day;

/// The statistics a speed-only change must not move, floats by bit
/// pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// `buffer_delivered`, J, as `f64::to_bits`.
    pub buffer_delivered: u64,
    /// `shed_events`.
    pub sheds: u64,
    /// `slots`.
    pub slots: u64,
    /// `relay_actuations`.
    pub relay_actuations: u64,
    /// `utility_supplied`, J, as `f64::to_bits`.
    pub utility_supplied: u64,
}

impl Fingerprint {
    /// The fingerprint of `report`.
    #[must_use]
    pub fn of(report: &SimReport) -> Self {
        Self {
            buffer_delivered: report.buffer_delivered.get().to_bits(),
            sheds: report.shed_events,
            slots: report.slots,
            relay_actuations: report.relay_actuations,
            utility_supplied: report.utility_supplied.get().to_bits(),
        }
    }

    /// The fingerprint as a table row.
    #[must_use]
    pub fn row(&self, seed: u64) -> String {
        format!(
            "    ({seed}, Fingerprint {{ buffer_delivered: {:#018x}, sheds: {}, slots: {}, relay_actuations: {}, utility_supplied: {:#018x} }}),",
            self.buffer_delivered, self.sheds, self.slots, self.relay_actuations, self.utility_supplied
        )
    }
}

/// The recorded fingerprint of `day` at `seed`, if any.
#[must_use]
pub fn recorded(day: Day, seed: u64) -> Option<Fingerprint> {
    match day {
        Day::Dense => DENSE.iter().find(|(s, _)| *s == seed).map(|(_, f)| *f),
        Day::Steady => Some(STEADY),
    }
}

#[rustfmt::skip]
const DENSE: &[(u64, Fingerprint)] = &[
    (0, Fingerprint { buffer_delivered: 0x4169cd83fe04cbaf, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6fb972a70340b }),
    (1, Fingerprint { buffer_delivered: 0x4166eab2d206855b, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f7c6b3460b8b }),
    (2, Fingerprint { buffer_delivered: 0x416804ff19bf7ea8, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f7f71427e636 }),
    (3, Fingerprint { buffer_delivered: 0x416737fb96b4fffe, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f62d3a7e94c8 }),
    (4, Fingerprint { buffer_delivered: 0x4168d59aa5817378, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f59dad2a2925 }),
    (5, Fingerprint { buffer_delivered: 0x41670b95086d6e93, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f68980947298 }),
    (6, Fingerprint { buffer_delivered: 0x416c2488863fb6be, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6fcbb61f71216 }),
    (7, Fingerprint { buffer_delivered: 0x416bb804cc09c8ea, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f62b89d58a69 }),
    (8, Fingerprint { buffer_delivered: 0x4166701e499f2cf8, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f70870fed93a }),
    (9, Fingerprint { buffer_delivered: 0x41685b30dee75672, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f2ae93eb6e3a }),
    (10, Fingerprint { buffer_delivered: 0x4168b5e39a6bf368, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6fb5b3e070e06 }),
    (11, Fingerprint { buffer_delivered: 0x4169df7f13e0e96c, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f4b8aea5fcb3 }),
    (12, Fingerprint { buffer_delivered: 0x4168152759271194, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f6839bfe0405 }),
    (13, Fingerprint { buffer_delivered: 0x416b1ff1d01c4506, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f6b4f193de47 }),
    (14, Fingerprint { buffer_delivered: 0x41692651c9440b82, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f100ec9b2778 }),
    (15, Fingerprint { buffer_delivered: 0x4169632a6c95d0a0, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f48d8b29285b }),
    (16, Fingerprint { buffer_delivered: 0x41662fd782dc2f52, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f52fe0457270 }),
    (17, Fingerprint { buffer_delivered: 0x416a02a928d0e5e2, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f60f09d4eb8c }),
    (18, Fingerprint { buffer_delivered: 0x4169a8cc66461900, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6eed4321dd380 }),
    (19, Fingerprint { buffer_delivered: 0x416c2cb3734bd231, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f84f170eeb46 }),
    (20, Fingerprint { buffer_delivered: 0x4168289e53637aa0, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f5886f91ec8f }),
    (21, Fingerprint { buffer_delivered: 0x416afc4f30109ec1, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f53ee0900b5a }),
    (22, Fingerprint { buffer_delivered: 0x4169ae7da5e0e681, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f228b6db03a7 }),
    (23, Fingerprint { buffer_delivered: 0x41690a366ae2a2a0, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f8a5c59e9ed0 }),
    (24, Fingerprint { buffer_delivered: 0x416782f9eb680ed3, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f92518afb2f4 }),
    (25, Fingerprint { buffer_delivered: 0x41696ea72c71c916, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f2ec91ad3083 }),
    (26, Fingerprint { buffer_delivered: 0x416bd9420bb3b6dd, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6fe30ba1ffa51 }),
    (27, Fingerprint { buffer_delivered: 0x4167d58c36a817a4, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f9a18b284fcc }),
    (28, Fingerprint { buffer_delivered: 0x416ab27623afe833, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f7c084018c08 }),
    (29, Fingerprint { buffer_delivered: 0x416bdb2eb2e228ed, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f8186dc2e4a5 }),
    (30, Fingerprint { buffer_delivered: 0x416a2b70cf3eee6d, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f5c9396bb982 }),
    (31, Fingerprint { buffer_delivered: 0x4168e6f099c6aedf, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6fa44f46887d9 }),
    (42, Fingerprint { buffer_delivered: 0x416b4a1e4c7b68e6, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6fb30e16a79f4 }),
    (1013, Fingerprint { buffer_delivered: 0x4169379ae43c409a, sheds: 0, slots: 2, relay_actuations: 10000, utility_supplied: 0x41c6f29df58ce590 }),
];

/// The steady day draws no random numbers (a constant workload and
/// noiseless metering), so every seed yields this one fingerprint; it
/// was checked on every seed the dense table covers.
#[rustfmt::skip]
const STEADY: Fingerprint = Fingerprint { buffer_delivered: 0x0000000000000000, sheds: 0, slots: 23, relay_actuations: 100000, utility_supplied: 0x42551f5558000000 };
