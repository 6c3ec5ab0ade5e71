//! Typed construction-time errors for the simulation stack.
//!
//! [`Scenario::build`](crate::Scenario::build) — the one way to
//! construct a [`Simulation`](crate::Simulation) — returns these instead
//! of panicking, so library callers (CLI flag parsing, sweep harnesses,
//! the fleet engine) can report bad inputs gracefully. A configuration
//! that fails [`SimConfig::try_validate`](crate::SimConfig::try_validate)
//! arrives as [`SimError::Config`], carrying the offending value.

use crate::config::ConfigError;

/// Why a simulation could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// The workload list was empty.
    NoWorkloads,
    /// A solar trace with no samples was supplied.
    EmptySolarTrace,
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::Config(err) => err.fmt(f),
            SimError::NoWorkloads => f.write_str("need at least one workload"),
            SimError::EmptySolarTrace => {
                f.write_str("solar trace must contain at least one sample")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A configuration error is a simulation error, so a `main` returning
/// `Result<(), SimError>` can `?` both layers.
impl From<ConfigError> for SimError {
    fn from(err: ConfigError) -> Self {
        SimError::Config(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_errors_wrap_with_their_values() {
        let err = SimError::from(ConfigError::NegativeBudget(-5.0));
        assert_eq!(err, SimError::Config(ConfigError::NegativeBudget(-5.0)));
        assert_eq!(err.to_string(), "budget must be non-negative, got -5 W");
        assert_eq!(
            SimError::EmptySolarTrace.to_string(),
            "solar trace must contain at least one sample"
        );
        let err: &dyn std::error::Error = &SimError::NoWorkloads;
        assert!(err.to_string().contains("workload"));
    }
}
