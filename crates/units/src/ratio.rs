//! Dimensionless fractions: efficiencies, state-of-charge, `R_λ`.

/// A dimensionless fraction, conventionally in `[0, 1]`.
///
/// Used for round-trip efficiencies, state-of-charge (SoC),
/// depth-of-discharge (DoD), renewable-energy utilisation (REU), and the
/// HEB load-assignment ratio `R_λ` (the fraction of servers powered by
/// super-capacitors).
///
/// Construction via [`Ratio::new`] checks the unit interval; use
/// [`Ratio::new_unclamped`] for quantities that legitimately exceed 1
/// (e.g. improvement factors).
///
/// # Examples
///
/// ```
/// use heb_units::Ratio;
///
/// let r_lambda = Ratio::new(0.3).unwrap();
/// assert_eq!(r_lambda.complement().get(), 0.7);
/// assert_eq!(r_lambda.as_percent(), 30.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Ratio(f64);

/// Error returned when a [`Ratio`] is constructed outside `[0, 1]` or from
/// a non-finite value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RatioOutOfRange;

impl core::fmt::Display for RatioOutOfRange {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ratio must be a finite value in [0, 1]")
    }
}

impl std::error::Error for RatioOutOfRange {}

impl Ratio {
    /// The zero fraction.
    pub const ZERO: Ratio = Ratio(0.0);
    /// The unit fraction.
    pub const ONE: Ratio = Ratio(1.0);
    /// One half.
    pub const HALF: Ratio = Ratio(0.5);

    /// Creates a ratio, validating that it is finite and within `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`RatioOutOfRange`] when `value` is NaN, infinite, or
    /// outside the unit interval.
    pub fn new(value: f64) -> Result<Self, RatioOutOfRange> {
        if value.is_finite() && (0.0..=1.0).contains(&value) {
            Ok(Self(value))
        } else {
            Err(RatioOutOfRange)
        }
    }

    /// Creates a ratio without range validation, for improvement factors
    /// and other fractions that may exceed 1.
    #[must_use]
    pub const fn new_unclamped(value: f64) -> Self {
        Self(value)
    }

    /// Creates a ratio by clamping `value` into `[0, 1]` (NaN becomes 0).
    #[inline]
    #[must_use]
    pub fn new_clamped(value: f64) -> Self {
        if value.is_nan() {
            Self(0.0)
        } else {
            Self(value.clamp(0.0, 1.0))
        }
    }

    /// Creates a ratio from a percentage (e.g. `from_percent(30.0)` is 0.3).
    ///
    /// # Errors
    ///
    /// Returns [`RatioOutOfRange`] when the percentage is outside
    /// `[0, 100]` or non-finite.
    pub fn from_percent(percent: f64) -> Result<Self, RatioOutOfRange> {
        Self::new(percent / 100.0)
    }

    /// The raw fraction.
    #[inline]
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The fraction as a percentage.
    #[must_use]
    pub fn as_percent(self) -> f64 {
        self.0 * 100.0
    }

    /// `1 − self`, clamped at zero — e.g. the battery share when `self`
    /// is the super-capacitor share `R_λ`.
    #[inline]
    #[must_use]
    pub fn complement(self) -> Self {
        Self((1.0 - self.0).max(0.0))
    }

    /// Whether the fraction lies within the closed unit interval.
    #[inline]
    #[must_use]
    pub fn in_unit_interval(self) -> bool {
        self.0.is_finite() && (0.0..=1.0).contains(&self.0)
    }

    /// Clamps into `[0, 1]`.
    #[inline]
    #[must_use]
    pub fn clamp_unit(self) -> Self {
        Self::new_clamped(self.0)
    }

    /// The smaller of two ratios.
    #[inline]
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }

    /// The larger of two ratios.
    #[inline]
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }
}

impl core::ops::Mul for Ratio {
    type Output = Ratio;
    /// Composes two fractions (e.g. chained converter efficiencies).
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self(self.0 * rhs.0)
    }
}

impl core::ops::Mul<f64> for Ratio {
    type Output = f64;
    #[inline]
    fn mul(self, rhs: f64) -> f64 {
        self.0 * rhs
    }
}

impl core::ops::Mul<Ratio> for f64 {
    type Output = f64;
    #[inline]
    fn mul(self, rhs: Ratio) -> f64 {
        self * rhs.0
    }
}

impl core::ops::Add for Ratio {
    type Output = Ratio;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl core::ops::Sub for Ratio {
    type Output = Ratio;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl core::fmt::Display for Ratio {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if let Some(precision) = f.precision() {
            write!(f, "{:.*}%", precision, self.as_percent())
        } else {
            write!(f, "{}%", self.as_percent())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_range() {
        assert!(Ratio::new(0.0).is_ok());
        assert!(Ratio::new(1.0).is_ok());
        assert!(Ratio::new(-0.01).is_err());
        assert!(Ratio::new(1.01).is_err());
        assert!(Ratio::new(f64::NAN).is_err());
        assert!(Ratio::new(f64::INFINITY).is_err());
    }

    #[test]
    fn clamped_constructor() {
        assert_eq!(Ratio::new_clamped(1.5).get(), 1.0);
        assert_eq!(Ratio::new_clamped(-1.5).get(), 0.0);
        assert_eq!(Ratio::new_clamped(f64::NAN).get(), 0.0);
    }

    #[test]
    fn percent_round_trip() {
        let r = Ratio::from_percent(39.7).unwrap();
        assert!((r.as_percent() - 39.7).abs() < 1e-12);
    }

    #[test]
    fn complement_of_r_lambda() {
        let r = Ratio::new(0.3).unwrap();
        assert!((r.complement().get() - 0.7).abs() < 1e-12);
        assert_eq!(Ratio::ONE.complement(), Ratio::ZERO);
    }

    #[test]
    fn efficiency_composition() {
        let charge = Ratio::new(0.9).unwrap();
        let discharge = Ratio::new(0.9).unwrap();
        assert!(((charge * discharge).get() - 0.81).abs() < 1e-12);
    }

    #[test]
    fn display_as_percent() {
        assert_eq!(format!("{:.1}", Ratio::new(0.25).unwrap()), "25.0%");
    }
}
