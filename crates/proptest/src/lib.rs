//! A minimal, dependency-free property-testing harness.
//!
//! The build environment has no network access to crates.io, so the
//! real `proptest` crate cannot be fetched. This workspace-local crate
//! exposes the *subset* of its API the test suite uses — `proptest!`,
//! `prop_assert!`/`prop_assert_eq!`/`prop_assume!`, `prop_oneof!`,
//! range/tuple/vec/select strategies, and `prop_map` — backed by the
//! deterministic [`heb_rng`] generator. There is no shrinking: when a
//! case fails or panics, the test panics with a message naming the
//! test, the case index and the case's seed, then the original
//! message, which is enough to reproduce it (generation is a pure
//! function of test name and case index).
//!
//! # Examples
//!
//! ```
//! use proptest::prelude::*;
//!
//! // (`#[test]` is what real suites write; plain fns work too, as here
//! // where the doctest itself is the caller.)
//! proptest! {
//!     fn addition_commutes(a in -1e6..1e6f64, b in -1e6..1e6f64) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! addition_commutes();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// The per-test RNG handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng(heb_rng::Rng);

impl TestRng {
    /// Creates a generator for one test case.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(heb_rng::Rng::seed_from_u64(seed))
    }

    /// Access to the underlying generator.
    pub fn rng(&mut self) -> &mut heb_rng::Rng {
        &mut self.0
    }
}

/// FNV-1a hash of a string — the stable per-test base seed.
#[must_use]
pub const fn fnv1a(s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        i += 1;
    }
    hash
}

/// Re-raises a failed case's panic with the test's name, the case's
/// index and the case's seed (the [`TestRng::new`] seed its inputs
/// were generated from) ahead of the original message. Called by
/// [`proptest!`]; not meant to be called directly.
///
/// # Panics
///
/// Always.
#[doc(hidden)]
#[track_caller]
pub fn case_failed(test: &str, case: u32, seed: u64, payload: &(dyn std::any::Any + Send)) -> ! {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(panic payload is not a string)");
    panic!("proptest `{test}` failed at case {case} (case seed {seed:#018x}): {message}")
}

/// Runner configuration (`cases` = generated inputs per test).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// A value generator. Unlike the real proptest there is no value tree
/// or shrinking — `generate` produces the final value directly.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.rng().range_f64(self.start, self.end)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        lo + rng.rng().gen_f64() * (hi - lo)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128).max(1) as u64;
                let off = rng.rng().range_u64(0, span);
                (self.start as i128 + off as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Uniform choice between boxed alternatives (see [`prop_oneof!`]).
pub struct OneOf<T> {
    alternatives: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> std::fmt::Debug for OneOf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OneOf({} alternatives)", self.alternatives.len())
    }
}

/// Builds a [`OneOf`]; used by the [`prop_oneof!`] macro.
///
/// # Panics
///
/// Panics if `alternatives` is empty.
#[must_use]
pub fn one_of<T>(alternatives: Vec<Box<dyn Strategy<Value = T>>>) -> OneOf<T> {
    assert!(!alternatives.is_empty(), "prop_oneof! needs alternatives");
    OneOf { alternatives }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.rng().range_usize(0, self.alternatives.len());
        self.alternatives[idx].generate(rng)
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A strategy for `Vec<S::Value>` with a length drawn from `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vectors of `element` values with lengths in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let hi = self.len.end.max(self.len.start + 1);
            let n = rng.rng().range_usize(self.len.start, hi);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling strategies (`proptest::sample`).
pub mod sample {
    use super::{Strategy, TestRng};

    /// Uniform choice from a fixed set.
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        items: Vec<T>,
    }

    /// A strategy choosing uniformly from `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select needs at least one item");
        Select { items }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.rng().range_usize(0, self.items.len());
            self.items[idx].clone()
        }
    }
}

/// Numeric `ANY` strategies (`proptest::num`).
pub mod num {
    /// `u64` strategies.
    #[allow(non_camel_case_types)]
    pub mod u64 {
        use crate::{Strategy, TestRng};

        /// Marker for "any u64".
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        /// Any `u64`, uniformly.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = ::core::primitive::u64;

            fn generate(&self, rng: &mut TestRng) -> ::core::primitive::u64 {
                rng.rng().next_u64()
            }
        }
    }

    /// `f64` strategies.
    #[allow(non_camel_case_types)]
    pub mod f64 {
        use crate::{Strategy, TestRng};

        /// Marker for "any finite f64" (matching proptest's default of
        /// excluding NaN and the infinities).
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        /// Any finite `f64`, spread across magnitudes.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = ::core::primitive::f64;

            fn generate(&self, rng: &mut TestRng) -> ::core::primitive::f64 {
                // Mix exact special values with random finite bit
                // patterns so edge cases show up often. (The module is
                // named `f64`, so the primitive needs its full path.)
                match rng.rng().range_u64(0, 8) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => ::core::primitive::f64::MIN_POSITIVE,
                    3 => ::core::primitive::f64::MAX,
                    4 => -::core::primitive::f64::MAX,
                    _ => loop {
                        let x = ::core::primitive::f64::from_bits(rng.rng().next_u64());
                        if x.is_finite() {
                            break x;
                        }
                    },
                }
            }
        }
    }
}

/// The common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Defines property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `body` against `cases` generated inputs.
/// Generation is deterministic: the seed is a hash of the test path.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Internal expansion helper for [`proptest!`]. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let __base: u64 = $crate::fnv1a(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                let __seed = __base ^ u64::from(__case).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut __rng = $crate::TestRng::new(__seed);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                // The closure scopes `prop_assume!`'s early return to
                // this one case.
                let __run = || { $body };
                if let Err(__payload) =
                    ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(__run))
                {
                    $crate::case_failed(stringify!($name), __case, __seed, &*__payload);
                }
            }
        }
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Weighted-free choice between strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::one_of(vec![$(::std::boxed::Box::new($s)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 1.0..5.0f64, n in 3u32..9, v in crate::collection::vec(0..10usize, 1..6)) {
            prop_assert!((1.0..5.0).contains(&x));
            prop_assert!((3..9).contains(&n));
            prop_assert!(!v.is_empty() && v.len() < 6);
            prop_assert!(v.iter().all(|&e| e < 10));
        }

        #[test]
        fn oneof_and_map_compose(op in prop_oneof![
            (0.0..1.0f64).prop_map(|x| ("low", x)),
            (1.0..2.0f64).prop_map(|x| ("high", x)),
        ]) {
            let (label, x) = op;
            match label {
                "low" => prop_assert!(x < 1.0),
                _ => prop_assert!(x >= 1.0),
            }
        }

        #[test]
        fn assume_skips_cases(n in 0..10usize) {
            prop_assume!(n > 4);
            prop_assert!(n > 4);
        }
    }

    /// How many cases `fails_at_case_three` has started.
    static CASES_RUN: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        // Called by `a_failing_case_is_named_with_its_seed`, not a test
        // of its own.
        fn fails_at_case_three(n in 0..10usize) {
            let case = CASES_RUN.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            prop_assert!(case != 3, "n was {}", n);
        }
    }

    #[test]
    fn a_failing_case_is_named_with_its_seed() {
        let payload = std::panic::catch_unwind(fails_at_case_three).expect_err("case 3 fails");
        let message = payload
            .downcast_ref::<String>()
            .expect("the report is a formatted message");
        let base = crate::fnv1a(concat!(module_path!(), "::fails_at_case_three"));
        let seed = base ^ 3_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let expected = format!(
            "proptest `fails_at_case_three` failed at case 3 (case seed {seed:#018x}): n was "
        );
        assert!(message.starts_with(&expected), "{message}");
        // The case's inputs come back from its seed.
        let mut rng = crate::TestRng::new(seed);
        let n = crate::Strategy::generate(&(0..10usize), &mut rng);
        assert_eq!(message[expected.len()..], n.to_string());
        assert_eq!(
            CASES_RUN.load(std::sync::atomic::Ordering::SeqCst),
            4,
            "the run stops at the failing case"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        // The same (test path, case) pair must always generate the same
        // values — rerun a generation manually and compare.
        let seed = crate::fnv1a("some::test");
        let mut a = crate::TestRng::new(seed);
        let mut b = crate::TestRng::new(seed);
        let s = 0.0..100.0f64;
        assert_eq!(
            crate::Strategy::generate(&s, &mut a).to_bits(),
            crate::Strategy::generate(&s, &mut b).to_bits()
        );
    }

    #[test]
    fn select_picks_members() {
        let s = crate::sample::select(vec![1, 2, 3]);
        let mut rng = crate::TestRng::new(9);
        for _ in 0..50 {
            assert!((1..=3).contains(&crate::Strategy::generate(&s, &mut rng)));
        }
    }
}
