//! Offline stand-in for the subset of the `proptest` API this workspace
//! uses.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors a small property-testing harness with the same surface its
//! tests import: the [`proptest!`] macro (with an optional
//! `#![proptest_config(..)]` header), [`prop_assert!`] /
//! [`prop_assert_eq!`], range strategies,
//! [`Strategy::prop_map`](strategy::Strategy::prop_map), and
//! [`collection::vec`].
//!
//! Differences from upstream: cases are drawn uniformly from their
//! strategies with a seed derived deterministically from the test name
//! (no persistent failure file), and failing cases are reported but not
//! shrunk. Each failure prints the case number, generated inputs, and
//! the assertion message, which is enough to reproduce: the same test
//! name always replays the same sequence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Strategy trait and the built-in strategies for ranges and maps.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A source of generated values for property tests.
    pub trait Strategy {
        /// The type of the generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f` (upstream's `prop_map`).
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty f64 strategy range");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty f64 strategy range");
            lo + rng.unit_f64() * (hi - lo)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty => $u:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty integer strategy range");
                    // Span via the unsigned twin so wide signed ranges
                    // cannot overflow.
                    let span = self.end.wrapping_sub(self.start) as $u as u64;
                    self.start.wrapping_add((rng.next_u64() % span) as $u as $t)
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty integer strategy range");
                    let span = hi.wrapping_sub(lo) as $u as u64;
                    let off = if span == u64::MAX {
                        rng.next_u64()
                    } else {
                        rng.next_u64() % (span + 1)
                    };
                    lo.wrapping_add(off as $u as $t)
                }
            }
        )*};
    }

    int_range_strategy!(usize => usize, u64 => u64, u32 => u32, u16 => u16, u8 => u8, i64 => u64, i32 => u32);

    /// A strategy that always yields a clone of one value (upstream's
    /// `Just`).
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A: 0);
    tuple_strategy!(A: 0, B: 1);
    tuple_strategy!(A: 0, B: 1, C: 2);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
}

/// Strategies for collections.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A strategy producing `Vec`s with lengths drawn from `size` and
    /// elements drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors (upstream's `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec-length range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Test-runner configuration, RNG, and failure plumbing.
pub mod test_runner {
    use std::fmt;

    /// How many cases each property runs, mirroring upstream's field of
    /// the same name.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            // Upstream defaults to 256; the workspace's undecorated
            // properties are cheap arithmetic checks, so match it.
            ProptestConfig { cases: 256 }
        }
    }

    /// The deterministic generator behind strategy sampling
    /// (SplitMix64; seeded from the test name).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from a test's name so every run of a
        /// given property replays the same case sequence.
        pub fn deterministic(test_name: &str) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
            for b in test_name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// A failed property case (carried by `prop_assert!`).
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Wraps a failure message.
        pub fn fail(message: impl Into<String>) -> TestCaseError {
            TestCaseError { message: message.into() }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.message)
        }
    }
}

/// Glob-import surface matching `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Runs each contained property function over generated inputs.
///
/// Supported grammar (the subset the workspace uses):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///     #[test]
///     fn my_property(x in 0.0f64..1.0, n in 0usize..5) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! {
            cfg = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (cfg = ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            let mut __rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            for __case in 0..__config.cases {
                $(
                    let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                )*
                let __inputs = {
                    let mut s = String::new();
                    $(
                        s.push_str(concat!(stringify!($arg), " = "));
                        s.push_str(&format!("{:?}, ", $arg));
                    )*
                    s
                };
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = __result {
                    panic!(
                        "property `{}` failed at case #{}\n  inputs: {}\n  {}",
                        stringify!($name),
                        __case,
                        __inputs,
                        e
                    );
                }
            }
        }
    )*};
}

/// `assert!` that reports through the property harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// `assert_eq!` that reports through the property harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// `assert_ne!` that reports through the property harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::deterministic("ranges_stay_in_bounds");
        for _ in 0..1000 {
            let x = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&x));
            let n = (3usize..7).generate(&mut rng);
            assert!((3..7).contains(&n));
            let m = (0.0f64..=1.0).generate(&mut rng);
            assert!((0.0..=1.0).contains(&m));
        }
    }

    #[test]
    fn prop_map_and_vec_compose() {
        let mut rng = TestRng::deterministic("prop_map_and_vec_compose");
        let doubled = (1u64..10).prop_map(|v| v * 2);
        for _ in 0..100 {
            let v = doubled.generate(&mut rng);
            assert!(v % 2 == 0 && (2..20).contains(&v));
        }
        let vecs = crate::collection::vec(0.0f64..1.0, 1..5);
        for _ in 0..100 {
            let v = vecs.generate(&mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }

    #[test]
    fn seeding_is_stable_per_name() {
        let mut a = TestRng::deterministic("same");
        let mut b = TestRng::deterministic("same");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::deterministic("other");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: generated args are in range and
        /// prop_assert works.
        #[test]
        fn macro_generates_cases(x in 0.0f64..1.0, n in 1usize..4) {
            prop_assert!((0.0..1.0).contains(&x), "x out of range: {x}");
            prop_assert!((1..4).contains(&n));
            prop_assert_eq!(n * 2 / 2, n);
        }
    }

    proptest! {
        /// Default config path (no header).
        #[test]
        fn default_config_runs(v in 0u64..100) {
            prop_assert!(v < 100);
        }
    }
}
