//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot fetch crates.io, so this workspace member
//! re-implements the subset of proptest the repo's property tests use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//!   `prop_assert!`, `prop_assert_eq!`, `prop_assert_ne!`, `prop_assume!`;
//! * [`Strategy`] over numeric ranges, tuples, [`Just`], `any::<bool>()`,
//!   `prop::collection::vec`, `.prop_map`, `.prop_flat_map`;
//! * [`ProptestConfig::with_cases`].
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking.** A failing case panics with the generated inputs in
//!   the assertion message instead of a minimized counterexample.
//! * **Deterministic seeding.** Each test's RNG is seeded from the hash of
//!   its function name, so failures reproduce exactly across runs; the
//!   `PROPTEST_SEED` environment variable (a u64) perturbs the seed for
//!   exploratory runs.
//! * `proptest-regressions` files are ignored.

#![warn(missing_docs)]

/// Runner configuration (subset of `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// The deterministic RNG driving strategy sampling (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from a test name (stable across runs) plus the optional
    /// `PROPTEST_SEED` environment override.
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        if let Ok(s) = std::env::var("PROPTEST_SEED") {
            if let Ok(extra) = s.parse::<u64>() {
                h ^= extra.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
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

    /// Uniform draw in `[0, span)`.
    pub fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let mut m = (self.next_u64() as u128) * (span as u128);
        let mut lo = m as u64;
        if lo < span {
            let threshold = span.wrapping_neg() % span;
            while lo < threshold {
                m = (self.next_u64() as u128) * (span as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform draw in `[0, 1)` with 53 mantissa bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of random values (subset of `proptest::strategy::Strategy`;
/// sampling only, no shrink trees).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` returns for
    /// it (dependent strategies).
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span + 1) as $t)
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                lo + (rng.unit_f64() as $t) * (hi - lo)
            }
        }
    )*};
}

impl_float_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);

/// `any::<T>()` support (subset: the types the tests request).
pub mod arbitrary {
    use super::{Strategy, TestRng};
    use std::marker::PhantomData;

    /// Types with a canonical "anything" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Strategy producing arbitrary values of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// The `prop::` namespace (subset).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::{Strategy, TestRng};

        /// Admissible length specifications for [`vec()`].
        pub trait SizeRange {
            /// Draws a length.
            fn pick(&self, rng: &mut TestRng) -> usize;
        }

        impl SizeRange for usize {
            fn pick(&self, _rng: &mut TestRng) -> usize {
                *self
            }
        }

        impl SizeRange for std::ops::Range<usize> {
            fn pick(&self, rng: &mut TestRng) -> usize {
                assert!(self.start < self.end, "empty vec size range");
                self.start + rng.below((self.end - self.start) as u64) as usize
            }
        }

        impl SizeRange for std::ops::RangeInclusive<usize> {
            fn pick(&self, rng: &mut TestRng) -> usize {
                *self.start() + rng.below((self.end() - self.start() + 1) as u64) as usize
            }
        }

        /// Strategy for `Vec<S::Value>` with a drawn length.
        pub struct VecStrategy<S, L> {
            element: S,
            len: L,
        }

        impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let n = self.len.pick(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// Generates vectors whose elements come from `element` and whose
        /// length is drawn from `len`.
        pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
            VecStrategy { element, len }
        }
    }
}

/// Everything a property test needs, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, ProptestConfig,
        Strategy,
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            continue;
        }
    };
}

/// The property-test entry macro. Each `fn name(pat in strategy, ...)`
/// becomes a `#[test]` running `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ [$cfg] $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{ [$crate::ProptestConfig::default()] $($rest)* }
    };
}

/// Internal expansion of [`proptest!`] — not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ([$cfg:expr]) => {};
    ([$cfg:expr]
     $(#[$meta:meta])*
     fn $name:ident ( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            let mut case: u32 = 0;
            while case < config.cases {
                case += 1;
                $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                $body
            }
        }
        $crate::__proptest_tests!{ [$cfg] $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_sample_deterministically() {
        let mut a = crate::TestRng::deterministic("t");
        let mut b = crate::TestRng::deterministic("t");
        let s = (0_usize..10, -1.0_f64..1.0);
        for _ in 0..50 {
            assert_eq!(s.generate(&mut a).0, s.generate(&mut b).0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn vec_lengths_respect_bounds(v in prop::collection::vec(0_u64..100, 3..9)) {
            prop_assert!((3..9).contains(&v.len()));
            for x in &v { prop_assert!(*x < 100); }
        }

        #[test]
        fn flat_map_threads_dependencies((n, v) in (1_usize..8).prop_flat_map(|n| {
            (Just(n), prop::collection::vec(0.0_f64..1.0, n))
        })) {
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn assume_skips_cases(x in 0_i32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }

        #[test]
        fn any_bool_varies(bits in prop::collection::vec(any::<bool>(), 64)) {
            // 64 fair coin flips landing all on one side is ~1e-19.
            prop_assert!(bits.iter().any(|&b| b) && bits.iter().any(|&b| !b));
        }
    }
}
