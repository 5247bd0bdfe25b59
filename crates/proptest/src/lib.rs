//! Offline stand-in for `proptest` (API subset, no shrinking).
//!
//! The build environment has no registry access, so the workspace vendors
//! the slice of proptest it uses: the [`proptest!`] macro, `prop_assert*`
//! macros, [`Strategy`] with `prop_map`, `prop::collection::vec`,
//! `prop::option::of`, `prop::sample::Index`, ranges as strategies, and
//! [`any`]. Cases are generated from a deterministic per-test seed (the
//! hash of the test name), so failures reproduce exactly; there is no
//! shrinking — the failing case's inputs are printed instead.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

pub mod test_runner {
    /// Per-test configuration. Only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// Config with an explicit case count.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// An explicit `prop_assert*` failure.
        Fail(String),
        /// A `prop_assume!` rejection (the case is skipped, not failed).
        Reject(String),
    }

    impl TestCaseError {
        /// Constructs a failure.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
        /// Constructs a rejection.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            }
        }
    }
}

pub use test_runner::Config as ProptestConfig;

/// A generator of random values of one type.
///
/// Unlike upstream proptest there is no value tree and no shrinking: a
/// strategy is simply a deterministic function of the RNG state.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy producing always the same value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

// `rand`'s shim only samples `f64` ranges; widen, sample, narrow.
impl Strategy for std::ops::Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut StdRng) -> f32 {
        let v = rng.random_range(self.start as f64..self.end as f64) as f32;
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl Strategy for std::ops::RangeInclusive<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut StdRng) -> f32 {
        rng.random_range(*self.start() as f64..=*self.end() as f64) as f32
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
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

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// The `prop::` namespace (`prop::collection`, `prop::option`,
/// `prop::sample`).
pub mod prop {
    pub use super::strategies as collection;

    /// Optional-value strategies.
    pub mod option {
        use super::super::{StdRngAlias, Strategy};

        /// See [`of`].
        #[derive(Debug, Clone)]
        pub struct OptionStrategy<S>(S);

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn generate(&self, rng: &mut StdRngAlias) -> Self::Value {
                use rand::RngCore;
                // ~25% None, like upstream's default 1:3 weighting.
                if rng.next_u64().is_multiple_of(4) {
                    None
                } else {
                    Some(self.0.generate(rng))
                }
            }
        }

        /// `Some` of the inner strategy most of the time, `None` otherwise.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy(inner)
        }
    }

    /// Index sampling (`prop::sample::Index`).
    pub mod sample {
        use super::super::{Arbitrary, StdRngAlias};
        use rand::RngCore;

        /// A size-agnostic index: scaled into `[0, len)` at use time.
        #[derive(Debug, Clone, Copy)]
        pub struct Index(u64);

        impl Index {
            /// This index projected onto a collection of `len` elements.
            ///
            /// # Panics
            /// Panics when `len == 0`.
            pub fn index(&self, len: usize) -> usize {
                assert!(len > 0, "cannot index an empty collection");
                ((self.0 as u128 * len as u128) >> 64) as usize
            }
        }

        impl Arbitrary for Index {
            fn arbitrary(rng: &mut StdRngAlias) -> Self {
                Index(rng.next_u64())
            }
        }
    }
}

/// Internal alias so submodules can name the RNG type.
type StdRngAlias = StdRng;

/// Collection strategies (`prop::collection`).
pub mod strategies {
    use super::{StdRngAlias, Strategy};
    use rand::Rng;

    /// Length specification for [`vec()`]: an exact size or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_exclusive: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi_exclusive: r.end }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi_exclusive: *r.end() + 1 }
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRngAlias) -> Self::Value {
            let n = rng.random_range(self.size.lo..self.size.hi_exclusive);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector of values from `element` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use super::test_runner::TestCaseError;
    pub use super::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// FNV-1a over the test name: the per-test base seed.
#[doc(hidden)]
pub fn __seed_for(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Drives one property: `cases` deterministic random cases.
#[doc(hidden)]
pub fn __run_cases<F>(name: &str, cases: u32, mut case: F)
where
    F: FnMut(&mut StdRng, u32) -> Result<(), test_runner::TestCaseError>,
{
    let base = __seed_for(name);
    let mut rejected = 0u32;
    for i in 0..cases {
        let mut rng = StdRng::seed_from_u64(base.wrapping_add(u64::from(i)));
        match case(&mut rng, i) {
            Ok(()) => {}
            Err(test_runner::TestCaseError::Reject(_)) => rejected += 1,
            Err(test_runner::TestCaseError::Fail(msg)) => {
                panic!("property `{name}` failed at case {i} (seed {base}+{i}): {msg}")
            }
        }
    }
    assert!(rejected < cases, "property `{name}` rejected every case via prop_assume");
}

/// The proptest entry macro: wraps each `fn name(args in strategies)` in a
/// deterministic multi-case `#[test]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::__run_cases(stringify!($name), config.cases, |__rng, _case| {
                $(let $arg = $crate::Strategy::generate(&($strat), __rng);)*
                $body
                Ok(())
            });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}", format!($($fmt)+), l, r
            )));
        }
    }};
}

/// `assert_ne!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Skips the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::reject(stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn seeds_are_stable_per_name() {
        assert_eq!(crate::__seed_for("abc"), crate::__seed_for("abc"));
        assert_ne!(crate::__seed_for("abc"), crate::__seed_for("abd"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3u32..17, y in 0.0f64..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_size(v in prop::collection::vec(0u8..5, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            for e in v {
                prop_assert!(e < 5);
            }
        }

        #[test]
        fn prop_map_applies(s in (0u8..10).prop_map(|v| v as usize * 2)) {
            prop_assert_eq!(s % 2, 0);
            prop_assert!(s < 20);
        }

        #[test]
        fn index_scales(ix in any::<prop::sample::Index>()) {
            let i = ix.index(7);
            prop_assert!(i < 7);
        }

        #[test]
        fn assume_skips(v in 0u8..10) {
            prop_assume!(v != 3);
            prop_assert_ne!(v, 3);
        }

        #[test]
        fn option_of_mixes(o in prop::option::of(1u8..3)) {
            if let Some(v) = o {
                prop_assert!((1..3).contains(&v));
            }
        }

        #[test]
        fn tuples_compose((a, b) in (0u8..4, 10u8..14)) {
            prop_assert!(a < 4 && (10..14).contains(&b));
        }
    }
}
