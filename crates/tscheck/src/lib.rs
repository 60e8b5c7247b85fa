//! Seeded property testing for the workspace.
//!
//! A deliberately small replacement for the `proptest` subset the test
//! suites use: composable [`Strategy`] values, a `proptest! {}` macro that
//! generates `#[test]` functions, `prop_assert!`-style assertions, and the
//! weighted `prop_oneof!` / `collection::vec` / `option::of` combinators.
//!
//! Every case is derived from a single base seed — `TS_SEED` in the
//! environment, or a fixed default — mixed with the test name and case
//! index, so any failure is replayable with
//! `TS_SEED=<printed seed> cargo test <test_name>`. There is no shrinking:
//! the failing case's seed is printed instead, and the generators here are
//! small enough that failures stay readable.

use std::ops::{Range, RangeInclusive};

pub use tsrand::{Rng, SeedableRng, StdRng};

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// How a test macro invocation runs its cases.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
    /// Accepted for proptest compatibility and ignored: tscheck never
    /// shrinks (failures replay whole via `TS_SEED`).
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 0,
        }
    }
}

/// A failed case. Produced by the `prop_assert*` macros.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// A generator of values for one test argument.
pub trait Strategy {
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Transforms generated values.
    fn prop_map<U, F>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        MapStrategy { inner: self, f }
    }

    /// Builds a second strategy from each generated value (dependent
    /// generation).
    fn prop_flat_map<S, F>(self, f: F) -> FlatMapStrategy<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMapStrategy { inner: self, f }
    }

    /// Transforms values, rejecting those mapped to `None` (bounded
    /// retries; `whence` names the filter in the panic on exhaustion).
    fn prop_filter_map<U, F>(self, whence: &'static str, f: F) -> FilterMapStrategy<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<U>,
    {
        FilterMapStrategy {
            inner: self,
            whence,
            f,
        }
    }

    /// Erases the strategy type (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            gen_fn: Box::new(move |rng| self.generate(rng)),
        }
    }
}

/// See [`Strategy::prop_map`].
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for MapStrategy<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMapStrategy<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut StdRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMapStrategy<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMapStrategy<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> U {
        for _ in 0..1_000 {
            if let Some(v) = (self.f)(self.inner.generate(rng)) {
                return v;
            }
        }
        panic!(
            "[tscheck] filter {:?} rejected 1000 consecutive values",
            self.whence
        );
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<V> {
    gen_fn: Box<dyn Fn(&mut StdRng) -> V>,
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut StdRng) -> V {
        (self.gen_fn)(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Ranges generate uniformly from themselves.
impl<T> Strategy for Range<T>
where
    Range<T>: tsrand::SampleRange<Output = T> + Clone,
{
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T> Strategy for RangeInclusive<T>
where
    RangeInclusive<T>: tsrand::SampleRange<Output = T> + Clone,
{
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

/// A uniform draw over a whole primitive type: `any::<bool>()`.
pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(std::marker::PhantomData)
}

pub struct Any<T>(std::marker::PhantomData<T>);

/// Primitive types `any` supports.
pub trait ArbitraryValue: tsrand::Standard {}

impl ArbitraryValue for bool {}
impl ArbitraryValue for u32 {}
impl ArbitraryValue for u64 {}
impl ArbitraryValue for usize {}
impl ArbitraryValue for f64 {}

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen()
    }
}

macro_rules! tuple_strategy {
    ($(($($n:tt $s:ident),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )+};
}

tuple_strategy!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E),
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F),
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G),
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H),
);

/// Weighted choice between strategies of one value type (see
/// [`prop_oneof!`]).
pub struct OneOf<V> {
    arms: Vec<(u32, BoxedStrategy<V>)>,
    total: u64,
}

impl<V> OneOf<V> {
    pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> OneOf<V> {
        let total = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! needs at least one positive weight");
        OneOf { arms, total }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn generate(&self, rng: &mut StdRng) -> V {
        let mut pick = rng.gen_range(0..self.total);
        for (w, s) in &self.arms {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weights summed during construction")
    }
}

pub mod collection {
    //! Container strategies.
    use super::{SizeRange, StdRng, Strategy};
    use tsrand::Rng;

    /// A `Vec` whose length is drawn from `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.size.hi > self.size.lo {
                rng.gen_range(self.size.lo..self.size.hi)
            } else {
                self.size.lo
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Element-count specification for [`collection::vec`]: an exact count or
/// a half-open range.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        SizeRange {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

pub mod option {
    //! `Option` strategies.
    use super::{StdRng, Strategy};
    use tsrand::Rng;

    /// `Some(inner)` half the time, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Option<S::Value> {
            if rng.gen_bool(0.5) {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The runner

/// The base seed: `TS_SEED` (decimal or 0x-hex) or a fixed default.
pub fn base_seed() -> u64 {
    match std::env::var("TS_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = if let Some(hex) = s.strip_prefix("0x") {
                u64::from_str_radix(hex, 16)
            } else {
                s.parse()
            };
            parsed.unwrap_or_else(|_| panic!("TS_SEED must be a u64, got {s:?}"))
        }
        Err(_) => 0x7153_EED0_DEFA_0175,
    }
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a: names a test's seed stream here, and fingerprints
/// canonical model JSON in the differential suites that pin one.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs `cases` seeded cases of `body`, panicking with a reproduction
/// recipe on the first failure. Invoked by the `proptest!` macro.
pub fn run_cases<F>(cfg: ProptestConfig, test_name: &str, mut body: F)
where
    F: FnMut(&mut StdRng) -> Result<(), TestCaseError>,
{
    let base = base_seed();
    let name_hash = fnv1a(test_name);
    for case in 0..cfg.cases {
        let case_seed = mix(mix(base, name_hash), case as u64);
        let mut rng = StdRng::seed_from_u64(case_seed);
        if let Err(e) = body(&mut rng) {
            panic!(
                "[tscheck] {test_name}: case {case}/{total} failed\n\
                 {e}\n\
                 reproduce with: TS_SEED={base} cargo test {test_name}  \
                 (case seed {case_seed:#018x})",
                total = cfg.cases,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Macros

/// Generates seeded `#[test]` functions from `fn name(arg in strategy, ..)`
/// items, mirroring `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__tscheck_fns! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__tscheck_fns! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __tscheck_fns {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            $crate::run_cases(__cfg, stringify!($name), |__tscheck_rng| {
                $(let $pat = $crate::Strategy::generate(&($strat), __tscheck_rng);)*
                let __result: ::std::result::Result<(), $crate::TestCaseError> = (move || {
                    $body
                    ::std::result::Result::Ok(())
                })();
                __result
            });
        }
        $crate::__tscheck_fns! { cfg = $cfg; $($rest)* }
    };
}

/// Fails the current case (returning its seeded reproduction recipe) when
/// the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// `prop_assert!` for equality, printing both sides on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l == *__r,
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left), stringify!($right), __l, __r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(*__l == *__r, $($fmt)*);
            }
        }
    };
}

/// `prop_assert!` for inequality.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l != *__r,
                    "assertion failed: `{} != {}`\n  both: {:?}",
                    stringify!($left),
                    stringify!($right),
                    __l
                );
            }
        }
    };
}

/// Erases a strategy for use in heterogeneous lists ([`prop_oneof!`]).
pub fn boxed<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
    s.boxed()
}

/// Chooses between strategies, optionally weighted:
/// `prop_oneof![a, b]` or `prop_oneof![4 => a, 1 => b]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$((($weight) as u32, $crate::boxed($strat))),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$((1u32, $crate::boxed($strat))),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::{base_seed, collection, option, run_cases, SeedableRng, StdRng};

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1_000 {
            let v = (3usize..10).generate(&mut rng);
            assert!((3..10).contains(&v));
            let w = (-2i32..=2).generate(&mut rng);
            assert!((-2..=2).contains(&w));
            let f = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn combinators_compose() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = (1usize..5)
            .prop_map(|n| n * 10)
            .prop_flat_map(|n| n..n + 3)
            .prop_filter_map("even only", |n| (n % 2 == 0).then_some(n));
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!(v % 2 == 0 && (10..43).contains(&v));
        }
    }

    #[test]
    fn vec_and_option_and_oneof() {
        let mut rng = StdRng::seed_from_u64(3);
        let vs = collection::vec((0u32..5, any::<bool>()), 2..7);
        let mut saw_none = false;
        let mut saw_some = false;
        for _ in 0..200 {
            let v = vs.generate(&mut rng);
            assert!((2..7).contains(&v.len()));
            match option::of(0u64..9).generate(&mut rng) {
                Some(x) => {
                    assert!(x < 9);
                    saw_some = true;
                }
                None => saw_none = true,
            }
            let c = prop_oneof![4 => Just(1u8), 1 => Just(2u8)].generate(&mut rng);
            assert!(c == 1 || c == 2);
        }
        assert!(saw_none && saw_some);
        // Exact-size vecs.
        assert_eq!(
            collection::vec(Just(0u8), 7usize).generate(&mut rng).len(),
            7
        );
    }

    #[test]
    fn runner_is_deterministic_per_name() {
        let mut first = Vec::new();
        run_cases(
            ProptestConfig {
                cases: 5,
                ..ProptestConfig::default()
            },
            "det_check",
            |rng| {
                first.push((0u64..1_000_000).generate(rng));
                Ok(())
            },
        );
        let mut second = Vec::new();
        run_cases(
            ProptestConfig {
                cases: 5,
                ..ProptestConfig::default()
            },
            "det_check",
            |rng| {
                second.push((0u64..1_000_000).generate(rng));
                Ok(())
            },
        );
        assert_eq!(first, second);
        let mut other = Vec::new();
        run_cases(
            ProptestConfig {
                cases: 5,
                ..ProptestConfig::default()
            },
            "other_name",
            |rng| {
                other.push((0u64..1_000_000).generate(rng));
                Ok(())
            },
        );
        assert_ne!(first, other, "different tests draw different streams");
    }

    #[test]
    fn failure_panics_with_reproduction_recipe() {
        let err = std::panic::catch_unwind(|| {
            run_cases(
                ProptestConfig {
                    cases: 10,
                    ..ProptestConfig::default()
                },
                "always_fails",
                |_rng| Err(TestCaseError::fail("nope")),
            );
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(
            msg.contains("always_fails") && msg.contains("TS_SEED="),
            "{msg}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// The macro layer itself: patterns, multiple args, early return.
        #[test]
        fn macro_generates_cases(a in 0u32..50, (b, flip) in (5usize..9, any::<bool>())) {
            if flip {
                return Ok(());
            }
            prop_assert!(a < 50);
            prop_assert_eq!(b.clamp(5, 8), b);
            prop_assert_ne!(b, 100);
        }
    }

    #[test]
    fn default_base_seed_is_stable() {
        if std::env::var("TS_SEED").is_err() {
            assert_eq!(base_seed(), 0x7153_EED0_DEFA_0175);
        }
    }
}
