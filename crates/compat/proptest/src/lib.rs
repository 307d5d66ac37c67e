//! Vendored, dependency-free stand-in for the `proptest` crate.
//!
//! Implements the subset the workspace's property tests use:
//!
//! * the [`proptest!`] macro with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` inner attribute
//!   and `name in strategy` argument bindings;
//! * range strategies over integers and `f64`, plus [`Just`](strategy::Just);
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`].
//!
//! Unlike the real proptest there is no shrinking: a failing case panics
//! with the sampled argument values, which are reproducible because the
//! RNG is seeded deterministically from the test name.

/// Test-runner configuration and error types.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Number of randomized cases to run per property.
    #[derive(Debug, Clone, Copy)]
    pub struct Config {
        /// How many sampled cases each property executes.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` randomized cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 32 }
        }
    }

    /// A failed property case.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        msg: String,
    }

    impl TestCaseError {
        /// Creates a failure carrying `msg`.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError { msg: msg.into() }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{}", self.msg)
        }
    }

    /// Builds the deterministic per-test RNG: the seed is an FNV-1a hash
    /// of the test name, so failures reproduce run-to-run.
    pub fn rng_for_test(name: &str) -> StdRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        StdRng::seed_from_u64(h)
    }
}

/// Value-generation strategies.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A source of sampled values for one proptest argument.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;
        /// Samples one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut StdRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }
}

/// Everything a property-test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Declares deterministic randomized property tests.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $crate::proptest! {
            @with_config ($cfg)
            $( $(#[$meta])* fn $name($($arg in $strat),+) $body )*
        }
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $crate::proptest! {
            @with_config ($crate::test_runner::Config::default())
            $( $(#[$meta])* fn $name($($arg in $strat),+) $body )*
        }
    };
    (
        @with_config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::test_runner::Config = $cfg;
                let mut __rng =
                    $crate::test_runner::rng_for_test(stringify!($name));
                for __case in 0..__cfg.cases {
                    $(
                        let $arg = $crate::strategy::Strategy::sample(
                            &($strat),
                            &mut __rng,
                        );
                    )+
                    let __args: String = [
                        $(format!(
                            "{} = {:?}",
                            stringify!($arg),
                            &$arg
                        )),+
                    ].join(", ");
                    let __outcome: ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    if let Err(e) = __outcome {
                        panic!(
                            "property `{}` failed on case {}/{} ({}): {}",
                            stringify!($name),
                            __case + 1,
                            __cfg.cases,
                            __args,
                            e
                        );
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                $($fmt)+
            )));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Sampled values respect their range bounds.
        #[test]
        fn ranges_hold(a in 3u64..9, b in 0usize..=4, f in 0.25f64..0.75) {
            prop_assert!((3..9).contains(&a));
            prop_assert!(b <= 4);
            prop_assert!((0.25..0.75).contains(&f), "f = {f}");
            prop_assert_eq!(a, a);
            prop_assert_ne!(f, -1.0);
        }
    }

    proptest! {
        /// The no-config form uses the default case count.
        #[test]
        fn default_config_runs(x in 0u32..10) {
            prop_assert!(x < 10);
        }
    }

    #[test]
    #[should_panic(expected = "property `failing` failed")]
    fn failures_panic_with_args() {
        proptest! {
            @with_config (crate::test_runner::Config::with_cases(4))
            fn failing(x in 0u64..10) {
                prop_assert!(x > 100, "x = {x} is not > 100");
            }
        }
        failing();
    }
}
