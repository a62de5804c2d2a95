//! Offline shim for `proptest`.
//!
//! Implements the subset of the proptest API this workspace uses, with
//! deterministic per-test RNG streams (seed derived from the test name,
//! overridable via `PROPTEST_SEED`; case count via `PROPTEST_CASES` or
//! `#![proptest_config(ProptestConfig::with_cases(n))]`).
//!
//! Supported: the [`proptest!`] macro, `prop_assert*` / [`prop_assume!`] /
//! [`prop_oneof!`], [`strategy::Strategy`] with `prop_map`/`boxed`,
//! numeric range strategies, tuples of strategies,
//! [`collection::vec`] / [`collection::hash_set`], [`arbitrary::any`], and
//! [`sample::Index`].
//!
//! ## Divergences from crates.io
//!
//! * **No shrinking.** A failing case reports the generated inputs
//!   verbatim instead of a minimized counterexample.
//! * **Deterministic by default.** Real proptest seeds from OS entropy
//!   and persists failing seeds to `proptest-regressions/` files; this
//!   shim derives the stream from the test name (stable across runs and
//!   machines) and has no regression-file machinery — reproduce by name,
//!   or override with `PROPTEST_SEED`.
//! * **64 cases per test** by default instead of 256, keeping tier-1
//!   fast; `PROPTEST_CASES` scales it back up.
//! * `prop_oneof!` picks arms uniformly — weighted arms
//!   (`n => strategy`) are not supported.
//! * Strategy combinators beyond `prop_map`/`boxed` (`prop_filter`,
//!   `prop_flat_map`, `prop_recursive`, tuples of strategies beyond
//!   what the macros expand to) are absent.
//! * String literals are not regex strategies: a string is a
//!   [`collection::vec`] of character indices mapped into text with
//!   `prop_map`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbitrary;
pub mod collection;
pub mod sample;
pub mod strategy;
pub mod test_runner;

/// The common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Namespaced strategy modules, mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that generates inputs and runs the body for every
/// case. An optional leading `#![proptest_config(expr)]` sets the config.
#[macro_export]
macro_rules! proptest {
    (@run ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $config;
            let __cases: u32 = __config.cases;
            let mut __rng = $crate::test_runner::rng_for(stringify!($name));
            let mut __passed: u32 = 0;
            let mut __rejected: u32 = 0;
            while __passed < __cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                let mut __inputs = ::std::string::String::new();
                $(
                    __inputs.push_str("  ");
                    __inputs.push_str(stringify!($arg));
                    __inputs.push_str(" = ");
                    __inputs.push_str(&::std::format!("{:?}\n", &$arg));
                )+
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match __outcome {
                    ::std::result::Result::Ok(()) => __passed += 1,
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(__why)) => {
                        __rejected += 1;
                        assert!(
                            __rejected < 100 + 10 * __cases,
                            "proptest '{}': too many rejected cases ({}), last: {}",
                            stringify!($name),
                            __rejected,
                            __why,
                        );
                    }
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(__msg)) => {
                        panic!(
                            "proptest '{}' failed after {} passing case(s): {}\ninputs (no shrinking):\n{}",
                            stringify!($name),
                            __passed,
                            __msg,
                            __inputs,
                        );
                    }
                }
            }
        }
    )*};
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Like `assert!`, but inside [`proptest!`]: fails the current case with
/// the generated inputs attached.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Like `assert_eq!`, but inside [`proptest!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            __l,
            __r,
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`\n {}",
            __l,
            __r,
            ::std::format!($($fmt)+),
        );
    }};
}

/// Like `assert_ne!`, but inside [`proptest!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            __l,
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `(left != right)`\n  both: `{:?}`\n {}",
            __l,
            ::std::format!($($fmt)+),
        );
    }};
}

/// Discards the current case (counted separately from passes) when the
/// generated inputs do not satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Picks uniformly among several strategies with the same value type.
/// (The real macro supports weights; this workspace only uses the
/// unweighted form.)
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
