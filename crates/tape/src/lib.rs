//! # da-tape — properties that draw from a choice tape
//!
//! A property reads its inputs from a [`Tape`] as [`Choice`]s, indices
//! below an arity; index 0 is the simplest outcome. [`check`] runs it on
//! tapes drawn from a stream seeded by (name, `PROPTEST_SEED`, case) and
//! reduces a failing tape as Hypothesis does (MacIver & Donaldson,
//! "Test-case reduction via test-case generation", ECOOP 2020): delete
//! chunks, lower indices toward 0, replay with zeros past the end, keep
//! what still fails and is smaller. The panic prints a [`replay`] line.
//! A failing `prop_assert*` returns instead of unwinding, so what the
//! body holds (a worker pool, say) drops normally before the next run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::HashSet;
use std::hash::Hash;
use std::ops::{Range, RangeInclusive};

/// How many times the reducer may re-run a failing property.
const SHRINK_RUNS: usize = 1_000;

/// The arity of an `f64` draw: a double's 53 mantissa bits.
const UNIT: u64 = 1 << 53;

/// Why one case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseError {
    /// [`prop_assume!`] discarded the case; the runner draws another.
    Reject(String),
    /// A `prop_assert*` failed.
    Fail(String),
}

/// What a property returns for one case.
pub type CaseResult = Result<(), CaseError>;

/// One choice a run consumed: `index` among `arity` outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// The outcome taken, below `arity`.
    pub index: u64,
    /// How many outcomes the choice had.
    pub arity: u64,
}

/// The choices of one run: a recorded prefix, then a stream or zeros.
#[derive(Debug, Clone)]
pub struct Tape {
    prefix: Vec<u64>,
    /// SplitMix64 state past the prefix; `None` answers 0 there.
    stream: Option<u64>,
    choices: Vec<Choice>,
}

impl Tape {
    /// Case `case` of property `name`: every choice drawn from a stream
    /// seeded by (`name`, `PROPTEST_SEED`, `case`).
    #[must_use]
    pub fn generating(name: &str, case: u64) -> Tape {
        let name = name.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        });
        Tape {
            stream: Some(mix(mix(name ^ env_u64("PROPTEST_SEED").unwrap_or(0)) ^ case)),
            ..Tape::replaying(&[])
        }
    }

    /// A tape that answers `indices` (modulo each arity), then 0.
    #[must_use]
    pub fn replaying(indices: &[u64]) -> Tape {
        Tape {
            prefix: indices.to_vec(),
            stream: None,
            choices: Vec::new(),
        }
    }

    /// The choices consumed so far, in order.
    #[must_use]
    pub fn choices(&self) -> &[Choice] {
        &self.choices
    }

    /// One choice of `arity` outcomes; `draw` maps a stream word to one.
    fn choose(&mut self, arity: u64, draw: impl FnOnce(u64) -> u64) -> u64 {
        assert!(arity > 0, "a choice needs at least one outcome");
        let index = match (self.prefix.get(self.choices.len()), &mut self.stream) {
            (Some(&index), _) => index % arity,
            (None, Some(state)) => {
                *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                draw(mix(*state))
            }
            (None, None) => 0,
        };
        self.choices.push(Choice { index, arity });
        index
    }

    /// A uniform index below `arity`, which must not be 0.
    pub fn below(&mut self, arity: u64) -> u64 {
        self.choose(arity, |word| {
            ((u128::from(word) * u128::from(arity)) >> 64) as u64
        })
    }

    /// A value of a non-empty `lo..hi` or `lo..=hi` (integer or `f64`).
    pub fn range<T>(&mut self, span: impl Span<T>) -> T {
        span.draw(self)
    }

    /// `true` with probability `p`, as index 1.
    pub fn weighted(&mut self, p: f64) -> bool {
        self.choose(2, |word| u64::from(((word >> 11) as f64) < p * UNIT as f64)) == 1
    }

    /// One of the non-empty `items`, uniformly.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// A `Vec` of a length drawn from `len`, then one `f` per slot.
    pub fn vec<T>(&mut self, len: impl Span<usize>, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        (0..self.range(len)).map(|_| f(self)).collect()
    }

    /// A set of distinct `f`s of a size drawn from `len`; it stops short
    /// when `50 + 20·size` draws do not reach that size.
    pub fn set<T: Eq + Hash>(
        &mut self,
        len: impl Span<usize>,
        mut f: impl FnMut(&mut Self) -> T,
    ) -> HashSet<T> {
        let n = self.range(len);
        let mut set = HashSet::with_capacity(n);
        for _ in 0..50 + 20 * n {
            if set.len() < n {
                set.insert(f(self));
            }
        }
        set
    }

    /// The indices consumed, less the trailing zeros a replay reads.
    fn indices(&self) -> Vec<u64> {
        let used = self.choices.iter().rposition(|c| c.index != 0);
        let used = &self.choices[..used.map_or(0, |last| last + 1)];
        used.iter().map(|c| c.index).collect()
    }
}

/// A range of `T` a [`Tape`] draws from; index 0 is its low end.
pub trait Span<T> {
    /// Draws one value from `tape`.
    fn draw(self, tape: &mut Tape) -> T;
}

macro_rules! integer_spans {
    ($($t:ty),*) => {$(
        impl Span<$t> for Range<$t> {
            fn draw(self, tape: &mut Tape) -> $t {
                assert!(self.start < self.end, "empty range");
                (self.start..=self.end - 1).draw(tape)
            }
        }
        impl Span<$t> for RangeInclusive<$t> {
            fn draw(self, tape: &mut Tape) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range");
                lo + tape.below((hi - lo) as u64 + 1) as $t
            }
        }
    )*};
}

integer_spans!(u16, u32, u64, usize);

impl Span<f64> for Range<f64> {
    fn draw(self, tape: &mut Tape) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * (tape.below(UNIT) as f64 / UNIT as f64)
    }
}

impl Span<f64> for RangeInclusive<f64> {
    fn draw(self, tape: &mut Tape) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty range");
        lo + (hi - lo) * (tape.below(UNIT + 1) as f64 / UNIT as f64)
    }
}

/// [`check_cases`] with `PROPTEST_CASES` cases, 64 when unset.
pub fn check(name: &str, property: impl FnMut(&mut Tape) -> CaseResult) {
    let cases = env_u64("PROPTEST_CASES").map_or(64, |n| n as u32);
    check_cases(name, cases, property);
}

/// Runs `property` on [`Tape::generating`]`(name, k)` for `k = 0, 1, …`
/// until `cases` pass. Panics when more than `100 + 10·cases` are
/// rejected, and on the first failure, with its shrunk tape.
pub fn check_cases(name: &str, cases: u32, mut property: impl FnMut(&mut Tape) -> CaseResult) {
    let (mut passed, mut rejected, mut case) = (0, 0, 0);
    while passed < cases {
        let mut tape = Tape::generating(name, case);
        case += 1;
        match property(&mut tape) {
            Ok(()) => passed += 1,
            Err(CaseError::Reject(why)) => {
                rejected += 1;
                assert!(
                    rejected < 100 + 10 * cases,
                    "proptest '{name}': too many rejected cases ({rejected}), last: {why}"
                );
            }
            Err(CaseError::Fail(why)) => {
                let drawn = tape.choices.len();
                let (best, why, runs) = shrink(tape.indices(), why, &mut property);
                panic!(
                    "proptest '{name}' failed after {passed} passing case(s): {why}\n\
                     shrunk from {drawn} to {} choices in {runs} runs; replay it with\n    \
                     da_tape::replay(&{best:?}, ..)",
                    best.len()
                );
            }
        }
    }
}

/// Runs `property` once on `indices`, then zeros: a failing [`check`]'s
/// line, pasted into a regression test. Panics if the property fails.
pub fn replay(indices: &[u64], mut property: impl FnMut(&mut Tape) -> CaseResult) {
    if let Err(CaseError::Fail(why)) = property(&mut Tape::replaying(indices)) {
        panic!("the tape {indices:?} fails: {why}");
    }
}

/// Reduces the failing tape `best`: rounds that delete chunks of 8, 4,
/// 2 and 1 choices, then lower each index to 0 or bisect it, until a
/// round changes nothing or [`SHRINK_RUNS`] re-runs are spent. Returns
/// the smallest failing tape, its failure and the runs spent.
fn shrink<P>(mut best: Vec<u64>, mut why: String, property: &mut P) -> (Vec<u64>, String, usize)
where
    P: FnMut(&mut Tape) -> CaseResult,
{
    let runs = Cell::new(0);
    // Replays `best` changed by `edit`; when that fails and consumes
    // less than `best`, it becomes `best`.
    let mut edited = |best: &mut Vec<u64>, why: &mut String, edit: &dyn Fn(&mut Vec<u64>)| {
        if runs.get() == SHRINK_RUNS {
            return false;
        }
        runs.set(runs.get() + 1);
        let mut candidate = best.clone();
        edit(&mut candidate);
        let mut tape = Tape::replaying(&candidate);
        let Err(CaseError::Fail(failure)) = property(&mut tape) else {
            return false;
        };
        let consumed = tape.indices();
        let smaller = (consumed.len(), &consumed) < (best.len(), &*best);
        if smaller {
            (*best, *why) = (consumed, failure);
        }
        smaller
    };
    loop {
        let before = best.clone();
        for size in [8, 4, 2, 1] {
            for at in (0..best.len()).rev() {
                if at + size <= best.len() {
                    edited(&mut best, &mut why, &|c| drop(c.drain(at..at + size)));
                }
            }
        }
        for at in 0..best.len() {
            let Some(&index) = best.get(at) else {
                break;
            };
            if index == 0 || edited(&mut best, &mut why, &|c| c[at] = 0) {
                continue;
            }
            // 0 passes and `index` fails. A failing candidate keeps
            // `best`'s first `at` choices, so `best[at]` stays.
            let (mut passes, mut fails) = (0, index);
            while fails - passes > 1 {
                let mid = passes + (fails - passes) / 2;
                if edited(&mut best, &mut why, &|c| c[at] = mid) {
                    fails = mid;
                } else {
                    passes = mid;
                }
            }
        }
        if best == before || runs.get() == SHRINK_RUNS {
            return (best, why, runs.get());
        }
    }
}

/// The SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.parse().ok()
}

/// Like `assert!`, but a failure returns [`CaseError::Fail`].
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::CaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Like `assert_eq!`, inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(, $($fmt:tt)*)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`{}",
            left, right, $crate::note!($($($fmt)*)?),
        );
    }};
}

/// Like `assert_ne!`, inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(, $($fmt:tt)*)?) => {{
        let left = &$left;
        $crate::prop_assert!(
            *left != $right,
            "assertion failed: `(left != right)`\n  both: `{:?}`{}",
            left, $crate::note!($($($fmt)*)?),
        );
    }};
}

/// The caller's message of a `prop_assert_*`, on a line of its own.
#[doc(hidden)]
#[macro_export]
macro_rules! note {
    () => { "" };
    ($($fmt:tt)+) => { format!("\n {}", format!($($fmt)+)) };
}

/// Discards the case ([`CaseError::Reject`]) when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            let why = concat!("assumption failed: ", stringify!($cond));
            return Err($crate::CaseError::Reject(why.to_owned()));
        }
    };
}
