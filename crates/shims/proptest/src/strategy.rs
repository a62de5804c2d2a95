//! The [`Strategy`] trait and the combinators this workspace uses.

use crate::test_runner::TestRng;
use rand::Rng;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// A recipe for generating values of one type.
///
/// Unlike real proptest there is no `ValueTree`/shrinking split: a
/// strategy generates a value directly from the test RNG.
pub trait Strategy {
    /// The type of generated values (`Debug` so failures can report them).
    type Value: Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Erases the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V: Debug> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Always generates a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<V: Clone + Debug>(pub V);

impl<V: Clone + Debug> Strategy for Just<V> {
    type Value = V;
    fn generate(&self, _rng: &mut TestRng) -> V {
        self.0.clone()
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    O: Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice among boxed strategies (built by
/// [`prop_oneof!`](crate::prop_oneof)).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V: Debug> Union<V> {
    /// Builds a union over `options`.
    ///
    /// # Panics
    /// Panics if `options` is empty.
    #[must_use]
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<V: Debug> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.gen_range(0..self.options.len());
        self.options[i].generate(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),* $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy!(
    (A.0),
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::rng_for;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = rng_for("ranges");
        for _ in 0..200 {
            let x = (3u32..9).generate(&mut rng);
            assert!((3..9).contains(&x));
            let f = (0.0f64..=1.0).generate(&mut rng);
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn map_and_union_compose() {
        let mut rng = rng_for("map_union");
        let s = Union::new(vec![
            (0u32..5).prop_map(|x| x * 2).boxed(),
            (100u32..105).boxed(),
        ]);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v < 10 && v % 2 == 0 || (100..105).contains(&v), "{v}");
        }
    }

    #[test]
    fn just_and_tuples() {
        let mut rng = rng_for("just");
        let (a, b) = (Just(7u8), 1u8..3).generate(&mut rng);
        assert_eq!(a, 7);
        assert!((1..3).contains(&b));
    }
}
