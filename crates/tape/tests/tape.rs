//! The tape's own contract: one (name, seed, case) draws one set of
//! values, a replayed tape reproduces its run, a failure shrinks to its
//! known minimum and prints a line that replays it, and the rejection
//! budget holds.

use da_tape::{check, check_cases, prop_assert, prop_assume, replay, CaseResult, Choice, Tape};

/// Draws one value of every kind the tape offers.
fn draw_all(t: &mut Tape) -> (u64, u32, usize, f64, f64, bool, char, Vec<u64>, Vec<u32>) {
    let mut set: Vec<u32> = t.set(0..6, |t| t.range(0u32..20)).into_iter().collect();
    set.sort_unstable();
    (
        t.below(1_000),
        t.range(3u32..9),
        t.range(1usize..=4),
        t.range(-1.0f64..1.0),
        t.range(0.0f64..=1.0),
        t.weighted(0.3),
        t.pick(&['a', 'b', 'c']),
        t.vec(0..10, |t| t.range(0u64..100)),
        set,
    )
}

/// The failing property the shrinking tests use: a vector holding a
/// value of at least 1,000.
fn no_big_values(t: &mut Tape) -> CaseResult {
    let values = t.vec(0..100, |t| t.range(0u64..100_000));
    prop_assert!(values.iter().all(|&v| v < 1_000), "{values:?}");
    Ok(())
}

/// The message of the panic `f` raises.
fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let payload = std::panic::catch_unwind(f).expect_err("the call must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default()
}

#[test]
fn one_name_seed_and_case_draw_the_same_values() {
    let draw = |name: &str, case| draw_all(&mut Tape::generating(name, case));
    assert_eq!(draw("alpha", 3), draw("alpha", 3));
    assert_ne!(draw("alpha", 3), draw("alpha", 4));
    assert_ne!(draw("alpha", 3), draw("beta", 3));
}

#[test]
fn a_replayed_tape_draws_what_its_run_drew() {
    for case in 0..32 {
        let mut generated = Tape::generating("replay", case);
        let values = draw_all(&mut generated);
        let indices: Vec<u64> = generated.choices().iter().map(|c| c.index).collect();
        let mut replayed = Tape::replaying(&indices);
        assert_eq!(draw_all(&mut replayed), values);
        assert_eq!(replayed.choices(), generated.choices());
    }
}

#[test]
fn each_choice_keeps_its_arity_and_a_replayed_index_wraps() {
    let mut t = Tape::replaying(&[9, 1, 5]);
    assert_eq!(t.below(7), 2, "an index past the arity wraps");
    assert!(t.weighted(0.0), "index 1 is true whatever the weight");
    assert_eq!(t.range(10u64..=12), 12);
    assert_eq!(t.range(0.5f64..2.0), 0.5, "zeros past the end");
    assert_eq!(
        t.choices(),
        [(2, 7), (1, 2), (2, 3), (0, 1 << 53)].map(|(index, arity)| Choice { index, arity })
    );
}

#[test]
fn draws_stay_in_their_ranges() {
    check("draws_stay_in_their_ranges", |t| {
        let (below, small, len, signed, unit, _, _, values, set) = draw_all(t);
        prop_assert!(below < 1_000 && (3..9).contains(&small) && (1..=4).contains(&len));
        prop_assert!((-1.0..1.0).contains(&signed) && (0.0..=1.0).contains(&unit));
        prop_assert!(values.len() < 10 && values.iter().all(|&v| v < 100));
        prop_assert!(set.len() < 6 && set.windows(2).all(|w| w[0] < w[1]));
        Ok(())
    });
}

#[test]
fn a_set_stops_at_what_its_items_can_reach() {
    let mut t = Tape::generating("tiny_domain", 0);
    let set = t.set(5..6, |t| t.range(0u32..2));
    assert!(set.len() <= 2);
    assert!(t.choices().len() <= 1 + 50 + 20 * 5);
    // Replayed with zeros, every item is the first one.
    let set = Tape::replaying(&[0]).set(0..4, |t| t.range(7u32..9));
    assert!(set.is_empty());
    let set = Tape::replaying(&[3]).set(0..4, |t| t.range(7u32..9));
    assert_eq!(set.into_iter().collect::<Vec<_>>(), [7]);
}

#[test]
fn a_failing_property_shrinks_to_its_minimum() {
    let message = panic_message(|| check("no_big_values", no_big_values));
    assert!(message.contains("failed after"), "{message}");
    assert!(
        message.contains("[1000]"),
        "the shrunk case reads: {message}"
    );
    assert!(
        message.contains("da_tape::replay(&[1, 1000], ..)"),
        "{message}"
    );
}

#[test]
fn replay_reproduces_the_printed_failure() {
    let message = panic_message(|| replay(&[1, 1000], no_big_values));
    assert!(message.contains("[1000]"), "{message}");
    replay(&[1, 999], no_big_values);
}

#[test]
fn too_many_rejections_fail_the_property() {
    let message = panic_message(|| {
        check_cases("always_rejects", 4, |t| {
            let x = t.below(10);
            prop_assume!(x > 10);
            Ok(())
        })
    });
    assert!(
        message.contains("proptest 'always_rejects': too many rejected cases (140), last: assumption failed: x > 10"),
        "{message}"
    );
}
