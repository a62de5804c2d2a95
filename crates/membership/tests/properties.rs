//! Property tests on the membership substrate: partial-view invariants
//! under arbitrary operation sequences, static-table laws, gossip
//! convergence, and overlay structure.

use da_core::seed::rng_from_seed;
use da_core::ProcessId;
use da_membership::{
    flat, kmg_view_size, static_init, FanoutRule, MembershipMsg, Overlay, PartialView,
};
use da_tape::{check, prop_assert, prop_assert_eq, prop_assert_ne, Tape};
use std::collections::{HashMap, HashSet};

/// Operations applied to a view in sequence.
#[derive(Debug, Clone)]
enum Op {
    Insert(u32),
    Remove(u32),
    Merge(Vec<u32>),
}

fn arb_op(t: &mut Tape) -> Op {
    match t.below(3) {
        0 => Op::Insert(t.range(0u32..50)),
        1 => Op::Remove(t.range(0u32..50)),
        _ => Op::Merge(t.vec(0..8, |t| t.range(0u32..50))),
    }
}

/// Liveness traffic at one process; rounds advance by the given step,
/// wide enough beside [`flat::EVICTION_AGE`] that entries do go stale.
#[derive(Debug, Clone)]
enum Liveness {
    /// A membership message from a process, carrying a sample.
    Message(u32, Vec<u32>, u64),
    /// Any other sign of life (an event copy) from a process.
    Heard(u32, u64),
    /// The periodic sweep.
    Evict(u64),
}

fn arb_liveness(t: &mut Tape) -> Liveness {
    match t.below(3) {
        0 => Liveness::Message(
            t.range(0u32..40),
            t.vec(0..5, |t| t.range(0u32..40)),
            t.range(0u64..20),
        ),
        1 => Liveness::Heard(t.range(0u32..40), t.range(0u64..20)),
        _ => Liveness::Evict(t.range(0u64..60)),
    }
}

/// The stamps that live on view entries evict exactly what the map
/// keyed by every sender ever heard from evicted: same view, same
/// order, after every step, with seeds nobody has heard from exempt.
/// (The map also remembered processes outside the view; every path
/// that admits one after start-up stamps it on entry, so that memory
/// never decided anything.)
#[test]
fn view_resident_stamps_evict_like_the_last_heard_map() {
    check("view_resident_stamps_evict_like_the_last_heard_map", |t| {
        let group_size = t.range(3usize..80);
        let seeds = t.vec(0..6, |t| t.range(0u32..40));
        let ops = t.vec(0..80, arb_liveness);
        let seed = t.range(0u64..10_000);
        let me = ProcessId(0);
        let capacity = kmg_view_size(0.5, group_size);
        let seeds: Vec<ProcessId> = seeds.into_iter().map(ProcessId).collect();
        let mut rng = rng_from_seed(seed);
        let mut membership = PartialView::new(me, capacity);
        membership.merge(&seeds, &mut rng);

        // The model: a bare view plus the map that once kept the stamps.
        let mut model_rng = rng_from_seed(seed);
        let mut view = PartialView::new(me, capacity);
        view.merge(&seeds, &mut model_rng);
        let mut last_heard: HashMap<ProcessId, u64> = HashMap::new();

        let mut round = 0;
        for op in ops {
            match op {
                Liveness::Message(from, sample, step) => {
                    round += step;
                    let from = ProcessId(from);
                    let sample: Vec<ProcessId> = sample.into_iter().map(ProcessId).collect();
                    last_heard.insert(from, round);
                    view.insert(from, &mut model_rng);
                    for &pid in &sample {
                        if view.insert(pid, &mut model_rng) {
                            last_heard.insert(pid, round);
                        }
                    }
                    let msg = MembershipMsg::Digest { sample };
                    flat::on_message(&mut membership, from, &msg, round, &mut rng);
                }
                Liveness::Heard(pid, step) => {
                    round += step;
                    last_heard.insert(ProcessId(pid), round);
                    membership.mark_heard(ProcessId(pid), round);
                }
                Liveness::Evict(step) => {
                    round += step;
                    view.retain(|pid| {
                        last_heard
                            .get(&pid)
                            .is_none_or(|&heard| round - heard <= flat::EVICTION_AGE)
                    });
                    membership.evict_stale(round, flat::EVICTION_AGE);
                }
            }
            prop_assert_eq!(membership.as_slice(), view.as_slice());
            for pid in view.iter() {
                prop_assert_eq!(membership.last_heard(pid), last_heard.get(&pid).copied());
            }
        }
        Ok(())
    });
}

/// View invariants hold under every operation sequence: no self, no
/// duplicates, never over capacity.
#[test]
fn view_invariants_under_any_ops() {
    check("view_invariants_under_any_ops", |t| {
        let capacity = t.range(0usize..12);
        let ops = t.vec(0..60, arb_op);
        let seed = t.range(0u64..10_000);
        let owner = ProcessId(0);
        let mut rng = rng_from_seed(seed);
        let mut view = PartialView::new(owner, capacity);
        for op in ops {
            match op {
                Op::Insert(p) => {
                    view.insert(ProcessId(p), &mut rng);
                }
                Op::Remove(p) => {
                    view.remove(ProcessId(p));
                }
                Op::Merge(ps) => {
                    let pids: Vec<ProcessId> = ps.into_iter().map(ProcessId).collect();
                    view.merge(&pids, &mut rng);
                }
            }
            prop_assert!(view.len() <= capacity);
            prop_assert!(!view.contains(owner));
            let unique: HashSet<ProcessId> = view.iter().collect();
            prop_assert_eq!(unique.len(), view.len());
        }
        Ok(())
    });
}

/// `kmg_view_size` laws: bounded by S−1, monotone in b, and matches
/// the ceil formula when not capped.
#[test]
fn view_size_laws() {
    check("view_size_laws", |t| {
        let b = t.range(0.0f64..8.0);
        let s = t.range(0usize..100_000);
        let size = kmg_view_size(b, s);
        prop_assert!(size <= s.saturating_sub(1));
        prop_assert!(kmg_view_size(b + 1.0, s) >= size);
        if s > 1 {
            let ideal = ((b + 1.0) * (s as f64).ln()).ceil() as usize;
            prop_assert_eq!(size, ideal.min(s - 1));
        }
        Ok(())
    });
}

/// Fanout rules: capped by S−1, zero for trivial groups, monotone in
/// the group size.
#[test]
fn fanout_laws() {
    check("fanout_laws", |t| {
        let c = t.range(0.0f64..10.0);
        let s = t.range(0usize..100_000);
        for rule in [
            FanoutRule::LnPlusC { c },
            FanoutRule::Log10PlusC { c },
            FanoutRule::Fixed(c as usize),
        ] {
            let f = rule.fanout(s);
            prop_assert!(f <= s.saturating_sub(1));
            if s <= 1 {
                prop_assert_eq!(f, 0);
            }
            prop_assert!(rule.fanout(s.saturating_mul(2)) >= f || s == 0);
        }
        Ok(())
    });
}

/// Static topic tables: right size, no self, no duplicates, all
/// within the group — for any group size.
#[test]
fn static_tables_well_formed() {
    check("static_tables_well_formed", |t| {
        let n = t.range(1usize..200);
        let b = t.range(0.0f64..6.0);
        let seed = t.range(0u64..10_000);
        let members: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
        let mut rng = rng_from_seed(seed);
        let tables = static_init::static_topic_tables(&members, b, &mut rng).unwrap();
        let expected = kmg_view_size(b, n);
        for (&me, table) in members.iter().zip(&tables) {
            prop_assert_eq!(table.len(), expected.min(n - 1));
            prop_assert!(!table.contains(&me));
            let unique: HashSet<&ProcessId> = table.iter().collect();
            prop_assert_eq!(unique.len(), table.len());
            prop_assert!(table.iter().all(|p| members.contains(p)));
        }
        Ok(())
    });
}

/// Static supertables: size min(z, supergroup), distinct, all in the
/// supergroup.
#[test]
fn static_super_tables_well_formed() {
    check("static_super_tables_well_formed", |t| {
        let n = t.range(1usize..60);
        let sup = t.range(1usize..60);
        let z = t.range(1usize..8);
        let seed = t.range(0u64..10_000);
        let members: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
        let supergroup: Vec<ProcessId> = (1000..1000 + sup as u32).map(ProcessId).collect();
        let mut rng = rng_from_seed(seed);
        let tables = static_init::static_super_tables(&members, &supergroup, z, &mut rng).unwrap();
        for table in &tables {
            prop_assert_eq!(table.len(), z.min(sup));
            prop_assert!(table.iter().all(|p| supergroup.contains(p)));
            let unique: HashSet<&ProcessId> = table.iter().collect();
            prop_assert_eq!(unique.len(), table.len());
        }
        Ok(())
    });
}

/// Gossip convergence: two views whose owners exchange one digest in
/// each direction end up knowing each other.
#[test]
fn digest_exchange_connects() {
    check("digest_exchange_connects", |t| {
        let seed = t.range(0u64..10_000);
        let capacity = kmg_view_size(3.0, 10);
        let mut rng = rng_from_seed(seed);
        let mut a = PartialView::new(ProcessId(0), capacity);
        let mut b = PartialView::new(ProcessId(1), capacity);
        // a joins through b.
        let joins = flat::join(&mut a, &[ProcessId(1)], &mut rng);
        for (to, msg) in joins {
            prop_assert_eq!(to, ProcessId(1));
            let replies = flat::on_message(&mut b, ProcessId(0), &msg, 0, &mut rng);
            for (_, reply) in replies {
                flat::on_message(&mut a, ProcessId(1), &reply, 0, &mut rng);
            }
        }
        prop_assert!(a.contains(ProcessId(1)));
        prop_assert!(b.contains(ProcessId(0)));
        Ok(())
    });
}

/// Group assignment is a disjoint dense cover.
#[test]
fn assign_members_partition() {
    check("assign_members_partition", |t| {
        let sizes = t.vec(1..6, |t| t.range(0usize..50));
        let groups = static_init::assign_group_members(&sizes);
        prop_assert_eq!(groups.len(), sizes.len());
        let mut all = Vec::new();
        for (g, size) in groups.iter().zip(&sizes) {
            prop_assert_eq!(g.len(), *size);
            all.extend(g.iter().copied());
        }
        let total: usize = sizes.iter().sum();
        prop_assert_eq!(all.len(), total);
        let unique: HashSet<ProcessId> = all.iter().copied().collect();
        prop_assert_eq!(unique.len(), total, "groups must be disjoint");
        // Dense 0..total.
        for i in 0..total {
            prop_assert!(unique.contains(&ProcessId::from_index(i)));
        }
        Ok(())
    });
}

/// Overlay structure: symmetric, self-loop free, connected, minimum
/// degree honoured (capped by the population).
#[test]
fn overlay_structural_laws() {
    check("overlay_structural_laws", |t| {
        let population = t.range(1usize..80);
        let degree = t.range(0usize..12);
        let seed = t.range(0u64..10_000);
        let o = Overlay::random(population, degree, seed).unwrap();
        prop_assert_eq!(o.population(), population);
        let want = degree.min(population.saturating_sub(1));
        let mut visited = std::collections::HashSet::new();
        let mut queue = std::collections::VecDeque::from([ProcessId(0)]);
        visited.insert(ProcessId(0));
        while let Some(p) = queue.pop_front() {
            for &q in o.neighbors(p) {
                prop_assert_ne!(q, p, "self loop");
                prop_assert!(o.neighbors(q).contains(&p), "asymmetric edge");
                if visited.insert(q) {
                    queue.push_back(q);
                }
            }
        }
        prop_assert_eq!(visited.len(), population, "disconnected overlay");
        for i in 0..population {
            prop_assert!(o.neighbors(ProcessId::from_index(i)).len() >= want);
        }
        Ok(())
    });
}
