//! Property tests on the membership substrate: partial-view invariants
//! under arbitrary operation sequences, static-table laws, gossip
//! convergence, and overlay structure.

use da_core::seed::rng_from_seed;
use da_core::ProcessId;
use da_membership::{
    flat, kmg_view_size, static_init, FanoutRule, MembershipMsg, Overlay, PartialView,
};
use da_tape::{check, prop_assert, prop_assert_eq, prop_assert_ne, Tape};
use rand::{Rng, RngCore};
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

/// The view's layout before it counted its entries in a `u32` over a
/// boxed slice of its capacity: the entries in a `Vec`, and a parallel
/// `Vec` of stamps that stays empty until the first stamp (and empties
/// again with the entries). `PartialView` must behave exactly as this
/// does, draw for draw.
#[derive(Debug)]
struct ModelView {
    owner: ProcessId,
    capacity: usize,
    entries: Vec<ProcessId>,
    heard: Vec<u64>,
}

impl ModelView {
    fn new(owner: ProcessId, capacity: usize) -> Self {
        let entries = Vec::with_capacity(capacity);
        ModelView {
            owner,
            capacity,
            entries,
            heard: Vec::new(),
        }
    }

    fn from_entries(owner: ProcessId, capacity: usize, entries: &[ProcessId]) -> Self {
        let mut view = ModelView::new(owner, capacity);
        for &pid in entries {
            if pid != owner && !view.entries.contains(&pid) {
                view.entries.push(pid);
            }
        }
        view
    }

    fn position(&self, pid: ProcessId) -> Option<usize> {
        self.entries.iter().position(|&e| e == pid)
    }

    fn swap_remove(&mut self, pos: usize) {
        self.entries.swap_remove(pos);
        if !self.heard.is_empty() {
            self.heard.swap_remove(pos);
        }
    }

    fn insert(&mut self, pid: ProcessId, rng: &mut impl Rng) -> bool {
        if pid == self.owner || self.entries.contains(&pid) || self.capacity == 0 {
            return false;
        }
        if self.entries.len() >= self.capacity {
            let victim = rng.gen_range(0..self.entries.len());
            self.swap_remove(victim);
        }
        self.entries.push(pid);
        if !self.heard.is_empty() {
            self.heard.push(u64::MAX);
        }
        true
    }

    fn remove(&mut self, pid: ProcessId) -> bool {
        let at = self.position(pid);
        at.inspect(|&at| self.swap_remove(at)).is_some()
    }

    fn retain_stamped(&mut self, mut keep: impl FnMut(ProcessId, u64) -> bool) {
        let stamped = !self.heard.is_empty();
        let mut kept = 0;
        for at in 0..self.entries.len() {
            let stamp = if stamped { self.heard[at] } else { u64::MAX };
            if keep(self.entries[at], stamp) {
                self.entries[kept] = self.entries[at];
                if stamped {
                    self.heard[kept] = stamp;
                }
                kept += 1;
            }
        }
        self.entries.truncate(kept);
        self.heard.truncate(kept);
    }

    fn mark_heard(&mut self, pid: ProcessId, round: u64) {
        let Some(pos) = self.position(pid) else {
            return;
        };
        if self.heard.is_empty() {
            self.heard.resize(self.entries.len(), u64::MAX);
        }
        self.heard[pos] = round;
    }

    fn last_heard(&self, pid: ProcessId) -> Option<u64> {
        let stamp = *self.heard.get(self.position(pid)?)?;
        (stamp != u64::MAX).then_some(stamp)
    }

    fn evict_stale(&mut self, round: u64, age: u64) {
        if !self.heard.is_empty() {
            self.retain_stamped(|_, heard| heard == u64::MAX || round.saturating_sub(heard) <= age);
        }
    }

    fn sample(&self, k: usize, rng: &mut impl Rng) -> Vec<ProcessId> {
        let mut pool = self.entries.clone();
        da_core::keep_random(&mut pool, k, rng);
        pool
    }
}

/// One call on a view, applied to `PartialView` and its model alike.
#[derive(Debug, Clone)]
enum ViewOp {
    New(usize),
    FromEntries(usize, Vec<u32>),
    Insert(u32),
    Remove(u32),
    /// Keeps the pids that are not `r` modulo `m`.
    Retain(u32, u32),
    Merge(Vec<u32>),
    MarkHeard(u32, u64),
    EvictStale(u64, u64),
    Sample(usize),
}

/// Pids below this name a view's owner (0) and more residents than the
/// largest view holds.
const PIDS: u32 = 48;

fn arb_view_op(t: &mut Tape) -> ViewOp {
    let pid = |t: &mut Tape| t.range(0..PIDS);
    match t.below(16) {
        0..=3 => ViewOp::Insert(pid(t)),
        4 | 5 => ViewOp::Merge(t.vec(0..12, pid)),
        6..=8 => ViewOp::MarkHeard(pid(t), t.range(0u64..40)),
        9 | 10 => ViewOp::Remove(pid(t)),
        11 => ViewOp::Retain(t.range(2u32..6), t.range(0u32..6)),
        12 => ViewOp::EvictStale(t.range(0u64..60), t.range(0u64..20)),
        13 => ViewOp::Sample(t.range(0usize..=44)),
        14 => ViewOp::New(t.range(0usize..=40)),
        _ => {
            let capacity = t.range(0usize..=40);
            ViewOp::FromEntries(capacity, t.vec(0..=capacity, pid))
        }
    }
}

/// Which states the ops reached, counted across every case: a view
/// that only ever holds a few unstamped entries checks little.
#[derive(Default)]
struct Reached {
    evicted_while_stamped: u32,
    inserted_after_stamps: u32,
    stamped_after_inserts: u32,
}

/// `PartialView` is exact against the layout it replaced: after every
/// call its entries, every pid's stamp and the next draw of its RNG are
/// the model's.
#[test]
fn the_view_matches_its_vec_model_call_for_call() {
    let mut reached = Reached::default();
    check("the_view_matches_its_vec_model_call_for_call", |t| {
        let capacity = t.range(0usize..=40);
        let ops = t.vec(0..120, arb_view_op);
        let seed = t.range(0u64..10_000);
        let owner = ProcessId(0);
        let (mut rng, mut model_rng) = (rng_from_seed(seed), rng_from_seed(seed));
        let mut view = PartialView::new(owner, capacity);
        let mut model = ModelView::new(owner, capacity);
        let pids = |ps: &[u32]| -> Vec<ProcessId> { ps.iter().copied().map(ProcessId).collect() };
        for op in ops {
            let stamped = !model.heard.is_empty();
            match &op {
                ViewOp::New(capacity) => {
                    view = PartialView::new(owner, *capacity);
                    model = ModelView::new(owner, *capacity);
                }
                ViewOp::FromEntries(capacity, entries) => {
                    view = PartialView::from_entries(owner, *capacity, &pids(entries));
                    model = ModelView::from_entries(owner, *capacity, &pids(entries));
                }
                &ViewOp::Insert(pid) => {
                    let full = model.entries.len() == model.capacity;
                    let inserted = model.insert(ProcessId(pid), &mut model_rng);
                    reached.evicted_while_stamped += u32::from(inserted && full && stamped);
                    reached.inserted_after_stamps += u32::from(inserted && stamped);
                    prop_assert_eq!(view.insert(ProcessId(pid), &mut rng), inserted);
                }
                &ViewOp::Remove(pid) => {
                    prop_assert_eq!(view.remove(ProcessId(pid)), model.remove(ProcessId(pid)));
                }
                &ViewOp::Retain(m, r) => {
                    view.retain(|pid| pid.0 % m != r);
                    model.retain_stamped(|pid, _| pid.0 % m != r);
                }
                ViewOp::Merge(ps) => {
                    let absorbed = view.merge(&pids(ps), &mut rng);
                    let expected = pids(ps)
                        .into_iter()
                        .filter(|&pid| model.insert(pid, &mut model_rng))
                        .count();
                    prop_assert_eq!(absorbed, expected);
                }
                &ViewOp::MarkHeard(pid, round) => {
                    let first = !stamped && model.entries.contains(&ProcessId(pid));
                    reached.stamped_after_inserts += u32::from(first && model.entries.len() > 1);
                    view.mark_heard(ProcessId(pid), round);
                    model.mark_heard(ProcessId(pid), round);
                }
                &ViewOp::EvictStale(round, age) => {
                    view.evict_stale(round, age);
                    model.evict_stale(round, age);
                }
                &ViewOp::Sample(k) => {
                    prop_assert_eq!(view.sample(k, &mut rng), model.sample(k, &mut model_rng));
                }
            }
            prop_assert_eq!(view.as_slice(), &model.entries[..], "after {:?}", op);
            prop_assert_eq!(view.len(), model.entries.len());
            for pid in (0..PIDS).map(ProcessId) {
                prop_assert_eq!(
                    view.last_heard(pid),
                    model.last_heard(pid),
                    "{} after {:?}",
                    pid,
                    op
                );
            }
            prop_assert_eq!(
                rng.clone().next_u64(),
                model_rng.clone().next_u64(),
                "after {:?}",
                op
            );
        }
        Ok(())
    });
    assert!(
        reached.evicted_while_stamped > 0,
        "no full view was stamped"
    );
    assert!(
        reached.inserted_after_stamps > 0,
        "no insert followed a stamp"
    );
    assert!(
        reached.stamped_after_inserts > 0,
        "no stamp followed inserts"
    );
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
