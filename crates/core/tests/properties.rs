//! Property tests on the protocol building blocks: dissemination-plan
//! statistics, supertable laws, bootstrap narrowing, maintenance phases
//! and the de-dup set, over arbitrary inputs.

use da_core::{rng_from_seed, ProcessId};
use da_tape::{check, prop_assert, prop_assert_eq, Tape};
use da_topics::{TopicHierarchy, TopicId};
use damulticast::{
    plan_dissemination, BootstrapAction, BootstrapTask, DisseminationPlan, EventId, EventSet,
    Group, MaintenanceAction, MaintenanceTask, SuperEntry, SuperTable, TopicParams,
};
use std::collections::HashSet;
use std::sync::Arc;

/// The root topic's group of `group_size`, run with `params`.
fn root_group(params: TopicParams, group_size: usize) -> Group {
    Group::new(
        TopicId::ROOT,
        Arc::new(TopicHierarchy::new()),
        params,
        group_size,
    )
}

fn arb_params(t: &mut Tape) -> TopicParams {
    let (g, z, c) = (
        t.range(1.0f64..30.0),
        t.range(1usize..6),
        t.range(0.0f64..8.0),
    );
    TopicParams {
        g,
        z,
        a: 1.0,
        tau: 1.min(z),
        fanout: da_membership::FanoutRule::LnPlusC { c },
        ..TopicParams::paper_default()
    }
}

/// Plans never exceed their sources: gossip targets ⊆ topic table
/// (distinct, ≤ fanout), super targets ⊆ supertable entries.
#[test]
fn plan_respects_sources() {
    check("plan_respects_sources", |t| {
        let params = arb_params(t);
        let group_size = t.range(1usize..5_000);
        let table_size = t.range(0usize..40);
        let stable_size = t.range(0usize..6);
        let seed = t.range(0u64..10_000);
        let mut rng = rng_from_seed(seed);
        let table: Vec<ProcessId> = (1..=table_size as u32).map(ProcessId).collect();
        let stable = SuperTable::from_entries(
            (0..stable_size as u32)
                .map(|i| SuperEntry {
                    pid: ProcessId(1000 + i),
                    topic: TopicId::ROOT,
                })
                .collect(),
        );
        let mut plan = DisseminationPlan::default();
        let group = root_group(params, group_size);
        plan_dissemination(
            &group,
            &table,
            std::slice::from_ref(&stable),
            &mut rng,
            &mut plan,
        );

        let fanout = params.fanout.fanout(group_size);
        prop_assert!(plan.gossip_targets.len() <= fanout.min(table.len()));
        let unique: HashSet<ProcessId> = plan.gossip_targets.iter().copied().collect();
        prop_assert_eq!(unique.len(), plan.gossip_targets.len(), "distinct targets");
        for t in &plan.gossip_targets {
            prop_assert!(table.contains(t));
        }
        for e in &plan.super_targets {
            prop_assert!(stable.contains(e.pid));
        }
        if !plan.elected {
            prop_assert!(plan.super_targets.is_empty());
        }
        if stable.is_empty() {
            prop_assert!(!plan.elected);
        }
        prop_assert_eq!(
            plan.message_count(),
            plan.gossip_targets.len() + plan.super_targets.len()
        );
        Ok(())
    });
}

/// Election frequency tracks p_sel = g/S over many draws.
#[test]
fn election_frequency_tracks_p_sel() {
    check("election_frequency_tracks_p_sel", |t| {
        let g = t.range(1.0f64..20.0);
        let group_size = t.range(20usize..2_000);
        let seed = t.range(0u64..1_000);
        let params = TopicParams::paper_default().with_g(g);
        let mut rng = rng_from_seed(seed);
        let table: Vec<ProcessId> = (1..=10).map(ProcessId).collect();
        let stable = SuperTable::from_entries(
            (0..3)
                .map(|i| SuperEntry {
                    pid: ProcessId(1000 + i),
                    topic: TopicId::ROOT,
                })
                .collect(),
        );
        let trials = 4_000;
        let mut plan = DisseminationPlan::default();
        let group = root_group(params, group_size);
        let elected = (0..trials)
            .filter(|_| {
                plan_dissemination(
                    &group,
                    &table,
                    std::slice::from_ref(&stable),
                    &mut rng,
                    &mut plan,
                );
                plan.elected
            })
            .count();
        let p_sel = (g / group_size as f64).min(1.0);
        let rate = elected as f64 / f64::from(trials);
        // 4000 Bernoulli draws: allow 4 standard deviations of slack.
        let sigma = (p_sel * (1.0 - p_sel) / f64::from(trials)).sqrt();
        prop_assert!(
            (rate - p_sel).abs() <= 4.0 * sigma + 0.005,
            "rate {} vs p_sel {} (sigma {})",
            rate,
            p_sel,
            sigma
        );
        Ok(())
    });
}

/// Supertable MERGE (footnote 5), as the maintenance task runs it:
/// residents that `tighten` took in, the dead among them removed,
/// then `tighten` absorbs the fresh contacts. The table never exceeds its `z`, fresh pids fill free
/// room first, and an alive resident leaves only for a strictly
/// deeper entry. A contact's depth is its pid mod 4.
#[test]
fn supertable_merge_laws() {
    check("supertable_merge_laws", |t| {
        let capacity = t.range(1usize..8);
        let residents = t.vec(0..8, |t| t.range(1u32..50));
        let dead = t.set(0..8, |t| t.range(1u32..50));
        let fresh = t.vec(0..8, |t| t.range(50u32..90));
        let _seed = t.range(0u64..10_000);
        let entry = |pid: u32| SuperEntry {
            pid: ProcessId(pid),
            topic: TopicId::from_index(pid as usize % 4),
        };
        let depth = |e: &SuperEntry| e.topic.index();
        let mut table = SuperTable::with_capacity(capacity);
        let resident_entries: Vec<SuperEntry> = residents.iter().map(|&r| entry(r)).collect();
        table.tighten(&resident_entries, capacity, TopicId::index);
        for &d in &dead {
            table.remove(ProcessId(d));
        }
        let survivors = table.clone();
        let fresh_entries: Vec<SuperEntry> = fresh.iter().map(|&f| entry(f)).collect();
        table.tighten(&fresh_entries, capacity, TopicId::index);

        let new_pids: HashSet<u32> = fresh.iter().copied().collect();
        let wanted = survivors.len() + new_pids.len();
        prop_assert_eq!(table.len(), capacity.min(wanted));
        for e in table.entries() {
            prop_assert!(!dead.contains(&e.pid.0), "dead entry survived merge");
        }
        for s in survivors
            .entries()
            .iter()
            .filter(|s| !table.contains(s.pid))
        {
            prop_assert!(wanted > capacity, "{} evicted with room to spare", s.pid);
            prop_assert!(
                table.entries().iter().all(|e| depth(e) >= depth(s)),
                "{} evicted before a shallower entry",
                s.pid
            );
            prop_assert!(
                table
                    .entries()
                    .iter()
                    .any(|e| e.pid.0 >= 50 && depth(e) > depth(s)),
                "{} evicted with no strictly deeper fresh entry",
                s.pid
            );
        }
        Ok(())
    });
}

/// Bootstrap scope grows monotonically up the ancestor chain on
/// timeouts and never contains topics below the direct supertopic.
#[test]
fn bootstrap_widening_monotone() {
    check("bootstrap_widening_monotone", |t| {
        let levels = t.range(2usize..8);
        let rounds = t.range(1u64..60);
        let (h, ids) = TopicHierarchy::linear_chain(levels);
        let leaf = ids[levels - 1];
        let mut task = BootstrapTask::new(leaf, &h).unwrap();
        task.start(0);
        let mut prev_len = task.wanted().len();
        for round in 1..=rounds {
            match task.on_round(round, &h) {
                BootstrapAction::SendRequest { topics, .. } => {
                    prop_assert!(topics.len() >= prev_len);
                    prop_assert!(topics.len() < levels, "scope capped at the root");
                    // Every requested topic strictly includes the leaf.
                    for t in &topics {
                        prop_assert!(h.includes(*t, leaf));
                    }
                    prev_len = topics.len();
                }
                BootstrapAction::Idle => {}
            }
        }
        Ok(())
    });
}

/// An answer from any strict ancestor narrows the scope to topics
/// below it (or finishes, for the direct supertopic).
#[test]
fn bootstrap_answer_narrows() {
    check("bootstrap_answer_narrows", |t| {
        let levels = t.range(3usize..8);
        let answer_level = t.range(0usize..6);
        let widenings = t.range(0u64..6);
        let (h, ids) = TopicHierarchy::linear_chain(levels);
        let leaf = ids[levels - 1];
        let answer_level = answer_level.min(levels - 2);
        let mut task = BootstrapTask::new(leaf, &h).unwrap();
        task.start(0);
        let (mut round, mut widened) = (0, 0);
        while widened < widenings {
            round += 1;
            if let BootstrapAction::SendRequest { .. } = task.on_round(round, &h) {
                widened += 1;
            }
        }
        let answered = ids[answer_level];
        let finished = task.on_answer(answered, &h);
        if answered == ids[levels - 2] {
            prop_assert!(finished, "direct supertopic answer must finish");
            prop_assert!(!task.is_active());
        } else {
            prop_assert!(!finished);
            // Remaining wanted topics must all be strictly below the
            // answered ancestor.
            for t in task.wanted() {
                prop_assert!(
                    h.includes(answered, *t),
                    "wanted topic not below the answered ancestor"
                );
            }
        }
        Ok(())
    });
}

/// Maintenance never pings while a check is in flight, and refresh
/// triggers exactly when the live count is ≤ τ.
#[test]
fn maintenance_phases() {
    check("maintenance_phases", |t| {
        let period = t.range(1u64..6);
        let ping_timeout = t.range(1u64..5);
        let entries = t.vec(1..6, |t| t.range(1u32..30));
        let answering = t.set(0..6, |t| t.range(1u32..30));
        let tau = t.range(0usize..4);
        let mut task = MaintenanceTask::new(period, ping_timeout);
        let pids: Vec<ProcessId> = entries.iter().map(|&e| ProcessId(e)).collect();
        // Find the first Ping.
        let mut round = 0;
        let ping_round = loop {
            match task.on_round(round, &pids, true, tau) {
                MaintenanceAction::Ping { targets, .. } => {
                    prop_assert_eq!(&targets, &pids, "pings go to every entry");
                    break round;
                }
                MaintenanceAction::RestartBootstrap => {
                    prop_assert!(pids.is_empty());
                    return Ok(());
                }
                _ => {}
            }
            round += 1;
            prop_assert!(round < 20, "ping never issued");
        };
        // Answers arrive immediately from the `answering` subset.
        for &a in &answering {
            task.on_pong(ProcessId(a), ping_round);
        }
        // While waiting, no second ping.
        for r in ping_round + 1..ping_round + ping_timeout {
            let action = task.on_round(r, &pids, true, tau);
            prop_assert!(
                !matches!(action, MaintenanceAction::Ping { .. }),
                "double ping while awaiting pongs"
            );
        }
        // At the timeout, refresh iff live ≤ τ.
        let action = task.on_round(ping_round + ping_timeout, &pids, true, tau);
        let live = pids.iter().filter(|p| answering.contains(&p.0)).count();
        if live <= tau {
            match action {
                MaintenanceAction::Refresh { alive, dead } => {
                    prop_assert_eq!(alive.len(), live);
                    prop_assert_eq!(dead.len(), pids.len() - live);
                }
                other => prop_assert!(false, "expected Refresh, got {:?}", other),
            }
        } else {
            let acceptable = matches!(
                action,
                MaintenanceAction::Idle | MaintenanceAction::Ping { .. }
            );
            prop_assert!(acceptable, "unexpected action {:?}", action);
        }
        Ok(())
    });
}

/// Each half of an id from a small alphabet, so streams repeat ids, with
/// `u32::MAX` in it: the all-ones id is drawn too.
fn arb_event_id(t: &mut Tape) -> EventId {
    let mut half = || match t.below(3) {
        0 => t.range(0u32..5),
        1 => u32::MAX - 1,
        _ => u32::MAX,
    };
    EventId {
        publisher: ProcessId(half()),
        sequence: half(),
    }
}

/// `EventSet` answers as a `HashSet<EventId>` does: the same
/// `insert` results on a stream with repeats, the same members after
/// it, and no member it does not hold.
#[test]
fn an_event_set_agrees_with_a_hash_set() {
    check("an_event_set_agrees_with_a_hash_set", |t| {
        let stream = t.vec(0..200, arb_event_id);
        let probes = t.vec(0..20, arb_event_id);
        let mut set = EventSet::default();
        let mut model = HashSet::new();
        for &id in &stream {
            prop_assert_eq!(set.insert(id), model.insert(id), "insert {}", id);
            prop_assert!(set.contains(id));
        }
        for id in stream.iter().chain(&probes) {
            prop_assert_eq!(set.contains(*id), model.contains(id), "contains {}", id);
        }
        let mut members: Vec<EventId> = set.iter().collect();
        members.sort();
        let mut expected: Vec<EventId> = model.into_iter().collect();
        expected.sort();
        prop_assert_eq!(members, expected);
        Ok(())
    });
}
