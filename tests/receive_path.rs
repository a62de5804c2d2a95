//! The protocol receive path indexes, it does not hash or allocate: a
//! tally folds to the same cells on both substrates and renders each
//! under its name, a warmed-up `DaProcess` discards a duplicate without
//! touching the allocator and publishes without a heap block per event,
//! a control message allocates only when it
//! carries a list (then once more than the list), a static process
//! stays inside the heap budget the benchmark's `bytes_per_process` is
//! held to, a wave process's bytes add up row by row to what the
//! benchmark's `bytes_per_process` measures, a process that never draws
//! costs the simulator at most 8 B beside its own state, and the send
//! path's occurrence table counts like the pair-keyed map it is a packing
//! of and reuses its allocation, and a churn tick allocates nothing.

use da_core::failure::FailureModel;
use da_core::{
    Exec, ExecProtocol, Family, Kind, LifecycleController, Occurrences, ProcessId, RunConfig,
    Tally, WireSize,
};
use da_harness::substrate::{Driver, Substrate};
use da_membership::MembershipMsg;
use da_topics::TopicId;
use damulticast::{ControlMsg, DaMsg, DaProcess, Event, Network, SuperEntry, TopicParams};
use rand::rngs::SmallRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Forwards to the system allocator, keeping the calling thread's
/// allocation count (growth included: the default `realloc` calls
/// `alloc`) and live bytes. Hosted here because the libraries are
/// `forbid(unsafe_code)`.
struct CountingAllocator;

thread_local! {
    /// Per-thread, so the harness's own threads stay out of the count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: allocations during thread teardown go uncounted.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + layout.size() as i64));
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE_BYTES.try_with(|live| live.set(live.get() - layout.size() as i64));
        // SAFETY: forwarded unchanged; `ptr` came from `System.alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A flood that counts its receipts per group: the first copy of the
/// token is forwarded to two successors, later copies are counted and
/// dropped. An even pid's group is its pid mod 3 and an odd pid's is 3
/// more, so on two workers neither counts every group: one never grows
/// rows 3–5, and the other grows rows 0–2 and leaves them empty.
#[derive(Clone)]
struct Flood {
    population: u32,
    group: usize,
    seen: bool,
}

#[derive(Clone, Debug)]
struct Token;

impl WireSize for Token {
    fn wire_size(&self) -> usize {
        1
    }
}

impl Flood {
    fn population(n: u32) -> Vec<Flood> {
        (0..n as usize)
            .map(|i| Flood {
                population: n,
                group: 3 * (i % 2) + i % 3,
                seen: false,
            })
            .collect()
    }

    fn forward<X: Exec<Msg = Token>>(&self, ctx: &mut X) {
        let me = ctx.me().0;
        for to in [me + 1, me * 7 + 3] {
            ctx.send(ProcessId(to % self.population), Token);
        }
    }
}

impl ExecProtocol for Flood {
    type Msg = Token;

    fn on_start<X: Exec<Msg = Token>>(&mut self, ctx: &mut X) {
        if ctx.me() == ProcessId(0) {
            self.seen = true;
            ctx.count(Family::Da, Kind::Control, self.group);
            ctx.count(Family::Da, Kind::Parasite, 0);
            self.forward(ctx);
        }
    }

    fn on_message<X: Exec<Msg = Token>>(&mut self, _from: ProcessId, _msg: Token, ctx: &mut X) {
        let (da, metro) = if self.seen {
            (Kind::Duplicate, Kind::Duplicate)
        } else {
            (Kind::Delivered, Kind::FirstDelivery)
        };
        ctx.count(Family::Da, da, self.group);
        ctx.count(Family::Metro, metro, 0);
        if !self.seen {
            self.seen = true;
            self.forward(ctx);
        }
    }
}

/// A tally folds to the same cells whichever substrate ran it and
/// however its groups fell across workers; the counters render every
/// cell under its name with its count, and the sums the benchmark
/// package takes of those names are the tally's totals.
#[test]
fn a_tally_folds_alike_on_every_substrate_and_renders_under_its_names() {
    let population = 60;
    let mut tallies = Vec::new();
    for substrate in [
        Substrate::Sim,
        Substrate::Live { workers: 1 },
        Substrate::Live { workers: 2 },
    ] {
        let flood = Flood::population(population);
        let mut driver = Driver::spawn(substrate, RunConfig::default().with_seed(9), flood);
        driver.run_until_quiescent(64);
        let out = driver.finish();
        let (tally, counters) = (out.tally, out.counters);

        // Each cell the flood counts, under its name: daMulticast's kinds
        // with the group key, the others bare; and no name beside them
        // but the ledger's.
        let mut cells = vec![
            (Family::Da, Kind::Parasite, 0, "da.parasite".to_owned()),
            (
                Family::Metro,
                Kind::FirstDelivery,
                0,
                "metro.first_delivery".to_owned(),
            ),
            (
                Family::Metro,
                Kind::Duplicate,
                0,
                "metro.duplicate".to_owned(),
            ),
        ];
        for group in 0..6 {
            for (kind, name) in [
                (Kind::Delivered, "delivered"),
                (Kind::Duplicate, "duplicate"),
                (Kind::Control, "control"),
            ] {
                cells.push((Family::Da, kind, group, format!("da.{name}.{group}")));
            }
        }
        let mut named = 0;
        for (family, kind, group, name) in cells {
            let count = tally.get(family, kind, group);
            assert_eq!(counters.get(&name), count, "{substrate:?}: {name}");
            named += usize::from(count > 0);
        }
        let ledger_names = if substrate == Substrate::Sim { 9 } else { 11 };
        assert_eq!(counters.len(), ledger_names + named, "{substrate:?}");
        let total = |family, kind| tally.total(family, kind);
        let first = total(Family::Da, Kind::Delivered) + total(Family::Metro, Kind::FirstDelivery);
        let duplicate = total(Family::Da, Kind::Duplicate) + total(Family::Metro, Kind::Duplicate);
        let read = [
            counters.sum_prefix("da.delivered.") + counters.get("metro.first_delivery"),
            counters.sum_prefix("da.duplicate.") + counters.get("metro.duplicate"),
            counters.sum_prefix("da.control."),
            counters.get("da.parasite"),
        ];
        let totals = [
            first,
            duplicate,
            total(Family::Da, Kind::Control),
            total(Family::Da, Kind::Parasite),
        ];
        assert_eq!(read, totals, "{substrate:?}");
        let receipts = total(Family::Da, Kind::Delivered) + total(Family::Da, Kind::Duplicate);
        assert_eq!(
            receipts,
            2 * u64::from(population),
            "each process forwards twice"
        );
        let counted = |group| tally.get(Family::Da, Kind::Delivered, group) > 0;
        assert!((0..6).all(counted), "{substrate:?}: every group delivered");
        tallies.push(tally);
    }
    assert_eq!(tallies[1], tallies[0], "one worker");
    assert_eq!(tallies[2], tallies[0], "two workers");
}

/// A context with the substrates' count path (`Tally::count`) and an
/// outbox that keeps its capacity.
struct Probe {
    me: ProcessId,
    rng: SmallRng,
    tally: Tally,
    outbox: Vec<(ProcessId, DaMsg)>,
}

impl Probe {
    /// True once the process has sent an event up a level.
    fn elected(&self) -> bool {
        self.tally.total(Family::Da, Kind::InterOut) > 0
    }
}

impl Exec for Probe {
    type Msg = DaMsg;

    fn me(&self) -> ProcessId {
        self.me
    }

    fn round(&self) -> u64 {
        0
    }

    fn send(&mut self, to: ProcessId, msg: DaMsg) {
        self.outbox.push((to, msg));
    }

    fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    fn bump(&mut self, _label: &str) {}

    fn count(&mut self, family: Family, kind: Kind, group: usize) {
        self.tally.count(family, kind, group);
    }

    fn add(&mut self, _label: &str, _delta: u64) {}
}

/// A leaf process of a static 4/12/40 chain, a group-mate to hear from,
/// and the context to run the former's hooks in.
fn leaf_under_probe() -> (DaProcess, ProcessId, Probe) {
    let net = Network::linear(&[4, 12, 40], TopicParams::default(), 3).unwrap();
    let leaf = net.groups()[2].members.clone();
    let (receiver, sender) = (leaf[0], leaf[1]);
    let process = net.into_processes().swap_remove(receiver.index());
    let probe = Probe {
        me: receiver,
        rng: da_core::rng_for_process(3, receiver),
        tally: Tally::default(),
        outbox: Vec::with_capacity(64),
    };
    (process, sender, probe)
}

/// A fresh copy of `sender`'s event `sequence` on `topic`.
fn event_from(sender: ProcessId, topic: TopicId, sequence: u32) -> DaMsg {
    DaMsg::Event {
        event: Event::new(sender, sequence, topic, "x"),
        sender_topic: topic,
    }
}

/// Warm-up: fresh events from `sender` until one is elected to go up a
/// level, which sizes both of the plan's target buffers and grows the
/// tally's row. Returns the next fresh sequence.
fn deliver_until_elected(process: &mut DaProcess, sender: ProcessId, probe: &mut Probe) -> u32 {
    let topic = process.topic();
    for sequence in 0..1_000 {
        if probe.elected() {
            return sequence;
        }
        process.on_message(sender, event_from(sender, topic, sequence), probe);
    }
    panic!("no election in 1,000 events");
}

/// The table length of an `EventSet` holding `ids` ids: none while
/// empty, then 8 slots, doubled past a load of 3/4.
fn set_slots(ids: usize) -> usize {
    if ids == 0 {
        return 0;
    }
    let mut slots = 8;
    while ids * 4 > slots * 3 {
        slots *= 2;
    }
    slots
}

/// Table doublings of an `EventSet` (its first table included) as it
/// grows from `from` to `to` ids.
fn set_doublings(from: usize, to: usize) -> u64 {
    (from + 1..=to)
        .filter(|&ids| set_slots(ids) != set_slots(ids - 1))
        .count() as u64
}

#[test]
fn a_duplicate_allocates_nothing_and_a_first_delivery_only_grows_its_set() {
    let (mut process, sender, mut probe) = leaf_under_probe();
    let topic = process.topic();
    let first = deliver_until_elected(&mut process, sender, &mut probe);

    let duplicates: Vec<DaMsg> = (0..100).map(|_| event_from(sender, topic, 0)).collect();
    probe.outbox.clear();
    let before = ALLOCATIONS.get();
    for msg in duplicates {
        process.on_message(sender, msg, &mut probe);
    }
    assert_eq!(ALLOCATIONS.get() - before, 0, "100 duplicates");
    assert!(probe.outbox.is_empty(), "a duplicate is not forwarded");

    // Fresh events: only the seen set allocates, when it doubles; a
    // scratch buffer or a log per delivery would cost more.
    let fresh: Vec<DaMsg> = (first..first + 64)
        .map(|sequence| event_from(sender, topic, sequence))
        .collect();
    let held = process.delivered().len();
    let before = ALLOCATIONS.get();
    for msg in fresh {
        probe.outbox.clear();
        process.on_message(sender, msg, &mut probe);
        assert!(!probe.outbox.is_empty());
    }
    let grown = ALLOCATIONS.get() - before;
    let doublings = set_doublings(held, held + 64);
    assert!(
        grown <= doublings,
        "64 first deliveries allocated {grown} times, the set doubled {doublings} times"
    );
    assert_eq!(process.delivered().len(), held + 64);
    assert_eq!(process.deliveries() as usize, held + 64);
}

/// A publication is a value: it queues a 16-byte event, and the round
/// hook records its id and gossips copies of it. Only the process's seen
/// set grows, doubling now and then; a payload buffer, a shared event
/// block or a fresh publication queue would each cost one allocation per
/// event.
#[test]
fn a_publication_costs_no_heap_block_of_its_own() {
    let (mut process, _, mut probe) = leaf_under_probe();
    // Warm-up: publications until one is elected to go up a level, which
    // sizes the plan's target buffers and the queue, and grows the
    // tally's row.
    let mut round = 0;
    while !probe.elected() {
        assert!(round < 1_000, "no election in 1,000 publications");
        process.publish("x");
        process.on_round(round, &mut probe);
        round += 1;
    }

    let held = process.delivered().len();
    let before = ALLOCATIONS.get();
    for round in round..round + 64 {
        probe.outbox.clear();
        process.publish("x");
        process.on_round(round, &mut probe);
        assert!(!probe.outbox.is_empty(), "a publication gossips");
    }
    let grown = ALLOCATIONS.get() - before;
    let doublings = set_doublings(held, held + 64);
    assert!(
        grown <= doublings,
        "64 publications allocated {grown} times, the set doubled {doublings} times"
    );
    assert_eq!(process.delivered().len(), held + 64);
}

/// What a first delivery keeps: its id's 8-byte slot in `seen`, in a
/// table between 3/8 and 3/4 full, and nothing else. That is 17 B per
/// event amortised at 240 and 480 events and 21.3 B at worst, just after
/// a doubling. It was 25.5 B while a delivered log kept the id again,
/// 27 B in the `HashSet` before that, and 44 B when the id was 16 bytes.
#[test]
fn a_first_delivery_grows_the_receive_state_by_its_set_slot_alone() {
    // Set sizes after the deliveries: 385 ids is one past a 512-slot
    // table's 3/4, the first id of a 1,024-slot table.
    for ids in [241, 385, 481] {
        let (mut process, sender, mut probe) = leaf_under_probe();
        let topic = process.topic();
        let first = deliver_until_elected(&mut process, sender, &mut probe);
        let held = process.delivered().len();

        // Built before measuring and held until after: only the
        // receiver's state is counted, not the events themselves.
        let fresh: Vec<DaMsg> = (first..)
            .take(ids - held)
            .map(|sequence| event_from(sender, topic, sequence))
            .collect();
        let before = LIVE_BYTES.get();
        for msg in &fresh {
            probe.outbox.clear();
            process.on_message(sender, msg.clone(), &mut probe);
        }
        probe.outbox.clear();
        assert_eq!(process.delivered().len(), ids);
        // The state grew by the set's new table less its old one.
        let grown = (LIVE_BYTES.get() - before) as usize;
        let table = |ids| 8 * set_slots(ids);
        assert_eq!(grown, table(ids) - table(held), "{ids} ids");
    }
}

/// The control messages that own no buffer are built and sent without
/// the allocator, as when every variant was inline; one that carries
/// lists pays for its lists, as it did, and for the one box that keeps
/// its size out of every envelope.
#[test]
fn only_a_control_message_with_a_buffer_allocates_and_only_its_box() {
    let (mut process, sender, mut probe) = leaf_under_probe();
    // Warm-up: the pong grows the tally's row.
    process.on_message(sender, DaMsg::Ping { nonce: 0 }, &mut probe);

    let before = ALLOCATIONS.get();
    probe.send(sender, DaMsg::Ping { nonce: 1 });
    probe.send(sender, DaMsg::NewProcessReq);
    // The pong, through the protocol's own control send.
    process.on_message(sender, DaMsg::Ping { nonce: 2 }, &mut probe);
    assert_eq!(ALLOCATIONS.get() - before, 0, "ping, request, pong");
    assert!(matches!(
        probe.outbox.last(),
        Some((to, DaMsg::Pong { nonce: 2 })) if *to == sender
    ));

    // The two lists are the message's content and were its whole cost.
    let inner = MembershipMsg::Digest {
        sample: vec![sender, probe.me],
    };
    let stable_sample = vec![SuperEntry {
        pid: ProcessId(0),
        topic: process.topic(),
    }];
    let before = ALLOCATIONS.get();
    let msg = ControlMsg::Membership {
        inner,
        stable_sample,
    };
    probe.send(sender, msg.into());
    assert_eq!(ALLOCATIONS.get() - before, 1, "the box");
}

#[test]
fn a_static_process_stays_under_900_bytes_of_heap() {
    // The benchmark's wave population. What its `bytes_per_process`
    // divides also holds the engine; the processes are the part that
    // scales, and where a per-process copy of the group's constants would
    // show.
    let before = LIVE_BYTES.get();
    let processes = Network::linear(&[10, 100, 1000], TopicParams::default(), 1)
        .unwrap()
        .into_processes();
    // The builder sizes its vector exactly, as a substrate's store does.
    assert_eq!(processes.capacity(), processes.len());
    let per_process = (LIVE_BYTES.get() - before) as usize / processes.len();
    assert!(
        per_process <= 900,
        "{per_process} B of live heap per process"
    );
}

/// A process that never draws pays its slab entry and at most 8 B
/// beside it: the engine adopts the population's vector and keeps a
/// 4-byte stream slot per process, not a generator.
#[test]
fn a_never_drawing_process_costs_at_most_8_bytes_above_its_slab_entry() {
    let processes = damulticast::metro_population(4096, 64, 24);
    let before = LIVE_BYTES.get();
    let engine = da_simnet::Engine::new(RunConfig::default(), processes);
    let per_process = (LIVE_BYTES.get() - before) as f64 / 4096.0;
    assert!(per_process <= 8.0, "{per_process:.1} B per process");
    drop(engine);
}

/// `Occurrences` is a packing and a cheaper hash, not a different count:
/// against a map keyed by the pid pair it returns the same occurrence
/// for every send of seeded streams in which edges repeat, across
/// `clear()`s and table growth, with pids at both ends of the range —
/// and a cleared table takes the same stream again without allocating.
/// A churn tick allocates nothing: at the metropolis rates (0.02% of
/// the alive crash and 5% of the crashed recover per tick) a
/// 131,072-pid stripe merges its ~520 crashed slots and the tick's
/// crash masks into buffers that keep their capacity. Once a warm-up
/// has grown them, 256 ticks make no heap block.
#[test]
fn a_churn_tick_allocates_nothing() {
    let plan = FailureModel::Churn {
        crash_probability: 0.0002,
        recover_probability: 0.05,
    }
    .materialize(131_072, 821);
    let mut stripe = LifecycleController::new(Arc::new(plan), 0, 1, 131_072);
    for tick in 0..512 {
        stripe.begin_tick(tick);
    }
    let before = ALLOCATIONS.get();
    let mut transitions = 0;
    for tick in 512..768 {
        let t = stripe.begin_tick(tick);
        transitions += t.churn_crashes + t.churn_recoveries;
    }
    assert_eq!(ALLOCATIONS.get() - before, 0, "256 churn ticks");
    assert!(
        transitions > 256 * 40,
        "{transitions} transitions in 256 ticks"
    );
}

#[test]
fn occurrences_count_like_a_pair_keyed_map_and_keep_their_table() {
    use rand::Rng as _;
    use std::collections::HashMap;

    let alphabet = [0, 1, 2, 3, 5, 8, 1 << 16, u32::MAX - 1, u32::MAX].map(ProcessId);
    let mut rng = da_core::rng_from_seed(22);
    let mut pick = || alphabet[rng.gen_range(0..alphabet.len())];

    let mut table = Occurrences::default();
    let mut model: HashMap<(ProcessId, ProcessId), u32> = HashMap::new();
    // Tick lengths from a handful of edges to every edge several times
    // over: 81 distinct edges take the table through five doublings.
    for sends in [5, 40, 0, 700, 12, 300] {
        for _ in 0..sends {
            let (from, to) = (pick(), pick());
            let count = model.entry((from, to)).or_insert(0);
            assert_eq!(table.bump(from, to), *count, "{from} -> {to}");
            *count += 1;
        }
        table.clear();
        model.clear();
    }
    // The two halves of the key do not alias.
    assert_eq!(table.bump(ProcessId(0), ProcessId(u32::MAX)), 0);
    assert_eq!(table.bump(ProcessId(u32::MAX), ProcessId(0)), 0);
    assert_eq!(table.bump(ProcessId(0), ProcessId(u32::MAX)), 1);

    let stream: Vec<(ProcessId, ProcessId)> = (0..500).map(|_| (pick(), pick())).collect();
    let replay = |table: &mut Occurrences| -> u64 {
        stream
            .iter()
            .map(|&(from, to)| u64::from(table.bump(from, to)))
            .sum()
    };
    table.clear();
    let first = replay(&mut table);
    table.clear();
    let before = ALLOCATIONS.get();
    let second = replay(&mut table);
    assert_eq!(ALLOCATIONS.get() - before, 0, "a cleared table is reused");
    assert_eq!(first, second);
}

/// One row of a process's byte budget: what it is, bytes per process,
/// and the most it may cost.
struct Row {
    what: &'static str,
    bytes: f64,
    cap: f64,
}

/// Every byte the benchmark's `sim_wave` set-up leaves live, per
/// process, on one row each: the slab entry by field group, the heap a
/// process owns, the engine's per-process vectors and its fixed cost,
/// and the workload's list of publishers. The rows are counted from the
/// types and the tables, not from the allocator, so their sum meeting
/// the measured total says nothing is left out; a row over its cap names
/// the component that grew. A last row, outside the sum, is what a
/// fixture's ops add: the bytes one first delivery leaves, amortised.
/// `--nocapture` prints the table (CI copies it into the job summary).
#[test]
fn a_wave_process_costs_its_budget_row_by_row() {
    use da_core::{ChannelConfig, ProcessStatus};
    use da_membership::{kmg_view_size, PartialView};
    use da_topics::{TopicHierarchy, TopicId};
    use damulticast::{EventSet, Group, Mutation, Network, SuperTable, TopicParams};
    use std::mem::size_of;
    use std::num::NonZeroU32;
    use std::sync::Arc;

    const SIZES: [usize; 3] = [10, 100, 1000];
    let build = || Network::linear(&SIZES, TopicParams::default(), 1).unwrap();

    let before = LIVE_BYTES.get();
    let net = build();
    // The first build leaves live what any later one does: nothing is
    // set up once per process and kept (an interned name, a leaked
    // string), so a short run's bytes read as a long run's.
    let first_build = LIVE_BYTES.get() - before;
    let again = LIVE_BYTES.get();
    let second = build();
    assert_eq!(LIVE_BYTES.get() - again, first_build, "a second build");
    drop(second);
    // The benchmark keeps the leaf group's pids to pick publishers from.
    let leaf = net.groups().last().unwrap().members.clone();
    let processes = net.into_processes();
    let built = LIVE_BYTES.get();
    let config = RunConfig::default()
        .with_seed(1)
        .with_channel(ChannelConfig::paper_default());
    let mut engine = da_simnet::Engine::new(config, processes);
    let total = LIVE_BYTES.get() - before;
    let engine_bytes = LIVE_BYTES.get() - built;
    // The one value the whole population shares, built alone.
    let hierarchy_bytes = {
        let start = LIVE_BYTES.get();
        let _hierarchy = Arc::new(TopicHierarchy::linear_chain(SIZES.len()).0);
        LIVE_BYTES.get() - start
    };

    let n = engine.population();
    let per = |bytes: usize| bytes as f64 / n as f64;
    let processes = || engine.processes().map(|(_, p)| p);
    let tables = || processes().flat_map(DaProcess::super_tables);
    let b = TopicParams::paper_default().b;
    let view_entries: usize = SIZES.iter().map(|&s| s * kmg_view_size(b, s)).sum();
    let slot_and_status = size_of::<Option<NonZeroU32>>() + size_of::<ProcessStatus>();

    let fields = [
        (
            "slab: group (`group`, one `Arc`, and `topic`)",
            size_of::<Arc<Group>>() + size_of::<TopicId>(),
            12,
        ),
        ("slab: topic table header (`view`)", size_of::<PartialView>(), 64),
        (
            "slab: supertable list header (`super_tables`)",
            size_of::<Vec<SuperTable>>(),
            24,
        ),
        ("slab: dynamic-mode box (`dynamic`)", size_of::<Option<Box<u8>>>(), 8),
        (
            "slab: receive state (`seen`, `deliveries`, `pending_publish`, `parasite_count`, `next_sequence`)",
            size_of::<EventSet>()
                + size_of::<Vec<Event>>()
                + size_of::<u64>()
                + 2 * size_of::<u32>(),
            64,
        ),
        (
            "slab: identity (`me`, `mutation`)",
            size_of::<ProcessId>() + size_of::<Mutation>(),
            5,
        ),
    ];
    let named: usize = fields.iter().map(|&(_, bytes, _)| bytes).sum();
    // Checked, so a field row that over-counts fails naming both sums.
    let padding = size_of::<DaProcess>()
        .checked_sub(named)
        .unwrap_or_else(|| {
            panic!(
                "the field rows sum to {named} B, more than `size_of::<DaProcess>()` = {} B",
                size_of::<DaProcess>()
            )
        });
    let mut rows: Vec<Row> = fields
        .iter()
        .map(|&(what, bytes, cap)| Row {
            what,
            bytes: bytes as f64,
            cap: cap as f64,
        })
        .collect();
    rows.extend([
        Row {
            what: "slab: padding",
            bytes: padding as f64,
            cap: 7.0,
        },
        Row {
            what: "heap: topic table entries (`(b + 1)·ln S` pids)",
            bytes: per(view_entries * size_of::<ProcessId>()),
            cap: 108.2,
        },
        Row {
            what: "heap: supertable list (one `SuperTable` per direct supertopic)",
            bytes: per(tables().count() * size_of::<SuperTable>()),
            cap: 23.8,
        },
        Row {
            what: "heap: supertable entries (`z` per table, each list as drawn)",
            bytes: per(tables().map(SuperTable::len).sum::<usize>() * size_of::<SuperEntry>()),
            cap: 23.8,
        },
        Row {
            what: "shared: group values (one `Arc<Group>` per group)",
            // An `Arc`'s allocation: its two counts, then the value.
            bytes: per(SIZES.len() * (2 * size_of::<usize>() + size_of::<Group>())),
            cap: 0.5,
        },
        Row {
            what: "shared: topic hierarchy (one `Arc`), measured alone",
            bytes: per(hierarchy_bytes as usize),
            cap: 1.0,
        },
        Row {
            what: "engine: stream slot and status",
            bytes: slot_and_status as f64,
            cap: 5.0,
        },
        Row {
            what: "engine: fixed cost (wheel, histograms), measured",
            bytes: per(engine_bytes as usize - n * slot_and_status),
            cap: 1.0,
        },
        Row {
            what: "workload: publisher list (the leaf group's pids)",
            bytes: per(leaf.len() * size_of::<ProcessId>()),
            cap: 3.7,
        },
    ]);

    let measured = per(total as usize);
    let sum: f64 = rows.iter().map(|row| row.bytes).sum();
    println!("| row | B / process | cap |\n|---|---|---|");
    for row in &rows {
        println!("| {} | {:.1} | {:.1} |", row.what, row.bytes, row.cap);
    }
    println!("| **sum of rows** | **{sum:.3}** | |");
    println!("| measured live heap / process ({n} processes) | {measured:.3} | |");

    for row in &rows {
        assert!(
            row.bytes <= row.cap,
            "{}: {:.1} B > {:.1} B",
            row.what,
            row.bytes,
            row.cap
        );
    }
    assert!(
        (sum - measured).abs() <= 0.02 * measured,
        "rows sum to {sum:.1} B, measured {measured:.1} B"
    );

    // What an op adds: each first delivery leaves its id's slot in the
    // receiver's `seen`, amortised over the set's doublings. Run as the
    // benchmark runs a fixture: 30 ops of 8 leaf publications, each
    // driven to quiescence. Taking the processes back drops the engine,
    // so what is live beyond the set-up's processes is what they grew.
    for op in 0..30 {
        for j in 0..8 {
            engine
                .process_mut(leaf[(op * 8 + j) % leaf.len()])
                .publish("bench");
        }
        engine.run_until_quiescent(64);
    }
    let processes = engine.into_processes();
    let deliveries: usize = processes.iter().map(|p| p.delivered().len()).sum();
    let row = Row {
        what: "op: a first delivery's `seen` slot (B / first delivery, a fixture's 30 ops)",
        bytes: (LIVE_BYTES.get() - built) as f64 / deliveries as f64,
        cap: 64.0 / 3.0,
    };
    println!("| {} | {:.1} | {:.1} |", row.what, row.bytes, row.cap);
    assert!(row.bytes <= row.cap, "{}: {:.1} B", row.what, row.bytes);
}
