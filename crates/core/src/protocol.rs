//! The daMulticast process — the protocol state machine of Figs. 4–7.
//!
//! A [`DaProcess`] implements [`ExecProtocol`] and combines
//!
//! * the **topic table** — a [`PartialView`] of the process' own group,
//!   kept fresh in dynamic mode by the [`flat`] gossip (the underlying
//!   membership algorithm of the paper's reference \[10\]),
//! * the **supertopic tables** — one [`SuperTable`] of at most `z`
//!   contacts in an including group per direct supertopic: one in the
//!   paper's tree, several for a topic with multiple supertopics
//!   (Sec. VIII), none at the root. `z` is the group's parameter. Dynamic
//!   mode absorbs every fresh super contact (a bootstrap answer, a
//!   maintenance answer or a piggybacked entry) by one rule,
//!   [`SuperTable::tighten`]: it fills free room first, then replaces a
//!   resident only with a strictly deeper contact, and never at random,
//! * the **bootstrap task** (`FIND_SUPER_CONTACT`, Fig. 4), flooding the
//!   weakly-consistent neighbourhood overlay for super contacts,
//! * the **maintenance task** (`KEEP_TABLE_UPDATED`, Fig. 6), probing
//!   supertable liveness and refreshing dead links, and
//! * the **dissemination scheme** (Figs. 5 & 7) with event de-duplication.
//!
//! Two operating modes:
//!
//! * **static** ([`DaProcess::static_member`]) — the paper's simulation
//!   mode (Sec. VII-A): tables are fixed at construction, no membership,
//!   bootstrap or maintenance traffic is generated, and the view keeps no
//!   liveness stamps. Used to regenerate the paper's figures.
//! * **dynamic** ([`DaProcess::dynamic_member`]) — the full protocol:
//!   joins through contacts, gossips membership digests with piggybacked
//!   supertable samples, searches super contacts through the overlay and
//!   maintains them under churn. Used by the examples and the end-to-end
//!   tests. Its tasks keep one table, so it serves topics with one direct
//!   supertopic.

use crate::bootstrap::{BootstrapAction, BootstrapTask, REQUEST_TTL};
use crate::dissemination::{plan_dissemination, DisseminationPlan};
use crate::event::{Event, EventId, EventSet};
use crate::group::Group;
use crate::maintenance::{MaintenanceAction, MaintenanceTask};
use crate::message::{ControlMsg, DaMsg};
use crate::tables::{SuperEntry, SuperTable};
use da_core::{Exec, ExecProtocol, Family, FxHasher, KeyBuildHasher, Kind, McHash, ProcessId};
use da_membership::{flat, kmg_view_size, Overlay, PartialView};
use da_topics::TopicId;
use std::cell::Cell;
use std::collections::HashSet;
use std::hash::Hasher;
use std::sync::Arc;

// A wave holds a thousand processes: the dynamic-mode state a static
// member never uses stays behind one box (inline, it made the process
// 624 B), the topic table is a bare view, and the group's constants
// (topic parameters, size, hierarchy: 92 B) are one shared
// `Arc<Group>`. A supertable is its list and nothing else: its owner is
// the process and its bound `z` is the group's. The de-dup set is the
// delivered set. A process is two cache lines: every field a duplicate
// receipt reads ends in the first, and the tables a send reads fill the
// second. See ARCHITECTURE.md, "Memory at scale".
const _: () = {
    use std::mem::{align_of, offset_of, size_of};
    assert!(size_of::<DaProcess>() == 128);
    assert!(align_of::<DaProcess>() == 64);
    assert!(offset_of!(DaProcess, view) == 64);
    assert!(offset_of!(DaProcess, seen) + size_of::<EventSet>() <= 64);
    assert!(offset_of!(DaProcess, group) + size_of::<Arc<Group>>() <= 64);
    assert!(offset_of!(DaProcess, dynamic) + size_of::<Option<Box<Dynamic>>>() <= 64);
    assert!(offset_of!(DaProcess, me) + size_of::<ProcessId>() <= 64);
    assert!(offset_of!(DaProcess, topic) + size_of::<TopicId>() <= 64);
    assert!(offset_of!(DaProcess, deliveries) + size_of::<u32>() <= 64);
    assert!(offset_of!(DaProcess, parasite_count) + size_of::<u32>() <= 64);
    assert!(offset_of!(DaProcess, next_sequence) + size_of::<u32>() <= 64);
    assert!(offset_of!(DaProcess, mutation) + size_of::<Mutation>() <= 64);
    assert!(size_of::<PartialView>() == 32);
    assert!(size_of::<SuperTables>() == 24);
    assert!(size_of::<SuperTable>() == 24);
};

thread_local! {
    /// The dissemination plan every `DaProcess` on this thread draws
    /// into: a plan is dead once its messages are sent, so one pair of
    /// target buffers per thread serves all of them and a first delivery
    /// allocates no scratch.
    static PLAN: Cell<DisseminationPlan> = const {
        Cell::new(DisseminationPlan {
            elected: false,
            super_targets: Vec::new(),
            gossip_targets: Vec::new(),
        })
    };
}

/// The daMulticast protocol instance at one simulated process.
///
/// Its topic table is a [`PartialView`] of its own group: fixed in static
/// mode, kept fresh by the [`flat`] gossip in dynamic mode. See the
/// crate-level documentation for a full example; in short:
///
/// ```
/// use damulticast::{DaProcess, Group, TopicParams};
/// use da_core::ProcessId;
/// use da_topics::TopicHierarchy;
/// use std::sync::Arc;
///
/// let (hierarchy, ids) = TopicHierarchy::linear_chain(2);
/// let params = TopicParams::paper_default();
/// // S_T1 = 100; every member of the group shares this one value.
/// let group = Arc::new(Group::new(ids[1], Arc::new(hierarchy), params, 100));
/// let p = DaProcess::static_member(
///     ProcessId(0),
///     Arc::clone(&group),
///     vec![ProcessId(1)],// topic table
///     vec![vec![]],      // one supertable, for T0 (empty here)
/// );
/// assert_eq!(p.topic(), ids[1]);
/// assert_eq!(p.topic_table(), [ProcessId(1)]);
/// ```
///
/// The process is two cache lines, in this field order. The first holds
/// every field a duplicate receipt reads, and the receive path's
/// counters, so a duplicate (most receipts) touches one line; the second
/// holds the tables that only a first delivery's sends and the round
/// hook read.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
pub struct DaProcess {
    /// The ids delivered so far: Fig. 5's "done only the first time" set,
    /// probed once per receipt, one line each (a parasite never enters).
    seen: EventSet,
    /// What the process shares with its group-mates.
    group: Arc<Group>,
    /// Dynamic-mode state; `None` in static mode.
    dynamic: Option<Box<Dynamic>>,
    me: ProcessId,
    /// The group's topic, kept beside `me` where it costs no byte.
    topic: TopicId,
    /// Deliveries: `seen`'s size, unless a mutation re-delivers an id.
    deliveries: u32,
    /// Events received for a topic this process is *not* interested in.
    /// The paper's central claim is that this stays zero.
    parasite_count: u32,
    next_sequence: u32,
    /// Deliberate protocol defect, [`Mutation::None`] in production.
    mutation: Mutation,
    /// The topic table (partial view of the own group). Dynamic mode
    /// runs the [`flat`] gossip on it; static mode never changes it.
    view: PartialView,
    /// One supertopic table per direct supertopic, in
    /// `TopicHierarchy::parents` order; none at the root.
    super_tables: SuperTables,
    /// Publications queued until the next round hook; `None` until the
    /// first, so only a publisher allocates the queue. Boxed on purpose:
    /// 8 B inline where a `Vec` takes 24.
    #[allow(clippy::box_collection)]
    pending_publish: Option<Box<Vec<Event>>>,
}

/// A process's supertopic tables: none at the root, a tree member's one
/// table inline, so it costs no allocation of its own, and a boxed slice
/// for a member with several direct supertopics.
#[derive(Debug, Clone)]
enum SuperTables {
    Root,
    One(SuperTable),
    Many(Box<[SuperTable]>),
}

impl SuperTables {
    fn new(mut tables: Vec<SuperTable>) -> Self {
        match tables.len() {
            0 => SuperTables::Root,
            1 => SuperTables::One(tables.remove(0)),
            _ => SuperTables::Many(tables.into_boxed_slice()),
        }
    }

    fn as_slice(&self) -> &[SuperTable] {
        match self {
            SuperTables::Root => &[],
            SuperTables::One(table) => std::slice::from_ref(table),
            SuperTables::Many(tables) => tables,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [SuperTable] {
        match self {
            SuperTables::Root => &mut [],
            SuperTables::One(table) => std::slice::from_mut(table),
            SuperTables::Many(tables) => tables,
        }
    }
}

/// What only a dynamic-mode process keeps: the tasks of Figs. 4 and 6 and
/// what they run on.
#[derive(Debug, Clone)]
struct Dynamic {
    /// `FIND_SUPER_CONTACT`; `None` at the root.
    bootstrap: Option<BootstrapTask>,
    /// `KEEP_TABLE_UPDATED`.
    maintenance: MaintenanceTask,
    /// Overlay neighbourhood used by the bootstrap flood.
    overlay: Arc<Overlay>,
    /// Initial same-group contacts to join through.
    join_contacts: Vec<ProcessId>,
    /// Bootstrap requests already answered/forwarded: `(origin, req_id)`.
    answered_requests: HashSet<(ProcessId, u64), KeyBuildHasher>,
}

/// A deliberately broken protocol variant, used to prove the bounded
/// model checker can actually find bugs (a checker that passes
/// everything proves nothing). Production code paths always run with
/// [`Mutation::None`]; the mutants exist for `da_simnet::mc` mutation
/// tests and are expected to yield counterexamples within small depth
/// bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Mutation {
    /// The shipped protocol, unmodified.
    #[default]
    None,
    /// Skips the Fig. 5 "done only the first time" de-dup check on
    /// reception: every duplicate is re-delivered and re-disseminated,
    /// so the gossip echoes forever and processes deliver the same
    /// event many times.
    SkipDedup,
}

impl Mutation {
    fn skips_dedup(self) -> bool {
        matches!(self, Mutation::SkipDedup)
    }
}

impl DaProcess {
    /// Builds a static-mode process (the paper's Sec. VII-A simulation
    /// setting): `topic_table` and `super_entries` are fixed for the whole
    /// run and no control traffic is generated.
    ///
    /// A static table is kept as given, with no draw: `topic_table` loses
    /// only `me` and repeated pids, and must then fit the group's view
    /// size ([`kmg_view_size`], at most `S − 1`), the size the network
    /// builder draws.
    ///
    /// `super_entries` holds one entry list per direct supertopic, in
    /// [`TopicHierarchy::parents`] order, and each becomes one
    /// supertable. A list names contacts in the nearest non-empty group
    /// among its supertopic and that supertopic's ancestors, tagged with
    /// that group's topic. Root-group members pass no list.
    ///
    /// # Panics
    ///
    /// When `topic_table` holds more pids than that view size.
    ///
    /// [`TopicHierarchy::parents`]: da_topics::TopicHierarchy::parents
    #[must_use]
    pub fn static_member(
        me: ProcessId,
        group: Arc<Group>,
        topic_table: Vec<ProcessId>,
        super_entries: Vec<Vec<SuperEntry>>,
    ) -> Self {
        let capacity = kmg_view_size(group.params.b, group.size);
        let view = PartialView::from_entries(me, capacity, &topic_table);
        let super_tables = super_entries
            .into_iter()
            .map(SuperTable::from_entries)
            .collect();
        DaProcess::new(me, group, view, super_tables, None)
    }

    /// Builds a dynamic-mode process running the full protocol: it joins
    /// its group through `join_contacts`, finds super contacts by flooding
    /// `overlay`, and keeps both tables fresh. The group's size is the
    /// estimate `S_Ti` that dimensions the view and sets `p_sel`.
    ///
    /// # Panics
    ///
    /// Panics if the group's topic has more than one direct supertopic:
    /// the bootstrap and maintenance tasks keep a single supertable.
    #[must_use]
    pub fn dynamic_member(
        me: ProcessId,
        group: Arc<Group>,
        overlay: Arc<Overlay>,
        join_contacts: Vec<ProcessId>,
    ) -> Self {
        let (topic, hierarchy, params) = (group.topic, &group.hierarchy, &group.params);
        let supertopics = hierarchy.parents(topic).len();
        assert!(
            supertopics <= 1,
            "dynamic mode keeps one supertable; {} has {supertopics} direct supertopics",
            hierarchy.path(topic)
        );
        let view = PartialView::new(me, kmg_view_size(params.b, group.size));
        let super_tables = (0..supertopics)
            .map(|_| SuperTable::with_capacity(params.z))
            .collect();
        let dynamic = Dynamic {
            bootstrap: BootstrapTask::new(topic, hierarchy),
            maintenance: MaintenanceTask::new(params.maintenance_period, params.ping_timeout),
            overlay,
            join_contacts,
            answered_requests: HashSet::default(),
        };
        DaProcess::new(me, group, view, super_tables, Some(Box::new(dynamic)))
    }

    /// A process that has received and published nothing yet.
    fn new(
        me: ProcessId,
        group: Arc<Group>,
        view: PartialView,
        super_tables: Vec<SuperTable>,
        dynamic: Option<Box<Dynamic>>,
    ) -> Self {
        DaProcess {
            seen: EventSet::default(),
            topic: group.topic,
            group,
            dynamic,
            me,
            deliveries: 0,
            parasite_count: 0,
            next_sequence: 0,
            mutation: Mutation::None,
            view,
            super_tables: SuperTables::new(super_tables),
            pending_publish: None,
        }
    }

    /// Installs a deliberate defect for mutation testing. See
    /// [`Mutation`]; never used by production configurations.
    #[must_use]
    pub fn with_mutation(mut self, mutation: Mutation) -> Self {
        self.mutation = mutation;
        self
    }

    /// The process' identity.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// The topic this process is interested in.
    #[must_use]
    pub fn topic(&self) -> TopicId {
        self.topic
    }

    /// What the process shares with every member of its group.
    #[must_use]
    pub fn group(&self) -> &Arc<Group> {
        &self.group
    }

    /// The current topic table (partial view of the own group).
    #[must_use]
    pub fn topic_table(&self) -> &[ProcessId] {
        self.view.as_slice()
    }

    /// The supertopic tables, one per direct supertopic in
    /// [`TopicHierarchy::parents`] order (Sec. VIII); empty at the root.
    ///
    /// ```
    /// use damulticast::{DaProcess, Group, SuperEntry, TopicParams};
    /// use da_core::ProcessId;
    /// use da_topics::TopicHierarchy;
    /// use std::sync::Arc;
    ///
    /// # fn main() -> Result<(), da_topics::TopicError> {
    /// let mut h = TopicHierarchy::new();
    /// let swiss = h.insert(".swiss")?;
    /// let ski = h.insert(".sport.ski")?;
    /// h.add_supertopic(ski, swiss)?;
    /// let sport = h.parent(ski).unwrap();
    /// let entry = |pid, topic| SuperEntry { pid: ProcessId(pid), topic };
    /// let group = Group::new(ski, Arc::new(h), TopicParams::paper_default(), 10);
    /// let p = DaProcess::static_member(
    ///     ProcessId(0),
    ///     Arc::new(group),
    ///     vec![],
    ///     vec![vec![entry(1, sport), entry(2, sport)], vec![entry(3, swiss)]],
    /// );
    /// let sizes: Vec<usize> = p.super_tables().iter().map(|t| t.len()).collect();
    /// assert_eq!(sizes, [2, 1]);
    /// assert_eq!(p.memory_entries(), 3);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// [`TopicHierarchy::parents`]: da_topics::TopicHierarchy::parents
    #[must_use]
    pub fn super_tables(&self) -> &[SuperTable] {
        self.super_tables.as_slice()
    }

    /// Ids of the events delivered to the application so far.
    #[must_use]
    pub fn delivered(&self) -> &EventSet {
        &self.seen
    }

    /// Deliveries so far: `delivered().len()` unless one was a duplicate.
    #[must_use]
    pub fn deliveries(&self) -> u32 {
        self.deliveries
    }

    /// True when the event has been delivered here.
    #[must_use]
    pub fn has_delivered(&self, id: EventId) -> bool {
        self.seen.contains(id)
    }

    /// Number of parasite receptions — events of topics this process is
    /// not interested in. daMulticast's invariant is that this is zero.
    #[must_use]
    pub fn parasite_count(&self) -> u64 {
        u64::from(self.parasite_count)
    }

    /// Queues an event for publication on this process' own topic. The
    /// event is delivered locally and disseminated at the next round hook.
    /// Returns the event's id.
    ///
    /// # Panics
    /// On the publish after sequence `u32::MAX - 1`: ids never wrap.
    pub fn publish(&mut self, payload: impl AsRef<[u8]>) -> EventId {
        let sequence = self.next_sequence;
        self.next_sequence = sequence.checked_add(1).expect("sequence past u32::MAX");
        let event = Event::new(self.me, sequence, self.topic, payload);
        self.pending_publish.get_or_insert_default().push(event);
        event.id
    }

    /// The per-process memory complexity in table entries:
    /// `|Table| + |sTable|` — the paper's `ln(S) + c + z` bound
    /// (Sec. VI-C), with `z` per direct supertopic (Sec. VIII).
    #[must_use]
    pub fn memory_entries(&self) -> usize {
        let supers: usize = self.super_tables().iter().map(SuperTable::len).sum();
        self.view.len() + supers
    }

    /// True when this process is interested in events of `topic` — i.e.
    /// `topic` is its own topic or a subtopic thereof.
    #[must_use]
    pub fn is_interested_in(&self, topic: TopicId) -> bool {
        self.group.hierarchy.includes_or_eq(self.topic, topic)
    }

    /// Counts one `kind` for this process's group.
    fn count<X: Exec<Msg = DaMsg>>(&self, ctx: &mut X, kind: Kind) {
        ctx.count(Family::Da, kind, self.topic.index());
    }

    /// Sends `msg` and accounts it as control-plane traffic. A
    /// [`ControlMsg`] is boxed here, on its way out.
    fn send_control<X: Exec<Msg = DaMsg>>(
        &self,
        ctx: &mut X,
        to: ProcessId,
        msg: impl Into<DaMsg>,
    ) {
        self.count(ctx, Kind::Control);
        ctx.send(to, msg.into());
    }

    /// Runs Fig. 7 for `event` and emits the resulting messages.
    fn disseminate<X: Exec<Msg = DaMsg>>(&mut self, event: Event, ctx: &mut X) {
        let mut plan = PLAN.take();
        plan_dissemination(
            &self.group,
            self.view.as_slice(),
            self.super_tables.as_slice(),
            ctx.rng(),
            &mut plan,
        );
        for entry in &plan.super_targets {
            self.count(ctx, Kind::InterOut);
            ctx.send(
                entry.pid,
                DaMsg::Event {
                    event,
                    sender_topic: self.topic,
                },
            );
        }
        for &target in &plan.gossip_targets {
            self.count(ctx, Kind::Intra);
            ctx.send(
                target,
                DaMsg::Event {
                    event,
                    sender_topic: self.topic,
                },
            );
        }
        PLAN.set(plan);
    }

    /// First-reception handling (Fig. 5): de-dup, deliver, re-disseminate.
    fn receive_event<X: Exec<Msg = DaMsg>>(
        &mut self,
        event: Event,
        sender_topic: TopicId,
        ctx: &mut X,
    ) {
        // Interest check: events only ever travel *up* the hierarchy, so a
        // correct run never trips this. Baselines do; daMulticast must not.
        if !self.is_interested_in(event.topic) {
            self.parasite_count = self
                .parasite_count
                .checked_add(1)
                .expect("parasites past u32::MAX");
            ctx.count(Family::Da, Kind::Parasite, 0);
            return;
        }
        let fresh = self.seen.insert(event.id);
        if !fresh && !self.mutation.skips_dedup() {
            self.count(ctx, Kind::Duplicate);
            return;
        }
        if sender_topic != self.topic {
            // The event crossed a group boundary to reach us.
            self.count(ctx, Kind::InterIn);
        }
        self.deliver(event, ctx);
    }

    /// Hands a fresh `event` to the application and gossips it on.
    fn deliver<X: Exec<Msg = DaMsg>>(&mut self, event: Event, ctx: &mut X) {
        self.count(ctx, Kind::Delivered);
        self.disseminate(event, ctx);
        self.deliveries += 1;
    }

    /// Floods a bootstrap request through the overlay neighbourhood.
    fn flood_request<X: Exec<Msg = DaMsg>>(
        &mut self,
        req_id: u64,
        topics: Vec<TopicId>,
        ctx: &mut X,
    ) {
        let Some(dynamic) = self.dynamic.as_mut() else {
            return;
        };
        dynamic.answered_requests.insert((self.me, req_id));
        let overlay = Arc::clone(&dynamic.overlay);
        for &n in overlay.neighbors(self.me) {
            self.send_control(
                ctx,
                n,
                ControlMsg::ReqContact {
                    origin: self.me,
                    req_id,
                    topics: topics.clone(),
                    ttl: REQUEST_TTL,
                },
            );
        }
    }

    /// Handles a bootstrap search request (Fig. 4, lines 4–13).
    fn handle_req_contact<X: Exec<Msg = DaMsg>>(
        &mut self,
        origin: ProcessId,
        req_id: u64,
        topics: Vec<TopicId>,
        ttl: u8,
        ctx: &mut X,
    ) {
        // "Done only the first time the message is received."
        let Some(dynamic) = self.dynamic.as_mut() else {
            return;
        };
        if !dynamic.answered_requests.insert((origin, req_id)) {
            return;
        }
        let overlay = Arc::clone(&dynamic.overlay);
        if origin == self.me {
            return;
        }
        // If we are interested in one of the requested topics, answer with
        // ourselves plus a sample of our group view (Ψ).
        if topics.contains(&self.topic) {
            let mut contacts = self.view.sample(self.group.params.z, ctx.rng());
            contacts.push(self.me);
            contacts.retain(|&p| p != origin);
            self.send_control(
                ctx,
                origin,
                ControlMsg::AnsContact {
                    topic: self.topic,
                    contacts,
                },
            );
            return;
        }
        // Otherwise keep flooding while the request lives.
        if ttl > 0 {
            for &n in overlay.neighbors(self.me) {
                if n == origin {
                    continue;
                }
                self.send_control(
                    ctx,
                    n,
                    ControlMsg::ReqContact {
                        origin,
                        req_id,
                        topics: topics.clone(),
                        ttl: ttl - 1,
                    },
                );
            }
        }
    }

    /// The control-plane messages that carry a list (Figs. 4 & 6 and the
    /// membership gossip).
    fn on_control<X: Exec<Msg = DaMsg>>(&mut self, from: ProcessId, msg: ControlMsg, ctx: &mut X) {
        match msg {
            ControlMsg::ReqContact {
                origin,
                req_id,
                topics,
                ttl,
            } => self.handle_req_contact(origin, req_id, topics, ttl, ctx),
            ControlMsg::AnsContact { topic, contacts } => {
                // Fig. 4, lines 30–37: merge the contacts; a direct-supertopic
                // answer stops the search, one from a higher ancestor
                // narrows it. An answer lists its responder, so nothing is
                // absorbed only when its topic does not include ours.
                let fresh = contacts.into_iter().map(|pid| SuperEntry { pid, topic });
                if !self.absorb(fresh).is_empty() {
                    if let Some(task) = self.dynamic.as_mut().and_then(|d| d.bootstrap.as_mut()) {
                        task.on_answer(topic, &self.group.hierarchy);
                    }
                }
            }
            ControlMsg::NewProcessAns { contacts } => {
                // Fig. 6, lines 6–9: MERGE fresh superprocesses.
                self.absorb(contacts);
            }
            ControlMsg::Membership {
                inner,
                stable_sample,
            } => {
                let round = ctx.round();
                let replies = flat::on_message(&mut self.view, from, &inner, round, ctx.rng());
                self.route_membership(replies, ctx);
                // Piggybacked supertable entries (the sender is a
                // group-mate, so its ancestors are ours): one of the direct
                // supertopic ends the search.
                let absorbed = self.absorb(stable_sample);
                if let Some(task) = self.dynamic.as_mut().and_then(|d| d.bootstrap.as_mut()) {
                    if task.is_active() && absorbed.iter().any(|e| e.topic == task.direct_super()) {
                        task.stop();
                    }
                }
            }
        }
    }

    /// Absorbs fresh super contacts, the one way a dynamic-mode contact
    /// enters a supertable: those whose topic strictly includes this
    /// process' own tighten the table, the rest are dropped. Returns the
    /// contacts kept. A topic with several direct supertopics would route
    /// each contact to its supertopic's table here.
    fn absorb(&mut self, fresh: impl IntoIterator<Item = SuperEntry>) -> Vec<SuperEntry> {
        let hierarchy = &self.group.hierarchy;
        let valid: Vec<SuperEntry> = fresh
            .into_iter()
            .filter(|e| hierarchy.includes(e.topic, self.topic))
            .collect();
        if let Some(table) = self.super_tables.as_mut_slice().first_mut() {
            table.tighten(&valid, self.group.params.z, |t| hierarchy.depth(t));
        }
        valid
    }

    /// Starts `FIND_SUPER_CONTACT` afresh and floods its first request:
    /// on start, when maintenance finds every contact dead, and on
    /// recovery.
    fn restart_bootstrap<X: Exec<Msg = DaMsg>>(&mut self, ctx: &mut X) {
        if let Some(task) = self.dynamic.as_mut().and_then(|d| d.bootstrap.as_mut()) {
            if let BootstrapAction::SendRequest { req_id, topics } = task.start(ctx.round()) {
                self.flood_request(req_id, topics, ctx);
            }
        }
    }

    /// Wraps and routes pending membership messages, piggybacking a sample
    /// of the supertable (Sec. V-A.2a).
    fn route_membership<X: Exec<Msg = DaMsg>>(
        &mut self,
        out: Vec<(ProcessId, da_membership::MembershipMsg)>,
        ctx: &mut X,
    ) {
        for (to, inner) in out {
            let stable_sample = match self.super_tables().first() {
                Some(table) => table.sample(2, ctx.rng()),
                None => Vec::new(),
            };
            self.send_control(
                ctx,
                to,
                ControlMsg::Membership {
                    inner,
                    stable_sample,
                },
            );
        }
    }
}

impl ExecProtocol for DaProcess {
    type Msg = DaMsg;

    fn on_start<X: Exec<Msg = DaMsg>>(&mut self, ctx: &mut X) {
        // Dynamic mode: join the group and start the super-contact search.
        let Some(dynamic) = self.dynamic.as_mut() else {
            return;
        };
        let contacts = std::mem::take(&mut dynamic.join_contacts);
        if !contacts.is_empty() {
            let joins = flat::join(&mut self.view, &contacts, ctx.rng());
            self.route_membership(joins, ctx);
        }
        // A table filled before the start needs no search.
        if self.super_tables().iter().all(SuperTable::is_empty) {
            self.restart_bootstrap(ctx);
        }
    }

    fn on_message<X: Exec<Msg = DaMsg>>(&mut self, from: ProcessId, msg: DaMsg, ctx: &mut X) {
        let round = ctx.round();
        match msg {
            DaMsg::Event {
                event,
                sender_topic,
            } => {
                // Liveness evidence for the gossip's eviction, which only
                // dynamic mode runs.
                if self.dynamic.is_some() {
                    self.view.mark_heard(from, round);
                }
                self.receive_event(event, sender_topic, ctx);
            }
            DaMsg::NewProcessReq => {
                // Fig. 6, lines 2–5: answer with available superprocesses —
                // members of *our* group, which is a supergroup of the
                // requester's.
                let mut sample = self.view.sample(self.group.params.z, ctx.rng());
                sample.push(self.me);
                let contacts = sample
                    .into_iter()
                    .map(|pid| SuperEntry {
                        pid,
                        topic: self.topic,
                    })
                    .collect();
                self.send_control(ctx, from, ControlMsg::NewProcessAns { contacts });
            }
            DaMsg::Ping { nonce } => {
                self.send_control(ctx, from, DaMsg::Pong { nonce });
            }
            DaMsg::Pong { .. } => {
                if let Some(dynamic) = self.dynamic.as_mut() {
                    dynamic.maintenance.on_pong(from, round);
                }
            }
            DaMsg::Control(control) => self.on_control(from, *control, ctx),
        }
    }

    fn on_round<X: Exec<Msg = DaMsg>>(&mut self, round: u64, ctx: &mut X) {
        // Publications queued since the last round (Fig. 5 SUBSCRIBE +
        // Fig. 7 DISSEMINATE, run by the publisher).
        if let Some(mut publishes) = self.pending_publish.take() {
            for event in publishes.drain(..) {
                if self.seen.insert(event.id) {
                    self.deliver(event, ctx);
                } else {
                    self.disseminate(event, ctx);
                }
            }
            // Kept for the next publication, which would otherwise allocate.
            self.pending_publish = Some(publishes);
        }

        // Static mode stops here: no control plane.
        if self.dynamic.is_none() {
            return;
        }

        // Underlying membership gossip.
        let digests = flat::on_round(&mut self.view, round, ctx.rng());
        self.route_membership(digests, ctx);

        // KEEP_TABLE_UPDATED (Fig. 6).
        let entries: Vec<ProcessId> = self
            .super_tables()
            .iter()
            .flat_map(SuperTable::entries)
            .map(|e| e.pid)
            .collect();
        let p_sel = self.group.p_sel();
        let selected = p_sel >= 1.0 || (p_sel > 0.0 && ctx.rng().gen_bool(p_sel));
        let dynamic = self.dynamic.as_mut().expect("static mode returned above");
        let action = dynamic
            .maintenance
            .on_round(round, &entries, selected, self.group.params.tau);
        match action {
            MaintenanceAction::Ping { nonce, targets } => {
                for t in targets {
                    self.send_control(ctx, t, DaMsg::Ping { nonce });
                }
            }
            MaintenanceAction::Refresh { alive, dead } => {
                for d in dead {
                    for table in self.super_tables.as_mut_slice() {
                        table.remove(d);
                    }
                }
                for a in alive {
                    self.send_control(ctx, a, DaMsg::NewProcessReq);
                }
            }
            MaintenanceAction::RestartBootstrap => self.restart_bootstrap(ctx),
            MaintenanceAction::Idle => {}
        }

        // FIND_SUPER_CONTACT timeout handling (Fig. 4, lines 14–28).
        if let Some(task) = self.dynamic.as_mut().and_then(|d| d.bootstrap.as_mut()) {
            if task.is_active() {
                if let BootstrapAction::SendRequest { req_id, topics } =
                    task.on_round(round, &self.group.hierarchy)
                {
                    self.flood_request(req_id, topics, ctx);
                }
            }
        }
    }

    fn on_recover<X: Exec<Msg = DaMsg>>(&mut self, ctx: &mut X) {
        // Re-entry after a crash (dynamic mode): whatever the tables held
        // before the crash may point at processes that moved on, so
        // restart FIND_SUPER_CONTACT immediately rather than waiting for
        // the maintenance task to notice dead links. Static mode keeps
        // its fixed tables — a recovered static member just resumes.
        self.restart_bootstrap(ctx);
    }
}

/// XOR-fold of per-element hashes: order-independent, so the iteration
/// order of a set (which follows its table's growth) cannot leak into the
/// digest.
fn fold_unordered<I: IntoIterator<Item = u64>>(items: I) -> u64 {
    let mut acc = 0u64;
    for word in items {
        let mut h = FxHasher::default();
        h.write_u64(word);
        acc ^= h.finish();
    }
    acc
}

fn event_id_word(id: EventId) -> u64 {
    (u64::from(id.publisher.0) << 32) ^ u64::from(id.sequence).rotate_left(17)
}

/// Canonical protocol-state digest for the bounded model checker.
///
/// Ordered containers (views, tables, the publication queue) are hashed
/// in order; sets are XOR-folded so their iteration order cannot make
/// equal states look distinct. The bootstrap/maintenance/overlay tasks
/// contribute presence flags only: the checker targets static-mode
/// processes (the paper's simulation setting), where all three are
/// absent and the flags are constant. Dynamic-mode exploration would
/// under-distinguish timer state — acceptable for a *bounded* checker
/// (it can only merge states, never invent transitions), but worth
/// knowing when reading state counts.
impl McHash for DaProcess {
    fn mc_hash(&self, state: &mut dyn Hasher) {
        state.write_u32(self.me.0);
        state.write_u64(self.topic.index() as u64);
        let view = self.view.as_slice();
        state.write_u64(view.len() as u64);
        for p in view {
            state.write_u32(p.0);
        }
        // Static tables never change, so one list of every table's entries
        // tells states apart — and is the one table's own at one or none.
        let supers = || self.super_tables().iter().flat_map(SuperTable::entries);
        state.write_u64(supers().count() as u64);
        for e in supers() {
            state.write_u32(e.pid.0);
            state.write_u64(e.topic.index() as u64);
        }
        state.write_u64(self.group.size as u64);
        let dynamic = self.dynamic.as_deref();
        let bootstrap = dynamic.is_some_and(|d| d.bootstrap.is_some());
        state.write_u8(u8::from(bootstrap));
        // The maintenance task's flag, then the overlay's: one box holds
        // both, and the digest keeps its layout.
        state.write_u8(u8::from(dynamic.is_some()));
        state.write_u8(u8::from(dynamic.is_some()));
        let join_contacts = dynamic.map_or(&[][..], |d| &d.join_contacts);
        state.write_u64(join_contacts.len() as u64);
        for p in join_contacts {
            state.write_u32(p.0);
        }
        state.write_u64(fold_unordered(self.seen.iter().map(event_id_word)));
        state.write_u64(u64::from(self.deliveries));
        state.write_u64(u64::from(self.parasite_count));
        let pending = self
            .pending_publish
            .as_deref()
            .map_or(&[][..], Vec::as_slice);
        state.write_u64(pending.len() as u64);
        for e in pending {
            state.write_u64(event_id_word(e.id));
        }
        state.write_u64(u64::from(self.next_sequence));
        let answered = dynamic.into_iter().flat_map(|d| &d.answered_requests);
        state.write_u64(fold_unordered(answered.map(|&(origin, req_id)| {
            (u64::from(origin.0) << 32) ^ req_id.rotate_left(7)
        })));
    }
}

use rand::Rng as _;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopicParams;
    use da_simnet::{Engine, SimConfig};
    use da_topics::TopicHierarchy;

    fn chain_hierarchy() -> (Arc<TopicHierarchy>, Vec<TopicId>) {
        let (h, ids) = TopicHierarchy::linear_chain(3);
        (Arc::new(h), ids)
    }

    /// A tiny static two-level network: 4 root members (pids 0–3), 6 leaf
    /// members (pids 4–9) fully meshed, each leaf knowing 2 roots.
    fn tiny_static_network() -> (Vec<DaProcess>, Vec<TopicId>) {
        let (h, ids) = chain_hierarchy();
        let params = TopicParams::paper_default();
        let root_members: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let mid_members: Vec<ProcessId> = (4..10).map(ProcessId).collect();
        let group = |topic, members: &[ProcessId]| {
            Arc::new(Group::new(topic, Arc::clone(&h), params, members.len()))
        };
        let (root, mid) = (group(ids[0], &root_members), group(ids[1], &mid_members));
        let mut procs = Vec::new();
        for &m in &root_members {
            let table: Vec<ProcessId> = root_members.iter().copied().filter(|&p| p != m).collect();
            procs.push(DaProcess::static_member(
                m,
                Arc::clone(&root),
                table,
                vec![],
            ));
        }
        for &m in &mid_members {
            let table: Vec<ProcessId> = mid_members.iter().copied().filter(|&p| p != m).collect();
            let supers = vec![
                SuperEntry {
                    pid: root_members[0],
                    topic: ids[0],
                },
                SuperEntry {
                    pid: root_members[1],
                    topic: ids[0],
                },
            ];
            procs.push(DaProcess::static_member(
                m,
                Arc::clone(&mid),
                table,
                vec![supers],
            ));
        }
        (procs, ids)
    }

    /// A context that drops what it is handed.
    struct Sink(rand::rngs::SmallRng);

    impl Exec for Sink {
        type Msg = DaMsg;

        fn me(&self) -> ProcessId {
            ProcessId(5)
        }

        fn round(&self) -> u64 {
            0
        }

        fn send(&mut self, _to: ProcessId, _msg: DaMsg) {}

        fn rng(&mut self) -> &mut rand::rngs::SmallRng {
            &mut self.0
        }

        fn bump(&mut self, _label: &str) {}

        fn add(&mut self, _label: &str, _delta: u64) {}
    }

    /// A bootstrap answer from a distant ancestor never pushes a
    /// direct-supertopic contact out of a full table, whatever the
    /// process's stream: a contact enters by `tighten` alone, and a root
    /// contact is not deeper than any resident.
    #[test]
    fn an_ancestor_answer_keeps_the_direct_contacts() {
        let (h, ids) = chain_hierarchy();
        let z = 3;
        let params = TopicParams {
            z,
            ..TopicParams::paper_default()
        };
        let group = Arc::new(Group::new(ids[2], h, params, 10));
        let overlay = Arc::new(Overlay::random(40, 3, 1).unwrap());
        let direct = |pid| SuperEntry {
            pid: ProcessId(pid),
            topic: ids[1],
        };
        for seed in 0..32 {
            let mut p = DaProcess::dynamic_member(
                ProcessId(0),
                Arc::clone(&group),
                Arc::clone(&overlay),
                vec![],
            );
            let mut ctx = Sink(da_core::rng_from_seed(seed));
            let contacts = vec![direct(10), direct(11)];
            let msg = ControlMsg::NewProcessAns { contacts };
            p.on_message(ProcessId(10), msg.into(), &mut ctx);
            // `z + 1` contacts, the size a root member answers with.
            let contacts = (20..21 + z as u32).map(ProcessId).collect();
            let msg = ControlMsg::AnsContact {
                topic: ids[0],
                contacts,
            };
            p.on_message(ProcessId(20), msg.into(), &mut ctx);
            let table = &p.super_tables()[0];
            assert!(table.len() <= z, "seed {seed}: {table:?}");
            for pid in [ProcessId(10), ProcessId(11)] {
                assert!(table.contains(pid), "seed {seed} lost {pid}: {table:?}");
            }
        }
    }

    #[test]
    fn the_digest_folds_the_seen_set_whatever_order_filled_it() {
        let (procs, ids) = tiny_static_network();
        let events: Vec<Event> = (0..40)
            .map(|k| Event::new(ProcessId(4 + k % 6), k / 6, ids[1], "x"))
            .collect();
        let receive = |order: Vec<Event>| {
            let mut process = procs[5].clone();
            let mut ctx = Sink(da_core::rng_from_seed(1));
            for event in order {
                let msg = DaMsg::Event {
                    event,
                    sender_topic: ids[1],
                };
                process.on_message(ProcessId(4), msg, &mut ctx);
            }
            process
        };
        let forward = receive(events.clone());
        let backward = receive(events.iter().rev().copied().collect());
        let digest = |p: &DaProcess| {
            let mut h = FxHasher::default();
            p.mc_hash(&mut h);
            h.finish()
        };
        // Filled in opposite orders, the two tables lay the ids out
        // differently, and the processes are one state.
        let layout = |p: &DaProcess| p.seen.iter().collect::<Vec<_>>();
        assert_ne!(layout(&forward), layout(&backward));
        assert_eq!(digest(&forward), digest(&backward));
        // The delivery count is hashed beside the set: a re-delivery is
        // another state.
        let mut redelivered = backward.clone();
        redelivered.deliveries += 1;
        assert_ne!(digest(&forward), digest(&redelivered));
    }

    #[test]
    fn static_event_reaches_whole_group_and_supergroup() {
        let (procs, _ids) = tiny_static_network();
        let mut engine = Engine::new(SimConfig::default().with_seed(7), procs);
        let id = engine.process_mut(ProcessId(5)).publish("hello");
        engine.run_until_quiescent(50);
        // Every leaf member must have delivered (reliable channels).
        for pid in 4..10 {
            assert!(
                engine.process(ProcessId(pid)).has_delivered(id),
                "leaf {pid} missed the event"
            );
        }
        // The event must have climbed into the root group and spread there.
        for pid in 0..4 {
            assert!(
                engine.process(ProcessId(pid)).has_delivered(id),
                "root {pid} missed the event"
            );
        }
    }

    #[test]
    fn no_parasites_and_no_double_delivery() {
        let (procs, _) = tiny_static_network();
        let mut engine = Engine::new(SimConfig::default().with_seed(3), procs);
        engine.process_mut(ProcessId(4)).publish("e1");
        engine.process_mut(ProcessId(9)).publish("e2");
        engine.run_until_quiescent(50);
        for (pid, p) in engine.processes() {
            assert_eq!(p.parasite_count(), 0, "{pid} saw a parasite");
            assert_eq!(
                p.deliveries() as usize,
                p.delivered().len(),
                "{pid} double-delivered"
            );
        }
    }

    #[test]
    fn events_do_not_flow_downwards() {
        let (procs, _) = tiny_static_network();
        let mut engine = Engine::new(SimConfig::default().with_seed(5), procs);
        // Publish at the ROOT group: leaves subscribe to the mid topic and
        // must NOT receive a root-topic event.
        let id = engine.process_mut(ProcessId(0)).publish("root news");
        engine.run_until_quiescent(50);
        for pid in 0..4 {
            assert!(engine.process(ProcessId(pid)).has_delivered(id));
        }
        for pid in 4..10 {
            assert!(
                !engine.process(ProcessId(pid)).has_delivered(id),
                "leaf {pid} received a strict-supertopic event"
            );
            assert_eq!(engine.process(ProcessId(pid)).parasite_count(), 0);
        }
    }

    #[test]
    fn intra_and_inter_counters_track_messages() {
        let (procs, ids) = tiny_static_network();
        let (mid, root) = (ids[1].index(), ids[0].index());
        let mut engine = Engine::new(SimConfig::default().with_seed(11), procs);
        engine.process_mut(ProcessId(4)).publish("x");
        engine.run_until_quiescent(50);
        let count = |kind, group| engine.tally().get(Family::Da, kind, group);
        assert!(count(Kind::Intra, mid) > 0, "mid gossip");
        assert!(count(Kind::Intra, root) > 0, "root gossip");
        assert!(count(Kind::InterOut, mid) > 0, "mid forwarded to root");
        assert!(count(Kind::InterIn, root) > 0, "root received from mid");
        assert_eq!(engine.tally().total(Family::Da, Kind::Parasite), 0);
    }

    #[test]
    fn publisher_delivers_its_own_event_once() {
        let (procs, _) = tiny_static_network();
        let mut engine = Engine::new(SimConfig::default().with_seed(13), procs);
        let id = engine.process_mut(ProcessId(4)).publish("mine");
        engine.run_until_quiescent(50);
        let publisher = engine.process(ProcessId(4));
        assert!(publisher.has_delivered(id));
        assert_eq!(publisher.deliveries(), 1);
    }

    #[test]
    fn sequence_numbers_increment() {
        let (mut procs, _) = tiny_static_network();
        let a = procs[4].publish("a");
        let b = procs[4].publish("b");
        assert_eq!(a.sequence + 1, b.sequence);
        assert_eq!(a.publisher, b.publisher);
    }

    #[test]
    #[should_panic(expected = "sequence past u32::MAX")]
    fn a_publisher_out_of_ids_panics_rather_than_wrap() {
        let (mut procs, _) = tiny_static_network();
        procs[4].next_sequence = u32::MAX - 1;
        assert_eq!(procs[4].publish("last").sequence, u32::MAX - 1);
        assert_eq!(procs[4].next_sequence, u32::MAX);
        procs[4].publish("one too many");
    }

    #[test]
    fn memory_entries_bounded_by_paper_formula() {
        let (procs, _) = tiny_static_network();
        for p in &procs {
            // ln(S)+c view (capped) plus z supertable entries.
            let params = &p.group.params;
            let view_cap = da_membership::kmg_view_size(params.b, 6);
            assert!(p.memory_entries() <= view_cap.max(5) + params.z);
        }
    }

    /// Liveness stamps feed the gossip's eviction, which only dynamic mode
    /// runs: a static member's view stays unstamped however many events
    /// arrive, while dynamic members stamp the group-mates they hear from.
    #[test]
    fn a_static_member_that_received_events_keeps_no_stamps() {
        let stamped = |p: &DaProcess| p.view.iter().any(|q| p.view.last_heard(q).is_some());
        let (procs, _) = tiny_static_network();
        let mut engine = Engine::new(SimConfig::default().with_seed(19), procs);
        engine.process_mut(ProcessId(4)).publish("a");
        engine.process_mut(ProcessId(0)).publish("b");
        engine.run_until_quiescent(50);
        for (pid, p) in engine.processes() {
            assert!(!p.delivered().is_empty(), "{pid} received no event");
            assert!(!stamped(p), "{pid} stamped its static view");
        }

        let net =
            crate::Network::dynamic_linear(&[5, 20], crate::TopicParams::default(), 7).unwrap();
        let mut engine = Engine::new(SimConfig::default().with_seed(7), net.into_processes());
        engine.run_rounds(20);
        assert!(engine.processes().any(|(_, p)| stamped(p)));
    }

    #[test]
    fn root_member_never_elects_super_forwarding() {
        let (procs, _) = tiny_static_network();
        let mut engine = Engine::new(SimConfig::default().with_seed(17), procs);
        engine.process_mut(ProcessId(0)).publish("top");
        engine.run_until_quiescent(50);
        // Root processes have empty supertables: nothing goes up a level.
        assert_eq!(engine.tally().total(Family::Da, Kind::InterOut), 0);
    }
}

#[cfg(test)]
mod delivered_tests {
    use super::*;
    use da_simnet::{Engine, SimConfig};

    /// Four fully meshed group-mates after process 0's publication has
    /// reached all of them.
    fn delivered_everywhere() -> (Engine<DaProcess>, EventId) {
        let (h, ids) = da_topics::TopicHierarchy::linear_chain(2);
        let params = crate::TopicParams::paper_default();
        let group = Arc::new(Group::new(ids[1], Arc::new(h), params, 4));
        let members: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let procs: Vec<DaProcess> = members
            .iter()
            .map(|&m| {
                let table = members.iter().copied().filter(|&p| p != m).collect();
                DaProcess::static_member(m, Arc::clone(&group), table, vec![])
            })
            .collect();
        let mut engine = Engine::new(SimConfig::default().with_seed(1), procs);
        let id = engine.process_mut(ProcessId(0)).publish("once");
        engine.run_until_quiescent(32);
        (engine, id)
    }

    #[test]
    fn has_delivered_matches_the_delivered_set() {
        let (mut engine, id) = delivered_everywhere();
        // Re-gossip of the same event must not deliver it twice.
        engine.run_rounds(5);
        for pid in [ProcessId(0), ProcessId(1)] {
            let p = engine.process(pid);
            assert!(p.has_delivered(id));
            assert_eq!(p.delivered().iter().collect::<Vec<_>>(), [id], "{pid}");
            assert_eq!(p.deliveries(), 1, "{pid}");
        }
        let never_published = EventId {
            publisher: ProcessId(0),
            sequence: 1,
        };
        assert!(!engine.process(ProcessId(1)).has_delivered(never_published));
    }
}
