use da_core::{ProcessId, WireSize};
use da_topics::TopicId;
use std::fmt;

/// Globally unique identifier of a published event: publisher id plus a
/// per-publisher sequence number.
///
/// Processes de-duplicate on this id ("Done only the first time the
/// message is received", Fig. 5 of the paper). One word in memory, so a
/// publisher has ids `0..u32::MAX` and panics rather than wrap; the
/// modelled wire still counts 12 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    /// The publishing process.
    pub publisher: ProcessId,
    /// Sequence number local to the publisher.
    pub sequence: u32,
}

// Every de-dup table is keyed by this; a `u64` sequence doubled them.
// See ARCHITECTURE.md, "The receive path".
const _: () = assert!(std::mem::size_of::<EventId>() == 8);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.publisher, self.sequence)
    }
}

/// The modelled wire: a 4-byte publisher and an 8-byte sequence.
impl WireSize for EventId {
    fn wire_size(&self) -> usize {
        4 + 8
    }
}

/// An exact set of [`EventId`]s: the de-dup table of Fig. 5's "done only
/// the first time", which every receipt probes, 85% of them for an id
/// already there.
///
/// An open-addressed table of packed id words (`publisher << 32 |
/// sequence`), probed linearly from a Fibonacci home slot, so a probe
/// reads one cache line where a SwissTable read a control group and a
/// bucket. The table is a power of two long and doubles past a load of
/// 3/4; it is empty until the first insert, so a set that never receives
/// allocates nothing. `u64::MAX` marks a free slot, and the one id that
/// packs to it — `{u32::MAX, u32::MAX}`, never published but buildable —
/// is kept in a flag beside the table.
///
/// ```
/// use damulticast::{EventId, EventSet};
/// use da_core::ProcessId;
///
/// let id = |p, s| EventId { publisher: ProcessId(p), sequence: s };
/// let mut seen = EventSet::default();
/// assert!(seen.insert(id(3, 0)));
/// assert!(!seen.insert(id(3, 0)));
/// assert!(seen.insert(id(u32::MAX, u32::MAX)));
/// assert!(seen.contains(id(u32::MAX, u32::MAX)));
/// assert!(!seen.contains(id(0, 3)));
/// assert_eq!(seen.iter().count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventSet {
    /// Packed ids, [`EMPTY`] where there is none.
    slots: Box<[u64]>,
    /// Ids in `slots`: a table of 2³² of them would take 64 GiB.
    len: u32,
    /// Whether the id that packs to [`EMPTY`] is in the set.
    holds_all_ones: bool,
}

// Every process keeps one; `DaProcess`'s size assertion counts on it.
const _: () = assert!(std::mem::size_of::<EventSet>() == 24);

/// A free slot; also the packing of `{u32::MAX, u32::MAX}`.
const EMPTY: u64 = u64::MAX;

/// The table length of the first insert.
const FIRST_LEN: usize = 8;

fn pack(id: EventId) -> u64 {
    u64::from(id.publisher.0) << 32 | u64::from(id.sequence)
}

fn unpack(word: u64) -> EventId {
    EventId {
        publisher: ProcessId((word >> 32) as u32),
        sequence: word as u32,
    }
}

impl EventSet {
    /// Adds `id`; true when it was not in the set yet.
    #[inline]
    pub fn insert(&mut self, id: EventId) -> bool {
        let word = pack(id);
        if word == EMPTY {
            return !std::mem::replace(&mut self.holds_all_ones, true);
        }
        if !self.slots.is_empty() {
            let (at, found) = self.probe(word);
            if found {
                return false;
            }
            if (self.len as usize + 1) * 4 <= self.slots.len() * 3 {
                self.slots[at] = word;
                self.len += 1;
                return true;
            }
        }
        self.grow();
        let (at, _) = self.probe(word);
        self.slots[at] = word;
        self.len += 1;
        true
    }

    /// True when `id` is in the set.
    #[inline]
    #[must_use]
    pub fn contains(&self, id: EventId) -> bool {
        let word = pack(id);
        if word == EMPTY {
            return self.holds_all_ones;
        }
        !self.slots.is_empty() && self.probe(word).1
    }

    /// Every id in the set, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = EventId> + '_ {
        let all_ones = self.holds_all_ones.then_some(EMPTY);
        let words = self.slots.iter().copied().filter(|&w| w != EMPTY);
        words.chain(all_ones).map(unpack)
    }

    /// The slot holding `word`, or the free slot ending its probe run,
    /// and which of the two it is. The table is not empty, and past 3/4
    /// full it has doubled, so the run ends.
    #[inline]
    fn probe(&self, word: u64) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut at = (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        loop {
            match self.slots[at] {
                slot if slot == word => return (at, true),
                EMPTY => return (at, false),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Doubles the table (or makes the first) and re-places every id.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(FIRST_LEN);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; len].into_boxed_slice());
        for word in old.iter().copied().filter(|&w| w != EMPTY) {
            let (at, _) = self.probe(word);
            self.slots[at] = word;
        }
    }
}

/// A published event (`e_Ti` in the paper): identity, topic and the
/// payload's length.
///
/// The system models a payload by its size: the paper prices it only in
/// the message count, and nothing in the protocol, the baselines or the
/// harness reads its bytes. So an event is a 16-byte value that every
/// envelope copies, and equal ids mean equal events.
///
/// ```
/// use damulticast::Event;
/// use da_core::ProcessId;
/// use da_topics::TopicId;
///
/// let e = Event::new(ProcessId(3), 0, TopicId::ROOT, "breaking news");
/// assert_eq!(e.id.publisher, ProcessId(3));
/// assert_eq!(e.len, 13);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The event's unique id.
    pub id: EventId,
    /// The topic the event was published on.
    pub topic: TopicId,
    /// The payload's length in bytes.
    pub len: u32,
}

// The in-flight envelope stream is a wave's working set: a payload
// pointer inline (40 B) outgrew the cache the receive path works in. See
// ARCHITECTURE.md, "Bytes in flight".
const _: () = assert!(std::mem::size_of::<Event>() == 16);

impl Event {
    /// The event `publisher` publishes with local `sequence` number on
    /// `topic`; of `payload` it keeps the length. The sequence is a `u32`
    /// in memory; the id's modelled wire size is 12 bytes all the same.
    ///
    /// # Panics
    /// On a payload of 4 GiB or more.
    pub fn new(
        publisher: ProcessId,
        sequence: u32,
        topic: TopicId,
        payload: impl AsRef<[u8]>,
    ) -> Self {
        Event {
            id: EventId {
                publisher,
                sequence,
            },
            topic,
            len: u32::try_from(payload.as_ref().len()).expect("payload past u32::MAX bytes"),
        }
    }
}

impl WireSize for Event {
    fn wire_size(&self) -> usize {
        self.id.wire_size() + 4 /* topic */ + 4 /* len */ + self.len as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_event_keeps_its_id_topic_and_payload_length() {
        let e = Event::new(ProcessId(1), 7, TopicId::ROOT, vec![1u8, 2, 3]);
        assert_eq!(
            e.id,
            EventId {
                publisher: ProcessId(1),
                sequence: 7
            }
        );
        assert_eq!(e.topic, TopicId::ROOT);
        assert_eq!(e.len, 3);
    }

    #[test]
    fn an_event_is_a_sixteen_byte_value_that_crosses_threads() {
        fn assert_copy_send_sync<T: Copy + Send + Sync>() {}
        assert_copy_send_sync::<Event>();
        assert_eq!(std::mem::size_of::<Event>(), 16);

        let a = Event::new(ProcessId(1), 7, TopicId::ROOT, "abc");
        assert_eq!(a, Event::new(ProcessId(1), 7, TopicId::ROOT, vec![b'x'; 3]));
        assert_ne!(a, Event::new(ProcessId(1), 7, TopicId::ROOT, "abcd"));
        assert_ne!(a, Event::new(ProcessId(1), 8, TopicId::ROOT, "abc"));
        assert_eq!(
            format!("{a:?}"),
            "Event { id: EventId { publisher: ProcessId(1), sequence: 7 }, \
             topic: TopicId(0), len: 3 }"
        );
    }

    #[test]
    fn id_display() {
        let id = EventId {
            publisher: ProcessId(4),
            sequence: 2,
        };
        assert_eq!(id.to_string(), "p4#2");
    }

    #[test]
    fn wire_size_includes_payload() {
        let empty = Event::new(ProcessId(0), 0, TopicId::ROOT, Vec::new());
        let full = Event::new(ProcessId(0), 0, TopicId::ROOT, vec![0u8; 100]);
        assert_eq!(full.wire_size() - empty.wire_size(), 100);
    }

    #[test]
    fn an_id_is_one_word_and_twelve_wire_bytes() {
        assert_eq!(std::mem::size_of::<EventId>(), 8);
        let last = EventId {
            publisher: ProcessId(u32::MAX),
            sequence: u32::MAX,
        };
        assert_eq!(last.wire_size(), 12);
    }

    fn id(publisher: u32, sequence: u32) -> EventId {
        EventId {
            publisher: ProcessId(publisher),
            sequence,
        }
    }

    #[test]
    fn an_empty_set_holds_nothing_and_owns_no_table() {
        let set = EventSet::default();
        for probe in [id(0, 0), id(7, 3), id(u32::MAX, u32::MAX), id(u32::MAX, 0)] {
            assert!(!set.contains(probe), "{probe}");
        }
        assert_eq!(set.iter().count(), 0);
        assert!(set.slots.is_empty());
    }

    #[test]
    fn the_all_ones_id_is_a_member_like_any_other() {
        let all_ones = id(u32::MAX, u32::MAX);
        let mut set = EventSet::default();
        assert!(set.insert(all_ones));
        assert!(!set.insert(all_ones));
        assert!(set.contains(all_ones));
        // Kept beside the table: no slot is taken, and the neighbours
        // that share a half of its word are not members.
        assert!(set.slots.is_empty());
        assert!(!set.contains(id(u32::MAX, u32::MAX - 1)));
        assert!(!set.contains(id(u32::MAX - 1, u32::MAX)));
        assert!(set.insert(id(u32::MAX, u32::MAX - 1)));
        assert!(set.insert(id(0, 0)));
        let mut members: Vec<EventId> = set.iter().collect();
        members.sort();
        assert_eq!(members, [id(0, 0), id(u32::MAX, u32::MAX - 1), all_ones]);
    }

    #[test]
    fn growth_through_ten_thousand_inserts_loses_no_id() {
        // Ids of a few publishers with runs of sequences, as a wave sees
        // them, and the halves of the word swapped, which must not alias.
        let present = |k: u32| id(k % 13, k / 13);
        let absent = |k: u32| id(k / 13 + 1000, k % 13);
        let mut set = EventSet::default();
        let mut doublings = 0;
        for k in 0..10_000 {
            let before = set.slots.len();
            assert!(set.insert(present(k)), "{}", present(k));
            assert!(!set.insert(present(k)));
            if set.slots.len() != before {
                // Doubled on the insert that would pass a load of 3/4.
                assert_eq!(k as usize, before * 3 / 4);
                doublings += 1;
                assert!((0..=k).all(|j| set.contains(present(j))), "after {k}");
                assert!((0..=k).step_by(97).all(|j| !set.contains(absent(j))));
                assert!(!set.contains(id(u32::MAX, u32::MAX)));
            }
        }
        // 8 slots, then doubled up to the first power of two 4/3 above 10,000.
        assert_eq!(set.slots.len(), 16_384);
        assert_eq!(doublings, 12);
        assert_eq!(set.len, 10_000);
        assert_eq!(set.iter().count(), 10_000);
        assert!((0..10_000).all(|k| set.contains(present(k))));
    }

    #[test]
    fn ids_order_by_publisher_then_sequence() {
        let a = EventId {
            publisher: ProcessId(0),
            sequence: 9,
        };
        let b = EventId {
            publisher: ProcessId(1),
            sequence: 0,
        };
        assert!(a < b);
    }
}
