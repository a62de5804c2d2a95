use da_core::{ProcessId, WireSize};
use da_topics::TopicId;
use std::fmt;
use std::sync::Arc;

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

/// A published event (`e_Ti` in the paper): identity, topic, payload.
///
/// An `Event` is a handle — one pointer to the one allocation
/// [`Event::new`] made — so a gossip hop, an in-flight envelope and every
/// `delivered` log move a name for the datum, not a copy of it: a clone is
/// a single reference-count increment and equality is by content.
///
/// ```
/// use damulticast::Event;
/// use da_core::ProcessId;
/// use da_topics::TopicId;
///
/// let e = Event::new(ProcessId(3), 0, TopicId::ROOT, "breaking news");
/// assert_eq!(e.id().publisher, ProcessId(3));
/// assert_eq!(e.payload(), b"breaking news");
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Event {
    inner: Arc<Inner>,
}

#[derive(PartialEq, Eq)]
#[repr(align(64))]
struct Inner {
    id: EventId,
    topic: TopicId,
    payload: Box<[u8]>,
}

// One word per copy: at 40 bytes (id, topic and a fat payload pointer
// inline) the in-flight envelope stream outgrew the cache the receive
// path works in. See ARCHITECTURE.md, "Bytes in flight".
const _: () = assert!(std::mem::size_of::<Event>() == std::mem::size_of::<usize>());
// The `Arc`'s counts sit in front of `Inner`; aligned to a line, the
// value starts on the next one. Every clone and drop on another worker
// writes the counts, and `id()` / `topic()` then read a line that no
// such write invalidates (the device `EdgeWatermarks` uses). See
// ARCHITECTURE.md, "Bytes in flight".
const _: () = assert!(std::mem::align_of::<Inner>() == 64);

impl Event {
    /// Creates an event published by `publisher` with local `sequence`
    /// number, of `topic`, carrying `payload`. The sequence is a `u32` in
    /// memory; the id's modelled wire size is 12 bytes all the same.
    pub fn new(
        publisher: ProcessId,
        sequence: u32,
        topic: TopicId,
        payload: impl Into<Vec<u8>>,
    ) -> Self {
        Event {
            inner: Arc::new(Inner {
                id: EventId {
                    publisher,
                    sequence,
                },
                topic,
                payload: payload.into().into_boxed_slice(),
            }),
        }
    }

    /// The event's unique id.
    #[must_use]
    pub fn id(&self) -> EventId {
        self.inner.id
    }

    /// The topic the event was published on.
    #[must_use]
    pub fn topic(&self) -> TopicId {
        self.inner.topic
    }

    /// The opaque payload bytes.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.inner.payload
    }
}

/// The shape the fields had inline: the handle is not part of the value.
impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("id", &self.inner.id)
            .field("topic", &self.inner.topic)
            .field("payload", &self.inner.payload)
            .finish()
    }
}

impl WireSize for Event {
    fn wire_size(&self) -> usize {
        self.id().wire_size() + 4 /* topic */ + 4 /* len */ + self.payload().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_accessors() {
        let e = Event::new(ProcessId(1), 7, TopicId::ROOT, vec![1u8, 2, 3]);
        assert_eq!(
            e.id(),
            EventId {
                publisher: ProcessId(1),
                sequence: 7
            }
        );
        assert_eq!(e.topic(), TopicId::ROOT);
        assert_eq!(e.payload(), &[1, 2, 3]);
    }

    #[test]
    fn a_handle_compares_by_content_and_crosses_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Event>();
        assert_eq!(std::mem::size_of::<Event>(), std::mem::size_of::<usize>());

        let a = Event::new(ProcessId(1), 7, TopicId::ROOT, "abc");
        assert_eq!(a.clone(), a);
        // Built twice from equal parts: two allocations, one value.
        let b = Event::new(ProcessId(1), 7, TopicId::ROOT, vec![b'a', b'b', b'c']);
        assert!(!Arc::ptr_eq(&a.inner, &b.inner));
        assert_eq!(a, b);
        assert_ne!(a, Event::new(ProcessId(1), 7, TopicId::ROOT, "abd"));
        assert_ne!(a, Event::new(ProcessId(1), 8, TopicId::ROOT, "abc"));
        assert_eq!(
            format!("{a:?}"),
            "Event { id: EventId { publisher: ProcessId(1), sequence: 7 }, \
             topic: TopicId(0), payload: [97, 98, 99] }"
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
