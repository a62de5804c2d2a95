//! Wire-size accounting.
//!
//! Both substrates charge every sent message its encoded size so
//! experiments can report bandwidth, not just message counts. Protocol
//! message types implement [`WireSize`]; the impls here give consistent
//! sizes for the primitives that appear in gossip messages.

use crate::process::ProcessId;

/// Types that know their encoded size on the wire, in bytes.
///
/// Implementations should return the size of a reasonable binary encoding —
/// they are used for bandwidth accounting, not actual serialization.
///
/// ```
/// use da_core::WireSize;
/// struct Ping;
/// impl WireSize for Ping {
///     fn wire_size(&self) -> usize { 1 }
/// }
/// assert_eq!(Ping.wire_size(), 1);
/// ```
pub trait WireSize {
    /// Encoded size of `self` in bytes.
    fn wire_size(&self) -> usize;
}

impl WireSize for ProcessId {
    fn wire_size(&self) -> usize {
        4
    }
}

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_size(&self) -> usize {
        // 4-byte length prefix plus elements.
        4 + self.iter().map(WireSize::wire_size).sum::<usize>()
    }
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_size(&self) -> usize {
        1 + self.as_ref().map_or(0, WireSize::wire_size)
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size()
    }
}

impl WireSize for u64 {
    fn wire_size(&self) -> usize {
        8
    }
}

impl WireSize for u32 {
    fn wire_size(&self) -> usize {
        4
    }
}

impl WireSize for u8 {
    fn wire_size(&self) -> usize {
        1
    }
}

impl WireSize for () {
    fn wire_size(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(ProcessId(1).wire_size(), 4);
        assert_eq!(7u64.wire_size(), 8);
        assert_eq!(7u32.wire_size(), 4);
        assert_eq!(7u8.wire_size(), 1);
        assert_eq!(().wire_size(), 0);
    }

    #[test]
    fn container_sizes() {
        let v = vec![ProcessId(1), ProcessId(2)];
        assert_eq!(v.wire_size(), 4 + 8);
        assert_eq!(Some(3u32).wire_size(), 5);
        assert_eq!(None::<u32>.wire_size(), 1);
        assert_eq!((ProcessId(0), 1u64).wire_size(), 12);
    }
}
