//! Process identity and liveness — the vocabulary both substrates (and
//! the failure model below them) share.

use std::fmt;

/// Identifier of a process (`pl` in the paper).
///
/// Ids are dense indices into the engine's (or runtime's) process table.
///
/// ```
/// use da_core::ProcessId;
/// let p = ProcessId(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "p3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// The raw dense index of this process.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a dense index.
    ///
    /// Both substrates validate the whole population once at their spawn
    /// boundary via [`try_from_index`](Self::try_from_index), so hitting
    /// this panic from inside a run would mean an id was fabricated
    /// past that check.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self::try_from_index(index).expect("process index exceeds u32::MAX")
    }

    /// Fallible twin of [`from_index`](Self::from_index): builds an id
    /// from a dense index, or reports the overflow as a typed error.
    ///
    /// Spawn boundaries (`da_simnet::Engine::new`, `da_runtime`'s
    /// spawn) check their population size through this, so a > 4 billion
    /// process misconfiguration fails with [`ProcessIndexError`] at
    /// configuration time instead of panicking deep inside striping.
    ///
    /// ```
    /// use da_core::ProcessId;
    /// assert_eq!(ProcessId::try_from_index(3), Ok(ProcessId(3)));
    /// assert!(ProcessId::try_from_index(usize::MAX).is_err());
    /// ```
    pub fn try_from_index(index: usize) -> Result<Self, ProcessIndexError> {
        u32::try_from(index)
            .map(ProcessId)
            .map_err(|_| ProcessIndexError { index })
    }
}

/// A dense process index too large to name: ids are `u32`, so
/// populations are capped at `u32::MAX + 1` processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessIndexError {
    /// The offending index.
    pub index: usize,
}

impl fmt::Display for ProcessIndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "process index {} exceeds u32::MAX ({}); populations are capped at {} processes",
            self.index,
            u32::MAX,
            u64::from(u32::MAX) + 1
        )
    }
}

impl std::error::Error for ProcessIndexError {}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Liveness of a process.
///
/// The paper's model (Sec. III-A): "processes might crash and recover (a
/// process that is not crashed is said to be alive)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessStatus {
    /// The process executes round hooks and receives messages.
    Alive,
    /// The process is crashed: it neither executes nor receives.
    Crashed,
}

impl ProcessStatus {
    /// True when the process is [`ProcessStatus::Alive`].
    #[must_use]
    pub fn is_alive(self) -> bool {
        matches!(self, ProcessStatus::Alive)
    }
}

impl fmt::Display for ProcessStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessStatus::Alive => f.write_str("alive"),
            ProcessStatus::Crashed => f.write_str("crashed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for i in [0usize, 5, 1000] {
            assert_eq!(ProcessId::from_index(i).index(), i);
        }
    }

    #[test]
    fn try_from_index_reports_overflow_as_typed_error() {
        assert_eq!(ProcessId::try_from_index(7), Ok(ProcessId(7)));
        assert_eq!(
            ProcessId::try_from_index(u32::MAX as usize),
            Ok(ProcessId(u32::MAX))
        );
        let err = ProcessId::try_from_index(u32::MAX as usize + 1).unwrap_err();
        assert_eq!(err.index, u32::MAX as usize + 1);
        assert!(err.to_string().contains("exceeds u32::MAX"));
    }

    #[test]
    fn display() {
        assert_eq!(ProcessId(9).to_string(), "p9");
        assert_eq!(ProcessStatus::Alive.to_string(), "alive");
        assert_eq!(ProcessStatus::Crashed.to_string(), "crashed");
    }

    #[test]
    fn status_predicate() {
        assert!(ProcessStatus::Alive.is_alive());
        assert!(!ProcessStatus::Crashed.is_alive());
    }

    #[test]
    fn ordering_is_by_index() {
        assert!(ProcessId(1) < ProcessId(2));
    }
}
