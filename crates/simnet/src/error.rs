use da_core::ProcessId;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the simulation kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A [`ProcessId`] was outside the engine's process table.
    UnknownProcess {
        /// The offending id.
        pid: ProcessId,
        /// Number of processes in the engine.
        population: usize,
    },
    /// A configuration value was outside its valid range.
    InvalidConfig {
        /// Human-readable description of the violation.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownProcess { pid, population } => {
                write!(f, "process {pid} is outside the population of {population}")
            }
            SimError::InvalidConfig { reason } => {
                write!(f, "invalid simulation configuration: {reason}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_process() {
        let e = SimError::UnknownProcess {
            pid: ProcessId(7),
            population: 3,
        };
        assert!(e.to_string().contains("p7"));
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
