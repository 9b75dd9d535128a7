//! Typed probe-layer errors.
//!
//! The measurement helpers used to `panic!` on recoverable conditions
//! (finding no active destination in a scenario). Supervision needs to
//! distinguish *bugs* — which should abort a block and be quarantined — from *misuse*
//! or absent data, which callers can handle. These variants are the
//! recoverable half; genuine invariant violations still panic.

use std::fmt;

/// Why a probe-layer operation could not proceed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProbeError {
    /// A scenario scan found no destination matching the requested
    /// liveness/topology constraints.
    NoActiveDestination,
    /// The operation was abandoned because its cancel token fired (the
    /// supervisor's watchdog reclaimed the block).
    Cancelled,
}

impl fmt::Display for ProbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeError::NoActiveDestination => {
                write!(f, "no active destination matches the constraints")
            }
            ProbeError::Cancelled => write!(f, "operation cancelled by supervisor"),
        }
    }
}

impl std::error::Error for ProbeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        assert_eq!(
            ProbeError::Cancelled.to_string(),
            "operation cancelled by supervisor"
        );
        assert_eq!(
            ProbeError::NoActiveDestination.to_string(),
            "no active destination matches the constraints"
        );
    }
}
