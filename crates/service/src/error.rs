//! Typed errors for the serving layer.

use std::error::Error;
use std::fmt;

use aigs_core::CoreError;

use crate::{PlanId, SessionId};

/// Errors surfaced by [`crate::SearchEngine`] operations.
///
/// Every variant is scoped to the *operation* that raised it: a session
/// hitting its query cap, an oversized exact-solver instance, or a stale
/// handle never affects any other live session (the per-session isolation
/// the engine guarantees).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Admission refused: the engine is at its live-session limit and
    /// draining every shard's idle list of expired sessions reclaimed
    /// nothing.
    AtCapacity {
        /// Live sessions at refusal time.
        live: usize,
        /// The configured admission limit.
        limit: usize,
        /// Whether retrying can plausibly succeed without an explicit
        /// cancel: `true` when idle eviction is enabled, so sessions age
        /// into evictability.
        retryable: bool,
        /// Age (engine ticks since last touch) of the engine's oldest live
        /// session, read off the heads of the per-shard idle lists — a
        /// backoff hint: once this approaches
        /// [`crate::EngineConfig::idle_ticks`], a retry should get in.
        /// `None` when no live session was seen (idle eviction off, or the
        /// lists were empty).
        oldest_idle: Option<u64>,
    },
    /// The plan id does not name a registered plan.
    UnknownPlan(PlanId),
    /// The session id names no live session — never issued, already
    /// finished or cancelled, or evicted as idle. Generational ids make
    /// this distinguishable from a recycled slot.
    UnknownSession(SessionId),
    /// The underlying search errored; the session (if any) stays live for
    /// recoverable protocol misuse and is torn down on divergence.
    Core(CoreError),
    /// A policy panicked mid-operation. The panicking session was
    /// quarantined — torn down, its instance discarded rather than
    /// re-pooled — and every other session is unaffected.
    PolicyPanicked,
    /// A write-ahead-log append or sync failed; the operation was **not**
    /// durably acknowledged and the engine has entered degraded
    /// (read-mostly) mode. Carries the underlying I/O detail.
    Durability(String),
    /// The engine is in degraded mode after an earlier WAL failure:
    /// mutating operations are refused; `next_question` and stats still
    /// work. Recover by restarting from the log directory.
    Degraded,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::AtCapacity {
                live,
                limit,
                retryable,
                oldest_idle,
            } => {
                write!(
                    f,
                    "engine at capacity: {live} live sessions (limit {limit}, \
                     retryable: {retryable}, oldest idle: {oldest_idle:?})"
                )
            }
            ServiceError::UnknownPlan(p) => write!(f, "unknown plan {p:?}"),
            ServiceError::UnknownSession(s) => write!(f, "unknown session {s:?}"),
            ServiceError::Core(e) => write!(f, "search error: {e}"),
            ServiceError::PolicyPanicked => {
                write!(f, "policy panicked; the session was quarantined")
            }
            ServiceError::Durability(detail) => {
                write!(f, "durability failure (engine now degraded): {detail}")
            }
            ServiceError::Degraded => {
                write!(f, "engine degraded after a durability failure; read-only")
            }
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_facts() {
        let e = ServiceError::AtCapacity {
            live: 10,
            limit: 10,
            retryable: true,
            oldest_idle: Some(3),
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("retryable: true"));
        assert!(ServiceError::Degraded.to_string().contains("degraded"));
        assert!(ServiceError::Durability("disk full".into())
            .to_string()
            .contains("disk full"));
        assert!(ServiceError::PolicyPanicked
            .to_string()
            .contains("quarantined"));
        let e: ServiceError = CoreError::NotATree.into();
        assert!(e.to_string().contains("tree"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
