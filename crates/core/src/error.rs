//! Error taxonomy for the Damaris middleware.

use std::fmt;

/// Everything that can go wrong between a client call and the persistency
/// layer.
#[derive(Debug)]
pub enum DamarisError {
    /// Malformed or inconsistent configuration.
    Config(String),
    /// A variable name not declared in the configuration.
    UnknownVariable(String),
    /// An event name with no configured action.
    UnknownEvent(String),
    /// Data size does not match the variable's layout.
    LayoutMismatch {
        variable: String,
        expected: u64,
        actual: u64,
    },
    /// The shared buffer cannot satisfy the reservation.
    Buffer(damaris_shm::AllocError),
    /// Persistency-layer failure.
    Storage(damaris_format::SdfError),
    /// A plugin reported a failure.
    Plugin { plugin: String, message: String },
    /// The runtime is shutting down or already finished.
    Terminated,
    /// A peer rank died; no further messages from it can arrive.
    PeerFailed { rank: usize },
    /// A collective did not complete within the receive window and no dead
    /// peer could be identified (deadlock or silent failure).
    CollectiveTimeout,
    /// The node's dedicated core stopped heartbeating and the respawn
    /// budget (if any) did not produce a new epoch in time.
    EpeUnavailable { node_id: u32, epoch: u32 },
    /// This client's liveness lease was revoked by the dedicated core's
    /// sweeper (the client stalled past the lease window and its resources
    /// were reclaimed); the handle is permanently fenced off the node.
    ClientFenced { client: u32, node_id: u32 },
    /// `end_iteration` while the client holds `held` zero-copy regions it
    /// has neither committed nor dropped: retiring the iteration would
    /// release the client's later segments past them, and its ring would
    /// hand their bytes out again. Commit or drop them first.
    RegionHeld { client: u32, held: u64 },
}

/// Out-of-line constructors for the variants raised on hot paths. The
/// `String` allocation happens only once the call has already failed,
/// behind a `#[cold]` boundary, so `write()`'s fast path stays free of
/// heap operations (enforced by `cargo run -p xtask -- analyze`).
impl DamarisError {
    /// Classifies the error as *permanent storage exhaustion*
    /// (`ENOSPC`/`EDQUOT`/`EROFS`): retrying with backoff cannot fix it —
    /// the persist path escalates to the pressure state machine instead
    /// of spinning out its retry deadline.
    pub fn is_no_space(&self) -> bool {
        match self {
            DamarisError::Storage(e) => damaris_fs::sentinel::is_no_space(e),
            _ => false,
        }
    }

    // ANALYZE: cold — error construction; the call has already failed
    #[cold]
    pub(crate) fn unknown_variable(name: &str) -> Self {
        DamarisError::UnknownVariable(name.to_string())
    }

    // ANALYZE: cold — error construction; the call has already failed
    #[cold]
    pub(crate) fn layout_mismatch(variable: &str, expected: u64, actual: u64) -> Self {
        DamarisError::LayoutMismatch {
            variable: variable.to_string(),
            expected,
            actual,
        }
    }

    /// The caller used `write` on a dynamic variable or `write_dynamic`
    /// on a static one.
    // ANALYZE: cold — error construction; the call has already failed
    #[cold]
    pub(crate) fn wrong_layout_kind(variable: &str, has_dynamic: bool) -> Self {
        let (has, use_instead) = if has_dynamic {
            ("dynamic", "write_dynamic")
        } else {
            ("static", "write")
        };
        DamarisError::Config(format!(
            "variable '{variable}' has a {has} layout; use {use_instead}"
        ))
    }
}

impl fmt::Display for DamarisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DamarisError::Config(m) => write!(f, "damaris config error: {m}"),
            DamarisError::UnknownVariable(v) => {
                write!(f, "variable '{v}' is not declared in the configuration")
            }
            DamarisError::UnknownEvent(e) => {
                write!(f, "event '{e}' has no configured action")
            }
            DamarisError::LayoutMismatch {
                variable,
                expected,
                actual,
            } => write!(
                f,
                "variable '{variable}': layout expects {expected} bytes, got {actual}"
            ),
            DamarisError::Buffer(e) => write!(f, "shared buffer: {e}"),
            DamarisError::Storage(e) => write!(f, "persistency layer: {e}"),
            DamarisError::Plugin { plugin, message } => {
                write!(f, "plugin '{plugin}': {message}")
            }
            DamarisError::Terminated => write!(f, "damaris runtime already terminated"),
            DamarisError::PeerFailed { rank } => {
                write!(f, "peer rank {rank} failed; no further messages can arrive")
            }
            DamarisError::CollectiveTimeout => {
                write!(f, "collective timed out (likely deadlock or silent peer)")
            }
            DamarisError::EpeUnavailable { node_id, epoch } => write!(
                f,
                "node {node_id}: dedicated core unavailable (last epoch {epoch}, \
                 heartbeat stale and no respawn observed)"
            ),
            DamarisError::ClientFenced { client, node_id } => write!(
                f,
                "node {node_id}: client {client} was fenced (liveness lease revoked, \
                 resources reclaimed)"
            ),
            DamarisError::RegionHeld { client, held } => write!(
                f,
                "client {client} holds {held} uncommitted region(s) from alloc; \
                 commit or drop them before ending the iteration"
            ),
        }
    }
}

impl std::error::Error for DamarisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DamarisError::Buffer(e) => Some(e),
            DamarisError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<damaris_shm::AllocError> for DamarisError {
    fn from(e: damaris_shm::AllocError) -> Self {
        DamarisError::Buffer(e)
    }
}

impl From<damaris_format::SdfError> for DamarisError {
    fn from(e: damaris_format::SdfError) -> Self {
        DamarisError::Storage(e)
    }
}

impl From<damaris_mpi::RecvError> for DamarisError {
    fn from(e: damaris_mpi::RecvError) -> Self {
        match e {
            damaris_mpi::RecvError::PeerFailed { rank } => DamarisError::PeerFailed { rank },
            damaris_mpi::RecvError::Timeout => DamarisError::CollectiveTimeout,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_subject() {
        let e = DamarisError::UnknownVariable("wind".into());
        assert!(e.to_string().contains("'wind'"));
        let e = DamarisError::LayoutMismatch {
            variable: "theta".into(),
            expected: 64,
            actual: 32,
        };
        let s = e.to_string();
        assert!(s.contains("theta") && s.contains("64") && s.contains("32"));
    }

    #[test]
    fn no_space_classification() {
        let permanent: DamarisError =
            damaris_format::SdfError::Io(damaris_fs::no_space_error()).into();
        assert!(permanent.is_no_space());
        let transient: DamarisError =
            damaris_format::SdfError::Io(std::io::Error::other("flaky nic")).into();
        assert!(!transient.is_no_space());
        assert!(!DamarisError::Terminated.is_no_space());
    }

    #[test]
    fn conversions() {
        let e: DamarisError = damaris_shm::AllocError::Full.into();
        assert!(matches!(e, DamarisError::Buffer(_)));
        let e: DamarisError = damaris_format::SdfError::Format("x".into()).into();
        assert!(matches!(e, DamarisError::Storage(_)));
        let e: DamarisError = damaris_mpi::RecvError::PeerFailed { rank: 3 }.into();
        assert!(matches!(e, DamarisError::PeerFailed { rank: 3 }));
        let e: DamarisError = damaris_mpi::RecvError::Timeout.into();
        assert!(matches!(e, DamarisError::CollectiveTimeout));
    }

    #[test]
    fn failure_variants_carry_identity() {
        let s = DamarisError::PeerFailed { rank: 7 }.to_string();
        assert!(s.contains("rank 7"));
        let s = DamarisError::EpeUnavailable {
            node_id: 2,
            epoch: 1,
        }
        .to_string();
        assert!(s.contains("node 2") && s.contains("epoch 1"));
        let s = DamarisError::ClientFenced {
            client: 3,
            node_id: 1,
        }
        .to_string();
        assert!(s.contains("client 3") && s.contains("node 1") && s.contains("fenced"));
        let s = DamarisError::RegionHeld { client: 2, held: 1 }.to_string();
        assert!(s.contains("client 2") && s.contains("1 uncommitted region"));
    }
}
