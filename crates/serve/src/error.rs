//! [`ServeError`] and [`SubmitError`] — the two error surfaces of the
//! stream API, split by *who* sees them.
//!
//! The query engine reports per-query problems as
//! [`QueryError`]; the serving layer adds failure modes of its own.  They
//! surface on two sides of the stream contract:
//!
//! * [`SubmitError`] — returned by [`crate::StreamHandle::submit`] itself.
//!   A submit error means the request was **never admitted**: no sequence
//!   number was consumed, no response will arrive, and the client may
//!   retry (all variants are retryable; [`SubmitError::Shutdown`] only
//!   against a different server).  This is the *backup* half of the
//!   reinforcement–backup stance: under overload or an injected channel
//!   fault the server answers "not now" immediately instead of queueing
//!   without bound.
//! * [`ServeError`] — everything after admission.  Per-request variants
//!   ([`ServeError::Query`], [`ServeError::DeadlineExceeded`],
//!   [`ServeError::WorkerRestarted`]) arrive *inside*
//!   [`crate::ServeResponse::outcome`], in the request's submission slot,
//!   so a failure never desynchronises the stream; stream-level variants
//!   ([`ServeError::Shutdown`], [`ServeError::Idle`],
//!   [`ServeError::Timeout`]) are returned by [`crate::StreamHandle`]
//!   receive entry points; [`ServeError::SnapshotRejected`] is returned by
//!   [`crate::EpochPublisher::publish`] to the publisher alone.
//!
//! Both enums are `#[non_exhaustive]`; match with a wildcard arm.

use ftbfs_oracle::{QueryError, SnapshotError};
use std::fmt;
use std::time::Duration;

/// Everything that can go wrong for a request *after* it was admitted to
/// the stream, plus stream- and publisher-level failures.
///
/// The enum may grow variants; match with a wildcard arm.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The query itself was rejected by the engine (out-of-range vertex,
    /// unserved source).  Not retryable: the same request fails the same
    /// way.
    Query(QueryError),
    /// The request's deadline passed before it finished: either it was
    /// already expired at submit or worker pickup (the query was not
    /// run), or an all-distances computation overran mid-request (partial
    /// work was discarded).  Retryable with a fresh deadline.
    DeadlineExceeded,
    /// The worker serving this request panicked; the shard restarted with
    /// a fresh engine over the current epoch (`generation` counts that
    /// shard's restarts).  The request was *not* answered with data —
    /// retryable, and the stream stays in order: this error occupies the
    /// request's submission slot.
    WorkerRestarted {
        /// The shard's restart generation after the panic (1 for the
        /// first restart of that shard).
        generation: u64,
    },
    /// A publish was rejected because the snapshot bytes failed
    /// re-validation (e.g. corrupted between validation and publish).
    /// Seen only by the publisher; serving continues on the old epoch.
    SnapshotRejected(SnapshotError),
    /// The server has shut down (or is shutting down): the response
    /// channel is gone.
    Shutdown,
    /// `recv` was called on a stream with no requests in flight.
    Idle,
    /// `recv_timeout` waited this long without a response arriving.  The
    /// request is still in flight and a later receive can still deliver
    /// it.
    Timeout(Duration),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Query(e) => write!(f, "query rejected: {e}"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded before serving"),
            ServeError::WorkerRestarted { generation } => write!(
                f,
                "worker panicked and restarted (shard restart generation {generation})"
            ),
            ServeError::SnapshotRejected(e) => {
                write!(f, "snapshot rejected at publish: {e}")
            }
            ServeError::Shutdown => write!(f, "serving front-end has shut down"),
            ServeError::Idle => write!(f, "no requests in flight on this stream"),
            ServeError::Timeout(waited) => {
                write!(f, "no response within {waited:?}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Query(e) => Some(e),
            ServeError::SnapshotRejected(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for ServeError {
    fn from(e: QueryError) -> Self {
        ServeError::Query(e)
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::SnapshotRejected(e)
    }
}

/// Rejection of a [`crate::StreamHandle::submit`] call: the request was
/// **not admitted** — no sequence number was consumed and no response will
/// arrive for it.
///
/// The enum may grow variants; match with a wildcard arm.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubmitError {
    /// The shard's queue is at capacity and the configured
    /// [`crate::OverloadPolicy`] could not make room.  Retry after
    /// draining some in-flight responses.
    Overloaded {
        /// The shard whose queue was full.
        shard: usize,
        /// Its queue depth at rejection time.
        depth: usize,
    },
    /// The shard channel dropped the send (chaos-injected, or a transport
    /// loss once the front-end goes network-facing).  Immediately
    /// retryable.
    ShardUnavailable {
        /// The shard whose channel dropped the send.
        shard: usize,
    },
    /// The server has shut down (or is shutting down).
    Shutdown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Overloaded { shard, depth } => {
                write!(f, "shard {shard} overloaded (queue depth {depth})")
            }
            SubmitError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} channel dropped the send")
            }
            SubmitError::Shutdown => write!(f, "serving front-end has shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::VertexId;

    #[test]
    fn query_errors_convert_and_chain() {
        let q = QueryError::VertexOutOfRange {
            vertex: VertexId(9),
            bound: 4,
        };
        let e: ServeError = q.clone().into();
        assert_eq!(e, ServeError::Query(q));
        assert!(e.to_string().contains("query rejected"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn snapshot_errors_convert_and_chain() {
        let e: ServeError = SnapshotError::ChecksumMismatch.into();
        assert_eq!(
            e,
            ServeError::SnapshotRejected(SnapshotError::ChecksumMismatch)
        );
        assert!(e.to_string().contains("rejected at publish"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn serve_level_variants_display_and_have_no_source() {
        for e in [
            ServeError::DeadlineExceeded,
            ServeError::WorkerRestarted { generation: 3 },
            ServeError::Shutdown,
            ServeError::Idle,
            ServeError::Timeout(Duration::from_millis(50)),
        ] {
            assert!(!e.to_string().is_empty());
            assert!(std::error::Error::source(&e).is_none());
        }
        assert_ne!(ServeError::Shutdown, ServeError::Idle);
        assert_ne!(
            ServeError::WorkerRestarted { generation: 1 },
            ServeError::WorkerRestarted { generation: 2 }
        );
    }

    #[test]
    fn submit_errors_display_their_shard() {
        let o = SubmitError::Overloaded {
            shard: 2,
            depth: 64,
        };
        assert!(o.to_string().contains("shard 2"));
        assert!(o.to_string().contains("64"));
        let u = SubmitError::ShardUnavailable { shard: 1 };
        assert!(u.to_string().contains("shard 1"));
        assert_ne!(o, SubmitError::Shutdown);
    }
}
