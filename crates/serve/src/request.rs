//! The wire-level request/response vocabulary of the stream API:
//! [`ServeRequest`], [`ServeTarget`], [`ServeOutput`] and [`ServeResponse`].
//!
//! This is the typed contract between clients and the sharded serving
//! front-end.  A request names *what* to answer (source, target(s), the
//! [`FaultSpec`] in force, an optional deadline); the response carries the
//! request's sequence number, the full [`Answer`]/[`Guarantee`] vocabulary
//! of the query engine (or a typed [`ServeError`]), and the
//! fingerprint of the snapshot *epoch* that answered — so a client can
//! tell, per answer, which generation of the data it was served from while
//! snapshots are being swapped underneath the workers.

use crate::error::ServeError;
use ftbfs_graph::{FaultSpec, VertexId};
use ftbfs_oracle::{Answer, Guarantee};
use std::time::Instant;

/// What a [`ServeRequest`] asks to be computed.
///
/// The enum may grow batch forms (vertex lists, `S × V` tiles); match with
/// a wildcard arm.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeTarget {
    /// The post-failure distance to a single vertex.
    One(VertexId),
    /// Post-failure distances to every vertex (the `all_distances` form).
    All,
}

/// One request on a stream: answer `dist(source, target(s), H ∖ faults)`.
///
/// `source = None` asks the serving snapshot's primary source (the
/// single-source dual-failure case); explicit sources are the `S × V`
/// multi-source form and also pin the request to a shard (see
/// [`crate::StreamServer`] for the routing rule).
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRequest {
    /// The source vertex, or `None` for the snapshot's primary source.
    pub source: Option<VertexId>,
    /// What to compute.
    pub target: ServeTarget,
    /// The failure specification in force for this request.
    pub faults: FaultSpec,
    /// If set and already passed when a worker picks the request up, the
    /// worker answers [`ServeError::DeadlineExceeded`] instead of running
    /// the query (the request is still answered exactly once).
    pub deadline: Option<Instant>,
}

impl ServeRequest {
    /// A single-target request from the primary source, no deadline.
    pub fn distance(target: VertexId, faults: impl Into<FaultSpec>) -> Self {
        ServeRequest {
            source: None,
            target: ServeTarget::One(target),
            faults: faults.into(),
            deadline: None,
        }
    }

    /// A single-target request from an explicit source vertex.
    pub fn distance_from(source: VertexId, target: VertexId, faults: impl Into<FaultSpec>) -> Self {
        ServeRequest {
            source: Some(source),
            target: ServeTarget::One(target),
            faults: faults.into(),
            deadline: None,
        }
    }

    /// An all-distances request from the primary source.
    pub fn all_distances(faults: impl Into<FaultSpec>) -> Self {
        ServeRequest {
            source: None,
            target: ServeTarget::All,
            faults: faults.into(),
            deadline: None,
        }
    }

    /// Attaches a deadline (builder form).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The value side of a successful answer, matching the request's
/// [`ServeTarget`] shape.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeOutput {
    /// Answer to [`ServeTarget::One`]; `None` means unreachable in the
    /// surviving structure.
    Distance(Option<u32>),
    /// Answer to [`ServeTarget::All`], indexed by vertex id.
    Distances(Vec<Option<u32>>),
}

impl ServeOutput {
    /// The single distance, if this is a [`ServeOutput::Distance`] answer.
    pub fn distance(&self) -> Option<Option<u32>> {
        match self {
            ServeOutput::Distance(d) => Some(*d),
            _ => None,
        }
    }
}

/// One response on a stream, tagged with the sequence number of the
/// request it answers.
///
/// Streams deliver responses in submission order ([`crate::StreamHandle`]
/// reassembles them from the shards by `seq`), so `seq` is both the
/// request id and the position in the stream.
#[derive(Clone, Debug)]
pub struct ServeResponse {
    /// The sequence number the originating request was assigned at submit
    /// time (per stream, starting at 0).
    pub seq: u64,
    /// Fingerprint of the snapshot epoch whose data answered this request.
    /// Every response is consistent with exactly one epoch; during a swap,
    /// in-flight requests carry either the old or the new fingerprint,
    /// never a mixture within one answer.
    pub epoch: u64,
    /// Nanoseconds the worker spent answering (queue time excluded); the
    /// serving-side complement of the end-to-end latency a client can
    /// measure around submit/recv.
    pub work_ns: u64,
    /// The answer with its [`Guarantee`], or a typed error.  Per-request
    /// failures (bad vertex, unserved source, missed deadline) arrive
    /// here, in-stream; only stream-level failures surface as `Err` from
    /// [`crate::StreamHandle::recv`] itself.
    pub outcome: Result<Answer<ServeOutput>, ServeError>,
}

impl ServeResponse {
    /// The single-distance value, if the outcome is a successful
    /// [`ServeOutput::Distance`] answer (drops the guarantee).
    pub fn distance(&self) -> Option<Option<u32>> {
        self.outcome
            .as_ref()
            .ok()
            .and_then(|a| a.value().distance())
    }

    /// The guarantee of a successful answer.
    pub fn guarantee(&self) -> Option<Guarantee> {
        self.outcome.as_ref().ok().map(|a| a.guarantee())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::EdgeId;

    #[test]
    fn request_builders_fill_the_fields() {
        let r = ServeRequest::distance(VertexId(3), EdgeId(1));
        assert_eq!(r.source, None);
        assert_eq!(r.target, ServeTarget::One(VertexId(3)));
        assert_eq!(r.faults, FaultSpec::One(EdgeId(1)));
        assert!(r.deadline.is_none());

        let deadline = Instant::now();
        let r = ServeRequest::distance_from(VertexId(1), VertexId(2), FaultSpec::None)
            .with_deadline(deadline);
        assert_eq!(r.source, Some(VertexId(1)));
        assert_eq!(r.deadline, Some(deadline));

        let r = ServeRequest::all_distances((EdgeId(0), EdgeId(2)));
        assert_eq!(r.target, ServeTarget::All);
    }

    #[test]
    fn response_accessors() {
        let ok = ServeResponse {
            seq: 7,
            epoch: 42,
            work_ns: 100,
            outcome: Ok(Answer::new(
                ServeOutput::Distance(Some(5)),
                Guarantee::Exact,
            )),
        };
        assert_eq!(ok.distance(), Some(Some(5)));
        assert_eq!(ok.guarantee(), Some(Guarantee::Exact));

        let all = ServeResponse {
            seq: 8,
            epoch: 42,
            work_ns: 100,
            outcome: Ok(Answer::new(
                ServeOutput::Distances(vec![Some(0), None]),
                Guarantee::BestEffort,
            )),
        };
        assert_eq!(all.distance(), None, "All answers have no single distance");
        assert_eq!(all.guarantee(), Some(Guarantee::BestEffort));

        let err = ServeResponse {
            seq: 9,
            epoch: 42,
            work_ns: 0,
            outcome: Err(ServeError::DeadlineExceeded),
        };
        assert_eq!(err.distance(), None);
        assert_eq!(err.guarantee(), None);
    }
}
