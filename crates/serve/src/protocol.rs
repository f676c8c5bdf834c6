//! The typed request/response wire protocol.
//!
//! One JSON document per line (NDJSON), serialised by `groupsa-json`
//! in serde's externally-tagged enum format. Requests carry a
//! client-chosen `id` that is echoed in the response, so clients may
//! pipeline. Responses deliberately contain **no** timing or
//! server-state fields (besides the explicit `Stats` reply), so the
//! bytes of a `Recommend` response depend only on the request and the
//! frozen model — the property the concurrency test pins down.
//!
//! Examples (one line each):
//!
//! ```text
//! {"Recommend":{"id":1,"target":{"Group":{"id":3}},"k":5,"exclude_seen":true,"mode":"Voting","deadline_ms":0}}
//! {"Stats":{"id":2}}
//! {"Shutdown":{"id":3}}
//! ```

use crate::metrics::StatsSnapshot;
use groupsa_core::{GroupMode, Recommendation, ScoreAggregation};
use groupsa_json::{impl_json_enum, impl_json_struct};

/// Who the recommendations are for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// A single user (scored by the user tower, Eq. 23).
    User {
        /// User id.
        id: usize,
    },
    /// A group (scored by the selected group mode).
    Group {
        /// Group id.
        id: usize,
    },
}

impl_json_enum!(Target { User { id }, Group { id } });

/// Which inference path scores a group — the wire-level (flat) form of
/// [`GroupMode`], whose `Fast(..)` payload does not fit the
/// externally-tagged enum encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeMode {
    /// The full voting-scheme path (Eq. 1–10, 20).
    Voting,
    /// §II-F fast path, member scores averaged.
    FastAverage,
    /// §II-F fast path, least-misery aggregation.
    FastLeastMisery,
    /// §II-F fast path, maximum-satisfaction aggregation.
    FastMaxSatisfaction,
}

impl_json_enum!(ServeMode { Voting, FastAverage, FastLeastMisery, FastMaxSatisfaction });

impl ServeMode {
    /// The corresponding core [`GroupMode`].
    pub fn group_mode(self) -> GroupMode {
        match self {
            ServeMode::Voting => GroupMode::Voting,
            ServeMode::FastAverage => GroupMode::Fast(ScoreAggregation::Average),
            ServeMode::FastLeastMisery => GroupMode::Fast(ScoreAggregation::LeastMisery),
            ServeMode::FastMaxSatisfaction => GroupMode::Fast(ScoreAggregation::MaxSatisfaction),
        }
    }
}

/// One scoring request, as submitted to the engine.
#[derive(Clone, Debug, PartialEq)]
pub struct RecommendRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Who to recommend for.
    pub target: Target,
    /// How many items to return (the engine caps nothing; fewer come
    /// back when fewer candidates exist).
    pub k: usize,
    /// Exclude items the target already interacted with in training.
    pub exclude_seen: bool,
    /// Group scoring path; ignored for user targets.
    pub mode: ServeMode,
    /// Per-request deadline in milliseconds from admission; `0` uses
    /// the engine default (which may itself be "none").
    pub deadline_ms: u64,
}

impl_json_struct!(RecommendRequest { id, target, k, exclude_seen, mode, deadline_ms });

/// Any request a connection may send.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Score and rank candidates for a target.
    Recommend {
        /// Correlation id.
        id: u64,
        /// Who to recommend for.
        target: Target,
        /// How many items to return.
        k: usize,
        /// Exclude training interactions.
        exclude_seen: bool,
        /// Group scoring path.
        mode: ServeMode,
        /// Deadline in ms (`0` = engine default).
        deadline_ms: u64,
    },
    /// Snapshot the engine metrics.
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Dump the full metrics registry as a Prometheus-style text page
    /// (counters, stat-labeled gauges, cumulative histograms, and recent
    /// slow requests) — what `obs_top` polls and diffs into windowed
    /// rates.
    MetricsDump {
        /// Correlation id.
        id: u64,
    },
    /// Hot-swap the serving model to a `groupsa-snapshot` directory.
    /// On success the swap is atomic and no in-flight request is
    /// dropped; on failure the previous model keeps serving.
    Reload {
        /// Correlation id.
        id: u64,
        /// Path of the snapshot directory, resolved on the server.
        dir: String,
    },
    /// Stop accepting connections and shut the server down cleanly.
    Shutdown {
        /// Correlation id.
        id: u64,
    },
}

impl_json_enum!(Request {
    Recommend { id, target, k, exclude_seen, mode, deadline_ms },
    Stats { id },
    MetricsDump { id },
    Reload { id, dir },
    Shutdown { id },
});

impl Request {
    /// The client-chosen correlation id, whatever the variant — used to
    /// address error replies when a request can't be dispatched.
    pub fn id(&self) -> u64 {
        match self {
            Request::Recommend { id, .. }
            | Request::Stats { id }
            | Request::MetricsDump { id }
            | Request::Reload { id, .. }
            | Request::Shutdown { id } => *id,
        }
    }

    /// The engine-level request, when this is a `Recommend`.
    pub fn into_recommend(self) -> Option<RecommendRequest> {
        match self {
            Request::Recommend { id, target, k, exclude_seen, mode, deadline_ms } => {
                Some(RecommendRequest { id, target, k, exclude_seen, mode, deadline_ms })
            }
            _ => None,
        }
    }
}

/// Any reply the server may send.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Ranked recommendations, best first.
    Recommend {
        /// Echoed correlation id.
        id: u64,
        /// Top-k items with raw ranking scores.
        items: Vec<Recommendation>,
    },
    /// Metrics snapshot.
    Stats {
        /// Echoed correlation id.
        id: u64,
        /// The snapshot.
        stats: StatsSnapshot,
    },
    /// The metrics page a `MetricsDump` asked for.
    Metrics {
        /// Echoed correlation id.
        id: u64,
        /// Prometheus-style text page; parse with
        /// [`groupsa_obs::expo::parse`].
        page: String,
    },
    /// The request failed; the engine stays up.
    Error {
        /// Echoed correlation id (`0` when the request didn't parse).
        id: u64,
        /// Human-readable cause.
        error: String,
    },
    /// Acknowledges a `Reload`: the named snapshot is now live.
    Reloaded {
        /// Echoed correlation id.
        id: u64,
    },
    /// Acknowledges a `Shutdown`; the server exits after sending it.
    Bye {
        /// Echoed correlation id.
        id: u64,
    },
}

impl_json_enum!(Response {
    Recommend { id, items },
    Stats { id, stats },
    Metrics { id, page },
    Error { id, error },
    Reloaded { id },
    Bye { id },
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let reqs = [
            Request::Recommend {
                id: 7,
                target: Target::Group { id: 3 },
                k: 5,
                exclude_seen: true,
                mode: ServeMode::Voting,
                deadline_ms: 250,
            },
            Request::Recommend {
                id: 8,
                target: Target::User { id: 11 },
                k: 10,
                exclude_seen: false,
                mode: ServeMode::FastLeastMisery,
                deadline_ms: 0,
            },
            Request::Stats { id: 1 },
            Request::MetricsDump { id: 4 },
            Request::Reload { id: 3, dir: "/tmp/snap".into() },
            Request::Shutdown { id: 2 },
        ];
        for r in reqs {
            let text = groupsa_json::to_string(&r);
            assert_eq!(groupsa_json::from_str::<Request>(&text).unwrap(), r);
        }
    }

    #[test]
    fn response_roundtrips_with_bit_exact_scores() {
        let resp = Response::Recommend {
            id: 9,
            items: vec![
                Recommendation { item: 4, score: 0.123_456_79 },
                Recommendation { item: 1, score: -1.0e-20 },
            ],
        };
        let text = groupsa_json::to_string(&resp);
        let back = groupsa_json::from_str::<Response>(&text).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn serve_mode_maps_to_group_mode() {
        assert_eq!(ServeMode::Voting.group_mode(), GroupMode::Voting);
        assert_eq!(ServeMode::FastAverage.group_mode(), GroupMode::Fast(ScoreAggregation::Average));
        assert_eq!(ServeMode::FastLeastMisery.group_mode(), GroupMode::Fast(ScoreAggregation::LeastMisery));
        assert_eq!(
            ServeMode::FastMaxSatisfaction.group_mode(),
            GroupMode::Fast(ScoreAggregation::MaxSatisfaction)
        );
    }

    #[test]
    fn metrics_page_roundtrips_with_newlines_and_quotes() {
        let resp = Response::Metrics {
            id: 12,
            page: "# TYPE a counter\na 1\nb{k=\"v\"} 2\n".into(),
        };
        let text = groupsa_json::to_string(&resp);
        assert!(!text.contains('\n'), "stays one NDJSON line: {text}");
        assert_eq!(groupsa_json::from_str::<Response>(&text).unwrap(), resp);
    }

    #[test]
    fn malformed_request_is_an_error_not_a_panic() {
        assert!(groupsa_json::from_str::<Request>("{\"Recommend\":{}}").is_err());
        assert!(groupsa_json::from_str::<Request>("nonsense").is_err());
    }
}
