//! Server-side observability: lock-free counters answered by the `Stats`
//! request.
//!
//! Everything here is an atomic so concurrent handlers never serialise on a
//! metrics lock; the cache hit/miss attribution rides on
//! [`CacheStats::delta`] against the snapshot taken when the server started,
//! so it cannot race between handlers either (satellite 2 of the service
//! issue).

use bitlevel_cache::CacheStats;
use bitlevel_json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative counters and gauges for one server instance.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests fully processed (any terminal frame sent).
    pub requests: AtomicU64,
    /// `evaluate` requests processed.
    pub evaluate_requests: AtomicU64,
    /// `explore` requests processed.
    pub explore_requests: AtomicU64,
    /// `fault-campaign` requests processed.
    pub campaign_requests: AtomicU64,
    /// `stats` requests processed.
    pub stats_requests: AtomicU64,
    /// Requests answered with an error frame (any kind).
    pub errors: AtomicU64,
    /// Requests answered with a `timeout` error frame.
    pub timeouts: AtomicU64,
    /// Lines rejected as oversized (`frame-too-large`).
    pub oversized_frames: AtomicU64,
    /// Lines rejected as malformed.
    pub malformed_frames: AtomicU64,
    /// Progress frames streamed.
    pub progress_frames: AtomicU64,
    /// Evaluations that degraded to a fallback engine
    /// (`BackendUsed::is_fallback`).
    pub fallbacks: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests currently being handled (gauge).
    pub in_flight: AtomicU64,
    /// Connections currently waiting in the accept queue (gauge).
    pub queue_depth: AtomicU64,
    /// Sum of per-request wall latencies, microseconds.
    pub total_latency_us: AtomicU64,
    /// Largest single-request wall latency, microseconds.
    pub max_latency_us: AtomicU64,
}

impl ServerMetrics {
    /// Fresh all-zero metrics.
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    /// Bumps the per-kind request counter for `kind` (a
    /// [`crate::protocol::Request::kind`] tag).
    pub fn count_request(&self, kind: &str) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let counter = match kind {
            "evaluate" => &self.evaluate_requests,
            "explore" => &self.explore_requests,
            "fault-campaign" => &self.campaign_requests,
            _ => &self.stats_requests,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one finished request's wall latency.
    pub fn record_latency_us(&self, us: u64) {
        self.total_latency_us.fetch_add(us, Ordering::Relaxed);
        self.max_latency_us.fetch_max(us, Ordering::Relaxed);
    }

    /// The `Stats` payload: server counters plus the cache counters, both
    /// absolute (`cache`) and as the delta accumulated since the server
    /// started (`cache_delta`).
    pub fn render(&self, cache_now: &CacheStats, cache_at_start: &CacheStats) -> Json {
        let delta = cache_now.delta(cache_at_start);
        let requests = self.requests.load(Ordering::Relaxed);
        let total_us = self.total_latency_us.load(Ordering::Relaxed);
        let mean_us = if requests > 0 {
            total_us as f64 / requests as f64
        } else {
            0.0
        };
        Json::obj(vec![
            ("requests", Json::from(requests)),
            (
                "evaluate_requests",
                Json::from(self.evaluate_requests.load(Ordering::Relaxed)),
            ),
            (
                "explore_requests",
                Json::from(self.explore_requests.load(Ordering::Relaxed)),
            ),
            (
                "campaign_requests",
                Json::from(self.campaign_requests.load(Ordering::Relaxed)),
            ),
            (
                "stats_requests",
                Json::from(self.stats_requests.load(Ordering::Relaxed)),
            ),
            ("errors", Json::from(self.errors.load(Ordering::Relaxed))),
            (
                "timeouts",
                Json::from(self.timeouts.load(Ordering::Relaxed)),
            ),
            (
                "oversized_frames",
                Json::from(self.oversized_frames.load(Ordering::Relaxed)),
            ),
            (
                "malformed_frames",
                Json::from(self.malformed_frames.load(Ordering::Relaxed)),
            ),
            (
                "progress_frames",
                Json::from(self.progress_frames.load(Ordering::Relaxed)),
            ),
            (
                "fallbacks",
                Json::from(self.fallbacks.load(Ordering::Relaxed)),
            ),
            (
                "connections",
                Json::from(self.connections.load(Ordering::Relaxed)),
            ),
            (
                "in_flight",
                Json::from(self.in_flight.load(Ordering::Relaxed)),
            ),
            (
                "queue_depth",
                Json::from(self.queue_depth.load(Ordering::Relaxed)),
            ),
            ("mean_latency_us", Json::Num(mean_us)),
            (
                "max_latency_us",
                Json::from(self.max_latency_us.load(Ordering::Relaxed)),
            ),
            ("cache", cache_stats_json(cache_now)),
            ("cache_delta", cache_stats_json(&delta)),
        ])
    }
}

/// Renders a [`CacheStats`] snapshot (or delta) as a JSON object.
pub fn cache_stats_json(s: &CacheStats) -> Json {
    Json::obj(vec![
        ("hits", Json::from(s.hits)),
        ("disk_hits", Json::from(s.disk_hits)),
        ("misses", Json::from(s.misses)),
        ("evictions", Json::from(s.evictions)),
        ("corrupt_entries", Json::from(s.corrupt_entries)),
        ("disk_write_errors", Json::from(s.disk_write_errors)),
        ("resident", Json::from(s.resident)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_payload_reports_counters_and_cache_delta() {
        let m = ServerMetrics::new();
        m.count_request("evaluate");
        m.count_request("stats");
        m.errors.fetch_add(1, Ordering::Relaxed);
        m.record_latency_us(100);
        m.record_latency_us(300);

        let start = CacheStats {
            hits: 2,
            misses: 1,
            ..CacheStats::default()
        };
        let now = CacheStats {
            hits: 9,
            misses: 2,
            resident: 2,
            ..CacheStats::default()
        };
        let payload = m.render(&now, &start);
        assert_eq!(payload.get("requests").and_then(Json::as_u64), Some(2));
        assert_eq!(
            payload.get("evaluate_requests").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(payload.get("errors").and_then(Json::as_u64), Some(1));
        assert_eq!(
            payload.get("mean_latency_us").and_then(Json::as_f64),
            Some(200.0)
        );
        assert_eq!(
            payload.get("max_latency_us").and_then(Json::as_u64),
            Some(300)
        );
        let delta = payload.get("cache_delta").unwrap();
        assert_eq!(delta.get("hits").and_then(Json::as_u64), Some(7));
        assert_eq!(delta.get("misses").and_then(Json::as_u64), Some(1));
        assert_eq!(
            payload
                .get("cache")
                .and_then(|c| c.get("hits"))
                .and_then(Json::as_u64),
            Some(9)
        );
    }
}
