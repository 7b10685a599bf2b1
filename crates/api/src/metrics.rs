//! A tenant's service metrics, in process and on the wire.
//!
//! `templar-service` keeps the live counters as atomics and exports them
//! straight into [`MetricsReport`]: the one struct that
//! `TemplarService::metrics` returns, that a registry client receives from
//! a `Metrics` request, and that the Prometheus exposition reads.  Nothing
//! is copied between a service-side and a wire-side form, so nothing can
//! be lost at the boundary — including the columnar data-plane gauges
//! (interner / CSR sizes, compactions) and the skipped-statement count that
//! makes malformed bootstrap logs observable.

use serde::{Deserialize, Serialize};
use templar_core::{RequestTrace, SearchStats};

/// One cumulative histogram bucket: how many observations were `≤ le_us`
/// microseconds.  `le_us == u64::MAX` is the `+Inf` bucket and always equals
/// the histogram's total count — the same cumulative-bucket contract as
/// Prometheus' `le` label, so expositions can be assembled from the wire
/// form without re-aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket, in microseconds (`u64::MAX` for
    /// `+Inf`).
    pub le_us: u64,
    /// Observations at or below the bound (cumulative).
    pub count: u64,
}

/// One pipeline stage's accumulated latency distribution across every
/// translation the tenant served.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageLatencyReport {
    /// The stage's stable name (`templar_core::Stage::name`).
    pub stage: String,
    /// Timed calls recorded for the stage.
    pub count: u64,
    /// Approximate quantiles (power-of-two bucket upper bounds), µs.
    pub p50_us: u64,
    pub p99_us: u64,
    /// Exact mean and sum of the recorded durations, µs.
    pub mean_us: u64,
    pub sum_us: u64,
    /// Cumulative buckets (trailing-empty buckets trimmed; the final entry
    /// is always `+Inf`).
    pub buckets: Vec<HistogramBucket>,
}

/// One captured slow query: the full per-stage breakdown of one of the
/// slowest translations the tenant has served, kept in a bounded ring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowQueryReport {
    /// Monotonic capture sequence number (later captures have larger
    /// values; survives evictions from the ring).
    pub seq: u64,
    /// The natural-language question as received.
    pub question: String,
    /// End-to-end latency, µs.
    pub total_us: u64,
    /// Whether the translation produced SQL.
    pub ok: bool,
    /// The per-stage breakdown recorded while serving the request.
    pub trace: RequestTrace,
    /// The configuration search's work counters for the request.
    pub search: SearchStats,
    /// True when the request was served from the translation cache; its
    /// breakdown then covers only the lookup, and `search` reports the
    /// original computation's counters.
    pub cache_hit: bool,
}

/// One tenant's write-availability state, answered by the `Health` request
/// — served even under admission overload (like the other observability
/// reads), so an operator can always ask "is this tenant taking writes?".
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HealthReport {
    /// `"healthy"` (full read/write) or `"degraded"` (read-only: the
    /// durable journal is failing and writes are refused).
    pub state: String,
    /// Gauge form of `state`: 0 = healthy, 1 = degraded.
    pub health_state: u64,
    /// Write entries refused while degraded, since start.
    pub degraded_entries_total: u64,
    /// In-line journal sync retries after a failure, since start.
    pub journal_retries_total: u64,
    /// Degraded episodes healed (staged tail replayed, writes restored).
    pub journal_heals_total: u64,
    /// Journal filesystem failures absorbed, since start.
    pub wal_io_errors: u64,
    /// First OS errno of the most recent journal failure episode, encoded
    /// as `errno + 1` (0 = none recorded).
    pub wal_last_errno: u64,
}

/// A point-in-time view of one tenant's serving health.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Translations served since start, and how many produced no SQL.
    pub translations_served: u64,
    pub empty_translations: u64,
    /// Best-first configuration-search counters, summed over every
    /// translation: configurations scored / provably pruned without
    /// scoring / prefix subtrees cut by the admissible bound, plus how
    /// many requests ran out of their search budget (best-effort rather
    /// than provably exact rankings — also flagged per candidate in its
    /// explanation).
    pub search_tuples_scored: u64,
    pub search_tuples_pruned: u64,
    pub search_bound_cutoffs: u64,
    pub search_budget_exhausted: u64,
    /// Approximate translation latency quantiles (power-of-two bucket upper
    /// bounds) and exact mean/sum, in microseconds.
    pub translate_p50_us: u64,
    pub translate_p99_us: u64,
    pub translate_mean_us: u64,
    pub translate_sum_us: u64,
    /// Cumulative end-to-end latency buckets (Prometheus `le` semantics;
    /// final entry is `+Inf`).
    pub translate_buckets: Vec<HistogramBucket>,
    /// Per-stage latency distributions, one entry per pipeline stage in
    /// execution order — populated by the serving layer, which traces every
    /// request it serves.
    pub stage_latencies: Vec<StageLatencyReport>,
    /// Ingestion counters: accepted into the queue / rejected at capacity /
    /// applied to the QFG / failed to parse on the live path.
    pub ingest_submitted: u64,
    pub ingest_rejected: u64,
    pub ingest_applied: u64,
    pub ingest_parse_errors: u64,
    /// Statements skipped as unparsable while assembling the service's
    /// query log from raw SQL text (`QueryLog::from_sql`) — e.g. the
    /// initial log a service was spawned from.  Kept separate from
    /// `ingest_parse_errors` (the live `submit_sql` path) so malformed
    /// bootstrap logs are observable instead of silently dropped.
    pub log_skipped_statements: u64,
    /// Entries accepted but not yet applied (queue + in-flight batch).
    pub ingest_lag: u64,
    /// Always 0: the query log only grows, so no entry is evicted.  Kept
    /// so the wire layout of protocol v5 does not change; to be removed at
    /// the next protocol version.
    pub log_evictions: u64,
    /// Snapshots published since start.
    pub snapshot_swaps: u64,
    /// Accepted-SQL feedback entries received over the `Feedback` request
    /// (a subset of `ingest_submitted`).
    pub feedback_accepted: u64,
    /// Write-ahead journal counters (0 on a non-durable tenant): records
    /// appended / fsyncs issued / records replayed at recovery / segments
    /// garbage-collected below the snapshot watermark / filesystem failures
    /// absorbed.
    pub wal_appended: u64,
    pub wal_fsyncs: u64,
    pub wal_replayed: u64,
    pub wal_segments_gc: u64,
    pub wal_io_errors: u64,
    /// First OS errno of the current (or most recent) journal failure
    /// episode, encoded as `errno + 1` (0 = none recorded) — tells
    /// operators `ENOSPC` (errno 28, reported as 29) from `EIO` (errno 5,
    /// reported as 6) straight from the report.
    pub wal_last_errno: u64,
    /// Write-availability state: 0 = healthy, 1 = degraded read-only
    /// (journal failing; `SubmitSql`/`Feedback` refused with `Degraded`) —
    /// the gauge encoding of `templar_service::HealthState`.
    pub health_state: u64,
    /// Write entries refused while degraded.
    pub degraded_entries_total: u64,
    /// In-line journal sync retries after a failure.
    pub journal_retries_total: u64,
    /// Degraded episodes healed (staged tail replayed, writes restored).
    pub journal_heals_total: u64,
    /// Bytes cut off a torn journal tail at recovery.  A non-zero value is
    /// the signature of actual (bounded, expected) data loss: one or more
    /// acknowledged-but-unsynced entries did not survive the crash.
    pub wal_truncated_bytes: u64,
    /// Largest decoded WAL batch the last recovery materialized — the
    /// bounded-memory replay's high-water mark, at most
    /// `max(ServiceConfig::recovery_batch_bytes, largest single record)`.
    /// 0 until a durable service recovers.
    pub recovery_peak_batch_bytes: u64,
    /// On-disk size of the last snapshot written or recovered from, bytes —
    /// the sectioned body including every frame header and CRC.
    pub snapshot_body_bytes: u64,
    /// Admission-control sheds: requests rejected with `Backpressure`
    /// before any work was queued — at the tenant's own in-flight quota
    /// (`ServiceConfig::max_inflight`), and at the serving plane's global
    /// in-flight cap (attributed to the tenant whose request was turned
    /// away).
    pub admission_tenant_shed: u64,
    pub admission_global_shed: u64,
    /// Sequence number of the last journal record applied to the master
    /// state — the watermark the next checkpoint will record.
    pub wal_applied_seq: u64,
    /// Join-cache statistics of the current snapshot (reset at each
    /// publish): hits / misses / entries evicted under the capacity bound /
    /// resident entries.
    pub join_cache_hits: u64,
    pub join_cache_misses: u64,
    pub join_cache_evictions: u64,
    pub join_cache_entries: u64,
    /// Query Fragment Graph size (live fragments / edges / queries).
    pub qfg_fragments: u64,
    pub qfg_edges: u64,
    pub qfg_queries: u64,
    /// Columnar data-plane gauges: the current snapshot's interner table
    /// size (always `qfg_fragments`, kept so the wire layout of protocol v5
    /// does not change) and edges resident in its compacted CSR, then the
    /// master graph's pending delta pairs (deltas accumulate there between
    /// publishes) and the compactions its lineage has undergone.
    pub qfg_interned_fragments: u64,
    pub qfg_csr_edges: u64,
    pub qfg_pending_deltas: u64,
    pub qfg_compactions: u64,
    /// Always 0: the graph keeps one pending delta and no sorted runs, so
    /// there are no runs to count or merge.  Kept so the wire layout of
    /// protocol v5 does not change; to be removed at the next protocol
    /// version.
    pub qfg_delta_runs: u64,
    pub qfg_run_merges: u64,
    /// Translation-cache counters: requests answered from the current
    /// snapshot's cache / requests that had to compute (and seeded it) /
    /// entries dropped at the capacity bound / snapshot publishes that
    /// replaced the cache with an empty one, plus the current entry gauge.
    /// Bypassed requests touch neither hits nor misses.
    pub translation_cache_hits: u64,
    pub translation_cache_misses: u64,
    pub translation_cache_evictions: u64,
    pub translation_cache_invalidations: u64,
    pub translation_cache_entries: u64,
    /// Similarity-model memo counters sampled from the current snapshot's
    /// `WordModel`: word-vector cache hits/misses since the model instance
    /// was built (reset at each publish, like the join-cache figures).
    pub word_memo_hits: u64,
    pub word_memo_misses: u64,
    /// Always 0: the phrase-vector memo they counted is gone (no request
    /// reached it).  They stay so that protocol v5's layout does not
    /// change, and go at the next `PROTOCOL_VERSION` bump.
    pub phrase_memo_hits: u64,
    pub phrase_memo_misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_reports_round_trip_through_serde() {
        let report = MetricsReport {
            translations_served: 7,
            search_tuples_scored: 19,
            search_tuples_pruned: 100,
            search_bound_cutoffs: 6,
            search_budget_exhausted: 1,
            qfg_interned_fragments: 42,
            qfg_csr_edges: 17,
            qfg_compactions: 3,
            log_skipped_statements: 2,
            feedback_accepted: 4,
            wal_appended: 9,
            wal_fsyncs: 2,
            wal_replayed: 5,
            wal_segments_gc: 1,
            wal_applied_seq: 9,
            translate_sum_us: 900,
            translate_buckets: vec![
                HistogramBucket { le_us: 0, count: 0 },
                HistogramBucket { le_us: 1, count: 2 },
                HistogramBucket {
                    le_us: u64::MAX,
                    count: 7,
                },
            ],
            stage_latencies: vec![StageLatencyReport {
                stage: "config_search".to_string(),
                count: 7,
                p50_us: 128,
                p99_us: 256,
                mean_us: 120,
                sum_us: 840,
                buckets: vec![HistogramBucket {
                    le_us: u64::MAX,
                    count: 7,
                }],
            }],
            ..MetricsReport::default()
        };
        let back: MetricsReport =
            serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        assert_eq!(back, report);
    }
}
