//! Service observability: counters, end-to-end and per-stage latency
//! histograms, and a Prometheus text-format exposition — exported as plain
//! structs so callers and benches can consume them without pulling in a
//! metrics framework.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use templar_api::{HistogramBucket, StageLatencyReport};
use templar_core::trace::{RequestTrace, Stage, STAGE_COUNT};

/// Number of power-of-two latency buckets.  Bucket 0 holds only 0 µs;
/// bucket `i ≥ 1` covers `[2^(i-1), 2^i)` microseconds; the last bucket is
/// open-ended.
const BUCKETS: usize = 40;

/// The service's write-availability state machine.
///
/// A service is born `Healthy`.  When journaling faults exhaust the bounded
/// in-line retry (`ServiceConfig::journal_retry_attempts`), the ingestion
/// worker moves it to `Degraded`: translations, metrics, traces, and
/// Prometheus keep serving from the current immutable snapshot, but
/// `Ingest`/`Feedback` are refused with a typed `Degraded` error instead of
/// queueing into a wedged journal.  The worker keeps probing the journal
/// with backoff; the first successful sync replays the staged tail and
/// returns the service to `Healthy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Full read/write service.
    Healthy,
    /// Read-only: the durable journal is failing; writes are refused.
    Degraded,
}

impl HealthState {
    /// Prometheus gauge encoding: 0 = healthy, 1 = degraded.
    pub fn as_gauge(self) -> u64 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
        }
    }

    fn from_gauge(v: u64) -> Self {
        if v == 0 {
            HealthState::Healthy
        } else {
            HealthState::Degraded
        }
    }

    /// Stable lowercase name, as carried on the wire by `HealthReport`.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
        }
    }
}

/// Lock-free service counters, updated by translation and ingestion paths.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    translations: AtomicU64,
    empty_translations: AtomicU64,
    search_tuples_scored: AtomicU64,
    search_tuples_pruned: AtomicU64,
    search_bound_cutoffs: AtomicU64,
    search_budget_exhausted: AtomicU64,
    ingest_submitted: AtomicU64,
    ingest_rejected: AtomicU64,
    ingest_applied: AtomicU64,
    ingest_parse_errors: AtomicU64,
    log_skipped_statements: AtomicU64,
    evictions: AtomicU64,
    snapshot_swaps: AtomicU64,
    feedback_accepted: AtomicU64,
    wal_appended: AtomicU64,
    wal_fsyncs: AtomicU64,
    wal_replayed: AtomicU64,
    wal_segments_gc: AtomicU64,
    wal_io_errors: AtomicU64,
    /// First OS errno of the current (or most recent) journal failure
    /// episode, stored as `errno + 1` so 0 means "none recorded".
    wal_last_errno: AtomicU64,
    /// 0 = healthy, 1 = degraded ([`HealthState`] gauge encoding).
    health_state: AtomicU64,
    degraded_entries: AtomicU64,
    journal_retries: AtomicU64,
    journal_heals: AtomicU64,
    wal_truncated_bytes: AtomicU64,
    recovery_peak_batch_bytes: AtomicU64,
    snapshot_body_bytes: AtomicU64,
    admission_tenant_shed: AtomicU64,
    admission_global_shed: AtomicU64,
    translation_cache_hits: AtomicU64,
    translation_cache_misses: AtomicU64,
    translation_cache_evictions: AtomicU64,
    translation_cache_invalidations: AtomicU64,
    latency_buckets: LatencyHistogram,
    stage_latency: [LatencyHistogram; STAGE_COUNT],
}

#[derive(Debug)]
struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
    total_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    fn record(&self, latency: Duration) {
        self.record_us(latency.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Record one observation.  0 µs lands in bucket 0; `us ≥ 1` lands in
    /// bucket `floor(log2(us)) + 1`, i.e. bucket `i` covers `[2^(i-1), 2^i)`.
    fn record_us(&self, us: u64) {
        let bucket = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    fn sum_us(&self) -> u64 {
        self.total_us.load(Ordering::Relaxed)
    }

    fn mean_us(&self) -> u64 {
        self.sum_us().checked_div(self.count()).unwrap_or(0)
    }

    /// Approximate quantile: the upper bound of the bucket where the
    /// cumulative count crosses `q`.
    fn quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q).ceil() as u64;
        let mut seen = 0u64;
        for (i, count) in counts.iter().enumerate() {
            seen += count;
            if seen >= target {
                // Upper bound of bucket i is 2^i µs (bucket i covers
                // [2^(i-1), 2^i); bucket 0 is exactly 0 µs and still
                // reports 2^0 = 1 as its conservative bound).
                return 1u64 << i.min(63);
            }
        }
        1u64 << (BUCKETS - 1).min(63)
    }

    /// Export cumulative buckets with Prometheus `le` semantics: entry
    /// `le_us = 2^i − 1` counts every observation strictly below `2^i` µs
    /// (exact for integer microseconds), trailing empty buckets are
    /// trimmed, and the final `+Inf` entry (`le_us == u64::MAX`) always
    /// carries the total count.
    fn cumulative_buckets(&self) -> Vec<HistogramBucket> {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let last_nonzero = counts.iter().rposition(|&c| c > 0);
        let mut buckets = Vec::new();
        let mut cumulative = 0u64;
        if let Some(last) = last_nonzero {
            // The open-ended final bucket has no finite bound — it is
            // covered by +Inf below.
            for (i, &count) in counts.iter().enumerate().take(last.min(BUCKETS - 2) + 1) {
                cumulative += count;
                buckets.push(HistogramBucket {
                    le_us: (1u64 << i.min(63)) - 1,
                    count: cumulative,
                });
            }
        }
        buckets.push(HistogramBucket {
            le_us: u64::MAX,
            count: counts.iter().sum(),
        });
        buckets
    }

    /// Project the histogram into its wire report for one pipeline stage.
    fn stage_report(&self, stage: Stage) -> StageLatencyReport {
        StageLatencyReport {
            stage: stage.name().to_string(),
            count: self.count(),
            p50_us: self.quantile_us(0.50),
            p99_us: self.quantile_us(0.99),
            mean_us: self.mean_us(),
            sum_us: self.sum_us(),
            buckets: self.cumulative_buckets(),
        }
    }
}

impl ServiceMetrics {
    pub(crate) fn record_translation(&self, latency: Duration, produced_results: bool) {
        self.translations.fetch_add(1, Ordering::Relaxed);
        if !produced_results {
            self.empty_translations.fetch_add(1, Ordering::Relaxed);
        }
        self.latency_buckets.record(latency);
    }

    pub(crate) fn record_search(&self, stats: &templar_core::SearchStats) {
        self.search_tuples_scored
            .fetch_add(stats.tuples_scored, Ordering::Relaxed);
        self.search_tuples_pruned
            .fetch_add(stats.tuples_pruned, Ordering::Relaxed);
        self.search_bound_cutoffs
            .fetch_add(stats.bound_cutoffs, Ordering::Relaxed);
        if stats.budget_exhausted {
            self.search_budget_exhausted.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_submitted(&self) {
        self.ingest_submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected(&self) {
        self.ingest_rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_applied(&self, n: u64) {
        self.ingest_applied.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_parse_errors(&self, n: u64) {
        self.ingest_parse_errors.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_log_skipped(&self, n: u64) {
        self.log_skipped_statements.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_evictions(&self, n: u64) {
        self.evictions.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_swap(&self) {
        self.snapshot_swaps.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_feedback(&self) {
        self.feedback_accepted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_wal_appended(&self, n: u64) {
        self.wal_appended.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_wal_fsync(&self) {
        self.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_wal_replayed(&self, n: u64) {
        self.wal_replayed.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_wal_segments_gc(&self, n: u64) {
        self.wal_segments_gc.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_wal_io_errors(&self, n: u64) {
        self.wal_io_errors.fetch_add(n, Ordering::Relaxed);
    }

    /// Remember the first OS errno of a journal failure episode so
    /// operators can tell `ENOSPC` from `EIO` in the metrics report.
    pub(crate) fn record_wal_errno(&self, errno: i32) {
        self.wal_last_errno
            .store(errno.unsigned_abs() as u64 + 1, Ordering::Relaxed);
    }

    /// Current write-availability state.
    pub fn health_state(&self) -> HealthState {
        HealthState::from_gauge(self.health_state.load(Ordering::Relaxed))
    }

    pub(crate) fn is_degraded(&self) -> bool {
        self.health_state() == HealthState::Degraded
    }

    /// Enter degraded read-only mode (idempotent).
    pub(crate) fn enter_degraded(&self) {
        self.health_state.store(1, Ordering::Relaxed);
    }

    /// One successful journal heal: the probe's sync went through, the
    /// staged tail is durable again, and writes are restored.
    pub(crate) fn record_journal_heal(&self) {
        self.journal_heals.fetch_add(1, Ordering::Relaxed);
        self.health_state.store(0, Ordering::Relaxed);
    }

    /// One in-line journal sync retry (after the first failed attempt).
    pub(crate) fn record_journal_retry(&self) {
        self.journal_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// One `Ingest`/`Feedback` entry refused because the service is
    /// degraded.
    pub(crate) fn record_degraded_refusal(&self) {
        self.degraded_entries.fetch_add(1, Ordering::Relaxed);
    }

    /// One request shed because the tenant's in-flight quota
    /// (`ServiceConfig::max_inflight`) was full.
    pub(crate) fn record_tenant_shed(&self) {
        self.admission_tenant_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// One request shed because the serving plane's *global* in-flight cap
    /// was full, attributed to the tenant the request targeted.
    pub(crate) fn record_global_shed(&self) {
        self.admission_global_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// One translation answered from the snapshot's translation cache.
    pub(crate) fn record_translation_cache_hit(&self) {
        self.translation_cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// One translation that had to compute (and, on success, seeded the
    /// translation cache).  Bypassed requests record neither hit nor miss.
    pub(crate) fn record_translation_cache_miss(&self) {
        self.translation_cache_misses
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Entries dropped from the translation cache at its capacity bound.
    pub(crate) fn record_translation_cache_evictions(&self, n: u64) {
        self.translation_cache_evictions
            .fetch_add(n, Ordering::Relaxed);
    }

    /// One snapshot publish, which replaced the translation cache with an
    /// empty one.
    pub(crate) fn record_translation_cache_invalidation(&self) {
        self.translation_cache_invalidations
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one finished request's per-stage breakdown into the stage
    /// latency histograms: one observation per stage that ran (the stage's
    /// accumulated duration within the request).
    pub(crate) fn record_stage_latencies(&self, trace: &RequestTrace) {
        for stage in Stage::ALL {
            let nanos = trace.stage_nanos(stage);
            let ran = trace
                .stages
                .iter()
                .find(|s| s.stage == stage.name())
                .is_some_and(|s| s.calls > 0);
            if ran {
                self.stage_latency[stage as usize].record_us(nanos / 1_000);
            }
        }
    }

    pub(crate) fn record_wal_truncated(&self, bytes: u64) {
        self.wal_truncated_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Largest decoded WAL batch the last recovery materialized — recovery's
    /// bounded-memory high-water mark.
    pub(crate) fn record_recovery_peak_batch_bytes(&self, bytes: u64) {
        self.recovery_peak_batch_bytes
            .store(bytes, Ordering::Relaxed);
    }

    /// On-disk size of the last snapshot written or recovered from.
    pub(crate) fn record_snapshot_body_bytes(&self, bytes: u64) {
        self.snapshot_body_bytes.store(bytes, Ordering::Relaxed);
    }

    pub(crate) fn ingest_applied_total(&self) -> u64 {
        self.ingest_applied.load(Ordering::Relaxed)
            + self.ingest_parse_errors.load(Ordering::Relaxed)
    }

    pub(crate) fn ingest_accepted_total(&self) -> u64 {
        // Saturating: the two counters are independent relaxed atomics, so a
        // reader racing `submit_sql` can transiently observe the rejected
        // increment before the submitted one.
        self.ingest_submitted
            .load(Ordering::Relaxed)
            .saturating_sub(self.ingest_rejected.load(Ordering::Relaxed))
    }

    /// Export a point-in-time view.  QFG and cache figures are filled in by
    /// the service, which owns the current snapshot.
    pub(crate) fn export(&self) -> MetricsSnapshot {
        let translations = self.translations.load(Ordering::Relaxed);
        let mean_us = self
            .latency_buckets
            .total_us
            .load(Ordering::Relaxed)
            .checked_div(translations)
            .unwrap_or(0);
        let stage_latencies = Stage::ALL
            .iter()
            .map(|&stage| self.stage_latency[stage as usize].stage_report(stage))
            .collect();
        MetricsSnapshot {
            translations_served: translations,
            empty_translations: self.empty_translations.load(Ordering::Relaxed),
            search_tuples_scored: self.search_tuples_scored.load(Ordering::Relaxed),
            search_tuples_pruned: self.search_tuples_pruned.load(Ordering::Relaxed),
            search_bound_cutoffs: self.search_bound_cutoffs.load(Ordering::Relaxed),
            search_budget_exhausted: self.search_budget_exhausted.load(Ordering::Relaxed),
            translate_p50_us: self.latency_buckets.quantile_us(0.50),
            translate_p99_us: self.latency_buckets.quantile_us(0.99),
            translate_mean_us: mean_us,
            translate_sum_us: self.latency_buckets.sum_us(),
            translate_buckets: self.latency_buckets.cumulative_buckets(),
            stage_latencies,
            ingest_submitted: self.ingest_submitted.load(Ordering::Relaxed),
            ingest_rejected: self.ingest_rejected.load(Ordering::Relaxed),
            ingest_applied: self.ingest_applied.load(Ordering::Relaxed),
            ingest_parse_errors: self.ingest_parse_errors.load(Ordering::Relaxed),
            log_skipped_statements: self.log_skipped_statements.load(Ordering::Relaxed),
            ingest_lag: self
                .ingest_accepted_total()
                .saturating_sub(self.ingest_applied_total()),
            log_evictions: self.evictions.load(Ordering::Relaxed),
            snapshot_swaps: self.snapshot_swaps.load(Ordering::Relaxed),
            feedback_accepted: self.feedback_accepted.load(Ordering::Relaxed),
            wal_appended: self.wal_appended.load(Ordering::Relaxed),
            wal_fsyncs: self.wal_fsyncs.load(Ordering::Relaxed),
            wal_replayed: self.wal_replayed.load(Ordering::Relaxed),
            wal_segments_gc: self.wal_segments_gc.load(Ordering::Relaxed),
            wal_io_errors: self.wal_io_errors.load(Ordering::Relaxed),
            wal_last_errno: self.wal_last_errno.load(Ordering::Relaxed),
            health_state: self.health_state.load(Ordering::Relaxed),
            degraded_entries_total: self.degraded_entries.load(Ordering::Relaxed),
            journal_retries_total: self.journal_retries.load(Ordering::Relaxed),
            journal_heals_total: self.journal_heals.load(Ordering::Relaxed),
            wal_truncated_bytes: self.wal_truncated_bytes.load(Ordering::Relaxed),
            recovery_peak_batch_bytes: self.recovery_peak_batch_bytes.load(Ordering::Relaxed),
            snapshot_body_bytes: self.snapshot_body_bytes.load(Ordering::Relaxed),
            admission_tenant_shed: self.admission_tenant_shed.load(Ordering::Relaxed),
            admission_global_shed: self.admission_global_shed.load(Ordering::Relaxed),
            translation_cache_hits: self.translation_cache_hits.load(Ordering::Relaxed),
            translation_cache_misses: self.translation_cache_misses.load(Ordering::Relaxed),
            translation_cache_evictions: self.translation_cache_evictions.load(Ordering::Relaxed),
            translation_cache_invalidations: self
                .translation_cache_invalidations
                .load(Ordering::Relaxed),
            translation_cache_entries: 0,
            word_memo_hits: 0,
            word_memo_misses: 0,
            phrase_memo_hits: 0,
            phrase_memo_misses: 0,
            wal_applied_seq: 0,
            join_cache_hits: 0,
            join_cache_misses: 0,
            join_cache_evictions: 0,
            join_cache_entries: 0,
            qfg_fragments: 0,
            qfg_edges: 0,
            qfg_queries: 0,
            qfg_interned_fragments: 0,
            qfg_csr_edges: 0,
            qfg_pending_deltas: 0,
            qfg_compactions: 0,
            qfg_delta_runs: 0,
            qfg_run_merges: 0,
        }
    }
}

/// A point-in-time view of the service's health, as plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Translations served since start.
    pub translations_served: u64,
    /// Translations that produced no SQL candidate.
    pub empty_translations: u64,
    /// Best-first configuration-search counters, summed over every
    /// translation served: complete configurations scored, configurations
    /// the admissible bound skipped without scoring, prefix subtrees cut
    /// by the bound, and how many requests exhausted their
    /// `search_budget` (returning a best-effort instead of provably exact
    /// ranking — also flagged per candidate in its explanation).
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
    /// applied to the QFG / failed to parse.
    pub ingest_submitted: u64,
    pub ingest_rejected: u64,
    pub ingest_applied: u64,
    pub ingest_parse_errors: u64,
    /// Statements skipped as unparsable while assembling a [`QueryLog`]
    /// from raw SQL text (`QueryLog::from_sql`) — e.g. the initial log a
    /// service was spawned from.  Kept separate from `ingest_parse_errors`
    /// (the live `submit_sql` path) so malformed bootstrap logs are
    /// observable instead of silently dropped.
    pub log_skipped_statements: u64,
    /// Entries accepted but not yet applied (queue + in-flight batch).
    pub ingest_lag: u64,
    /// Log entries evicted under `max_log_entries`.
    pub log_evictions: u64,
    /// Snapshots published since start.
    pub snapshot_swaps: u64,
    /// Accepted-SQL feedback entries received over the `Feedback` wire
    /// request (a subset of `ingest_submitted` — feedback rides the same
    /// durable ingest path).
    pub feedback_accepted: u64,
    /// Write-ahead journal counters (all 0 on a non-durable service):
    /// records appended / fsyncs issued / records replayed at recovery /
    /// segments garbage-collected below the snapshot watermark / append or
    /// fsync failures (entries *not* covered by the journal).
    pub wal_appended: u64,
    pub wal_fsyncs: u64,
    pub wal_replayed: u64,
    pub wal_segments_gc: u64,
    pub wal_io_errors: u64,
    /// First OS errno of the current (or most recent) journal failure
    /// episode, encoded as `errno + 1` (0 = none recorded) — lets
    /// operators tell `ENOSPC` (28) from `EIO` (5) without log access.
    pub wal_last_errno: u64,
    /// Write-availability state: 0 = healthy, 1 = degraded read-only
    /// ([`HealthState`] gauge encoding).
    pub health_state: u64,
    /// `Ingest`/`Feedback` entries refused while degraded.
    pub degraded_entries_total: u64,
    /// In-line journal sync retries (attempts after the first failure).
    pub journal_retries_total: u64,
    /// Successful journal heals: degraded episodes that ended with the
    /// staged tail replayed and writes restored.
    pub journal_heals_total: u64,
    /// Bytes cut off a torn journal tail at recovery — a non-zero value is
    /// the signature of actual (bounded, expected) data loss: one or more
    /// acknowledged-but-unsynced entries did not survive the crash.
    pub wal_truncated_bytes: u64,
    /// Largest decoded WAL batch the last recovery materialized — the
    /// bounded-memory replay's high-water mark, at most
    /// `max(ServiceConfig::recovery_batch_bytes, largest single record)`.
    /// 0 until a durable service recovers.
    pub recovery_peak_batch_bytes: u64,
    /// On-disk size of the last snapshot written (or recovered from), in
    /// bytes — the sectioned body including every frame header and CRC.
    pub snapshot_body_bytes: u64,
    /// Admission-control sheds: requests rejected with `Backpressure`
    /// before any work was queued, split by which limit fired — the
    /// tenant's own in-flight quota (`ServiceConfig::max_inflight`) versus
    /// the serving plane's global in-flight cap (global sheds are
    /// attributed to the tenant whose request was turned away).
    pub admission_tenant_shed: u64,
    pub admission_global_shed: u64,
    /// Sequence number of the last journal record applied to the master
    /// state — the watermark the next checkpoint will record.
    pub wal_applied_seq: u64,
    /// Join-cache statistics of the *current* snapshot (reset at swap):
    /// hits / misses / entries evicted under the capacity bound / resident
    /// entries.
    pub join_cache_hits: u64,
    pub join_cache_misses: u64,
    pub join_cache_evictions: u64,
    pub join_cache_entries: u64,
    /// Size of the current snapshot's Query Fragment Graph.
    pub qfg_fragments: u64,
    pub qfg_edges: u64,
    pub qfg_queries: u64,
    /// Columnar data-plane gauges of the current snapshot: interner table
    /// size (live + recyclable id slots), edges resident in the compacted
    /// CSR, pending delta-log pairs (0 on a published snapshot, which is
    /// compacted on construction), and the number of compactions the
    /// graph's lineage has undergone.
    pub qfg_interned_fragments: u64,
    pub qfg_csr_edges: u64,
    pub qfg_pending_deltas: u64,
    pub qfg_compactions: u64,
    /// Tiered-compaction gauges of the master graph: sorted delta runs
    /// currently resident (tiers awaiting the next publish fold) and the
    /// cumulative count of geometric run merges the lineage has performed.
    /// Filled in by the service, which owns the master state.
    pub qfg_delta_runs: u64,
    pub qfg_run_merges: u64,
    /// Translation-cache counters: requests answered from the current
    /// snapshot's cache / requests that computed (and seeded it) / entries
    /// dropped at the capacity bound / snapshot publishes that replaced the
    /// cache with an empty one.  Bypassed requests touch neither hits nor
    /// misses.  The entry gauge is filled in by the service, which owns the
    /// cache.
    pub translation_cache_hits: u64,
    pub translation_cache_misses: u64,
    pub translation_cache_evictions: u64,
    pub translation_cache_invalidations: u64,
    pub translation_cache_entries: u64,
    /// Similarity-model memo counters sampled from the current snapshot's
    /// `WordModel` (reset at swap, like the join-cache figures): single-word
    /// and phrase vector cache hits/misses.  Filled in by the service.
    pub word_memo_hits: u64,
    pub word_memo_misses: u64,
    pub phrase_memo_hits: u64,
    pub phrase_memo_misses: u64,
}

impl MetricsSnapshot {
    /// This snapshot as a Prometheus text-format exposition for one tenant.
    pub fn to_prometheus_text(&self, tenant: &str) -> String {
        prometheus_text(&[(tenant, self)])
    }
}

/// Every numeric family of the exposition: `(metric name, TYPE, HELP,
/// extractor)`.  Counters monotonically accumulate since service start;
/// gauges are point-in-time.
type FieldGetter = fn(&MetricsSnapshot) -> u64;
const PROM_FAMILIES: &[(&str, &str, &str, FieldGetter)] = &[
    (
        "templar_translations_total",
        "counter",
        "Translations served since start.",
        |s| s.translations_served,
    ),
    (
        "templar_empty_translations_total",
        "counter",
        "Translations that produced no SQL candidate.",
        |s| s.empty_translations,
    ),
    (
        "templar_search_tuples_scored_total",
        "counter",
        "Configurations fully scored by the best-first search.",
        |s| s.search_tuples_scored,
    ),
    (
        "templar_search_tuples_pruned_total",
        "counter",
        "Configurations skipped by the admissible bound without scoring.",
        |s| s.search_tuples_pruned,
    ),
    (
        "templar_search_bound_cutoffs_total",
        "counter",
        "Prefix subtrees cut by the admissible bound.",
        |s| s.search_bound_cutoffs,
    ),
    (
        "templar_search_budget_exhausted_total",
        "counter",
        "Requests whose configuration search ran out of budget.",
        |s| s.search_budget_exhausted,
    ),
    (
        "templar_ingest_submitted_total",
        "counter",
        "SQL entries accepted into the ingestion queue.",
        |s| s.ingest_submitted,
    ),
    (
        "templar_ingest_rejected_total",
        "counter",
        "SQL entries rejected at queue capacity.",
        |s| s.ingest_rejected,
    ),
    (
        "templar_ingest_applied_total",
        "counter",
        "SQL entries applied to the Query Fragment Graph.",
        |s| s.ingest_applied,
    ),
    (
        "templar_ingest_parse_errors_total",
        "counter",
        "SQL entries that failed to parse on the live ingest path.",
        |s| s.ingest_parse_errors,
    ),
    (
        "templar_log_skipped_statements_total",
        "counter",
        "Statements skipped as unparsable while assembling the bootstrap log.",
        |s| s.log_skipped_statements,
    ),
    (
        "templar_log_evictions_total",
        "counter",
        "Log entries evicted under the retention bound.",
        |s| s.log_evictions,
    ),
    (
        "templar_snapshot_swaps_total",
        "counter",
        "Snapshots published since start.",
        |s| s.snapshot_swaps,
    ),
    (
        "templar_feedback_accepted_total",
        "counter",
        "Accepted-SQL feedback entries received.",
        |s| s.feedback_accepted,
    ),
    (
        "templar_wal_appended_total",
        "counter",
        "Write-ahead journal records appended.",
        |s| s.wal_appended,
    ),
    (
        "templar_wal_fsyncs_total",
        "counter",
        "Write-ahead journal fsyncs issued.",
        |s| s.wal_fsyncs,
    ),
    (
        "templar_wal_replayed_total",
        "counter",
        "Journal records replayed at recovery.",
        |s| s.wal_replayed,
    ),
    (
        "templar_wal_segments_gc_total",
        "counter",
        "Journal segments garbage-collected.",
        |s| s.wal_segments_gc,
    ),
    (
        "templar_wal_io_errors_total",
        "counter",
        "Journal filesystem failures absorbed.",
        |s| s.wal_io_errors,
    ),
    (
        "templar_wal_truncated_bytes_total",
        "counter",
        "Bytes cut off a torn journal tail at recovery.",
        |s| s.wal_truncated_bytes,
    ),
    (
        "templar_wal_last_errno",
        "gauge",
        "First OS errno of the last journal failure episode, plus one (0 = none).",
        |s| s.wal_last_errno,
    ),
    (
        "templar_health_state",
        "gauge",
        "Write-availability state: 0 = healthy, 1 = degraded read-only.",
        |s| s.health_state,
    ),
    (
        "templar_degraded_entries_total",
        "counter",
        "Ingest/feedback entries refused while degraded.",
        |s| s.degraded_entries_total,
    ),
    (
        "templar_journal_retries_total",
        "counter",
        "In-line journal sync retries after a failure.",
        |s| s.journal_retries_total,
    ),
    (
        "templar_journal_heals_total",
        "counter",
        "Degraded episodes healed with the staged tail replayed.",
        |s| s.journal_heals_total,
    ),
    (
        "templar_admission_tenant_shed_total",
        "counter",
        "Requests shed at the tenant's in-flight quota.",
        |s| s.admission_tenant_shed,
    ),
    (
        "templar_admission_global_shed_total",
        "counter",
        "Requests shed at the serving plane's global in-flight cap.",
        |s| s.admission_global_shed,
    ),
    (
        "templar_ingest_lag",
        "gauge",
        "Entries accepted but not yet applied.",
        |s| s.ingest_lag,
    ),
    (
        "templar_wal_applied_seq",
        "gauge",
        "Sequence number of the last journal record applied.",
        |s| s.wal_applied_seq,
    ),
    (
        "templar_join_cache_hits",
        "gauge",
        "Join-cache hits of the current snapshot.",
        |s| s.join_cache_hits,
    ),
    (
        "templar_join_cache_misses",
        "gauge",
        "Join-cache misses of the current snapshot.",
        |s| s.join_cache_misses,
    ),
    (
        "templar_join_cache_evictions",
        "gauge",
        "Join-cache evictions of the current snapshot.",
        |s| s.join_cache_evictions,
    ),
    (
        "templar_join_cache_entries",
        "gauge",
        "Resident join-cache entries.",
        |s| s.join_cache_entries,
    ),
    (
        "templar_qfg_fragments",
        "gauge",
        "Live query fragments in the current snapshot's QFG.",
        |s| s.qfg_fragments,
    ),
    (
        "templar_qfg_edges",
        "gauge",
        "Co-occurrence edges in the current snapshot's QFG.",
        |s| s.qfg_edges,
    ),
    (
        "templar_qfg_queries",
        "gauge",
        "Log queries folded into the current snapshot's QFG.",
        |s| s.qfg_queries,
    ),
    (
        "templar_qfg_interned_fragments",
        "gauge",
        "Interner table size of the columnar data plane.",
        |s| s.qfg_interned_fragments,
    ),
    (
        "templar_qfg_csr_edges",
        "gauge",
        "Edges resident in the compacted CSR.",
        |s| s.qfg_csr_edges,
    ),
    (
        "templar_qfg_pending_deltas",
        "gauge",
        "Pending delta-log pairs awaiting compaction.",
        |s| s.qfg_pending_deltas,
    ),
    (
        "templar_qfg_compactions_total",
        "counter",
        "Compactions the QFG lineage has undergone.",
        |s| s.qfg_compactions,
    ),
    (
        "templar_qfg_delta_runs",
        "gauge",
        "Sorted delta runs resident in the master graph's tiered compactor.",
        |s| s.qfg_delta_runs,
    ),
    (
        "templar_qfg_run_merges_total",
        "counter",
        "Geometric delta-run merges the QFG lineage has performed.",
        |s| s.qfg_run_merges,
    ),
    (
        "templar_recovery_peak_batch_bytes",
        "gauge",
        "Largest decoded WAL batch the last recovery materialized.",
        |s| s.recovery_peak_batch_bytes,
    ),
    (
        "templar_snapshot_body_bytes",
        "gauge",
        "On-disk size of the last snapshot written or recovered from.",
        |s| s.snapshot_body_bytes,
    ),
    (
        "templar_translation_cache_hits_total",
        "counter",
        "Translations answered from the current snapshot's translation cache.",
        |s| s.translation_cache_hits,
    ),
    (
        "templar_translation_cache_misses_total",
        "counter",
        "Translations computed because the cache had no entry.",
        |s| s.translation_cache_misses,
    ),
    (
        "templar_translation_cache_evictions_total",
        "counter",
        "Translation-cache entries dropped at the capacity bound.",
        |s| s.translation_cache_evictions,
    ),
    (
        "templar_translation_cache_invalidations_total",
        "counter",
        "Snapshot publishes that replaced the translation cache with an empty one.",
        |s| s.translation_cache_invalidations,
    ),
    (
        "templar_translation_cache_entries",
        "gauge",
        "Resident translation-cache entries.",
        |s| s.translation_cache_entries,
    ),
    (
        "templar_word_memo_hits",
        "gauge",
        "Word-vector memo hits of the current snapshot's similarity model.",
        |s| s.word_memo_hits,
    ),
    (
        "templar_word_memo_misses",
        "gauge",
        "Word-vector memo misses of the current snapshot's similarity model.",
        |s| s.word_memo_misses,
    ),
    (
        "templar_phrase_memo_hits",
        "gauge",
        "Phrase-vector memo hits of the current snapshot's similarity model.",
        |s| s.phrase_memo_hits,
    ),
    (
        "templar_phrase_memo_misses",
        "gauge",
        "Phrase-vector memo misses of the current snapshot's similarity model.",
        |s| s.phrase_memo_misses,
    ),
];

fn prom_bucket_lines(
    out: &mut String,
    family: &str,
    labels: &str,
    buckets: &[HistogramBucket],
    sum_us: u64,
    count: u64,
) {
    for bucket in buckets {
        let le = if bucket.le_us == u64::MAX {
            "+Inf".to_string()
        } else {
            bucket.le_us.to_string()
        };
        out.push_str(&format!(
            "{family}_bucket{{{labels}le=\"{le}\"}} {}\n",
            bucket.count
        ));
    }
    out.push_str(&format!(
        "{family}_sum{{{labels_trimmed}}} {sum_us}\n",
        labels_trimmed = labels.trim_end_matches(',')
    ));
    out.push_str(&format!(
        "{family}_count{{{labels_trimmed}}} {count}\n",
        labels_trimmed = labels.trim_end_matches(',')
    ));
}

/// Assemble a Prometheus text-format exposition over any number of tenants.
/// Each metric family's `# HELP` / `# TYPE` header appears exactly once,
/// with one sample per tenant under a `tenant` label — the format's
/// uniqueness rule, which is why expositions are assembled here rather than
/// concatenated per tenant.
pub fn prometheus_text(tenants: &[(&str, &MetricsSnapshot)]) -> String {
    let mut out = String::new();
    for (name, kind, help, get) in PROM_FAMILIES {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for (tenant, snapshot) in tenants {
            out.push_str(&format!(
                "{name}{{tenant=\"{tenant}\"}} {}\n",
                get(snapshot)
            ));
        }
    }
    let family = "templar_translate_latency_microseconds";
    out.push_str(&format!(
        "# HELP {family} End-to-end translation latency.\n# TYPE {family} histogram\n"
    ));
    for (tenant, snapshot) in tenants {
        prom_bucket_lines(
            &mut out,
            family,
            &format!("tenant=\"{tenant}\","),
            &snapshot.translate_buckets,
            snapshot.translate_sum_us,
            snapshot.translations_served,
        );
    }
    let family = "templar_stage_latency_microseconds";
    out.push_str(&format!(
        "# HELP {family} Per-stage translation latency, labelled by pipeline stage.\n# TYPE {family} histogram\n"
    ));
    for (tenant, snapshot) in tenants {
        for stage in &snapshot.stage_latencies {
            prom_bucket_lines(
                &mut out,
                family,
                &format!("tenant=\"{tenant}\",stage=\"{}\",", stage.stage),
                &stage.buckets,
                stage.sum_us,
                stage.count,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded() {
        let m = ServiceMetrics::default();
        for us in [10u64, 20, 40, 80, 5000] {
            m.record_translation(Duration::from_micros(us), true);
        }
        let snap = m.export();
        assert_eq!(snap.translations_served, 5);
        assert!(snap.translate_p50_us <= snap.translate_p99_us);
        // p99 bucket upper bound must cover the 5 ms outlier.
        assert!(snap.translate_p99_us >= 5000);
        assert!(snap.translate_mean_us >= 10);
    }

    #[test]
    fn lag_is_submitted_minus_applied() {
        let m = ServiceMetrics::default();
        for _ in 0..5 {
            m.record_submitted();
        }
        m.record_rejected();
        m.record_applied(3);
        let snap = m.export();
        assert_eq!(snap.ingest_submitted, 5);
        assert_eq!(snap.ingest_lag, 1); // 5 submitted - 1 rejected - 3 applied
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let snap = ServiceMetrics::default().export();
        assert_eq!(snap.translate_p50_us, 0);
        assert_eq!(snap.translate_p99_us, 0);
        assert_eq!(snap.translate_sum_us, 0);
        // Even an empty histogram exposes its +Inf bucket.
        assert_eq!(
            snap.translate_buckets,
            vec![HistogramBucket {
                le_us: u64::MAX,
                count: 0
            }]
        );
    }

    #[test]
    fn bucket_boundaries_match_the_documented_semantics() {
        // Bucket 0 holds only 0 µs; bucket i ≥ 1 covers [2^(i-1), 2^i).
        let h = LatencyHistogram::default();
        h.record_us(0);
        h.record_us(1); // bucket 1: [1, 2)
        h.record_us(2); // bucket 2: [2, 4)
        h.record_us(3); // bucket 2
        h.record_us(1024); // bucket 11: [1024, 2048)
        let count_of = |i: usize| h.counts[i].load(Ordering::Relaxed);
        assert_eq!(count_of(0), 1);
        assert_eq!(count_of(1), 1);
        assert_eq!(count_of(2), 2);
        assert_eq!(count_of(10), 0);
        assert_eq!(count_of(11), 1);
    }

    #[test]
    fn quantiles_report_the_bucket_upper_bound() {
        let h = LatencyHistogram::default();
        h.record_us(1);
        assert_eq!(h.quantile_us(0.5), 2, "1 µs lives in [1, 2) → bound 2");
        let h = LatencyHistogram::default();
        h.record_us(1024);
        assert_eq!(
            h.quantile_us(0.5),
            2048,
            "1024 µs lives in [1024, 2048) → bound 2048"
        );
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_end_at_inf() {
        let h = LatencyHistogram::default();
        for us in [0u64, 1, 3, 3, 700, 1024] {
            h.record_us(us);
        }
        let buckets = h.cumulative_buckets();
        let last = buckets.last().unwrap();
        assert_eq!(last.le_us, u64::MAX);
        assert_eq!(last.count, 6);
        for w in buckets.windows(2) {
            assert!(w[0].le_us < w[1].le_us, "bounds must increase");
            assert!(w[0].count <= w[1].count, "cumulative counts must grow");
        }
        // le_us = 2^i − 1 is exact for integer microseconds: everything
        // at or below 1023 µs (five observations) sits under le 1023.
        let le_1023 = buckets.iter().find(|b| b.le_us == 1023).unwrap();
        assert_eq!(le_1023.count, 5);
        // Trailing empties are trimmed: the largest finite bound covers
        // the 1024 µs observation's bucket and nothing beyond it.
        let max_finite = buckets[buckets.len() - 2].le_us;
        assert_eq!(max_finite, 2047);
    }

    #[test]
    fn stage_latencies_fold_per_request_breakdowns() {
        use templar_core::trace::TraceSpans;

        let m = ServiceMetrics::default();
        let spans = TraceSpans::new();
        spans.add(Stage::CandidatePruning, 3_000_000); // 3 ms
        spans.add(Stage::ConfigSearch, 1_000_000);
        m.record_stage_latencies(&spans.finish(Duration::from_micros(4_100)));
        let snap = m.export();
        assert_eq!(snap.stage_latencies.len(), STAGE_COUNT);
        let pruning = &snap.stage_latencies[Stage::CandidatePruning as usize];
        assert_eq!(pruning.stage, "candidate_pruning");
        assert_eq!(pruning.count, 1);
        assert_eq!(pruning.sum_us, 3_000);
        // Stages that never ran record nothing.
        let ranking = &snap.stage_latencies[Stage::Ranking as usize];
        assert_eq!(ranking.count, 0);
    }

    #[test]
    fn prometheus_exposition_is_valid_text_format() {
        let m = ServiceMetrics::default();
        m.record_translation(Duration::from_micros(150), true);
        m.record_translation(Duration::from_micros(90), false);
        let spans = templar_core::trace::TraceSpans::new();
        spans.add(Stage::ConfigSearch, 80_000);
        m.record_stage_latencies(&spans.finish(Duration::from_micros(150)));
        let snap = m.export();
        let text = snap.to_prometheus_text("mas");

        let mut seen_families = std::collections::BTreeSet::new();
        let mut samples = 0usize;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let family = parts.next().unwrap().to_string();
                let kind = parts.next().unwrap();
                assert!(matches!(kind, "counter" | "gauge" | "histogram"));
                assert!(
                    seen_families.insert(family.clone()),
                    "family {family} declared twice"
                );
            } else if line.starts_with("# HELP ") {
                continue;
            } else {
                // A sample: name{labels} value — value parses as u64.
                let (name_labels, value) = line.rsplit_once(' ').unwrap();
                value
                    .parse::<u64>()
                    .unwrap_or_else(|_| panic!("sample value must be an integer: {line}"));
                assert!(name_labels.starts_with("templar_"), "bad name: {line}");
                assert!(name_labels.contains("tenant=\"mas\""), "unlabelled: {line}");
                samples += 1;
            }
        }
        assert!(samples > 30, "expected a full exposition, got {samples}");
        // The histogram contract: the +Inf bucket equals the count series.
        assert!(text.contains(
            "templar_translate_latency_microseconds_bucket{tenant=\"mas\",le=\"+Inf\"} 2"
        ));
        assert!(text.contains("templar_translate_latency_microseconds_count{tenant=\"mas\"} 2"));
    }

    #[test]
    fn multi_tenant_exposition_declares_each_family_once() {
        let a = ServiceMetrics::default();
        a.record_translation(Duration::from_micros(10), true);
        let b = ServiceMetrics::default();
        let (sa, sb) = (a.export(), b.export());
        let text = prometheus_text(&[("mas", &sa), ("yelp", &sb)]);
        assert_eq!(
            text.matches("# TYPE templar_translations_total counter")
                .count(),
            1
        );
        assert!(text.contains("templar_translations_total{tenant=\"mas\"} 1"));
        assert!(text.contains("templar_translations_total{tenant=\"yelp\"} 0"));
    }
}
