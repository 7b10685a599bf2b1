//! Service observability: counters, end-to-end and per-stage latency
//! histograms, and a Prometheus text-format exposition.  The live atomics
//! export straight into the wire type [`MetricsReport`], the one metrics
//! struct callers, benches, the registry and the exposition all read, so
//! no metrics framework and no second copy of the report sit in between.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use templar_api::{HistogramBucket, MetricsReport, StageLatencyReport};
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

    /// Inverse of [`HealthState::as_gauge`]; any non-zero gauge is
    /// `Degraded`.
    pub(crate) fn from_gauge(v: u64) -> Self {
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

    /// Load every bucket counter once.  All figures a scrape reports for
    /// this histogram derive from the one sample, so its count always
    /// equals its `+Inf` bucket even while writers keep recording.
    fn sample(&self) -> HistogramSample {
        HistogramSample {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            sum_us: self.total_us.load(Ordering::Relaxed),
        }
    }
}

/// One point-in-time load of a [`LatencyHistogram`].
struct HistogramSample {
    counts: [u64; BUCKETS],
    sum_us: u64,
}

impl HistogramSample {
    fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count()).unwrap_or(0)
    }

    /// Approximate quantile: the upper bound of the bucket where the
    /// cumulative count crosses `q`.
    fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q).ceil() as u64;
        let mut seen = 0u64;
        for (i, count) in self.counts.iter().enumerate() {
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
        let last_nonzero = self.counts.iter().rposition(|&c| c > 0);
        let mut buckets = Vec::new();
        let mut cumulative = 0u64;
        if let Some(last) = last_nonzero {
            // The open-ended final bucket has no finite bound — it is
            // covered by +Inf below.
            for (i, &count) in self
                .counts
                .iter()
                .enumerate()
                .take(last.min(BUCKETS - 2) + 1)
            {
                cumulative += count;
                buckets.push(HistogramBucket {
                    le_us: (1u64 << i.min(63)) - 1,
                    count: cumulative,
                });
            }
        }
        buckets.push(HistogramBucket {
            le_us: u64::MAX,
            count: self.count(),
        });
        buckets
    }

    /// The wire report for one pipeline stage.
    fn stage_report(&self, stage: Stage) -> StageLatencyReport {
        StageLatencyReport {
            stage: stage.name().to_string(),
            count: self.count(),
            p50_us: self.quantile_us(0.50),
            p99_us: self.quantile_us(0.99),
            mean_us: self.mean_us(),
            sum_us: self.sum_us,
            buckets: self.cumulative_buckets(),
        }
    }
}

impl ServiceMetrics {
    pub(crate) fn record_translation(&self, latency: Duration, produced_results: bool) {
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
    ///
    /// The report is one struct literal naming every field, so a field added
    /// to the wire report does not compile until it is filled here.
    pub(crate) fn export(&self) -> MetricsReport {
        let translate = self.latency_buckets.sample();
        let stage_latencies = Stage::ALL
            .iter()
            .map(|&stage| {
                self.stage_latency[stage as usize]
                    .sample()
                    .stage_report(stage)
            })
            .collect();
        MetricsReport {
            translations_served: translate.count(),
            empty_translations: self.empty_translations.load(Ordering::Relaxed),
            search_tuples_scored: self.search_tuples_scored.load(Ordering::Relaxed),
            search_tuples_pruned: self.search_tuples_pruned.load(Ordering::Relaxed),
            search_bound_cutoffs: self.search_bound_cutoffs.load(Ordering::Relaxed),
            search_budget_exhausted: self.search_budget_exhausted.load(Ordering::Relaxed),
            translate_p50_us: translate.quantile_us(0.50),
            translate_p99_us: translate.quantile_us(0.99),
            translate_mean_us: translate.mean_us(),
            translate_sum_us: translate.sum_us,
            translate_buckets: translate.cumulative_buckets(),
            stage_latencies,
            ingest_submitted: self.ingest_submitted.load(Ordering::Relaxed),
            ingest_rejected: self.ingest_rejected.load(Ordering::Relaxed),
            ingest_applied: self.ingest_applied.load(Ordering::Relaxed),
            ingest_parse_errors: self.ingest_parse_errors.load(Ordering::Relaxed),
            log_skipped_statements: self.log_skipped_statements.load(Ordering::Relaxed),
            ingest_lag: self
                .ingest_accepted_total()
                .saturating_sub(self.ingest_applied_total()),
            log_evictions: 0,
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

type FieldGetter = fn(&MetricsReport) -> u64;

/// One numeric family of the exposition: metric name, TYPE, HELP and the
/// report field it samples.
type Family = (&'static str, &'static str, &'static str, FieldGetter);

/// A family that monotonically accumulates since service start.
const fn counter(name: &'static str, help: &'static str, get: FieldGetter) -> Family {
    (name, "counter", help, get)
}

/// A point-in-time family.
const fn gauge(name: &'static str, help: &'static str, get: FieldGetter) -> Family {
    (name, "gauge", help, get)
}

const PROM_FAMILIES: &[Family] = &[
    counter(
        "templar_translations_total",
        "Translations served since start.",
        |s| s.translations_served,
    ),
    counter(
        "templar_empty_translations_total",
        "Translations that produced no SQL candidate.",
        |s| s.empty_translations,
    ),
    counter(
        "templar_search_tuples_scored_total",
        "Configurations fully scored by the best-first search.",
        |s| s.search_tuples_scored,
    ),
    counter(
        "templar_search_tuples_pruned_total",
        "Configurations skipped by the admissible bound without scoring.",
        |s| s.search_tuples_pruned,
    ),
    counter(
        "templar_search_bound_cutoffs_total",
        "Prefix subtrees cut by the admissible bound.",
        |s| s.search_bound_cutoffs,
    ),
    counter(
        "templar_search_budget_exhausted_total",
        "Requests whose configuration search ran out of budget.",
        |s| s.search_budget_exhausted,
    ),
    counter(
        "templar_ingest_submitted_total",
        "SQL entries accepted into the ingestion queue.",
        |s| s.ingest_submitted,
    ),
    counter(
        "templar_ingest_rejected_total",
        "SQL entries rejected at queue capacity.",
        |s| s.ingest_rejected,
    ),
    counter(
        "templar_ingest_applied_total",
        "SQL entries applied to the Query Fragment Graph.",
        |s| s.ingest_applied,
    ),
    counter(
        "templar_ingest_parse_errors_total",
        "SQL entries that failed to parse on the live ingest path.",
        |s| s.ingest_parse_errors,
    ),
    counter(
        "templar_log_skipped_statements_total",
        "Statements skipped as unparsable while assembling the bootstrap log.",
        |s| s.log_skipped_statements,
    ),
    counter(
        "templar_log_evictions_total",
        "Always 0: the query log only grows, so no entry is evicted.",
        |s| s.log_evictions,
    ),
    counter(
        "templar_snapshot_swaps_total",
        "Snapshots published since start.",
        |s| s.snapshot_swaps,
    ),
    counter(
        "templar_feedback_accepted_total",
        "Accepted-SQL feedback entries received.",
        |s| s.feedback_accepted,
    ),
    counter(
        "templar_wal_appended_total",
        "Write-ahead journal records appended.",
        |s| s.wal_appended,
    ),
    counter(
        "templar_wal_fsyncs_total",
        "Write-ahead journal fsyncs issued.",
        |s| s.wal_fsyncs,
    ),
    counter(
        "templar_wal_replayed_total",
        "Journal records replayed at recovery.",
        |s| s.wal_replayed,
    ),
    counter(
        "templar_wal_segments_gc_total",
        "Journal segments garbage-collected.",
        |s| s.wal_segments_gc,
    ),
    counter(
        "templar_wal_io_errors_total",
        "Journal filesystem failures absorbed.",
        |s| s.wal_io_errors,
    ),
    counter(
        "templar_wal_truncated_bytes_total",
        "Bytes cut off a torn journal tail at recovery.",
        |s| s.wal_truncated_bytes,
    ),
    gauge(
        "templar_wal_last_errno",
        "First OS errno of the last journal failure episode, plus one (0 = none).",
        |s| s.wal_last_errno,
    ),
    gauge(
        "templar_health_state",
        "Write-availability state: 0 = healthy, 1 = degraded read-only.",
        |s| s.health_state,
    ),
    counter(
        "templar_degraded_entries_total",
        "Ingest/feedback entries refused while degraded.",
        |s| s.degraded_entries_total,
    ),
    counter(
        "templar_journal_retries_total",
        "In-line journal sync retries after a failure.",
        |s| s.journal_retries_total,
    ),
    counter(
        "templar_journal_heals_total",
        "Degraded episodes healed with the staged tail replayed.",
        |s| s.journal_heals_total,
    ),
    counter(
        "templar_admission_tenant_shed_total",
        "Requests shed at the tenant's in-flight quota.",
        |s| s.admission_tenant_shed,
    ),
    counter(
        "templar_admission_global_shed_total",
        "Requests shed at the serving plane's global in-flight cap.",
        |s| s.admission_global_shed,
    ),
    gauge(
        "templar_ingest_lag",
        "Entries accepted but not yet applied.",
        |s| s.ingest_lag,
    ),
    gauge(
        "templar_wal_applied_seq",
        "Sequence number of the last journal record applied.",
        |s| s.wal_applied_seq,
    ),
    gauge(
        "templar_join_cache_hits",
        "Join-cache hits of the current snapshot.",
        |s| s.join_cache_hits,
    ),
    gauge(
        "templar_join_cache_misses",
        "Join-cache misses of the current snapshot.",
        |s| s.join_cache_misses,
    ),
    gauge(
        "templar_join_cache_evictions",
        "Join-cache evictions of the current snapshot.",
        |s| s.join_cache_evictions,
    ),
    gauge(
        "templar_join_cache_entries",
        "Resident join-cache entries.",
        |s| s.join_cache_entries,
    ),
    gauge(
        "templar_qfg_fragments",
        "Live query fragments in the current snapshot's QFG.",
        |s| s.qfg_fragments,
    ),
    gauge(
        "templar_qfg_edges",
        "Co-occurrence edges in the current snapshot's QFG.",
        |s| s.qfg_edges,
    ),
    gauge(
        "templar_qfg_queries",
        "Log queries folded into the current snapshot's QFG.",
        |s| s.qfg_queries,
    ),
    gauge(
        "templar_qfg_interned_fragments",
        "Interner table size of the columnar data plane.",
        |s| s.qfg_interned_fragments,
    ),
    gauge(
        "templar_qfg_csr_edges",
        "Edges resident in the compacted CSR.",
        |s| s.qfg_csr_edges,
    ),
    gauge(
        "templar_qfg_pending_deltas",
        "Pending delta-log pairs awaiting compaction.",
        |s| s.qfg_pending_deltas,
    ),
    counter(
        "templar_qfg_compactions_total",
        "Compactions the QFG lineage has undergone.",
        |s| s.qfg_compactions,
    ),
    gauge(
        "templar_qfg_delta_runs",
        "Always 0: the QFG keeps one pending delta and no sorted runs.",
        |s| s.qfg_delta_runs,
    ),
    counter(
        "templar_qfg_run_merges_total",
        "Always 0: the QFG keeps one pending delta and merges no runs.",
        |s| s.qfg_run_merges,
    ),
    gauge(
        "templar_recovery_peak_batch_bytes",
        "Largest decoded WAL batch the last recovery materialized.",
        |s| s.recovery_peak_batch_bytes,
    ),
    gauge(
        "templar_snapshot_body_bytes",
        "On-disk size of the last snapshot written or recovered from.",
        |s| s.snapshot_body_bytes,
    ),
    counter(
        "templar_translation_cache_hits_total",
        "Translations answered from the current snapshot's translation cache.",
        |s| s.translation_cache_hits,
    ),
    counter(
        "templar_translation_cache_misses_total",
        "Translations computed because the cache had no entry.",
        |s| s.translation_cache_misses,
    ),
    counter(
        "templar_translation_cache_evictions_total",
        "Translation-cache entries dropped at the capacity bound.",
        |s| s.translation_cache_evictions,
    ),
    counter(
        "templar_translation_cache_invalidations_total",
        "Snapshot publishes that replaced the translation cache with an empty one.",
        |s| s.translation_cache_invalidations,
    ),
    gauge(
        "templar_translation_cache_entries",
        "Resident translation-cache entries.",
        |s| s.translation_cache_entries,
    ),
    gauge(
        "templar_word_memo_hits",
        "Word-vector memo hits of the current snapshot's similarity model.",
        |s| s.word_memo_hits,
    ),
    gauge(
        "templar_word_memo_misses",
        "Word-vector memo misses of the current snapshot's similarity model.",
        |s| s.word_memo_misses,
    ),
    gauge(
        "templar_phrase_memo_hits",
        "Always 0 (the phrase-vector memo is gone); kept until the next protocol bump.",
        |s| s.phrase_memo_hits,
    ),
    gauge(
        "templar_phrase_memo_misses",
        "Always 0 (the phrase-vector memo is gone); kept until the next protocol bump.",
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
    let labels = labels.trim_end_matches(',');
    out.push_str(&format!(
        "{family}_sum{{{labels}}} {sum_us}\n{family}_count{{{labels}}} {count}\n"
    ));
}

/// Assemble a Prometheus text-format exposition over any number of tenants.
/// Each metric family's `# HELP` / `# TYPE` header appears exactly once,
/// with one sample per tenant under a `tenant` label — the format's
/// uniqueness rule, which is why expositions are assembled here rather than
/// concatenated per tenant.
pub fn prometheus_text(tenants: &[(&str, MetricsReport)]) -> String {
    let mut out = String::new();
    for (name, kind, help, get) in PROM_FAMILIES {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for (tenant, report) in tenants {
            out.push_str(&format!("{name}{{tenant=\"{tenant}\"}} {}\n", get(report)));
        }
    }
    let family = "templar_translate_latency_microseconds";
    out.push_str(&format!(
        "# HELP {family} End-to-end translation latency.\n# TYPE {family} histogram\n"
    ));
    for (tenant, report) in tenants {
        prom_bucket_lines(
            &mut out,
            family,
            &format!("tenant=\"{tenant}\","),
            &report.translate_buckets,
            report.translate_sum_us,
            report.translations_served,
        );
    }
    let family = "templar_stage_latency_microseconds";
    out.push_str(&format!(
        "# HELP {family} Per-stage translation latency, labelled by pipeline stage.\n# TYPE {family} histogram\n"
    ));
    for (tenant, report) in tenants {
        for stage in &report.stage_latencies {
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
        assert_eq!(
            h.sample().quantile_us(0.5),
            2,
            "1 µs lives in [1, 2) → bound 2"
        );
        let h = LatencyHistogram::default();
        h.record_us(1024);
        assert_eq!(
            h.sample().quantile_us(0.5),
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
        let buckets = h.sample().cumulative_buckets();
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
    fn scrapes_are_consistent_under_concurrent_traffic() {
        use std::sync::atomic::AtomicBool;
        use templar_core::trace::TraceSpans;

        let m = ServiceMetrics::default();
        let stop = AtomicBool::new(false);
        let written = AtomicU64::new(0);
        let inf = |buckets: &[HistogramBucket]| buckets.last().map_or(0, |b| b.count);
        let mut disagreements = Vec::new();
        let mut scrapes = 0;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for us in (0..5_000).cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    m.record_translation(Duration::from_micros(us), true);
                    let spans = TraceSpans::new();
                    spans.add(Stage::CandidatePruning, us * 600);
                    spans.add(Stage::SqlConstruction, us * 300);
                    m.record_stage_latencies(&spans.finish(Duration::from_micros(us)));
                    written.fetch_add(1, Ordering::Relaxed);
                }
            });
            // Scrape at least 1,000 times, and while the writer records at
            // least 1,000 translations.
            while written.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            let start = written.load(Ordering::Relaxed);
            while scrapes < 1_000 || written.load(Ordering::Relaxed) < start + 1_000 {
                let r = m.export();
                let end_to_end = (
                    "translate",
                    r.translations_served,
                    inf(&r.translate_buckets),
                );
                let stages = r.stage_latencies.iter();
                let stages = stages.map(|s| (s.stage.as_str(), s.count, inf(&s.buckets)));
                for (name, count, plus_inf) in stages.chain([end_to_end]) {
                    if count != plus_inf {
                        disagreements.push(format!("{name}: count {count} vs +Inf {plus_inf}"));
                    }
                }
                scrapes += 1;
            }
            // Stop the writer before asserting, so a failure cannot leave
            // the scope waiting on it.
            stop.store(true, Ordering::Relaxed);
        });
        assert!(
            disagreements.is_empty(),
            "{} disagreements in {scrapes} scrapes, first: {}",
            disagreements.len(),
            disagreements[0]
        );
    }

    #[test]
    fn every_report_counter_reaches_the_exposition() {
        use serde::{Deserialize, Serialize, Value};

        // Give every numeric field of the report a distinct value, listing
        // the fields through the report's serde form so a new field is
        // covered without editing this test.
        let Value::Map(fields) = MetricsReport::default().to_value() else {
            panic!("a report serializes as a map");
        };
        let fields: Vec<(String, Value)> = fields
            .into_iter()
            .enumerate()
            .map(|(i, (name, value))| match value {
                Value::U64(_) => (name, Value::U64(1_000_003 + 7_919 * i as u64)),
                other => (name, other),
            })
            .collect();
        let report = MetricsReport::from_value(&Value::Map(fields.clone())).unwrap();
        let text = prometheus_text(&[("t", report)]);
        let samples: std::collections::BTreeSet<&str> = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| line.rsplit_once(' ').map(|(_, value)| value))
            .collect();
        // The latency histogram already carries these three.
        let derived = ["translate_p50_us", "translate_p99_us", "translate_mean_us"];
        let mut checked = 0;
        for (name, value) in &fields {
            let Value::U64(value) = value else { continue };
            if derived.contains(&name.as_str()) {
                continue;
            }
            assert!(
                samples.contains(value.to_string().as_str()),
                "report field {name} reaches no Prometheus sample"
            );
            checked += 1;
        }
        assert!(checked > 50, "only {checked} numeric fields checked");
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
        let text = prometheus_text(&[("mas", m.export())]);

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
        let text = prometheus_text(&[("mas", a.export()), ("yelp", b.export())]);
        assert_eq!(
            text.matches("# TYPE templar_translations_total counter")
                .count(),
            1
        );
        assert!(text.contains("templar_translations_total{tenant=\"mas\"} 1"));
        assert!(text.contains("templar_translations_total{tenant=\"yelp\"} 0"));
    }
}
