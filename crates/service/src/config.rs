//! Serving-layer configuration.

use std::time::Duration;

/// Durability tunables of the write-ahead ingest journal (see
/// [`crate::wal`]).  Only consulted by services started through
/// [`TemplarService::recover`](crate::TemplarService::recover) — a plain
/// in-memory service never touches the filesystem.
#[derive(Debug, Clone, PartialEq)]
pub struct WalConfig {
    /// Fsync the journal once this many appended records are dirty
    /// (group commit).  `1` fsyncs every record — maximum durability,
    /// minimum throughput.
    pub fsync_every: usize,
    /// Also fsync when any record has been dirty this long, so a trickle of
    /// ingests is never more than one interval away from durability.
    pub fsync_interval: Duration,
    /// Seal a segment file and start the next after this many records;
    /// segments wholly below the snapshot watermark are garbage-collected.
    pub segment_max_records: u64,
    /// Upper bound on frames staged in memory awaiting a successful journal
    /// write.  When a wedged disk keeps the buffer above this for a whole
    /// batch cycle, the worker stops draining the queue, so producers see
    /// [`ServiceError::QueueFull`](crate::ServiceError::QueueFull)
    /// backpressure instead of the process growing without bound.
    pub max_staged_bytes: usize,
    /// In-line journal sync attempts before the service declares the disk
    /// failing and enters degraded read-only mode (clamped to ≥ 1; the
    /// first attempt counts, so `3` means "one try plus two retries").
    pub journal_retry_attempts: u32,
    /// Backoff before the first in-line retry; doubles per retry (with
    /// deterministic jitter) up to `journal_retry_max_backoff`.  The same
    /// schedule paces the degraded-mode heal probe.
    pub journal_retry_base_backoff: Duration,
    /// Cap on the exponential retry/heal-probe backoff.
    pub journal_retry_max_backoff: Duration,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            fsync_every: 16,
            fsync_interval: Duration::from_millis(20),
            segment_max_records: 8192,
            max_staged_bytes: 8 * 1024 * 1024,
            journal_retry_attempts: 3,
            journal_retry_base_backoff: Duration::from_millis(5),
            journal_retry_max_backoff: Duration::from_millis(500),
        }
    }
}

/// Tunables of the [`TemplarService`](crate::TemplarService) serving loop.
///
/// The Templar-level parameters (κ, λ, obscurity, …) stay in
/// [`templar_core::TemplarConfig`]; this struct only shapes the *operational*
/// behaviour: queue bounds, snapshot refresh cadence and durability.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Capacity of the bounded ingestion queue.  `submit_sql` fails fast
    /// with `ServiceError::QueueFull` when the queue is at capacity, so a
    /// slow rebuild can never exert unbounded memory pressure.
    pub queue_capacity: usize,
    /// Publish a fresh snapshot after this many newly-applied log entries
    /// (the "epoch" size).
    pub refresh_every: usize,
    /// Also publish a fresh snapshot when there are pending entries and this
    /// much time has passed since the last publication, so a trickle of
    /// ingests still becomes visible promptly.
    pub refresh_interval: Duration,
    /// Write-ahead journal tunables (durable services only).
    pub wal: WalConfig,
    /// How many of the slowest translations to retain with their per-stage
    /// latency breakdowns ([`TemplarService::slow_queries`](
    /// crate::TemplarService::slow_queries)).  `0` disables capture.
    pub slow_query_capacity: usize,
    /// The tenant's in-flight concurrency quota: how many
    /// admission-controlled operations (translate / ingest / feedback) may
    /// execute for this tenant at once.  Beyond it,
    /// [`TemplarService::try_admit`](crate::TemplarService::try_admit)
    /// sheds the request — surfaced on the wire as
    /// [`ApiError::Backpressure`](templar_api::ApiError::Backpressure) and
    /// counted under `admission_tenant_shed`.
    pub max_inflight: usize,
    /// Memory budget for one decoded batch of WAL-tail entries during
    /// recovery ([`TemplarService::recover`](crate::TemplarService::recover)).
    /// The journal tail is replayed in batches no larger than this (a single
    /// oversized record still flows through alone), so recovery's peak
    /// decoded-entry footprint is bounded by the budget rather than the tail
    /// length.  Observed per recovery as the `recovery_peak_batch_bytes`
    /// gauge.
    pub recovery_batch_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 1024,
            refresh_every: 64,
            refresh_interval: Duration::from_millis(250),
            wal: WalConfig::default(),
            slow_query_capacity: 16,
            max_inflight: 256,
            recovery_batch_bytes: 4 * 1024 * 1024,
        }
    }
}

impl ServiceConfig {
    /// Set the ingestion queue capacity (clamped to ≥ 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Set the snapshot refresh epoch (clamped to ≥ 1).
    pub fn with_refresh_every(mut self, every: usize) -> Self {
        self.refresh_every = every.max(1);
        self
    }

    /// Set the time-based refresh interval.
    pub fn with_refresh_interval(mut self, interval: Duration) -> Self {
        self.refresh_interval = interval;
        self
    }

    /// Fsync the journal after this many dirty records (clamped to ≥ 1).
    pub fn with_wal_fsync_every(mut self, every: usize) -> Self {
        self.wal.fsync_every = every.max(1);
        self
    }

    /// Fsync the journal once any record has been dirty this long.
    pub fn with_wal_fsync_interval(mut self, interval: Duration) -> Self {
        self.wal.fsync_interval = interval;
        self
    }

    /// Seal journal segments after this many records (clamped to ≥ 1).
    pub fn with_wal_segment_max_records(mut self, records: u64) -> Self {
        self.wal.segment_max_records = records.max(1);
        self
    }

    /// Bound the journal's in-memory staging buffer (clamped to ≥ 1 KiB).
    pub fn with_wal_max_staged_bytes(mut self, bytes: usize) -> Self {
        self.wal.max_staged_bytes = bytes.max(1024);
        self
    }

    /// In-line journal sync attempts before degrading (clamped to ≥ 1).
    pub fn with_journal_retry_attempts(mut self, attempts: u32) -> Self {
        self.wal.journal_retry_attempts = attempts.max(1);
        self
    }

    /// Base backoff before the first journal retry (doubles per retry).
    pub fn with_journal_retry_base_backoff(mut self, backoff: Duration) -> Self {
        self.wal.journal_retry_base_backoff = backoff;
        self
    }

    /// Cap on the exponential journal retry / heal-probe backoff.
    pub fn with_journal_retry_max_backoff(mut self, backoff: Duration) -> Self {
        self.wal.journal_retry_max_backoff = backoff;
        self
    }

    /// Retain this many slow-query captures (0 disables capture).
    pub fn with_slow_query_capacity(mut self, capacity: usize) -> Self {
        self.slow_query_capacity = capacity;
        self
    }

    /// Set the tenant's in-flight concurrency quota (clamped to ≥ 1).
    pub fn with_max_inflight(mut self, quota: usize) -> Self {
        self.max_inflight = quota.max(1);
        self
    }

    /// Bound one decoded recovery batch (clamped to ≥ 4 KiB).
    pub fn with_recovery_batch_bytes(mut self, bytes: usize) -> Self {
        self.recovery_batch_bytes = bytes.max(4096);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_clamp() {
        let c = ServiceConfig::default()
            .with_queue_capacity(0)
            .with_refresh_every(0)
            .with_wal_fsync_every(0)
            .with_wal_segment_max_records(0)
            .with_max_inflight(0)
            .with_journal_retry_attempts(0)
            .with_recovery_batch_bytes(0);
        assert_eq!(c.queue_capacity, 1);
        assert_eq!(c.refresh_every, 1);
        assert_eq!(c.wal.fsync_every, 1);
        assert_eq!(c.wal.segment_max_records, 1);
        assert_eq!(c.max_inflight, 1);
        assert_eq!(c.wal.journal_retry_attempts, 1);
        assert_eq!(c.recovery_batch_bytes, 4096);
    }
}
