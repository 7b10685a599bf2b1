//! The concurrent translation service.
//!
//! [`TemplarService`] turns the batch-oriented [`Templar`] facade into a
//! long-running serving system:
//!
//! ```text
//!  translation threads                    ingestion worker (1 thread)
//!  ───────────────────                    ───────────────────────────
//!  handle.load() ──► Arc<Templar> ◄────── store(Arc::new(rebuilt))
//!       │   (immutable snapshot)                    ▲
//!       ▼                                           │ epoch refresh:
//!  translate(nlq) ──► submit_sql(answered) ──►  bounded queue
//!                                               parse + qfg.ingest()
//! ```
//!
//! * **Reads are snapshot-isolated and never blocked by ingestion.**  Every
//!   translation loads the current `Arc<Templar>`, together with the
//!   translation cache that belongs to it, and works on it; the worker
//!   rebuilds the next snapshot *outside* any lock and publishes it, with a
//!   new empty cache, by an O(1) pointer swap (mirrored into the
//!   [`SharedTemplar`] handed to host systems).
//! * **Ingestion is incremental.**  The worker owns a master
//!   [`QueryLog`] + [`QueryFragmentGraph`] pair and applies each logged
//!   query with [`QueryFragmentGraph::ingest`] (`O(fragments²)`), instead of
//!   rebuilding the graph from the log.  Publishing a snapshot costs one
//!   graph clone + `Templar::from_parts`.
//! * **Refresh is epoch-style.**  A new snapshot is published every
//!   `refresh_every` applied entries, or after `refresh_interval` when a
//!   smaller trickle is pending — so a quiet service still converges.
//! * **The queue is bounded.**  `submit_sql` fails fast with
//!   [`ServiceError::QueueFull`]; translation latency is never sacrificed to
//!   ingestion backpressure.

use crate::config::{ServiceConfig, WalConfig};
use crate::error::{ServiceError, WalError};
use crate::ingest::IngestQueue;
use crate::metrics::{HealthState, ServiceMetrics};
use crate::slowlog::SlowQueryLog;
use crate::snapshot::{self, Snapshot, SnapshotHeader};
use crate::storage::{FsStorage, Storage};
use crate::transcache::{request_key, CachedTranslation, TranslationCache};
use crate::wal::{self, WalWriter};
use nlidb::{translate_traced, Nlq, RankedSql, TranslateError};
use nlp::TextSimilarity;
use parking_lot::{Mutex, RwLock};
use relational::Database;
use sqlparse::parse_query;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use templar_api::{
    ApiError, MetricsReport, SlowQueryReport, TraceReport, TranslateRequest, TranslateResponse,
};
use templar_core::{
    Keyword, KeywordMetadata, QueryFragmentGraph, QueryLog, SharedTemplar, Templar, TemplarConfig,
    TraceCtx, TraceSpans,
};

/// File name of the durable snapshot inside a service's durable directory.
pub const SNAPSHOT_FILE: &str = "snapshot.templar";
/// Subdirectory holding the write-ahead journal segments.
pub const WAL_DIR: &str = "wal";
/// Advisory lock file claiming exclusive ownership of a durable directory.
pub const LOCK_FILE: &str = "LOCK";

/// Capacity of each snapshot's translation cache (whole
/// `TranslateResponse`s keyed by normalized question + override signature;
/// every publish starts an empty one).
const TRANSLATION_CACHE_CAPACITY: usize = 4096;
/// Maximum number of entries the ingestion worker drains per wake-up.
const INGEST_BATCH: usize = 128;

/// Master mutable serving state, owned by the ingestion worker (and briefly
/// borrowed by `save_snapshot` / `force_refresh`).
struct MasterState {
    log: QueryLog,
    qfg: QueryFragmentGraph,
    /// Applied entries not yet reflected in a published snapshot.
    pending_since_swap: usize,
    last_swap: Instant,
    /// Sequence number of the last journal record applied to this state
    /// (0 = none) — the watermark a checkpoint taken now would record.
    /// Advances per journal record, parse failures included, so replay
    /// alignment never depends on what happened to parse.
    applied_seq: u64,
}

impl MasterState {
    /// Cut a publish: reset the pending count and the refresh clock, fold
    /// the delta log into the master CSR in place and clone the graph to
    /// publish.  Compacting the master (not the clone) folds each epoch's
    /// pending pairs exactly once, the published clone is born compacted
    /// (`Templar::from_parts`'s compact becomes a no-op), and ingest/remove
    /// lookups until the next epoch run against a fresh CSR.
    fn cut_publish(&mut self) -> QueryFragmentGraph {
        self.pending_since_swap = 0;
        self.last_swap = Instant::now();
        self.qfg.compact();
        self.qfg.clone()
    }
}

/// The durable half of a recovered service: the directory its snapshot and
/// journal live in, and the journal's single writer.
struct Durable {
    dir: PathBuf,
    wal: Mutex<WalWriter>,
    /// The storage boundary every durable byte crosses — the real
    /// filesystem in production, a fault injector in the chaos tests.
    storage: Arc<dyn Storage>,
    /// Holds the advisory lock on `dir/LOCK` for the service's lifetime.
    /// The OS releases it when the file closes — process death included —
    /// so a crashed owner never wedges its directory.
    _lock: std::fs::File,
    /// Serializes whole checkpoints.  `checkpoint` is public and also runs
    /// from `shutdown`; two interleaved checkpoints could otherwise invert —
    /// an older watermark's snapshot renamed over a newer one *after* the
    /// newer checkpoint GC'd the segments the older watermark still needs,
    /// leaving the directory unrecoverable.
    checkpoint_lock: Mutex<()>,
}

impl Durable {
    fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    fn wal_dir(&self) -> PathBuf {
        self.dir.join(WAL_DIR)
    }
}

/// One published snapshot together with the translation cache that belongs
/// to it.  The two are installed together and dropped together, so an
/// answer cached on one snapshot can never be served from another.
struct Published {
    templar: Arc<Templar>,
    cache: TranslationCache,
}

struct ServiceInner {
    /// The current snapshot and its translation cache, loaded once per request.
    published: RwLock<Arc<Published>>,
    /// The same snapshot for host NLIDB systems ([`TemplarService::handle`]);
    /// `publish` stores into both cells and each reader reads only one.
    handle: SharedTemplar,
    queue: IngestQueue,
    metrics: ServiceMetrics,
    slow_queries: SlowQueryLog,
    master: Mutex<MasterState>,
    db: Arc<Database>,
    similarity: TextSimilarity,
    templar_config: TemplarConfig,
    service_config: ServiceConfig,
    /// `Some` on services started through [`TemplarService::recover`].
    durable: Option<Durable>,
    /// Admission-controlled operations currently executing for this tenant,
    /// bounded by [`ServiceConfig::max_inflight`].
    inflight: AtomicU64,
}

/// A reserved slot of a tenant's in-flight quota, handed out by
/// [`TemplarService::try_admit`].  The slot is released when the permit is
/// dropped — hold it across the admitted operation.
pub struct InflightPermit {
    inner: Arc<ServiceInner>,
}

impl Drop for InflightPermit {
    fn drop(&mut self) {
        self.inner.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for InflightPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InflightPermit")
            .field("inflight", &self.inner.inflight.load(Ordering::Relaxed))
            .finish()
    }
}

/// A concurrent, incrementally-updating Templar serving handle.
pub struct TemplarService {
    inner: Arc<ServiceInner>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl TemplarService {
    /// Start a service over a database and an initial query log, with the
    /// default similarity model.
    pub fn spawn(
        db: Arc<Database>,
        initial_log: &QueryLog,
        templar_config: TemplarConfig,
        service_config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let qfg = QueryFragmentGraph::build(initial_log, templar_config.obscurity);
        Self::spawn_from_parts(
            db,
            initial_log.clone(),
            qfg,
            TextSimilarity::new(),
            templar_config,
            service_config,
            None,
            0,
        )
    }

    /// Start a service from raw SQL log lines.  Unparsable statements are
    /// skipped — real logs contain noise — but *counted*: the skip count is
    /// exported as the `log_skipped_statements` metric (and over the wire in
    /// the registry's `Metrics` response), so a mis-formatted bootstrap log
    /// shows up in observability instead of silently serving from a
    /// half-empty QFG.
    pub fn spawn_from_sql<'a>(
        db: Arc<Database>,
        statements: impl IntoIterator<Item = &'a str>,
        templar_config: TemplarConfig,
        service_config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let (log, skipped) = QueryLog::from_sql(statements);
        let service = Self::spawn(db, &log, templar_config, service_config)?;
        if skipped > 0 {
            service.inner.metrics.record_log_skipped(skipped as u64);
        }
        Ok(service)
    }

    /// Restore a service from an on-disk snapshot written by
    /// [`TemplarService::save_snapshot`].  The stored QFG is reused as-is —
    /// no log replay.  Fails if the snapshot's obscurity level does not
    /// match `templar_config.obscurity`.
    pub fn spawn_from_snapshot(
        db: Arc<Database>,
        path: &Path,
        templar_config: TemplarConfig,
        service_config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let (snap, _) = snapshot::read_snapshot_from(&FsStorage, path, templar_config.obscurity)?;
        Self::spawn_from_parts(
            db,
            snap.log,
            snap.qfg,
            TextSimilarity::new(),
            templar_config,
            service_config,
            None,
            0,
        )
    }

    /// Recover a durable service end-to-end:
    ///
    /// 1. load the latest valid snapshot (`dir/snapshot.templar`) if one
    ///    exists, taking its journal **watermark** from the header,
    /// 2. replay the write-ahead journal tail (`dir/wal/`) above the
    ///    watermark — a torn final record is truncated, not fatal — while
    ///    the snapshot body decodes (see
    ///    [`recover_with_storage`](Self::recover_with_storage)), and
    /// 3. resume journaling on a fresh segment.
    ///
    /// An empty (or absent) directory bootstraps a fresh durable service, so
    /// `recover` is also the way to *start* one; every subsequent start goes
    /// through the same code path a crash would exercise.  The ingestion
    /// worker journals every accepted entry *before* applying it, so a
    /// `kill -9` between checkpoints loses at most the un-fsynced journal
    /// tail (bounded by the `fsync_every` / `fsync_interval` knobs of
    /// [`crate::config::WalConfig`]).
    pub fn recover(
        db: Arc<Database>,
        dir: &Path,
        templar_config: TemplarConfig,
        service_config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        Self::recover_with_storage(
            db,
            dir,
            FsStorage::shared(),
            TextSimilarity::new(),
            templar_config,
            service_config,
        )
    }

    /// [`recover`](Self::recover) over an explicit [`Storage`] and
    /// similarity model — the seam the chaos tests inject faults through.
    /// Every durable byte this service reads or writes (snapshot, journal,
    /// lock file, directory fsyncs) crosses `storage`.
    ///
    /// Recovery runs on two threads when a snapshot exists.  The calling
    /// thread reads the snapshot header (magic, version, obscurity,
    /// watermark); a helper thread then decodes the snapshot body from the
    /// already-open reader while the calling thread lists the journal and
    /// reads and parses the records above the watermark.  After the join,
    /// the parsed tail is ingested into the decoded graph in sequence
    /// order, so the recovered log, QFG and metrics are those of a
    /// one-thread recovery.
    ///
    /// Every `Storage` call is made from the calling thread, in one fixed
    /// order.  Apart from the lock and the sweep of orphaned snapshot temp
    /// files, nothing in `dir` changes before the snapshot is accepted: a
    /// torn final journal record is cut only after the body has decoded,
    /// so a failed recovery leaves the loss for the next one to report.
    /// When both the snapshot and the journal are damaged, the snapshot's
    /// error is returned, and a header the service cannot use
    /// ([`SnapshotError::BadMagic`](crate::SnapshotError::BadMagic),
    /// `UnsupportedVersion`, `ObscurityMismatch`) is refused before the
    /// journal is listed.  A panic on the helper is re-raised here.
    pub fn recover_with_storage(
        db: Arc<Database>,
        dir: &Path,
        storage: Arc<dyn Storage>,
        similarity: TextSimilarity,
        templar_config: TemplarConfig,
        service_config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        storage.create_dir_all(dir).map_err(WalError::Io)?;
        // Claim exclusive ownership before touching anything: two live
        // services journaling into the same directory would truncate each
        // other's segments and overwrite each other's snapshots.  The lock
        // is advisory and process-scoped, so a `kill -9`'d owner releases
        // it automatically.
        let lock = storage.lock_exclusive(&dir.join(LOCK_FILE)).map_err(|e| {
            WalError::Io(std::io::Error::new(
                e.kind(),
                format!(
                    "durable directory {} could not be claimed: {e}",
                    dir.display()
                ),
            ))
        })?;
        // Sweep snapshot temp files a crash orphaned mid-checkpoint: their
        // names are unique per write (pid + counter), so unlike the old
        // fixed `.tmp` name they never self-overwrite — without this sweep
        // each crash mid-checkpoint would leak a full snapshot-sized file.
        // Safe under the lock just taken: any `.tmp` here is abandoned.
        if let Ok(names) = storage.list_dir(dir) {
            for name in names {
                if name.starts_with('.') && name.ends_with(".tmp") {
                    storage.remove_file(&dir.join(&name)).ok();
                }
            }
        }
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let header = if storage.exists(&snapshot_path) {
            Some(snapshot::read_header(
                storage.as_ref(),
                &snapshot_path,
                templar_config.obscurity,
            )?)
        } else {
            None
        };
        let watermark = header.as_ref().map_or(0, SnapshotHeader::watermark);
        let snapshot_body_bytes = storage.file_len(&snapshot_path).ok();
        let wal_dir = dir.join(WAL_DIR);
        let mut tail = Vec::new();
        let mut replay_parse_errors = 0u64;
        let (body, replayed) = std::thread::scope(|scope| {
            // A helper thread decodes the body from the open reader while
            // this thread reads the journal.  Reading through an open handle
            // makes no `Storage` call, so every call stays on this thread.
            let helper = header
                .map(|header| {
                    std::thread::Builder::new()
                        .name("templar-decode".to_string())
                        .spawn_scoped(scope, move || header.read_body())
                })
                .transpose()
                .map_err(ServiceError::Spawn)?;
            // Read and parse the journal tail in bounded batches: the raw
            // records held at once stay within `recovery_batch_bytes` (plus
            // one oversized record) no matter how long the tail is.  Parsing
            // needs nothing from the snapshot, so the parsed tail waits for
            // the graph.
            let replayed = wal::list_segments(storage.as_ref(), &wal_dir)
                .map_err(WalError::Io)
                .and_then(|segments| {
                    wal::read_segments_with(
                        storage.as_ref(),
                        &segments,
                        watermark,
                        service_config.recovery_batch_bytes,
                        &mut |batch| {
                            for (_seq, sql) in batch {
                                match parse_query(sql) {
                                    Ok(query) => tail.push(query),
                                    Err(_) => replay_parse_errors += 1,
                                }
                            }
                        },
                    )
                });
            let body = helper.map(|helper| {
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            });
            Ok::<_, ServiceError>((body, replayed))
        })?;
        // The snapshot's error outranks the journal's, and the journal
        // changes only once the snapshot is accepted: a failed recovery
        // that had cut the torn tail would hide that loss from the next.
        let Snapshot { mut log, mut qfg } = match body {
            Some(body) => body?,
            None => Snapshot {
                log: QueryLog::new(),
                qfg: QueryFragmentGraph::empty(templar_config.obscurity),
            },
        };
        let (stats, torn_tail) = replayed?;
        if let Some(torn_tail) = torn_tail {
            torn_tail.cut_with(storage.as_ref())?;
        }
        for query in tail {
            qfg.ingest(&query);
            log.push(query);
        }
        let replay_count = stats.replayed;
        let applied_seq = stats.next_seq - 1;
        let writer = WalWriter::create_with(
            Arc::clone(&storage),
            &wal_dir,
            stats.next_seq,
            service_config.wal.clone(),
        )
        .map_err(WalError::Io)?;
        let durable = Durable {
            dir: dir.to_path_buf(),
            wal: Mutex::new(writer),
            storage,
            _lock: lock,
            checkpoint_lock: Mutex::new(()),
        };
        let service = Self::spawn_from_parts(
            db,
            log,
            qfg,
            similarity,
            templar_config,
            service_config,
            Some(durable),
            applied_seq,
        )?;
        if replay_count > 0 {
            service.inner.metrics.record_wal_replayed(replay_count);
        }
        service
            .inner
            .metrics
            .record_recovery_peak_batch_bytes(stats.peak_batch_bytes);
        if let Some(bytes) = snapshot_body_bytes {
            service.inner.metrics.record_snapshot_body_bytes(bytes);
        }
        if stats.truncated_bytes > 0 {
            // A torn tail was cut: bounded data loss (acknowledged but
            // un-fsynced entries), surfaced so operators can tell "clean
            // recovery" from "recovery that dropped the tail".
            service
                .inner
                .metrics
                .record_wal_truncated(stats.truncated_bytes);
        }
        if replay_parse_errors > 0 {
            // Replay is bootstrap-log assembly, so unparsable records count
            // under `log_skipped_statements` — NOT `ingest_parse_errors`,
            // which participates in the accepted == applied accounting that
            // `flush` and `ingest_lag` rely on; inflating the applied side
            // with errors no submission matched would let `flush` return
            // before live entries were applied.
            service
                .inner
                .metrics
                .record_log_skipped(replay_parse_errors);
        }
        Ok(service)
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn_from_parts(
        db: Arc<Database>,
        log: QueryLog,
        qfg: QueryFragmentGraph,
        similarity: TextSimilarity,
        templar_config: TemplarConfig,
        service_config: ServiceConfig,
        durable: Option<Durable>,
        applied_seq: u64,
    ) -> Result<Self, ServiceError> {
        let initial = Arc::new(Templar::from_parts(
            Arc::clone(&db),
            qfg.clone(),
            similarity.clone(),
            templar_config.clone(),
        )?);
        let inner = Arc::new(ServiceInner {
            published: RwLock::new(Arc::new(Published {
                templar: Arc::clone(&initial),
                cache: TranslationCache::new(TRANSLATION_CACHE_CAPACITY),
            })),
            handle: SharedTemplar::from_arc(initial),
            queue: IngestQueue::new(service_config.queue_capacity),
            metrics: ServiceMetrics::default(),
            slow_queries: SlowQueryLog::new(service_config.slow_query_capacity),
            master: Mutex::new(MasterState {
                log,
                qfg,
                pending_since_swap: 0,
                last_swap: Instant::now(),
                applied_seq,
            }),
            db,
            similarity,
            templar_config,
            service_config,
            durable,
            inflight: AtomicU64::new(0),
        });
        let worker = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("templar-ingest".to_string())
                .spawn(move || ingest_worker(inner))
                .map_err(ServiceError::Spawn)?
        };
        Ok(TemplarService {
            inner,
            worker: Mutex::new(Some(worker)),
        })
    }

    /// The swappable snapshot handle, for wiring into host NLIDB systems
    /// (`PipelineSystem::serving`, `NaLirSystem::serving`).
    pub fn handle(&self) -> SharedTemplar {
        self.inner.handle.clone()
    }

    /// The current immutable snapshot.
    pub fn snapshot(&self) -> Arc<Templar> {
        Arc::clone(&self.inner.published.read().templar)
    }

    /// Translate an NLQ against the current snapshot, recording service
    /// metrics.  Lock-free with respect to ingestion: a snapshot rebuild in
    /// flight does not delay this call.
    pub fn translate(&self, nlq: &Nlq) -> Result<Vec<RankedSql>, TranslateError> {
        let templar = self.snapshot();
        let (results, _) =
            self.traced_translate(&templar, &nlq.text, &nlq.keywords, templar.config());
        results
    }

    /// Run one translation with per-stage tracing.  Every served request is
    /// traced: the breakdown feeds the per-stage latency histograms and the
    /// slow-query ring, and is returned so `translate_request` can ship it
    /// to clients that asked.  The added cost over the untraced library
    /// path is a handful of monotonic-clock reads per request — noise next
    /// to a translation.
    fn traced_translate(
        &self,
        templar: &Templar,
        question: &str,
        keywords: &[(Keyword, KeywordMetadata)],
        config: &TemplarConfig,
    ) -> (Result<Vec<RankedSql>, TranslateError>, TraceReport) {
        let spans = TraceSpans::new();
        let started = Instant::now();
        let (results, search) =
            translate_traced(templar, keywords, config, TraceCtx::enabled(&spans));
        let breakdown = spans.finish(started.elapsed());
        self.inner.metrics.record_search(&search);
        self.inner.metrics.record_stage_latencies(&breakdown);
        let ok = results.is_ok();
        let report = TraceReport {
            breakdown,
            search,
            cache_hit: false,
        };
        (results, self.record_served(question, report, ok))
    }

    /// Record one served translation, computed or cached: its end-to-end
    /// latency and its slow-query ring entry.
    fn record_served(&self, question: &str, report: TraceReport, ok: bool) -> TraceReport {
        let total = Duration::from_nanos(report.breakdown.total_nanos);
        self.inner.metrics.record_translation(total, ok);
        self.inner.slow_queries.offer(SlowQueryReport {
            seq: 0, // assigned by the ring
            question: question.to_string(),
            total_us: report.breakdown.total_us(),
            ok,
            trace: report.breakdown.clone(),
            search: report.search,
            cache_hit: report.cache_hit,
        });
        report
    }

    /// The slowest translations served so far (bounded by
    /// [`ServiceConfig::slow_query_capacity`]), slowest first, each with
    /// its per-stage latency breakdown.
    pub fn slow_queries(&self) -> Vec<SlowQueryReport> {
        self.inner.slow_queries.snapshot()
    }

    /// Serve one typed API request against the current snapshot, applying
    /// its per-request overrides (λ, `use_log_joins`, top-k).  The override
    /// configuration only lives for this call — the snapshot, its QFG and
    /// its join cache are shared untouched, and the override-aware
    /// join-cache key keeps differently-configured inferences from aliasing.
    ///
    /// Repeated traffic rides the translation cache of the snapshot the
    /// request loaded: the snapshot and its cache come from one load, a hit
    /// returns the cached response (byte-identical to recomputing against
    /// that snapshot), and a computed success goes into that same cache.  A
    /// publish installs a new snapshot with an empty cache, so no answer
    /// crosses snapshots.  `request.bypass_cache` skips lookup, insert and
    /// hit/miss accounting entirely.
    pub fn translate_request(
        &self,
        request: &TranslateRequest,
    ) -> Result<TranslateResponse, ApiError> {
        let started = Instant::now();
        if let Some(reason) = request.overrides.validate() {
            return Err(ApiError::InvalidRequest { reason });
        }
        if request.keywords.is_empty() {
            return Err(ApiError::InvalidRequest {
                reason: "request carries no keywords".to_string(),
            });
        }
        let current = Arc::clone(&self.inner.published.read());
        // A bypassing request, or one whose components refuse to serialize,
        // gets no key and skips the cache entirely — a degraded key must
        // never alias.
        let key = (!request.bypass_cache)
            .then(|| request_key(&request.nlq, &request.keywords, &request.overrides))
            .flatten();
        if let Some(key) = &key {
            if let Some(hit) = current.cache.get(key) {
                return Ok(self.serve_cache_hit(request, hit, started));
            }
            self.inner.metrics.record_translation_cache_miss();
        }
        let config = request.overrides.apply(current.templar.config());
        let (results, trace) =
            self.traced_translate(&current.templar, &request.nlq, &request.keywords, &config);
        let ranked = results?;
        let response = TranslateResponse::from_ranked(
            request.tenant.clone(),
            &ranked,
            request.overrides.top_k,
        );
        if let Some(key) = key {
            let cached = CachedTranslation {
                response: response.clone(),
                search: trace.search,
            };
            let evicted = current.cache.insert(key, cached);
            self.inner
                .metrics
                .record_translation_cache_evictions(evicted);
        }
        Ok(if request.trace {
            response.with_trace(trace)
        } else {
            response
        })
    }

    /// Serve one request straight from the translation cache: record the
    /// hit and its latency since `started` (the top of `translate_request`,
    /// so the key build and lookup are counted), and log a
    /// `cache_hit`-marked slow-query entry so the capture ring never shows a
    /// phantom fast translation.  The cached response is returned as stored
    /// — byte-identical to the computation that produced it — with a fresh
    /// minimal trace attached when the request asked for one.
    fn serve_cache_hit(
        &self,
        request: &TranslateRequest,
        hit: CachedTranslation,
        started: Instant,
    ) -> TranslateResponse {
        self.inner.metrics.record_translation_cache_hit();
        let report = TraceReport {
            breakdown: TraceSpans::new().finish(started.elapsed()),
            search: hit.search,
            cache_hit: true,
        };
        let report = self.record_served(&request.nlq, report, true);
        if request.trace {
            hit.response.with_trace(report)
        } else {
            hit.response
        }
    }

    /// Submit a newly-logged SQL query for ingestion.  Non-blocking; fails
    /// fast when the bounded queue is at capacity, and is refused outright
    /// with [`ServiceError::Degraded`] while the service is in degraded
    /// read-only mode (the durable journal is failing; queueing would pile
    /// entries into a journal that cannot accept them).
    pub fn submit_sql(&self, sql: &str) -> Result<(), ServiceError> {
        if self.inner.metrics.is_degraded() {
            self.inner.metrics.record_degraded_refusal();
            return Err(ServiceError::Degraded);
        }
        self.inner.metrics.record_submitted();
        match self.inner.queue.submit(sql.to_string()) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.inner.metrics.record_rejected();
                Err(e)
            }
        }
    }

    /// Submit accepted-SQL **feedback**: a client confirming it ran (or
    /// approved) this translation.  Feedback rides exactly the same
    /// durable ingest path as [`TemplarService::submit_sql`] — journaled
    /// before it is applied on a durable service — and is additionally
    /// counted under the `feedback_accepted` metric so the learning loop's
    /// close rate is observable separately from raw log shipping.
    pub fn submit_feedback(&self, sql: &str) -> Result<(), ServiceError> {
        self.submit_sql(sql)?;
        self.inner.metrics.record_feedback();
        Ok(())
    }

    /// Reserve one slot of this tenant's in-flight quota
    /// ([`ServiceConfig::max_inflight`]).  Returns `None` — and counts an
    /// `admission_tenant_shed` — when the quota is full; the caller must
    /// then shed the request (the wire projection is
    /// [`ApiError::Backpressure`]) *before* queueing any work for it.
    pub fn try_admit(&self) -> Option<InflightPermit> {
        let quota = self.inner.service_config.max_inflight as u64;
        let mut current = self.inner.inflight.load(Ordering::Relaxed);
        loop {
            if current >= quota {
                self.inner.metrics.record_tenant_shed();
                return None;
            }
            match self.inner.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(InflightPermit {
                        inner: Arc::clone(&self.inner),
                    })
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Admission-controlled operations currently holding a permit.
    pub fn inflight(&self) -> u64 {
        self.inner.inflight.load(Ordering::Relaxed)
    }

    /// Count one request turned away by a serving plane's *global* in-flight
    /// cap against this tenant (the limit lives in the plane, the
    /// attribution in the tenant's metrics).
    pub fn record_global_shed(&self) {
        self.inner.metrics.record_global_shed();
    }

    /// Checkpoint a durable service: force the journal tail down, write the
    /// snapshot with the covered sequence number (the watermark) into the
    /// durable directory, and garbage-collect journal segments wholly below
    /// it.  Returns the watermark.  Fails with [`ServiceError::NotDurable`]
    /// on a service that was not started through
    /// [`TemplarService::recover`].
    pub fn checkpoint(&self) -> Result<u64, ServiceError> {
        let durable = self
            .inner
            .durable
            .as_ref()
            .ok_or(ServiceError::NotDurable)?;
        // One checkpoint at a time: see `Durable::checkpoint_lock`.
        let _checkpoint = durable.checkpoint_lock.lock();
        // Sync first: the snapshot+journal pair stays self-consistent even
        // if the snapshot write below fails half-way (the old snapshot and
        // the longer journal still recover the same state).
        {
            let mut wal = durable.wal.lock();
            let outcome = wal.sync();
            drain_wal_health(&self.inner.metrics, &mut wal);
            match outcome {
                Ok(true) => self.inner.metrics.record_wal_fsync(),
                Ok(false) => {}
                Err(e) => return Err(WalError::Io(e).into()),
            }
        }
        let (log, qfg, watermark) = self.clone_master_state();
        let body_bytes = snapshot::write_snapshot_with(
            durable.storage.as_ref(),
            &durable.snapshot_path(),
            &log,
            &qfg,
            Some(watermark),
        )?;
        self.inner.metrics.record_snapshot_body_bytes(body_bytes);
        match wal::gc_segments_with(durable.storage.as_ref(), &durable.wal_dir(), watermark) {
            Ok(0) => {}
            Ok(n) => self.inner.metrics.record_wal_segments_gc(n as u64),
            // The checkpoint itself succeeded; a GC failure only delays
            // space reclamation and is retried next time.
            Err(_) => self.inner.metrics.record_wal_io_errors(1),
        }
        Ok(watermark)
    }

    /// Block until every accepted entry has been applied and published in a
    /// snapshot.  On a durable service the journal tail is also written out
    /// and fsynced, even when the group-commit policy would wait longer, so
    /// a copy of the directory taken after `flush` replays every entry.
    /// Intended for tests, benches and orderly shutdown — the serving path
    /// never needs it.
    pub fn flush(&self) {
        loop {
            let drained = self.inner.queue.is_empty()
                && self.inner.metrics.ingest_applied_total()
                    >= self.inner.metrics.ingest_accepted_total();
            if drained {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        if let Some(durable) = &self.inner.durable {
            let mut wal = durable.wal.lock();
            let outcome = wal.sync();
            drain_wal_health(&self.inner.metrics, &mut wal);
            if let Ok(true) = outcome {
                self.inner.metrics.record_wal_fsync();
            }
        }
        self.force_refresh();
    }

    /// Immediately publish a snapshot of the current master state.
    pub fn force_refresh(&self) {
        let qfg = self.inner.master.lock().cut_publish();
        publish(&self.inner, qfg);
    }

    /// Persist the current master state (log + QFG) to `path`.
    ///
    /// The master lock is held only for the clone; serialization and disk
    /// I/O happen after it is released, so a snapshot save never stalls the
    /// ingestion worker for the duration of the write.
    ///
    /// On a durable service the snapshot carries the applied journal
    /// watermark even when `path` is outside the durable directory: a
    /// watermark-less snapshot written over `snapshot.templar` would make
    /// the next recovery replay the *entire* journal on top of a state that
    /// already contains it, silently doubling every count.
    pub fn save_snapshot(&self, path: &Path) -> Result<(), ServiceError> {
        // On a durable service, serialize with `checkpoint`: an unlocked
        // save aimed at the durable snapshot path could otherwise land an
        // older-watermark snapshot *after* a newer checkpoint GC'd the
        // segments that older watermark still needs.
        let _checkpoint = self
            .inner
            .durable
            .as_ref()
            .map(|durable| durable.checkpoint_lock.lock());
        let (log, qfg, applied_seq) = self.clone_master_state();
        let (storage, watermark): (&dyn Storage, _) = match &self.inner.durable {
            Some(durable) => (durable.storage.as_ref(), Some(applied_seq)),
            None => (&FsStorage, None),
        };
        let body_bytes = snapshot::write_snapshot_with(storage, path, &log, &qfg, watermark)?;
        self.inner.metrics.record_snapshot_body_bytes(body_bytes);
        Ok(())
    }

    /// Compact the master graph in place, so the snapshot carries an empty
    /// pending delta, and clone the state for persistence.  The master lock
    /// is held only for the clone — disk I/O always happens after it is
    /// released.
    fn clone_master_state(&self) -> (QueryLog, QueryFragmentGraph, u64) {
        let mut master = self.inner.master.lock();
        master.qfg.compact();
        (master.log.clone(), master.qfg.clone(), master.applied_seq)
    }

    /// Current write-availability state: [`HealthState::Degraded`] while
    /// the durable journal is failing and writes are refused.
    pub fn health_state(&self) -> HealthState {
        self.inner.metrics.health_state()
    }

    /// Point-in-time service metrics, including the current snapshot's QFG
    /// size and join-cache statistics.
    pub fn metrics(&self) -> MetricsReport {
        let mut snap = self.inner.metrics.export();
        let published = Arc::clone(&self.inner.published.read());
        let current = &published.templar;
        let cache = current.join_cache_stats();
        snap.join_cache_hits = cache.hits;
        snap.join_cache_misses = cache.misses;
        snap.join_cache_evictions = cache.evictions;
        snap.join_cache_entries = cache.entries as u64;
        snap.qfg_fragments = current.qfg().fragment_count() as u64;
        snap.qfg_edges = current.qfg().edge_count() as u64;
        snap.qfg_queries = current.qfg().query_count() as u64;
        snap.qfg_interned_fragments = snap.qfg_fragments;
        snap.qfg_csr_edges = current.qfg().csr_edge_len() as u64;
        snap.translation_cache_entries = published.cache.entries();
        let (word_hits, word_misses) = current.similarity().model().word_cache_stats();
        snap.word_memo_hits = word_hits;
        snap.word_memo_misses = word_misses;
        // Pending deltas and compactions are ingest-plane gauges: a
        // *published* snapshot is always compacted (its pending count would
        // read 0 by construction), so sample the master graph, where delta
        // pairs actually accumulate between publishes.
        {
            let master = self.inner.master.lock();
            snap.qfg_pending_deltas = master.qfg.pending_delta_len() as u64;
            snap.qfg_compactions = master.qfg.compactions();
            snap.wal_applied_seq = master.applied_seq;
        }
        snap
    }

    /// The service configuration in use.
    pub fn service_config(&self) -> &ServiceConfig {
        &self.inner.service_config
    }

    /// The Templar configuration in use.
    pub fn templar_config(&self) -> &TemplarConfig {
        &self.inner.templar_config
    }

    /// Stop accepting ingests, drain the queue, publish the final snapshot
    /// and join the worker.  A durable service additionally checkpoints, so
    /// an orderly shutdown leaves nothing for the next recovery to replay.
    /// Called automatically on drop.
    pub fn shutdown(&self) {
        self.inner.queue.close();
        if let Some(worker) = self.worker.lock().take() {
            let _ = worker.join();
        }
        if self.inner.durable.is_some() {
            // Best-effort: the journal is already synced by the worker's
            // exit path, so a failed final checkpoint only means the next
            // start replays a longer tail.  Journal-side failures inside
            // `checkpoint` record themselves under `wal_io_errors`;
            // snapshot-side failures are deliberately NOT mislabeled as
            // journal errors here.
            let _ = self.checkpoint();
        }
    }
}

impl Drop for TemplarService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Drain the journal's per-episode I/O accounting into the service metrics:
/// one `wal_io_errors` tick per distinct failure episode (not per retried
/// attempt) and the episode's *first* errno, so an operator can tell a disk
/// that filled (ENOSPC) from one that is dying (EIO).
fn drain_wal_health(metrics: &ServiceMetrics, wal: &mut WalWriter) {
    let io_errors = wal.take_io_errors();
    if io_errors > 0 {
        metrics.record_wal_io_errors(io_errors);
    }
    if let Some(errno) = wal.take_last_errno() {
        metrics.record_wal_errno(errno);
    }
}

/// Force the journal tail down with bounded in-line retry: exponential
/// backoff from `journal_retry_base_backoff` doubling up to
/// `journal_retry_max_backoff`, plus up to 25% deterministic xorshift jitter
/// so retry storms de-phase without an entropy source.  Returns the final
/// error once `journal_retry_attempts` tries (the first attempt included)
/// are exhausted — the caller decides whether that degrades the service.
///
/// The journal lock is held across the retries; the total stall is bounded
/// by the configured attempt/backoff knobs (≈15 ms at the defaults), and a
/// wedged journal is exactly the case where letting more writes race in
/// would not help.
fn sync_with_retry(
    metrics: &ServiceMetrics,
    wal: &mut WalWriter,
    wal_config: &WalConfig,
    jitter: &mut u64,
) -> std::io::Result<bool> {
    let mut backoff = wal_config.journal_retry_base_backoff;
    let mut attempt = 0u32;
    loop {
        let outcome = wal.sync();
        drain_wal_health(metrics, wal);
        match outcome {
            Ok(synced) => return Ok(synced),
            Err(e) => {
                attempt += 1;
                if attempt >= wal_config.journal_retry_attempts {
                    return Err(e);
                }
                metrics.record_journal_retry();
                *jitter ^= *jitter << 13;
                *jitter ^= *jitter >> 7;
                *jitter ^= *jitter << 17;
                let base = backoff.max(Duration::from_micros(4));
                let span = (base.as_micros() as u64 / 4).max(1);
                std::thread::sleep(base + Duration::from_micros(*jitter % span));
                backoff = (backoff * 2).min(wal_config.journal_retry_max_backoff);
            }
        }
    }
}

/// Publish `qfg` as a fresh immutable snapshot.  Runs *outside* the master
/// lock: the expensive part (schema graph + facade construction) never
/// blocks producers or the next ingest batch.
fn publish(inner: &ServiceInner, qfg: QueryFragmentGraph) {
    // The master QFG is maintained at the service's configured obscurity, so
    // reconstruction cannot hit the mismatch arm; this is an internal
    // invariant of the worker, not a public construction path.  Should it
    // ever break, keep serving the previous snapshot rather than panicking
    // the worker (which would take translations *and* durability with it).
    let templar = match Templar::from_parts(
        Arc::clone(&inner.db),
        qfg,
        inner.similarity.clone(),
        inner.templar_config.clone(),
    ) {
        Ok(templar) => templar,
        Err(_) => return,
    };
    let templar = Arc::new(templar);
    let cache = TranslationCache::new(TRANSLATION_CACHE_CAPACITY);
    // Both cells are stored under the `published` write lock, so racing
    // publishes leave them holding the same snapshot.  The previous pair is
    // dropped after the lock is released, and is freed here unless a
    // request still holds it.
    let _previous = {
        let mut published = inner.published.write();
        inner.handle.store(Arc::clone(&templar));
        std::mem::replace(&mut *published, Arc::new(Published { templar, cache }))
    };
    inner.metrics.record_swap();
    inner.metrics.record_translation_cache_invalidation();
}

/// The ingestion worker loop: drain → journal → apply incrementally →
/// maybe publish.
fn ingest_worker(inner: Arc<ServiceInner>) {
    let config = inner.service_config.clone();
    // The journal's time-based fsync only runs when this loop wakes, so a
    // dirty tail must cap the sleep at `fsync_interval` — otherwise the real
    // durability window would be max(fsync_interval, refresh_interval), not
    // what `WalConfig` promises.
    let mut wal_dirty = false;
    // Deterministic xorshift state for retry jitter; any non-zero seed works.
    let mut jitter: u64 = 0x9E37_79B9_7F4A_7C15;
    // Backoff between degraded-mode heal probes, reset on every heal.
    let mut probe_backoff = config.wal.journal_retry_base_backoff;
    loop {
        // Degraded mode: the journal exhausted its in-line retries, writes
        // are being refused at `submit_sql`, and this loop's only job is to
        // probe the journal until it heals.  The probe is a plain `sync()`:
        // success flushes the staged tail the failure stranded, so the heal
        // loses nothing that was acknowledged.  A closed queue overrides the
        // probe loop — shutdown still runs its best-effort final drain.
        if inner.metrics.is_degraded() && !inner.queue.is_closed() {
            if let Some(durable) = &inner.durable {
                let outcome = {
                    let mut wal = durable.wal.lock();
                    let outcome = wal.sync();
                    drain_wal_health(&inner.metrics, &mut wal);
                    outcome
                };
                match outcome {
                    Ok(synced) => {
                        if synced {
                            inner.metrics.record_wal_fsync();
                        }
                        inner.metrics.record_journal_heal();
                        probe_backoff = config.wal.journal_retry_base_backoff;
                    }
                    Err(_) => {
                        std::thread::sleep(probe_backoff.max(Duration::from_millis(1)));
                        probe_backoff =
                            (probe_backoff * 2).min(config.wal.journal_retry_max_backoff);
                        continue;
                    }
                }
            } else {
                // Unreachable: only durable sync paths degrade the service.
                inner.metrics.record_journal_heal();
            }
        }
        // A wedged journal (writes failing, frames piling up in the staging
        // buffer) must not keep absorbing the queue into memory: stop
        // draining until a sync succeeds, so the bounded queue fills and
        // producers get real `QueueFull` backpressure.  A closed queue
        // overrides the stall — shutdown must still drain (the leftover
        // staging is bounded by the queue capacity).
        if let Some(durable) = &inner.durable {
            let mut wal = durable.wal.lock();
            if wal.staged_bytes() > config.wal.max_staged_bytes && !inner.queue.is_closed() {
                match sync_with_retry(&inner.metrics, &mut wal, &config.wal, &mut jitter) {
                    Ok(true) => inner.metrics.record_wal_fsync(),
                    Ok(false) => {}
                    Err(_) => {
                        drop(wal);
                        inner.metrics.enter_degraded();
                        continue;
                    }
                }
                if wal.staged_bytes() > config.wal.max_staged_bytes {
                    drop(wal);
                    std::thread::sleep(
                        config
                            .wal
                            .fsync_interval
                            .max(std::time::Duration::from_millis(1)),
                    );
                    continue;
                }
            }
        }
        let timeout = if wal_dirty {
            config.refresh_interval.min(config.wal.fsync_interval)
        } else {
            config.refresh_interval
        };
        let batch = inner.queue.drain(INGEST_BATCH, timeout);
        let closed = inner.queue.is_closed();
        if batch.is_empty() && closed && inner.queue.is_empty() {
            // Drained after close: force the journal tail down, publish
            // anything still pending and exit.
            if let Some(durable) = &inner.durable {
                let mut wal = durable.wal.lock();
                // Best-effort: the process is exiting either way, so a
                // failure here is recorded but does not degrade.
                let outcome = wal.sync();
                drain_wal_health(&inner.metrics, &mut wal);
                if let Ok(true) = outcome {
                    inner.metrics.record_wal_fsync();
                }
            }
            let qfg = {
                let mut master = inner.master.lock();
                (master.pending_since_swap > 0).then(|| master.cut_publish())
            };
            if let Some(qfg) = qfg {
                publish(&inner, qfg);
            }
            return;
        }

        // Empty entries never reach the journal (a zero-length frame is
        // indistinguishable from a zero-filled crash artifact) or the
        // parser; they still count as parse errors so the accepted ==
        // applied accounting that `flush` relies on stays balanced.
        let mut batch = batch;
        let mut empty_entries = 0u64;
        batch.retain(|sql| {
            let keep = !sql.is_empty();
            if !keep {
                empty_entries += 1;
            }
            keep
        });

        // Journal the batch *before* any of it touches the master state:
        // an entry is only learned from once it is (at least staged to be)
        // durable.  Sequence numbers advance per record — parse failures
        // included — so the applied watermark always aligns with replay.
        let last_seq: Option<u64> = inner.durable.as_ref().and_then(|durable| {
            let mut wal = durable.wal.lock();
            let mut last = None;
            for sql in &batch {
                last = Some(wal.append(sql));
            }
            if !batch.is_empty() {
                inner.metrics.record_wal_appended(batch.len() as u64);
            }
            // Runs on every wake-up (even empty ones), so an aged dirty
            // tail is flushed within one fsync interval of falling idle.
            match wal.maybe_sync() {
                Ok(true) => inner.metrics.record_wal_fsync(),
                Ok(false) => {}
                // A due-but-failed sync gets the full in-line retry ladder;
                // exhausting it flips the service read-only.  The batch is
                // still applied below — every entry is staged in the
                // journal's buffer and replays through the healing sync.
                Err(_) => {
                    drain_wal_health(&inner.metrics, &mut wal);
                    match sync_with_retry(&inner.metrics, &mut wal, &config.wal, &mut jitter) {
                        Ok(true) => inner.metrics.record_wal_fsync(),
                        Ok(false) => {}
                        Err(_) => inner.metrics.enter_degraded(),
                    }
                }
            }
            drain_wal_health(&inner.metrics, &mut wal);
            wal_dirty = wal.dirty() > 0;
            last
        });

        let mut applied = 0u64;
        let mut parse_errors = empty_entries;
        let to_publish: Option<QueryFragmentGraph> = {
            let mut master = inner.master.lock();
            for sql in &batch {
                match parse_query(sql) {
                    Ok(query) => {
                        master.qfg.ingest(&query);
                        master.log.push(query);
                        master.pending_since_swap += 1;
                        applied += 1;
                    }
                    Err(_) => parse_errors += 1,
                }
            }
            if let Some(last_seq) = last_seq {
                master.applied_seq = last_seq;
            }
            let due_by_count = master.pending_since_swap >= config.refresh_every;
            let due_by_time = master.pending_since_swap > 0
                && master.last_swap.elapsed() >= config.refresh_interval;
            (due_by_count || due_by_time).then(|| master.cut_publish())
        };
        if applied > 0 {
            inner.metrics.record_applied(applied);
        }
        if parse_errors > 0 {
            inner.metrics.record_parse_errors(parse_errors);
        }
        // The rebuild runs after the master lock is released.
        if let Some(qfg) = to_publish {
            publish(&inner, qfg);
        }
    }
}
