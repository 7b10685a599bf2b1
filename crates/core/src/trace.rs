//! Per-request pipeline tracing: cheap, thread-aware stage timers.
//!
//! Templar's ranking quality comes from a pipeline of distinct stages —
//! candidate retrieval/pruning, the best-first configuration search, join
//! inference, SQL construction and final ranking — and a latency regression
//! in any one of them is invisible to a single end-to-end histogram.  This
//! module is the vendored, zero-dependency substrate the serving layer
//! attributes latency with:
//!
//! * [`TraceSpans`] — the per-request collector: one relaxed atomic
//!   nanosecond accumulator and call counter per [`Stage`],
//! * [`TraceCtx`] — the `Copy` handle threaded through the pipeline.  The
//!   **disabled** context is the default everywhere in this crate and is a
//!   `None` check per stage: no clock is read, nothing is recorded, so the
//!   untraced fast path stays within noise of the pre-tracing build,
//! * [`SpanGuard`] — an RAII stage timer ([`TraceCtx::span`]); spans on the
//!   request thread are non-overlapping by construction, so their durations
//!   sum to at most the end-to-end latency,
//! * [`RequestTrace`] — the immutable, serializable breakdown exported once
//!   the request finishes, carried on the wire by `templar-api`.
//!
//! The configuration search also reports its own busy time, as one search
//! worker ([`RequestTrace::search_worker_nanos`]): the `config_search` span
//! covers fragment-id resolution and materialization too, while the worker
//! time is the best-first walk alone.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of pipeline stages in [`Stage::ALL`].
pub const STAGE_COUNT: usize = 5;

/// The traced pipeline stages, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Keyword candidate retrieval (Algorithm 2) plus scoring and pruning
    /// (Algorithm 3): tokenization, lexicon/similarity lookups, full-text
    /// candidate generation.
    CandidatePruning = 0,
    /// The best-first configuration search over the pruned candidate lists,
    /// including fragment-id resolution and result materialization.
    ConfigSearch = 1,
    /// `INFERJOINS` over each top configuration's relation bag (cache hits
    /// included — a hit is a call with a near-zero duration).
    JoinInference = 2,
    /// SQL assembly from configuration + join path, plus canonicalization
    /// for deduplication.
    SqlConstruction = 3,
    /// The final cross-candidate sort of the λ-blended ranking.
    Ranking = 4,
}

impl Stage {
    /// Every stage, in execution order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::CandidatePruning,
        Stage::ConfigSearch,
        Stage::JoinInference,
        Stage::SqlConstruction,
        Stage::Ranking,
    ];

    /// The stable wire/metrics name of the stage.
    pub fn name(self) -> &'static str {
        match self {
            Stage::CandidatePruning => "candidate_pruning",
            Stage::ConfigSearch => "config_search",
            Stage::JoinInference => "join_inference",
            Stage::SqlConstruction => "sql_construction",
            Stage::Ranking => "ranking",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The per-request span collector.  All counters are relaxed atomics, so a
/// collector is `Sync` and any thread holding its [`TraceCtx`] can record.
#[derive(Debug, Default)]
pub struct TraceSpans {
    nanos: [AtomicU64; STAGE_COUNT],
    calls: [AtomicU64; STAGE_COUNT],
    search_worker_nanos: AtomicU64,
    search_workers: AtomicU64,
}

impl TraceSpans {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one timed call to a stage.
    pub fn add(&self, stage: Stage, nanos: u64) {
        let i = stage.index();
        self.nanos[i].fetch_add(nanos, Ordering::Relaxed);
        self.calls[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Report one search worker's busy time.
    pub fn add_search_worker(&self, nanos: u64) {
        self.search_worker_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.search_workers.fetch_add(1, Ordering::Relaxed);
    }

    /// Export the collected spans as an immutable breakdown.  `total` is the
    /// request's measured end-to-end latency, recorded alongside the stages
    /// so consumers can see both the attribution and the unattributed
    /// remainder.
    pub fn finish(&self, total: Duration) -> RequestTrace {
        let stages = Stage::ALL
            .iter()
            .map(|&stage| StageSpan {
                stage: stage.name().to_string(),
                nanos: self.nanos[stage.index()].load(Ordering::Relaxed),
                calls: self.calls[stage.index()].load(Ordering::Relaxed),
            })
            .collect();
        RequestTrace {
            total_nanos: total.as_nanos().min(u64::MAX as u128) as u64,
            stages,
            search_worker_nanos: self.search_worker_nanos.load(Ordering::Relaxed),
            search_workers: self.search_workers.load(Ordering::Relaxed),
        }
    }
}

/// The tracing handle threaded through the pipeline.  `Copy`, two words,
/// and inert when disabled: every instrumentation point is one `Option`
/// check, and the monotonic clock is only read for enabled contexts.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCtx<'a> {
    spans: Option<&'a TraceSpans>,
}

impl<'a> TraceCtx<'a> {
    /// The inert context: records nothing, never reads the clock.
    pub const fn disabled() -> Self {
        TraceCtx { spans: None }
    }

    /// A context recording into `spans`.
    pub fn enabled(spans: &'a TraceSpans) -> Self {
        TraceCtx { spans: Some(spans) }
    }

    /// True when spans are being collected.
    pub fn is_enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Start a stage timer; the elapsed time is recorded when the returned
    /// guard drops.  On a disabled context this is a no-op that never reads
    /// the clock.
    pub fn span(self, stage: Stage) -> SpanGuard<'a> {
        SpanGuard {
            active: self.spans.map(|spans| (spans, stage, Instant::now())),
        }
    }

    /// Start a search-worker busy timer (`None` when disabled).  Pass the
    /// result to [`TraceCtx::finish_worker`] when the search is done.
    pub fn worker_start(self) -> Option<Instant> {
        self.spans.map(|_| Instant::now())
    }

    /// Record a search worker's busy time started by
    /// [`TraceCtx::worker_start`].
    pub fn finish_worker(self, started: Option<Instant>) {
        if let (Some(spans), Some(started)) = (self.spans, started) {
            spans.add_search_worker(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

/// RAII timer for one stage call; records on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    active: Option<(&'a TraceSpans, Stage, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((spans, stage, started)) = self.active.take() {
            spans.add(
                stage,
                started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            );
        }
    }
}

/// One stage's accumulated time within a single request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSpan {
    /// The stage's stable name ([`Stage::name`]).
    pub stage: String,
    /// Accumulated wall-clock nanoseconds across all calls of the stage.
    pub nanos: u64,
    /// How many timed calls the stage saw (e.g. one join inference per
    /// expanded configuration).
    pub calls: u64,
}

/// The per-stage breakdown of one finished request.  Stage spans are
/// measured on the request thread and never overlap, so
/// [`RequestTrace::stage_sum_nanos`] ≤ [`RequestTrace::total_nanos`]; the
/// remainder is un-attributed glue (snapshot load, scoring bookkeeping).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestTrace {
    /// Measured end-to-end latency of the request.
    pub total_nanos: u64,
    /// One entry per [`Stage`], in execution order (stages that never ran
    /// carry zero calls).
    pub stages: Vec<StageSpan>,
    /// Busy time of the configuration search's own walk, without the
    /// resolution and materialization the wall-clock `config_search` span
    /// also covers.
    pub search_worker_nanos: u64,
    /// Number of search workers that reported busy time: one whenever the
    /// search ran.
    pub search_workers: u64,
}

impl RequestTrace {
    /// Accumulated nanoseconds of one stage (0 when it never ran).
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.stages
            .iter()
            .find(|s| s.stage == stage.name())
            .map_or(0, |s| s.nanos)
    }

    /// Sum of all stage durations — at most `total_nanos`.
    pub fn stage_sum_nanos(&self) -> u64 {
        self.stages.iter().map(|s| s.nanos).sum()
    }

    /// End-to-end latency in whole microseconds.
    pub fn total_us(&self) -> u64 {
        self.total_nanos / 1_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_context_records_nothing_and_reads_no_clock() {
        let ctx = TraceCtx::disabled();
        assert!(!ctx.is_enabled());
        {
            let _span = ctx.span(Stage::ConfigSearch);
        }
        ctx.finish_worker(ctx.worker_start());
        // Nothing to observe — the point is that the guards are inert; the
        // collector-backed assertions below prove the enabled path works.
    }

    #[test]
    fn enabled_spans_accumulate_nanos_and_calls() {
        let spans = TraceSpans::new();
        let ctx = TraceCtx::enabled(&spans);
        for _ in 0..3 {
            let _span = ctx.span(Stage::JoinInference);
            std::hint::black_box(());
        }
        let trace = spans.finish(Duration::from_micros(10));
        let join = &trace.stages[Stage::JoinInference.index()];
        assert_eq!(join.stage, "join_inference");
        assert_eq!(join.calls, 3);
        assert_eq!(trace.stage_nanos(Stage::JoinInference), join.nanos);
        assert_eq!(trace.stages.len(), STAGE_COUNT);
        assert_eq!(trace.total_nanos, 10_000);
    }

    #[test]
    fn worker_time_is_collected_separately() {
        let spans = TraceSpans::new();
        let ctx = TraceCtx::enabled(&spans);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(move || {
                    let t = ctx.worker_start();
                    std::hint::black_box(0u64);
                    ctx.finish_worker(t);
                });
            }
        });
        let trace = spans.finish(Duration::from_micros(1));
        assert_eq!(trace.search_workers, 2);
    }

    #[test]
    fn nonoverlapping_spans_sum_to_at_most_the_total() {
        let spans = TraceSpans::new();
        let ctx = TraceCtx::enabled(&spans);
        let started = Instant::now();
        for stage in Stage::ALL {
            let _span = ctx.span(stage);
            std::hint::black_box(());
        }
        let trace = spans.finish(started.elapsed());
        assert!(
            trace.stage_sum_nanos() <= trace.total_nanos,
            "stages {} > total {}",
            trace.stage_sum_nanos(),
            trace.total_nanos
        );
    }

    #[test]
    fn request_traces_round_trip_through_serde() {
        let spans = TraceSpans::new();
        spans.add(Stage::CandidatePruning, 1_500);
        spans.add(Stage::ConfigSearch, 42_000);
        spans.add_search_worker(40_000);
        let trace = spans.finish(Duration::from_micros(50));
        let back: RequestTrace =
            serde_json::from_str(&serde_json::to_string(&trace).unwrap()).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.total_us(), 50);
    }

    #[test]
    fn stage_names_are_stable_and_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STAGE_COUNT);
    }
}
