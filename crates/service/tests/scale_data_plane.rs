//! Data plane at scale: the acceptance suite for million-entry logs.
//!
//! Everything here runs on deterministically scaled MAS workloads
//! ([`datasets::scale_log`]) so the numbers are the same on every machine:
//!
//! * crash recovery of a scaled log replays the journal in bounded-memory
//!   batches — the peak decoded batch stays within the configured budget —
//!   and the recovered service answers byte-identically, its QFG equal to
//!   the QFG built from the log, whether recovered from the journal, from
//!   a snapshot, or from a snapshot plus a journal tail above its
//!   watermark (the restart shape, with an unparsable and a torn record),
//! * the v4 log sections' streaming codec writes the `Value` path's bytes
//!   for every logged query.
//!
//! The 100× run executes in the default test tier; the full 1000× run is
//! `#[ignore]`d locally and driven explicitly (in release mode) by CI's
//! `scale-smoke` step.

use datasets::{scale_log, Dataset};
use serde::Serialize;
use sqlparse::Query;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use templar_core::{QueryFragmentGraph, QueryLog, TemplarConfig};
use templar_service::snapshot::read_snapshot_from;
use templar_service::{FsStorage, ServiceConfig, TemplarService, WAL_DIR};

/// A durable directory in the system temp dir, removed on drop — also when
/// a failing assertion unwinds past it.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("templar-scale-{}-{name}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

/// Copy a durable directory byte-for-byte — the `kill -9` image.
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// Exact translation bytes for the first few MAS benchmark questions: SQL
/// text plus the raw score bits of every ranked candidate.
fn translation_bytes(service: &TemplarService, mas: &Dataset) -> Vec<(String, u64)> {
    let mut bytes = Vec::new();
    for case in mas.cases.iter().take(3) {
        for ranked in service.translate(&case.nlq).unwrap() {
            bytes.push((ranked.query.to_string(), ranked.score.to_bits()));
        }
    }
    bytes
}

/// Ingest a whole scaled log through the bounded queue, yielding to the
/// worker whenever the queue is at capacity.
fn submit_all(service: &TemplarService, log: &QueryLog) {
    for query in log.queries() {
        let sql = query.to_string();
        while service.submit_sql(&sql).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    service.flush();
}

/// The scaled-MAS crash-recovery acceptance body, parameterized by scale
/// factor and recovery memory budget.
fn scaled_mas_recovery_roundtrip(factor: usize, batch_budget: usize) {
    let mas = Dataset::mas();
    let scaled = scale_log(&mas.full_log(), factor, 0xD1CE + factor as u64);
    let of_log = QueryFragmentGraph::build(&scaled, TemplarConfig::paper_defaults().obscurity);
    let dir = TempDir::new(&format!("recovery-{factor}x"));
    let image = TempDir::new(&format!("recovery-{factor}x-image"));
    let config = ServiceConfig::default()
        .with_queue_capacity(scaled.len())
        .with_refresh_every(scaled.len() / 4)
        .with_recovery_batch_bytes(batch_budget);
    let service = TemplarService::recover(
        Arc::clone(&mas.db),
        &dir.0,
        TemplarConfig::paper_defaults(),
        config.clone(),
    )
    .unwrap();
    submit_all(&service, &scaled);
    let live = translation_bytes(&service, &mas);
    let live_metrics = service.metrics();
    assert_eq!(live_metrics.wal_appended, scaled.len() as u64);
    assert_eq!(live_metrics.ingest_applied, scaled.len() as u64);

    copy_dir(&dir.0, &image.0); // kill -9 happens "now"
    drop(service);

    let recovered = TemplarService::recover(
        Arc::clone(&mas.db),
        &image.0,
        TemplarConfig::paper_defaults(),
        config,
    )
    .unwrap();
    let m = recovered.metrics();
    assert_eq!(
        m.wal_replayed,
        scaled.len() as u64,
        "no checkpoint was taken, so the whole scaled journal replays"
    );
    assert!(
        m.recovery_peak_batch_bytes > 0,
        "a non-empty replay must report its high-water mark"
    );
    assert!(
        m.recovery_peak_batch_bytes <= batch_budget as u64,
        "bounded-memory replay: peak batch {} exceeds the {batch_budget}-byte budget",
        m.recovery_peak_batch_bytes
    );
    assert_eq!(
        translation_bytes(&recovered, &mas),
        live,
        "recovery must be byte-identical at {factor}x scale"
    );
    assert!(
        recovered.snapshot().qfg() == &of_log,
        "journal replay must rebuild the QFG of the log at {factor}x scale"
    );

    // A checkpoint of the recovered state lands a v4 snapshot whose size is
    // surfaced as a gauge; a second recovery then replays (almost) nothing.
    recovered.checkpoint().unwrap();
    assert!(recovered.metrics().snapshot_body_bytes > 0);
    let image2 = TempDir::new(&format!("recovery-{factor}x-image2"));
    copy_dir(&image.0, &image2.0);
    drop(recovered);
    let from_snapshot = TemplarService::recover(
        Arc::clone(&mas.db),
        &image2.0,
        TemplarConfig::paper_defaults(),
        ServiceConfig::default().with_recovery_batch_bytes(batch_budget),
    )
    .unwrap();
    let m2 = from_snapshot.metrics();
    assert_eq!(
        m2.wal_replayed, 0,
        "the checkpoint covers the whole journal"
    );
    assert!(
        m2.snapshot_body_bytes > 0,
        "recovery reports the snapshot size it loaded"
    );
    assert_eq!(
        translation_bytes(&from_snapshot, &mas),
        live,
        "snapshot-based recovery must be byte-identical at {factor}x scale"
    );
    assert!(
        from_snapshot.snapshot().qfg() == &of_log,
        "snapshot recovery must restore the QFG of the log at {factor}x scale"
    );
}

/// 100× MAS (≈ 20k logged queries): runs in the default test tier and as
/// CI's scale smoke.
#[test]
fn mas_100x_recovers_within_a_64kib_batch_budget_byte_identically() {
    scaled_mas_recovery_roundtrip(100, 64 * 1024);
}

/// 1000× MAS (≈ 200k logged queries): the full acceptance run.  Ignored in
/// the default tier for runtime; CI executes it in release mode
/// (`cargo test --release -- --ignored mas_1000x`).
#[test]
#[ignore = "full-scale acceptance run; executed explicitly by CI in release mode"]
fn mas_1000x_recovers_within_a_256kib_batch_budget_byte_identically() {
    scaled_mas_recovery_roundtrip(1000, 256 * 1024);
}

/// The restart shape at scale: a large snapshot plus a journal tail above
/// its watermark, so recovery decodes the one while it reads the other.
/// The first half of the scaled log is checkpointed; the second half is
/// journaled with one unparsable record in its middle, and its final record
/// is torn.  Recovery must hold exactly the surviving parsed log, in order,
/// and the QFG built from it.
fn scaled_mas_snapshot_and_torn_tail_recovery(factor: usize, batch_budget: usize) {
    let mas = Dataset::mas();
    let obscurity = TemplarConfig::paper_defaults().obscurity;
    let scaled = scale_log(&mas.full_log(), factor, 0x7A11 + factor as u64);
    let sql: Vec<String> = scaled.queries().iter().map(|q| q.to_string()).collect();
    let (head, tail) = sql.split_at(sql.len() / 2);
    let dir = TempDir::new(&format!("restart-{factor}x"));
    let image = TempDir::new(&format!("restart-{factor}x-image"));
    let config = ServiceConfig::default()
        .with_queue_capacity(sql.len())
        .with_refresh_every(sql.len() / 4)
        .with_recovery_batch_bytes(batch_budget);
    let service = TemplarService::recover(
        Arc::clone(&mas.db),
        &dir.0,
        TemplarConfig::paper_defaults(),
        config.clone(),
    )
    .unwrap();
    for entry in head {
        service.submit_sql(entry).unwrap();
    }
    service.flush();
    assert_eq!(service.checkpoint().unwrap(), head.len() as u64);
    for (i, entry) in tail.iter().enumerate() {
        if i == tail.len() / 2 {
            service.submit_sql("THIS IS NOT SQL AT ALL").unwrap();
        }
        service.submit_sql(entry).unwrap();
    }
    service.flush();
    copy_dir(&dir.0, &image.0); // kill -9 with the tail journaled
    drop(service);

    // Tear the final record: cut the last byte off the final segment.
    let mut segments: Vec<PathBuf> = fs::read_dir(image.0.join(WAL_DIR))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segments.sort();
    let last = segments.pop().unwrap();
    let len = fs::metadata(&last).unwrap().len();
    fs::OpenOptions::new()
        .write(true)
        .open(&last)
        .unwrap()
        .set_len(len - 1)
        .unwrap();

    let recovered = TemplarService::recover(
        Arc::clone(&mas.db),
        &image.0,
        TemplarConfig::paper_defaults(),
        config,
    )
    .unwrap();
    let survivors = head.iter().chain(&tail[..tail.len() - 1]);
    let (log, skipped) = QueryLog::from_sql(survivors.map(String::as_str));
    assert_eq!(skipped, 0);
    let m = recovered.metrics();
    assert_eq!(
        m.wal_replayed,
        tail.len() as u64,
        "the tail and the noise replay, less the torn record"
    );
    assert_eq!(m.log_skipped_statements, 1, "the noise counts as a skip");
    assert!(
        m.wal_truncated_bytes > 0,
        "the torn record is cut and reported"
    );
    assert_eq!(m.wal_applied_seq, sql.len() as u64);
    assert_eq!(m.qfg_queries, log.len() as u64);
    assert!(
        m.recovery_peak_batch_bytes > 0 && m.recovery_peak_batch_bytes <= batch_budget as u64,
        "peak batch {} must be within the {batch_budget}-byte budget",
        m.recovery_peak_batch_bytes
    );
    assert!(
        recovered.snapshot().qfg() == &QueryFragmentGraph::build(&log, obscurity),
        "snapshot plus tail must rebuild the QFG of the surviving log at {factor}x scale"
    );

    // The recovered log itself, in order: a snapshot saved now reads it back.
    let saved = image.0.join("saved.templar");
    recovered.save_snapshot(&saved).unwrap();
    let (snapshot, watermark) = read_snapshot_from(&FsStorage, &saved, obscurity).unwrap();
    assert_eq!(watermark, sql.len() as u64);
    assert!(
        snapshot.log == log,
        "the recovered log must be the surviving log, in order, at {factor}x scale"
    );
}

/// 100× MAS restart shape: runs in the default test tier.
#[test]
fn mas_100x_snapshot_plus_torn_tail_recovers_the_surviving_log() {
    scaled_mas_snapshot_and_torn_tail_recovery(100, 64 * 1024);
}

/// 1000× MAS restart shape: ignored in the default tier for runtime; CI
/// runs it in release mode with the other ignored scale tests.
#[test]
#[ignore = "full-scale acceptance run; executed explicitly by CI in release mode"]
fn mas_1000x_snapshot_plus_torn_tail_recovers_the_surviving_log() {
    scaled_mas_snapshot_and_torn_tail_recovery(1000, 256 * 1024);
}

/// The v4 log sections stream each `Query` through the typed codec.  For
/// every logged query of the three benchmark logs and of a 100× scaled MAS
/// log it must write exactly the bytes of the `Value` path, and decode them
/// back to the same query.
#[test]
fn logged_queries_stream_the_value_path_bytes() {
    let mas = Dataset::mas();
    let logs = [
        mas.full_log(),
        Dataset::yelp().full_log(),
        Dataset::imdb().full_log(),
        scale_log(&mas.full_log(), 100, 0x5EED),
    ];
    for log in &logs {
        for query in log.queries() {
            let mut streamed = Vec::new();
            query.encode(&mut streamed);
            let mut via_value = Vec::new();
            serde::encode_value(&query.to_value(), &mut via_value);
            assert_eq!(streamed, via_value, "{query}");
            assert_eq!(&serde::decode::<Query>(&streamed).unwrap(), query);
        }
    }
}
