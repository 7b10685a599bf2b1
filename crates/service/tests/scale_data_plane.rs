//! Data plane at scale: the acceptance suite for million-entry logs.
//!
//! Everything here runs on deterministically scaled MAS workloads
//! ([`datasets::scale_log`]) so the numbers are the same on every machine:
//!
//! * crash recovery of a scaled log replays the journal in bounded-memory
//!   batches — the peak decoded batch stays within the configured budget —
//!   and the recovered service answers byte-identically, its QFG equal to
//!   the QFG built from the log, whether recovered from the journal or from
//!   a snapshot,
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
use templar_service::{ServiceConfig, TemplarService};

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
