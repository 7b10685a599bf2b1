//! Data-plane timings at 1× / 100× / 1000× MAS scale: deterministic
//! scaled-log build, post-churn publish (one compaction of the pending
//! delta into the CSR; its cost tracks the graph's live edges, which the
//! `NoConstOp` level saturates), sectioned v4 snapshot write/read, and
//! bounded-memory WAL recovery.
//!
//! One timed pass per phase (these are multi-second macro phases, not
//! nanosecond kernels); `--test` runs a smoke pass at reduced factors.

use datasets::{scale_log, Dataset};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use templar_core::{Obscurity, QueryFragmentGraph, QueryLog, TemplarConfig};
use templar_service::{
    snapshot, wal, FsStorage, ServiceConfig, TemplarService, WalConfig, WAL_DIR,
};

const RECOVERY_BATCH_BYTES: usize = 256 * 1024;

/// Print one phase's wall-clock, followed by `detail` (may be empty).
fn report(id: &str, elapsed_ns: u128, detail: &str) {
    let line = format!("{id:<50} {:>12.1} ms  {detail}", elapsed_ns as f64 / 1e6);
    println!("{}", line.trim_end());
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("templar-bench-scale-{}-{name}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Build + publish + snapshot + recover at one scale factor.
fn run_factor(base: &QueryLog, factor: usize) {
    let scaled = scale_log(base, factor, 0x0BEA_C0DE + factor as u64);

    // Phase 1: incremental build of the graph from an empty state, ending
    // in the publish-time compaction.
    let started = Instant::now();
    let mut graph = QueryFragmentGraph::empty(Obscurity::NoConstOp);
    for query in scaled.queries() {
        graph.ingest(query);
    }
    graph.compact();
    report(
        &format!("scale_data_plane/build_{factor}x"),
        started.elapsed().as_nanos(),
        &format!("{} entries, {} edges", scaled.len(), graph.edge_count()),
    );

    // Phase 2: publish after bounded churn.  One base log's worth of fresh
    // entries lands on a graph carrying `factor`× history, and the publish
    // compacts the pending delta into a fresh CSR, at a cost that tracks
    // the graph's fragments and edges, not how many entries it has seen.
    for query in base.queries() {
        graph.ingest(query);
    }
    let started = Instant::now();
    graph.compact();
    report(
        &format!("scale_data_plane/publish_after_churn_{factor}x"),
        started.elapsed().as_nanos(),
        "",
    );

    // Phase 3: sectioned v4 snapshot write and streaming read.
    let dir = temp_dir(&format!("snap-{factor}x"));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.snapshot");
    let started = Instant::now();
    let bytes = snapshot::write_snapshot_with(&FsStorage, &path, &scaled, &graph, None).unwrap();
    report(
        &format!("scale_data_plane/snapshot_write_{factor}x"),
        started.elapsed().as_nanos(),
        &format!("{bytes} body bytes"),
    );
    let started = Instant::now();
    let (snap, _) = snapshot::read_snapshot_from(&FsStorage, &path, Obscurity::NoConstOp).unwrap();
    assert_eq!(snap.log.len(), scaled.len());
    report(
        &format!("scale_data_plane/snapshot_read_{factor}x"),
        started.elapsed().as_nanos(),
        "",
    );
    fs::remove_dir_all(&dir).ok();

    // Phase 4: crash recovery of the whole scaled log from the journal
    // alone, replayed in bounded batches.
    let dir = temp_dir(&format!("recover-{factor}x"));
    let wal_dir = dir.join(WAL_DIR);
    fs::create_dir_all(&wal_dir).unwrap();
    {
        let mut writer =
            wal::WalWriter::create_with(FsStorage::shared(), &wal_dir, 1, WalConfig::default())
                .unwrap();
        for query in scaled.queries() {
            writer.append(&query.to_string());
        }
        writer.sync().unwrap();
    }
    let mas = Dataset::mas();
    let started = Instant::now();
    let service = TemplarService::recover(
        Arc::clone(&mas.db),
        &dir,
        TemplarConfig::paper_defaults(),
        ServiceConfig::default().with_recovery_batch_bytes(RECOVERY_BATCH_BYTES),
    )
    .unwrap();
    let elapsed = started.elapsed().as_nanos();
    let metrics = service.metrics();
    assert_eq!(metrics.wal_replayed, scaled.len() as u64);
    assert!(metrics.recovery_peak_batch_bytes <= RECOVERY_BATCH_BYTES as u64);
    report(
        &format!("scale_data_plane/recover_{factor}x"),
        elapsed,
        &format!("{} peak batch bytes", metrics.recovery_peak_batch_bytes),
    );
    drop(service);
    fs::remove_dir_all(&dir).ok();
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let base = Dataset::mas().full_log();
    let factors: &[usize] = if smoke { &[1, 10] } else { &[1, 100, 1000] };
    for &factor in factors {
        run_factor(&base, factor);
    }
}
