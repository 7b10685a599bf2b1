//! Crash-safety integration tests for the durable ingest path.
//!
//! The contract under test (ISSUE 4's acceptance criterion): a `kill -9`
//! between snapshot publishes loses **at most the un-fsynced WAL tail** — a
//! recovered service answers the acceptance queries *byte-identically* to an
//! uninterrupted service over the same ingested log.
//!
//! A crash is simulated by copying the durable directory while the original
//! service is still running (the copy is exactly the on-disk image a
//! `kill -9` at that instant would leave — no orderly-shutdown checkpoint)
//! and recovering a second service from the copy.  The torn-write matrix
//! additionally truncates the final journal segment at **every byte
//! boundary** of its tail records before recovering.

use nlidb::Nlq;
use nlp::TextSimilarity;
use relational::{DataType, Database, Schema};
use sqlparse::BinOp;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use templar_core::{Keyword, KeywordMetadata, Obscurity, QueryLog, TemplarConfig};
use templar_service::{
    FaultyStorage, ServiceConfig, ServiceError, SnapshotError, StorageOp, TemplarService, WalError,
    SNAPSHOT_FILE, WAL_DIR,
};

fn academic_db() -> Arc<Database> {
    let schema = Schema::builder("academic")
        .relation(
            "publication",
            &[
                ("pid", DataType::Integer),
                ("title", DataType::Text),
                ("year", DataType::Integer),
                ("jid", DataType::Integer),
            ],
            Some("pid"),
        )
        .relation(
            "journal",
            &[("jid", DataType::Integer), ("name", DataType::Text)],
            Some("jid"),
        )
        .foreign_key("publication", "jid", "journal", "jid")
        .build();
    let mut db = Database::new(schema);
    db.insert(
        "publication",
        vec![1.into(), "Query Processing".into(), 2003.into(), 1.into()],
    )
    .unwrap();
    db.insert("journal", vec![1.into(), "TKDE".into()]).unwrap();
    Arc::new(db)
}

fn papers_after_2000() -> Nlq {
    Nlq::new(
        "Return the papers after 2000",
        vec![
            (Keyword::new("papers"), KeywordMetadata::select()),
            (
                Keyword::new("after 2000"),
                KeywordMetadata::filter_with_op(BinOp::Gt),
            ),
        ],
        vec![],
    )
}

/// Durable config tuned for tests: every record is fsynced as soon as the
/// worker sees it, so `flush()` leaves a fully durable journal.
fn durable_config() -> ServiceConfig {
    ServiceConfig::default()
        .with_refresh_every(4)
        .with_refresh_interval(Duration::from_millis(10))
        .with_wal_fsync_every(1)
}

/// A durable directory in the system temp dir, removed on drop — also when
/// a failing assertion unwinds past it.
struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

fn temp_dir(name: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("templar-recovery-{}-{name}", std::process::id()));
    TempDir(dir)
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

/// Translations as comparable bytes: the exact SQL text and the exact score
/// bits of every ranked candidate.
fn translation_bytes(service: &TemplarService, nlq: &Nlq) -> Vec<(String, u64)> {
    service
        .translate(nlq)
        .unwrap()
        .iter()
        .map(|r| (r.query.to_string(), r.score.to_bits()))
        .collect()
}

/// Byte offsets of every whole-record boundary in a journal segment
/// (walking the `[len][crc][payload]` framing), starting with 0.
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = vec![0usize];
    let mut at = 0usize;
    while at + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        if bytes.len() - at - 8 < len {
            break;
        }
        at += 8 + len;
        boundaries.push(at);
    }
    boundaries
}

/// The final (highest-first-seq) journal segment in a durable directory.
fn final_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir.join(WAL_DIR))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segments.sort();
    segments.pop().expect("journal has at least one segment")
}

const ACADEMIC_LOG: [&str; 5] = [
    "SELECT p.title FROM publication p WHERE p.year > 1995",
    "SELECT p.title FROM publication p WHERE p.year > 2010",
    "SELECT p.title FROM publication p, journal j WHERE j.name = 'TKDE' AND p.jid = j.jid",
    "SELECT j.name FROM journal j",
    "SELECT p.title FROM publication p WHERE p.year > 2001",
];

/// `kill -9` with **no checkpoint ever taken**: the whole log lives in the
/// journal, and recovery replays all of it.  The recovered service answers
/// byte-identically to the still-running original.
#[test]
fn crash_without_checkpoint_replays_the_full_journal() {
    let dir = temp_dir("no-checkpoint");
    let image = temp_dir("no-checkpoint-image");
    let service = TemplarService::recover(
        academic_db(),
        &dir,
        TemplarConfig::paper_defaults(),
        durable_config(),
    )
    .unwrap();
    for sql in ACADEMIC_LOG {
        service.submit_sql(sql).unwrap();
    }
    service.flush();
    let live = translation_bytes(&service, &papers_after_2000());
    let live_metrics = service.metrics();
    assert_eq!(live_metrics.wal_appended, 5);
    assert!(live_metrics.wal_fsyncs >= 1);
    assert_eq!(live_metrics.wal_applied_seq, 5);

    copy_dir(&dir, &image); // kill -9 happens "now"
                            // A crash mid-checkpoint can orphan a uniquely-named snapshot temp
                            // file; recovery must sweep it rather than leak it forever.
    let orphan = image.join(format!(".{SNAPSHOT_FILE}.999999.0.tmp"));
    fs::write(&orphan, "half-written snapshot").unwrap();

    let recovered = TemplarService::recover(
        academic_db(),
        &image,
        TemplarConfig::paper_defaults(),
        durable_config(),
    )
    .unwrap();
    assert!(
        !orphan.exists(),
        "recovery must sweep crash-orphaned snapshot temp files"
    );
    let m = recovered.metrics();
    assert_eq!(m.wal_replayed, 5, "no snapshot: the whole journal replays");
    assert_eq!(m.wal_applied_seq, 5);
    assert_eq!(m.qfg_queries, live_metrics.qfg_queries);
    assert_eq!(m.qfg_fragments, live_metrics.qfg_fragments);
    assert_eq!(m.qfg_edges, live_metrics.qfg_edges);
    assert_eq!(
        translation_bytes(&recovered, &papers_after_2000()),
        live,
        "recovered service must answer byte-identically"
    );

    drop(service);
}

/// `kill -9` *after* a checkpoint: recovery loads the snapshot, replays only
/// the tail above the watermark, and still answers byte-identically.  The
/// checkpoint also garbage-collects wholly covered segments.
#[test]
fn checkpoint_bounds_replay_and_collects_covered_segments() {
    let dir = temp_dir("checkpointed");
    let image = temp_dir("checkpointed-image");
    let service = TemplarService::recover(
        academic_db(),
        &dir,
        TemplarConfig::paper_defaults(),
        // Tiny segments so the pre-checkpoint records span several.
        durable_config().with_wal_segment_max_records(2),
    )
    .unwrap();
    for sql in &ACADEMIC_LOG[..3] {
        service.submit_sql(sql).unwrap();
    }
    service.flush();
    let watermark = service.checkpoint().unwrap();
    assert_eq!(watermark, 3);
    assert!(
        service.metrics().wal_segments_gc >= 1,
        "checkpoint must collect wholly covered segments"
    );
    assert!(dir.join(SNAPSHOT_FILE).exists());

    for sql in &ACADEMIC_LOG[3..] {
        service.submit_sql(sql).unwrap();
    }
    service.flush();
    let live = translation_bytes(&service, &papers_after_2000());

    copy_dir(&dir, &image); // kill -9 after the un-checkpointed tail

    let recovered = TemplarService::recover(
        academic_db(),
        &image,
        TemplarConfig::paper_defaults(),
        durable_config(),
    )
    .unwrap();
    let m = recovered.metrics();
    assert_eq!(
        m.wal_replayed, 2,
        "only the tail above watermark {watermark} replays"
    );
    assert_eq!(m.qfg_queries, 5);
    assert_eq!(translation_bytes(&recovered, &papers_after_2000()), live);

    drop(service);
}

/// The torn-write matrix: truncate the final journal segment at **every
/// byte length** from intact down to empty, and recover from each image.
/// Recovery must always succeed; whole records survive, the torn final
/// record is dropped, and the recovered service serves translations
/// byte-identical to an uninterrupted service over exactly the surviving
/// prefix of the log.
#[test]
fn torn_write_matrix_recovers_at_every_byte_boundary() {
    let dir = temp_dir("torn-matrix");
    // Phase 1: checkpoint a 2-entry prefix and shut down — the prefix is
    // covered by the snapshot and lives in the first session's segment.
    {
        let service = TemplarService::recover(
            academic_db(),
            &dir,
            TemplarConfig::paper_defaults(),
            durable_config(),
        )
        .unwrap();
        for sql in &ACADEMIC_LOG[..2] {
            service.submit_sql(sql).unwrap();
        }
        service.flush();
        assert_eq!(service.checkpoint().unwrap(), 2);
    }
    // Phase 2: a new session journals the 3-entry tail into its own fresh
    // segment (recovery always resumes on a new segment), then "crashes".
    let service = TemplarService::recover(
        academic_db(),
        &dir,
        TemplarConfig::paper_defaults(),
        durable_config(),
    )
    .unwrap();
    assert_eq!(service.metrics().wal_replayed, 0);
    for sql in &ACADEMIC_LOG[2..] {
        service.submit_sql(sql).unwrap();
    }
    service.flush();
    let image = temp_dir("torn-matrix-image");
    copy_dir(&dir, &image);
    drop(service);

    let segment = final_segment(&image);
    let intact = fs::read(&segment).unwrap();
    let boundaries = record_boundaries(&intact);
    assert_eq!(
        boundaries.len(),
        4,
        "the final segment must hold exactly the 3 tail records"
    );

    // Reference translations for every possible surviving prefix, built
    // from scratch (no durability involved) — the ground truth a recovered
    // service must match byte-for-byte.
    let nlq = papers_after_2000();
    let references: Vec<Vec<(String, u64)>> = (0..=3)
        .map(|survivors| {
            let (log, skipped) = QueryLog::from_sql(ACADEMIC_LOG[..2 + survivors].iter().copied());
            assert_eq!(skipped, 0);
            let reference = TemplarService::spawn(
                academic_db(),
                &log,
                TemplarConfig::paper_defaults(),
                ServiceConfig::default(),
            )
            .unwrap();
            translation_bytes(&reference, &nlq)
        })
        .collect();

    let case = temp_dir("torn-matrix-case");
    for cut in 0..=intact.len() {
        fs::remove_dir_all(&case).ok();
        copy_dir(&image, &case);
        let torn_segment = final_segment(&case);
        let file = fs::OpenOptions::new()
            .write(true)
            .open(&torn_segment)
            .unwrap();
        file.set_len(cut as u64).unwrap();
        drop(file);

        let survivors = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        let recovered = TemplarService::recover(
            academic_db(),
            &case,
            TemplarConfig::paper_defaults(),
            durable_config(),
        )
        .unwrap_or_else(|e| panic!("recovery failed at truncation {cut}: {e}"));
        let m = recovered.metrics();
        assert_eq!(
            m.wal_replayed, survivors as u64,
            "truncation at byte {cut} must replay exactly the whole records"
        );
        // The torn remainder (bytes past the last whole record) is cut and
        // reported — the operator-visible signature of bounded tail loss.
        assert_eq!(
            m.wal_truncated_bytes,
            (cut - boundaries[survivors]) as u64,
            "truncation at byte {cut} must report the torn remainder"
        );
        assert_eq!(
            m.qfg_queries,
            2 + survivors as u64,
            "truncation at byte {cut}: snapshot prefix + surviving tail"
        );
        assert_eq!(
            translation_bytes(&recovered, &nlq),
            references[survivors],
            "truncation at byte {cut} must serve the surviving prefix's \
             translations byte-identically"
        );
    }
}

/// The acceptance-criterion run on the real MAS workload: ingest MAS gold
/// SQL, crash (dir copy), recover, and answer the MAS acceptance NLQs
/// byte-identically to the uninterrupted service.  Feedback entries ride
/// the same durable path and survive alongside plain submissions.
#[test]
fn mas_acceptance_queries_survive_a_crash_byte_identically() {
    let dataset = datasets::Dataset::mas();
    let dir = temp_dir("mas");
    let image = temp_dir("mas-image");
    let service = TemplarService::recover(
        Arc::clone(&dataset.db),
        &dir,
        TemplarConfig::paper_defaults(),
        durable_config(),
    )
    .unwrap();
    // The training log streams in live: half as plain log shipping, half as
    // accepted-translation feedback (same durable path).
    for (i, case) in dataset.cases.iter().enumerate() {
        let sql = case.gold_sql.to_string();
        if i % 2 == 0 {
            service.submit_sql(&sql).unwrap();
        } else {
            service.submit_feedback(&sql).unwrap();
        }
    }
    service.flush();
    let live_metrics = service.metrics();
    assert_eq!(
        live_metrics.feedback_accepted,
        (dataset.cases.len() as u64).div_ceil(2)
    );
    let acceptance: Vec<&datasets::BenchmarkCase> = dataset.cases.iter().take(8).collect();
    let live: Vec<Vec<(String, u64)>> = acceptance
        .iter()
        .map(|case| translation_bytes(&service, &case.nlq))
        .collect();

    copy_dir(&dir, &image); // kill -9

    let recovered = TemplarService::recover(
        Arc::clone(&dataset.db),
        &image,
        TemplarConfig::paper_defaults(),
        durable_config(),
    )
    .unwrap();
    assert_eq!(
        recovered.metrics().qfg_queries,
        live_metrics.qfg_queries,
        "every ingested MAS query must survive the crash"
    );
    for (case, expected) in acceptance.iter().zip(&live) {
        assert_eq!(
            &translation_bytes(&recovered, &case.nlq),
            expected,
            "MAS acceptance case {} must translate byte-identically after recovery",
            case.id
        );
    }

    drop(service);
}

/// Regression: journal records that fail to parse at replay must count as
/// bootstrap skips (`log_skipped_statements`), not live
/// `ingest_parse_errors` — the latter participates in the
/// accepted == applied accounting, and starting it ahead of the accepted
/// side would let `flush()` return before freshly submitted entries were
/// applied (serving a stale snapshot) and make `ingest_lag` read 0 with
/// work still pending.
#[test]
fn unparsable_replayed_records_do_not_break_flush_accounting() {
    let dir = temp_dir("replay-noise");
    let image = temp_dir("replay-noise-image");
    {
        let service = TemplarService::recover(
            academic_db(),
            &dir,
            TemplarConfig::paper_defaults(),
            durable_config(),
        )
        .unwrap();
        // The queue accepts without parsing, so noise reaches the journal.
        service.submit_sql("THIS IS NOT SQL AT ALL").unwrap();
        service.submit_sql(ACADEMIC_LOG[0]).unwrap();
        service.flush();
        copy_dir(&dir, &image); // kill -9 with noise in the journal
    }

    let recovered = TemplarService::recover(
        academic_db(),
        &image,
        TemplarConfig::paper_defaults(),
        durable_config(),
    )
    .unwrap();
    let m = recovered.metrics();
    assert_eq!(m.wal_replayed, 2, "both journal records replay");
    assert_eq!(m.log_skipped_statements, 1, "noise counts as a skip");
    assert_eq!(m.ingest_parse_errors, 0, "the live counter stays untouched");
    assert_eq!(m.qfg_queries, 1);

    // flush() must still wait for genuinely new work to be applied.
    recovered.submit_sql(ACADEMIC_LOG[1]).unwrap();
    recovered.flush();
    let m = recovered.metrics();
    assert_eq!(m.ingest_applied, 1);
    assert_eq!(m.ingest_lag, 0);
    assert_eq!(
        m.qfg_queries, 2,
        "flush must not return before the new entry is applied"
    );
}

/// Two live services must never share a durable directory: the second
/// `recover` is refused while the first holds the advisory lock, and the
/// directory becomes recoverable again once the owner is gone.
#[test]
fn a_second_recover_on_a_live_directory_is_refused() {
    let dir = temp_dir("locked");
    let owner = TemplarService::recover(
        academic_db(),
        &dir,
        TemplarConfig::paper_defaults(),
        durable_config(),
    )
    .unwrap();
    owner.submit_sql(ACADEMIC_LOG[0]).unwrap();
    owner.flush();

    let contender = TemplarService::recover(
        academic_db(),
        &dir,
        TemplarConfig::paper_defaults(),
        durable_config(),
    );
    assert!(
        contender.is_err(),
        "a live directory must refuse a second owner"
    );
    // The refused attempt corrupted nothing: the owner keeps working...
    owner.submit_sql(ACADEMIC_LOG[1]).unwrap();
    owner.flush();
    assert_eq!(owner.metrics().qfg_queries, 2);
    drop(owner);

    // ...and once the owner exits, the directory recovers normally.
    let successor = TemplarService::recover(
        academic_db(),
        &dir,
        TemplarConfig::paper_defaults(),
        durable_config(),
    )
    .unwrap();
    assert_eq!(successor.metrics().qfg_queries, 2);
}

/// Regression: `save_snapshot` on a durable service must carry the applied
/// journal watermark — a watermark-less snapshot written over the durable
/// path would make the next recovery replay the whole journal on top of a
/// state that already contains it, doubling every count.
#[test]
fn save_snapshot_on_a_durable_service_carries_the_watermark() {
    let dir = temp_dir("manual-save");
    let image = temp_dir("manual-save-image");
    let service = TemplarService::recover(
        academic_db(),
        &dir,
        TemplarConfig::paper_defaults(),
        durable_config(),
    )
    .unwrap();
    for sql in &ACADEMIC_LOG[..2] {
        service.submit_sql(sql).unwrap();
    }
    service.flush();
    // The "persist now" call an operator would reach for — aimed directly
    // at the durable snapshot path.
    service.save_snapshot(&dir.join(SNAPSHOT_FILE)).unwrap();
    let live = translation_bytes(&service, &papers_after_2000());
    copy_dir(&dir, &image); // kill -9 before any checkpoint
    drop(service);

    let recovered = TemplarService::recover(
        academic_db(),
        &image,
        TemplarConfig::paper_defaults(),
        durable_config(),
    )
    .unwrap();
    let m = recovered.metrics();
    assert_eq!(
        m.wal_replayed, 0,
        "journaled entries covered by the manual snapshot must not be re-applied"
    );
    assert_eq!(m.qfg_queries, 2, "counts must not double");
    assert_eq!(translation_bytes(&recovered, &papers_after_2000()), live);
}

/// Orderly shutdown checkpoints: a restart from the same directory replays
/// nothing and serves the same state.
#[test]
fn orderly_shutdown_leaves_nothing_to_replay() {
    let dir = temp_dir("orderly");
    let service = TemplarService::recover(
        academic_db(),
        &dir,
        TemplarConfig::paper_defaults(),
        durable_config(),
    )
    .unwrap();
    for sql in ACADEMIC_LOG {
        service.submit_sql(sql).unwrap();
    }
    service.flush();
    let live = translation_bytes(&service, &papers_after_2000());
    service.shutdown();
    drop(service);

    let restarted = TemplarService::recover(
        academic_db(),
        &dir,
        TemplarConfig::paper_defaults(),
        durable_config(),
    )
    .unwrap();
    let m = restarted.metrics();
    assert_eq!(m.wal_replayed, 0, "the shutdown checkpoint covered the log");
    assert_eq!(m.qfg_queries, 5);
    assert_eq!(translation_bytes(&restarted, &papers_after_2000()), live);
}

/// `flush()` writes out the journal tail the group-commit policy would
/// still hold back: with a policy that never fires during the test, a copy
/// of the directory taken right after `flush()` replays every entry.
#[test]
fn flush_leaves_the_staged_journal_tail_on_disk() {
    let dir = temp_dir("flush-tail");
    let image = temp_dir("flush-tail-image");
    let lazy_journal = durable_config()
        .with_wal_fsync_every(1000)
        .with_wal_fsync_interval(Duration::from_secs(3600));
    let service = TemplarService::recover(
        academic_db(),
        &dir,
        TemplarConfig::paper_defaults(),
        lazy_journal.clone(),
    )
    .unwrap();
    for sql in &ACADEMIC_LOG[..3] {
        service.submit_sql(sql).unwrap();
    }
    service.flush();
    copy_dir(&dir, &image); // kill -9 right after the flush
    drop(service);

    let recovered = TemplarService::recover(
        academic_db(),
        &image,
        TemplarConfig::paper_defaults(),
        lazy_journal,
    )
    .unwrap();
    assert_eq!(recovered.metrics().wal_replayed, 3);
}

/// A checkpointed directory whose journal holds the 3-record tail above
/// watermark 2, the final record torn (its last byte cut off).
fn snapshot_over_torn_tail(name: &str) -> TempDir {
    let dir = temp_dir(name);
    let service = TemplarService::recover(
        academic_db(),
        &dir,
        TemplarConfig::paper_defaults(),
        durable_config(),
    )
    .unwrap();
    for sql in &ACADEMIC_LOG[..2] {
        service.submit_sql(sql).unwrap();
    }
    service.flush();
    assert_eq!(service.checkpoint().unwrap(), 2);
    for sql in &ACADEMIC_LOG[2..] {
        service.submit_sql(sql).unwrap();
    }
    service.flush();
    let image = temp_dir(&format!("{name}-image"));
    copy_dir(&dir, &image); // kill -9 with the tail journaled
    drop(service);
    let segment = final_segment(&image);
    let len = fs::metadata(&segment).unwrap().len();
    fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .unwrap()
        .set_len(len - 1)
        .unwrap();
    image
}

/// Every journal file's bytes, by name.
fn journal_bytes(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fs::read_dir(dir.join(WAL_DIR))
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| (p.clone(), fs::read(&p).unwrap()))
        .collect()
}

/// Flip one bit inside the snapshot's first section, under its CRC.
fn flip_snapshot_bit(dir: &Path) -> Vec<u8> {
    let path = dir.join(SNAPSHOT_FILE);
    let pristine = fs::read(&path).unwrap();
    let header_end = pristine.iter().position(|&b| b == b'\n').unwrap() + 1;
    let mut flipped = pristine.clone();
    flipped[header_end + 8 + 4] ^= 0x01;
    fs::write(&path, &flipped).unwrap();
    pristine
}

fn recover(dir: &Path) -> Result<TemplarService, ServiceError> {
    TemplarService::recover(
        academic_db(),
        dir,
        TemplarConfig::paper_defaults(),
        durable_config(),
    )
}

/// The journal changes only once the snapshot under it is accepted: a
/// corrupt snapshot over a torn journal tail fails recovery and leaves
/// every journal file byte-identical, so the torn bytes are still there
/// (and still reported) when a later recovery succeeds.  A recovery that
/// cut the tail first would hide that loss from the next one.
#[test]
fn a_failed_snapshot_leaves_the_torn_journal_tail_in_place() {
    let image = snapshot_over_torn_tail("corrupt-over-torn");
    let journal = journal_bytes(&image);
    let pristine = flip_snapshot_bit(&image);
    match recover(&image) {
        Err(ServiceError::Snapshot(SnapshotError::Corrupt(_))) => {}
        Err(other) => panic!("expected a corrupt snapshot, got {other}"),
        Ok(_) => panic!("a bit-flipped snapshot must not recover"),
    }
    assert_eq!(
        journal_bytes(&image),
        journal,
        "a failed recovery must not change the journal"
    );

    fs::write(image.join(SNAPSHOT_FILE), &pristine).unwrap();
    let recovered = recover(&image).unwrap();
    let m = recovered.metrics();
    assert!(
        m.wal_truncated_bytes > 0,
        "the recovery that succeeds cuts and reports the torn tail"
    );
    assert_eq!(m.wal_replayed, 2, "the two whole tail records replay");
    assert_eq!(m.qfg_queries, 4);
}

/// When both the snapshot and the journal are damaged, the snapshot's error
/// is the one reported; the journal's damage surfaces once the snapshot is
/// whole again.
#[test]
fn a_corrupt_snapshot_outranks_a_corrupt_journal() {
    let image = snapshot_over_torn_tail("corrupt-over-corrupt");
    // Damage the final segment's first record: real records follow it, so
    // this is corruption under acknowledged records, not a torn tail.
    let segment = final_segment(&image);
    let mut bytes = fs::read(&segment).unwrap();
    bytes[8] ^= 0x01;
    fs::write(&segment, &bytes).unwrap();
    let pristine = flip_snapshot_bit(&image);
    match recover(&image) {
        Err(ServiceError::Snapshot(SnapshotError::Corrupt(_))) => {}
        Err(other) => panic!("expected the snapshot's error, got {other}"),
        Ok(_) => panic!("a bit-flipped snapshot must not recover"),
    }

    fs::write(image.join(SNAPSHOT_FILE), &pristine).unwrap();
    match recover(&image) {
        Err(ServiceError::Wal(WalError::Corrupt { .. })) => {}
        Err(other) => panic!("expected the journal's error, got {other}"),
        Ok(_) => panic!("a journal damaged under later records must not recover"),
    }
}

/// A snapshot captured at another obscurity level is refused from its
/// header line, before recovery reads a single journal segment.
#[test]
fn an_obscurity_mismatch_is_refused_before_the_journal_is_read() {
    let image = snapshot_over_torn_tail("obscurity-mismatch");
    let journal = journal_bytes(&image);
    let storage = FaultyStorage::new();
    let result = TemplarService::recover_with_storage(
        academic_db(),
        &image,
        storage.clone(),
        TextSimilarity::new(),
        TemplarConfig::paper_defaults().with_obscurity(Obscurity::Full),
        durable_config(),
    );
    match result {
        Err(ServiceError::Snapshot(SnapshotError::ObscurityMismatch { expected, found })) => {
            assert_eq!((expected, found), (Obscurity::Full, Obscurity::NoConstOp));
        }
        Err(other) => panic!("expected ObscurityMismatch, got {other}"),
        Ok(_) => panic!("a snapshot at another obscurity level must not recover"),
    }
    assert_eq!(
        storage.op_count(StorageOp::ReadFile),
        0,
        "no journal segment may be read"
    );
    assert_eq!(storage.op_count(StorageOp::OpenWrite), 0);
    assert_eq!(journal_bytes(&image), journal);
}
