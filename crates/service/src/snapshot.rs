//! Versioned on-disk snapshots of the serving state.
//!
//! A snapshot captures the live [`QueryLog`] *and* the
//! [`QueryFragmentGraph`] built from it, so a restarted service resumes
//! serving log-informed translations immediately — no re-parse and no QFG
//! rebuild of a potentially multi-million-entry log.
//!
//! # Format (version 4)
//!
//! ```text
//! TEMPLAR-SNAPSHOT v4 obscurity=NoConstOp [watermark=N] sections=K\n
//! [len u32 LE][crc32 u32 LE][name_len u16 LE][name][payload]   ← section 0
//! [len u32 LE][crc32 u32 LE][name_len u16 LE][name][payload]   ← section 1
//! …                                                            ← section K-1
//! ```
//!
//! The body is `K` independent *sections*, each framed exactly like a WAL
//! record (`len` counts the body after the 8-byte frame header; the CRC —
//! the same [`crate::wal::crc32`] — covers `name_len + name + payload`).
//! The payload of every section is one value in the tagged binary codec of
//! [`serde::binary`], the same codec the wire frames use.  Sections appear
//! in a fixed order:
//!
//! | section          | payload                                            |
//! |------------------|----------------------------------------------------|
//! | `meta`           | log length, log chunk count, query count, obscurity|
//! | `log/0` … `log/c-1` | chunks of ≤ [`LOG_SECTION_CHUNK`] logged queries|
//! | `qfg/fragments`  | the interner table in id order                     |
//! | `qfg/occurrences`| the `n_v` column in id order                       |
//! | `qfg/adjacency`  | the compacted CSR baseline (offsets/neighbors/counts)|
//! | `qfg/runs`       | the pending delta as one sorted run, none if empty |
//!
//! The log chunks — nearly all of a snapshot's bytes — are encoded straight
//! from each [`Query`] and decoded straight back into one
//! ([`serde::Serialize::encode`] / [`serde::Deserialize::decode`]), with no
//! value tree in between.  The small `meta` and `qfg/*` sections are binary
//! [`serde::Value`]s, read back by [`QueryFragmentGraph::from_sections`].
//!
//! The layout is written and read **streaming**: the writer holds one
//! serialized section at a time and serializes the graph *as-is* (no clone,
//! no forced compaction — the pending delta survives a snapshot verbatim),
//! and the reader validates section-by-section, so a torn or bit-flipped
//! section is caught by length/CRC checks before any decoding.
//!
//! **Compatibility:** only version 4 is read; versions 1–3 are rejected as
//! unsupported.
//!
//! The header carries everything needed to *reject* a snapshot before
//! touching the (potentially large) body:
//!
//! * the magic string guards against feeding an arbitrary file in,
//! * the version gates format evolution,
//! * the obscurity level must match the configuration the service runs at —
//!   QFG counts produced at one obscurity level are meaningless at another,
//!   so a mismatch is a hard error rather than a silent accuracy bug,
//! * `sections=K` lets the reader detect a tail truncated on a section
//!   boundary (fewer sections than promised is corruption, not EOF).
//!
//! Structural damage below the framing layer (truncated CSR columns,
//! `null` fragment slots, zero occurrence counts, duplicate interned
//! fragments, non-positive pending counts) is caught by
//! [`QueryFragmentGraph::from_sections`] validation and surfaces as
//! [`SnapshotError::Corrupt`].
//!
//! The header may additionally carry `watermark=N` — the highest write-ahead
//! journal sequence number the snapshot covers (see [`crate::wal`]).
//! Recovery loads the snapshot and replays only the journal records above
//! the watermark.  Snapshots written outside the durable path omit the
//! token; readers treat that as watermark 0.
//!
//! Inside the crate, `read_header` reads and checks the header line alone
//! and returns a `SnapshotHeader` holding the open reader, whose
//! `read_body` decodes the rest.  Recovery thus learns the watermark first
//! and decodes the body on a helper thread while it reads the journal.
//! [`read_snapshot_from`] is the two in sequence.
//!
//! Writes go through a *uniquely named* sibling temp file (pid + a
//! process-wide counter, so concurrent saves — even of targets sharing a
//! file stem, like `mas.v1` / `mas.v2` — never collide), are fsynced, and
//! land with an atomic rename followed by a parent-directory fsync.  A crash
//! mid-write can never leave a truncated snapshot at the target path, and a
//! power loss after the rename cannot resurrect the old file under the new
//! name.

use crate::error::SnapshotError;
use crate::storage::{Storage, StorageRead};
use crate::wal::crc32;
use serde::{Deserialize, Serialize, Value};
use sqlparse::Query;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use templar_core::{Obscurity, QueryFragmentGraph, QueryLog};

/// First token of every snapshot file.
pub const SNAPSHOT_MAGIC: &str = "TEMPLAR-SNAPSHOT";
/// The format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 4;
/// Logged queries per `log/<i>` section: bounds how much of the log a
/// streaming reader or writer holds decoded at any moment.
pub const LOG_SECTION_CHUNK: usize = 4096;

/// Bytes of framing per section: `len: u32` + `crc32: u32`.
const SECTION_FRAME_HEADER: usize = 8;
/// Largest section body a reader will buffer (1 GiB): a garbage length read
/// from a damaged frame must not drive a giant allocation.
const MAX_SECTION_BYTES: u32 = 1 << 30;
/// Longest header line a reader will scan for the newline terminator.
const MAX_HEADER_BYTES: u64 = 4096;

/// The deserialized content of a snapshot file.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The query log at capture time.
    pub log: QueryLog,
    /// The Query Fragment Graph over that log.
    pub qfg: QueryFragmentGraph,
}

/// Serialize the serving state to `path` through `storage`
/// ([`crate::storage::FsStorage`] in production, a fault injector in tests)
/// as an atomic replace in format v4, optionally recording the journal
/// sequence number the snapshot covers (the recovery watermark).  Returns
/// the total bytes written (header + all framed sections) so callers can
/// surface snapshot size as a metric without a second `stat`.
pub fn write_snapshot_with(
    storage: &dyn Storage,
    path: &Path,
    log: &QueryLog,
    qfg: &QueryFragmentGraph,
    watermark: Option<u64>,
) -> Result<u64, SnapshotError> {
    let log_chunks = log.len().div_ceil(LOG_SECTION_CHUNK);
    let sections = 5 + log_chunks;
    let mut header = format!(
        "{SNAPSHOT_MAGIC} v{SNAPSHOT_VERSION} obscurity={}",
        qfg.obscurity().name()
    );
    if let Some(watermark) = watermark {
        header.push_str(&format!(" watermark={watermark}"));
    }
    header.push_str(&format!(" sections={sections}\n"));
    // A unique sibling temp name per write: `path.with_extension("tmp")`
    // would collide for concurrent saves of targets sharing a stem
    // (`mas.v1` / `mas.v2` both map to `mas.tmp`) — one writer's rename
    // would then publish the other's half-written bytes.
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            SnapshotError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "snapshot path has no file name",
            ))
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = parent.join(format!(
        ".{file_name}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| -> Result<u64, SnapshotError> {
        let file = storage.create(&tmp)?;
        let mut out = BufWriter::new(file);
        let mut bytes = header.len() as u64;
        out.write_all(header.as_bytes())?;
        // Stream one section at a time through one reused buffer: each
        // `write_section` encodes its payload, frames it and writes it
        // before the next is built — the writer never materializes the
        // whole body (or a clone of the graph; the columns serialize as-is,
        // pending runs included).
        let mut body = Vec::new();
        let meta = Value::Map(vec![
            (
                "obscurity".to_string(),
                Value::Str(qfg.obscurity().name().to_string()),
            ),
            ("log_len".to_string(), Value::U64(log.len() as u64)),
            ("log_chunks".to_string(), Value::U64(log_chunks as u64)),
            (
                "query_count".to_string(),
                Value::U64(qfg.query_count() as u64),
            ),
        ]);
        bytes += write_section(&mut out, &mut body, "meta", &meta)?;
        let queries = log.queries();
        for chunk in 0..log_chunks {
            let lo = chunk * LOG_SECTION_CHUNK;
            let hi = (lo + LOG_SECTION_CHUNK).min(queries.len());
            let name = format!("log/{chunk}");
            bytes += write_framed(&mut out, &mut body, &name, |payload| {
                serde::binary::encode_seq_header(hi - lo, payload);
                for query in &queries[lo..hi] {
                    query.encode(payload);
                }
            })?;
        }
        bytes += write_section(
            &mut out,
            &mut body,
            "qfg/fragments",
            &qfg.fragments_section(),
        )?;
        bytes += write_section(
            &mut out,
            &mut body,
            "qfg/occurrences",
            &qfg.occurrences_section(),
        )?;
        bytes += write_section(
            &mut out,
            &mut body,
            "qfg/adjacency",
            &qfg.adjacency_section(),
        )?;
        bytes += write_section(&mut out, &mut body, "qfg/runs", &qfg.runs_section())?;
        let mut file = out
            .into_inner()
            .map_err(|e| SnapshotError::Io(e.into_error()))?;
        // The bytes must be durable *before* the rename publishes the
        // name, or a power loss could leave a valid name over garbage.
        file.sync_all()?;
        drop(file);
        storage.rename(&tmp, path)?;
        // And the rename itself must be durable: fsync the directory entry.
        storage.sync_dir(&parent)?;
        Ok(bytes)
    })();
    if result.is_err() {
        storage.remove_file(&tmp).ok();
    }
    result
}

/// Frame one section whose payload is a binary [`Value`].
fn write_section(
    out: &mut impl Write,
    body: &mut Vec<u8>,
    name: &str,
    payload: &Value,
) -> Result<u64, SnapshotError> {
    write_framed(out, body, name, |bytes| serde::encode_value(payload, bytes))
}

/// Frame one section: `[len][crc][name_len][name][payload]`, CRC over
/// everything after the 8-byte frame header, with `encode` appending the
/// payload to the reused `body` buffer.  Returns the framed size.
fn write_framed(
    out: &mut impl Write,
    body: &mut Vec<u8>,
    name: &str,
    encode: impl FnOnce(&mut Vec<u8>),
) -> Result<u64, SnapshotError> {
    body.clear();
    body.extend_from_slice(&(name.len() as u16).to_le_bytes());
    body.extend_from_slice(name.as_bytes());
    encode(body);
    if body.len() as u64 > MAX_SECTION_BYTES as u64 {
        return Err(SnapshotError::Corrupt(format!(
            "section `{name}` exceeds the {MAX_SECTION_BYTES}-byte frame limit"
        )));
    }
    out.write_all(&(body.len() as u32).to_le_bytes())?;
    out.write_all(&crc32(body).to_le_bytes())?;
    out.write_all(body)?;
    Ok((SECTION_FRAME_HEADER + body.len()) as u64)
}

/// Read the next framed section into `body`, a buffer reused for every
/// section of a snapshot, and return its payload.  Sections come in a fixed
/// order, so the caller names the one it expects (`want`).  The length
/// bound, the CRC and the name are checked before the payload is decoded,
/// so torn or bit-flipped sections surface as [`SnapshotError::Corrupt`]
/// without any decoding work.
fn read_section<'a>(
    reader: &mut impl Read,
    body: &'a mut Vec<u8>,
    want: &str,
) -> Result<&'a [u8], SnapshotError> {
    let mut frame = [0u8; SECTION_FRAME_HEADER];
    reader.read_exact(&mut frame).map_err(eof_is_torn)?;
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
    let stored_crc = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
    if !(2..=MAX_SECTION_BYTES).contains(&len) {
        return Err(SnapshotError::Corrupt(format!(
            "section frame length {len} out of range"
        )));
    }
    body.clear();
    body.resize(len as usize, 0);
    reader.read_exact(body).map_err(eof_is_torn)?;
    if crc32(body) != stored_crc {
        return Err(SnapshotError::Corrupt("section CRC mismatch".to_string()));
    }
    let name_len = u16::from_le_bytes([body[0], body[1]]) as usize;
    if 2 + name_len > body.len() {
        return Err(SnapshotError::Corrupt(
            "section name overruns its frame".to_string(),
        ));
    }
    let name = std::str::from_utf8(&body[2..2 + name_len])
        .map_err(|_| SnapshotError::Corrupt("section name is not UTF-8".to_string()))?;
    if name != want {
        return Err(SnapshotError::Corrupt(format!(
            "expected section `{want}`, found `{name}`"
        )));
    }
    Ok(&body[2 + name_len..])
}

/// Read the next section, named `name`, as one binary value tree.
fn read_value(
    reader: &mut impl Read,
    body: &mut Vec<u8>,
    name: &str,
) -> Result<Value, SnapshotError> {
    serde::decode_value(read_section(reader, body, name)?)
        .map_err(|e| SnapshotError::Corrupt(format!("section `{name}`: {e}")))
}

/// A short read inside a section frame is a torn snapshot, not an I/O fault
/// of this process.
fn eof_is_torn(e: std::io::Error) -> SnapshotError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        SnapshotError::Corrupt("torn snapshot: section frame truncated".to_string())
    } else {
        SnapshotError::Io(e)
    }
}

/// Read and validate a snapshot through `storage`, rejecting wrong magic,
/// unsupported versions and — crucially — snapshots captured at a different
/// obscurity level than `expected`.  The body is read streaming, section by
/// section.  Returns the snapshot and the journal watermark recorded in the
/// header (0 when the snapshot was written outside the durable path).
pub fn read_snapshot_from(
    storage: &dyn Storage,
    path: &Path,
    expected: Obscurity,
) -> Result<(Snapshot, u64), SnapshotError> {
    let header = read_header(storage, path, expected)?;
    let watermark = header.watermark;
    Ok((header.read_body()?, watermark))
}

/// A snapshot whose header line was read and accepted, its reader standing
/// at the first section of the body.  The watermark is known before any of
/// the (potentially large) body is read, and the body may be decoded on
/// another thread: reading through the open handle makes no further
/// [`Storage`] call.
#[derive(Debug)]
pub(crate) struct SnapshotHeader {
    reader: BufReader<Box<dyn StorageRead>>,
    obscurity: Obscurity,
    sections: u64,
    watermark: u64,
}

/// Open a snapshot through `storage` and read its header line only,
/// rejecting wrong magic, unsupported versions and an obscurity level other
/// than `expected` before any of the body is read.
pub(crate) fn read_header(
    storage: &dyn Storage,
    path: &Path,
    expected: Obscurity,
) -> Result<SnapshotHeader, SnapshotError> {
    let file = storage.open_read(path)?;
    let mut reader = BufReader::new(file);
    let mut line = Vec::new();
    (&mut reader)
        .take(MAX_HEADER_BYTES)
        .read_until(b'\n', &mut line)?;
    if line.last() != Some(&b'\n') {
        return Err(SnapshotError::BadMagic);
    }
    line.pop();
    let header = std::str::from_utf8(&line).map_err(|_| SnapshotError::BadMagic)?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some(SNAPSHOT_MAGIC) {
        return Err(SnapshotError::BadMagic);
    }
    let version = parts
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or(SnapshotError::BadMagic)?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let obscurity = parts
        .next()
        .and_then(|v| v.strip_prefix("obscurity="))
        .and_then(parse_obscurity)
        .ok_or_else(|| SnapshotError::Corrupt("missing obscurity in header".to_string()))?;
    if obscurity != expected {
        return Err(SnapshotError::ObscurityMismatch {
            expected,
            found: obscurity,
        });
    }
    // Optional trailing tokens.  A malformed value is corruption — e.g.
    // recovering with watermark 0 would double-apply every journaled entry.
    let mut watermark = 0u64;
    let mut sections: Option<u64> = None;
    for token in parts {
        if let Some(v) = token.strip_prefix("watermark=") {
            watermark = v.parse::<u64>().map_err(|_| {
                SnapshotError::Corrupt(format!("unparsable header token `{token}`"))
            })?;
        } else if let Some(v) = token.strip_prefix("sections=") {
            sections = Some(v.parse::<u64>().map_err(|_| {
                SnapshotError::Corrupt(format!("unparsable header token `{token}`"))
            })?);
        } else {
            return Err(SnapshotError::Corrupt(format!(
                "unparsable header token `{token}`"
            )));
        }
    }
    let sections = sections
        .ok_or_else(|| SnapshotError::Corrupt("header is missing its section count".to_string()))?;
    Ok(SnapshotHeader {
        reader,
        obscurity,
        sections,
        watermark,
    })
}

impl SnapshotHeader {
    /// The highest journal sequence number the snapshot covers (0 when it
    /// was written outside the durable path).
    pub(crate) fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Decode the sectioned body: sections arrive in the fixed order the
    /// writer produces, each CRC-validated before decoding, with the
    /// section count cross-checked against the header and the `meta`
    /// section and a trailing-garbage probe after the final section.
    pub(crate) fn read_body(mut self) -> Result<Snapshot, SnapshotError> {
        let (sections, obscurity) = (self.sections, self.obscurity);
        let reader = &mut self.reader;
        // One buffer holds each section in turn: a buffer per section would
        // take fresh pages from the allocator for every log chunk.
        let mut body = Vec::new();
        let meta = read_value(reader, &mut body, "meta")?;
        let meta_fields = meta
            .as_map()
            .ok_or_else(|| SnapshotError::Corrupt("meta section is not a map".to_string()))?;
        let meta_u64 = |key: &str| -> Result<u64, SnapshotError> {
            meta_fields
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_u64())
                .ok_or_else(|| SnapshotError::Corrupt(format!("meta section is missing `{key}`")))
        };
        let meta_obscurity = meta_fields
            .iter()
            .find(|(k, _)| k == "obscurity")
            .and_then(|(_, v)| v.as_str())
            .ok_or_else(|| {
                SnapshotError::Corrupt("meta section is missing `obscurity`".to_string())
            })?;
        // The header line is outside any CRC; the meta section repeats the
        // obscurity *inside* one, so a flipped header byte cannot silently
        // serve counts captured at another level.
        if meta_obscurity != obscurity.name() {
            return Err(SnapshotError::Corrupt(
                "body obscurity disagrees with header".to_string(),
            ));
        }
        let log_len = meta_u64("log_len")?;
        let log_chunks = meta_u64("log_chunks")?;
        let query_count = meta_u64("query_count")?;
        if sections != 5 + log_chunks {
            return Err(SnapshotError::Corrupt(format!(
                "header promises {sections} sections but meta implies {}",
                5 + log_chunks
            )));
        }
        let mut queries: Vec<Query> = Vec::with_capacity(log_len.min(1 << 20) as usize);
        for chunk in 0..log_chunks {
            let payload = read_section(reader, &mut body, &format!("log/{chunk}"))?;
            let corrupt =
                |e: serde::Error| SnapshotError::Corrupt(format!("log chunk {chunk}: {e}"));
            // Straight from the bytes into each `Query`: no value tree.
            let mut decoder = serde::Decoder::new(payload);
            let count = decoder.seq_len("log chunk").map_err(corrupt)?;
            decoder.enter();
            for _ in 0..count {
                queries.push(Query::decode(&mut decoder).map_err(corrupt)?);
            }
            decoder.leave();
            decoder.finish().map_err(corrupt)?;
        }
        if queries.len() as u64 != log_len {
            return Err(SnapshotError::Corrupt(format!(
                "log sections hold {} queries, meta promises {log_len}",
                queries.len()
            )));
        }
        let fragments = read_value(reader, &mut body, "qfg/fragments")?;
        let occurrences = read_value(reader, &mut body, "qfg/occurrences")?;
        let adjacency = read_value(reader, &mut body, "qfg/adjacency")?;
        let runs = read_value(reader, &mut body, "qfg/runs")?;
        let mut probe = [0u8; 1];
        if reader.read(&mut probe)? != 0 {
            return Err(SnapshotError::Corrupt(
                "trailing bytes after the final section".to_string(),
            ));
        }
        let qfg = QueryFragmentGraph::from_sections(
            obscurity,
            query_count,
            &fragments,
            &occurrences,
            &adjacency,
            &runs,
        )
        .map_err(SnapshotError::Corrupt)?;
        Ok(Snapshot {
            log: QueryLog::from_queries(queries),
            qfg,
        })
    }
}

fn parse_obscurity(name: &str) -> Option<Obscurity> {
    Obscurity::ALL.into_iter().find(|o| o.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::FsStorage;
    use std::fs;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("templar-snap-test-{}-{name}", std::process::id()));
        p
    }

    fn sample_state(obscurity: Obscurity) -> (QueryLog, QueryFragmentGraph) {
        let (log, skipped) = QueryLog::from_sql([
            "SELECT p.title FROM publication p WHERE p.year > 2000",
            "SELECT p.title FROM publication p, journal j WHERE j.name = 'TKDE' AND p.jid = j.jid",
            "SELECT j.name FROM journal j",
        ]);
        assert_eq!(skipped, 0);
        let qfg = QueryFragmentGraph::build(&log, obscurity);
        (log, qfg)
    }

    #[test]
    fn round_trip_preserves_log_and_counts() {
        let (log, qfg) = sample_state(Obscurity::NoConstOp);
        let path = temp_path("roundtrip");
        let bytes = write_snapshot_with(&FsStorage, &path, &log, &qfg, None).unwrap();
        assert_eq!(
            bytes,
            fs::metadata(&path).unwrap().len(),
            "the writer's byte count must match the file on disk"
        );
        let (snapshot, _) = read_snapshot_from(&FsStorage, &path, Obscurity::NoConstOp).unwrap();
        assert_eq!(snapshot.log, log);
        assert_eq!(snapshot.qfg, qfg);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn round_trip_preserves_pending_delta_without_compacting() {
        // The writer serializes the pending delta verbatim (no compacted
        // clone), so a snapshot taken mid-churn restores with the same
        // pending work.
        let (log, mut qfg) = sample_state(Obscurity::NoConstOp);
        let mut log = log;
        let (extra, _) = QueryLog::from_sql([
            "SELECT p.year FROM publication p",
            "SELECT p.title FROM publication p WHERE p.year > 2011",
        ]);
        for query in extra.queries() {
            log.push(query.clone());
            qfg.ingest(query);
        }
        assert!(!qfg.is_compacted());
        let pending = qfg.pending_delta_len();
        assert!(pending > 0);
        let path = temp_path("pending-delta");
        write_snapshot_with(&FsStorage, &path, &log, &qfg, None).unwrap();
        let (snapshot, _) = read_snapshot_from(&FsStorage, &path, Obscurity::NoConstOp).unwrap();
        assert_eq!(snapshot.qfg, qfg);
        assert!(!snapshot.qfg.is_compacted());
        assert_eq!(snapshot.qfg.pending_delta_len(), pending);
        fs::remove_file(&path).ok();
    }

    /// Regression: the old writer derived its temp file with
    /// `path.with_extension("tmp")`, so two snapshot targets sharing a file
    /// stem (`mas.v1` / `mas.v2`) raced on the *same* `mas.tmp` — one save
    /// could publish the other's half-written bytes.  The unique sibling
    /// temp name makes concurrent saves of stem-sharing targets safe.
    #[test]
    fn concurrent_saves_sharing_a_stem_do_not_collide() {
        let (log_a, qfg_a) = sample_state(Obscurity::NoConstOp);
        let (extra, _) = QueryLog::from_sql(["SELECT p.year FROM publication p"]);
        let mut log_b = log_a.clone();
        log_b.push(extra.queries()[0].clone());
        let qfg_b = QueryFragmentGraph::build(&log_b, Obscurity::NoConstOp);

        let dir =
            std::env::temp_dir().join(format!("templar-snap-concurrent-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path_a = dir.join("mas.v1");
        let path_b = dir.join("mas.v2");
        assert_eq!(
            path_a.with_extension("tmp"),
            path_b.with_extension("tmp"),
            "the regression needs targets whose naive temp paths collide"
        );

        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                for _ in 0..20 {
                    write_snapshot_with(&FsStorage, &path_a, &log_a, &qfg_a, None).unwrap();
                }
            });
            let b = scope.spawn(|| {
                for _ in 0..20 {
                    write_snapshot_with(&FsStorage, &path_b, &log_b, &qfg_b, None).unwrap();
                }
            });
            a.join().unwrap();
            b.join().unwrap();
        });

        // Each target holds its own writer's state, not the sibling's.
        let (snap_a, _) = read_snapshot_from(&FsStorage, &path_a, Obscurity::NoConstOp).unwrap();
        let (snap_b, _) = read_snapshot_from(&FsStorage, &path_b, Obscurity::NoConstOp).unwrap();
        assert_eq!(snap_a.log, log_a);
        assert_eq!(snap_a.qfg, qfg_a);
        assert_eq!(snap_b.log, log_b);
        assert_eq!(snap_b.qfg, qfg_b);
        // No temp litter survives a successful save.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watermark_round_trips_and_defaults_to_zero() {
        let (log, qfg) = sample_state(Obscurity::NoConstOp);
        let path = temp_path("watermark");
        write_snapshot_with(&FsStorage, &path, &log, &qfg, Some(42)).unwrap();
        let text = fs::read(&path).unwrap();
        assert!(
            text.starts_with(b"TEMPLAR-SNAPSHOT v4 obscurity=NoConstOp watermark=42 sections=6\n")
        );
        let (snapshot, watermark) =
            read_snapshot_from(&FsStorage, &path, Obscurity::NoConstOp).unwrap();
        assert_eq!(watermark, 42);
        assert_eq!(snapshot.log, log);
        assert_eq!(snapshot.qfg, qfg);
        // And a plain snapshot reads back with watermark 0.
        write_snapshot_with(&FsStorage, &path, &log, &qfg, None).unwrap();
        let (_, watermark) = read_snapshot_from(&FsStorage, &path, Obscurity::NoConstOp).unwrap();
        assert_eq!(watermark, 0);
        // A mangled watermark token is corruption, not silently 0.
        fs::write(
            &path,
            "TEMPLAR-SNAPSHOT v4 obscurity=NoConstOp watermark=banana sections=6\n",
        )
        .unwrap();
        assert!(matches!(
            read_snapshot_from(&FsStorage, &path, Obscurity::NoConstOp),
            Err(SnapshotError::Corrupt(_))
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn written_snapshots_carry_the_v4_header() {
        let (log, qfg) = sample_state(Obscurity::NoConstOp);
        let path = temp_path("v4header");
        write_snapshot_with(&FsStorage, &path, &log, &qfg, None).unwrap();
        let text = fs::read(&path).unwrap();
        assert!(text.starts_with(b"TEMPLAR-SNAPSHOT v4 obscurity=NoConstOp sections=6\n"));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn obscurity_mismatch_is_rejected() {
        let (log, qfg) = sample_state(Obscurity::NoConst);
        let path = temp_path("mismatch");
        write_snapshot_with(&FsStorage, &path, &log, &qfg, None).unwrap();
        match read_snapshot_from(&FsStorage, &path, Obscurity::NoConstOp) {
            Err(SnapshotError::ObscurityMismatch { expected, found }) => {
                assert_eq!(expected, Obscurity::NoConstOp);
                assert_eq!(found, Obscurity::NoConst);
            }
            other => panic!("expected ObscurityMismatch, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_and_bad_version_are_rejected() {
        let path = temp_path("magic");
        fs::write(&path, "NOT-A-SNAPSHOT v2 obscurity=Full\n{}").unwrap();
        assert!(matches!(
            read_snapshot_from(&FsStorage, &path, Obscurity::Full),
            Err(SnapshotError::BadMagic)
        ));
        fs::write(&path, "TEMPLAR-SNAPSHOT v99 obscurity=Full\n{}").unwrap();
        assert!(matches!(
            read_snapshot_from(&FsStorage, &path, Obscurity::Full),
            Err(SnapshotError::UnsupportedVersion { found: 99, .. })
        ));
        fs::write(&path, "TEMPLAR-SNAPSHOT v0 obscurity=Full\n{}").unwrap();
        assert!(matches!(
            read_snapshot_from(&FsStorage, &path, Obscurity::Full),
            Err(SnapshotError::UnsupportedVersion { found: 0, .. })
        ));
        // Retired formats are refused, not migrated.
        for old in [1u32, 2, 3] {
            fs::write(
                &path,
                format!("TEMPLAR-SNAPSHOT v{old} obscurity=Full\n{{}}"),
            )
            .unwrap();
            match read_snapshot_from(&FsStorage, &path, Obscurity::Full) {
                Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                    assert_eq!((found, supported), (old, SNAPSHOT_VERSION));
                }
                other => panic!("v{old}: expected UnsupportedVersion, got {other:?}"),
            }
        }
        // A header with no newline within the scan bound is not a snapshot.
        fs::write(&path, "TEMPLAR-SNAPSHOT v4 obscurity=Full sections=6").unwrap();
        assert!(matches!(
            read_snapshot_from(&FsStorage, &path, Obscurity::Full),
            Err(SnapshotError::BadMagic)
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_body_is_rejected() {
        let path = temp_path("corrupt");
        let header = "TEMPLAR-SNAPSHOT v4 obscurity=NoConstOp sections=6\n";
        fs::write(&path, format!("{header}{{this is not a section frame")).unwrap();
        assert!(matches!(
            read_snapshot_from(&FsStorage, &path, Obscurity::NoConstOp),
            Err(SnapshotError::Corrupt(_))
        ));
        // A well-framed section (valid CRC) whose payload is not a binary
        // value is rejected by the decoder, not the framing.
        let mut bytes = header.as_bytes().to_vec();
        write_framed(&mut bytes, &mut Vec::new(), "meta", |payload| {
            payload.extend_from_slice(b"{not binary}")
        })
        .unwrap();
        fs::write(&path, &bytes).unwrap();
        match read_snapshot_from(&FsStorage, &path, Obscurity::NoConstOp) {
            Err(SnapshotError::Corrupt(detail)) => {
                assert!(detail.contains("section `meta`"), "detail was: {detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let path = temp_path("corrupt-header");
        // Version present but obscurity mangled.
        fs::write(&path, "TEMPLAR-SNAPSHOT v4 obscurity=Sideways sections=6\n").unwrap();
        assert!(matches!(
            read_snapshot_from(&FsStorage, &path, Obscurity::NoConstOp),
            Err(SnapshotError::Corrupt(_))
        ));
        // Obscurity field missing entirely.
        fs::write(&path, "TEMPLAR-SNAPSHOT v4\n").unwrap();
        assert!(matches!(
            read_snapshot_from(&FsStorage, &path, Obscurity::NoConstOp),
            Err(SnapshotError::Corrupt(_))
        ));
        // A header without its section count cannot be read.
        fs::write(&path, "TEMPLAR-SNAPSHOT v4 obscurity=NoConstOp\n").unwrap();
        assert!(matches!(
            read_snapshot_from(&FsStorage, &path, Obscurity::NoConstOp),
            Err(SnapshotError::Corrupt(_))
        ));
        fs::remove_file(&path).ok();
    }

    /// Walk the section frames of a snapshot, returning the byte offset
    /// where each section ends (the first offset is the end of the header).
    fn section_boundaries(bytes: &[u8]) -> Vec<usize> {
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut boundaries = vec![header_end];
        let mut at = header_end;
        while at + SECTION_FRAME_HEADER <= bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            at += SECTION_FRAME_HEADER + len;
            boundaries.push(at);
        }
        assert_eq!(at, bytes.len(), "walker must land exactly on EOF");
        boundaries
    }

    /// The snapshot-section analogue of the WAL torn-write matrix: a crash
    /// that leaves a prefix of the temp file — cut exactly on a section
    /// boundary or anywhere inside a frame — must never load as a valid
    /// snapshot.  (In production the atomic rename already hides torn temp
    /// files; this pins the reader's own defense in depth.)
    #[test]
    fn torn_sections_are_rejected_at_every_boundary() {
        let (log, qfg) = sample_state(Obscurity::NoConstOp);
        let path = temp_path("torn-sections");
        write_snapshot_with(&FsStorage, &path, &log, &qfg, Some(7)).unwrap();
        let bytes = fs::read(&path).unwrap();
        let boundaries = section_boundaries(&bytes);
        assert_eq!(boundaries.len(), 7, "6 sections + the header boundary");
        let torn = temp_path("torn-sections-cut");
        let mut cuts: Vec<usize> = Vec::new();
        for &b in &boundaries[..boundaries.len() - 1] {
            // On the boundary, mid-frame-header, and mid-body.
            cuts.extend([b, b + 3, b + SECTION_FRAME_HEADER + 1]);
        }
        for cut in cuts {
            fs::write(&torn, &bytes[..cut]).unwrap();
            match read_snapshot_from(&FsStorage, &torn, Obscurity::NoConstOp) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
            }
        }
        // A single flipped payload bit is caught by the section CRC.
        let mut flipped = bytes.clone();
        let target = boundaries[1] + SECTION_FRAME_HEADER + 4;
        flipped[target] ^= 0x01;
        fs::write(&torn, &flipped).unwrap();
        match read_snapshot_from(&FsStorage, &torn, Obscurity::NoConstOp) {
            Err(SnapshotError::Corrupt(detail)) => {
                assert!(detail.contains("CRC"), "detail was: {detail}")
            }
            other => panic!("expected a CRC failure, got {other:?}"),
        }
        // Trailing garbage after the last section is corruption too.
        let mut extended = bytes.clone();
        extended.push(0);
        fs::write(&torn, &extended).unwrap();
        assert!(matches!(
            read_snapshot_from(&FsStorage, &torn, Obscurity::NoConstOp),
            Err(SnapshotError::Corrupt(_))
        ));
        // And the pristine bytes still load.
        fs::write(&torn, &bytes).unwrap();
        read_snapshot_from(&FsStorage, &torn, Obscurity::NoConstOp).unwrap();
        fs::remove_file(&path).ok();
        fs::remove_file(&torn).ok();
    }

    /// Write-side torn matrix for the sectioned snapshot: crash the
    /// storage at a dense sweep of cumulative byte budgets (covering every
    /// section boundary of the write stream) and at every non-write fault
    /// site (temp-file create, fsync, rename, directory fsync).  An
    /// interrupted overwrite must never be observable: the previously
    /// published snapshot keeps loading byte-identically, and once the
    /// fault clears the overwrite succeeds.
    #[test]
    fn write_crash_matrix_preserves_the_published_snapshot() {
        use crate::storage::{FaultRule, FaultyStorage, StorageOp};

        let (log_a, qfg_a) = sample_state(Obscurity::NoConstOp);
        let mut log_b = log_a.clone();
        let mut qfg_b = qfg_a.clone();
        let (extra, _) = QueryLog::from_sql([
            "SELECT p.year FROM publication p",
            "SELECT p.title FROM publication p WHERE p.year > 2011",
        ]);
        for query in extra.queries() {
            log_b.push(query.clone());
            qfg_b.ingest(query);
        }

        let dir =
            std::env::temp_dir().join(format!("templar-snap-crash-matrix-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.templar");
        write_snapshot_with(&FsStorage, &path, &log_a, &qfg_a, Some(7)).unwrap();
        let published = fs::read(&path).unwrap();

        // Enumerate the fault surface of one clean overwrite, then restore
        // the published bytes.
        let counting = FaultyStorage::new();
        write_snapshot_with(counting.as_ref(), &path, &log_b, &qfg_b, Some(9)).unwrap();
        let total = counting.bytes_written();
        assert!(total > 0);
        fs::write(&path, &published).unwrap();

        let assert_published_intact = |case: &str| {
            assert_eq!(
                fs::read(&path).unwrap(),
                published,
                "{case}: a failed overwrite must leave the published snapshot byte-identical"
            );
            let (snapshot, watermark) = read_snapshot_from(&FsStorage, &path, Obscurity::NoConstOp)
                .unwrap_or_else(|e| panic!("{case}: published snapshot unreadable: {e}"));
            assert_eq!(snapshot.log, log_a, "{case}");
            assert_eq!(snapshot.qfg, qfg_a, "{case}");
            assert_eq!(watermark, 7, "{case}");
        };

        // Byte-budget sweep: a crash inside any write — section headers,
        // section bodies, the final footer — with a torn prefix persisted.
        let budgets = (0..total).step_by(7).chain([total.saturating_sub(1)]);
        for budget in budgets {
            let case = format!("byte budget {budget}/{total}");
            let storage = FaultyStorage::new();
            storage.crash_after_write_bytes(budget);
            write_snapshot_with(storage.as_ref(), &path, &log_b, &qfg_b, Some(9))
                .expect_err("an interrupted write must report failure");
            assert_published_intact(&case);
            // The disk comes back: the overwrite must go through whole.
            storage.clear();
            write_snapshot_with(storage.as_ref(), &path, &log_b, &qfg_b, Some(9))
                .unwrap_or_else(|e| panic!("{case}: healed overwrite failed: {e}"));
            let (snapshot, watermark) =
                read_snapshot_from(&FsStorage, &path, Obscurity::NoConstOp).unwrap();
            assert_eq!(
                snapshot.log, log_b,
                "{case}: healed snapshot must be the new state"
            );
            assert_eq!(watermark, 9, "{case}");
            fs::write(&path, &published).unwrap();
        }

        // Operation matrix: fail each create/fsync/rename/dir-sync site.  A
        // fault *before* the rename must leave the old snapshot untouched; a
        // fault *after* it (the directory fsync) legitimately leaves the new
        // one published but reported non-durable — the invariant in every
        // case is that the target parses as a *valid* snapshot that is
        // exactly the old state or exactly the new one, never a blend.
        for op in [
            StorageOp::Create,
            StorageOp::Write,
            StorageOp::SyncData,
            StorageOp::SyncAll,
            StorageOp::SetLen,
            StorageOp::Rename,
            StorageOp::SyncDir,
            StorageOp::RemoveFile,
        ] {
            for index in 0..counting.op_count(op) {
                let case = format!("op {op:?} index {index}");
                let storage = FaultyStorage::new();
                storage.inject(FaultRule::crash(op, index));
                match write_snapshot_with(storage.as_ref(), &path, &log_b, &qfg_b, Some(9)) {
                    // The site was absorbed (e.g. cleanup of a leftover
                    // temp file): the overwrite landed whole.
                    Ok(_) => {
                        let (snapshot, _) =
                            read_snapshot_from(&FsStorage, &path, Obscurity::NoConstOp).unwrap();
                        assert_eq!(snapshot.log, log_b, "{case}");
                    }
                    Err(SnapshotError::Io(_)) => {
                        let (snapshot, watermark) =
                            read_snapshot_from(&FsStorage, &path, Obscurity::NoConstOp)
                                .unwrap_or_else(|e| {
                                    panic!("{case}: target must stay a valid snapshot: {e}")
                                });
                        if watermark == 7 {
                            assert_eq!(
                                fs::read(&path).unwrap(),
                                published,
                                "{case}: surviving old snapshot must be byte-identical"
                            );
                            assert_eq!(snapshot.log, log_a, "{case}");
                        } else {
                            assert_eq!(watermark, 9, "{case}: old or new, never a blend");
                            assert_eq!(snapshot.log, log_b, "{case}");
                        }
                    }
                    Err(other) => panic!("{case}: expected an Io error, got {other}"),
                }
                fs::write(&path, &published).unwrap();
            }
        }

        fs::remove_dir_all(&dir).ok();
    }
}
