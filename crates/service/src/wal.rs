//! The write-ahead ingest journal.
//!
//! Every log entry a durable service accepts is appended here *before* it is
//! applied to the Query Fragment Graph, so a `kill -9` between snapshot
//! publishes loses at most the un-fsynced tail of the journal — never the
//! evidence the system already promised to learn from.
//!
//! # On-disk layout
//!
//! The journal is a directory of append-only **segment files**:
//!
//! ```text
//! wal/
//!   wal-00000000000000000001.seg    ← records with seq 1, 2, …
//!   wal-00000000000000004097.seg    ← records from seq 4097 on
//! ```
//!
//! A segment's filename carries the sequence number of its first record;
//! records inside a segment are consecutive, so `(filename, ordinal)`
//! determines every record's sequence number without storing it per record.
//! Segment boundaries therefore also prove contiguity: segment `i` must end
//! exactly where segment `i+1` begins, and a gap surfaces as
//! [`WalError::Corrupt`] instead of silently skipped evidence.
//!
//! Each record is CRC-framed:
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload: len bytes of raw SQL]
//! ```
//!
//! # Durability model
//!
//! Appends are buffered by the OS; [`WalWriter::maybe_sync`] issues an
//! `fsync` once `fsync_every` records are dirty or `fsync_interval` has
//! passed with any dirty record — the classic group-commit trade between
//! ingest throughput and the size of the tail a power loss can eat.
//! [`WalWriter::sync`] forces the flush (used at shutdown and before
//! checkpoints that must cover the tail).  Creating a segment also fsyncs
//! the journal directory so the file's *name* survives the crash, not just
//! its bytes.
//!
//! # Recovery
//!
//! [`replay_batched_with`] walks the segments above a snapshot's covered
//! sequence number (the *watermark*) and hands the surviving entries to a
//! sink in order, in batches of bounded size.  A torn final record — a
//! partial frame or a CRC mismatch at the tail of the *last* segment,
//! exactly what an interrupted `write(2)` leaves behind — is **truncated,
//! not fatal**: the file is cut back to the last whole record and the
//! writer resumes after it.  The same damage in a non-final segment means
//! bytes the journal once promised are gone, which *is* fatal
//! ([`WalError::Corrupt`]).
//!
//! The replay is three steps, which service recovery runs apart so that
//! the journal changes only once the snapshot under it has been accepted:
//! `list_segments`, `read_segments_with` (which changes nothing on disk)
//! and `TornTail::cut_with`.
//!
//! [`gc_segments_with`] deletes segments wholly covered by the watermark;
//! the active (final) segment is never deleted.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::config::WalConfig;
use crate::error::WalError;
use crate::storage::{Storage, StorageFile};

/// Filename prefix of every segment file.
pub const SEGMENT_PREFIX: &str = "wal-";
/// Filename suffix of every segment file.
pub const SEGMENT_SUFFIX: &str = ".seg";
/// Bytes of framing per record: `len: u32` + `crc32: u32`.
const FRAME_HEADER: usize = 8;

/// CRC-32 (IEEE 802.3, the zlib polynomial), slicing-by-8: eight 256-entry
/// tables built at compile time fold eight input bytes per step.  Journal
/// frames are small, but snapshot sections run to tens of megabytes, where
/// the one-bit-at-a-time loop would be the largest cost of a checkpoint.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = !0;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// `CRC_TABLES[0][b]` is the CRC of byte `b`; `CRC_TABLES[k][b]` advances it
/// by `k` more zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// The path of the segment whose first record is `first_seq`.
fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{first_seq:020}{SEGMENT_SUFFIX}"))
}

/// Parse a segment filename back to its first sequence number.
fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// The segment files under `dir` as `(first seq, path)`, sorted by first
/// sequence number.  A missing directory lists none.
pub(crate) fn list_segments(storage: &dyn Storage, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let names = match storage.list_dir(dir) {
        Ok(names) => names,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut segments = Vec::new();
    for name in names {
        if let Some(first) = parse_segment_name(&name) {
            segments.push((first, dir.join(name)));
        }
    }
    segments.sort_unstable_by_key(|(first, _)| *first);
    Ok(segments)
}

/// The append half of the journal.  Single-writer: the service's ingestion
/// worker owns it (checkpoints lock it only to force the tail down).
///
/// Frames are staged in an in-process buffer and handed to the OS at sync
/// time.  This keeps [`WalWriter::append`] infallible — sequence numbers are
/// assigned unconditionally and never develop gaps — and guarantees a failed
/// OS write can only damage the *tail* of the final segment (which replay
/// truncates), never leave a torn frame below bytes appended later: on a
/// short write the segment is cut back to the last known-good frame boundary
/// and the whole buffer is retried at the next sync.
#[derive(Debug)]
pub struct WalWriter {
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    file: Box<dyn StorageFile>,
    config: WalConfig,
    /// Sequence number the next append will receive.
    next_seq: u64,
    /// Records assigned to the currently open segment (written or staged).
    segment_records: u64,
    /// Frames accepted but not yet successfully handed to the OS.
    buffer: Vec<u8>,
    /// Records since the last successful fsync (staged + written).
    dirty_records: usize,
    /// Byte length of the current segment known to be fully written.
    written_len: u64,
    last_sync: Instant,
    /// A segment rotation created the current file but failed to fsync the
    /// journal directory: the segment's *name* is not yet durable, so no
    /// sync may be acknowledged until the directory fsync succeeds.
    pending_dir_sync: bool,
    /// Filesystem failures absorbed since the last [`WalWriter::take_io_errors`].
    io_errors: u64,
    /// A sync failure episode is in progress: repeated failures of the same
    /// episode count as ONE `io_errors` increment (the counter measures
    /// distinct failures, not retry attempts); a successful sync ends it.
    sync_failing: bool,
    /// `errno` of the failure that opened the current (or latest) episode,
    /// kept until [`WalWriter::take_last_errno`] drains it — the signal
    /// that lets an operator tell `ENOSPC` from `EIO`.
    last_errno: Option<i32>,
}

impl WalWriter {
    /// Open the journal for appending through `storage`
    /// ([`crate::storage::FsStorage`] in production, a fault injector in
    /// tests), starting a fresh segment whose first record will be
    /// `next_seq`.  Called after [`replay_batched_with`] decided `next_seq`,
    /// so an existing file at this name can only be an empty leftover
    /// segment from a previous session that appended nothing.
    pub fn create_with(
        storage: Arc<dyn Storage>,
        dir: &Path,
        next_seq: u64,
        config: WalConfig,
    ) -> io::Result<Self> {
        storage.create_dir_all(dir)?;
        let path = segment_path(dir, next_seq);
        let file = storage.create(&path)?;
        storage.sync_dir(dir)?;
        Ok(WalWriter {
            storage,
            dir: dir.to_path_buf(),
            file,
            config,
            next_seq,
            segment_records: 0,
            buffer: Vec::new(),
            dirty_records: 0,
            written_len: 0,
            last_sync: Instant::now(),
            pending_dir_sync: false,
            io_errors: 0,
            sync_failing: false,
            last_errno: None,
        })
    }

    /// Append one raw SQL entry, returning the sequence number it was
    /// journaled under.  Staged in memory: durability follows at the next
    /// [`WalWriter::maybe_sync`] / [`WalWriter::sync`].  A rotation that
    /// fails leaves the record on the current (oversized) segment and is
    /// retried later — the segment cap is a soft limit.
    ///
    /// Callers must not append empty entries: a zero-length frame is
    /// indistinguishable from a zero-filled crash artifact, so
    /// [`replay_batched_with`] treats it as damage (the ingestion worker
    /// filters empties before they reach the journal).
    pub fn append(&mut self, sql: &str) -> u64 {
        debug_assert!(
            !sql.is_empty(),
            "empty entries must be filtered before they reach the journal"
        );
        if self.segment_records >= self.config.segment_max_records {
            if let Err(e) = self.rotate() {
                self.note_io_failure(&e);
            }
        }
        let payload = sql.as_bytes();
        self.buffer.reserve(FRAME_HEADER + payload.len());
        self.buffer
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buffer.extend_from_slice(&crc32(payload).to_le_bytes());
        self.buffer.extend_from_slice(payload);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.segment_records += 1;
        self.dirty_records += 1;
        seq
    }

    /// Hand the staged frames to the OS.  On failure the segment is cut
    /// back to the last known-good frame boundary (a short write may have
    /// landed part of a frame) and the buffer is kept for retry.
    fn flush(&mut self) -> io::Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        if let Err(e) = self.file.write_all(&self.buffer) {
            let _ = self.file.set_len(self.written_len);
            let _ = self.file.seek_start(self.written_len);
            return Err(e);
        }
        self.written_len += self.buffer.len() as u64;
        self.buffer.clear();
        Ok(())
    }

    /// Fsync if the batching policy says the dirty tail is due: at least
    /// `fsync_every` dirty records, or any dirty record older than
    /// `fsync_interval`.  Returns whether an fsync was issued.
    pub fn maybe_sync(&mut self) -> io::Result<bool> {
        if self.pending_dir_sync {
            // A rotation's directory fsync is outstanding; durability must
            // not be acknowledged past it, policy or no policy.
            return self.sync();
        }
        if self.dirty_records == 0 {
            return Ok(false);
        }
        if self.dirty_records >= self.config.fsync_every
            || self.last_sync.elapsed() >= self.config.fsync_interval
        {
            return self.sync();
        }
        Ok(false)
    }

    /// Force the dirty tail down: retry any outstanding directory fsync,
    /// flush staged frames and fsync.  Returns whether an fsync was issued
    /// (false when nothing was dirty).
    ///
    /// Failure accounting is per *episode*, not per attempt: the first
    /// failure after a success increments the absorbed-failure counter
    /// (see [`WalWriter::take_io_errors`]) and records its `errno`; the
    /// retries a wedged journal provokes do not inflate the count, and the
    /// next success closes the episode.
    pub fn sync(&mut self) -> io::Result<bool> {
        match self.sync_inner() {
            Ok(issued) => {
                self.sync_failing = false;
                Ok(issued)
            }
            Err(e) => {
                self.note_io_failure(&e);
                Err(e)
            }
        }
    }

    fn sync_inner(&mut self) -> io::Result<bool> {
        if self.pending_dir_sync {
            // The current segment's NAME is not durable until this
            // succeeds; acknowledging a data sync first would let a
            // checkpoint GC older segments while the whole new segment
            // could still vanish with the lost directory entry.
            self.storage.sync_dir(&self.dir)?;
            self.pending_dir_sync = false;
        }
        if self.dirty_records == 0 {
            return Ok(false);
        }
        self.flush()?;
        self.file.sync_data()?;
        self.dirty_records = 0;
        self.last_sync = Instant::now();
        Ok(true)
    }

    /// Open a failure episode (idempotent within one): count it once and
    /// remember the `errno` that started it.
    fn note_io_failure(&mut self, e: &io::Error) {
        if !self.sync_failing {
            self.sync_failing = true;
            self.io_errors += 1;
            if let Some(errno) = e.raw_os_error() {
                self.last_errno = Some(errno);
            }
        }
    }

    /// Seal the current segment and start the next one.  The sealed segment
    /// is flushed and fsynced first so replay's "torn tails only happen in
    /// the final segment" invariant holds on disk, not just in this process.
    fn rotate(&mut self) -> io::Result<()> {
        self.flush()?;
        self.file.sync_data()?;
        self.dirty_records = 0;
        self.last_sync = Instant::now();
        let path = segment_path(&self.dir, self.next_seq);
        self.file = self.storage.create(&path)?;
        self.segment_records = 0;
        self.written_len = 0;
        if let Err(e) = self.storage.sync_dir(&self.dir) {
            // The new segment's bytes will reach disk via sync_data, but
            // its directory entry is not durable yet — remember, and retry
            // before any future sync is acknowledged.
            self.pending_dir_sync = true;
            return Err(e);
        }
        self.sync_failing = false;
        Ok(())
    }

    /// Sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records not yet covered by an fsync.
    pub fn dirty(&self) -> usize {
        self.dirty_records
    }

    /// Bytes staged in memory awaiting a successful write — nonzero only
    /// while writes are failing (a healthy sync drains the buffer).  The
    /// worker uses this to stop draining the queue when the journal is
    /// wedged, converting a would-be unbounded buffer into queue
    /// backpressure.
    pub fn staged_bytes(&self) -> usize {
        self.buffer.len()
    }

    /// Drain the count of filesystem failures absorbed since the last call
    /// (for the service's `wal_io_errors` metric).  Counts distinct failure
    /// *episodes*: a permanently failing fsync that is retried N times
    /// contributes 1, not N.
    pub fn take_io_errors(&mut self) -> u64 {
        std::mem::take(&mut self.io_errors)
    }

    /// Drain the `errno` that opened the most recent failure episode (for
    /// the service's `wal_last_errno` metric — `ENOSPC` reads differently
    /// from `EIO` on an operator's dashboard).
    pub fn take_last_errno(&mut self) -> Option<i32> {
        self.last_errno.take()
    }
}

/// One decoded journal record: its sequence number and raw SQL payload.
pub type ReplayedEntry = (u64, String);

/// Summary statistics of a batched replay ([`replay_batched_with`]).
#[derive(Debug)]
pub struct WalReplayStats {
    /// The sequence number the next append must receive (one past the last
    /// record on disk, whether or not it was above the watermark).
    pub next_seq: u64,
    /// Bytes past the final segment's last whole record (0 on a clean
    /// journal), which [`replay_batched_with`] cuts off.
    pub truncated_bytes: u64,
    /// Entries above the watermark handed to the sink, across all batches.
    pub replayed: u64,
    /// The largest decoded batch handed to the sink, in accounted bytes
    /// (payload plus per-entry bookkeeping).  At most
    /// `max(budget, largest single entry)` — an entry bigger than the whole
    /// budget forms a batch of its own rather than being dropped.
    pub peak_batch_bytes: u64,
    /// How many times the sink was invoked.
    pub batches: u64,
}

/// A torn final record that [`read_segments_with`] found and left on disk.
#[derive(Debug)]
pub(crate) struct TornTail {
    path: PathBuf,
    valid_len: u64,
}

impl TornTail {
    /// Cut the final segment back to its last whole record, so future
    /// replays (and appends to a later segment) never see the partial frame
    /// again.
    pub(crate) fn cut_with(self, storage: &dyn Storage) -> Result<(), WalError> {
        let mut file = storage.open_write(&self.path)?;
        file.set_len(self.valid_len)?;
        file.sync_all()?;
        Ok(())
    }
}

/// Accounted in-memory cost of one decoded entry: the SQL payload plus the
/// tuple bookkeeping it rides in.
const ENTRY_OVERHEAD: usize = std::mem::size_of::<(u64, String)>();

/// Replay the journal tail above `watermark` in bounded-memory batches, and
/// cut a torn final record: `list_segments`, `read_segments_with` and
/// `TornTail::cut_with` in sequence.  An empty or missing journal directory
/// replays to nothing with `next_seq = watermark + 1` — a fresh service.
pub fn replay_batched_with(
    storage: &dyn Storage,
    dir: &Path,
    watermark: u64,
    batch_budget_bytes: usize,
    sink: &mut dyn FnMut(&[ReplayedEntry]),
) -> Result<WalReplayStats, WalError> {
    let segments = list_segments(storage, dir)?;
    let (stats, torn_tail) =
        read_segments_with(storage, &segments, watermark, batch_budget_bytes, sink)?;
    if let Some(torn_tail) = torn_tail {
        torn_tail.cut_with(storage)?;
    }
    Ok(stats)
}

/// Read the listed `segments` (from [`list_segments`]) and hand the
/// records above `watermark` to `sink` in bounded-memory batches, changing
/// nothing on disk.
///
/// Decoded entries accumulate until admitting the next one would push the
/// batch past `batch_budget_bytes`; the batch is then handed to `sink` and
/// the buffer reused.  A single entry larger than the whole budget still
/// flows through as a batch of one, so the bound on decoded-entry memory is
/// `max(batch_budget_bytes, largest entry)` — never the size of the tail.
/// Segments are checked for contiguity (gaps wholly at or below the
/// watermark are benign).  A torn final record is skipped and returned as a
/// [`TornTail`] for the caller to cut once nothing else can fail.
pub(crate) fn read_segments_with(
    storage: &dyn Storage,
    segments: &[(u64, PathBuf)],
    watermark: u64,
    batch_budget_bytes: usize,
    sink: &mut dyn FnMut(&[ReplayedEntry]),
) -> Result<(WalReplayStats, Option<TornTail>), WalError> {
    let mut batch: Vec<(u64, String)> = Vec::new();
    let mut batch_bytes = 0usize;
    let mut replayed = 0u64;
    let mut peak_batch_bytes = 0u64;
    let mut batches = 0u64;
    let mut next_seq = watermark + 1;
    let mut truncated_bytes = 0u64;
    let mut torn_tail = None;
    for (index, (first_seq, path)) in segments.iter().enumerate() {
        let is_last = index + 1 == segments.len();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if index > 0 && *first_seq != next_seq {
            // Missing records are [next_seq, first_seq). A gap wholly at or
            // below the watermark is benign — the snapshot already covers
            // those records (e.g. a previous recovery truncated a tail that
            // a later checkpoint had absorbed).  A gap reaching above the
            // watermark, or overlapping segments, is lost/duplicated
            // evidence.
            let benign_gap = *first_seq > next_seq && *first_seq <= watermark + 1;
            if !benign_gap {
                return Err(WalError::Corrupt {
                    segment: name,
                    detail: format!(
                        "segment starts at seq {first_seq} but the previous segment ended at \
                         {}: the journal is not contiguous",
                        next_seq - 1
                    ),
                });
            }
            next_seq = *first_seq;
        }
        if index == 0 {
            if *first_seq > next_seq {
                return Err(WalError::Corrupt {
                    segment: name,
                    detail: format!(
                        "oldest segment starts at seq {first_seq} but the snapshot covers \
                         only up to {watermark}: covered segments were lost"
                    ),
                });
            }
            next_seq = *first_seq;
        }
        let bytes = storage.read(path).map_err(WalError::Io)?;
        let (records, valid_len) = parse_segment(&bytes, &name, is_last)?;
        if valid_len < bytes.len() as u64 {
            // Torn tail on the final segment: parse_segment only allows it
            // there, so this is the last file read.
            truncated_bytes = bytes.len() as u64 - valid_len;
            torn_tail = Some(TornTail {
                path: path.clone(),
                valid_len,
            });
        }
        for sql in records {
            let seq = next_seq;
            next_seq += 1;
            if seq > watermark {
                let cost = sql.len() + ENTRY_OVERHEAD;
                if !batch.is_empty() && batch_bytes.saturating_add(cost) > batch_budget_bytes {
                    peak_batch_bytes = peak_batch_bytes.max(batch_bytes as u64);
                    batches += 1;
                    sink(&batch);
                    batch.clear();
                    batch_bytes = 0;
                }
                batch_bytes += cost;
                replayed += 1;
                batch.push((seq, sql));
            }
        }
    }
    if !batch.is_empty() {
        peak_batch_bytes = peak_batch_bytes.max(batch_bytes as u64);
        batches += 1;
        sink(&batch);
    }
    let stats = WalReplayStats {
        next_seq: next_seq.max(watermark + 1),
        truncated_bytes,
        replayed,
        peak_batch_bytes,
        batches,
    };
    Ok((stats, torn_tail))
}

/// Walk one segment's frames.  Returns the decoded records and the byte
/// length of the valid prefix.
///
/// Damage classification distinguishes the two physical failure shapes:
///
/// * **Torn tail** — the remainder is what an interrupted append leaves:
///   a frame cut off by end-of-file, a zero-filled run (delayed-allocation
///   filesystems journal the size before the data, so a crash extends the
///   file with zeros), or a garbled *final* frame.  Only allowed in the
///   final segment; reported through a short `valid_len`.
/// * **Corruption** — a bad frame *with real bytes after it* (media damage
///   under records the journal already acknowledged), a zero-length frame
///   claiming validity (8 zero bytes would otherwise decode as an "empty
///   record", letting a zeroed tail masquerade as thousands of phantom
///   entries — `crc32("") == 0`), or any damage in a non-final segment.
///   Always fatal: truncating here would destroy durable evidence.
fn parse_segment(bytes: &[u8], name: &str, is_last: bool) -> Result<(Vec<String>, u64), WalError> {
    let mut records = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        // `tail_damage` = the invalid region runs to end-of-file (an
        // interrupted append or a zeroed extension); damage *under* later
        // bytes can only be media corruption.
        let torn = |tail_damage: bool, detail: String| -> Result<u64, WalError> {
            if is_last && tail_damage {
                // The valid prefix is everything before this frame.
                Ok(at as u64)
            } else {
                Err(WalError::Corrupt {
                    segment: name.to_string(),
                    detail,
                })
            }
        };
        if bytes.len() - at < FRAME_HEADER {
            let valid = torn(true, format!("truncated frame header at byte {at}"))?;
            return Ok((records, valid));
        }
        let len =
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize;
        let stored_crc =
            u32::from_le_bytes([bytes[at + 4], bytes[at + 5], bytes[at + 6], bytes[at + 7]]);
        let body_start = at + FRAME_HEADER;
        if len == 0 {
            // Never written by `append` (the service filters empty entries);
            // a zeroed tail is torn, anything else pretending to be an
            // empty record is corruption.
            let zeroed_tail = bytes[at..].iter().all(|&b| b == 0);
            let valid = torn(zeroed_tail, format!("zero-length frame at byte {at}"))?;
            return Ok((records, valid));
        }
        if bytes.len() - body_start < len {
            let valid = torn(
                true,
                format!(
                    "record at byte {at} promises {len} payload bytes, {} remain",
                    bytes.len() - body_start
                ),
            )?;
            return Ok((records, valid));
        }
        let body_end = body_start + len;
        let payload = &bytes[body_start..body_end];
        if crc32(payload) != stored_crc {
            // A torn write garbles the *last* thing in the file; a CRC
            // mismatch with real bytes after the frame is damage under
            // acknowledged records.
            let tail_damage = body_end == bytes.len() || bytes[at..].iter().all(|&b| b == 0);
            let valid = torn(tail_damage, format!("CRC mismatch in record at byte {at}"))?;
            return Ok((records, valid));
        }
        let sql = std::str::from_utf8(payload)
            .map_err(|e| WalError::Corrupt {
                segment: name.to_string(),
                detail: format!("record at byte {at} is not UTF-8: {e}"),
            })?
            .to_string();
        records.push(sql);
        at = body_end;
    }
    Ok((records, bytes.len() as u64))
}

/// Delete segments wholly covered by `watermark` through `storage` — a
/// segment is deletable exactly when the *next* segment starts at or below
/// `watermark + 1`, which proves every record in it has `seq <= watermark`.
/// The final segment is never deleted (its end is unknown and the writer
/// owns it).  Returns the number of segments removed.
pub fn gc_segments_with(storage: &dyn Storage, dir: &Path, watermark: u64) -> io::Result<usize> {
    let segments = list_segments(storage, dir)?;
    let mut removed = 0;
    for pair in segments.windows(2) {
        let (_, ref path) = pair[0];
        let (next_first, _) = pair[1];
        if next_first <= watermark + 1 {
            storage.remove_file(path)?;
            removed += 1;
        }
    }
    if removed > 0 {
        storage.sync_dir(dir)?;
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::FsStorage;
    use std::fs::{self, OpenOptions};
    use std::time::Duration;

    fn temp_wal_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("templar-wal-test-{}-{name}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn fast_config() -> WalConfig {
        WalConfig {
            fsync_every: 2,
            fsync_interval: Duration::from_millis(5),
            segment_max_records: 4,
            max_staged_bytes: 8 * 1024 * 1024,
            ..WalConfig::default()
        }
    }

    /// The outcome of replaying the journal tail above a watermark in one
    /// go.
    #[derive(Debug)]
    struct WalReplay {
        /// The surviving entries with sequence numbers strictly above the
        /// watermark, in append order.
        entries: Vec<ReplayedEntry>,
        /// The sequence number the next append must receive.
        next_seq: u64,
        /// Bytes cut off the final segment's torn tail (0 on a clean journal).
        truncated_bytes: u64,
    }

    /// Replay the whole tail above `watermark` into memory: the eager
    /// oracle the batched replay is checked against.
    fn replay(dir: &Path, watermark: u64) -> Result<WalReplay, WalError> {
        let mut entries = Vec::new();
        let stats = replay_batched_with(&FsStorage, dir, watermark, usize::MAX, &mut |batch| {
            entries.extend_from_slice(batch)
        })?;
        Ok(WalReplay {
            entries,
            next_seq: stats.next_seq,
            truncated_bytes: stats.truncated_bytes,
        })
    }

    /// The reference bitwise CRC-32 the sliced tables must reproduce.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_oracle_at_any_length_and_offset() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let bytes: Vec<u8> = (0..4096).map(|_| next() as u8).collect();
        // Every short length at every alignment, then random spans.
        for start in 0..16 {
            for len in 0..=64 {
                let span = &bytes[start..start + len];
                assert_eq!(crc32(span), crc32_bitwise(span), "start {start} len {len}");
            }
        }
        for _ in 0..500 {
            let start = next() as usize % bytes.len();
            let len = next() as usize % (bytes.len() - start + 1);
            let span = &bytes[start..start + len];
            assert_eq!(crc32(span), crc32_bitwise(span), "start {start} len {len}");
        }
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = temp_wal_dir("roundtrip");
        let mut wal = WalWriter::create_with(FsStorage::shared(), &dir, 1, fast_config()).unwrap();
        for (i, sql) in ["SELECT a FROM t", "SELECT b FROM u", "SELECT c FROM v"]
            .iter()
            .enumerate()
        {
            assert_eq!(wal.append(sql), i as u64 + 1);
        }
        wal.sync().unwrap();
        let replayed = replay(&dir, 0).unwrap();
        assert_eq!(replayed.next_seq, 4);
        assert_eq!(replayed.truncated_bytes, 0);
        assert_eq!(
            replayed.entries,
            vec![
                (1, "SELECT a FROM t".to_string()),
                (2, "SELECT b FROM u".to_string()),
                (3, "SELECT c FROM v".to_string()),
            ]
        );
        // The watermark hides the covered prefix but next_seq still reflects
        // the whole journal.
        let tail = replay(&dir, 2).unwrap();
        assert_eq!(tail.entries, vec![(3, "SELECT c FROM v".to_string())]);
        assert_eq!(tail.next_seq, 4);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_batches_and_forces() {
        let dir = temp_wal_dir("fsync");
        let mut wal = WalWriter::create_with(
            FsStorage::shared(),
            &dir,
            1,
            WalConfig {
                fsync_every: 3,
                fsync_interval: Duration::from_secs(3600),
                segment_max_records: 1024,
                max_staged_bytes: 8 * 1024 * 1024,
                ..WalConfig::default()
            },
        )
        .unwrap();
        wal.append("SELECT a FROM t");
        assert!(!wal.maybe_sync().unwrap(), "1 dirty < fsync_every");
        assert_eq!(wal.dirty(), 1);
        wal.append("SELECT b FROM t");
        wal.append("SELECT c FROM t");
        assert!(wal.maybe_sync().unwrap(), "3 dirty hits fsync_every");
        assert_eq!(wal.dirty(), 0);
        wal.append("SELECT d FROM t");
        assert!(wal.sync().unwrap(), "sync forces the flush");
        assert!(!wal.sync().unwrap(), "nothing dirty, no fsync");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_rotate_and_stay_contiguous() {
        let dir = temp_wal_dir("rotate");
        let mut wal = WalWriter::create_with(FsStorage::shared(), &dir, 1, fast_config()).unwrap();
        for i in 0..10 {
            wal.append(&format!("SELECT c{i} FROM t"));
        }
        wal.sync().unwrap();
        let segments = list_segments(&FsStorage, &dir).unwrap();
        assert_eq!(
            segments.iter().map(|(first, _)| *first).collect::<Vec<_>>(),
            vec![1, 5, 9],
            "4-record segments must rotate at 5 and 9"
        );
        let replayed = replay(&dir, 0).unwrap();
        assert_eq!(replayed.entries.len(), 10);
        assert_eq!(replayed.next_seq, 11);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_final_record_is_truncated_not_fatal() {
        let dir = temp_wal_dir("torn");
        let mut wal = WalWriter::create_with(FsStorage::shared(), &dir, 1, fast_config()).unwrap();
        wal.append("SELECT a FROM t");
        wal.append("SELECT b FROM t");
        wal.sync().unwrap();
        let path = segment_path(&dir, 1);
        let full = fs::read(&path).unwrap();
        // Chop mid-way through the second record.
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        let replayed = replay(&dir, 0).unwrap();
        assert_eq!(replayed.entries, vec![(1, "SELECT a FROM t".to_string())]);
        assert_eq!(replayed.next_seq, 2);
        assert!(replayed.truncated_bytes > 0);
        // The torn bytes are physically gone: a second replay is clean.
        let again = replay(&dir, 0).unwrap();
        assert_eq!(again.truncated_bytes, 0);
        assert_eq!(again.entries.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    /// A flipped byte *under* later records is media damage, not a torn
    /// append: replay must refuse rather than silently truncate away
    /// records the journal already acknowledged as durable.
    #[test]
    fn crc_mismatch_below_valid_records_is_fatal_even_in_the_final_segment() {
        let dir = temp_wal_dir("midfile-crc");
        let mut wal = WalWriter::create_with(
            FsStorage::shared(),
            &dir,
            1,
            WalConfig {
                fsync_every: 1,
                fsync_interval: Duration::from_millis(5),
                segment_max_records: 1024, // keep everything in one segment
                max_staged_bytes: 8 * 1024 * 1024,
                ..WalConfig::default()
            },
        )
        .unwrap();
        for i in 0..5 {
            wal.append(&format!("SELECT c{i} FROM t"));
        }
        wal.sync().unwrap();
        let path = segment_path(&dir, 1);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload byte of the FIRST record; records 2..=5 follow.
        bytes[10] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        match replay(&dir, 0) {
            Err(WalError::Corrupt { detail, .. }) => {
                assert!(detail.contains("CRC mismatch"), "{detail}")
            }
            other => panic!("expected Corrupt for mid-file damage, got {other:?}"),
        }
        // The garbled bytes were NOT truncated away.
        assert_eq!(fs::read(&path).unwrap().len(), bytes.len());
        // The same flip in the LAST record is indistinguishable from a torn
        // final append and is truncated, not fatal.
        bytes[10] ^= 0xFF; // restore
        let boundaries = {
            let mut b = vec![0usize];
            let mut at = 0usize;
            while at + FRAME_HEADER <= bytes.len() {
                let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
                at += FRAME_HEADER + len;
                b.push(at);
            }
            b
        };
        let last_payload = boundaries[boundaries.len() - 2] + FRAME_HEADER;
        bytes[last_payload] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let replayed = replay(&dir, 0).unwrap();
        assert_eq!(replayed.entries.len(), 4);
        assert!(replayed.truncated_bytes > 0);
        fs::remove_dir_all(&dir).ok();
    }

    /// Delayed-allocation filesystems can extend the final segment with
    /// zeros on a crash (size metadata journaled before the data).  Eight
    /// zero bytes would otherwise decode as a valid empty record
    /// (`crc32("") == 0`) — the zeroed run must be recognized as a torn
    /// tail, not replayed as phantom entries.
    #[test]
    fn zero_filled_tail_is_truncated_not_replayed_as_phantom_records() {
        let dir = temp_wal_dir("zero-tail");
        let mut wal = WalWriter::create_with(FsStorage::shared(), &dir, 1, fast_config()).unwrap();
        wal.append("SELECT a FROM t");
        wal.append("SELECT b FROM t");
        wal.sync().unwrap();
        let path = segment_path(&dir, 1);
        let mut bytes = fs::read(&path).unwrap();
        let real_len = bytes.len();
        bytes.extend_from_slice(&[0u8; 64]);
        fs::write(&path, &bytes).unwrap();
        let replayed = replay(&dir, 0).unwrap();
        assert_eq!(
            replayed.entries.len(),
            2,
            "zeros must not decode as phantom records"
        );
        assert_eq!(replayed.next_seq, 3);
        assert_eq!(replayed.truncated_bytes, 64);
        assert_eq!(
            fs::read(&path).unwrap().len(),
            real_len,
            "the zeroed run is physically truncated"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_below_the_tail_is_fatal() {
        let dir = temp_wal_dir("corrupt");
        let mut wal = WalWriter::create_with(FsStorage::shared(), &dir, 1, fast_config()).unwrap();
        for i in 0..6 {
            wal.append(&format!("SELECT c{i} FROM t"));
        }
        wal.sync().unwrap();
        // Two segments exist; tear the FIRST one. That is not an
        // interrupted append — journaled evidence is gone.
        let first = segment_path(&dir, 1);
        let bytes = fs::read(&first).unwrap();
        fs::write(&first, &bytes[..bytes.len() - 2]).unwrap();
        match replay(&dir, 0) {
            Err(WalError::Corrupt { segment, .. }) => {
                assert!(segment.contains("00000000000000000001"))
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A flipped payload byte below the tail is equally fatal.
        fs::write(&first, &bytes).unwrap();
        let mut flipped = fs::read(&first).unwrap();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        fs::write(&first, &flipped).unwrap();
        assert!(matches!(
            replay(&dir, 0),
            Err(WalError::Corrupt { .. }) | Ok(_)
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_covered_segments_are_detected() {
        let dir = temp_wal_dir("gap");
        let mut wal = WalWriter::create_with(FsStorage::shared(), &dir, 1, fast_config()).unwrap();
        for i in 0..10 {
            wal.append(&format!("SELECT c{i} FROM t"));
        }
        wal.sync().unwrap();
        // Remove the middle segment: 1..=4 and 9..=10 remain.
        fs::remove_file(segment_path(&dir, 5)).unwrap();
        match replay(&dir, 0) {
            Err(WalError::Corrupt { detail, .. }) => {
                assert!(detail.contains("not contiguous"), "{detail}")
            }
            other => panic!("expected Corrupt for a gap, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A gap wholly covered by the snapshot watermark (e.g. a stale
    /// truncated segment left behind by a recovery whose records a later
    /// checkpoint absorbed) must not block replay of the live tail.
    #[test]
    fn gaps_below_the_watermark_are_benign() {
        let dir = temp_wal_dir("benign-gap");
        let mut wal = WalWriter::create_with(FsStorage::shared(), &dir, 1, fast_config()).unwrap();
        for i in 0..10 {
            wal.append(&format!("SELECT c{i} FROM t"));
        }
        wal.sync().unwrap();
        fs::remove_file(segment_path(&dir, 5)).unwrap();
        // Records 5..=8 are missing but the watermark covers through 8.
        let replayed = replay(&dir, 8).unwrap();
        assert_eq!(
            replayed.entries.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![9, 10]
        );
        assert_eq!(replayed.next_seq, 11);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_removes_only_wholly_covered_segments() {
        let dir = temp_wal_dir("gc");
        let mut wal = WalWriter::create_with(FsStorage::shared(), &dir, 1, fast_config()).unwrap();
        for i in 0..10 {
            wal.append(&format!("SELECT c{i} FROM t"));
        }
        wal.sync().unwrap();
        // Segments: [1..=4], [5..=8], [9..]. Watermark 6 covers only the
        // first segment wholly.
        assert_eq!(gc_segments_with(&FsStorage, &dir, 6).unwrap(), 1);
        let firsts: Vec<u64> = list_segments(&FsStorage, &dir)
            .unwrap()
            .iter()
            .map(|(f, _)| *f)
            .collect();
        assert_eq!(firsts, vec![5, 9]);
        // Watermark 10 covers [5..=8] too; the active segment survives.
        assert_eq!(gc_segments_with(&FsStorage, &dir, 10).unwrap(), 1);
        let firsts: Vec<u64> = list_segments(&FsStorage, &dir)
            .unwrap()
            .iter()
            .map(|(f, _)| *f)
            .collect();
        assert_eq!(firsts, vec![9]);
        // Replay above the watermark still works after GC.
        let replayed = replay(&dir, 8).unwrap();
        assert_eq!(replayed.entries.len(), 2);
        assert_eq!(replayed.next_seq, 11);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_journal_replays_to_nothing() {
        let dir = temp_wal_dir("empty");
        let replayed = replay(&dir, 7).unwrap();
        assert!(replayed.entries.is_empty());
        assert_eq!(replayed.next_seq, 8);
    }

    #[test]
    fn batched_replay_matches_eager_replay_under_any_budget() {
        let dir = temp_wal_dir("batched-equiv");
        let mut wal = WalWriter::create_with(FsStorage::shared(), &dir, 1, fast_config()).unwrap();
        let statements: Vec<String> = (0..17)
            .map(|i| format!("SELECT col{i} FROM t{} WHERE x > {i}", i % 3))
            .collect();
        for sql in &statements {
            wal.append(sql);
        }
        wal.sync().unwrap();
        let eager = replay(&dir, 3).unwrap();
        for budget in [1usize, 64, 200, 1 << 20, usize::MAX] {
            let mut collected = Vec::new();
            let mut sink_calls = 0u64;
            let stats = replay_batched_with(&FsStorage, &dir, 3, budget, &mut |batch| {
                assert!(!batch.is_empty(), "sink never sees an empty batch");
                sink_calls += 1;
                collected.extend_from_slice(batch);
            })
            .unwrap();
            assert_eq!(collected, eager.entries, "budget {budget}");
            assert_eq!(stats.next_seq, eager.next_seq);
            assert_eq!(stats.truncated_bytes, 0);
            assert_eq!(stats.replayed, eager.entries.len() as u64);
            assert_eq!(stats.batches, sink_calls);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_budget_bounds_the_peak_and_oversized_entries_ride_alone() {
        let dir = temp_wal_dir("batched-budget");
        let mut wal = WalWriter::create_with(FsStorage::shared(), &dir, 1, fast_config()).unwrap();
        let small = "SELECT a FROM t";
        let huge = format!("SELECT {} FROM t", "x, ".repeat(400));
        for _ in 0..6 {
            wal.append(small);
        }
        wal.append(&huge);
        wal.append(small);
        wal.sync().unwrap();

        let budget = 2 * (small.len() + ENTRY_OVERHEAD) + 1;
        let mut batch_sizes = Vec::new();
        let stats = replay_batched_with(&FsStorage, &dir, 0, budget, &mut |batch| {
            batch_sizes.push(batch.len());
        })
        .unwrap();
        assert_eq!(stats.replayed, 8);
        assert_eq!(batch_sizes.iter().sum::<usize>(), 8);
        // Small entries pack two to a batch; the huge entry exceeds the whole
        // budget and still flows through as a batch of one.
        assert!(batch_sizes.contains(&1), "oversized entry rides alone");
        assert!(batch_sizes.iter().all(|&n| n <= 2));
        let huge_cost = (huge.len() + ENTRY_OVERHEAD) as u64;
        assert_eq!(
            stats.peak_batch_bytes, huge_cost,
            "peak is max(budget, largest entry)"
        );
        assert_eq!(stats.batches, batch_sizes.len() as u64);

        // A generous budget folds everything into one batch whose size is
        // the exact sum of accounted entry costs.
        let mut batches = 0u64;
        let stats =
            replay_batched_with(&FsStorage, &dir, 0, 1 << 20, &mut |_| batches += 1).unwrap();
        assert_eq!(batches, 1);
        let total_cost = 7 * (small.len() + ENTRY_OVERHEAD) as u64 + huge_cost;
        assert_eq!(stats.peak_batch_bytes, total_cost);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_replay_still_truncates_a_torn_tail() {
        let dir = temp_wal_dir("batched-torn");
        let mut wal = WalWriter::create_with(FsStorage::shared(), &dir, 1, fast_config()).unwrap();
        wal.append("SELECT a FROM t");
        wal.append("SELECT b FROM t");
        wal.sync().unwrap();
        // Tear the final record: chop bytes off the segment's tail.
        let (_, path) = list_segments(&FsStorage, &dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        file.sync_all().unwrap();

        let mut collected = Vec::new();
        let stats = replay_batched_with(&FsStorage, &dir, 0, 64, &mut |batch| {
            collected.extend_from_slice(batch);
        })
        .unwrap();
        assert_eq!(collected, vec![(1, "SELECT a FROM t".to_string())]);
        assert!(stats.truncated_bytes > 0);
        assert_eq!(stats.next_seq, 2);
        // The truncation was physical: a second replay sees a clean journal.
        let again = replay(&dir, 0).unwrap();
        assert_eq!(again.truncated_bytes, 0);
        assert_eq!(again.entries.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    /// Write-side torn matrix: crash the storage at **every cumulative byte
    /// budget** across the whole append stream — every record boundary and
    /// every intra-record offset, spanning a segment rotation — and assert
    /// recovery returns exactly a prefix of the appended entries that
    /// covers every *acknowledged* (successfully synced) one.  A crash can
    /// lose staged-but-unacknowledged frames and tear the final frame; it
    /// must never lose an acknowledged frame, reorder, or invent one.
    #[test]
    fn write_crash_at_every_byte_budget_recovers_the_acknowledged_prefix() {
        use crate::storage::FaultyStorage;

        let entries: Vec<String> = (0..6).map(|i| format!("SELECT c{i} FROM t")).collect();

        // Clean pass: total bytes the append stream writes (rotation at 4
        // records, so the matrix spans a segment boundary too).
        let clean_dir = temp_wal_dir("crash-matrix-clean");
        let counting = FaultyStorage::new();
        {
            let mut wal =
                WalWriter::create_with(counting.clone(), &clean_dir, 1, fast_config()).unwrap();
            for sql in &entries {
                wal.append(sql);
                wal.sync().unwrap();
            }
        }
        let total = counting.bytes_written();
        assert!(total > 0);
        fs::remove_dir_all(&clean_dir).ok();

        for budget in 0..=total {
            let dir = temp_wal_dir(&format!("crash-matrix-{budget}"));
            let storage = FaultyStorage::new();
            storage.crash_after_write_bytes(budget);
            let mut acknowledged = 0usize;
            if let Ok(mut wal) = WalWriter::create_with(storage.clone(), &dir, 1, fast_config()) {
                for (i, sql) in entries.iter().enumerate() {
                    wal.append(sql);
                    if wal.sync().is_ok() {
                        acknowledged = i + 1;
                    }
                }
            }
            // Recovery reads the real filesystem — exactly the bytes that
            // survived the crash.
            let replayed = replay(&dir, 0).unwrap_or_else(|e| {
                panic!("budget {budget}: replay must absorb a write-side crash, got {e}")
            });
            assert!(
                replayed.entries.len() >= acknowledged,
                "budget {budget}: {acknowledged} entries were acknowledged durable but only {} \
                 recovered",
                replayed.entries.len()
            );
            assert!(
                replayed.entries.len() <= entries.len(),
                "budget {budget}: recovery invented entries"
            );
            for (i, (seq, sql)) in replayed.entries.iter().enumerate() {
                assert_eq!(*seq, i as u64 + 1, "budget {budget}: sequence gap");
                assert_eq!(sql, &entries[i], "budget {budget}: payload mismatch");
            }
            fs::remove_dir_all(&dir).ok();
        }
    }
}
