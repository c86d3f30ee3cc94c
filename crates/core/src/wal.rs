//! Durable write-ahead log and crash recovery for the MOST database.
//!
//! The paper's MOST model is a *continuously updated service*: motion
//! vectors stream in, continuous queries stay registered for hours, and
//! Section 5's deployment picture has no notion of "restart from
//! nothing".  This module makes the global update sequence the durable
//! unit of state, so a crash loses at most the record that was being
//! written when the power went out:
//!
//! * Every mutation that changes database state — an update batch, a
//!   clock advance, a continuous-query registration or cancellation —
//!   is a [`WalRecord`].  [`Wal::append`] serializes it with
//!   `most-testkit::ser`, frames it as
//!   `[len: u32 LE][fnv1a64(payload): u64 LE][payload]`, and writes it
//!   to the current segment file **before** the mutation is applied and
//!   published as an epoch (write-ahead discipline).
//! * Segments rotate at a configurable byte threshold
//!   ([`WalConfig::segment_bytes`]), so the log is a sequence of
//!   bounded files `wal-00000001.seg`, `wal-00000002.seg`, …
//! * A **checkpoint** ([`Wal::checkpoint`]) rides the existing
//!   snapshot machinery (`Database: ToJson/FromJson`, the `mostql`
//!   SAVE/LOAD path): the full state is written to `checkpoint.tmp`,
//!   atomically renamed to `checkpoint.json`, and every segment wholly
//!   covered by it is deleted.  The log therefore never grows without
//!   bound.
//! * **Recovery** ([`recover`]) restores the checkpoint and replays the
//!   committed suffix.  A torn tail (a partial final write), a
//!   truncated segment, or a corrupt checksum stops the replay at the
//!   **last valid record of that segment** — recovery never panics and
//!   never applies a partially written batch, because a record is only
//!   applied once its full payload has been length-checked,
//!   checksum-verified, decoded, and sequence-checked.  Stale segments
//!   (left behind when a crash interrupts post-checkpoint pruning) are
//!   skipped, and later segments carrying the committed continuation
//!   still replay.
//!
//! [`DurableDb`] packages the discipline: an [`EpochDb`] whose mutating
//! entry points append to the log first (under one lock, so log order
//! is exactly apply order), with optional automatic checkpointing every
//! N records.  Replay is deterministic — applying the same records to
//! the checkpoint state reproduces the crashed primary's published
//! state *byte for byte*, including continuous-query answers and
//! counters ([`Database::fingerprint`] compares whole states) — which
//! is also what makes WAL records a valid replication feed
//! (`most-mobile::replication`, the `most-server` `Feed` endpoint).

use crate::database::{Database, UpdateOp};
use crate::epoch::{EpochDb, EpochPin};
use crate::error::{CoreError, CoreResult};
use most_ftl::Query;
use most_testkit::hash::fnv1a64;
use most_testkit::ser::{from_json_str, to_json_string};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic bytes opening every segment file.
const SEGMENT_MAGIC: &[u8; 8] = b"MOSTWAL1";

/// Per-record frame header: `u32` length + `u64` checksum.
const FRAME_HEADER: usize = 4 + 8;

/// Upper bound on one record's payload; a decoded length beyond this is
/// treated as corruption (it would otherwise let a torn length prefix
/// ask for gigabytes).
const MAX_RECORD: u32 = 16 * 1024 * 1024;

/// One durable entry of the global mutation sequence.  Replaying the
/// records in order against the checkpoint state reproduces the
/// database exactly — each variant mirrors one mutating entry point.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An explicit update batch ([`Database::apply_updates`] semantics,
    /// including prefix-on-error).
    Batch {
        /// The updates, applied in order.
        ops: Vec<UpdateOp>,
    },
    /// A clock advance.
    Advance {
        /// Ticks advanced.
        ticks: u64,
    },
    /// A continuous-query registration; the text re-parses identically
    /// on replay, so ids assign deterministically.
    Register {
        /// FTL query text.
        query: String,
    },
    /// A continuous-query cancellation.
    Cancel {
        /// The continuous-query id.
        cq: u64,
    },
}

most_testkit::json_enum!(WalRecord {
    Batch { ops },
    Advance { ticks },
    Register { query },
    Cancel { cq },
});

/// The framed payload: sequence number + record, so replay can verify
/// contiguity even across segment boundaries.
#[derive(Debug, Clone, PartialEq)]
struct LoggedRecord {
    seq: u64,
    record: WalRecord,
}

most_testkit::json_struct!(LoggedRecord { seq, record });

/// The checkpoint document: the serialized database plus the sequence
/// number replay resumes from.
#[derive(Debug, Clone)]
struct CheckpointDoc {
    next_seq: u64,
    db: Database,
}

most_testkit::json_struct!(CheckpointDoc { next_seq, db });

/// Applies one [`WalRecord`] to a database — the single definition of
/// replay semantics, shared by recovery, replicas, and the primary's
/// own mutation path.  Errors are **deterministic** (an unknown object
/// in a batch, an unparsable query) and occur identically on the
/// primary and on every replay, so callers replaying a log treat them
/// as mirrored no-ops, not corruption.
pub fn apply_record(db: &mut Database, record: &WalRecord) -> CoreResult<()> {
    match record {
        WalRecord::Batch { ops } => db.apply_updates(ops),
        WalRecord::Advance { ticks } => {
            db.advance_clock(*ticks);
            Ok(())
        }
        WalRecord::Register { query } => {
            let q = Query::parse(query)?;
            db.register_continuous(q)?;
            Ok(())
        }
        WalRecord::Cancel { cq } => db.cancel_continuous(*cq),
    }
}

/// Write-ahead log tuning.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Byte threshold after which the current segment is closed and a
    /// new one opened.
    pub segment_bytes: u64,
    /// `sync_all` after every append (durability against OS crash, at a
    /// syscall cost; tests leave it off).
    pub sync: bool,
    /// Automatic checkpoint every N appended records via
    /// [`DurableDb`]; `0` disables (manual checkpoints only).
    pub checkpoint_every: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { segment_bytes: 256 * 1024, sync: false, checkpoint_every: 0 }
    }
}

/// Outcome of [`recover`]: the restored state plus replay accounting.
#[derive(Debug)]
pub struct Recovery {
    /// The recovered database: checkpoint state + committed suffix.
    pub db: Database,
    /// The sequence number the next append must use.
    pub next_seq: u64,
    /// The sequence number recorded in the checkpoint (replay started
    /// here).
    pub checkpoint_seq: u64,
    /// Records replayed from the log (all kinds).
    pub records_replayed: u64,
    /// Update batches among the replayed records.
    pub batches_replayed: u64,
    /// Replayed records whose application returned a (deterministic,
    /// mirrored-from-the-primary) error.
    pub records_failed: u64,
    /// Whether a torn tail, truncated segment, or corrupt checksum was
    /// detected; the invalid frame and the rest of its segment were
    /// discarded.  Later segments still replay when they carry the
    /// committed continuation of the sequence.
    pub truncated_tail: bool,
    /// Valid records skipped because their sequence numbers were below
    /// the replay point — segments left behind by a crash between a
    /// checkpoint and its segment pruning.
    pub stale_skipped: u64,
    /// Segment files visited.
    pub segments_scanned: u64,
    /// Index of the highest segment file present (0 when none), so a
    /// reopened writer can start a fresh segment after it.
    pub last_segment: u64,
}

fn segment_name(index: u64) -> String {
    format!("wal-{index:08}.seg")
}

fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint.json")
}

/// Sorted indices of the segment files present in `dir`.
fn segment_indices(dir: &Path) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(rest) = name.strip_prefix("wal-") {
            if let Some(idx) = rest.strip_suffix(".seg") {
                if let Ok(n) = idx.parse::<u64>() {
                    out.push(n);
                }
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// How one segment scan ended.
enum ScanEnd {
    /// Every byte consumed as valid (or stale, checkpoint-covered)
    /// records.
    Clean,
    /// A torn / truncated / corrupt frame was found; the rest of *this*
    /// segment is discarded.  Later segments may still continue the
    /// committed sequence — appends after a crash always go to a fresh
    /// segment ([`Wal::reopen`]), so nothing valid ever follows a torn
    /// frame within one file.
    Corrupt,
}

/// Scans one segment, invoking `on_record` for each valid in-sequence
/// record.  A valid record with `seq` *below* the expected one is
/// **stale** — wholly covered by the checkpoint (a crash between the
/// checkpoint rename and segment pruning leaves such segments behind)
/// — and is skipped, never re-applied.  Stops (returning
/// [`ScanEnd::Corrupt`]) at the first invalid byte: bad magic, short
/// header, oversized or overrunning length, checksum mismatch,
/// undecodable payload, or a sequence *gap* (`seq` above the expected
/// one — the missing record is unrecoverable).
fn scan_segment(
    path: &Path,
    expected_seq: &mut u64,
    stale: &mut u64,
    mut on_record: impl FnMut(u64, WalRecord),
) -> io::Result<ScanEnd> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Ok(ScanEnd::Corrupt);
    }
    let mut at = SEGMENT_MAGIC.len();
    while at < bytes.len() {
        if bytes.len() - at < FRAME_HEADER {
            return Ok(ScanEnd::Corrupt); // torn header
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let crc = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes"));
        if len == 0 || len > MAX_RECORD {
            return Ok(ScanEnd::Corrupt);
        }
        let start = at + FRAME_HEADER;
        let Some(end) = start.checked_add(len as usize) else {
            return Ok(ScanEnd::Corrupt);
        };
        if end > bytes.len() {
            return Ok(ScanEnd::Corrupt); // torn payload
        }
        let payload = &bytes[start..end];
        if fnv1a64(payload) != crc {
            return Ok(ScanEnd::Corrupt);
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            return Ok(ScanEnd::Corrupt);
        };
        let Ok(logged) = from_json_str::<LoggedRecord>(text) else {
            return Ok(ScanEnd::Corrupt);
        };
        if logged.seq < *expected_seq {
            // Covered by the checkpoint: a crash between the checkpoint
            // rename and segment pruning leaves whole segments of such
            // records behind.  Skip, never re-apply.
            *stale += 1;
            at = end;
            continue;
        }
        if logged.seq > *expected_seq {
            return Ok(ScanEnd::Corrupt);
        }
        on_record(logged.seq, logged.record);
        *expected_seq += 1;
        at = end;
    }
    Ok(ScanEnd::Clean)
}

/// Scans the whole log (checkpoint + segments) without applying
/// anything, invoking `on_record` per committed record from
/// `from_seq` on.  Corruption discards only the rest of its own
/// segment; later segments resume replay exactly when they carry the
/// contiguous continuation (the fresh segment a post-crash [`Wal::reopen`]
/// appended committed records into), so a stale or torn file never
/// swallows records committed after it.  Returns
/// `(next_seq, truncated_tail, last_segment, stale_skipped)`.
fn scan_log(
    dir: &Path,
    from_seq: u64,
    mut on_record: impl FnMut(u64, WalRecord),
) -> io::Result<(u64, bool, u64, u64)> {
    let mut expected = from_seq;
    let mut truncated = false;
    let mut last_segment = 0u64;
    let mut stale = 0u64;
    for idx in segment_indices(dir)? {
        last_segment = idx;
        match scan_segment(&dir.join(segment_name(idx)), &mut expected, &mut stale, &mut on_record)?
        {
            ScanEnd::Clean => {}
            ScanEnd::Corrupt => truncated = true,
        }
    }
    Ok((expected, truncated, last_segment, stale))
}

/// Recovers the database state from `dir`: restores the checkpoint,
/// replays the committed log suffix, and stops at the last valid
/// record.  Never panics on torn or corrupt input; never applies a
/// partial record.
pub fn recover(dir: &Path) -> io::Result<Recovery> {
    let text = fs::read_to_string(checkpoint_path(dir))?;
    let doc: CheckpointDoc = from_json_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("checkpoint: {e}")))?;
    let mut db = doc.db;
    let checkpoint_seq = doc.next_seq;
    let mut records_replayed = 0u64;
    let mut batches_replayed = 0u64;
    let mut records_failed = 0u64;
    let segments = segment_indices(dir)?.len() as u64;
    let (next_seq, truncated_tail, last_segment, stale_skipped) =
        scan_log(dir, checkpoint_seq, |_seq, record| {
            if matches!(record, WalRecord::Batch { .. }) {
                batches_replayed += 1;
            }
            if apply_record(&mut db, &record).is_err() {
                // Deterministic application error, mirrored from the
                // primary: the state change (or lack of it) is identical.
                records_failed += 1;
            }
            records_replayed += 1;
        })?;
    most_obs::add("recovery.records_replayed", records_replayed);
    most_obs::add("recovery.batches_replayed", batches_replayed);
    most_obs::add("recovery.records_failed", records_failed);
    most_obs::add("recovery.stale_skipped", stale_skipped);
    if truncated_tail {
        most_obs::inc("recovery.truncated_tail");
    }
    Ok(Recovery {
        db,
        next_seq,
        checkpoint_seq,
        records_replayed,
        batches_replayed,
        records_failed,
        truncated_tail,
        stale_skipped,
        segments_scanned: segments,
        last_segment,
    })
}

/// The write side of the log: an open segment file plus rotation and
/// checkpoint bookkeeping.  All methods take `&mut self`; concurrent
/// writers serialize through [`DurableDb`]'s lock.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    cfg: WalConfig,
    file: File,
    segment: u64,
    segment_written: u64,
    next_seq: u64,
    appends_since_checkpoint: u64,
}

impl Wal {
    /// Creates a fresh log in `dir` (created if missing), writing the
    /// initial checkpoint of `db` so recovery always has a base state.
    /// Fails with [`io::ErrorKind::AlreadyExists`] if a checkpoint is
    /// already present — use [`Wal::reopen`] (via [`recover`]) instead.
    pub fn create(dir: &Path, db: &Database, cfg: WalConfig) -> io::Result<Wal> {
        fs::create_dir_all(dir)?;
        if checkpoint_path(dir).exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already holds a WAL checkpoint", dir.display()),
            ));
        }
        write_checkpoint(dir, 0, db)?;
        let segment = 1;
        let file = open_segment(dir, segment)?;
        most_obs::inc("wal.segments");
        Ok(Wal {
            dir: dir.to_path_buf(),
            cfg,
            file,
            segment,
            segment_written: SEGMENT_MAGIC.len() as u64,
            next_seq: 0,
            appends_since_checkpoint: 0,
        })
    }

    /// Reopens the log for appending after a [`recover`]: starts a
    /// fresh segment *after* the last existing one, so a torn tail left
    /// by the crash is never appended to (replay ignores everything
    /// past the corruption point; new records must not land behind it).
    pub fn reopen(dir: &Path, recovery: &Recovery, cfg: WalConfig) -> io::Result<Wal> {
        let segment = recovery.last_segment + 1;
        let file = open_segment(dir, segment)?;
        most_obs::inc("wal.segments");
        Ok(Wal {
            dir: dir.to_path_buf(),
            cfg,
            file,
            segment,
            segment_written: SEGMENT_MAGIC.len() as u64,
            next_seq: recovery.next_seq,
            appends_since_checkpoint: 0,
        })
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next [`Wal::append`] will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one record and returns its sequence number.  The record
    /// is on disk (and, with [`WalConfig::sync`], synced) before this
    /// returns — callers apply the mutation only afterwards.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<u64> {
        let seq = self.next_seq;
        let logged = LoggedRecord { seq, record: record.clone() };
        let payload = to_json_string(&logged)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode: {e}")))?;
        let payload = payload.as_bytes();
        if payload.len() as u64 > u64::from(MAX_RECORD) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("record of {} bytes exceeds the {MAX_RECORD}-byte cap", payload.len()),
            ));
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        if self.cfg.sync {
            self.file.sync_all()?;
        }
        self.next_seq += 1;
        self.segment_written += frame.len() as u64;
        self.appends_since_checkpoint += 1;
        most_obs::inc("wal.appends");
        most_obs::add("wal.bytes", frame.len() as u64);
        if self.segment_written >= self.cfg.segment_bytes {
            self.rotate()?;
        }
        Ok(seq)
    }

    /// Closes the current segment and opens the next.
    fn rotate(&mut self) -> io::Result<()> {
        if self.cfg.sync {
            self.file.sync_all()?;
        }
        self.segment += 1;
        self.file = open_segment(&self.dir, self.segment)?;
        self.segment_written = SEGMENT_MAGIC.len() as u64;
        most_obs::inc("wal.segments");
        Ok(())
    }

    /// Checkpoints `db`, which must be the state after applying every
    /// appended record (the [`DurableDb`] lock guarantees it).  The
    /// snapshot is written to a temp file and atomically renamed; then
    /// the log rotates and every earlier segment — now wholly covered
    /// by the checkpoint — is deleted.
    pub fn checkpoint(&mut self, db: &Database) -> io::Result<()> {
        write_checkpoint(&self.dir, self.next_seq, db)?;
        let covered = self.segment;
        self.rotate()?;
        for idx in segment_indices(&self.dir)? {
            if idx <= covered {
                fs::remove_file(self.dir.join(segment_name(idx)))?;
            }
        }
        self.appends_since_checkpoint = 0;
        most_obs::inc("wal.checkpoints");
        Ok(())
    }

    /// Records appended since the last checkpoint (or creation).
    pub fn appends_since_checkpoint(&self) -> u64 {
        self.appends_since_checkpoint
    }

    /// The checkpoint horizon: the sequence number the on-disk
    /// checkpoint replays from.  Records below it have been (or may at
    /// any moment be) pruned with their segments.
    pub fn checkpoint_seq(&self) -> io::Result<u64> {
        let text = fs::read_to_string(checkpoint_path(&self.dir))?;
        from_json_str::<CheckpointDoc>(&text)
            .map(|d| d.next_seq)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("checkpoint: {e}")))
    }

    /// Reads the committed records with `seq >= from_seq` — the replica
    /// catch-up feed.  Only fully committed (checksummed, in-sequence)
    /// records are returned; a torn tail is silently excluded, exactly
    /// as recovery would exclude it.  A `from_seq` below the checkpoint
    /// horizon is an [`io::ErrorKind::NotFound`] error, never a silently
    /// gapped stream: those records were pruned, and the caller must
    /// bootstrap from a snapshot instead ([`DurableDb::read_from`]
    /// surfaces this as [`CoreError::WalFeedPruned`]).
    pub fn read_from(&self, from_seq: u64) -> io::Result<Vec<(u64, WalRecord)>> {
        let doc_seq = self.checkpoint_seq()?;
        if from_seq < doc_seq {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "feed from {from_seq} predates the checkpoint horizon {doc_seq}: \
                     earlier records were pruned; bootstrap from a snapshot"
                ),
            ));
        }
        let mut out = Vec::new();
        let (_next, _truncated, _last, _stale) = scan_log(&self.dir, doc_seq, |seq, record| {
            if seq >= from_seq {
                out.push((seq, record));
            }
        })?;
        Ok(out)
    }
}

fn open_segment(dir: &Path, index: u64) -> io::Result<File> {
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(segment_name(index)))?;
    file.write_all(SEGMENT_MAGIC)?;
    Ok(file)
}

/// Writes the checkpoint document atomically: temp file, sync, rename.
fn write_checkpoint(dir: &Path, next_seq: u64, db: &Database) -> io::Result<()> {
    // Hand-assembled [`CheckpointDoc`] JSON (same field names/order as
    // its `json_struct!`) so the snapshot serializes straight from the
    // borrowed state instead of deep-cloning the database first.
    let doc = most_testkit::ser::Json::Obj(vec![
        ("next_seq".to_owned(), most_testkit::ser::ToJson::to_json(&next_seq)),
        ("db".to_owned(), most_testkit::ser::ToJson::to_json(db)),
    ]);
    let text = doc
        .render()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode: {e}")))?;
    let tmp = dir.join("checkpoint.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, checkpoint_path(dir))?;
    Ok(())
}

/// An epoch database whose mutations are write-ahead logged.
///
/// All mutating entry points take one internal lock across
/// *append-then-apply*, so the log's record order is exactly the epoch
/// publication order — the invariant both recovery and replication
/// depend on.  Readers are untouched: [`DurableDb::pin`] is the same
/// lock-free epoch pin as [`EpochDb::pin`].
#[derive(Debug)]
pub struct DurableDb {
    epochs: EpochDb,
    wal: Mutex<Wal>,
}

impl DurableDb {
    /// Creates a fresh durable database over `db` in `dir` (initial
    /// checkpoint + empty log).
    pub fn create(dir: &Path, db: Database, cfg: WalConfig) -> io::Result<DurableDb> {
        let wal = Wal::create(dir, &db, cfg)?;
        Ok(DurableDb { epochs: EpochDb::new(db), wal: Mutex::new(wal) })
    }

    /// Recovers from `dir` and reopens for appending.  The recovered
    /// state **moves** into epoch 0 — read it through [`DurableDb::pin`];
    /// the [`Recovery`] returned alongside carries the accounting, and its
    /// `db` is left an empty database.
    pub fn open(dir: &Path, cfg: WalConfig) -> io::Result<(DurableDb, Recovery)> {
        let mut recovery = recover(dir)?;
        let wal = Wal::reopen(dir, &recovery, cfg)?;
        let empty = Database::new(recovery.db.expiration());
        let db = std::mem::replace(&mut recovery.db, empty);
        Ok((DurableDb { epochs: EpochDb::new(db), wal: Mutex::new(wal) }, recovery))
    }

    /// The underlying epoch engine (for lock-free reads and epoch
    /// accounting).
    pub fn epochs(&self) -> &EpochDb {
        &self.epochs
    }

    /// Pins the currently published epoch for lock-free reading.
    pub fn pin(&self) -> EpochPin {
        self.epochs.pin()
    }

    /// The sequence number the next logged mutation will get.
    pub fn next_seq(&self) -> u64 {
        self.wal.lock().expect("wal lock poisoned").next_seq()
    }

    /// Logs and applies one record: append (write-ahead), apply to the
    /// next epoch, publish, then auto-checkpoint if configured.  On an
    /// append I/O failure nothing is applied.  Returns the assigned
    /// continuous-query id for `Register` records, `None` otherwise.
    fn log_and_apply(&self, record: WalRecord) -> CoreResult<Option<u64>> {
        let mut wal = self.wal.lock().expect("wal lock poisoned");
        wal.append(&record).map_err(|e| CoreError::Wal(e.to_string()))?;
        let result = match &record {
            WalRecord::Batch { ops } => self.epochs.apply_updates(ops).map(|()| None),
            WalRecord::Advance { ticks } => {
                let t = *ticks;
                self.epochs.commit(|d| d.advance_clock(t));
                Ok(None)
            }
            WalRecord::Register { query } => {
                let q = Query::parse(query)?;
                self.epochs.commit(|d| d.register_continuous(q)).map(Some)
            }
            WalRecord::Cancel { cq } => {
                let id = *cq;
                self.epochs.commit(|d| d.cancel_continuous(id)).map(|()| None)
            }
        };
        let every = wal.cfg.checkpoint_every;
        if every > 0 && wal.appends_since_checkpoint() >= every {
            let pin = self.epochs.pin();
            // The mutation is already durably appended and applied; a
            // failed auto-checkpoint must not be reported as a failed
            // mutation.  `appends_since_checkpoint` stays at or above
            // the threshold, so the next append retries the checkpoint.
            if wal.checkpoint(pin.db()).is_err() {
                most_obs::inc("wal.checkpoint_failures");
            }
        }
        result
    }

    /// Logs and applies an update batch as one epoch (prefix-on-error
    /// semantics, mirrored exactly on replay).
    pub fn apply_updates(&self, ops: &[UpdateOp]) -> CoreResult<()> {
        self.log_and_apply(WalRecord::Batch { ops: ops.to_vec() }).map(|_| ())
    }

    /// Logs and applies a clock advance.
    pub fn advance_clock(&self, ticks: u64) -> CoreResult<()> {
        self.log_and_apply(WalRecord::Advance { ticks }).map(|_| ())
    }

    /// Logs and registers a continuous query, returning its id.  The
    /// *text* is logged, so replay re-parses identically and ids assign
    /// deterministically.
    pub fn register_continuous(&self, query: &str) -> CoreResult<u64> {
        // Parse first: an unparsable query must not reach the log.
        Query::parse(query)?;
        let id = self.log_and_apply(WalRecord::Register { query: query.to_owned() })?;
        Ok(id.expect("Register records return the assigned id"))
    }

    /// Logs and cancels a continuous query.
    pub fn cancel_continuous(&self, cq: u64) -> CoreResult<()> {
        self.log_and_apply(WalRecord::Cancel { cq }).map(|_| ())
    }

    /// Takes a checkpoint of the currently published state and prunes
    /// fully covered segments.
    pub fn checkpoint(&self) -> CoreResult<()> {
        let mut wal = self.wal.lock().expect("wal lock poisoned");
        let pin = self.epochs.pin();
        wal.checkpoint(pin.db()).map_err(|e| CoreError::Wal(e.to_string()))
    }

    /// Committed records with `seq >= from_seq` (the replica catch-up
    /// feed).  A `from_seq` below the checkpoint horizon returns
    /// [`CoreError::WalFeedPruned`] carrying the horizon, so the caller
    /// knows to bootstrap from a snapshot instead of tailing into a
    /// permanent gap.
    pub fn read_from(&self, from_seq: u64) -> CoreResult<Vec<(u64, WalRecord)>> {
        let wal = self.wal.lock().expect("wal lock poisoned");
        let checkpoint_seq =
            wal.checkpoint_seq().map_err(|e| CoreError::Wal(e.to_string()))?;
        if from_seq < checkpoint_seq {
            return Err(CoreError::WalFeedPruned { from_seq, checkpoint_seq });
        }
        wal.read_from(from_seq).map_err(|e| CoreError::Wal(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_codec_round_trips() {
        let records = vec![
            WalRecord::Advance { ticks: 7 },
            WalRecord::Register { query: "RETRIEVE o WHERE INSIDE(o, P)".into() },
            WalRecord::Cancel { cq: 3 },
            WalRecord::Batch {
                ops: vec![UpdateOp::Motion {
                    id: 1,
                    velocity: most_spatial::Velocity::new(1.0, -2.0),
                }],
            },
        ];
        for r in records {
            let text = to_json_string(&r).unwrap();
            let back: WalRecord = from_json_str(&text).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn segment_names_sort_lexicographically() {
        assert_eq!(segment_name(1), "wal-00000001.seg");
        assert!(segment_name(9) < segment_name(10));
        assert!(segment_name(99_999_999) > segment_name(10));
    }
}
