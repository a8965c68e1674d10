//! [`DurableState`]: the write-ahead-logged serving state — a
//! [`PlanRegistry`] plus durable view catalog whose every mutation is
//! framed into the commit log *before* it is applied, and which a fresh
//! process rebuilds with [`recover`]: load the newest valid snapshot,
//! re-register its catalog, re-apply its committed deletions, replay the
//! log tail, truncate whatever the crash tore.
//!
//! The WAL contract, explicitly:
//!
//! * **Log-first.** An operation is appended (and, under
//!   [`FsyncMode::Always`], synced) before it touches the registry. If
//!   the append fails the operation is *not* applied and the error is
//!   returned — the disk may hold a torn frame, which recovery truncates.
//! * **Acknowledged ⇒ replayable.** Under `Always`, every operation that
//!   returned `Ok` survives any crash. Under `Batch`/`Never`, a crash may
//!   lose a *suffix* of acknowledged operations (the unsynced tail) but
//!   never an interior one: recovery always lands on a prefix.
//! * **Recovery is the serving path.** Replay drives the same
//!   [`PlanRegistry::delete_sources`] / [`PlanRegistry::register_at`]
//!   code every live commit uses, so the recovered registry is the one
//!   the differential tests already pin.

use crate::log::{CommitLog, LogRecord};
use crate::logfile::{FsyncMode, LogFile, StdLogFile};
use crate::snapshot::Snapshot;
use dap_core::{CoreError, Result};
use dap_provenance::WitnessesAnn;
use dap_relalg::{Database, PlanRegistry, Query, QueryId, Tid, ViewDelta};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// The commit log's file name inside a durable directory.
pub const LOG_FILE: &str = "commit.log";

/// Knobs for a durable directory.
#[derive(Clone, Copy, Debug)]
pub struct DurableOptions {
    /// Fsync discipline for the commit log.
    pub fsync: FsyncMode,
    /// Write a snapshot automatically every this many logged operations
    /// (`0` = only on explicit [`DurableState::snapshot`] calls).
    pub snapshot_every: u64,
}

impl Default for DurableOptions {
    fn default() -> DurableOptions {
        DurableOptions {
            fsync: FsyncMode::Always,
            snapshot_every: 0,
        }
    }
}

impl DurableOptions {
    /// Options with the fsync mode taken from `DAP_FSYNC`.
    pub fn from_env() -> DurableOptions {
        DurableOptions {
            fsync: FsyncMode::from_env(),
            ..DurableOptions::default()
        }
    }
}

/// What [`recover`] found and did.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot recovery started from.
    pub snapshot_seq: u64,
    /// `snap-*` files that failed validation and were skipped (newest
    /// snapshots are tried first; a bad one falls back to the next).
    pub snapshots_skipped: Vec<String>,
    /// Log records replayed on top of the snapshot.
    pub records_replayed: usize,
    /// Log records skipped because the snapshot already folded them in.
    pub records_skipped: usize,
    /// Sequence number of the last applied operation.
    pub last_seq: u64,
    /// If the log tail failed validation: `(offset, reason)` of the first
    /// invalid byte. Everything before it was applied; everything from it
    /// on was truncated.
    pub corrupt_tail: Option<(u64, String)>,
    /// Bytes physically truncated from the log file.
    pub truncated_bytes: u64,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovered from snapshot seq {} (+{} replayed, {} skipped), last seq {}",
            self.snapshot_seq, self.records_replayed, self.records_skipped, self.last_seq
        )?;
        for s in &self.snapshots_skipped {
            write!(f, "\n  skipped corrupt snapshot {s}")?;
        }
        if let Some((offset, reason)) = &self.corrupt_tail {
            write!(
                f,
                "\n  corrupt tail at byte {offset} ({reason}): truncated {} bytes",
                self.truncated_bytes
            )?;
        }
        Ok(())
    }
}

/// The write-ahead-logged serving state. See the module docs for the
/// contract.
pub struct DurableState {
    dir: PathBuf,
    reg: PlanRegistry<WitnessesAnn>,
    catalog: BTreeMap<QueryId, Query>,
    log: CommitLog,
    opts: DurableOptions,
    last_seq: u64,
    last_snapshot_seq: u64,
    /// Byte offset of the first log record not folded into the newest
    /// snapshot (seq `last_snapshot_seq`). The bytes before it are kept
    /// until the *next* snapshot lands — so recovery can fall back one
    /// snapshot — and are rotated away then.
    rotate_at: u64,
}

fn io_err(what: impl fmt::Display, e: std::io::Error) -> CoreError {
    CoreError::Io {
        context: format!("{what}: {e}"),
    }
}

impl DurableState {
    /// Initialize `dir` as a fresh durable directory over `db`: an
    /// initial snapshot at seq 0 plus an empty commit log. Errors if the
    /// directory already holds one (recover instead of re-initializing).
    pub fn create(dir: &Path, db: &Database, opts: DurableOptions) -> Result<DurableState> {
        let log_path = dir.join(LOG_FILE);
        std::fs::create_dir_all(dir).map_err(|e| io_err(format!("create {}", dir.display()), e))?;
        if log_path.exists() || !Snapshot::list_dir(dir)?.is_empty() {
            return Err(CoreError::Io {
                context: format!(
                    "{} is already a durable directory (use recover)",
                    dir.display()
                ),
            });
        }
        let file = StdLogFile::open(&log_path)
            .map_err(|e| io_err(format!("open {}", log_path.display()), e))?;
        DurableState::create_with_log(dir, db, Box::new(file), opts)
    }

    /// [`DurableState::create`] with an explicit log sink — the
    /// fault-injection entry point: the snapshot goes to `dir` as usual
    /// while appends flow through `file` (e.g. the crash tests'
    /// `FaultyLog`), whose surviving bytes a test then plants as
    /// `dir/commit.log` before exercising [`recover`].
    pub fn create_with_log(
        dir: &Path,
        db: &Database,
        file: Box<dyn LogFile>,
        opts: DurableOptions,
    ) -> Result<DurableState> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(format!("create {}", dir.display()), e))?;
        let snap = Snapshot {
            seq: 0,
            next_query: 0,
            committed: BTreeSet::new(),
            catalog: Vec::new(),
            db: db.clone(),
        };
        snap.write_to(dir)?;
        Ok(DurableState {
            dir: dir.to_path_buf(),
            reg: PlanRegistry::new(db),
            catalog: BTreeMap::new(),
            log: CommitLog::new(file, opts.fsync, 1),
            opts,
            last_seq: 0,
            last_snapshot_seq: 0,
            rotate_at: 0,
        })
    }

    /// The durable directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The live registry (for reads: `iter_query`, `view_len`, …).
    pub fn registry(&self) -> &PlanRegistry<WitnessesAnn> {
        &self.reg
    }

    /// Mutable registry access — for *ephemeral* uses only (e.g.
    /// [`dap_core::DeletionContext::new_in_registry`], whose registration is
    /// deliberately not durable). Committing deletions or catalog changes
    /// through this handle bypasses the log and will not survive a crash.
    pub fn registry_mut(&mut self) -> &mut PlanRegistry<WitnessesAnn> {
        &mut self.reg
    }

    /// The durable view catalog: id → query, ascending.
    pub fn catalog(&self) -> &BTreeMap<QueryId, Query> {
        &self.catalog
    }

    /// Sequence number of the last applied operation (0 = none yet).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Log one record (WAL-first), then bump the applied sequence. The
    /// caller applies the operation only after this returns `Ok`.
    fn log_applied(&mut self, record: &LogRecord) -> Result<u64> {
        let seq = self.log.append(record)?;
        self.last_seq = seq;
        Ok(seq)
    }

    /// Auto-snapshot when the configured cadence says so. Called after
    /// the operation is fully applied.
    fn maybe_snapshot(&mut self) -> Result<()> {
        if self.opts.snapshot_every > 0
            && self.last_seq - self.last_snapshot_seq >= self.opts.snapshot_every
        {
            self.snapshot()?;
        }
        Ok(())
    }

    /// Durably register a standing query: validate, log, register. The
    /// persisted record carries the explicit [`QueryId`] so replay
    /// reproduces it even though ephemeral registrations burn ids
    /// in between.
    pub fn register(&mut self, q: &Query) -> Result<QueryId> {
        // Validate before logging — a record that cannot replay must
        // never enter the log.
        dap_relalg::output_schema(q, &self.reg.db().catalog())?;
        let id = QueryId::from_index(self.reg.next_query_index());
        self.log_applied(&LogRecord::Register(id, q.clone()))?;
        let got = self.reg.register(q)?;
        debug_assert_eq!(got, id);
        self.catalog.insert(id, q.clone());
        self.maybe_snapshot()?;
        Ok(id)
    }

    /// Durably unregister a catalog query. `Ok(false)` (nothing logged)
    /// if `id` is not in the durable catalog.
    pub fn unregister(&mut self, id: QueryId) -> Result<bool> {
        if !self.catalog.contains_key(&id) {
            return Ok(false);
        }
        self.log_applied(&LogRecord::Unregister(id))?;
        self.reg.unregister(id);
        self.catalog.remove(&id);
        self.maybe_snapshot()?;
        Ok(true)
    }

    /// Durably delete source tuples from every registered view: log the
    /// batch, then push it through the shared DAG. An empty batch is a
    /// no-op (nothing logged).
    pub fn delete_sources(&mut self, tids: &[Tid]) -> Result<Vec<(QueryId, ViewDelta)>> {
        if tids.is_empty() {
            return Ok(self.reg.delete_sources(tids));
        }
        self.log_applied(&LogRecord::Delete(tids.to_vec()))?;
        let deltas = self.reg.delete_sources(tids);
        self.maybe_snapshot()?;
        Ok(deltas)
    }

    /// Force the commit log to stable storage (meaningful under
    /// [`FsyncMode::Batch`] / [`FsyncMode::Never`]).
    pub fn sync(&mut self) -> Result<()> {
        self.log.sync()
    }

    /// How many snapshot files [`DurableState::snapshot`] retains: the
    /// one just written plus one fallback (recovery skips a corrupt
    /// newest snapshot, and the retained log suffix reaches back exactly
    /// one snapshot).
    pub const SNAPSHOTS_KEPT: usize = 2;

    /// Write a snapshot of the current state; later [`recover`] calls
    /// start from it and replay only the log tail beyond. Returns the
    /// snapshot path.
    ///
    /// Afterwards the log is *rotated*: every record already folded into
    /// the **previous** snapshot is dropped from the front of the file
    /// (write-suffix-then-atomic-rename, crash-safe at any point), and
    /// all but the [`DurableState::SNAPSHOTS_KEPT`] newest snapshot files
    /// are pruned — so disk use is bounded by one snapshot interval, and
    /// recovery can still fall back one snapshot with a log that covers
    /// the gap.
    pub fn snapshot(&mut self) -> Result<PathBuf> {
        let snap = Snapshot {
            seq: self.last_seq,
            next_query: self.reg.next_query_index(),
            committed: self.reg.committed().clone(),
            catalog: self
                .catalog
                .iter()
                .map(|(id, q)| (*id, q.clone()))
                .collect(),
            db: self.reg.db().as_ref().clone(),
        };
        let path = snap.write_to(&self.dir)?;
        // Records before `rotate_at` are covered by the previous snapshot
        // and are now two snapshots deep — rotate them away. The records
        // between the previous snapshot and this one stay on disk as the
        // fallback path's replay tail.
        if self.rotate_at > 0 {
            self.log.rotate(self.rotate_at)?;
        }
        self.rotate_at = self.log.offset();
        self.last_snapshot_seq = self.last_seq;
        // Prune snapshots that can no longer be reached: the retained log
        // suffix only replays on top of the newest SNAPSHOTS_KEPT.
        for (i, (_, old)) in Snapshot::list_dir(&self.dir)?.iter().enumerate() {
            if i >= DurableState::SNAPSHOTS_KEPT {
                let _ = std::fs::remove_file(old);
            }
        }
        Ok(path)
    }

    /// Bytes currently held by the commit log file — bounded between
    /// snapshots by rotation.
    pub fn log_bytes(&self) -> u64 {
        self.log.offset()
    }
}

/// One validated log record ready to apply.
struct TailRecord {
    offset: u64,
    seq: u64,
    record: LogRecord,
}

/// Walk the log bytes, validating frames, payloads, and the sequence
/// chain. Returns the good records, the offset just past the last good
/// one, and the first problem (if any).
fn scan_log(bytes: &[u8]) -> (Vec<TailRecord>, u64, Option<(u64, String)>) {
    let mut records = Vec::new();
    let mut offset = 0u64;
    let mut prev_seq: Option<u64> = None;
    loop {
        let (payload, next) = match crate::frame::decode_frame(bytes, offset) {
            Ok(Some(hit)) => hit,
            Ok(None) => return (records, offset, None),
            Err(e) => return (records, offset, Some((e.offset, e.reason))),
        };
        let (seq, record) = match LogRecord::decode_payload(payload) {
            Ok(decoded) => decoded,
            Err(reason) => return (records, offset, Some((offset, reason))),
        };
        if let Some(prev) = prev_seq {
            if seq != prev + 1 {
                return (
                    records,
                    offset,
                    Some((offset, format!("sequence jump {prev} -> {seq}"))),
                );
            }
        }
        prev_seq = Some(seq);
        records.push(TailRecord {
            offset,
            seq,
            record,
        });
        offset = next;
    }
}

/// Rebuild a [`DurableState`] from `dir`: newest valid snapshot, log
/// tail replayed through the serving paths, corrupt tail truncated.
/// Fsync mode and snapshot cadence come from `opts`.
pub fn recover_with(dir: &Path, opts: DurableOptions) -> Result<(DurableState, RecoveryReport)> {
    // 1. Newest snapshot that validates; fall back over corrupt ones.
    let mut snapshots_skipped = Vec::new();
    let mut snapshot = None;
    for (_, path) in Snapshot::list_dir(dir)? {
        match Snapshot::read_from(&path) {
            Ok(snap) => {
                snapshot = Some(snap);
                break;
            }
            Err(e) => snapshots_skipped.push(format!("{}: {e}", path.display())),
        }
    }
    let Some(snap) = snapshot else {
        return Err(CoreError::CorruptLog {
            offset: 0,
            reason: format!("no valid snapshot in {}", dir.display()),
        });
    };

    // 2. Base state: original instance, catalog at persisted ids, id
    //    sequence restored, committed deletions re-applied (the same
    //    replay the registry runs for mid-stream registrations).
    let mut reg = PlanRegistry::<WitnessesAnn>::new(&snap.db);
    let mut catalog = BTreeMap::new();
    for (id, q) in &snap.catalog {
        // decode_payload pinned ascending ids < next_query, so
        // register_at cannot be asked to move backwards.
        reg.register_at(q, *id).map_err(|e| CoreError::CorruptLog {
            offset: 0,
            reason: format!("snapshot catalog query {id} does not register: {e}"),
        })?;
        catalog.insert(*id, q.clone());
    }
    reg.advance_query_index(snap.next_query);
    if !snap.committed.is_empty() {
        let committed: Vec<Tid> = snap.committed.iter().cloned().collect();
        reg.delete_sources(&committed);
    }

    // 3. Scan the log and replay the tail beyond the snapshot. A stale
    //    rotation staging file means a crash hit between writing the
    //    rotated suffix and renaming it over the log — the log itself is
    //    whole (the rename never happened), so the staging copy is
    //    redundant and removed.
    let log_path = dir.join(LOG_FILE);
    let _ = std::fs::remove_file(StdLogFile::rotation_staging_path(&log_path));
    let bytes = match std::fs::read(&log_path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err(format!("read {}", log_path.display()), e)),
    };
    // A scan-detected problem only invalidates bytes *from its offset on*
    // — every record before it is intact and must still be applied.
    let (records, mut valid_end, scan_err) = scan_log(&bytes);
    let mut corrupt_tail = None;
    let mut last_seq = snap.seq;
    let mut records_replayed = 0usize;
    let mut records_skipped = 0usize;
    let mut rotate_at = None;
    for tail in &records {
        if tail.seq <= snap.seq {
            records_skipped += 1;
            continue;
        }
        if rotate_at.is_none() {
            rotate_at = Some(tail.offset);
        }
        // Semantic replay failures are corruption too: stop *before* the
        // offending record and truncate it away with the rest.
        let fail = |reason: String| Some((tail.offset, reason));
        match &tail.record {
            LogRecord::Delete(tids) => {
                // Unknown tids are no-ops on the live path (the registry
                // still records them for future registrations) — replay
                // mirrors that exactly rather than second-guessing it.
                reg.delete_sources(tids);
            }
            LogRecord::Register(id, q) => {
                if id.index() < reg.next_query_index() {
                    corrupt_tail = fail(format!("register reuses query id {id}"));
                } else if let Err(e) = reg.register_at(q, *id) {
                    corrupt_tail = fail(format!("register {id} does not replay: {e}"));
                } else {
                    catalog.insert(*id, q.clone());
                }
            }
            LogRecord::Unregister(id) => {
                if catalog.remove(id).is_none() {
                    corrupt_tail = fail(format!("unregister of unknown query {id}"));
                } else {
                    reg.unregister(*id);
                }
            }
        }
        if corrupt_tail.is_some() {
            valid_end = tail.offset;
            break;
        }
        last_seq = tail.seq;
        records_replayed += 1;
    }
    if corrupt_tail.is_none() {
        corrupt_tail = scan_err;
    }

    // 4. Physically truncate everything past the last applied record, so
    //    the next append continues a clean log.
    let truncated_bytes = bytes.len() as u64 - valid_end;
    if truncated_bytes > 0 {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log_path)
            .map_err(|e| io_err(format!("open {}", log_path.display()), e))?;
        f.set_len(valid_end)
            .map_err(|e| io_err(format!("truncate {}", log_path.display()), e))?;
        f.sync_all()
            .map_err(|e| io_err(format!("sync {}", log_path.display()), e))?;
    }

    let file = StdLogFile::open(&log_path)
        .map_err(|e| io_err(format!("open {}", log_path.display()), e))?;
    let report = RecoveryReport {
        snapshot_seq: snap.seq,
        snapshots_skipped,
        records_replayed,
        records_skipped,
        last_seq,
        corrupt_tail,
        truncated_bytes,
    };
    let state = DurableState {
        dir: dir.to_path_buf(),
        reg,
        catalog,
        log: CommitLog::new(Box::new(file), opts.fsync, last_seq + 1),
        opts,
        last_seq,
        last_snapshot_seq: snap.seq,
        // First byte beyond the recovered snapshot's coverage: the offset
        // of the first replayed record, or the valid end if the snapshot
        // already folded the whole log in.
        rotate_at: rotate_at.unwrap_or(valid_end),
    };
    Ok((state, report))
}

/// [`recover_with`] under [`DurableOptions::from_env`].
pub fn recover(dir: &Path) -> Result<(DurableState, RecoveryReport)> {
    recover_with(dir, DurableOptions::from_env())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_core::DeletionContext;
    use dap_relalg::{parse_database, parse_query, tuple, Tuple};

    /// A registered view's rows + witness annotations, for equality
    /// checks (`Annotated` itself has no `PartialEq`).
    fn view_of(reg: &PlanRegistry<WitnessesAnn>, id: QueryId) -> Vec<(Tuple, WitnessesAnn)> {
        reg.iter_query(id)
            .map(|(t, a)| (t.clone(), a.clone()))
            .collect()
    }

    fn fixture() -> Database {
        parse_database(
            "relation UserGroup(user, grp) { (ann, staff), (bob, staff), (bob, dev) }
             relation GroupFile(grp, file) { (staff, report), (dev, main), (dev, report) }",
        )
        .unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dap-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_commit_recover_round_trip() {
        let dir = tmp_dir("roundtrip");
        let db = fixture();
        let mut state = DurableState::create(&dir, &db, DurableOptions::default()).unwrap();
        let core =
            parse_query("project(join(scan UserGroup, scan GroupFile), [user, file])").unwrap();
        let q = state.register(&core).unwrap();
        let dev = db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap();
        let deltas = state.delete_sources(std::slice::from_ref(&dev)).unwrap();
        assert_eq!(deltas[0].1.removed, vec![tuple(["bob", "main"])]);
        let live = view_of(state.registry(), q);

        let (rec, report) = recover(&dir).unwrap();
        assert_eq!(report.snapshot_seq, 0);
        assert_eq!(report.records_replayed, 2);
        assert_eq!(report.last_seq, 2);
        assert!(report.corrupt_tail.is_none());
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(rec.catalog().len(), 1);
        assert_eq!(view_of(rec.registry(), q), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_state_keeps_committing() {
        let dir = tmp_dir("continue");
        let db = fixture();
        let core =
            parse_query("project(join(scan UserGroup, scan GroupFile), [user, file])").unwrap();
        let q;
        {
            let mut state = DurableState::create(&dir, &db, DurableOptions::default()).unwrap();
            q = state.register(&core).unwrap();
            let dev = db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap();
            state.delete_sources(std::slice::from_ref(&dev)).unwrap();
        }
        // Second generation: recover, snapshot, commit more.
        let report1;
        {
            let (mut state, report) = recover(&dir).unwrap();
            report1 = report;
            state.snapshot().unwrap();
            let ann = db.tid_of("UserGroup", &tuple(["ann", "staff"])).unwrap();
            state.delete_sources(&[ann]).unwrap();
        }
        // Third generation starts from the newer snapshot, replays one.
        let (state, report2) = recover(&dir).unwrap();
        assert_eq!(report1.last_seq, 2);
        assert_eq!(report2.snapshot_seq, 2);
        assert_eq!(report2.records_skipped, 2);
        assert_eq!(report2.records_replayed, 1);
        let view: Vec<_> = state
            .registry()
            .iter_query(q)
            .map(|(t, _)| t.clone())
            .collect();
        assert_eq!(view, vec![tuple(["bob", "report"])]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unregister_and_id_burn_survive_recovery() {
        let dir = tmp_dir("idburn");
        let db = fixture();
        {
            let mut state = DurableState::create(&dir, &db, DurableOptions::default()).unwrap();
            let q0 = state
                .register(&parse_query("scan UserGroup").unwrap())
                .unwrap();
            // An ephemeral context burns an id without logging it.
            let ctx = DeletionContext::new_in_registry(
                state.registry_mut(),
                &parse_query("scan GroupFile").unwrap(),
            )
            .unwrap();
            drop(ctx);
            let q2 = state
                .register(&parse_query("scan GroupFile").unwrap())
                .unwrap();
            assert_eq!((q0.index(), q2.index()), (0, 2));
            state.unregister(q0).unwrap();
            state.snapshot().unwrap();
        }
        let (mut state, _) = recover(&dir).unwrap();
        assert_eq!(
            state
                .catalog()
                .keys()
                .map(|id| id.index())
                .collect::<Vec<_>>(),
            vec![2]
        );
        // New registrations never reuse burned ids.
        let q3 = state
            .register(&parse_query("scan UserGroup").unwrap())
            .unwrap();
        assert_eq!(q3.index(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Shared setup for the rotation tests: register the join view,
    /// delete `bob/dev`, snapshot (covers seq 1–2), delete `ann/staff`,
    /// snapshot again (covers seq 3, rotates seq 1–2 away).
    fn two_snapshot_setup(dir: &Path) -> (Database, QueryId, u64) {
        let db = fixture();
        let mut state = DurableState::create(dir, &db, DurableOptions::default()).unwrap();
        let core =
            parse_query("project(join(scan UserGroup, scan GroupFile), [user, file])").unwrap();
        let q = state.register(&core).unwrap();
        let dev = db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap();
        state.delete_sources(&[dev]).unwrap();
        let full = state.log_bytes();
        state.snapshot().unwrap();
        // The first snapshot rotates nothing: snap-0 covered no records,
        // so the whole log stays as the fallback replay tail.
        assert_eq!(state.log_bytes(), full);
        let ann = db.tid_of("UserGroup", &tuple(["ann", "staff"])).unwrap();
        state.delete_sources(&[ann]).unwrap();
        state.snapshot().unwrap();
        // The second snapshot rotates seq 1–2 (covered by snap-2) away;
        // only the seq-3 delete remains on disk.
        assert!(state.log_bytes() < full);
        assert!(state.log_bytes() > 0);
        (db, q, full)
    }

    #[test]
    fn snapshot_rotates_log_and_prunes_snapshots() {
        let dir = tmp_dir("rotate");
        let (_db, q, _full) = two_snapshot_setup(&dir);
        let snaps = Snapshot::list_dir(&dir).unwrap();
        let seqs: Vec<u64> = snaps.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, vec![3, 2], "keep the newest two snapshots only");
        let (rec, report) = recover(&dir).unwrap();
        assert_eq!(report.snapshot_seq, 3);
        assert_eq!(report.records_replayed, 0);
        assert_eq!(report.records_skipped, 1);
        assert!(report.corrupt_tail.is_none());
        let view: Vec<Tuple> = rec
            .registry()
            .iter_query(q)
            .map(|(t, _)| t.clone())
            .collect();
        assert_eq!(view, vec![tuple(["bob", "report"])]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotated_log_still_covers_the_fallback_snapshot() {
        let dir = tmp_dir("rotate-fallback");
        let (_db, q, _full) = two_snapshot_setup(&dir);
        // Corrupt the newest snapshot: recovery must fall back to snap-2
        // and replay the seq-3 delete from the rotated log's suffix.
        let snaps = Snapshot::list_dir(&dir).unwrap();
        std::fs::write(&snaps[0].1, b"not a snapshot").unwrap();
        let (rec, report) = recover(&dir).unwrap();
        assert_eq!(report.snapshot_seq, 2);
        assert_eq!(report.snapshots_skipped.len(), 1);
        assert_eq!(report.records_replayed, 1);
        let view: Vec<Tuple> = rec
            .registry()
            .iter_query(q)
            .map(|(t, _)| t.clone())
            .collect();
        assert_eq!(view, vec![tuple(["bob", "report"])]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_disk_use_is_bounded_under_snapshot_cadence() {
        let dir = tmp_dir("rotate-bound");
        let db = fixture();
        let opts = DurableOptions {
            snapshot_every: 2,
            ..DurableOptions::default()
        };
        let mut state = DurableState::create(&dir, &db, opts).unwrap();
        let q = state
            .register(&parse_query("scan UserGroup").unwrap())
            .unwrap();
        let dev = db.tid_of("UserGroup", &tuple(["bob", "dev"])).unwrap();
        state.delete_sources(std::slice::from_ref(&dev)).unwrap();
        // Register record + one delete record: a generous per-interval
        // unit for the growth bound below.
        let baseline = state.log_bytes();
        let mut max_log = baseline;
        for _ in 0..19 {
            state.delete_sources(std::slice::from_ref(&dev)).unwrap();
            max_log = max_log.max(state.log_bytes());
        }
        // Auto-snapshots every 2 records rotate everything two intervals
        // back: the log never holds more than ~2 intervals of records,
        // no matter how many commits flow through.
        assert!(
            max_log <= 4 * baseline + 8,
            "log grew unboundedly: peak {max_log} bytes vs baseline {baseline}"
        );
        assert_eq!(
            Snapshot::list_dir(&dir).unwrap().len(),
            DurableState::SNAPSHOTS_KEPT
        );
        // And the bounded log still recovers the full state.
        let live = view_of(state.registry(), q);
        drop(state);
        let (rec, _) = recover(&dir).unwrap();
        assert_eq!(view_of(rec.registry(), q), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_an_initialized_dir() {
        let dir = tmp_dir("refuse");
        let db = fixture();
        DurableState::create(&dir, &db, DurableOptions::default()).unwrap();
        let err = DurableState::create(&dir, &db, DurableOptions::default())
            .err()
            .expect("second create must fail");
        assert!(err.to_string().contains("already a durable directory"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_snapshot_cadence_fires() {
        let dir = tmp_dir("cadence");
        let db = fixture();
        let opts = DurableOptions {
            snapshot_every: 2,
            ..DurableOptions::default()
        };
        let mut state = DurableState::create(&dir, &db, opts).unwrap();
        state
            .register(&parse_query("scan UserGroup").unwrap())
            .unwrap();
        assert_eq!(Snapshot::list_dir(&dir).unwrap().len(), 1);
        state
            .register(&parse_query("scan GroupFile").unwrap())
            .unwrap();
        assert_eq!(Snapshot::list_dir(&dir).unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
