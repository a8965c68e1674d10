//! Crash-recovery property tests for `dap-durability`.
//!
//! The central claim — **prefix-consistency** — is checked the hard way:
//! a workload of durable registrations, unregistrations, and deletion
//! batches is driven through a [`FaultyLog`] that simulates a crash at an
//! injected byte offset of the write stream (tearing the append that
//! crosses it), the surviving bytes are planted as the directory's
//! `commit.log`, and [`recover`] must rebuild a state *identical* — rows,
//! witness annotations, catalog, committed set — to an in-memory oracle
//! that applied exactly the operations recovery reports as replayed,
//! which must be exactly the operations the crashed process had
//! acknowledged. The deterministic test sweeps **every** byte offset;
//! the proptests randomize workload, fsync mode, crash point, bit flips,
//! and mid-stream snapshots. Corruption is always detected, truncated,
//! and reported — never a panic, never a half-applied commit.

mod common;
#[path = "support/faulty_log.rs"]
mod faulty_log;

use common::{small_database, tid_subset, typed_query};
use dap::durability::{recover, DurableOptions, DurableState, FsyncMode, MemLog};
use dap::prelude::*;
use dap::provenance::WitnessesAnn;
use dap::relalg::engine::Annotated;
use faulty_log::FaultyLog;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One durable operation of a generated workload (1:1 with log records).
#[derive(Clone, Debug)]
enum Op {
    Register(Query),
    Delete(Vec<Tid>),
    Unregister(u64),
}

/// A fresh scratch directory per scenario.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dap-prop-durability-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Drive `ops` through `state`, stopping at the first error (the
/// simulated crash). Returns how many operations were acknowledged.
fn drive(state: &mut DurableState, ops: &[Op]) -> usize {
    for (i, op) in ops.iter().enumerate() {
        let ok = match op {
            Op::Register(q) => state.register(q).is_ok(),
            Op::Delete(tids) => state.delete_sources(tids).is_ok(),
            Op::Unregister(k) => state.unregister(QueryId::from_index(*k)).is_ok(),
        };
        if !ok {
            return i;
        }
    }
    ops.len()
}

/// The in-memory oracle: the same operation prefix applied directly to a
/// fresh registry (no log, no snapshot, no recovery).
fn oracle_after(
    db: &Database,
    ops: &[Op],
    n: usize,
) -> (PlanRegistry<WitnessesAnn>, BTreeSet<u64>) {
    let mut reg = PlanRegistry::<WitnessesAnn>::new(db);
    let mut catalog = BTreeSet::new();
    for op in &ops[..n] {
        match op {
            Op::Register(q) => {
                let id = reg.register(q).expect("oracle registration");
                catalog.insert(id.index());
            }
            Op::Delete(tids) => {
                reg.delete_sources(tids);
            }
            Op::Unregister(k) => {
                reg.unregister(QueryId::from_index(*k));
                catalog.remove(k);
            }
        }
    }
    (reg, catalog)
}

/// A registered view flattened for equality: sorted rows plus their full
/// witness annotations.
fn view_of(reg: &PlanRegistry<WitnessesAnn>, id: QueryId) -> Vec<(Tuple, WitnessesAnn)> {
    reg.iter_query(id)
        .map(|(t, a)| (t.clone(), a.clone()))
        .collect()
}

/// Assert the recovered state is identical to the oracle after `n` ops.
fn assert_state_matches_oracle(state: &DurableState, db: &Database, ops: &[Op], n: usize) {
    let (oracle, oracle_catalog) = oracle_after(db, ops, n);
    let recovered_catalog: BTreeSet<u64> = state.catalog().keys().map(|id| id.index()).collect();
    assert_eq!(recovered_catalog, oracle_catalog, "catalog after {n} ops");
    assert_eq!(
        state.registry().committed(),
        oracle.committed(),
        "committed set after {n} ops"
    );
    for id in state.catalog().keys() {
        assert_eq!(
            state.registry().query_schema(*id),
            oracle.query_schema(*id),
            "schema of {id} after {n} ops"
        );
        assert_eq!(
            view_of(state.registry(), *id),
            view_of(&oracle, *id),
            "view of {id} after {n} ops"
        );
    }
}

/// Run one crash scenario: `ops` against a byte budget of `budget`,
/// recover, and check prefix-consistency. Returns the recovery report's
/// `(records_replayed + records_skipped, total bytes the workload wants
/// to write)` for sweep bookkeeping.
fn crash_scenario(
    tag: &str,
    db: &Database,
    ops: &[Op],
    budget: usize,
    fsync: FsyncMode,
    snapshot_after: Option<usize>,
) -> (usize, usize) {
    let dir = scratch_dir(tag);
    let opts = DurableOptions {
        fsync,
        snapshot_every: 0,
    };
    let (faulty, bytes) = FaultyLog::new(budget);
    let mut state =
        DurableState::create_with_log(&dir, db, Box::new(faulty), opts).expect("create");
    let acked = match snapshot_after {
        Some(k) if k < ops.len() => {
            let first = drive(&mut state, &ops[..k]);
            if first < k {
                first
            } else {
                state
                    .snapshot()
                    .expect("snapshot never goes through the faulty log");
                k + drive(&mut state, &ops[k..])
            }
        }
        _ => drive(&mut state, ops),
    };
    drop(state); // the crash
    let survivors = bytes.lock().unwrap().clone();
    let total_bytes = survivors.len();
    std::fs::write(dir.join(dap::durability::LOG_FILE), &survivors).expect("plant log");

    let (recovered, report) = recover(&dir).expect("recovery must always succeed");
    let applied = report.records_skipped + report.records_replayed;
    // Prefix-consistency: exactly the acknowledged prefix is recovered —
    // in this fault model acknowledged appends are fully persisted, so
    // nothing less, and a torn tail must never smuggle in more.
    assert_eq!(
        applied, acked,
        "budget {budget}: recovered {applied} ops, acked {acked}"
    );
    assert_eq!(report.last_seq as usize, acked, "budget {budget}: last_seq");
    // A torn tail is reported iff there are torn bytes, and is truncated.
    let log_len = std::fs::metadata(dir.join(dap::durability::LOG_FILE))
        .expect("log exists")
        .len();
    assert_eq!(
        report.corrupt_tail.is_some(),
        report.truncated_bytes > 0,
        "budget {budget}: tail report"
    );
    assert_eq!(
        log_len,
        total_bytes as u64 - report.truncated_bytes,
        "budget {budget}: physical truncation"
    );
    assert_state_matches_oracle(&recovered, db, ops, acked);
    let _ = std::fs::remove_dir_all(&dir);
    (applied, total_bytes)
}

/// A torn append fails, leaves the sequence unadvanced, and persists only
/// the torn prefix of its frame.
#[test]
fn failed_append_is_not_acknowledged() {
    use dap::durability::{decode_all, CommitLog, LogRecord};
    let (faulty, buf) = FaultyLog::new(10);
    let mut log = CommitLog::new(Box::new(faulty), FsyncMode::Never, 0);
    let big = LogRecord::Delete((0..8).map(|i| Tid::new("Relation", i)).collect());
    let err = log.append(&big).unwrap_err();
    assert!(matches!(err, CoreError::Io { .. }));
    // The sequence did not advance and the disk holds a torn frame.
    assert_eq!(log.next_seq(), 0);
    let bytes = buf.lock().unwrap().clone();
    assert_eq!(bytes.len(), 10);
    let (frames, end, torn) = decode_all(&bytes);
    assert!(frames.is_empty());
    assert_eq!(end, 0);
    assert!(torn.is_some());
}

#[test]
fn faulty_log_rotation_respects_the_crash() {
    let (mut log, buf) = FaultyLog::new(4);
    log.append(b"abcd").unwrap();
    log.rotate(2).unwrap();
    assert_eq!(&*buf.lock().unwrap(), b"cd");
    assert!(log.append(b"x").is_err());
    assert!(log.rotate(1).is_err());
    assert_eq!(&*buf.lock().unwrap(), b"cd");
}

#[test]
fn faulty_log_tears_the_crossing_write() {
    let (mut log, buf) = FaultyLog::new(5);
    log.append(b"abc").unwrap();
    assert!(!log.crashed());
    // 3 persisted + 4 requested crosses the 5-byte budget: 2 land.
    assert!(log.append(b"defg").is_err());
    assert!(log.crashed());
    assert_eq!(&*buf.lock().unwrap(), b"abcde");
    // Everything after the crash fails without persisting.
    assert!(log.append(b"x").is_err());
    assert!(log.sync().is_err());
    assert_eq!(&*buf.lock().unwrap(), b"abcde");
}

#[test]
fn faulty_log_flips_the_requested_bit() {
    let (mut log, buf) = FaultyLog::with_bit_flip(100, 1, 0);
    log.append(b"ab").unwrap();
    assert_eq!(&*buf.lock().unwrap(), &[b'a', b'b' ^ 1]);
    // The flip fires once.
    log.append(b"b").unwrap();
    assert_eq!(&*buf.lock().unwrap(), &[b'a', b'b' ^ 1, b'b']);
}

/// The deterministic workload for exhaustive sweeps.
fn fixture_workload() -> (Database, Vec<Op>) {
    let db = parse_database(
        "relation UserGroup(user, grp) { (ann, staff), (bob, staff), (bob, dev) }
         relation GroupFile(grp, file) { (staff, report), (dev, main), (dev, report) }",
    )
    .unwrap();
    let core = parse_query("project(join(scan UserGroup, scan GroupFile), [user, file])").unwrap();
    let ops = vec![
        Op::Register(core),
        Op::Register(parse_query("scan UserGroup").unwrap()),
        Op::Delete(vec![Tid::new("UserGroup", 1)]),
        Op::Unregister(1),
        Op::Delete(vec![Tid::new("GroupFile", 0), Tid::new("UserGroup", 0)]),
    ];
    (db, ops)
}

/// **The tentpole sweep**: for *every* byte offset of the workload's
/// write stream, crash there and prove recovery lands exactly on the
/// acknowledged prefix.
#[test]
fn crash_sweep_every_byte_offset() {
    let (db, ops) = fixture_workload();
    // First run with an unconstrained budget to learn the stream length.
    let (applied, total) = crash_scenario("full", &db, &ops, usize::MAX, FsyncMode::Always, None);
    assert_eq!(applied, ops.len());
    assert!(total > 0);
    for budget in 0..=total {
        crash_scenario("sweep", &db, &ops, budget, FsyncMode::Always, None);
    }
}

/// Every single-bit flip in the log is detected by checksum, truncated,
/// and reported — and the state still matches the oracle prefix.
#[test]
fn bit_flip_sweep_is_detected_and_truncated() {
    let (db, ops) = fixture_workload();
    let dir = scratch_dir("flip-base");
    let (mem, bytes) = MemLog::new();
    let mut state =
        DurableState::create_with_log(&dir, &db, Box::new(mem), DurableOptions::default())
            .expect("create");
    assert_eq!(drive(&mut state, &ops), ops.len());
    drop(state);
    let clean = bytes.lock().unwrap().clone();
    let snap_bytes = std::fs::read(dir.join("snap-00000000000000000000")).expect("snapshot");
    let _ = std::fs::remove_dir_all(&dir);

    for at in 0..clean.len() {
        let mut corrupt = clean.clone();
        corrupt[at] ^= 1 << (at % 8);
        let dir = scratch_dir("flip");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("snap-00000000000000000000"), &snap_bytes).unwrap();
        std::fs::write(dir.join(dap::durability::LOG_FILE), &corrupt).unwrap();
        let (recovered, report) = recover(&dir).expect("recovery must not fail on bit flips");
        let applied = report.records_skipped + report.records_replayed;
        assert!(
            report.corrupt_tail.is_some() && applied < ops.len(),
            "flip at {at} went undetected"
        );
        assert_state_matches_oracle(&recovered, &db, &ops, applied);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A corrupt newest snapshot falls back to an older valid one; a
/// directory with no valid snapshot errors out gracefully.
#[test]
fn snapshot_corruption_falls_back_or_reports() {
    let (db, ops) = fixture_workload();
    let dir = scratch_dir("snapfall");
    let mut state = DurableState::create(&dir, &db, DurableOptions::default()).unwrap();
    assert_eq!(drive(&mut state, &ops), ops.len());
    let newest = state.snapshot().unwrap();
    drop(state);
    // Corrupt the newest snapshot: recovery falls back to the seq-0 one
    // and replays the whole log instead.
    let mut snap = std::fs::read(&newest).unwrap();
    let mid = snap.len() / 2;
    snap[mid] ^= 0x04;
    std::fs::write(&newest, &snap).unwrap();
    let (recovered, report) = recover(&dir).unwrap();
    assert_eq!(report.snapshot_seq, 0);
    assert_eq!(report.snapshots_skipped.len(), 1);
    assert_eq!(report.records_replayed, ops.len());
    assert_state_matches_oracle(&recovered, &db, &ops, ops.len());
    // Now corrupt the seq-0 snapshot too: recovery reports, not panics.
    for (_, path) in dap::durability::Snapshot::list_dir(&dir).unwrap() {
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
    }
    let err = recover(&dir).err().expect("no valid snapshot left");
    assert!(err.to_string().contains("no valid snapshot"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// **Crash-during-rotation sweep.** Snapshotting rotates the already
/// -covered log prefix away (write suffix to a `.rot` staging sibling →
/// fsync → rename → reopen). A crash can strand the directory at every
/// intermediate point; each distinct on-disk state is staged by hand and
/// recovery must be prefix-consistent in all of them.
#[test]
fn crash_during_rotation_recovers_prefix_consistently() {
    use dap::durability::{Snapshot, StdLogFile, LOG_FILE};
    let (db, ops) = fixture_workload();
    let dir = scratch_dir("rotation");
    let opts = DurableOptions {
        fsync: FsyncMode::Always,
        snapshot_every: 0,
    };
    let mut state = DurableState::create(&dir, &db, opts).unwrap();
    assert_eq!(drive(&mut state, &ops[..2]), 2);
    state.snapshot().unwrap(); // snap@2 — rotate_at was 0, nothing rotated yet
    assert_eq!(drive(&mut state, &ops[2..4]), 2);
    let pre_rotation_log = std::fs::read(dir.join(LOG_FILE)).unwrap();
    state.snapshot().unwrap(); // snap@4 — rotates the records snap@2 covers
    assert_eq!(drive(&mut state, &ops[4..]), ops.len() - 4);
    drop(state);
    let rotated_log = std::fs::read(dir.join(LOG_FILE)).unwrap();
    assert!(
        rotated_log.len() < pre_rotation_log.len(),
        "rotation must shrink the log"
    );

    // Stage a directory representing one intermediate crash state.
    let stage = |tag: &str, log: &[u8], staging: Option<&[u8]>| -> PathBuf {
        let d = scratch_dir(tag);
        std::fs::create_dir_all(&d).unwrap();
        std::fs::write(d.join(LOG_FILE), log).unwrap();
        for seq in [2u64, 4u64] {
            std::fs::copy(
                dir.join(Snapshot::file_name(seq)),
                d.join(Snapshot::file_name(seq)),
            )
            .unwrap();
        }
        if let Some(bytes) = staging {
            std::fs::write(StdLogFile::rotation_staging_path(&d.join(LOG_FILE)), bytes).unwrap();
        }
        d
    };

    // (a) Crash after snap@4 was written but before rotation touched the
    // log: the full pre-rotation log plus both snapshots. Every record is
    // covered by snap@4 — all skipped, none replayed.
    let d = stage("rot-a", &pre_rotation_log, None);
    let (rec, report) = recover(&d).expect("unrotated log + snapshots");
    assert_eq!(report.records_replayed, 0, "all records under snap@4");
    assert_eq!(report.records_skipped, 4);
    assert_state_matches_oracle(&rec, &db, &ops, 4);
    let _ = std::fs::remove_dir_all(&d);

    // (b) Crash after the `.rot` staging suffix was written but before
    // the rename: recovery must sweep the stale staging file and use the
    // intact original log.
    let d = stage("rot-b", &pre_rotation_log, Some(&rotated_log));
    let staging = StdLogFile::rotation_staging_path(&d.join(LOG_FILE));
    let (rec, report) = recover(&d).expect("stale staging file");
    assert_eq!(report.records_skipped + report.records_replayed, 4);
    assert!(!staging.exists(), "stale rotation staging must be removed");
    assert_state_matches_oracle(&rec, &db, &ops, 4);
    let _ = std::fs::remove_dir_all(&d);

    // (c) Crash after the rename but before older snapshots were pruned:
    // a garbage extra snapshot must not derail recovery off snap@4.
    let d = stage("rot-c", &rotated_log, None);
    std::fs::write(d.join(Snapshot::file_name(1)), b"not a snapshot").unwrap();
    let (rec, report) = recover(&d).expect("unpruned snapshots");
    assert_eq!(report.snapshot_seq, 4);
    assert_state_matches_oracle(&rec, &db, &ops, ops.len());
    let _ = std::fs::remove_dir_all(&d);

    // (d) Rotation fully completed (the real directory): the rotated
    // suffix replays the post-snapshot records and nothing else.
    let (rec, report) = recover(&dir).expect("post-rotation directory");
    assert_eq!(report.snapshot_seq, 4);
    assert_eq!(report.records_replayed, ops.len() - 4);
    assert_state_matches_oracle(&rec, &db, &ops, ops.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A recovered state keeps serving: a registry-backed deletion context
/// built on it, caught up with `sync_in` after a durable `delete_sources`
/// commit (the path `dap serve` takes), matches one built on the oracle.
#[test]
fn recovered_state_serves_deletion_contexts() {
    let (db, ops) = fixture_workload();
    let dir = scratch_dir("serve");
    let mut state = DurableState::create(&dir, &db, DurableOptions::default()).unwrap();
    // Stop before the last batch so there is still something to delete.
    assert_eq!(drive(&mut state, &ops[..3]), 3);
    drop(state);
    let (mut recovered, _) = recover(&dir).unwrap();
    let (mut oracle, _) = oracle_after(&db, &ops, 3);

    let q = parse_query("project(join(scan UserGroup, scan GroupFile), [user, file])").unwrap();
    let mut ctx_rec = DeletionContext::new_in_registry(recovered.registry_mut(), &q).unwrap();
    let mut ctx_ora = DeletionContext::new_in_registry(&mut oracle, &q).unwrap();
    let batch = BTreeSet::from([Tid::new("GroupFile", 0)]);
    // Durable path (log, push through the registry, then sync the
    // context) vs the oracle context's own commit.
    let eph = ctx_rec.registry_query().expect("registry-backed context");
    let deltas = recovered
        .delete_sources(&batch.iter().cloned().collect::<Vec<_>>())
        .unwrap();
    let d_rec = deltas
        .into_iter()
        .find(|(id, _)| *id == eph)
        .map(|(_, d)| d)
        .expect("the context's query gets a delta");
    ctx_rec.sync_in(recovered.registry_mut());
    let d_ora = ctx_ora.apply_delete_in(&mut oracle, &batch);
    assert_eq!(d_rec, d_ora);
    assert_eq!(ctx_rec.view_len(), ctx_ora.view_len());
    drop(ctx_rec);
    // And the extra commit is itself durable.
    let (again, report) = recover(&dir).unwrap();
    assert_eq!(report.last_seq, 4);
    assert_eq!(
        again.registry().committed(),
        recovered.registry().committed()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Annotated` snapshots of recovered views match the oracle's (exercise
/// the read path the solvers consume).
#[test]
fn recovered_snapshot_reads_match() {
    let (db, ops) = fixture_workload();
    let dir = scratch_dir("reads");
    let mut state = DurableState::create(&dir, &db, DurableOptions::default()).unwrap();
    assert_eq!(drive(&mut state, &ops), ops.len());
    drop(state);
    let (recovered, _) = recover(&dir).unwrap();
    let (oracle, _) = oracle_after(&db, &ops, ops.len());
    for id in recovered.catalog().keys() {
        let a: Annotated<WitnessesAnn> = recovered.registry().snapshot(*id);
        let b: Annotated<WitnessesAnn> = oracle.snapshot(*id);
        assert_eq!(a.tuples(), b.tuples());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Workload generator for the randomized sweeps: typed queries to
/// register, deletion batches over the database's tids, and optionally an
/// unregistration in the middle.
fn gen_ops() -> impl Strategy<Value = (Database, Vec<Op>)> {
    (
        small_database(),
        proptest::collection::vec(typed_query(), 1..3),
        proptest::collection::vec(
            proptest::collection::vec(any::<prop::sample::Index>(), 1..4),
            1..4,
        ),
        any::<bool>(),
    )
        .prop_map(|(db, queries, batches, drop_first)| {
            let tids = tid_subset(&db);
            let registered = queries.len() as u64;
            let mut ops: Vec<Op> = queries.into_iter().map(|(q, _)| Op::Register(q)).collect();
            for picks in batches {
                if tids.is_empty() {
                    break;
                }
                let batch: BTreeSet<Tid> = picks
                    .iter()
                    .map(|i| tids[i.index(tids.len())].clone())
                    .collect();
                ops.push(Op::Delete(batch.into_iter().collect()));
            }
            if drop_first && registered > 1 {
                ops.push(Op::Unregister(0));
            }
            (db, ops)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random workloads × random crash points × every fsync mode:
    /// recovery is always prefix-consistent and never panics.
    #[test]
    fn recovery_is_prefix_consistent_under_random_crashes(
        (db, ops) in gen_ops(),
        budget in 0usize..700,
        mode_pick in 0u8..3,
    ) {
        let fsync = [FsyncMode::Always, FsyncMode::Batch, FsyncMode::Never][mode_pick as usize];
        crash_scenario("rand", &db, &ops, budget, fsync, None);
    }

    /// Same, with a snapshot written mid-workload: recovery starts from
    /// it, skips what it folded in, and still lands on the acked prefix.
    #[test]
    fn recovery_from_midstream_snapshots_is_prefix_consistent(
        (db, ops) in gen_ops(),
        budget in 0usize..700,
        cut in any::<prop::sample::Index>(),
    ) {
        let k = cut.index(ops.len().max(1));
        crash_scenario("snap", &db, &ops, budget, FsyncMode::Always, Some(k));
    }
}
