//! Chaos and serialization tests for `dap serve`.
//!
//! The server's contract under fire:
//!
//! * **Convergence** — through a fault-injecting proxy (torn frames,
//!   flipped bits, slow-loris stalls, ack-swallowing disconnects), a
//!   retrying client's workload still lands exactly once, and the
//!   durable directory ends bit-identical to an in-memory oracle.
//! * **Serial equivalence** — N concurrent sessions produce a state
//!   identical to replaying the commit log (the serialization order)
//!   into a fresh oracle registry.
//! * **Isolation** — a protocol violation, a stalled connection, or an
//!   injected engine panic costs one session, never the process.
//! * **Bounded admission** — a flood is shed with `overloaded`
//!   responses and the in-flight peak never exceeds the queue bound.
//! * **Crash safety** — an abrupt kill loses nothing acknowledged; the
//!   restarted server picks up at the same sequence.

use dap::durability::{recover, LogRecord};
use dap::prelude::*;
use dap::provenance::WitnessesAnn;
use dap::serve::protocol::SolveObjective;
use dap::serve::{
    ChaosProxy, Client, ClientOptions, Command, Fault, FaultPlan, Response, ServeOptions, Server,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A fresh scratch directory per scenario.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dap-prop-serve-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A database wide enough for many distinct single-tuple deletions.
fn wide_database(rows: usize) -> Database {
    let mut text = String::from("relation Edge(src, dst) { ");
    for i in 0..rows {
        if i > 0 {
            text.push_str(", ");
        }
        text.push_str(&format!("(n{i}, m{i})"));
    }
    text.push_str(" }");
    parse_database(&text).unwrap()
}

fn small_fixture() -> Database {
    parse_database(
        "relation UserGroup(user, grp) { (ann, staff), (bob, staff), (bob, dev) }
         relation GroupFile(grp, file) { (staff, report), (dev, main), (dev, report) }",
    )
    .unwrap()
}

/// `small_fixture` plus three relations whose union of pairwise joins,
/// [`TRIANGLE`], derives (a, c) through three witnesses that pairwise
/// share a tuple and have none in common: {R, S}, {S, T}, {R, T}.
fn route_fixture() -> Database {
    parse_database(
        "relation UserGroup(user, grp) { (ann, staff), (bob, staff), (bob, dev) }
         relation GroupFile(grp, file) { (staff, report), (dev, main), (dev, report) }
         relation R(A, X) { (a, x) }
         relation S(X, C) { (x, c) }
         relation T(A, C) { (a, c) }",
    )
    .unwrap()
}

/// A JU query (NP-hard, not a chain) over [`route_fixture`]. Its minimum
/// hitting set for (a, c) takes 2 of 3 tuples while the disjoint-witness
/// lower bound is 1, so the exact search must branch below its root.
const TRIANGLE: &str = "union(union(project(join(scan R, scan S), [A, C]), \
     project(join(scan S, scan T), [A, C])), project(join(scan R, scan T), [A, C]))";

fn register(c: &mut Client, q: &Query) -> QueryId {
    let body = c.register(q).unwrap();
    dap::serve::protocol::parse_query_id(expect_ok(&body).split(' ').next().unwrap())
        .expect("query id")
}

fn fast_opts() -> ServeOptions {
    ServeOptions {
        read_timeout: Duration::from_millis(300),
        ..ServeOptions::default()
    }
}

fn client_opts(id: &str) -> ClientOptions {
    ClientOptions {
        backoff: Duration::from_millis(5),
        reply_timeout: Duration::from_secs(5),
        ..ClientOptions::new(id)
    }
}

fn expect_ok(resp: &Response) -> &str {
    match resp {
        Response::Ok { body, .. } => body,
        other => panic!("expected ok, got {other:?}"),
    }
}

/// Flattened view rows + annotations for equality checks.
fn view_of(reg: &PlanRegistry<WitnessesAnn>, id: QueryId) -> Vec<(Tuple, WitnessesAnn)> {
    reg.iter_query(id)
        .map(|(t, a)| (t.clone(), a.clone()))
        .collect()
}

/// End-to-end round trip: register, subscribe, delete (with the event
/// arriving), solve, graceful shutdown — and the directory recovers to
/// exactly what was served.
#[test]
fn round_trip_and_durable_shutdown() {
    let dir = scratch_dir("roundtrip");
    let db = small_fixture();
    let handle = Server::create_and_start(&dir, &db, 0, fast_opts()).unwrap();
    let addr = handle.addr();

    let mut c = Client::new(addr, client_opts("alice"));
    let q = parse_query("project(join(scan UserGroup, scan GroupFile), [user, file])").unwrap();
    let body = c.register(&q).unwrap();
    let id = dap::serve::protocol::parse_query_id(expect_ok(&body).split(' ').next().unwrap())
        .expect("query id");
    expect_ok(&c.subscribe(id).unwrap());

    // Re-registering the same query is content-idempotent.
    let again = c.register(&q).unwrap();
    assert!(expect_ok(&again).contains("existing"), "{again:?}");

    // Delete (bob, dev): the view loses (bob, main) and an event says so.
    expect_ok(&c.delete_source(&[Tid::new("UserGroup", 2)]).unwrap());
    let ev = c.wait_event(Duration::from_secs(5)).expect("delta event");
    assert!(ev.contains(&id.to_string()), "event names the query: {ev}");

    // A solve through the server matches the direct solver.
    let sol = c
        .solve(id, SolveObjective::View, tuple(["ann", "report"]))
        .unwrap();
    assert!(expect_ok(&sol).starts_with("deletions="), "{sol:?}");

    expect_ok(&c.ping().unwrap());
    handle.shutdown();

    let (state, report) = recover(&dir).unwrap();
    assert_eq!(report.last_seq, 2, "register + delete were acknowledged");
    // Oracle: same two operations applied directly.
    let mut oracle = PlanRegistry::<WitnessesAnn>::new(&db);
    let oid = oracle.register(&q).unwrap();
    oracle.delete_sources(&[Tid::new("UserGroup", 2)]);
    assert_eq!(view_of(state.registry(), id), view_of(&oracle, oid));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drive `deletes` single-tid deletions through a (possibly faulty)
/// address until every one is definitively acknowledged.
fn drive_deletes(addr: std::net::SocketAddr, client: &str, tids: &[Tid]) {
    let mut c = Client::new(addr, client_opts(client));
    for tid in tids {
        let resp = c.delete_source(std::slice::from_ref(tid)).unwrap();
        expect_ok(&resp);
    }
}

/// Every fault class converges: the workload lands exactly once and the
/// recovered directory matches the oracle.
#[test]
fn chaos_fault_classes_converge() {
    let faults = [
        ("torn", Fault::TornFrame { after_bytes: 13 }),
        ("flip", Fault::BitFlip { offset: 11, bit: 3 }),
        (
            "stall",
            Fault::Stall {
                after_bytes: 9,
                hold: Duration::from_millis(900),
            },
        ),
        ("lostack", Fault::DisconnectAfterRequests { n: 2 }),
    ];
    for (tag, fault) in faults {
        let dir = scratch_dir(&format!("chaos-{tag}"));
        let db = wide_database(8);
        let handle = Server::create_and_start(&dir, &db, 0, fast_opts()).unwrap();
        let proxy = ChaosProxy::start(handle.addr(), Some(FaultPlan { fault, every: 0 })).unwrap();

        let tids: Vec<Tid> = (0..4).map(|i| Tid::new("Edge", i)).collect();
        drive_deletes(proxy.addr(), "chaos", &tids);
        assert!(proxy.faulted() >= 1, "{tag}: the fault was exercised");
        proxy.stop();
        handle.shutdown();

        // Exactly-once: the log holds one delete record per tid, in
        // order, despite retries and resubmissions.
        let (state, report) = recover(&dir).unwrap();
        assert_eq!(
            report.last_seq,
            tids.len() as u64,
            "{tag}: every delete committed exactly once"
        );
        let mut oracle = PlanRegistry::<WitnessesAnn>::new(&db);
        for tid in &tids {
            oracle.delete_sources(std::slice::from_ref(tid));
        }
        assert_eq!(
            state.registry().committed(),
            oracle.committed(),
            "{tag}: committed sets match"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An abrupt kill (no drain, no sync beyond the per-commit discipline,
/// no snapshot) loses nothing acknowledged; the restarted server resumes
/// at the same sequence and keeps serving.
#[test]
fn killed_server_recovers_acknowledged_prefix() {
    let dir = scratch_dir("kill");
    let db = wide_database(8);
    let handle = Server::create_and_start(&dir, &db, 0, fast_opts()).unwrap();
    let addr = handle.addr();

    let tids: Vec<Tid> = (0..3).map(|i| Tid::new("Edge", i)).collect();
    drive_deletes(addr, "killer", &tids);
    let acked = handle.stats().last_seq;
    assert_eq!(acked, 3);
    handle.kill();

    // Offline recovery is prefix-consistent with the acknowledged ops.
    let (state, report) = recover(&dir).unwrap();
    assert_eq!(report.last_seq, acked);
    let mut oracle = PlanRegistry::<WitnessesAnn>::new(&db);
    for tid in &tids {
        oracle.delete_sources(std::slice::from_ref(tid));
    }
    assert_eq!(state.registry().committed(), oracle.committed());
    drop(state);

    // And the restarted server picks up exactly there.
    let handle = Server::start(&dir, 0, fast_opts()).unwrap();
    assert_eq!(handle.stats().last_seq, acked);
    drive_deletes(handle.addr(), "killer2", &[Tid::new("Edge", 3)]);
    assert_eq!(handle.stats().last_seq, acked + 1);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay the directory's commit log (the serialization order) into a
/// fresh oracle registry.
fn replay_log_into_oracle(dir: &std::path::Path, db: &Database) -> PlanRegistry<WitnessesAnn> {
    let bytes = std::fs::read(dir.join(dap::durability::LOG_FILE)).unwrap();
    let (frames, _, err) = dap::durability::decode_all(&bytes);
    assert!(err.is_none(), "clean shutdown leaves no torn tail: {err:?}");
    let mut oracle = PlanRegistry::<WitnessesAnn>::new(db);
    let mut expected_seq = None;
    for payload in frames {
        let (seq, record) = LogRecord::decode_payload(payload).unwrap();
        if let Some(prev) = expected_seq {
            assert_eq!(seq, prev + 1, "commit order is gap-free");
        }
        expected_seq = Some(seq);
        match record {
            LogRecord::Register(id, q) => {
                let got = oracle.register(&q).unwrap();
                assert_eq!(got, id);
            }
            LogRecord::Delete(tids) => {
                oracle.delete_sources(&tids);
            }
            LogRecord::Unregister(id) => {
                oracle.unregister(id);
            }
        }
    }
    oracle
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4, ..ProptestConfig::default()
    })]

    /// **Serial equivalence.** N concurrent sessions hammer the server
    /// with interleaved deletions; afterwards the recovered state is
    /// bit-identical (committed set, catalog, every view row and
    /// annotation) to replaying the commit log serially into an oracle.
    #[test]
    fn concurrent_sessions_serialize_in_commit_order(
        threads in 2usize..5,
        per_thread in 1usize..5,
        seed in any::<u64>(),
    ) {
        let dir = scratch_dir("serialize");
        let rows = threads * per_thread;
        let db = wide_database(rows);
        let handle = Server::create_and_start(&dir, &db, 0, fast_opts()).unwrap();
        let addr = handle.addr();

        // Each session registers (content-idempotent — only the first
        // lands in the log) and deletes its own slice of rows, all
        // concurrently; the commit log decides the global order.
        let q = parse_query("scan Edge").unwrap();
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut c = Client::new(addr, client_opts(&format!("w{w}-{seed}")));
                    expect_ok(&c.register(&q).unwrap());
                    for i in 0..per_thread {
                        let tid = Tid::new("Edge", w * per_thread + i);
                        expect_ok(&c.delete_source(&[tid]).unwrap());
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        handle.shutdown();

        let oracle = replay_log_into_oracle(&dir, &db);
        let (state, _) = recover(&dir).unwrap();
        prop_assert_eq!(state.registry().committed(), oracle.committed());
        let ids: Vec<QueryId> = state.catalog().keys().copied().collect();
        prop_assert_eq!(ids.len(), 1, "register is content-idempotent");
        for id in ids {
            prop_assert_eq!(
                view_of(state.registry(), id),
                view_of(&oracle, id)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A flood beyond the admission queue is shed with `overloaded` — and
/// the in-flight peak stays within `queue_capacity + 1`, so memory is
/// bounded no matter how fast clients push.
#[test]
fn flood_is_shed_and_inflight_is_bounded() {
    use dap::serve::protocol::{encode_wire_frame, Request};
    use std::io::Write as _;

    let dir = scratch_dir("flood");
    let db = wide_database(4);
    let opts = ServeOptions {
        queue_capacity: 4,
        ..fast_opts()
    };
    let handle = Server::create_and_start(&dir, &db, 0, opts).unwrap();

    // Blast requests without awaiting replies — no client-side pacing.
    // (A separate thread writes while we drain replies: a flooder that
    // never reads would trip the server's slow-consumer guard instead.)
    let raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let flood = 300usize;
    let blaster = {
        let mut w = raw.try_clone().unwrap();
        std::thread::spawn(move || {
            for i in 0..flood {
                let req = Request {
                    client: "flood".into(),
                    seq: (i + 1) as u64,
                    cmd: Command::DeleteSource(vec![Tid::new("Edge", 0)]),
                };
                w.write_all(&encode_wire_frame(&req.encode())).unwrap();
            }
        })
    };
    let mut raw = raw;
    // Collect every reply (ok or overloaded) with a patient client loop.
    let mut reader = dap::serve::protocol::FrameReader::new(1 << 20);
    let mut got = 0usize;
    let mut overloaded = 0usize;
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 4096];
    while got < flood {
        use std::io::Read as _;
        match reader.next_frame().unwrap() {
            Some(payload) => {
                got += 1;
                if matches!(
                    Response::decode(&payload).unwrap(),
                    Response::Overloaded { .. }
                ) {
                    overloaded += 1;
                }
            }
            None => {
                let n = raw.read(&mut buf).expect("server keeps answering");
                assert!(n > 0, "server closed mid-flood");
                reader.push(&buf[..n]);
            }
        }
    }
    blaster.join().unwrap();
    let stats = handle.stats();
    assert!(overloaded > 0, "a 300-deep blast over a 4-deep queue sheds");
    assert_eq!(stats.shed, overloaded as u64);
    assert!(
        stats.peak_inflight <= 4 + 1,
        "peak in-flight {} exceeds queue bound",
        stats.peak_inflight
    );
    // The server is still healthy after the flood.
    let mut c = Client::new(handle.addr(), client_opts("after"));
    expect_ok(&c.ping().unwrap());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A protocol violation (unframed garbage) earns an error and costs that
/// session only; a well-behaved session on the same server is untouched.
#[test]
fn protocol_errors_cost_one_session() {
    use std::io::{Read as _, Write as _};

    let dir = scratch_dir("proto");
    let db = small_fixture();
    let handle = Server::create_and_start(&dir, &db, 0, fast_opts()).unwrap();

    let mut good = Client::new(handle.addr(), client_opts("good"));
    expect_ok(&good.ping().unwrap());

    // An absurd length header: rejected before any buffering, answered,
    // session closed.
    let mut bad = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    bad.write_all(&frame).unwrap();
    bad.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut answer = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match bad.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => answer.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&answer);
    assert!(text.contains("protocol error"), "got: {text}");

    // The good session never noticed.
    expect_ok(&good.ping().unwrap());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A connection that parks mid-frame past the read deadline is evicted
/// (slow-loris defense); idle-but-complete sessions are left alone.
#[test]
fn slow_loris_is_evicted() {
    use std::io::{Read as _, Write as _};

    let dir = scratch_dir("loris");
    let db = small_fixture();
    let handle = Server::create_and_start(&dir, &db, 0, fast_opts()).unwrap();

    let mut loris = std::net::TcpStream::connect(handle.addr()).unwrap();
    // Half a frame header, then silence.
    loris.write_all(&[0x10, 0x00]).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 64];
    // The server must hang up (read returns 0) rather than hold the
    // half-frame forever.
    let evicted = matches!(loris.read(&mut buf), Ok(0));
    assert!(evicted, "slow-loris connection was not evicted");

    // A session that is merely idle (no pending bytes) survives longer
    // than the read deadline.
    let mut idle = Client::new(handle.addr(), client_opts("idle"));
    expect_ok(&idle.ping().unwrap());
    std::thread::sleep(Duration::from_millis(700)); // >2 read deadlines
    expect_ok(&idle.ping().unwrap());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected engine panic is caught, the state re-recovered from the
/// WAL, and surviving sessions — including their subscriptions — keep
/// working. One panic costs one session, never the process.
#[test]
fn engine_panic_heals_and_spares_other_sessions() {
    let dir = scratch_dir("panic");
    let db = small_fixture();
    let handle = Server::create_and_start(&dir, &db, 0, fast_opts()).unwrap();

    let mut survivor = Client::new(handle.addr(), client_opts("survivor"));
    let q = parse_query("scan UserGroup").unwrap();
    let body = survivor.register(&q).unwrap();
    let id = dap::serve::protocol::parse_query_id(expect_ok(&body).split(' ').next().unwrap())
        .expect("query id");
    expect_ok(&survivor.subscribe(id).unwrap());
    expect_ok(&survivor.delete_source(&[Tid::new("UserGroup", 0)]).unwrap());

    let mut bomber = Client::new(handle.addr(), client_opts("bomber"));
    let boom = bomber.request(Command::CrashTest).unwrap();
    match boom {
        Response::Err { msg, .. } => assert!(msg.contains("re-recovered"), "{msg}"),
        other => panic!("expected an error answer, got {other:?}"),
    }
    assert_eq!(handle.stats().panics, 1);

    // The survivor's session and subscription outlive the panic: another
    // delete still commits and still produces a delta event.
    expect_ok(&survivor.delete_source(&[Tid::new("UserGroup", 1)]).unwrap());
    let ev = survivor.wait_event(Duration::from_secs(5));
    assert!(ev.is_some(), "subscription survived the engine panic");

    // Nothing acknowledged was lost across the heal.
    assert_eq!(handle.stats().last_seq, 3, "register + two deletes");
    handle.shutdown();
    let (_, report) = recover(&dir).unwrap();
    assert_eq!(report.last_seq, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Solve requests beyond the ILP node budget degrade to a clean error
/// instead of wedging the engine.
#[test]
fn solve_budget_exhaustion_is_an_answer_not_a_hang() {
    let dir = scratch_dir("budget");
    let db = route_fixture();
    let opts = ServeOptions {
        node_budget: 1, // everything non-trivial exhausts instantly
        ..fast_opts()
    };
    let handle = Server::create_and_start(&dir, &db, 0, opts).unwrap();

    let mut c = Client::new(handle.addr(), client_opts("b"));
    let expect_budget = |resp: Response| match resp {
        Response::Err { msg, .. } => {
            assert!(msg.to_lowercase().contains("budget"), "{msg}")
        }
        other => panic!("expected a budget error, got {other:?}"),
    };
    // The view branch-and-bound of a PJ query.
    let q = parse_query("project(join(scan UserGroup, scan GroupFile), [user, file])").unwrap();
    let id = register(&mut c, &q);
    expect_budget(
        c.solve(id, SolveObjective::View, tuple(["ann", "report"]))
            .unwrap(),
    );
    // The source hitting-set search of a non-chain JU query.
    let id = register(&mut c, &parse_query(TRIANGLE).unwrap());
    expect_budget(
        c.solve(id, SolveObjective::Source, tuple(["a", "c"]))
            .unwrap(),
    );
    // The polynomial arms ignore the budget: an SPU solve still answers.
    let id = register(
        &mut c,
        &parse_query("project(scan UserGroup, [user])").unwrap(),
    );
    for objective in [SolveObjective::View, SolveObjective::Source] {
        let resp = c.solve(id, objective, tuple(["bob"])).unwrap();
        assert!(
            expect_ok(&resp).starts_with("deletions=2 side-effects=0 ["),
            "{resp:?}"
        );
    }
    // The engine is immediately serviceable again.
    expect_ok(&c.ping().unwrap());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `dap serve` solves through the same route as the library: for an SPU,
/// an SJ, a chain and a non-chain query, under both objectives, the
/// reply's counts equal `DeletionContext::new(..).solve(..)` on the same
/// committed state.
#[test]
fn serve_solves_match_the_library_route() {
    let dir = scratch_dir("route");
    let db = route_fixture();
    let handle = Server::create_and_start(&dir, &db, 0, fast_opts()).unwrap();
    let mut c = Client::new(handle.addr(), client_opts("r"));
    // Solve on a patched state: (staff, report) is committed first.
    let committed = db.tid_of("GroupFile", &tuple(["staff", "report"])).unwrap();
    expect_ok(&c.delete_source(std::slice::from_ref(&committed)).unwrap());
    let cases = [
        (
            "project(scan UserGroup, [user])",
            tuple(["bob"]),
            SolverKind::Spu,
        ),
        (
            "join(scan UserGroup, scan GroupFile)",
            tuple(["bob", "dev", "report"]),
            SolverKind::Sj,
        ),
        (
            "project(join(scan UserGroup, scan GroupFile), [user, file])",
            tuple(["bob", "report"]),
            SolverKind::ChainMinCut,
        ),
        (TRIANGLE, tuple(["a", "c"]), SolverKind::ExactSearch),
    ];
    for (text, target, source_kind) in cases {
        let q = parse_query(text).unwrap();
        let id = register(&mut c, &q);
        for objective in [SolveObjective::View, SolveObjective::Source] {
            let mut ctx = DeletionContext::new(&q, &db).unwrap();
            ctx.apply_delete(&std::collections::BTreeSet::from([committed.clone()]));
            let (sol, kind) = ctx
                .solve(&target, objective, &ExactOptions::default())
                .unwrap();
            if objective == SolveObjective::Source {
                assert_eq!(kind, source_kind, "{text}");
            }
            let resp = c.solve(id, objective, target.clone()).unwrap();
            let expected = format!(
                "deletions={} side-effects={} [",
                sol.deletions.len(),
                sol.view_side_effects.len()
            );
            assert!(
                expect_ok(&resp).starts_with(&expected),
                "{text} {objective}: server {resp:?}, library {expected}"
            );
        }
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
