//! The server: one acceptor, one reader + one writer thread per
//! session, and a single-writer engine thread that owns the
//! [`DurableState`] — the commit log's append order *is* the
//! serialization order, so N concurrent sessions are exactly equivalent
//! to their commands applied serially in commit order.
//!
//! Robustness decisions, explicitly:
//!
//! * **Admission control.** Commands enter a bounded queue
//!   ([`ServeOptions::queue_capacity`]). A full queue sheds the command
//!   with an `overloaded` response instead of buffering — memory stays
//!   bounded under any flood, and the client's retry/backoff provides
//!   the pushback.
//! * **Per-session isolation.** A protocol violation (bad frame, bad
//!   checksum, oversized length, garbage command) answers once and
//!   closes *that* session. A read deadline evicts stalled
//!   (slow-loris) connections that park mid-frame.
//! * **Engine self-healing.** Every job runs under `catch_unwind`
//!   (mirroring `ParPool`'s poison propagation). If a job panics, the
//!   offending session is closed, the in-memory state is discarded, and
//!   the engine rebuilds it with [`dap_durability::recover`] — the WAL
//!   makes the rebuilt state exact, and surviving sessions'
//!   subscriptions are re-attached. No panic ever escapes the process.
//! * **Pathological solves degrade, not wedge.** A `solve` is one
//!   [`DeletionContext::solve`], routed by the query's dichotomy class:
//!   the polynomial arms (SPU, SJ, the chain min cut) always answer, and
//!   the exact searches of the NP-hard classes run under the configured
//!   node budget and answer `err budget ...` instead of occupying the
//!   engine indefinitely.
//! * **Crash-safe by construction.** Startup is always
//!   [`dap_durability::recover`]; graceful shutdown drains queued jobs,
//!   syncs the WAL, and snapshots — but kill -9 at any point is a
//!   supported path, not an exceptional one.

use crate::protocol::{
    encode_wire_frame, Command, FrameReader, Request, Response, SolveObjective, EVENT_SEQ,
    MAX_FRAME,
};
use dap_core::deletion::view_side_effect::ExactOptions;
use dap_core::DeletionContext;
use dap_durability::{recover_with, DurableOptions, DurableState};
use dap_relalg::{Database, QueryId, SubscriberId};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Admission queue depth — the overload high-water mark. Commands
    /// past it are shed with `overloaded` responses.
    pub queue_capacity: usize,
    /// Maximum concurrently accepted sessions; further connects are
    /// refused (closed immediately).
    pub max_sessions: usize,
    /// Per-frame payload length cap.
    pub max_frame: u32,
    /// Read deadline per poll: a session parked mid-frame longer than
    /// this is evicted (slow-loris defense). Sessions idle *between*
    /// frames are fine.
    pub read_timeout: Duration,
    /// Node budget per `solve` for the exact searches of the NP-hard
    /// classes (the view branch-and-bound and the source hitting-set
    /// search): a pathological instance answers `err budget ...` instead
    /// of wedging the engine. The polynomial arms ignore it.
    pub node_budget: u64,
    /// Durability knobs (fsync discipline, snapshot cadence).
    pub durable: DurableOptions,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            queue_capacity: 64,
            max_sessions: 64,
            max_frame: MAX_FRAME,
            read_timeout: Duration::from_secs(2),
            node_budget: 5_000_000,
            durable: DurableOptions::default(),
        }
    }
}

impl ServeOptions {
    /// Defaults overridden from the environment: `DAP_SERVE_QUEUE`
    /// (admission queue depth), `DAP_SERVE_SESSIONS` (max concurrent
    /// sessions), `DAP_SERVE_READ_TIMEOUT_MS` (slow-loris eviction
    /// deadline), `DAP_SERVE_NODE_BUDGET` (exact-search node budget per
    /// solve),
    /// plus the durability knobs (`DAP_FSYNC`). Unset or unparsable
    /// variables keep the defaults.
    pub fn from_env() -> ServeOptions {
        fn env_num<T: std::str::FromStr>(name: &str, default: T) -> T {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        let d = ServeOptions::default();
        ServeOptions {
            queue_capacity: env_num("DAP_SERVE_QUEUE", d.queue_capacity).max(1),
            max_sessions: env_num("DAP_SERVE_SESSIONS", d.max_sessions).max(1),
            read_timeout: Duration::from_millis(
                env_num(
                    "DAP_SERVE_READ_TIMEOUT_MS",
                    d.read_timeout.as_millis() as u64,
                )
                .max(1),
            ),
            node_budget: env_num("DAP_SERVE_NODE_BUDGET", d.node_budget),
            durable: DurableOptions::from_env(),
            ..d
        }
    }
}

/// Live server counters, shared lock-free with every thread.
#[derive(Default)]
struct Stats {
    last_seq: AtomicU64,
    // i64, not usize: the enqueue-side increment lands after `try_send`
    // and can race the engine's completion decrement, so the counter may
    // transiently dip below zero. What matters is that the *sampled*
    // post-increment value (the peak) counts only enqueued-or-executing
    // jobs, which is bounded by queue_capacity + 1.
    inflight: AtomicI64,
    peak_inflight: AtomicI64,
    shed: AtomicU64,
    panics: AtomicU64,
    sessions: AtomicUsize,
    commits: AtomicU64,
}

/// A point-in-time copy of the server counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StatsSnapshot {
    /// Sequence number of the last durably applied operation.
    pub last_seq: u64,
    /// Commands currently queued or executing.
    pub inflight: usize,
    /// High-water mark of `inflight` over the server's lifetime — the
    /// shedding bound: never exceeds `queue_capacity + 1` (one executing
    /// plus a full queue).
    pub peak_inflight: usize,
    /// Commands shed with `overloaded`.
    pub shed: u64,
    /// Engine panics caught and healed by WAL re-recovery.
    pub panics: u64,
    /// Sessions currently open.
    pub sessions: usize,
    /// Mutating commands durably applied.
    pub commits: u64,
}

impl Stats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            last_seq: self.last_seq.load(Ordering::SeqCst),
            inflight: self.inflight.load(Ordering::SeqCst).max(0) as usize,
            peak_inflight: self.peak_inflight.load(Ordering::SeqCst).max(0) as usize,
            shed: self.shed.load(Ordering::SeqCst),
            panics: self.panics.load(Ordering::SeqCst),
            sessions: self.sessions.load(Ordering::SeqCst),
            commits: self.commits.load(Ordering::SeqCst),
        }
    }
}

/// One queued unit of engine work.
struct Job {
    session: u64,
    client: String,
    seq: u64,
    cmd: Command,
}

enum EngineMsg {
    Job(Job),
    SessionClosed(u64),
    /// Graceful drain: finish queued jobs, sync, snapshot, exit.
    Shutdown,
    /// Abrupt stop without drain/sync/snapshot — the in-process stand-in
    /// for kill -9 in crash tests.
    #[allow(dead_code)]
    Kill,
}

/// Per-session outbound frame queues, shared between the engine (which
/// routes responses and events) and the session threads (which register
/// and unregister themselves).
type Switchboard = Arc<Mutex<HashMap<u64, SyncSender<Vec<u8>>>>>;

/// The `dap serve` server. See the module docs for the architecture.
pub struct Server;

impl Server {
    /// Recover the durable directory and start serving it on
    /// `127.0.0.1:port` (`port` 0 picks a free one). Returns once the
    /// listener is bound and the engine is live.
    pub fn start(dir: &Path, port: u16, opts: ServeOptions) -> std::io::Result<ServerHandle> {
        let (state, _report) = recover_with(dir, opts.durable)
            .map_err(|e| std::io::Error::other(format!("recover {}: {e}", dir.display())))?;
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let stats: Arc<Stats> = Arc::default();
        stats.last_seq.store(state.last_seq(), Ordering::SeqCst);
        let switchboard: Switchboard = Arc::default();
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = sync_channel::<EngineMsg>(opts.queue_capacity);

        let engine = Engine {
            dir: dir.to_path_buf(),
            opts: opts.clone(),
            state,
            ctxs: HashMap::new(),
            dedup: HashMap::new(),
            subs: HashMap::new(),
            switchboard: switchboard.clone(),
            stats: stats.clone(),
            shutdown: shutdown.clone(),
        };
        let engine_thread = std::thread::Builder::new()
            .name("dap-serve-engine".into())
            .spawn(move || engine.run(rx))?;

        let accept_thread = {
            let opts = opts.clone();
            let stats = stats.clone();
            let switchboard = switchboard.clone();
            let shutdown = shutdown.clone();
            let tx = tx.clone();
            std::thread::Builder::new()
                .name("dap-serve-accept".into())
                .spawn(move || accept_loop(listener, opts, stats, switchboard, shutdown, tx))?
        };

        Ok(ServerHandle {
            addr,
            dir: dir.to_path_buf(),
            stats,
            tx,
            shutdown,
            engine: Some(engine_thread),
            accept: Some(accept_thread),
        })
    }

    /// Initialize `dir` over `db` and immediately serve it — convenience
    /// for tests and benches.
    pub fn create_and_start(
        dir: &Path,
        db: &Database,
        port: u16,
        opts: ServeOptions,
    ) -> std::io::Result<ServerHandle> {
        DurableState::create(dir, db, opts.durable)
            .map_err(|e| std::io::Error::other(format!("create {}: {e}", dir.display())))?;
        Server::start(dir, port, opts)
    }
}

/// Running-server handle: address, counters, and the shutdown paths.
pub struct ServerHandle {
    addr: SocketAddr,
    dir: PathBuf,
    stats: Arc<Stats>,
    tx: SyncSender<EngineMsg>,
    shutdown: Arc<AtomicBool>,
    engine: Option<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (`127.0.0.1:<port>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The durable directory being served.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Whether the engine has exited (client-driven `shutdown`, kill, or
    /// a fatal error).
    pub fn is_finished(&self) -> bool {
        self.engine
            .as_ref()
            .map(JoinHandle::is_finished)
            .unwrap_or(true)
    }

    fn join_threads(&mut self) {
        if let Some(t) = self.engine.take() {
            let _ = t.join();
        }
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }

    /// Gracefully stop: drain queued jobs, sync the WAL, snapshot, then
    /// join the server threads.
    pub fn shutdown(mut self) {
        let _ = self.tx.send(EngineMsg::Shutdown);
        self.join_threads();
    }

    /// Block until the server stops on its own (a client `shutdown`
    /// command or a termination signal observed by the engine).
    pub fn join(mut self) {
        self.join_threads();
    }

    /// Abrupt stop *without* drain, sync, or snapshot — the in-process
    /// stand-in for kill -9. State on disk is whatever the WAL already
    /// holds; the next [`Server::start`] recovers it.
    #[cfg(any(test, feature = "testing"))]
    pub fn kill(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.tx.send(EngineMsg::Kill);
        self.join_threads();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Best-effort stop if the handle is dropped without an explicit
        // shutdown; never blocks (the engine may already be gone).
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.tx.try_send(EngineMsg::Shutdown);
        self.join_threads();
    }
}

fn accept_loop(
    listener: TcpListener,
    opts: ServeOptions,
    stats: Arc<Stats>,
    switchboard: Switchboard,
    shutdown: Arc<AtomicBool>,
    tx: SyncSender<EngineMsg>,
) {
    let mut next_session: u64 = 1;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stats.sessions.load(Ordering::SeqCst) >= opts.max_sessions {
                    drop(stream); // refuse: close immediately
                    continue;
                }
                let session = next_session;
                next_session += 1;
                stats.sessions.fetch_add(1, Ordering::SeqCst);
                let opts = opts.clone();
                let stats_outer = stats.clone();
                let stats = stats.clone();
                let switchboard = switchboard.clone();
                let shutdown = shutdown.clone();
                let tx = tx.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("dap-serve-session-{session}"))
                    .spawn(move || {
                        session_loop(session, stream, opts, &stats, &switchboard, &shutdown, &tx);
                        stats.sessions.fetch_sub(1, Ordering::SeqCst);
                        let _ = tx.send(EngineMsg::SessionClosed(session));
                    });
                if spawned.is_err() {
                    stats_outer.sessions.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Push one encoded frame to a session's writer queue from the engine
/// (or another session's) thread. The engine must never stall on one
/// slow consumer: a queue that stays full past a short grace marks the
/// session slow and drops it from the switchboard (its writer thread
/// closes once the last sender is gone).
fn send_frame(switchboard: &Switchboard, session: u64, frame: Vec<u8>) {
    let mut frame = frame;
    // Brief retry so a merely-unscheduled writer thread isn't mistaken
    // for a dead consumer; the total stall is bounded (~50ms).
    for attempt in 0..50 {
        let tx = {
            let board = switchboard.lock().expect("switchboard poisoned");
            board.get(&session).cloned()
        };
        let Some(tx) = tx else { return };
        match tx.try_send(frame) {
            Ok(()) => return,
            Err(TrySendError::Full(f)) if attempt < 49 => {
                frame = f;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
    switchboard
        .lock()
        .expect("switchboard poisoned")
        .remove(&session);
}

/// Push one encoded frame to *this* session's writer queue from its own
/// reader thread, blocking until there is room. Blocking here is the
/// point: the reader stops pulling bytes off the socket, and TCP pushes
/// back on the client — bounded memory without dropping the session.
fn send_frame_own(switchboard: &Switchboard, session: u64, frame: Vec<u8>) {
    let tx = {
        let board = switchboard.lock().expect("switchboard poisoned");
        board.get(&session).cloned()
    };
    if let Some(tx) = tx {
        let _ = tx.send(frame);
    }
}

/// The per-session reader: pull frames off the socket under the read
/// deadline, decode, and dispatch. Owns the paired writer thread via the
/// switchboard registration.
fn session_loop(
    session: u64,
    stream: TcpStream,
    opts: ServeOptions,
    stats: &Arc<Stats>,
    switchboard: &Switchboard,
    shutdown: &Arc<AtomicBool>,
    tx: &SyncSender<EngineMsg>,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(opts.read_timeout)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };

    // Writer thread: drains the outbound queue onto the socket. Depth 256
    // bounds what a slow consumer can pin.
    let (out_tx, out_rx) = sync_channel::<Vec<u8>>(256);
    switchboard
        .lock()
        .expect("switchboard poisoned")
        .insert(session, out_tx);
    let writer = std::thread::Builder::new()
        .name(format!("dap-serve-writer-{session}"))
        .spawn(move || writer_loop(stream, out_rx));

    reader_loop(session, read_half, &opts, stats, switchboard, shutdown, tx);

    // Unregister; the writer exits when the last sender is dropped.
    switchboard
        .lock()
        .expect("switchboard poisoned")
        .remove(&session);
    if let Ok(w) = writer {
        let _ = w.join();
    }
}

fn writer_loop(mut stream: TcpStream, rx: Receiver<Vec<u8>>) {
    while let Ok(frame) = rx.recv() {
        if stream.write_all(&frame).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn reader_loop(
    session: u64,
    mut stream: TcpStream,
    opts: &ServeOptions,
    stats: &Arc<Stats>,
    switchboard: &Switchboard,
    shutdown: &Arc<AtomicBool>,
    tx: &SyncSender<EngineMsg>,
) {
    let mut frames = FrameReader::new(opts.max_frame);
    let mut buf = [0u8; 4096];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // peer closed
            Ok(n) => frames.push(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Deadline tick. Parked mid-frame = slow loris: evict.
                // Idle between frames is fine.
                if frames.pending() > 0 {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        loop {
            match frames.next_frame() {
                Ok(None) => break,
                Ok(Some(payload)) => {
                    if !dispatch(session, &payload, stats, switchboard, shutdown, tx) {
                        return;
                    }
                }
                Err(violation) => {
                    // Protocol violation: answer once (seq unknowable —
                    // use the event seq), close this session only.
                    let resp = Response::Err {
                        seq: EVENT_SEQ,
                        msg: format!("protocol error: {violation}"),
                    };
                    send_frame_own(switchboard, session, encode_wire_frame(&resp.encode()));
                    return;
                }
            }
        }
    }
}

/// Decode and route one request. Returns `false` when the session must
/// close (malformed request — answered, then closed).
fn dispatch(
    session: u64,
    payload: &[u8],
    stats: &Arc<Stats>,
    switchboard: &Switchboard,
    shutdown: &Arc<AtomicBool>,
    tx: &SyncSender<EngineMsg>,
) -> bool {
    let req = match Request::decode(payload) {
        Ok(req) => req,
        Err(msg) => {
            let resp = Response::Err {
                seq: EVENT_SEQ,
                msg: format!("protocol error: {msg}"),
            };
            send_frame_own(switchboard, session, encode_wire_frame(&resp.encode()));
            return false;
        }
    };
    // Ping answers from the shared counters without touching the engine
    // queue — it stays accurate (and cheap) even under full load.
    if req.cmd == Command::Ping {
        let s = stats.snapshot();
        let resp = Response::Ok {
            seq: req.seq,
            body: format!(
                "pong seq={} inflight={} peak={} shed={} panics={} sessions={}",
                s.last_seq, s.inflight, s.peak_inflight, s.shed, s.panics, s.sessions
            ),
        };
        send_frame_own(switchboard, session, encode_wire_frame(&resp.encode()));
        return true;
    }
    if shutdown.load(Ordering::SeqCst) {
        let resp = Response::Err {
            seq: req.seq,
            msg: "server is shutting down".into(),
        };
        send_frame_own(switchboard, session, encode_wire_frame(&resp.encode()));
        return false;
    }
    let seq = req.seq;
    let job = EngineMsg::Job(Job {
        session,
        client: req.client,
        seq,
        cmd: req.cmd,
    });
    match tx.try_send(job) {
        Ok(()) => {
            // Count only after a successful enqueue, so `inflight` is
            // exactly queued + executing and `peak_inflight` is bounded
            // by `queue_capacity + 1` no matter how many sessions race.
            let now = stats.inflight.fetch_add(1, Ordering::SeqCst) + 1;
            stats.peak_inflight.fetch_max(now, Ordering::SeqCst);
            true
        }
        Err(_) => {
            // Queue full (or engine gone): shed, don't buffer.
            stats.shed.fetch_add(1, Ordering::SeqCst);
            let resp = Response::Overloaded { seq };
            send_frame_own(switchboard, session, encode_wire_frame(&resp.encode()));
            true
        }
    }
}

/// The single-writer engine: owns the durable state, per-query solver
/// contexts, the idempotency cache, and subscription bookkeeping.
struct Engine {
    dir: PathBuf,
    opts: ServeOptions,
    state: DurableState,
    /// One cached solver context per standing query, synced lazily
    /// before each solve. Evicted on unregister and on panic-recovery.
    ctxs: HashMap<QueryId, DeletionContext>,
    /// client id → (last answered seq, its response): the idempotent
    /// re-submission cache.
    dedup: HashMap<String, (u64, Response)>,
    /// session → its open subscriptions.
    subs: HashMap<u64, Vec<(QueryId, SubscriberId)>>,
    switchboard: Switchboard,
    stats: Arc<Stats>,
    shutdown: Arc<AtomicBool>,
}

impl Engine {
    fn run(mut self, rx: Receiver<EngineMsg>) {
        loop {
            // Poll with a timeout so a termination signal is noticed even
            // when no client traffic arrives.
            let msg = match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(msg) => msg,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    if crate::signal::term_requested() || self.shutdown.load(Ordering::SeqCst) {
                        self.drain_and_exit(&rx);
                        return;
                    }
                    continue;
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
            };
            match msg {
                EngineMsg::Job(job) => {
                    let shutdown_after = job.cmd == Command::Shutdown;
                    self.handle_job(job);
                    if shutdown_after {
                        self.drain_and_exit(&rx);
                        return;
                    }
                }
                EngineMsg::SessionClosed(session) => self.close_session_subs(session),
                EngineMsg::Shutdown => {
                    self.drain_and_exit(&rx);
                    return;
                }
                EngineMsg::Kill => {
                    self.shutdown.store(true, Ordering::SeqCst);
                    return;
                }
            }
        }
    }

    /// Stop admissions, finish everything already queued, flush, snapshot.
    fn drain_and_exit(mut self, rx: &Receiver<EngineMsg>) {
        self.shutdown.store(true, Ordering::SeqCst);
        // One settle pass: sessions check the flag before enqueueing, so
        // after a short grace no new jobs can arrive.
        std::thread::sleep(Duration::from_millis(20));
        while let Ok(msg) = rx.try_recv() {
            match msg {
                EngineMsg::Job(job) => self.handle_job(job),
                EngineMsg::SessionClosed(session) => self.close_session_subs(session),
                EngineMsg::Shutdown | EngineMsg::Kill => {}
            }
        }
        let _ = self.state.sync();
        let _ = self.state.snapshot();
        self.switchboard
            .lock()
            .expect("switchboard poisoned")
            .clear();
    }

    fn handle_job(&mut self, job: Job) {
        let outcome = catch_unwind(AssertUnwindSafe(|| self.execute(&job)));
        self.stats.inflight.fetch_sub(1, Ordering::SeqCst);
        match outcome {
            Ok(resp) => {
                self.dedup
                    .insert(job.client.clone(), (job.seq, resp.clone()));
                self.reply(job.session, resp);
            }
            Err(_) => {
                // The engine state may be arbitrarily damaged mid-job.
                // Heal from the WAL: every acknowledged operation is on
                // disk, so the rebuilt state is exact.
                self.stats.panics.fetch_add(1, Ordering::SeqCst);
                self.heal();
                self.reply(
                    job.session,
                    Response::Err {
                        seq: job.seq,
                        msg: "internal error: engine panicked; state re-recovered from the log"
                            .into(),
                    },
                );
                // The offending session is closed; everyone else keeps
                // their (re-attached) subscriptions.
                self.close_session(job.session);
            }
        }
    }

    /// Discard in-memory state and rebuild it from the durable directory,
    /// then re-attach surviving sessions' subscriptions.
    fn heal(&mut self) {
        match recover_with(&self.dir, self.opts.durable) {
            Ok((state, _)) => {
                self.state = state;
                self.ctxs.clear();
                self.stats
                    .last_seq
                    .store(self.state.last_seq(), Ordering::SeqCst);
                let old = std::mem::take(&mut self.subs);
                for (session, entries) in old {
                    let mut fresh = Vec::new();
                    for (qid, _) in entries {
                        if let Some(sub) = self.state.registry_mut().subscribe_session(qid) {
                            fresh.push((qid, sub));
                        }
                    }
                    if !fresh.is_empty() {
                        self.subs.insert(session, fresh);
                    }
                }
            }
            Err(_) => {
                // Disk gone too: nothing to serve. Stop accepting work.
                self.shutdown.store(true, Ordering::SeqCst);
            }
        }
    }

    fn reply(&self, session: u64, resp: Response) {
        send_frame(
            &self.switchboard,
            session,
            encode_wire_frame(&resp.encode()),
        );
    }

    fn close_session(&mut self, session: u64) {
        self.switchboard
            .lock()
            .expect("switchboard poisoned")
            .remove(&session);
        self.close_session_subs(session);
    }

    fn close_session_subs(&mut self, session: u64) {
        if let Some(entries) = self.subs.remove(&session) {
            for (_, sub) in entries {
                self.state.registry_mut().unsubscribe_session(sub);
            }
        }
    }

    /// Execute one command against the durable state. Runs under
    /// `catch_unwind`; every normal failure is an `Err` response.
    fn execute(&mut self, job: &Job) -> Response {
        // Idempotent re-submission: answer a replayed sequence number
        // from the cache without re-executing.
        if let Some((last, resp)) = self.dedup.get(&job.client) {
            if job.seq == *last {
                return resp.clone();
            }
            if job.seq < *last {
                return Response::Err {
                    seq: job.seq,
                    msg: format!("stale sequence number {} (last answered {last})", job.seq),
                };
            }
        }
        let seq = job.seq;
        match &job.cmd {
            Command::Ping => Response::Ok {
                seq,
                body: "pong".into(),
            },
            Command::Register(q) => {
                // Content-idempotent: a textually identical catalog query
                // answers with the existing id, so a retried register
                // whose ack was lost converges across crashes too.
                if let Some((id, _)) = self.state.catalog().iter().find(|(_, cq)| *cq == q) {
                    return Response::Ok {
                        seq,
                        body: format!("{id} (existing)"),
                    };
                }
                match self.state.register(q) {
                    Ok(id) => {
                        self.after_commit();
                        Response::Ok {
                            seq,
                            body: id.to_string(),
                        }
                    }
                    Err(e) => Response::Err {
                        seq,
                        msg: e.to_string(),
                    },
                }
            }
            Command::Unregister(id) => match self.state.unregister(*id) {
                Ok(removed) => {
                    if removed {
                        self.after_commit();
                        // Evict the cached solver context and free its
                        // ephemeral registry registration.
                        if let Some(ctx) = self.ctxs.remove(id) {
                            if let Some(eph) = ctx.registry_query() {
                                self.state.registry_mut().unregister(eph);
                            }
                        }
                        // Registry-side session subscriptions died with
                        // the query; drop the bookkeeping entries.
                        for entries in self.subs.values_mut() {
                            entries.retain(|(qid, _)| qid != id);
                        }
                    }
                    Response::Ok {
                        seq,
                        body: if removed {
                            format!("{id} unregistered")
                        } else {
                            format!("{id} was not registered")
                        },
                    }
                }
                Err(e) => Response::Err {
                    seq,
                    msg: e.to_string(),
                },
            },
            Command::Subscribe(id) => match self.state.registry_mut().subscribe_session(*id) {
                Some(sub) => {
                    self.subs.entry(job.session).or_default().push((*id, sub));
                    Response::Ok {
                        seq,
                        body: format!("subscribed {sub} to {id}"),
                    }
                }
                None => Response::Err {
                    seq,
                    msg: format!("unknown query {id}"),
                },
            },
            Command::DeleteSource(tids) => match self.state.delete_sources(tids) {
                Ok(_) => {
                    self.after_commit();
                    self.fan_out_events(tids);
                    Response::Ok {
                        seq,
                        body: format!("seq={}", self.state.last_seq()),
                    }
                }
                Err(e) => Response::Err {
                    seq,
                    msg: e.to_string(),
                },
            },
            Command::Solve {
                id,
                objective,
                target,
            } => self.solve(seq, *id, *objective, target),
            Command::Shutdown => Response::Ok {
                seq,
                body: "bye".into(),
            },
            Command::CrashTest => {
                #[cfg(any(test, feature = "testing"))]
                {
                    panic!("injected crash-test panic");
                }
                #[cfg(not(any(test, feature = "testing")))]
                Response::Err {
                    seq,
                    msg: "crash-test is only available in testing builds".into(),
                }
            }
        }
    }

    fn after_commit(&mut self) {
        self.stats
            .last_seq
            .store(self.state.last_seq(), Ordering::SeqCst);
        self.stats.commits.fetch_add(1, Ordering::SeqCst);
    }

    /// Push committed deltas to every subscribed session.
    fn fan_out_events(&mut self, tids: &[dap_relalg::Tid]) {
        let rendered: Vec<String> = tids.iter().map(|t| t.to_string()).collect();
        let batch = rendered.join(",");
        let mut frames: Vec<(u64, Vec<u8>)> = Vec::new();
        for (&session, entries) in &self.subs {
            for &(qid, sub) in entries {
                for (_, delta) in self.state.registry_mut().drain_session(sub) {
                    let resp = Response::Event {
                        body: format!(
                            "{qid} batch={batch} removed={} changed={}",
                            delta.removed.len(),
                            delta.changed.len()
                        ),
                    };
                    frames.push((session, encode_wire_frame(&resp.encode())));
                }
            }
        }
        for (session, frame) in frames {
            send_frame(&self.switchboard, session, frame);
        }
    }

    fn solve(
        &mut self,
        seq: u64,
        id: QueryId,
        objective: SolveObjective,
        target: &dap_relalg::Tuple,
    ) -> Response {
        let Some(query) = self.state.catalog().get(&id).cloned() else {
            return Response::Err {
                seq,
                msg: format!("unknown query {id}"),
            };
        };
        // One cached context per standing query; built lazily, synced
        // with deltas committed since its last solve.
        if !self.ctxs.contains_key(&id) {
            match DeletionContext::new_in_registry(self.state.registry_mut(), &query) {
                Ok(ctx) => {
                    self.ctxs.insert(id, ctx);
                }
                Err(e) => {
                    return Response::Err {
                        seq,
                        msg: e.to_string(),
                    }
                }
            }
        }
        let ctx = self.ctxs.get_mut(&id).expect("just inserted");
        ctx.sync_in(self.state.registry_mut());
        let opts = ExactOptions {
            node_budget: self.opts.node_budget,
        };
        match ctx.solve(target, objective, &opts) {
            Ok((deletion, _)) => {
                let dels: Vec<String> = deletion.deletions.iter().map(|t| t.to_string()).collect();
                Response::Ok {
                    seq,
                    body: format!(
                        "deletions={} side-effects={} [{}]",
                        deletion.deletions.len(),
                        deletion.view_side_effects.len(),
                        dels.join(",")
                    ),
                }
            }
            Err(e) => Response::Err {
                seq,
                msg: e.to_string(),
            },
        }
    }
}
