//! The end-to-end run: `dap init`, a `dap serve` child process over
//! localhost TCP, wire setup, the measured load phase, and the crash at
//! the end. Everything is timed from the client side; the server's CPU
//! time and peak memory come from `/proc`.

use crate::stats::Outcome;
use crate::wire::Conn;
use crate::workload::{Op, Workload};
use dap_relalg::QueryId;
use dap_serve::{Command, Response, SolveObjective};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command as Proc, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long the generator waits for outstanding replies after the
/// measured phase before counting them missing.
const DRAIN: Duration = Duration::from_secs(20);

/// Requests kept in flight on the command connection (below the server's
/// default admission queue of 64, so nothing is shed). A queue-bound
/// closed loop is what makes the latency tails repeat on a shared
/// machine: at low load an open-loop p99 is set by rare fsync and
/// scheduling stalls and spread 0.65 (IQR over median) across ten runs.
pub const WINDOW: usize = 8;

/// A running `dap serve` child.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL the server and reap it.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The fixed server settings, recorded with every result.
pub const FSYNC: &str = "always";

fn dap_cmd(dap: &Path) -> Proc {
    let mut cmd = Proc::new(dap);
    cmd.env("DAP_FSYNC", FSYNC).env_remove("DAP_THREADS");
    cmd
}

fn start_server(dap: &Path, dir: &Path) -> Result<ServerProc, String> {
    let mut child = dap_cmd(dap)
        .arg("serve")
        .arg(dir)
        .arg("0")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", dap.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let read = stdout.read_line(&mut line);
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .and_then(|a| a.parse().ok());
    match (read, addr) {
        (Ok(_), Some(addr)) => Ok(ServerProc {
            child,
            _stdout: stdout,
            addr,
        }),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("dap serve did not start (said {line:?})"))
        }
    }
}

/// One answered warm-up solve.
pub struct Warmup {
    pub solvable: usize,
    pub target: dap_relalg::Tuple,
    pub body: String,
}

/// A served, registered, subscribed directory, ready for load.
pub struct Setup {
    pub dir: PathBuf,
    pub server: ServerProc,
    pub cmd: Conn,
    pub sub: Conn,
    pub ids: Vec<QueryId>,
    pub warmups: Vec<Warmup>,
    pub seconds: f64,
}

fn expect_ok(resp: Response, what: &str) -> Result<String, String> {
    match resp {
        Response::Ok { body, .. } => Ok(body),
        other => Err(format!("{what}: unexpected reply {other:?}")),
    }
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// `dap init`, `dap serve`, register the catalog, subscribe, and one
/// warm-up solve per solvable query — timed as `setup_s`.
pub fn setup(dap: &Path, dir: &Path, db_file: &Path, w: &Workload) -> Result<Setup, String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let init = dap_cmd(dap)
        .arg("init")
        .arg(dir)
        .arg(db_file)
        .stdout(Stdio::null())
        .status()
        .map_err(io("dap init"))?;
    if !init.success() {
        return Err(format!("dap init failed: {init}"));
    }
    let server = start_server(dap, dir)?;
    let mut cmd = Conn::connect(server.addr, "gen").map_err(io("connect"))?;
    let mut ids = Vec::with_capacity(w.catalog.len());
    for q in &w.catalog {
        let body = expect_ok(
            cmd.call(Command::Register(q.clone()))
                .map_err(io("register"))?,
            "register",
        )?;
        let id = dap_serve::protocol::parse_query_id(body.split(' ').next().unwrap_or_default())?;
        ids.push(id);
    }
    let mut sub = Conn::connect(server.addr, "sub").map_err(io("connect"))?;
    for id in &ids {
        expect_ok(
            sub.call(Command::Subscribe(*id)).map_err(io("subscribe"))?,
            "subscribe",
        )?;
    }
    let mut warmups = Vec::new();
    for (i, s) in w.solvables.iter().enumerate() {
        let target = w.stream.warmup_target(i);
        let resp = cmd
            .call(Command::Solve {
                id: ids[s.query_index],
                objective: SolveObjective::View,
                target: target.clone(),
            })
            .map_err(io("warm-up solve"))?;
        let body = expect_ok(resp, "warm-up solve")?;
        warmups.push(Warmup {
            solvable: i,
            target,
            body,
        });
    }
    Ok(Setup {
        dir: dir.to_path_buf(),
        server,
        cmd,
        sub,
        ids,
        warmups,
        seconds: t0.elapsed().as_secs_f64(),
    })
}

/// One sent op and how it ended. Times are µs since the measured phase
/// began.
pub struct Rec {
    pub op: Op,
    pub start: f64,
    pub done: Option<f64>,
    pub outcome: Outcome,
    pub body: String,
}

/// Counters from the wire `ping` line.
#[derive(Default, Clone, Copy)]
pub struct PingStats {
    pub shed: u64,
    pub peak_inflight: u64,
    pub panics: u64,
}

/// Everything the measured phase observed.
pub struct Measured {
    pub recs: Vec<Rec>,
    /// `(batch, arrival µs)` of every subscriber event.
    pub events: Vec<(String, f64)>,
    pub server_cpu_s: f64,
    pub server_hwm_mb: f64,
    pub wal_growth: u64,
    pub ping: PingStats,
}

fn us_since(epoch: Instant) -> f64 {
    epoch.elapsed().as_secs_f64() * 1e6
}

fn to_command(op: &Op, w: &Workload, ids: &[QueryId]) -> Command {
    match op {
        Op::Commit(tid) => Command::DeleteSource(vec![tid.clone()]),
        Op::Solve {
            solvable,
            objective,
            target,
        } => Command::Solve {
            id: ids[w.solvables[*solvable].query_index],
            objective: *objective,
            target: target.clone(),
        },
    }
}

fn settle(rec: &mut Rec, resp: Response, at: f64) {
    rec.done = Some(at);
    rec.outcome = match &resp {
        Response::Ok { .. } => Outcome::Ok,
        Response::Overloaded { .. } => Outcome::Shed,
        _ => Outcome::Err,
    };
    rec.body = match resp {
        Response::Ok { body, .. } => body,
        Response::Err { msg, .. } => msg,
        _ => String::new(),
    };
}

/// `(utime + stime)` of `pid` in seconds, from `/proc/<pid>/stat`.
fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat =
        std::fs::read_to_string(format!("/proc/{pid}/stat")).map_err(io("read /proc stat"))?;
    let rest = stat.rsplit_once(") ").ok_or("malformed /proc stat")?.1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().map_err(|e| e.to_string())?
        + f[12].parse::<u64>().map_err(|e| e.to_string())?;
    // USER_HZ is 100 on every Linux ABI this runs on.
    Ok(ticks as f64 / 100.0)
}

/// Peak resident set (`VmHWM`) of `pid`, MB.
fn hwm_mb(pid: u32) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(io("read /proc status"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc status")?;
    Ok(kb / 1024.0)
}

fn log_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(dap_durability::LOG_FILE))
        .map(|m| m.len())
        .unwrap_or(0)
}

fn ping(conn: &mut Conn) -> Result<PingStats, String> {
    let body = expect_ok(conn.call(Command::Ping).map_err(io("ping"))?, "ping")?;
    let field = |k: &str| -> u64 {
        body.split(' ')
            .find_map(|p| p.strip_prefix(k))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    Ok(PingStats {
        shed: field("shed="),
        peak_inflight: field("peak="),
        panics: field("panics="),
    })
}

/// A reply: the request's sequence number, arrival (µs), the response.
type Reply = (u64, f64, Response);

/// One sent request.
struct Sent {
    seq: u64,
    op: Op,
    start: f64,
}

/// Keep [`WINDOW`] requests in flight: send whenever one completes.
/// Returns the sent requests and every `(seq, arrival µs, reply)`.
fn closed_loop(
    conn: &mut Conn,
    w: &mut Workload,
    ids: &[QueryId],
    epoch: Instant,
    deadline: f64,
) -> Result<(Vec<Sent>, Vec<Reply>), String> {
    let mut sent = Vec::new();
    let mut replies = Vec::new();
    let mut inflight = 0usize;
    loop {
        let now = us_since(epoch);
        if now < deadline && inflight < WINDOW {
            let op = w.stream.next_op();
            let start = us_since(epoch);
            let seq = conn.send(to_command(&op, w, ids)).map_err(io("send"))?;
            sent.push(Sent { seq, op, start });
            inflight += 1;
            continue;
        }
        if inflight == 0 || now > deadline + DRAIN.as_secs_f64() * 1e6 {
            return Ok((sent, replies));
        }
        if let Some(resp) = conn
            .recv(Some(Duration::from_secs(1)))
            .map_err(io("recv"))?
        {
            inflight -= 1;
            replies.push((resp.seq(), us_since(epoch), resp));
        }
    }
}

/// Drive the workload for `seconds`, then drain outstanding replies and
/// read the server's counters.
pub fn measure(setup: &mut Setup, w: &mut Workload, seconds: f64) -> Result<Measured, String> {
    let pid = setup.server.pid();
    let cpu0 = cpu_seconds(pid)?;
    let wal0 = log_len(&setup.dir);
    let epoch = Instant::now();
    let stop = AtomicBool::new(false);
    let deadline = seconds * 1e6;
    let (run, events) = std::thread::scope(|scope| {
        // The generator's second thread: read the subscriber connection.
        let sub = &mut setup.sub;
        let stop = &stop;
        let subscriber = scope.spawn(move || {
            let mut events = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                match sub.recv(Some(Duration::from_millis(20))) {
                    Ok(Some(Response::Event { body })) => {
                        let at = us_since(epoch);
                        if let Some(batch) = crate::stats::event_batch(&body) {
                            events.push((batch.to_string(), at));
                        }
                    }
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            events
        });
        let run = closed_loop(&mut setup.cmd, w, &setup.ids, epoch, deadline);
        // Events of the last commits left the engine before their replies.
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, Ordering::SeqCst);
        (run, subscriber.join())
    });
    let events = events.map_err(|_| "subscriber thread panicked")?;
    let server_cpu_s = cpu_seconds(pid)? - cpu0;
    let server_hwm_mb = hwm_mb(pid)?;
    let wal_growth = log_len(&setup.dir) - wal0;
    let (sent, replies) =
        run.map_err(|e| format!("command connection failed during the run: {e}"))?;
    let mut by_seq: std::collections::HashMap<u64, (f64, Response)> = replies
        .into_iter()
        .map(|(seq, at, r)| (seq, (at, r)))
        .collect();
    let recs: Vec<Rec> = sent
        .into_iter()
        .map(|s| {
            let mut rec = Rec {
                op: s.op,
                start: s.start,
                done: None,
                outcome: Outcome::Missing,
                body: String::new(),
            };
            if let Some((at, resp)) = by_seq.remove(&s.seq) {
                settle(&mut rec, resp, at);
            }
            rec
        })
        .collect();
    let ping = ping(&mut setup.cmd)?;
    Ok(Measured {
        recs,
        events,
        server_cpu_s,
        server_hwm_mb,
        wal_growth,
        ping,
    })
}

/// What the crash at the end of the run left behind.
pub struct Crash {
    /// Every tid a `delete-source` named, measured phase and burst.
    pub sent: Vec<dap_relalg::Tid>,
    /// Tids whose `delete-source` was acknowledged.
    pub acked: Vec<dap_relalg::Tid>,
}

/// Send a final burst of commits without waiting, SIGKILL the server
/// mid-burst, and collect whatever acknowledgements made it out.
pub fn crash(setup: Setup, w: &mut Workload, recs: &[Rec], burst: usize) -> Crash {
    let mut sent = Vec::new();
    let mut acked = Vec::new();
    for r in recs {
        if let Op::Commit(tid) = &r.op {
            sent.push(tid.clone());
            if r.outcome == Outcome::Ok {
                acked.push(tid.clone());
            }
        }
    }
    let Setup {
        server, mut cmd, ..
    } = setup;
    let mut pending = std::collections::HashMap::new();
    let mut n = 0;
    while n < burst {
        if let Op::Commit(tid) = w.stream.next_op() {
            if let Ok(seq) = cmd.send(Command::DeleteSource(vec![tid.clone()])) {
                pending.insert(seq, tid.clone());
            }
            sent.push(tid);
            n += 1;
        }
    }
    server.kill();
    while let Ok(Some(resp)) = cmd.recv(Some(Duration::from_millis(200))) {
        if let (Response::Ok { .. }, Some(tid)) = (&resp, pending.get(&resp.seq())) {
            acked.push(tid.clone());
        }
    }
    Crash { sent, acked }
}
