//! The traced run: replay the end-to-end run's exact command stream
//! in-process, through the public functions of each layer in the order
//! the `dap serve` engine calls them, timing every call as a span. The
//! spans stay in memory and are written out (TSV) when the replay ends;
//! the per-layer metrics are read off them.
//!
//! The replay splits what `DurableState` does in one call into its layers
//! — `CommitLog::append` under `FsyncMode::Never`, then an explicit
//! `CommitLog::sync`, then `PlanRegistry::delete_sources` — so the WAL
//! append, the fsync and the registry push each get their own span.

use crate::e2e::{PingStats, Rec, Warmup};
use crate::stats::{median, percentile, Outcome};
use crate::workload::{objective_name, Class, Op, Workload};
use crate::{EndToEnd, Metrics};
use dap_core::{CoreError, DeletionContext, IlpOptions};
use dap_durability::{decode_all, CommitLog, FsyncMode, LogRecord, Snapshot, StdLogFile, LOG_FILE};
use dap_provenance::WitnessesAnn;
use dap_relalg::{PlanRegistry, QueryId, SubscriberId, Tuple};
use dap_serve::protocol::{encode_wire_frame, FrameReader, MAX_FRAME};
use dap_serve::{Command, Request, Response, ServeOptions, SolveObjective};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `op` is the op kind that caused it (`setup`,
/// `commit`, `solve`, `recover`), `op_id` its position in the stream.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    op: &'static str,
    op_id: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Span names, stored once: a replay records millions of spans over a
    /// few dozen names.
    names: HashMap<String, &'static str>,
}

impl Tracer {
    fn time<T>(&mut self, name: &str, op: &'static str, op_id: u64, f: impl FnOnce() -> T) -> T {
        let name = match self.names.get(name) {
            Some(n) => *n,
            None => {
                let n: &'static str = Box::leak(name.to_string().into_boxed_str());
                self.names.insert(name.to_string(), n);
                n
            }
        };
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            op,
            op_id,
        });
        out
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("name\tstart_ns\tend_ns\tparent_op\top_id\n");
        for s in &self.spans {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                s.name, s.start_ns, s.end_ns, s.op, s.op_id
            ));
        }
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(out.as_bytes()))
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Durations (µs) of every span called `name` caused by an op of one
    /// of the kinds `ops` (all kinds when empty).
    fn durations(&self, name: &str, ops: &[&str]) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && (ops.is_empty() || ops.contains(&s.op)))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Per-op total time (µs) in spans whose name starts with `prefix`,
    /// over every op of kind `op` (ops with no such span count as 0).
    fn per_op_totals(&self, prefix: &str, op: &str, ops: &[u64]) -> Vec<f64> {
        let mut by_op: HashMap<u64, f64> = ops.iter().map(|&id| (id, 0.0)).collect();
        for s in self
            .spans
            .iter()
            .filter(|s| s.op == op && s.name.starts_with(prefix))
        {
            if let Some(t) = by_op.get_mut(&s.op_id) {
                *t += (s.end_ns - s.start_ns) as f64 / 1e3;
            }
        }
        by_op.into_values().collect()
    }
}

fn p50(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    median(&v)
}

fn p99(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 99.0)
}

/// What the engine-side decode of one request costs: frame parse plus
/// command parse.
fn decode(t: &mut Tracer, op: &'static str, op_id: u64, frame: &[u8]) -> Result<Request, String> {
    let mut reader = FrameReader::new(MAX_FRAME);
    reader.push(frame);
    t.time("protocol.decode", op, op_id, || {
        let payload = reader.next_frame()?.ok_or("incomplete frame")?;
        Request::decode(&payload)
    })
}

fn encode(t: &mut Tracer, op: &'static str, op_id: u64, resp: &Response) -> usize {
    t.time("protocol.encode", op, op_id, || {
        encode_wire_frame(&resp.encode()).len()
    })
}

fn request_frame(seq: u64, cmd: Command) -> Vec<u8> {
    encode_wire_frame(
        &Request {
            client: "gen".into(),
            seq,
            cmd,
        }
        .encode(),
    )
}

/// The replayed engine: the layers the server owns, driven directly.
struct Engine<'w> {
    w: &'w Workload,
    ids: &'w [QueryId],
    reg: PlanRegistry<WitnessesAnn>,
    log: CommitLog,
    subs: Vec<(QueryId, SubscriberId)>,
    ctxs: HashMap<QueryId, DeletionContext>,
    ilp: IlpOptions,
    seq: u64,
    commits: u64,
    fsyncs: u64,
    rows_touched: u64,
    events: u64,
    cache_hits: u64,
    cache_lookups: u64,
    budget_exhausted: u64,
    /// Support / frontier sizes per class, sampled on the first
    /// [`SIZE_SAMPLES`] solves of each class.
    sizes: BTreeMap<(&'static str, &'static str), Vec<f64>>,
}

impl Engine<'_> {
    fn commit(&mut self, t: &mut Tracer, op_id: u64, tid: &dap_relalg::Tid) -> Result<(), String> {
        self.seq += 1;
        let frame = request_frame(self.seq, Command::DeleteSource(vec![tid.clone()]));
        let req = decode(t, "commit", op_id, &frame)?;
        let Command::DeleteSource(tids) = req.cmd else {
            return Err("replayed commit decoded as another command".into());
        };
        let record = LogRecord::Delete(tids.clone());
        let log_seq = t
            .time("log.append", "commit", op_id, || self.log.append(&record))
            .map_err(|e| e.to_string())?;
        t.time("log.fsync", "commit", op_id, || self.log.sync())
            .map_err(|e| e.to_string())?;
        self.fsyncs += 1;
        let deltas = t.time("registry.push", "commit", op_id, || {
            self.reg.delete_sources(&tids)
        });
        self.rows_touched += deltas
            .iter()
            .map(|(_, d)| (d.removed.len() + d.changed.len()) as u64)
            .sum::<u64>();
        let batch = tids
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(",");
        for i in 0..self.subs.len() {
            let (qid, sub) = self.subs[i];
            let drained = t.time("registry.drain", "commit", op_id, || {
                self.reg.drain_session(sub)
            });
            for (_, delta) in drained {
                let event = Response::Event {
                    body: format!(
                        "{qid} batch={batch} removed={} changed={}",
                        delta.removed.len(),
                        delta.changed.len()
                    ),
                };
                encode(t, "commit", op_id, &event);
                self.events += 1;
            }
        }
        let reply = Response::Ok {
            seq: req.seq,
            body: format!("seq={log_seq}"),
        };
        encode(t, "commit", op_id, &reply);
        self.commits += 1;
        Ok(())
    }

    fn solve(
        &mut self,
        t: &mut Tracer,
        kind: &'static str,
        op_id: u64,
        solvable: usize,
        objective: SolveObjective,
        target: &Tuple,
    ) -> Result<(), String> {
        let s = &self.w.solvables[solvable];
        let id = self.ids[s.query_index];
        self.seq += 1;
        let frame = request_frame(
            self.seq,
            Command::Solve {
                id,
                objective,
                target: target.clone(),
            },
        );
        let req = decode(t, kind, op_id, &frame)?;
        let class = s.class.name();
        if !self.ctxs.contains_key(&id) {
            let query = &s.query;
            let reg = &mut self.reg;
            let ctx = t
                .time(&format!("context.build.{class}"), kind, op_id, || {
                    DeletionContext::new_in_registry(reg, query)
                })
                .map_err(|e| format!("context build: {e}"))?;
            self.ctxs.insert(id, ctx);
        }
        let ctx = self.ctxs.get_mut(&id).expect("just built");
        let reg = &mut self.reg;
        t.time("context.sync", kind, op_id, || ctx.sync_in(reg));
        let before = ctx.cached_index_count();
        let ilp = &self.ilp;
        let obj = objective_name(objective);
        let solved = t.time(
            &format!("ilp.solve.{class}-{obj}"),
            kind,
            op_id,
            || match objective {
                SolveObjective::View => ctx.min_view_side_effects_ilp_turn(target, ilp),
                SolveObjective::Source => ctx.min_source_deletion_ilp_turn(target, ilp),
            },
        );
        // A cached index is taken and put back (count unchanged); a miss
        // stamps and caches a new one (count + 1). At the cache's bound a
        // miss displaces an entry, so those solves are not counted.
        let after = ctx.cached_index_count();
        if before < CACHE_BOUND {
            self.cache_lookups += 1;
            if after == before {
                self.cache_hits += 1;
            }
        }
        // Stamping an instance clones the context's committed set, which
        // grows with every commit, so sizes are sampled on a class's first
        // solves only.
        let sampled = self.sizes.get(&(class, "support")).map_or(0, Vec::len);
        if sampled < SIZE_SAMPLES {
            if let Ok((_, idx)) = ctx.instance_and_index(target) {
                let sizes = &mut self.sizes;
                sizes
                    .entry((class, "support"))
                    .or_default()
                    .push(idx.support().len() as f64);
                sizes
                    .entry((class, "frontier"))
                    .or_default()
                    .push(idx.frontier_len() as f64);
            }
        }
        let reply = match solved {
            Ok(d) => Response::Ok {
                seq: req.seq,
                body: format!(
                    "deletions={} side-effects={} [{}]",
                    d.deletions.len(),
                    d.view_side_effects.len(),
                    d.deletions
                        .iter()
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            },
            Err(e) => {
                if matches!(e, CoreError::BudgetExhausted { .. }) {
                    self.budget_exhausted += 1;
                }
                Response::Err {
                    seq: req.seq,
                    msg: e.to_string(),
                }
            }
        };
        encode(t, kind, op_id, &reply);
        Ok(())
    }
}

/// Solves per class whose support and frontier sizes are sampled.
const SIZE_SAMPLES: usize = 256;

/// The per-context index cache bound in `dap_core` (a miss at the bound
/// displaces an entry instead of growing the count).
const CACHE_BOUND: usize = 256;

/// Replay the run in `dir`, write the spans to `spans_path`, and return
/// the per-layer metrics. Fails if a replayed op kind's layer sum exceeds
/// its end-to-end median: the replay would not be doing the same work.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    w: &Workload,
    ids: &[QueryId],
    warmups: &[Warmup],
    recs: &[Rec],
    e2e: &EndToEnd,
    ping: PingStats,
    dir: &Path,
    spans_path: &Path,
) -> Result<Metrics, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let snap_path = Snapshot {
        seq: 0,
        next_query: 0,
        committed: Default::default(),
        catalog: Vec::new(),
        db: w.db.clone(),
    }
    .write_to(dir)
    .map_err(|e| e.to_string())?;
    let mut t = Tracer {
        epoch: Instant::now(),
        spans: Vec::with_capacity(recs.len() * 8),
        names: HashMap::new(),
    };

    // Start-up, as `Server::start` recovers a fresh directory.
    let snap = t
        .time("snapshot.read", "setup", 0, || {
            Snapshot::read_from(&snap_path)
        })
        .map_err(|e| e.to_string())?;
    let reg = t.time("recover.catalog_build", "setup", 0, || {
        PlanRegistry::<WitnessesAnn>::new(&snap.db)
    });
    let file = StdLogFile::open(&dir.join(LOG_FILE)).map_err(|e| e.to_string())?;
    let mut eng = Engine {
        w,
        ids,
        reg,
        log: CommitLog::new(Box::new(file), FsyncMode::Never, 1),
        subs: Vec::new(),
        ctxs: HashMap::new(),
        ilp: IlpOptions {
            node_budget: ServeOptions::default().node_budget,
        },
        seq: 0,
        commits: 0,
        fsyncs: 0,
        rows_touched: 0,
        events: 0,
        cache_hits: 0,
        cache_lookups: 0,
        budget_exhausted: 0,
        sizes: BTreeMap::new(),
    };

    // Wire set-up: register the catalog, subscribe, warm up.
    for (q, id) in w.catalog.iter().zip(ids) {
        eng.seq += 1;
        decode(
            &mut t,
            "setup",
            0,
            &request_frame(eng.seq, Command::Register(q.clone())),
        )?;
        let record = LogRecord::Register(*id, q.clone());
        t.time("log.append", "setup", 0, || eng.log.append(&record))
            .map_err(|e| e.to_string())?;
        t.time("log.fsync", "setup", 0, || eng.log.sync())
            .map_err(|e| e.to_string())?;
        let reg = &mut eng.reg;
        t.time("registry.register", "setup", 0, || reg.register_at(q, *id))
            .map_err(|e| e.to_string())?;
    }
    for id in ids {
        let sub = eng
            .reg
            .subscribe_session(*id)
            .ok_or("subscribe to a registered query")?;
        eng.subs.push((*id, sub));
    }
    for wu in warmups {
        eng.solve(
            &mut t,
            "setup",
            0,
            wu.solvable,
            SolveObjective::View,
            &wu.target,
        )?;
    }
    let nodes = eng.reg.node_count();
    let log0 = eng.log.offset();
    let fsyncs0 = eng.fsyncs;

    // The measured stream, in connection order. Shed or unanswered ops
    // never reached the engine, so they are not replayed.
    let mut commit_ids = Vec::new();
    let mut solve_ids = Vec::new();
    for (i, r) in recs.iter().enumerate() {
        if !matches!(r.outcome, Outcome::Ok | Outcome::Err) {
            continue;
        }
        let op_id = i as u64 + 1;
        match &r.op {
            Op::Commit(tid) => {
                eng.commit(&mut t, op_id, tid)?;
                commit_ids.push(op_id);
            }
            Op::Solve {
                solvable,
                objective,
                target,
            } => {
                eng.solve(&mut t, "solve", op_id, *solvable, *objective, target)?;
                solve_ids.push(op_id);
            }
        }
    }
    let commits = eng.commits.max(1) as f64;
    let log_bytes = eng.log.offset() - log0;
    let fsyncs = eng.fsyncs - fsyncs0;
    drop(eng.ctxs);
    drop(eng.log);
    drop(eng.reg);

    // Recovery of the replay's own directory, phase by phase.
    let snap = t
        .time("snapshot.read", "recover", 0, || {
            Snapshot::read_from(&snap_path)
        })
        .map_err(|e| e.to_string())?;
    let bytes = std::fs::read(dir.join(LOG_FILE)).map_err(|e| e.to_string())?;
    let records = t.time(
        "recover.log_replay",
        "recover",
        0,
        || -> Result<Vec<LogRecord>, String> {
            let (frames, _, err) = decode_all(&bytes);
            if let Some(e) = err {
                return Err(format!("replayed log is corrupt: {}", e.reason));
            }
            frames
                .iter()
                .map(|p| LogRecord::decode_payload(p).map(|(_, r)| r))
                .collect()
        },
    )?;
    let mut reg = t.time("recover.catalog_build", "recover", 0, || {
        PlanRegistry::<WitnessesAnn>::new(&snap.db)
    });
    for r in &records {
        if let LogRecord::Register(id, q) = r {
            t.time("recover.catalog_build", "recover", 0, || {
                reg.register_at(q, *id)
            })
            .map_err(|e| e.to_string())?;
        }
    }
    for r in &records {
        if let LogRecord::Delete(tids) = r {
            t.time("recover.log_replay", "recover", 0, || {
                reg.delete_sources(tids)
            });
        }
    }
    drop(reg);
    t.write(spans_path)?;
    eprintln!(
        "perfbench: traced replay wrote {} spans to {}",
        t.spans.len(),
        spans_path.display()
    );

    // Per-layer metrics. Timings are per call unless named per commit;
    // set-up and recovery calls count only where the metric is about them.
    const OPS: &[&str] = &["commit", "solve"];
    let measured = |name: &str| t.durations(name, OPS);
    let all = |name: &str| t.durations(name, &[]);
    let recover_sum = |name: &str| -> f64 { t.durations(name, &["recover"]).iter().sum() };
    let fsync = measured("log.fsync");
    let push = measured("registry.push");
    let mut m: Metrics = vec![
        (
            "protocol.decode_us".into(),
            p50(&all("protocol.decode")),
            "us",
        ),
        (
            "protocol.encode_us".into(),
            p50(&all("protocol.encode")),
            "us",
        ),
        ("log.append_us".into(), p50(&measured("log.append")), "us"),
        ("log.fsync_p50_us".into(), p50(&fsync), "us"),
        ("log.fsync_p99_us".into(), p99(&fsync), "us"),
        (
            "log.fsyncs_per_commit".into(),
            fsyncs as f64 / commits,
            "count",
        ),
        (
            "log.bytes_per_commit".into(),
            log_bytes as f64 / commits,
            "bytes",
        ),
        ("registry.push_p50_us".into(), p50(&push), "us"),
        ("registry.push_p99_us".into(), p99(&push), "us"),
        (
            "registry.rows_touched_per_commit".into(),
            eng.rows_touched as f64 / commits,
            "count",
        ),
        (
            "registry.drain_us".into(),
            p50(&measured("registry.drain")),
            "us",
        ),
        (
            "registry.events_per_commit".into(),
            eng.events as f64 / commits,
            "count",
        ),
        ("registry.nodes".into(), nodes as f64, "count"),
    ];
    for class in Class::ALL {
        let name = format!("context.build.{}", class.name());
        m.push((
            format!("context.build_us.{}", class.name()),
            p50(&all(&name)),
            "us",
        ));
    }
    m.push((
        "context.sync_us".into(),
        p50(&measured("context.sync")),
        "us",
    ));
    m.push((
        "context.index_cache_hit_ratio".into(),
        eng.cache_hits as f64 / eng.cache_lookups.max(1) as f64,
        "ratio",
    ));
    for class in Class::ALL {
        for obj in [SolveObjective::View, SolveObjective::Source] {
            let key = format!("{}-{}", class.name(), objective_name(obj));
            let d = measured(&format!("ilp.solve.{key}"));
            m.push((format!("ilp.solve_p50_us.{key}"), p50(&d), "us"));
            m.push((format!("ilp.solve_p99_us.{key}"), p99(&d), "us"));
        }
    }
    for class in Class::ALL {
        for what in ["support", "frontier"] {
            let v = eng
                .sizes
                .get(&(class.name(), what))
                .cloned()
                .unwrap_or_default();
            m.push((format!("ilp.{what}.{}", class.name()), p50(&v), "count"));
        }
    }
    m.push((
        "ilp.budget_exhausted".into(),
        eng.budget_exhausted as f64,
        "count",
    ));
    m.push(("snapshot.read_us".into(), p50(&all("snapshot.read")), "us"));
    m.push((
        "recover.catalog_build_us".into(),
        recover_sum("recover.catalog_build"),
        "us",
    ));
    m.push((
        "recover.log_replay_us".into(),
        recover_sum("recover.log_replay"),
        "us",
    ));
    m.push(("recover.records".into(), records.len() as f64, "count"));
    m.push(("serve.shed".into(), ping.shed as f64, "count"));
    m.push((
        "serve.peak_inflight".into(),
        ping.peak_inflight as f64,
        "count",
    ));
    m.push(("serve.panics".into(), ping.panics as f64, "count"));

    // Reconcile: per op kind, the sum of per-layer medians must fit in
    // the client-observed median; what is left is transport, hand-offs
    // and queueing.
    let layers = |op: &str, ids: &[u64], prefixes: &[&str]| -> f64 {
        prefixes
            .iter()
            .map(|p| p50(&t.per_op_totals(p, op, ids)))
            .sum()
    };
    let commit_layers = layers("commit", &commit_ids, &["protocol.", "log.", "registry."]);
    let solve_layers = layers("solve", &solve_ids, &["protocol.", "context.", "ilp."]);
    for (op, traced, e2e_p50) in [
        ("commit", commit_layers, e2e.commit.p50_windowed),
        ("solve", solve_layers, e2e.solve.p50_windowed),
    ] {
        eprintln!("perfbench: {op}: traced layers {traced:.1}us of {e2e_p50:.1}us end to end");
        if traced > e2e_p50 {
            return Err(format!(
                "traced {op} layers sum to {traced:.1}us, above the end-to-end p50 of {e2e_p50:.1}us: \
                 the replay is not doing the same work"
            ));
        }
        m.push((format!("serve.residual_us.{op}"), e2e_p50 - traced, "us"));
    }
    Ok(m)
}
