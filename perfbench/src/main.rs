//! `perfbench`: the `dap serve` benchmark. One invocation runs one
//! workload against a `dap serve` child process and prints, as its last
//! stdout line, `{"correct", "attempted", "failed", "metrics"}` — the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics of an
//! in-process traced replay of the same command stream.
//!
//! Usage (normally through `perfbench/run.sh`, which builds both
//! binaries):
//!
//! ```text
//! perfbench --dap <dap binary> --work <scratch dir> \
//!           --workload ingest|mixed --seed N --seconds S --trace 0|1
//! ```

mod e2e;
mod oracle;
mod stats;
mod trace;
mod wire;
mod workload;

use stats::{Summary, Tally};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Op, Workload};

/// Set-ups and recoveries are each repeated at least `MIN_REPEATS` times
/// and until `REPEAT_SECONDS` have been spent on them (at most
/// `MAX_REPEATS`); `setup_s` and `recover_s` are the medians.
const MIN_REPEATS: usize = 3;
const MAX_REPEATS: usize = 15;
const REPEAT_SECONDS: f64 = 2.0;

fn repeat_more(times: &[f64]) -> bool {
    times.len() < MIN_REPEATS
        || (times.len() < MAX_REPEATS && times.iter().sum::<f64>() < REPEAT_SECONDS)
}

/// Commits sent after the measured phase, with the SIGKILL landing among
/// them.
const CRASH_BURST: usize = 8;

struct Args {
    dap: PathBuf,
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{k}`"))?
            .to_string();
        let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
        map.insert(key, v);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} wants a whole number"))
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        dap: PathBuf::from(get("dap")?),
        work: PathBuf::from(get("work")?),
        workload: get("workload")?,
        seed: num("seed")?,
        seconds: seconds as f64,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, not `{other}`")),
        },
    })
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Metric name → (value, unit), in report order.
type Metrics = Vec<(String, f64, &'static str)>;

/// The result line. It is only printed once every correctness gate has
/// passed; a failed gate exits non-zero instead.
fn json_line(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted(),
        tally.failed(),
        body.join(", ")
    )
}

fn median_of(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    stats::median(&v)
}

/// The end-to-end timings of one run, by op kind.
pub struct EndToEnd {
    pub commit: Summary,
    pub solve: Summary,
    pub event_lag: Summary,
}

fn summarize(name: &str, xs: &[f64]) -> Result<Summary, String> {
    Summary::of(xs).ok_or_else(|| format!("the run produced no {name} samples"))
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if !args.dap.is_file() {
        return Err(format!("no dap binary at {}", args.dap.display()));
    }
    let mut w = workload::build(&args.workload, args.seed)?;
    let work = args
        .work
        .join(format!("{}-{}-{}", w.name, args.seed, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = run_in(&args, &mut w, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(args: &Args, w: &mut Workload, work: &Path) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "context {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"DAP_FSYNC\": \"{}\", \"DAP_THREADS\": \"default\", \"git_commit\": \"{}\", \
         \"loop\": \"closed\", \"window\": {}}}",
        w.name,
        args.seed,
        args.seconds,
        args.trace,
        e2e::FSYNC,
        git_commit(),
        e2e::WINDOW
    );
    let db_file = work.join("db.dap");
    std::fs::write(&db_file, w.db.to_fixture_string()).map_err(|e| format!("write db: {e}"))?;

    // Set-up, several times; the last one is measured.
    let mut setup_times = Vec::new();
    let mut setup = loop {
        let i = setup_times.len();
        let s = e2e::setup(&args.dap, &work.join(format!("dir{i}")), &db_file, w)?;
        setup_times.push(s.seconds);
        if !repeat_more(&setup_times) {
            break s;
        }
        let dir = s.dir.clone();
        drop(s);
        let _ = std::fs::remove_dir_all(dir);
    };
    eprintln!("perfbench: set-up times {setup_times:?}");
    let m = e2e::measure(&mut setup, w, args.seconds)?;

    let mut tally = Tally::default();
    let (mut commit_us, mut solve_us, mut commits) = (Vec::new(), Vec::new(), Vec::new());
    let mut by_class: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    let mut done_ok = Vec::new();
    for r in &m.recs {
        tally.record(r.outcome);
        let Some(done) = r.done.filter(|_| r.outcome == stats::Outcome::Ok) else {
            continue;
        };
        done_ok.push(done);
        match &r.op {
            Op::Commit(tid) => {
                commit_us.push(done - r.start);
                commits.push((tid.to_string(), r.start));
            }
            Op::Solve {
                solvable,
                objective,
                ..
            } => {
                solve_us.push(done - r.start);
                let key = format!(
                    "{}-{}",
                    w.solvables[*solvable].class.name(),
                    workload::objective_name(*objective)
                );
                by_class.entry(key).or_default().push(done - r.start);
            }
        }
    }
    let (lags, unmatched) = stats::event_lags(&commits, &m.events);
    let e2e_t = EndToEnd {
        commit: summarize("commit", &commit_us)?,
        solve: summarize("solve", &solve_us)?,
        event_lag: summarize("event", &lags)?,
    };

    // Crash, recover, and the correctness gates (all off the clock).
    let dir = setup.dir.clone();
    let ids = setup.ids.clone();
    let warmups = std::mem::take(&mut setup.warmups);
    let crash = e2e::crash(setup, w, &m.recs, CRASH_BURST);
    let mut recover_times = Vec::new();
    let mut recovered = None;
    while repeat_more(&recover_times) {
        drop(recovered.take());
        let t = Instant::now();
        let (state, _) =
            dap_durability::recover_with(&dir, dap_durability::DurableOptions::default())
                .map_err(|e| format!("recover: {e}"))?;
        recover_times.push(t.elapsed().as_secs_f64());
        recovered = Some(state);
    }
    let state = recovered.expect("at least one recovery");
    if unmatched > 0 {
        return Err(format!(
            "{unmatched} subscriber event batches match no commit"
        ));
    }
    oracle::check_recovery(w, &ids, &crash, &state)?;
    drop(state);
    let t_verify = Instant::now();
    let checked = oracle::verify_solves(w, &warmups, &m.recs)?;
    eprintln!(
        "perfbench: gates passed ({checked} distinct solve answers verified in {:.1}s)",
        t_verify.elapsed().as_secs_f64()
    );

    let ok = tally.ok as f64;
    let acked_commits = commit_us.len().max(1) as f64;
    let metrics: Metrics = if !args.trace {
        vec![
            ("setup_s".into(), median_of(&setup_times), "s"),
            ("commit_p50_us".into(), e2e_t.commit.p50_windowed, "us"),
            ("commit_p99_us".into(), e2e_t.commit.p99_windowed, "us"),
            (
                "event_lag_p50_us".into(),
                e2e_t.event_lag.p50_windowed,
                "us",
            ),
            (
                "event_lag_p99_us".into(),
                e2e_t.event_lag.p99_windowed,
                "us",
            ),
            ("solve_p50_us".into(), e2e_t.solve.p50_windowed, "us"),
            ("solve_p99_us".into(), e2e_t.solve.p99_windowed, "us"),
            (
                "ops_per_s".into(),
                stats::windowed_rate(&done_ok, args.seconds * 1e6),
                "ops/s",
            ),
            ("recover_s".into(), median_of(&recover_times), "s"),
            (
                "server_cpu_us_per_op".into(),
                m.server_cpu_s * 1e6 / ok.max(1.0),
                "us",
            ),
            ("server_rss_mb".into(), m.server_hwm_mb, "MB"),
            (
                "wal_bytes_per_commit".into(),
                m.wal_growth as f64 / acked_commits,
                "bytes",
            ),
        ]
    } else {
        let spans = work
            .parent()
            .unwrap_or(work)
            .join(format!("spans-{}.tsv", w.name));
        trace::replay(
            w,
            &ids,
            &warmups,
            &m.recs,
            &e2e_t,
            m.ping,
            &work.join("replay"),
            &spans,
        )?
    };
    let by_class: Vec<String> = by_class
        .iter()
        .filter_map(|(k, v)| Summary::of(v).map(|s| format!("\"{k}\": {}", s.json())))
        .collect();
    let report = format!(
        "report {{\"commit_us\": {}, \"solve_us\": {}, \"solve_us_by_class\": {{{}}}, \"event_lag_us\": {}, \
         \"setup_s\": {:?}, \"recover_s\": {:?}, \"ok\": {}, \"shed\": {}, \"err\": {}, \"missing\": {}, \
         \"failed_frac\": {}, \"solves_verified\": {checked}, \"server_peak_inflight\": {}}}",
        e2e_t.commit.json(),
        e2e_t.solve.json(),
        by_class.join(", "),
        e2e_t.event_lag.json(),
        setup_times,
        recover_times,
        tally.ok,
        tally.shed,
        tally.err,
        tally.missing,
        tally.failed_frac(),
        m.ping.peak_inflight,
    );
    println!("{report}");
    println!("{}", json_line(&tally, &metrics));
    Ok(())
}
