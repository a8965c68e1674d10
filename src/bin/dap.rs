//! `dap` — command-line front end for deletion propagation and annotation
//! placement.
//!
//! ```text
//! dap eval      <db.dap> '<query>'                 evaluate a view
//! dap witnesses <db.dap> '<query>' '<tuple>'       minimal witnesses of a view tuple
//! dap delete    <db.dap> '<query>' '<tuple>' [view|source]
//!                                                  propagate a view deletion
//! dap annotate  <db.dap> '<query>' '<tuple>' <attr>
//!                                                  place a view annotation
//! dap classify  '<query>'                          the paper's three complexity rows
//! dap normalize <db.dap> '<query>'                 union normal form (Thm 3.1)
//! dap tables                                       print the paper's dichotomy tables
//! ```
//!
//! Durable serving state (a directory holding `commit.log` + `snap-*`
//! files; fsync discipline from `DAP_FSYNC=always|batch|never`):
//!
//! ```text
//! dap init          <dir> <db.dap>        initialize a durable directory
//! dap register      <dir> '<query>'       durably register a standing query
//! dap unregister    <dir> q<k>            durably unregister a standing query
//! dap delete-source <dir> <rel>#<row>...  durably delete source tuples
//! dap log           <dir>                 print the commit log
//! dap snapshot      <dir>                 write a snapshot of the current state
//! dap recover       <dir>                 recover and report the state
//! dap serve         <dir> [port]          serve the directory over localhost TCP
//! ```
//!
//! `dap serve` recovers the directory and holds it open behind a
//! crash-safe, overload-shedding TCP server (port 0 = pick a free one;
//! the bound address is printed on startup). SIGTERM/SIGINT drain
//! gracefully: queued commands finish, the log is synced, and a
//! snapshot is written. kill -9 is also fine — the next `dap serve` or
//! `dap recover` replays the log.
//!
//! Database files use the fixture syntax, e.g.
//!
//! ```text
//! relation UserGroup(user, grp) { (ann, staff), (bob, dev) }
//! relation GroupFile(grp, file) { (staff, report), (dev, main) }
//! ```
//!
//! Tuples are comma-separated values: `bob,report` or `(bob, report)`;
//! quotes are optional for bare symbols, integers and booleans are parsed.

use dap::prelude::*;
use dap::serve::protocol::parse_tuple;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage:
  dap eval      <db.dap> '<query>'
  dap witnesses <db.dap> '<query>' '<tuple>'
  dap delete    <db.dap> '<query>' '<tuple>' [view|source]
  dap annotate  <db.dap> '<query>' '<tuple>' <attr>
  dap classify  '<query>'
  dap normalize <db.dap> '<query>'
  dap tables
  dap init          <dir> <db.dap>
  dap register      <dir> '<query>'
  dap unregister    <dir> q<k>
  dap delete-source <dir> <rel>#<row> [<rel>#<row> ...]
  dap log           <dir>
  dap snapshot      <dir>
  dap recover       <dir>
  dap serve         <dir> [port]"
}

/// A [`Tid`]'s tuple, or a graceful error for a dangling id.
fn tuple_of<'a>(db: &'a Database, tid: &Tid) -> Result<&'a Tuple, String> {
    db.tuple(tid)
        .ok_or_else(|| format!("tuple id {tid} does not exist in the database"))
}

fn load_db(path: &str) -> Result<Database, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    parse_database(&text).map_err(|e| format!("in `{path}`: {e}"))
}

fn run(args: &[String]) -> Result<String, String> {
    let cmd = args.first().map(String::as_str).ok_or("missing command")?;
    match cmd {
        "eval" => {
            let [db_path, query] = take::<2>(&args[1..])?;
            let db = load_db(db_path)?;
            let q = parse_query(query).map_err(|e| e.to_string())?;
            let view = eval(&q, &db).map_err(|e| e.to_string())?;
            Ok(view.to_table_string("view"))
        }
        "witnesses" => {
            let [db_path, query, tuple_text] = take::<3>(&args[1..])?;
            let db = load_db(db_path)?;
            let q = parse_query(query).map_err(|e| e.to_string())?;
            let t = parse_tuple(tuple_text)?;
            let ws = minimal_witnesses(&q, &db, &t).map_err(|e| e.to_string())?;
            if ws.is_empty() {
                return Err(format!("tuple {t} is not in the view"));
            }
            let mut out = format!("{} minimal witnesses for {t}:\n", ws.len());
            for w in ws {
                let mut parts = Vec::new();
                for tid in &w {
                    parts.push(format!("{tid}={}", tuple_of(&db, tid)?));
                }
                out.push_str(&format!("  {{{}}}\n", parts.join(", ")));
            }
            Ok(out)
        }
        "delete" => {
            let rest = &args[1..];
            if rest.len() < 3 {
                return Err("delete needs <db> <query> <tuple> [view|source]".into());
            }
            let objective = rest.get(3).map(String::as_str).unwrap_or("view");
            let db = load_db(&rest[0])?;
            let q = parse_query(&rest[1]).map_err(|e| e.to_string())?;
            let t = parse_tuple(&rest[2])?;
            let (sol, solver) = match objective {
                "view" => delete_min_view_side_effects(&q, &db, &t),
                "source" => delete_min_source(&q, &db, &t),
                other => return Err(format!("unknown objective `{other}` (view|source)")),
            }
            .map_err(|e| e.to_string())?;
            let mut out = format!("{sol}\n  solver: {solver}\n  source tuples:\n");
            for tid in &sol.deletions {
                out.push_str(&format!("    {tid} = {}\n", tuple_of(&db, tid)?));
            }
            if !sol.view_side_effects.is_empty() {
                out.push_str("  view side effects:\n");
                for dead in &sol.view_side_effects {
                    out.push_str(&format!("    {dead}\n"));
                }
            }
            Ok(out)
        }
        "annotate" => {
            let [db_path, query, tuple_text, attr] = take::<4>(&args[1..])?;
            let db = load_db(db_path)?;
            let q = parse_query(query).map_err(|e| e.to_string())?;
            let t = parse_tuple(tuple_text)?;
            let loc = ViewLoc::new(t, attr.as_str());
            let (sol, solver) = place_annotation(&q, &db, &loc).map_err(|e| e.to_string())?;
            let mut out = format!(
                "{sol}\n  solver: {solver}\n  source tuple: {}\n",
                tuple_of(&db, &sol.source.tid)?
            );
            if !sol.side_effects.is_empty() {
                out.push_str("  also annotates:\n");
                for v in &sol.side_effects {
                    out.push_str(&format!("    {v}\n"));
                }
            }
            Ok(out)
        }
        "classify" => {
            let [query] = take::<1>(&args[1..])?;
            let q = parse_query(query).map_err(|e| e.to_string())?;
            let fp = OpFootprint::of(&q);
            let mut out = format!("query class: {fp}\n");
            for problem in [
                Problem::ViewSideEffect,
                Problem::SourceSideEffect,
                Problem::AnnotationPlacement,
            ] {
                out.push_str(&format!("  {problem}: {}\n", complexity(problem, &fp)));
            }
            Ok(out)
        }
        "normalize" => {
            let [db_path, query] = take::<2>(&args[1..])?;
            let db = load_db(db_path)?;
            let q = parse_query(query).map_err(|e| e.to_string())?;
            let nf = normalize(&q, &db.catalog()).map_err(|e| e.to_string())?;
            let mut out = format!("{} branch(es):\n", nf.branches.len());
            for b in &nf.branches {
                out.push_str(&format!("  {b}\n"));
            }
            Ok(out)
        }
        "init" => {
            let [dir, db_path] = take::<2>(&args[1..])?;
            let db = load_db(db_path)?;
            let state =
                DurableState::create(std::path::Path::new(dir), &db, DurableOptions::from_env())
                    .map_err(|e| e.to_string())?;
            Ok(format!(
                "initialized {} ({} relations, {} tuples, fsync={})\n",
                state.dir().display(),
                db.relation_count(),
                db.tuple_count(),
                FsyncMode::from_env(),
            ))
        }
        "register" => {
            let [dir, query] = take::<2>(&args[1..])?;
            let q = parse_query(query).map_err(|e| e.to_string())?;
            let (mut state, _) = recover(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
            let id = state.register(&q).map_err(|e| e.to_string())?;
            Ok(format!(
                "registered {id} ({} view tuples)\n",
                state.registry().view_len(id)
            ))
        }
        "unregister" => {
            let [dir, id_text] = take::<2>(&args[1..])?;
            let id = dap::durability::log::parse_query_id(id_text)?;
            let (mut state, _) = recover(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
            if !state.unregister(id).map_err(|e| e.to_string())? {
                return Err(format!("{id} is not in the durable catalog"));
            }
            Ok(format!("unregistered {id}\n"))
        }
        "delete-source" => {
            let rest = &args[1..];
            if rest.len() < 2 {
                return Err("delete-source needs <dir> and at least one <rel>#<row>".into());
            }
            let tids: Vec<Tid> = rest[1..]
                .iter()
                .map(|t| dap::durability::log::parse_tid(t))
                .collect::<Result<_, _>>()?;
            let (mut state, _) =
                recover(std::path::Path::new(&rest[0])).map_err(|e| e.to_string())?;
            let deltas = state.delete_sources(&tids).map_err(|e| e.to_string())?;
            let mut out = format!(
                "deleted {} source tuple(s), seq {}\n",
                tids.len(),
                state.last_seq()
            );
            for (id, delta) in deltas {
                out.push_str(&format!(
                    "  {id}: -{} tuples, {} rebased, {} left\n",
                    delta.removed.len(),
                    delta.changed.len(),
                    state.registry().view_len(id)
                ));
            }
            Ok(out)
        }
        "log" => {
            let [dir] = take::<1>(&args[1..])?;
            let path = std::path::Path::new(dir).join(dap::durability::LOG_FILE);
            let bytes = std::fs::read(&path)
                .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
            let (frames, end, err) = dap::durability::decode_all(&bytes);
            let mut out = String::new();
            for payload in &frames {
                out.push_str(&String::from_utf8_lossy(payload));
                out.push('\n');
            }
            out.push_str(&format!("{} record(s), {} byte(s)\n", frames.len(), end));
            if let Some(e) = err {
                out.push_str(&format!(
                    "corrupt tail at byte {}: {} ({} byte(s) would be truncated by recover)\n",
                    e.offset,
                    e.reason,
                    bytes.len() as u64 - e.offset
                ));
            }
            Ok(out)
        }
        "snapshot" => {
            let [dir] = take::<1>(&args[1..])?;
            let (mut state, _) = recover(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
            let path = state.snapshot().map_err(|e| e.to_string())?;
            Ok(format!(
                "wrote {} (seq {}, {} catalog entries)\n",
                path.display(),
                state.last_seq(),
                state.catalog().len()
            ))
        }
        "recover" => {
            let [dir] = take::<1>(&args[1..])?;
            let (state, report) = recover(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
            let mut out = format!("{report}\n");
            for (id, q) in state.catalog() {
                out.push_str(&format!(
                    "  {id}: {q} ({} view tuples)\n",
                    state.registry().view_len(*id)
                ));
            }
            Ok(out)
        }
        "serve" => {
            let rest = &args[1..];
            if rest.is_empty() || rest.len() > 2 {
                return Err("serve needs <dir> [port]".into());
            }
            let dir = std::path::Path::new(&rest[0]);
            let port: u16 = match rest.get(1) {
                Some(p) => p.parse().map_err(|_| format!("bad port `{p}`"))?,
                None => 0,
            };
            dap::serve::signal::install_term_handler();
            let handle = Server::start(dir, port, ServeOptions::from_env())
                .map_err(|e| format!("serve: {e}"))?;
            // Printed (and flushed) before blocking so supervisors and
            // smoke tests can read the bound port.
            println!("listening on {}", handle.addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            // Blocks until a client `shutdown` or a termination signal;
            // the engine drains, syncs, and snapshots on the way out.
            handle.join();
            Ok("server stopped\n".into())
        }
        "tables" => {
            let mut out = String::new();
            for problem in [
                Problem::ViewSideEffect,
                Problem::SourceSideEffect,
                Problem::AnnotationPlacement,
            ] {
                out.push_str(&format!("— {problem} —\n"));
                out.push_str(&format_paper_table(problem));
                out.push('\n');
            }
            Ok(out)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Extract exactly `N` positional arguments.
fn take<const N: usize>(args: &[String]) -> Result<[&String; N], String> {
    if args.len() != N {
        return Err(format!("expected {N} arguments, got {}", args.len()));
    }
    let mut it = args.iter();
    Ok(std::array::from_fn(|_| it.next().expect("length checked")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_runs_without_files() {
        let out = run(&[
            "classify".into(),
            "project(join(scan R, scan S), [A])".into(),
        ])
        .unwrap();
        assert!(out.contains("PJ"));
        assert!(out.contains("NP-hard"));
    }

    #[test]
    fn tables_runs() {
        let out = run(&["tables".into()]).unwrap();
        assert!(out.contains("Queries involving PJ"));
        assert!(out.contains("SJU"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&[]).is_err());
        assert!(run(&["frobnicate".into()]).is_err());
        assert!(run(&["eval".into(), "/no/such/file".into(), "scan R".into()]).is_err());
        assert!(run(&["delete".into()]).is_err());
        assert!(run(&["recover".into(), "/no/such/dir".into()]).is_err());
        assert!(run(&["delete-source".into(), "somewhere".into()]).is_err());
        assert!(run(&["unregister".into(), "somewhere".into(), "five".into()]).is_err());
    }

    #[test]
    fn durable_cycle_through_the_cli() {
        let dir = std::env::temp_dir().join(format!("dap-cli-run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db_path = dir.with_extension("dap");
        std::fs::write(
            &db_path,
            "relation UserGroup(user, grp) { (ann, staff), (bob, staff), (bob, dev) }
             relation GroupFile(grp, file) { (staff, report), (dev, main), (dev, report) }",
        )
        .unwrap();
        let d = dir.to_str().unwrap().to_string();
        let out = run(&["init".into(), d.clone(), db_path.to_str().unwrap().into()]).unwrap();
        assert!(out.contains("initialized"));
        // Re-initializing is refused.
        assert!(run(&["init".into(), d.clone(), db_path.to_str().unwrap().into()]).is_err());
        let out = run(&[
            "register".into(),
            d.clone(),
            "project(join(scan UserGroup, scan GroupFile), [user, file])".into(),
        ])
        .unwrap();
        assert!(out.contains("registered q0 (3 view tuples)"), "{out}");
        let out = run(&["delete-source".into(), d.clone(), "UserGroup#1".into()]).unwrap();
        assert!(out.contains("q0: -1 tuples"), "{out}");
        let out = run(&["log".into(), d.clone()]).unwrap();
        assert!(out.contains("1 register q0"), "{out}");
        assert!(out.contains("2 delete UserGroup#1"), "{out}");
        let out = run(&["snapshot".into(), d.clone()]).unwrap();
        assert!(out.contains("seq 2, 1 catalog entries"), "{out}");
        let out = run(&["recover".into(), d.clone()]).unwrap();
        assert!(out.contains("recovered from snapshot seq 2"), "{out}");
        assert!(out.contains("q0:"), "{out}");
        let out = run(&["unregister".into(), d.clone(), "q0".into()]).unwrap();
        assert!(out.contains("unregistered q0"), "{out}");
        assert!(run(&["unregister".into(), d, "q0".into()]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&db_path);
    }

    #[test]
    fn dangling_tids_error_gracefully() {
        let db = parse_database("relation R(A) { (a) }").unwrap();
        assert!(tuple_of(&db, &Tid::new("R", 0)).is_ok());
        let err = tuple_of(&db, &Tid::new("R", 9)).unwrap_err();
        assert!(err.contains("R#9") && err.contains("does not exist"));
        assert!(tuple_of(&db, &Tid::new("Nope", 0)).is_err());
    }
}
