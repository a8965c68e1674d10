//! Seeded workload generation: the source database, the standing-query
//! catalog, and the op stream the load generator sends. The server only
//! ever sees the generated database text and the wire commands.
//!
//! Why each workload exists is recorded in `BENCHMARK.json`; the shapes:
//!
//! * `ingest` — the shared query family (one PJ core over 65,536 view
//!   tuples with 4 witnesses each, plus 15 per-user filters on it),
//!   single-tuple commits over a seeded order of `UserGroup` rows, and one
//!   small filter-query solve per 16 commits so every end-to-end metric
//!   has samples.
//! * `mixed` — one standing query per dichotomy class (SPU, SJ, chain,
//!   PJ), each over its own relations, plus a smaller shared family; 85%
//!   commits and 15% solves on skewed targets drawn from the live views.
//!
//! Every workload runs closed loop with [`crate::e2e::WINDOW`] requests in
//! flight on one connection and a second connection subscribed to every
//! query.

use dap_durability::log::parse_tid;
use dap_provenance::WitnessesAnn;
use dap_relalg::{schema, Database, PlanRegistry, Pred, Query, Relation, Tid, Tuple, Value};
use dap_serve::SolveObjective;
use std::collections::HashSet;

/// splitmix64: a small, fast, seedable generator (the workload must not
/// depend on anything but the seed).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The dichotomy class of a solvable standing query.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Class {
    Spu,
    Sj,
    Chain,
    Pj,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Spu, Class::Sj, Class::Chain, Class::Pj];

    pub fn name(self) -> &'static str {
        match self {
            Class::Spu => "spu",
            Class::Sj => "sj",
            Class::Chain => "chain",
            Class::Pj => "pj",
        }
    }
}

pub fn objective_name(o: SolveObjective) -> &'static str {
    match o {
        SolveObjective::View => "view",
        SolveObjective::Source => "source",
    }
}

/// A catalog query that receives `solve` commands.
pub struct Solvable {
    /// Position in [`Workload::catalog`] (the query id the server assigns).
    pub query_index: usize,
    pub class: Class,
    pub query: Query,
    /// The smallest sub-database the query's view depends on; the solve
    /// oracle evaluates over it (tuples are matched by content).
    pub oracle_db: Database,
}

/// One op of the command stream.
#[derive(Clone, Debug)]
pub enum Op {
    /// `delete-source <tid>`.
    Commit(Tid),
    /// `solve q<k> view|source <target>`.
    Solve {
        solvable: usize,
        objective: SolveObjective,
        target: Tuple,
    },
}

pub struct Workload {
    pub name: &'static str,
    pub db: Database,
    pub catalog: Vec<Query>,
    pub solvables: Vec<Solvable>,
    pub stream: Stream,
}

pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
    match name {
        "ingest" => Ok(ingest(seed)),
        "mixed" => Ok(mixed(seed)),
        other => Err(format!("unknown workload `{other}` (want ingest or mixed)")),
    }
}

fn s(prefix: &str, i: usize) -> Value {
    Value::str(format!("{prefix}{i}"))
}

fn rel(name: &str, attrs: [&str; 2], rows: Vec<Tuple>) -> Relation {
    Relation::new(name, schema(attrs), rows).expect("generated rows have the relation's arity")
}

/// The shared query family: `UserGroup(user, grp)` with every user in
/// every group, `GroupFile(grp, file)` with every group holding every
/// file, the PJ core `Π_{user,file}(UserGroup ⋈ GroupFile)` (each view
/// tuple has one witness per group), and `n - 1` per-user filters
/// `σ_{user=uᵢ}(core)` that share the whole core.
fn family(n: usize, users: usize, groups: usize, files: usize) -> (Vec<Relation>, Vec<Query>) {
    let ug = (0..users)
        .flat_map(|u| (0..groups).map(move |g| Tuple::new([s("u", u), s("g", g)])))
        .collect();
    let gf = (0..groups)
        .flat_map(|g| (0..files).map(move |f| Tuple::new([s("g", g), s("f", f)])))
        .collect();
    let core = Query::scan("UserGroup")
        .join(Query::scan("GroupFile"))
        .project(["user", "file"]);
    let mut queries = vec![core.clone()];
    for i in 1..n {
        queries.push(
            core.clone()
                .select(Pred::attr_eq_const("user", s("u", i - 1))),
        );
    }
    (
        vec![
            rel("UserGroup", ["user", "grp"], ug),
            rel("GroupFile", ["grp", "file"], gf),
        ],
        queries,
    )
}

const PJ: [usize; 4] = [80, 80, 12, 3];

/// The class instances are the same for every seed (the seed drives the
/// op stream): a seeded instance would move every timing with its
/// particular hardest targets, not with the program.
const CLASS_INSTANCE_SEED: u64 = 0x00C1_A55E;

/// One standing query per dichotomy class, each over its own relations.
fn class_catalog() -> Vec<(Class, Vec<Relation>, Query)> {
    let rng = &mut Rng::new(CLASS_INSTANCE_SEED);
    let mut pick = |prefix: &str, domain: usize| s(prefix, rng.below(domain));
    // SPU: Π_A(σ_{B=b0}(SpuR)) ∪ Π_A(SpuS) — singleton witnesses.
    let spu_r = (0..6000)
        .map(|_| Tuple::new([pick("a", 1500), pick("b", 8)]))
        .collect();
    let spu_s = (0..6000)
        .map(|_| Tuple::new([pick("a", 1500), pick("b", 8)]))
        .collect();
    let spu = Query::scan("SpuR")
        .select(Pred::attr_eq_const("B", "b0"))
        .project(["A"])
        .union(Query::scan("SpuS").project(["A"]));
    // SJ: SjR(A,B) ⋈ SjS(B,C) — one witness per view tuple.
    let sj_r = (0..4000)
        .map(|i| Tuple::new([s("a", i), pick("b", 1300)]))
        .collect();
    let sj_s = (0..4000)
        .map(|i| Tuple::new([pick("b", 1300), s("c", i)]))
        .collect();
    let sj = Query::scan("SjR").join(Query::scan("SjS"));
    // Chain: Π_{A0,A3}(Ch1 ⋈ Ch2 ⋈ Ch3) — a chain join, PJ class.
    let chain_rels: Vec<Relation> = (0..3)
        .map(|l| {
            let (a, b) = (format!("A{l}"), format!("A{}", l + 1));
            let rows: Vec<Tuple> = (0..3000)
                .map(|_| {
                    Tuple::new([
                        pick(&format!("p{l}_"), 1500),
                        pick(&format!("p{}_", l + 1), 1500),
                    ])
                })
                .collect();
            Relation::new(
                format!("Ch{}", l + 1),
                schema([a.as_str(), b.as_str()]),
                rows,
            )
            .expect("arity")
        })
        .collect();
    let chain =
        Query::join_all((1..=3).map(|l| Query::scan(format!("Ch{l}")))).project(["A0", "A3"]);
    // PJ: Π_{user,file}(PjUG ⋈ PjGF); users and files each join a few
    // of a dozen groups, so a view tuple has ~2 witnesses and a target's
    // frontier spans hundreds of tuples.
    let (pj_users, pj_files, pj_groups, pj_per) = (PJ[0], PJ[1], PJ[2], PJ[3]);
    let mut member = |prefix: &str, i: usize| -> Vec<Tuple> {
        let mut gs: Vec<usize> = (0..pj_groups).collect();
        rng.shuffle(&mut gs);
        gs[..pj_per]
            .iter()
            .map(|&g| Tuple::new([s(prefix, i), s("pg", g)]))
            .collect()
    };
    let pj_ug: Vec<Tuple> = (0..pj_users).flat_map(|u| member("pu", u)).collect();
    let pj_gf: Vec<Tuple> = (0..pj_files)
        .flat_map(|f| member("pf", f))
        .map(|t| Tuple::new([t.values()[1].clone(), t.values()[0].clone()]))
        .collect();
    let pj = Query::scan("PjUG")
        .join(Query::scan("PjGF"))
        .project(["user", "file"]);
    vec![
        (
            Class::Spu,
            vec![
                rel("SpuR", ["A", "B"], spu_r),
                rel("SpuS", ["A", "B"], spu_s),
            ],
            spu,
        ),
        (
            Class::Sj,
            vec![rel("SjR", ["A", "B"], sj_r), rel("SjS", ["B", "C"], sj_s)],
            sj,
        ),
        (Class::Chain, chain_rels, chain),
        (
            Class::Pj,
            vec![
                rel("PjUG", ["user", "grp"], pj_ug),
                rel("PjGF", ["grp", "file"], pj_gf),
            ],
            pj,
        ),
    ]
}

/// Sizes of each solvable query's hot and warm target sets.
const HOT_TARGETS: usize = 32;
const WARM_TARGETS: usize = 192;

/// The live-view model the stream draws targets from: per solvable, the
/// initial view in a fixed shuffled order with each tuple's minimal witnesses (in
/// full-database tids). A tuple is alive while one witness is untouched.
struct TargetPool {
    order: Vec<Tuple>,
    witnesses: Vec<Vec<Vec<Tid>>>,
}

/// Source tids in stream order, consumed front to back.
struct CommitPool {
    tids: Vec<Tid>,
    next: usize,
}

enum Mix {
    /// Commits from the family pool; a filter-query solve every 17th op.
    Ingest,
    /// 85% commits (15/16 from the family pool 0, 1/16 from the class
    /// pool 1), 15% solves.
    Mixed,
}

/// The deterministic, endless op stream of one workload and seed.
pub struct Stream {
    rng: Rng,
    mix: Mix,
    step: u64,
    deleted: HashSet<Tid>,
    pools: Vec<CommitPool>,
    targets: Vec<TargetPool>,
}

impl Stream {
    pub fn next_op(&mut self) -> Op {
        self.step += 1;
        let step = self.step;
        let commit = match self.mix {
            Mix::Ingest => !step.is_multiple_of(17),
            Mix::Mixed => self.rng.unit() < 0.85,
        };
        if !commit {
            return self.solve_op();
        }
        let pool = match self.mix {
            Mix::Ingest => 0,
            Mix::Mixed => usize::from(self.rng.below(16) == 0),
        };
        let tid = self.take(pool);
        Op::Commit(tid)
    }

    /// The next tid of `pool`. A pool outlasts a run at several times the
    /// seed's commit rate; past its end it wraps around to (logged, no-op)
    /// re-deletions rather than failing.
    fn take(&mut self, pool: usize) -> Tid {
        let p = &mut self.pools[pool];
        let tid = p.tids[p.next % p.tids.len()].clone();
        p.next += 1;
        self.deleted.insert(tid.clone());
        tid
    }

    /// The warm-up target of a solvable query: the head of its view
    /// order, alive before any commit.
    pub fn warmup_target(&self, solvable: usize) -> Tuple {
        self.targets[solvable].order[0].clone()
    }

    fn alive(&self, solvable: usize, slot: usize) -> bool {
        self.targets[solvable].witnesses[slot]
            .iter()
            .any(|w| w.iter().all(|tid| !self.deleted.contains(tid)))
    }

    /// A solve on a uniformly chosen solvable query with a 50/50 objective
    /// and a skewed target: half the draws come from the first
    /// [`HOT_TARGETS`] tuples of the shuffled view order, half from the
    /// first [`WARM_TARGETS`]; a dead draw moves forward to the first live
    /// tuple. Targets repeat and hit the server's cached witness index,
    /// the working set stays below the cache's bound of 256, and no one
    /// target's difficulty steers a run's tail.
    fn solve_op(&mut self) -> Op {
        let objective = if self.rng.below(2) == 0 {
            SolveObjective::View
        } else {
            SolveObjective::Source
        };
        for _ in 0..10_000 {
            let solvable = self.rng.below(self.targets.len());
            let n = self.targets[solvable].order.len();
            let range = if self.rng.below(2) == 0 {
                HOT_TARGETS
            } else {
                WARM_TARGETS
            }
            .min(n);
            let start = self.rng.below(range);
            if let Some(slot) = (0..n)
                .map(|k| (start + k) % n)
                .find(|&i| self.alive(solvable, i))
            {
                return Op::Solve {
                    solvable,
                    objective,
                    target: self.targets[solvable].order[slot].clone(),
                };
            }
        }
        panic!("the stream deleted every solvable view; no live target is left");
    }
}

/// Translate a tid of `from` to the tid of the same tuple in `to`.
pub fn translate(from: &Database, to: &Database, tid: &Tid) -> Option<Tid> {
    let t = from.tuple(tid)?;
    to.tid_of(tid.rel.as_str(), t)
}

fn target_pool(rng: &mut Rng, db: &Database, s: &Solvable) -> TargetPool {
    let mut reg = PlanRegistry::<WitnessesAnn>::new(&s.oracle_db);
    let id = reg.register(&s.query).expect("catalog queries register");
    let mut rows: Vec<(Tuple, Vec<Vec<Tid>>)> = reg
        .iter_query(id)
        .map(|(t, ann)| {
            let ws = ann
                .0
                .iter()
                .map(|w| {
                    w.iter()
                        .map(|tid| {
                            translate(&s.oracle_db, db, tid)
                                .expect("sub-database rows are in the database")
                        })
                        .collect()
                })
                .collect();
            (t.clone(), ws)
        })
        .collect();
    assert!(
        !rows.is_empty(),
        "solvable query {} has an empty view",
        s.query
    );
    rng.shuffle(&mut rows);
    let (order, witnesses) = rows.into_iter().unzip();
    TargetPool { order, witnesses }
}

fn rows_of(db: &Database, rel: &str) -> Vec<Tid> {
    let n = db.get(rel).expect("relation exists").len();
    (0..n).map(|row| Tid::new(rel, row)).collect()
}

fn assemble(
    name: &'static str,
    rng: Rng,
    catalog: Vec<Query>,
    solvables: Vec<Solvable>,
    commit_pools: Vec<Vec<Tid>>,
    mix: Mix,
    db: Database,
) -> Workload {
    // Target orders are the same for every seed, like the instances: the
    // seed picks which hot and warm targets a run solves, in which order.
    let fixed = &mut Rng::new(CLASS_INSTANCE_SEED);
    let targets = solvables
        .iter()
        .map(|s| target_pool(fixed, &db, s))
        .collect();
    let pools = commit_pools
        .into_iter()
        .map(|tids| CommitPool { tids, next: 0 })
        .collect();
    Workload {
        name,
        db,
        catalog,
        solvables,
        stream: Stream {
            rng,
            mix,
            step: 0,
            deleted: HashSet::new(),
            pools,
            targets,
        },
    }
}

/// Filter query `i` (`σ_{user=u_{i-1}}`) of a family, as a solvable whose
/// oracle database keeps only that user's rows.
fn filter_solvable(db: &Database, catalog: &[Query], i: usize) -> Solvable {
    let user = s("u", i - 1);
    let ug = db.get("UserGroup").expect("family relation");
    let rows: Vec<Tuple> = ug
        .tuples()
        .iter()
        .filter(|t| t.values()[0] == user)
        .cloned()
        .collect();
    let oracle_db = Database::from_relations(vec![
        Relation::new("UserGroup", ug.schema().clone(), rows).expect("arity"),
        db.get("GroupFile").expect("family relation").clone(),
    ])
    .expect("names");
    Solvable {
        query_index: i,
        class: Class::Pj,
        query: catalog[i].clone(),
        oracle_db,
    }
}

/// `UserGroup` rows of users that no filter query selects.
fn unfiltered_user_rows(db: &Database, filters: usize) -> Vec<Tid> {
    let filtered: HashSet<Value> = (0..filters).map(|i| s("u", i)).collect();
    let ug = db.get("UserGroup").expect("family relation");
    (0..ug.len())
        .filter(|&row| !filtered.contains(&ug.tuples()[row].values()[0]))
        .map(|row| Tid::new("UserGroup", row))
        .collect()
}

fn ingest(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    // 65,536 users × 1 file = 65,536 core tuples, 4 witnesses each;
    // 262,144 UserGroup rows, so the commit pool outlasts a run at
    // several times the seed's commit rate.
    let (rels, catalog) = family(16, 65_536, 4, 1);
    let db = Database::from_relations(rels).expect("names");
    let solvables = (1..catalog.len())
        .map(|i| filter_solvable(&db, &catalog, i))
        .collect();
    let mut pool = unfiltered_user_rows(&db, catalog.len() - 1);
    rng.shuffle(&mut pool);
    let pools = vec![pool];
    assemble("ingest", rng, catalog, solvables, pools, Mix::Ingest, db)
}

/// The class queries as solvables; they lead the catalog.
fn class_solvables(classes: &[(Class, Vec<Relation>, Query)]) -> Vec<Solvable> {
    classes
        .iter()
        .enumerate()
        .map(|(i, (class, rels, q))| Solvable {
            query_index: i,
            class: *class,
            query: q.clone(),
            oracle_db: Database::from_relations(rels.clone()).expect("names"),
        })
        .collect()
}

/// Half of the rows of every class relation, in an order that is the same
/// for every seed, as one commit pool: each class loses rows in
/// proportion to its size, and however long a run lasts, half of every
/// relation stays, so the views keep live targets and their shape.
fn class_pool(db: &Database, classes: &[(Class, Vec<Relation>, Query)]) -> Vec<Tid> {
    let rng = &mut Rng::new(CLASS_INSTANCE_SEED);
    let mut pool = Vec::new();
    for r in classes.iter().flat_map(|(_, rels, _)| rels) {
        let mut rows = rows_of(db, r.name().as_str());
        rng.shuffle(&mut rows);
        rows.truncate(rows.len() / 2);
        pool.extend(rows);
    }
    rng.shuffle(&mut pool);
    pool
}

fn mixed(seed: u64) -> Workload {
    let mut rng = Rng::new(seed);
    let classes = class_catalog();
    // 8 queries; 32,768 users × 1 file = 32,768 core tuples over
    // 131,072 UserGroup rows.
    let (fam_rels, fam_queries) = family(8, 32_768, 4, 1);
    let mut rels: Vec<Relation> = classes.iter().flat_map(|(_, r, _)| r.clone()).collect();
    rels.extend(fam_rels);
    let db = Database::from_relations(rels).expect("names");
    let mut catalog: Vec<Query> = classes.iter().map(|(_, _, q)| q.clone()).collect();
    let filters = fam_queries.len() - 1;
    catalog.extend(fam_queries);
    let solvables = class_solvables(&classes);
    let mut family_pool = unfiltered_user_rows(&db, filters);
    rng.shuffle(&mut family_pool);
    let pools = vec![family_pool, class_pool(&db, &classes)];
    assemble("mixed", rng, catalog, solvables, pools, Mix::Mixed, db)
}

/// Parse the tid list of a `solve` reply body (`deletions=2 side-effects=0
/// [R#1,S#4]`) into `(deletions, side_effects, tids)`.
pub fn parse_solve_body(body: &str) -> Option<(usize, usize, Vec<Tid>)> {
    let mut parts = body.splitn(3, ' ');
    let d = parts.next()?.strip_prefix("deletions=")?.parse().ok()?;
    let se = parts.next()?.strip_prefix("side-effects=")?.parse().ok()?;
    let list = parts.next()?.strip_prefix('[')?.strip_suffix(']')?;
    let tids = list
        .split(',')
        .filter(|p| !p.is_empty())
        .map(parse_tid)
        .collect::<Result<Vec<_>, _>>()
        .ok()?;
    Some((d, se, tids))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let render = |seed| {
            let mut w = build("mixed", seed).unwrap();
            (0..200)
                .map(|_| format!("{:?}", w.stream.next_op()))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(7), render(7));
        assert_ne!(render(7), render(8));
    }

    #[test]
    fn solve_bodies_parse() {
        let (d, se, tids) = parse_solve_body("deletions=2 side-effects=1 [R#1,S#4]").unwrap();
        assert_eq!((d, se), (2, 1));
        assert_eq!(tids, vec![Tid::new("R", 1), Tid::new("S", 4)]);
        assert_eq!(
            parse_solve_body("deletions=0 side-effects=0 []").unwrap().2,
            vec![]
        );
        assert!(parse_solve_body("err budget").is_none());
    }
}
