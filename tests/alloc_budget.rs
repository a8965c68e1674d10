//! Allocation-regression guard for the serving hot path.
//!
//! A counting [`GlobalAlloc`] wrapper tallies the heap allocations a test
//! makes on its own thread while it measures. After warm-up, a
//! steady-state serving turn (one registry `delete_sources` push) must
//! stay under a pinned allocation budget. The budget is deliberately
//! generous — it is a regression tripwire for "accidentally quadratic"
//! allocation (fresh `Arc<str>` per value, maps rebuilt from scratch per
//! delta), not a byte-exact pin. If this test fails after an intentional
//! change, re-measure with `--nocapture` and adjust the budget in the
//! same commit with a note on why.
//!
//! Lives at the workspace root (not in `dap-relalg`) because the counting
//! allocator needs `unsafe impl GlobalAlloc`, which the library crates
//! forbid.
//!
//! Counting is per thread: the test harness runs tests concurrently, and a
//! process-wide counter would charge one test for its siblings'
//! allocations. Both the on/off flag and the tally are const-initialised
//! thread-locals without destructors, so reading them from inside the
//! allocator never allocates.

use dap::prelude::*;
use dap::provenance::WitnessesAnn;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

/// System allocator wrapper that counts allocation *events* (alloc and
/// grow-realloc; frees are not counted — the budget is on acquisition)
/// on threads that are currently measuring.
struct CountingAlloc;

thread_local! {
    /// Set while this thread is inside [`count_allocations`].
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocation events this thread made while `COUNTING` was set.
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn record_event() {
    // `try_with`: the allocator also runs during thread teardown.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = EVENTS.try_with(|e| e.set(e.get() + 1));
    }
}

// SAFETY: defers every operation verbatim to `System`; the bookkeeping
// only touches const-initialised, destructor-free thread-locals, which
// neither allocate nor re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_event();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_event();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f`, returning the allocation events it made on this thread.
fn count_allocations(f: impl FnOnce()) -> u64 {
    EVENTS.with(|e| e.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    EVENTS.with(Cell::get)
}

/// Fixture: R(A, B) ⋈ S(B, C) projected to (A, C), with enough rows that a
/// per-row allocation regression dwarfs the fixed per-turn cost.
const ROWS: usize = 160;

fn fixture() -> (Query, Database) {
    let mut text = String::from("relation R(A, B) {\n");
    for i in 0..ROWS {
        let _ = writeln!(text, "  (a{}, b{}),", i, i % 40);
    }
    text.push_str("}\nrelation S(B, C) {\n");
    for i in 0..ROWS {
        let _ = writeln!(text, "  (b{}, c{}),", i % 40, i);
    }
    text.push_str("}\n");
    let db = parse_database(&text).expect("fixture parses");
    let q = parse_query("project(join(scan R, scan S), [A, C])").expect("query parses");
    (q, db)
}

/// Per-turn allocation budget, in allocation events. A steady-state turn
/// (single-tid batch pushed through a registry maintaining a 640-row join
/// view — scratch maps and delta vectors are reused, so a turn only
/// allocates for the rows it actually touches) measures ~15 events;
/// the budget leaves ample headroom for allocator and libstd drift while
/// still catching per-row regressions, which on this fixture cost
/// thousands of events per turn.
const BUDGET_PER_TURN: u64 = 400;

#[test]
fn serving_turn_allocations_stay_under_budget() {
    let (q, db) = fixture();
    // One worker: the whole push runs on (and is counted on) this thread.
    let pool = ParPool::new(1);
    let mut reg = PlanRegistry::<WitnessesAnn>::with_pool(&db, pool);
    reg.register(&q).unwrap();

    let tids: Vec<Tid> = db.all_tids().collect();
    assert!(tids.len() >= 64, "fixture too small to measure");
    let mut turn = |tid: &Tid| {
        let _ = reg.delete_sources(std::slice::from_ref(tid));
    };

    // Warm up: first turns pay one-off costs (scratch growth, interner
    // touches, lazy table capacity). Steady state is what ships per turn.
    for tid in &tids[..16] {
        turn(tid);
    }

    const MEASURED_TURNS: usize = 32;
    let spent = count_allocations(|| {
        for tid in &tids[16..16 + MEASURED_TURNS] {
            turn(tid);
        }
    });
    let per_turn = spent / MEASURED_TURNS as u64;

    println!("allocation events per serving turn: {per_turn} (budget {BUDGET_PER_TURN})");
    assert!(
        per_turn <= BUDGET_PER_TURN,
        "serving turn allocated {per_turn} times, budget is {BUDGET_PER_TURN}; \
         a hot-path allocation regression (per-row Arc churn or per-delta map \
         rebuilds) is the likely cause"
    );
}

/// Stamping a target's instance and index costs the same allocations
/// however long the committed history is: the context shares its
/// committed set with the instances it stamps instead of copying it into
/// each (a copy allocates once per B-tree node, so it grows with every
/// commit). The history here is tids of a relation the query does not
/// scan: `committed` records them while the view, and so the target's
/// neighborhood, stays the same.
#[test]
fn stamping_an_instance_does_not_copy_the_committed_history() {
    const HISTORY: usize = 20_000;
    let (q, db) = fixture();
    let mut text = db.to_fixture_string();
    text.push_str("relation Unscanned(X) {\n");
    for i in 0..HISTORY {
        let _ = writeln!(text, "  (x{i}),");
    }
    text.push_str("}\n");
    let db = parse_database(&text).expect("fixture parses");
    let mut ctx = DeletionContext::new(&q, &db).unwrap();
    let target = ctx.why().iter().next().expect("non-empty view").0.clone();
    let history: Vec<Tid> = (0..HISTORY).map(|row| Tid::new("Unscanned", row)).collect();
    let stamp = |ctx: &DeletionContext| {
        count_allocations(|| {
            let _ = ctx.instance_and_index(&target).unwrap();
        })
    };

    ctx.apply_delete(&history[..1_000].iter().cloned().collect());
    let _ = stamp(&ctx); // warm-up: lazily initialised hasher state
    let after_1k = stamp(&ctx);
    ctx.apply_delete(&history[1_000..].iter().cloned().collect());
    assert_eq!(ctx.committed().len(), HISTORY);
    let after_20k = stamp(&ctx);

    println!("allocation events per stamp: {after_1k} at 1k committed, {after_20k} at 20k");
    assert_eq!(
        after_1k, after_20k,
        "stamping one instance allocated {after_1k} times at 1k committed tids and \
         {after_20k} at 20k; the committed set is being copied per stamp"
    );
}

/// Interning means constructing the same string value twice costs zero new
/// allocations after the first — guarded here end to end through the
/// public facade.
#[test]
fn repeated_value_construction_is_allocation_free() {
    let warm = Value::str("alloc-budget-witness");
    let spent = count_allocations(|| {
        for _ in 0..1_000 {
            let v = Value::str("alloc-budget-witness");
            assert_eq!(v, warm);
        }
    });
    assert!(
        spent <= 8,
        "1000 re-constructions of an interned string allocated {spent} times"
    );
}
