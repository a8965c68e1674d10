//! Measure maintained view deltas (`PlanRegistry::delete_sources` on a
//! one-query registry) against full re-evaluation per deletion and emit
//! `BENCH_maintenance.json`.
//!
//! ```text
//! cargo run --release -p dap-bench --bin report_maintenance
//! ```
//!
//! The workload is the PJ multi-witness user/group/file shape at three
//! sizes, asked the serving-loop question: after **each** of a stream of
//! source deletions, what is the current annotated (why-provenance) view?
//!
//! * the **maintained** path pushes each deletion through one
//!   `PlanRegistry<WitnessesAnn>` holding the query (`O(affected)` per
//!   deletion);
//! * the **full re-evaluation** baseline answers the same stream the only
//!   way the one-shot engine can — rebuild `S \ T` and run
//!   `eval_annotated` per deletion.
//!
//! Both paths are checked to produce identical views at every step of the
//! stream (same tuples, same per-tuple witness multiplicities — the
//! renumbering-invariant form, since fresh evaluations re-pack row ids
//! while the registry keeps the originals; full structural equality is pinned
//! by `tests/prop_maintenance.rs`). The acceptance bar is a ≥10× speedup
//! at the largest size. Set `DAP_BENCH_NO_ASSERT=1` to make the run
//! report-only (CI does: a noisy shared runner must not fail the build on
//! a wall-clock ratio — the artifact still records it).

use dap_bench::{
    maintenance_deletion_sequence, pj_multiwitness_workload, render_speedup_json, speedup_ratio,
    SpeedupRow,
};
use dap_provenance::WitnessesAnn;
use dap_relalg::{eval_annotated, Database, PlanRegistry, Query, Tid};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// `(users, groups, files)` triples: the view has `users · files` tuples,
/// each with `groups` witnesses.
const SIZES: [(usize, usize, usize); 3] = [(8, 4, 8), (16, 5, 16), (32, 6, 32)];
/// Length of the deletion stream at every size.
const DELETIONS: usize = 16;
const RUNS: usize = 9;

/// Median over `runs` samples with per-run setup excluded from the timer.
fn median_with_setup<S, F: FnMut() -> S, G: FnMut(S)>(
    runs: usize,
    mut setup: F,
    mut timed: G,
) -> Duration {
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let state = setup();
            let start = Instant::now();
            timed(state);
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// The renumbering-invariant fingerprint of an annotated view: sorted
/// tuples with their witness multiplicities.
fn fingerprint_fresh(q: &Query, db: &Database) -> Vec<(dap_relalg::Tuple, usize)> {
    let view = eval_annotated::<WitnessesAnn>(q, db).expect("evaluates");
    view.iter().map(|(t, a)| (t.clone(), a.0.len())).collect()
}

fn main() {
    println!("==============================================================");
    println!(" view_maintenance — maintained deltas vs full re-evaluation");
    println!("==============================================================\n");
    println!(
        "{:>8} {:>10} {:>16} {:>16} {:>10}",
        "|view|", "deletions", "full re-eval", "maintained", "speedup"
    );

    let mut rows: Vec<SpeedupRow> = Vec::new();
    for (users, groups, files) in SIZES {
        let w = pj_multiwitness_workload(users, groups, files);
        let seq = maintenance_deletion_sequence(&w.db, DELETIONS);
        assert_eq!(seq.len(), DELETIONS, "database large enough for the stream");

        let mut base_reg = PlanRegistry::<WitnessesAnn>::new(&w.db);
        let id = base_reg.register(&w.query).expect("registers");

        // Correctness first: identical views asserted at every step.
        {
            let mut reg = base_reg.clone();
            let mut deleted: BTreeSet<Tid> = BTreeSet::new();
            for tid in &seq {
                reg.delete_sources(std::slice::from_ref(tid));
                deleted.insert(tid.clone());
                let fresh = fingerprint_fresh(&w.query, &w.db.without(&deleted));
                let maintained: Vec<(dap_relalg::Tuple, usize)> = reg
                    .iter_query(id)
                    .map(|(t, a)| (t.clone(), a.0.len()))
                    .collect();
                assert_eq!(
                    maintained, fresh,
                    "maintained and re-evaluated views diverged after {deleted:?}"
                );
            }
        }

        // Maintained: one registry per run (cloned outside the timer), the
        // stream pushed through it one deletion at a time.
        let fast = median_with_setup(
            RUNS,
            || base_reg.clone(),
            |mut reg| {
                for tid in &seq {
                    std::hint::black_box(reg.delete_sources(std::slice::from_ref(tid)));
                }
            },
        );

        // Baseline: re-pack S \ T and re-evaluate after every deletion —
        // the pre-pipeline serving cost.
        let slow = median_with_setup(
            RUNS,
            || (),
            |()| {
                let mut deleted: BTreeSet<Tid> = BTreeSet::new();
                for tid in &seq {
                    deleted.insert(tid.clone());
                    let view = eval_annotated::<WitnessesAnn>(&w.query, &w.db.without(&deleted))
                        .expect("evaluates");
                    std::hint::black_box(view.len());
                }
            },
        );

        let view_size = users * files;
        let speedup = speedup_ratio(slow, fast);
        println!(
            "{:>8} {:>10} {:>16?} {:>16?} {:>9.1}x",
            view_size, DELETIONS, slow, fast, speedup
        );
        rows.push((view_size, DELETIONS, slow, fast, speedup));
    }

    let json = render_speedup_json(
        "view_maintenance",
        [
            "view_tuples",
            "deletions",
            "full_reeval_ns",
            "maintained_ns",
        ],
        &rows,
    );
    std::fs::write("BENCH_maintenance.json", &json).expect("write BENCH_maintenance.json");
    println!("\nwrote BENCH_maintenance.json");

    let largest = rows.last().expect("non-empty");
    if std::env::var_os("DAP_BENCH_NO_ASSERT").is_none() {
        assert!(
            largest.4 >= 10.0,
            "maintained deltas must be >=10x faster than full re-evaluation \
             at the largest size (measured {:.1}x)",
            largest.4
        );
    }
    println!(
        "acceptance: maintained deltas are {:.1}x faster at |view|={} (bar: 10x)",
        largest.4, largest.0
    );
}
