//! Differential property tests for the **hot-path data layout**
//! (`dap_relalg::fingerprint`): every layout mode must be observationally
//! identical on every serving surface.
//!
//! * interned/fingerprinted evaluation vs. the forced-collision layout:
//!   registry build and `delete_sources` maintenance produce bit-identical
//!   views, deltas and annotations for all five annotation instances;
//! * the sharded builds are invariant across explicit pools of 1, 2 and
//!   max threads *composed with* every layout mode — including `Collide`,
//!   where every fingerprint is equal and the collision-checked fallback
//!   carries the whole workload. The proptest databases stay below the
//!   build grain, so a fixed above-grain input ([`large_fixture`]) makes
//!   the join, scan and ⊕-bucket kernels actually shard.
//!
//! `force_layout` is process-global and the test binary runs cases on
//! multiple threads; that is safe here precisely because of the property
//! under test — every mode yields identical output, so a structure built
//! under a raced mode still satisfies every assertion.

mod common;

use common::{pick_batches, small_database, typed_query, view_of};
use dap::prelude::*;
use dap::provenance::{ExprAnn, LineageAnn, LocationsAnn, WitnessesAnn};
use dap::relalg::{force_layout, Annotated, LayoutMode, Unit};
use proptest::prelude::*;
use std::fmt::Debug;

/// Everything a serving scenario observably produces: the registered
/// view as built, then the per-batch deltas and the final view.
type Transcript<A> = (Vec<(Tuple, A)>, Vec<ViewDelta>, Vec<(Tuple, A)>);

/// Run the full serving scenario — registry build, then `delete_sources`
/// maintenance — under one layout mode and pool size.
fn run_scenario<A: Annotation + Debug>(
    q: &Query,
    db: &Database,
    batches: &[Vec<Tid>],
    mode: LayoutMode,
    threads: usize,
) -> Transcript<A> {
    force_layout(Some(mode));
    let mut reg = PlanRegistry::<A>::with_pool(db, ParPool::new(threads));
    let id = reg.register(q).expect("typed query registers");
    let built = view_of(&reg, id);
    let deltas: Vec<ViewDelta> = batches
        .iter()
        .map(|b| {
            let mut per_query = reg.delete_sources(b);
            assert_eq!(per_query.len(), 1);
            per_query.remove(0).1
        })
        .collect();
    let last = view_of(&reg, id);
    force_layout(None);
    (built, deltas, last)
}

/// The same scenario under every layout mode and pool size must transcribe
/// identically; the first configuration is the reference.
fn check_instance<A: Annotation + Debug>(
    q: &Query,
    db: &Database,
    batches: &[Vec<Tid>],
) -> std::result::Result<(), TestCaseError> {
    // At least 3, so a three-way split runs even on a two-core host.
    let max_threads = std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .max(3);
    let reference = run_scenario::<A>(q, db, batches, LayoutMode::Fingerprint, 1);
    for mode in [LayoutMode::Fingerprint, LayoutMode::Collide] {
        for threads in [1, 2, max_threads] {
            let got = run_scenario::<A>(q, db, batches, mode, threads);
            prop_assert!(
                got.0 == reference.0,
                "built view diverged under {mode:?} x{threads}"
            );
            prop_assert_eq!(
                &got.1,
                &reference.1,
                "deltas diverged under {:?} x{}",
                mode,
                threads
            );
            prop_assert!(
                got.2 == reference.2,
                "maintained view diverged under {mode:?} x{threads}"
            );
        }
    }
    Ok(())
}

/// A `(Q, S)` pair big enough to cross the data-parallel build grain
/// (`UserGroup` 20×8 ⋈ `GroupFile` 8×20: 160 rows a side, 3,200 join rows
/// projected onto 400), plus fixed deletion batches that hit one user
/// edge, several group files, and every edge of one user.
fn large_fixture() -> (Query, Database, Vec<Vec<Tid>>) {
    let users = 20;
    let groups = 8;
    let files = 20;
    let ug: Vec<Tuple> = (0..users)
        .flat_map(|u| (0..groups).map(move |g| tuple([format!("u{u}"), format!("g{g}")])))
        .collect();
    let gf: Vec<Tuple> = (0..groups)
        .flat_map(|g| (0..files).map(move |f| tuple([format!("g{g}"), format!("f{f}")])))
        .collect();
    let db = Database::from_relations(vec![
        Relation::new("UserGroup", schema(["user", "grp"]), ug).unwrap(),
        Relation::new("GroupFile", schema(["grp", "file"]), gf).unwrap(),
    ])
    .unwrap();
    let q = parse_query("project(join(scan UserGroup, scan GroupFile), [user, file])").unwrap();
    let batches = vec![
        vec![Tid::new("UserGroup", 0)],
        vec![
            Tid::new("GroupFile", 0),
            Tid::new("GroupFile", 21),
            Tid::new("GroupFile", 42),
        ],
        (groups..2 * groups)
            .map(|row| Tid::new("UserGroup", row))
            .collect(),
    ];
    (q, db, batches)
}

/// The above-grain input through the same layout × pool transcript check
/// as the proptest below, for all five annotation instances.
#[test]
fn above_grain_build_is_bit_identical_for_all_instances() {
    let (q, db, batches) = large_fixture();
    check_instance::<Unit>(&q, &db, &batches).unwrap();
    check_instance::<WitnessesAnn>(&q, &db, &batches).unwrap();
    check_instance::<LocationsAnn>(&q, &db, &batches).unwrap();
    check_instance::<LineageAnn>(&q, &db, &batches).unwrap();
    check_instance::<ExprAnn>(&q, &db, &batches).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fingerprinted and forced-collision layouts — crossed with pool
    /// sizes 1, 2 and max — are bit-identical on registry build and
    /// incremental maintenance, for all five annotation instances.
    #[test]
    fn every_layout_and_pool_size_is_bit_identical(
        (q, _schema) in typed_query(),
        db in small_database(),
        picks in proptest::collection::vec(
            proptest::collection::vec(any::<prop::sample::Index>(), 1..4), 1..3),
    ) {
        let batches = pick_batches(&db, &picks);
        check_instance::<Unit>(&q, &db, &batches)?;
        check_instance::<WitnessesAnn>(&q, &db, &batches)?;
        check_instance::<LocationsAnn>(&q, &db, &batches)?;
        check_instance::<LineageAnn>(&q, &db, &batches)?;
        check_instance::<ExprAnn>(&q, &db, &batches)?;
    }

    /// One-shot annotated evaluation (build + consume) is also
    /// layout-invariant: `eval_annotated`'s output under the collision
    /// layout equals the fingerprinted default.
    #[test]
    fn one_shot_evaluation_is_layout_invariant(
        (q, _schema) in typed_query(),
        db in small_database(),
    ) {
        force_layout(Some(LayoutMode::Fingerprint));
        let reference = eval_annotated::<WitnessesAnn>(&q, &db);
        force_layout(Some(LayoutMode::Collide));
        let collide = eval_annotated::<WitnessesAnn>(&q, &db);
        force_layout(None);
        let dump = |view: Annotated<WitnessesAnn>| -> Vec<(Tuple, WitnessesAnn)> {
            view.iter().map(|(t, a)| (t.clone(), a.clone())).collect()
        };
        match (reference, collide) {
            (Ok(reference), Ok(collide)) => {
                prop_assert!(dump(collide) == dump(reference), "collide one-shot diverged");
            }
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "layout modes disagreed about evaluability"),
        }
    }
}
