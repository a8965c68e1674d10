//! Differential property tests for the **hot-path data layout**
//! (`dap_relalg::fingerprint`): every layout mode must be observationally
//! identical on every serving surface.
//!
//! * interned/fingerprinted evaluation vs. the forced-collision layout:
//!   registry build and `delete_sources` maintenance produce bit-identical
//!   views, deltas and annotations for all five annotation instances;
//! * the persistent pool is invariant across thread counts
//!   (`DAP_THREADS`-equivalent pools of 1, 2 and max) *composed with*
//!   every layout mode — including `Collide`, where every fingerprint is
//!   equal and the collision-checked fallback carries the whole workload.
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
    let max_threads = std::thread::available_parallelism().map_or(2, |n| n.get());
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
