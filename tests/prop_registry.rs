//! Differential property tests for the **shared-plan registry**
//! (`dap_relalg::PlanRegistry`): a registry serving N standing queries
//! over one hash-consed DAG must keep every query's view equal to a fresh
//! evaluation of the deleted-from database.
//!
//! * under random deletion batches over random `(Q₁..Qₙ, S)`, every
//!   registered query's full annotated view must equal a fresh
//!   `eval_annotated` over `S ∖ committed` after **every** batch, for all
//!   five annotation instances (annotations compared through the monotone
//!   tid renumbering `S ∖ committed` applies — see `common::remap_table`),
//!   and each per-batch `ViewDelta` must be exactly the difference between
//!   consecutive views;
//! * queries registered **mid-stream** (after deletions committed) must
//!   come up equal to the fresh evaluation of the committed prefix, and
//!   unregistering must not disturb the surviving queries;
//! * a registry-backed `DeletionContext` must track a context over its own
//!   private registry commit for commit — same deltas, same
//!   why-provenance, same committed set.

mod common;

use common::{
    check_delta, check_matches_fresh, pick_batches, small_database, typed_query, view_of, CanonAnn,
};
use dap::prelude::*;
use dap::provenance::{ExprAnn, LineageAnn, LocationsAnn, WitnessesAnn};
use dap::relalg::Unit;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Drive N queries through a deletion sequence on one shared registry,
/// checking every query's delta and view against fresh evaluation after
/// every batch.
fn check_instance<A: CanonAnn>(
    queries: &[Query],
    db: &Database,
    batches: &[Vec<Tid>],
) -> std::result::Result<(), TestCaseError> {
    let mut reg = PlanRegistry::<A>::new(db);
    let ids: Vec<QueryId> = queries
        .iter()
        .map(|q| reg.register(q).expect("typed queries register"))
        .collect();
    let mut views: Vec<Vec<(Tuple, A)>> = ids.iter().map(|&id| view_of(&reg, id)).collect();
    for batch in batches {
        let deltas = reg.delete_sources(batch);
        prop_assert_eq!(deltas.len(), ids.len(), "one delta per registered query");
        // `delete_sources` reports in QueryId (= registration) order.
        for (((id, delta), q), before) in deltas.iter().zip(queries).zip(&mut views) {
            let after = view_of(&reg, *id);
            check_delta(before, &after, delta)?;
            check_matches_fresh(&after, q, db, reg.committed())?;
            *before = after;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shared-registry maintenance equals fresh evaluation after every
    /// deletion batch, for all five annotation instances.
    #[test]
    fn registry_matches_fresh_eval_for_all_instances(
        qs in proptest::collection::vec(typed_query(), 1..4),
        db in small_database(),
        picks in proptest::collection::vec(
            proptest::collection::vec(any::<prop::sample::Index>(), 1..4), 1..4),
    ) {
        let queries: Vec<Query> = qs.into_iter().map(|(q, _)| q).collect();
        let batches = pick_batches(&db, &picks);
        check_instance::<Unit>(&queries, &db, &batches)?;
        check_instance::<WitnessesAnn>(&queries, &db, &batches)?;
        check_instance::<LocationsAnn>(&queries, &db, &batches)?;
        check_instance::<LineageAnn>(&queries, &db, &batches)?;
        check_instance::<ExprAnn>(&queries, &db, &batches)?;
    }

    /// Mid-stream registrations replay the committed prefix (coming up
    /// equal to a fresh evaluation of it), and unregistering one query
    /// never disturbs the survivors.
    #[test]
    fn register_and_unregister_mid_stream_stay_consistent(
        qs in proptest::collection::vec(typed_query(), 2..4),
        db in small_database(),
        picks in proptest::collection::vec(
            proptest::collection::vec(any::<prop::sample::Index>(), 1..4), 2..4),
    ) {
        let queries: Vec<Query> = qs.into_iter().map(|(q, _)| q).collect();
        let batches = pick_batches(&db, &picks);
        let mut reg = PlanRegistry::<WitnessesAnn>::new(&db);
        let first = reg.register(&queries[0]).expect("registers");
        // Commit the first batch with only `queries[0]` registered.
        reg.delete_sources(&batches[0]);
        // Late joiners observe the deleted-from database immediately.
        let mut survivors = Vec::new();
        for q in &queries[1..] {
            let id = reg.register(q).expect("registers mid-stream");
            let view = view_of(&reg, id);
            check_matches_fresh(&view, q, &db, reg.committed())?;
            survivors.push((id, q, view));
        }
        // Unregistering the founding query leaves the late joiners intact —
        // through every remaining batch.
        prop_assert!(reg.unregister(first));
        prop_assert!(!reg.unregister(first), "double unregister is a no-op");
        for batch in &batches[1..] {
            let deltas = reg.delete_sources(batch);
            prop_assert_eq!(deltas.len(), survivors.len());
            for (id, q, before) in &mut survivors {
                let delta = &deltas
                    .iter()
                    .find(|(qid, _)| qid == id)
                    .expect("survivor keeps its delta stream")
                    .1;
                let after = view_of(&reg, *id);
                check_delta(before, &after, delta)?;
                check_matches_fresh(&after, q, &db, reg.committed())?;
                *before = after;
            }
        }
    }

    /// A registry-backed `DeletionContext` tracks a context over its own
    /// private registry commit for commit: same per-batch deltas, same
    /// why-provenance, same committed set.
    #[test]
    fn registry_backed_context_matches_owned_context(
        (q, _) in typed_query(),
        db in small_database(),
        picks in proptest::collection::vec(
            proptest::collection::vec(any::<prop::sample::Index>(), 1..4), 1..4),
    ) {
        let batches = pick_batches(&db, &picks);
        let mut owned = DeletionContext::new(&q, &db).expect("builds");
        let mut reg = PlanRegistry::<WitnessesAnn>::new(&db);
        let mut shared = DeletionContext::new_in_registry(&mut reg, &q).expect("registers");
        for batch in batches {
            let set: BTreeSet<Tid> = batch.into_iter().collect();
            let d_owned = owned.apply_delete(&set);
            let d_shared = shared.apply_delete_in(&mut reg, &set);
            prop_assert_eq!(&d_owned.removed, &d_shared.removed);
            prop_assert_eq!(&d_owned.changed, &d_shared.changed);
            prop_assert_eq!(owned.view_len(), shared.view_len());
            prop_assert_eq!(owned.committed(), shared.committed());
            for t in owned.why().tuples() {
                prop_assert_eq!(
                    owned.why().witnesses_of(t),
                    shared.why().witnesses_of(t),
                    "witness basis diverged for {}",
                    t
                );
            }
        }
    }
}
