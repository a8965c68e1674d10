//! # dap — deletion & annotation propagation through relational views
//!
//! A complete, from-scratch Rust implementation of
//!
//! > Peter Buneman, Sanjeev Khanna, Wang-Chiew Tan.
//! > *On Propagation of Deletions and Annotations Through Views.*
//! > PODS 2002, pp. 150–158.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`relalg`] — set-semantics relational algebra for the monotone SPJRU
//!   fragment: values, relations, databases, the query AST, parser,
//!   evaluator, and the union normal form (Theorem 3.1);
//! * [`provenance`] — minimal witnesses (why-provenance), where-provenance,
//!   and the paper's forward annotation-propagation rules;
//! * [`sat`] — monotone 3SAT and a DPLL solver (reduction oracle);
//! * [`setcover`] — hitting set / set cover, greedy and exact;
//! * [`flow`] — Dinic max-flow with node splitting (Theorem 2.6);
//! * [`core`] — the paper's contribution: deletion propagation (view- and
//!   source-side-effect minimization) routed by the dichotomy, annotation
//!   placement, and the executable hardness reductions with the paper's
//!   Figures 1–3;
//! * [`durability`] — the checksummed write-ahead commit log, snapshots
//!   with a durable view catalog, and crash recovery for the served state;
//! * [`serve`] — the long-lived localhost TCP server over the durable
//!   state: framed wire protocol, admission control with load shedding,
//!   per-session fault isolation, graceful drain, and a retrying client.
//!
//! ## Quickstart
//!
//! ```
//! use dap::prelude::*;
//!
//! let db = parse_database(
//!     "relation UserGroup(user, grp) { (ann, staff), (bob, staff), (bob, dev) }
//!      relation GroupFile(grp, file) { (staff, report), (dev, main), (dev, report) }",
//! ).unwrap();
//! let q = parse_query(
//!     "project(join(scan UserGroup, scan GroupFile), [user, file])",
//! ).unwrap();
//!
//! // Delete (bob, report) from the view with minimum view side effects.
//! let (deletion, solver) = delete_min_view_side_effects(&q, &db, &tuple(["bob", "report"])).unwrap();
//! assert!(deletion.is_side_effect_free());
//! println!("{deletion} via {solver}");
//!
//! // Annotate (ann, report).user in the view, spreading minimally.
//! let (placement, _) = place_annotation(&q, &db, &ViewLoc::new(tuple(["ann", "report"]), "user")).unwrap();
//! assert!(placement.is_side_effect_free());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use dap_core as core;
pub use dap_durability as durability;
pub use dap_flow as flow;
pub use dap_provenance as provenance;
pub use dap_relalg as relalg;
pub use dap_sat as sat;
pub use dap_serve as serve;
pub use dap_setcover as setcover;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use dap_core::deletion::keyed::{is_keyed, keyed_side_effect_free, keyed_view_deletion};
    pub use dap_core::deletion::view_side_effect::ExactOptions;
    pub use dap_core::dichotomy::delete_min_view_side_effects_with_fds;
    pub use dap_core::{
        complexity, delete_min_source, delete_min_view_side_effects, format_paper_table,
        paper_table, place_annotation, place_annotations, Complexity, CoreError, Deletion,
        DeletionContext, DeletionInstance, IlpOptions, IlpRequest, Objective, Placement,
        PlacementIndex, Problem, SolverKind, WitnessIndex,
    };
    pub use dap_durability::{
        recover, recover_with, CommitLog, DurableOptions, DurableState, FsyncMode, LogFile,
        LogRecord, MemLog, RecoveryReport, Snapshot, StdLogFile,
    };
    pub use dap_provenance::{
        lineage, minimal_witnesses, participating_tids, propagate, propagate_all, provenance_exprs,
        where_provenance, why_provenance, AnnotationStore, BoolExpr, PropagationIndex, SourceLoc,
        ViewLoc, Witness,
    };
    pub use dap_relalg::{
        eval, eval_annotated, force_layout, intern, interned_count, normalize, parse_database,
        parse_pred, parse_query, schema, tuple, Annotation, Attr, Database, Fd, FdCatalog,
        LayoutMode, OpFootprint, ParPool, PlanRegistry, Pred, Query, QueryId, RelName, Relation,
        Schema, SubscriberId, Sym, Tid, Tuple, Value, ViewDelta,
    };
    pub use dap_serve::{Client, Response, ServeOptions, Server, ServerHandle};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_whole_pipeline() {
        let db = parse_database(
            "relation R(A, B) { (a, x) }
             relation S(B, C) { (x, c) }",
        )
        .unwrap();
        let q = parse_query("project(join(scan R, scan S), [A, C])").unwrap();
        let view = eval(&q, &db).unwrap();
        assert_eq!(view.len(), 1);
        let fp = OpFootprint::of(&q);
        assert_eq!(complexity(Problem::ViewSideEffect, &fp), Complexity::NpHard);
        let (d, _) = delete_min_source(&q, &db, &tuple(["a", "c"])).unwrap();
        assert_eq!(d.source_cost(), 1);
    }
}
