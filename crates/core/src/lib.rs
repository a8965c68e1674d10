//! # dap-core — deletion propagation & annotation placement through views
//!
//! The primary contribution of Buneman, Khanna & Tan, *"On Propagation of
//! Deletions and Annotations Through Views"* (PODS 2002), implemented in
//! full:
//!
//! * **View side-effect deletion** (§2.1, Thms 2.1–2.4): delete a view
//!   tuple killing as few other view tuples as possible;
//! * **Source side-effect deletion** (§2.2, Thms 2.5–2.9): delete a view
//!   tuple with as few source deletions as possible, including the
//!   chain-join min-cut special case (Thm 2.6) and the greedy `H_n`
//!   approximation;
//! * **Annotation placement** (§3, Thms 3.2–3.4): place a source annotation
//!   reaching a given view location with minimum spread;
//! * **The dichotomy** ([`dichotomy`]): the paper's three complexity tables,
//!   and [`DeletionContext::solve`], which routes every deletion solve to
//!   the right algorithm by the query's class;
//! * **The hardness reductions** ([`reductions`]): executable constructions
//!   of Thms 2.1, 2.2, 2.5, 2.7 and 3.2 with encode/decode/verify
//!   round-trips, and the paper's Figures 1–3 regenerated exactly
//!   ([`figures`]).
//!
//! ```
//! use dap_core::dichotomy::{delete_min_source, place_annotation};
//! use dap_provenance::ViewLoc;
//! use dap_relalg::{parse_database, parse_query, tuple};
//!
//! let db = parse_database(
//!     "relation UserGroup(user, grp) { (ann, staff), (bob, staff), (bob, dev) }
//!      relation GroupFile(grp, file) { (staff, report), (dev, main) }",
//! ).unwrap();
//! let q = parse_query(
//!     "project(join(scan UserGroup, scan GroupFile), [user, file])",
//! ).unwrap();
//!
//! let (deletion, _) = delete_min_source(&q, &db, &tuple(["bob", "report"])).unwrap();
//! assert_eq!(deletion.source_cost(), 1);
//!
//! let (placement, _) = place_annotation(
//!     &q, &db, &ViewLoc::new(tuple(["ann", "report"]), "user"),
//! ).unwrap();
//! assert!(placement.is_side_effect_free());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod deletion;
pub mod dichotomy;
pub mod error;
pub mod figures;
pub mod ilp;
pub mod placement;
pub mod reductions;

pub use deletion::{Deletion, DeletionContext, DeletionInstance, Objective, WitnessIndex};
pub use dichotomy::{
    complexity, delete_min_source, delete_min_view_side_effects, format_paper_table, paper_table,
    place_annotation, place_annotations, Complexity, Problem, SolverKind,
};
pub use error::{CoreError, Result};
pub use ilp::{IlpOptions, IlpRequest};
pub use placement::generic::PlacementIndex;
pub use placement::Placement;
