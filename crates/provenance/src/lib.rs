//! # dap-provenance — witnesses, why/where-provenance, annotations
//!
//! The provenance machinery underlying both problems in Buneman, Khanna &
//! Tan's *"On Propagation of Deletions and Annotations Through Views"* (PODS
//! 2002):
//!
//! * **Why-provenance** ([`why_provenance`]): for every output tuple, its
//!   minimal witnesses — the basis of deletion propagation (an output tuple
//!   dies iff every minimal witness is hit).
//! * **Where-provenance** ([`where_provenance`]): for every view *location*
//!   `(t, A)`, the source locations whose annotations propagate there — the
//!   basis of annotation placement.
//! * **Forward annotation propagation** ([`propagate`]): the paper's five
//!   propagation rules executed forwards, independently implemented and
//!   cross-checked against inverted where-provenance.
//! * **Lineage** ([`lineage()`](lineage::lineage)): the Cui–Widom baseline the paper contrasts
//!   with ([14, 15]).
//!
//! All of these are instances of **one** generic annotated evaluation: the
//! [`engine`] module supplies the [`dap_relalg::Annotation`] carriers
//! (witness sets, per-attribute location sets, tuple-id sets, Boolean
//! expressions) and `dap_relalg::eval_annotated` performs the single tree
//! walk. The original standalone walks are the differential-test oracles
//! in `tests/support/legacy_walks.rs`, outside the shipped crates.
//!
//! ```
//! use dap_provenance::{why_provenance, where_provenance};
//! use dap_relalg::{parse_database, parse_query, tuple};
//!
//! let db = parse_database(
//!     "relation R(A, B) { (a, x1), (a, x2) }
//!      relation S(B, C) { (x1, c), (x2, c) }",
//! ).unwrap();
//! let q = parse_query("project(join(scan R, scan S), [A, C])").unwrap();
//!
//! let why = why_provenance(&q, &db).unwrap();
//! assert_eq!(why.witnesses_of(&tuple(["a", "c"])).unwrap().len(), 2);
//!
//! let wp = where_provenance(&q, &db).unwrap();
//! assert_eq!(wp.locations_of(&tuple(["a", "c"]), &"A".into()).unwrap().len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod annotate;
pub mod boolexpr;
pub mod engine;
pub mod lineage;
pub mod location;
pub mod store;
pub mod where_prov;
pub mod why;
pub mod witness;

pub use annotate::{propagate, propagate_all, PropagationIndex};
pub use boolexpr::{provenance_exprs, BoolExpr, ProvenanceExprs};
pub use engine::{ExprAnn, LineageAnn, LocationsAnn, WitnessesAnn};
pub use lineage::{
    lineage, lineage_from_why, lineage_size, lineage_support, participating_tids, Lineage,
};
pub use location::{SourceLoc, ViewLoc};
pub use store::{AnnotatedRow, AnnotatedView, AnnotationStore};
pub use where_prov::{where_provenance, WhereProvenance};
pub use why::{minimal_witnesses, why_provenance, WhyProvenance};
pub use witness::{is_minimal_witness, is_sufficient, minimize, support, Witness};
