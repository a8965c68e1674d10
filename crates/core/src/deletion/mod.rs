//! Deletion propagation (Section 2 of the paper).
//!
//! Given `(Q, S, t ∈ Q(S))`, find `T ⊆ S` whose deletion removes `t`,
//! minimizing either the **view side-effect** `|ΔV|` (other view tuples
//! lost, §2.1) or the **source side-effect** `|T|` (§2.2). Solvers:
//!
//! | module | algorithm | paper result |
//! |--------|-----------|--------------|
//! | [`view_side_effect`] | exact branch-and-bound over minimal hitting sets of the witness hypergraph; poly specializations for SPU / SJ | Thms 2.1–2.4 |
//! | [`source_side_effect`] | exact minimum hitting set + greedy `H_n` approximation; poly SPU / SJ | Thms 2.5, 2.7–2.9 |
//! | [`chain`] | min-cut over the layered witness network for chain joins | Thm 2.6 |
//! | [`crate::ilp`] | unified 0/1-ILP over the witness hypergraph (both objectives, weights, multi-tuple targets) | all of §2, generalized |
//!
//! The searches share two substrates: [`index::WitnessIndex`], the
//! incremental witness-hypergraph index that makes per-node side-effect
//! counting `O(Δ)`, and [`context::DeletionContext`], which materializes the
//! why-provenance once per `(Q, S)` and stamps out per-target instances.
//! [`DeletionContext::solve`] routes every deletion solve to one of these
//! arms by the query's dichotomy class.

pub mod chain;
pub mod context;
pub mod index;
pub mod instance;
pub mod keyed;
pub mod source_side_effect;
pub mod view_side_effect;

pub use context::DeletionContext;
pub use index::WitnessIndex;
pub use instance::DeletionInstance;

use dap_relalg::{Tid, Tuple};
use std::collections::BTreeSet;
use std::fmt;

/// Which cost a deletion solve minimizes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Objective {
    /// View side effects `|ΔV|` (§2.1).
    View,
    /// Source deletions `|T|` (§2.2).
    Source,
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Objective::View => "view",
            Objective::Source => "source",
        })
    }
}

/// A solution to either deletion problem: the source tuples to delete and
/// the resulting collateral damage in the view.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Deletion {
    /// Source tuples to delete (the paper's `T`).
    pub deletions: BTreeSet<Tid>,
    /// View tuples other than the target that disappear (the paper's `ΔV`).
    pub view_side_effects: BTreeSet<Tuple>,
}

impl Deletion {
    /// Whether the deletion removes only the target from the view.
    pub fn is_side_effect_free(&self) -> bool {
        self.view_side_effects.is_empty()
    }

    /// `|T|`, the source-side cost.
    pub fn source_cost(&self) -> usize {
        self.deletions.len()
    }

    /// `|ΔV|`, the view-side cost.
    pub fn view_cost(&self) -> usize {
        self.view_side_effects.len()
    }
}

impl fmt::Display for Deletion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "delete {{")?;
        for (i, tid) in self.deletions.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{tid}")?;
        }
        write!(
            f,
            "}} (view side effects: {})",
            self.view_side_effects.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_and_display() {
        let d = Deletion {
            deletions: BTreeSet::from([Tid::new("R", 0), Tid::new("R", 2)]),
            view_side_effects: BTreeSet::from([dap_relalg::tuple(["x"])]),
        };
        assert_eq!(d.source_cost(), 2);
        assert_eq!(d.view_cost(), 1);
        assert!(!d.is_side_effect_free());
        assert_eq!(d.to_string(), "delete {R#0, R#2} (view side effects: 1)");
    }
}
