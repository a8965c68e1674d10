//! # dap-setcover — set cover & hitting set
//!
//! Combinatorial substrate for the source-side-effect problem (Section 2.2
//! of the paper): the minimum source deletion for the NP-hard query classes
//! *is* a minimum hitting set over minimal witnesses, Theorems 2.5 and 2.7
//! reduce **from** hitting set, and the greedy `H_n`-approximation /
//! inapproximability threshold \[12\] transfer both ways.
//!
//! ```
//! use dap_setcover::{HittingSet, greedy_hitting_set, exact_hitting_set};
//! use std::collections::BTreeSet;
//!
//! let inst = HittingSet::new(3, vec![
//!     BTreeSet::from([0, 1]),
//!     BTreeSet::from([1, 2]),
//! ]).unwrap();
//! assert_eq!(exact_hitting_set(&inst), BTreeSet::from([1]));
//! assert!(inst.is_hitting(&greedy_hitting_set(&inst)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exact;
pub mod gen;
pub mod greedy;
pub mod instance;

pub use exact::{exact_hitting_set, exact_hitting_set_bounded, exact_set_cover};
pub use gen::{planted_hitting_set, random_hitting_set};
pub use greedy::{greedy_hitting_set, greedy_set_cover, harmonic};
pub use instance::{HittingSet, SetCover};
