//! Exact branch-and-bound solvers for hitting set / set cover.
//!
//! Exponential in the worst case (the problems are NP-hard — that is the
//! point of Theorems 2.5 and 2.7), but with greedy upper bounds and a
//! disjoint-set lower bound they handle the instance sizes the paper
//! reports sweep. The exact optimum is what the greedy's measured
//! approximation ratio in `report_table2` is computed against.

use crate::greedy::{greedy_hitting_set, greedy_set_cover};
use crate::instance::{HittingSet, SetCover};
use std::collections::BTreeSet;

/// An optimal (minimum-cardinality) hitting set.
pub fn exact_hitting_set(inst: &HittingSet) -> BTreeSet<usize> {
    exact_hitting_set_bounded(inst, u64::MAX).expect("an unbounded search always finishes")
}

/// [`exact_hitting_set`] capped at `budget` search nodes: `None` once the
/// branch-and-bound would visit more than `budget` nodes.
pub fn exact_hitting_set_bounded(inst: &HittingSet, budget: u64) -> Option<BTreeSet<usize>> {
    // Greedy gives the initial upper bound.
    let mut best = greedy_hitting_set(inst);
    let mut current = BTreeSet::new();
    let mut nodes_left = budget;
    branch(inst, &mut current, &mut best, &mut nodes_left)?;
    Some(best)
}

/// Lower bound: a maximal collection of pairwise-disjoint un-hit sets —
/// each needs its own element.
fn disjoint_lower_bound(inst: &HittingSet, hit: &[bool]) -> usize {
    let mut used: BTreeSet<usize> = BTreeSet::new();
    let mut count = 0;
    for (i, s) in inst.sets.iter().enumerate() {
        if !hit[i] && s.iter().all(|x| !used.contains(x)) {
            used.extend(s.iter().copied());
            count += 1;
        }
    }
    count
}

/// Explore the subtree below `current`; `None` once `nodes_left` runs out.
fn branch(
    inst: &HittingSet,
    current: &mut BTreeSet<usize>,
    best: &mut BTreeSet<usize>,
    nodes_left: &mut u64,
) -> Option<()> {
    *nodes_left = nodes_left.checked_sub(1)?;
    let hit: Vec<bool> = inst.sets.iter().map(|s| !s.is_disjoint(current)).collect();
    // Find the smallest un-hit set to branch on (fail-first heuristic).
    let next = inst
        .sets
        .iter()
        .enumerate()
        .filter(|(i, _)| !hit[*i])
        .min_by_key(|(_, s)| s.len());
    let Some((_, set)) = next else {
        // Everything hit: record if better.
        if current.len() < best.len() {
            *best = current.clone();
        }
        return Some(());
    };
    // Prune with the lower bound.
    if current.len() + disjoint_lower_bound(inst, &hit) >= best.len() {
        return Some(());
    }
    for &x in set {
        current.insert(x);
        branch(inst, current, best, nodes_left)?;
        current.remove(&x);
    }
    Some(())
}

/// An optimal set cover, or `None` if infeasible. Solved via the hitting-set
/// dual.
pub fn exact_set_cover(inst: &SetCover) -> Option<BTreeSet<usize>> {
    if !inst.is_feasible() {
        return None;
    }
    // Greedy upper bound.
    let mut best = greedy_set_cover(inst)?;
    let mut current = BTreeSet::new();
    cover_branch(inst, 0, &mut current, &mut best);
    Some(best)
}

fn cover_branch(
    inst: &SetCover,
    _depth: usize,
    current: &mut BTreeSet<usize>,
    best: &mut BTreeSet<usize>,
) {
    // Uncovered elements.
    let mut covered: BTreeSet<usize> = BTreeSet::new();
    for &i in current.iter() {
        covered.extend(inst.sets[i].iter().copied());
    }
    let uncovered: Vec<usize> = (0..inst.universe)
        .filter(|x| !covered.contains(x))
        .collect();
    if uncovered.is_empty() {
        if current.len() < best.len() {
            *best = current.clone();
        }
        return;
    }
    if current.len() + 1 >= best.len() {
        return;
    }
    // Branch on the candidate sets containing the first uncovered element.
    let x = uncovered[0];
    for (i, s) in inst.sets.iter().enumerate() {
        if s.contains(&x) && !current.contains(&i) {
            current.insert(i);
            cover_branch(inst, _depth + 1, current, best);
            current.remove(&i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_hitting_set;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hs(sets: &[&[usize]]) -> HittingSet {
        let n = sets
            .iter()
            .flat_map(|s| s.iter())
            .max()
            .map_or(0, |m| m + 1);
        HittingSet::new(
            n,
            sets.iter().map(|s| s.iter().copied().collect()).collect(),
        )
        .unwrap()
    }

    /// Reference: brute force over all element subsets (≤ 16 elements).
    fn brute_optimum(inst: &HittingSet) -> usize {
        assert!(inst.num_elements <= 16);
        (0u32..(1 << inst.num_elements))
            .filter_map(|bits| {
                let chosen: BTreeSet<usize> = (0..inst.num_elements)
                    .filter(|i| bits & (1 << i) != 0)
                    .collect();
                inst.is_hitting(&chosen).then_some(chosen.len())
            })
            .min()
            .expect("always feasible: choose everything")
    }

    #[test]
    fn exact_on_small_instances() {
        let h = hs(&[&[0, 1], &[1, 2], &[0, 2]]);
        let sol = exact_hitting_set(&h);
        assert!(h.is_hitting(&sol));
        assert_eq!(sol.len(), 2);

        let h = hs(&[&[0, 5], &[1, 5], &[2, 5]]);
        assert_eq!(exact_hitting_set(&h).len(), 1);
    }

    #[test]
    fn node_budget_bounds_the_search() {
        // Greedy finds a 2-element cover and the disjoint bound is 1, so
        // the root must branch: one node is not enough.
        let triangle = hs(&[&[0, 1], &[1, 2], &[0, 2]]);
        assert_eq!(exact_hitting_set_bounded(&triangle, 1), None);
        let sol = exact_hitting_set_bounded(&triangle, u64::MAX).expect("unbounded");
        assert!(triangle.is_hitting(&sol));
        assert_eq!(sol.len(), brute_optimum(&triangle));
    }

    #[test]
    fn exact_beats_or_ties_greedy_everywhere() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..40 {
            let inst = random_hitting_set(&mut rng, 10, 8, 3);
            let exact = exact_hitting_set(&inst);
            let greedy = greedy_hitting_set(&inst);
            assert!(inst.is_hitting(&exact));
            assert!(inst.is_hitting(&greedy));
            assert!(exact.len() <= greedy.len());
            assert_eq!(exact.len(), brute_optimum(&inst), "instance {inst}");
        }
    }

    #[test]
    fn exact_set_cover_small() {
        let sc = SetCover::new(
            6,
            vec![
                BTreeSet::from([0, 1]),
                BTreeSet::from([2, 3]),
                BTreeSet::from([4, 5]),
                BTreeSet::from([0, 2, 4]),
                BTreeSet::from([1, 3, 5]),
            ],
        )
        .unwrap();
        let sol = exact_set_cover(&sc).expect("feasible");
        assert!(sc.is_cover(&sol));
        assert_eq!(sol.len(), 2, "the two triples are optimal");
        let infeasible = SetCover::new(3, vec![BTreeSet::from([0])]).unwrap();
        assert!(exact_set_cover(&infeasible).is_none());
    }

    #[test]
    fn exact_cover_agrees_with_hitting_dual() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20 {
            let inst = random_hitting_set(&mut rng, 8, 6, 3);
            let hs_opt = exact_hitting_set(&inst).len();
            let sc_opt = exact_set_cover(&inst.to_set_cover())
                .expect("feasible")
                .len();
            assert_eq!(hs_opt, sc_opt, "duality preserves the optimum");
        }
    }
}
