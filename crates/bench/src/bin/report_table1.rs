//! Regenerate **Table 1** (§2.1, side-effect-free view deletion): the
//! paper's complexity rows plus measured evidence for each row — solver
//! runtimes across a size sweep and reduction/oracle agreement counts —
//! and the Cui–Widom lineage baseline (\[14\]) timed against the
//! witness-hypergraph solver on the same decisions.
//!
//! ```text
//! cargo run --release -p dap-bench --bin report_table1
//! ```

use dap_bench::lineage_baseline::side_effect_free_via_lineage;
use dap_bench::{median_time, pj_multiwitness_workload, sj_workload, spu_workload};
use dap_core::deletion::view_side_effect::{
    side_effect_free, sj_view_deletion, spu_view_deletion, ExactOptions,
};
use dap_core::reductions::{thm2_1, thm2_2};
use dap_core::{format_paper_table, Problem};
use dap_sat::{dpll, random_monotone_3sat};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("==============================================================");
    println!(" Table 1 — deciding side-effect-free view deletion (paper §2.1)");
    println!("==============================================================\n");
    println!("{}", format_paper_table(Problem::ViewSideEffect));

    println!("measured evidence (medians of 5 runs)\n");

    // --- NP-hard row 1: PJ via Theorem 2.1 ---------------------------------
    println!("Queries involving PJ — Thm 2.1 instances (monotone 3SAT, m = 1.5n):");
    println!(
        "{:>6} {:>10} {:>14} {:>10}",
        "n", "|S|", "median time", "DPLL agree"
    );
    for n in [4usize, 8, 12, 16] {
        let mut rng = StdRng::seed_from_u64(1);
        let f = random_monotone_3sat(&mut rng, n, n + n / 2);
        let red = thm2_1::reduce(&f);
        let mut agree = true;
        let t = median_time(5, || {
            let sol = side_effect_free(
                &red.instance.query,
                &red.instance.db,
                &red.instance.target,
                &ExactOptions::default(),
            )
            .expect("solves");
            agree &= sol.is_some() == dpll::is_satisfiable(&f.to_cnf());
        });
        println!(
            "{:>6} {:>10} {:>14?} {:>10}",
            n,
            red.instance.db.tuple_count(),
            t,
            if agree { "yes" } else { "NO" }
        );
        assert!(agree, "reduction must agree with DPLL");
    }

    // --- NP-hard row 2: JU via Theorem 2.2 ---------------------------------
    println!("\nQueries involving JU — Thm 2.2 instances (monotone 3SAT, m = n):");
    println!(
        "{:>6} {:>10} {:>14} {:>10}",
        "n", "|S|", "median time", "DPLL agree"
    );
    for n in [4usize, 6, 8, 10] {
        let mut rng = StdRng::seed_from_u64(2);
        let f = random_monotone_3sat(&mut rng, n, n);
        let red = thm2_2::reduce(&f);
        let mut agree = true;
        let t = median_time(5, || {
            let sol = side_effect_free(
                &red.instance.query,
                &red.instance.db,
                &red.instance.target,
                &ExactOptions::default(),
            )
            .expect("solves");
            agree &= sol.is_some() == dpll::is_satisfiable(&f.to_cnf());
        });
        println!(
            "{:>6} {:>10} {:>14?} {:>10}",
            n,
            red.instance.db.tuple_count(),
            t,
            if agree { "yes" } else { "NO" }
        );
        assert!(agree);
    }

    // --- P row 1: SPU via Theorem 2.3 --------------------------------------
    println!("\nSPU — Thm 2.3 linear scan (always side-effect-free):");
    println!("{:>8} {:>14}", "|S|", "median time");
    for size in [200usize, 800, 3200, 12800] {
        let w = spu_workload(3, size);
        let t = median_time(5, || {
            let sol = spu_view_deletion(&w.query, &w.db, &w.target).expect("solves");
            assert!(sol.is_side_effect_free());
        });
        println!("{:>8} {:>14?}", w.db.tuple_count(), t);
    }

    // --- P row 2: SJ via Theorem 2.4 ----------------------------------------
    println!("\nSJ — Thm 2.4 component scan:");
    println!("{:>8} {:>14}", "|S|", "median time");
    for size in [100usize, 400, 1600, 6400] {
        let w = sj_workload(4, size);
        let t = median_time(5, || {
            let _ = sj_view_deletion(&w.query, &w.db, &w.target).expect("solves");
        });
        println!("{:>8} {:>14?}", w.db.tuple_count(), t);
    }

    // --- Baseline: Cui–Widom lineage enumeration [14] ----------------------
    println!("\nLineage baseline [14] vs witness hypergraph — PJ user/group/file:");
    println!(
        "{:>10} {:>8} {:>14} {:>14} {:>8}",
        "witnesses", "|S|", "hypergraph", "lineage", "agree"
    );
    for groups in [2usize, 3, 4] {
        let w = pj_multiwitness_workload(3, groups, 3);
        let mut fast = None;
        let th = median_time(5, || {
            fast = Some(
                side_effect_free(&w.query, &w.db, &w.target, &ExactOptions::default())
                    .expect("solves")
                    .is_some(),
            );
        });
        let mut slow = None;
        let tl = median_time(5, || {
            slow = Some(
                side_effect_free_via_lineage(&w.query, &w.db, &w.target)
                    .expect("solves")
                    .is_some(),
            );
        });
        let agree = fast == slow;
        println!(
            "{:>10} {:>8} {:>14?} {:>14?} {:>8}",
            groups,
            w.db.tuple_count(),
            th,
            tl,
            if agree { "yes" } else { "NO" }
        );
        assert!(agree, "the lineage baseline must reach the same decision");
    }

    println!("\nshape check: PJ/JU rows grow super-linearly in the encoded formula;");
    println!("SPU/SJ rows grow ~linearly in |S| — the dichotomy of Table 1. The lineage");
    println!("baseline re-evaluates the query per candidate, so its cost grows with the");
    println!("witness count far faster than the hypergraph solver's.");
}
