//! Print the paper's **Figures 1–3** exactly as constructed by the
//! reduction code, then solve each, verify it against its oracle, and time
//! building and solving it (median of 5 runs).
//!
//! ```text
//! cargo run --release -p dap-bench --bin report_figures
//! ```

use dap_bench::median_time;
use dap_core::deletion::source_side_effect::min_source_deletion;
use dap_core::deletion::view_side_effect::{side_effect_free, ExactOptions};
use dap_core::figures;
use dap_sat::dpll;
use dap_setcover::exact_hitting_set;

fn main() {
    // ---------------- Figure 1 ----------------
    let fig1 = figures::figure1();
    println!("=====================================================");
    println!(" Figure 1 — relations involved in the reduction of Thm 2.1");
    println!(" formula: {}", fig1.formula);
    println!("=====================================================\n");
    println!("{}", figures::render_instance(&fig1.instance));
    let sat = dpll::is_satisfiable(&fig1.formula.to_cnf());
    let mut exists = false;
    let t = median_time(5, || {
        let fig = figures::figure1();
        exists = side_effect_free(
            &fig.instance.query,
            &fig.instance.db,
            &fig.instance.target,
            &ExactOptions::default(),
        )
        .expect("solves")
        .is_some();
    });
    println!(
        "\ngoal: delete (a, c). side-effect-free deletion exists: {exists} (DPLL: {sat}); \
         built and solved in {t:?}"
    );
    assert_eq!(exists, sat);

    // ---------------- Figure 2 ----------------
    let fig2 = figures::figure2();
    println!("\n=====================================================");
    println!(" Figure 2 — example reduction in Thm 2.2 (same formula)");
    println!("=====================================================\n");
    // The paper prints the 16 unary relations in a grid; we list them.
    for rel in fig2.instance.db.relations() {
        let row = &rel.tuples()[0];
        println!("{:5} {} = {{ {} }}", rel.name(), rel.schema(), row);
    }
    println!("\nquery: union of {} join branches", {
        // count scans / 2 per branch
        fig2.instance.query.scans().len() / 2
    });
    let view = dap_relalg::eval(&fig2.instance.query, &fig2.instance.db).expect("evaluates");
    println!("\n{}", view.to_table_string("output"));
    let mut exists = false;
    let t = median_time(5, || {
        let fig = figures::figure2();
        exists = side_effect_free(
            &fig.instance.query,
            &fig.instance.db,
            &fig.instance.target,
            &ExactOptions::default(),
        )
        .expect("solves")
        .is_some();
    });
    println!(
        "goal: delete (T, F). side-effect-free deletion exists: {exists}; \
         built and solved in {t:?}"
    );
    assert_eq!(exists, dpll::is_satisfiable(&fig2.formula.to_cnf()));

    // ---------------- Figure 3 ----------------
    let fig3 = figures::figure3();
    println!("\n=====================================================");
    println!(" Figure 3 — relations involved in the reduction of Thm 2.5");
    println!(" hitting set: {}", fig3.hitting_set);
    println!("=====================================================\n");
    println!("{}", figures::render_instance(&fig3.instance));
    let hs_opt = exact_hitting_set(&fig3.hitting_set).len();
    let mut cost = 0;
    let t = median_time(5, || {
        let fig = figures::figure3();
        cost = min_source_deletion(&fig.instance.query, &fig.instance.db, &fig.instance.target)
            .expect("solves")
            .source_cost();
    });
    println!(
        "\ngoal: delete (c) with minimum source deletions.\n\
         minimum source deletion = {cost} tuples; minimum hitting set = {hs_opt} elements; \
         built and solved in {t:?}"
    );
    assert_eq!(cost, hs_opt);
    println!("\nall three figures verified against their oracles.");
}
