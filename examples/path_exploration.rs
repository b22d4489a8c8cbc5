//! Path-based exploration (§2.1, Fig 10): train two model variants on two
//! branches of the Checkpoint Graph and hop between them at sub-second
//! cost, because the (large) input data is *identical* across branches and
//! never reloaded.
//!
//! ```text
//! cargo run --example path_exploration
//! ```

use std::time::Duration;

use kishu::session::{KishuConfig, KishuSession};

fn value(s: &mut KishuSession, expr: &str) -> String {
    s.run_cell(&format!("{expr}\n"))
        .expect("parses")
        .outcome
        .value_repr
        .unwrap_or_default()
}

fn main() {
    let mut s = KishuSession::in_memory(KishuConfig::default());

    println!("-- shared prefix: load data (t1)");
    s.run_cell("df = read_csv('features', 50000, 8, 7)\ngmm = lib_obj('sk.GaussianMixture', 262144, 1)\n")
        .expect("runs");
    let t1 = s.head();

    println!("-- branch A: fit with k=3 (t2), plot (t3)");
    s.run_cell("gmm.fit(3)\n").expect("runs");
    s.run_cell("plot = gmm.result(64)\n").expect("runs");
    let t3 = s.head();
    let plot_a = value(&mut s, "plot.sum()");
    println!("   branch A plot fingerprint: {plot_a}");

    println!("-- checkout t1, branch B: fit with k=10 (t4), plot (t5)");
    s.checkout(t1).expect("back to the fork");
    s.run_cell("gmm.fit(10)\n").expect("runs");
    s.run_cell("plot = gmm.result(64)\n").expect("runs");
    let t5 = s.head();
    let plot_b = value(&mut s, "plot.sum()");
    println!("   branch B plot fingerprint: {plot_b}");

    println!("-- the graph now holds both branches:");
    for line in s.log() {
        println!("   {line}");
    }

    println!("-- switch back and forth; df is identical and never reloaded");
    for (label, target, expected) in [("A", t3, &plot_a), ("B", t5, &plot_b), ("A", t3, &plot_a)] {
        let report = s.checkout(target).expect("switch");
        let now = value(&mut s, "plot.sum()");
        assert_eq!(&now, expected, "branch {label} state restored exactly");
        println!(
            "   -> branch {label}: loaded {} co-variable(s), {} identical untouched, {:?}",
            report.loaded.len(),
            report.identical,
            Duration::from_nanos(report.co_wall_ns)
        );
    }
}
