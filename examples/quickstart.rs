//! Quickstart: attach Kishu to a notebook session, make a mistake, and
//! time-travel back — the §2.1 "un-drop a dataframe column" scenario.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::time::Duration;

use kishu::session::{KishuConfig, KishuSession};

fn main() {
    // `init`: attach Kishu to a fresh kernel. The namespace is patched and
    // the Checkpoint Graph initialized; every cell below is incrementally
    // checkpointed automatically.
    let mut session = KishuSession::in_memory(KishuConfig::default());

    let run = |s: &mut KishuSession, src: &str| {
        let report = s.run_cell(src).expect("cell parses");
        if let Some(e) = &report.outcome.error {
            println!("!! cell raised: {e}");
        }
        for line in &report.outcome.output {
            println!("   {line}");
        }
        if let Some(v) = &report.outcome.value_repr {
            println!("   Out: {v}");
        }
        report
    };

    println!("-- load a dataset and explore it");
    run(&mut session, "df = read_csv('sales', 1000, 6, 42)\n");
    run(&mut session, "print(df.shape)\n");
    run(&mut session, "means = df.mean()\nprint(means)\n");

    // Remember where we are before the risky operation.
    let safe_point = session.head();

    println!("-- oops: drop a column we still needed");
    run(&mut session, "df = df.drop('c2')\n");
    run(&mut session, "print(len(df.columns))\n");

    println!("-- the checkpoint log so far (head marked *):");
    for line in session.log() {
        println!("   {line}");
    }

    println!("-- checkout: un-drop the column");
    let report = session.checkout(safe_point).expect("checkout succeeds");
    println!(
        "   restored {} co-variable(s) ({} bytes read), {} identical co-variable(s) untouched, in {:?}",
        report.loaded.len(),
        report.bytes_loaded,
        report.identical,
        Duration::from_nanos(report.co_wall_ns)
    );
    run(&mut session, "print(len(df.columns))\n");

    println!("-- storage used by all incremental checkpoints:");
    let stats = session.store_stats();
    println!(
        "   {} blobs, {} payload bytes",
        stats.blobs, stats.payload_bytes
    );
}
