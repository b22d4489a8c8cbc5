//! Differential suite for the parallel checkpoint write pipeline.
//!
//! The serial path (`checkpoint_workers = 1`) is the oracle: for any
//! scripted session, any worker count must produce
//!
//! 1. **byte-identical store contents** — same blob ids, same bytes, in
//!    the same order (writes never leave the session thread; only
//!    serialization and CRC sealing fan out);
//! 2. **identical per-cell reports** — node ids, logical checkpoint bytes,
//!    physical bytes written, dedup and drop counters;
//! 3. **an identical fault ledger** when the store injects faults —
//!    [`FaultStore`] decisions are keyed, not drawn from a shared stream,
//!    so interleaving cannot perturb them;
//! 4. **dedup that never suppresses a changed payload** — with dedup on
//!    and off, every checkpoint restores the same namespace at every node.
//!
//! Scripts are generated from a seed; set `KISHU_TESTKIT_SEED` to replay.

use std::collections::BTreeMap;

use kishu::session::{CellReport, KishuConfig, KishuSession};
use kishu::NodeId;
use kishu_bench::settings::Settings;
use kishu_minipy::repr::repr;
use kishu_storage::{FaultLedgerHandle, FaultPlan, FaultStore};
use kishu_testkit::prelude::*;
use kishu_testkit::rng::Rng;

/// Worker counts under differential test; 1 is the oracle.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Generate a scripted notebook from a seed: fresh bindings, in-place
/// mutations, re-creations of identical values (the dedup bait), deletes,
/// and the occasional shared-structure cell.
fn scripted_cells(seed: u64, n_cells: usize) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut live: Vec<String> = Vec::new();
    let mut cells = Vec::new();
    let mut fresh = 0usize;
    for _ in 0..n_cells {
        let roll = rng.random_range(0..10u32);
        let cell = match roll {
            // Fresh list binding (a new co-variable).
            0..=3 => {
                let name = format!("v{fresh}");
                fresh += 1;
                let len = rng.random_range(1..6usize);
                let vals: Vec<String> =
                    (0..len).map(|_| rng.random_range(0..50i64).to_string()).collect();
                live.push(name.clone());
                format!("{name} = [{}]\n", vals.join(", "))
            }
            // In-place mutation: the payload *must* change.
            4..=5 if !live.is_empty() => {
                let name = &live[rng.random_range(0..live.len())];
                format!("{name}.append({})\n", rng.random_range(0..50i64))
            }
            // Re-create a constant value the session has likely produced
            // before — the detector fires (new object), the bytes repeat.
            6..=7 => {
                let name = format!("v{fresh}");
                fresh += 1;
                live.push(name.clone());
                format!("{name} = [1, 2, 3]\n")
            }
            // Share structure between two names (a merged co-variable).
            8 if !live.is_empty() => {
                let src = live[rng.random_range(0..live.len())].clone();
                let name = format!("v{fresh}");
                fresh += 1;
                live.push(name.clone());
                format!("{name} = {src}\n")
            }
            // Read-only cell.
            _ => "probe = 1\ndel probe\n".to_string(),
        };
        cells.push(cell);
    }
    cells
}

/// The fields of a [`CellReport`] that must agree across worker counts.
fn report_fingerprint(r: &CellReport) -> (Option<NodeId>, u64, u64, usize, usize, Vec<String>) {
    (
        r.node,
        r.checkpoint_bytes,
        r.bytes_written,
        r.blobs_dropped,
        r.blobs_deduped,
        r.updated.iter().map(|k| format!("{k:?}")).collect(),
    )
}

/// Run `cells` on an in-memory store with `workers` threads; return the
/// per-cell fingerprints and a full dump of the store (id → bytes).
fn run_plain(cells: &[String], workers: usize, dedup: bool) -> (Vec<(Option<NodeId>, u64, u64, usize, usize, Vec<String>)>, Vec<Vec<u8>>) {
    let config = KishuConfig {
        checkpoint_workers: workers,
        dedup_blobs: dedup,
        ..Settings::from_env().kishu
    };
    let mut s = Settings::from_env().in_memory_session_with(config);
    let mut reports = Vec::new();
    for cell in cells {
        let r = s.run_cell(cell).expect("generated cells parse");
        reports.push(report_fingerprint(&r));
    }
    let store = s.store();
    let blobs: Vec<Vec<u8>> = (0..store.blob_count())
        .map(|i| store.get(i).expect("in-memory blob reads back"))
        .collect();
    (reports, blobs)
}

/// Run `cells` over a fault-injecting store; return fingerprints and the
/// final fault ledger.
fn run_faulty(
    cells: &[String],
    workers: usize,
    seed: u64,
) -> (Vec<(Option<NodeId>, u64, u64, usize, usize, Vec<String>)>, kishu_storage::FaultLedger) {
    let plan = FaultPlan {
        put_transient_p: 0.08,
        get_transient_p: 0.05,
        short_write_p: 0.02,
        bit_flip_p: 0.02,
        ..FaultPlan::none()
    };
    let fault_store = FaultStore::new(Box::new(Settings::from_env().memory_store()), plan, seed);
    let ledger: FaultLedgerHandle = fault_store.ledger_handle();
    let config = KishuConfig {
        checkpoint_workers: workers,
        ..Settings::from_env().kishu
    };
    let mut s = KishuSession::new(Box::new(fault_store), config);
    let mut reports = Vec::new();
    for cell in cells {
        let r = s.run_cell(cell).expect("generated cells parse");
        reports.push(report_fingerprint(&r));
    }
    (reports, ledger.snapshot())
}

/// Render the namespace (ground truth for state equivalence).
fn snapshot(s: &KishuSession) -> BTreeMap<String, String> {
    s.interp
        .globals
        .bindings()
        .map(|(n, o)| (n.to_string(), repr(&s.interp.heap, o)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any worker count produces byte-identical store contents and
    /// identical per-cell reports vs the serial oracle.
    #[test]
    fn parallel_pipeline_matches_serial_oracle(seed in any::<u64>()) {
        let cells = scripted_cells(seed, 24);
        let (oracle_reports, oracle_blobs) = run_plain(&cells, 1, true);
        for workers in WORKER_COUNTS {
            let (reports, blobs) = run_plain(&cells, workers, true);
            prop_assert_eq!(&reports, &oracle_reports, "reports diverged at workers={}", workers);
            prop_assert_eq!(&blobs, &oracle_blobs, "store bytes diverged at workers={}", workers);
        }
    }

    /// Fault injection is independent of the pipeline width: the ledger —
    /// every injected fault, in order — is identical at every worker count.
    #[test]
    fn fault_ledger_is_identical_at_every_worker_count(seed in any::<u64>()) {
        let cells = scripted_cells(seed, 20);
        let (oracle_reports, oracle_ledger) = run_faulty(&cells, 1, seed ^ 0xFA17);
        for workers in WORKER_COUNTS {
            let (reports, ledger) = run_faulty(&cells, workers, seed ^ 0xFA17);
            prop_assert_eq!(&reports, &oracle_reports, "reports diverged at workers={}", workers);
            prop_assert_eq!(&ledger, &oracle_ledger, "fault ledger diverged at workers={}", workers);
        }
    }

    /// Dedup never suppresses a changed payload: with dedup on and off,
    /// checking out every node restores the same namespace.
    #[test]
    fn dedup_preserves_every_checkpoint(seed in any::<u64>()) {
        let cells = scripted_cells(seed, 18);
        let mut with = Settings::from_env().in_memory_session_with(KishuConfig {
            dedup_blobs: true,
            ..Settings::from_env().kishu
        });
        let mut without = Settings::from_env().in_memory_session_with(KishuConfig {
            dedup_blobs: false,
            ..Settings::from_env().kishu
        });
        let mut nodes = Vec::new();
        for cell in &cells {
            let a = with.run_cell(cell).expect("cells parse");
            let b = without.run_cell(cell).expect("cells parse");
            prop_assert_eq!(a.node, b.node);
            prop_assert_eq!(a.checkpoint_bytes, b.checkpoint_bytes,
                "dedup must not change the logical checkpoint size");
            if let Some(n) = a.node {
                nodes.push(n);
            }
        }
        // Dedup is an optimization, never a behavior change: every past
        // state restores identically from both stores.
        for node in nodes {
            with.checkout(node).expect("checkout with dedup");
            without.checkout(node).expect("checkout without dedup");
            prop_assert_eq!(snapshot(&with), snapshot(&without), "node {:?}", node);
        }
    }
}

/// Repeat checkpoints of unchanged bytes are metadata-only: the dedup
/// counter fires and the store does not grow.
#[test]
fn repeat_payloads_are_deduplicated() {
    let mut s = Settings::from_env().in_memory_session();
    s.run_cell("x = [1, 2, 3]\n").expect("first");
    let before = s.store_stats();
    // Re-creating the same value makes a fresh object, so the conservative
    // detector fires — but the sealed bytes are identical.
    let r = s.run_cell("x = [1, 2, 3]\n").expect("repeat");
    if r.node.is_some() && !r.updated.is_empty() {
        assert!(r.blobs_deduped > 0, "repeat write must dedup: {r:?}");
        assert_eq!(r.bytes_written, 0, "no physical bytes for a pure repeat");
        assert!(r.checkpoint_bytes > 0, "logical size still counted");
        assert_eq!(s.store_stats().blobs, before.blobs, "store did not grow");
    } else {
        panic!("detector did not fire on re-creation; dedup bait needs rework");
    }
    // A genuinely changed payload is never suppressed.
    let r = s.run_cell("x.append(4)\n").expect("mutate");
    assert_eq!(r.blobs_deduped, 0, "changed bytes must not dedup");
    assert!(r.bytes_written > 0, "changed bytes must hit the store");
    let node = r.node.expect("auto checkpoint");
    s.run_cell("x = 0\n").expect("clobber");
    s.checkout(node).expect("checkout");
    assert_eq!(
        repr(&s.interp.heap, s.interp.globals.peek("x").expect("x bound")),
        "[1, 2, 3, 4]"
    );
}

/// The default worker count obeys the `KISHU_CHECKPOINT_WORKERS` override,
/// resolved through a lookup table rather than the process environment
/// (which is not safe to mutate across test threads).
#[test]
fn worker_count_default_honors_env() {
    assert!(KishuConfig::default().checkpoint_workers >= 1);
    let resolve = |v: &str| {
        Settings::from_lookup(|k| (k == "KISHU_CHECKPOINT_WORKERS").then(|| v.to_string()))
            .kishu
            .checkpoint_workers
    };
    assert_eq!((resolve("3"), resolve("0")), (3, 1));
    let cfg = KishuConfig {
        checkpoint_workers: 7,
        ..Settings::from_env().kishu
    };
    assert_eq!(cfg.checkpoint_workers, 7);
}
