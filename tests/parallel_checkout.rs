//! Differential suite for the parallel checkout read pipeline — the
//! read-side twin of `parallel_pipeline.rs`.
//!
//! The serial path (`restore_workers = 1`) is the oracle: for any scripted
//! session and any checkout sequence, any restore worker count must produce
//!
//! 1. **identical checkout reports** — loaded/recomputed/removed sets,
//!    bytes loaded, integrity failures, cache hits (store reads never leave
//!    the session thread; only CRC verification and the decode charge fan
//!    out, and pool results return in job order);
//! 2. **identical restored namespaces** — the ground truth of §5.2;
//! 3. **an identical fault ledger** when the store injects read faults —
//!    [`FaultStore`] decisions are keyed by `(op, operation key, attempt)`,
//!    not drawn from a shared stream, so pipeline width cannot perturb them;
//! 4. **cache transparency** — with the read cache on and off, every
//!    checkout restores the same state and reports the same attribution
//!    (only `blobs_cached` may differ);
//! 5. **graceful degradation at every width** — a corrupt blob read lands
//!    in `integrity_failures` and falls back to recomputation no matter how
//!    many restore workers verify payloads.
//!
//! Scripts are generated from a seed; set `KISHU_TESTKIT_SEED` to replay.

use std::collections::BTreeMap;

use kishu::session::{CheckoutReport, KishuConfig, KishuSession};
use kishu::NodeId;
use kishu_bench::settings::Settings;
use kishu_minipy::repr::repr;
use kishu_storage::{FaultLedgerHandle, FaultPlan, FaultStore};
use kishu_testkit::prelude::*;
use kishu_testkit::rng::Rng;

/// Restore worker counts under differential test; 1 is the oracle.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Read-cache capacity the fixtures pin (the config default's value).
const CACHE_BYTES: u64 = 32 * 1024 * 1024;

/// Generate a scripted notebook: fresh bindings, in-place mutations,
/// deletes, and shared structure — enough churn that checkouts mix loads,
/// removals, and identical skips.
fn scripted_cells(seed: u64, n_cells: usize) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut live: Vec<String> = Vec::new();
    let mut cells = Vec::new();
    let mut fresh = 0usize;
    for _ in 0..n_cells {
        let roll = rng.random_range(0..10u32);
        let cell = match roll {
            0..=3 => {
                let name = format!("v{fresh}");
                fresh += 1;
                let len = rng.random_range(1..6usize);
                let vals: Vec<String> =
                    (0..len).map(|_| rng.random_range(0..50i64).to_string()).collect();
                live.push(name.clone());
                format!("{name} = [{}]\n", vals.join(", "))
            }
            4..=6 if !live.is_empty() => {
                let name = &live[rng.random_range(0..live.len())];
                format!("{name}.append({})\n", rng.random_range(0..50i64))
            }
            7 if live.len() > 1 => {
                let name = live.remove(rng.random_range(0..live.len()));
                format!("del {name}\n")
            }
            8 if !live.is_empty() => {
                let src = live[rng.random_range(0..live.len())].clone();
                let name = format!("v{fresh}");
                fresh += 1;
                live.push(name.clone());
                format!("{name} = {src}\n")
            }
            _ => "probe = 1\ndel probe\n".to_string(),
        };
        cells.push(cell);
    }
    cells
}

/// The fields of a [`CheckoutReport`] that must agree across restore worker
/// counts (everything except wall time).
type CoFingerprint = (
    NodeId,
    Vec<String>,
    Vec<String>,
    Vec<String>,
    usize,
    u64,
    usize,
    usize,
    usize,
);

fn co_fingerprint(r: &CheckoutReport) -> CoFingerprint {
    (
        r.target,
        r.loaded.iter().map(|k| format!("{k:?}")).collect(),
        r.recomputed.iter().map(|k| format!("{k:?}")).collect(),
        r.removed.iter().map(|k| format!("{k:?}")).collect(),
        r.identical,
        r.bytes_loaded,
        r.integrity_failures,
        r.flushed,
        r.blobs_cached,
    )
}

/// Zero out `blobs_cached`, for comparing runs whose cache configuration
/// legitimately differs.
fn without_cache_field(fps: &[CoFingerprint]) -> Vec<CoFingerprint> {
    fps.iter()
        .map(|f| {
            let mut f = f.clone();
            f.8 = 0;
            f
        })
        .collect()
}

/// Render the namespace (ground truth for state equivalence).
fn snapshot(s: &KishuSession) -> BTreeMap<String, String> {
    s.interp
        .globals
        .bindings()
        .map(|(n, o)| (n.to_string(), repr(&s.interp.heap, o)))
        .collect()
}

/// A deterministic time-travel itinerary over the committed nodes: jump
/// back, bounce around the middle, and return to the tip — revisits
/// included, so the read cache actually gets hits.
fn itinerary(nodes: &[NodeId], seed: u64) -> Vec<NodeId> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x17_17);
    let mut stops = Vec::new();
    if nodes.is_empty() {
        return stops;
    }
    stops.push(nodes[0]);
    for _ in 0..6 {
        stops.push(nodes[rng.random_range(0..nodes.len())]);
    }
    stops.push(nodes[nodes.len() - 1]);
    stops.push(nodes[0]);
    stops.push(nodes[nodes.len() - 1]);
    stops
}

/// Run `cells`, then execute the checkout itinerary with `workers` restore
/// threads; return per-checkout fingerprints and post-checkout snapshots.
fn run_restore(
    cells: &[String],
    seed: u64,
    workers: usize,
    cache_bytes: u64,
) -> (Vec<CoFingerprint>, Vec<BTreeMap<String, String>>, kishu_storage::CacheStats) {
    let config = KishuConfig {
        checkpoint_workers: 1,
        restore_workers: workers,
        checkout_cache_bytes: cache_bytes,
        ..Settings::from_env().kishu
    };
    let mut s = Settings::from_env().in_memory_session_with(config);
    let mut nodes = Vec::new();
    for cell in cells {
        let r = s.run_cell(cell).expect("generated cells parse");
        if let Some(n) = r.node {
            nodes.push(n);
        }
    }
    let mut fingerprints = Vec::new();
    let mut snapshots = Vec::new();
    for target in itinerary(&nodes, seed) {
        let r = s.checkout(target).expect("checkout");
        fingerprints.push(co_fingerprint(&r));
        snapshots.push(snapshot(&s));
    }
    let cache = s.read_cache_stats();
    (fingerprints, snapshots, cache)
}

/// Same itinerary over a fault-injecting store (read-heavy fault plan);
/// also returns the final fault ledger.
fn run_faulty_restore(
    cells: &[String],
    seed: u64,
    workers: usize,
) -> (Vec<CoFingerprint>, Vec<BTreeMap<String, String>>, kishu_storage::FaultLedger) {
    let plan = FaultPlan {
        get_transient_p: 0.10,
        bit_flip_p: 0.05,
        put_transient_p: 0.02,
        ..FaultPlan::none()
    };
    let inner = Box::new(Settings::from_env().memory_store());
    let fault_store = FaultStore::new(inner, plan, seed ^ 0xFA17);
    let ledger: FaultLedgerHandle = fault_store.ledger_handle();
    let config = KishuConfig {
        checkpoint_workers: 1,
        restore_workers: workers,
        checkout_cache_bytes: CACHE_BYTES,
        ..Settings::from_env().kishu
    };
    let mut s = KishuSession::new(Box::new(fault_store), config);
    let mut nodes = Vec::new();
    for cell in cells {
        let r = s.run_cell(cell).expect("generated cells parse");
        if let Some(n) = r.node {
            nodes.push(n);
        }
    }
    let mut fingerprints = Vec::new();
    let mut snapshots = Vec::new();
    for target in itinerary(&nodes, seed) {
        let r = s.checkout(target).expect("checkout degrades, never fails");
        fingerprints.push(co_fingerprint(&r));
        snapshots.push(snapshot(&s));
    }
    (fingerprints, snapshots, ledger.snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any restore worker count produces identical checkout reports and
    /// identical restored namespaces vs the serial oracle.
    #[test]
    fn parallel_checkout_matches_serial_oracle(seed in any::<u64>()) {
        let cells = scripted_cells(seed, 24);
        let (oracle_fp, oracle_snaps, _) = run_restore(&cells, seed, 1, CACHE_BYTES);
        for workers in WORKER_COUNTS {
            let (fp, snaps, _) = run_restore(&cells, seed, workers, CACHE_BYTES);
            prop_assert_eq!(&fp, &oracle_fp, "reports diverged at restore_workers={}", workers);
            prop_assert_eq!(&snaps, &oracle_snaps, "namespaces diverged at restore_workers={}", workers);
        }
    }

    /// Read-fault injection is independent of the pipeline width: the
    /// ledger — every injected fault, in order — is identical at every
    /// restore worker count, and every checkout still lands on the right
    /// state (by load or by counted fallback recomputation).
    #[test]
    fn checkout_fault_ledger_is_identical_at_every_worker_count(seed in any::<u64>()) {
        let cells = scripted_cells(seed, 20);
        let (oracle_fp, oracle_snaps, oracle_ledger) = run_faulty_restore(&cells, seed, 1);
        for workers in WORKER_COUNTS {
            let (fp, snaps, ledger) = run_faulty_restore(&cells, seed, workers);
            prop_assert_eq!(&fp, &oracle_fp, "reports diverged at restore_workers={}", workers);
            prop_assert_eq!(&snaps, &oracle_snaps, "namespaces diverged at restore_workers={}", workers);
            prop_assert_eq!(&ledger, &oracle_ledger, "fault ledger diverged at restore_workers={}", workers);
        }
    }

    /// The read cache is an optimization, never a behavior change: with the
    /// cache on and off, every checkout restores the same namespace and
    /// reports the same attribution (only `blobs_cached` may differ).
    #[test]
    fn read_cache_is_transparent(seed in any::<u64>()) {
        let cells = scripted_cells(seed, 18);
        let (with_fp, with_snaps, with_cache) = run_restore(&cells, seed, 4, CACHE_BYTES);
        let (without_fp, without_snaps, off_cache) = run_restore(&cells, seed, 4, 0);
        prop_assert_eq!(
            without_cache_field(&with_fp),
            without_cache_field(&without_fp),
            "cache changed checkout attribution"
        );
        prop_assert_eq!(&with_snaps, &without_snaps, "cache changed restored state");
        // And with the cache off, nothing may ever report as cached.
        prop_assert!(without_fp.iter().all(|f| f.8 == 0), "cache off but hits reported");
        // The disabled cache is not a 100%-miss cache: its lookups land in
        // the `disabled` counter, never in `misses` — and since the cache
        // is behavior-free, the off run makes exactly as many lookups as
        // the on run resolved to hits + misses.
        prop_assert_eq!((off_cache.hits, off_cache.misses), (0, 0), "{:?}", off_cache);
        prop_assert_eq!(off_cache.disabled, with_cache.hits + with_cache.misses);
        prop_assert_eq!(with_cache.disabled, 0, "enabled cache drew a disabled count");
    }
}

/// A corrupt blob read degrades identically at every pipeline width: the
/// CRC failure is counted, the co-variable is recomputed, and the restored
/// value is right.
#[test]
fn corrupt_read_degrades_at_every_worker_count() {
    use kishu_storage::{FaultKind, FaultOp};
    for workers in WORKER_COUNTS {
        let plan = FaultPlan::none().schedule(FaultOp::Get, 0, FaultKind::BitFlip);
        let store = FaultStore::new(Box::new(Settings::from_env().memory_store()), plan, 5);
        let config = KishuConfig {
            restore_workers: workers,
            checkout_cache_bytes: CACHE_BYTES,
            ..Settings::from_env().kishu
        };
        let mut s = KishuSession::new(Box::new(store), config);
        s.run_cell("xs = [1, 2]\n").expect("cell");
        let target = s.head();
        s.run_cell("del xs\n").expect("cell");
        let report = s.checkout(target).expect("degrades to recomputation");
        assert_eq!(
            report.integrity_failures, 1,
            "read failure must be counted at restore_workers={workers}"
        );
        assert!(
            report.recomputed.iter().any(|k| k.contains("xs")),
            "xs must be recomputed at restore_workers={workers}"
        );
        assert_eq!(report.blobs_cached, 0, "a corrupt payload must never be cached");
        let xs = s.interp.globals.peek("xs").expect("xs restored");
        assert_eq!(repr(&s.interp.heap, xs), "[1, 2]");
    }
}

/// `KISHU_RESTORE_WORKERS` reaches the session config through the
/// resolver (clamped to at least 1), and the config plumbing for the knobs.
#[test]
fn restore_worker_default_honors_env() {
    assert!(KishuConfig::default().restore_workers >= 1);
    let resolve = |v: &str| {
        Settings::from_lookup(|k| (k == "KISHU_RESTORE_WORKERS").then(|| v.to_string()))
            .kishu
            .restore_workers
    };
    assert_eq!((resolve("3"), resolve("0")), (3, 1));
    let cfg = KishuConfig {
        restore_workers: 7,
        checkout_cache_bytes: 12_345,
        ..Settings::from_env().kishu
    };
    assert_eq!(cfg.restore_workers, 7);
    assert_eq!(cfg.checkout_cache_bytes, 12_345);
}
