//! Multi-tenant differential suite: the shared checkpoint store is
//! **observationally private** per session.
//!
//! The serial-oracle methodology of `tests/parallel_pipeline.rs` /
//! `tests/parallel_checkout.rs` (any worker count must be byte-identical to
//! workers=1) is extended here along the tenancy axis: a session running on
//! its own private store is the oracle, and the same session running
//! *interleaved with K other sessions on one shared store* must produce —
//! at checkpoint/restore workers 1 and 4 —
//!
//! 1. **an identical store view**: same dense blob ids, same bytes, same
//!    errors, same logical stats;
//! 2. **identical per-cell reports**: node ids, checkpoint bytes, dedup
//!    and drop counters. The physical fields (`bytes_written`, chunk
//!    counters, `bytes_compressed`, `physical_bytes`) depend on the private
//!    store's representation and are left out, as in
//!    `tests/chunking_differential.rs`; instead the tenant's own physical
//!    fields are pinned opaque (logical bytes, zero chunk counters), so no
//!    neighbor's dedup can show through them;
//! 3. **identical restored namespaces** at every checkpoint of every
//!    session;
//! 4. **an identical fault ledger** when the store injects faults —
//!    [`FaultStore`] scope-keyed draws mean a neighbor's retries cannot
//!    perturb a tenant's fault sequence (the latent single-store
//!    assumption this PR fixed);
//! 5. **GC as a pure space optimization**: collecting everything
//!    unreferenced changes no restored state anywhere, and refcount
//!    invariants hold after arbitrary interleavings.
//!
//! Scripts are generated from a seed; set `KISHU_TESTKIT_SEED` to replay.

use std::collections::{BTreeMap, BTreeSet};

use kishu::session::{CellReport, KishuConfig, KishuSession};
use kishu::NodeId;
use kishu_minipy::repr::repr;
use kishu_storage::{
    tenant_scope, FaultLedger, FaultPlan, FaultStore, MemoryStore, SharedStore,
};
use kishu_testkit::prelude::*;
use kishu_testkit::rng::{env_seed, Rng};

/// Tenants in the interleaved runs: the differential holds for *every* one
/// of them (each is "the" session; the other K=3 are its neighbors).
const TENANTS: [&str; 4] = ["ana", "ben", "cho", "dia"];

/// Checkpoint/restore worker counts under differential test.
const WORKER_COUNTS: [usize; 2] = [1, 4];

fn config(workers: usize) -> KishuConfig {
    KishuConfig {
        checkpoint_workers: workers,
        restore_workers: workers,
        dedup_blobs: true,
        ..KishuConfig::default()
    }
}

/// Scripted notebook for one tenant. Cells at indices divisible by 3 come
/// from a **common stream** shared verbatim by every tenant (the same
/// dataset loaded everywhere — the cross-user redundancy motivating
/// store-wide dedup); the rest are tenant-private: fresh bindings, in-place
/// mutations, re-created constants, shared structure.
fn tenant_cells(base_seed: u64, tenant: usize, n_cells: usize) -> Vec<String> {
    let mut common = Rng::seed_from_u64(base_seed);
    let mut private = Rng::seed_from_u64(base_seed ^ (tenant as u64 + 1).wrapping_mul(0x9E37_79B9));
    let mut live: Vec<String> = Vec::new();
    let mut fresh = 0usize;
    let mut cells = Vec::new();
    for i in 0..n_cells {
        if i % 3 == 0 {
            // Common dataset cell: identical code (and payload bytes) in
            // every tenant's notebook.
            let len = common.random_range(4..12usize);
            let vals: Vec<String> =
                (0..len).map(|_| common.random_range(0..100i64).to_string()).collect();
            cells.push(format!("d{i} = [{}]\n", vals.join(", ")));
            continue;
        }
        let roll = private.random_range(0..10u32);
        let cell = match roll {
            0..=3 => {
                let name = format!("v{fresh}");
                fresh += 1;
                let len = private.random_range(1..6usize);
                let vals: Vec<String> =
                    (0..len).map(|_| private.random_range(0..50i64).to_string()).collect();
                live.push(name.clone());
                format!("{name} = [{}]\n", vals.join(", "))
            }
            4..=5 if !live.is_empty() => {
                let name = &live[private.random_range(0..live.len())];
                format!("{name}.append({})\n", private.random_range(0..50i64))
            }
            6..=7 => {
                let name = format!("v{fresh}");
                fresh += 1;
                live.push(name.clone());
                format!("{name} = [1, 2, 3]\n")
            }
            8 if !live.is_empty() => {
                let src = live[private.random_range(0..live.len())].clone();
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

type Fingerprint = (Option<NodeId>, u64, usize, usize, Vec<String>);

/// The fields of a [`CellReport`] that must agree solo vs interleaved
/// (everything but the physical ones).
fn report_fingerprint(r: &CellReport) -> Fingerprint {
    (
        r.node,
        r.checkpoint_bytes,
        r.blobs_dropped,
        r.blobs_deduped,
        r.updated.iter().map(|k| format!("{k:?}")).collect(),
    )
}

/// Render the namespace (ground truth for state equivalence).
fn snapshot(s: &KishuSession) -> BTreeMap<String, String> {
    s.interp
        .globals
        .bindings()
        .map(|(n, o)| (n.to_string(), repr(&s.interp.heap, o)))
        .collect()
}

/// Everything a session can observe about its own world: per-cell reports,
/// its store view (every blob id's bytes, in order), its logical store
/// stats (blobs, payload bytes), the namespace restored at every one of its
/// checkpoints, and its final namespace.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    reports: Vec<Fingerprint>,
    store_view: Vec<Vec<u8>>,
    stats: (u64, u64),
    at_nodes: Vec<(NodeId, BTreeMap<String, String>)>,
    final_ns: BTreeMap<String, String>,
}

/// Run `cells` to completion on `session`, then observe it: dump the store
/// view and check out every checkpoint.
fn observe(mut session: KishuSession, cells: &[String]) -> Observation {
    let mut reports = Vec::new();
    let mut nodes = Vec::new();
    for cell in cells {
        let r = session.run_cell(cell).expect("generated cells parse");
        if let Some(n) = r.node {
            nodes.push(n);
        }
        reports.push(report_fingerprint(&r));
    }
    let final_ns = snapshot(&session);
    let store_view: Vec<Vec<u8>> = (0..session.store().blob_count())
        .map(|i| session.store().get(i).expect("own blobs read back"))
        .collect();
    let st = session.store_stats();
    let mut at_nodes = Vec::new();
    for n in nodes {
        session.checkout(n).expect("checkout own checkpoint");
        at_nodes.push((n, snapshot(&session)));
    }
    Observation { reports, store_view, stats: (st.blobs, st.payload_bytes), at_nodes, final_ns }
}

/// The solo oracle: each tenant alone on a private in-memory store.
fn run_solo(base_seed: u64, n_cells: usize, workers: usize) -> Vec<Observation> {
    TENANTS
        .iter()
        .enumerate()
        .map(|(ti, _)| {
            let cells = tenant_cells(base_seed, ti, n_cells);
            observe(KishuSession::in_memory(config(workers)), &cells)
        })
        .collect()
}

/// The same tenants interleaved cell-by-cell on one shared store.
fn run_interleaved(
    base_seed: u64,
    n_cells: usize,
    workers: usize,
) -> (Vec<Observation>, SharedStore) {
    let store = SharedStore::in_memory();
    let scripts: Vec<Vec<String>> =
        (0..TENANTS.len()).map(|ti| tenant_cells(base_seed, ti, n_cells)).collect();
    let mut sessions: Vec<KishuSession> = TENANTS
        .iter()
        .map(|name| KishuSession::on_shared(&store, name, config(workers)).expect("tenant"))
        .collect();
    let mut reports: Vec<Vec<Fingerprint>> = vec![Vec::new(); TENANTS.len()];
    let mut nodes: Vec<Vec<NodeId>> = vec![Vec::new(); TENANTS.len()];
    let mut written = vec![0u64; TENANTS.len()];
    // Round-robin interleaving: cell 0 of every tenant, then cell 1, ...
    for i in 0..n_cells {
        for (ti, s) in sessions.iter_mut().enumerate() {
            let r = s.run_cell(&scripts[ti][i]).expect("generated cells parse");
            if let Some(n) = r.node {
                nodes[ti].push(n);
            }
            reports[ti].push(report_fingerprint(&r));
            // The tenant view reports opaque receipts: no chunk layer.
            assert_eq!((r.chunks_written, r.chunks_deduped, r.bytes_compressed), (0, 0, 0));
            written[ti] += r.bytes_written;
        }
    }
    let mut out = Vec::new();
    for (ti, mut s) in sessions.into_iter().enumerate() {
        let final_ns = snapshot(&s);
        let store_view: Vec<Vec<u8>> = (0..s.store().blob_count())
            .map(|i| s.store().get(i).expect("own blobs read back"))
            .collect();
        let st = s.store_stats();
        // Physical fields stay opaque: what was written is the logical
        // bytes put, whatever the neighbors deduplicated underneath.
        assert_eq!(written[ti], st.payload_bytes, "tenant bytes_written leaks physical truth");
        assert_eq!(
            st.physical_bytes, st.payload_bytes,
            "tenant physical_bytes leaks physical truth"
        );
        let mut at_nodes = Vec::new();
        for n in nodes[ti].clone() {
            s.checkout(n).expect("checkout own checkpoint");
            at_nodes.push((n, snapshot(&s)));
        }
        out.push(Observation {
            reports: reports[ti].clone(),
            store_view,
            stats: (st.blobs, st.payload_bytes),
            at_nodes,
            final_ns,
        });
    }
    (out, store)
}

/// The headline differential: every tenant's observable world — store view,
/// reports, stats, every restored namespace — is byte-identical solo on a
/// private store vs interleaved with K=3 neighbors on the shared store, at
/// 1 and 4 checkpoint/restore workers.
#[test]
fn tenant_views_are_byte_identical_solo_vs_interleaved() {
    let base_seed = env_seed(0x5EED_7E4A);
    for workers in WORKER_COUNTS {
        let solo = run_solo(base_seed, 18, workers);
        let (inter, store) = run_interleaved(base_seed, 18, workers);
        for (ti, name) in TENANTS.iter().enumerate() {
            assert_eq!(solo[ti], inter[ti], "tenant {name} diverged at workers={workers}");
        }
        store.check_invariants(true).expect("refcount invariants");
        // The interleaved runs share identical dataset cells, so the
        // store-wide dedup must have found cross-tenant redundancy.
        assert!(
            store.dedup_ratio() > 1.0,
            "common cells must dedup across tenants (ratio {})",
            store.dedup_ratio()
        );
    }
}

/// Fault-injection differential (and the regression for the latent
/// single-store assumption): with a fault-injecting store shared by all
/// tenants, each tenant's fault ledger and reports are identical to
/// running alone over a private faulty store with the same scope — one
/// session's retries never perturb another's deterministic draws.
#[test]
fn fault_ledgers_are_identical_solo_vs_interleaved() {
    let base_seed = env_seed(0xFA17_5EED);
    let plan = FaultPlan {
        put_transient_p: 0.08,
        get_transient_p: 0.05,
        short_write_p: 0.02,
        bit_flip_p: 0.02,
        ..FaultPlan::none()
    };
    let fault_seed = base_seed ^ 0xFA17;
    let n_cells = 16;
    for workers in WORKER_COUNTS {
        // Solo oracles: private MemoryStore under a FaultStore scoped to
        // the tenant's name.
        let mut solo: Vec<(Vec<Fingerprint>, FaultLedger)> = Vec::new();
        for (ti, name) in TENANTS.iter().enumerate() {
            let cells = tenant_cells(base_seed, ti, n_cells);
            let fs = FaultStore::scoped(
                Box::new(MemoryStore::new()),
                plan.clone(),
                fault_seed,
                tenant_scope(name),
            );
            let handle = fs.ledger_handle();
            let mut s = KishuSession::new(Box::new(fs), config(workers));
            let reports: Vec<Fingerprint> = cells
                .iter()
                .map(|c| report_fingerprint(&s.run_cell(c).expect("cells parse")))
                .collect();
            solo.push((reports, handle.snapshot_scoped(tenant_scope(name))));
        }
        // Interleaved: one shared store, one shared fault state, one
        // FaultStore twin per tenant wrapping that tenant's view.
        let store = SharedStore::in_memory();
        let base = FaultStore::scoped(
            Box::new(store.tenant(TENANTS[0]).expect("tenant")),
            plan.clone(),
            fault_seed,
            tenant_scope(TENANTS[0]),
        );
        let handle = base.ledger_handle();
        let mut faulty_views: Vec<FaultStore> = vec![base];
        for name in &TENANTS[1..] {
            let twin = faulty_views[0]
                .twin(Box::new(store.tenant(name).expect("tenant")), tenant_scope(name));
            faulty_views.push(twin);
        }
        let mut sessions: Vec<KishuSession> = faulty_views
            .into_iter()
            .map(|fs| KishuSession::new(Box::new(fs), config(workers)))
            .collect();
        let scripts: Vec<Vec<String>> =
            (0..TENANTS.len()).map(|ti| tenant_cells(base_seed, ti, n_cells)).collect();
        let mut reports: Vec<Vec<Fingerprint>> = vec![Vec::new(); TENANTS.len()];
        for i in 0..n_cells {
            for (ti, s) in sessions.iter_mut().enumerate() {
                reports[ti]
                    .push(report_fingerprint(&s.run_cell(&scripts[ti][i]).expect("cells parse")));
            }
        }
        for (ti, name) in TENANTS.iter().enumerate() {
            let ledger = handle.snapshot_scoped(tenant_scope(name));
            assert_eq!(reports[ti], solo[ti].0, "tenant {name} reports diverged (workers={workers})");
            assert_eq!(ledger, solo[ti].1, "tenant {name} fault ledger diverged (workers={workers})");
        }
        if std::env::var("KISHU_TESTKIT_SEED").is_err() {
            let total: usize = solo.iter().map(|(_, l)| l.total()).sum();
            assert!(total > 0, "default seed should fire at these probabilities");
        }
    }
}

/// GC is a pure space optimization: after collecting everything the live
/// graphs don't reach, every checkpoint of every session restores exactly
/// the pre-GC namespace, the store's refcount invariants hold, and a
/// second collection finds nothing left to reclaim (100% of unreferenced
/// bytes went in the first pass).
#[test]
fn gc_preserves_every_commit_of_every_session() {
    let base_seed = env_seed(0x6C_5EED);
    let store = SharedStore::in_memory();
    let mut sessions: Vec<KishuSession> = TENANTS
        .iter()
        .map(|name| KishuSession::on_shared(&store, name, config(2)).expect("tenant"))
        .collect();
    let scripts: Vec<Vec<String>> =
        (0..TENANTS.len()).map(|ti| tenant_cells(base_seed, ti, 15)).collect();
    let mut nodes: Vec<Vec<NodeId>> = vec![Vec::new(); TENANTS.len()];
    for i in 0..15 {
        for (ti, s) in sessions.iter_mut().enumerate() {
            if let Some(n) = s.run_cell(&scripts[ti][i]).expect("cells parse").node {
                nodes[ti].push(n);
            }
            // Periodic persists create superseded snapshots — GC fodder.
            if i % 5 == 4 {
                s.persist().expect("persist");
            }
        }
    }
    // Ground truth: every checkpoint's namespace before GC.
    let mut before: Vec<Vec<BTreeMap<String, String>>> = Vec::new();
    for (ti, s) in sessions.iter_mut().enumerate() {
        let mut per = Vec::new();
        for &n in &nodes[ti] {
            s.checkout(n).expect("checkout pre-gc");
            per.push(snapshot(s));
        }
        before.push(per);
    }
    let live: BTreeMap<String, BTreeSet<u64>> = TENANTS
        .iter()
        .zip(&sessions)
        .map(|(name, s)| (name.to_string(), s.live_blobs()))
        .collect();
    let r = store.collect(&live).expect("gc");
    assert!(r.reclaimed_blobs > 0, "superseded snapshots should be reclaimable: {r:?}");
    assert!(r.physical_after < r.physical_before);
    store.check_invariants(true).expect("refcount invariants after gc");
    for s in &mut sessions {
        s.invalidate_store_caches();
    }
    // Idempotence = completeness: nothing unreferenced survived.
    let r2 = store.collect(&live).expect("second gc");
    assert_eq!(r2.reclaimed_blobs, 0, "first gc must reclaim 100% of garbage");
    assert_eq!(r2.reclaimed_payload_bytes, 0);
    // Every commit of every session restores exactly as before.
    for (ti, s) in sessions.iter_mut().enumerate() {
        for (k, &n) in nodes[ti].iter().enumerate() {
            s.checkout(n).expect("checkout post-gc");
            assert_eq!(snapshot(s), before[ti][k], "tenant {} node {n:?}", TENANTS[ti]);
        }
        // And the sessions keep working: new cells, new checkpoints.
        s.run_cell("post_gc = [9, 9, 9]\n").expect("post-gc cell");
    }
    store.check_invariants(true).expect("invariants after post-gc writes");
}

/// `resume` works through a tenant view: a session persisted into a shared
/// store resumes to the same state whether its tenant was alone in the
/// store or interleaved with neighbors.
#[test]
fn resume_through_a_tenant_view_is_isolation_blind() {
    let base_seed = env_seed(0x2E_5135);
    let run_and_resume = |neighbors: bool| -> (Vec<String>, BTreeMap<String, String>) {
        let store = SharedStore::in_memory();
        let mut sessions: Vec<(usize, KishuSession)> = Vec::new();
        for (ti, name) in TENANTS.iter().enumerate() {
            if ti == 0 || neighbors {
                sessions
                    .push((ti, KishuSession::on_shared(&store, name, config(2)).expect("tenant")));
            }
        }
        let scripts: Vec<Vec<String>> =
            (0..TENANTS.len()).map(|ti| tenant_cells(base_seed, ti, 12)).collect();
        for i in 0..12 {
            for (ti, s) in sessions.iter_mut() {
                s.run_cell(&scripts[*ti][i]).expect("cells parse");
            }
        }
        for (_, s) in sessions.iter_mut() {
            s.persist().expect("persist");
        }
        drop(sessions);
        let resumed = KishuSession::resume(
            Box::new(store.tenant(TENANTS[0]).expect("tenant")),
            config(2),
        )
        .expect("resume through tenant view");
        (resumed.log(), snapshot(&resumed))
    };
    let (solo_log, solo_ns) = run_and_resume(false);
    let (inter_log, inter_ns) = run_and_resume(true);
    assert_eq!(solo_log, inter_log, "resumed graph log diverged");
    assert_eq!(solo_ns, inter_ns, "resumed namespace diverged");
}

/// Decode one random-interleaving op from a byte (tenant + what to do).
/// Plain data so proptest shrinking yields a minimal interleaving.
fn decode_op(b: u8, n_tenants: usize) -> (usize, bool, usize) {
    let tenant = b as usize % n_tenants;
    let checkout = (b / 64) == 3; // 1 in 4 ops is a checkout
    (tenant, checkout, b as usize / n_tenants)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleavings of 2–4 sessions' checkpoint/checkout ops:
    /// store-wide dedup never changes any session's restored namespace
    /// (differentially vs private stores running the identical op
    /// subsequence), and refcounts stay exact. On failure, proptest
    /// shrinks `ops` to a minimal interleaving.
    #[test]
    fn random_interleavings_are_observationally_private(
        seed in any::<u64>(),
        n_tenants in 2usize..5,
        ops in prop::collection::vec(any::<u8>(), 8..40),
    ) {
        let scripts: Vec<Vec<String>> =
            (0..n_tenants).map(|ti| tenant_cells(seed, ti, ops.len())).collect();
        let store = SharedStore::in_memory();
        let mut shared: Vec<KishuSession> = (0..n_tenants)
            .map(|ti| KishuSession::on_shared(&store, TENANTS[ti], config(1)).expect("tenant"))
            .collect();
        let mut private: Vec<KishuSession> =
            (0..n_tenants).map(|_| KishuSession::in_memory(config(1))).collect();
        let mut cursors = vec![0usize; n_tenants];
        let mut nodes: Vec<Vec<NodeId>> = vec![Vec::new(); n_tenants];
        for &b in &ops {
            let (ti, checkout, pick) = decode_op(b, n_tenants);
            if checkout && !nodes[ti].is_empty() {
                let n = nodes[ti][pick % nodes[ti].len()];
                shared[ti].checkout(n).expect("shared checkout");
                private[ti].checkout(n).expect("private checkout");
                prop_assert_eq!(
                    snapshot(&shared[ti]),
                    snapshot(&private[ti]),
                    "checkout diverged for tenant {} at node {:?}",
                    ti,
                    n
                );
            } else {
                let cell = &scripts[ti][cursors[ti]];
                cursors[ti] += 1;
                let a = shared[ti].run_cell(cell).expect("cells parse");
                let b2 = private[ti].run_cell(cell).expect("cells parse");
                prop_assert_eq!(
                    report_fingerprint(&a),
                    report_fingerprint(&b2),
                    "report diverged for tenant {}",
                    ti
                );
                if let Some(n) = a.node {
                    nodes[ti].push(n);
                }
            }
        }
        // Final sweep: every checkpoint of every tenant restores the same
        // namespace from the shared store as from the private one.
        for ti in 0..n_tenants {
            for &n in &nodes[ti] {
                shared[ti].checkout(n).expect("shared checkout");
                private[ti].checkout(n).expect("private checkout");
                prop_assert_eq!(snapshot(&shared[ti]), snapshot(&private[ti]));
            }
        }
        if let Err(e) = store.check_invariants(true) {
            return Err(TestCaseError::fail(format!("store invariant violated: {e}")));
        }
    }
}

/// The acceptance workload: 4 sessions loading overlapping datasets on one
/// shared store must dedup better than 1.5× vs what 4 private stores would
/// hold.
#[test]
fn overlapping_datasets_dedup_beyond_the_acceptance_bar() {
    let store = SharedStore::in_memory();
    let mut sessions: Vec<KishuSession> = TENANTS
        .iter()
        .map(|name| KishuSession::on_shared(&store, name, config(2)).expect("tenant"))
        .collect();
    // Every tenant loads the same "dataset" and trains the same "model";
    // only a small private preamble differs.
    for (ti, s) in sessions.iter_mut().enumerate() {
        s.run_cell(&format!("mine = [{ti}]\n")).expect("private cell");
        for c in 0..6 {
            let vals: Vec<String> = (0..200).map(|v| ((v * 7 + c * 13) % 97).to_string()).collect();
            s.run_cell(&format!("data{c} = [{}]\n", vals.join(", "))).expect("dataset cell");
        }
    }
    let ratio = store.dedup_ratio();
    assert!(ratio > 1.5, "dedup ratio {ratio:.2} must beat 1.5x on overlapping datasets");
    store.check_invariants(true).expect("invariants");
    // And the privacy contract still holds: each session sees only its own
    // logical bytes.
    for (ti, s) in sessions.iter().enumerate() {
        let mine = s.store().get(0).expect("private blob readable");
        assert!(!mine.is_empty(), "tenant {ti} reads its own first blob");
    }
}
