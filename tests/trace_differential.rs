//! Differential suite proving the observability layer is **behavior-free**:
//! running the exact same faulty, time-traveling session with tracing on
//! and off produces
//!
//! 1. byte-identical store contents (blob ids, bytes, order);
//! 2. identical per-cell and per-checkout reports (every non-timing field);
//! 3. identical namespaces after every checkout;
//! 4. an identical fault ledger — span recording must not perturb the
//!    keyed fault decisions, their order, or their attempt numbers;
//!
//! 5. identical diff reports (including memo hits) and search results;
//!
//! (Namespaces compare every binding's ObjId as well as its value, and
//! each operation's `total_allocated` is compared too.)
//!
//! at both the serial-oracle width (1 worker) and the parallel defaults
//! (4 workers), covering the checkpoint write pipeline and the checkout
//! read pipeline in one script — and not just with the recorder on, but
//! with it forced into its worst case (a tiny ring under constant
//! eviction, an overflowing journal, every span crossing the slow
//! threshold). This is the invariant that makes `KISHU_TRACE=...` safe to
//! flip on against any workload: the trace observes the run, it never
//! participates in it.
//!
//! The same observables pin a second invariant: **heap GC is
//! behavior-free**. Sweeping after every cell run and checkout must give
//! exactly what the default pacing gives.

use std::collections::BTreeMap;

use kishu::session::{CellReport, CheckoutReport, KishuConfig, KishuSession};
use kishu::NodeId;
use kishu_bench::settings::Settings;
use kishu_minipy::repr::repr;
use kishu_storage::{FaultLedger, FaultPlan, FaultStore};
use kishu_trace::{ObsConfig, Trace};

const FAULT_SEED: u64 = 0x7ACE_D1FF;

/// A fixed notebook exercising both pipelines: multi-co-variable cells
/// (fan-out for the worker pool), in-place mutations, a byte-identical
/// re-creation (dedup bait), shared structure, and a delete.
fn cells() -> Vec<&'static str> {
    vec![
        "x0 = list(range(40))\nx1 = list(range(50))\nx2 = list(range(60))\n",
        "y0 = [1, 2, 3]\ny1 = [4, 5, 6]\n",
        "x0.append(99)\n",
        "z = [7, 8, 9]\n",
        "y0 = [1, 2, 3]\n",
        "w0 = list(range(70))\nw1 = list(range(80))\n",
        "del x2\n",
        "x1.append(1)\n",
    ]
}

/// Every non-timing field of a [`CellReport`].
fn cell_fingerprint(r: &CellReport) -> String {
    format!(
        "node={:?} updated={:?} bytes={} written={} dropped={} deduped={}",
        r.node, r.updated, r.checkpoint_bytes, r.bytes_written, r.blobs_dropped, r.blobs_deduped
    )
}

/// Every non-timing field of a [`CheckoutReport`].
fn checkout_fingerprint(r: &CheckoutReport) -> String {
    format!(
        "target={:?} loaded={:?} recomputed={:?} removed={:?} identical={} bytes={} \
         integrity={} flushed={} cached={}",
        r.target,
        r.loaded,
        r.recomputed,
        r.removed,
        r.identical,
        r.bytes_loaded,
        r.integrity_failures,
        r.flushed,
        r.blobs_cached
    )
}

/// Every binding's ObjId and value.
fn namespace(s: &KishuSession) -> BTreeMap<String, String> {
    s.interp
        .globals
        .bindings()
        .map(|(n, o)| (n.to_string(), format!("{o:?} {}", repr(&s.interp.heap, o))))
        .collect()
}

/// How the run's observability handle is configured.
#[derive(Clone, Copy, PartialEq)]
enum Recorder {
    /// `Trace::disabled()` — the baseline arm.
    Off,
    /// `Settings::trace()` — the `ObsConfig` resolved from `KISHU_OBS_*`
    /// (roomy defaults when unset).
    On,
    /// The flight recorder's worst case, forced: a tiny ring (constant
    /// eviction + reservoir competition), a tiny journal, and a 1 ns
    /// slow-span threshold so *every* span takes the journal path.
    ForcedPressure,
}

struct Run {
    cell_fps: Vec<String>,
    checkout_fps: Vec<String>,
    /// Shallow-diff fingerprints (the memoized query path must answer
    /// identically whatever the recorder is doing).
    diff_fps: Vec<String>,
    /// All-branches search results.
    search_fps: Vec<String>,
    namespaces: Vec<BTreeMap<String, String>>,
    /// `total_allocated` after every cell run and checkout.
    allocated: Vec<u64>,
    ledger: FaultLedger,
    blobs: Vec<Option<Vec<u8>>>,
    spans_recorded: usize,
    spans_dropped: u64,
    events_seen: u64,
}

/// When the kernel heap is swept.
#[derive(Clone, Copy, PartialEq)]
enum Sweep {
    /// The session's own pacing rule.
    Paced,
    /// Additionally after every cell run and checkout.
    EveryOp,
}

/// One full write+time-travel session over a fault-injecting store, with
/// the recorder off, on, or forced into memory pressure, and the heap
/// swept at the default pacing or after every operation. Everything
/// returned is a non-timing observable.
fn run_session(workers: usize, recorder: Recorder, sweep: Sweep) -> Run {
    let plan = FaultPlan {
        put_transient_p: 0.10,
        get_transient_p: 0.08,
        short_write_p: 0.03,
        bit_flip_p: 0.03,
        ..FaultPlan::none()
    };
    let inner = Box::new(Settings::from_env().memory_store());
    let fault_store = FaultStore::new(inner, plan, FAULT_SEED);
    let ledger_handle = fault_store.ledger_handle();
    let config = KishuConfig {
        checkpoint_workers: workers,
        restore_workers: workers,
        ..Settings::from_env().kishu
    };
    let mut s = KishuSession::new(Box::new(fault_store), config);
    let trace = match recorder {
        Recorder::Off => Trace::disabled(),
        Recorder::On => Settings::from_env().trace(),
        Recorder::ForcedPressure => Trace::with_obs(ObsConfig {
            ring_bytes: 8 * 1024,
            reservoir_spans: 32,
            journal_events: 64,
            slow_ns: 1,
        }),
    };
    s.set_trace(&trace);

    let mut allocated = Vec::new();
    let mut after_op = |s: &mut KishuSession| {
        if sweep == Sweep::EveryOp {
            s.interp.gc();
        }
        allocated.push(s.interp.heap.total_allocated());
    };
    let mut cell_fps = Vec::new();
    let mut nodes: Vec<NodeId> = Vec::new();
    for cell in cells() {
        let r = s.run_cell(cell).expect("scripted cells parse");
        after_op(&mut s);
        cell_fps.push(cell_fingerprint(&r));
        if let Some(n) = r.node {
            nodes.push(n);
        }
    }
    // Time-travel across the whole history: cold undos, redos, and a
    // second round trip that exercises the read cache and memoized
    // fallback recomputation under injected read faults.
    let head = s.head();
    let mut checkout_fps = Vec::new();
    let mut namespaces = Vec::new();
    for target in [nodes[1], head, nodes[3], nodes[1], head] {
        let r = s.checkout(target).expect("checkout degrades, never fails");
        after_op(&mut s);
        checkout_fps.push(checkout_fingerprint(&r));
        namespaces.push(namespace(&s));
    }
    // Query surface: shallow diffs (first call computes, second must be a
    // byte-identical memo hit) and all-branches searches.
    let mut diff_fps = Vec::new();
    for (a, b) in [(nodes[1], head), (nodes[3], nodes[1])] {
        for _ in 0..2 {
            let d = s.diff(a, b).expect("diff");
            diff_fps.push(
                d.entries
                    .iter()
                    .map(|e| {
                        format!(
                            "{:?}:{}:{:?}->{:?}:{:?}",
                            e.key, e.change.label(), e.from, e.to, e.same_bytes
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(","),
            );
        }
    }
    let search_fps = ["x0", "y0", "x2", "ghost"]
        .iter()
        .map(|v| {
            s.search(v)
                .iter()
                .map(|h| format!("{}:{}:{}:{}", h.node.0, h.modified, h.deleted, h.on_head_path))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    let ledger = ledger_handle.snapshot();
    // Store dump last: these reads also pass through the fault injector,
    // deterministically (keyed decisions), so `Option` is the fingerprint.
    let store = s.store();
    let blobs: Vec<Option<Vec<u8>>> =
        (0..store.blob_count()).map(|i| store.get(i).ok()).collect();
    let ring = trace.ring_stats();
    Run {
        cell_fps,
        checkout_fps,
        diff_fps,
        search_fps,
        namespaces,
        allocated,
        ledger,
        blobs,
        spans_recorded: ring.recorded as usize,
        spans_dropped: ring.dropped,
        events_seen: trace.events().len() as u64 + trace.events_dropped(),
    }
}

/// Every behavioral observable of two runs, compared.
fn assert_same_behavior(off: &Run, on: &Run, what: &str) {
    assert_eq!(off.cell_fps, on.cell_fps, "cell reports diverged: {what}");
    assert_eq!(off.checkout_fps, on.checkout_fps, "checkout reports diverged: {what}");
    assert_eq!(off.diff_fps, on.diff_fps, "diff reports diverged: {what}");
    assert_eq!(off.search_fps, on.search_fps, "search results diverged: {what}");
    assert_eq!(off.namespaces, on.namespaces, "restored namespaces diverged: {what}");
    assert_eq!(off.allocated, on.allocated, "allocation counts diverged: {what}");
    assert_eq!(off.ledger, on.ledger, "fault ledger diverged: {what}");
    assert_eq!(off.blobs, on.blobs, "store bytes diverged: {what}");
}

#[test]
fn tracing_is_behavior_free_for_both_pipelines_at_1_and_4_workers() {
    for workers in [1usize, 4] {
        let off = run_session(workers, Recorder::Off, Sweep::Paced);
        let on = run_session(workers, Recorder::On, Sweep::Paced);
        assert_same_behavior(&off, &on, &format!("workers={workers}"));
        // And the trace actually observed the run it did not perturb.
        assert_eq!(off.spans_recorded, 0, "disabled trace must record nothing");
        assert!(
            on.spans_recorded > 0,
            "enabled trace must record spans at workers={workers}"
        );
    }
}

/// The flight recorder's worst case is behavior-free too: a ring small
/// enough that eviction and reservoir sampling run constantly, a journal
/// that overflows, and a slow-span threshold that routes *every* span
/// through the journal path — still byte-identical stores, reports,
/// namespaces, and ledgers at both worker widths.
#[test]
fn recorder_under_memory_pressure_is_behavior_free_at_1_and_4_workers() {
    for workers in [1usize, 4] {
        let off = run_session(workers, Recorder::Off, Sweep::Paced);
        let on = run_session(workers, Recorder::ForcedPressure, Sweep::Paced);
        assert_same_behavior(&off, &on, &format!("forced recorder, workers={workers}"));
        // The pressure must have been real: the tiny ring overflowed and
        // the journal path ran (truthfully accounted, not silently).
        assert!(
            on.spans_dropped > 0,
            "the 8 KiB ring never overflowed at workers={workers} — no pressure was exercised"
        );
        assert!(
            on.events_seen > 0,
            "the 1 ns slow threshold journaled nothing at workers={workers}"
        );
    }
}

/// The traced and untraced runs agree *with each other across widths* too:
/// one combined transcript (serial+untraced vs parallel+traced-under-
/// pressure) — the strongest composition of the two invariants.
#[test]
fn traced_parallel_run_matches_the_untraced_serial_oracle() {
    let oracle = run_session(1, Recorder::Off, Sweep::Paced);
    let traced_parallel = run_session(4, Recorder::ForcedPressure, Sweep::Paced);
    assert_same_behavior(&oracle, &traced_parallel, "serial oracle vs parallel recorder");
}

/// Heap GC is behavior-free: sweeping after every cell run and checkout
/// changes no namespace (ObjIds included), allocation count, report,
/// store byte or fault decision, at both worker widths.
#[test]
fn sweeping_after_every_operation_is_behavior_free_at_1_and_4_workers() {
    for workers in [1usize, 4] {
        let paced = run_session(workers, Recorder::Off, Sweep::Paced);
        let swept = run_session(workers, Recorder::Off, Sweep::EveryOp);
        let what = format!("sweep every op, workers={workers}");
        assert_same_behavior(&paced, &swept, &what);
    }
}
