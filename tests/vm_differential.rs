//! Differential oracle: the bytecode VM and the tree-walking interpreter
//! must be observationally identical.
//!
//! The tree-walker is the reference semantics; the VM is the default
//! engine. This suite pins the equivalence at three levels:
//!
//! 1. **Interpreter level, property-based**: random minipy programs from
//!    `kishu_testkit::minipy_gen` run through both engines, comparing the
//!    *entire* observable state — error shape (kind, message, line),
//!    printed output, the trailing-expression repr, statement counts, the
//!    namespace access record, every binding's name **and ObjId** (the VM
//!    must allocate in exactly the tree-walker's order, because ObjIds are
//!    VarGraph identity and GC-trigger input), each binding's repr, and the
//!    heap's `total_allocated`. Failures shrink to a minimal divergent
//!    program via the harness's tape shrinker; replay with
//!    `KISHU_TESTKIT_SEED`.
//! 2. **Session level**: a scripted notebook (mutations, `global`,
//!    a mid-cell error, checkout round-trips) under `minipy_vm` on/off at
//!    checkpoint/restore worker counts 1 and 4 — `CellReport`s, checkpoint
//!    bytes, checkout reports, and restored namespaces must match.
//! 3. **Degraded paths**: the same scripted session over a seeded
//!    [`FaultStore`] (5% transient faults) with one cell stored code-only,
//!    so checkouts exercise fallback recomputation — fault ledgers and
//!    final state must be engine-independent. Plus the PR-2 regression: an
//!    errored cell whose *partial* mutations must be reproduced when
//!    replayed through `run_cell_in_temp_namespace` during checkout.
//! 4. **Heap GC is behavior-free**: the degraded-path session with the
//!    heap swept after every cell run and checkout matches the default
//!    pacing — namespaces with ObjIds, `total_allocated`, reports, store
//!    bytes and fault ledgers — on both engines at 1 and 4 workers.

use std::collections::BTreeMap;

use kishu::session::{CellReport, CheckoutReport, KishuConfig, KishuSession};
use kishu::NodeId;
use kishu_bench::settings::Settings;
use kishu_kernel::AccessRecord;
use kishu_minipy::repr::repr;
use kishu_minipy::{Engine, Interp};
use kishu_storage::{FaultLedger, FaultPlan, FaultStore};
use kishu_testkit::minipy_gen;
use kishu_testkit::prelude::*;
use kishu_testkit::rng::env_seed;

// ---------------------------------------------------------------------------
// Level 1: interpreter differential on random programs
// ---------------------------------------------------------------------------

/// Everything one engine lets a caller observe after running some cells.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per cell: (error-as-string, output lines, Out[n] repr, stmt count,
    /// access record).
    cells: Vec<(Option<String>, Vec<String>, Option<String>, u64, AccessRecord)>,
    /// Final namespace: name → (ObjId's Debug form, repr). ObjId equality
    /// is the allocation-order parity the session layer depends on.
    bindings: BTreeMap<String, (String, String)>,
    /// Total heap allocations ever — the GC trigger input.
    allocated: u64,
}

fn run_cells(engine: Engine, srcs: &[String]) -> Observed {
    let mut interp = Interp::new();
    interp.set_engine(engine);
    let mut cells = Vec::new();
    for src in srcs {
        match interp.run_cell(src) {
            Ok(o) => cells.push((
                o.error.as_ref().map(|e| format!("{e:?}")),
                o.output.clone(),
                o.value_repr.clone(),
                o.stmts_executed,
                o.access.clone(),
            )),
            Err(e) => cells.push((
                Some(format!("parse: {e:?}")),
                Vec::new(),
                None,
                0,
                AccessRecord::default(),
            )),
        }
    }
    let bindings = interp
        .globals
        .bindings()
        .map(|(n, o)| (n.to_string(), (format!("{o:?}"), repr(&interp.heap, o))))
        .collect();
    Observed { cells, bindings, allocated: interp.heap.total_allocated() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_programs_agree(src in minipy_gen::program()) {
        let srcs = vec![src.clone()];
        let tree = run_cells(Engine::Tree, &srcs);
        let vm = run_cells(Engine::Vm, &srcs);
        prop_assert!(
            tree == vm,
            "engines diverged on program:\n{src}\n-- tree --\n{tree:#?}\n-- vm --\n{vm:#?}"
        );
    }

    #[test]
    fn random_cell_sequences_agree(srcs in prop::collection::vec(minipy_gen::program(), 1..4)) {
        // State carries across cells (and the VM's code caches warm up),
        // so multi-cell sequences exercise paths single cells cannot.
        let tree = run_cells(Engine::Tree, &srcs);
        let vm = run_cells(Engine::Vm, &srcs);
        prop_assert!(
            tree == vm,
            "engines diverged on cell sequence:\n{}\n-- tree --\n{tree:#?}\n-- vm --\n{vm:#?}",
            srcs.join("# --- next cell ---\n")
        );
    }
}

// ---------------------------------------------------------------------------
// Level 2: session differential (reports, checkpoints, checkouts)
// ---------------------------------------------------------------------------

/// A notebook script that touches every report field we compare: container
/// mutation, rebinds, `global` writes from a function, loops, a mid-cell
/// runtime error (partial effects must checkpoint), and a dict.
const SCRIPT: &[&str] = &[
    "xs = [1, 2, 3]\nn = 0\n",
    "def bump(v):\n    global n\n    n = n + v\n    return n\nbump(2)\n",
    "xs.append(n)\ntotal = sum(xs)\ntotal\n",
    "xs.append(99)\nboom()\n", // NameError *after* the append lands
    "m = {'k': total}\nfor i in range(3):\n    n += i\nn\n",
];

fn config(vm: bool, workers: usize) -> KishuConfig {
    let mut cfg = Settings::from_env().kishu;
    cfg.minipy_vm = vm;
    cfg.checkpoint_workers = workers;
    cfg.restore_workers = workers;
    cfg
}

/// The engine-independent projection of a [`CellReport`].
fn cell_report_key(r: &CellReport) -> String {
    format!(
        "node={:?} err={:?} out={:?} val={:?} stmts={} access={:?} updated={:?} \
         dropped={} deduped={} bytes={} cbytes={}",
        r.node.is_some(),
        r.outcome.error,
        r.outcome.output,
        r.outcome.value_repr,
        r.outcome.stmts_executed,
        r.outcome.access,
        r.updated,
        r.blobs_dropped,
        r.blobs_deduped,
        r.bytes_written,
        r.checkpoint_bytes,
    )
}

/// The engine-independent projection of a [`CheckoutReport`].
fn checkout_report_key(r: &CheckoutReport) -> String {
    format!(
        "target={:?} loaded={:?} recomputed={:?} removed={:?} identical={} \
         bytes={} integrity={}",
        r.target, r.loaded, r.recomputed, r.removed, r.identical, r.bytes_loaded,
        r.integrity_failures,
    )
}

fn namespace(s: &KishuSession) -> BTreeMap<String, String> {
    s.interp
        .globals
        .bindings()
        .map(|(n, o)| (n.to_string(), repr(&s.interp.heap, o)))
        .collect()
}

/// Every binding's ObjId and value. ObjIds are engine-independent (the
/// VM allocates in the tree-walker's order) and GC-independent (ids are
/// never reused).
fn namespace_with_ids(s: &KishuSession) -> BTreeMap<String, String> {
    s.interp
        .globals
        .bindings()
        .map(|(n, o)| (n.to_string(), format!("{o:?} {}", repr(&s.interp.heap, o))))
        .collect()
}

/// Everything [`run_scripted`] observes.
#[derive(Debug, PartialEq)]
struct Scripted {
    cells: Vec<String>,
    checkouts: Vec<String>,
    namespaces: Vec<BTreeMap<String, String>>,
    /// `total_allocated` after every cell run and checkout.
    allocated: Vec<u64>,
    /// The store's blobs at the end (`None` where a read failed).
    blobs: Vec<Option<Vec<u8>>>,
}

/// Run [`SCRIPT`], then check out every checkpoint (oldest→newest→oldest),
/// returning every comparable observation. Cells whose index is in
/// `no_store` run with `store_data: false` — their checkpoints hold code
/// only, so checking them out takes the replay (fallback recomputation)
/// path. With `sweep_every_op` the heap is also swept after every cell run
/// and checkout.
fn run_scripted(mut s: KishuSession, no_store: &[usize], sweep_every_op: bool) -> Scripted {
    let mut allocated = Vec::new();
    let mut after_op = |s: &mut KishuSession| {
        if sweep_every_op {
            s.interp.gc();
        }
        allocated.push(s.interp.heap.total_allocated());
    };
    let mut cells = Vec::new();
    let mut nodes: Vec<NodeId> = Vec::new();
    for (i, src) in SCRIPT.iter().enumerate() {
        let report = s.run_cell_with(src, !no_store.contains(&i)).expect("script cells parse");
        after_op(&mut s);
        if let Some(node) = report.node {
            nodes.push(node);
        }
        cells.push(cell_report_key(&report));
    }
    let mut checkouts = Vec::new();
    let mut namespaces = Vec::new();
    for &node in nodes.iter().chain(nodes.iter().rev()) {
        let report = s.checkout(node).expect("checkout");
        after_op(&mut s);
        checkouts.push(checkout_report_key(&report));
        namespaces.push(namespace_with_ids(&s));
    }
    let store = s.store();
    let blobs = (0..store.blob_count()).map(|i| store.get(i).ok()).collect();
    Scripted {
        cells,
        checkouts,
        namespaces,
        allocated,
        blobs,
    }
}

#[test]
fn session_reports_and_checkouts_match_across_engines() {
    for workers in [1usize, 4] {
        let settings = Settings::from_env();
        let tree =
            run_scripted(settings.in_memory_session_with(config(false, workers)), &[], false);
        let vm = run_scripted(settings.in_memory_session_with(config(true, workers)), &[], false);
        assert_eq!(tree, vm, "engine divergence at {workers} workers");
    }
}

// ---------------------------------------------------------------------------
// Level 3: degraded paths — fault injection and replay-based restore
// ---------------------------------------------------------------------------

/// Run the scripted session over a seeded fault store, with the `bump`
/// cell stored code-only so its co-variables restore by replay — checkouts
/// exercise fallback recomputation under live faults.
fn run_faulty(
    vm: bool,
    workers: usize,
    seed: u64,
    sweep_every_op: bool,
) -> (FaultLedger, Scripted) {
    let inner = Box::new(Settings::from_env().memory_store());
    let store = FaultStore::new(inner, FaultPlan::transient(0.05), seed);
    let ledger = store.ledger_handle();
    let s = KishuSession::new(Box::new(store), config(vm, workers));
    let observed = run_scripted(s, &[1], sweep_every_op);
    (ledger.snapshot(), observed)
}

#[test]
fn fault_ledgers_and_recovery_match_across_engines() {
    let seed = env_seed(20250807);
    for workers in [1usize, 4] {
        let tree = run_faulty(false, workers, seed, false);
        let vm = run_faulty(true, workers, seed, false);
        assert_eq!(
            tree.0, vm.0,
            "fault ledgers diverged at {workers} workers (seed {seed})"
        );
        assert_eq!(
            tree.1, vm.1,
            "degraded-path observations diverged at {workers} workers (seed {seed})"
        );
    }
}

/// Level 4: sweeping the heap after every operation is invisible — the
/// degraded-path session (faults, replay-based restore) observes exactly
/// what it observes at the default pacing, on both engines and widths.
#[test]
fn sweeping_after_every_operation_is_behavior_free_on_both_engines() {
    let seed = env_seed(20250807);
    for vm in [false, true] {
        for workers in [1usize, 4] {
            let paced = run_faulty(vm, workers, seed, false);
            let swept = run_faulty(vm, workers, seed, true);
            assert_eq!(
                paced.0, swept.0,
                "fault ledgers diverged under sweeps (vm={vm}, {workers} workers, seed {seed})"
            );
            assert_eq!(
                paced.1, swept.1,
                "observations diverged under sweeps (vm={vm}, {workers} workers, seed {seed})"
            );
        }
    }
}

/// The PR-2 regression, cross-engine: a cell that mutates a list and
/// rebinds a counter *before* raising checkpoints its partial effects;
/// restoring that checkpoint with the touched variables blocklisted forces
/// `run_cell_in_temp_namespace` replay, which must reproduce exactly the
/// partial mutations — identically under both engines.
#[test]
fn errored_cell_replay_matches_across_engines() {
    let run = |vm: bool| {
        let mut s = Settings::from_env().in_memory_session_with(config(vm, 1));
        let n0 = s.run_cell("ls = [1]\nk = 0\n").expect("cell 0").node.expect("node");
        // Code-only checkpoint: restoring this node replays the errored
        // cell in a temp namespace seeded from its dependencies. The cell
        // touches exactly one co-variable (`ls`) so the replay runs once
        // and the partially-mutated value is unambiguous.
        let r1 = s.run_cell_with("ls.append(1)\nboom()\n", false).expect("cell 1");
        let n1 = r1.node.expect("errored cell still checkpoints");
        assert!(r1.outcome.error.is_some(), "cell 1 must raise");
        s.run_cell("other = 5\n").expect("cell 2");
        let back0 = s.checkout(n0).expect("checkout to pre-error state");
        let ns0 = namespace(&s);
        let back1 = s.checkout(n1).expect("checkout to errored state");
        let ns1 = namespace(&s);
        assert!(
            !back1.recomputed.is_empty(),
            "blocklist must force replay-based restore"
        );
        (
            format!("{:?}", r1.outcome.error),
            checkout_report_key(&back0),
            ns0,
            checkout_report_key(&back1),
            ns1,
        )
    };
    let tree = run(false);
    let vm = run(true);
    assert_eq!(tree, vm, "replay-based restore diverged across engines");
    // And the replayed state itself is the partially-mutated one.
    assert_eq!(vm.4.get("ls").map(String::as_str), Some("[1, 1]"));
    assert_eq!(vm.4.get("k").map(String::as_str), Some("0"));
}
