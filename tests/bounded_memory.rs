//! Memory stays bounded under time travel.
//!
//! A session that only checks out — the undo/redo demo — must free the
//! values each checkout replaces, as CPython does when a rebind drops the
//! last reference. The session below has the shape of the repository
//! benchmark's `undo-redo` workload: 16 library objects of 256 KiB, 200
//! commits that each rebind two of them with fresh payloads, then 200
//! seeded undos, redos and jumps. After every operation the heap may hold
//! (live plus not yet swept) at most `live + max(32 MiB, live)` bytes,
//! the kernel's pacing bound. A kernel that paced sweeps by object count
//! alone, and never swept on checkout, exceeded it before the set-up
//! cells were done: each cell allocates a handful of objects but half a
//! megabyte of payload.

use kishu::session::KishuSession;
use kishu::NodeId;
use kishu_bench::settings::Settings;
use kishu_testkit::rng::{env_seed, Rng};

const VARS: usize = 16;
const PAYLOAD: usize = 256 * 1024;
const COMMITS: usize = 200;
const CHECKOUTS: usize = 200;
const MIB: u64 = 1024 * 1024;

/// Heap bytes held against the bound, with `what` naming the operation.
fn assert_bounded(s: &KishuSession, what: &str) {
    let heap = &s.interp.heap;
    let held = heap.stats().live_bytes;
    let live = heap.deep_size(s.interp.globals.roots());
    let bound = live + live.max(32 * MIB);
    assert!(
        held <= bound,
        "after {what}: heap holds {held} B for {live} B live (bound {bound} B)"
    );
}

#[test]
fn checkouts_free_what_they_replace() {
    let seed = env_seed(0xB0_0DED);
    let mut rng = Rng::seed_from_u64(seed);
    let mut bind = |k: usize| {
        let s = rng.random_range(0..1_000_000_000u64);
        format!("v{k} = lib_obj('sk.KMeans', {PAYLOAD}, {s})\n")
    };
    let mut s = Settings::from_env().in_memory_session();
    let mut nodes: Vec<NodeId> = Vec::new();
    let first: String = (0..VARS).map(&mut bind).collect();
    let commit = |s: &mut KishuSession, cell: &str| {
        s.run_cell(cell).expect("cell parses").node.expect("commit")
    };
    nodes.push(commit(&mut s, &first));
    let mut pick = Rng::seed_from_u64(seed ^ 1);
    while nodes.len() < COMMITS {
        let a = pick.random_range(0..VARS);
        let b = (a + 1 + pick.random_range(0..VARS - 1)) % VARS;
        let cell = bind(a) + &bind(b);
        nodes.push(commit(&mut s, &cell));
        assert_bounded(&s, &format!("cell {}", nodes.len()));
    }
    let mut at = COMMITS - 1;
    for i in 0..CHECKOUTS {
        // Mostly short undo/redo steps, with a jump every few checkouts.
        at = if pick.random_range(0..10u32) < 3 {
            pick.random_range(0..COMMITS)
        } else {
            let step = pick.random_range(1..3usize);
            if pick.random_range(0..2u32) == 0 {
                at.saturating_sub(step)
            } else {
                (at + step).min(COMMITS - 1)
            }
        };
        s.checkout(nodes[at]).expect("checkout");
        assert_bounded(&s, &format!("checkout {i} to commit {at}"));
    }
}
