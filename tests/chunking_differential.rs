//! Storage-engine-v2 differential: chunking and compression are
//! **representation-only**. With the chunk layer on vs off (the
//! `KISHU_CHUNKING=0` kill-switch position, pinned programmatically here
//! so both arms run in every pass):
//!
//! 1. every logical view is byte-identical — blob ids, payload bytes read
//!    back, restored namespaces at every checkpoint;
//! 2. every cell report is identical *minus the physical-byte fields*
//!    (`bytes_written`, `chunks_written`, `chunks_deduped`,
//!    `bytes_compressed` are exactly the representation-dependent truth the
//!    receipts exist to tell);
//! 3. fault ledgers are identical — the fault layer draws per logical
//!    operation, so the representation underneath cannot shift a draw;
//!
//! at restore/checkpoint workers 1 and 4, over [`MemoryStore`] and
//! [`FileStore`] backends, plus a [`FaultStore`]-wrapped arm.

use std::collections::BTreeMap;
use std::path::PathBuf;

use kishu::session::{CellReport, KishuConfig, KishuSession};
use kishu::NodeId;
use kishu_bench::settings::Settings;
use kishu_minipy::repr::repr;
use kishu_storage::chunk::ChunkConfig;
use kishu_storage::{
    CheckpointStore, FaultLedgerHandle, FaultPlan, FaultStore, FileStore, MemoryStore,
};
use kishu_testkit::rng::Rng;

const WORKER_COUNTS: [usize; 2] = [1, 4];

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kishu-chunkdiff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

/// Cells exercising the chunk layer for real: multi-KB lists that get
/// appended to (large-object-small-mutation — the chunker's home turf),
/// plus small values that stay on the v1 path, repeats that dedup at the
/// blob level, and deletes.
fn scripted_cells(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut cells = Vec::new();
    cells.push(format!(
        "big = list(range({}))\nsmall = 7\n",
        800 + rng.random_range(0..200usize)
    ));
    for i in 0..n {
        let cell = match rng.random_range(0..6u32) {
            0 => format!("big.append({})\n", rng.random_range(0..1000i64)),
            1 => format!("small = {}\n", rng.random_range(0..100i64)),
            2 => format!("copy{i} = big\n"),
            3 => format!("other{i} = list(range({}))\n", 700 + rng.random_range(0..50usize)),
            4 => "probe = 1\ndel probe\n".to_string(),
            _ => format!("big[{}] = {}\n", rng.random_range(0..500usize), i),
        };
        cells.push(cell);
    }
    cells
}

/// The logical slice of a [`CellReport`] — everything except the
/// physical-byte fields, which are representation-dependent by design.
type Fingerprint = (Option<NodeId>, u64, usize, usize, Vec<String>);

fn logical_fingerprint(r: &CellReport) -> Fingerprint {
    (
        r.node,
        r.checkpoint_bytes,
        r.blobs_dropped,
        r.blobs_deduped,
        r.updated.iter().map(|k| format!("{k:?}")).collect(),
    )
}

fn snapshot(s: &KishuSession) -> BTreeMap<String, String> {
    s.interp
        .globals
        .bindings()
        .map(|(n, o)| (n.to_string(), repr(&s.interp.heap, o)))
        .collect()
}

/// Everything logically observable from a run: per-cell fingerprints, the
/// store's logical view (every blob's bytes in id order), blob/payload
/// counts, every restored namespace, and the final namespace.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    reports: Vec<Fingerprint>,
    store_view: Vec<Vec<u8>>,
    logical_stats: (u64, u64),
    at_nodes: Vec<(NodeId, BTreeMap<String, String>)>,
    final_ns: BTreeMap<String, String>,
}

/// Physical attribution of the same run, for the arms where it must differ.
#[derive(Debug, Clone, Copy)]
struct Physical {
    bytes_written: u64,
    chunks_written: u64,
    chunks_deduped: u64,
    bytes_compressed: u64,
}

fn observe(store: Box<dyn CheckpointStore>, cells: &[String], workers: usize) -> (Observation, Physical) {
    let config = KishuConfig {
        checkpoint_workers: workers,
        restore_workers: workers,
        ..Settings::from_env().kishu
    };
    let mut s = KishuSession::new(store, config);
    let mut reports = Vec::new();
    let mut nodes = Vec::new();
    for cell in cells {
        let r = s.run_cell(cell).expect("generated cells parse");
        if let Some(n) = r.node {
            nodes.push(n);
        }
        reports.push(logical_fingerprint(&r));
    }
    s.persist().expect("persist");
    let final_ns = snapshot(&s);
    let store_view: Vec<Vec<u8>> = (0..s.store().blob_count())
        .map(|i| s.store().get(i).expect("logical view reads back"))
        .collect();
    let st = s.store_stats();
    let mut at_nodes = Vec::new();
    for n in nodes {
        s.checkout(n).expect("checkout");
        at_nodes.push((n, snapshot(&s)));
    }
    let m = s.metrics();
    let physical = Physical {
        bytes_written: m.total_bytes_written(),
        chunks_written: m.total_chunks_written(),
        chunks_deduped: m.total_chunks_deduped(),
        bytes_compressed: m.total_bytes_compressed(),
    };
    (
        Observation {
            reports,
            store_view,
            logical_stats: (st.blobs, st.payload_bytes),
            at_nodes,
            final_ns,
        },
        physical,
    )
}

/// Chunking on with aggressive thresholds, so the scripted payloads
/// actually chunk (default min is 2048; sealed list payloads here run a
/// few KB).
fn v2_cfg() -> ChunkConfig {
    ChunkConfig { enabled: true, compress: true, min: 64, avg: 256, max: 1024 }
}

#[test]
fn chunking_is_representation_only_memory_store() {
    let cells = scripted_cells(0x5EED_C4F2, 14);
    for workers in WORKER_COUNTS {
        let (on, on_phys) =
            observe(Box::new(MemoryStore::with_config(v2_cfg())), &cells, workers);
        let (off, off_phys) =
            observe(Box::new(MemoryStore::with_config(ChunkConfig::disabled())), &cells, workers);
        assert_eq!(on, off, "logical views diverged at workers={workers}");
        // And the physical story must actually differ: the v2 arm chunked,
        // deduped, and wrote fewer physical bytes.
        assert!(on_phys.chunks_written > 0, "v2 arm never chunked: {on_phys:?}");
        assert!(on_phys.chunks_deduped > 0, "append-style edits must chunk-dedup");
        assert_eq!(off_phys.chunks_written, 0);
        assert_eq!(off_phys.bytes_compressed, 0);
        assert!(
            on_phys.bytes_written < off_phys.bytes_written,
            "chunk dedup + compression must shrink physical writes: {on_phys:?} vs {off_phys:?}"
        );
    }
}

#[test]
fn chunking_is_representation_only_file_store() {
    let cells = scripted_cells(0x5EED_F11E, 12);
    for workers in WORKER_COUNTS {
        let on_path = temp_path(&format!("on-{workers}.log"));
        let off_path = temp_path(&format!("off-{workers}.log"));
        let (on, on_phys) = observe(
            Box::new(FileStore::create_with(&on_path, v2_cfg()).expect("create")),
            &cells,
            workers,
        );
        let (off, off_phys) = observe(
            Box::new(FileStore::create_with(&off_path, ChunkConfig::disabled()).expect("create")),
            &cells,
            workers,
        );
        assert_eq!(on, off, "logical views diverged at workers={workers}");
        assert!(on_phys.chunks_written > 0, "v2 arm never chunked: {on_phys:?}");
        assert!(on_phys.bytes_written < off_phys.bytes_written, "{on_phys:?} vs {off_phys:?}");
        // The on-disk logs themselves must reflect the physical savings.
        let on_len = std::fs::metadata(&on_path).expect("meta").len();
        let off_len = std::fs::metadata(&off_path).expect("meta").len();
        assert!(on_len < off_len, "v2 log ({on_len}B) not smaller than v1 ({off_len}B)");
        // A reopened v2 log serves the identical logical view.
        let reopened = FileStore::open_with(&on_path, Settings::from_env().chunk).expect("open");
        let view: Vec<Vec<u8>> =
            (0..reopened.blob_count()).map(|i| reopened.get(i).expect("get")).collect();
        assert_eq!(view, on.store_view, "reopen changed the logical view");
        std::fs::remove_file(&on_path).ok();
        std::fs::remove_file(&off_path).ok();
    }
}

#[test]
fn chunking_does_not_shift_fault_draws() {
    let cells = scripted_cells(0x5EED_FA17, 12);
    let plan = FaultPlan {
        put_transient_p: 0.08,
        get_transient_p: 0.05,
        bit_flip_p: 0.03,
        ..FaultPlan::none()
    };
    for workers in WORKER_COUNTS {
        let run = |cfg: ChunkConfig| {
            let fs = FaultStore::new(Box::new(MemoryStore::with_config(cfg)), plan.clone(), 0xFA17);
            let ledger: FaultLedgerHandle = fs.ledger_handle();
            let (obs, _) = observe(Box::new(fs), &cells, workers);
            (obs, ledger.snapshot())
        };
        let (on, on_ledger) = run(v2_cfg());
        let (off, off_ledger) = run(ChunkConfig::disabled());
        assert_eq!(on, off, "faulty logical views diverged at workers={workers}");
        assert_eq!(
            on_ledger, off_ledger,
            "representation change shifted the fault ledger at workers={workers}"
        );
    }
}
