//! The one place that reads the program's report structs.
//!
//! Every field the benchmark consumes from `CellReport`, `CellMetrics`,
//! `CheckoutReport`, `CacheStats` and `HealthReport` is copied here into
//! the benchmark's own plain structs, so a change to the program's report
//! shape (for instance folding `checkpoint_time` into `ckpt_wall_ns`)
//! needs one edit in this file and none elsewhere.

use kishu::session::HealthReport;
use kishu::{CellReport, CheckoutReport, KishuSession, NodeId};
use kishu_storage::CacheStats;

/// What one `run_cell` reported.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellFields {
    pub node: Option<NodeId>,
    /// Interpreter execution (`CellMetrics::cell_time`).
    pub exec_ns: u64,
    /// Delta detection (`CellReport::tracking_time`).
    pub track_ns: u64,
    /// Serialize + write (`CellReport::ckpt_wall_ns`).
    pub ckpt_ns: u64,
    pub serialize_ns: u64,
    pub write_ns: u64,
    /// Logical serialized bytes of the checkpoint.
    pub checkpoint_bytes: u64,
    pub covars_updated: u64,
    pub candidates_checked: u64,
    pub blobs_dropped: u64,
    pub blobs_deduped: u64,
    pub bytes_written: u64,
}

/// Read a cell report together with the session's per-cell metrics entry
/// for the same cell (the last one recorded).
pub fn cell_fields(report: &CellReport, session: &KishuSession) -> CellFields {
    let metrics = session
        .metrics()
        .cells
        .last()
        .expect("run_cell records a metrics entry");
    CellFields {
        node: report.node,
        exec_ns: metrics.cell_time.as_nanos() as u64,
        track_ns: report.tracking_time.as_nanos() as u64,
        ckpt_ns: report.ckpt_wall_ns,
        serialize_ns: report.serialize_ns,
        write_ns: report.write_ns,
        checkpoint_bytes: report.checkpoint_bytes,
        covars_updated: report.updated.len() as u64,
        candidates_checked: metrics.candidates_checked as u64,
        blobs_dropped: report.blobs_dropped as u64,
        blobs_deduped: report.blobs_deduped as u64,
        bytes_written: report.bytes_written,
    }
}

/// What one `checkout` reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckoutFields {
    pub target: NodeId,
    pub wall_ns: u64,
    pub fetch_ns: u64,
    pub verify_ns: u64,
    pub apply_ns: u64,
    /// Member names of every loaded co-variable.
    pub loaded: Vec<Vec<String>>,
    /// Member names of every co-variable restored by recomputation.
    pub recomputed: Vec<Vec<String>>,
    pub identical: u64,
    pub bytes_loaded: u64,
    pub integrity_failures: u64,
    pub blobs_cached: u64,
}

pub fn checkout_fields(r: &CheckoutReport) -> CheckoutFields {
    let names = |keys: &[kishu::covariable::CoVarKey]| -> Vec<Vec<String>> {
        keys.iter().map(|k| k.iter().cloned().collect()).collect()
    };
    CheckoutFields {
        target: r.target,
        wall_ns: r.co_wall_ns,
        fetch_ns: r.fetch_ns,
        verify_ns: r.verify_ns,
        apply_ns: r.apply_ns,
        loaded: names(&r.loaded),
        recomputed: names(&r.recomputed),
        identical: r.identical as u64,
        bytes_loaded: r.bytes_loaded,
        integrity_failures: r.integrity_failures as u64,
        blobs_cached: r.blobs_cached as u64,
    }
}

/// Read-cache counters as the cache itself reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheFields {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl CacheFields {
    /// Add what the counters advanced from `before` to `after`.
    pub fn add_since(&mut self, before: &CacheFields, after: &CacheFields) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.evictions += after.evictions - before.evictions;
    }
}

pub fn cache_fields(s: &CacheStats) -> CacheFields {
    CacheFields {
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
    }
}

/// The diff-report memo counters from `health()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoFields {
    pub diff_hits: u64,
    pub diff_misses: u64,
}

impl MemoFields {
    /// Add what the counters advanced from `before` to `after`.
    pub fn add_since(&mut self, before: &MemoFields, after: &MemoFields) {
        self.diff_hits += after.diff_hits - before.diff_hits;
        self.diff_misses += after.diff_misses - before.diff_misses;
    }
}

pub fn memo_fields(h: &HealthReport) -> MemoFields {
    MemoFields {
        diff_hits: h.diff_cache_hits,
        diff_misses: h.diff_cache_misses,
    }
}

/// Logical checkpoint bytes over every cell the session has run.
pub fn session_checkpoint_bytes(session: &KishuSession) -> u64 {
    session.metrics().total_checkpoint_bytes()
}

/// Member names of every co-variable a diff reports as not identical.
pub fn changed_names(report: &kishu::DiffReport) -> Vec<String> {
    report
        .entries
        .iter()
        .filter(|e| e.change != kishu::VarChange::Identical)
        .flat_map(|e| e.key.iter().cloned())
        .collect()
}

/// Node ids a history or search answered with.
pub fn history_nodes(entries: &[kishu::HistoryEntry]) -> Vec<NodeId> {
    entries.iter().map(|e| e.node).collect()
}

pub fn search_nodes(hits: &[kishu::query::SearchHit]) -> Vec<NodeId> {
    hits.iter().map(|h| h.node).collect()
}
