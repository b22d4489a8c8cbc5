//! Workload execution: set-up, the timed closed loop, correctness checks
//! (always outside the timed regions) and the post-run reopenings.
//!
//! The figures that depend on how much state a run has built — peak RSS,
//! resume time and stored bytes per logical byte — are taken at a fixed
//! point of the workload ([`Workload::fixed_ops`]), not wherever the time
//! budget stops the loop: a faster program fits more operations into the
//! budget, and must not be charged for the extra state they leave behind.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use kishu::{KishuConfig, KishuSession, NodeId};
use kishu_libsim::LibReducer;
use kishu_storage::{CheckpointStore, FileStore, StoreStats};

use crate::adapter::{self, CacheFields, CellFields, CheckoutFields, MemoFields};
use crate::clock::{peak_rss_mib, timed, OpTime};
use crate::fingerprint::{check_restored, fingerprint, mismatched_names, Fingerprint};
use crate::plan::{self, Workload};
use crate::spans::{within, Kind, SharedRecorder, Span};
use crate::stats;
use crate::store::TracingStore;

/// The post-run measurement reopens the frozen stores at least this many
/// times, and until it has spent [`REOPEN_MIN_S`] doing so: one short
/// reopening is easily slowed by another process on a shared machine, and
/// the median of many is not.
pub const REOPENINGS: usize = 5;
pub const REOPEN_MIN_S: f64 = 1.0;

/// When the timed loop ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many seconds, once the workload's tail percentile has
    /// enough samples (or after three budgets, whichever comes first) —
    /// but never before its fixed point.
    Seconds(f64),
    /// After this many primary operations: a fixed amount of work, for
    /// comparing two passes operation by operation. The fixed point is
    /// then at most this many operations in.
    Ops(usize),
}

/// One pass of a workload.
pub struct PassConfig {
    pub workload: Workload,
    pub seed: u64,
    pub stop: Stop,
    /// Directory for this pass's stores (created, and removed afterwards).
    pub dir: PathBuf,
    /// Set-up repetitions; `setup_s` is their median.
    pub setups: usize,
    /// Span recorder: `Some` for the traced pass.
    pub recorder: Option<SharedRecorder>,
}

/// Everything a pass measured.
#[derive(Default)]
pub struct PassResult {
    pub setup_s: Vec<f64>,
    /// The workload's primary operation, one entry per timed op.
    pub primary: Vec<OpTime>,
    /// Other timed operations (the dashboard's durable commits).
    pub secondary: Vec<OpTime>,
    /// Wall time of the timed phase in seconds, without the benchmark's
    /// own checks and snapshots inside it.
    pub timed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness mismatches; any entry fails the run.
    pub mismatches: Vec<String>,
    /// Recomputed co-variables whose value differed from the recorded one
    /// (reported, not failed: recomputation replays cells).
    pub recomputed_mismatches: u64,
    /// Co-variables stored without bytes because the serializer refuses
    /// their value (restored by recomputation, not failures).
    pub unserializable_drops: u64,
    /// Sampled view answers checked against the brute-force oracles.
    pub oracle_checks: u64,
    /// Checkouts checked against recorded fingerprints.
    pub checkout_checks: u64,
    /// Resumed namespaces checked against the live head they were saved at.
    pub resume_checks: u64,
    /// Peak resident set (`VmHWM`, MiB) at the workload's fixed point.
    pub peak_rss_mib: f64,
    /// One sample per reopening: the time to resume every frozen store.
    pub resume_ms: Vec<f64>,
    /// Bytes of the frozen store files, and the logical checkpoint bytes
    /// of the sessions that had written them.
    pub frozen_file_bytes: u64,
    pub frozen_logical_bytes: u64,
    /// Per store at the end of the run: the session's `store_stats()` and
    /// the file's length and content hash.
    pub stores: Vec<(StoreStats, u64, u64)>,
    /// Report fields of the timed phase's cells and checkouts.
    pub cells: Vec<CellFields>,
    pub checkouts: Vec<CheckoutFields>,
    /// Read-cache and diff-memo counters, advanced over the timed phase.
    pub cache: CacheFields,
    pub memo: MemoFields,
    /// Spans of the timed phase and the reopenings (traced pass only).
    pub spans: Vec<Span>,
    /// Time the timed phase spent on the benchmark's own work.
    aside: Duration,
}

impl PassResult {
    fn fail(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            eprintln!("correctness mismatch: {what}");
        }
        self.mismatches.push(what);
    }

    /// Run the benchmark's own work (a check, a snapshot) inside the timed
    /// phase, keeping its time out of the phase's wall time.
    fn aside<T>(&mut self, f: impl FnOnce(&mut PassResult) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self);
        self.aside += t0.elapsed();
        out
    }
}

type Res<T> = Result<T, String>;

fn mkdir(dir: &Path) -> Res<()> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))
}

// Stores keep FileStore's default flush policy: group commit, with each
// flush barrier writing the buffered records to the OS but not calling
// `sync_data`, so a persisted commit survives a process crash. Calling
// `set_sync_on_put(true)` adds one `sync_data` per barrier; on a shared
// virtual disk that made the median durable commit move 27% between
// consecutive runs (10% without), so the benchmark measures the default.
fn create_store(path: &Path) -> Res<FileStore> {
    FileStore::create(path).map_err(|e| format!("create {}: {e}", path.display()))
}

fn open_store(path: &Path) -> Res<FileStore> {
    FileStore::open(path).map_err(|e| format!("open {}: {e}", path.display()))
}

fn boxed(fs: FileStore, rec: Option<&SharedRecorder>) -> Box<dyn CheckpointStore> {
    match rec {
        Some(r) => Box::new(TracingStore::new(fs, r.clone())),
        None => Box::new(fs),
    }
}

/// `FileStore::open` + `KishuSession::resume`, each in its own span.
fn resume(path: &Path, rec: Option<&SharedRecorder>) -> Res<KishuSession> {
    let fs = within(rec, Kind::Open, || open_store(path))?;
    let store = boxed(fs, rec);
    within(rec, Kind::Resume, || {
        KishuSession::resume(store, KishuConfig::default())
    })
    .map_err(|e| format!("resume {}: {e}", path.display()))
}

/// One set-up repetition: its directory, a stopwatch that runs only while
/// set-up work (not checking) happens, and whether its sessions are the
/// ones the timed phase uses (only those record fingerprints and checks).
struct Setup<'a> {
    dir: PathBuf,
    rec: Option<&'a SharedRecorder>,
    elapsed: Duration,
    last: bool,
}

impl<'a> Setup<'a> {
    fn new(dir: PathBuf, rec: Option<&'a SharedRecorder>, last: bool) -> Res<Self> {
        mkdir(&dir)?;
        Ok(Setup {
            dir,
            rec,
            elapsed: Duration::ZERO,
            last,
        })
    }

    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.elapsed += t0.elapsed();
        out
    }

    /// A session on a fresh store named `name` in this repetition's
    /// directory.
    fn session(&mut self, name: &str) -> Res<(PathBuf, KishuSession)> {
        let path = self.dir.join(format!("{name}.log"));
        let rec = self.rec;
        let session = self.time(|| {
            Ok::<_, String>(KishuSession::new(
                boxed(create_store(&path)?, rec),
                KishuConfig::default(),
            ))
        })?;
        Ok((path, session))
    }

    /// Run a set-up cell, which must commit and store every co-variable.
    fn cell(&mut self, s: &mut KishuSession, src: &str) -> Res<NodeId> {
        let report = self
            .time(|| s.run_cell(src))
            .map_err(|e| format!("set-up cell failed: {e:?}"))?;
        let f = adapter::cell_fields(&report, s);
        if f.blobs_dropped > 0 {
            return Err(format!("set-up cell dropped a blob: {src:?}"));
        }
        f.node
            .ok_or_else(|| "set-up cell committed no node".to_string())
    }

    fn checkout(&mut self, s: &mut KishuSession, target: NodeId) -> Res<CheckoutFields> {
        let r = self
            .time(|| s.checkout(target))
            .map_err(|e| format!("set-up checkout: {e}"))?;
        let f = adapter::checkout_fields(&r);
        if f.integrity_failures > 0 {
            return Err("set-up checkout hit an integrity failure".into());
        }
        Ok(f)
    }

    fn persist(&mut self, s: &mut KishuSession) -> Res<()> {
        self.time(|| s.persist())
            .map_err(|e| format!("set-up persist: {e}"))
    }
}

/// Set up `cfg.setups` times, each repetition in a fresh directory;
/// `setup_s` records each repetition's time. Keeps what the last one
/// built and discards the rest.
fn repeat_setup<T>(
    cfg: &PassConfig,
    out: &mut PassResult,
    mut build: impl FnMut(&mut Setup, &mut PassResult) -> Res<T>,
) -> Res<T> {
    let mut kept = None;
    for rep in 0..cfg.setups {
        let last = rep + 1 == cfg.setups;
        let mut setup = Setup::new(
            cfg.dir.join(format!("setup{rep}")),
            cfg.recorder.as_ref(),
            last,
        )?;
        let built = build(&mut setup, out)?;
        out.setup_s.push(setup.elapsed.as_secs_f64());
        if last {
            kept = Some(built);
        } else {
            drop(built);
            let _ = std::fs::remove_dir_all(&setup.dir);
        }
    }
    kept.ok_or_else(|| "no set-up ran".to_string())
}

/// The timed loop's stopping rule (see [`Stop`]) and clock.
struct Budget {
    start: Instant,
    stop: Stop,
    /// Primary operations after which the fixed-point figures are taken.
    fixed_point: usize,
    /// Primary operations the tail percentile needs.
    min_tail: usize,
}

impl Budget {
    fn new(cfg: &PassConfig) -> Self {
        let fixed_point = match cfg.stop {
            Stop::Seconds(_) => cfg.workload.fixed_ops(),
            Stop::Ops(n) => n.min(cfg.workload.fixed_ops()),
        };
        Budget {
            start: Instant::now(),
            stop: cfg.stop,
            fixed_point,
            min_tail: stats::min_samples(cfg.workload.tail_cap()),
        }
    }

    /// Seconds of the timed phase so far, without the benchmark's own work.
    fn elapsed(&self, out: &PassResult) -> f64 {
        self.start.elapsed().saturating_sub(out.aside).as_secs_f64()
    }

    fn done(&self, out: &PassResult) -> bool {
        let primary = out.primary.len();
        if primary < self.fixed_point {
            return false;
        }
        match self.stop {
            Stop::Seconds(s) => {
                let elapsed = self.elapsed(out);
                (elapsed >= s && primary >= self.min_tail) || elapsed >= 3.0 * s
            }
            Stop::Ops(n) => primary >= n,
        }
    }

    /// Whether the primary operation just completed is the fixed point.
    /// Reads the peak resident set there.
    fn at_fixed_point(&self, out: &mut PassResult) -> bool {
        let at = out.primary.len() == self.fixed_point;
        if at {
            out.peak_rss_mib = peak_rss_mib();
        }
        at
    }

    /// Close the timed phase.
    fn finish(&self, out: &mut PassResult) {
        out.timed_s = self.elapsed(out);
    }
}

/// A durable commit: `run_cell` then `persist`, timed as one operation.
fn durable_commit(
    s: &mut KishuSession,
    src: &str,
    rec: Option<&SharedRecorder>,
    out: &mut PassResult,
) -> (Option<CellFields>, OpTime) {
    let ((cell, persisted), t) = timed(|| {
        let cell = within(rec, Kind::RunCell, || s.run_cell(src));
        let persisted = within(rec, Kind::Persist, || s.persist());
        (cell, persisted)
    });
    out.attempted += 1;
    let fields = cell.ok().map(|r| adapter::cell_fields(&r, s));
    let ok = persisted.is_ok()
        && fields.as_ref().is_some_and(|f| {
            f.blobs_dropped == 0 || out.aside(|out| drops_are_unserializable(s, f, out))
        });
    if !ok {
        out.failed += 1;
    }
    (fields, t)
}

/// Whether every co-variable the cell's commit stored without bytes is a
/// value the serializer refuses (checked by pickling it again). Such a
/// drop is the program's designed fallback — checkout and resume rebuild
/// the value by replaying its cell — and is counted apart; a drop of a
/// serializable value means a store write failed, and fails the operation.
fn drops_are_unserializable(s: &KishuSession, f: &CellFields, out: &mut PassResult) -> bool {
    let Some(node) = f.node else { return false };
    let reducer = LibReducer::new(s.registry().clone());
    let refused = s
        .graph()
        .node(node)
        .delta
        .iter()
        .filter(|sc| sc.blob.is_none())
        .filter(|sc| {
            let roots: Vec<_> = sc
                .names
                .iter()
                .filter_map(|n| s.interp.globals.peek(n))
                .collect();
            roots.len() == sc.names.len()
                && kishu_pickle::dumps(&s.interp.heap, &roots, &reducer).is_err()
        })
        .count() as u64;
    out.unserializable_drops += refused;
    refused == f.blobs_dropped
}

/// A copy of a store as it stood at the workload's fixed point, and the
/// namespace resuming it must give.
struct Frozen {
    path: PathBuf,
    expected: Fingerprint,
}

/// Copy each session's store into the pass's `frozen` directory as it
/// stands now (every session given here has persisted its head), with the
/// head's fingerprint; adds the file bytes and the sessions' logical
/// checkpoint bytes to the pass's totals.
fn freeze<'a>(
    sessions: impl IntoIterator<Item = (&'a KishuSession, &'a Path)>,
    pass_dir: &Path,
    out: &mut PassResult,
) -> Res<Vec<Frozen>> {
    let dir = pass_dir.join("frozen");
    mkdir(&dir)?;
    sessions
        .into_iter()
        .map(|(s, path)| {
            let copy = dir.join(path.file_name().expect("store paths name a file"));
            out.frozen_file_bytes +=
                std::fs::copy(path, &copy).map_err(|e| format!("copy {}: {e}", path.display()))?;
            out.frozen_logical_bytes += adapter::session_checkpoint_bytes(s);
            Ok(Frozen {
                path: copy,
                expected: fingerprint(s),
            })
        })
        .collect()
}

fn check_resumed(out: &mut PassResult, path: &Path, expected: &Fingerprint, s: &KishuSession) {
    out.resume_checks += 1;
    let bad = mismatched_names(expected, &fingerprint(s), &[]);
    if !bad.is_empty() {
        out.fail(format!(
            "{}: resumed namespace differs from the live head in {bad:?}",
            path.display()
        ));
    }
}

/// Time resuming the frozen stores: each reopening resumes every one with
/// `FileStore::open` + `KishuSession::resume`, and one `resume_ms` sample
/// is the time to resume them all (see [`REOPENINGS`]). Every resumed
/// namespace is checked against the head frozen with it.
fn reopen(frozen: &[Frozen], rec: Option<&SharedRecorder>, out: &mut PassResult) -> Res<()> {
    let mut spent_ms = 0.0;
    while out.resume_ms.len() < REOPENINGS || spent_ms < REOPEN_MIN_S * 1e3 {
        let mut total_ns = 0;
        for f in frozen {
            let (resumed, t) = timed(|| resume(&f.path, rec));
            total_ns += t.wall_ns;
            check_resumed(out, &f.path, &f.expected, &resumed?);
        }
        out.resume_ms.push(total_ns as f64 / 1e6);
        spent_ms += total_ns as f64 / 1e6;
    }
    Ok(())
}

/// End live sessions and read back what they wrote: each session persists
/// and fingerprints its head and is dropped; its store is resumed once,
/// untimed and untraced, and checked against that head, so the commits of
/// the timed phase are read back too. Records each store's statistics and
/// file bytes, then deletes the file.
fn end_sessions(
    sessions: impl IntoIterator<Item = (KishuSession, PathBuf)>,
    out: &mut PassResult,
) -> Res<()> {
    for (mut session, path) in sessions {
        let what = path.display().to_string();
        session
            .persist()
            .map_err(|e| format!("{what}: final persist: {e}"))?;
        let expected = fingerprint(&session);
        let stats = session.store_stats();
        drop(session);
        let bytes = std::fs::read(&path).map_err(|e| format!("read {what}: {e}"))?;
        out.stores.push((
            stats,
            bytes.len() as u64,
            kishu_testkit::hash::xxh64(&bytes, 0),
        ));
        let resumed = resume(&path, None)?;
        check_resumed(out, &path, &expected, &resumed);
        drop(resumed);
        let _ = std::fs::remove_file(&path);
    }
    Ok(())
}

/// A session's read-cache and diff-memo counters.
fn counters(s: &KishuSession) -> (CacheFields, MemoFields) {
    (
        adapter::cache_fields(&s.read_cache_stats()),
        adapter::memo_fields(&s.health()),
    )
}

/// Add what a session's counters advanced since `before` to the pass's.
fn tally(out: &mut PassResult, before: &(CacheFields, MemoFields), s: &KishuSession) {
    let after = counters(s);
    out.cache.add_since(&before.0, &after.0);
    out.memo.add_since(&before.1, &after.1);
}

fn take_spans(rec: Option<&SharedRecorder>) -> Vec<Span> {
    rec.map(|r| r.borrow().spans().to_vec()).unwrap_or_default()
}

fn clear_spans(rec: Option<&SharedRecorder>) {
    if let Some(r) = rec {
        r.borrow_mut().clear();
    }
}

/// Run one pass of `cfg.workload`.
pub fn run_pass(cfg: &PassConfig) -> Res<PassResult> {
    mkdir(&cfg.dir)?;
    let result = match cfg.workload {
        Workload::NotebookReplay => notebook_replay(cfg),
        Workload::UndoRedo => undo_redo(cfg),
        Workload::Dashboard => dashboard(cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.dir);
    result
}

/// One notebook of a replay round: its store, cell sources and session.
struct Replay {
    path: PathBuf,
    cells: Vec<String>,
    session: KishuSession,
}

/// A replay round's set-up: a store and session per notebook, each of
/// which runs the notebook's first cell, its dataset load, and persists.
fn replay_round(setup: &mut Setup) -> Res<Vec<Replay>> {
    plan::replay_sessions()
        .into_iter()
        .enumerate()
        .map(|(i, (name, cells))| {
            let (path, mut session) = setup.session(&format!("{i}-{name}"))?;
            setup.cell(&mut session, &cells[0])?;
            setup.persist(&mut session)?;
            Ok(Replay {
                path,
                cells,
                session,
            })
        })
        .collect()
}

fn notebook_replay(cfg: &PassConfig) -> Res<PassResult> {
    let rec = cfg.recorder.as_ref();
    let mut out = PassResult::default();
    let mut sessions = repeat_setup(cfg, &mut out, |setup, _| replay_round(setup))?;
    clear_spans(rec);

    let lens = |ss: &[Replay]| ss.iter().map(|r| r.cells.len() - 1).collect();
    let mut round = 0u64;
    let mut order = plan::Interleave::new(lens(&sessions), plan::stream(cfg.seed, round));
    let mut frozen = Vec::new();
    let budget = Budget::new(cfg);
    while !budget.done(&out) {
        let Some((i, k)) = order.next_cell() else {
            // A finished round is read back and dropped, so the state the
            // run holds does not grow with the rounds the budget fits.
            let finished = sessions.drain(..).map(|r| (r.session, r.path));
            out.aside(|out| end_sessions(finished, out))?;
            round += 1;
            let mut setup = Setup::new(cfg.dir.join(format!("round{round}")), rec, true)?;
            sessions = replay_round(&mut setup)?;
            order = plan::Interleave::new(lens(&sessions), plan::stream(cfg.seed, round));
            continue;
        };
        let r = &mut sessions[i];
        let (fields, t) = durable_commit(&mut r.session, &r.cells[k + 1], rec, &mut out);
        out.cells.extend(fields);
        out.primary.push(t);
        if budget.at_fixed_point(&mut out) {
            let live = sessions.iter().map(|r| (&r.session, r.path.as_path()));
            frozen = out.aside(|out| freeze(live, &cfg.dir, out))?;
        }
    }
    budget.finish(&mut out);
    end_sessions(sessions.into_iter().map(|r| (r.session, r.path)), &mut out)?;
    reopen(&frozen, rec, &mut out)?;
    out.spans = take_spans(rec);
    Ok(out)
}

fn undo_redo(cfg: &PassConfig) -> Res<PassResult> {
    let rec = cfg.recorder.as_ref();
    let mut out = PassResult::default();
    let cells = plan::undo_redo_cells(cfg.seed);
    let (path, mut s, nodes, prints) = repeat_setup(cfg, &mut out, |setup, _| {
        let (path, mut s) = setup.session("undo")?;
        let mut nodes = Vec::with_capacity(cells.len());
        let mut prints = Vec::with_capacity(cells.len());
        for src in &cells {
            nodes.push(setup.cell(&mut s, src)?);
            if setup.last {
                prints.push(fingerprint(&s));
            }
        }
        setup.persist(&mut s)?;
        Ok((path, s, nodes, prints))
    })?;
    // The timed phase only reads, so the set-up store is the fixed state.
    let frozen = freeze([(&s, path.as_path())], &cfg.dir, &mut out)?;
    clear_spans(rec);

    let before = counters(&s);
    let mut walk = plan::CheckoutWalk::new(cfg.seed, nodes.len());
    let budget = Budget::new(cfg);
    while !budget.done(&out) {
        let target = walk.next_target();
        let (report, t) = timed(|| within(rec, Kind::Checkout, || s.checkout(nodes[target])));
        out.attempted += 1;
        out.primary.push(t);
        match report {
            Ok(r) => {
                let f = adapter::checkout_fields(&r);
                if f.integrity_failures > 0 {
                    out.failed += 1;
                }
                out.aside(|out| check_checkout(out, &prints[target], &s, &f));
                out.checkouts.push(f);
            }
            Err(_) => out.failed += 1,
        }
        budget.at_fixed_point(&mut out);
    }
    budget.finish(&mut out);
    tally(&mut out, &before, &s);
    end_sessions([(s, path)], &mut out)?;
    reopen(&frozen, rec, &mut out)?;
    out.spans = take_spans(rec);
    Ok(out)
}

fn check_checkout(
    out: &mut PassResult,
    expected: &Fingerprint,
    s: &KishuSession,
    f: &CheckoutFields,
) {
    out.checkout_checks += 1;
    let (strict, soft) = check_restored(expected, &fingerprint(s), &f.recomputed);
    if !strict.is_empty() {
        out.fail(format!(
            "checkout to {:?}: namespace differs from the commit's in {strict:?}",
            f.target
        ));
    }
    out.recomputed_mismatches += soft.len() as u64;
}

fn dashboard(cfg: &PassConfig) -> Res<PassResult> {
    let rec = cfg.recorder.as_ref();
    let mut out = PassResult::default();
    let (cells, setup_cells) = plan::dashboard_cells();
    let checkouts = plan::dashboard_setup_checkouts(cfg.seed, setup_cells);
    let (path, s, setup_nodes) = repeat_setup(cfg, &mut out, |setup, out| {
        let (path, mut s) = setup.session("dash")?;
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut prints = Vec::new();
        let mut pending = checkouts.iter().peekable();
        for src in &cells[..setup_cells] {
            nodes.push(setup.cell(&mut s, src)?);
            if setup.last {
                prints.push(fingerprint(&s));
            }
            if let Some(&(_, target)) = pending.next_if(|(after, _)| *after == nodes.len()) {
                let f = setup.checkout(&mut s, nodes[target])?;
                if setup.last {
                    check_checkout(out, &prints[target], &s, &f);
                }
            }
        }
        setup.persist(&mut s)?;
        Ok((path, s, nodes))
    })?;
    let frozen = freeze([(&s, path.as_path())], &cfg.dir, &mut out)?;
    drop(s);
    clear_spans(rec);

    // Each durable commit grows the graph the views read, and view cost
    // grows with it. So the timed phase runs in cycles, each of which
    // reopens the set-up store and reruns the notebook on it, one cell
    // after every `VIEWS_PER_COMMIT` views: the graph a view reads does not
    // depend on how many views the budget fits.
    let mut picker = plan::ViewPicker::new(cfg.seed);
    let budget = Budget::new(cfg);
    let mut cycle = 0;
    while !budget.done(&out) {
        let path = cfg.dir.join(format!("cycle{cycle}.log"));
        out.aside(|_| std::fs::copy(&frozen[0].path, &path))
            .map_err(|e| format!("copy the set-up store: {e}"))?;
        let mut s = resume(&path, rec)?;
        let before = counters(&s);
        let mut nodes = setup_nodes.clone();
        for src in &cells[setup_cells..] {
            for _ in 0..plan::VIEWS_PER_COMMIT {
                let v = picker.next_view(nodes.len());
                view(&mut s, nodes[v.commit], v.deep, rec, &mut out);
                budget.at_fixed_point(&mut out);
            }
            let (fields, t) = durable_commit(&mut s, src, rec, &mut out);
            out.secondary.push(t);
            if let Some(f) = fields {
                nodes.extend(f.node);
                out.cells.push(f);
            }
            if budget.done(&out) {
                break;
            }
        }
        out.aside(|out| {
            tally(out, &before, &s);
            end_sessions([(s, path)], out)
        })?;
        cycle += 1;
    }
    budget.finish(&mut out);
    reopen(&frozen, rec, &mut out)?;
    out.spans = take_spans(rec);
    Ok(out)
}

/// Views checked against the brute-force oracles: one in this many.
const ORACLE_EVERY: usize = 10;

/// One dashboard view of commit `a`: `diff(parent(a), a)` (deep when
/// asked), `history` of up to four changed variables, `search` of the
/// first.
fn view(
    s: &mut KishuSession,
    a: NodeId,
    deep: bool,
    rec: Option<&SharedRecorder>,
    out: &mut PassResult,
) {
    let (answer, t) = timed(|| {
        let parent = s
            .graph()
            .node(a)
            .parent
            .expect("views target non-root commits");
        let diff = if deep {
            within(rec, Kind::DiffDeep, || s.diff_deep(parent, a))
        } else {
            within(rec, Kind::Diff, || s.diff(parent, a))
        }?;
        let mut names: Vec<String> = Vec::new();
        for n in adapter::changed_names(&diff) {
            if names.len() < 4 && !names.contains(&n) {
                names.push(n);
            }
        }
        let histories: Vec<_> = names
            .iter()
            .map(|n| within(rec, Kind::History, || s.history(n)))
            .collect();
        let searched = names
            .first()
            .map(|n| within(rec, Kind::Search, || s.search(n)));
        Ok::<_, kishu::KishuError>((names, histories, searched))
    });
    out.attempted += 1;
    out.primary.push(t);
    let Ok((names, histories, searched)) = answer else {
        out.failed += 1;
        return;
    };
    if !out.primary.len().is_multiple_of(ORACLE_EVERY) {
        return;
    }
    out.aside(|out| {
        out.oracle_checks += 1;
        let g = s.graph();
        for (n, h) in names.iter().zip(&histories) {
            if adapter::history_nodes(h) != g.history_bruteforce(n, g.head()) {
                out.fail(format!("history({n}) disagrees with history_bruteforce"));
            }
        }
        if let (Some(n), Some(hits)) = (names.first(), &searched) {
            if adapter::search_nodes(hits) != g.search_bruteforce(n) {
                out.fail(format!("search({n}) disagrees with search_bruteforce"));
            }
        }
    });
}
