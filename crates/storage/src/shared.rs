//! Multi-tenant shared checkpoint store.
//!
//! The paper's demo checkpoints one notebook session into one store; the
//! north star is millions of users, where cross-user redundancy (the same
//! dataset loaded, the same model trained) is the dominant storage win.
//! [`SharedStore`] is that deployment shape:
//!
//! * **Store-wide dedup** — every sealed payload is content-addressed
//!   ([`crate::dedup::content_key`]); identical bytes written by *any*
//!   tenant land in the store once and are refcounted. Dedup here is
//!   load-bearing (unlike the advisory per-session [`crate::BlobIndex`]):
//!   a repeat write increments a refcount instead of appending.
//! * **One payload log** — every tenant's payloads go to one ordered
//!   record log ([`crate::record_log`]; a byte buffer in memory, a file on
//!   disk). A tenant's blob ids are assigned by its own dense counter, so
//!   the per-session serial-oracle invariant survives interleaving.
//! * **Per-tenant views** — [`SharedStore::tenant`] returns a
//!   [`TenantHandle`] implementing [`CheckpointStore`] with *dense,
//!   private blob ids*: tenant blob `k` is its `k`-th successful `put`,
//!   exactly as on a private store. Gets resolve through the tenant's
//!   mapping to a payload index. Stats are logical (physical bytes
//!   reported as payload bytes), so a session cannot observe its
//!   neighbors through sizes either. The shared store is **observationally
//!   private**: every read, id, size, and error a tenant sees is
//!   byte-identical to running alone — the property `tests/multi_tenant.rs`
//!   proves differentially.
//! * **Chunk dedup under the id layer** — the payload log runs the
//!   storage-engine-v2 representation (content-defined chunking +
//!   per-chunk compression, [`crate::chunk`]), so two tenants' *distinct*
//!   blobs that share most of their bytes (the same dataframe, one cell's
//!   edit apart) share chunks physically, anywhere in the store. Aggregate
//!   counters: [`SharedStore::chunk_stats`]. The chunk configuration is
//!   fixed at creation and recorded in the manifest, so `open` and GC keep
//!   representing new puts the same way.
//! * **GC** — see [`crate::gc`]: a stop-the-world mark-and-sweep pass over
//!   caller-supplied live sets that compacts the payload log into a new
//!   generation and commits via an atomic manifest rename,
//!   crash-consistent with [`SharedStore::open`].
//!
//! ## One thread, one borrow
//!
//! A store and its tenant handles share one state behind an
//! `Rc<RefCell<_>>`, and every operation takes one borrow of it. The store
//! is `!Send` — its payload log is a `Box<dyn Medium>`, and
//! [`CheckpointStore`] is not `Send`-bounded — so the sessions sharing it
//! all run on one thread (interleaved cell by cell, as `repro multi` and
//! `tests/multi_tenant.rs` do), and no lock could ever be contended.
//!
//! ## File layout
//!
//! A file-backed store is a directory:
//!
//! ```text
//! MANIFEST.json            {"schema","shards":1,"generation","tenants","chunk"}
//! shard-0.g<G>.log         payload log (FileStore framing), generation G
//! tenant-<hex>.g<G>.log    mapping log: tenant blob k = k-th record
//! ```
//!
//! Mapping records are `[1, shard: u32, idx: u32, len: u64]` (all LE) for a
//! live mapping or `[0]` for a tombstone (a blob GC reclaimed; the id stays
//! allocated so tenant ids remain dense forever). The names, the manifest's
//! `"shards"` key and the mapping's `shard` field are kept from a format
//! that allowed several payload logs: a store writes `"shards": 1`,
//! `shard-0` and field `0`, and [`SharedStore::open`] rejects any other
//! count (a mapping naming another log decodes as malformed). Everything
//! outside the manifest is append-only between GCs; `open` rebuilds the
//! dedup map and refcounts by scanning, so no index file can go stale.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use kishu_testkit::hash::xxh64;
use kishu_testkit::json::Json;
use kishu_trace::Trace;

use crate::chunk::ChunkConfig;
use crate::dedup::{content_key, ContentKey};
use crate::file_store::{open_file, FileStore};
use crate::gc::{rename_budgeted, write_budgeted};
use crate::record_log::{Log, Medium};
use crate::{BlobId, CheckpointStore, StoreStats};

/// Schema tag of `MANIFEST.json`.
pub const SHARED_SCHEMA: &str = "kishu-shared-v1";

/// The payload log, in memory or in a file.
pub(crate) type PayloadLog = Log<Box<dyn Medium>>;

/// An empty in-memory payload log.
pub(crate) fn memory_log(cfg: ChunkConfig) -> PayloadLog {
    Log::recover(Box::new(Vec::<u8>::new()) as Box<dyn Medium>, cfg)
        .expect("an empty buffer always recovers")
}

/// The payload log in the file at `path`, recovered (or created empty).
pub(crate) fn file_log(path: &Path, cfg: ChunkConfig) -> io::Result<PayloadLog> {
    Log::recover(Box::new(open_file(path, !path.exists())?) as Box<dyn Medium>, cfg)
}

/// A live tenant mapping: `(payload index, payload len)`.
pub(crate) type Mapping = (u32, u64);

/// Per-tenant operator counters: physical truth (dedup hits include
/// cross-tenant sharing), so they live *below* the dense-id layer and are
/// exposed only through [`SharedStore::tenant_metrics`] — never through a
/// [`TenantHandle`], which must stay observationally identical to a
/// private store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantOpStats {
    /// Puts issued through this tenant's view.
    pub puts: u64,
    /// Logical bytes those puts carried.
    pub put_bytes: u64,
    /// Puts that deduplicated against an existing physical payload
    /// (intra- *or* cross-tenant — the signal a tenant itself never sees).
    pub dedup_hits: u64,
    /// Gets issued through this tenant's view.
    pub gets: u64,
    /// Syncs issued through this tenant's view.
    pub syncs: u64,
}

/// One tenant's view state: its dense id → payload mapping.
pub(crate) struct TenantState {
    /// Tenant blob `k` ↦ its mapping, or `None` once reclaimed (ids stay
    /// dense forever; a reclaimed id reads as `NotFound`).
    pub(crate) blobs: Vec<Option<Mapping>>,
    /// Cumulative payload bytes over live mappings (what a private store
    /// would report after the same puts).
    pub(crate) payload_bytes: u64,
    /// Durable mapping log (file backend only).
    pub(crate) log: Option<FileStore>,
    /// Operator-only traffic counters (in-memory, not persisted).
    pub(crate) ops: TenantOpStats,
}

pub(crate) enum Backend {
    Memory,
    File { dir: PathBuf },
}

/// Everything a store and its tenant handles share.
pub(crate) struct Inner {
    pub(crate) backend: Backend,
    /// Representation of new puts, for the store's life.
    pub(crate) chunk: ChunkConfig,
    /// Every tenant's payloads, each stored once.
    pub(crate) log: PayloadLog,
    /// Content key → payload index. Load-bearing (a hit suppresses a
    /// write), safe because the key pairs a 64-bit hash with the exact
    /// length.
    pub(crate) dedup: HashMap<ContentKey, u32>,
    /// Live references per payload, across all tenants. Only GC ever
    /// decreases these (by recomputation, so they structurally cannot go
    /// negative).
    pub(crate) refs: Vec<u64>,
    /// Length per payload.
    pub(crate) lens: Vec<u64>,
    pub(crate) tenants: BTreeMap<String, TenantState>,
    pub(crate) generation: u64,
    pub(crate) trace: Trace,
    /// GC crash-test hook: remaining byte budget for generation writes.
    /// `None` = unlimited. See [`SharedStore::set_crash_after_bytes`].
    pub(crate) crash_after: Option<u64>,
}

/// A multi-tenant, store-wide-deduplicating checkpoint store. Cheap to
/// clone (a handle); see the module docs for the architecture.
#[derive(Clone)]
pub struct SharedStore {
    pub(crate) inner: Rc<RefCell<Inner>>,
}

impl std::fmt::Debug for SharedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.borrow();
        f.debug_struct("SharedStore")
            .field("tenants", &st.tenants.len())
            .field("generation", &st.generation)
            .finish()
    }
}

pub(crate) fn payload_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("shard-0.g{generation}.log"))
}

pub(crate) fn tenant_path(dir: &Path, name: &str, generation: u64) -> PathBuf {
    dir.join(format!("tenant-{:016x}.g{generation}.log", xxh64(name.as_bytes(), 0)))
}

pub(crate) fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST.json")
}

/// Serialize one mapping-log record.
pub(crate) fn encode_mapping(m: Option<Mapping>) -> Vec<u8> {
    match m {
        Some((idx, len)) => {
            let mut v = Vec::with_capacity(17);
            v.push(1);
            v.extend_from_slice(&0u32.to_le_bytes()); // shard field: always 0
            v.extend_from_slice(&idx.to_le_bytes());
            v.extend_from_slice(&len.to_le_bytes());
            v
        }
        None => vec![0],
    }
}

/// Parse one mapping-log record; `None` if malformed, including a nonzero
/// shard field (treated as a tombstone by recovery — degraded, never wrong
/// bytes).
fn decode_mapping(b: &[u8]) -> Option<Mapping> {
    if b.len() != 17 || b[0] != 1 || b[1..5] != [0; 4] {
        return None;
    }
    let idx = u32::from_le_bytes([b[5], b[6], b[7], b[8]]);
    let len = u64::from_le_bytes([b[9], b[10], b[11], b[12], b[13], b[14], b[15], b[16]]);
    Some((idx, len))
}

/// Render the manifest JSON for the given state.
pub(crate) fn manifest_json(c: &ChunkConfig, generation: u64, tenants: &[&str]) -> Json {
    Json::obj(vec![
        ("schema", Json::Str(SHARED_SCHEMA.to_string())),
        ("shards", Json::Int(1)),
        ("generation", Json::Int(generation as i64)),
        (
            "tenants",
            Json::Array(tenants.iter().map(|t| Json::Str(t.to_string())).collect()),
        ),
        (
            "chunk",
            Json::obj(vec![
                ("enabled", Json::Bool(c.enabled)),
                ("compress", Json::Bool(c.compress)),
                ("min", Json::Int(c.min as i64)),
                ("avg", Json::Int(c.avg as i64)),
                ("max", Json::Int(c.max as i64)),
            ]),
        ),
    ])
}

/// The chunk configuration a manifest records; `None` if malformed.
fn manifest_chunk(j: &Json) -> Option<ChunkConfig> {
    let size = |k: &str| j.get(k).and_then(Json::as_u64).map(|v| v as usize);
    Some(ChunkConfig {
        enabled: j.get("enabled")?.as_bool()?,
        compress: j.get("compress")?.as_bool()?,
        min: size("min")?,
        avg: size("avg")?,
        max: size("max")?,
    })
}

/// Durably replace `MANIFEST.json`: write a temp file, sync it, rename it
/// over the manifest. The rename is the commit point — a crash on either
/// side leaves a complete manifest naming a complete generation. `budget`
/// is GC's crash-test byte budget (`None` = unlimited).
pub(crate) fn commit_manifest(dir: &Path, json: &Json, budget: &mut Option<u64>) -> io::Result<()> {
    let tmp = dir.join("MANIFEST.tmp");
    write_budgeted(&tmp, json.dump().as_bytes(), budget)?;
    rename_budgeted(&tmp, &manifest_path(dir), budget)
}

/// Remove generation-suffixed files in `dir` not belonging to `keep_gen`
/// (plus any stranded `MANIFEST.tmp`). Best-effort hygiene after GC and on
/// open; never touches files outside the store's naming scheme.
pub(crate) fn remove_stale_generations(dir: &Path, keep_gen: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let keep = format!(".g{keep_gen}.log");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name == "MANIFEST.tmp" {
            let _ = std::fs::remove_file(entry.path());
            continue;
        }
        let generational = (name.starts_with("shard-") || name.starts_with("tenant-"))
            && name.ends_with(".log")
            && name.contains(".g");
        if generational && !name.ends_with(&keep) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// The dedup map and lengths over `payloads` in index order. The first
/// writer of a content wins, matching `put`; an unreadable payload (`None`)
/// keeps its slot (indices are positional) but is never deduplicated onto.
pub(crate) fn index_payloads<B: AsRef<[u8]>>(
    payloads: impl Iterator<Item = Option<B>>,
) -> (HashMap<ContentKey, u32>, Vec<u64>) {
    let mut dedup = HashMap::new();
    let mut lens = Vec::new();
    for (idx, p) in payloads.enumerate() {
        match p {
            Some(bytes) => {
                dedup.entry(content_key(bytes.as_ref())).or_insert(idx as u32);
                lens.push(bytes.as_ref().len() as u64);
            }
            None => lens.push(0),
        }
    }
    (dedup, lens)
}

impl SharedStore {
    /// Fresh in-memory shared store with the default chunk configuration.
    pub fn in_memory() -> Self {
        Self::in_memory_with(ChunkConfig::default())
    }

    /// Fresh in-memory shared store with an explicit chunk configuration.
    pub fn in_memory_with(cfg: ChunkConfig) -> Self {
        Self::assemble(Backend::Memory, memory_log(cfg.clone()), cfg, BTreeMap::new(), 0)
    }

    /// Create a fresh file-backed store in `dir` (wiping any store files
    /// already there) at generation 0, with the default chunk
    /// configuration.
    pub fn create(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::create_with(dir, ChunkConfig::default())
    }

    /// Create a fresh file-backed store with an explicit chunk
    /// configuration. The manifest records the configuration, so
    /// [`SharedStore::open`] and GC compaction keep it.
    pub fn create_with(dir: impl AsRef<Path>, cfg: ChunkConfig) -> io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        // Wipe every file of the store's naming scheme, any generation.
        for entry in std::fs::read_dir(dir)?.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("shard-")
                || name.starts_with("tenant-")
                || name == "MANIFEST.json"
                || name == "MANIFEST.tmp"
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        let log = file_log(&payload_path(dir, 0), cfg.clone())?;
        commit_manifest(dir, &manifest_json(&cfg, 0, &[]), &mut None)?;
        let backend = Backend::File { dir: dir.to_path_buf() };
        Ok(Self::assemble(backend, log, cfg, BTreeMap::new(), 0))
    }

    /// Open an existing file-backed store, recovering from whatever a crash
    /// left behind: the manifest names the committed generation; payload
    /// and mapping logs recover their torn tails; the dedup map and
    /// refcounts are rebuilt by scanning; files from uncommitted
    /// generations are swept away. New puts use the chunk configuration
    /// the manifest records (a manifest without one gets
    /// [`ChunkConfig::default`]).
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref();
        let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        let text = std::fs::read_to_string(manifest_path(dir))?;
        let j = Json::parse(&text).map_err(|e| invalid(format!("manifest: {e:?}")))?;
        if j.get("schema").and_then(Json::as_str) != Some(SHARED_SCHEMA) {
            return Err(invalid("unknown manifest schema".into()));
        }
        match j.get("shards").and_then(Json::as_i64) {
            Some(1) => {}
            Some(n) => {
                return Err(invalid(format!(
                    "manifest names {n} shards; this store reads only a single payload log"
                )))
            }
            None => return Err(invalid("manifest shard count".into())),
        }
        let generation = j.get("generation").and_then(Json::as_i64).unwrap_or(0) as u64;
        let tenant_names: Vec<String> = j
            .get("tenants")
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(|t| t.as_str().map(str::to_string)).collect())
            .unwrap_or_default();
        let chunk = match j.get("chunk") {
            None => ChunkConfig::default(),
            Some(c) => manifest_chunk(c).ok_or_else(|| invalid("manifest chunk config".into()))?,
        };
        remove_stale_generations(dir, generation);

        let log = file_log(&payload_path(dir, generation), chunk.clone())?;
        let mut tenants = BTreeMap::new();
        for name in tenant_names {
            let path = tenant_path(dir, &name, generation);
            let mapping_log =
                if path.exists() { FileStore::open(&path)? } else { FileStore::create(&path)? };
            let mut blobs = Vec::new();
            for rec in 0..mapping_log.blob_count() {
                // A mapping may outrun its payload if the payload log lost
                // a tail the mapping log kept: degrade to a tombstone.
                let m = decode_mapping(&mapping_log.get(rec)?)
                    .filter(|&(idx, _)| (idx as u64) < log.blob_count());
                blobs.push(m);
            }
            let payload_bytes = blobs.iter().flatten().map(|&(_, len)| len).sum();
            let ops = TenantOpStats::default();
            tenants.insert(name, TenantState { blobs, payload_bytes, log: Some(mapping_log), ops });
        }
        let backend = Backend::File { dir: dir.to_path_buf() };
        Ok(Self::assemble(backend, log, chunk, tenants, generation))
    }

    /// A store handle over the given parts, its dedup map and lengths
    /// rebuilt by scanning `log` and its refcounts by counting the
    /// tenants' mappings (which must all be in range).
    fn assemble(
        backend: Backend,
        log: PayloadLog,
        chunk: ChunkConfig,
        tenants: BTreeMap<String, TenantState>,
        generation: u64,
    ) -> Self {
        let (dedup, lens) = index_payloads((0..log.blob_count()).map(|idx| log.get(idx).ok()));
        let mut refs = vec![0u64; lens.len()];
        for t in tenants.values() {
            for &(idx, _) in t.blobs.iter().flatten() {
                refs[idx as usize] += 1;
            }
        }
        let inner = Inner {
            backend,
            chunk,
            log,
            dedup,
            refs,
            lens,
            tenants,
            generation,
            trace: Trace::disabled(),
            crash_after: None,
        };
        SharedStore { inner: Rc::new(RefCell::new(inner)) }
    }

    /// The tenant view named `name`, registering it (durably, for a
    /// file-backed store) on first use. Tenant blob ids are dense and
    /// private to the view; see the module docs for the privacy contract.
    pub fn tenant(&self, name: &str) -> io::Result<TenantHandle> {
        let mut guard = self.inner.borrow_mut();
        let st = &mut *guard;
        if !st.tenants.contains_key(name) {
            let log = match &st.backend {
                Backend::Memory => None,
                Backend::File { dir } => {
                    Some(FileStore::create(tenant_path(dir, name, st.generation))?)
                }
            };
            st.tenants.insert(
                name.to_string(),
                TenantState { blobs: Vec::new(), payload_bytes: 0, log, ops: TenantOpStats::default() },
            );
            if let Backend::File { dir } = &st.backend {
                let names: Vec<&str> = st.tenants.keys().map(String::as_str).collect();
                commit_manifest(dir, &manifest_json(&st.chunk, st.generation, &names), &mut None)?;
            }
        }
        Ok(TenantHandle { inner: Rc::clone(&self.inner), name: name.to_string() })
    }

    /// Current GC generation (0 until the first collection commits).
    pub fn generation(&self) -> u64 {
        self.inner.borrow().generation
    }

    /// Registered tenant names, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        self.inner.borrow().tenants.keys().cloned().collect()
    }

    /// True storage accounting of the payload log — what the shared
    /// deployment actually costs, as opposed to the logical view each
    /// [`TenantHandle::stats`] reports.
    pub fn stats(&self) -> StoreStats {
        self.inner.borrow().log.stats()
    }

    /// Chunk-level accounting of the payload log; `None` when it runs
    /// without a chunk layer. Like [`SharedStore::stats`], this is the
    /// operator's view — tenant handles never expose chunk counters (their
    /// [`CheckpointStore::chunk_stats`] stays `None`), because physical
    /// chunk sharing is exactly the cross-tenant signal the privacy
    /// contract forbids leaking.
    pub fn chunk_stats(&self) -> Option<crate::ChunkStats> {
        self.inner.borrow().log.chunk_stats()
    }

    /// Sum of every tenant's logical payload bytes (what N private stores
    /// would have stored).
    pub fn logical_payload_bytes(&self) -> u64 {
        self.inner.borrow().tenants.values().map(|t| t.payload_bytes).sum()
    }

    /// Store-wide dedup ratio: logical bytes over physical payload bytes
    /// (≥ 1.0; 1.0 means no cross- or intra-tenant redundancy was found).
    pub fn dedup_ratio(&self) -> f64 {
        let physical = self.stats().payload_bytes;
        if physical == 0 {
            return 1.0;
        }
        self.logical_payload_bytes() as f64 / physical as f64
    }

    /// Per-tenant operator traffic counters, keyed by tenant name. The
    /// operator-side complement of [`SharedStore::stats`]: dedup hits
    /// here count *physical* sharing (including cross-tenant), which no
    /// [`TenantHandle`] surface may reveal — reading these requires the
    /// store handle itself, below the id layer. In-memory accounting
    /// (resets on `open`).
    pub fn tenant_metrics(&self) -> BTreeMap<String, TenantOpStats> {
        self.inner.borrow().tenants.iter().map(|(k, t)| (k.clone(), t.ops)).collect()
    }

    /// Attach an observability trace to the store and its payload log.
    /// Purely observational, like every trace in this codebase.
    pub fn attach_trace(&self, trace: &Trace) {
        let mut st = self.inner.borrow_mut();
        st.trace = trace.clone();
        st.log.attach_trace(trace);
    }

    /// Crash-test hook for GC: the next collection may write at most
    /// `budget` bytes of new-generation files before "the machine dies" —
    /// the file in flight is truncated at the exact budget byte and the
    /// collection aborts with `ErrorKind::Interrupted`, leaving the
    /// committed generation untouched. File backend only. `None` disables.
    pub fn set_crash_after_bytes(&self, budget: Option<u64>) {
        self.inner.borrow_mut().crash_after = budget;
    }

    /// Sync the payload log and every mapping log to the durable medium.
    pub fn sync_all(&self) -> io::Result<()> {
        let mut st = self.inner.borrow_mut();
        st.log.sync()?;
        for t in st.tenants.values_mut() {
            if let Some(log) = &mut t.log {
                log.sync()?;
            }
        }
        Ok(())
    }

    /// Structural invariant check, for tests: every mapping points at a
    /// real payload of the recorded length; stored refcounts equal (strict)
    /// or dominate (non-strict, for runs where injected faults may have
    /// leaked a count in the safe direction) the references actually
    /// reachable from tenant mappings; dedup entries are in range. Returns
    /// a description of the first violation.
    pub fn check_invariants(&self, strict: bool) -> Result<(), String> {
        let st = self.inner.borrow();
        if st.refs.len() as u64 != st.log.blob_count() || st.lens.len() != st.refs.len() {
            return Err("refs/lens len != blob count".to_string());
        }
        let mut reachable = vec![0u64; st.refs.len()];
        for (name, t) in &st.tenants {
            for (id, m) in t.blobs.iter().enumerate() {
                let Some((idx, len)) = *m else { continue };
                let slot = reachable
                    .get_mut(idx as usize)
                    .ok_or_else(|| format!("{name}/{id}: idx {idx} out of range"))?;
                *slot += 1;
                if st.lens[idx as usize] != len {
                    return Err(format!(
                        "{name}/{id}: recorded len {len} != stored len {}",
                        st.lens[idx as usize]
                    ));
                }
            }
        }
        for (idx, (&stored, &actual)) in st.refs.iter().zip(&reachable).enumerate() {
            if strict && stored != actual {
                return Err(format!("blob {idx}: refcount {stored} != {actual}"));
            }
            if stored < actual {
                return Err(format!("blob {idx}: refcount {stored} below live references {actual}"));
            }
        }
        for (key, &idx) in &st.dedup {
            if idx as usize >= st.refs.len() {
                return Err(format!("dedup entry {key:?} out of range"));
            }
        }
        Ok(())
    }
}

/// One tenant's [`CheckpointStore`] view over a [`SharedStore`]. Dense
/// private blob ids; observationally identical to a private store.
#[derive(Clone)]
pub struct TenantHandle {
    inner: Rc<RefCell<Inner>>,
    name: String,
}

impl TenantHandle {
    /// The tenant name this view is registered under.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for TenantHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantHandle").field("name", &self.name).finish()
    }
}

const REGISTERED: &str = "tenant registered by SharedStore::tenant";

impl CheckpointStore for TenantHandle {
    fn put(&mut self, bytes: &[u8]) -> io::Result<BlobId> {
        let key = content_key(bytes);
        let len = bytes.len() as u64;
        let mut guard = self.inner.borrow_mut();
        let st = &mut *guard;
        let mut sp = st.trace.span("shared.put");
        sp.arg("bytes", bytes.len());
        // Dedup-or-append + refcount, then the dense tenant id and the
        // mapping record.
        let (idx, fresh) = match st.dedup.get(&key).copied() {
            Some(idx) => {
                st.refs[idx as usize] += 1;
                (idx, false)
            }
            None => {
                let idx = st.log.put(bytes)? as u32;
                st.dedup.insert(key, idx);
                st.refs.push(1);
                st.lens.push(len);
                debug_assert_eq!(st.refs.len() - 1, idx as usize);
                (idx, true)
            }
        };
        sp.arg("dedup_hit", !fresh);
        st.trace.observe("shared.put_bytes", len);
        let t = st.tenants.get_mut(&self.name).expect(REGISTERED);
        if let Some(log) = &mut t.log {
            if let Err(e) = log.put(&encode_mapping(Some((idx, len)))) {
                // The mapping never existed, so the tenant id is not
                // allocated; release the reference taken above (a fresh
                // payload stays in the log at refcount 0 — dead weight the
                // next GC reclaims, never a correctness issue).
                st.refs[idx as usize] -= 1;
                return Err(e);
            }
        }
        t.blobs.push(Some((idx, len)));
        t.payload_bytes += len;
        t.ops.puts += 1;
        t.ops.put_bytes += len;
        if !fresh {
            t.ops.dedup_hits += 1;
        }
        Ok((t.blobs.len() - 1) as BlobId)
    }

    fn get(&self, id: BlobId) -> io::Result<Vec<u8>> {
        // Error shape matches MemoryStore so a tenant cannot tell the
        // difference between its view and a private store.
        let not_found = || io::Error::new(io::ErrorKind::NotFound, format!("no blob {id}"));
        let mut guard = self.inner.borrow_mut();
        let st = &mut *guard;
        let t = st.tenants.get_mut(&self.name).expect(REGISTERED);
        // Counted before the lookup resolves: operator traffic accounting
        // includes misses.
        t.ops.gets += 1;
        let (idx, _len) =
            t.blobs.get(id as usize).copied().ok_or_else(not_found)?.ok_or_else(not_found)?;
        let mut sp = st.trace.span("shared.get");
        sp.arg("blob", id);
        st.log.get(idx as u64)
    }

    fn blob_count(&self) -> u64 {
        self.inner.borrow().tenants.get(&self.name).expect(REGISTERED).blobs.len() as u64
    }

    fn stats(&self) -> StoreStats {
        // Logical accounting (physical bytes reported as payload bytes): a
        // tenant must not be able to observe its neighbors (or the dedup
        // they induce) through sizes. True physical usage lives on SharedStore::stats.
        let st = self.inner.borrow();
        let t = st.tenants.get(&self.name).expect(REGISTERED);
        StoreStats {
            blobs: t.blobs.len() as u64,
            payload_bytes: t.payload_bytes,
            physical_bytes: t.payload_bytes,
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut guard = self.inner.borrow_mut();
        let st = &mut *guard;
        let _sp = st.trace.span("shared.sync");
        st.log.sync()?;
        let t = st.tenants.get_mut(&self.name).expect(REGISTERED);
        t.ops.syncs += 1;
        if let Some(log) = &mut t.log {
            log.sync()?;
        }
        Ok(())
    }

    fn flush_barrier(&mut self) -> io::Result<()> {
        // Group-commit barrier: drain the payload log's pending buffer and
        // the tenant's mapping log so a reopened store sees everything put
        // so far. No fault draw and no per-put work — purely an ordering
        // point, matching the trait contract.
        let mut guard = self.inner.borrow_mut();
        let st = &mut *guard;
        st.log.flush_barrier()?;
        if let Some(log) = &mut st.tenants.get_mut(&self.name).expect(REGISTERED).log {
            log.flush_barrier()?;
        }
        Ok(())
    }

    // Note: `put_with_receipt` and `chunk_stats` deliberately keep their
    // opaque trait defaults. A truthful receipt ("your put deduped against
    // an existing chunk") or chunk counters would tell a tenant what its
    // neighbors have stored — the exact side channel the observational-
    // privacy contract closes. Physical truth is an operator view:
    // [`SharedStore::stats`] / [`SharedStore::chunk_stats`].

    fn attach_trace(&mut self, trace: &Trace) {
        self.inner.borrow_mut().trace = trace.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::each_chunk_config;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kishu-shared-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn tenant_ids_are_dense_and_private() {
        for cfg in each_chunk_config() {
            let store = SharedStore::in_memory_with(cfg.clone());
            let mut a = store.tenant("alice").expect("tenant");
            let mut b = store.tenant("bob").expect("tenant");
            assert_eq!(a.put(b"shared bytes").expect("put"), 0);
            assert_eq!(b.put(b"shared bytes").expect("put"), 0, "b's ids start at 0 too");
            assert_eq!(a.put(b"alice only").expect("put"), 1);
            assert_eq!(a.get(0).expect("get"), b"shared bytes");
            assert_eq!(b.get(0).expect("get"), b"shared bytes");
            assert_eq!(a.get(1).expect("get"), b"alice only");
            let err = b.get(1).expect_err("b has one blob");
            assert_eq!(err.kind(), io::ErrorKind::NotFound);
            assert_eq!(format!("{err}"), "no blob 1", "error shape matches MemoryStore");
        }
    }

    #[test]
    fn tenant_metrics_count_traffic_below_the_id_layer() {
        for cfg in each_chunk_config() {
            let store = SharedStore::in_memory_with(cfg.clone());
            let mut a = store.tenant("alice").expect("tenant");
            let mut b = store.tenant("bob").expect("tenant");
            a.put(b"shared payload").expect("put");
            b.put(b"shared payload").expect("put"); // cross-tenant dedup hit
            b.put(b"bob only").expect("put");
            let _ = a.get(0).expect("get");
            let _ = b.get(99).expect_err("miss still counted");
            b.sync().expect("sync");
            let m = store.tenant_metrics();
            let alice = m["alice"];
            let bob = m["bob"];
            assert_eq!((alice.puts, alice.dedup_hits, alice.gets), (1, 0, 1));
            assert_eq!((bob.puts, bob.dedup_hits, bob.gets, bob.syncs), (2, 1, 1, 1));
            assert_eq!(alice.put_bytes, b"shared payload".len() as u64);
            // The privacy boundary: bob's *own* surface never reveals the
            // dedup hit the operator view just counted.
            assert_eq!(b.stats().payload_bytes, (b"shared payload".len() + b"bob only".len()) as u64);
            assert_eq!(b.chunk_stats(), None);
        }
    }

    #[test]
    fn cross_tenant_dedup_stores_identical_bytes_once() {
        for cfg in each_chunk_config() {
            let store = SharedStore::in_memory_with(cfg.clone());
            let mut a = store.tenant("alice").expect("tenant");
            let mut b = store.tenant("bob").expect("tenant");
            let payload = vec![42u8; 10_000];
            a.put(&payload).expect("put");
            b.put(&payload).expect("put");
            b.put(&payload).expect("repeat within tenant");
            let physical = store.stats();
            assert_eq!(physical.blobs, 1, "one physical copy");
            assert_eq!(physical.payload_bytes, 10_000);
            assert_eq!(store.logical_payload_bytes(), 30_000);
            assert!((store.dedup_ratio() - 3.0).abs() < 1e-9);
            // Logical views are oblivious.
            assert_eq!(a.stats().payload_bytes, 10_000);
            assert_eq!(b.stats().payload_bytes, 20_000);
            assert_eq!(b.stats().physical_bytes, 20_000);
            store.check_invariants(true).expect("invariants");
        }
    }

    #[test]
    fn file_backed_store_reopens_with_views_intact() {
        for cfg in each_chunk_config() {
            let dir = temp_dir("reopen");
            {
                let store = SharedStore::create_with(&dir, cfg.clone()).expect("create");
                let mut a = store.tenant("alice").expect("tenant");
                let mut b = store.tenant("bob").expect("tenant");
                a.put(b"common").expect("put");
                a.put(b"alice's own").expect("put");
                b.put(b"common").expect("put");
                store.sync_all().expect("sync");
            }
            let store = SharedStore::open(&dir).expect("open");
            assert_eq!(store.tenant_names(), vec!["alice".to_string(), "bob".to_string()]);
            let a = store.tenant("alice").expect("tenant");
            let b = store.tenant("bob").expect("tenant");
            assert_eq!(a.blob_count(), 2);
            assert_eq!(a.get(0).expect("get"), b"common");
            assert_eq!(a.get(1).expect("get"), b"alice's own");
            assert_eq!(b.blob_count(), 1);
            assert_eq!(b.get(0).expect("get"), b"common");
            assert_eq!(store.stats().blobs, 2, "dedup survives reopen");
            store.check_invariants(true).expect("invariants after reopen");
            // Dedup index was rebuilt: a repeat write still dedups.
            let mut b = b;
            b.put(b"common").expect("put");
            assert_eq!(store.stats().blobs, 2);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn torn_mapping_tail_degrades_to_missing_blob() {
        for cfg in each_chunk_config() {
            let dir = temp_dir("torn-map");
            let tenant_log = {
                let store = SharedStore::create_with(&dir, cfg.clone()).expect("create");
                let mut a = store.tenant("alice").expect("tenant");
                a.put(b"first").expect("put");
                a.put(b"second").expect("put");
                store.sync_all().expect("sync");
                tenant_path(&dir, "alice", 0)
            };
            // Tear the tail of the mapping log mid-record.
            let len = std::fs::metadata(&tenant_log).expect("meta").len();
            let f = std::fs::OpenOptions::new().write(true).open(&tenant_log).expect("open");
            f.set_len(len - 5).expect("truncate");
            drop(f);
            let store = SharedStore::open(&dir).expect("recover");
            let a = store.tenant("alice").expect("tenant");
            assert_eq!(a.blob_count(), 1, "torn mapping record truncated away");
            assert_eq!(a.get(0).expect("get"), b"first");
            store.check_invariants(true).expect("invariants");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn open_keeps_the_chunk_config_the_manifest_records() {
        // A small-chunk configuration pinned at creation must govern puts
        // after a reopen too; under any other config the edited copy
        // would cut differently and share no chunks with the original.
        let dir = temp_dir("pinned-chunk");
        let cfg = ChunkConfig { enabled: true, compress: true, min: 256, avg: 512, max: 2048 };
        let big: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8 ^ (i / 997) as u8).collect();
        {
            let store = SharedStore::create_with(&dir, cfg.clone()).expect("create");
            store.tenant("alice").expect("tenant").put(&big).expect("put");
            store.sync_all().expect("sync");
        }
        let store = SharedStore::open(&dir).expect("open");
        let before = store.chunk_stats().expect("chunking on");
        let mut edited = big.clone();
        edited[20_000] ^= 0x5A;
        store.tenant("alice").expect("tenant").put(&edited).expect("put");
        let after = store.chunk_stats().expect("chunking on");
        let written = after.chunks - before.chunks;
        assert!(
            after.chunk_refs - before.chunk_refs > written,
            "chunk dedup must fire after reopen: {before:?} -> {after:?}"
        );
        assert_eq!(store.inner.borrow().chunk, cfg);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_chunk_stats_aggregate_cross_tenant_chunk_dedup() {
        // Chunk dedup spans the whole store, so two near-identical blobs
        // (different content keys) share chunks, so the config is pinned
        // to the default (chunking on).
        let store = SharedStore::in_memory_with(ChunkConfig::default());
        let mut a = store.tenant("alice").expect("tenant");
        let mut b = store.tenant("bob").expect("tenant");
        let big: Vec<u8> = (0..150_000u32).map(|i| (i % 251) as u8 ^ (i / 997) as u8).collect();
        a.put(&big).expect("put");
        // Bob writes a small mutation of Alice's payload: different content
        // key (so blob-level dedup misses) but nearly all chunks shared.
        let mut edited = big.clone();
        edited[75_000] ^= 0x5A;
        b.put(&edited).expect("put");
        // Tenant views stay opaque — chunk counters would leak neighbors.
        assert_eq!(a.chunk_stats(), None);
        assert_eq!(b.chunk_stats(), None);
        let cs = store.chunk_stats().expect("pinned config chunks");
        assert!(cs.chunk_refs > cs.chunks, "cross-tenant chunk dedup fired: {cs:?}");
        assert!(
            store.stats().physical_bytes < (big.len() + edited.len()) as u64 / 2,
            "two near-identical blobs must cost well under their logical sum"
        );
        store.check_invariants(true).expect("invariants");
    }

    #[test]
    fn tenant_flush_barrier_makes_puts_reopenable() {
        for cfg in each_chunk_config() {
            let dir = temp_dir("barrier");
            {
                let store = SharedStore::create_with(&dir, cfg.clone()).expect("create");
                let mut a = store.tenant("alice").expect("tenant");
                a.put(b"barrier me").expect("put");
                a.flush_barrier().expect("barrier");
                // No sync_all: the barrier alone must order the bytes into the
                // logs (durability modulo the OS, which tests can't force here).
            }
            let store = SharedStore::open(&dir).expect("open");
            let a = store.tenant("alice").expect("tenant");
            assert_eq!(a.blob_count(), 1);
            assert_eq!(a.get(0).expect("get"), b"barrier me");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn mapping_records_roundtrip() {
        let m = Some((0x0102_0304, 0x1122_3344_5566_7788));
        let rec = encode_mapping(m);
        assert_eq!(rec.len(), 17);
        assert_eq!(rec[1..5], [0; 4], "the shard field is always 0");
        assert_eq!(decode_mapping(&rec), m);
        assert_eq!(encode_mapping(None), vec![0]);
        assert_eq!(decode_mapping(&[0]), None);
        assert_eq!(decode_mapping(b"garbage!!"), None);
        // A mapping naming any other payload log is malformed.
        let mut other = rec;
        other[1] = 3;
        assert_eq!(decode_mapping(&other), None);
    }

    /// The on-disk layout is pinned: a store with one payload log writes
    /// exactly what a one-log store of the earlier multi-log format wrote
    /// (the hashes were taken from that format's writer), so directories
    /// from either open under the other.
    #[test]
    fn file_layout_is_pinned() {
        let dir = temp_dir("layout");
        let big: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8 ^ (i / 997) as u8).collect();
        {
            let store = SharedStore::create_with(&dir, ChunkConfig::default()).expect("create");
            let mut a = store.tenant("alice").expect("tenant");
            a.put(b"first payload").expect("put");
            a.put(&big).expect("put");
            store.sync_all().expect("sync");
        }
        let mut files: Vec<(String, usize, u64)> = std::fs::read_dir(&dir)
            .expect("read dir")
            .flatten()
            .map(|e| {
                let bytes = std::fs::read(e.path()).expect("read");
                (e.file_name().to_string_lossy().into_owned(), bytes.len(), xxh64(&bytes, 0))
            })
            .collect();
        files.sort();
        let pinned = [
            ("MANIFEST.json", 149, 0xcb07_cd0e_3047_cd88),
            ("shard-0.g0.log", 9143, 0x54e8_2ed0_ef36_0eee),
            ("tenant-73a3ea485f2e6049.g0.log", 52, 0x5516_a11e_05c6_b4cf),
        ];
        let pinned: Vec<(String, usize, u64)> =
            pinned.iter().map(|&(n, len, h)| (n.to_string(), len, h)).collect();
        assert_eq!(files, pinned);
        let store = SharedStore::open(&dir).expect("open");
        let a = store.tenant("alice").expect("tenant");
        assert_eq!(a.get(0).expect("get"), b"first payload");
        assert_eq!(a.get(1).expect("get"), big);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_a_manifest_naming_several_payload_logs() {
        for cfg in each_chunk_config() {
            let dir = temp_dir("four-logs");
            SharedStore::create_with(&dir, cfg.clone()).expect("create").tenant("alice").expect("tenant");
            let manifest = manifest_path(&dir);
            let text = std::fs::read_to_string(&manifest).expect("read");
            assert!(text.contains("\"shards\":1"), "{text}");
            std::fs::write(&manifest, text.replace("\"shards\":1", "\"shards\":4")).expect("write");
            let err = SharedStore::open(&dir).expect_err("four logs are not readable");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains('4'), "error names the count: {err}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
