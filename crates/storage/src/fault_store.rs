//! Deterministic fault injection for checkpoint stores.
//!
//! [`FaultStore`] decorates any [`CheckpointStore`] and, driven by a seeded
//! [`kishu_testkit::rng::Rng`] and a [`FaultPlan`], injects the failure
//! modes a real storage backend exhibits under duress:
//!
//! * **transient I/O errors** (`ErrorKind::Interrupted`) on `put`/`get`/
//!   `sync` — a retry may succeed;
//! * **permanent I/O errors** (`ErrorKind::Other`) — for `get`, the blob is
//!   marked dead and every later read of it fails too;
//! * **payload bit-flips** on `get` — the caller receives bytes with one
//!   bit flipped, exercising its integrity checking / fallback paths;
//! * **short writes** on `put` — only a prefix of the payload reaches the
//!   inner store before the simulated tear, and the caller sees an error;
//! * **fsync lies** on `sync` — success is reported without the inner
//!   store ever being synced (the classic lying-disk failure).
//!
//! Every probabilistic decision is a **pure function of `(seed, scope, op
//! kind, operation key, per-key attempt counter)`** — for `put` the key is
//! the XXH64 of the payload, for `get` the blob id, for `sync` a constant.
//! No shared RNG stream is consumed in operation order, so the same plan
//! injects the same faults *regardless of how concurrent callers interleave
//! their operations*: the parallel checkpoint pipeline and the serial
//! oracle see identical fault sequences, and a failing run replays exactly
//! from its seed. (Scheduled one-shot faults remain pinned to per-op
//! invocation indices; they are only deterministic while operations issue
//! in a deterministic order, which the session's single writer guarantees.)
//! Each injected fault is appended to a [`FaultLedger`] so tests can assert
//! both that faults actually fired and that the layers above degraded
//! gracefully (§5.3's fallback recomputation) instead of corrupting state.
//!
//! ## Multi-tenant scoping
//!
//! When several sessions share one faulty store (the [`crate::SharedStore`]
//! deployment), a single `(op, key)` attempt-counter space would let one
//! tenant's retries advance another tenant's draws — tenant A retrying blob
//! 3 would perturb tenant B's fault sequence for *its* blob 3, breaking the
//! solo-vs-interleaved isolation invariant. Every piece of fault state is
//! therefore keyed by a **scope**: attempt counters, per-op invocation
//! indices, dead blobs/ops, and the draws themselves. [`FaultStore::twin`]
//! derives a second entry point over the same shared fault state with its
//! own scope (one per tenant, via [`tenant_scope`]), and
//! [`FaultLedgerHandle::snapshot_scoped`] projects the shared ledger down
//! to one tenant's view. The shared store keeps every tenant's payloads in
//! one log behind tenant-private blob ids, so `(tenant, op key)` names an
//! operation completely: nothing a neighbor does changes which draw a
//! tenant's put or get consumes. Scope `0` (the default) is bit-for-bit
//! the historical single-tenant behavior.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::{Arc, Mutex};

use kishu_testkit::hash::xxh64;
use kishu_testkit::json::Json;
use kishu_testkit::rng::splitmix64;
use kishu_trace::Trace;

use crate::{BlobId, CheckpointStore, StoreStats};

/// Which store operation a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultOp {
    /// [`CheckpointStore::put`]
    Put,
    /// [`CheckpointStore::get`]
    Get,
    /// [`CheckpointStore::sync`]
    Sync,
}

/// The failure mode injected by one fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Retryable I/O error (`ErrorKind::Interrupted`); the inner store is
    /// untouched.
    Transient,
    /// Non-retryable I/O error (`ErrorKind::Other`). On `get`, the blob is
    /// marked dead: all later reads of the same id fail too.
    Permanent,
    /// One random payload bit flipped in the bytes returned by `get`.
    BitFlip,
    /// `put` writes only a random proper prefix to the inner store, then
    /// errors — the torn-write shape a crash mid-append produces.
    ShortWrite,
    /// `sync` reports success without syncing the inner store.
    FsyncLie,
}

/// A one-shot fault scheduled at a specific operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Operation the fault fires on.
    pub op: FaultOp,
    /// Fires on the `at`-th invocation of `op` (0-based, counted per op).
    pub at: u64,
    /// Failure mode to inject.
    pub kind: FaultKind,
}

/// Per-operation fault probabilities plus scheduled one-shot faults.
///
/// Probabilities are evaluated independently per call in a fixed order
/// (transient first, then the op-specific corruption mode); a scheduled
/// fault at the call's index takes precedence over both.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probability of a transient error on `put`.
    pub put_transient_p: f64,
    /// Probability of a transient error on `get`.
    pub get_transient_p: f64,
    /// Probability of a transient error on `sync`.
    pub sync_transient_p: f64,
    /// Probability of a short write on `put` (after the transient check).
    pub short_write_p: f64,
    /// Probability of a payload bit-flip on `get` (after the transient
    /// check; applied to the successfully read bytes).
    pub bit_flip_p: f64,
    /// Probability `sync` lies (after the transient check).
    pub fsync_lie_p: f64,
    /// One-shot faults pinned to operation indices.
    pub scheduled: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// Plan with no faults at all (the wrapper becomes a pure pass-through
    /// that still counts operations).
    pub fn none() -> Self {
        Self::default()
    }

    /// Plan injecting transient errors on `put`/`get`/`sync`, each with
    /// probability `p`, and nothing else.
    pub fn transient(p: f64) -> Self {
        FaultPlan {
            put_transient_p: p,
            get_transient_p: p,
            sync_transient_p: p,
            ..Self::default()
        }
    }

    /// Builder: add a scheduled one-shot fault.
    pub fn schedule(mut self, op: FaultOp, at: u64, kind: FaultKind) -> Self {
        self.scheduled.push(ScheduledFault { op, at, kind });
        self
    }
}

/// One injected fault, as recorded in the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Operation the fault fired on.
    pub op: FaultOp,
    /// Failure mode injected.
    pub kind: FaultKind,
    /// Per-`(scope, op)` invocation index (0-based) at which it fired.
    pub op_index: u64,
    /// Blob involved, when the op names one (`get`, and `put`'s assigned id
    /// for short writes that reached the inner store).
    pub blob: Option<BlobId>,
    /// The operation key the decision was drawn against (payload XXH64 for
    /// `put`, blob id for `get`, 0 for `sync`) — with `scope` and `attempt`,
    /// enough to replay the exact [`keyed_draw`] without a debugger.
    pub key: u64,
    /// Per-`(scope, op, key)` attempt number (0-based) the draw used.
    pub attempt: u64,
    /// The tenant scope the operation ran under (0 for a single-tenant
    /// store; [`tenant_scope`] values for shared-store tenants).
    pub scope: u64,
}

impl InjectedFault {
    /// JSON form of the ledger entry (keys rendered as hex so the full
    /// `u64` key space survives JSON's i64 integers).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("op", Json::Str(format!("{:?}", self.op))),
            ("kind", Json::Str(format!("{:?}", self.kind))),
            ("op_index", Json::Int(self.op_index as i64)),
            ("key", Json::Str(format!("{:#018x}", self.key))),
            ("attempt", Json::Int(self.attempt as i64)),
            ("scope", Json::Str(format!("{:#018x}", self.scope))),
            (
                "blob",
                match self.blob {
                    Some(b) => Json::Int(b as i64),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Record of every fault injected plus how many operations ran, for test
/// assertions ("faults actually fired", "N of M gets were corrupted",
/// "the parallel pipeline's ledger is identical to the serial oracle's").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLedger {
    /// Every injected fault, in injection order.
    pub injected: Vec<InjectedFault>,
    /// Total `put` calls observed (faulted or not).
    pub puts: u64,
    /// Total `get` calls observed.
    pub gets: u64,
    /// Total `sync` calls observed.
    pub syncs: u64,
}

impl FaultLedger {
    /// Number of injected faults of `kind`.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.injected.iter().filter(|f| f.kind == kind).count()
    }

    /// Number of injected faults on `op`.
    pub fn count_op(&self, op: FaultOp) -> usize {
        self.injected.iter().filter(|f| f.op == op).count()
    }

    /// Total injected faults.
    pub fn total(&self) -> usize {
        self.injected.len()
    }

    /// JSON snapshot: operation counts plus every entry via
    /// [`InjectedFault::to_json`].
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("puts", Json::Int(self.puts as i64)),
            ("gets", Json::Int(self.gets as i64)),
            ("syncs", Json::Int(self.syncs as i64)),
            (
                "injected",
                Json::Array(self.injected.iter().map(InjectedFault::to_json).collect()),
            ),
        ])
    }
}

/// Mutable wrapper state behind one lock: `get` takes `&self`, so the
/// ledger and counters need interior mutability (Mutex to match the store's
/// Send posture rather than RefCell).
#[derive(Debug)]
struct FaultState {
    ledger: FaultLedger,
    /// Per-`(scope, op, key)` attempt counters: the `attempt` input of the
    /// keyed fault decision, so a retry of the same operation (same payload,
    /// same blob, same tenant) draws fresh randomness while staying
    /// interleaving-independent — and one tenant's retries never advance
    /// another tenant's counters.
    attempts: BTreeMap<(u64, FaultOp, u64), u64>,
    /// Per-`(scope, op)` invocation counters: the `op_index` that scheduled
    /// one-shot faults fire against, counted per tenant so an interleaved
    /// neighbor cannot shift when a scheduled fault lands.
    op_counts: BTreeMap<(u64, FaultOp), u64>,
    /// `(scope, blob)` pairs hit by a permanent `get` fault: dead forever.
    dead_blobs: BTreeSet<(u64, BlobId)>,
    /// `(scope, op)` pairs permanently failed (permanent `put`/`sync` fault).
    dead_ops: BTreeSet<(u64, FaultOp)>,
    /// Set by a fsync lie; cleared by the next real sync. Deliberately
    /// global: durability is a property of the shared disk, not of any one
    /// tenant's view. Exposed so crash simulations know whether "durable"
    /// data actually was.
    sync_lied: bool,
}

/// A [`CheckpointStore`] decorator injecting deterministic faults per a
/// [`FaultPlan`]. See the module docs for the failure-mode catalogue.
pub struct FaultStore {
    inner: Box<dyn CheckpointStore>,
    plan: FaultPlan,
    seed: u64,
    /// Tenant scope for every decision this entry point makes; 0 is the
    /// single-tenant default and leaves all draws bit-identical to the
    /// pre-scoping behavior.
    scope: u64,
    state: Arc<Mutex<FaultState>>,
    /// Observability only: spans annotate each op's key/attempt and, when a
    /// fault fires, its kind and ledger index. Never consulted for any
    /// decision (the keyed draws above are the whole decision procedure),
    /// so attaching a trace cannot change behavior.
    trace: Trace,
}

/// Cloneable handle onto a [`FaultStore`]'s ledger, for observing injected
/// faults after the store has been boxed away into a session
/// (`KishuSession::new` takes ownership of its `Box<dyn CheckpointStore>`).
#[derive(Clone)]
pub struct FaultLedgerHandle(Arc<Mutex<FaultState>>);

impl FaultLedgerHandle {
    /// Snapshot of the ledger as of now.
    pub fn snapshot(&self) -> FaultLedger {
        self.0.lock().expect("fault state poisoned").ledger.clone()
    }

    /// Snapshot of one tenant scope's view of the ledger: its injected
    /// faults (in injection order) and its own operation counts. A tenant
    /// running interleaved with others sees exactly the ledger it would
    /// have produced alone.
    pub fn snapshot_scoped(&self, scope: u64) -> FaultLedger {
        let st = self.0.lock().expect("fault state poisoned");
        FaultLedger {
            injected: st.ledger.injected.iter().filter(|f| f.scope == scope).copied().collect(),
            puts: st.op_counts.get(&(scope, FaultOp::Put)).copied().unwrap_or(0),
            gets: st.op_counts.get(&(scope, FaultOp::Get)).copied().unwrap_or(0),
            syncs: st.op_counts.get(&(scope, FaultOp::Sync)).copied().unwrap_or(0),
        }
    }

    /// Total faults injected so far.
    pub fn total(&self) -> usize {
        self.0.lock().expect("fault state poisoned").ledger.total()
    }
}

impl std::fmt::Debug for FaultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().expect("fault state poisoned");
        f.debug_struct("FaultStore")
            .field("plan", &self.plan)
            .field("injected", &st.ledger.total())
            .finish()
    }
}

impl FaultStore {
    /// Wrap `inner`, injecting faults per `plan`, with every random
    /// decision derived from `seed`. Scope 0 (single-tenant).
    pub fn new(inner: Box<dyn CheckpointStore>, plan: FaultPlan, seed: u64) -> Self {
        Self::scoped(inner, plan, seed, 0)
    }

    /// Like [`FaultStore::new`], but every decision runs under tenant
    /// `scope`. A solo run under scope `s` draws identically to the same
    /// tenant running under scope `s` on a shared store via [`twin`]s.
    ///
    /// [`twin`]: FaultStore::twin
    pub fn scoped(inner: Box<dyn CheckpointStore>, plan: FaultPlan, seed: u64, scope: u64) -> Self {
        FaultStore {
            inner,
            plan,
            seed,
            scope,
            state: Arc::new(Mutex::new(FaultState {
                ledger: FaultLedger::default(),
                attempts: BTreeMap::new(),
                op_counts: BTreeMap::new(),
                dead_blobs: BTreeSet::new(),
                dead_ops: BTreeSet::new(),
                sync_lied: false,
            })),
            trace: Trace::disabled(),
        }
    }

    /// A second entry point over the *same* fault state (shared ledger,
    /// counters, dead sets) with its own tenant scope, wrapping `inner` —
    /// how a shared deployment gives each tenant a faulty view of one
    /// store. `inner` is typically that tenant's view of the same shared
    /// store the twin's sibling wraps.
    pub fn twin(&self, inner: Box<dyn CheckpointStore>, scope: u64) -> Self {
        FaultStore {
            inner,
            plan: self.plan.clone(),
            seed: self.seed,
            scope,
            state: Arc::clone(&self.state),
            trace: self.trace.clone(),
        }
    }

    /// The tenant scope this entry point decides under.
    pub fn scope(&self) -> u64 {
        self.scope
    }

    /// Snapshot of the injected-fault ledger.
    pub fn ledger(&self) -> FaultLedger {
        self.state.lock().expect("fault state poisoned").ledger.clone()
    }

    /// A cloneable handle onto the ledger that stays valid after this store
    /// is boxed into a session.
    pub fn ledger_handle(&self) -> FaultLedgerHandle {
        FaultLedgerHandle(Arc::clone(&self.state))
    }

    /// Whether a fsync lie has swallowed a `sync` since the last real one.
    pub fn sync_lied(&self) -> bool {
        self.state.lock().expect("fault state poisoned").sync_lied
    }

    /// The wrapped store (e.g. to inspect true stats underneath the faults).
    pub fn inner(&self) -> &dyn CheckpointStore {
        self.inner.as_ref()
    }

    /// Unwrap, discarding the fault layer.
    pub fn into_inner(self) -> Box<dyn CheckpointStore> {
        self.inner
    }

    /// The scheduled fault for this `(op, index)`, if any.
    fn scheduled(&self, op: FaultOp, index: u64) -> Option<FaultKind> {
        self.plan
            .scheduled
            .iter()
            .find(|s| s.op == op && s.at == index)
            .map(|s| s.kind)
    }

    /// Take this call's per-`(scope, op)` index and fault decision.
    /// Probabilistic draws are a pure function of `(seed, scope, op, key,
    /// attempt)` — see [`keyed_draw`] — so they are independent of
    /// operation interleaving, within a tenant and across tenants. A
    /// scheduled fault beats the probabilistic draws; a permanently failed
    /// op/blob beats both.
    fn decide(&self, op: FaultOp, key: u64) -> Decision {
        let mut st = self.state.lock().expect("fault state poisoned");
        match op {
            FaultOp::Put => st.ledger.puts += 1,
            FaultOp::Get => st.ledger.gets += 1,
            FaultOp::Sync => st.ledger.syncs += 1,
        }
        let index = {
            let counter = st.op_counts.entry((self.scope, op)).or_insert(0);
            let i = *counter;
            *counter += 1;
            i
        };
        let (dead, transient_p, corrupt_p, corrupt_kind) = match op {
            FaultOp::Put => (
                st.dead_ops.contains(&(self.scope, FaultOp::Put)),
                self.plan.put_transient_p,
                self.plan.short_write_p,
                FaultKind::ShortWrite,
            ),
            FaultOp::Get => (
                st.dead_blobs.contains(&(self.scope, key)),
                self.plan.get_transient_p,
                self.plan.bit_flip_p,
                FaultKind::BitFlip,
            ),
            FaultOp::Sync => (
                st.dead_ops.contains(&(self.scope, FaultOp::Sync)),
                self.plan.sync_transient_p,
                self.plan.fsync_lie_p,
                FaultKind::FsyncLie,
            ),
        };
        let attempt = {
            let counter = st.attempts.entry((self.scope, op, key)).or_insert(0);
            let a = *counter;
            *counter += 1;
            a
        };
        let seed = scoped_seed(self.seed, self.scope);
        let kind = if dead {
            Some(FaultKind::Permanent)
        } else if let Some(k) = self.scheduled(op, index) {
            Some(k)
        } else if unit(keyed_draw(seed, op, key, attempt, Lane::Transient)) < transient_p {
            Some(FaultKind::Transient)
        } else if unit(keyed_draw(seed, op, key, attempt, Lane::Corrupt)) < corrupt_p {
            Some(corrupt_kind)
        } else {
            None
        };
        // Positional entropy for bit-flips / short-write cuts, from its own
        // lane so it never perturbs the fire/don't-fire decisions.
        let entropy = keyed_draw(seed, op, key, attempt, Lane::Position);
        Decision { index, key, attempt, kind, entropy }
    }

    /// Open the per-op observability span, annotated with the decision's
    /// replay coordinates. A no-op guard when no trace is attached.
    fn op_span(&self, name: &'static str, d: &Decision) -> kishu_trace::SpanGuard {
        let mut sp = self.trace.span(name);
        sp.arg("op_index", d.index);
        sp.arg("key", format!("{:#018x}", d.key));
        sp.arg("attempt", d.attempt);
        if self.scope != 0 {
            sp.arg("scope", format!("{:#018x}", self.scope));
        }
        sp
    }

    /// Append one injected fault to the ledger and return its entry index
    /// (what faulted ops' spans link to).
    fn record(&self, kind: FaultKind, d: &Decision, op: FaultOp, blob: Option<BlobId>) -> usize {
        let index = {
            let mut st = self.state.lock().expect("fault state poisoned");
            st.ledger.injected.push(InjectedFault {
                op,
                kind,
                op_index: d.index,
                blob,
                key: d.key,
                attempt: d.attempt,
                scope: self.scope,
            });
            st.ledger.injected.len() - 1
        };
        // Journal the injection so an operator tailing the event stream
        // can cross-reference the FaultLedger without replaying a trace.
        // Purely observational — the ledger entry above is the record the
        // behavior-freedom tests fingerprint.
        let mut fields = vec![
            ("op".to_string(), format!("{op:?}")),
            ("fault".to_string(), format!("{kind:?}")),
            ("ledger".to_string(), index.to_string()),
            ("attempt".to_string(), d.attempt.to_string()),
        ];
        if self.scope != 0 {
            fields.push(("scope".to_string(), format!("{:#018x}", self.scope)));
        }
        self.trace.event(kishu_trace::Severity::Warn, "fault", fields);
        index
    }

    /// Annotate a faulted op's span with the failure mode and the ledger
    /// entry it was recorded as.
    fn fault_args(sp: &mut kishu_trace::SpanGuard, kind: FaultKind, ledger_index: usize) {
        sp.arg("fault", format!("{kind:?}"));
        sp.arg("ledger", ledger_index);
    }

    fn transient_err(op: FaultOp) -> io::Error {
        io::Error::new(
            io::ErrorKind::Interrupted,
            format!("injected transient {op:?} fault"),
        )
    }

    fn permanent_err(op: FaultOp) -> io::Error {
        io::Error::other(format!("injected permanent {op:?} fault"))
    }
}

/// One call's fault decision.
struct Decision {
    index: u64,
    /// The operation key the draws used (payload hash / blob id / 0).
    key: u64,
    /// The per-`(op, key)` attempt number the draws used.
    attempt: u64,
    kind: Option<FaultKind>,
    /// Keyed positional randomness for the op's corruption mode (bit index
    /// for a flip, cut point for a short write).
    entropy: u64,
}

/// Independent randomness lanes within one `(seed, op, key, attempt)`
/// point, so e.g. the short-write cut position never perturbs whether a
/// transient fault fires.
#[derive(Debug, Clone, Copy)]
enum Lane {
    Transient = 0,
    Corrupt = 1,
    Position = 2,
}

/// Fold a tenant scope into the plan seed. The identity for scope 0, so
/// the single-tenant draw sequence is bit-for-bit unchanged; any other
/// scope lands the tenant in its own statistically independent draw space.
fn scoped_seed(seed: u64, scope: u64) -> u64 {
    seed ^ scope.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A deterministic tenant scope from a tenant name, for wiring
/// [`FaultStore::scoped`]/[`FaultStore::twin`] to named shared-store
/// tenants. Never 0, so a named tenant cannot collide with the
/// single-tenant legacy scope.
pub fn tenant_scope(name: &str) -> u64 {
    xxh64(name.as_bytes(), 0x07E4_A475_C09E) | 1
}

/// The keyed fault draw: a pure function of its five inputs, with no
/// shared stream — concurrent callers in any interleaving observe the
/// same decisions for the same logical operations.
fn keyed_draw(seed: u64, op: FaultOp, key: u64, attempt: u64, lane: Lane) -> u64 {
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    let mut out = 0u64;
    for word in [1 + op as u64, key, attempt, lane as u64] {
        state ^= word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        out = splitmix64(&mut state);
    }
    out
}

/// Map a draw onto `[0, 1)` with 53 bits of precision (the standard
/// u64-to-double construction).
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Seed for hashing `put` payloads into operation keys; distinct from the
/// dedup index's content seed so the two key spaces are unrelated.
const PUT_KEY_SEED: u64 = 0xFA0_175_EED;

impl CheckpointStore for FaultStore {
    fn put(&mut self, bytes: &[u8]) -> io::Result<BlobId> {
        self.put_with_receipt(bytes).map(|r| r.id)
    }

    // The injection logic lives here so `put` and `put_with_receipt` share
    // one decision point: the same payload draws the same fault under
    // either entry point, and a receipt-requesting caller (the session's
    // attribution path) perturbs nothing.
    fn put_with_receipt(&mut self, bytes: &[u8]) -> io::Result<crate::PutReceipt> {
        let d = self.decide(FaultOp::Put, xxh64(bytes, PUT_KEY_SEED));
        let mut sp = self.op_span("fault.put", &d);
        sp.arg("bytes", bytes.len());
        match d.kind {
            None => self.inner.put_with_receipt(bytes),
            Some(kind @ FaultKind::Transient) => {
                let idx = self.record(kind, &d, FaultOp::Put, None);
                Self::fault_args(&mut sp, kind, idx);
                Err(Self::transient_err(FaultOp::Put))
            }
            Some(kind @ FaultKind::ShortWrite) => {
                // A proper prefix lands in the inner store (the torn bytes a
                // crashed append leaves behind), then the caller sees the
                // error — it must never reference the garbage id.
                let cut = if bytes.is_empty() { 0 } else { d.entropy as usize % bytes.len() };
                let blob = self.inner.put(&bytes[..cut]).ok();
                let idx = self.record(kind, &d, FaultOp::Put, blob);
                Self::fault_args(&mut sp, kind, idx);
                Err(Self::permanent_err(FaultOp::Put))
            }
            // Permanent (and any inapplicable scheduled kind): a hard,
            // non-retryable error; `Permanent` also fails every later put.
            Some(kind) => {
                if kind == FaultKind::Permanent {
                    self.state
                        .lock()
                        .expect("fault state poisoned")
                        .dead_ops
                        .insert((self.scope, FaultOp::Put));
                }
                let idx = self.record(kind, &d, FaultOp::Put, None);
                Self::fault_args(&mut sp, kind, idx);
                Err(Self::permanent_err(FaultOp::Put))
            }
        }
    }

    fn get(&self, id: BlobId) -> io::Result<Vec<u8>> {
        let d = self.decide(FaultOp::Get, id);
        let mut sp = self.op_span("fault.get", &d);
        sp.arg("blob", id);
        match d.kind {
            None => self.inner.get(id),
            Some(kind @ FaultKind::Transient) => {
                let idx = self.record(kind, &d, FaultOp::Get, Some(id));
                Self::fault_args(&mut sp, kind, idx);
                Err(Self::transient_err(FaultOp::Get))
            }
            Some(kind @ FaultKind::BitFlip) => {
                let mut bytes = self.inner.get(id)?;
                if !bytes.is_empty() {
                    let bit = d.entropy as usize % (bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                let idx = self.record(kind, &d, FaultOp::Get, Some(id));
                Self::fault_args(&mut sp, kind, idx);
                Ok(bytes)
            }
            Some(kind) => {
                if kind == FaultKind::Permanent {
                    self.state
                        .lock()
                        .expect("fault state poisoned")
                        .dead_blobs
                        .insert((self.scope, id));
                }
                let idx = self.record(kind, &d, FaultOp::Get, Some(id));
                Self::fault_args(&mut sp, kind, idx);
                Err(Self::permanent_err(FaultOp::Get))
            }
        }
    }

    fn blob_count(&self) -> u64 {
        self.inner.blob_count()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn sync(&mut self) -> io::Result<()> {
        let d = self.decide(FaultOp::Sync, 0);
        let mut sp = self.op_span("fault.sync", &d);
        match d.kind {
            None => {
                let r = self.inner.sync();
                if r.is_ok() {
                    self.state.lock().expect("fault state poisoned").sync_lied = false;
                }
                r
            }
            Some(kind @ FaultKind::Transient) => {
                let idx = self.record(kind, &d, FaultOp::Sync, None);
                Self::fault_args(&mut sp, kind, idx);
                Err(Self::transient_err(FaultOp::Sync))
            }
            Some(kind @ FaultKind::FsyncLie) => {
                self.state.lock().expect("fault state poisoned").sync_lied = true;
                let idx = self.record(kind, &d, FaultOp::Sync, None);
                Self::fault_args(&mut sp, kind, idx);
                Ok(())
            }
            Some(kind) => {
                if kind == FaultKind::Permanent {
                    self.state
                        .lock()
                        .expect("fault state poisoned")
                        .dead_ops
                        .insert((self.scope, FaultOp::Sync));
                }
                let idx = self.record(kind, &d, FaultOp::Sync, None);
                Self::fault_args(&mut sp, kind, idx);
                Err(Self::permanent_err(FaultOp::Sync))
            }
        }
    }

    fn flush_barrier(&mut self) -> io::Result<()> {
        // No fault draw: the barrier is an ordering point, not a media
        // operation — media failures inject at `put`/`sync`, and an inner
        // store's own flush errors still surface through this forward.
        // Keeping it draw-free also keeps fault ledgers identical whether
        // or not a store buffers (group commit on vs off).
        self.inner.flush_barrier()
    }

    fn chunk_stats(&self) -> Option<crate::chunk::ChunkStats> {
        self.inner.chunk_stats()
    }

    fn chunk_config(&self) -> Option<crate::chunk::ChunkConfig> {
        self.inner.chunk_config()
    }

    fn attach_trace(&mut self, trace: &Trace) {
        self.trace = trace.clone();
        self.inner.attach_trace(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{each_chunk_config, ChunkConfig, MemoryStore};

    fn faulty(cfg: ChunkConfig, plan: FaultPlan, seed: u64) -> FaultStore {
        FaultStore::new(Box::new(MemoryStore::with_config(cfg)), plan, seed)
    }

    #[test]
    fn no_faults_is_a_pure_pass_through() {
        for cfg in each_chunk_config() {
            let mut s = faulty(cfg.clone(), FaultPlan::none(), 1);
            let a = s.put(b"alpha").expect("put");
            assert_eq!(s.get(a).expect("get"), b"alpha");
            s.sync().expect("sync");
            assert_eq!(s.blob_count(), 1);
            let ledger = s.ledger();
            assert_eq!(ledger.total(), 0);
            assert_eq!((ledger.puts, ledger.gets, ledger.syncs), (1, 1, 1));
        }
    }

    #[test]
    fn same_seed_injects_the_same_faults() {
        for cfg in each_chunk_config() {
            let run = |seed: u64| {
                let mut s = faulty(cfg.clone(), FaultPlan::transient(0.3), seed);
                let mut outcomes = Vec::new();
                for i in 0..50u64 {
                    outcomes.push(s.put(&[i as u8; 16]).is_ok());
                    outcomes.push(s.get(i % s.blob_count().max(1)).is_ok());
                    outcomes.push(s.sync().is_ok());
                }
                (outcomes, s.ledger().injected)
            };
            assert_eq!(run(42), run(42), "deterministic from the seed");
            assert_ne!(run(42).1, run(43).1, "different seeds, different faults");
        }
    }

    #[test]
    fn probabilistic_faults_are_independent_of_operation_interleaving() {
        for cfg in each_chunk_config() {
            // Issue the same logical puts in two different orders: each payload
            // must see the same fault outcome either way, because the decision
            // is keyed on (seed, op, payload hash, attempt), not on a shared
            // RNG stream consumed in call order.
            let payloads: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 24 + i as usize]).collect();
            let outcomes = |order: Vec<usize>| {
                let mut s = faulty(cfg.clone(), FaultPlan::transient(0.35), 0x1EAF);
                let mut by_payload = vec![false; payloads.len()];
                for i in order {
                    by_payload[i] = s.put(&payloads[i]).is_ok();
                }
                by_payload
            };
            let forward = outcomes((0..payloads.len()).collect());
            let reversed = outcomes((0..payloads.len()).rev().collect());
            assert_eq!(forward, reversed, "fault decisions must not depend on call order");
            assert!(forward.iter().any(|ok| !ok), "seed 0x1EAF should fire at p=0.35");
            assert!(forward.iter().any(|ok| *ok), "and not fire everywhere");
        }
    }

    #[test]
    fn retries_of_the_same_key_draw_fresh_randomness() {
        for cfg in each_chunk_config() {
            // With p=0.5 and many attempts of one payload, both outcomes must
            // occur: the per-key attempt counter advances the draw.
            let mut s = faulty(cfg.clone(), FaultPlan::transient(0.5), 99);
            let results: Vec<bool> = (0..64).map(|_| s.put(b"same bytes").is_ok()).collect();
            assert!(results.iter().any(|ok| *ok));
            assert!(results.iter().any(|ok| !ok));
        }
    }

    #[test]
    fn transient_faults_are_interrupted_and_leave_inner_untouched() {
        for cfg in each_chunk_config() {
            let mut s = faulty(cfg.clone(), FaultPlan::none().schedule(FaultOp::Put, 0, FaultKind::Transient), 7);
            let err = s.put(b"x").expect_err("scheduled fault");
            assert_eq!(err.kind(), io::ErrorKind::Interrupted);
            assert_eq!(s.inner().blob_count(), 0, "nothing reached the inner store");
            // The retry (next invocation) succeeds.
            s.put(b"x").expect("retry works");
        }
    }

    #[test]
    fn permanent_get_fault_kills_the_blob_forever() {
        for cfg in each_chunk_config() {
            let mut s = faulty(cfg.clone(), FaultPlan::none().schedule(FaultOp::Get, 1, FaultKind::Permanent), 7);
            let id = s.put(b"precious").expect("put");
            assert_eq!(s.get(id).expect("first read ok"), b"precious");
            assert!(s.get(id).is_err(), "scheduled permanent fault");
            assert!(s.get(id).is_err(), "dead stays dead");
            assert_eq!(s.ledger().count(FaultKind::Permanent), 2);
        }
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        for cfg in each_chunk_config() {
            let mut s = faulty(cfg.clone(), FaultPlan::none().schedule(FaultOp::Get, 0, FaultKind::BitFlip), 9);
            let id = s.put(&[0u8; 64]).expect("put");
            let corrupted = s.get(id).expect("bit flip still returns bytes");
            let ones: u32 = corrupted.iter().map(|b| b.count_ones()).sum();
            assert_eq!(ones, 1, "exactly one bit flipped");
            assert_eq!(s.get(id).expect("clean read"), vec![0u8; 64]);
        }
    }

    #[test]
    fn short_write_stores_a_proper_prefix_and_errors() {
        for cfg in each_chunk_config() {
            let mut s = faulty(cfg.clone(), FaultPlan::none().schedule(FaultOp::Put, 0, FaultKind::ShortWrite), 11);
            assert!(s.put(&[7u8; 100]).is_err());
            assert_eq!(s.inner().blob_count(), 1, "torn bytes landed in the store");
            let torn = s.inner().get(0).expect("inner read");
            assert!(torn.len() < 100, "a proper prefix, not the full payload");
            assert!(torn.iter().all(|b| *b == 7));
        }
    }

    #[test]
    fn fsync_lie_reports_ok_without_syncing() {
        for cfg in each_chunk_config() {
            let mut s = faulty(cfg.clone(), FaultPlan::none().schedule(FaultOp::Sync, 0, FaultKind::FsyncLie), 13);
            s.sync().expect("the lie");
            assert!(s.sync_lied());
            assert_eq!(s.ledger().count(FaultKind::FsyncLie), 1);
            s.sync().expect("real sync");
            assert!(!s.sync_lied(), "a real sync clears the lie");
        }
    }

    #[test]
    fn ledger_entries_carry_replay_coordinates_and_serialize() {
        for cfg in each_chunk_config() {
            let mut s = faulty(cfg.clone(), FaultPlan::none().schedule(FaultOp::Get, 1, FaultKind::Transient), 5);
            let id = s.put(b"payload").expect("put");
            let _ = s.get(id); // get #0: clean (first attempt of key `id`)
            let _ = s.get(id); // get #1: scheduled transient
            let ledger = s.ledger();
            assert_eq!(ledger.total(), 1);
            let f = ledger.injected[0];
            assert_eq!((f.op, f.kind), (FaultOp::Get, FaultKind::Transient));
            assert_eq!(f.key, id, "get key is the blob id");
            assert_eq!(f.attempt, 1, "second draw of the same key");
            let dbg = format!("{f:?}");
            assert!(dbg.contains("key") && dbg.contains("attempt"), "{dbg}");
            let j = ledger.to_json();
            assert_eq!(j.get("gets").and_then(Json::as_i64), Some(2));
            let Some(Json::Array(injected)) = j.get("injected") else {
                panic!("injected array")
            };
            let entry = &injected[0];
            assert_eq!(entry.get("attempt").and_then(Json::as_i64), Some(1));
            assert_eq!(
                entry.get("key").and_then(Json::as_str),
                Some(format!("{id:#018x}").as_str())
            );
            // Round-trips through the parser.
            Json::parse(&j.dump()).expect("ledger json parses");
        }
    }

    #[test]
    fn faulted_op_spans_link_to_their_ledger_entry() {
        for cfg in each_chunk_config() {
            let mut s = faulty(cfg.clone(), 
                FaultPlan::none()
                    .schedule(FaultOp::Put, 0, FaultKind::Transient)
                    .schedule(FaultOp::Put, 1, FaultKind::ShortWrite),
                5,
            );
            let trace = Trace::enabled();
            s.attach_trace(&trace);
            assert!(s.put(b"abcdefgh").is_err());
            assert!(s.put(b"abcdefgh").is_err());
            s.put(b"abcdefgh").expect("third attempt clean");
            let spans = trace.spans();
            let puts: Vec<_> = spans.iter().filter(|sp| sp.name == "fault.put").collect();
            assert_eq!(puts.len(), 3);
            let arg = |sp: &kishu_trace::SpanRecord, k: &str| {
                sp.args.iter().find(|(a, _)| *a == k).map(|(_, v)| v.clone())
            };
            // Faulted ops carry the fault kind + ledger index; the clean one
            // carries neither, but all three carry key/attempt.
            assert_eq!(arg(puts[0], "ledger").as_deref(), Some("0"));
            assert_eq!(arg(puts[0], "fault").as_deref(), Some("Transient"));
            assert_eq!(arg(puts[1], "ledger").as_deref(), Some("1"));
            assert_eq!(arg(puts[1], "fault").as_deref(), Some("ShortWrite"));
            assert_eq!(arg(puts[2], "ledger"), None);
            for (i, sp) in puts.iter().enumerate() {
                assert_eq!(arg(sp, "attempt").as_deref(), Some(i.to_string().as_str()));
                assert!(arg(sp, "key").is_some());
            }
            // The span annotations agree with the ledger they point into.
            let ledger = s.ledger();
            assert_eq!(ledger.injected[0].kind, FaultKind::Transient);
            assert_eq!(ledger.injected[1].kind, FaultKind::ShortWrite);
        }
    }

    #[test]
    fn scoped_draws_are_unperturbed_by_a_sibling_scope() {
        for cfg in each_chunk_config() {
            // Tenant A's fault sequence for its own operations must be
            // identical whether it runs alone or shares the fault state with a
            // busy tenant B retrying the very same keys.
            let scope_a = tenant_scope("alice");
            let scope_b = tenant_scope("bob");
            let payloads: Vec<Vec<u8>> = (0..30u8).map(|i| vec![i; 10 + i as usize]).collect();
            let solo: Vec<bool> = {
                let mut a = FaultStore::scoped(
                    Box::new(MemoryStore::with_config(cfg.clone())),
                    FaultPlan::transient(0.3),
                    0xD1FF,
                    scope_a,
                );
                payloads.iter().map(|p| a.put(p).is_ok()).collect()
            };
            let interleaved: Vec<bool> = {
                let a = FaultStore::scoped(
                    Box::new(MemoryStore::with_config(cfg.clone())),
                    FaultPlan::transient(0.3),
                    0xD1FF,
                    scope_a,
                );
                let mut b = a.twin(Box::new(MemoryStore::with_config(cfg.clone())), scope_b);
                let mut a = a;
                payloads
                    .iter()
                    .map(|p| {
                        // B hammers the same payload (same op key!) first; its
                        // retries must not advance A's attempt counters.
                        for _ in 0..3 {
                            let _ = b.put(p);
                        }
                        a.put(p).is_ok()
                    })
                    .collect()
            };
            assert_eq!(solo, interleaved, "sibling scope perturbed the draws");
            assert!(solo.iter().any(|ok| !ok), "plan should fire at p=0.3");
            assert!(solo.iter().any(|ok| *ok));
        }
    }

    #[test]
    fn scope_zero_is_bit_identical_to_legacy() {
        for cfg in each_chunk_config() {
            // `new` (scope 0) and `scoped(.., 0)` agree; the scope field is the
            // only addition to the ledger entries.
            let run = |mk: &dyn Fn() -> FaultStore| {
                let mut s = mk();
                let mut outcomes = Vec::new();
                for i in 0..40u64 {
                    outcomes.push(s.put(&[i as u8; 12]).is_ok());
                    outcomes.push(s.sync().is_ok());
                }
                (outcomes, s.ledger().injected)
            };
            let plan = FaultPlan::transient(0.25);
            let (o1, l1) = run(&|| FaultStore::new(Box::new(MemoryStore::with_config(cfg.clone())), plan.clone(), 77));
            let (o2, l2) =
                run(&|| FaultStore::scoped(Box::new(MemoryStore::with_config(cfg.clone())), plan.clone(), 77, 0));
            assert_eq!(o1, o2);
            assert_eq!(l1, l2);
            assert!(l1.iter().all(|f| f.scope == 0));
        }
    }

    #[test]
    fn scoped_ledger_snapshots_project_one_tenant() {
        for cfg in each_chunk_config() {
            let scope_a = tenant_scope("alice");
            let scope_b = tenant_scope("bob");
            assert_ne!(scope_a, scope_b);
            assert_ne!(scope_a, 0, "tenant scopes never collide with legacy 0");
            let a = FaultStore::scoped(
                Box::new(MemoryStore::with_config(cfg.clone())),
                FaultPlan::none()
                    .schedule(FaultOp::Put, 1, FaultKind::Transient),
                3,
                scope_a,
            );
            let handle = a.ledger_handle();
            let mut b = a.twin(Box::new(MemoryStore::with_config(cfg.clone())), scope_b);
            let mut a = a;
            a.put(b"one").expect("a put 0 clean");
            b.put(b"one").expect("b put 0 clean");
            // Each tenant's *own* second put hits the scheduled fault: the
            // schedule indexes per-scope op counts, not a global stream.
            assert!(a.put(b"two").is_err(), "a's put #1 faults");
            assert!(b.put(b"two").is_err(), "b's put #1 faults");
            b.put(b"three").expect("b put 2 clean");
            let la = handle.snapshot_scoped(scope_a);
            let lb = handle.snapshot_scoped(scope_b);
            assert_eq!((la.puts, la.total()), (2, 1));
            assert_eq!((lb.puts, lb.total()), (3, 1));
            assert!(la.injected.iter().all(|f| f.scope == scope_a));
            assert!(lb.injected.iter().all(|f| f.scope == scope_b));
            assert_eq!(la.injected[0].op_index, 1);
            assert_eq!(lb.injected[0].op_index, 1);
            // The combined ledger holds both, and its counts are the totals.
            let all = handle.snapshot();
            assert_eq!((all.puts, all.total()), (5, 2));
        }
    }

    #[test]
    fn permanent_blob_death_is_per_scope() {
        for cfg in each_chunk_config() {
            // A permanent get fault in one scope must not kill the same blob id
            // for a sibling scope.
            let scope_a = tenant_scope("alice");
            let a = FaultStore::scoped(
                Box::new(MemoryStore::with_config(cfg.clone())),
                FaultPlan::none().schedule(FaultOp::Get, 0, FaultKind::Permanent),
                5,
                scope_a,
            );
            let mut b = a.twin(Box::new(MemoryStore::with_config(cfg.clone())), tenant_scope("bob"));
            let mut a = a;
            let ia = a.put(b"x").expect("a put");
            let ib = b.put(b"x").expect("b put");
            assert!(a.get(ia).is_err(), "a's scheduled permanent fault");
            assert!(a.get(ia).is_err(), "dead stays dead for a");
            assert!(b.get(ib).is_err(), "b's own get #0 is also scheduled");
            assert!(b.get(ib).is_err(), "and dead stays dead for b");
            // But a fresh blob in scope b is unaffected by a's dead set.
            let ib2 = b.put(b"y").expect("b put 2");
            assert_eq!(b.get(ib2).expect("live"), b"y");
        }
    }

    #[test]
    fn integrity_sweep_sees_through_the_fault_layer() {
        for cfg in each_chunk_config() {
            let mut s = faulty(cfg.clone(), FaultPlan::none().schedule(FaultOp::Get, 2, FaultKind::Permanent), 17);
            let a = s.put(b"a").expect("put");
            let b = s.put(b"b").expect("put");
            let _ = s.get(a); // ok (get #0)
            let _ = s.get(b); // ok (get #1)
            let _ = s.get(a); // permanent fault (get #2): a is dead now
            let report = s.integrity_sweep();
            assert_eq!(report.unreadable, vec![a]);
            assert_eq!(report.readable, 1);
        }
    }
}
