//! The simulated object heap.
//!
//! All notebook state lives here. Objects are backed by extents in the
//! paged address space. Every in-place mutation goes through
//! [`Heap::modify`], which dirties the touched pages and advances the
//! heap-wide mutation clock — giving both the OS-level baselines (dirty
//! pages) and Kishu's delta detector (addresses, structure) something
//! faithful to observe.
//!
//! **Slot table.** [`ObjId`]s are issued in order and never reused, so an
//! id stays unambiguous for a whole session even across garbage
//! collections (ids are VarGraph identity). The heap holds its objects in
//! one dense vector in ObjId order — everything live at the last sweep
//! plus everything allocated since — and a `Vec<u32>` maps each id ever
//! issued to its position there, or to a sentinel once collected. A dead
//! id costs those 4 bytes and nothing else; `kind`, `addr` and `is_live`
//! stay O(1).
//!
//! **Sweep.** [`Heap::collect_garbage`] marks a bitset over positions from
//! the roots, compacts the survivors in order and rebuilds the allocator's
//! live-page set from their extents. It touches only the objects it holds,
//! so it costs O(live + new), however many ids the session has issued.
//!
//! **Pacing.** [`Heap::gc_due`] is the one rule for when a sweep pays: when
//! the objects allocated since the last sweep exceed
//! max([`GC_MIN_OBJECTS`], live objects after it), or the shallow bytes
//! allocated since then (in-place growth included) exceed
//! max([`GC_MIN_BYTES`], live bytes after it). Memory held is then at most
//! about twice the live state plus the floor, and the sweep cost amortizes
//! to O(1) per allocation.

use std::collections::HashSet;

use crate::object::{ObjId, ObjKind};
use crate::pages::{Extent, PageAllocator};

/// Sweep floor in objects: a smaller burst of allocation never triggers
/// one (see [`Heap::gc_due`]).
pub const GC_MIN_OBJECTS: usize = 4096;

/// Sweep floor in shallow bytes (see [`Heap::gc_due`]).
pub const GC_MIN_BYTES: u64 = 32 * 1024 * 1024;

/// Position sentinel in `Heap::pos` for a collected object.
const DEAD: u32 = u32::MAX;

/// One object the heap holds: its id and kind plus bookkeeping.
#[derive(Debug)]
struct Slot {
    id: ObjId,
    kind: ObjKind,
    extent: Extent,
    mutated_at: u64,
}

/// Aggregate heap statistics (drives Table 2-style workload summaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapStats {
    /// Number of objects held (not yet collected).
    pub live_objects: usize,
    /// Sum of held objects' shallow sizes in bytes.
    pub live_bytes: u64,
    /// Total objects ever allocated.
    pub total_allocated: u64,
}

/// Which bound of the pacing rule made a sweep due (see [`Heap::gc_due`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcBound {
    /// Objects allocated since the last sweep.
    Objects,
    /// Shallow bytes allocated since the last sweep.
    Bytes,
}

impl GcBound {
    /// Stable lowercase name (trace span arguments).
    pub fn as_str(self) -> &'static str {
        match self {
            GcBound::Objects => "objects",
            GcBound::Bytes => "bytes",
        }
    }
}

/// What one sweep did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Objects collected.
    pub freed_objects: usize,
    /// Shallow bytes of the collected objects.
    pub freed_bytes: u64,
    /// Objects that survived.
    pub live_objects: usize,
    /// Shallow bytes of the survivors.
    pub live_bytes: u64,
}

/// The heap of a simulated notebook kernel process.
#[derive(Debug)]
pub struct Heap {
    /// Held objects in ObjId order.
    slots: Vec<Slot>,
    /// ObjId → index into `slots`, or [`DEAD`]; one entry per id issued.
    pos: Vec<u32>,
    allocator: PageAllocator,
    clock: u64,
    next_token: u64,
    /// `slots.len()` right after the last sweep: the positions past it
    /// were allocated since.
    swept_objects: usize,
    /// Shallow bytes held right after the last sweep.
    swept_bytes: u64,
    /// Shallow bytes allocated since the last sweep, in-place growth
    /// included.
    new_bytes: u64,
}

impl Default for Heap {
    fn default() -> Self {
        Self::new()
    }
}

impl Heap {
    /// Fresh, empty heap (a just-started kernel).
    pub fn new() -> Self {
        Heap {
            slots: Vec::new(),
            pos: Vec::new(),
            allocator: PageAllocator::new(),
            clock: 0,
            next_token: 1,
            swept_objects: 0,
            swept_bytes: 0,
            new_bytes: 0,
        }
    }

    /// Allocate a new object. Returns its handle; its simulated address is
    /// assigned by the page allocator and never changes unless the object's
    /// backing buffer outgrows its extent (mirroring CPython reallocating a
    /// list's element array).
    #[inline]
    pub fn alloc(&mut self, kind: ObjKind) -> ObjId {
        // Allocators round requests up to size classes; the slack lets
        // small containers grow a little in place (as CPython lists do)
        // instead of relocating on the first append.
        let size = kind.shallow_size() as u64;
        let extent = self.allocator.alloc(size + (size / 8).clamp(8, 512));
        self.clock += 1;
        self.new_bytes += size;
        let id = ObjId(self.pos.len() as u32);
        self.pos.push(self.slots.len() as u32);
        self.slots.push(Slot {
            id,
            kind,
            extent,
            mutated_at: self.clock,
        });
        id
    }

    /// Fresh token for generator identity.
    pub fn fresh_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    /// Position of a held object in `slots`. Panics on a collected handle
    /// (a caller bug: the interpreter and Kishu only retain handles rooted
    /// in the namespace).
    #[inline]
    fn position(&self, id: ObjId) -> usize {
        let p = self.pos[id.index()];
        assert!(p != DEAD, "use of collected object {id}");
        p as usize
    }

    #[inline]
    fn slot(&self, id: ObjId) -> &Slot {
        &self.slots[self.position(id)]
    }

    /// Whether the handle refers to a live (non-collected) object.
    pub fn is_live(&self, id: ObjId) -> bool {
        self.pos.get(id.index()).is_some_and(|&p| p != DEAD)
    }

    /// Read an object's kind. Panics on a collected handle.
    #[inline]
    pub fn kind(&self, id: ObjId) -> &ObjKind {
        &self.slot(id).kind
    }

    /// The object's simulated memory address (CPython `id()` analogue).
    #[inline]
    pub fn addr(&self, id: ObjId) -> u64 {
        self.slot(id).extent.addr
    }

    /// Mutation-clock value of the object's last in-place modification.
    pub fn mutated_at(&self, id: ObjId) -> u64 {
        self.slot(id).mutated_at
    }

    /// Current value of the heap-wide mutation clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Reference edges out of `id` (empty for leaves and opaque objects).
    pub fn children(&self, id: ObjId) -> Vec<ObjId> {
        self.slot(id).kind.children()
    }

    /// Mutate an object in place. Dirties the pages backing it, advances the
    /// mutation clock, and reallocates the backing extent if the object
    /// outgrew it (which changes the object's address — observable by
    /// VarGraph comparison, as the growth is a genuine update).
    pub fn modify<R>(&mut self, id: ObjId, f: impl FnOnce(&mut ObjKind) -> R) -> R {
        self.clock += 1;
        let clock = self.clock;
        let p = self.pos[id.index()];
        assert!(p != DEAD, "mutation of collected object {id}");
        let slot = &mut self.slots[p as usize];
        let before = slot.kind.shallow_size() as u64;
        let out = f(&mut slot.kind);
        slot.mutated_at = clock;
        let needed = slot.kind.shallow_size() as u64;
        self.new_bytes += needed.saturating_sub(before);
        if needed > slot.extent.len {
            let old = slot.extent;
            // Double to amortize repeated growth, as CPython's list does.
            slot.extent = self.allocator.alloc(needed.saturating_mul(2));
            self.allocator.free(old);
            // Freeing `old` removed exactly its pages from the live set, so
            // only extents sharing those pages can have lost liveness.
            self.remark_pages_overlapping(old);
        } else {
            let ext = slot.extent;
            self.allocator.touch(ext);
        }
        out
    }

    /// Replace an object's kind wholesale (used by checkout when restoring a
    /// co-variable's objects in place). Same dirty/realloc semantics as
    /// [`Self::modify`].
    pub fn replace(&mut self, id: ObjId, kind: ObjKind) {
        self.modify(id, |k| *k = kind);
    }

    /// All objects reachable from `root` by following reference edges,
    /// including `root` itself, in BFS order. Does not descend into opaque
    /// objects (they have no edges).
    pub fn reachable_from(&self, root: ObjId) -> Vec<ObjId> {
        let mut seen: HashSet<ObjId> = HashSet::new();
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        seen.insert(root);
        queue.push_back(root);
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for child in self.children(id) {
                if seen.insert(child) {
                    queue.push_back(child);
                }
            }
        }
        order
    }

    /// All objects reachable from *any* of `roots`, each visited once, in
    /// BFS order from the roots jointly. One traversal with a shared seen
    /// set — callers checking a property over a whole root set (e.g. the
    /// checkpoint blocklist scan) must use this rather than unioning
    /// per-root [`Self::reachable_from`] calls, which revisits every shared
    /// substructure once per root that reaches it.
    pub fn reachable_from_all(&self, roots: &[ObjId]) -> Vec<ObjId> {
        let mut seen: HashSet<ObjId> = HashSet::new();
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        for &root in roots {
            if seen.insert(root) {
                queue.push_back(root);
            }
        }
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for child in self.children(id) {
                if seen.insert(child) {
                    queue.push_back(child);
                }
            }
        }
        order
    }

    /// Sum of shallow sizes of everything reachable from the given roots
    /// (shared objects counted once). One joint traversal via
    /// [`Self::reachable_from_all`] — never a per-root walk, which would
    /// revisit shared substructure once per root reaching it.
    pub fn deep_size(&self, roots: impl IntoIterator<Item = ObjId>) -> u64 {
        let roots: Vec<ObjId> = roots.into_iter().collect();
        self.reachable_from_all(&roots)
            .into_iter()
            .map(|id| self.kind(id).shallow_size() as u64)
            .sum()
    }

    /// Whether a sweep is due under the heap's one pacing rule: the
    /// objects allocated since the last sweep exceed
    /// max([`GC_MIN_OBJECTS`], live objects after it), or the shallow bytes
    /// allocated since then — in-place growth included — exceed
    /// max([`GC_MIN_BYTES`], live bytes after it). Returns the bound that
    /// fired. O(1).
    pub fn gc_due(&self) -> Option<GcBound> {
        let new_objects = self.slots.len() - self.swept_objects;
        if new_objects > GC_MIN_OBJECTS.max(self.swept_objects) {
            Some(GcBound::Objects)
        } else if self.new_bytes > GC_MIN_BYTES.max(self.swept_bytes) {
            Some(GcBound::Bytes)
        } else {
            None
        }
    }

    /// Mark-and-sweep garbage collection from the given roots. Collected
    /// ids are never reused, so a stale `ObjId` can never silently alias a
    /// new object. Costs O(held objects + their live pages): ids collected
    /// by earlier sweeps are never visited again.
    pub fn collect_garbage(&mut self, roots: impl IntoIterator<Item = ObjId>) -> GcStats {
        let mut marked = vec![0u64; self.slots.len().div_ceil(64)];
        let mut stack: Vec<usize> = Vec::new();
        let mut mark = |p: usize, stack: &mut Vec<usize>| {
            let (word, bit) = (p / 64, 1u64 << (p % 64));
            if marked[word] & bit == 0 {
                marked[word] |= bit;
                stack.push(p);
            }
        };
        for r in roots {
            mark(self.position(r), &mut stack);
        }
        while let Some(p) = stack.pop() {
            for child in self.slots[p].kind.children() {
                mark(self.position(child), &mut stack);
            }
        }

        let mut stats = GcStats::default();
        let Heap { slots, pos, .. } = self;
        let mut next = 0usize;
        slots.retain(|s| {
            let p = next;
            next += 1;
            let size = s.kind.shallow_size() as u64;
            if marked[p / 64] & (1u64 << (p % 64)) != 0 {
                pos[s.id.index()] = stats.live_objects as u32;
                stats.live_objects += 1;
                stats.live_bytes += size;
                true
            } else {
                pos[s.id.index()] = DEAD;
                stats.freed_objects += 1;
                stats.freed_bytes += size;
                false
            }
        });
        // Between sweeps the pacing rule lets the table grow to about
        // live + max(GC_MIN_OBJECTS, live); a burst far past that (one
        // cell building a million temporaries) must not pin its footprint.
        let steady = slots.len() + GC_MIN_OBJECTS;
        if slots.capacity() > 4 * steady {
            slots.shrink_to(2 * steady);
        }
        self.allocator.rebuild_live(self.slots.iter().map(|s| s.extent));
        self.swept_objects = stats.live_objects;
        self.swept_bytes = stats.live_bytes;
        self.new_bytes = 0;
        stats
    }

    fn remark_pages_overlapping(&mut self, freed: Extent) {
        // A single freed extent (the growth path in [`Self::modify`]) only
        // removed *its* pages from the live set; re-marking is bounded by
        // the extents overlapping those pages instead of re-inserting every
        // page of every live object on each growth.
        for s in &self.slots {
            if s.extent.shares_pages_with(&freed) {
                self.allocator.mark_live(s.extent);
            }
        }
    }

    /// Pages dirtied since the last [`Self::clear_dirty_pages`]. Consumed by
    /// the CRIU-Incremental baseline.
    pub fn dirty_pages(&self) -> Vec<u64> {
        self.allocator.dirty_pages()
    }

    /// All pages backing live objects. Consumed by the full-snapshot CRIU
    /// baseline.
    pub fn live_pages(&self) -> Vec<u64> {
        self.allocator.live_pages()
    }

    /// Reset dirty-page tracking (after a snapshot is taken).
    pub fn clear_dirty_pages(&mut self) {
        self.allocator.clear_dirty();
    }

    /// Objects whose extent overlaps any of the given pages — what an
    /// OS-level incremental snapshot implicitly copies.
    pub fn objects_on_pages(&self, pages: &[u64]) -> Vec<ObjId> {
        let page_set: HashSet<u64> = pages.iter().copied().collect();
        self.slots
            .iter()
            .filter(|s| s.extent.pages().any(|p| page_set.contains(&p)))
            .map(|s| s.id)
            .collect()
    }

    /// Iterator over all live object handles, in ObjId order.
    pub fn live_objects(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.slots.iter().map(|s| s.id)
    }

    /// Total objects ever allocated. O(1).
    pub fn total_allocated(&self) -> u64 {
        self.pos.len() as u64
    }

    /// Aggregate statistics. Walks the objects the heap holds; use
    /// [`Heap::total_allocated`] when that count is all you need.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            live_objects: self.slots.len(),
            live_bytes: self
                .slots
                .iter()
                .map(|s| s.kind.shallow_size() as u64)
                .sum(),
            total_allocated: self.total_allocated(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list_of_ints(heap: &mut Heap, values: &[i64]) -> ObjId {
        let items: Vec<ObjId> = values.iter().map(|v| heap.alloc(ObjKind::Int(*v))).collect();
        heap.alloc(ObjKind::List(items))
    }

    #[test]
    fn alloc_and_read_roundtrip() {
        let mut heap = Heap::new();
        let id = heap.alloc(ObjKind::Int(42));
        assert_eq!(heap.kind(id), &ObjKind::Int(42));
        assert!(heap.is_live(id));
    }

    #[test]
    fn addresses_are_distinct_and_stable() {
        let mut heap = Heap::new();
        let a = heap.alloc(ObjKind::Int(1));
        let b = heap.alloc(ObjKind::Int(1));
        assert_ne!(heap.addr(a), heap.addr(b));
        let before = heap.addr(a);
        heap.modify(a, |k| *k = ObjKind::Int(2));
        assert_eq!(heap.addr(a), before); // in-place update keeps the address
    }

    #[test]
    fn growth_reallocates_address() {
        let mut heap = Heap::new();
        let ls = heap.alloc(ObjKind::List(Vec::new()));
        let before = heap.addr(ls);
        let elems: Vec<ObjId> = (0..128).map(|i| heap.alloc(ObjKind::Int(i))).collect();
        heap.modify(ls, |k| {
            if let ObjKind::List(items) = k {
                items.extend(elems);
            }
        });
        assert_ne!(heap.addr(ls), before); // outgrew the extent
    }

    #[test]
    fn modify_dirties_pages() {
        let mut heap = Heap::new();
        let arr = heap.alloc(ObjKind::NdArray(vec![0.0; 10]));
        heap.clear_dirty_pages();
        assert!(heap.dirty_pages().is_empty());
        heap.modify(arr, |k| {
            if let ObjKind::NdArray(v) = k {
                v[3] = 1.0;
            }
        });
        assert!(!heap.dirty_pages().is_empty());
    }

    #[test]
    fn reachability_follows_references_and_dedups() {
        let mut heap = Heap::new();
        let shared = heap.alloc(ObjKind::Str("b".into()));
        let ls = heap.alloc(ObjKind::List(vec![shared, shared]));
        let reach = heap.reachable_from(ls);
        assert_eq!(reach.len(), 2); // list + shared string once
        assert!(reach.contains(&shared));
    }

    #[test]
    fn union_reachability_visits_shared_structure_once() {
        let mut heap = Heap::new();
        let shared = heap.alloc(ObjKind::Str("s".into()));
        let a = heap.alloc(ObjKind::List(vec![shared]));
        let b = heap.alloc(ObjKind::List(vec![shared]));
        let union = heap.reachable_from_all(&[a, b, a]);
        assert_eq!(union.len(), 3, "a, b, and shared exactly once each");
        // Same membership as unioning the per-root traversals.
        let mut per_root: Vec<ObjId> = heap
            .reachable_from(a)
            .into_iter()
            .chain(heap.reachable_from(b))
            .collect();
        per_root.sort_unstable();
        per_root.dedup();
        let mut got = union.clone();
        got.sort_unstable();
        assert_eq!(got, per_root);
        assert!(heap.reachable_from_all(&[]).is_empty());
    }

    #[test]
    fn reachability_handles_cycles() {
        let mut heap = Heap::new();
        let inner = heap.alloc(ObjKind::List(Vec::new()));
        let outer = heap.alloc(ObjKind::List(vec![inner]));
        heap.modify(inner, |k| {
            if let ObjKind::List(items) = k {
                items.push(outer);
            }
        });
        let reach = heap.reachable_from(outer);
        assert_eq!(reach.len(), 2);
    }

    #[test]
    fn gc_collects_unreachable_and_preserves_roots() {
        let mut heap = Heap::new();
        let keep = list_of_ints(&mut heap, &[1, 2, 3]);
        let drop_me = list_of_ints(&mut heap, &[4, 5, 6]);
        let swept = heap.collect_garbage([keep]);
        assert_eq!(swept.freed_objects, 4); // dropped list + its 3 ints
        assert_eq!(swept.live_objects, 4);
        assert_eq!(swept.live_bytes, heap.stats().live_bytes);
        assert!(heap.is_live(keep));
        assert!(!heap.is_live(drop_me));
        // Roots' children survived.
        for c in heap.children(keep) {
            assert!(heap.is_live(c));
        }
    }

    #[test]
    #[should_panic(expected = "use of collected object")]
    fn dead_handle_panics() {
        let mut heap = Heap::new();
        let dead = heap.alloc(ObjKind::Int(9));
        heap.collect_garbage(std::iter::empty());
        let _ = heap.kind(dead);
    }

    #[test]
    fn stats_track_live_state() {
        let mut heap = Heap::new();
        let a = list_of_ints(&mut heap, &[1, 2]);
        let before = heap.stats();
        assert_eq!(before.live_objects, 3);
        heap.collect_garbage([a]);
        assert_eq!(heap.stats().live_objects, 3);
        heap.collect_garbage(std::iter::empty());
        assert_eq!(heap.stats().live_objects, 0);
        assert_eq!(heap.stats().total_allocated, 3);
        assert_eq!(heap.total_allocated(), 3);
    }

    #[test]
    fn deep_size_counts_shared_once() {
        let mut heap = Heap::new();
        let shared = heap.alloc(ObjKind::NdArray(vec![0.0; 100]));
        let l1 = heap.alloc(ObjKind::List(vec![shared]));
        let l2 = heap.alloc(ObjKind::List(vec![shared]));
        let both = heap.deep_size([l1, l2]);
        let one = heap.deep_size([l1]);
        assert!(both < 2 * one);
    }

    #[test]
    fn objects_on_pages_finds_overlapping() {
        let mut heap = Heap::new();
        let big = heap.alloc(ObjKind::NdArray(vec![0.0; 2048])); // ~16 KiB, several pages
        let pages = heap.live_pages();
        let objs = heap.objects_on_pages(&pages);
        assert!(objs.contains(&big));
    }

    /// Regression for the per-root quadratic `deep_size`: with N roots all
    /// reaching one big shared structure, the old per-root
    /// `reachable_from` loop traversed the structure N times; the joint
    /// traversal visits it once. The semantics check pins counted-once
    /// behavior exactly; the work bound separates O(roots + structure)
    /// from O(roots x structure) with a wide noise margin (the quadratic
    /// shape is ~512x slower, the bound allows 64x).
    #[test]
    fn deep_size_is_one_joint_traversal_over_shared_substructure() {
        let mut heap = Heap::new();
        let ints: Vec<ObjId> = (0..16_000).map(|i| heap.alloc(ObjKind::Int(i))).collect();
        let shared = heap.alloc(ObjKind::List(ints));
        let roots: Vec<ObjId> =
            (0..512).map(|_| heap.alloc(ObjKind::List(vec![shared]))).collect();
        let one = heap.deep_size([roots[0]]);
        let all = heap.deep_size(roots.iter().copied());
        let wrapper = heap.kind(roots[0]).shallow_size() as u64;
        assert_eq!(all, one + 511 * wrapper, "shared structure must count once");
        let t0 = std::time::Instant::now();
        let _ = heap.deep_size([roots[0]]);
        let t_one = t0.elapsed();
        let t1 = std::time::Instant::now();
        let _ = heap.deep_size(roots.iter().copied());
        let t_all = t1.elapsed();
        assert!(
            t_all < t_one * 64 + std::time::Duration::from_millis(50),
            "deep_size over 512 roots re-walked the shared structure per root: \
             one root {t_one:?}, all roots {t_all:?}"
        );
    }

    /// A sweep touches only the objects the heap holds: after a million
    /// ids died in an earlier sweep, sweeping a few hundred objects costs
    /// about what the same sweep costs on a fresh heap. A sweep that walked
    /// every id ever issued would be about 70x slower here (25 ms against
    /// 0.36 ms in a debug build on a 2-core x86-64 VM); the bound allows
    /// 16x plus 2 ms.
    #[test]
    fn sweep_cost_is_independent_of_dead_ids() {
        fn best_sweep(heap: &mut Heap, root: ObjId) -> std::time::Duration {
            (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    heap.collect_garbage([root]);
                    t.elapsed()
                })
                .min()
                .expect("five runs")
        }
        let mut aged = Heap::new();
        for i in 0..1_000_000 {
            aged.alloc(ObjKind::Int(i));
        }
        let swept = aged.collect_garbage(std::iter::empty());
        assert_eq!(swept.freed_objects, 1_000_000);
        let aged_root = list_of_ints(&mut aged, &(0..300).collect::<Vec<_>>());
        let mut fresh = Heap::new();
        let fresh_root = list_of_ints(&mut fresh, &(0..300).collect::<Vec<_>>());
        let t_fresh = best_sweep(&mut fresh, fresh_root);
        let t_aged = best_sweep(&mut aged, aged_root);
        assert_eq!(aged.stats().live_objects, 301);
        assert_eq!(aged.total_allocated(), 1_000_301);
        assert!(
            t_aged < t_fresh * 16 + std::time::Duration::from_millis(2),
            "sweep cost grew with dead ids: fresh {t_fresh:?}, aged {t_aged:?}"
        );
    }

    #[test]
    fn gc_pacing_fires_on_objects_then_scales_with_live() {
        let mut heap = Heap::new();
        let ints: Vec<ObjId> = (0..GC_MIN_OBJECTS as i64)
            .map(|i| heap.alloc(ObjKind::Int(i)))
            .collect();
        assert_eq!(heap.gc_due(), None, "the floor itself is not over it");
        let root = heap.alloc(ObjKind::List(ints));
        assert_eq!(heap.gc_due(), Some(GcBound::Objects));
        heap.collect_garbage([root]);
        assert_eq!(heap.gc_due(), None);
        // Live objects now exceed the floor, so the next sweep waits for
        // that many new objects.
        for i in 0..GC_MIN_OBJECTS as i64 + 1 {
            heap.alloc(ObjKind::Int(i));
        }
        assert_eq!(heap.gc_due(), None);
        heap.alloc(ObjKind::Int(0));
        assert_eq!(heap.gc_due(), Some(GcBound::Objects));
    }

    #[test]
    fn gc_pacing_counts_bytes_and_in_place_growth() {
        let mut heap = Heap::new();
        let big = heap.alloc(ObjKind::NdArray(vec![0.0; (GC_MIN_BYTES / 16) as usize]));
        assert_eq!(heap.gc_due(), None);
        heap.modify(big, |k| {
            if let ObjKind::NdArray(v) = k {
                v.extend(std::iter::repeat_n(1.0, v.len()));
            }
        });
        assert_eq!(heap.gc_due(), Some(GcBound::Bytes), "growth counts");
        heap.collect_garbage([big]);
        assert_eq!(heap.gc_due(), None);
    }

    /// First-principles oracle for the allocator's live-page set: the union
    /// of every live slot's extent pages. `alloc` marks, `free` unmarks,
    /// the growth path's incremental re-mark restores shared pages, and a
    /// sweep rebuilds the set from the survivors — so this equality is the
    /// invariant every path must preserve.
    pub(super) fn oracle_live_pages(heap: &Heap) -> Vec<u64> {
        let mut set = std::collections::BTreeSet::new();
        for s in &heap.slots {
            for p in s.extent.pages() {
                set.insert(p);
            }
        }
        set.into_iter().collect()
    }

    #[test]
    fn growth_remark_keeps_shared_pages_live() {
        let mut heap = Heap::new();
        // Small neighbors share the growing list's first page; growth must
        // not lose their liveness, and must drop pages nothing overlaps.
        let list = heap.alloc(ObjKind::List(Vec::new()));
        let neighbor = heap.alloc(ObjKind::Int(7));
        let elems: Vec<ObjId> = (0..256).map(|i| heap.alloc(ObjKind::Int(i))).collect();
        heap.modify(list, |k| {
            if let ObjKind::List(items) = k {
                items.extend(elems);
            }
        });
        assert_eq!(heap.live_pages(), oracle_live_pages(&heap));
        assert!(heap.objects_on_pages(&heap.live_pages()).contains(&neighbor));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use kishu_testkit::prelude::*;
    use std::collections::BTreeSet;

    /// Differential fuzz for page liveness and dirtiness: replay a tape of
    /// alloc / grow / touch / collect / clear-dirty operations and, after
    /// every step, require
    /// - the allocator's live-page set to equal the first-principles union
    ///   over live extents, and to be a fixed point of re-marking every
    ///   live extent (what a full rescan would compute);
    /// - `dirty_pages()` to equal that of a never-pruned reference: every
    ///   page the allocator ever held dirty since the last clear,
    ///   intersected with the live set. A sweep prunes dead pages from the
    ///   dirty set, which is invisible because addresses are never reused
    ///   and a page only becomes live again through an allocation, which
    ///   re-dirties it.
    fn replay_and_check(tape: &[u8]) -> Result<(), TestCaseError> {
        let mut heap = Heap::new();
        let mut objs: Vec<ObjId> = Vec::new();
        let mut never_pruned: BTreeSet<u64> = BTreeSet::new();
        for &b in tape {
            match b {
                0..=99 => {
                    objs.push(heap.alloc(ObjKind::Int(b as i64)));
                }
                100..=149 => {
                    let n = ((b as usize) % 8 + 1) * 600; // multi-page array
                    objs.push(heap.alloc(ObjKind::NdArray(vec![0.0; n])));
                }
                150..=209 => {
                    // Grow an array far enough to outgrow its extent and
                    // exercise the incremental re-mark.
                    if let Some(&id) = objs.get(b as usize % objs.len().max(1)) {
                        heap.modify(id, |k| {
                            if let ObjKind::NdArray(v) = k {
                                let extra = v.len().max(64);
                                v.extend(std::iter::repeat(1.0).take(extra));
                            }
                        });
                    }
                }
                210..=229 => {
                    // Collect with a pseudo-random subset of roots; the
                    // rebuilt live set must agree too.
                    let keep: Vec<ObjId> = objs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| (i + b as usize) % 3 != 0)
                        .map(|(_, &id)| id)
                        .collect();
                    heap.collect_garbage(keep.iter().copied());
                    objs.retain(|&id| heap.is_live(id));
                }
                230..=249 => {
                    // In-place mutation: dirties pages, no growth.
                    if let Some(&id) = objs.get(b as usize % objs.len().max(1)) {
                        heap.modify(id, |k| {
                            if let ObjKind::NdArray(v) = k {
                                if let Some(x) = v.first_mut() {
                                    *x += 1.0;
                                }
                            }
                        });
                    }
                }
                _ => {
                    // A CRIU-Incremental snapshot was taken.
                    heap.clear_dirty_pages();
                    never_pruned.clear();
                }
            }
            never_pruned.extend(heap.allocator.dirty_set().iter().copied());
            let got = heap.live_pages();
            let want = super::tests::oracle_live_pages(&heap);
            prop_assert_eq!(&got, &want, "live pages diverged from the union oracle");
            let live: BTreeSet<u64> = want.iter().copied().collect();
            let want_dirty: Vec<u64> = never_pruned.intersection(&live).copied().collect();
            prop_assert_eq!(
                heap.dirty_pages(),
                want_dirty,
                "pruned dirty pages diverged from the never-pruned reference"
            );
            let extents: Vec<Extent> = heap.slots.iter().map(|s| s.extent).collect();
            for e in extents {
                heap.allocator.mark_live(e);
            }
            prop_assert_eq!(
                heap.live_pages(),
                want,
                "live set is not a fixed point of re-marking every live extent"
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn page_liveness_matches_full_rescan_oracle(
            tape in prop::collection::vec(any::<u8>(), 1usize..120)
        ) {
            replay_and_check(&tape)?;
        }
    }
}
