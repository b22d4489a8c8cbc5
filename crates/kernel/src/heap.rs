//! The simulated object heap.
//!
//! All notebook state lives here. Objects are allocated into slots (slot
//! indices are never reused, so an [`ObjId`] stays unambiguous for a whole
//! session even across garbage collections) and are backed by extents in the
//! paged address space. Every in-place mutation goes through
//! [`Heap::modify`], which dirties the touched pages and advances the
//! heap-wide mutation clock — giving both the OS-level baselines (dirty
//! pages) and Kishu's delta detector (addresses, structure) something
//! faithful to observe.

use std::collections::HashSet;

use crate::object::{ObjId, ObjKind};
use crate::pages::{Extent, PageAllocator};

/// One live object: its kind plus bookkeeping.
#[derive(Debug)]
struct Slot {
    kind: ObjKind,
    extent: Extent,
    mutated_at: u64,
}

/// Aggregate heap statistics (drives Table 2-style workload summaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapStats {
    /// Number of live objects.
    pub live_objects: usize,
    /// Sum of live objects' shallow sizes in bytes.
    pub live_bytes: u64,
    /// Total objects ever allocated.
    pub total_allocated: u64,
}

/// The heap of a simulated notebook kernel process.
#[derive(Debug)]
pub struct Heap {
    slots: Vec<Option<Slot>>,
    allocator: PageAllocator,
    clock: u64,
    total_allocated: u64,
    next_token: u64,
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
            allocator: PageAllocator::new(),
            clock: 0,
            total_allocated: 0,
            next_token: 1,
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
        self.total_allocated += 1;
        let slot = Slot {
            kind,
            extent,
            mutated_at: self.clock,
        };
        self.slots.push(Some(slot));
        ObjId((self.slots.len() - 1) as u32)
    }

    /// Fresh token for generator identity.
    pub fn fresh_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    #[inline]
    fn slot(&self, id: ObjId) -> &Slot {
        self.slots[id.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("use of collected object {id}"))
    }

    /// Whether the handle refers to a live (non-collected) object.
    pub fn is_live(&self, id: ObjId) -> bool {
        self.slots
            .get(id.index())
            .map(|s| s.is_some())
            .unwrap_or(false)
    }

    /// Read an object's kind. Panics on a collected handle (a caller bug:
    /// the interpreter and Kishu only retain handles rooted in the
    /// namespace).
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
        let slot = self.slots[id.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("mutation of collected object {id}"));
        let out = f(&mut slot.kind);
        slot.mutated_at = clock;
        let needed = slot.kind.shallow_size() as u64;
        if needed > slot.extent.len {
            let old = slot.extent;
            // Double to amortize repeated growth, as CPython's list does.
            let new_ext = self.allocator.alloc(needed.saturating_mul(2));
            self.allocator.free(old);
            let slot = self.slots[id.index()].as_mut().expect("slot just accessed");
            slot.extent = new_ext;
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

    /// Mark-and-sweep garbage collection from the given roots. Returns the
    /// number of collected objects. Slot indices of collected objects are
    /// *not* reused, so stale `ObjId`s can never silently alias a new object.
    pub fn collect_garbage(&mut self, roots: impl IntoIterator<Item = ObjId>) -> usize {
        let mut live: HashSet<ObjId> = HashSet::new();
        let mut queue: Vec<ObjId> = Vec::new();
        for r in roots {
            if live.insert(r) {
                queue.push(r);
            }
        }
        while let Some(id) = queue.pop() {
            for child in self.children(id) {
                if live.insert(child) {
                    queue.push(child);
                }
            }
        }
        let mut collected = 0;
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if let Some(s) = slot {
                if !live.contains(&ObjId(idx as u32)) {
                    self.allocator.free(s.extent);
                    *slot = None;
                    collected += 1;
                }
            }
        }
        if collected > 0 {
            self.remark_live_pages();
        }
        collected
    }

    fn remark_live_pages(&mut self) {
        // Freeing extents may have dropped pages that other live extents
        // still overlap (small objects share pages); re-assert them. The
        // full rescan is the right tool after a GC sweep, where many
        // extents were freed all over the address space.
        let extents: Vec<Extent> = self
            .slots
            .iter()
            .flatten()
            .map(|s| s.extent)
            .collect();
        for e in extents {
            self.allocator.mark_live(e);
        }
    }

    fn remark_pages_overlapping(&mut self, freed: Extent) {
        // A single freed extent (the growth path in [`Self::modify`]) only
        // removed *its* pages from the live set; re-marking is bounded by
        // the extents overlapping those pages instead of re-inserting every
        // page of every live object on each growth.
        let extents: Vec<Extent> = self
            .slots
            .iter()
            .flatten()
            .map(|s| s.extent)
            .filter(|e| e.shares_pages_with(&freed))
            .collect();
        for e in extents {
            self.allocator.mark_live(e);
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
            .enumerate()
            .filter_map(|(idx, slot)| {
                let s = slot.as_ref()?;
                s.extent
                    .pages()
                    .any(|p| page_set.contains(&p))
                    .then_some(ObjId(idx as u32))
            })
            .collect()
    }

    /// Iterator over all live object handles.
    pub fn live_objects(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(idx, s)| s.as_ref().map(|_| ObjId(idx as u32)))
    }

    /// Total objects ever allocated, without [`Heap::stats`]'s walk over
    /// every slot.
    pub fn total_allocated(&self) -> u64 {
        self.total_allocated
    }

    /// Aggregate statistics. Walks every slot ever allocated; use
    /// [`Heap::total_allocated`] when that count is all you need.
    pub fn stats(&self) -> HeapStats {
        let mut live_objects = 0;
        let mut live_bytes = 0;
        for s in self.slots.iter().flatten() {
            live_objects += 1;
            live_bytes += s.kind.shallow_size() as u64;
        }
        HeapStats {
            live_objects,
            live_bytes,
            total_allocated: self.total_allocated,
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
        let collected = heap.collect_garbage([keep]);
        assert_eq!(collected, 4); // dropped list + its 3 ints
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

    /// First-principles oracle for the allocator's live-page set: the union
    /// of every live slot's extent pages. `alloc` marks, `free` unmarks,
    /// and the (incremental or full) re-mark restores shared pages — so
    /// this equality is the invariant both paths must preserve.
    pub(super) fn oracle_live_pages(heap: &Heap) -> Vec<u64> {
        let mut set = std::collections::BTreeSet::new();
        for s in heap.slots.iter().flatten() {
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

    /// Differential fuzz for the incremental growth re-mark: replay a tape
    /// of alloc / grow / touch / collect operations and, after every step,
    /// require the allocator's live-page set to equal the first-principles
    /// union over live extents (what the full rescan computes from
    /// scratch) *and* to be a fixed point of the full-rescan oracle.
    fn replay_and_check(tape: &[u8]) -> Result<(), TestCaseError> {
        let mut heap = Heap::new();
        let mut objs: Vec<ObjId> = Vec::new();
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
                    // full rescan after a sweep must agree too.
                    let keep: Vec<ObjId> = objs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| (i + b as usize) % 3 != 0)
                        .map(|(_, &id)| id)
                        .collect();
                    heap.collect_garbage(keep.iter().copied());
                    objs.retain(|&id| heap.is_live(id));
                }
                _ => {
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
            }
            let got = heap.live_pages();
            let want = super::tests::oracle_live_pages(&heap);
            prop_assert_eq!(&got, &want, "live pages diverged from the union oracle");
            heap.remark_live_pages();
            prop_assert_eq!(
                heap.live_pages(),
                want,
                "incremental re-mark is not a fixed point of the full rescan"
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
