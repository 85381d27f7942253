//! Slab-allocated indexed binary heaps and generational arenas for
//! discrete-event simulator hot paths.
//!
//! The global serving DES (`mtia-serving::global`) schedules millions of
//! timed events per replay: request completions, device wakes, hedge
//! timers. The original implementation kept them in `BTreeMap`/`BTreeSet`
//! keyed on `(SimTime, u64)`, which is correct but allocates a tree node
//! per event and chases pointers on every pop. [`EventQueue`] replaces
//! that with:
//!
//! - a **slab** of event slots reused through a free-list — steady-state
//!   simulation performs zero allocation;
//! - a **4-ary min-heap** of self-contained `(key, slot, gen)` entries,
//!   so sift comparisons never leave one contiguous array and siblings
//!   share a cache line — and, crucially, pops come out in exactly the
//!   `BTreeMap` iteration order: ascending `(time, seq)`;
//! - **lazy cancellation**: `cancel` is O(1) — it frees the slot and
//!   leaves the heap entry behind as a tombstone, discarded when it
//!   surfaces at the root — so revoked hedge timers and device wakes
//!   cost nothing until their time would have come anyway;
//! - **generational [`EventId`]s**, so a stale handle to a cancelled and
//!   since-reused slot is detected instead of silently cancelling an
//!   unrelated event.
//!
//! Determinism: the heap tie-breaks on the caller-supplied `seq`, never
//! on slot index or insertion order, so two runs that push the same
//! `(time, seq, payload)` multisets pop identical sequences regardless
//! of cancellation patterns or slab reuse. The property test in
//! `tests/event_queue_model.rs` checks this against a `BTreeMap`
//! reference model under random interleavings.
//!
//! [`Arena`] is the companion structure for per-request state: a
//! generational slab whose stable [`ArenaRef`]s replace `BTreeMap<u64, T>`
//! lookups with a bounds-checked vector index.
//!
//! Both structures are `Clone`, and a clone is a full checkpoint: it
//! pops the same sequence as the original, and every handle issued
//! before the clone resolves (or is stale) identically in both. The
//! sharded planetary driver restores cells from such clones when a
//! speculative window has to be rolled back.

use crate::units::SimTime;

/// A generational handle to an event in an [`EventQueue`].
///
/// Handles stay valid until the event is popped or cancelled; after the
/// slot is reused, the old handle's generation no longer matches and
/// [`EventQueue::cancel`] returns `None` instead of touching the new
/// occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

impl EventId {
    /// A handle that never matches any live event. Useful as an
    /// "unscheduled" sentinel in per-entity state.
    pub const NONE: EventId = EventId {
        slot: u32::MAX,
        gen: u32::MAX,
    };
}

#[derive(Clone)]
struct Slot<T> {
    /// Bumped whenever the slot is freed (pop, cancel, clear), so both
    /// stale [`EventId`]s and lazily-deleted heap entries are detected
    /// by a single generation compare.
    gen: u32,
    /// Key of the current occupant, for [`EventQueue::key_of`].
    key: (SimTime, u64),
    payload: Option<T>,
}

/// One heap entry: 32 bytes, two per cache line, fully self-contained.
/// Sift comparisons read only this array — the slab is never touched on
/// the heap's hot path.
#[derive(Clone, Copy)]
struct HeapEntry {
    /// Ascending key: time first, then the caller's sequence number.
    /// `seq` must be unique among live events for the pop order to be
    /// total (the serving DES uses a monotonic dispatch counter).
    key: (SimTime, u64),
    slot: u32,
    /// Slot generation at push time; the entry is dead (cancelled) once
    /// the slot's generation has moved on.
    gen: u32,
}

/// Heap arity. Four-way halves the depth of a binary heap and keeps all
/// siblings of a node within one cache line, which is the difference
/// between winning and losing to `BTreeMap` on pop-heavy churn at 10⁶
/// pending events (see `benches/event_queue.rs`).
const ARITY: usize = 4;

/// A 4-ary min-heap over slab-allocated timed events, with lazy
/// cancellation.
///
/// Pops ascend in `(time, seq)` order — byte-identical to iterating a
/// `BTreeMap<(SimTime, u64), T>` — with O(log n) `push`/`pop`, O(1)
/// `cancel` (the entry is tombstoned and skipped when it surfaces at
/// the root), and no per-event allocation after warm-up.
///
/// ```
/// use mtia_core::eventq::EventQueue;
/// use mtia_core::units::SimTime;
///
/// let mut q = EventQueue::new();
/// let a = q.push(SimTime::from_millis(5), 0, "late");
/// let b = q.push(SimTime::from_millis(1), 1, "early");
/// q.push(SimTime::from_millis(1), 2, "early-tie");
/// assert_eq!(q.cancel(a), Some("late"));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), 1, "early")));
/// assert_eq!(q.cancel(b), None); // already popped; stale handle
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), 2, "early-tie")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Clone)]
pub struct EventQueue<T> {
    slots: Vec<Slot<T>>,
    /// Min-heap of entries ordered by key. May contain dead entries for
    /// cancelled events; the root is always live (or the heap empty).
    heap: Vec<HeapEntry>,
    free: Vec<u32>,
    /// Live (non-cancelled) event count; `heap.len()` can exceed it.
    live: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            heap: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// An empty queue with room for `cap` pending events before the
    /// first reallocation.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            slots: Vec::with_capacity(cap),
            heap: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `payload` at `(time, seq)` and returns a handle usable
    /// with [`cancel`](Self::cancel). `seq` is the deterministic
    /// tie-break among same-time events; callers must keep it unique
    /// among live events.
    pub fn push(&mut self, time: SimTime, seq: u64, payload: T) -> EventId {
        let slot = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                sl.key = (time, seq);
                sl.payload = Some(payload);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("event slab over u32::MAX slots");
                self.slots.push(Slot {
                    gen: 0,
                    key: (time, seq),
                    payload: Some(payload),
                });
                s
            }
        };
        let gen = self.slots[slot as usize].gen;
        let pos = self.heap.len();
        self.heap.push(HeapEntry {
            key: (time, seq),
            slot,
            gen,
        });
        self.sift_up(pos);
        self.live += 1;
        EventId { slot, gen }
    }

    /// The earliest pending `(time, seq)` key, if any.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.first().map(|e| e.key)
    }

    /// Removes and returns the earliest event as `(time, seq, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        // The root is live by invariant (dead entries are purged as soon
        // as they surface), so this is the true minimum pending event.
        let &HeapEntry {
            key: (time, seq),
            slot,
            gen,
        } = self.heap.first()?;
        debug_assert_eq!(self.slots[slot as usize].gen, gen, "root must be live");
        self.discard_root();
        let sl = &mut self.slots[slot as usize];
        sl.gen = sl.gen.wrapping_add(1);
        let payload = sl.payload.take().expect("popped slot holds a payload");
        self.free.push(slot);
        self.live -= 1;
        self.purge_dead_roots();
        Some((time, seq, payload))
    }

    /// Cancels a pending event in O(1), returning its payload, or
    /// `None` if the handle is stale (the event already popped or was
    /// cancelled). The heap entry stays behind as a tombstone and is
    /// discarded when it reaches the root.
    pub fn cancel(&mut self, id: EventId) -> Option<T> {
        let sl = self.slots.get_mut(id.slot as usize)?;
        if sl.gen != id.gen {
            return None;
        }
        let payload = sl
            .payload
            .take()
            .expect("matching generation implies a live event");
        sl.gen = sl.gen.wrapping_add(1);
        self.free.push(id.slot);
        self.live -= 1;
        self.purge_dead_roots();
        Some(payload)
    }

    /// The `(time, seq)` key of a still-pending event, or `None` for a
    /// stale handle.
    pub fn key_of(&self, id: EventId) -> Option<(SimTime, u64)> {
        let sl = self.slots.get(id.slot as usize)?;
        if sl.gen != id.gen {
            return None;
        }
        Some(sl.key)
    }

    /// Drops all pending events; slab capacity is retained.
    pub fn clear(&mut self) {
        for (i, sl) in self.slots.iter_mut().enumerate() {
            if sl.payload.take().is_some() {
                sl.gen = sl.gen.wrapping_add(1);
                self.free.push(i as u32);
            }
        }
        self.heap.clear();
        self.live = 0;
    }

    #[inline]
    fn is_live(&self, e: &HeapEntry) -> bool {
        self.slots[e.slot as usize].gen == e.gen
    }

    /// Removes the root entry and restores the heap shape.
    fn discard_root(&mut self) {
        let last = self.heap.pop().expect("root exists");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
    }

    /// Restores the invariant that the root is live: tombstones from
    /// lazy cancellation are discarded as they surface. Amortized, each
    /// cancelled event is purged exactly once.
    fn purge_dead_roots(&mut self) {
        while let Some(&e) = self.heap.first() {
            if self.is_live(&e) {
                break;
            }
            self.discard_root();
        }
    }

    /// Moves `heap[pos]` toward the root until its parent is no larger.
    /// Hole-based: displaced parents are copied down and the entry is
    /// written once at its final position.
    fn sift_up(&mut self, mut pos: usize) {
        let e = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if e.key < self.heap[parent].key {
                self.heap[pos] = self.heap[parent];
                pos = parent;
            } else {
                break;
            }
        }
        self.heap[pos] = e;
    }

    /// Moves `heap[pos]` toward the leaves until no child is smaller.
    fn sift_down(&mut self, mut pos: usize) {
        let e = self.heap[pos];
        loop {
            let first = ARITY * pos + 1;
            if first >= self.heap.len() {
                break;
            }
            let end = (first + ARITY).min(self.heap.len());
            let mut smallest = first;
            for child in first + 1..end {
                if self.heap[child].key < self.heap[smallest].key {
                    smallest = child;
                }
            }
            if self.heap[smallest].key < e.key {
                self.heap[pos] = self.heap[smallest];
                pos = smallest;
            } else {
                break;
            }
        }
        self.heap[pos] = e;
    }
}

/// A generational handle into an [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArenaRef {
    slot: u32,
    gen: u32,
}

impl ArenaRef {
    /// A handle that never resolves. Useful as an "absent" sentinel.
    pub const NONE: ArenaRef = ArenaRef {
        slot: u32::MAX,
        gen: u32::MAX,
    };

    /// The raw slot index — stable for the lifetime of the entry and
    /// suitable as a dense side-table index.
    pub fn slot(&self) -> usize {
        self.slot as usize
    }
}

#[derive(Clone)]
struct ArenaSlot<T> {
    gen: u32,
    value: Option<T>,
}

/// A dense generational slab: `BTreeMap<u64, T>` lookups become
/// bounds-checked vector indexing, and freed slots are reused without
/// handing stale handles a new occupant's state.
///
/// ```
/// use mtia_core::eventq::Arena;
///
/// let mut arena = Arena::new();
/// let a = arena.insert("alpha");
/// assert_eq!(arena.get(a), Some(&"alpha"));
/// assert_eq!(arena.remove(a), Some("alpha"));
/// let b = arena.insert("beta"); // reuses the slot...
/// assert_eq!(a.slot(), b.slot());
/// assert_eq!(arena.get(a), None); // ...but the old handle stays dead
/// assert_eq!(arena.get(b), Some(&"beta"));
/// ```
#[derive(Clone)]
pub struct Arena<T> {
    slots: Vec<ArenaSlot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// An empty arena with room for `cap` live entries before the first
    /// reallocation.
    pub fn with_capacity(cap: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value`, returning its handle.
    pub fn insert(&mut self, value: T) -> ArenaRef {
        self.len += 1;
        match self.free.pop() {
            Some(slot) => {
                let sl = &mut self.slots[slot as usize];
                sl.value = Some(value);
                ArenaRef { slot, gen: sl.gen }
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("arena over u32::MAX slots");
                self.slots.push(ArenaSlot {
                    gen: 0,
                    value: Some(value),
                });
                ArenaRef { slot, gen: 0 }
            }
        }
    }

    /// The entry behind `r`, or `None` if it was removed (even if the
    /// slot has since been reused).
    pub fn get(&self, r: ArenaRef) -> Option<&T> {
        let sl = self.slots.get(r.slot as usize)?;
        if sl.gen != r.gen {
            return None;
        }
        sl.value.as_ref()
    }

    /// Mutable access to the entry behind `r`.
    pub fn get_mut(&mut self, r: ArenaRef) -> Option<&mut T> {
        let sl = self.slots.get_mut(r.slot as usize)?;
        if sl.gen != r.gen {
            return None;
        }
        sl.value.as_mut()
    }

    /// Removes and returns the entry behind `r`, retiring the slot for
    /// reuse. Stale handles return `None`.
    pub fn remove(&mut self, r: ArenaRef) -> Option<T> {
        let sl = self.slots.get_mut(r.slot as usize)?;
        if sl.gen != r.gen {
            return None;
        }
        let value = sl.value.take()?;
        sl.gen = sl.gen.wrapping_add(1);
        self.free.push(r.slot);
        self.len -= 1;
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn pops_ascend_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(3), 7, "c");
        q.push(SimTime::from_millis(1), 9, "a2");
        q.push(SimTime::from_millis(2), 5, "b");
        q.push(SimTime::from_millis(1), 4, "a1");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["a1", "a2", "b", "c"]);
    }

    #[test]
    fn cancel_removes_exactly_one_event_and_goes_stale() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10)
            .map(|i| q.push(SimTime::from_millis(10 - i), i, i))
            .collect();
        assert_eq!(q.cancel(ids[3]), Some(3));
        assert_eq!(q.cancel(ids[3]), None, "second cancel is stale");
        assert_eq!(q.len(), 9);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(popped, vec![9, 8, 7, 6, 5, 4, 2, 1, 0]);
    }

    #[test]
    fn slot_reuse_does_not_resurrect_old_handles() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_millis(1), 0, "old");
        assert_eq!(q.cancel(a), Some("old"));
        let b = q.push(SimTime::from_millis(2), 1, "new");
        // Slot is reused, but the stale handle must not cancel "new".
        assert_eq!(q.cancel(a), None);
        assert_eq!(q.key_of(b), Some((SimTime::from_millis(2), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), 1, "new")));
    }

    #[test]
    fn matches_btreemap_reference_on_a_fixed_interleaving() {
        // A deterministic LCG drives the same insert/cancel/pop script
        // against the queue and a BTreeMap reference model.
        let mut q = EventQueue::new();
        let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
        let mut handles: Vec<(EventId, (SimTime, u64))> = Vec::new();
        let mut rng = 0x9e3779b97f4a7c15u64;
        let step = |rng: &mut u64| {
            *rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *rng >> 33
        };
        for seq in 0..4000u64 {
            match step(&mut rng) % 4 {
                0 | 1 => {
                    let t = SimTime::from_nanos(step(&mut rng) % 64);
                    let id = q.push(t, seq, seq);
                    model.insert((t, seq), seq);
                    handles.push((id, (t, seq)));
                }
                2 if !handles.is_empty() => {
                    let i = (step(&mut rng) as usize) % handles.len();
                    let (id, key) = handles.swap_remove(i);
                    assert_eq!(q.cancel(id), model.remove(&key));
                }
                _ => {
                    let expect = model.pop_first().map(|((t, s), v)| (t, s, v));
                    assert_eq!(q.pop(), expect);
                    if let Some((_, s, _)) = expect {
                        handles.retain(|(_, (_, hs))| *hs != s);
                    }
                }
            }
            assert_eq!(q.len(), model.len());
        }
        while let Some(((t, s), v)) = model.pop_first() {
            assert_eq!(q.pop(), Some((t, s, v)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn clear_retires_all_slots() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..8)
            .map(|i| q.push(SimTime::from_millis(i), i, i))
            .collect();
        q.clear();
        assert!(q.is_empty());
        for id in ids {
            assert_eq!(q.cancel(id), None);
        }
        // Slab is reusable after clear.
        q.push(SimTime::ZERO, 0, 42);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0, 42)));
    }

    #[test]
    fn clone_pops_the_same_sequence_and_honours_old_handles() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..12u64)
            .map(|i| q.push(SimTime::from_millis(i % 5), i, i * 10))
            .collect();
        // Tombstones in the heap, a popped slot on the free list, and a
        // reused slot behind a stale handle.
        assert_eq!(q.cancel(ids[0]), Some(0));
        assert_eq!(q.cancel(ids[7]), Some(70));
        assert_eq!(q.pop(), Some((SimTime::ZERO, 5, 50)));
        let reused = q.push(SimTime::from_millis(2), 100, 1000);
        let mut copy = q.clone();
        assert_eq!(copy.len(), q.len());
        // A handle from before the clone cancels in both, and a stale
        // one is stale in both.
        assert_eq!(q.cancel(ids[3]), Some(30));
        assert_eq!(copy.cancel(ids[3]), Some(30));
        assert_eq!(q.cancel(ids[7]), None);
        assert_eq!(copy.cancel(ids[7]), None);
        assert_eq!(copy.key_of(reused), q.key_of(reused));
        let drain = |q: &mut EventQueue<u64>| std::iter::from_fn(|| q.pop()).collect::<Vec<_>>();
        let original = drain(&mut q);
        assert_eq!(original.len(), 9);
        assert_eq!(drain(&mut copy), original);
    }

    #[test]
    fn arena_clone_resolves_handles_like_the_original() {
        let mut a = Arena::new();
        let r1 = a.insert("one");
        let r2 = a.insert("two");
        assert_eq!(a.remove(r1), Some("one"));
        let r3 = a.insert("three");
        let mut copy = a.clone();
        for arena in [&mut a, &mut copy] {
            assert_eq!(arena.len(), 2);
            assert_eq!(arena.get(r1), None);
            assert_eq!(arena.get(r3), Some(&"three"));
            assert_eq!(arena.remove(r2), Some("two"));
            assert_eq!(arena.remove(r2), None);
            // Both allocate the freed slot next, at the same generation.
            let r4 = arena.insert("four");
            assert_eq!(r4.slot(), r2.slot());
            assert_eq!(arena.get(r2), None);
        }
        assert_eq!(a.insert("five"), copy.insert("five"));
    }

    #[test]
    fn arena_reuses_slots_generationally() {
        let mut a = Arena::new();
        let r1 = a.insert(1u32);
        let r2 = a.insert(2u32);
        assert_eq!(a.len(), 2);
        assert_eq!(a.remove(r1), Some(1));
        assert_eq!(a.remove(r1), None);
        let r3 = a.insert(3u32);
        assert_eq!(r3.slot(), r1.slot());
        assert_eq!(a.get(r1), None);
        assert_eq!(a.get(r3), Some(&3));
        *a.get_mut(r2).unwrap() = 20;
        assert_eq!(a.remove(r2), Some(20));
        assert_eq!(a.len(), 1);
    }
}
