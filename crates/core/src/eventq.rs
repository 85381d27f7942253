//! Slab-allocated event queues and generational arenas for
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
//! - a **sorted run** of `(key, slot, gen)` entries: a push whose key is
//!   strictly greater than the run's tail is appended to it in O(1).
//!   Simulator events are mostly `now + constant delay` (a completion is
//!   `now + service_time`, a retry timer `now + attempt_timeout`) with a
//!   monotone `seq`, so nearly every push lands here and never sifts —
//!   the observation behind calendar queues (Brown, CACM 1988);
//! - a **4-ary min-heap** of the same self-contained entries for every
//!   other push, so sift comparisons never leave one contiguous array
//!   and siblings share a cache line;
//! - **lazy cancellation**: `cancel` is O(1) — it frees the slot and
//!   leaves the run or heap entry behind as a tombstone, discarded when
//!   it surfaces at the front of its source — so revoked hedge timers
//!   and device wakes cost nothing until their time would have come
//!   anyway;
//! - **generational [`EventId`]s**, so a stale handle to a cancelled and
//!   since-reused slot is detected instead of silently cancelling an
//!   unrelated event.
//!
//! Exactness: the run and the heap are each sorted by `(time, seq)`, every
//! live event sits in exactly one of them, and both fronts are kept live,
//! so the smaller of the two fronts is the minimum pending event. Keys
//! are unique among live events, so the two fronts never tie, and pops
//! come out in exactly the `BTreeMap` iteration order — whichever source
//! an event was pushed into.
//!
//! Determinism: both sources order on the caller-supplied `seq`, never
//! on slot index or insertion order, so two runs that push the same
//! `(time, seq, payload)` multisets pop identical sequences regardless
//! of cancellation patterns or slab reuse. The property tests in
//! `tests/event_queue_model.rs` check this against a `BTreeMap`
//! reference model under random interleavings and under the
//! constant-delay push pattern that fills the run.
//!
//! [`Arena`] is the companion structure for per-request state: a
//! generational slab whose stable [`ArenaRef`]s replace `BTreeMap<u64, T>`
//! lookups with a bounds-checked vector index. Its values and
//! generations live in parallel vectors, and bare-slot accessors serve
//! callers that prove an entry's liveness themselves.
//!
//! Both structures are `Clone`, and a clone is a full checkpoint: it
//! pops the same sequence as the original, and every handle issued
//! before the clone resolves (or is stale) identically in both. The
//! sharded planetary driver restores cells from such clones when a
//! speculative window has to be rolled back.

use std::collections::VecDeque;

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

/// One run or heap entry: 32 bytes, two per cache line, fully
/// self-contained. Front and sift comparisons read only these arrays —
/// the slab is never touched on the hot path.
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

/// A priority queue over slab-allocated timed events: a sorted run for
/// in-order pushes beside a 4-ary min-heap for the rest, with lazy
/// cancellation.
///
/// A push whose key is strictly greater than the run's tail is appended
/// to the run in O(1); any other push sifts into the heap in O(log n).
/// `pop` takes the smaller of the run's front and the heap's root. Both
/// sources are sorted and their fronts are live, so pops ascend in
/// `(time, seq)` order — byte-identical to iterating a
/// `BTreeMap<(SimTime, u64), T>` — whichever source an event went to.
/// `cancel` is O(1) (the entry is tombstoned and skipped when it reaches
/// the front of its source), and there is no per-event allocation after
/// warm-up.
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
    /// Entries pushed in strictly ascending key order, so the run is
    /// sorted. May contain dead entries for cancelled events; the front
    /// is always live (or the run empty).
    run: VecDeque<HeapEntry>,
    /// Min-heap of the entries that did not extend the run. May contain
    /// dead entries; the root is always live (or the heap empty).
    heap: Vec<HeapEntry>,
    free: Vec<u32>,
    /// Live (non-cancelled) event count; `run.len() + heap.len()` can
    /// exceed it.
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
            run: VecDeque::new(),
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
            run: VecDeque::with_capacity(cap),
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
    /// among live events. O(1) when `(time, seq)` is greater than the
    /// run's tail — always the case for pushes in ascending key order —
    /// and O(log n) otherwise.
    ///
    /// Always inlined, with slab growth and the heap sift out of line:
    /// a payload passed to or returned from a call goes through a stack
    /// copy written field by field and read back whole, which stalls
    /// store-to-load forwarding on every event. [`pop`](Self::pop) is
    /// inlined for the same reason.
    #[inline(always)]
    pub fn push(&mut self, time: SimTime, seq: u64, payload: T) -> EventId {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => self.new_slot(),
        };
        let sl = &mut self.slots[slot as usize];
        sl.key = (time, seq);
        sl.payload = Some(payload);
        let entry = HeapEntry {
            key: (time, seq),
            slot,
            gen: sl.gen,
        };
        if self.run.back().is_none_or(|tail| entry.key > tail.key) {
            self.run.push_back(entry);
        } else {
            self.push_heap(entry);
        }
        self.live += 1;
        EventId {
            slot,
            gen: entry.gen,
        }
    }

    /// Appends an empty slot to the slab (warm-up only) and returns its
    /// index.
    #[cold]
    fn new_slot(&mut self) -> u32 {
        let s = u32::try_from(self.slots.len()).expect("event slab over u32::MAX slots");
        self.slots.push(Slot {
            gen: 0,
            key: (SimTime::ZERO, 0),
            payload: None,
        });
        s
    }

    /// Sifts an entry that does not extend the run into the heap.
    fn push_heap(&mut self, entry: HeapEntry) {
        let pos = self.heap.len();
        self.heap.push(entry);
        self.sift_up(pos);
    }

    /// The earliest pending `(time, seq)` key, if any.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        match (self.run.front(), self.heap.first()) {
            (Some(r), Some(h)) => Some(r.key.min(h.key)),
            (r, h) => r.or(h).map(|e| e.key),
        }
    }

    /// Removes and returns the earliest event as `(time, seq, payload)`.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        // Both fronts are live by invariant (dead entries are purged as
        // soon as they surface) and both sources are sorted, so the
        // smaller front is the true minimum pending event. Freeing its
        // slot cannot kill the other front, so only the popped source
        // needs purging afterwards.
        let from_run = match (self.run.front(), self.heap.first()) {
            (Some(r), Some(h)) => r.key < h.key,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let HeapEntry {
            key: (time, seq),
            slot,
            gen,
        } = if from_run {
            self.run.pop_front().expect("run front exists")
        } else {
            let root = self.heap[0];
            self.discard_root();
            root
        };
        debug_assert_eq!(self.slots[slot as usize].gen, gen, "front must be live");
        let sl = &mut self.slots[slot as usize];
        sl.gen = sl.gen.wrapping_add(1);
        let payload = sl.payload.take().expect("popped slot holds a payload");
        self.free.push(slot);
        self.live -= 1;
        if from_run {
            self.purge_dead_run_front();
        } else {
            self.purge_dead_roots();
        }
        Some((time, seq, payload))
    }

    /// Cancels a pending event in O(1), returning its payload, or
    /// `None` if the handle is stale (the event already popped or was
    /// cancelled). The entry stays behind as a tombstone and is discarded
    /// when it reaches the front of the run or the root of the heap.
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
        self.purge_dead_run_front();
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
        self.run.clear();
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

    /// Restores the invariant that the run's front is live.
    fn purge_dead_run_front(&mut self) {
        while let Some(e) = self.run.front() {
            if self.is_live(e) {
                break;
            }
            self.run.pop_front();
        }
    }

    /// Restores the invariant that the heap's root is live: tombstones from
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

/// A dense generational slab: `BTreeMap<u64, T>` lookups become
/// bounds-checked vector indexing, and freed slots are reused without
/// handing stale handles a new occupant's state.
///
/// Values and generations sit in two parallel vectors, so a slot costs
/// [`Arena::SLOT_BYTES`]: `Option<T>` (no bigger than `T` when `T` has
/// a niche, as a struct with a `bool` does) plus a 4-byte generation,
/// instead of one struct padded to the value's alignment.
///
/// The `*_slot` accessors take a bare slot index and check only that
/// the slot is occupied, not by whom. They are for a caller that holds
/// some other proof that the occupant is still the entry it means — a
/// reference count it keeps inside the entry, say — and wants to store
/// 4 bytes per reference instead of an 8-byte [`ArenaRef`]. Anything
/// that can outlive its entry keeps the full handle.
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
/// assert_eq!(arena.get_slot(a.slot()), Some(&"beta")); // a bare slot reaches the new occupant
/// ```
#[derive(Clone)]
pub struct Arena<T> {
    values: Vec<Option<T>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// Bytes one slot takes: its value and its generation.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Option<T>>() + std::mem::size_of::<u32>();

    /// An empty arena.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty arena with room for `cap` live entries before the first
    /// reallocation.
    pub fn with_capacity(cap: usize) -> Self {
        Arena {
            values: Vec::with_capacity(cap),
            gens: Vec::with_capacity(cap),
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

    /// Slots allocated so far, live or free: the arena's entries take
    /// `slots() * SLOT_BYTES` bytes.
    pub fn slots(&self) -> usize {
        self.values.len()
    }

    /// The live entries, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.values.iter().flatten()
    }

    /// Inserts `value`, returning its handle.
    pub fn insert(&mut self, value: T) -> ArenaRef {
        self.len += 1;
        match self.free.pop() {
            Some(slot) => {
                self.values[slot as usize] = Some(value);
                ArenaRef {
                    slot,
                    gen: self.gens[slot as usize],
                }
            }
            None => {
                let slot = u32::try_from(self.values.len()).expect("arena over u32::MAX slots");
                self.values.push(Some(value));
                self.gens.push(0);
                ArenaRef { slot, gen: 0 }
            }
        }
    }

    /// Whether `r` is the live handle of its slot.
    fn is_current(&self, r: ArenaRef) -> bool {
        self.gens.get(r.slot as usize) == Some(&r.gen)
    }

    /// The entry behind `r`, or `None` if it was removed (even if the
    /// slot has since been reused).
    pub fn get(&self, r: ArenaRef) -> Option<&T> {
        if !self.is_current(r) {
            return None;
        }
        self.get_slot(r.slot())
    }

    /// Mutable access to the entry behind `r`.
    pub fn get_mut(&mut self, r: ArenaRef) -> Option<&mut T> {
        if !self.is_current(r) {
            return None;
        }
        self.get_slot_mut(r.slot())
    }

    /// Removes and returns the entry behind `r`, retiring the slot for
    /// reuse. Stale handles return `None`.
    pub fn remove(&mut self, r: ArenaRef) -> Option<T> {
        if !self.is_current(r) {
            return None;
        }
        self.remove_slot(r.slot())
    }

    /// The handle of whatever occupies `slot` now, or `None` if the slot
    /// is free or out of range.
    pub fn handle(&self, slot: usize) -> Option<ArenaRef> {
        self.get_slot(slot)?;
        Some(ArenaRef {
            slot: slot as u32,
            gen: self.gens[slot],
        })
    }

    /// The entry occupying `slot`, whichever entry that is; `None` if
    /// the slot is free or out of range.
    pub fn get_slot(&self, slot: usize) -> Option<&T> {
        self.values.get(slot)?.as_ref()
    }

    /// Mutable access to the entry occupying `slot`.
    pub fn get_slot_mut(&mut self, slot: usize) -> Option<&mut T> {
        self.values.get_mut(slot)?.as_mut()
    }

    /// Removes and returns the entry occupying `slot`, retiring the slot
    /// for reuse; `None` if the slot is free or out of range.
    pub fn remove_slot(&mut self, slot: usize) -> Option<T> {
        let value = self.values.get_mut(slot)?.take()?;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot as u32);
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
    fn ascending_pushes_stay_in_the_run_and_never_touch_the_heap() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            // Constant-delay pattern: later times, and equal times with a
            // larger seq, both extend the run.
            q.push(SimTime::from_micros(i / 2), i, i);
        }
        assert_eq!(q.run.len(), 100);
        assert!(q.heap.is_empty(), "in-order pushes must not sift");
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn equal_time_push_with_a_lower_seq_pops_before_the_run_tail() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(4);
        q.push(SimTime::from_millis(1), 10, "head");
        q.push(t, 20, "tail");
        // Same instant, smaller seq: the logical-id keyed retry/hedge
        // pattern. It cannot extend the run, so it goes to the heap.
        q.push(t, 15, "logical");
        assert_eq!((q.run.len(), q.heap.len()), (2, 1));
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 10, "head")));
        assert_eq!(q.peek_key(), Some((t, 15)));
        assert_eq!(q.pop(), Some((t, 15, "logical")));
        assert_eq!(q.pop(), Some((t, 20, "tail")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancelling_the_run_front_keeps_peek_at_the_true_minimum() {
        let mut q = EventQueue::new();
        let front = q.push(SimTime::from_millis(1), 0, 0);
        q.push(SimTime::from_millis(5), 1, 1);
        q.push(SimTime::from_millis(9), 2, 2);
        // Out of order: lands in the heap, between the run's entries.
        q.push(SimTime::from_millis(3), 3, 3);
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.peek_key(), Some((SimTime::from_millis(1), 0)));
        assert_eq!(q.cancel(front), Some(0));
        assert_eq!(q.peek_key(), Some((SimTime::from_millis(3), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(3), 3, 3)));
        assert_eq!(q.peek_key(), Some((SimTime::from_millis(5), 1)));
    }

    #[test]
    fn clear_empties_both_sources() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(2), 0, 0);
        q.push(SimTime::from_millis(4), 1, 1);
        q.push(SimTime::from_millis(1), 2, 2);
        assert!(!q.run.is_empty() && !q.heap.is_empty());
        q.clear();
        assert!(q.run.is_empty() && q.heap.is_empty());
        assert_eq!(q.peek_key(), None);
        assert_eq!(q.pop(), None);
        // An early push after clear starts a fresh run.
        q.push(SimTime::ZERO, 3, 3);
        assert_eq!(q.run.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 3, 3)));
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
    fn arena_slot_accessors_see_nothing_in_a_free_slot() {
        let mut a = Arena::new();
        let r = a.insert(7u32);
        assert_eq!(a.handle(r.slot()), Some(r));
        assert_eq!(a.remove_slot(r.slot()), Some(7));
        // Freed, and past the end: both read as empty.
        for slot in [r.slot(), r.slot() + 1] {
            assert_eq!(a.get_slot(slot), None);
            assert_eq!(a.get_slot_mut(slot), None);
            assert_eq!(a.handle(slot), None);
            assert_eq!(a.remove_slot(slot), None);
        }
        assert!(a.is_empty());
        // Removing by slot retires the generation like `remove` does.
        assert_eq!(a.get(r), None);
    }

    #[test]
    fn arena_slot_reused_under_a_stale_timer_handle() {
        // A timer keeps the full handle of an entry whose slot is freed
        // and reused before it fires: the handle stays dead, while the
        // bare slot reaches the new occupant.
        let mut a = Arena::new();
        let timer = a.insert("first");
        assert_eq!(a.remove(timer), Some("first"));
        let next = a.insert("second");
        assert_eq!(next.slot(), timer.slot());
        assert_eq!(a.get(timer), None);
        assert_eq!(a.get_mut(timer), None);
        assert_eq!(a.remove(timer), None);
        assert_eq!(a.handle(timer.slot()), Some(next));
        assert_ne!(a.handle(timer.slot()), Some(timer));
        assert_eq!(a.get_slot(timer.slot()), Some(&"second"));
        *a.get_slot_mut(next.slot()).unwrap() = "third";
        assert_eq!(a.get(next), Some(&"third"));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn arena_slot_costs_its_value_and_a_generation() {
        // `Option<(u64, bool)>` borrows the bool's niche.
        assert_eq!(Arena::<(u64, bool)>::SLOT_BYTES, 16 + 4);
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
