//! Allocation guard: the co-design setup path allocates only what it
//! keeps.
//!
//! A counting global allocator tallies the allocations made on the
//! calling thread. Building the Fig. 6 zoo builds no graph, and compiling
//! a zoo model makes an exact, pinned number of allocations. The counts
//! are exact, so this gate does not depend on the host. Debug builds also
//! run `Graph::validate` after every pass, which allocates, so each count
//! is pinned per build profile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mtia_compiler::{compile, CompilerOptions};
use mtia_model::models::zoo;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor
// registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_of<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

/// `(release, debug)` allocation counts.
fn pinned((release, debug): (u64, u64)) -> u64 {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

/// The nine model descriptions: the list, and per model its two names
/// and its layer-width vectors (three for a DLRM, two for a DHEN). No
/// graph is built.
const FIG6_MODELS: (u64, u64) = (33, 33);

/// `compile(HC3, all())`, 134 nodes: the one copy of the input graph the
/// optimized graph is made from, the pass analyses, the rewritten nodes'
/// names and ops, the schedule and the plan. Debug adds one validation
/// per pass.
const COMPILE_HC3: (u64, u64) = (1013, 1018);

/// `compile(LC1, all())`, 15 nodes.
const COMPILE_LC1: (u64, u64) = (172, 177);

#[test]
fn the_zoo_builds_no_graph() {
    let n = allocations_of(zoo::fig6_models);
    assert_eq!(n, pinned(FIG6_MODELS), "fig6_models: {n} allocations");
}

#[test]
fn compiling_a_zoo_model_makes_a_pinned_number_of_allocations() {
    let models = zoo::fig6_models();
    for (name, pin) in [("HC3", COMPILE_HC3), ("LC1", COMPILE_LC1)] {
        let graph = models.iter().find(|m| m.name == name).unwrap().graph();
        let n = allocations_of(|| compile(&graph, CompilerOptions::all()));
        assert_eq!(
            n,
            pinned(pin),
            "{name} ({} nodes): {n} allocations",
            graph.nodes().len()
        );
    }
}
