//! Allocation guard: a `ChipSim` run and a GPU baseline run allocate per
//! run, not per node.
//!
//! A counting global allocator tallies the allocations made on the
//! calling thread. After a warm-up run of each model (which fills the
//! Zipf hit-rate memo for its embedding cache), runs of two zoo models
//! with different node counts must make exactly the same number of
//! allocations, and no more than a small fixed bound. The count is exact,
//! so this gate does not depend on the host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mtia_core::spec::chips;
use mtia_model::graph::Graph;
use mtia_model::models::zoo;
use mtia_sim::{ChipSim, GpuSim, LaunchMode, Plan};

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

/// LC1 and HC3: two zoo models with different node counts.
fn two_models() -> [Graph; 2] {
    let mut models = zoo::fig6_models();
    let graphs = [models.remove(7).graph(), models.remove(0).graph()];
    assert_ne!(graphs[0].nodes().len(), graphs[1].nodes().len());
    graphs
}

/// A chip run allocates the report's node list and model name plus the
/// liveness sweep's four per-run tables.
const CHIP_RUN_ALLOCATIONS: u64 = 6;

/// A GPU run allocates the report's node list and model name.
const GPU_RUN_ALLOCATIONS: u64 = 2;

#[test]
fn a_chip_run_allocates_per_run_not_per_node() {
    let sim = ChipSim::new(chips::mtia2i());
    for graph in two_models() {
        let eager = Plan::default_for(&graph);
        let mut compiled = Plan::optimized_for(&graph);
        compiled.launch_mode = LaunchMode::Graph;
        let _ = sim.run(&graph, &compiled); // warm-up: fills the Zipf memo
        for plan in [&eager, &compiled] {
            let n = allocations_of(|| sim.run(&graph, plan));
            assert_eq!(
                n,
                CHIP_RUN_ALLOCATIONS,
                "{} ({} nodes, {:?}): {n} allocations",
                graph.name(),
                graph.nodes().len(),
                plan.launch_mode
            );
        }
    }
}

#[test]
fn a_gpu_run_allocates_per_run_not_per_node() {
    let gpu = GpuSim::new(chips::gpu_baseline());
    for graph in two_models() {
        let _ = gpu.run(&graph);
        let n = allocations_of(|| gpu.run(&graph));
        assert_eq!(
            n,
            GPU_RUN_ALLOCATIONS,
            "{} ({} nodes): {n} allocations",
            graph.name(),
            graph.nodes().len()
        );
    }
}
