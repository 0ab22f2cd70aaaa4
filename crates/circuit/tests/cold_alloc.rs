//! Allocation behaviour of a *cold* run: the first run of a fresh
//! simulator must not allocate per active edge. Each edge's pending
//! events are a chain through the event pool and each channel keeps its
//! retained outputs inline, so a longer netlist costs a few larger
//! buffers, not more of them.
//!
//! Keep this file to a single test: the counting allocator is global
//! (and `alloc_reuse.rs` has its own, so this is a separate binary).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ivl_circuit::{Circuit, CircuitBuilder, GateKind, Simulator};
use ivl_core::channel::PureDelay;
use ivl_core::{Bit, Signal};

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `a → inv0 → … → inv{stages-1} → y`, pure delay between gates.
fn inverter_chain(stages: usize) -> Circuit {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let y = b.output("y");
    let mut prev = a;
    for i in 0..stages {
        let init = if i % 2 == 0 { Bit::One } else { Bit::Zero };
        let g = b.gate(&format!("inv{i}"), GateKind::Not, init);
        if i == 0 {
            b.connect_direct(prev, g, 0).unwrap();
        } else {
            b.connect(prev, g, 0, PureDelay::new(0.01).unwrap())
                .unwrap();
        }
        prev = g;
    }
    b.connect(prev, y, 0, PureDelay::new(0.01).unwrap())
        .unwrap();
    b.build().unwrap()
}

/// Allocation calls made by the first run of a fresh simulator over a
/// `stages`-stage chain, watching only `y`.
fn cold_run_allocs(stages: usize) -> usize {
    let mut sim = Simulator::new(inverter_chain(stages));
    sim.set_watch(["y"]).unwrap();
    let input = Signal::pulse_train((0..20).map(|k| (k as f64 * 40.0, 20.0))).unwrap();
    sim.set_input("a", input).unwrap();
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let run = sim.run(1e9).unwrap();
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert!(
        run.processed_events() >= 20 * stages,
        "every stage must see the pulse train"
    );
    calls
}

#[test]
fn a_cold_run_allocates_independently_of_the_netlist_size() {
    let small = cold_run_allocs(256);
    let large = cold_run_allocs(1024);
    // every one of the 768 extra edges becomes active; one buffer per
    // active edge would add at least 768 calls, a growing buffer only
    // a handful of reallocations
    assert!(
        small.abs_diff(large) < 64,
        "cold-run allocations grow with the netlist: {small} calls at 256 stages, \
         {large} at 1024"
    );
}
