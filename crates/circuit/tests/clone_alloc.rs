//! Allocation behaviour of cloning a circuit: built-in channels live
//! inline in the circuit's channel array, so a clone for a sweep worker
//! is one allocation and its drop one free, whatever the netlist size.
//!
//! Keep this file to a single test: the counting allocator is global
//! (so this is a separate binary from `cold_alloc.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ivl_circuit::{Circuit, CircuitBuilder, GateKind};
use ivl_core::channel::{
    AnyChannel, DdmEdgeParams, DegradationDelay, InertialDelay, InvolutionChannel, PureDelay,
};
use ivl_core::delay::{ExpChannel, RationalPair};
use ivl_core::Bit;

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);
static FREE_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREE_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The `k`-th channel of the chain, cycling through every built-in kind
/// that is stored inline.
fn channel(k: usize) -> AnyChannel {
    match k % 5 {
        0 => PureDelay::new(0.5).unwrap().into(),
        1 => InertialDelay::new(0.5, 0.1).unwrap().into(),
        2 => DegradationDelay::symmetric(DdmEdgeParams::new(0.6, 0.05, 0.3).unwrap()).into(),
        3 => InvolutionChannel::new(ExpChannel::new(0.4, 0.3, 0.5).unwrap()).into(),
        _ => InvolutionChannel::new(RationalPair::new(0.8, 0.2, 0.6).unwrap()).into(),
    }
}

/// `a → inv0 → … → inv{stages-1} → y` with a channel on every gate hop.
fn chain(stages: usize) -> Circuit {
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
            b.connect(prev, g, 0, channel(i)).unwrap();
        }
        prev = g;
    }
    b.connect(prev, y, 0, channel(stages)).unwrap();
    b.build().unwrap()
}

/// Allocation and free calls made by cloning `circuit` and dropping the
/// clone.
fn clone_and_drop_calls(circuit: &Circuit) -> (usize, usize) {
    let (allocs, frees) = (
        ALLOC_CALLS.load(Ordering::Relaxed),
        FREE_CALLS.load(Ordering::Relaxed),
    );
    let copy = circuit.clone();
    assert!(copy.shares_topology_with(circuit));
    drop(copy);
    (
        ALLOC_CALLS.load(Ordering::Relaxed) - allocs,
        FREE_CALLS.load(Ordering::Relaxed) - frees,
    )
}

#[test]
fn cloning_a_circuit_allocates_independently_of_its_size() {
    let small = clone_and_drop_calls(&chain(1_000));
    let large = clone_and_drop_calls(&chain(10_000));
    // a box per channel would add 9 000 allocations and 9 000 frees
    assert_eq!(
        small, large,
        "(allocations, frees) of a clone and drop: {small:?} at 1 000 stages, \
         {large:?} at 10 000"
    );
    assert_eq!(small, (1, 1), "one channel array, nothing per edge");
}
