//! Parametric netlist generators for scale experiments.
//!
//! Hand-written netlists top out at a few dozen gates; the million-gate
//! tier needs topology *families* parameterized by size. Each generator
//! here builds a well-formed [`Circuit`] (gates and channels alternate,
//! every pin driven) with exactly one input port `"a"` and one output
//! port `"y"`, so the same scenarios drive every family:
//!
//! * [`inverter_chain`] — the paper's workhorse: `stages` inverters in
//!   series. Depth scales, width stays 1.
//! * [`grid`] — a `width × height` 2-D lattice where every interior
//!   cell NANDs its left and upper neighbours. Both depth **and**
//!   fanout scale: each cell feeds up to two successors, so event
//!   wavefronts widen as they propagate.
//! * [`random_dag`] — a seeded random DAG: each gate draws 1–2
//!   predecessors uniformly from the gates before it. Irregular fanout
//!   and depth exercise queue backends that topological regularity
//!   would flatter.
//! * [`fat_tree`] — a binary reduction tree of depth `depth`: wide at
//!   the leaves, single root. The extreme fanout-then-fan-in shape.
//!
//! Channels come from a caller-supplied factory closure (one call per
//! edge) returning anything that converts into an [`AnyChannel`], so
//! generators stay agnostic of the channel algebra: pass
//! `|| PureDelay::new(1.0).unwrap()` or a closure cloning a
//! registry-built prototype. Built-in channels are stored inline in the
//! circuit.
//!
//! Gate initial values are computed by forward propagation assuming the
//! input port starts at [`Bit::Zero`], so a scenario whose input signal
//! has initial value `Zero` starts quiescent: the first event is the
//! input's first transition, not an initialization avalanche.

use crate::error::CircuitError;
use crate::gate::GateKind;
use crate::graph::{Circuit, CircuitBuilder, NodeId};
use ivl_core::channel::AnyChannel;
use ivl_core::Bit;

/// `stages` inverters in series between input `"a"` and output `"y"`.
///
/// Gates are named `inv0..inv{stages-1}`; the input connects directly
/// (zero delay) to `inv0`, every other connection goes through a
/// factory-built channel. Initial values alternate starting from
/// `One` (`Not` of the quiescent `Zero` input).
///
/// # Errors
///
/// Propagates [`CircuitError`] from circuit construction (`stages` of 0
/// leaves the output port undriven only through the direct wire rule;
/// a zero-stage chain degenerates to `a → y` through one channel).
pub fn inverter_chain<C: Into<AnyChannel>>(
    stages: u32,
    mut channel: impl FnMut() -> C,
) -> Result<Circuit, CircuitError> {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let y = b.output("y");
    let mut prev = a;
    for i in 0..stages {
        let init = if i % 2 == 0 { Bit::One } else { Bit::Zero };
        let g = b.gate(&format!("inv{i}"), GateKind::Not, init);
        if i == 0 {
            b.connect_direct(prev, g, 0)?;
        } else {
            b.connect(prev, g, 0, channel())?;
        }
        prev = g;
    }
    b.connect(prev, y, 0, channel())?;
    b.build()
}

/// A `width × height` lattice of gates between `"a"` and `"y"`.
///
/// Cell `(x, y)` is named `g{x}_{y}`. The origin `g0_0` is a `Not`
/// driven directly by the input; cells on the top row or left column
/// have one predecessor (a `Not` on the neighbour toward the origin);
/// interior cells are 2-input `Nand`s of their left (`pin 0`) and upper
/// (`pin 1`) neighbours. All lattice edges are factory-built channels.
/// The output port hangs off the far corner `g{width-1}_{height-1}`.
///
/// Total gate count is exactly `width * height` — `grid(1000, 1000,
/// ..)` is the million-gate tier.
///
/// # Errors
///
/// Returns [`CircuitError`] from construction; a zero `width` or
/// `height` produces an undriven output port
/// ([`CircuitError::UnconnectedPin`]).
pub fn grid<C: Into<AnyChannel>>(
    width: u32,
    height: u32,
    mut channel: impl FnMut() -> C,
) -> Result<Circuit, CircuitError> {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let y = b.output("y");
    if width == 0 || height == 0 {
        // fall through to build() so the caller gets the canonical
        // UnconnectedPin diagnosis for the dangling output port
        return b.build();
    }
    let w = width as usize;
    let mut ids: Vec<NodeId> = Vec::with_capacity(w * height as usize);
    let mut inits: Vec<Bit> = Vec::with_capacity(w * height as usize);
    for gy in 0..height {
        for gx in 0..width {
            let name = format!("g{gx}_{gy}");
            let left = gx.checked_sub(1).map(|px| (gy as usize) * w + px as usize);
            let up = gy.checked_sub(1).map(|py| (py as usize) * w + gx as usize);
            let (kind, init) = match (left, up) {
                (None, None) => (GateKind::Not, GateKind::Not.eval(&[Bit::Zero])),
                (Some(p), None) | (None, Some(p)) => {
                    (GateKind::Not, GateKind::Not.eval(&[inits[p]]))
                }
                (Some(l), Some(u)) => (GateKind::Nand, GateKind::Nand.eval(&[inits[l], inits[u]])),
            };
            let g = b.gate(&name, kind.clone(), init);
            match (left, up) {
                (None, None) => {
                    b.connect_direct(a, g, 0)?;
                }
                (Some(p), None) | (None, Some(p)) => {
                    b.connect(ids[p], g, 0, channel())?;
                }
                (Some(l), Some(u)) => {
                    b.connect(ids[l], g, 0, channel())?;
                    b.connect(ids[u], g, 1, channel())?;
                }
            }
            ids.push(g);
            inits.push(init);
        }
    }
    let corner = ids[ids.len() - 1];
    b.connect(corner, y, 0, channel())?;
    b.build()
}

/// A seeded random DAG of `nodes` gates between `"a"` and `"y"`.
///
/// Gate `n{i}` draws its predecessors uniformly from `n0..n{i-1}` using
/// a `SplitMix64` stream over `seed`: one predecessor (a `Not`) or two
/// (a `Nand`), with equal probability once two candidates exist. `n0`
/// is a `Not` driven directly by the input; the output port hangs off
/// the last gate. The same `(nodes, seed)` pair reproduces the same
/// netlist bit for bit on every platform.
///
/// # Errors
///
/// Returns [`CircuitError`] from construction; `nodes` of 0 produces an
/// undriven output port ([`CircuitError::UnconnectedPin`]).
pub fn random_dag<C: Into<AnyChannel>>(
    nodes: u32,
    seed: u64,
    mut channel: impl FnMut() -> C,
) -> Result<Circuit, CircuitError> {
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let y = b.output("y");
    if nodes == 0 {
        return b.build();
    }
    let mut rng = SplitMix64::new(seed);
    let mut ids: Vec<NodeId> = Vec::with_capacity(nodes as usize);
    let mut inits: Vec<Bit> = Vec::with_capacity(nodes as usize);
    for i in 0..nodes {
        let name = format!("n{i}");
        if i == 0 {
            let init = GateKind::Not.eval(&[Bit::Zero]);
            let g = b.gate(&name, GateKind::Not, init);
            b.connect_direct(a, g, 0)?;
            ids.push(g);
            inits.push(init);
            continue;
        }
        let two = i >= 2 && rng.next() & 1 == 1;
        if two {
            let l = (rng.next() % u64::from(i)) as usize;
            let u = (rng.next() % u64::from(i)) as usize;
            let init = GateKind::Nand.eval(&[inits[l], inits[u]]);
            let g = b.gate(&name, GateKind::Nand, init);
            b.connect(ids[l], g, 0, channel())?;
            b.connect(ids[u], g, 1, channel())?;
            ids.push(g);
            inits.push(init);
        } else {
            let p = (rng.next() % u64::from(i)) as usize;
            let init = GateKind::Not.eval(&[inits[p]]);
            let g = b.gate(&name, GateKind::Not, init);
            b.connect(ids[p], g, 0, channel())?;
            ids.push(g);
            inits.push(init);
        }
    }
    let last = ids[ids.len() - 1];
    b.connect(last, y, 0, channel())?;
    b.build()
}

/// A binary reduction tree of depth `depth` between `"a"` and `"y"`.
///
/// Level 0 holds `2^depth` `Not` leaves named `t0_0..`, each driven
/// directly by the input port (the input fans out); level `l > 0` holds
/// `2^(depth-l)` `Nand`s named `t{l}_{i}`, each fed through channels by
/// its two children `t{l-1}_{2i}` (`pin 0`) and `t{l-1}_{2i+1}`
/// (`pin 1`). The single root at level `depth` drives the output port.
/// Total gate count is `2^(depth+1) - 1`.
///
/// # Errors
///
/// Returns [`CircuitError`] from construction.
///
/// # Panics
///
/// Panics if `depth > 24` (≈ 33 M gates — beyond that a fat tree is
/// never what you want; use [`grid`]. The lint layer rejects such
/// specs earlier).
pub fn fat_tree<C: Into<AnyChannel>>(
    depth: u32,
    mut channel: impl FnMut() -> C,
) -> Result<Circuit, CircuitError> {
    assert!(
        depth <= 24,
        "fat_tree depth {depth} exceeds the 2^24-leaf cap"
    );
    let mut b = CircuitBuilder::new();
    let a = b.input("a");
    let y = b.output("y");
    let leaves = 1usize << depth;
    let mut level_ids: Vec<NodeId> = Vec::with_capacity(leaves);
    let mut level_inits: Vec<Bit> = Vec::with_capacity(leaves);
    for i in 0..leaves {
        let init = GateKind::Not.eval(&[Bit::Zero]);
        let g = b.gate(&format!("t0_{i}"), GateKind::Not, init);
        b.connect_direct(a, g, 0)?;
        level_ids.push(g);
        level_inits.push(init);
    }
    for l in 1..=depth {
        let count = 1usize << (depth - l);
        let mut next_ids = Vec::with_capacity(count);
        let mut next_inits = Vec::with_capacity(count);
        for i in 0..count {
            let (cl, cr) = (2 * i, 2 * i + 1);
            let init = GateKind::Nand.eval(&[level_inits[cl], level_inits[cr]]);
            let g = b.gate(&format!("t{l}_{i}"), GateKind::Nand, init);
            b.connect(level_ids[cl], g, 0, channel())?;
            b.connect(level_ids[cr], g, 1, channel())?;
            next_ids.push(g);
            next_inits.push(init);
        }
        level_ids = next_ids;
        level_inits = next_inits;
    }
    b.connect(level_ids[0], y, 0, channel())?;
    b.build()
}

/// Sebastiano Vigna's `SplitMix64` — tiny, seedable, and identical on
/// every platform, which is all a reproducible netlist needs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use ivl_core::channel::PureDelay;
    use ivl_core::Signal;

    fn delay() -> PureDelay {
        PureDelay::new(1.0).unwrap()
    }

    #[test]
    fn chain_matches_hand_built() {
        let c = inverter_chain(3, delay).unwrap();
        assert_eq!(c.node_count(), 5); // a, y, inv0..inv2
        assert_eq!(c.edge_count(), 4);
        let mut sim = Simulator::new(c);
        sim.set_input("a", Signal::pulse(0.0, 2.0).unwrap())
            .unwrap();
        let run = sim.run(20.0).unwrap();
        // odd stage count inverts: initial One, pulse comes through
        let out = run.signal("y").unwrap();
        assert_eq!(out.initial(), Bit::One);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn grid_counts_and_runs() {
        let c = grid(4, 3, delay).unwrap();
        assert_eq!(c.node_count(), 2 + 12);
        // edges: 1 direct + (per cell with parents) + 1 to output
        // top row: 3 single-parent, left col: 2 single-parent,
        // interior: 6 cells * 2 = 12 → 1 + 3 + 2 + 12 + 1 = 19
        assert_eq!(c.edge_count(), 19);
        assert!(c.node("g3_2").is_some());
        let mut sim = Simulator::new(c);
        sim.set_input("a", Signal::pulse(0.0, 5.0).unwrap())
            .unwrap();
        let run = sim.run(100.0).unwrap();
        assert!(run.processed_events() > 0);
    }

    #[test]
    fn grid_zero_size_is_unconnected_output() {
        match grid(0, 5, delay) {
            Err(CircuitError::UnconnectedPin { node, .. }) => assert_eq!(node, "y"),
            other => panic!("expected UnconnectedPin, got {other:?}"),
        }
    }

    #[test]
    fn random_dag_is_reproducible() {
        let c1 = random_dag(50, 7, delay).unwrap();
        let c2 = random_dag(50, 7, delay).unwrap();
        assert_eq!(c1.node_count(), c2.node_count());
        assert_eq!(c1.edge_count(), c2.edge_count());
        for i in 0..c1.edge_count() {
            let e1 = c1.edge_endpoints(crate::graph::EdgeId(i as u32));
            let e2 = c2.edge_endpoints(crate::graph::EdgeId(i as u32));
            assert_eq!(e1, e2);
        }
        let c3 = random_dag(50, 8, delay).unwrap();
        let differs = (0..c1.edge_count().min(c3.edge_count())).any(|i| {
            c1.edge_endpoints(crate::graph::EdgeId(i as u32))
                != c3.edge_endpoints(crate::graph::EdgeId(i as u32))
        });
        assert!(differs || c1.edge_count() != c3.edge_count());
    }

    #[test]
    fn random_dag_runs() {
        let c = random_dag(64, 42, delay).unwrap();
        let mut sim = Simulator::new(c);
        sim.set_input("a", Signal::pulse(0.0, 3.0).unwrap())
            .unwrap();
        let run = sim.run(200.0).unwrap();
        assert!(run.processed_events() > 0);
    }

    #[test]
    fn fat_tree_counts_and_runs() {
        let c = fat_tree(3, delay).unwrap();
        assert_eq!(c.node_count(), 2 + (1 << 4) - 1); // 15 gates
        let mut sim = Simulator::new(c);
        sim.set_input("a", Signal::pulse(0.0, 4.0).unwrap())
            .unwrap();
        let run = sim.run(100.0).unwrap();
        assert!(run.processed_events() > 0);
        assert!(run.signal("y").is_ok());
    }

    #[test]
    fn quiescent_start_schedules_no_gate_events_on_chain() {
        // initial values are consistent with a Zero input, so a run whose
        // input never changes processes zero transitions
        let c = inverter_chain(10, delay).unwrap();
        let mut sim = Simulator::new(c);
        sim.set_input("a", Signal::constant(Bit::Zero)).unwrap();
        let run = sim.run(50.0).unwrap();
        assert_eq!(run.processed_events(), 0);
        assert_eq!(run.signal("y").unwrap().len(), 0);
    }
}
