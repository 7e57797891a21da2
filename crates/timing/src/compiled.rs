//! A netlist compiled once into flat structure-of-arrays tables.
//!
//! [`ArrivalSim`](crate::ArrivalSim) walks the gate `Vec` of a
//! [`Netlist`] on every pair. The DTA kernel instead runs over dense
//! tables: [`CompiledNetlist`] holds per-gate opcodes, a fixed-stride
//! pin table, the delays and each net's static arrival bound, and
//! [`DynProgram`](crate::DynProgram) builds the table kernel's program
//! from it (see [`codegen`](crate::codegen)). The per-pair test oracle
//! of that kernel is `ArrivalSim` on the same netlist.

use tei_netlist::{GateKind, NetId, Netlist};

/// A netlist lowered to structure-of-arrays form for the table kernel:
/// per-gate opcodes, a fixed-stride pin table, a flat delay array and
/// the static arrival bound of every net.
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    n: usize,
    /// `GateKind as u8` per gate (the table program's opcodes).
    kinds: Vec<u8>,
    /// Three pin slots per gate (stride 3); slots beyond the gate's
    /// arity repeat the first pin (ignored by the gate's lane op,
    /// identity under the settle `max` fold). Primary inputs pin to
    /// themselves.
    pins: Vec<u32>,
    delays: Vec<f64>,
    /// Static worst-case arrival bound per net (the [`Sta`] recurrence
    /// over the compiled delay table): `max(pin bounds) + delay`, with
    /// inputs and constants at 0. Dynamic settle times never exceed it
    /// (enforced under `sanitize-arrivals`), which is what lets the
    /// campaign path prune provably-safe output bits.
    ///
    /// [`Sta`]: crate::Sta
    bounds: Vec<f64>,
    /// Primary input nets in declaration order.
    inputs: Vec<u32>,
}

impl CompiledNetlist {
    /// Lower `nl` (gates already in topological order) into flat tables.
    pub fn compile(nl: &Netlist) -> Self {
        let n = nl.len();
        let gates = nl.gates();

        let mut kinds = Vec::with_capacity(n);
        let mut pins = vec![0u32; n * 3];
        let mut delays = Vec::with_capacity(n);
        let mut bounds = vec![0.0f64; n];

        for (i, g) in gates.iter().enumerate() {
            kinds.push(g.kind as u8);
            // Inputs flip at t = 0 and constants never flip, so their
            // settle contribution is exactly zero; forcing the delay
            // lets every propagation path treat them uniformly.
            delays.push(match g.kind {
                GateKind::Input | GateKind::Const0 | GateKind::Const1 => 0.0,
                _ => g.delay,
            });
            let fanin = g.fanin();
            // Inputs self-pin (the plane pass reads them as buffers);
            // gates replicate their first pin into unused slots.
            let pad = match fanin.first() {
                Some(p) => p.index() as u32,
                None if g.kind == GateKind::Input => i as u32,
                None => 0,
            };
            for slot in 0..3 {
                pins[i * 3 + slot] = match fanin.get(slot) {
                    Some(pin) => {
                        let j = pin.index();
                        debug_assert!(j < i, "netlist must be topologically ordered");
                        j as u32
                    }
                    None => pad,
                };
            }
            // Static arrival bound: the Sta recurrence over the compiled
            // delay table (inputs and constants pinned to 0 above).
            let worst = fanin
                .iter()
                .map(|p| bounds[p.index()])
                .fold(0.0f64, f64::max);
            bounds[i] = worst + delays[i];
        }

        let inputs = nl.inputs().iter().map(|net| net.index() as u32).collect();

        CompiledNetlist {
            n,
            kinds,
            pins,
            delays,
            bounds,
            inputs,
        }
    }

    /// Static worst-case arrival bound of `net` at the nominal corner
    /// (see the `bounds` field). No dynamic settle time of `net` ever
    /// exceeds this.
    #[inline]
    pub fn static_bound(&self, net: NetId) -> f64 {
        self.bounds[net.index()]
    }

    /// All static arrival bounds, indexed by net.
    pub fn static_bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Number of nets (== gates) in the compiled design.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for an empty design.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// FNV-1a structural fingerprint over everything the table kernel
    /// evaluates: gate count, opcodes, pin table, exact delay bits, and
    /// the primary-input order. Two compiled netlists with equal
    /// fingerprints produce identical kernel results for identical input
    /// streams, which is what lets a saved surrogate model prove it was
    /// fitted on *this* netlist.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        };
        for b in (self.n as u64).to_le_bytes() {
            eat(b);
        }
        for &k in &self.kinds {
            eat(k);
        }
        for p in &self.pins {
            for b in p.to_le_bytes() {
                eat(b);
            }
        }
        for d in &self.delays {
            for b in d.to_bits().to_le_bytes() {
                eat(b);
            }
        }
        for i in &self.inputs {
            for b in i.to_le_bytes() {
                eat(b);
            }
        }
        h
    }

    /// Per-gate opcodes (`GateKind as u8`), for [`DynProgram`](crate::DynProgram).
    pub(crate) fn kinds(&self) -> &[u8] {
        &self.kinds
    }

    /// The padded stride-3 pin table, for [`DynProgram`](crate::DynProgram).
    pub(crate) fn pins(&self) -> &[u32] {
        &self.pins
    }

    /// The compiled per-gate delays, for [`DynProgram`](crate::DynProgram).
    pub(crate) fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// Primary input nets in declaration order, for
    /// [`DynProgram`](crate::DynProgram).
    pub(crate) fn input_nets(&self) -> &[u32] {
        &self.inputs
    }
}
