//! The netlist DAG: gates, ports, blocks, and functional evaluation.

use crate::gate::{Gate, GateKind};
use crate::library::CellLibrary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a net (and of the single gate driving it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Index into the netlist's gate array.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The net at gate-array index `i` — inverse of [`NetId::index`].
    /// Nets are densely numbered in creation (= topological) order, so
    /// sweeping `0..netlist.len()` visits every net exactly once.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NetId(u32::try_from(i).expect("net index fits in u32"))
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a functional block / pipeline stage tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub(crate) u16);

impl BlockId {
    /// The default block every netlist starts with.
    pub const TOP: BlockId = BlockId(0);

    /// Index into the netlist's block-name table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A gate-level combinational netlist.
///
/// See the [crate-level documentation](crate) for the construction model and
/// an end-to-end example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    library: CellLibrary,
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    input_ports: Vec<(String, Vec<NetId>)>,
    output_ports: Vec<(String, Vec<NetId>)>,
    blocks: Vec<String>,
    current_block: BlockId,
    const0: Option<NetId>,
    const1: Option<NetId>,
}

impl Netlist {
    /// Create an empty netlist using `library` for gate delays.
    pub fn new(name: impl Into<String>, library: CellLibrary) -> Self {
        Netlist {
            name: name.into(),
            library,
            gates: Vec::new(),
            inputs: Vec::new(),
            input_ports: Vec::new(),
            output_ports: Vec::new(),
            blocks: vec!["top".to_string()],
            current_block: BlockId::TOP,
            const0: None,
            const1: None,
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gates (including primary inputs and constants).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True if the netlist has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// All gates in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The gate driving `net`.
    #[inline]
    pub fn gate(&self, net: NetId) -> &Gate {
        &self.gates[net.index()]
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Named output buses in declaration order (LSB-first bit order).
    pub fn output_ports(&self) -> &[(String, Vec<NetId>)] {
        &self.output_ports
    }

    /// Look up an input bus by name.
    pub fn input_port(&self, name: &str) -> Option<&[NetId]> {
        self.input_ports
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Look up an output bus by name.
    pub fn output_port(&self, name: &str) -> Option<&[NetId]> {
        self.output_ports
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// All nets marked as outputs, flattened in port order.
    pub fn output_nets(&self) -> Vec<NetId> {
        self.output_ports
            .iter()
            .flat_map(|(_, b)| b.iter().copied())
            .collect()
    }

    // ------------------------------------------------------------------
    // Blocks
    // ------------------------------------------------------------------

    /// Register (or look up) a block tag and make it current: gates created
    /// afterwards are attributed to it. Returns the block id.
    pub fn begin_block(&mut self, name: &str) -> BlockId {
        let id = self.intern_block(name);
        self.current_block = id;
        id
    }

    /// Register a block name without switching to it.
    pub fn intern_block(&mut self, name: &str) -> BlockId {
        if let Some(pos) = self.blocks.iter().position(|b| b == name) {
            return BlockId(pos as u16);
        }
        assert!(self.blocks.len() < u16::MAX as usize, "too many blocks");
        self.blocks.push(name.to_string());
        BlockId((self.blocks.len() - 1) as u16)
    }

    /// All registered block names, indexed by [`BlockId::index`].
    pub fn block_names(&self) -> &[String] {
        &self.blocks
    }

    /// Multiply the delay of every gate in `block` by `factor`.
    ///
    /// This is the calibration hook used by `tei-fpu` to pin each datapath's
    /// static critical delay to its published post-P&R value.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale_block_delays(&mut self, block: BlockId, factor: f64) {
        assert!(factor.is_finite() && factor >= 0.0, "invalid factor");
        for g in &mut self.gates {
            if g.block == block {
                g.delay *= factor;
            }
        }
    }

    /// Multiply the delay of every gate by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale_all_delays(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor >= 0.0, "invalid factor");
        for g in &mut self.gates {
            g.delay *= factor;
        }
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Add a gate of `kind` fed by `pins`. Returns the net it drives.
    ///
    /// # Panics
    ///
    /// Panics if the pin count differs from the kind's arity or any pin
    /// refers to a not-yet-created net (which would break the topological
    /// construction invariant).
    pub fn add_gate(&mut self, kind: GateKind, pins: &[NetId]) -> NetId {
        assert_eq!(
            pins.len(),
            kind.arity(),
            "{kind:?} expects {} pins, got {}",
            kind.arity(),
            pins.len()
        );
        let id = NetId(u32::try_from(self.gates.len()).expect("netlist too large"));
        let mut fixed = [NetId(0); 3];
        for (i, &p) in pins.iter().enumerate() {
            assert!(p.0 < id.0, "pin {p} references a future net (gate {id})");
            fixed[i] = p;
        }
        self.gates.push(Gate {
            kind,
            pins: fixed,
            delay: self.library.delay(kind),
            block: self.current_block,
        });
        id
    }

    /// Add one anonymous primary input bit.
    pub fn add_input_bit(&mut self) -> NetId {
        let id = self.add_gate(GateKind::Input, &[]);
        self.inputs.push(id);
        id
    }

    /// Add a named input bus of `width` bits (LSB first). Returns the bus.
    ///
    /// # Panics
    ///
    /// Panics if a port with the same name already exists or `width` is 0.
    pub fn add_input_bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        assert!(width > 0, "zero-width bus {name}");
        assert!(
            self.input_port(name).is_none(),
            "duplicate input port {name}"
        );
        let bus: Vec<NetId> = (0..width).map(|_| self.add_input_bit()).collect();
        self.input_ports.push((name.to_string(), bus.clone()));
        bus
    }

    /// Declare `bits` (LSB first) as the named output bus.
    ///
    /// # Panics
    ///
    /// Panics if a port with the same name already exists or `bits` is empty.
    pub fn mark_output_bus(&mut self, name: &str, bits: &[NetId]) {
        assert!(!bits.is_empty(), "empty output bus {name}");
        assert!(
            self.output_port(name).is_none(),
            "duplicate output port {name}"
        );
        self.output_ports.push((name.to_string(), bits.to_vec()));
    }

    /// The (cached) constant-0 or constant-1 net.
    pub fn const_bit(&mut self, value: bool) -> NetId {
        if value {
            if let Some(id) = self.const1 {
                return id;
            }
            let id = self.add_gate(GateKind::Const1, &[]);
            self.const1 = Some(id);
            id
        } else {
            if let Some(id) = self.const0 {
                return id;
            }
            let id = self.add_gate(GateKind::Const0, &[]);
            self.const0 = Some(id);
            id
        }
    }

    /// A bus of constant bits encoding `value` (LSB first).
    pub fn const_bus(&mut self, value: u64, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| self.const_bit((value >> i) & 1 == 1))
            .collect()
    }

    /// A copy of this netlist with every logic gate outside the output
    /// cone removed and nets renumbered densely.
    ///
    /// Primary inputs are always kept (input encoding is positional, so
    /// dropping an unused input bit would shift every caller's vectors);
    /// constants survive only if something in the cone reads them. The
    /// surviving gates keep their delays, block attribution, and
    /// relative (topological) order, and every port is remapped, so any
    /// static or dynamic timing analysis of the output ports is
    /// unchanged — only dead logic disappears. This mirrors the
    /// dead-cell sweep a synthesis flow performs before handoff.
    #[must_use]
    pub fn sweep_dead(&self) -> Netlist {
        let n = self.gates.len();
        let mut live = vec![false; n];
        for (_, bus) in &self.output_ports {
            for b in bus {
                live[b.index()] = true;
            }
        }
        // Pins only reference earlier nets, so one reverse pass closes
        // the cone.
        for i in (0..n).rev() {
            if live[i] {
                for p in self.gates[i].fanin() {
                    live[p.index()] = true;
                }
            }
        }
        for inp in &self.inputs {
            live[inp.index()] = true;
        }
        let mut remap = vec![NetId(0); n];
        let mut gates = Vec::with_capacity(live.iter().filter(|&&l| l).count());
        for (i, g) in self.gates.iter().enumerate() {
            if !live[i] {
                continue;
            }
            let mut ng = *g;
            // Remap all three pin slots; slots beyond the arity are
            // padding whose value is never observed, and the default
            // remap target (net 0) keeps them in bounds.
            for p in &mut ng.pins {
                *p = remap[p.index()];
            }
            remap[i] = NetId(gates.len() as u32);
            gates.push(ng);
        }
        let map_bus =
            |bus: &[NetId]| -> Vec<NetId> { bus.iter().map(|b| remap[b.index()]).collect() };
        let map_const =
            |c: Option<NetId>| c.filter(|id| live[id.index()]).map(|id| remap[id.index()]);
        Netlist {
            name: self.name.clone(),
            library: self.library.clone(),
            inputs: map_bus(&self.inputs),
            input_ports: self
                .input_ports
                .iter()
                .map(|(n, b)| (n.clone(), map_bus(b)))
                .collect(),
            output_ports: self
                .output_ports
                .iter()
                .map(|(n, b)| (n.clone(), map_bus(b)))
                .collect(),
            blocks: self.blocks.clone(),
            current_block: self.current_block,
            const0: map_const(self.const0),
            const1: map_const(self.const1),
            gates,
        }
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    /// Functionally evaluate the netlist given values for every primary
    /// input (in [`Netlist::inputs`] order). Returns per-net values.
    ///
    /// # Panics
    ///
    /// Panics if `input_values.len()` differs from the input count.
    pub fn eval(&self, input_values: &[bool]) -> Vec<bool> {
        assert_eq!(
            input_values.len(),
            self.inputs.len(),
            "expected {} input bits, got {}",
            self.inputs.len(),
            input_values.len()
        );
        let mut values = vec![false; self.gates.len()];
        let mut next_input = 0;
        for (i, g) in self.gates.iter().enumerate() {
            values[i] = match g.kind {
                GateKind::Input => {
                    let v = input_values[next_input];
                    next_input += 1;
                    v
                }
                kind => {
                    let a = g.pins[0].index();
                    let b = g.pins[1].index();
                    let c = g.pins[2].index();
                    kind.eval(values[a], values[b], values[c])
                }
            };
        }
        values
    }

    /// Evaluate with named bus values (≤ 64 bits each) and return named
    /// output bus values.
    ///
    /// # Panics
    ///
    /// Panics if a named port is missing, a value overflows its bus, or any
    /// declared input port is left unset.
    pub fn eval_u64(&self, port_values: &[(&str, u64)]) -> BTreeMap<String, u64> {
        let mut input_values = vec![None; self.inputs.len()];
        let index_of: BTreeMap<NetId, usize> = self
            .inputs
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i))
            .collect();
        for &(name, value) in port_values {
            let bus = self
                .input_port(name)
                .unwrap_or_else(|| panic!("no input port {name}"));
            if bus.len() < 64 {
                assert!(
                    value < (1u64 << bus.len()),
                    "value {value:#x} overflows {}-bit port {name}",
                    bus.len()
                );
            }
            for (i, &net) in bus.iter().enumerate() {
                input_values[index_of[&net]] = Some((value >> i) & 1 == 1);
            }
        }
        let resolved: Vec<bool> = input_values
            .into_iter()
            .map(|v| v.expect("unset input bit; pass every declared input port"))
            .collect();
        let values = self.eval(&resolved);
        self.output_ports
            .iter()
            .map(|(name, bus)| (name.clone(), bus_value_u64(&values, bus)))
            .collect()
    }
}

/// Read a bus (≤ 64 bits) out of a per-net value vector.
///
/// # Panics
///
/// Panics if the bus is wider than 64 bits.
pub fn bus_value_u64(values: &[bool], bus: &[NetId]) -> u64 {
    assert!(bus.len() <= 64, "bus too wide for u64");
    bus.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &n)| acc | ((values[n.index()] as u64) << i))
}

/// Read a bus (≤ 128 bits) out of a per-net value vector.
///
/// # Panics
///
/// Panics if the bus is wider than 128 bits.
pub fn bus_value_u128(values: &[bool], bus: &[NetId]) -> u128 {
    assert!(bus.len() <= 128, "bus too wide for u128");
    bus.iter().enumerate().fold(0u128, |acc, (i, &n)| {
        acc | ((values[n.index()] as u128) << i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topological_invariant_enforced() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        let b = nl.add_gate(GateKind::Not, &[a]);
        assert_eq!(b.index(), 1);
    }

    #[test]
    #[should_panic(expected = "future net")]
    fn forward_reference_panics() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        // Fabricate a reference to a net that does not exist yet.
        nl.add_gate(GateKind::And2, &[a, NetId(7)]);
    }

    #[test]
    fn constants_are_cached() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let z1 = nl.const_bit(false);
        let z2 = nl.const_bit(false);
        let o1 = nl.const_bit(true);
        assert_eq!(z1, z2);
        assert_ne!(z1, o1);
    }

    #[test]
    fn eval_simple_logic() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bus("a", 1)[0];
        let b = nl.add_input_bus("b", 1)[0];
        let x = nl.add_gate(GateKind::Xor2, &[a, b]);
        nl.mark_output_bus("x", &[x]);
        for (av, bv) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let out = nl.eval_u64(&[("a", av), ("b", bv)]);
            assert_eq!(out["x"], av ^ bv);
        }
    }

    #[test]
    fn block_scaling_only_touches_that_block() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bit();
        let fast = nl.begin_block("fast");
        let g1 = nl.add_gate(GateKind::Not, &[a]);
        nl.begin_block("slow");
        let g2 = nl.add_gate(GateKind::Not, &[a]);
        nl.scale_block_delays(fast, 0.5);
        assert!((nl.gate(g1).delay - 0.5).abs() < 1e-12);
        assert!((nl.gate(g2).delay - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_dead_preserves_outputs_and_inputs() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bus("a", 2);
        let b = nl.add_input_bus("b", 2);
        let x = nl.add_gate(GateKind::Xor2, &[a[0], b[0]]);
        // Dead cone: computed, never marked as output.
        let d1 = nl.add_gate(GateKind::And2, &[a[1], b[1]]);
        let _d2 = nl.add_gate(GateKind::Not, &[d1]);
        let y = nl.add_gate(GateKind::Or2, &[x, a[1]]);
        nl.mark_output_bus("y", &[y]);
        let swept = nl.sweep_dead();
        assert_eq!(swept.len(), nl.len() - 2, "two dead gates removed");
        assert_eq!(swept.inputs().len(), 4, "unused inputs survive");
        for (av, bv) in [(0u64, 0u64), (1, 3), (2, 1), (3, 3)] {
            assert_eq!(
                nl.eval_u64(&[("a", av), ("b", bv)]),
                swept.eval_u64(&[("a", av), ("b", bv)]),
            );
        }
        // Delays and block names survive the renumbering.
        let oy = swept.output_port("y").expect("port")[0];
        assert_eq!(swept.gate(oy).kind, GateKind::Or2);
        assert_eq!(swept.gate(oy).delay, nl.gate(y).delay);
        assert_eq!(swept.block_names(), nl.block_names());
        // Sweeping an already-clean netlist is the identity on size.
        assert_eq!(swept.sweep_dead().len(), swept.len());
    }

    #[test]
    #[should_panic(expected = "duplicate input port")]
    fn duplicate_port_rejected() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        nl.add_input_bus("a", 2);
        nl.add_input_bus("a", 2);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn eval_overflow_rejected() {
        let mut nl = Netlist::new("t", CellLibrary::unit());
        let a = nl.add_input_bus("a", 2);
        nl.mark_output_bus("o", &a);
        nl.eval_u64(&[("a", 4)]);
    }
}
