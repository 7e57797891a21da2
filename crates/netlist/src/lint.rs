//! Structural lint over a built [`Netlist`].
//!
//! Construction already rules out combinational loops, floating nets and
//! multiple drivers: a gate may reference only nets that exist, and each
//! gate drives exactly its own net. [`lint_netlist`] checks what
//! construction cannot.

use crate::gate::{Gate, GateKind};
use crate::netlist::{NetId, Netlist};

/// The category of a structural lint finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintKind {
    /// A logic gate whose output cannot reach any output port.
    UnreachableGate,
    /// A logic gate whose library delay is zero (timing analysis would
    /// treat it as free).
    MissingDelay,
}

impl std::fmt::Display for LintKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LintKind::UnreachableGate => "unreachable-gate",
            LintKind::MissingDelay => "missing-delay",
        };
        f.write_str(s)
    }
}

/// One structural lint finding: its category and the net of the gate it
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LintDiagnostic {
    /// Finding category.
    pub kind: LintKind,
    /// The net driven by the offending gate.
    pub net: NetId,
}

impl std::fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.net)
    }
}

/// Lint a constructed [`Netlist`] for logic gates whose output reaches
/// no marked output bus, and logic gates carrying a zero delay.
///
/// Primary inputs and constants are exempt from both (unused input bits
/// of a shared port template and shared constant nets are normal, and
/// both are free by definition). Findings are ordered by [`LintKind`] and
/// then by net, so tests can assert exact lists.
pub fn lint_netlist(nl: &Netlist) -> Vec<LintDiagnostic> {
    // Gates are topologically ordered, so one reverse sweep settles
    // liveness: every reader of a net comes after it.
    let mut live = vec![false; nl.len()];
    for o in nl.output_nets() {
        live[o.index()] = true;
    }
    for (i, g) in nl.gates().iter().enumerate().rev() {
        if live[i] {
            for p in g.fanin() {
                live[p.index()] = true;
            }
        }
    }
    let logic: Vec<(NetId, &Gate)> = nl
        .gates()
        .iter()
        .enumerate()
        .filter(|(_, g)| {
            !matches!(
                g.kind,
                GateKind::Input | GateKind::Const0 | GateKind::Const1
            )
        })
        .map(|(i, g)| (NetId::from_index(i), g))
        .collect();
    let unreachable = logic
        .iter()
        .filter(|(net, _)| !live[net.index()])
        .map(|&(net, _)| LintDiagnostic {
            kind: LintKind::UnreachableGate,
            net,
        });
    let missing = logic
        .iter()
        .filter(|(_, g)| g.delay == 0.0)
        .map(|&(net, _)| LintDiagnostic {
            kind: LintKind::MissingDelay,
            net,
        });
    unreachable.chain(missing).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CellLibrary;

    /// `y = ~(a ^ b)` with a dead `d = a & b` and an unused constant.
    fn dead_and(lib: CellLibrary) -> (Netlist, [NetId; 3]) {
        let mut nl = Netlist::new("dead", lib);
        let a = nl.add_input_bus("a", 1)[0];
        let b = nl.add_input_bus("b", 1)[0];
        let _unused = nl.const_bit(true);
        let d = nl.and(a, b);
        let z = nl.xor(a, b);
        let y = nl.not(z);
        nl.mark_output_bus("y", &[y]);
        (nl, [d, z, y])
    }

    fn diag(kind: LintKind, net: NetId) -> LintDiagnostic {
        LintDiagnostic { kind, net }
    }

    #[test]
    fn unreachable_gate_and_missing_delay() {
        // Real delays: only the dead gate fires; inputs and the unused
        // constant are exempt.
        let (nl, [d, _, _]) = dead_and(CellLibrary::nangate45_like());
        assert_eq!(lint_netlist(&nl), vec![diag(LintKind::UnreachableGate, d)]);
        // A zero-delay library also flags every logic gate, in net
        // order after the reachability finding; inputs and constants
        // (zero delay by definition) stay exempt.
        let (nl, [d, z, y]) = dead_and(CellLibrary::from_table("zero", &[]));
        assert_eq!(
            lint_netlist(&nl),
            vec![
                diag(LintKind::UnreachableGate, d),
                diag(LintKind::MissingDelay, d),
                diag(LintKind::MissingDelay, z),
                diag(LintKind::MissingDelay, y),
            ]
        );
    }

    #[test]
    fn diagnostics_render_with_net_names() {
        let d = diag(LintKind::UnreachableGate, NetId::from_index(5));
        assert_eq!(d.to_string(), "unreachable-gate: n5");
        let d = diag(LintKind::MissingDelay, NetId::from_index(12));
        assert_eq!(d.to_string(), "missing-delay: n12");
    }
}
