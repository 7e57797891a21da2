//! Every shipped unit's DTA table program ([`FpuUnit::dta_program`])
//! must be byte-identical to the per-pair `ArrivalKernel` on real
//! operand traffic: every net's value and toggle flag at every
//! transition, and the settle time of every net the program exposes,
//! which must include the whole result port.
//!
//! Debug builds drive a reduced matrix (fewer units × lane widths ×
//! windows) to keep `cargo test -q` quick; release builds sweep every
//! unit at every supported width.

use std::sync::OnceLock;

use tei_fpu::{FpuBank, FpuTimingSpec, FpuUnit};
use tei_netlist::NetId;
use tei_timing::{ArrivalEngine, ArrivalKernel, SpecializedKernel};

fn bank() -> &'static FpuBank {
    static BANK: OnceLock<FpuBank> = OnceLock::new();
    BANK.get_or_init(|| FpuBank::generate(&FpuTimingSpec::paper_calibrated()))
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The table-driven kernel over `unit`'s cached program at `lanes`.
fn table_engine(unit: &FpuUnit, lanes: usize) -> Box<dyn ArrivalEngine + '_> {
    let program = unit.dta_program();
    match lanes {
        1 => Box::new(SpecializedKernel::<1>::new(program)),
        4 => Box::new(SpecializedKernel::<4>::new(program)),
        8 => Box::new(SpecializedKernel::<8>::new(program)),
        _ => panic!("unsupported lane width {lanes}"),
    }
}

/// The program is built once per unit and then shared.
#[test]
fn dta_program_is_built_once() {
    for unit in bank().iter() {
        assert!(
            std::ptr::eq(unit.dta_program(), unit.dta_program()),
            "{}: dta_program rebuilt",
            unit.tag()
        );
    }
}

/// Drive the table-driven engine through operand windows and replay
/// each window through the per-pair kernel (`reset` on its first
/// vector, then one chained `advance` per transition), requiring
/// bit-exact agreement at every transition: every net's value and
/// toggle flag, and the settle time of every net the program exposes —
/// which must include the full result port, the set the campaign
/// thresholds (internal nets have their settle slots recycled by the
/// liveness compaction; see `tei_timing::codegen`).
fn assert_engines_match(unit: &FpuUnit, lanes: usize, windows: usize, seed: u64) {
    let compiled = unit.dta_compiled();
    let mut kernel = ArrivalKernel::new();
    let mut table = table_engine(unit, lanes);
    assert_eq!(table.lanes(), lanes);
    for &net in unit.result_port() {
        assert!(
            table.settle_exposed(net),
            "{}: result-port net {} must stay exposed",
            unit.tag(),
            net.index()
        );
    }

    let width = unit.input_width();
    let vectors = table.window_vectors();
    let mut rng = SplitMix(seed);
    let mut flat = vec![false; vectors * width];
    for _ in 0..windows {
        for v in 0..vectors {
            let (a, b) = (rng.next(), rng.next());
            unit.encode_inputs_into(a, b, &mut flat[v * width..(v + 1) * width]);
        }
        table.load_window(&flat, vectors);
        assert_eq!(table.window_transitions(), vectors - 1);
        kernel.reset(compiled, &flat[..width]);
        for t in 0..vectors - 1 {
            table.select_transition(t);
            kernel.advance(compiled, &flat[(t + 1) * width..(t + 2) * width]);
            for net in 0..compiled.len() {
                let id = NetId::from_index(net);
                assert_eq!(
                    kernel.cur(id),
                    table.cur(id),
                    "{} W={lanes} t={t} net {net}: value",
                    unit.tag()
                );
                assert_eq!(
                    kernel.changed(id),
                    table.changed(id),
                    "{} W={lanes} t={t} net {net}: toggle",
                    unit.tag()
                );
                if table.settle_exposed(id) {
                    assert_eq!(
                        kernel.settle_of(id).to_bits(),
                        table.settle_of(id).to_bits(),
                        "{} W={lanes} t={t} net {net}: settle",
                        unit.tag()
                    );
                }
            }
        }
    }
}

#[test]
fn dta_programs_match_per_pair_kernel_bit_exactly() {
    let debug = cfg!(debug_assertions);
    let (lane_widths, windows): (&[usize], usize) =
        if debug { (&[1, 4], 1) } else { (&[1, 4, 8], 2) };
    let units = bank()
        .iter()
        .filter(|u| !debug || ["fp-add-s", "i2f-s", "f2i-s"].contains(&u.tag()));
    for unit in units {
        for (k, &lanes) in lane_widths.iter().enumerate() {
            assert_engines_match(unit, lanes, windows, 0xD7A5_0000 + k as u64);
        }
    }
}
