//! Performance benchmarks of the toolflow's hot paths: gate-level timing
//! simulation, model-development DTA, and the two simulator cores.

use criterion::{criterion_group, criterion_main, BenchmarkId as CritId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tei_fpu::{FpuTimingSpec, FpuUnit};
use tei_softfloat::{FpOp, FpOpKind, Precision};
use tei_timing::{ArrivalSim, EventSim, FanoutTable, TwoVectorResult, VoltageReduction};
use tei_uarch::{FuncCore, OooConfig, OooCore};
use tei_workloads::{build, BenchmarkId, Scale};

fn rand_f64(rng: &mut StdRng) -> u64 {
    let s = (rng.gen::<bool>() as u64) << 63;
    let e = rng.gen_range(950u64..1150) << 52;
    s | e | (rng.gen::<u64>() & ((1 << 52) - 1))
}

/// Arrival-engine DTA throughput on the big double-precision units.
fn bench_arrival_dta(c: &mut Criterion) {
    let spec = FpuTimingSpec::paper_calibrated();
    let mut group = c.benchmark_group("arrival_dta");
    for kind in [FpOpKind::Mul, FpOpKind::Add] {
        let op = FpOp::new(kind, Precision::Double);
        let unit = FpuUnit::generate(op, &spec);
        let dta = unit.dta_netlist();
        let mut rng = StdRng::seed_from_u64(1);
        let prev = unit.encode_inputs(rand_f64(&mut rng), rand_f64(&mut rng));
        let cur = unit.encode_inputs(rand_f64(&mut rng), rand_f64(&mut rng));
        let mut buf = TwoVectorResult::default();
        group.throughput(Throughput::Elements(1));
        group.bench_function(CritId::from_parameter(op.to_string()), |b| {
            b.iter(|| {
                ArrivalSim::run_into(&dta, &prev, &cur, &mut buf);
                buf.max_settle(unit.result_port())
            });
        });
    }
    group.finish();
}

/// Exact event-driven engine on a small datapath (the reference engine).
fn bench_event_engine(c: &mut Criterion) {
    use tei_netlist::{CellLibrary, Netlist};
    let mut nl = Netlist::new("adder32", CellLibrary::nangate45_like());
    let a = nl.add_input_bus("a", 32);
    let b = nl.add_input_bus("b", 32);
    let zero = nl.const_bit(false);
    let (sum, _) = nl.ripple_add(&a, &b, zero);
    nl.mark_output_bus("sum", &sum);
    let fo = FanoutTable::build(&nl);
    let delays = EventSim::derated_delays(&nl, VoltageReduction::VR20.derating_factor());
    let prev: Vec<bool> = vec![false; 64];
    let cur: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
    c.bench_function("event_sim_adder32", |bch| {
        bch.iter(|| EventSim::run(&nl, &fo, &prev, &cur, &delays, 4.5));
    });
}

/// The programs of the benchmark's `cell-wa` workload: cg, k-means and
/// is at Small scale.
fn cell_wa_programs() -> Vec<tei_workloads::Benchmark> {
    [BenchmarkId::Cg, BenchmarkId::Kmeans, BenchmarkId::Is]
        .into_iter()
        .map(|id| build(id, Scale::Small))
        .collect()
}

/// Functional-core simulation speed (instructions/second) on the
/// `cell-wa` programs, one by one and as one set. This is the interpreter
/// every injection replay runs, so its rate explains the campaign's
/// runs/s.
fn bench_functional_core(c: &mut Criterion) {
    let programs = cell_wa_programs();
    let run = |program: &tei_isa::Program| {
        let mut core = FuncCore::with_memory(program, 8 << 20);
        core.run(u64::MAX).instructions
    };
    let mut group = c.benchmark_group("simulators");
    group.sample_size(10);
    let mut total = 0;
    for bench in &programs {
        let instructions = run(&bench.program);
        total += instructions;
        group.throughput(Throughput::Elements(instructions));
        group.bench_function(CritId::new("functional_small", bench.id.name()), |b| {
            b.iter(|| run(&bench.program));
        });
    }
    group.throughput(Throughput::Elements(total));
    group.bench_function(CritId::new("functional_small", "cg+k-means+is"), |b| {
        b.iter(|| programs.iter().map(|p| run(&p.program)).sum::<u64>());
    });
    group.finish();
}

/// Detailed out-of-order core speed (cycles/second) on the programs of
/// the benchmark's `cell-wa` workload — cg, k-means and is at Small
/// scale — one by one and as one golden-run set.
fn bench_ooo_core(c: &mut Criterion) {
    let programs = cell_wa_programs();
    let run = |program: &tei_isa::Program| {
        let mut core = OooCore::with_memory(program, OooConfig::default(), 8 << 20);
        core.run(u64::MAX);
        core.stats.cycles
    };
    let mut group = c.benchmark_group("simulators");
    group.sample_size(10);
    let mut total = 0;
    for bench in &programs {
        let cycles = run(&bench.program);
        total += cycles;
        group.throughput(Throughput::Elements(cycles));
        group.bench_function(CritId::new("ooo_small", bench.id.name()), |b| {
            b.iter(|| run(&bench.program));
        });
    }
    group.throughput(Throughput::Elements(total));
    group.bench_function(CritId::new("ooo_small", "cg+k-means+is"), |b| {
        b.iter(|| programs.iter().map(|p| run(&p.program)).sum::<u64>());
    });
    group.finish();
}

/// FPU unit generation + calibration cost.
fn bench_unit_generation(c: &mut Criterion) {
    let spec = FpuTimingSpec::paper_calibrated();
    let mut group = c.benchmark_group("generation");
    group.sample_size(10);
    group.bench_function("generate_fp_add_d", |b| {
        b.iter(|| FpuUnit::generate(FpOp::new(FpOpKind::Add, Precision::Double), &spec));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_arrival_dta,
    bench_event_engine,
    bench_functional_core,
    bench_ooo_core,
    bench_unit_generation
);
criterion_main!(benches);
