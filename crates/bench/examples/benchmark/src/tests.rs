//! The workloads at reduced sizes: every declared metric is emitted
//! with its unit, deterministic counts repeat exactly across
//! repetitions and thread counts, and trace spans nest.

use crate::flows::{self, Ctx, Sizes, Workload};
use crate::report::{self, Definition, Metric, ResultFile, WorkloadResult};
use crate::run::summarize;
use crate::trace::{Recorder, RepRecord, Span};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A warm-up plus `timed` repetitions of `w` at tiny sizes; every second
/// timed repetition is traced, as in a `--trace 1` run.
fn run_reps(w: Workload, threads: usize, timed: u64) -> (Vec<RepRecord>, Vec<Span>) {
    let work = PathBuf::from(".bench_work").join(format!(
        "test-{}-t{threads}-{}",
        w.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&work).expect("create test work dir");
    let ctx = Ctx {
        seed: 3,
        threads,
        sizes: Sizes::tiny(),
        work: work.clone(),
        worker_cmd: None,
    };
    let prepared = flows::prepare(w, &ctx).expect("exact reference");
    let mut rec = Recorder::new();
    let mut reps = Vec::new();
    for index in 0..=timed {
        rec.begin_rep(index, index > 0 && index % 2 == 0);
        flows::rep(w, &ctx, &prepared, &mut rec, index).expect("repetition");
        reps.push(rec.end_rep());
    }
    std::fs::remove_dir_all(&work).ok();
    (reps, rec.spans)
}

fn exercise(w: Workload) {
    let def = Definition::load();
    let (reps, spans) = run_reps(w, 2, 2);
    for trace in [false, true] {
        let r = summarize(w, 3, trace, &reps, 0.0, 1.0);
        // Problems include any count that differs between repetitions.
        assert!(r.problems.is_empty(), "{}: {:?}", w.name(), r.problems);
        for (name, unit) in def.metrics(trace) {
            let m = r
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.unit, unit, "{name}");
            assert!(m.value.is_finite(), "{name}");
        }
    }

    let (serial, _) = run_reps(w, 1, 1);
    assert_eq!(serial[1].counts, reps[1].counts, "1 vs 2 threads");

    // Spans nest inside their parent repetition, and self times add up
    // to no more than the repetition's wall time.
    for s in &spans {
        assert!(s.start_s <= s.end_s, "{s:?}");
        match s.parent {
            None => assert_eq!(s.name, "rep"),
            Some(p) => {
                let parent = &spans[p as usize];
                assert_eq!((parent.name.as_str(), parent.rep), ("rep", s.rep));
                assert!(
                    parent.start_s <= s.start_s && s.end_s <= parent.end_s,
                    "{s:?}"
                );
            }
        }
    }
    let traced: Vec<&RepRecord> = reps.iter().filter(|r| r.traced).collect();
    assert!(!traced.is_empty());
    for r in traced {
        assert!(r.self_s.values().all(|&s| s >= 0.0));
        let total: f64 = r.self_s.values().sum();
        assert!(total <= r.wall_s + 1e-3, "self {total} > wall {}", r.wall_s);
    }
}

#[test]
fn cell_wa() {
    exercise(Workload::CellWa);
}

#[test]
fn dev_ia() {
    exercise(Workload::DevIa);
}

#[test]
fn sweep_chain() {
    exercise(Workload::SweepChain);
}

#[test]
fn journal() {
    exercise(Workload::Journal);
}

/// A result file that satisfies the definition.
fn valid_file(def: &Definition) -> ResultFile {
    let workloads = def
        .workloads
        .iter()
        .map(|w| {
            let metrics: BTreeMap<String, Metric> = def
                .metrics(false)
                .into_iter()
                .map(|(name, unit)| {
                    let m = Metric {
                        value: 1.0,
                        unit: unit.to_string(),
                        q1: 1.0,
                        q3: 1.0,
                        n: 5,
                    };
                    (name.to_string(), m)
                })
                .collect();
            WorkloadResult {
                workload: w.name.clone(),
                seed: 1,
                trace: false,
                reps: 5,
                correct: true,
                attempted: 10,
                failed: 0,
                problems: Vec::new(),
                metrics,
                resolved: BTreeMap::new(),
                spans: Vec::new(),
            }
        })
        .collect();
    ResultFile {
        schema: report::SCHEMA.to_string(),
        host_cores: 2,
        commit: "0123abc".to_string(),
        seed: 1,
        workloads,
    }
}

#[test]
fn check_accepts_a_complete_file_and_names_each_violation() {
    let def = Definition::load();
    assert_eq!(report::check(&def, &valid_file(&def)), Vec::<String>::new());

    let mut f = valid_file(&def);
    f.workloads[0]
        .metrics
        .get_mut("flow_s")
        .expect("flow_s")
        .unit = "ms".into();
    f.workloads[1].metrics.remove("setup_s");
    f.workloads.pop();
    f.commit.clear();
    let errors = report::check(&def, &f);
    assert_eq!(errors.len(), 4, "{errors:?}");

    // failed_frac must be failed / attempted.
    let mut f = valid_file(&def);
    let r = &mut f.workloads[0];
    r.failed = 1;
    r.metrics.insert(
        "failed_frac".into(),
        Metric {
            value: 0.2,
            unit: "ratio".into(),
            q1: 0.2,
            q3: 0.2,
            n: 1,
        },
    );
    assert_eq!(report::check(&def, &f).len(), 1);
    f.workloads[0]
        .metrics
        .get_mut("failed_frac")
        .expect("set")
        .value = 0.1;
    assert!(report::check(&def, &f).is_empty());
}
