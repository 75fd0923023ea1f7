//! The benchmark's own checks: its manifest and metric names, and tiny
//! runs of every workload proving the correctness gate passes honest
//! traffic and rejects a flipped answer.

use std::path::PathBuf;

use perfbench::workload::WORKLOADS;
use perfbench::{manifest, run, Config, Outcome, END_TO_END, PER_LAYER};

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn names_units_and_whys_fit_the_contract() {
    let mut seen = std::collections::HashSet::new();
    let names = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .chain(WORKLOADS.iter().map(|w| w.name));
    for name in names {
        assert!(valid_name(name), "bad name {name:?}");
        assert!(seen.insert(name), "name {name:?} used twice");
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(m.unit.len() <= 16, "unit of {}", m.name);
        assert!(
            m.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit of {}",
            m.name
        );
        assert!(m.better == "lower" || m.better == "higher");
    }
    for m in &END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    for w in &WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
    }
    assert!(!valid_name("has space") && !valid_name("_lead") && valid_name("a.b-c_d"));
}

#[test]
fn committed_manifest_matches_the_code() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        manifest(),
        "regenerate with `perfbench --emit-manifest > BENCHMARK.json`"
    );
}

fn tiny(name: &str, trace: bool, flip: bool) -> Outcome {
    let workload = *WORKLOADS.iter().find(|w| w.name == name).unwrap();
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 0.4,
        trace,
        work: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("work-{name}-{trace}-{flip}")),
        population: Some(workload.population.min(48)),
        flip,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
        twin: None,
    };
    run(&cfg).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn gate(name: &str) {
    let honest = tiny(name, false, false);
    assert!(
        honest.correct,
        "{name}: honest run rejected: {:?}",
        honest.notes
    );
    assert_eq!(honest.failed, 0, "{name}: {:?}", honest.notes);
    assert!(honest.attempted > 0);
    let names: Vec<_> = honest.metrics.iter().map(|m| m.0).collect();
    let want: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, want);
    assert!(
        honest.metrics.iter().all(|m| m.1 > 0.0),
        "{:?}",
        honest.metrics
    );
    let json = honest.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    assert!(!json.contains('\n'));

    let flipped = tiny(name, false, true);
    assert!(!flipped.correct, "{name}: a flipped answer went unnoticed");
    assert!(flipped.json().starts_with("{\"correct\": false"));
}

#[test]
fn gate_wire_compiled() {
    gate("wire-compiled");
}

#[test]
fn gate_engine_compiled() {
    gate("engine-compiled");
}

#[test]
fn gate_engine_greedy_dag() {
    gate("engine-greedy-dag");
}

#[test]
fn gate_engine_durable() {
    gate("engine-durable");
}

#[test]
fn traced_runs_report_every_layer() {
    for name in ["wire-compiled", "engine-durable"] {
        let out = tiny(name, true, false);
        assert!(out.correct, "{name}: {:?}", out.notes);
        let names: Vec<_> = out.metrics.iter().map(|m| m.0).collect();
        let want: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        assert!(out.metrics.iter().all(|m| m.1.is_finite()));
        assert!(out.notes.iter().any(|n| n.starts_with("ledger:")));
    }
}
