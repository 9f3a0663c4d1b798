//! The benchmark's own tests: the catalogue agrees with `BENCHMARK.json`,
//! a smoke run of every workload emits every named metric on a seed the
//! benchmark is never tuned on, and a deliberately wrong expected output
//! fails the run.

use std::collections::BTreeSet;

use crate::harness::Config;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::{run_workload, WORKLOADS};

/// A seed none of the benchmark's constants were chosen on.
const SMOKE_SEED: u64 = 0x5EED_0BAD_CAFE;

fn smoke(trace: bool, inject_wrong: bool) -> Config {
    Config { seed: SMOKE_SEED, seconds: 0.5, trace, smoke: true, inject_wrong, nproc: 2 }
}

/// The string values of `"key": "<value>"` pairs in `text`, in order.
fn values_of<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let pat = format!("\"{key}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            &rest[..rest.find('"').expect("a closing quote")]
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let (head, layers) = json.split_at(json.find("\"per_layer\"").expect("a per_layer list"));
    let (workloads, e2e) = head.split_at(head.find("\"end_to_end\"").expect("an end_to_end list"));
    assert_eq!(values_of(workloads, "name"), WORKLOADS);
    let pairs = |t| values_of(t, "name").into_iter().zip(values_of(t, "unit")).collect::<Vec<_>>();
    assert_eq!(pairs(e2e), END_TO_END);
    assert_eq!(pairs(layers), PER_LAYER);
}

#[test]
fn smoke_runs_emit_every_metric_and_pass_their_checks() {
    let mut measured: BTreeSet<&str> = BTreeSet::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let tracer = Tracer::new(trace);
            let out = run_workload(workload, &smoke(trace, false), &tracer)
                .unwrap_or_else(|e| panic!("{workload} failed to set up: {e}"));
            assert!(out.correct(), "{workload} trace={trace}: {:#?}", out.notes);
            assert_eq!(out.failed, 0, "{workload} trace={trace}");
            assert!(out.attempted > 0);
            let line = out.result_json(trace);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
            let table = if trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in table {
                let entry = format!("\"{name}\": {{\"value\": ");
                assert!(line.contains(&entry), "{workload} does not print {name}");
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
            if !trace {
                for (name, _) in END_TO_END {
                    let v = out.metrics.get(name).copied().unwrap_or(0.0);
                    assert!(v > 0.0, "{workload}: end-to-end {name} must be positive, got {v}");
                }
            }
            measured.extend(out.metrics.keys().copied());
            assert!(!trace || tracer.len() > 0, "a traced run records spans");
        }
    }
    for (name, _) in PER_LAYER {
        assert!(measured.contains(name), "no workload measures {name}");
    }
}

#[test]
fn a_wrong_expected_output_fails_the_run() {
    for workload in WORKLOADS {
        let out = run_workload(workload, &smoke(false, true), &Tracer::new(false))
            .unwrap_or_else(|e| panic!("{workload} failed to set up: {e}"));
        assert!(!out.correct(), "{workload} accepted a wrong expected output");
        assert!(out.failed > 0 && out.wrong > 0, "{workload}: {:#?}", out.notes);
        assert!(out.result_json(false).starts_with("{\"correct\": false"));
    }
}
