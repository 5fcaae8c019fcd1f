//! The benchmark's own tests: metric naming, agreement with
//! `BENCHMARK.json`, and a Test-size run of every workload through the
//! timed and the traced pipeline.

use tea_exp::json::{parse, Json};
use tea_perfbench::{run, MetricSpec, Shape, END_TO_END, PER_LAYER};
use tea_workloads::Size;

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let all: Vec<MetricSpec> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
    for (name, unit, _) in &all {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
    }
    let mut names: Vec<&str> = all.iter().map(|m| m.0).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names repeat");
    assert!(END_TO_END
        .iter()
        .any(|(n, u, _)| *n == "setup_s" && *u == "s"));
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} array");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{key} entry without {k}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let specs = |list: &[MetricSpec]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u, _)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(listed(&doc, "end_to_end"), specs(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), specs(&PER_LAYER));
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads array");
    };
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let shapes: Vec<&str> = Shape::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(names, shapes);
}

/// One test, so the runs never share a journal or artifact file
/// concurrently.
#[test]
fn test_size_runs_emit_every_metric_for_every_workload() {
    for shape in Shape::ALL {
        for (trace, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let outcome = run(shape, Size::Test, 5, 0.0, trace)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", shape.name()));
            assert!(
                outcome.correct,
                "{} trace={trace}: {:?}",
                shape.name(),
                outcome.broken
            );
            assert!(outcome.attempted > 0 && outcome.failed == 0);
            let emitted: Vec<MetricSpec> = outcome.metrics.iter().map(|(m, _)| *m).collect();
            assert_eq!(emitted, list, "{} trace={trace}", shape.name());
            for ((name, _, _), value) in &outcome.metrics {
                assert!(value.is_finite(), "{}: {name} = {value}", shape.name());
            }
            let line = outcome.to_json().render();
            let back = parse(&line).expect("result line is JSON");
            for key in ["correct", "attempted", "failed", "metrics"] {
                assert!(back.get(key).is_some(), "result line lacks {key}");
            }
        }
    }
}
