//! Integration tests of the observability layer against the real
//! pipeline: `tea-metrics/v1` snapshots must be deterministic across
//! serial and parallel engine schedules, the feature-gated simulator
//! counters must cross-check against the golden reference, and an
//! engine run must yield a loadable Chrome trace plus a valid metrics
//! artifact.
//!
//! All three tests share the process-global metrics registry and sink
//! list, so they serialize on a file-local mutex and reset the registry
//! at each start.

use std::sync::{Mutex, MutexGuard};

use tea_core::golden::GoldenReference;
use tea_exp::{CellSpec, Engine, Matrix};
use tea_obs::chrome::ChromeTraceSink;
use tea_obs::metrics::{self, MetricValue};
use tea_sim::core::simulate;
use tea_sim::psv::Event;
use tea_sim::SimConfig;
use tea_workloads::{all_workloads, deepsjeng, lbm, xz, Size};

/// Serializes tests that touch the global registry / sink list.
fn lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    match GATE.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[test]
fn metrics_snapshot_is_identical_for_serial_and_parallel_runs() {
    let _gate = lock();
    let matrix = Matrix::new()
        .workloads(vec![lbm::workload(Size::Test), xz::workload(Size::Test)])
        .seeds(&[11, 29]);

    metrics::global().reset();
    let _ = Engine::new(1)
        .quiet()
        .run("obs-determinism", matrix.cells());
    let serial = metrics::global().snapshot();

    metrics::global().reset();
    let _ = Engine::new(4)
        .quiet()
        .run("obs-determinism", matrix.cells());
    let parallel = metrics::global().snapshot();

    // The registry holds only counters of deterministic quantities and
    // commutes over addition, so the two maps must be *equal* — the
    // snapshot timestamp is the only field allowed to differ.
    assert_eq!(
        serial.metrics(),
        parallel.metrics(),
        "metric totals must not depend on worker scheduling"
    );
    // Sanity: the run actually populated all three layers.
    assert_eq!(serial.counter("engine.cells_ok"), Some(4));
    // One timing pass per workload: the two seeds share it.
    assert_eq!(serial.counter("sim.runs"), Some(2));
    assert!(serial.counter("sim.cycles").unwrap_or(0) > 0);
    assert!(serial
        .metrics()
        .keys()
        .any(|k| k.starts_with("profiler.TEA.")));
}

#[test]
fn series_sampling_never_perturbs_metric_determinism() {
    let _gate = lock();
    let matrix = Matrix::new()
        .workloads(vec![lbm::workload(Size::Test), xz::workload(Size::Test)])
        .seeds(&[11, 29]);

    // Serial run with no sampler: the reference metric map.
    metrics::global().reset();
    let _ = Engine::new(1).quiet().run("obs-series", matrix.cells());
    let serial = metrics::global().snapshot();

    // Parallel run with the flight-recorder sampler hammering the
    // registry at a 1ms interval throughout. The sampler only *reads*
    // (registry snapshots, span-stack loads), so the final metric map
    // must stay byte-identical to the serial, sampler-free run.
    metrics::global().reset();
    let sampler = tea_obs::series::Sampler::start(tea_obs::series::SamplerConfig {
        interval_ms: 1,
        capacity: 4096,
        profile_spans: true,
    });
    let _ = Engine::new(4).quiet().run("obs-series", matrix.cells());
    let series = sampler.stop();
    let parallel = metrics::global().snapshot();

    assert!(
        series.samples.len() >= 2,
        "sampler takes at least a first and a final sample"
    );
    assert_eq!(
        serial.metrics(),
        parallel.metrics(),
        "a running sampler must not perturb metric determinism"
    );
    // The queue-depth gauge is add-based accounting, so it nets back to
    // zero at every run boundary regardless of worker interleaving.
    assert_eq!(
        serial.metrics().get("engine.queue_depth"),
        Some(&MetricValue::Gauge(0)),
        "engine.queue_depth gauge must net to zero after the run"
    );
    // The series itself saw the gauge and the cell counters move.
    assert!(series.metric_names().iter().any(|n| n == "engine.cells_ok"));
}

#[test]
fn sim_counters_cross_check_against_the_golden_reference() {
    let _gate = lock();
    metrics::global().reset();

    let mut runs = 0u64;
    let mut cycles = 0u64;
    let mut commits = 0u64;
    let mut squashes = 0u64;
    let mut event_insts = [0u64; 9];
    let mut golden_executions = 0u64;
    let mut golden_events = [0u64; 9];
    for w in all_workloads(Size::Test) {
        let mut golden = GoldenReference::new();
        let stats = simulate(&w.program, SimConfig::default(), &mut [&mut golden]);
        runs += 1;
        cycles += stats.cycles;
        commits += stats.retired;
        squashes += stats.squashes;
        for (i, n) in stats.event_insts.iter().enumerate() {
            event_insts[i] += n;
        }
        let counts = golden.event_counts();
        for addr in counts.addrs().collect::<Vec<_>>() {
            golden_executions += counts.executions(addr);
            for (i, &e) in Event::ALL.iter().enumerate() {
                golden_events[i] += counts.count(addr, e);
            }
        }
    }
    let golden_l1d = golden_events[Event::StL1 as usize];

    let snap = metrics::global().snapshot();
    // The sim publishes its per-run totals once at halt; across the
    // suite the counters must equal the summed `SimStats` exactly.
    assert_eq!(snap.counter("sim.runs"), Some(runs));
    assert_eq!(snap.counter("sim.cycles"), Some(cycles));
    assert_eq!(snap.counter("sim.commits"), Some(commits));
    assert_eq!(snap.counter("sim.squashes"), Some(squashes));

    // The golden reference observes every retirement, so its execution
    // total is exactly the commit counter.
    assert_eq!(
        golden_executions, commits,
        "golden executions must equal committed instructions"
    );
    // And its per-event counts are exactly the retired-instruction
    // event counts the sim tallies into `SimStats::event_insts`.
    assert_eq!(
        golden_events, event_insts,
        "golden per-event counts must equal the sim's retired-PSV tallies"
    );
    // Cache/TLB miss counters count *all* accesses, including wrong-path
    // and prefetch traffic, so the golden (retired-only) event totals
    // bound them from below.
    assert!(golden_l1d > 0, "test suite must exercise L1D misses");
    assert!(
        snap.counter("sim.cache.l1d_misses").unwrap_or(0) >= golden_l1d,
        "sim L1D miss counter must dominate golden ST-L1 events"
    );
    assert!(
        snap.counter("sim.cache.llc_misses").unwrap_or(0) >= golden_events[Event::StLlc as usize],
        "sim LLC miss counter must dominate golden ST-LLC events"
    );
    assert!(
        snap.counter("sim.tlb.dtlb_misses").unwrap_or(0) >= golden_events[Event::StTlb as usize],
        "sim DTLB miss counter must dominate golden ST-TLB events"
    );

    // The occupancy histogram observes once per cycle, so its bucket
    // counts must sum back to the cycle counter.
    match snap.metrics().get("sim.observer_buffer_occupancy") {
        Some(MetricValue::Histogram { counts, .. }) => {
            assert_eq!(counts.iter().sum::<u64>(), cycles);
        }
        other => panic!("occupancy histogram missing or mistyped: {other:?}"),
    }
}

#[test]
fn engine_runs_export_a_loadable_trace_and_a_valid_metrics_artifact() {
    let _gate = lock();
    metrics::global().reset();

    let sink = std::sync::Arc::new(ChromeTraceSink::new());
    let id = tea_obs::add_sink(sink.clone());
    let cells = vec![
        CellSpec::for_workload(&lbm::workload(Size::Test)),
        CellSpec::for_workload(&deepsjeng::workload(Size::Test)),
    ];
    let _ = Engine::new(2).quiet().run("obs-artifacts", cells);
    tea_obs::remove_sink(id);

    let trace = sink.to_json();
    tea_exp::json::validate(&trace).expect("chrome trace must be valid JSON");
    let doc = tea_exp::json::parse(&trace).expect("chrome trace must parse");
    assert!(
        doc.get("traceEvents").is_some(),
        "traceEvents array present"
    );
    assert!(trace.contains("\"ph\":\"B\""), "span begin events present");
    assert!(trace.contains("\"ph\":\"E\""), "span end events present");
    assert!(
        trace.contains("thread_name") && trace.contains("engine-worker-"),
        "per-worker lanes must be named"
    );
    assert!(
        trace.contains("\"name\":\"cell\""),
        "per-cell spans present"
    );

    let metrics_json = metrics::global().snapshot().to_json();
    tea_exp::json::validate(&metrics_json).expect("metrics artifact must be valid JSON");
    let doc = tea_exp::json::parse(&metrics_json).expect("metrics artifact must parse");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some(tea_obs::metrics::METRICS_SCHEMA)
    );
    assert!(doc.get("metrics").is_some());
}
