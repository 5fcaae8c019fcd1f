//! Shared timing passes: cells that differ only in their profilers
//! (seed, interval, TIP) ride one simulation, two at a time, and each
//! member's result is exactly what the cell produces when run alone.
//!
//! The tests read process-global metrics and trace sinks, so they
//! serialize on a file-local mutex.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use tea_core::pics::Granularity;
use tea_exp::trace_cache::{config_fingerprint, program_fingerprint};
use tea_exp::{
    run_cell, CellData, CellOutcome, CellSpec, CellStatus, Engine, ProgressEvent, ProgressSink,
    ALL_SCHEMES, PASS_MEMBERS,
};
use tea_obs::sink::{OwnedRecord, RingSink};
use tea_obs::Value;
use tea_sim::SimConfig;
use tea_workloads::faulty::{self, FaultMode};
use tea_workloads::{lbm, xz, Size};

/// A cycle budget every test program halts well within.
const BUDGET: u64 = 50_000_000;

fn lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Two workloads × three seeds × two intervals, plus a TIP cell, a cell
/// under a second core config and a budgeted cell: four distinct
/// (program, config, budget) keys.
fn matrix() -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for w in [lbm::workload(Size::Test), xz::workload(Size::Test)] {
        for seed in [3, 11, 29] {
            for interval in [256, 512] {
                cells.push(CellSpec::for_workload(&w).seed(seed).interval(interval));
            }
        }
    }
    cells.push(
        CellSpec::for_workload(&lbm::workload(Size::Test))
            .seed(5)
            .with_tip(),
    );
    let narrow = SimConfig {
        rob_entries: 32,
        ..SimConfig::default()
    };
    cells.push(CellSpec::for_workload(&lbm::workload(Size::Test)).config("narrow", narrow));
    cells.push(
        CellSpec::for_workload(&xz::workload(Size::Test))
            .seed(7)
            .budget(BUDGET),
    );
    cells
}

type Key = (u64, u64, Option<u64>);

fn key(spec: &CellSpec) -> Key {
    (
        program_fingerprint(&spec.program),
        config_fingerprint(&spec.config),
        spec.budget,
    )
}

fn distinct_keys(cells: &[CellSpec]) -> usize {
    let mut keys: Vec<Key> = cells.iter().map(key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

/// The timing passes the engine plans for `cells`: each key's cells in
/// cell order, [`PASS_MEMBERS`] at a time.
fn passes(cells: &[CellSpec]) -> Vec<Vec<usize>> {
    let mut by_key: Vec<(Key, Vec<usize>)> = Vec::new();
    for (i, spec) in cells.iter().enumerate() {
        let k = key(spec);
        match by_key.iter_mut().find(|(other, _)| *other == k) {
            Some((_, members)) => members.push(i),
            None => by_key.push((k, vec![i])),
        }
    }
    by_key
        .into_iter()
        .flat_map(|(_, members)| {
            members
                .chunks(PASS_MEMBERS)
                .map(<[usize]>::to_vec)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// A cell's artifact entry without its wall-clock fields.
fn entry(outcome: &CellOutcome) -> String {
    outcome
        .to_json()
        .without_keys(&["wall_seconds", "sim_mips"])
        .render_pretty()
}

/// What the artifact entry leaves out: error bits at function
/// granularity and the TIP profile.
fn extras(outcome: &CellOutcome) -> String {
    let r = outcome.result().expect("cell completed");
    let mut s = String::new();
    for scheme in &r.spec.schemes {
        let e = r.error(*scheme, Granularity::Function).unwrap_or(f64::NAN);
        s.push_str(&format!("{}:{:016x} ", scheme.name(), e.to_bits()));
    }
    if let Some(tip) = &r.tip {
        s.push_str(&format!("tip:{:016x}", tip.total().to_bits()));
        for (addr, t) in tip.top_instructions(16) {
            s.push_str(&format!(" {addr:x}:{:016x}", t.to_bits()));
        }
    }
    s
}

fn counter(name: &str) -> u64 {
    tea_obs::metrics::global().counter(name).get()
}

#[test]
fn every_member_equals_its_cell_run_alone() {
    let _gate = lock();
    let run = Engine::new(2).quiet().run("shared-pass-identity", matrix());
    assert!(run.all_ok());
    for (i, (shared, spec)) in run.cells.iter().zip(matrix()).enumerate() {
        let alone = CellOutcome {
            index: i,
            spec: spec.clone(),
            status: CellStatus::Ok,
            attempts: 1,
            wall: Duration::ZERO,
            data: CellData::Fresh(Box::new(run_cell(i, spec).expect("cell runs alone"))),
        };
        assert_eq!(entry(shared), entry(&alone), "cell {i}");
        assert_eq!(extras(shared), extras(&alone), "cell {i}");
    }
    // Sanity: the matrix exercises what it claims to.
    let tip = run.cells[12].result().expect("tip cell").tip.as_ref();
    assert!(tip.is_some_and(|t| t.total() > 0.0));
    assert!(run.cells.iter().all(|c| c
        .result()
        .is_some_and(|r| { r.spec.schemes == ALL_SCHEMES && r.golden.is_some() })));
}

#[test]
fn one_timing_pass_per_member_pair_at_any_worker_count() {
    let _gate = lock();
    assert_eq!(distinct_keys(&matrix()), 4);
    // Seven and six cells share the two big keys: four and three pairs.
    let planned = passes(&matrix()).len() as u64;
    assert_eq!(planned, 9);
    for threads in [1, 4] {
        let (runs, requests) = (counter("sim.runs"), counter("trace_cache.requests"));
        let run = Engine::new(threads)
            .quiet()
            .run("shared-pass-runs", matrix());
        assert!(run.all_ok());
        assert_eq!(
            counter("sim.runs") - runs,
            planned,
            "{threads} workers: one simulation per pass"
        );
        assert_eq!(
            counter("trace_cache.requests") - requests,
            planned,
            "{threads} workers: one trace checkout per pass"
        );
    }
}

#[test]
fn member_walls_sum_to_their_pass_wall() {
    let _gate = lock();
    let sink = Arc::new(RingSink::new(1 << 16));
    let id = tea_obs::add_sink(sink.clone());
    let run = Engine::new(1).quiet().run("shared-pass-walls", matrix());
    tea_obs::remove_sink(id);
    assert!(run.all_ok());

    // Members of each pass, in cell order, by first member.
    let by_first: HashMap<usize, Vec<usize>> = passes(&matrix())
        .into_iter()
        .map(|members| (members[0], members))
        .collect();
    let field = |fields: &[(String, Value)], name: &str| {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| match v {
                Value::U64(n) => *n,
                other => panic!("{name} is not a count: {other:?}"),
            })
    };
    // A pass span opens with its first member's index and closes with
    // the member count and the pass wall.
    let mut first_member: HashMap<u64, usize> = HashMap::new();
    let mut seen = 0;
    for record in sink.records() {
        match record {
            OwnedRecord::SpanBegin {
                meta,
                id,
                name,
                fields,
                ..
            } if meta.target == "tea_exp::engine" && name == "cell" => {
                let index = field(&fields, "index").expect("pass span names its first cell");
                first_member.insert(id, usize::try_from(index).unwrap());
            }
            OwnedRecord::SpanEnd {
                id, dur_ns, fields, ..
            } if first_member.contains_key(&id) => {
                let group = by_first
                    .get(&first_member[&id])
                    .expect("a pass is named by its first member");
                assert_eq!(field(&fields, "members"), Some(group.len() as u64));
                let wall_ns = field(&fields, "wall_ns").expect("pass span records its wall");
                let walls: Vec<Duration> = group.iter().map(|&i| run.cells[i].wall).collect();
                let sum: Duration = walls.iter().sum();
                assert_eq!(
                    sum.as_nanos(),
                    u128::from(wall_ns),
                    "member walls sum to the pass wall"
                );
                assert!(wall_ns <= dur_ns, "the pass wall fits inside its span");
                let (lo, hi) = (walls.iter().min().unwrap(), walls.iter().max().unwrap());
                assert!(
                    *hi - *lo <= Duration::from_nanos(1),
                    "members split the pass evenly: {walls:?}"
                );
                for &i in group {
                    let result = run.cells[i].result().expect("cell completed");
                    assert!(result.wall <= run.cells[i].wall);
                }
                seen += 1;
            }
            _ => {}
        }
    }
    assert_eq!(seen, by_first.len(), "one span per pass");
}

#[test]
fn a_failed_shared_pass_reruns_each_member_alone() {
    let _gate = lock();
    let broken = SimConfig {
        commit_width: 0,
        ..SimConfig::default()
    };
    let failing = |mode| CellSpec::for_workload(&faulty::workload(Size::Test, mode)).stats_only();
    // Pairs of cells that share a key and fail the same way: a cycle
    // budget, a rejected config, an architectural program fault.
    let cells = vec![
        failing(FaultMode::Diverge).seed(1).budget(20_000),
        failing(FaultMode::Diverge).seed(2).budget(20_000),
        CellSpec::for_workload(&lbm::workload(Size::Test))
            .seed(1)
            .config("broken", broken.clone()),
        CellSpec::for_workload(&lbm::workload(Size::Test))
            .seed(2)
            .config("broken", broken),
        failing(FaultMode::EscapePc).seed(1),
        failing(FaultMode::EscapePc).seed(2),
    ];
    let engine = || {
        Engine::new(2)
            .quiet()
            .max_retries(2)
            .backoff(Duration::ZERO, Duration::ZERO)
    };
    let shared = engine().run("shared-pass-failures", cells.clone());
    assert_eq!(shared.count(CellStatus::Ok), 0);
    for (i, (cell, spec)) in shared.cells.iter().zip(cells).enumerate() {
        let alone = engine().run("shared-pass-failures", vec![spec]);
        let alone = &alone.cells[0];
        assert_eq!(cell.status, alone.status, "cell {i}");
        assert_eq!(cell.attempts, alone.attempts, "cell {i}");
        assert_eq!(
            cell.error().map(ToString::to_string),
            alone.error().map(ToString::to_string),
            "cell {i}"
        );
    }
}

/// Every heartbeat's `(running, workers, utilization)`.
#[derive(Default)]
struct Heartbeats(Mutex<Vec<(usize, usize, f64)>>);

impl ProgressSink for Heartbeats {
    fn emit(&self, event: &ProgressEvent) {
        if let ProgressEvent::Heartbeat {
            running,
            workers,
            utilization,
            ..
        } = event
        {
            self.0
                .lock()
                .unwrap()
                .push((*running, *workers, *utilization));
        }
    }
}

#[test]
fn heartbeats_count_passes_not_members() {
    let _gate = lock();
    let beats = Arc::new(Heartbeats::default());
    // Four workers, nine passes of up to two cells: counting members
    // instead of passes would report up to eight cells running.
    let run = Engine::new(4)
        .quiet()
        .progress_sink(Arc::clone(&beats) as Arc<dyn ProgressSink>)
        .heartbeat_interval(Duration::from_millis(1))
        .run("shared-pass-heartbeats", matrix());
    assert!(run.all_ok());
    let beats = beats.0.lock().unwrap();
    assert!(!beats.is_empty(), "a 1ms heartbeat fires during the run");
    for &(running, workers, utilization) in beats.iter() {
        assert!(running <= workers, "{running} passes on {workers} workers");
        assert!(utilization <= 1.0, "utilization {utilization}");
    }
}
