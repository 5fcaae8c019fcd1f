//! The traced run: per-layer metrics and a reconciled cost ledger.
//!
//! One invocation makes, in order:
//!
//! 1. a **timed** engine run of the workload (no sinks, no spans), the
//!    baseline of `trace.overhead_frac`;
//! 2. a **traced** engine run: the same cells with a
//!    [`ProgressRecorder`] attached and spans around `run_journaled` and
//!    `write_artifact` — engine utilization, queue wait, trace-cache and
//!    sample counters come from it;
//! 3. the error analysis (`CellResult::error`) and the journal writes
//!    (`JournalEntry::of` + `Journal::record`) of the traced run's
//!    cells, each timed directly;
//! 4. per program, each layer's public entry point in its own span:
//!    `Machine::run`, `CapturedTrace::capture_default`, a
//!    `decode_block_into` sweep, bare live and bare replay
//!    `Core::run_with`, and replay with one observer group attached.
//!    An observer's *marginal* cost is wall(timing + X) − wall(timing)
//!    from adjacent runs, the median over one round per cell (at least
//!    two), each round with its cell's seed, in alternating order.
//!    Right after, the program's cells run on a **serial** engine to an
//!    artifact: the total the ledger must reconcile with, taken next to
//!    the layer runs so that slow drift of the host hits both alike;
//! 5. paired replays with the flight recorder's sampler off and on, in
//!    alternating order, for `recorder.overhead_frac`.
//!
//! Per-cell layers are scaled by the program's cell count; capture and
//! golden are paid once per program (the engine's trace cache and
//! golden sharing). The timed and traced engine runs must produce the
//! same simulated-result digest, and each serial cell the same
//! simulated result as its cell of the traced run.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use tea_core::golden::GoldenReference;
use tea_core::observers::{AnyObserver, ObserverSet};
use tea_core::pics::Granularity;
use tea_core::sampling::SampleTimer;
use tea_core::schemes::Scheme;
use tea_exp::journal::{Journal, JournalEntry};
use tea_exp::json::Json;
use tea_exp::{CellSpec, Engine, ProgressEvent, ProgressRecorder, ProgressSink, RunResult};
use tea_isa::{CapturedTrace, Machine};
use tea_obs::metrics::Gauge;
use tea_obs::series::{Sampler, SamplerConfig};
use tea_sim::core::Core;
use tea_sim::SimConfig;
use tea_workloads::{Size, Workload};

use crate::spans::SpanLog;
use crate::{
    cell_digest, check, median, setup, time_to_artifact, workers, Checked, Outcome, Shape,
    INTERVAL, LEDGER_TOLERANCE, PER_LAYER, TAGGING,
};

/// The observer group attached to one replay of a differencing round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Attach {
    Bare,
    Golden,
    Tea,
    Nci,
    Tagging,
    /// Every scheme observer at once (a non-first cell of the engine).
    Schemes,
}

impl Attach {
    const ROUND: [Attach; 6] = [
        Attach::Bare,
        Attach::Golden,
        Attach::Tea,
        Attach::Nci,
        Attach::Tagging,
        Attach::Schemes,
    ];

    fn span(self) -> &'static str {
        match self {
            Attach::Bare => "sim::core.replay",
            Attach::Golden => "core::golden",
            Attach::Tea => "core::tea",
            Attach::Nci => "core::nci",
            Attach::Tagging => "core::tagging",
            Attach::Schemes => "core::observers",
        }
    }

    /// The observers, built the way the engine builds a cell's.
    fn observers(self, seed: u64) -> ObserverSet {
        let timer = || SampleTimer::with_jitter(INTERVAL, INTERVAL / 8, seed);
        let mut set = ObserverSet::new();
        match self {
            Attach::Bare => {}
            Attach::Golden => {
                set.push(AnyObserver::Golden(GoldenReference::new()));
            }
            Attach::Tea => {
                set.push(AnyObserver::for_scheme(Scheme::Tea, timer()));
            }
            Attach::Nci => {
                set.push(AnyObserver::for_scheme(Scheme::NciTea, timer()));
            }
            Attach::Tagging => {
                for s in TAGGING {
                    set.push(AnyObserver::for_scheme(s, timer()));
                }
            }
            Attach::Schemes => {
                for s in tea_exp::ALL_SCHEMES {
                    set.push(AnyObserver::for_scheme(s, timer()));
                }
            }
        }
        set
    }
}

/// One program's layer measurements (host seconds unless noted).
#[derive(Clone, Debug)]
struct ProgramRow {
    name: &'static str,
    /// Cells of this program in the workload.
    cells: usize,
    /// Committed instructions.
    insts: u64,
    /// Simulated cycles, of which `active` were ticked one by one.
    cycles: u64,
    active: u64,
    interp_s: f64,
    capture_s: f64,
    bytes: u64,
    uncompressed: u64,
    blocks: u64,
    decode_s: f64,
    live_s: f64,
    /// Walls of each round, indexed like [`Attach::ROUND`].
    rounds: Vec<[f64; 6]>,
    /// Time-to-artifact of the program's cells on a serial engine.
    serial_s: f64,
}

impl ProgramRow {
    /// Median bare replay over the rounds.
    fn replay_s(&self) -> f64 {
        median(&self.rounds.iter().map(|r| r[0]).collect::<Vec<_>>())
    }

    /// Median over the rounds of wall(timing + `a`) − wall(timing).
    fn marginal(&self, a: Attach) -> f64 {
        let i = a as usize;
        median(&self.rounds.iter().map(|r| r[i] - r[0]).collect::<Vec<_>>())
    }

    fn skip_frac(&self) -> f64 {
        1.0 - self.active as f64 / self.cycles as f64
    }
}

/// Replays `w` once per observer group in `order`, each in its span.
fn round(
    w: &Workload,
    trace: &Arc<CapturedTrace>,
    seed: u64,
    order: &[Attach],
    log: &SpanLog,
    parent: usize,
) -> [f64; 6] {
    let mut walls = [0.0; 6];
    for &a in order {
        let (set, secs) = log.time(a.span(), Some(parent), || {
            let mut set = a.observers(seed);
            let mut core = Core::with_trace(&w.program, Arc::clone(trace), SimConfig::default());
            black_box(core.run_with(&mut set));
            set
        });
        // Dropped outside the span: the engine hands observers to the
        // cell result and frees them after the artifact is written.
        drop(set);
        walls[a as usize] = secs;
    }
    walls
}

/// What one program's measurement returns besides its row.
struct Serial {
    /// The correctness gate on the serial engine run.
    checked: Checked,
    /// [`cell_digest`] of each serial cell, in cell order.
    digests: Vec<u64>,
}

/// Measures one program's layers, then runs its cells on a serial
/// engine. Returns the row, the serial run's verdict and the trace.
fn measure_program(
    w: &Workload,
    cells: &[CellSpec],
    name: &str,
    log: &SpanLog,
    parent: usize,
) -> Result<(ProgramRow, Serial, Arc<CapturedTrace>), String> {
    let pid = log.open("perfbench.program", Some(parent));
    let (insts, interp_s) = log.time("isa::interp", Some(pid), || {
        let mut m = Machine::new(&w.program);
        let n = m.run(u64::MAX);
        (n, m.is_halted())
    });
    if !insts.1 {
        return Err(format!("{}: interpreter did not halt", w.name));
    }
    let (trace, capture_s) = log.time("isa::capture", Some(pid), || {
        CapturedTrace::capture_default(&w.program)
    });
    let trace = Arc::new(trace.ok_or_else(|| format!("{}: capture overflowed", w.name))?);
    let mut buf = Vec::new();
    let (decoded, decode_s) = log.time("isa::capture::codec", Some(pid), || {
        let mut n = 0u64;
        for block in 0..trace.num_blocks() {
            trace.decode_block_into(&w.program, block, &mut buf)?;
            n += buf.len() as u64;
        }
        Ok::<u64, tea_isa::capture::TraceError>(n)
    });
    let decoded = decoded.map_err(|e| format!("{}: decode: {e}", w.name))?;
    if decoded != trace.len() {
        return Err(format!(
            "{}: decoded {decoded} of {} instructions",
            w.name,
            trace.len()
        ));
    }
    let ((stats, breakdown), live_s) = log.time("sim::core.live", Some(pid), || {
        let mut core = Core::new(&w.program, SimConfig::default());
        let stats = core.run_with(&mut ObserverSet::new());
        (stats, core.cycle_breakdown())
    });
    // One round per cell (at least two), each with its cell's seed,
    // alternating the order of the observer groups.
    let reversed: Vec<Attach> = Attach::ROUND.iter().rev().copied().collect();
    let rounds = (0..cells.len().max(2))
        .map(|j| {
            let order = if j % 2 == 0 {
                &Attach::ROUND[..]
            } else {
                &reversed[..]
            };
            round(w, &trace, cells[j % cells.len()].seed, order, log, pid)
        })
        .collect();
    let (serial, serial_s) = log.time("exp::engine.serial", Some(pid), || {
        time_to_artifact(
            &Engine::serial().quiet(),
            &format!("{name}-serial-{}", w.name),
            cells.to_vec(),
        )
    });
    let (serial_run, _, _) = serial?;
    log.close(pid);
    Ok((
        ProgramRow {
            name: w.name,
            cells: cells.len(),
            insts: insts.0,
            cycles: stats.cycles,
            active: breakdown.active_cycles,
            interp_s,
            capture_s,
            bytes: trace.resident_bytes() as u64,
            uncompressed: trace.uncompressed_bytes() as u64,
            blocks: trace.num_blocks() as u64,
            decode_s,
            live_s,
            rounds,
            serial_s,
        },
        Serial {
            checked: check(&serial_run, false),
            digests: serial_run.cells.iter().map(cell_digest).collect(),
        },
        trace,
    ))
}

/// Pairs of replays, sampler off and on, for `recorder.overhead_frac`.
const RECORDER_PAIRS: usize = 6;

/// The flight recorder's overhead: the median over [`RECORDER_PAIRS`]
/// adjacent bare replays of (sampler on − sampler off) ÷ sampler off,
/// alternating which side runs first.
fn recorder_overhead(
    w: &Workload,
    trace: &Arc<CapturedTrace>,
    seed: u64,
    log: &SpanLog,
    parent: usize,
) -> f64 {
    let pid = log.open("obs::series", Some(parent));
    let fracs: Vec<f64> = (0..RECORDER_PAIRS)
        .map(|pair| {
            let mut walls = [0.0; 2];
            for sampled in [pair % 2 == 1, pair % 2 == 0] {
                let sampler = sampled.then(|| Sampler::start(SamplerConfig::default()));
                walls[usize::from(sampled)] = round(w, trace, seed, &[Attach::Bare], log, pid)[0];
                if let Some(s) = sampler {
                    drop(s.stop());
                }
            }
            (walls[1] - walls[0]) / walls[0]
        })
        .collect();
    log.close(pid);
    median(&fracs)
}

/// Maps `f` over `0..n` on `threads` scoped threads, claiming indices
/// in `order`.
fn par_map<T: Send>(
    order: &[usize],
    threads: usize,
    f: impl Fn(usize) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    let next = AtomicUsize::new(0);
    let out: Vec<Mutex<Option<Result<T, String>>>> =
        (0..order.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&at) = order.get(i) else { break };
                let r = f(at);
                *out[at].lock().expect("result slots are written once") = Some(r);
            });
        }
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slots are written once")
                .expect("every index is claimed")
        })
        .collect()
}

/// Keeps the high-water mark of the trace cache's resident-bytes gauge
/// at every engine lifecycle event.
struct ResidentPeak {
    gauge: Arc<Gauge>,
    base: i64,
    peak: AtomicI64,
}

impl ProgressSink for ResidentPeak {
    fn emit(&self, _event: &ProgressEvent) {
        self.peak
            .fetch_max(self.gauge.get() - self.base, Ordering::Relaxed);
    }
}

fn counter(name: &str) -> u64 {
    tea_obs::metrics::global().counter(name).get()
}

fn samples(run: &RunResult, schemes: &[Scheme]) -> f64 {
    run.ok_cells()
        .map(|r| {
            schemes
                .iter()
                .map(|s| r.samples.get(s).copied().unwrap_or(0))
                .sum::<u64>()
        })
        .sum::<u64>() as f64
}

/// Counter names whose deltas over the traced engine run are reported.
fn tracked_counters() -> Vec<String> {
    let mut names = vec![
        "trace_cache.hits".to_string(),
        "trace_cache.misses".to_string(),
    ];
    for s in tea_exp::ALL_SCHEMES {
        names.push(format!("profiler.{}.samples_dropped", s.name()));
    }
    names
}

/// Runs the traced measurement of `shape`.
///
/// # Errors
///
/// A journal, artifact, span-log or trace failure.
#[allow(clippy::too_many_lines)]
pub fn run(shape: Shape, size: Size, seed: u64) -> Result<Outcome, String> {
    let built = setup(shape, size, seed);
    let name = format!("perfbench-{}", shape.name());
    let threads = workers();
    let log = SpanLog::new();
    let root = log.open("perfbench.traced", None);

    // 1. Timed engine run.
    let (timed_run, timed_s, _) = time_to_artifact(&built.engine, &name, built.cells.clone())?;

    // 2. Traced engine run.
    let recorder = Arc::new(ProgressRecorder::new());
    let gauge = tea_obs::metrics::global().gauge("trace_cache.resident_bytes");
    let peak = Arc::new(ResidentPeak {
        base: gauge.get(),
        gauge,
        peak: AtomicI64::new(0),
    });
    let engine = built
        .engine
        .clone()
        .progress_sink(Arc::clone(&recorder) as Arc<dyn ProgressSink>)
        .progress_sink(Arc::clone(&peak) as Arc<dyn ProgressSink>);
    let counters = tracked_counters();
    let before: Vec<u64> = counters.iter().map(|c| counter(c)).collect();
    let queued_ns = tea_obs::now_ns();
    let (run, engine_s) = log.time("exp::engine", Some(root), || {
        engine.run_journaled(&name, built.cells.clone())
    });
    let run = run.map_err(|e| format!("journal: {e}"))?;
    let (path, artifact_s) = log.time("exp::artifact", Some(root), || run.write_artifact());
    let path = path.map_err(|e| format!("artifact: {e}"))?;
    let artifact_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let delta: Vec<f64> = counters
        .iter()
        .zip(&before)
        .map(|(c, b)| (counter(c) - b) as f64)
        .collect();
    let traced_s = engine_s + artifact_s;
    let schedule = recorder.cells();
    let busy: f64 = schedule
        .iter()
        .map(|c| (c.end_ns - c.start_ns) as f64 / 1e9)
        .sum();
    let waits: Vec<f64> = schedule
        .iter()
        .map(|c| c.start_ns.saturating_sub(queued_ns) as f64 / 1e9)
        .collect();
    let mut goldens: Vec<*const GoldenReference> = run
        .ok_cells()
        .filter_map(|r| r.golden.as_ref().map(Arc::as_ptr))
        .collect();
    goldens.sort_unstable();
    goldens.dedup();

    // 3. Analysis and journal writes of the traced run's cells.
    let (errors, analysis_s) = log.time("core::analysis", Some(root), || {
        let mut sum = 0.0;
        for r in run.ok_cells() {
            for s in &r.spec.schemes {
                sum += r.error(*s, Granularity::Instruction).unwrap_or(0.0);
            }
        }
        sum
    });
    black_box(errors);
    let (journal, journal_s) = log.time("exp::journal", Some(root), || {
        let journal = Journal::create(&format!("{name}-ledger"))?;
        for cell in &run.cells {
            journal.record(&JournalEntry::of(cell));
        }
        Ok::<(), std::io::Error>(())
    });
    journal.map_err(|e| format!("journal: {e}"))?;

    // 4. Per-program layers, each followed by its serial engine run;
    // longest program first, so the threads finish together.
    let k = shape.seeds_per_program();
    let phase = log.open("perfbench.layers", Some(root));
    let mut order: Vec<usize> = (0..built.programs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(timed_run.cells[i * k].wall));
    let measured = par_map(&order, threads, |i| {
        let cells = &built.cells[i * k..(i + 1) * k];
        measure_program(&built.programs[i], cells, &name, &log, phase)
    })?;
    log.close(phase);
    let mut rows = Vec::with_capacity(measured.len());
    let mut serials = Vec::with_capacity(measured.len());
    let mut traces = Vec::with_capacity(measured.len());
    for (row, serial, trace) in measured {
        rows.push(row);
        serials.push(serial);
        traces.push(trace);
    }

    // 5. Recorder overhead, on the program with the shortest replay.
    let shortest = (0..rows.len())
        .min_by(|&a, &b| rows[a].replay_s().total_cmp(&rows[b].replay_s()))
        .expect("every shape has programs");
    let recorder_frac = recorder_overhead(
        &built.programs[shortest],
        &traces[shortest],
        built.cells[shortest * k].seed,
        &log,
        root,
    );
    log.close(root);

    // Layer metrics.
    let per_cell = |f: &dyn Fn(&ProgramRow) -> f64| -> f64 {
        rows.iter().map(|r| r.cells as f64 * f(r)).sum()
    };
    let once = |f: &dyn Fn(&ProgramRow) -> f64| -> f64 { rows.iter().map(f).sum() };
    let interp = once(&|r| r.interp_s);
    let capture = once(&|r| r.capture_s);
    let decode = per_cell(&|r| r.decode_s);
    let timing = per_cell(&ProgramRow::replay_s);
    let active = per_cell(&|r| r.active as f64);
    let cycles = per_cell(&|r| r.cycles as f64);
    let golden = once(&|r| r.marginal(Attach::Golden));
    let tea = per_cell(&|r| r.marginal(Attach::Tea));
    let nci = per_cell(&|r| r.marginal(Attach::Nci));
    let tagging = per_cell(&|r| r.marginal(Attach::Tagging));
    // What the schemes cost together beyond the sum of their separate
    // marginals: shared delivery, counted once per pass, not per scheme.
    let shared = per_cell(&|r| r.marginal(Attach::Schemes)) - tea - nci - tagging;
    let serial_s = once(&|r| r.serial_s);
    let ledger = [
        ("isa::interp", interp),
        ("isa::capture (encode)", capture - interp),
        ("isa::capture::codec (decode)", decode),
        ("sim::core (timing model)", timing - decode),
        ("core::golden", golden),
        ("core::tea", tea),
        ("core::nci", nci),
        ("core::tagging", tagging),
        ("core::observers (shared delivery)", shared),
        ("core analysis (journal + artifact)", 2.0 * analysis_s),
        ("exp::journal (self)", journal_s - analysis_s),
        ("exp::artifact (self)", artifact_s - analysis_s),
    ];
    let ledger_sum: f64 = ledger.iter().map(|(_, s)| s).sum();
    let unexplained = (serial_s - ledger_sum) / serial_s;

    let values: [f64; PER_LAYER.len()] = [
        interp,
        once(&|r| r.insts as f64) / interp,
        capture,
        once(&|r| r.bytes as f64),
        once(&|r| r.uncompressed as f64) / once(&|r| r.bytes as f64),
        decode,
        per_cell(&|r| r.blocks as f64),
        timing,
        per_cell(&|r| r.live_s),
        active,
        1.0 - active / cycles,
        (timing - decode) * 1e9 / active,
        golden,
        goldens.len() as f64 / rows.len() as f64,
        tea,
        samples(&run, &[Scheme::Tea]),
        delta[2],
        nci,
        samples(&run, &[Scheme::NciTea]),
        delta[3],
        tagging,
        samples(&run, &TAGGING),
        delta[4..8].iter().sum(),
        shared,
        analysis_s,
        busy / (threads as f64 * engine_s),
        median(&waits),
        delta[0],
        delta[1],
        peak.peak.load(Ordering::Relaxed) as f64,
        journal_s,
        artifact_s,
        artifact_bytes as f64,
        recorder_frac,
        serial_s,
        ledger_sum,
        unexplained,
        (capture + golden) / ledger_sum,
        (traced_s - timed_s) / timed_s,
    ];

    // Correctness: the gate on every run; timed and traced digests
    // agree, and every serial cell matches its cell of the traced run.
    let ordering = shape == Shape::SuiteRef;
    let mut broken = Vec::new();
    for (i, serial) in serials.iter().enumerate() {
        for (j, d) in serial.digests.iter().enumerate() {
            let cell = &run.cells[i * k + j];
            if cell_digest(cell) != *d {
                broken.push(format!(
                    "{} cell {j}: serial run differs from the traced run",
                    cell.spec.workload
                ));
            }
        }
    }
    let checks: Vec<Checked> = [check(&timed_run, ordering), check(&run, ordering)]
        .into_iter()
        .chain(serials.into_iter().map(|s| s.checked))
        .collect();
    broken.extend(checks.iter().flat_map(|c| c.broken.clone()));
    let digest = checks[0].digest;
    if checks[1].digest != digest {
        broken.push(format!(
            "traced run digest {:016x} differs from the timed run's {digest:016x}",
            checks[1].digest
        ));
    }
    let attempted: u64 = checks.iter().map(|c| c.attempted).sum();
    let failed: u64 = checks.iter().map(|c| c.failed).sum();

    report(shape, size, &rows, &ledger, serial_s, unexplained);
    let dir = tea_exp::results_dir();
    log.write(&dir.join(format!("{name}.spans.json")))
        .map_err(|e| format!("span log: {e}"))?;
    write_ledger(
        &dir.join(format!("{name}.ledger.json")),
        &rows,
        &ledger,
        serial_s,
    )
    .map_err(|e| format!("ledger: {e}"))?;

    Ok(Outcome {
        correct: broken.is_empty() && failed == 0,
        attempted,
        failed,
        metrics: PER_LAYER.into_iter().zip(values).collect(),
        digest,
        broken,
    })
}

/// Prints the per-program rows and the ledger to standard error.
fn report(
    shape: Shape,
    size: Size,
    rows: &[ProgramRow],
    ledger: &[(&str, f64)],
    serial_s: f64,
    unexplained: f64,
) {
    eprintln!(
        "[perfbench] {} per-program layers, {size:?} inputs (host ms per cell; skip_frac is simulated)",
        shape.name()
    );
    eprintln!(
        "{:<11} {:>5} {:>9} {:>6} {:>7} {:>7} {:>7} {:>8} {:>8} {:>8} {:>7} {:>7} {:>8} {:>8}",
        "program",
        "cells",
        "cycles",
        "skip",
        "interp",
        "capture",
        "decode",
        "live",
        "replay",
        "+golden",
        "+tea",
        "+nci",
        "+tagging",
        "+schemes"
    );
    for r in rows {
        let ms = |s: f64| s * 1e3;
        eprintln!(
            "{:<11} {:>5} {:>9} {:>6.3} {:>7.1} {:>7.1} {:>7.1} {:>8.1} {:>8.1} {:>8.1} {:>7.1} {:>7.1} {:>8.1} {:>8.1}",
            r.name,
            r.cells,
            r.cycles,
            r.skip_frac(),
            ms(r.interp_s),
            ms(r.capture_s),
            ms(r.decode_s),
            ms(r.live_s),
            ms(r.replay_s()),
            ms(r.marginal(Attach::Golden)),
            ms(r.marginal(Attach::Tea)),
            ms(r.marginal(Attach::Nci)),
            ms(r.marginal(Attach::Tagging)),
            ms(r.marginal(Attach::Schemes)),
        );
    }
    let sum: f64 = ledger.iter().map(|(_, s)| s).sum();
    eprintln!("[perfbench] ledger (host s, serial engine run {serial_s:.3} s)");
    for (layer, s) in ledger {
        eprintln!("  {layer:<36} {s:>8.3}  {:>5.1}%", 100.0 * s / sum);
    }
    let verdict = if unexplained.abs() <= LEDGER_TOLERANCE {
        "within"
    } else {
        "OUTSIDE"
    };
    eprintln!(
        "  {:<36} {sum:>8.3}  unexplained {:+.1}% ({verdict} the ±{:.0}% tolerance)",
        "sum",
        100.0 * unexplained,
        100.0 * LEDGER_TOLERANCE
    );
}

/// Writes the per-program rows and the ledger as JSON.
fn write_ledger(
    path: &Path,
    rows: &[ProgramRow],
    ledger: &[(&str, f64)],
    serial_s: f64,
) -> std::io::Result<()> {
    let rows = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("program", Json::Str(r.name.to_string())),
                ("cells", Json::UInt(r.cells as u64)),
                ("cycles", Json::UInt(r.cycles)),
                ("skip_frac", Json::Num(r.skip_frac())),
                ("interp_s", Json::Num(r.interp_s)),
                ("capture_s", Json::Num(r.capture_s)),
                ("decode_s", Json::Num(r.decode_s)),
                ("live_s", Json::Num(r.live_s)),
                ("replay_s", Json::Num(r.replay_s())),
                ("golden_marginal_s", Json::Num(r.marginal(Attach::Golden))),
                ("tea_marginal_s", Json::Num(r.marginal(Attach::Tea))),
                ("nci_marginal_s", Json::Num(r.marginal(Attach::Nci))),
                ("tagging_marginal_s", Json::Num(r.marginal(Attach::Tagging))),
                ("schemes_marginal_s", Json::Num(r.marginal(Attach::Schemes))),
                ("serial_s", Json::Num(r.serial_s)),
                (
                    "rounds_s",
                    Json::Arr(
                        r.rounds
                            .iter()
                            .map(|w| Json::Arr(w.iter().map(|s| Json::Num(*s)).collect()))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("schema", Json::Str("tea-perfbench-ledger/v1".to_string())),
        ("serial_wall_s", Json::Num(serial_s)),
        (
            "ledger",
            Json::Obj(
                ledger
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        ("programs", Json::Arr(rows)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.render_pretty())
}
