//! The timed run: end-to-end metrics with tracing and the recorder off.
//!
//! The workload runs to a written artifact again and again while
//! another repetition fits in the run's seconds (at least [`MIN_REPS`]
//! times). After each repetition, set-up (programs, cell specs, engine)
//! repeats for a window of [`SETUP_SECONDS`].
//!
//! The host's speed moves by tens of percent over seconds and minutes,
//! with the other tenants of its machine, so raw host times of the same
//! code spread past any useful bound. A [`Probe`] runs beside the whole
//! run, and every host time is divided by the host's slowdown over the
//! window it was measured in ([`crate::calib`]): a repetition's wall and
//! its cells' walls by the slowdown during that repetition, set-up by
//! the run's. The host-time metrics are therefore in reference-host
//! seconds, the time the work would take on the quiet host the probe's
//! references were taken on.
//! `wall_s` is the median repetition so scaled; the raw walls and the
//! slowdowns are printed on standard error.

use std::hint::black_box;
use std::time::Instant;

use tea_workloads::Size;

use crate::calib::Probe;
use crate::{check, median, peak_rss_mb, setup, time_to_artifact, Outcome, Shape, END_TO_END};

/// Fewest set-up repetitions per window.
pub const SETUP_REPS: usize = 5;

/// Host seconds a set-up window keeps repeating for, so that a set-up
/// of tens of microseconds still yields a steady median.
pub const SETUP_SECONDS: f64 = 0.25;

/// Fewest timed repetitions per run, however short `--seconds` is.
pub const MIN_REPS: usize = 3;

/// Repeats set-up for one window; returns the median set-up seconds.
fn setup_window(shape: Shape, size: Size, seed: u64) -> f64 {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t0 = Instant::now();
        let built = black_box(setup(shape, size, seed));
        walls.push(t0.elapsed().as_secs_f64());
        drop(built);
    }
    median(&walls)
}

/// One repetition of the workload.
struct Rep {
    /// Seconds since the run's start at which it began.
    start: f64,
    /// Time-to-artifact, raw host seconds.
    wall: f64,
    /// Σ simulated cycles of its ok cells.
    cycles: u64,
    /// Σ per-cell host seconds of its ok cells.
    cell_wall: f64,
}

/// What the repetitions measured, before scaling.
#[derive(Default)]
struct Measured {
    reps: Vec<Rep>,
    setup_windows: Vec<f64>,
    attempted: u64,
    failed: u64,
    broken: Vec<String>,
    digest: Option<u64>,
    tea_error_pct: f64,
}

/// Repeats the workload for at least `seconds` from `start`.
fn repeat(
    shape: Shape,
    size: Size,
    seed: u64,
    seconds: f64,
    start: Instant,
) -> Result<Measured, String> {
    let built = setup(shape, size, seed);
    let name = format!("perfbench-{}", shape.name());
    let mut m = Measured::default();
    let typical = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall).collect::<Vec<_>>());
    // After the minimum, start another repetition only if it is likely
    // to end within the run's seconds.
    while m.reps.len() < MIN_REPS || start.elapsed().as_secs_f64() + typical(&m.reps) <= seconds {
        let cells = built.cells.clone();
        let began = start.elapsed().as_secs_f64();
        let (run, wall, _) = time_to_artifact(&built.engine, &name, cells)?;
        let mut rep = Rep {
            start: began,
            wall,
            cycles: 0,
            cell_wall: 0.0,
        };
        for cell in &run.cells {
            if let Some(r) = cell.result() {
                rep.cycles += r.stats.cycles;
                rep.cell_wall += cell.wall.as_secs_f64();
            }
        }
        m.reps.push(rep);
        m.setup_windows.push(setup_window(shape, size, seed));
        let checked = check(&run, shape == Shape::SuiteRef);
        m.attempted += checked.attempted;
        m.failed += checked.failed;
        m.tea_error_pct = checked.tea_error_pct();
        m.broken.extend(checked.broken);
        match m.digest {
            None => m.digest = Some(checked.digest),
            Some(d) if d != checked.digest => m.broken.push(format!(
                "repetition {} digest {:016x} differs from {d:016x}",
                m.reps.len(),
                checked.digest
            )),
            Some(_) => {}
        }
    }
    Ok(m)
}

/// Runs `shape` for at least `seconds` and reports the end-to-end
/// metrics.
///
/// # Errors
///
/// A journal, artifact or `/proc` read failure.
pub fn run(shape: Shape, size: Size, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let start = Instant::now();
    let probe = Probe::start(start);
    let measured = repeat(shape, size, seed, seconds, start);
    let samples = probe.finish();
    let m = measured?;
    let slowdown: Vec<f64> = m
        .reps
        .iter()
        .map(|r| samples.slowdown(r.start, r.start + r.wall))
        .collect();
    let walls: Vec<f64> = m
        .reps
        .iter()
        .zip(&slowdown)
        .map(|(r, f)| r.wall / f)
        .collect();
    let cycles: u64 = m.reps.iter().map(|r| r.cycles).sum();
    let cell_wall: f64 = m
        .reps
        .iter()
        .zip(&slowdown)
        .map(|(r, f)| r.cell_wall / f)
        .sum();
    let setup_raw = m.setup_windows.iter().sum::<f64>() / m.setup_windows.len() as f64;
    let values: [f64; END_TO_END.len()] = [
        median(&walls),
        cycles as f64 / cell_wall,
        setup_raw / samples.overall(),
        peak_rss_mb()?,
        (m.attempted - m.failed) as f64 / m.attempted as f64,
        m.tea_error_pct,
    ];
    for ((r, f), i) in m.reps.iter().zip(&slowdown).zip(1..) {
        eprintln!(
            "[perfbench] {} repetition {i}: {:.4} s raw, host slowdown {f:.4}, {:.4} s scaled",
            shape.name(),
            r.wall,
            r.wall / f
        );
    }
    eprintln!(
        "[perfbench] {} set-up {setup_raw:.9} s raw; {} probe samples, overall slowdown {:.4}",
        shape.name(),
        samples.len(),
        samples.overall()
    );
    Ok(Outcome {
        correct: m.broken.is_empty() && m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics: END_TO_END.into_iter().zip(values).collect(),
        digest: m.digest.expect("at least one repetition ran"),
        broken: m.broken,
    })
}
