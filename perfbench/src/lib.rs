//! # tea-perfbench
//!
//! The repository benchmark. It measures what a user of the experiment
//! engine waits for — time-to-artifact of an experiment matrix, from
//! built cell specs through `Engine::run_journaled` to
//! `RunResult::write_artifact` returning, the `tea-cli suite` path —
//! on three experiment shapes ([`Shape`]). A separate traced run
//! ([`traced`]) breaks the same cells down into a per-layer cost
//! ledger built by pairwise differencing, and reconciles the ledger
//! with a serial engine run.
//!
//! Everything goes through the public APIs of the `tea-*` crates; the
//! benchmark adds no hooks to them. Host time and simulated time are
//! kept apart: every metric names its clock ([`Clock`]).
//!
//! See `perfbench/README.md` for why each shape exists and which layer
//! metric should move which end-to-end metric.

#![warn(missing_docs)]

pub mod calib;
pub mod spans;
pub mod timed;
pub mod traced;

use std::cmp::Ordering;
use std::path::PathBuf;
use std::time::Instant;

use tea_core::pics::Granularity;
use tea_core::schemes::Scheme;
use tea_exp::json::Json;
use tea_exp::{CellOutcome, CellSpec, Engine, RunResult};
use tea_workloads::{
    all_workloads, deepsjeng, exchange2, fotonik3d, gcc, imagick, leela, mcf, nab, omnetpp, x264,
    xalancbmk, Size, Workload,
};

/// Sampling interval of every cell (cycles).
pub const INTERVAL: u64 = 512;

/// Cells per program in a sweep: one per derived seed, all in one
/// engine run. Four, as in the seed matrix of `tea-cli bench`.
pub const SWEEP_SEEDS: usize = 4;

/// Upper bound on engine workers. The engine uses
/// `min(MAX_WORKERS, available parallelism)`, so a larger host runs
/// the same schedule shape as the two-core machine the bounds were set
/// on.
pub const MAX_WORKERS: usize = 2;

/// Scheme groups the ledger reports one marginal cost for.
pub const TAGGING: [Scheme; 4] = [
    Scheme::Ibs,
    Scheme::Spe,
    Scheme::Ris,
    Scheme::TeaDispatchTagged,
];

/// One benchmark workload: an experiment shape over fixed programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// All 18 programs, one cell each: what `tea-cli suite --size ref`
    /// and the figure harnesses pay. Interpretation, capture and the
    /// golden observer are paid on every cell; the straggler matters.
    SuiteRef,
    /// The compute-dense programs at [`SWEEP_SEEDS`] seeds each:
    /// capture and golden amortize, so per-cell time is the active-cycle
    /// timing model, replay decode and the scheme observers.
    SweepDense,
    /// The stall-heavy programs at [`SWEEP_SEEDS`] seeds each: stall
    /// folds and sample attribution dominate; fast-forward skips most
    /// cycles.
    SweepStall,
}

impl Shape {
    /// Every shape, in the order the benchmark lists them.
    pub const ALL: [Shape; 3] = [Shape::SuiteRef, Shape::SweepDense, Shape::SweepStall];

    /// The workload name used on the command line and in
    /// `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Shape::SuiteRef => "suite-ref",
            Shape::SweepDense => "sweep-dense",
            Shape::SweepStall => "sweep-stall",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Shape> {
        Shape::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Cells per program.
    #[must_use]
    pub fn seeds_per_program(self) -> usize {
        match self {
            Shape::SuiteRef => 1,
            Shape::SweepDense | Shape::SweepStall => SWEEP_SEEDS,
        }
    }

    /// Builds the shape's programs. The suite keeps suite order, as
    /// `tea-cli suite` runs it; a sweep lists its programs longest
    /// first (Ref-size cell wall), so its straggler is a scheduling
    /// property of the engine rather than of the list order.
    #[must_use]
    pub fn programs(self, size: Size) -> Vec<Workload> {
        match self {
            Shape::SuiteRef => all_workloads(size),
            Shape::SweepDense => vec![
                nab::workload(size),
                exchange2::workload(size),
                x264::workload(size),
                leela::workload(size),
                imagick::workload(size),
                fotonik3d::workload(size),
            ],
            Shape::SweepStall => vec![
                gcc::workload(size),
                deepsjeng::workload(size),
                xalancbmk::workload(size),
                omnetpp::workload(size),
                mcf::workload(size),
            ],
        }
    }
}

/// The engine worker count: at most [`MAX_WORKERS`], at most the
/// host's available parallelism.
#[must_use]
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(MAX_WORKERS)
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sampling-jitter seed of cell `rep` of program `program`,
/// derived from the workload seed.
#[must_use]
pub fn cell_seed(seed: u64, program: usize, rep: usize) -> u64 {
    splitmix64(splitmix64(seed) ^ ((program as u64) << 32 | rep as u64))
}

/// What a timed run builds before its clock starts.
pub struct Setup {
    /// The shape's programs.
    pub programs: Vec<Workload>,
    /// Cell specs, program-major.
    pub cells: Vec<CellSpec>,
    /// The engine the cells run on.
    pub engine: Engine,
}

/// Builds the programs, the cell specs and the engine of `shape`.
#[must_use]
pub fn setup(shape: Shape, size: Size, seed: u64) -> Setup {
    let programs = shape.programs(size);
    let k = shape.seeds_per_program();
    let cells = programs
        .iter()
        .enumerate()
        .flat_map(|(i, w)| {
            (0..k).map(move |j| {
                CellSpec::for_workload(w)
                    .interval(INTERVAL)
                    .seed(cell_seed(seed, i, j))
            })
        })
        .collect();
    Setup {
        programs,
        cells,
        engine: Engine::new(workers()).quiet(),
    }
}

/// Runs `cells` on `engine` to a written artifact: the time-to-artifact
/// path. Returns the run, the host seconds it took, and the artifact's
/// size in bytes.
///
/// # Errors
///
/// The journal or artifact I/O error.
pub fn time_to_artifact(
    engine: &Engine,
    name: &str,
    cells: Vec<CellSpec>,
) -> Result<(RunResult, f64, u64), String> {
    let t0 = Instant::now();
    let run = engine
        .run_journaled(name, cells)
        .map_err(|e| format!("journal: {e}"))?;
    let path = run.write_artifact().map_err(|e| format!("artifact: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path)
        .map_err(|e| format!("artifact {}: {e}", path.display()))?
        .len();
    Ok((run, wall, bytes))
}

/// FNV-1a 64 of `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a 64 of one cell's artifact entry without its wall-clock
/// fields: equal digests mean the cell simulated identically, whichever
/// engine run it came from.
#[must_use]
pub fn cell_digest(cell: &CellOutcome) -> u64 {
    let det = cell.to_json().without_keys(&["wall_seconds", "sim_mips"]);
    fnv1a64(det.render().as_bytes())
}

/// The correctness gate's verdict on one engine run.
#[derive(Clone, Debug)]
pub struct Checked {
    /// FNV-1a 64 of `RunResult::deterministic_json()`: equal digests
    /// mean identical simulated results.
    pub digest: u64,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that did not finish `ok`.
    pub failed: u64,
    /// Mean instruction-level error per scheme over the ok cells
    /// (fraction), in [`tea_exp::ALL_SCHEMES`] order.
    pub mean_error: Vec<(Scheme, f64)>,
    /// Broken invariants; any entry fails the run.
    pub broken: Vec<String>,
}

impl Checked {
    /// Mean TEA instruction-level error, percent.
    #[must_use]
    pub fn tea_error_pct(&self) -> f64 {
        self.error_of(Scheme::Tea) * 100.0
    }

    fn error_of(&self, scheme: Scheme) -> f64 {
        self.mean_error
            .iter()
            .find(|(s, _)| *s == scheme)
            .map_or(f64::NAN, |(_, e)| *e)
    }
}

/// Checks one run: every ok cell's golden reference attributes exactly
/// its cycles, and with `ordering` (a whole `suite-ref` run) the
/// aggregate error orders TEA < NCI < each tagging scheme. A cell that
/// is not `ok` counts as failed.
#[must_use]
pub fn check(run: &RunResult, ordering: bool) -> Checked {
    let mut broken = Vec::new();
    let attempted = run.cells.len() as u64;
    let mut failed = 0;
    let mut sums = vec![0.0; tea_exp::ALL_SCHEMES.len()];
    let mut ok = 0usize;
    for cell in &run.cells {
        let Some(r) = cell.result() else {
            failed += 1;
            continue;
        };
        ok += 1;
        match &r.golden {
            Some(g) if g.total_cycles() == r.stats.cycles => {
                let total = g.pics().total();
                if (total - r.stats.cycles as f64).abs() > 1e-6 * r.stats.cycles as f64 {
                    broken.push(format!(
                        "{}: golden PICS total {total} != {} cycles",
                        r.spec.workload, r.stats.cycles
                    ));
                }
            }
            Some(g) => broken.push(format!(
                "{}: golden attributed {} of {} cycles",
                r.spec.workload,
                g.total_cycles(),
                r.stats.cycles
            )),
            None => broken.push(format!("{}: no golden reference", r.spec.workload)),
        }
        for (sum, s) in sums.iter_mut().zip(tea_exp::ALL_SCHEMES) {
            *sum += r.error(s, Granularity::Instruction).unwrap_or(f64::NAN);
        }
    }
    let mean_error: Vec<(Scheme, f64)> = tea_exp::ALL_SCHEMES
        .into_iter()
        .zip(sums)
        .map(|(s, sum)| (s, sum / ok.max(1) as f64))
        .collect();
    let mut checked = Checked {
        digest: fnv1a64(run.deterministic_json().render().as_bytes()),
        attempted,
        failed,
        mean_error,
        broken,
    };
    if ordering && ok > 0 {
        let (tea, nci) = (
            checked.error_of(Scheme::Tea),
            checked.error_of(Scheme::NciTea),
        );
        if tea.partial_cmp(&nci) != Some(Ordering::Less) {
            checked
                .broken
                .push(format!("aggregate TEA error {tea} not below NCI {nci}"));
        }
        for s in TAGGING {
            let e = checked.error_of(s);
            if nci.partial_cmp(&e) != Some(Ordering::Less) {
                checked.broken.push(format!(
                    "aggregate NCI error {nci} not below {} {e}",
                    s.name()
                ));
            }
        }
    }
    checked
}

/// Which clock a metric is measured on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host time: what the simulator takes to run.
    Host,
    /// Simulated time: what the modelled core would take.
    Sim,
    /// Neither: a count, a size or a ratio of like quantities.
    None,
}

impl Clock {
    /// The label printed beside a metric.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host time",
            Clock::Sim => "simulated time",
            Clock::None => "no clock",
        }
    }
}

/// A metric's name, unit and clock.
pub type MetricSpec = (&'static str, &'static str, Clock);

/// End-to-end metrics, reported by every timed run (`--trace 0`).
pub const END_TO_END: [MetricSpec; 6] = [
    ("wall_s", "s", Clock::Host),
    ("sim_cycles_per_s", "cycles/s", Clock::Host),
    ("setup_s", "s", Clock::Host),
    ("peak_rss_mb", "MiB", Clock::None),
    ("ok_frac", "ratio", Clock::None),
    ("tea_error_pct", "%", Clock::Sim),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`).
pub const PER_LAYER: [MetricSpec; 39] = [
    ("interp.wall_s", "s", Clock::Host),
    ("interp.insts_per_s", "insts/s", Clock::Host),
    ("capture.wall_s", "s", Clock::Host),
    ("capture.bytes", "bytes", Clock::None),
    ("capture.compression", "ratio", Clock::None),
    ("decode.wall_s", "s", Clock::Host),
    ("decode.blocks", "count", Clock::None),
    ("timing.wall_s", "s", Clock::Host),
    ("timing.live_wall_s", "s", Clock::Host),
    ("timing.active_cycles", "cycles", Clock::Sim),
    ("timing.skip_frac", "ratio", Clock::Sim),
    ("timing.ns_per_active_cycle", "ns", Clock::Host),
    ("golden.marginal_s", "s", Clock::Host),
    ("golden.computed", "ratio", Clock::None),
    ("tea.marginal_s", "s", Clock::Host),
    ("tea.samples", "count", Clock::None),
    ("tea.samples_dropped", "count", Clock::None),
    ("nci.marginal_s", "s", Clock::Host),
    ("nci.samples", "count", Clock::None),
    ("nci.samples_dropped", "count", Clock::None),
    ("tagging.marginal_s", "s", Clock::Host),
    ("tagging.samples", "count", Clock::None),
    ("tagging.samples_dropped", "count", Clock::None),
    ("observers.shared_s", "s", Clock::Host),
    ("analysis.wall_s", "s", Clock::Host),
    ("engine.worker_util", "ratio", Clock::Host),
    ("engine.queue_wait_p50_s", "s", Clock::Host),
    ("trace_cache.hits", "count", Clock::None),
    ("trace_cache.misses", "count", Clock::None),
    ("trace_cache.resident_bytes", "bytes", Clock::None),
    ("journal.marginal_s", "s", Clock::Host),
    ("artifact.wall_s", "s", Clock::Host),
    ("artifact.bytes", "bytes", Clock::None),
    ("recorder.overhead_frac", "ratio", Clock::Host),
    ("ledger.serial_wall_s", "s", Clock::Host),
    ("ledger.sum_s", "s", Clock::Host),
    ("ledger.unexplained_frac", "ratio", Clock::Host),
    ("ledger.capture_golden_share", "ratio", Clock::Host),
    ("trace.overhead_frac", "ratio", Clock::Host),
];

/// Tolerance on `|ledger.unexplained_frac|`: the share of a serial
/// engine run's wall the differenced ledger may fail to account for.
/// The serial run also pays engine bookkeeping that no ledger line
/// holds, and each layer is timed in single runs on a host whose speed
/// swings by ±25 % from one second to the next, so one program's serial
/// run and its layers can disagree by half. Summed over a workload's
/// programs, the two agreed within this tolerance in the traced runs
/// recorded in `perfbench/README.md`.
pub const LEDGER_TOLERANCE: f64 = 0.25;

/// The result of one benchmark invocation.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Whether every cell finished ok, every invariant held and every
    /// digest agreed.
    pub correct: bool,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that did not finish ok.
    pub failed: u64,
    /// `(spec, value)` for every metric of the run's list.
    pub metrics: Vec<(MetricSpec, f64)>,
    /// Digest of the simulated results, for cross-commit comparison.
    pub digest: u64,
    /// Broken invariants and other findings that fail the run.
    pub broken: Vec<String>,
}

impl Outcome {
    /// The result object printed as the last line of standard output.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|((name, unit, _), v)| {
                            (
                                (*name).to_string(),
                                Json::obj(vec![
                                    ("value", Json::Num(*v)),
                                    ("unit", Json::Str((*unit).to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Runs one invocation: the timed run, or with `trace` the traced run.
/// `seconds` is how long the timed run repeats the workload.
///
/// # Errors
///
/// An I/O failure of the journal, artifact or span log.
pub fn run(
    shape: Shape,
    size: Size,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    if trace {
        traced::run(shape, size, seed)
    } else {
        timed::run(shape, size, seed, seconds)
    }
}

/// Where the benchmark writes its journals, artifacts and span logs
/// when `TEA_RESULTS_DIR` is unset: under the cargo target directory.
#[must_use]
pub fn default_results_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perfbench")
}

/// The median of `values` (NaN when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS: /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM line".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn cell_seeds_differ_by_program_rep_and_workload_seed() {
        let a = cell_seed(1, 0, 0);
        assert_ne!(a, cell_seed(1, 0, 1));
        assert_ne!(a, cell_seed(1, 1, 0));
        assert_ne!(a, cell_seed(2, 0, 0));
        assert_eq!(a, cell_seed(1, 0, 0));
    }
}
