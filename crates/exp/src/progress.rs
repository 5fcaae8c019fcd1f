//! Live progress streaming: a typed event feed of the engine's
//! queued / start / retry / replay-fallback / finish lifecycle plus
//! periodic heartbeats, consumable while a run executes.
//!
//! This is the wire-format precursor to profiling-as-a-service
//! (ROADMAP item 1): a daemon serving runs will speak exactly this
//! event stream to its clients. Two sinks ship here:
//! [`ProgressStream`] serializes each event as one JSON line
//! (`tea-progress/v1`) to a file or stdout, flushed per event so
//! `tail -f` works; [`ProgressRecorder`] keeps the per-cell schedule
//! in memory for the HTML run report.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

use crate::json::Json;

/// Schema identifier written as the stream's header line.
pub const PROGRESS_SCHEMA: &str = "tea-progress/v1";

/// One engine lifecycle event. `ts_ns` is [`tea_obs::now_ns`]
/// (monotonic nanoseconds since the process tracing epoch) on every
/// variant.
#[derive(Clone, Debug)]
pub enum ProgressEvent {
    /// A run is starting.
    RunStart {
        /// Timestamp.
        ts_ns: u64,
        /// Run name.
        name: String,
        /// Total cells in the matrix.
        total: usize,
        /// Worker threads.
        workers: usize,
    },
    /// A cell entered the queue (emitted for every fresh cell at run
    /// start, before any worker claims it).
    CellQueued {
        /// Timestamp.
        ts_ns: u64,
        /// Cell index in matrix order.
        index: usize,
        /// Workload name.
        workload: String,
        /// Config name.
        config: String,
    },
    /// A worker claimed a cell and began executing it.
    CellStart {
        /// Timestamp.
        ts_ns: u64,
        /// Cell index.
        index: usize,
        /// Workload name.
        workload: String,
        /// Config name.
        config: String,
        /// Claiming worker (0-based).
        worker: usize,
    },
    /// A transient cell failure is being retried.
    CellRetry {
        /// Timestamp.
        ts_ns: u64,
        /// Cell index.
        index: usize,
        /// Attempt that just failed (1-based).
        attempt: u32,
        /// Failure kind (`panic`, `injected`, …).
        cause: String,
    },
    /// A cached replay failed integrity checks and the cell fell back
    /// to live interpretation.
    ReplayFallback {
        /// Timestamp.
        ts_ns: u64,
        /// Cell index.
        index: usize,
        /// Workload name.
        workload: String,
    },
    /// A cell finished (any status).
    CellFinish {
        /// Timestamp.
        ts_ns: u64,
        /// Cell index.
        index: usize,
        /// Final status name (`ok`/`restored`/`failed`/…).
        status: String,
        /// Attempts consumed.
        attempts: u32,
        /// Cell wall time, milliseconds.
        wall_ms: f64,
        /// Cells finished so far (including this one).
        done: usize,
        /// Total cells.
        total: usize,
    },
    /// Periodic liveness beacon while the run executes.
    Heartbeat {
        /// Timestamp.
        ts_ns: u64,
        /// Cells finished.
        done: usize,
        /// Total cells.
        total: usize,
        /// Timing passes currently executing (at most one per
        /// worker; the cells of one pass run together).
        running: usize,
        /// Worker threads.
        workers: usize,
        /// `running / workers`, 0..=1.
        utilization: f64,
        /// Estimated seconds to completion from observed cell
        /// latencies; absent until one cell has finished.
        eta_s: Option<f64>,
    },
    /// The run completed; carries every cell's final status in matrix
    /// order (matching the experiment artifact).
    RunFinish {
        /// Timestamp.
        ts_ns: u64,
        /// Run name.
        name: String,
        /// Run wall time, milliseconds.
        wall_ms: f64,
        /// Per-cell status names, index order.
        statuses: Vec<String>,
    },
}

impl ProgressEvent {
    /// The event's wire form (one `tea-progress/v1` JSON object).
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            ProgressEvent::RunStart {
                ts_ns,
                name,
                total,
                workers,
            } => Json::obj(vec![
                ("t", Json::Str("run_start".into())),
                ("ts_ns", Json::UInt(*ts_ns)),
                ("name", Json::Str(name.clone())),
                ("total", Json::UInt(*total as u64)),
                ("workers", Json::UInt(*workers as u64)),
            ]),
            ProgressEvent::CellQueued {
                ts_ns,
                index,
                workload,
                config,
            } => Json::obj(vec![
                ("t", Json::Str("cell_queued".into())),
                ("ts_ns", Json::UInt(*ts_ns)),
                ("index", Json::UInt(*index as u64)),
                ("workload", Json::Str(workload.clone())),
                ("config", Json::Str(config.clone())),
            ]),
            ProgressEvent::CellStart {
                ts_ns,
                index,
                workload,
                config,
                worker,
            } => Json::obj(vec![
                ("t", Json::Str("cell_start".into())),
                ("ts_ns", Json::UInt(*ts_ns)),
                ("index", Json::UInt(*index as u64)),
                ("workload", Json::Str(workload.clone())),
                ("config", Json::Str(config.clone())),
                ("worker", Json::UInt(*worker as u64)),
            ]),
            ProgressEvent::CellRetry {
                ts_ns,
                index,
                attempt,
                cause,
            } => Json::obj(vec![
                ("t", Json::Str("cell_retry".into())),
                ("ts_ns", Json::UInt(*ts_ns)),
                ("index", Json::UInt(*index as u64)),
                ("attempt", Json::UInt(u64::from(*attempt))),
                ("cause", Json::Str(cause.clone())),
            ]),
            ProgressEvent::ReplayFallback {
                ts_ns,
                index,
                workload,
            } => Json::obj(vec![
                ("t", Json::Str("replay_fallback".into())),
                ("ts_ns", Json::UInt(*ts_ns)),
                ("index", Json::UInt(*index as u64)),
                ("workload", Json::Str(workload.clone())),
            ]),
            ProgressEvent::CellFinish {
                ts_ns,
                index,
                status,
                attempts,
                wall_ms,
                done,
                total,
            } => Json::obj(vec![
                ("t", Json::Str("cell_finish".into())),
                ("ts_ns", Json::UInt(*ts_ns)),
                ("index", Json::UInt(*index as u64)),
                ("status", Json::Str(status.clone())),
                ("attempts", Json::UInt(u64::from(*attempts))),
                ("wall_ms", Json::Num(*wall_ms)),
                ("done", Json::UInt(*done as u64)),
                ("total", Json::UInt(*total as u64)),
            ]),
            ProgressEvent::Heartbeat {
                ts_ns,
                done,
                total,
                running,
                workers,
                utilization,
                eta_s,
            } => Json::obj(vec![
                ("t", Json::Str("heartbeat".into())),
                ("ts_ns", Json::UInt(*ts_ns)),
                ("done", Json::UInt(*done as u64)),
                ("total", Json::UInt(*total as u64)),
                ("running", Json::UInt(*running as u64)),
                ("workers", Json::UInt(*workers as u64)),
                ("utilization", Json::Num(*utilization)),
                ("eta_s", eta_s.map_or(Json::Null, Json::Num)),
            ]),
            ProgressEvent::RunFinish {
                ts_ns,
                name,
                wall_ms,
                statuses,
            } => Json::obj(vec![
                ("t", Json::Str("run_finish".into())),
                ("ts_ns", Json::UInt(*ts_ns)),
                ("name", Json::Str(name.clone())),
                ("wall_ms", Json::Num(*wall_ms)),
                (
                    "statuses",
                    Json::Arr(statuses.iter().map(|s| Json::Str(s.clone())).collect()),
                ),
            ]),
        }
    }
}

/// A consumer of [`ProgressEvent`]s. Implementations must tolerate
/// concurrent calls from worker threads and must never panic — a
/// broken pipe loses telemetry, not the run.
pub trait ProgressSink: Send + Sync {
    /// Deliver one event.
    fn emit(&self, event: &ProgressEvent);
}

// ---------------------------------------------------------------------------
// JSON-lines stream
// ---------------------------------------------------------------------------

enum StreamOut {
    File(std::io::BufWriter<std::fs::File>),
    Stdout,
}

/// Streams events as JSON lines to a file or stdout, one line per
/// event, flushed per line so the stream is tailable while the run
/// executes. The first line is the `{"schema":"tea-progress/v1"}`
/// header.
pub struct ProgressStream {
    out: Mutex<StreamOut>,
}

impl ProgressStream {
    /// Create (truncating) the stream file at `path`.
    ///
    /// # Errors
    /// Propagates file-creation and header-write errors.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<ProgressStream> {
        let file = std::fs::File::create(path)?;
        let stream = ProgressStream {
            out: Mutex::new(StreamOut::File(std::io::BufWriter::new(file))),
        };
        stream.write_line(&format!("{{\"schema\":\"{PROGRESS_SCHEMA}\"}}"));
        Ok(stream)
    }

    /// Stream to standard output (`--progress-stream -`).
    #[must_use]
    pub fn stdout() -> ProgressStream {
        let stream = ProgressStream {
            out: Mutex::new(StreamOut::Stdout),
        };
        stream.write_line(&format!("{{\"schema\":\"{PROGRESS_SCHEMA}\"}}"));
        stream
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().unwrap();
        // Telemetry write failures must never take the run down.
        match &mut *out {
            StreamOut::File(f) => {
                let _ = writeln!(f, "{line}");
                let _ = f.flush();
            }
            StreamOut::Stdout => {
                let stdout = std::io::stdout();
                let mut lock = stdout.lock();
                let _ = writeln!(lock, "{line}");
                let _ = lock.flush();
            }
        }
    }
}

impl ProgressSink for ProgressStream {
    fn emit(&self, event: &ProgressEvent) {
        self.write_line(&event.to_json().render());
    }
}

// ---------------------------------------------------------------------------
// In-memory recorder (feeds the HTML report)
// ---------------------------------------------------------------------------

/// One cell's recorded schedule: which worker ran it and when.
#[derive(Clone, Debug)]
pub struct RecordedCell {
    /// Cell index.
    pub index: usize,
    /// Workload name.
    pub workload: String,
    /// Config name.
    pub config: String,
    /// Worker that ran it (0-based).
    pub worker: usize,
    /// Start, monotonic nanoseconds.
    pub start_ns: u64,
    /// End, monotonic nanoseconds (equal to start until finished).
    pub end_ns: u64,
    /// Final status name (empty until finished).
    pub status: String,
}

/// A [`ProgressSink`] that keeps the cell schedule in memory, for
/// building the run report without re-parsing the stream file.
#[derive(Default)]
pub struct ProgressRecorder {
    cells: Mutex<Vec<RecordedCell>>,
}

impl ProgressRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> ProgressRecorder {
        ProgressRecorder::default()
    }

    /// The recorded schedule, one entry per started cell, in start
    /// order.
    #[must_use]
    pub fn cells(&self) -> Vec<RecordedCell> {
        self.cells.lock().unwrap().clone()
    }
}

impl ProgressSink for ProgressRecorder {
    fn emit(&self, event: &ProgressEvent) {
        let mut cells = self.cells.lock().unwrap();
        match event {
            ProgressEvent::CellStart {
                ts_ns,
                index,
                workload,
                config,
                worker,
            } => cells.push(RecordedCell {
                index: *index,
                workload: workload.clone(),
                config: config.clone(),
                worker: *worker,
                start_ns: *ts_ns,
                end_ns: *ts_ns,
                status: String::new(),
            }),
            ProgressEvent::CellFinish {
                ts_ns,
                index,
                status,
                ..
            } => {
                if let Some(cell) = cells.iter_mut().rev().find(|c| c.index == *index) {
                    cell.end_ns = *ts_ns;
                    cell.status = status.clone();
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Per-thread sink handoff for emission points below the Engine
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: std::cell::RefCell<Vec<std::sync::Arc<dyn ProgressSink>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Install `sinks` as the calling thread's progress sinks for the
/// duration of the returned guard. Free functions deep in the cell
/// path ([`emit_current`]) reach them without threading a parameter
/// through `catch_unwind`.
pub(crate) fn install_current(sinks: &[std::sync::Arc<dyn ProgressSink>]) -> CurrentGuard {
    CURRENT.with(|c| *c.borrow_mut() = sinks.to_vec());
    CurrentGuard
}

pub(crate) struct CurrentGuard;

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.borrow_mut().clear());
    }
}

/// Emit through the calling thread's installed sinks (no-op when none
/// are installed).
pub(crate) fn emit_current(event: &ProgressEvent) {
    CURRENT.with(|c| {
        for sink in c.borrow().iter() {
            sink.emit(event);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_their_wire_form() {
        let e = ProgressEvent::CellFinish {
            ts_ns: 12,
            index: 3,
            status: "ok".to_string(),
            attempts: 2,
            wall_ms: 1.5,
            done: 4,
            total: 8,
        };
        assert_eq!(
            e.to_json().render(),
            "{\"t\":\"cell_finish\",\"ts_ns\":12,\"index\":3,\"status\":\"ok\",\
             \"attempts\":2,\"wall_ms\":1.5,\"done\":4,\"total\":8}"
        );

        let hb = ProgressEvent::Heartbeat {
            ts_ns: 99,
            done: 1,
            total: 4,
            running: 3,
            workers: 4,
            utilization: 0.75,
            eta_s: None,
        };
        assert!(hb.to_json().render().contains("\"eta_s\":null"));

        let fin = ProgressEvent::RunFinish {
            ts_ns: 100,
            name: "suite".to_string(),
            wall_ms: 10.0,
            statuses: vec!["ok".to_string(), "failed".to_string()],
        };
        assert!(fin
            .to_json()
            .render()
            .contains("\"statuses\":[\"ok\",\"failed\"]"));
    }

    #[test]
    fn recorder_tracks_cell_schedule() {
        let rec = ProgressRecorder::new();
        rec.emit(&ProgressEvent::CellStart {
            ts_ns: 10,
            index: 0,
            workload: "lbm".to_string(),
            config: "default".to_string(),
            worker: 1,
        });
        rec.emit(&ProgressEvent::Heartbeat {
            ts_ns: 15,
            done: 0,
            total: 1,
            running: 1,
            workers: 2,
            utilization: 0.5,
            eta_s: None,
        });
        rec.emit(&ProgressEvent::CellFinish {
            ts_ns: 20,
            index: 0,
            status: "ok".to_string(),
            attempts: 1,
            wall_ms: 0.01,
            done: 1,
            total: 1,
        });
        let cells = rec.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].worker, 1);
        assert_eq!(cells[0].start_ns, 10);
        assert_eq!(cells[0].end_ns, 20);
        assert_eq!(cells[0].status, "ok");
    }

    #[test]
    fn stream_writes_header_and_lines() {
        let dir = std::env::temp_dir().join(format!(
            "tea-progress-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.jsonl");
        {
            let stream = ProgressStream::create(&path).unwrap();
            stream.emit(&ProgressEvent::RunStart {
                ts_ns: 1,
                name: "t".to_string(),
                total: 2,
                workers: 1,
            });
        }
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"schema\":\"tea-progress/v1\"}");
        assert!(lines[1].starts_with("{\"t\":\"run_start\""));
        for line in &lines {
            crate::json::parse(line).expect("every line is valid JSON");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
