//! Host-speed probe: how fast the host runs two fixed kernels right now.
//!
//! The benchmark's host is a share of a machine whose other tenants
//! slow it down by tens of percent, for seconds to minutes at a time,
//! with process CPU time equal to wall time and no steal: the cores and
//! caches run slower, they are not taken away. A [`Probe`] runs beside
//! the measured work: every [`PERIOD`] a background thread runs two
//! kernels and records the thread CPU time each took — a
//! read-modify-write pass over a [`STREAM_BYTES`] buffer, larger than a
//! core's L2 (cache and memory bandwidth), and [`ILP_ITERS`] rounds of
//! eight independent xorshift chains (the core's integer ports, which a
//! sibling hyperthread shares). CPU time, not wall time, so the probe's
//! own waits for a core do not count. The kernels are the benchmark's
//! own code, which the measured program cannot change, so a change to
//! the program moves the measured work but not the probe.
//!
//! [`Samples::slowdown`] estimates the measured work's slowdown over a
//! window from the median kernel times of the samples taken in it:
//! (write pass ÷ [`STREAM_REFERENCE_S`]) × (integer loop ÷
//! [`ILP_REFERENCE_S`])^[`ILP_EXPONENT`]. The timed run divides each
//! host time by the slowdown of the window it was measured in.
//!
//! The kernels and the exponent were chosen by measurement, not
//! derived. Of the kernels tried — random pointer chases over 1 to
//! 64 MiB, branchy table walks, a toy bytecode interpreter, an
//! open-addressing hash table, a sort, write passes over 8 to 96 MiB,
//! the integer loop — none tracks the simulator closely at every hour:
//! over a run, one kernel's log-time correlated with a repetition's
//! log-wall at anywhere from 0.3 to 0.9. The write pass tracked best
//! alone; the integer loop caught part of what it missed. Least-squares
//! powers of the two moved from one hour to the next, so the write pass
//! is taken plainly and the integer loop at the power that kept the
//! largest quartile spread of per-run medians lowest over five sets of
//! runs taken across three hours. Probing in exclusive windows between
//! repetitions, on both cores, tracked worse than probing beside the
//! work.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between two probe samples.
pub const PERIOD: Duration = Duration::from_millis(100);

/// Bytes the write pass touches per sample.
pub const STREAM_BYTES: usize = 16 << 20;

/// Rounds of the integer loop per sample.
pub const ILP_ITERS: u64 = 300_000;

/// Write-pass time on a quiet host, seconds: the low end of the samples
/// taken on the two-core machine the bounds were set on.
pub const STREAM_REFERENCE_S: f64 = 1.8e-3;

/// Integer-loop time on a quiet host, seconds (same machine).
pub const ILP_REFERENCE_S: f64 = 1.2e-3;

/// Power of the integer loop's slowdown in the measured work's.
pub const ILP_EXPONENT: f64 = 0.5;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has run.
fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Eight independent xorshift chains, `n` rounds.
fn ilp(n: u64) -> u64 {
    let mut x = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for _ in 0..n {
        for v in &mut x {
            *v ^= *v << 13;
            *v ^= *v >> 7;
            *v ^= *v << 17;
        }
    }
    x.iter().fold(0, |a, b| a ^ b)
}

/// One probe sample.
#[derive(Clone, Copy, Debug)]
struct Sample {
    /// Seconds since the epoch at which it was taken.
    at: f64,
    /// CPU seconds of the write pass.
    stream: f64,
    /// CPU seconds of the integer loop.
    ilp: f64,
}

/// The samples of one probe.
pub struct Samples(Vec<Sample>);

impl Samples {
    /// The measured work's slowdown over `[from, to]` (seconds since the
    /// epoch), from the median kernel times of the samples taken in it.
    /// A window too short to hold a sample takes every sample.
    #[must_use]
    pub fn slowdown(&self, from: f64, to: f64) -> f64 {
        let mut inside: Vec<Sample> = self
            .0
            .iter()
            .filter(|s| (from..=to).contains(&s.at))
            .copied()
            .collect();
        if inside.is_empty() {
            inside.clone_from(&self.0);
        }
        let stream = crate::median(&inside.iter().map(|s| s.stream).collect::<Vec<_>>());
        let ilp = crate::median(&inside.iter().map(|s| s.ilp).collect::<Vec<_>>());
        stream / STREAM_REFERENCE_S * (ilp / ILP_REFERENCE_S).powf(ILP_EXPONENT)
    }

    /// The slowdown over every sample.
    #[must_use]
    pub fn overall(&self) -> f64 {
        self.slowdown(f64::NEG_INFINITY, f64::INFINITY)
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was taken.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A running probe thread.
pub struct Probe {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<Sample>>,
}

impl Probe {
    /// Starts sampling; sample times are seconds since `epoch`. The
    /// first sample is taken at once and the last when the probe is
    /// finished, so every probe has at least one.
    #[must_use]
    pub fn start(epoch: Instant) -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut buf = vec![0u8; STREAM_BYTES];
            let mut out = Vec::new();
            loop {
                let at = epoch.elapsed().as_secs_f64();
                let v = black_box(out.len() as u8);
                let c0 = thread_cpu_s();
                buf.iter_mut().for_each(|b| *b = b.wrapping_add(v));
                black_box(&buf);
                let c1 = thread_cpu_s();
                black_box(ilp(black_box(ILP_ITERS)));
                let c2 = thread_cpu_s();
                out.push(Sample {
                    at,
                    stream: c1 - c0,
                    ilp: c2 - c1,
                });
                if flag.load(Ordering::Relaxed) {
                    return out;
                }
                std::thread::sleep(PERIOD);
            }
        });
        Probe { stop, handle }
    }

    /// Stops the thread, waits for it and returns its samples.
    ///
    /// # Panics
    ///
    /// If the probe thread panicked.
    #[must_use]
    pub fn finish(self) -> Samples {
        self.stop.store(true, Ordering::Relaxed);
        Samples(self.handle.join().expect("probe thread panicked"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(at: f64, k: f64) -> Sample {
        Sample {
            at,
            stream: k * STREAM_REFERENCE_S,
            ilp: k * ILP_REFERENCE_S,
        }
    }

    #[test]
    fn slowdown_uses_the_window_and_falls_back_to_every_sample() {
        let s = Samples(vec![at(0.0, 1.0), at(1.0, 2.0), at(2.0, 2.0)]);
        let two = 2.0 * 2f64.powf(ILP_EXPONENT);
        assert!((s.slowdown(0.5, 2.5) - two).abs() < 1e-12);
        assert!((s.slowdown(-1.0, 0.5) - 1.0).abs() < 1e-12);
        assert_eq!(s.slowdown(5.0, 6.0), s.overall());
        assert!((s.overall() - two).abs() < 1e-12);
    }

    #[test]
    fn probe_takes_samples_until_finished() {
        let samples = Probe::start(Instant::now()).finish();
        assert!(!samples.is_empty());
        assert!(samples.overall().is_finite() && samples.overall() > 0.0);
    }
}
