//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-ref|sweep-dense|sweep-stall --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints each metric with its unit and clock, then, as the last line
//! of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits 0 only when the outputs
//! are correct.

use std::process::ExitCode;

use tea_perfbench::{default_results_dir, run, Shape};
use tea_workloads::Size;

struct Args {
    shape: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut shape, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                shape = Some(Shape::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Shape::ALL.iter().map(|s| s.name()).collect();
                    format!("unknown workload {value}; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        shape: shape.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("TEA_RESULTS_DIR").is_none() {
        // Set before any thread starts; journals, artifacts and span
        // logs then stay under the build directory.
        std::env::set_var("TEA_RESULTS_DIR", default_results_dir());
    }
    let mut outcome = match run(args.shape, Size::Ref, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for ((name, unit, clock), value) in &outcome.metrics {
        if !value.is_finite() {
            outcome.broken.push(format!("metric {name} is not finite"));
        }
        println!(
            "{} {name} = {value} {unit} ({})",
            args.shape.name(),
            clock.label()
        );
    }
    println!("{} digest = {:016x}", args.shape.name(), outcome.digest);
    for b in &outcome.broken {
        eprintln!("perfbench: BROKEN: {b}");
    }
    outcome.correct &= outcome.broken.is_empty();
    println!("{}", outcome.to_json().render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
