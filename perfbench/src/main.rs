//! Command-line entry point; see the library docs and `NOTES.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload per_arrival --seed 1 --seconds 10 --trace 0
//! ```

#![allow(clippy::disallowed_macros)] // a report binary prints by design

use perfbench::{run, RunConfig, END_TO_END, PER_LAYER, WORKLOADS};
use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required: one of {WORKLOADS:?}"))?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        span_dir: args
            .trace
            .then(|| std::path::Path::new("perfbench/out").join(&args.workload)),
    };
    let outcome = match run(&args.workload, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {} (available_parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get)
    );
    for g in &outcome.gates {
        println!(
            "gate {}: {} ({})",
            if g.ok { "ok  " } else { "FAIL" },
            g.name,
            g.detail
        );
    }
    for (name, value) in &outcome.metrics {
        println!("metric {name} = {value}");
    }

    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut correct = outcome.correct();
    let mut metrics = String::new();
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            // A layer this workload never calls.
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: end-to-end metric {name} was not measured");
                correct = false;
                0.0
            }
        };
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            correct = false;
            0.0
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
