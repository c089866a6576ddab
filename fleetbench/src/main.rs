//! Fleet benchmark for the Mortar workspace.
//!
//! ```text
//! fleetbench --workload <keyed100|fleet1000|churn200> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload through `Engine` and prints the end-to-end
//! metrics; `--trace 1` also runs it through the traced benchmark-side
//! wiring, checks that run reproduces the untraced one counter for counter,
//! and prints the per-layer metrics. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See README.md for the workloads and what each metric should move.

mod gen;
mod quiet;
mod report;
mod stats;
mod trace;
mod workload;

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
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {:?}", workload::WORKLOADS));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::from(2);
        }
    };
    match report::run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleetbench: {e}");
            ExitCode::FAILURE
        }
    }
}
