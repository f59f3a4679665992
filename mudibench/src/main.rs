//! The repository benchmark: one process that links the workspace crates
//! and runs a named workload.
//!
//! ```text
//! cargo run --release --manifest-path mudibench/Cargo.toml -- \
//!     --workload fleet|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints every end-to-end metric, timed on the process CPU
//! clock (see `cpu`); `--trace 1` repeats the workload as a traced pass
//! over the same inputs and prints the per-layer metrics. The last line of standard output is one JSON
//! object; the run exits non-zero when any correctness check fails.
//! See README.md for the workloads and the metric map.

mod cpu;
mod drive;
mod fleet;
mod layers;
mod noise;
mod openloop;
mod report;
mod serve_wl;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

/// The seed whose fleet fingerprint is pinned.
pub const DEFAULT_SEED: u64 = 1;

/// Environment variables that override a workload's pinned shape.
const SHAPE_OVERRIDES: [&str; 4] = ["MUDI_SHARDS", "MUDI_THREADS", "MUDI_TOPOLOGY", "MUDI_TRACE"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["fleet", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (fleet, serve)"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mudibench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = SHAPE_OVERRIDES
        .iter()
        .find(|v| std::env::var_os(v).is_some())
    {
        eprintln!(
            "mudibench: refusing to run with {var} set; it overrides the workload's pinned shape"
        );
        return ExitCode::from(2);
    }

    let noise = noise::Snapshot::take();
    let started = Instant::now();
    let mut out = report::Outcome::default();
    match args.workload.as_str() {
        "fleet" => fleet::run(&args, &mut out),
        _ => serve_wl::run(&args, &mut out),
    }
    let elapsed = started.elapsed().as_secs_f64();
    if !args.trace {
        out.metric("peak_rss_mib", noise::peak_rss_mib().unwrap_or(f64::NAN));
    }

    println!(
        "workload={} seed={} trace={} run_s={elapsed:.3} nominal_s={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    for line in &out.lines {
        println!("{line}");
    }
    println!("{}", noise.finish());
    let expected: &[(&str, &str)] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    for (name, unit) in expected {
        if let Some((_, v)) = out.metrics.iter().find(|(n, _)| n == name) {
            println!("metric {name}={v} {unit}");
        }
    }
    for e in &out.errors {
        println!("FAILED {e}");
    }
    println!(
        "requests attempted={} succeeded={} failed={}",
        out.attempted,
        out.attempted - out.failed,
        out.failed
    );
    let (line, correct) = report::result_line(&out, expected);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "fleet",
            "--seed",
            "9",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet", 9, 15, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "serve", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }
}
