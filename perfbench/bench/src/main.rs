//! The HSLB benchmark: one workload per run, end-to-end metrics when
//! untraced, per-layer metrics when traced.
//!
//! ```text
//! perfbench --workload <cesm_pipeline|fmo_flat|e7_tree|serve_tcp>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Standard output ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Sample counts, tail percentiles and the first failures go to standard
//! error. The exit code is 0 only when every answer passed its check.

mod cesm;
mod check;
mod e7;
mod fmo;
mod metrics;
mod reference;
mod runner;
mod serve;
mod single;
mod stats;
mod tracing;

use std::process::ExitCode;

use runner::{Config, Report};

const USAGE: &str = "usage: perfbench --workload <cesm_pipeline|fmo_flat|e7_tree|serve_tcp> \
--seed <n> --seconds <s> --trace <0|1>";

/// A workload's entry point.
type Run = fn(&Config) -> Result<Report, String>;

/// The workloads, by name.
const WORKLOADS: [(&str, Run); 4] = [
    ("cesm_pipeline", cesm::run),
    ("fmo_flat", fmo::run),
    ("e7_tree", e7::run),
    ("serve_tcp", serve::run),
];

fn parse(args: &[String]) -> Result<(Run, Config), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let run = WORKLOADS
                    .iter()
                    .find(|(name, _)| name == value)
                    .map(|&(_, run)| run)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                workload = Some(run);
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| {
                    format!("--seed must be a non-negative integer, got {value:?}")
                })?);
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds must be positive, got {value:?}"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let cfg = Config {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (run, cfg) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        eprintln!("{note}");
    }
    for (name, unit, value) in report.metrics.iter() {
        eprintln!("{name:>28} {value:>14.6} {unit}");
    }
    let correct = report.failed == 0 && report.attempted > 0;
    match metrics::result_line(correct, report.attempted, report.failed, &report.metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
