//! The FTIO-rs benchmark: trace file → report and socket flush → prediction,
//! end to end (`--trace 0`) and layer by layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <detect_import|detect_spectral|engine_fleet|serve_stream|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--workload all` runs each workload in a child process of its own and
//! prints one such line per workload, led by a `"workload"` key.

mod check;
mod corpus;
mod detect;
mod fleet;
mod measure;
mod online;
mod rng;
mod serve;
mod stages;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use corpus::Size;
use measure::Outcome;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "detect_import",
    "detect_spectral",
    "engine_fleet",
    "serve_stream",
];

/// Every per-layer metric and its unit; a traced run prints all of them, 0
/// where a workload does not exercise the layer.
const PER_LAYER: [(&str, &str); 34] = [
    ("source.decode_ms", "ms"),
    ("source.requests", "count"),
    ("source.bytes", "bytes"),
    ("sampling.sample_trace_ms", "ms"),
    ("sampling.breakpoints", "count"),
    ("sampling.samples", "count"),
    ("sampling.fold_ms", "ms"),
    ("sampling.view_ms", "ms"),
    ("spectrum.rfft_ms", "ms"),
    ("spectrum.len", "count"),
    ("outlier.scan_ms", "ms"),
    ("dominant.select_ms", "ms"),
    ("characterize.ms", "ms"),
    ("autocorrelation.acf_ms", "ms"),
    ("detection.detect_signal_ms", "ms"),
    ("detection.stage_gap_pct", "%"),
    ("online.predict_ms", "ms"),
    ("online.history_len", "count"),
    ("online.sync_ticks_per_s", "1/s"),
    ("cluster.submit_ms", "ms"),
    ("cluster.queue_wait_ms", "ms"),
    ("cluster.ticks", "count"),
    ("cluster.coalesced", "count"),
    ("cluster.dropped", "count"),
    ("cluster.rejected", "count"),
    ("cluster.plans_built", "count"),
    ("cluster.scratch_grows", "count"),
    ("wire.encode_ms", "ms"),
    ("wire.bytes_sent", "bytes"),
    ("wire.bytes_received", "bytes"),
    ("server.decode_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.data_frames", "count"),
    ("server.predictions_pushed", "count"),
];

/// Run options shared by every workload.
pub struct Opts {
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the timed phase lasts at least (whole rounds are completed).
    pub seconds: f64,
    /// Input size.
    pub size: Size,
    /// Scratch directory for generated files and sockets, inside the
    /// working directory; removed at exit.
    pub run_dir: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(&'static str, Opts, bool), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut size = Size::Full;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    other => return Err(format!("--size takes full or smoke, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workload = if workload == "all" {
        "all"
    } else {
        WORKLOADS
            .iter()
            .find(|w| **w == workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?
    };
    let run_dir = PathBuf::from(format!(".bench_run/{}", std::process::id()));
    Ok((
        workload,
        Opts {
            seed,
            seconds,
            size,
            run_dir,
        },
        trace,
    ))
}

fn run_one(workload: &str, opts: &Opts, trace: bool) -> Outcome {
    use detect::Corpus;
    if !trace {
        return match workload {
            "detect_import" => detect::run(Corpus::Import, opts),
            "detect_spectral" => detect::run(Corpus::Spectral, opts),
            "engine_fleet" => fleet::run(opts, false).0,
            "serve_stream" => serve::run(opts, false).0,
            _ => unreachable!("validated workload"),
        };
    }
    let (mut outcome, layers): (Outcome, BTreeMap<&str, f64>) = match workload {
        "detect_import" => detect::run_traced(Corpus::Import, opts),
        "detect_spectral" => detect::run_traced(Corpus::Spectral, opts),
        "engine_fleet" => fleet::run(opts, true),
        "serve_stream" => serve::run(opts, true),
        _ => unreachable!("validated workload"),
    };
    for (name, unit) in PER_LAYER {
        outcome.add(name, layers.get(name).copied().unwrap_or(0.0), unit);
    }
    outcome
}

/// `--workload all`: every workload in a child process of its own — so each
/// reports the peak resident set of a process that ran only it, and starts
/// with cold plan caches and pool — with the other arguments passed on.
/// Prints each child's result line with the workload's name added.
fn run_all() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut status = ExitCode::SUCCESS;
    for workload in WORKLOADS {
        let mut child_args = args.clone();
        // The last `--workload` is the one `parse_args` kept.
        let at = child_args
            .iter()
            .rposition(|a| a == "--workload")
            .expect("parsed --workload");
        child_args[at + 1] = workload.to_string();
        let output = Command::new(&exe)
            .args(&child_args)
            .stderr(Stdio::inherit())
            .output();
        let line = match &output {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .and_then(|l| l.strip_prefix('{'))
                .map(|rest| format!("{{\"workload\": \"{workload}\", {rest}")),
            _ => None,
        };
        match line {
            Some(line) => println!("{line}"),
            None => {
                eprintln!("error: {workload} gave no result ({output:?})");
                status = ExitCode::FAILURE;
            }
        }
    }
    status
}

fn main() -> ExitCode {
    let (workload, opts, trace) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if workload == "all" {
        return run_all();
    }
    if let Err(e) = std::fs::create_dir_all(&opts.run_dir) {
        eprintln!("error: cannot create {}: {e}", opts.run_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = run_one(workload, &opts, trace);
    for (name, value, unit) in &outcome.metrics {
        eprintln!("{workload:>16} {name:<28} {value:>14.4} {unit}");
    }
    let _ = std::fs::remove_dir_all(&opts.run_dir);
    let _ = std::fs::remove_dir(".bench_run");
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
