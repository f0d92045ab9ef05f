//! `pascal-perfbench` — run one workload of the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload backlog --seed 42 --seconds 12 --trace 0
//! ```
//!
//! Progress and per-trace figures go to stderr; the last stdout line is the
//! JSON result. `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer ones. Exit status: 0 with a result line, 2 on a bad invocation.

use std::process::{Command, ExitCode, Stdio};

use pascal_perfbench::measure::{end_to_end, per_layer};
use pascal_perfbench::run::run_checked;
use pascal_perfbench::workload::{Inputs, Workload, NAMES};

const USAGE: &str = "usage: pascal-perfbench --workload <backlog|underload|federated-outage> \
                     --seed <N> --seconds <N> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run the workload once in this fresh process and print its
    /// peak RSS in KiB (`--rss-child <0|1>`, traced when 1).
    rss_child: Option<bool>,
}

fn flag01(name: &str, raw: &str) -> Result<bool, String> {
    match raw {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{name} must be 0 or 1, got '{raw}'")),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut rss_child) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(value).ok_or_else(|| {
                    format!("unknown workload '{value}' (valid: {})", NAMES.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be non-negative, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => trace = Some(flag01("--trace", value)?),
            "--rss-child" => rss_child = Some(flag01("--rss-child", value)?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(0.0),
        trace: trace.unwrap_or(false),
        rss_child,
    })
}

/// The process's high-water RSS in KiB (`VmHWM`).
fn vm_hwm_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Child side of the peak-RSS measurement: build the inputs, run the first
/// trace once (checked), print `VmHWM` in KiB.
fn rss_child(args: &Args, traced: bool) -> ExitCode {
    let mut inputs = Inputs::build(&args.workload, args.seed);
    inputs.config.telemetry.trace = traced;
    if let Err(e) = run_checked(&inputs.traces[0], &inputs.config) {
        eprintln!("rss child: {e}");
        return ExitCode::FAILURE;
    }
    match vm_hwm_kib() {
        Ok(kib) => {
            println!("{kib}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rss child: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parent side: re-run this executable as a fresh process on the same
/// workload and seed, wait for it, and read its peak RSS in MiB.
fn peak_rss_mib(args: &Args, traced: bool) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            args.workload.name,
            "--seed",
            &args.seed.to_string(),
            "--rss-child",
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the fresh process: {e}"))?;
    if !out.status.success() {
        return Err(format!("fresh process exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let kib: u64 = text
        .lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| format!("fresh process printed no RSS: {text:?}"))?;
    Ok(kib as f64 / 1024.0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pascal-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(traced) = args.rss_child {
        return rss_child(&args, traced);
    }
    let w = &args.workload;
    eprintln!(
        "workload {} ({} trace(s) from seed {}; each = pascal-cli run {} --seed <seed+i>), {} run",
        w.name,
        w.traces,
        args.seed,
        w.cli_args(),
        if args.trace { "traced" } else { "untraced" }
    );
    let rss = |traced| peak_rss_mib(&args, traced);
    let outcome = if args.trace {
        per_layer(w, args.seed, args.seconds, &rss)
    } else {
        end_to_end(w, args.seed, args.seconds, &rss)
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
