//! End-to-end, layer-by-layer benchmark of the public query path.
//!
//! ```text
//! perfbench --workload <lib-large|serve-hot|serve-churn> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Builds its inputs from the seed, runs the workload through the
//! public API for `S` seconds, checks every answer, and prints one JSON
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. A JSON environment record is printed on the line
//! before it. Exit status is non-zero on a wrong answer, a failed
//! self-check (tail samples, trace coverage) or a set-up failure. See
//! `NOTES.md` for the workloads, metrics and their limits.

mod answer;
mod gen;
mod layers;
mod lib_large;
mod serve_load;
mod stats;
mod sys;
mod trace;

use std::process::ExitCode;

use sys::Metric;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Spans written to the trace file at most.
const TRACE_CAP: usize = 100_000;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run produced.
pub struct Report {
    /// Every answer matched its reference and every self-check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (errors, refusals, deadline trips).
    pub failed: u64,
    /// Metrics in declaration order.
    pub metrics: Vec<Metric>,
    /// Environment record fields.
    pub env: Vec<(&'static str, String)>,
    /// Why the run is not correct, if it is not.
    pub problem: Option<String>,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(
    setup_s: f64,
    throughput: f64,
    p50_ms: f64,
    p99_ms: f64,
    peak_mb: f64,
) -> Vec<Metric> {
    vec![
        Metric { name: "setup_s", unit: "s", value: setup_s },
        Metric { name: "throughput_ops_s", unit: "1/s", value: throughput },
        Metric { name: "latency_p50_ms", unit: "ms", value: p50_ms },
        Metric { name: "latency_p99_ms", unit: "ms", value: p99_ms },
        Metric { name: "peak_rss_mb", unit: "MiB", value: peak_mb },
    ]
}

/// Assemble a report from the answer tally and the trace check.
#[allow(clippy::cast_precision_loss)]
pub fn finish(
    tally: &answer::Tally,
    trace_problem: Option<String>,
    mut metrics: Vec<Metric>,
    env: Vec<(&'static str, String)>,
) -> Report {
    let problem = tally.verdict().err().or(trace_problem);
    for m in &mut metrics {
        if m.name == "error_rate" && tally.attempted > 0 {
            m.value = tally.failed as f64 / tally.attempted as f64;
        }
    }
    Report {
        correct: problem.is_none(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        env,
        problem,
    }
}

/// Write the span log of a traced run under `.perfbench_out/`.
pub fn write_trace(workload: &str, seed: u64, spans: &[trace::Span]) {
    let path = std::path::Path::new(".perfbench_out").join(format!("trace-{workload}-s{seed}.tsv"));
    if let Err(e) = trace::write_tsv(&path, spans, TRACE_CAP) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "lib-large" => lib_large::run(&args),
        "serve-hot" => serve_load::run(&args, serve_load::Flavor::Hot),
        "serve-churn" => serve_load::run(&args, serve_load::Flavor::Churn),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let mut env = report.env.clone();
    env.push(("seconds", sys::json_num(args.seconds)));
    env.push(("trace", args.trace.to_string()));
    println!("{}", sys::env_record(&env));
    for m in &report.metrics {
        eprintln!("{:>24} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if let Some(p) = &report.problem {
        eprintln!("perfbench: {}: {p}", args.workload);
    }
    println!(
        "{}",
        sys::result_line(report.correct, report.attempted, report.failed, &report.metrics)
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
