//! Process-level plumbing: per-run temp directories, peak memory, the
//! environment record and the result line.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Directory (relative to the working directory, i.e. the checkout) that
/// holds every run's temp directories. Relative paths keep the Unix
/// socket path short wherever the checkout lives.
pub const TMP_ROOT: &str = ".perfbench_tmp";

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A temp directory unique to this process, call and seed
/// (`<TMP_ROOT>/<tag>-p<pid>-c<counter>-s<seed>`), removed on drop —
/// also while a panic unwinds.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh directory.
    ///
    /// # Errors
    /// On I/O failure.
    pub fn new(tag: &str, seed: u64) -> std::io::Result<TempDir> {
        let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(TMP_ROOT).join(format!("{tag}-p{}-c{n}-s{seed}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Removes the shared root only once no other run's dir is left.
        let _ = std::fs::remove_dir(TMP_ROOT);
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Render `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a finite number with all its digits (non-finite as 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Host speed at the time of the run: the median time, in ms, of five
/// passes of a fixed integer-and-memory loop (splitmix64 over a 4 MiB
/// buffer). It is benchmark code, not program code, so it moves only
/// with the host. On a host whose speed drifts, it tells a slow program
/// from a slow host.
pub fn host_calibration_ms() -> f64 {
    let mut buf = vec![0u64; 1 << 19];
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = std::time::Instant::now();
        let mut x = 0u64;
        for round in 0..8u64 {
            for (i, v) in buf.iter_mut().enumerate() {
                x = xpath_xml::rng::splitmix64(x ^ i as u64 ^ round);
                *v ^= x;
            }
        }
        std::hint::black_box(&buf);
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&samples)
}

/// CPU time the hypervisor gave to other guests so far, all CPUs, in
/// clock ticks (the `steal` column of `/proc/stat`).
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Ticks stolen since `before`, as JSON (`null` where unavailable).
pub fn ticks_since(before: Option<u64>) -> String {
    match (before, steal_ticks()) {
        (Some(b), Some(a)) => a.saturating_sub(b).to_string(),
        _ => "null".to_owned(),
    }
}

fn env_var(name: &str) -> String {
    std::env::var(name).map_or_else(|_| "null".to_owned(), |v| json_str(&v))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|m| m.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_default()
}

/// The environment a run was measured in, as one JSON object: core
/// count, CPU, active SIMD tier, the tuning variables, the resolved
/// thread budget, the host speed, and the workload's own facts (`extra`: seed, document
/// sizes, …). Runs whose records differ should not be compared.
pub fn env_record(extra: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let mut fields = vec![
        ("nproc".to_owned(), nproc.to_string()),
        ("cpu".to_owned(), json_str(&cpu_model())),
        ("simd_tier".to_owned(), json_str(xpath_xml::simd::active_tier().name())),
        ("GKP_THREADS".to_owned(), env_var(xpath_core::parallel::THREADS_ENV)),
        ("GKP_NO_SIMD".to_owned(), env_var(xpath_xml::simd::NO_SIMD_ENV)),
        ("GKP_AXIS_COST".to_owned(), env_var(xpath_axes::cost::COST_ENV)),
        ("thread_budget".to_owned(), xpath_core::parallel::resolve_threads(0).to_string()),
        ("host_calibration_ms".to_owned(), json_num(host_calibration_ms())),
    ];
    fields.extend(extra.iter().map(|(k, v)| ((*k).to_owned(), v.clone())));
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{\"env\": {{{}}}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dirs_are_unique_and_removed() {
        let a = TempDir::new("t", 7).unwrap();
        let b = TempDir::new("t", 7).unwrap();
        assert_ne!(a.path(), b.path());
        let pa = a.path().to_path_buf();
        drop(a);
        assert!(!pa.exists());
        assert!(b.path().exists());
    }

    #[test]
    fn result_line_shape() {
        let line =
            result_line(true, 10, 0, &[Metric { name: "latency_p50_ms", unit: "ms", value: 1.25 }]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
