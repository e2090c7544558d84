//! Measurement helpers: percentiles, process CPU time and peak resident set,
//! and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank `pct`-th percentile of `values` (sorted in place).
///
/// # Panics
///
/// Panics when fewer than ten samples lie beyond the percentile: a tail read
/// off fewer samples is noise, so the workloads size their runs to avoid it.
pub fn percentile(values: &mut [f64], pct: usize) -> f64 {
    let n = values.len();
    let rank = (pct * n).div_ceil(100).clamp(1, n);
    assert!(
        n - rank >= 10,
        "p{pct} needs at least ten samples beyond it, have {n} samples"
    );
    values.sort_by(f64::total_cmp);
    values[rank - 1]
}

/// Median of `values` (sorted in place); the mean of the middle pair for an
/// even count.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Mean of `values`, 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// User + system CPU seconds of this process so far, all threads included
/// (threads that already exited too), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / clock_ticks_per_second()
}

/// The kernel's `USER_HZ` as reported in the auxiliary vector (`AT_CLKTCK`),
/// 100 when it cannot be read.
fn clock_ticks_per_second() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = std::fs::read("/proc/self/auxv") else {
        return 100.0;
    };
    for pair in auxv.chunks_exact(16) {
        let key = u64::from_ne_bytes(pair[..8].try_into().expect("8 bytes"));
        let value = u64::from_ne_bytes(pair[8..].try_into().expect("8 bytes"));
        if key == AT_CLKTCK && value > 0 {
            return value as f64;
        }
    }
    100.0
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The result of one workload run: the operations attempted and failed, and
/// the metrics, in the order they were added.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (an error, or an independent check that did not
    /// hold).
    pub failed: u64,
    /// Whole-run invariants that did not hold (the engine's accounting
    /// identity, a balanced drain); any makes the run incorrect.
    pub broken: Vec<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a whole-run invariant that did not hold.
    pub fn breach(&mut self, what: String) {
        eprintln!("invariant broken: {what}");
        self.broken.push(what);
    }

    /// Counts one operation and whether it failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line:
    /// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
    /// Per-operation checks land in `failed`; `correct` is false when no
    /// operation was attempted or a whole-run invariant broke.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted > 0 && self.broken.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that reads back as
            // the same f64, so no measured digit is lost.
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}
