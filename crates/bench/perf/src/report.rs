//! Metric collection, order statistics and the one-line JSON result.

use std::fmt::Write as _;

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Adds `name = value unit`.
    ///
    /// # Panics
    ///
    /// Panics if the name is already present or the value is not finite:
    /// either is a benchmark bug, and a non-finite number is not JSON.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            self.entries.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.push((name, value, unit));
    }

    /// Multiplies every time (unit `s`, `ms`, `us` or `ns`) by `factor`.
    pub fn scale_times(&mut self, factor: f64) {
        for (_, value, unit) in &mut self.entries {
            if matches!(*unit, "s" | "ms" | "us" | "ns") {
                *value *= factor;
            }
        }
    }

    /// Human-readable table, one metric a line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "  {name:<32} {value:>16.6} {unit}");
        }
        out
    }
}

/// The result line: exactly the keys `correct`, `attempted`, `failed`
/// and `metrics`. Values print with every digit Rust's shortest
/// round-trip formatting gives.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

/// A finite `f64` as a JSON number. `{:?}` keeps a trailing `.0` on
/// integral values, and its exponent form (`1e-7`) is valid JSON.
fn json_number(value: f64) -> String {
    format!("{value:?}")
}

/// Quantile `q` in `[0, 1]` of `values`, interpolating linearly between
/// the two nearest order statistics (so `quantile(v, 0.5)` is the
/// textbook median).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's peak resident set size in MiB (`VmHWM`).
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or lacks the
/// field (the benchmark needs Linux's procfs).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.5);
        assert!((quantile(&v, 0.95) - 95.05).abs() < 1e-9);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.put("a_ms", 1.25, "ms");
        m.put("b", 3.0, "count");
        assert_eq!(
            result_json(true, 2, 0, &m),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
