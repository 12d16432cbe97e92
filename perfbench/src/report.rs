//! Metric values, order statistics and the one-line JSON result.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Everything one invocation prints.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every checked output equalled the oracle.
    pub correct: bool,
    /// Operations attempted (requests or cells).
    pub attempted: u64,
    /// Operations failed: error status, transport error, late or wrong.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable context lines (sizes, counts, sample sizes).
    pub notes: Vec<String>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Appends a context line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line: `{"correct": …, "attempted": …, "failed": …,
    /// "metrics": {"name": {"value": …, "unit": "…"}, …}}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Notes, then one line per metric, then the JSON result line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.notes {
            out.push_str(&format!("# {line}\n"));
        }
        for m in &self.metrics {
            out.push_str(&format!("# {:<36} {:>16} {}\n", m.name, number(m.value), m.unit));
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
/// Non-finite values cannot occur in a well-formed run; they print as
/// `-1` so the line stays valid JSON and the anomaly stays visible.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_owned()
    }
}

/// Nearest-rank quantile of `sorted` (ascending, non-empty): the smallest
/// sample with at least `q · n` samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of `values`: the mean of the two middle samples for an even
/// count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples strictly above the nearest-rank `q` quantile: the tail a
/// percentile rests on (the benchmark states it next to each percentile).
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil().max(1.0) as usize).min(n)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when the
/// kernel does not expose it.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report { correct: true, attempted: 3, failed: 0, ..Report::default() };
        r.push("p50_ms", "ms", 1.25);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
