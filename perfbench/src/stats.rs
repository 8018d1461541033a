//! Order statistics and the metric report the benchmark prints.

use std::collections::BTreeSet;

/// Linearly interpolated percentile of `xs` (the definition NumPy and
/// spreadsheets use by default: rank `p/100 · (n−1)` between the sorted
/// samples). `p` is clamped to `0..=100`; `None` for an empty sample.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `xs`; `None` for an empty sample.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let starts_alnum = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_alnum
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `cycles/s`, `count`.
    pub unit: &'static str,
}

/// The metrics of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    names: BTreeSet<String>,
}

impl Report {
    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// On an invalid or repeated name, or a non-finite value: both are
    /// bugs in the benchmark, not measurement outcomes.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        assert!(
            self.names.insert(name.to_owned()),
            "metric `{name}` reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Adds a whole-number count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.push(name, value as f64, "count");
    }

    /// The metrics, in insertion order.
    #[must_use]
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// One `name = value unit` line per metric.
    #[must_use]
    pub fn human(&self) -> String {
        self.metrics
            .iter()
            .map(|m| format!("metric {} = {} {}\n", m.name, m.value, m.unit))
            .collect()
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    #[must_use]
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_match_hand_computed_samples() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), Some(15.0));
        assert_eq!(percentile(&xs, 100.0), Some(50.0));
        assert_eq!(median(&xs), Some(35.0));
        // Rank 0.4 · 4 = 1.6: 20 + 0.6 · (35 − 20) = 29.
        assert!((percentile(&xs, 40.0).unwrap() - 29.0).abs() < 1e-12);
        // Rank 0.99 · 4 = 3.96: 40 + 0.96 · 10 = 49.6.
        assert!((percentile(&xs, 99.0).unwrap() - 49.6).abs() < 1e-12);
        // Even count: the median interpolates the middle pair.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // Order of the input does not matter; one sample is every percentile.
        assert_eq!(median(&[50.0, 15.0, 40.0, 20.0, 35.0]), Some(35.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "wall_s",
            "sim.run_us.p50",
            "mem.d_accesses",
            "a-b",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "a b",
            "a/b",
            "µs",
            "x:y",
            &"a".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn report_renders_every_metric_with_its_unit() {
        let mut r = Report::default();
        r.push("wall_s", 2.5, "s");
        r.count("sim.runs", 3);
        let line = r.result_line(12, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 2.5, \"unit\": \"s\"}, \
             \"sim.runs\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        assert!(rvliw_trace::Json::parse(&line).is_ok());
        assert!(r.result_line(12, 1).starts_with("{\"correct\": false"));
        assert_eq!(
            r.human(),
            "metric wall_s = 2.5 s\nmetric sim.runs = 3 count\n"
        );
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn repeated_metric_names_are_rejected() {
        let mut r = Report::default();
        r.push("wall_s", 1.0, "s");
        r.push("wall_s", 2.0, "s");
    }
}
