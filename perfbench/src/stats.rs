//! Order statistics and the metric list a run prints.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of ascending `sorted`, or `None` when fewer
/// than ten samples lie beyond it (too few to place a tail percentile).
pub fn tail_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (n >= rank + 10).then(|| sorted[rank - 1])
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarises.
    pub samples: usize,
}

/// Metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// The `metrics` object of the result line. Values keep every digit
    /// (`{}` on an `f64` is its shortest round-trip form); a value that is
    /// not finite is written as 0, and such a metric is flagged by
    /// [`Metrics::non_finite`] so the run reports itself incorrect.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Names of metrics whose value is NaN or infinite.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_quantile(&sorted, 0.99), Some(990.0));
        assert_eq!(tail_quantile(&sorted[..999], 0.99), None);
        assert_eq!(tail_quantile(&sorted, 0.5), Some(500.0));
    }
}
