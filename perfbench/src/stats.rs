//! Order statistics and the result line.

use std::fmt::Write as _;

/// The `q`-quantile of `v` (linear interpolation between closest ranks);
/// NaN when `v` is empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Named metrics in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The metrics named in `names`, in that order. A name that was not
    /// measured is reported as NaN, which [`Metrics::result_line`] flags.
    pub fn select(&self, names: &[&str]) -> Metrics {
        Metrics(
            names
                .iter()
                .map(|n| match self.0.iter().find(|m| m.0 == *n) {
                    Some(m) => m.clone(),
                    None => (n.to_string(), f64::NAN, "?"),
                })
                .collect(),
        )
    }

    /// Human-readable table on stderr, so stdout's last line stays the
    /// JSON result.
    pub fn print_table(&self, title: &str) {
        eprintln!("== {title}");
        for (name, v, unit) in &self.0 {
            eprintln!("  {name:<36} {v:>14.4} {unit}");
        }
    }

    /// The one-line JSON result.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, v, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN/inf: a metric that could not be measured is
            // reported as -1 and flagged on stderr.
            let v = if v.is_finite() {
                *v
            } else {
                eprintln!("warning: metric {name} not measured");
                -1.0
            };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}
