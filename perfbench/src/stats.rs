//! Order statistics and the METRICS line.

use std::collections::BTreeMap;

/// Nearest-rank quantile `p` of `values` (the smallest value with at
/// least `p` of the samples at or below it). `values` must be non-empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The counters of a `METRICS` response line, by name.
pub fn parse_metrics(line: &str) -> BTreeMap<String, f64> {
    line.trim_start_matches("OK ")
        .split_whitespace()
        .filter_map(|tok| {
            let (k, v) = tok.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn metrics_lines_parse_by_name() {
        let m = parse_metrics("OK requests=3 cache_hits=1 request_mean_us=12");
        assert_eq!(m["requests"], 3.0);
        assert_eq!(m["cache_hits"], 1.0);
    }
}
