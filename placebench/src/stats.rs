//! Order statistics, the tail-percentile rule and metric records.

/// One named measurement, printed with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `q`-th percentile (0..=100) of `values` by linear interpolation
/// between order statistics; `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// How many of `n` samples lie strictly beyond the `q`-th percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    // The epsilon keeps float error in `n·q/100` from pushing an exact
    // rank up by one (10000 · 99.9 / 100 is not exactly 9990).
    n - (((n as f64 * q / 100.0) - 1e-9).ceil() as usize).min(n)
}

/// The highest percentile on the ladder that still has at least ten of
/// `n` samples beyond it, with that count; `None` when even the median
/// has fewer than ten samples above it.
pub fn tail_percentile(n: usize) -> Option<(f64, usize)> {
    TAIL_LADDER
        .into_iter()
        .map(|q| (q, samples_beyond(n, q)))
        .find(|&(_, beyond)| beyond >= 10)
}

/// A note on how far a `job_p90_s` from `values` can be trusted: the
/// sample count, how many samples lie beyond p90, and the highest
/// percentile the tail rule allows.
pub fn tail_note(values: &[f64]) -> String {
    let n = values.len();
    let p90 = format!("p90 of {n} samples, {} beyond it", samples_beyond(n, 90.0));
    match tail_percentile(n) {
        Some((q, beyond)) => format!(
            "tail: {p90}; the highest percentile with ten beyond is p{q} = {:.4} s ({beyond} beyond)",
            percentile(values, q).unwrap_or(0.0)
        ),
        None => format!("tail: {p90}; too few samples for any percentile with ten beyond"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some((50.0, 10)));
        assert_eq!(tail_percentile(99), Some((75.0, 24)));
        assert_eq!(tail_percentile(100), Some((90.0, 10)));
        assert_eq!(tail_percentile(199), Some((90.0, 19)));
        assert_eq!(tail_percentile(200), Some((95.0, 10)));
        assert_eq!(tail_percentile(1000), Some((99.0, 10)));
        assert_eq!(tail_percentile(10_000), Some((99.9, 10)));
        assert!(tail_note(&[1.0; 6]).contains("6 samples, 0 beyond it; too few"));
        assert!(tail_note(&[1.0; 100])
            .contains("10 beyond it; the highest percentile with ten beyond is p90"));
    }

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let v: Vec<f64> = (1..=11).map(f64::from).rev().collect();
        assert_eq!(median(&v), Some(6.0));
        assert_eq!(percentile(&v, 90.0), Some(10.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["setup_s", "machine.ns_per_ref.p16", "9lives", "a-b"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "has space", "x/y", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
