//! Percentiles and medians over measured samples.

/// The `q` quantile (0..=1) of `values` by nearest rank; sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    Some(values[rank - 1])
}

/// The median; sorts in place.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// One line of latency context: count, p50, p90, p99, p999 and max.
pub fn describe(values: &mut [f64]) -> String {
    if values.is_empty() {
        return "n=0".to_string();
    }
    let n = values.len();
    let mut q = |p| quantile(values, p).unwrap_or(f64::NAN);
    format!(
        "n={n} p50={:.4} p90={:.4} p99={:.4} p999={:.4} max={:.4}",
        q(0.5),
        q(0.9),
        q(0.99),
        q(0.999),
        q(1.0)
    )
}
