//! Exact order statistics over raw samples.

/// The `q`-quantile (nearest rank) of `samples`, which it sorts.
/// Returns `None` for an empty sample.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// The median (nearest rank) of `samples`.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Min, quartiles and max of `samples` (which it sorts), printed with
/// `decimals` digits after the point.
pub fn five_numbers(samples: &mut [f64], decimals: usize) -> String {
    let mut q = |x| quantile(samples, x).unwrap_or(f64::NAN);
    let (min, q1, med, q3, max) = (q(0.0), q(0.25), q(0.5), q(0.75), q(1.0));
    format!(
        "min {min:.decimals$} q1 {q1:.decimals$} median {med:.decimals$} \
         q3 {q3:.decimals$} max {max:.decimals$}"
    )
}

/// A summary of one series: median, upper quartile, p90, p95, p99 and
/// sample count.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
    pub p95: f64,
    pub p99: f64,
    pub count: usize,
}

impl Summary {
    /// Summarizes `samples` (sorting them); `None` when empty.
    pub fn of(samples: &mut [f64]) -> Option<Summary> {
        Some(Summary {
            p50: quantile(samples, 0.5)?,
            p75: quantile(samples, 0.75)?,
            p90: quantile(samples, 0.9)?,
            p95: quantile(samples, 0.95)?,
            p99: quantile(samples, 0.99)?,
            count: samples.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.95), Some(95.0));
        assert_eq!(quantile(&mut v, 1.0), Some(100.0));
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(median(&mut []), None);
    }
}
