//! Minimal timing utilities for the `report` binary.
//!
//! Criterion does the statistically careful measurements in `benches/`;
//! the report tables only need quick medians with sensible repetition.

use std::time::{Duration, Instant};

/// Runs `f` once and returns its wall-clock duration together with its
/// result.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed(), value)
}

/// Median wall-clock time of `runs` executions of `f` (at least one).
/// The result of the last run is returned so the work cannot be
/// optimized away by the caller discarding it.
pub fn median_time<T>(runs: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let runs = runs.max(1);
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let (d, v) = time_once(&mut f);
        times.push(d);
        last = Some(v);
    }
    times.sort();
    (times[times.len() / 2], last.expect("runs >= 1"))
}

/// The minimum, median and maximum of a set of timed rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spread {
    /// The fastest round.
    pub min: Duration,
    /// The median round (the upper one of an even count).
    pub median: Duration,
    /// The slowest round.
    pub max: Duration,
}

impl Spread {
    /// The spread of `rounds` (at least one).
    pub fn of(mut rounds: Vec<Duration>) -> Spread {
        assert!(!rounds.is_empty(), "a spread needs at least one round");
        rounds.sort();
        Spread {
            min: rounds[0],
            median: rounds[rounds.len() / 2],
            max: rounds[rounds.len() - 1],
        }
    }

    /// `{"min_ns": …, "median_ns": …, "max_ns": …}`.
    pub fn json(&self) -> String {
        format!(
            "{{\"min_ns\": {}, \"median_ns\": {}, \"max_ns\": {}}}",
            self.min.as_nanos(),
            self.median.as_nanos(),
            self.max.as_nanos()
        )
    }
}

/// Formats a duration compactly for table cells (`1.23ms`, `45.6µs`).
pub fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", d.as_secs_f64())
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1.0e6)
    } else if nanos >= 1_000 {
        format!("{:.1}µs", nanos as f64 / 1.0e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_orders_rounds() {
        let ms = Duration::from_millis;
        let spread = Spread::of(vec![ms(3), ms(1), ms(2)]);
        assert_eq!(
            (spread.min, spread.median, spread.max),
            (ms(1), ms(2), ms(3))
        );
        assert_eq!(
            spread.json(),
            "{\"min_ns\": 1000000, \"median_ns\": 2000000, \"max_ns\": 3000000}"
        );
    }

    #[test]
    fn median_returns_value_and_positive_time() {
        let (d, v) = median_time(5, || (0..1000).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(d.as_nanos() > 0 || d.is_zero());
    }

    #[test]
    fn zero_runs_clamps_to_one() {
        let (_, v) = median_time(0, || 7);
        assert_eq!(v, 7);
    }

    #[test]
    fn duration_formats() {
        assert_eq!(fmt_duration(Duration::from_nanos(120)), "120ns");
        assert_eq!(fmt_duration(Duration::from_micros(45)), "45.0µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }
}
