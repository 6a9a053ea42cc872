//! Summary statistics: nearest-rank percentiles, the "highest percentile
//! with at least ten samples beyond it" rule, medians and quartiles, and
//! due-time latency accounting for the open-loop phases.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `p` percent of the samples at or below it. `None` on no samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// The nearest rank of percentile `p` among `n >= 1` samples, in `1..=n`.
/// Computed in integer tenths of a percent: `0.9 * 100.0` is not 90 in
/// floating point, and a rank must not depend on that.
pub fn rank(p: f64, n: usize) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Median as the mean of the two middle samples (0 on no samples).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses — the acceptance rule of the
/// benchmark is stated in those terms. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |q: usize| {
        let pos = q as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    Some((at(1), at(3)))
}

/// The near-best of a run's blocks: the nearest-rank 10th percentile of
/// values where lower is better, the 90th where higher is. With up to twenty
/// blocks that is the second best; with fewer than eleven, the best. It
/// follows what the system does in the machine's quiet phases and ignores how
/// long the noisy ones lasted, without being the extreme sample.
pub fn near_best(values: &[f64], lower_is_better: bool) -> f64 {
    let v = sorted(values.to_vec());
    percentile(&v, if lower_is_better { 10.0 } else { 90.0 }).unwrap_or(0.0)
}

/// The percentiles a report may name, ascending.
pub const REPORTABLE: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest reportable percentile that still has at least ten samples
/// beyond it in a population of `n`; `None` when even the median has not.
pub fn highest_reportable(n: usize) -> Option<f64> {
    REPORTABLE.iter().copied().rev().find(|&p| n >= 1 && n - rank(p, n) >= 10)
}

/// Latencies of requests, with the ones that never completed counted as
/// missing every limit: they sort above every measured sample.
#[derive(Default, Clone)]
pub struct LatencyLog {
    ms: Vec<f64>,
    missing: usize,
}

impl LatencyLog {
    pub fn record(&mut self, latency: Duration) {
        self.ms.push(ms(latency));
    }

    /// A failed, shed or expired request.
    pub fn miss(&mut self) {
        self.missing += 1;
    }

    pub fn len(&self) -> usize {
        self.ms.len() + self.missing
    }

    pub fn missing(&self) -> usize {
        self.missing
    }

    /// The measured latencies, in milliseconds.
    pub fn measured(&self) -> &[f64] {
        &self.ms
    }

    pub fn merge(&mut self, other: LatencyLog) {
        self.ms.extend(other.ms);
        self.missing += other.missing;
    }

    /// Nearest-rank percentile over measured and missing requests together;
    /// infinite when the rank falls among the missing ones.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        let rank = rank(p, n);
        if rank > self.ms.len() {
            return Some(f64::INFINITY);
        }
        Some(sorted(self.ms.clone())[rank - 1])
    }
}

/// The schedule of an open loop: request `i` is due at `start + i × interval`
/// whatever happened to the requests before it. Latency is taken from the due
/// time, so a stall is charged to every request it delayed.
#[derive(Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// How late the generator sent request `i` (zero when on time).
    pub fn lateness(&self, i: usize, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(i))
    }

    /// Due-time latency of request `i` completed at `done`.
    pub fn latency(&self, i: usize, done: Instant) -> Duration {
        done.saturating_duration_since(self.due(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_reportable(5), None);
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(20), Some(50.0));
        assert_eq!(highest_reportable(99), Some(50.0));
        assert_eq!(highest_reportable(100), Some(90.0));
        assert_eq!(highest_reportable(999), Some(90.0));
        assert_eq!(highest_reportable(1_000), Some(99.0));
        assert_eq!(highest_reportable(10_000), Some(99.9));
    }

    #[test]
    fn near_best_is_the_second_best_of_twenty_blocks() {
        let times: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(near_best(&times, true), 2.0);
        assert_eq!(near_best(&times, false), 18.0);
        assert_eq!(near_best(&times[..5], true), 1.0);
        assert_eq!(near_best(&times[..5], false), 5.0);
        assert_eq!(near_best(&[], true), 0.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert!(quartiles(&[5.0]).is_none());
    }

    #[test]
    fn missing_requests_miss_every_limit() {
        let mut log = LatencyLog::default();
        for ms in 1..=8u64 {
            log.record(Duration::from_millis(ms));
        }
        log.miss();
        log.miss();
        assert_eq!(log.len(), 10);
        assert_eq!(log.percentile(50.0), Some(5.0));
        assert_eq!(log.percentile(80.0), Some(8.0));
        assert_eq!(log.percentile(90.0), Some(f64::INFINITY));
        assert_eq!(LatencyLog::default().percentile(50.0), None);
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send_time() {
        let start = Instant::now();
        let schedule = Schedule { start, interval: Duration::from_millis(1) };
        assert_eq!(schedule.due(3), start + Duration::from_millis(3));
        // request 3 was due at 3 ms, sent late at 5 ms, done at 6 ms
        let sent = start + Duration::from_millis(5);
        let done = start + Duration::from_millis(6);
        assert_eq!(schedule.lateness(3, sent), Duration::from_millis(2));
        assert_eq!(schedule.latency(3, done), Duration::from_millis(3));
        // an early send is not negative lateness
        assert_eq!(schedule.lateness(9, sent), Duration::ZERO);
    }
}
