//! The benchmark's own arithmetic: medians, tail percentiles and the
//! failure tally.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Median of `samples` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it: a tail figure resting on a
/// handful of samples is one outlier, not a percentile.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Describe a failed check on standard error; the first few only, so a
/// systematic failure does not flood the log.
pub fn report_failure(what: &str, detail: &str) {
    static SHOWN: AtomicUsize = AtomicUsize::new(0);
    if SHOWN.fetch_add(1, Ordering::Relaxed) < 8 {
        let detail: String = detail.chars().take(600).collect();
        eprintln!("optbench: failed check: {what}: {detail}");
    }
}

/// Operations attempted and failed over one run. An operation fails when
/// it errors, is refused, does not converge, or disagrees with its
/// reference.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations over attempted ones (0 when nothing was tried).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of n samples sits at rank ceil(0.99 n); n - rank lie beyond.
        let at = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(percentile(&at(999), 99.0), None, "9 beyond");
        assert_eq!(percentile(&at(1000), 99.0), Some(990.0), "10 beyond");
        assert_eq!(percentile(&at(19), 50.0), None, "9 beyond the median");
        assert_eq!(percentile(&at(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
    }

    #[test]
    fn tally_counts_failures_over_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.failed_frac(), 0.25);
        t.add(Tally {
            attempted: 4,
            failed: 3,
        });
        assert_eq!(t.failed_frac(), 0.5);
    }
}
