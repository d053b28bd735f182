//! Host-speed calibration for every timed figure: the set-ups, the
//! allocation sweeps, cold requests sent one at a time and the slices of
//! the serving loop.
//!
//! The benchmark runs on shared hosts whose speed drifts by a quarter
//! within seconds and by as much again between minutes, which swamps any
//! comparison of raw sweep times across runs. A fixed computation owned by
//! the benchmark, timed between the measured calls, tracks that drift: an
//! interval divided by the calibration time around it, times
//! [`NOMINAL_S`], is the interval's length on a host where the calibration
//! takes exactly [`NOMINAL_S`].

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The calibration's time on the reference host: a 2-core shared Linux
/// x86-64 host, rustc 1.95.0, release build. It fixes the unit of the
/// normalised seconds and must not change once figures are compared.
pub const NOMINAL_S: f64 = 0.0015;

/// Calibrate at most this often; a long call is bracketed by a
/// calibration on each side.
const EVERY: Duration = Duration::from_millis(50);

/// The calibration: sort a pseudo-random vector and build an ordered map
/// from it — the allocator's own mix of branchy comparisons and
/// pointer-chasing over a cache-sized working set.
pub fn kernel_seconds() -> f64 {
    let started = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    let mut v: Vec<u32> = (0..49_152)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    v.sort_unstable();
    let map: BTreeMap<u32, usize> = v
        .iter()
        .step_by(2)
        .enumerate()
        .map(|(i, &k)| (k, i))
        .collect();
    black_box(map);
    started.elapsed().as_secs_f64()
}

/// Times calls in normalised seconds.
pub struct Calibrated {
    last: f64,
    at: Instant,
}

impl Calibrated {
    pub fn new() -> Calibrated {
        Calibrated {
            last: kernel_seconds(),
            at: Instant::now(),
        }
    }

    /// Run `f`, returning its result and its time in normalised seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let started = Instant::now();
        let out = f();
        let raw = started.elapsed().as_secs_f64();
        (out, self.scale(raw))
    }

    /// Normalise `raw`, a time measured just now (in any unit).
    pub fn scale(&mut self, raw: f64) -> f64 {
        let divisor = if self.at.elapsed() >= EVERY {
            let now = kernel_seconds();
            let around = (self.last + now) / 2.0;
            self.last = now;
            self.at = Instant::now();
            around
        } else {
            self.last
        };
        raw * NOMINAL_S / divisor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalised_time_scales_with_the_measured_interval() {
        let mut c = Calibrated::new();
        let ((), short) = c.time(|| std::thread::sleep(Duration::from_millis(2)));
        let ((), long) = c.time(|| std::thread::sleep(Duration::from_millis(60)));
        assert!(short > 0.0 && long > short);
    }
}
