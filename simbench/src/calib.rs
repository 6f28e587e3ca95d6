//! Host-speed calibration for the end-to-end timings.
//!
//! On a shared host the same code runs up to 1.6× slower for seconds at a
//! time while co-runners are active, in thread CPU time as well as wall
//! time. A fixed kernel timed right before and after each pass sees the
//! same slowdown (its time correlates with pass time at about 0.7), so the
//! harness scales every timing by [`REFERENCE_S`] over the calibration
//! time around it. The kernel is benchmark code and never changes with the
//! simulator, so a faster simulator still reads faster.

use std::hint::black_box;
use std::time::Instant;

/// About one round's time on the 2-CPU, 2.1 GHz Xeon host the benchmark
/// was tuned on, so that scaled timings read close to that host's seconds.
pub const REFERENCE_S: f64 = 0.010;

const SORT_KEYS: usize = 100_000;
const TABLE_SLOTS: usize = 1 << 16;
const TABLE_STEPS: u32 = 1_000_000;

/// Buffers of the calibration kernel, allocated once so that a round
/// allocates nothing.
pub struct Calibration {
    keys: Vec<u64>,
    table: Vec<u32>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self {
            keys: vec![0; SORT_KEYS],
            table: vec![0; TABLE_SLOTS],
        }
    }
}

impl Calibration {
    /// Host seconds of one calibration round: a branchy sort plus
    /// data-dependent scattered updates, the simulator's kinds of work,
    /// in about 1 MiB so that it evicts little of the simulator's state.
    pub fn round(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for k in self.keys.iter_mut() {
            *k = next();
        }
        self.keys.sort_unstable();
        black_box(&self.keys);
        self.table.fill(0);
        for i in 0..TABLE_STEPS {
            let slot = next() as usize % TABLE_SLOTS;
            self.table[slot] = self.table[slot].wrapping_add(i);
            if self.table[slot] & 3 == 0 {
                next();
            }
        }
        black_box(&self.table);
        t.elapsed().as_secs_f64()
    }

    /// Run `f` between two calibration rounds. Returns its result and its
    /// host seconds scaled by [`REFERENCE_S`] over the mean round time.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = self.round();
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        let after = self.round();
        (r, secs * REFERENCE_S / ((before + after) / 2.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_takes_measurable_time_and_scales_timings() {
        let mut c = Calibration::default();
        assert!(c.round() > 0.0);
        let (v, s) = c.timed(|| (0..1000u64).map(black_box).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(s > 0.0 && s.is_finite());
    }
}
