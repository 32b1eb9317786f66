//! Host-speed calibration.
//!
//! The boxes this benchmark runs on do not hold their speed: a fixed
//! single-thread kernel takes anything from −10 % to +25 % of its usual
//! time, for seconds to minutes on end, and everything compute-bound slows
//! with it (measured: a SHA-256 + gzip loop over the crates varied by 17 %
//! in 150 s while its ratio to the kernel below stayed within ±1.5 %). Ten
//! runs of one commit then spread by up to 15 %, and no estimator over the
//! repetitions of a run helps, because the drift is slower than a run.
//!
//! So every host-clock time is read in **calibrated seconds**: the wall time
//! multiplied by the host's speed while it was taken, where the speed is
//! `NOMINAL_S` over the time a reference kernel took just before and just
//! after. On a host at nominal speed a calibrated second is a wall second.
//! The kernel belongs to the benchmark and calls nothing in the crates, so
//! no change to the system moves the yardstick. Raw wall times and the speed
//! factors are recorded beside the calibrated numbers.

use std::cell::Cell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What the reference kernel takes on the box the workloads were sized on.
pub const NOMINAL_S: f64 = 3.5e-3;

const TABLE_WORDS: usize = 32 * 1024;
const STEPS: u32 = 400_000;

/// A dependent chain of xorshift-multiply steps scattered over a 256 KiB
/// table: integer ALU plus L2-resident loads and stores, like the hashing
/// and match-finding the workloads spend their time in.
fn kernel(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..STEPS {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let i = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40) as usize & mask;
        table[i] = table[i].wrapping_add(x);
        x ^= table[(i + 7) & mask];
    }
    x
}

thread_local! {
    static TABLE: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
    static LAST: Cell<Option<(Instant, f64)>> = const { Cell::new(None) };
}

/// Seconds the reference kernel takes right now.
fn kernel_s() -> f64 {
    let mut table = TABLE.take();
    if table.is_empty() {
        table = vec![1; TABLE_WORDS];
        kernel(&mut table); // first touch pays the page faults
    }
    let t = Instant::now();
    black_box(kernel(&mut table));
    let s = t.elapsed().as_secs_f64();
    TABLE.set(table);
    LAST.set(Some((Instant::now(), NOMINAL_S / s)));
    s
}

/// The host's speed (1 = nominal) as of at most 100 ms ago.
pub fn recent_speed() -> f64 {
    match LAST.get() {
        Some((at, speed)) if at.elapsed() < Duration::from_millis(100) => speed,
        _ => NOMINAL_S / kernel_s(),
    }
}

/// Run `f` between two readings of the reference kernel; returns its result
/// and the host's speed over that stretch.
pub fn bracket<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = kernel_s();
    let r = f();
    let after = kernel_s();
    (r, NOMINAL_S / ((before + after) / 2.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_the_speed_positive() {
        let (mut a, mut b) = (vec![1u64; TABLE_WORDS], vec![1u64; TABLE_WORDS]);
        assert_eq!(kernel(&mut a), kernel(&mut b));
        assert_eq!(a, b);
        let (v, speed) = bracket(|| 7);
        assert_eq!(v, 7);
        assert!(speed > 0.0 && speed.is_finite());
        assert_eq!(recent_speed(), recent_speed());
    }
}
