//! Host speed: a fixed kernel of the benchmark's own, run in short
//! slices between chunks of the program's work, so that host times can
//! be scaled to one reference speed.
//!
//! On the shared two-core containers this benchmark runs on, the same
//! single-threaded work ran up to 1.7x slower for stretches of a second
//! to several minutes. A run's median wall time then depends on which
//! stretches it fell in, and medians of unchanged code spread by a
//! fifth to nearly a half across runs. The kernel below slows down in
//! the same stretches (an integer-only loop does not). Its slices are
//! spread through the timed work on the same thread, so they sample the
//! host over the same second the work ran in, and a time multiplied by
//! [`REFERENCE_SLICE_SECONDS`] over the median slice time reads about
//! the same whichever stretch it fell in. The kernel is the benchmark's
//! code, not the program's, and its slices are not part of the work's
//! time: a change to the program moves the scaled time exactly as it
//! moves the wall time. See README.md ("The reference kernel").

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// `f64`s the kernel streams: 8 MiB, twice the host's 4 MiB L2, so
/// every pass reads through the shared cache level.
const LEN: usize = 1 << 20;
/// Passes over the array per slice.
const SLICE_PASSES: usize = 2;
/// A slice's time at the reference speed: its typical time in the fast
/// stretches of the 2-core Xeon container the benchmark was tuned on.
/// It only sets the scale; the scaled figures are seconds at that
/// speed.
pub const REFERENCE_SLICE_SECONDS: f64 = 0.003;

/// The kernel's input, allocated and touched once per run: one array
/// per thread the kernel runs on.
#[derive(Debug)]
pub struct Reference {
    arrays: Vec<Vec<f64>>,
}

impl Reference {
    /// A kernel for work that runs on `threads` threads (1: on the
    /// calling thread). Allocates the arrays and runs a few slices
    /// untimed, so their pages are resident before the first timed
    /// slice.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let reference = Self {
            arrays: (0..threads.max(1))
                .map(|_| (0..LEN).map(|i| i as f64).collect())
                .collect(),
        };
        for _ in 0..4 {
            let _ = reference.slice();
        }
        reference
    }

    /// Runs one slice of the kernel on each thread at once. Returns the
    /// mean of their wall times in seconds.
    pub fn slice(&self) -> f64 {
        match self.arrays.as_slice() {
            [one] => slice(one),
            arrays => std::thread::scope(|scope| {
                let running: Vec<_> = arrays.iter().map(|a| scope.spawn(|| slice(a))).collect();
                let times: Vec<f64> = running
                    .into_iter()
                    .map(|t| t.join().unwrap_or(f64::NAN))
                    .collect();
                times.iter().sum::<f64>() / times.len() as f64
            }),
        }
    }
}

/// One slice on one array: [`SLICE_PASSES`] passes of a dependent
/// multiply-add chain. Returns its wall time in seconds.
fn slice(data: &[f64]) -> f64 {
    let started = Instant::now();
    let mut acc = 0.0;
    for pass in 0..SLICE_PASSES {
        for (i, y) in data.iter().enumerate() {
            acc += y * 1.000_001 + (pass + i) as f64;
        }
        acc = black_box(acc);
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}

/// The factor that scales work timed between `slices` to the reference
/// speed. The median slice stands for them all, so a slice the thread
/// lost to preemption (a few milliseconds, as long as a whole slice)
/// does not count.
#[must_use]
pub fn factor(slices: &[f64]) -> f64 {
    REFERENCE_SLICE_SECONDS / median(slices)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_reference_over_the_median_slice() {
        let slices = [0.002, 0.006, 0.010];
        assert!((factor(&slices) - 0.5).abs() < 1e-12);
        for threads in [1, 2] {
            let slice = Reference::new(threads).slice();
            assert!(slice.is_finite() && slice > 0.0);
        }
    }
}
