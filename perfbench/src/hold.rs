//! Holding the host's second core while a single-threaded run is timed.
//!
//! On the two-core containers this benchmark runs on, a single-threaded
//! simulation ran up to 1.7x faster while the container's other core sat
//! idle than while it was busy, and flipped between the two every few
//! seconds, presumably as the host lent the idle core's hardware to other
//! work. A thread doing integer arithmetic on the other core removes
//! that choice: the timed thread always shares the hardware, and its
//! times hold still. See README.md ("Holding the second core").

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Iterations between checks of the stop flag (well under a
/// millisecond).
const CHUNK: u32 = 1 << 16;

/// A busy thread that runs until the holder is dropped; dropping it
/// stops the thread and waits for it.
#[derive(Debug)]
pub struct CoreHolder {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<u64>>,
}

impl CoreHolder {
    /// Starts the busy thread.
    #[must_use]
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("perfbench-hold".to_string())
            .spawn(move || {
                let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
                while !flag.load(Ordering::Relaxed) {
                    for _ in 0..CHUNK {
                        // xorshift64: dependent integer work, no memory
                        // traffic and no pause hint.
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x = black_box(x);
                    }
                }
                x
            })
            .ok();
        Self { stop, thread }
    }

    /// Whether the busy thread is running (it is not when the thread
    /// could not be spawned).
    #[must_use]
    pub fn running(&self) -> bool {
        self.thread.is_some()
    }
}

impl Drop for CoreHolder {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
