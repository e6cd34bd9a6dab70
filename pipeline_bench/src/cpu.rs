//! CPU time of the whole process, all threads included (also threads
//! that have already exited).
//!
//! On a shared virtual machine the host steals CPU time from the guest
//! at unpredictable moments; stolen time passes on the wall clock but is
//! not charged to the process. Compute-bound jobs are therefore reported
//! in CPU seconds, which on the one CPU the benchmark pins itself to is
//! their wall time less what the host took.
//!
//! Reading the clock takes one foreign call, which the binary makes; this
//! library forbids unsafe code and receives the reader as a [`CpuClock`].

use std::time::{Duration, Instant};

/// Reads the CPU time the process has used so far.
pub type CpuClock = fn() -> Duration;

/// Wall and CPU time of one interval, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    clock: CpuClock,
    wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start(clock: CpuClock) -> Self {
        Self {
            clock,
            wall: Instant::now(),
            cpu: clock(),
        }
    }

    /// `(wall seconds, CPU seconds)` since the start.
    pub fn read(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            (self.clock)().saturating_sub(self.cpu).as_secs_f64(),
        )
    }
}
