//! Holds timed stretches back until the core runs at full speed.
//!
//! The benchmark's cores are shared with other tenants of the host, and
//! for spells of seconds they run the same code up to 1.8x slower (thread
//! CPU time slows alike, so it is slower execution, not descheduling). A
//! fixed probe of about 0.1 ms of independent integer work, which slows the
//! most when a core is shared, tells the states apart: before a timed
//! stretch the benchmark probes until `RUN` probes in a row run within
//! `SLACK` of the fastest probe of the process, or until the run's waiting
//! budget is spent. The waiting is not timed; the program's calls are
//! timed exactly as before, only while the core is not slowed.

use std::hint::black_box;
use std::time::Instant;

/// A probe this much slower than the fastest one means a slowed core.
const SLACK: f64 = 1.15;
/// Fast probes in a row that show the core at full speed.
const RUN: u32 = 4;
/// Rounds of the probe over its eight independent xorshift streams.
const ROUNDS: u64 = 20_000;

pub struct Quiet {
    /// Fastest probe so far, in seconds.
    floor: f64,
    /// Waiting left in this run, in seconds.
    budget: f64,
    /// Waiting spent so far, in seconds.
    pub waited: f64,
    /// Probes made, and how many came out slow.
    pub probes: u64,
    pub slow: u64,
}

impl Quiet {
    /// A gate that may wait up to `budget` seconds in all; 0 disables it.
    pub fn new(budget: f64) -> Self {
        let mut q = Quiet { floor: f64::INFINITY, budget, waited: 0.0, probes: 0, slow: 0 };
        if budget > 0.0 {
            for _ in 0..64 {
                q.probe();
            }
        }
        q
    }

    /// A gate that never probes or waits.
    #[cfg(test)]
    pub fn off() -> Self {
        Quiet::new(0.0)
    }

    /// Times one probe and lowers the floor; true if it ran at full speed.
    fn probe(&mut self) -> bool {
        let start = Instant::now();
        let mut s = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
        for i in 0..ROUNDS {
            for x in s.iter_mut() {
                *x ^= *x << 13;
                *x ^= *x >> 7;
                *x ^= *x << 17;
                *x = x.wrapping_add(i);
            }
        }
        black_box(s);
        let t = start.elapsed().as_secs_f64();
        self.floor = self.floor.min(t);
        self.probes += 1;
        let fast = t <= self.floor * SLACK;
        self.slow += u64::from(!fast);
        fast
    }

    /// Returns once the core runs at full speed or the budget is spent.
    pub fn wait(&mut self) {
        if self.budget <= 0.0 {
            return;
        }
        let start = Instant::now();
        let mut fast = 0;
        while fast < RUN && start.elapsed().as_secs_f64() < self.budget {
            fast = if self.probe() { fast + 1 } else { 0 };
        }
        let spent = start.elapsed().as_secs_f64();
        self.waited += spent;
        self.budget -= spent;
    }
}
