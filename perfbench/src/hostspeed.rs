//! The host-speed reference behind the normalised host metrics.
//!
//! On a shared virtual machine the program's speed drifts by up to 2×
//! over minutes, as other machines' memory traffic comes and goes, and
//! process CPU time drifts with it (the hypervisor reports almost no
//! steal). A fixed loop of random read-modify-writes over a 64 MiB
//! buffer per thread slows down in step with the simulator, so
//! `sim_mips` and `setup_s` are scaled by how long that loop took right
//! after each serve repetition. The loop runs no code of the program
//! under test, so a simulator change cannot move it.

use std::time::Instant;

/// Words in each thread's buffer: 64 MiB, larger than any per-core
/// cache and about the size of a workload's simulated memory.
const BUFFER_WORDS: usize = 1 << 23;

/// Read-modify-writes in one pass of the loop.
const PASS_ITERS: u64 = 1_000_000;

/// Seconds one pass takes on the reference host (a typical phase of a
/// 2-vCPU Intel Xeon virtual machine; its quietest phases took about
/// 25 ms). A normalised metric reads what it would on that host.
pub const NOMINAL_PASS_SECS: f64 = 0.035;

/// One buffer per worker thread, allocated once.
pub struct HostSpeed {
    buffers: Vec<Vec<u64>>,
}

impl HostSpeed {
    /// A reference with one buffer per thread (`threads` ≥ 1).
    pub fn new(threads: usize) -> HostSpeed {
        HostSpeed {
            buffers: (0..threads.max(1)).map(|_| vec![1; BUFFER_WORDS]).collect(),
        }
    }

    /// How much slower than the reference host this host is now: one
    /// pass on every thread at once, mean seconds over
    /// [`NOMINAL_PASS_SECS`]. A host rate times this, or a host time
    /// divided by it, is the normalised figure.
    pub fn slowdown(&mut self) -> f64 {
        let threads = self.buffers.len() as f64;
        let total: f64 = std::thread::scope(|s| {
            let passes: Vec<_> = self
                .buffers
                .iter_mut()
                .map(|buffer| s.spawn(move || pass(buffer)))
                .collect();
            passes
                .into_iter()
                .map(|p| p.join().expect("reference pass panicked"))
                .sum()
        });
        total / threads / NOMINAL_PASS_SECS
    }
}

/// Host seconds of one pass over `buffer`.
fn pass(buffer: &mut [u64]) -> f64 {
    let mask = buffer.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let start = Instant::now();
    for i in 0..PASS_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = x as usize & mask;
        buffer[j] = buffer[j].wrapping_add(i ^ x);
        if buffer[j] & 3 == 1 {
            x = x.wrapping_add(buffer[(j + 1) & mask]);
        }
    }
    std::hint::black_box(&buffer);
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_positive_and_finite() {
        let mut reference = HostSpeed::new(2);
        let s = reference.slowdown();
        assert!(s > 0.0 && s.is_finite(), "slowdown {s}");
    }
}
