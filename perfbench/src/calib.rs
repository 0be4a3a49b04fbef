//! Host-speed calibration. The 2-vCPU virtual machine this benchmark was
//! sized on changes speed by up to 2× over tens of seconds, so identical
//! work reads up to 2× apart between runs minutes apart. A fixed kernel
//! that lives in this file, not in the program, runs interleaved with each
//! run's operations, and the reported end-to-end times (all but one tail
//! statistic per workload) are scaled by the kernel's nominal time over
//! its median time in the run. A change to the program moves the
//! operations but not the kernel, so it shows in full; a change in the
//! host's speed moves both and largely cancels.
//!
//! The kernel sorts 64 Ki pseudo-random `u64`s (512 KiB, branchy, about
//! 1.5 ms). Of the kernels tried — random reads of a 4 MiB or a 128 KiB
//! table, a branchy ALU loop, this sort — its time tracked the
//! simulator's most closely: over 5–15-second blocks of a two-minute probe
//! the simulator's time spread 0.30–0.35 (quartile distance over median)
//! and its ratio to the sort's 0.09–0.11.

use crate::sim::thread_cpu_secs;

const KEYS: usize = 1 << 16;

/// The kernel's time on the host the benchmark was sized on, a 2-vCPU
/// VM: the scale of the normalized times, so they read close to that
/// host's seconds.
const NOMINAL_SECS: f64 = 0.0017;

/// One run's calibration samples.
pub struct HostSpeed {
    keys: Vec<u64>,
    samples: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed {
            keys: vec![0; KEYS],
            samples: Vec::new(),
        }
    }

    /// Runs the kernel once and records its CPU time.
    pub fn sample(&mut self) -> Result<(), String> {
        let t0 = thread_cpu_secs()?;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for k in self.keys.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x;
        }
        self.keys.sort_unstable();
        std::hint::black_box(self.keys[KEYS / 2]);
        self.samples.push(thread_cpu_secs()? - t0);
        Ok(())
    }

    /// Nominal over median kernel time: multiply a measured time by this
    /// (divide a rate by it) to express it at the nominal host speed.
    pub fn factor(&self) -> f64 {
        NOMINAL_SECS / crate::report::percentile(&self.samples, 0.5)
    }

    pub fn note(&self) -> String {
        format!(
            "host speed: median calibration sort {:.6} s over n={} samples, nominal {NOMINAL_SECS} s, factor {:.4}",
            crate::report::percentile(&self.samples, 0.5),
            self.samples.len(),
            self.factor()
        )
    }
}
