//! Simulation points, timed two ways: untraced through the public runner
//! (`ParallelRunner::run_matrix`, one point per call), and traced through
//! `System`'s public API with a span around each call.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use stacksim::runner::{ParallelRunner, RunResult};
use stacksim::System;
use stacksim_stats::{harmonic_mean, MetricsSink};

use crate::check::{digest, Digest};
use crate::gen::Point;
use crate::span::Tracer;

/// Message of a caught panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(format!("{what} panicked: {}", panic_message(&*p))))
}

/// One point through `run_matrix`, as a user of the runner would call it.
pub fn run_point(runner: &ParallelRunner, point: &Point) -> Result<Arc<RunResult>, String> {
    guarded("run_matrix", || {
        let mut results = runner
            .run_matrix(&[point.run_point()])
            .map_err(|e| format!("point {}: {e}", point.index))?;
        results
            .pop()
            .ok_or_else(|| "run_matrix returned no result".to_string())
    })
}

/// Counts of one point, read from its own `MetricsSink` (plus the
/// measured window's ticked cycles, read around the traced call).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub points: u64,
    pub ticked: u64,
    pub skipped: u64,
    pub measure_ticked: u64,
    pub committed: u64,
    pub measure_committed: u64,
    pub full_retries: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub mc_issued: u64,
    pub dram_accesses: u64,
    pub row_hits: u64,
    pub row_misses: u64,
}

/// Sum of the per-controller metric `mcN.<suffix>` over every controller.
fn sum_mcs(flat: &[(String, f64)], suffix: &str) -> u64 {
    flat.iter()
        .filter(|(name, _)| {
            name.strip_prefix("mc")
                .and_then(|rest| rest.split_once('.'))
                .is_some_and(|(n, tail)| n.bytes().all(|b| b.is_ascii_digit()) && tail == suffix)
        })
        .map(|(_, v)| *v as u64)
        .sum()
}

impl Counts {
    pub fn of(stats: &MetricsSink) -> Counts {
        let get = |name: &str| stats.get(name).unwrap_or(0.0) as u64;
        let flat = stats.flatten();
        Counts {
            points: 1,
            ticked: get("ticked_cycles"),
            skipped: get("skipped_cycles"),
            committed: get("committed"),
            full_retries: get("mshr_full_retries"),
            l2_hits: get("l2.hits"),
            l2_misses: get("l2.misses"),
            mc_issued: sum_mcs(&flat, "issued"),
            dram_accesses: sum_mcs(&flat, "ranks.reads") + sum_mcs(&flat, "ranks.writes"),
            row_hits: sum_mcs(&flat, "ranks.row_hits"),
            row_misses: sum_mcs(&flat, "ranks.row_misses"),
            ..Counts::default()
        }
    }

    pub fn add(&mut self, o: &Counts) {
        self.points += o.points;
        self.ticked += o.ticked;
        self.skipped += o.skipped;
        self.measure_ticked += o.measure_ticked;
        self.committed += o.committed;
        self.measure_committed += o.measure_committed;
        self.full_retries += o.full_retries;
        self.l2_hits += o.l2_hits;
        self.l2_misses += o.l2_misses;
        self.mc_issued += o.mc_issued;
        self.dram_accesses += o.dram_accesses;
        self.row_hits += o.row_hits;
        self.row_misses += o.row_misses;
    }
}

/// A traced simulation's outcome.
pub struct Traced {
    pub result: RunResult,
    pub digest: Digest,
    pub counts: Counts,
}

/// Simulates `point` the way `run_mix` does, through `System`'s public
/// calls, with one span per call, all under a `point` span.
pub fn simulate_traced(t: &mut Tracer, point: &Point) -> Result<Traced, String> {
    let op = point.index as u64;
    guarded("traced point", || {
        t.span("point", op, |t| {
            let mut system = t
                .span("system.for_mix", op, |_| {
                    System::for_mix(&point.cfg, point.mix, point.run.seed)
                })
                .map_err(|e| format!("point {}: {e}", point.index))?;
            system.set_fast_forward(point.run.fast_forward);
            t.span("system.warmup", op, |_| {
                system.run_cycles(point.run.warmup_cycles)
            });
            let cores = point.cfg.cores;
            let before: Vec<u64> = (0..cores).map(|i| system.core_committed(i)).collect();
            let ticked_before = system.ticked_cycles();
            t.span("system.measure", op, |_| {
                system.run_cycles(point.run.measure_cycles)
            });
            let measure_ticked = system.ticked_cycles() - ticked_before;
            let committed: Vec<u64> = (0..cores)
                .map(|i| system.core_committed(i) - before[i])
                .collect();
            let stats = t.span("system.metrics", op, |_| system.metrics());
            let per_core_ipc: Vec<f64> = committed
                .iter()
                .map(|&c| c.max(1) as f64 / point.run.measure_cycles as f64)
                .collect();
            let hmipc = harmonic_mean(&per_core_ipc).map_err(|e| e.to_string())?;
            let mut counts = Counts::of(&stats);
            counts.measure_ticked = measure_ticked;
            counts.measure_committed = committed.iter().sum();
            let result = RunResult {
                mix: point.mix.name,
                zero_commit_cores: committed
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c == 0)
                    .map(|(i, _)| i)
                    .collect(),
                per_core_ipc,
                hmipc,
                committed,
                stats,
                trace: None,
            };
            Ok(Traced {
                digest: digest(&result),
                result,
                counts,
            })
        })
    })
}

/// Seconds since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Seconds the calling thread has run on a CPU. Unlike wall time it
/// leaves out the time the thread waited while another task ran, so a
/// point's time measures the program, not the scheduler. (The clock is
/// exact to the nanosecond; `/proc/thread-self/schedstat` would only be
/// exact to the scheduler tick.)
pub fn thread_cpu_secs() -> Result<f64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err(format!(
            "clock_gettime(CLOCK_THREAD_CPUTIME_ID): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}
