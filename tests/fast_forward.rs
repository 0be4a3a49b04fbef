//! Quiescence fast-forward must be invisible: a run with cycle skipping
//! enabled has to produce byte-for-byte the same simulated outcome — every
//! committed count, every IPC, every metric, every trace event — as the
//! same run ticked cycle by cycle.
//!
//! The only permitted difference is the simulator's own skip accounting
//! (`ticked_cycles` / `skipped_cycles`), which describes how the run was
//! *executed*, not what the machine *did*.
//!
//! The fast-vs-tick-by-tick comparison covers the skip machinery: whole-
//! machine jumps, MC-only slices and the per-core inert shortcut. It does
//! not cover how requests blocked on a full MSHR bank wait, because both
//! runs share that path: blocked requests leave the event wheel and only
//! re-probe when their bank changes, with unchanged failed attempts
//! charged in bulk. That path is checked instead against results pinned
//! from a simulator that re-probed every blocked request every cycle
//! (`retry_heavy_runs_match_pinned_results`), and in debug builds by an
//! oracle that re-runs the allocation of every request passed over.

use stacksim::config::SystemConfig;
use stacksim::configs;
use stacksim::runner::{run_mix, RunConfig, RunResult};
use stacksim::trace::TraceConfig;
use stacksim_mshr::{MshrKind, TunerConfig};
use stacksim_types::Cycles;
use stacksim_workload::Mix;

/// Flattened metric tree minus the skip meta-counters.
fn machine_metrics(result: &RunResult) -> Vec<(String, f64)> {
    result
        .stats
        .flatten()
        .into_iter()
        .filter(|(name, _)| name != "ticked_cycles" && name != "skipped_cycles")
        .collect()
}

fn assert_bit_identical(label: &str, cfg: &SystemConfig, mix_name: &str, run: RunConfig) {
    let mix = Mix::by_name(mix_name).expect("known mix");
    let fast = run_mix(cfg, mix, &run).expect("fast-forward run");
    let slow = run_mix(cfg, mix, &run.tick_by_tick()).expect("tick-by-tick run");

    assert_eq!(fast.committed, slow.committed, "{label}: committed");
    assert_eq!(fast.per_core_ipc, slow.per_core_ipc, "{label}: ipc");
    assert_eq!(fast.hmipc, slow.hmipc, "{label}: hmipc");
    assert_eq!(
        fast.zero_commit_cores, slow.zero_commit_cores,
        "{label}: zero-commit cores"
    );
    assert_eq!(fast.trace, slow.trace, "{label}: trace streams");
    let fast_metrics = machine_metrics(&fast);
    let slow_metrics = machine_metrics(&slow);
    assert_eq!(
        fast_metrics.len(),
        slow_metrics.len(),
        "{label}: metric count"
    );
    for (f, s) in fast_metrics.iter().zip(&slow_metrics) {
        assert_eq!(f, s, "{label}: metric {}", s.0);
    }

    // The tick-by-tick run must really have ticked every cycle, and the
    // fast run must account for every cycle one way or the other.
    let cycles = slow.stats.get("cycles").expect("cycles metric");
    assert_eq!(slow.stats.get("skipped_cycles"), Some(0.0), "{label}");
    assert_eq!(slow.stats.get("ticked_cycles"), Some(cycles), "{label}");
    let skipped = fast.stats.get("skipped_cycles").expect("skip counter");
    let ticked = fast.stats.get("ticked_cycles").expect("tick counter");
    assert_eq!(skipped + ticked, cycles, "{label}: cycle accounting");
}

#[test]
fn fast_forward_matches_tick_by_tick_on_2d() {
    // Off-chip memory, single MC: long stalls, the skip-friendliest case.
    assert_bit_identical("2d/VH1", &configs::cfg_2d(), "VH1", RunConfig::quick());
    assert_bit_identical("2d/M1", &configs::cfg_2d(), "M1", RunConfig::quick());
}

#[test]
fn fast_forward_matches_tick_by_tick_on_3d_multi_mc() {
    let cfg = configs::cfg_quad_mc();
    assert_bit_identical("quad-mc/VH2", &cfg, "VH2", RunConfig::quick());
    assert_bit_identical("quad-mc/HM1", &cfg, "HM1", RunConfig::quick());
}

#[test]
fn fast_forward_matches_tick_by_tick_with_vbf_and_dynamic_mshr() {
    // VBF MSHRs add probe-latency events; the dynamic tuner adds phase
    // boundaries the skip must stop at.
    let cfg = configs::cfg_dual_mc()
        .with_mshr_kind(MshrKind::Vbf)
        .with_mshr_scale(8)
        .with_dynamic_mshr(TunerConfig {
            sample_cycles: 500,
            apply_cycles: 5_000,
            divisors: vec![1, 2, 4],
        });
    assert_bit_identical("vbf+tuner/VH1", &cfg, "VH1", RunConfig::quick());
}

#[test]
fn fast_forward_matches_tick_by_tick_while_tracing() {
    // Sampled trace streams impose periodic barriers; the streams
    // themselves (timestamps included) must come out identical.
    let mut trace = TraceConfig::all();
    trace.sample_interval = 512;
    let run = RunConfig::quick().with_trace(trace);
    assert_bit_identical("traced/H1", &configs::cfg_3d_fast(), "H1", run);
}

#[test]
fn partial_quiescence_matches_tick_by_tick_with_mcs_draining() {
    // The partial-quiescence slice: every core parked on fills while one
    // or more MCs still drain their queues. Multi-MC aggressive configs
    // exercise the MC-only tick path (cores replayed via note_skipped,
    // memory stages run for real) far more than whole-machine jumps.
    assert_bit_identical(
        "partial/quad-mc/VH1",
        &configs::cfg_quad_mc(),
        "VH1",
        RunConfig::quick(),
    );
    assert_bit_identical(
        "partial/dual-mc/HM1",
        &configs::cfg_dual_mc(),
        "HM1",
        RunConfig::quick(),
    );
}

#[test]
fn partial_quiescence_matches_tick_by_tick_on_branch_refill_heavy_mix() {
    // Compute/branch-bound cores spend their idle time fetch-stalled after
    // mispredicts, often with commits still draining from the window —
    // the commit-replay case of the slice proof. Fast 3D memory keeps the
    // fills short so branch stalls dominate the inert windows.
    assert_bit_identical(
        "partial/3d-fast/M1",
        &configs::cfg_3d_fast(),
        "M1",
        RunConfig::quick(),
    );
    assert_bit_identical(
        "partial/quad-mc/M2",
        &configs::cfg_quad_mc(),
        "M2",
        RunConfig::quick(),
    );
}

#[test]
fn partial_quiescence_skips_cycles_on_figure6_shaped_configs() {
    // The figure 6/7 sweeps run aggressive multi-MC machines where
    // whole-machine quiescence is rare; the MC-only slice is what makes
    // their skip fraction material. Floors are set conservatively below
    // measured quick-profile fractions so legitimate model changes don't
    // trip them, while a partial-quiescence regression (fraction collapses
    // toward the pre-slice level) still does.
    for (label, cfg, mix_name, floor) in [
        (
            "figure6-shaped/quad-mc/VH1",
            configs::cfg_quad_mc(),
            "VH1",
            0.10,
        ),
        (
            "figure6-shaped/dual-mc/HM1",
            configs::cfg_dual_mc(),
            "HM1",
            0.08,
        ),
    ] {
        let mix = Mix::by_name(mix_name).expect("known mix");
        let result = run_mix(&cfg, mix, &RunConfig::quick()).expect("run");
        let skipped = result.stats.get("skipped_cycles").expect("skip counter");
        let cycles = result.stats.get("cycles").expect("cycles");
        assert!(
            skipped > floor * cycles,
            "{label}: expected skip fraction above {floor}, got {skipped} of {cycles}"
        );
    }
}

#[test]
fn memory_bound_mixes_skip_most_cycles() {
    // The point of the whole exercise: on a memory-bound mix the machine
    // is quiescent more often than not.
    let mix = Mix::by_name("VH1").expect("known mix");
    let result = run_mix(&configs::cfg_2d(), mix, &RunConfig::quick()).expect("run");
    let skipped = result.stats.get("skipped_cycles").expect("skip counter");
    let cycles = result.stats.get("cycles").expect("cycles");
    assert!(
        skipped > 0.4 * cycles,
        "expected a majority-ish skip fraction, got {skipped} of {cycles}"
    );
}

/// FNV-1a/64 over the flattened metric tree minus the skip meta-counters:
/// one digest that moves if any simulated metric moves.
fn metrics_digest(result: &RunResult) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, value) in machine_metrics(result) {
        let bytes = name.bytes().chain(value.to_bits().to_le_bytes());
        for byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The retry-heavy matrix: both baseline-sized MSHR machines (2D, one bank
/// of 8 entries; dual-MC, two banks of 4) under every MSHR organization,
/// each at the shipped latencies and at two odd latency settings where
/// one-cycle sends and writebacks interleave with MSHR-full retries;
/// quad-MC (four banks of 2) under every organization at the shipped
/// latencies; two runs with no L2 or wire latency; plus dynamic-tuner runs
/// whose capacity changes reopen full banks.
fn retry_heavy_cases() -> Vec<(String, SystemConfig)> {
    let kinds = [
        MshrKind::Cam,
        MshrKind::DirectLinear,
        MshrKind::DirectQuadratic,
        MshrKind::Vbf,
        MshrKind::Hierarchical,
    ];
    let mut cases = Vec::new();
    for (machine, base) in [
        ("2d", configs::cfg_2d()),
        ("dual-mc", configs::cfg_dual_mc()),
    ] {
        for kind in kinds {
            let cfg = base.with_mshr_kind(kind);
            let mut short = cfg.clone();
            short.l2_latency = Cycles::new(1);
            short.memory.path_latency = Cycles::new(1);
            let mut hops = cfg.clone();
            hops.interconnect.hop_latency = Cycles::new(1);
            cases.push((format!("{machine}/{kind}"), cfg));
            cases.push((format!("{machine}/{kind}/l2-1-path-1"), short));
            cases.push((format!("{machine}/{kind}/hop-1"), hops));
        }
    }
    // Quad-MC: four banks of 2 entries, so blocked requests of several
    // banks interleave in one walk and each bank's count matters.
    for kind in kinds {
        cases.push((
            format!("quad-mc/{kind}"),
            configs::cfg_quad_mc().with_mshr_kind(kind),
        ));
    }
    // L2 latency 0: demand accesses reach the L2 in the cycle they issue,
    // behind that cycle's retry marker, so their blocks attempt after the
    // marker's survivors next cycle.
    for (machine, base, kind) in [
        ("2d", configs::cfg_2d(), MshrKind::Cam),
        ("dual-mc", configs::cfg_dual_mc(), MshrKind::Vbf),
    ] {
        let mut cfg = base.with_mshr_kind(kind);
        cfg.l2_latency = Cycles::ZERO;
        cfg.memory.path_latency = Cycles::ZERO;
        cases.push((format!("{machine}/{kind}/l2-0-path-0"), cfg));
    }
    let tuner = TunerConfig {
        sample_cycles: 500,
        apply_cycles: 3_000,
        divisors: vec![1, 2, 4],
    };
    cases.push((
        "dual-mc/vbf/tuner".to_string(),
        configs::cfg_dual_mc()
            .with_mshr_kind(MshrKind::Vbf)
            .with_dynamic_mshr(tuner.clone()),
    ));
    cases.push((
        "2d/hierarchical/tuner".to_string(),
        configs::cfg_2d()
            .with_mshr_kind(MshrKind::Hierarchical)
            .with_dynamic_mshr(tuner),
    ));
    cases
}

/// Each retry-heavy case's `(mshr_full_retries, mshr_probes_per_access
/// bits, committed, metrics digest)` on VH1, as produced by the simulator
/// that re-probed every blocked request every cycle. The quad-MC and
/// zero-latency rows came later, from the per-cycle walk over blocked
/// requests that skipped unchanged banks, which reproduced every other row. Any change to how
/// blocked requests wait must reproduce these exactly.
#[rustfmt::skip]
const RETRY_HEAVY_PINS: &[(&str, u64, u64, u64, u64)] = &[
    ("2d/cam", 546762, 0x3ff0000000000000, 3875, 0x64ef0f265db89be1),
    ("2d/cam/l2-1-path-1", 507427, 0x3ff0000000000000, 5604, 0xa9d8beea61380269),
    ("2d/cam/hop-1", 470149, 0x3ff0000000000000, 4287, 0x8489b309f7541e82),
    ("2d/direct-linear", 483660, 0x401ff6273ff7b6a0, 3786, 0xa4db79e0918efd3a),
    ("2d/direct-linear/l2-1-path-1", 472853, 0x401ff31b2758346a, 5348, 0xa1e41c6baeeb39b6),
    ("2d/direct-linear/hop-1", 502238, 0x401ff68a9afbc693, 4181, 0x0f81e95b49097e3f),
    ("2d/direct-quadratic", 554445, 0x401ff81adcc35dfa, 3857, 0x39cddd4bd1ad272d),
    ("2d/direct-quadratic/l2-1-path-1", 423985, 0x401ff231839ea4ff, 4582, 0x2f5157fe8f008950),
    ("2d/direct-quadratic/hop-1", 480063, 0x401ff6378b840af3, 3926, 0x775b6d84cba72e17),
    ("2d/vbf", 464339, 0x3ffd1e82d6044265, 4230, 0xc5661c34d7b8c5f0),
    ("2d/vbf/l2-1-path-1", 487323, 0x3ffda7eedbc3585a, 5010, 0x7848c383c8c4312a),
    ("2d/vbf/hop-1", 522874, 0x3ffd79a2cb376649, 4030, 0x35b0d8d7827772ab),
    ("2d/hierarchical", 474178, 0x3ffff4e6a3fa3a24, 4354, 0x3ae154f4f5383831),
    ("2d/hierarchical/l2-1-path-1", 508590, 0x3ffff527a82870d9, 3946, 0x76d582759fe52403),
    ("2d/hierarchical/hop-1", 538346, 0x3ffff680f653a596, 3890, 0xaf437aa6d0404a70),
    ("dual-mc/cam", 348566, 0x3ff0000000000000, 64212, 0x6ce815a9cbac6fc3),
    ("dual-mc/cam/l2-1-path-1", 479355, 0x3ff0000000000000, 55992, 0x88249d6a2b72f894),
    ("dual-mc/cam/hop-1", 344420, 0x3ff0000000000000, 64246, 0xa28cfb15f6c6afaf),
    ("dual-mc/direct-linear", 336876, 0x400fa34cd331dbcb, 63547, 0x83ff5e16ee7086b7),
    ("dual-mc/direct-linear/l2-1-path-1", 463175, 0x400fc61b6956257e, 53280, 0x0b24e7e4ae3c8bc8),
    ("dual-mc/direct-linear/hop-1", 339026, 0x400fa7a23d53ff28, 61871, 0x52878dde77b27857),
    ("dual-mc/direct-quadratic", 343962, 0x400fa585fe8460ae, 65281, 0x0ddfae59ae8fe9c4),
    ("dual-mc/direct-quadratic/l2-1-path-1", 473724, 0x400fc4fdb9ad90d2, 56034, 0x23e0ee45414d6ad0),
    ("dual-mc/direct-quadratic/hop-1", 334660, 0x400fa57c48e22af1, 63608, 0x47983a4b5024bf3d),
    ("dual-mc/vbf", 336422, 0x3ffaaf0308cf26dc, 64152, 0xa507fbb5aff7e1d8),
    ("dual-mc/vbf/l2-1-path-1", 465986, 0x3ffb2135ea3b350b, 55664, 0x38abab8f3d6ba7e2),
    ("dual-mc/vbf/hop-1", 342417, 0x3ffadad6c1a19da3, 63749, 0x67a6fd55520dd1be),
    ("dual-mc/hierarchical", 348895, 0x3fff91c4f376c5a4, 65612, 0x7143b7276412530a),
    ("dual-mc/hierarchical/l2-1-path-1", 480337, 0x3fffb6c78f6146b7, 55145, 0x9a489d39a691c243),
    ("dual-mc/hierarchical/hop-1", 351147, 0x3fff98a16f0b3731, 63133, 0xa48367615c299b60),
    ("quad-mc/cam", 304549, 0x3ff0000000000000, 82117, 0xfa2362bc63a35181),
    ("quad-mc/direct-linear", 302598, 0x3fffaa56fa4fd03a, 83329, 0x47d28988840128bb),
    ("quad-mc/direct-quadratic", 302598, 0x3fffaa56fa4fd03a, 83329, 0x47d28988840128bb),
    ("quad-mc/vbf", 301787, 0x3ff6c10b2edab535, 81707, 0xe1e80b67ec06c2cd),
    ("quad-mc/hierarchical", 224143, 0x3ffea9c53a74390e, 89542, 0xecc84019e548d1d3),
    ("2d/cam/l2-0-path-0", 834793, 0x3ff0000000000000, 4073, 0x08311773874ddd4f),
    ("dual-mc/vbf/l2-0-path-0", 744217, 0x3ffb4e43f7d42fe9, 83987, 0x4afac5c7e3314e33),
    ("dual-mc/vbf/tuner", 369345, 0x3ff62ac8213f50a1, 52098, 0xd95771a5a7ecd8d7),
    ("2d/hierarchical/tuner", 610512, 0x3ffff7b95a7e7e17, 3725, 0xe8b3beba816cb4c1),
];

#[test]
fn retry_heavy_runs_match_pinned_results() {
    let mix = Mix::by_name("VH1").expect("known mix");
    let run = RunConfig {
        warmup_cycles: 5_000,
        measure_cycles: 30_000,
        ..RunConfig::quick()
    };
    let mut observed = Vec::new();
    for (label, cfg) in retry_heavy_cases() {
        for run in [run, run.tick_by_tick()] {
            let result = run_mix(&cfg, mix, &run).expect("run");
            let stat = |name: &str| result.stats.get(name).expect(name);
            let row = (
                label.clone(),
                stat("mshr_full_retries") as u64,
                stat("mshr_probes_per_access").to_bits(),
                stat("committed") as u64,
                metrics_digest(&result),
            );
            if run.fast_forward {
                observed.push(row);
            } else {
                assert_eq!(Some(&row), observed.last(), "{label}: tick-by-tick");
            }
        }
    }
    let table: String = observed
        .iter()
        .map(|(l, r, p, c, d)| format!("    (\"{l}\", {r}, {p:#018x}, {c}, {d:#018x}),\n"))
        .collect();
    let pinned: Vec<_> = RETRY_HEAVY_PINS
        .iter()
        .map(|&(l, r, p, c, d)| (l.to_string(), r, p, c, d))
        .collect();
    assert!(
        pinned == observed,
        "retry-heavy results moved; observed:\n{table}"
    );
    for (label, retries, ..) in &observed {
        assert!(
            *retries > 1_000,
            "{label}: only {retries} MSHR-full retries"
        );
    }
}
