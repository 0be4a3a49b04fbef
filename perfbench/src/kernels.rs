//! Kernel-layer replay drivers: each kernel crate's public calls, timed
//! one layer at a time on streams taken from the workload itself.
//!
//! * workload — `SyntheticWorkload` block generation for every program of
//!   the workload's mixes, seeded as `System::for_mix` seeds them;
//! * cache — those programs' memory µops through a `SetAssocCache` with
//!   the machine's L2 geometry (fill on miss);
//! * mshr — the cache's misses through one MSHR bank of the machine's
//!   organisation and per-bank capacity (lookup, allocate, and on a full
//!   structure deallocate the oldest entry first);
//! * memctrl, dram — the DRAM command stream of an untimed capture run
//!   with `dram_cmds` tracing on, audited by the protocol checker, replayed
//!   as requests through `MemoryController`s and as reads/writes through
//!   `Bank`s built from the machine's memory configuration.

use std::collections::VecDeque;

use stacksim::runner::{ParallelRunner, RunConfig};
use stacksim::trace::TraceConfig;
use stacksim::SystemConfig;
use stacksim_cache::{AccessOutcome, SetAssocCache};
use stacksim_dram::{Bank, BankConfig, DramCmd, DramCmdKind};
use stacksim_memctrl::{Completion, McConfig, MemRequest, MemoryController, RequestKind};
use stacksim_mshr::{
    CamMshr, DirectMappedMshr, HierarchicalMshr, MissHandler, MissKind, MissTarget, MshrKind,
    ProbeScheme, VbfMshr,
};
use stacksim_simcheck::protocol::{check_trace, ProtocolParams};
use stacksim_types::{
    BankId, BusConfig, ClockDomain, CoreId, Cycle, DramLocation, LineAddr, McId, RankId,
};
use stacksim_workload::{InstrBlock, SyntheticWorkload, TraceGenerator};

use crate::gen::{Rng, Workload};
use crate::sim::run_point;
use crate::span::Tracer;

/// µops generated per program of every mix of the workload.
const UOPS_PER_PROGRAM: usize = 24_000;
/// Each program's private 2 GB region, as `System::for_mix` places them
/// on machines without virtual memory.
const PER_CORE_REGION: u64 = 2 << 30;
/// Span op id of the replay drivers.
const REPLAY_OP: u64 = u64::MAX;

/// Work counts of the replay drivers.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayCounts {
    pub uops: u64,
    pub cache_accesses: u64,
    pub cache_misses: u64,
    pub mshr_ops: u64,
    pub mshr_probes: u64,
    pub mshr_full: u64,
    pub mc_requests: u64,
    pub dram_accesses: u64,
    pub dram_row_hits: u64,
    pub captured_cmds: u64,
    pub violations: u64,
}

/// One MSHR bank of `kind`, built as `System` builds its banks (the
/// simulator's own constructor is private).
fn make_mshr(kind: MshrKind, entries: usize) -> Box<dyn MissHandler> {
    match kind {
        MshrKind::Cam => Box::new(CamMshr::new(entries)),
        MshrKind::DirectLinear => Box::new(DirectMappedMshr::new(entries, ProbeScheme::Linear)),
        MshrKind::DirectQuadratic => {
            Box::new(DirectMappedMshr::new(entries, ProbeScheme::Quadratic))
        }
        MshrKind::Vbf => Box::new(VbfMshr::new(entries)),
        MshrKind::Hierarchical => {
            let per_bank = (entries / 4).max(1);
            Box::new(HierarchicalMshr::new(
                2,
                per_bank,
                (entries - 2 * per_bank).max(1),
            ))
        }
    }
}

/// Runs every replay driver once, recording one span per driver.
pub fn replay(t: &mut Tracer, workload: &Workload, seed: u64) -> Result<ReplayCounts, String> {
    let cfg = &workload.replay_machine().cfg;
    let mut counts = ReplayCounts::default();

    // workload: every program of every mix, block by block.
    let mut generators: Vec<SyntheticWorkload> = Vec::new();
    for mix in &workload.mixes {
        for (i, spec) in mix.benchmarks().into_iter().enumerate() {
            let base = if cfg.vm.is_some() {
                0
            } else {
                i as u64 * PER_CORE_REGION
            };
            generators.push(SyntheticWorkload::new(
                spec,
                seed.wrapping_mul(31).wrapping_add(i as u64),
                base,
            ));
        }
    }
    let mut block = InstrBlock::new(256);
    let mut lines: Vec<(LineAddr, bool)> = Vec::new();
    t.span("workload.refill", REPLAY_OP, |_| {
        for (g, generator) in generators.iter_mut().enumerate() {
            // Programs of different mixes share a base; keep their lines
            // apart as the machine's disjoint placement would.
            let offset = (g / 4) as u64 * (PER_CORE_REGION / 64) * 4;
            let mut produced = 0;
            while produced < UOPS_PER_PROGRAM {
                generator.refill(&mut block);
                produced += block.remaining();
                while let Some(instr) = block.take() {
                    if let Some(addr) = instr.addr() {
                        lines.push((
                            LineAddr::new(addr.line().index() + offset),
                            instr.is_store(),
                        ));
                    }
                }
            }
            counts.uops += produced as u64;
        }
    });

    // cache: the programs' memory µops through the L2 geometry.
    let mut cache = SetAssocCache::new(cfg.l2);
    let mut misses: Vec<LineAddr> = Vec::new();
    t.span("cache.access", REPLAY_OP, |_| {
        for &(line, is_write) in &lines {
            if cache.access(line, is_write) == AccessOutcome::Miss {
                misses.push(line);
                cache.fill(line, is_write);
            }
        }
    });
    counts.cache_accesses = lines.len() as u64;
    counts.cache_misses = misses.len() as u64;

    // mshr: the misses through one bank of the machine's organisation.
    let mut mshr = make_mshr(cfg.mshr.kind, cfg.mshr_entries_per_bank());
    let mut outstanding: VecDeque<LineAddr> = VecDeque::new();
    t.span("mshr.ops", REPLAY_OP, |_| {
        for (i, &line) in misses.iter().enumerate() {
            let target = MissTarget::demand(CoreId::new(0), i as u64);
            let found = mshr.lookup(line);
            counts.mshr_ops += 1;
            counts.mshr_probes += u64::from(found.probes);
            loop {
                counts.mshr_ops += 1;
                match mshr.allocate(line, target, MissKind::Read, Cycle::new(i as u64)) {
                    Ok(out) => {
                        counts.mshr_probes += u64::from(out.probes());
                        if out.is_primary() {
                            outstanding.push_back(line);
                        }
                        break;
                    }
                    Err(full) => {
                        counts.mshr_probes += u64::from(full.probes());
                        counts.mshr_full += 1;
                        let oldest = outstanding.pop_front().ok_or("mshr full while empty")?;
                        counts.mshr_ops += 1;
                        if let Some((_, probes)) = mshr.deallocate(oldest) {
                            counts.mshr_probes += u64::from(probes);
                        }
                    }
                }
            }
        }
        Ok::<(), String>(())
    })?;

    // Capture run: one point of the workload with the DRAM command stream
    // traced, audited by the protocol checker.
    let mut rng = Rng::new(seed, 0x4341_5054);
    let mix = workload.mixes[rng.below(workload.mixes.len())];
    let run = RunConfig {
        trace: TraceConfig {
            dram_cmds: true,
            ..TraceConfig::off()
        },
        ..workload.run_config(rng.next())
    };
    let point = crate::gen::Point {
        index: usize::MAX,
        machine: workload.replay_machine().name,
        cfg: cfg.clone(),
        mix,
        run,
    };
    let captured = run_point(&ParallelRunner::with_jobs(1), &point)?;
    let trace = captured
        .trace
        .as_ref()
        .ok_or("capture run returned no trace")?;
    let params = ProtocolParams::for_config(cfg).map_err(|e| e.to_string())?;
    counts.violations = check_trace(&params, trace).len() as u64;
    counts.captured_cmds = trace.dram_cmds.iter().map(|s| s.len() as u64).sum();
    let columns: Vec<Vec<DramCmd>> = trace
        .dram_cmds
        .iter()
        .map(|s| {
            s.iter()
                .copied()
                .filter(|c| matches!(c.kind, DramCmdKind::Read | DramCmdKind::Write))
                .collect()
        })
        .collect();

    let mc_cfg = mc_config(cfg)?;
    t.span("memctrl.replay", REPLAY_OP, |_| {
        for (mc, cmds) in columns.iter().enumerate() {
            counts.mc_requests += replay_mc(cfg, mc, mc_cfg, cmds)?;
        }
        Ok::<(), String>(())
    })?;

    let bank_cfg = BankConfig::try_new(
        mc_cfg.timing,
        mc_cfg.row_buffer_entries,
        mc_cfg.refresh_interval,
    )
    .map_err(|e| e.to_string())?
    .with_smart_refresh(mc_cfg.smart_refresh)
    .with_page_policy(mc_cfg.page_policy);
    t.span("dram.access", REPLAY_OP, |_| {
        for cmds in &columns {
            let mut banks: Vec<(Bank, Cycle)> = (0..mc_cfg.ranks * mc_cfg.banks_per_rank)
                .map(|_| (Bank::new(bank_cfg, mc_cfg.rows_per_bank), Cycle::ZERO))
                .collect();
            for cmd in cmds {
                let (bank, free) = &mut banks[cmd.rank * mc_cfg.banks_per_rank + cmd.bank];
                let now = (*free).max(cmd.at);
                let r = if cmd.kind == DramCmdKind::Read {
                    bank.read(cmd.row, now)
                } else {
                    bank.write(cmd.row, now)
                };
                *free = r.bank_free;
                counts.dram_accesses += 1;
                counts.dram_row_hits += u64::from(r.row_hit);
            }
        }
    });
    Ok(counts)
}

/// One controller's configuration, built as `System` builds it.
fn mc_config(cfg: &SystemConfig) -> Result<McConfig, String> {
    let geometry = cfg.geometry().map_err(|e| e.to_string())?;
    Ok(McConfig {
        queue_capacity: cfg.mrq_per_mc(),
        ranks: geometry.ranks_per_mc() as usize,
        banks_per_rank: cfg.memory.banks_per_rank as usize,
        rows_per_bank: geometry.rows_per_bank(),
        row_buffer_entries: cfg.memory.row_buffer_entries,
        timing: cfg.memory.timing.to_cycles(cfg.core_hz),
        refresh_interval: cfg
            .memory
            .refresh
            .row_interval(geometry.rows_per_bank(), cfg.core_hz),
        smart_refresh: cfg.memory.smart_refresh,
        page_policy: cfg.memory.page_policy,
        bus: BusConfig {
            width_bytes: cfg.memory.bus_width_bytes,
            clock: ClockDomain::new(cfg.memory.bus_clock_divisor),
        },
        critical_word_first: cfg.memory.critical_word_first,
        policy: cfg.memory.policy,
    })
}

/// Replays one controller's column commands as a backlogged request
/// stream: enqueue whenever the queue accepts, tick on every controller
/// clock edge, drain completions. Returns the requests completed.
fn replay_mc(
    cfg: &SystemConfig,
    mc: usize,
    mc_cfg: McConfig,
    cmds: &[DramCmd],
) -> Result<u64, String> {
    let mut ctrl =
        MemoryController::try_new(McId::new(mc as u16), mc_cfg).map_err(|e| e.to_string())?;
    let mcs = cfg.memory.mcs as usize;
    let divisor = cfg.memory.mc_clock_divisor.max(1);
    let mut done: Vec<Completion> = Vec::new();
    let mut completed = 0usize;
    let mut next = 0usize;
    let mut now = 0u64;
    let limit = 10_000 * (cmds.len() as u64 + 1);
    while completed < cmds.len() {
        while next < cmds.len() && ctrl.can_accept() {
            let cmd = &cmds[next];
            let request = MemRequest {
                line: LineAddr::new(next as u64),
                location: DramLocation {
                    mc: McId::new(mc as u16),
                    rank: RankId::new((cmd.rank * mcs + mc) as u16),
                    rank_in_mc: cmd.rank as u16,
                    bank: BankId::new(cmd.bank as u16),
                    row: cmd.row,
                    column: 0,
                },
                kind: if cmd.kind == DramCmdKind::Read {
                    RequestKind::Read
                } else {
                    RequestKind::Writeback
                },
                core: CoreId::new(0),
                arrival: Cycle::new(now),
                token: next as u64,
            };
            ctrl.enqueue(request).map_err(|e| e.to_string())?;
            next += 1;
        }
        ctrl.tick(Cycle::new(now));
        ctrl.drain_completions_into(Cycle::new(now), &mut done);
        completed += done.len();
        done.clear();
        now += divisor;
        if now > limit {
            return Err(format!(
                "mc{mc} replay did not drain {} requests",
                cmds.len()
            ));
        }
    }
    Ok(completed as u64)
}
