//! Seeded, deterministic generation of the simulation points and serve
//! queries each workload runs. The program only ever sees what these
//! generators produce; the same seed always yields the same sequence.

use stacksim::runner::{RunConfig, RunPoint};
use std::path::Path;

use stacksim::scenario::{Machines, Scenario};
use stacksim::SystemConfig;
use stacksim_stats::Json;
use stacksim_workload::Mix;

/// The workload seed used when `--seed` is not given, and the only seed
/// whose point digests are committed as references.
pub const DEFAULT_SEED: u64 = 1;

/// SplitMix64: tiny, fast and good enough to spread seeds and picks.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform pick in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    OffchipHv,
    StackedMshrBound,
    CoreBound,
    ServeWarm,
}

pub const WORKLOAD_NAMES: [&str; 4] = [
    "offchip-hv",
    "stacked-mshr-bound",
    "core-bound",
    "serve-warm",
];

impl WorkloadKind {
    pub fn by_name(name: &str) -> Option<WorkloadKind> {
        match name {
            "offchip-hv" => Some(WorkloadKind::OffchipHv),
            "stacked-mshr-bound" => Some(WorkloadKind::StackedMshrBound),
            "core-bound" => Some(WorkloadKind::CoreBound),
            "serve-warm" => Some(WorkloadKind::ServeWarm),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::OffchipHv => WORKLOAD_NAMES[0],
            WorkloadKind::StackedMshrBound => WORKLOAD_NAMES[1],
            WorkloadKind::CoreBound => WORKLOAD_NAMES[2],
            WorkloadKind::ServeWarm => WORKLOAD_NAMES[3],
        }
    }

    /// Stream id mixed into the seed so workloads never share a sequence.
    fn stream(self) -> u64 {
        self as u64 + 1
    }
}

const HV_MIXES: [&str; 6] = ["H1", "H2", "H3", "VH1", "VH2", "VH3"];
const CORE_MIXES: [&str; 6] = ["HM1", "HM2", "HM3", "M1", "M2", "M3"];
const SERVE_MIXES: [&str; 6] = ["H1", "VH1", "HM1", "M1", "H2", "VH2"];

/// Simulation window of the simulation workloads: short enough that a
/// 20-second run times about a thousand points, so `query_s.p99` has ten
/// samples beyond it; long enough to pass the warmup knee.
const SIM_WINDOW: (u64, u64) = (3_000, 12_000);
/// Simulation window of serve-warm queries (10k cycles per point).
pub const SERVE_WINDOW: (u64, u64) = (2_000, 8_000);

const OPS_OFFCHIP: f64 = 55.0;
const OPS_STACKED: f64 = 28.0;
const OPS_CORE: f64 = 50.0;
const OPS_SERVE: f64 = 300.0;

/// A machine the workload runs on.
#[derive(Clone, Debug)]
pub struct Machine {
    pub name: &'static str,
    pub cfg: SystemConfig,
    /// How a `/query` names it: `"machine": "<name>"` for the daemon's
    /// preloaded machines, an inline `"scenario"` document otherwise.
    pub query_key: String,
}

/// What one workload runs: machines × mixes on a fixed window.
#[derive(Clone, Debug)]
pub struct Workload {
    pub kind: WorkloadKind,
    pub machines: Vec<Machine>,
    pub mixes: Vec<&'static Mix>,
    pub window: (u64, u64),
    /// Operations (points, or serve-warm queries) a run times per second
    /// of `--seconds`: the rate of the machine the benchmark was sized on,
    /// a 2-vCPU VM. A run does a fixed amount of work, so runs of one seed
    /// are comparable whatever the host's speed.
    pub ops_per_second: f64,
}

fn mixes(names: &[&str]) -> Vec<&'static Mix> {
    names
        .iter()
        .map(|n| Mix::by_name(n).expect("workload mixes are Table 2(b) names"))
        .collect()
}

impl Workload {
    /// Builds the workload from the loaded machines; `scenario_dir` holds
    /// the scenario files the core-bound machine is derived from.
    pub fn new(
        kind: WorkloadKind,
        machines: &Machines,
        scenario_dir: &Path,
    ) -> Result<Workload, String> {
        let m = |name: &'static str, cfg: &SystemConfig| Machine {
            name,
            cfg: cfg.clone(),
            query_key: format!("\"machine\": \"{name}\""),
        };
        let (machines, mix_names, window, ops_per_second) = match kind {
            WorkloadKind::OffchipHv => (
                vec![m("2d", &machines.m2d), m("3d", &machines.m3d)],
                &HV_MIXES,
                SIM_WINDOW,
                OPS_OFFCHIP,
            ),
            WorkloadKind::StackedMshrBound => (
                vec![
                    m("dual-mc", &machines.dual_mc),
                    m("quad-mc", &machines.quad_mc),
                ],
                &HV_MIXES,
                SIM_WINDOW,
                OPS_STACKED,
            ),
            // Figure 7's 8×MSHR sizing removes the MSHR-full bottleneck.
            WorkloadKind::CoreBound => (
                vec![quad_mc_8x_mshr(machines, scenario_dir)?],
                &CORE_MIXES,
                SIM_WINDOW,
                OPS_CORE,
            ),
            WorkloadKind::ServeWarm => (
                vec![
                    m("2d", &machines.m2d),
                    m("3d", &machines.m3d),
                    m("dual-mc", &machines.dual_mc),
                    m("quad-mc", &machines.quad_mc),
                ],
                &SERVE_MIXES,
                SERVE_WINDOW,
                OPS_SERVE,
            ),
        };
        Ok(Workload {
            kind,
            machines,
            mixes: mixes(mix_names),
            window,
            ops_per_second,
        })
    }

    pub fn run_config(&self, seed: u64) -> RunConfig {
        RunConfig {
            warmup_cycles: self.window.0,
            measure_cycles: self.window.1,
            seed,
            ..RunConfig::quick()
        }
    }

    /// Operations a run of `seconds` (or `share` of it) times.
    pub fn ops(&self, seconds: f64) -> usize {
        (seconds * self.ops_per_second).round().max(1.0) as usize
    }

    /// Simulated cycles of one point (warmup plus measured window).
    pub fn cycles_per_point(&self) -> u64 {
        self.window.0 + self.window.1
    }

    /// The machine the kernel replay drivers are configured from: the
    /// workload's richest memory system.
    pub fn replay_machine(&self) -> &Machine {
        self.machines
            .iter()
            .max_by_key(|m| m.cfg.memory.mcs)
            .expect("every workload has a machine")
    }
}

/// Figure 7's quad-MC machine with 8× the baseline MSHR entries, as an
/// inline scenario document (the daemon does not preload it).
fn quad_mc_8x_mshr(machines: &Machines, scenario_dir: &Path) -> Result<Machine, String> {
    let path = scenario_dir.join("quad-mc.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = machines.quad_mc.mshr.total_entries * 8;
    let Json::Obj(members) = &mut doc else {
        return Err(format!("{} is not an object", path.display()));
    };
    for (key, value) in members.iter_mut() {
        match (key.as_str(), value) {
            ("name", name) => *name = Json::Str("quad-mc-mshr8x".into()),
            ("machine", Json::Obj(machine)) => machine.push((
                "mshr".into(),
                Json::Obj(vec![("total_entries".into(), Json::Num(entries as f64))]),
            )),
            _ => {}
        }
    }
    let cfg = Scenario::from_str(&doc.to_string())
        .map_err(|e| e.to_string())?
        .config;
    if cfg != machines.quad_mc.with_mshr_scale(8) {
        return Err("the 8x-MSHR scenario does not match quad-mc with_mshr_scale(8)".into());
    }
    Ok(Machine {
        name: "quad-mc-mshr8x",
        cfg,
        query_key: format!("\"scenario\": {doc}"),
    })
}

/// One generated simulation point.
#[derive(Clone, Debug)]
pub struct Point {
    pub index: usize,
    pub machine: &'static str,
    pub cfg: SystemConfig,
    pub mix: &'static Mix,
    pub run: RunConfig,
}

impl Point {
    pub fn run_point(&self) -> RunPoint {
        (self.cfg.clone(), self.mix, self.run)
    }
}

/// The endless point sequence of a simulation workload. Machine × mix
/// combinations are visited round-robin in a seeded order, so every run
/// covers them evenly; each point gets a fresh run seed, so no two points
/// share a memo entry.
pub struct PointGen<'w> {
    workload: &'w Workload,
    combos: Vec<(usize, usize)>,
    rng: Rng,
    next: usize,
}

impl<'w> PointGen<'w> {
    pub fn new(workload: &'w Workload, seed: u64) -> PointGen<'w> {
        let mut rng = Rng::new(seed, workload.kind.stream());
        let mut combos: Vec<(usize, usize)> = (0..workload.machines.len())
            .flat_map(|m| (0..workload.mixes.len()).map(move |x| (m, x)))
            .collect();
        rng.shuffle(&mut combos);
        PointGen {
            workload,
            combos,
            rng,
            next: 0,
        }
    }
}

impl Iterator for PointGen<'_> {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        let index = self.next;
        self.next += 1;
        let (m, x) = self.combos[index % self.combos.len()];
        let machine = &self.workload.machines[m];
        Some(Point {
            index,
            machine: machine.name,
            cfg: machine.cfg.clone(),
            mix: self.workload.mixes[x],
            run: self.workload.run_config(self.rng.next()),
        })
    }
}

/// The untimed warm-up point every process runs during set-up: the
/// workload's first machine and mix at a fixed run seed, so every set-up
/// does the same work whatever the workload seed.
pub fn warmup_point(workload: &Workload) -> Point {
    let machine = &workload.machines[0];
    Point {
        index: usize::MAX,
        machine: machine.name,
        cfg: machine.cfg.clone(),
        mix: workload.mixes[0],
        run: workload.run_config(Rng::new(0x5741_524D, 0).next()),
    }
}

// ---------------------------------------------------------------------------
// serve-warm

/// Run seeds per machine stored in the serve-warm pool: 48 points, so a
/// daemon life of [`DAEMON_LIFE`] queries reads about half its points
/// from the store. Every set-up simulates the pool afresh, so it stays
/// small.
const POOL_SEEDS: usize = 2;
/// Queries one serve-warm daemon answers before it is replaced by a fresh
/// one over the same store. A fresh daemon has an empty memo, so the
/// first touch of each pool point in a life is a store read and repeats
/// are memo hits.
pub const DAEMON_LIFE: usize = 30;
/// Share of serve-warm queries, in percent, that name a never-stored seed.
const FRESH_PERCENT: usize = 5;

/// The serve-warm store pool: every machine × mix at [`POOL_SEEDS`] run
/// seeds. Queries touch a group (machine, seed) with 1–4 of its mixes.
pub fn serve_pool(workload: &Workload, seed: u64) -> Vec<Point> {
    let mut rng = Rng::new(seed, 0x504F_4F4C);
    let mut pool = Vec::new();
    for machine in &workload.machines {
        for _ in 0..POOL_SEEDS {
            let run = workload.run_config(rng.next() >> 1);
            for &mix in &workload.mixes {
                pool.push(Point {
                    index: pool.len(),
                    machine: machine.name,
                    cfg: machine.cfg.clone(),
                    mix,
                    run,
                });
            }
        }
    }
    pool
}

/// One serve-warm query: a machine, a run seed and 1–4 mixes.
#[derive(Clone, Debug)]
pub struct Query {
    pub machine: usize,
    pub seed: u64,
    pub mixes: Vec<usize>,
    /// Names a never-stored seed, so the daemon must simulate it.
    pub fresh: bool,
}

/// The endless query sequence of one serve-warm client.
pub struct QueryGen {
    rng: Rng,
    group_seeds: Vec<u64>,
    machines: usize,
    mixes: usize,
    fresh_base: u64,
    fresh_count: u64,
    issued: u64,
    fresh_slot: u64,
}

impl QueryGen {
    pub fn new(workload: &Workload, pool: &[Point], seed: u64, client: u64) -> QueryGen {
        let mut group_seeds: Vec<u64> = pool.iter().map(|p| p.run.seed).collect();
        group_seeds.dedup();
        let mut rng = Rng::new(seed, 0x434C_4945_4E54 + client);
        // Pool seeds have their top bit clear; fresh seeds have it set, so
        // a fresh query can never name a stored point.
        let fresh_base = (1 << 63) | (rng.next() >> 8) << 8 | client << 4;
        QueryGen {
            rng,
            group_seeds,
            machines: workload.machines.len(),
            mixes: workload.mixes.len(),
            fresh_base,
            fresh_count: 0,
            issued: 0,
            fresh_slot: 0,
        }
    }
}

impl Iterator for QueryGen {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        // Exactly one query in every block of 100 / FRESH_PERCENT is fresh,
        // at a seeded position, so every run has the same fresh share.
        let block = 100 / FRESH_PERCENT as u64;
        if self.issued.is_multiple_of(block) {
            self.fresh_slot = self.rng.next() % block;
        }
        let fresh = self.issued % block == self.fresh_slot;
        self.issued += 1;
        let mut mixes: Vec<usize> = (0..self.mixes).collect();
        self.rng.shuffle(&mut mixes);
        mixes.truncate(1 + self.rng.below(4));
        if fresh {
            self.fresh_count += 1;
            return Some(Query {
                machine: self.rng.below(self.machines),
                seed: self.fresh_base.wrapping_add(self.fresh_count << 16),
                mixes,
                fresh,
            });
        }
        let group = self.rng.below(self.group_seeds.len());
        let per_machine = self.group_seeds.len() / self.machines;
        Some(Query {
            machine: group / per_machine,
            seed: self.group_seeds[group],
            mixes,
            fresh: false,
        })
    }
}
