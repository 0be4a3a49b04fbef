//! stacksim's benchmark: one workload per run, timed end to end with
//! tracing off, or (with `--trace 1`) split into an untraced and a traced
//! pass that report per-layer metrics. See `perfbench/README.md`.
//!
//! ```sh
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --serve-bin <path>
//! perfbench --write-references
//! ```
//!
//! Run from the repository root (it reads `scenarios/` and
//! `perfbench/references.json`). The last line of standard output is a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`; the
//! exit code is non-zero when any operation failed or any simulated result
//! was wrong.

mod calib;
mod check;
mod gen;
mod kernels;
mod layers;
mod report;
mod serve;
mod sim;
mod span;

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use stacksim::runner::{self, ParallelRunner};
use stacksim::scenario::Machines;
use stacksim::CODE_VERSION;
use stacksim_serve::ServerState;
use stacksim_store::Store;

use calib::HostSpeed;
use check::{digest, digest_served, Digest, References};
use gen::{
    serve_pool, warmup_point, Point, PointGen, Query, QueryGen, Rng, Workload, WorkloadKind,
    DAEMON_LIFE,
};
use layers::{layer_metrics, query_span, store_profile, LayerInputs, Sampled};
use report::{percentile, ratio, Report};
use serve::{http, parse_answer, query_body, vm_hwm_mb, Daemon};
use sim::{run_point, secs_since, simulate_traced, thread_cpu_secs, Counts};
use span::Tracer;

const SCENARIOS: &str = "scenarios";
const REFERENCES: &str = "perfbench/references.json";
/// Points per simulation workload whose default-seed digests are committed.
const REFERENCE_POINTS: usize = 1500;
/// Cold set-ups per simulation-workload run, each in a fresh process of
/// this binary; `setup_s` is their median. One takes about 20 ms, most of
/// it the warm-up point, and single ones vary by ±40 %.
const SETUP_PROBES: usize = 25;
/// Cold set-ups per serve-warm run. One takes about 0.8 s, most of it
/// simulating the store pool, so its time varies less.
const SERVE_SETUPS: usize = 5;
/// Points re-simulated tick by tick after the timed pass.
const TICK_SAMPLE: usize = 3;
/// Traced pool points kept for serve-warm's store profile.
const PROFILE_SAMPLE: usize = 12;
/// The end-to-end time a simulation workload reports unscaled. Its
/// slowest 1 % of points take about as long on a fast host as on a slow
/// one (`offchip-hv`: 20–22 ms in runs whose median point took 11.6 ms and
/// in runs whose median took 15.6 ms), so scaling the p99 by the run's
/// speed adds the kernel's variation instead of removing the host's.
const SIM_UNSCALED: &str = "query_s.p99";
/// The end-to-end time serve-warm reports unscaled: the p90 of
/// single-point queries, the tail of sub-millisecond memo and store reads,
/// which does not follow the host's speed either. Its `query_s.p99` falls
/// inside the never-stored queries (one in twenty), whole simulations
/// that do, so that one is scaled.
const SERVE_UNSCALED: &str = "point_s.p90";
/// serve-warm samples the host's speed before every this many queries...
const SPEED_EVERY: usize = 10;
/// ...and this many times after each set-up.
const SETUP_SPEED_SAMPLES: usize = 5;
/// Never-stored serve-warm points re-simulated directly, per pass.
const FRESH_SAMPLE: usize = 48;
/// Share of `--seconds` given to each of the untraced and traced passes of
/// a traced run; the rest goes to the layer profile.
const TRACE_SHARE: f64 = 0.4;
/// A pass stops early, with a note, once it has run this many times its
/// nominal length (a much slower program still finishes in time).
const OVERRUN: f64 = 4.0;

struct Args {
    workload: Option<WorkloadKind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    write_references: bool,
    /// Run one cold set-up and report it (see [`run_probe`]).
    probe: bool,
    /// The store a serve-warm set-up probe populates.
    store: Option<PathBuf>,
}

const USAGE: &str =
    "usage: perfbench --workload <offchip-hv|stacked-mshr-bound|core-bound|serve-warm> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] --serve-bin <path> | --write-references";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: gen::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        serve_bin: PathBuf::new(),
        write_references: false,
        probe: false,
        store: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(WorkloadKind::by_name(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--serve-bin" => args.serve_bin = PathBuf::from(value()?),
            "--write-references" => args.write_references = true,
            "--setup-probe" => args.probe = true,
            "--store" => args.store = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if args.workload.is_none() && !args.write_references {
        return Err("--workload is required".into());
    }
    if !args.write_references && !args.probe && !args.serve_bin.is_file() {
        return Err(format!(
            "--serve-bin '{}' is not a file",
            args.serve_bin.display()
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let (true, Some(kind)) = (args.probe, args.workload) {
        if let Err(e) = run_probe(&args, kind) {
            eprintln!("perfbench: set-up probe: {e}");
            std::process::exit(1);
        }
        return;
    }
    let tmp_root = PathBuf::from(".perfbench_tmp");
    let tmp = tmp_root.join(std::process::id().to_string());
    let outcome = match (args.write_references, args.workload) {
        (true, _) => write_references().map(|()| None),
        (false, Some(WorkloadKind::ServeWarm)) => run_serve(&args, &tmp).map(Some),
        (false, Some(kind)) => run_sim(&args, kind).map(Some),
        (false, None) => Err("--workload is required".into()),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(&tmp_root);
    match outcome {
        Ok(Some(report)) => {
            report.print();
            if report.failed > 0 {
                std::process::exit(1);
            }
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Loads the machines and builds the workload.
fn load_workload(t: &mut Tracer, kind: WorkloadKind, op: u64) -> Result<Workload, String> {
    let dir = Path::new(SCENARIOS);
    let machines = t
        .span("scenario.load", op, |_| Machines::load(dir))
        .map_err(|e| e.to_string())?;
    Workload::new(kind, &machines, dir)
}

fn spans_path(args: &Args, name: &str) -> PathBuf {
    PathBuf::from(".perfbench_out").join(format!("{name}-seed{}.spans.jsonl", args.seed))
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order. Every time but the one named `unscaled` is scaled to the
/// nominal host speed (the rate inversely); see [`SIM_UNSCALED`] and
/// [`SERVE_UNSCALED`] for which one stays as measured, and why.
fn end_to_end(
    report: &mut Report,
    speed: &HostSpeed,
    (setup_s, mcycles_per_s): (f64, f64),
    (points, queries): (&[f64], &[f64]),
    rss_mb: f64,
    unscaled: &str,
) {
    let f = speed.factor();
    let times = [
        ("setup_s", setup_s),
        ("point_s.p50", percentile(points, 0.5)),
        ("point_s.p90", percentile(points, 0.9)),
        ("query_s.p50", percentile(queries, 0.5)),
        ("query_s.p99", percentile(queries, 0.99)),
    ];
    let scaled = |name: &str, raw: f64| if name == unscaled { raw } else { raw * f };
    report.metric("setup_s", scaled("setup_s", setup_s), "s");
    report.metric("sim_mcycles_per_s", mcycles_per_s / f, "Mcycles/s");
    for (name, raw) in &times[1..] {
        report.metric(*name, scaled(name, *raw), "s");
    }
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.note(format!("{}; {unscaled} is not scaled", speed.note()));
    let raw: Vec<String> = times
        .iter()
        .map(|(name, v)| format!("{name} {v:.6}"))
        .collect();
    report.note(format!(
        "unscaled: {}, sim_mcycles_per_s {mcycles_per_s:.6}",
        raw.join(", ")
    ));
    report.note(format!(
        "point_s over n={} points, query_s over n={} queries",
        points.len(),
        queries.len()
    ));
}

fn setup_note(setups: &[f64]) -> String {
    let ms: Vec<String> = setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    format!(
        "setup_s: median of {} cold set-ups, each from the start of a fresh process ({} ms)",
        setups.len(),
        ms.join(", ")
    )
}

// ---------------------------------------------------------------------------
// Set-up

/// `--setup-probe`: one cold set-up in this fresh process, then a line
/// starting `ready` on standard output. A simulation workload loads the
/// scenarios, builds the workload and runs the warm-up point. serve-warm
/// also simulates the store pool and saves it into `--store`; its line
/// carries the pool's digests.
fn run_probe(args: &Args, kind: WorkloadKind) -> Result<(), String> {
    let workload = load_workload(&mut Tracer::new(), kind, 0)?;
    let runner = ParallelRunner::with_jobs(1);
    if kind != WorkloadKind::ServeWarm {
        run_point(&runner, &warmup_point(&workload))?;
        println!("ready");
        return Ok(());
    }
    let dir = args
        .store
        .as_deref()
        .ok_or("a serve-warm probe needs --store")?;
    let store = Store::open(dir).map_err(|e| e.to_string())?;
    let mut digests = Vec::new();
    for p in serve_pool(&workload, args.seed) {
        let r = run_point(&runner, &p)?;
        store
            .save_result(&p.cfg, p.mix.name, &p.run, &r)
            .map_err(|e| e.to_string())?;
        digests.push(digest(&r).to_string());
    }
    println!("ready {}", digests.join(" "));
    Ok(())
}

/// Runs one cold set-up in a fresh process of this binary: seconds from
/// spawning it to its `ready` line, and that line.
fn probe(args: &Args, kind: WorkloadKind, store: Option<&Path>) -> Result<(f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--setup-probe", "--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if let Some(dir) = store {
        cmd.arg("--store").arg(dir);
    }
    let t0 = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("start set-up probe: {e}"))?;
    let mut line = String::new();
    let read = child
        .stdout
        .take()
        .map(|out| BufReader::new(out).read_line(&mut line));
    let secs = secs_since(t0);
    let status = child.wait().map_err(|e| format!("set-up probe: {e}"))?;
    match read {
        Some(Ok(_)) if status.success() && line.starts_with("ready") => Ok((secs, line)),
        _ => Err(format!("set-up probe failed ({status}): {line:?}")),
    }
}

fn finish(report: &mut Report) {
    report.note(format!(
        "failed_frac = {} failed / {} attempted = {}",
        report.failed,
        report.attempted,
        ratio(report.failed as f64, report.attempted as f64)
    ));
}

// ---------------------------------------------------------------------------
// Simulation workloads

fn run_sim(args: &Args, kind: WorkloadKind) -> Result<Report, String> {
    let mut report = Report::default();
    let mut t = Tracer::new();
    let runner = ParallelRunner::with_jobs(1);

    // This process's own set-up: load the scenarios, build the workload
    // and run one untimed warm-up point, so page faults and lazy set-up
    // land before timing starts. `setup_s` times the same steps from the
    // start of fresh processes.
    let workload = load_workload(&mut t, kind, 0)?;
    run_point(&runner, &warmup_point(&workload))?;
    let mut speed = HostSpeed::new();
    let mut setups = Vec::new();
    for _ in 0..SETUP_PROBES {
        setups.push(probe(args, kind, None)?.0);
        speed.sample()?;
    }

    // Untraced pass: one `run_matrix` call per point, timed by the
    // thread's CPU time.
    let budget = if args.trace {
        args.seconds * TRACE_SHARE
    } else {
        args.seconds
    };
    let n = workload.ops(budget);
    let mut points: Vec<Point> = Vec::new();
    let mut digests: Vec<Option<Digest>> = Vec::new();
    let mut times = Vec::new();
    let mut wall = 0.0;
    let cycles = workload.cycles_per_point() as f64 / 1e6;
    let loop_start = Instant::now();
    for point in PointGen::new(&workload, args.seed).take(n) {
        if overrun(loop_start, budget, &mut report) {
            break;
        }
        speed.sample()?;
        let t0 = Instant::now();
        let cpu0 = thread_cpu_secs()?;
        let outcome = run_point(&runner, &point);
        let cpu = thread_cpu_secs()? - cpu0;
        wall += secs_since(t0);
        let result = report.op(outcome);
        if result.is_some() {
            times.push(cpu);
        }
        digests.push(result.map(|r| digest(&r)));
        points.push(point);
    }
    let rss_mb = vm_hwm_mb("/proc/self/status")?;
    let memo_entries = runner::memo_len() as f64;
    let setup_s = percentile(&setups, 0.5);
    report.note(setup_note(&setups));
    let cpu: f64 = times.iter().sum();
    let rate = ratio(times.len() as f64 * cycles, cpu);
    check_sim(args, &workload, &runner, &points, &digests, &mut report)?;

    if !args.trace {
        end_to_end(
            &mut report,
            &speed,
            (setup_s, rate),
            (&times, &times),
            rss_mb,
            SIM_UNSCALED,
        );
        report.note(format!(
            "sim_mcycles_per_s: cycles / CPU seconds in run_matrix ({} points x {} cycles in {cpu:.6} CPU s, {wall:.6} wall s)",
            times.len(),
            workload.cycles_per_point(),
        ));
        report.note(
            "point_s and query_s: CPU seconds of the thread in one run_matrix call with one point (a query of a simulation workload is one point)",
        );
        finish(&mut report);
        return Ok(report);
    }

    // Traced pass: the same points through `System`'s calls.
    let mut counts = Counts::default();
    let (mut traced_points, mut traced_cpu) = (0.0, 0.0);
    let loop_start = Instant::now();
    for point in PointGen::new(&workload, args.seed).take(n) {
        if overrun(loop_start, budget, &mut report) {
            break;
        }
        let cpu0 = thread_cpu_secs()?;
        let outcome = simulate_traced(&mut t, &point);
        let cpu = thread_cpu_secs()? - cpu0;
        traced_points += 1.0;
        traced_cpu += cpu;
        let Some(traced) = report.op(outcome) else {
            continue;
        };
        if let Some(Some(untraced)) = digests.get(point.index) {
            if *untraced != traced.digest {
                report.fail(format!(
                    "traced point {} differs from the untraced run",
                    point.index
                ));
            }
        }
        counts.add(&traced.counts);
    }
    let traced_rate = ratio(traced_points * cycles, traced_cpu);

    let replay = replay_kernels(&mut t, &workload, args.seed, &mut report);
    layer_metrics(
        &LayerInputs {
            tracer: &t,
            counts,
            replay,
            entry_bytes: 0,
            memo_entries,
            rates: (rate, traced_rate),
        },
        &mut report,
    );
    report.note(
        "stats.*, store.* and serve.* read 0: those layers serve queries, and only serve-warm sends them",
    );
    write_spans(&t, args, workload.kind.name(), &mut report);
    finish(&mut report);
    Ok(report)
}

/// Whether a pass has run `OVERRUN` times its nominal length.
fn overrun(loop_start: Instant, budget: f64, report: &mut Report) -> bool {
    let over = secs_since(loop_start) >= budget * OVERRUN;
    if over {
        report.note(format!(
            "pass stopped after {:.1} s, {OVERRUN}x its nominal length",
            budget * OVERRUN
        ));
    }
    over
}

/// Reference digests at the default seed; a tick-by-tick re-simulation of
/// a seeded sample at every seed.
fn check_sim(
    args: &Args,
    workload: &Workload,
    runner: &ParallelRunner,
    points: &[Point],
    digests: &[Option<Digest>],
    report: &mut Report,
) -> Result<(), String> {
    if args.seed == gen::DEFAULT_SEED {
        check_references(workload.kind.name(), digests, report)?;
    }
    let ok: Vec<usize> = (0..digests.len())
        .filter(|&i| digests[i].is_some())
        .collect();
    let mut rng = Rng::new(args.seed, 0x5449_434B);
    for _ in 0..TICK_SAMPLE.min(ok.len()) {
        let i = ok[rng.below(ok.len())];
        let mut point = points[i].clone();
        point.run = point.run.tick_by_tick();
        match run_point(runner, &point) {
            Ok(r) if Some(digest(&r)) == digests[i] => {}
            Ok(_) => report.fail(format!(
                "point {i} differs between fast-forward and tick-by-tick"
            )),
            Err(e) => report.fail(e),
        }
    }
    report.note(format!(
        "checked {} points tick by tick",
        TICK_SAMPLE.min(ok.len())
    ));
    Ok(())
}

fn check_references(
    name: &str,
    digests: &[Option<Digest>],
    report: &mut Report,
) -> Result<(), String> {
    let refs = References::load(Path::new(REFERENCES))?;
    if refs.code_version != CODE_VERSION {
        report.note(format!(
            "references are for {}, not {CODE_VERSION}; checked tick by tick only",
            refs.code_version
        ));
        return Ok(());
    }
    let want = refs.of(name);
    let mut checked = 0;
    for (i, (got, want)) in digests.iter().zip(want).enumerate() {
        if let Some(got) = got {
            checked += 1;
            if got != want {
                report.fail(format!(
                    "point {i} digest {got} differs from reference {want}"
                ));
            }
        }
    }
    report.note(format!("checked {checked} digests against {REFERENCES}"));
    Ok(())
}

fn replay_kernels(
    t: &mut Tracer,
    workload: &Workload,
    seed: u64,
    report: &mut Report,
) -> kernels::ReplayCounts {
    let replay = report
        .op(kernels::replay(t, workload, seed))
        .unwrap_or_default();
    if replay.violations > 0 {
        report.fail(format!(
            "{} DRAM protocol violations in the capture run",
            replay.violations
        ));
    }
    replay
}

fn write_spans(t: &Tracer, args: &Args, name: &str, report: &mut Report) {
    let path = spans_path(args, name);
    match t.write(&path) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            t.spans().len(),
            path.display()
        )),
        Err(e) => report.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

// ---------------------------------------------------------------------------
// serve-warm

type PointKey = (usize, usize, u64);

/// One query the client sent, and what came back.
struct QueryRecord {
    query: Query,
    op: u64,
    start: Instant,
    end: Instant,
    parse: Option<(Instant, Instant, Result<(), String>)>,
    outcome: Result<(Vec<String>, Vec<Digest>), String>,
}

/// What the daemons of one query loop reported at the end of their lives.
#[derive(Default)]
struct Lives {
    count: u64,
    /// Largest VmHWM of any life, in MB.
    peak_rss_mb: f64,
    /// Largest memo any life ended with.
    memo_entries: f64,
}

impl Lives {
    fn end(&mut self, daemon: Daemon) -> Result<(), String> {
        self.count += 1;
        self.peak_rss_mb = self.peak_rss_mb.max(daemon.peak_rss_mb()?);
        self.memo_entries = self.memo_entries.max(daemon.stat("memo_len")?);
        Ok(())
    }
}

/// One closed-loop client: sends the pass's queries from query stream
/// `stream`, one after another, to a daemon over the store at `store`.
/// Every [`DAEMON_LIFE`] queries the daemon is replaced by a fresh one,
/// untimed. With `state`, each body is also parsed in process, as the
/// daemon parses it. Returns every query and the daemons' lives.
fn query_loop(
    workload: &Workload,
    pool: &[Point],
    (bin, store): (&Path, &Path),
    (seed, stream): (u64, u64),
    budget: f64,
    state: Option<&ServerState>,
    speed: &mut HostSpeed,
) -> Result<(Vec<QueryRecord>, Lives), String> {
    let n = workload.ops(budget);
    let loop_start = Instant::now();
    let deadline = loop_start + Duration::from_secs_f64(budget * OVERRUN);
    let mut records = Vec::with_capacity(n);
    let mut lives = Lives::default();
    let mut daemon = Daemon::start(bin, store)?;
    for (i, query) in QueryGen::new(workload, pool, seed, stream)
        .take(n)
        .enumerate()
    {
        if Instant::now() >= deadline {
            break;
        }
        if i % SPEED_EVERY == 0 {
            speed.sample()?;
        }
        if i > 0 && i % DAEMON_LIFE == 0 {
            lives.end(std::mem::replace(&mut daemon, Daemon::start(bin, store)?))?;
        }
        let body = query_body(workload, &query);
        let parse = state.map(|state| {
            let a = Instant::now();
            let r = stacksim_serve::Query::parse(state, body.as_bytes()).map(|_| ());
            (a, Instant::now(), r)
        });
        let start = Instant::now();
        let response = http(&daemon.addr, "POST", "/query", &body);
        let end = Instant::now();
        let outcome = response
            .and_then(|(status, b)| parse_answer(status, &b, query.mixes.len()))
            .and_then(|a| {
                let digests = a
                    .results
                    .iter()
                    .map(digest_served)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((a.sources, digests))
            });
        records.push(QueryRecord {
            query,
            op: i as u64,
            start,
            end,
            parse,
            outcome,
        });
    }
    lives.end(daemon)?;
    Ok((records, lives))
}

/// What one query loop measured.
#[derive(Default)]
struct LoopStats {
    /// Simulated Mcycles of the points the daemon simulated, and the
    /// seconds of the queries that carried them.
    simulated: (f64, f64),
    queries: Vec<f64>,
    single: Vec<f64>,
    points: u64,
    fresh_queries: u64,
    /// Queries with at least one point read from the store.
    store_queries: u64,
    sources: HashMap<String, u64>,
}

/// Accounts every query, checks every served result against its expected
/// digest, and re-simulates a seeded sample of the never-stored points
/// directly.
fn evaluate(
    records: &[QueryRecord],
    workload: &Workload,
    expected: &HashMap<PointKey, Digest>,
    runner: &ParallelRunner,
    rng: &mut Rng,
    report: &mut Report,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let mut fresh: Vec<(Point, Digest)> = Vec::new();
    for r in records {
        if let Some((_, _, Err(e))) = &r.parse {
            report.fail(format!("in-process parse: {e}"));
        }
        let Some((sources, digests)) = report.op(r.outcome.clone()) else {
            continue;
        };
        let secs = (r.end - r.start).as_secs_f64();
        stats.queries.push(secs);
        let computed = sources.iter().filter(|s| *s == "computed").count() as u64;
        if computed > 0 {
            let mcycles = (computed * workload.cycles_per_point()) as f64 / 1e6;
            stats.simulated.0 += mcycles;
            stats.simulated.1 += secs;
        }
        if r.query.mixes.len() == 1 {
            stats.single.push(secs);
        }
        stats.points += digests.len() as u64;
        stats.fresh_queries += u64::from(r.query.fresh);
        stats.store_queries += u64::from(sources.iter().any(|s| s == "store"));
        for source in sources {
            *stats.sources.entry(source).or_default() += 1;
        }
        for (&mix, got) in r.query.mixes.iter().zip(digests) {
            let key = (r.query.machine, mix, r.query.seed);
            if r.query.fresh {
                let machine = &workload.machines[r.query.machine];
                fresh.push((
                    Point {
                        index: fresh.len(),
                        machine: machine.name,
                        cfg: machine.cfg.clone(),
                        mix: workload.mixes[mix],
                        run: workload.run_config(r.query.seed),
                    },
                    got,
                ));
            } else if expected.get(&key) != Some(&got) {
                report.fail(format!("served {key:?} differs from its direct simulation"));
            }
        }
    }
    rng.shuffle(&mut fresh);
    fresh.truncate(FRESH_SAMPLE);
    for (point, served) in &fresh {
        match run_point(runner, point) {
            Ok(r) if digest(&r) == *served => {}
            Ok(_) => report.fail(format!(
                "fresh {} {} seed {:#x} differs from its direct simulation",
                point.machine, point.mix.name, point.run.seed
            )),
            Err(e) => report.fail(e),
        }
    }
    report.note(format!(
        "verified a sample of {} never-stored points by direct simulation",
        fresh.len()
    ));
    let source = |s: &str| stats.sources.get(s).copied().unwrap_or(0);
    report.note(format!(
        "{} queries ({} fresh, {:.4} share; {} with a store read, {:.4} share), {} points: {} store ({:.4} share), {} memo, {} computed",
        stats.queries.len(),
        stats.fresh_queries,
        ratio(stats.fresh_queries as f64, stats.queries.len() as f64),
        stats.store_queries,
        ratio(stats.store_queries as f64, stats.queries.len() as f64),
        stats.points,
        source("store"),
        ratio(source("store") as f64, stats.points as f64),
        source("memo"),
        source("computed")
    ));
    stats
}

/// One serve-warm set-up: a fresh process simulates the pool and saves it
/// into a fresh store at `dir` (see [`run_probe`]), then a fresh daemon
/// starts over it and answers its first `/healthz`. Returns the seconds
/// from the probe's start to that answer, the probe's share of them, and
/// the pool's digests.
fn serve_setup(args: &Args, pool: &[Point], dir: &Path) -> Result<(f64, f64, Vec<Digest>), String> {
    let _ = std::fs::remove_dir_all(dir);
    // Flush earlier writes first, so each timed set-up starts from the
    // same file-system state.
    let _ = Command::new("sync").status();
    let t0 = Instant::now();
    let (populate, line) = probe(args, WorkloadKind::ServeWarm, Some(dir))?;
    let daemon = Daemon::start(&args.serve_bin, dir)?;
    let secs = secs_since(t0);
    drop(daemon);
    let digests = line
        .split_whitespace()
        .skip(1)
        .map(|hex| u64::from_str_radix(hex, 16).map(Digest))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("set-up probe digest: {e}"))?;
    if digests.len() != pool.len() {
        return Err(format!(
            "set-up probe simulated {} of {} pool points",
            digests.len(),
            pool.len()
        ));
    }
    Ok((secs, populate, digests))
}

fn key_of(workload: &Workload, p: &Point) -> PointKey {
    let q = layers::query_of(workload, p, false);
    (q.machine, q.mixes[0], q.seed)
}

fn run_serve(args: &Args, tmp: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut t = Tracer::new();
    let runner = ParallelRunner::with_jobs(1);
    let workload = load_workload(&mut t, WorkloadKind::ServeWarm, 0)?;
    run_point(&runner, &warmup_point(&workload))?;

    // Set-up, `SERVE_SETUPS` times: populate a fresh store from a fresh
    // process, start a fresh daemon over it, wait for its first /healthz.
    // Every set-up must simulate the same pool digests; the pass serves
    // the last set-up's store.
    let pool = serve_pool(&workload, args.seed);
    let mut setups = Vec::new();
    let mut populates = Vec::new();
    let mut pool_digests: Vec<Digest> = Vec::new();
    let store_dir = tmp.join("store");
    let mut speed = HostSpeed::new();
    for _ in 0..SERVE_SETUPS {
        let (secs, populate, digests) = serve_setup(args, &pool, &store_dir)?;
        for _ in 0..SETUP_SPEED_SAMPLES {
            speed.sample()?;
        }
        if !pool_digests.is_empty() && pool_digests != digests {
            return Err("two set-ups simulated the pool differently".into());
        }
        pool_digests = digests;
        setups.push(secs);
        populates.push(populate);
    }
    let expected: HashMap<PointKey, Digest> = pool
        .iter()
        .zip(&pool_digests)
        .map(|(p, &d)| (key_of(&workload, p), d))
        .collect();
    if args.seed == gen::DEFAULT_SEED {
        let checked: Vec<Option<Digest>> = pool_digests.iter().copied().map(Some).collect();
        check_references(workload.kind.name(), &checked, &mut report)?;
    }
    let budget = if args.trace {
        args.seconds * TRACE_SHARE
    } else {
        args.seconds
    };
    let (records, lives) = query_loop(
        &workload,
        &pool,
        (&args.serve_bin, &store_dir),
        (args.seed, 0),
        budget,
        None,
        &mut speed,
    )?;
    let setup_s = percentile(&setups, 0.5);
    report.note(setup_note(&setups));
    report.note(format!(
        "setup_s: median {:.1} ms of it simulates the pool's {} points and saves them to the store",
        percentile(&populates, 0.5) * 1e3,
        pool.len()
    ));
    report.note(format!(
        "{} daemon lives of up to {DAEMON_LIFE} queries each",
        lives.count
    ));
    let mut rng = Rng::new(args.seed, 0x5645_5249_4659);
    let stats = evaluate(
        &records,
        &workload,
        &expected,
        &runner,
        &mut rng,
        &mut report,
    );
    let rate = ratio(stats.simulated.0, stats.simulated.1);

    if !args.trace {
        end_to_end(
            &mut report,
            &speed,
            (setup_s, rate),
            (&stats.single, &stats.queries),
            lives.peak_rss_mb,
            SERVE_UNSCALED,
        );
        report.note(format!(
            "sim_mcycles_per_s: simulated cycles / seconds of the queries that simulated them ({} of {} points x {} cycles in {:.6} s); point_s: single-point queries; peak_rss_mb: largest daemon VmHWM",
            stats.sources.get("computed").copied().unwrap_or(0),
            stats.points,
            workload.cycles_per_point(),
            stats.simulated.1
        ));
        finish(&mut report);
        return Ok(report);
    }

    // Traced pass: fresh daemons over the same store, with spans. It uses
    // a query stream of its own: the untraced pass wrote its never-stored
    // points through to the store.
    let state = ServerState::new(None, None, 1)?;
    let (records, _) = query_loop(
        &workload,
        &pool,
        (&args.serve_bin, &store_dir),
        (args.seed, 1),
        budget,
        Some(&state),
        &mut HostSpeed::new(),
    )?;
    for r in &records {
        if let Some((a, b, _)) = r.parse {
            t.record("serve.parse", r.op, a, b);
        }
        if let Ok((sources, _)) = &r.outcome {
            let name = if sources.len() == 1 {
                query_span(&sources[0])
            } else {
                "serve.query"
            };
            t.record(name, r.op, r.start, r.end);
        }
    }
    let traced = evaluate(
        &records,
        &workload,
        &expected,
        &runner,
        &mut rng,
        &mut report,
    );
    let traced_rate = ratio(traced.simulated.0, traced.simulated.1);

    // The simulator and store layers, on a sample of the pool.
    let mut counts = Counts::default();
    let mut sample = Vec::new();
    for p in pool.iter().take(PROFILE_SAMPLE) {
        let Some(traced) = report.op(simulate_traced(&mut t, p)) else {
            continue;
        };
        if expected.get(&key_of(&workload, p)) != Some(&traced.digest) {
            report.fail(format!(
                "traced pool point {} differs from the untraced run",
                p.index
            ));
        }
        counts.add(&traced.counts);
        sample.push(Sampled {
            point: p.clone(),
            result: traced.result,
            digest: traced.digest,
        });
    }
    let entry_bytes = store_profile(&mut t, &sample, &tmp.join("profile-store"), &mut report)?;
    let replay = replay_kernels(&mut t, &workload, args.seed, &mut report);
    layer_metrics(
        &LayerInputs {
            tracer: &t,
            counts,
            replay,
            entry_bytes,
            memo_entries: lives.memo_entries,
            rates: (rate, traced_rate),
        },
        &mut report,
    );
    write_spans(&t, args, workload.kind.name(), &mut report);
    finish(&mut report);
    Ok(report)
}

// ---------------------------------------------------------------------------
// References

/// Regenerates `perfbench/references.json` at the default seed.
fn write_references() -> Result<(), String> {
    let mut refs = References::empty(CODE_VERSION);
    let runner = ParallelRunner::with_jobs(1);
    let mut t = Tracer::new();
    for name in gen::WORKLOAD_NAMES {
        let kind = WorkloadKind::by_name(name).expect("workload names parse");
        let workload = load_workload(&mut t, kind, 0)?;
        let points: Vec<Point> = if kind == WorkloadKind::ServeWarm {
            serve_pool(&workload, gen::DEFAULT_SEED)
        } else {
            PointGen::new(&workload, gen::DEFAULT_SEED)
                .take(REFERENCE_POINTS)
                .collect()
        };
        let digests = points
            .iter()
            .map(|p| run_point(&runner, p).map(|r| digest(&r)))
            .collect::<Result<Vec<_>, _>>()?;
        eprintln!("{name}: {} reference digests", digests.len());
        refs.set(name, digests);
    }
    refs.save(Path::new(REFERENCES))
}
