//! serve-warm's store profile — the stats JSON and store layers, called
//! in process — and the per-layer metrics derived from the spans and
//! counts.

use std::path::Path;

use stacksim::runner::RunResult;
use stacksim_store::Store;

use crate::check::{digest, Digest};
use crate::gen::{Point, Query, Workload};
use crate::kernels::ReplayCounts;
use crate::report::{ratio, Report};
use crate::sim::Counts;
use crate::span::Tracer;

/// A traced point's outcome, kept for the store profile.
pub struct Sampled {
    pub point: Point,
    pub result: RunResult,
    pub digest: Digest,
}

/// Serializes, saves and reloads every sampled result through the
/// durable store at `dir`. Returns the total envelope bytes written.
pub fn store_profile(
    t: &mut Tracer,
    sample: &[Sampled],
    dir: &Path,
    report: &mut Report,
) -> Result<u64, String> {
    let store = Store::open(dir).map_err(|e| e.to_string())?;
    let mut bytes = 0;
    for s in sample {
        let op = s.point.index as u64;
        let json = t.span("stats.to_json", op, |_| {
            s.result.stats.to_json().to_string()
        });
        std::hint::black_box(json);
        let saved = t.span("store.save", op, |_| {
            store.save_result(&s.point.cfg, s.point.mix.name, &s.point.run, &s.result)
        });
        let Some(key) = report.op(saved.map_err(|e| e.to_string())) else {
            continue;
        };
        bytes += std::fs::metadata(store.entry_path(key)).map_or(0, |m| m.len());
        let loaded = t.span("store.load", op, |_| {
            store.load_result(&s.point.cfg, s.point.mix.name, &s.point.run)
        });
        report.op(match loaded {
            Some(r) if digest(&r) == s.digest => Ok(()),
            Some(_) => Err(format!(
                "store returned a different result for point {}",
                s.point.index
            )),
            None => Err(format!("store lost point {}", s.point.index)),
        });
    }
    Ok(bytes)
}

/// Span name of a `/query` answered from `source`.
pub fn query_span(source: &str) -> &'static str {
    match source {
        "store" => "serve.query.store",
        "memo" => "serve.query.memo",
        "computed" => "serve.query.simulated",
        _ => "serve.query.other",
    }
}

/// The single-point query naming `point`.
pub fn query_of(workload: &Workload, point: &Point, fresh: bool) -> Query {
    Query {
        machine: workload
            .machines
            .iter()
            .position(|m| m.name == point.machine)
            .expect("points come from the workload's machines"),
        seed: point.run.seed,
        mixes: vec![workload
            .mixes
            .iter()
            .position(|m| m.name == point.mix.name)
            .expect("points come from the workload's mixes")],
        fresh,
    }
}

/// Everything the per-layer metrics are derived from.
pub struct LayerInputs<'a> {
    pub tracer: &'a Tracer,
    pub counts: Counts,
    pub replay: ReplayCounts,
    pub entry_bytes: u64,
    pub memo_entries: f64,
    /// `(untraced, traced)` simulated Mcycles per host second.
    pub rates: (f64, f64),
}

/// Mean self time, in `unit_ns` units, of the spans named `name`, with
/// its base count.
fn mean_self(t: &Tracer, name: &str, unit_ns: f64) -> (f64, u64) {
    let (n, ns) = t.self_time_of(name);
    (ratio(ns as f64, n as f64) / unit_ns, n)
}

pub fn layer_metrics(inp: &LayerInputs, report: &mut Report) {
    let t = inp.tracer;
    let c = &inp.counts;
    let r = &inp.replay;
    let per_point = |v: u64| ratio(v as f64, c.points as f64);
    let (measure_n, measure_ns) = t.self_time_of("system.measure");

    let timed: [(&str, &str, f64, &'static str); 12] = [
        ("scenario.load_ms", "scenario.load", 1e6, "ms"),
        ("system.for_mix_ms", "system.for_mix", 1e6, "ms"),
        ("system.warmup_ms", "system.warmup", 1e6, "ms"),
        ("system.measure_ms", "system.measure", 1e6, "ms"),
        ("system.metrics_us", "system.metrics", 1e3, "us"),
        ("stats.to_json_us", "stats.to_json", 1e3, "us"),
        ("store.save_us", "store.save", 1e3, "us"),
        ("store.load_us", "store.load", 1e3, "us"),
        ("serve.parse_us", "serve.parse", 1e3, "us"),
        ("serve.query_us.store", "serve.query.store", 1e3, "us"),
        ("serve.query_us.memo", "serve.query.memo", 1e3, "us"),
        (
            "serve.query_ms.simulated",
            "serve.query.simulated",
            1e6,
            "ms",
        ),
    ];
    for (metric, span, unit_ns, unit) in timed {
        let (value, n) = mean_self(t, span, unit_ns);
        report.metric(metric, value, unit);
        report.note(format!(
            "{metric}: mean self time over n={n} '{span}' spans"
        ));
    }

    report.metric(
        "system.ns_per_ticked_cycle",
        ratio(measure_ns as f64, c.measure_ticked as f64),
        "ns",
    );
    report.note(format!(
        "system.ns_per_ticked_cycle: {measure_ns} ns measure self time / {} ticked cycles over {measure_n} points",
        c.measure_ticked
    ));
    let cycles = c.ticked + c.skipped;
    report.metric(
        "system.skipped_frac",
        ratio(c.skipped as f64, cycles as f64),
        "frac",
    );
    report.metric("system.ticked_cycles", per_point(c.ticked), "cycles");
    report.metric("system.skipped_cycles", per_point(c.skipped), "cycles");
    report.note(format!(
        "system: {} points, {} ticked + {} skipped cycles (counts are means per point)",
        c.points, c.ticked, c.skipped
    ));

    report.metric("mshr.full_retries", per_point(c.full_retries), "count");
    report.metric(
        "mshr.alloc_success_frac",
        ratio(c.l2_misses as f64, (c.l2_misses + c.full_retries) as f64),
        "frac",
    );
    report.note(format!(
        "mshr.alloc_success_frac: {} l2.misses / ({} l2.misses + {} mshr_full_retries)",
        c.l2_misses, c.l2_misses, c.full_retries
    ));
    let (_, mshr_ns) = t.total_of("mshr.ops");
    report.metric(
        "mshr.probes_per_access",
        ratio(r.mshr_probes as f64, r.mshr_ops as f64),
        "count",
    );
    report.metric(
        "mshr.ns_per_op",
        ratio(mshr_ns as f64, r.mshr_ops as f64),
        "ns",
    );
    report.note(format!(
        "mshr replay: {} ops ({} full), {} probes, {mshr_ns} ns",
        r.mshr_ops, r.mshr_full, r.mshr_probes
    ));

    report.metric(
        "cpu.ns_per_uop",
        ratio(measure_ns as f64, c.measure_committed as f64),
        "ns",
    );
    report.metric("cpu.committed_uops", per_point(c.committed), "count");
    report.note(format!(
        "cpu.ns_per_uop: {measure_ns} ns measure self time / {} committed µops",
        c.measure_committed
    ));
    let (_, refill_ns) = t.total_of("workload.refill");
    report.metric(
        "workload.ns_per_uop",
        ratio(refill_ns as f64, r.uops as f64),
        "ns",
    );
    let (_, cache_ns) = t.total_of("cache.access");
    report.metric(
        "cache.ns_per_access",
        ratio(cache_ns as f64, r.cache_accesses as f64),
        "ns",
    );
    report.metric(
        "cache.l2_accesses",
        per_point(c.l2_hits + c.l2_misses),
        "count",
    );
    report.note(format!(
        "replay: {} µops generated in {refill_ns} ns; {} cache accesses ({} misses) in {cache_ns} ns",
        r.uops, r.cache_accesses, r.cache_misses
    ));

    let (_, mc_ns) = t.total_of("memctrl.replay");
    report.metric(
        "memctrl.ns_per_request",
        ratio(mc_ns as f64, r.mc_requests as f64),
        "ns",
    );
    report.metric("memctrl.issued", per_point(c.mc_issued), "count");
    let (_, dram_ns) = t.total_of("dram.access");
    report.metric(
        "dram.ns_per_access",
        ratio(dram_ns as f64, r.dram_accesses as f64),
        "ns",
    );
    report.metric("dram.accesses", per_point(c.dram_accesses), "count");
    report.metric(
        "dram.row_hit_frac",
        ratio(c.row_hits as f64, (c.row_hits + c.row_misses) as f64),
        "frac",
    );
    report.note(format!(
        "dram.row_hit_frac: {} ranks.row_hits / ({} + {} ranks.row_misses); capture run: {} DRAM commands, {} protocol violations; replay: {} MC requests in {mc_ns} ns, {} bank accesses ({} row hits) in {dram_ns} ns",
        c.row_hits, c.row_hits, c.row_misses, r.captured_cmds, r.violations, r.mc_requests, r.dram_accesses, r.dram_row_hits
    ));

    let (saves, _) = t.total_of("store.save");
    report.metric(
        "store.entry_bytes",
        ratio(inp.entry_bytes as f64, saves as f64),
        "bytes",
    );
    report.metric("runner.memo_entries", inp.memo_entries, "count");
    let (untraced, traced) = inp.rates;
    report.metric("trace.overhead_frac", ratio(untraced, traced) - 1.0, "frac");
    report.note(format!(
        "trace.overhead_frac: untraced {untraced:.4} / traced {traced:.4} Mcycles/s - 1"
    ));
}
