//! Correctness: a digest of every simulated result, and the committed
//! reference digests of the default seed.

use std::path::Path;

use stacksim::runner::RunResult;
use stacksim_stats::{Json, MetricsSink};

/// The two metrics that may differ between the fast-forwarding and the
/// tick-by-tick paths (docs/METRICS.md); every other number must match.
const EXECUTION_ONLY: [&str; 2] = ["ticked_cycles", "skipped_cycles"];

/// FNV-1a over the result's simulated outcome: HMIPC, per-core IPC,
/// committed µops and the flattened metric tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }
}

fn digest_parts(
    hmipc: f64,
    per_core_ipc: &[f64],
    committed: &[u64],
    stats: &MetricsSink,
) -> Digest {
    let mut h = Fnv::new();
    h.f64(hmipc);
    for &v in per_core_ipc {
        h.f64(v);
    }
    for &c in committed {
        h.bytes(&c.to_le_bytes());
    }
    for (name, value) in stats.flatten() {
        if EXECUTION_ONLY.contains(&name.as_str()) {
            continue;
        }
        h.bytes(name.as_bytes());
        h.f64(value);
    }
    Digest(h.0)
}

pub fn digest(result: &RunResult) -> Digest {
    digest_parts(
        result.hmipc,
        &result.per_core_ipc,
        &result.committed,
        &result.stats,
    )
}

/// Digest of one entry of a `stacksim-serve` `result` event.
pub fn digest_served(point: &Json) -> Result<Digest, String> {
    let nums = |key: &str| -> Result<Vec<f64>, String> {
        point
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("served result lacks '{key}'"))?
            .iter()
            .map(|v| v.as_f64().ok_or(format!("non-number in '{key}'")))
            .collect()
    };
    let hmipc = point
        .get("hmipc")
        .and_then(Json::as_f64)
        .ok_or("served result lacks 'hmipc'")?;
    let committed: Vec<u64> = nums("committed")?.into_iter().map(|c| c as u64).collect();
    let stats = MetricsSink::from_json(
        point
            .get("metrics")
            .ok_or("served result lacks 'metrics'")?,
    )?;
    Ok(digest_parts(
        hmipc,
        &nums("per_core_ipc")?,
        &committed,
        &stats,
    ))
}

/// Reference digests of the default seed, one list per workload, in point
/// order, stamped with the `CODE_VERSION` they were made under.
pub struct References {
    pub code_version: String,
    workloads: Vec<(String, Vec<Digest>)>,
}

impl References {
    pub fn load(path: &Path) -> Result<References, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let code_version = doc
            .get("code_version")
            .and_then(Json::as_str)
            .ok_or("references lack 'code_version'")?
            .to_string();
        let mut workloads = Vec::new();
        for (name, list) in doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("references lack 'workloads'")?
        {
            let digests = list
                .as_arr()
                .ok_or("reference list is not an array")?
                .iter()
                .map(|d| {
                    d.as_str()
                        .and_then(|s| u64::from_str_radix(s, 16).ok())
                        .map(Digest)
                        .ok_or(format!("bad reference digest {d}"))
                })
                .collect::<Result<Vec<_>, String>>()?;
            workloads.push((name.clone(), digests));
        }
        Ok(References {
            code_version,
            workloads,
        })
    }

    /// The reference digests of `workload`, if any were committed.
    pub fn of(&self, workload: &str) -> &[Digest] {
        self.workloads
            .iter()
            .find(|(n, _)| n == workload)
            .map_or(&[], |(_, d)| d.as_slice())
    }

    /// Replaces one workload's list (used when regenerating).
    pub fn set(&mut self, workload: &str, digests: Vec<Digest>) {
        self.workloads.retain(|(n, _)| n != workload);
        self.workloads.push((workload.to_string(), digests));
        self.workloads.sort_by(|a, b| a.0.cmp(&b.0));
    }

    pub fn empty(code_version: &str) -> References {
        References {
            code_version: code_version.to_string(),
            workloads: Vec::new(),
        }
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        let doc = Json::Obj(vec![
            ("code_version".into(), Json::Str(self.code_version.clone())),
            (
                "workloads".into(),
                Json::Obj(
                    self.workloads
                        .iter()
                        .map(|(n, d)| {
                            (
                                n.clone(),
                                Json::Arr(d.iter().map(|d| Json::Str(d.to_string())).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.pretty() + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }
}
