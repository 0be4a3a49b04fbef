//! What a run reports: operation accounting, metrics with units, and the
//! human-readable base counts printed beside them.

use stacksim_stats::Json;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Base counts and context, printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one operation and, if it failed, its failure.
    pub fn op<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Records a failed check of an operation already counted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints every note and metric, then the result line last.
    pub fn print(&self) {
        for line in &self.notes {
            println!("# {line}");
        }
        for failure in &self.failures {
            println!("# FAILED: {failure}");
        }
        for m in &self.metrics {
            println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        let result = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            (
                "failed".into(),
                Json::Num(self.failed.min(self.attempted) as f64),
            ),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        println!("{result}");
    }
}

/// Nearest-rank percentile of `samples` (`0 < p <= 1`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ratio `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
