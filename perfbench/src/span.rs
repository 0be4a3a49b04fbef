//! The traced pass's span recorder: one span per call into a layer, kept
//! in memory and written out when the run ends.

use std::path::Path;
use std::time::Instant;

use stacksim_stats::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// The point or query this span belongs to; shared by all its spans.
    pub op: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Records an already-measured interval: a request timed around a
    /// network call, or on a client thread.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
            op,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration());
            }
        }
        own
    }

    /// `(calls, total self time in ns)` of the spans named `name`.
    pub fn self_time_of(&self, name: &str) -> (u64, u64) {
        let own = self.self_times();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .fold((0, 0), |(n, t), (_, own)| (n + 1, t + own))
    }

    /// `(calls, total duration in ns)` of the spans named `name`.
    pub fn total_of(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, t), s| (n + 1, t + s.duration()))
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_times();
        let mut out = String::new();
        for (span, own) in self.spans.iter().zip(own) {
            let parent = span.parent.map_or(Json::Null, |p| Json::Num(p as f64));
            let line = Json::Obj(vec![
                ("name".into(), Json::Str(span.name.into())),
                ("op".into(), Json::Num(span.op as f64)),
                ("start_ns".into(), Json::Num(span.start as f64)),
                ("end_ns".into(), Json::Num(span.end as f64)),
                ("self_ns".into(), Json::Num(own as f64)),
                ("parent".into(), parent),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
