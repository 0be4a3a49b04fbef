//! A `stacksim-serve` daemon under test, and a minimal HTTP/1.1 client
//! for its `/healthz`, `/stats` and `/query` endpoints.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use stacksim_stats::Json;

use crate::gen::{Query, Workload};

/// A running daemon; killed and reaped when dropped.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Starts `bin --addr 127.0.0.1:0 --store <store> --jobs 1` and waits
    /// for its first successful `/healthz`.
    pub fn start(bin: &Path, store: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--jobs", "1", "--store"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("start {}: {e}", bin.display()))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = line
            .trim()
            .strip_prefix("stacksim-serve listening on ")
            .map(str::to_string);
        let mut daemon = Daemon {
            child,
            addr: addr.clone().unwrap_or_default(),
        };
        if addr.is_none() {
            return Err(format!(
                "daemon did not report its address ({read:?}: {line:?})"
            ));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok((200, _)) = http(&daemon.addr, "GET", "/healthz", "") {
                return Ok(daemon);
            }
            if Instant::now() > deadline || daemon.child.try_wait().ok().flatten().is_some() {
                return Err("daemon never answered /healthz".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The daemon's peak resident set (VmHWM), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// A numeric member of the daemon's `/stats` document.
    pub fn stat(&self, key: &str) -> Result<f64, String> {
        let (status, body) = http(&self.addr, "GET", "/stats", "")?;
        if status != 200 {
            return Err(format!("/stats answered {status}"));
        }
        Json::parse(&body)
            .map_err(|e| e.to_string())?
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("/stats lacks '{key}'"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// VmHWM of the process whose status file is `path`, in MB.
pub fn vm_hwm_mb(path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or(format!("{path} has no VmHWM"))
}

/// Decodes a chunked transfer-encoded body.
fn dechunk(mut body: &str) -> Result<String, String> {
    let mut out = String::new();
    loop {
        let (size, rest) = body.split_once("\r\n").ok_or("truncated chunk header")?;
        let size = usize::from_str_radix(size.trim(), 16).map_err(|_| "bad chunk size")?;
        if size == 0 {
            return Ok(out);
        }
        let chunk = rest.get(..size).ok_or("truncated chunk")?;
        out.push_str(chunk);
        body = rest[size..]
            .strip_prefix("\r\n")
            .ok_or("chunk not terminated")?;
    }
}

/// One request, read to the end (the daemon closes every connection).
/// Returns the status code and the decoded body.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let timeout = Some(Duration::from_secs(60));
    stream
        .set_read_timeout(timeout)
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(timeout)
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let (head, payload) = raw
        .split_once("\r\n\r\n")
        .ok_or("response without header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let chunked = head.lines().any(|l| {
        l.to_ascii_lowercase()
            .starts_with("transfer-encoding: chunked")
    });
    let payload = if chunked {
        dechunk(payload)?
    } else {
        payload.to_string()
    };
    Ok((status, payload))
}

/// The `/query` body for `query`.
pub fn query_body(workload: &Workload, query: &Query) -> String {
    let mixes: Vec<String> = query
        .mixes
        .iter()
        .map(|&m| format!("\"{}\"", workload.mixes[m].name))
        .collect();
    format!(
        r#"{{{}, "mixes": [{}], "window": {{"warmup_cycles": {}, "measure_cycles": {}, "seed": "{:#x}"}}}}"#,
        workload.machines[query.machine].query_key,
        mixes.join(", "),
        workload.window.0,
        workload.window.1,
        query.seed
    )
}

/// A `/query` answer: each point's source label, and the `results`
/// entries of the final `result` event, in request order.
pub struct Answer {
    pub sources: Vec<String>,
    pub results: Vec<Json>,
}

/// Checks a `/query` response and splits it into its events.
pub fn parse_answer(status: u16, body: &str, points: usize) -> Result<Answer, String> {
    if status != 200 {
        return Err(format!("/query answered {status}: {}", body.trim()));
    }
    let mut sources = Vec::new();
    let mut results = None;
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        let event = Json::parse(line).map_err(|e| format!("event: {e}"))?;
        match event.get("event").and_then(Json::as_str) {
            Some("point") => {
                if let Some(err) = event.get("error") {
                    return Err(format!("point failed: {err}"));
                }
                let source = event.get("source").and_then(Json::as_str).unwrap_or("?");
                sources.push(source.to_string());
            }
            Some("result") => {
                if let Some(errors) = event.get("errors") {
                    return Err(format!("query failed: {errors}"));
                }
                results = event
                    .get("results")
                    .and_then(Json::as_arr)
                    .map(<[Json]>::to_vec);
            }
            _ => return Err(format!("unexpected event {line}")),
        }
    }
    let results = results.ok_or("no result event")?;
    if results.len() != points || sources.len() != points {
        return Err(format!(
            "{} results and {} point events for {points} points",
            results.len(),
            sources.len()
        ));
    }
    Ok(Answer { sources, results })
}
