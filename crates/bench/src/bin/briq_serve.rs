//! `briq-serve` — the persistent alignment service and its clients.
//!
//! ```text
//! briq-serve serve [--addr H:P] [--model model.json] [--workers N]
//!            [--queue-depth N] [--deadline-ms N] [--drain-grace-ms N]
//!            [--store-dir DIR] [--store-max-bytes N]
//! briq-serve drive --addr H:P <page.html>... [--deadline-ms N]
//! briq-serve chaos --addr H:P [--connections N] [--requests N] [--expect-shed]
//! briq-serve stop  --addr H:P
//! ```
//!
//! `serve` warm-loads one model and serves the TCP/JSONL protocol of
//! [`briq_core::serve`] until it receives SIGTERM/SIGINT or a
//! `{"op":"shutdown"}` line, then drains gracefully. The bound address
//! is printed to stdout as `listening on H:P` before the first request
//! is accepted, so scripts can wait for readiness and discover an
//! OS-assigned port. The shed back-off hint and the request-line cap are
//! the constants [`briq_core::serve::RETRY_AFTER_MS`] and
//! [`briq_core::serve::MAX_REQUEST_BYTES`].
//!
//! `drive` is the clean client: it sends one align request per page and
//! prints each document's alignments with the same serializer
//! `briq-align --json` uses — for clean inputs the bytes are identical,
//! which CI's `serve` stage asserts. Exit codes mirror `briq-align`:
//! 0 clean, 1 transport/usage error, 2 degraded.
//!
//! `chaos` is the fault-injecting client: malformed JSONL, an oversized
//! line, a half-closed connection, a slow writer, and a concurrent
//! request flood. It asserts every server reply is structured JSON with
//! a known status, that shed responses are byte-identical to each other
//! (deterministic shedding), that the server reports zero panics and
//! stays ready afterwards, and that the admission queue never grew past
//! the `queue_capacity` the server's health reports. Exit 0 = all
//! invariants held.

use briq_core::pipeline::{Briq, BriqConfig};
use briq_core::serve::{ServeConfig, Server};
use briq_json::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const USAGE: &str = "usage: briq-serve serve [--addr H:P] [--model model.json] [--workers N] \
     [--queue-depth N] [--deadline-ms N] [--drain-grace-ms N] \
     [--store-dir DIR] [--store-max-bytes N]\n       \
     briq-serve drive --addr H:P <page.html>... [--deadline-ms N]\n       \
     briq-serve chaos --addr H:P [--connections N] [--requests N] [--expect-shed]\n       \
     briq-serve stop --addr H:P";

/// Exit status for a run that finished but had to degrade somewhere.
const EXIT_DEGRADED: u8 = 2;

/// Raised by the SIGTERM/SIGINT handler; a watcher thread forwards it
/// to the server's shutdown flag.
static TERM: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

/// Install the async-signal-safe termination handler (std-only; the
/// handler just flips one atomic).
fn install_term_handler() {
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        signal(SIGINT, on_term as extern "C" fn(i32) as usize);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("drive") => cmd_drive(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("stop") => cmd_stop(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn num_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match flag_value(args, flag) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag}: invalid value {v:?}")),
    }
}

// ---------------------------------------------------------------- serve

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut cfg = ServeConfig {
        addr: flag_value(args, "--addr").unwrap_or("127.0.0.1:0").into(),
        ..ServeConfig::default()
    };
    let parsed: Result<(), String> = (|| {
        if let Some(v) = num_flag(args, "--workers")? {
            cfg.workers = v;
        }
        if let Some(v) = num_flag(args, "--queue-depth")? {
            cfg.queue_depth = v;
        }
        if let Some(v) = num_flag(args, "--deadline-ms")? {
            cfg.default_deadline_ms = v;
        }
        if let Some(v) = num_flag(args, "--drain-grace-ms")? {
            cfg.drain_grace_ms = v;
        }
        if let Some(v) = flag_value(args, "--store-dir") {
            cfg.store_dir = Some(v.to_string());
        }
        if let Some(v) = num_flag(args, "--store-max-bytes")? {
            cfg.store_max_bytes = v;
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("{e}");
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }

    let briq = match flag_value(args, "--model") {
        Some(p) => {
            match std::fs::read_to_string(p)
                .map_err(|e| e.to_string())
                .and_then(|s| Briq::from_json(&s).map_err(|e| e.to_string()))
            {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot load model {p}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => Briq::untrained(BriqConfig::default()),
    };

    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot resolve bound address: {e}");
            return ExitCode::FAILURE;
        }
    };
    install_term_handler();
    let shutdown = server.shutdown_flag();
    std::thread::spawn(move || loop {
        if TERM.load(Ordering::SeqCst) {
            shutdown.store(true, Ordering::SeqCst);
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    });

    println!("listening on {addr}");
    // Scripts parse the line above; make sure it is visible before the
    // accept loop blocks.
    let _ = std::io::stdout().flush();
    let report = server.run(&briq);
    eprintln!(
        "drained: {} request(s), {} shed, {} deadline miss(es), {} panic(s)",
        report.requests, report.shed, report.deadline_misses, report.panics
    );
    ExitCode::SUCCESS
}

// ------------------------------------------------------------ transport

/// A line-oriented JSONL client connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .map_err(|e| format!("send failed: {e}"))
    }

    /// Read one raw response line (without the newline).
    fn recv_line(&mut self) -> Result<String, String> {
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=nl).collect();
                return String::from_utf8(line[..nl].to_vec())
                    .map_err(|_| "response is not UTF-8".into());
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("recv failed: {e}"))?;
            if n == 0 {
                return Err("connection closed before a full response line".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    fn recv(&mut self) -> Result<Value, String> {
        let line = self.recv_line()?;
        briq_json::parse(&line).map_err(|e| format!("unparseable response {line:?}: {e}"))
    }

    fn request(&mut self, line: &str) -> Result<Value, String> {
        self.send(line)?;
        self.recv()
    }
}

fn align_request(id: u64, html: &str, deadline_ms: Option<u64>) -> String {
    let mut fields = vec![
        ("op".to_string(), Value::Str("align".into())),
        ("id".to_string(), Value::Num(id as f64)),
        ("html".to_string(), Value::Str(html.into())),
    ];
    if let Some(d) = deadline_ms {
        fields.push(("deadline_ms".to_string(), Value::Num(d as f64)));
    }
    Value::Object(fields).to_string_compact()
}

// ---------------------------------------------------------------- drive

fn cmd_drive(args: &[String]) -> ExitCode {
    let Some(addr) = flag_value(args, "--addr") else {
        eprintln!("drive needs --addr");
        return ExitCode::FAILURE;
    };
    let deadline_ms = match num_flag::<u64>(args, "--deadline-ms") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let pages: Vec<&String> = {
        let mut skip_next = false;
        args.iter()
            .filter(|a| {
                if skip_next {
                    skip_next = false;
                    return false;
                }
                if a.starts_with("--") {
                    skip_next = matches!(a.as_str(), "--addr" | "--deadline-ms");
                    return false;
                }
                true
            })
            .collect()
    };
    if pages.is_empty() {
        eprintln!("drive needs at least one page path");
        return ExitCode::FAILURE;
    }

    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut degraded = 0usize;
    for (pi, path) in pages.iter().enumerate() {
        let html = match std::fs::read_to_string(path) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let resp = match conn.request(&align_request(pi as u64, &html, deadline_ms)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match resp.get("status").and_then(Value::as_str) {
            Some("ok") => {}
            Some("shed") => {
                eprintln!(
                    "{path}: shed by the server (retry_after_ms {})",
                    resp.get("retry_after_ms")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0)
                );
                return ExitCode::FAILURE;
            }
            _ => {
                eprintln!(
                    "{path}: server error: {}",
                    resp.get("error").and_then(Value::as_str).unwrap_or("?")
                );
                return ExitCode::FAILURE;
            }
        }
        if resp.get("degraded").and_then(Value::as_bool) == Some(true) {
            degraded += 1;
        }
        let Some(docs) = resp.get("documents").and_then(Value::as_array) else {
            eprintln!("{path}: response has no documents array");
            return ExitCode::FAILURE;
        };
        for dv in docs {
            // Round-trip through the same `Alignment` type and pretty
            // serializer `briq-align --json` uses, so clean output is
            // byte-identical to the batch CLI on the same pages.
            let alignments: Vec<briq_core::Alignment> = match dv
                .get("alignments")
                .ok_or_else(|| "document without alignments".to_string())
                .and_then(|v| briq_json::FromJson::from_json(v).map_err(|e| e.to_string()))
            {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("{path}: bad alignments payload: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{}", briq_json::to_string_pretty(&alignments));
            if let Some(diags) = dv.get("diagnostics").and_then(Value::as_array) {
                for d in diags {
                    eprintln!("{}", d.to_string_compact());
                }
            }
        }
    }
    if degraded == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{degraded} page(s) degraded during alignment");
        ExitCode::from(EXIT_DEGRADED)
    }
}

// ----------------------------------------------------------------- stop

fn cmd_stop(args: &[String]) -> ExitCode {
    let Some(addr) = flag_value(args, "--addr") else {
        eprintln!("stop needs --addr");
        return ExitCode::FAILURE;
    };
    let resp = Conn::connect(addr).and_then(|mut c| c.request(r#"{"op":"shutdown"}"#));
    match resp {
        Ok(v) if v.get("status").and_then(Value::as_str) == Some("ok") => {
            eprintln!("server draining");
            ExitCode::SUCCESS
        }
        Ok(v) => {
            eprintln!("unexpected response: {}", v.to_string_compact());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- chaos

/// A page with enough numbers to make alignment do real work.
fn chaos_page() -> String {
    "<html><body>\
     <p>A total of 123 patients reported side effects; depression was \
     the most common, reported by 38 patients, and eye disorders the \
     least common, reported by 5 patients.</p>\
     <table><tr><th>side effects</th><th>male</th><th>female</th>\
     <th>total</th></tr>\
     <tr><td>Rash</td><td>15</td><td>20</td><td>35</td></tr>\
     <tr><td>Depression</td><td>13</td><td>25</td><td>38</td></tr>\
     <tr><td>Hypertension</td><td>19</td><td>15</td><td>34</td></tr>\
     <tr><td>Nausea</td><td>5</td><td>6</td><td>11</td></tr>\
     <tr><td>Eye Disorders</td><td>2</td><td>3</td><td>5</td></tr>\
     </table></body></html>"
        .to_string()
}

struct ChaosStats {
    ok: usize,
    shed: usize,
    errors: usize,
    failures: Vec<String>,
}

fn cmd_chaos(args: &[String]) -> ExitCode {
    let Some(addr) = flag_value(args, "--addr") else {
        eprintln!("chaos needs --addr");
        return ExitCode::FAILURE;
    };
    let connections: usize = match num_flag(args, "--connections") {
        Ok(v) => v.unwrap_or(16),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let requests: usize = match num_flag(args, "--requests") {
        Ok(v) => v.unwrap_or(8),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let expect_shed = args.iter().any(|a| a == "--expect-shed");

    let mut stats = ChaosStats {
        ok: 0,
        shed: 0,
        errors: 0,
        failures: Vec::new(),
    };

    chaos_malformed(addr, &mut stats);
    chaos_oversized(addr, &mut stats);
    chaos_half_close(addr, &mut stats);
    chaos_slow_writer(addr, &mut stats);
    chaos_flood(addr, connections, requests, &mut stats);
    chaos_postconditions(addr, expect_shed, &mut stats);

    eprintln!(
        "chaos: {} ok, {} shed, {} error responses, {} invariant failure(s)",
        stats.ok,
        stats.shed,
        stats.errors,
        stats.failures.len()
    );
    if stats.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &stats.failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

/// Malformed JSONL: the server must answer with a structured error and
/// keep the connection usable for a well-formed follow-up.
fn chaos_malformed(addr: &str, stats: &mut ChaosStats) {
    let run = || -> Result<(), String> {
        let mut c = Conn::connect(addr)?;
        for junk in [
            "this is not json",
            "{\"op\":",
            "{\"op\":\"frobnicate\"}",
            "{\"op\":\"align\"}",
            "{\"op\":\"align\",\"html\":42}",
            "\u{1}\u{2}\u{3}",
        ] {
            let resp = c.request(junk)?;
            match resp.get("status").and_then(Value::as_str) {
                Some("error") => {}
                other => return Err(format!("malformed line got status {other:?}")),
            }
        }
        let resp = c.request(&align_request(0, &chaos_page(), None))?;
        if resp.get("status").and_then(Value::as_str) != Some("ok") {
            return Err("connection unusable after malformed lines".into());
        }
        Ok(())
    };
    match run() {
        Ok(()) => {
            stats.errors += 6;
            stats.ok += 1;
        }
        Err(e) => stats.failures.push(format!("malformed: {e}")),
    }
}

/// An oversized request line: structured error, then close — and the
/// server survives.
fn chaos_oversized(addr: &str, stats: &mut ChaosStats) {
    let run = || -> Result<(), String> {
        let mut c = Conn::connect(addr)?;
        // No newline until far past any sane cap; sent in chunks.
        let chunk = vec![b'x'; 1 << 16];
        for _ in 0..40 {
            c.stream
                .write_all(&chunk)
                .map_err(|e| format!("send failed: {e}"))?;
        }
        let _ = c.stream.write_all(b"\n");
        match c.recv() {
            Ok(resp) => match resp.get("status").and_then(Value::as_str) {
                Some("error") => Ok(()),
                other => Err(format!("oversized line got status {other:?}")),
            },
            // The server may also close immediately if the line is
            // unwritable mid-flood; what matters is that a fresh
            // connection still works (checked in postconditions).
            Err(_) => Ok(()),
        }
    };
    match run() {
        Ok(()) => stats.errors += 1,
        Err(e) => stats.failures.push(format!("oversized: {e}")),
    }
}

/// Half-close: send a full request, shut down the write side, and the
/// response must still arrive.
fn chaos_half_close(addr: &str, stats: &mut ChaosStats) {
    let run = || -> Result<(), String> {
        let mut c = Conn::connect(addr)?;
        c.send(&align_request(1, &chaos_page(), None))?;
        c.stream
            .shutdown(std::net::Shutdown::Write)
            .map_err(|e| format!("half-close failed: {e}"))?;
        let resp = c.recv()?;
        match resp.get("status").and_then(Value::as_str) {
            Some("ok") | Some("shed") => Ok(()),
            other => Err(format!("half-closed request got status {other:?}")),
        }
    };
    match run() {
        Ok(()) => stats.ok += 1,
        Err(e) => stats.failures.push(format!("half-close: {e}")),
    }
}

/// Slow writer: the request trickles in a few bytes at a time; the
/// server must wait for the newline, not time out mid-line.
fn chaos_slow_writer(addr: &str, stats: &mut ChaosStats) {
    let run = || -> Result<(), String> {
        let mut c = Conn::connect(addr)?;
        let line = align_request(2, &chaos_page(), None) + "\n";
        for piece in line.as_bytes().chunks(64) {
            c.stream
                .write_all(piece)
                .map_err(|e| format!("send failed: {e}"))?;
            std::thread::sleep(Duration::from_millis(2));
        }
        let resp = c.recv()?;
        match resp.get("status").and_then(Value::as_str) {
            Some("ok") | Some("shed") => Ok(()),
            other => Err(format!("slow-written request got status {other:?}")),
        }
    };
    match run() {
        Ok(()) => stats.ok += 1,
        Err(e) => stats.failures.push(format!("slow-writer: {e}")),
    }
}

/// One flood connection's tally: ok count, shed count, raw shed lines.
type FloodTally = Result<(usize, usize, Vec<String>), String>;

/// Flood: many concurrent connections each firing sequential requests.
/// Every reply must be structured; every shed reply (no id echoes back
/// since the flood sets none) must be byte-identical — deterministic
/// shedding, not garbage under load.
fn chaos_flood(addr: &str, connections: usize, requests: usize, stats: &mut ChaosStats) {
    let results: Vec<FloodTally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                s.spawn(move || -> FloodTally {
                    let mut c = Conn::connect(addr)?;
                    let page = chaos_page();
                    let (mut ok, mut shed, mut shed_lines) = (0usize, 0usize, Vec::new());
                    for _ in 0..requests {
                        // No "id" field: every shed line must be
                        // byte-identical across the whole flood.
                        let req = Value::Object(vec![
                            ("op".to_string(), Value::Str("align".into())),
                            ("html".to_string(), Value::Str(page.clone())),
                        ])
                        .to_string_compact();
                        c.send(&req)?;
                        let line = c.recv_line()?;
                        let resp = briq_json::parse(&line)
                            .map_err(|e| format!("unparseable reply {line:?}: {e}"))?;
                        match resp.get("status").and_then(Value::as_str) {
                            Some("ok") => ok += 1,
                            Some("shed") => {
                                shed += 1;
                                shed_lines.push(line);
                            }
                            other => return Err(format!("flood reply has status {other:?}")),
                        }
                    }
                    Ok((ok, shed, shed_lines))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("flood client panicked".into()))
            })
            .collect()
    });
    let mut all_shed_lines: Vec<String> = Vec::new();
    for r in results {
        match r {
            Ok((ok, shed, lines)) => {
                stats.ok += ok;
                stats.shed += shed;
                all_shed_lines.extend(lines);
            }
            Err(e) => stats.failures.push(format!("flood: {e}")),
        }
    }
    all_shed_lines.sort();
    all_shed_lines.dedup();
    if all_shed_lines.len() > 1 {
        stats.failures.push(format!(
            "non-deterministic shed responses: {all_shed_lines:?}"
        ));
    }
}

/// After all faults: the server must still be ready and answer a clean
/// request, and [`check_postconditions`] must hold for its health and
/// metrics.
fn chaos_postconditions(addr: &str, expect_shed: bool, stats: &mut ChaosStats) {
    let run = |stats: &mut ChaosStats| -> Result<(), String> {
        let mut c = Conn::connect(addr)?;
        let health = c.request(r#"{"op":"health"}"#)?;
        let metrics = c.request(r#"{"op":"metrics"}"#)?;
        let (depth_max, capacity) = check_postconditions(&health, &metrics, expect_shed)?;
        eprintln!("chaos: observed max queue depth {depth_max} (capacity {capacity})");
        let final_ok = c.request(&align_request(99, &chaos_page(), None))?;
        if final_ok.get("status").and_then(Value::as_str) != Some("ok") {
            return Err("clean request after chaos did not succeed".into());
        }
        stats.ok += 1;
        Ok(())
    };
    if let Err(e) = run(stats) {
        stats.failures.push(format!("postconditions: {e}"));
    }
}

/// The server-state invariants over a `health` and a `metrics` response:
/// the server is ready, nothing panicked, the flood was shed when
/// `expect_shed`, and the queue-depth histogram never exceeded the
/// health's `queue_capacity` (bounded memory). Returns the observed max
/// depth and that capacity.
fn check_postconditions(
    health: &Value,
    metrics: &Value,
    expect_shed: bool,
) -> Result<(f64, f64), String> {
    if health.get("ready").and_then(Value::as_bool) != Some(true) {
        return Err("server not ready after chaos".into());
    }
    let capacity = health
        .get("queue_capacity")
        .and_then(Value::as_f64)
        .ok_or("health response has no queue_capacity")?;
    let metrics = metrics
        .get("metrics")
        .ok_or("metrics response has no metrics")?;
    let counters = metrics
        .get("counters")
        .ok_or("metrics response has no counters")?;
    let counter = |name: &str| -> f64 { counters.get(name).and_then(Value::as_f64).unwrap_or(0.0) };
    if counter("serve_panics") != 0.0 {
        return Err(format!(
            "server panicked {} time(s)",
            counter("serve_panics")
        ));
    }
    if expect_shed && counter("serve_shed") == 0.0 {
        return Err("expected load shedding but serve_shed == 0".into());
    }
    let depth_max = metrics
        .get("histograms")
        .and_then(|h| h.get("serve_queue_depth"))
        .and_then(|h| h.get("max"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    if depth_max > capacity {
        return Err(format!(
            "queue depth reached {depth_max}, above the queue capacity {capacity}"
        ));
    }
    Ok((depth_max, capacity))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health(capacity: f64) -> Value {
        briq_json::parse(&format!(r#"{{"ready":true,"queue_capacity":{capacity}}}"#)).unwrap()
    }

    fn metrics(depth_max: f64) -> Value {
        briq_json::parse(&format!(
            r#"{{"metrics":{{"counters":{{"serve_shed":3}},
                "histograms":{{"serve_queue_depth":{{"max":{depth_max}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn queue_depth_above_capacity_fails() {
        let err = check_postconditions(&health(1.0), &metrics(2.0), true).unwrap_err();
        assert!(err.contains("above the queue capacity"), "{err}");
    }

    #[test]
    fn queue_depth_equal_to_capacity_passes() {
        assert_eq!(
            check_postconditions(&health(1.0), &metrics(1.0), true),
            Ok((1.0, 1.0))
        );
    }

    #[test]
    fn missing_queue_capacity_fails() {
        let no_cap = briq_json::parse(r#"{"ready":true}"#).unwrap();
        assert!(check_postconditions(&no_cap, &metrics(0.0), false).is_err());
    }
}
