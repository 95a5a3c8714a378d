//! `briq-serve` — the persistent alignment service and its clients.
//!
//! ```text
//! briq-serve serve [--addr H:P] [--model model.json] [--workers N]
//!            [--queue-depth N] [--deadline-ms N] [--drain-grace-ms N]
//!            [--store-dir DIR] [--store-max-bytes N]
//! briq-serve drive <page.html>... --addr H:P [--deadline-ms N]
//! briq-serve chaos --addr H:P [--connections N] [--requests N] [--expect-shed]
//! briq-serve stop --addr H:P
//! ```
//!
//! Each subcommand's flag table ([`SERVE`], [`DRIVE`], [`CHAOS`],
//! [`STOP`]) is parsed by [`briq_bench::cli`]: an unknown flag, a flag
//! without its value, a number that is not an unsigned integer, a value
//! flag given twice, a missing `--addr` or a stray argument prints the
//! error and the usage and exits 1 before the server binds or a client
//! connects.
//!
//! `serve` warm-loads one model, opens the alignment store
//! `--store-dir`/`--store-max-bytes` name as `briq-align` does
//! ([`cli::open_store`]; a directory that cannot be opened leaves it
//! in-memory), and serves the TCP/JSONL protocol of
//! [`briq_core::serve`] until it receives SIGTERM/SIGINT or a
//! `{"op":"shutdown"}` line, then drains gracefully and snapshots the
//! store ([`cli::snapshot_store`]). The bound address
//! is printed to stdout as `listening on H:P` before the first request
//! is accepted, so scripts can wait for readiness and discover an
//! OS-assigned port. The shed back-off hint and the request-line cap are
//! the constants [`briq_core::serve::RETRY_AFTER_MS`] and
//! [`briq_core::serve::MAX_REQUEST_BYTES`].
//!
//! `drive` is the clean client: it sends one align request per page,
//! under the page's [`cli::page_identity`] as its `id` (so the server
//! stores the page where `briq-align` would), and prints each document's
//! alignments with the same serializer `briq-align --json` uses — for
//! clean inputs the bytes are identical, which CI's `serve` stage
//! asserts. Exit codes mirror `briq-align`: 0 clean, 1 transport/usage
//! error, 2 degraded.
//!
//! `chaos` is the fault-injecting client: malformed JSONL, an oversized
//! line, a half-closed connection, a slow writer, and a concurrent
//! request flood. It asserts every server reply is structured JSON with
//! a known status, that shed responses are byte-identical to each other
//! (deterministic shedding), that the server reports zero panics and
//! stays ready afterwards, and that no more align requests ever waited
//! for a slot than the `queue_capacity` the server's health reports.
//! Exit 0 = all invariants held.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use briq_bench::cli::{self, Args, Command, Flag, EXIT_DEGRADED};
use briq_core::serve::{ServeConfig, Server};
use briq_core::store::AlignmentStore;
use briq_json::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Run the server.
const SERVE: Command = Command {
    synopsis: "briq-serve serve",
    positionals: false,
    flags: &[
        Flag::text("--addr", "H:P"),
        Flag::text("--model", "model.json"),
        Flag::number("--workers", "N"),
        Flag::number("--queue-depth", "N"),
        Flag::number("--deadline-ms", "N"),
        Flag::number("--drain-grace-ms", "N"),
        Flag::text("--store-dir", "DIR"),
        Flag::number("--store-max-bytes", "N"),
    ],
};

/// Align pages through a running server.
const DRIVE: Command = Command {
    synopsis: "briq-serve drive <page.html>...",
    positionals: true,
    flags: &[
        Flag::required("--addr", "H:P"),
        Flag::number("--deadline-ms", "N"),
    ],
};

/// Inject faults into a running server.
const CHAOS: Command = Command {
    synopsis: "briq-serve chaos",
    positionals: false,
    flags: &[
        Flag::required("--addr", "H:P"),
        Flag::number("--connections", "N"),
        Flag::number("--requests", "N"),
        Flag::switch("--expect-shed"),
    ],
};

/// Ask a running server to drain and exit.
const STOP: Command = Command {
    synopsis: "briq-serve stop",
    positionals: false,
    flags: &[Flag::required("--addr", "H:P")],
};

const COMMANDS: [&Command; 4] = [&SERVE, &DRIVE, &CHAOS, &STOP];

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
    let run = cli::argv().and_then(|argv| {
        let (command, run): (_, fn(&Args) -> ExitCode) = match argv.first().map(String::as_str) {
            Some("serve") => (&SERVE, cmd_serve),
            Some("drive") => (&DRIVE, cmd_drive),
            Some("chaos") => (&CHAOS, cmd_chaos),
            Some("stop") => (&STOP, cmd_stop),
            _ => {
                eprintln!("{}", cli::usage(&COMMANDS));
                return Ok(ExitCode::FAILURE);
            }
        };
        Ok(run(&command.parse(&argv[1..])?))
    });
    run.unwrap_or_else(|e| cli::refuse(&e, &COMMANDS))
}

/// The `--addr` of a client command; its table requires it.
fn addr(args: &Args) -> &str {
    args.value("--addr").unwrap_or_default()
}

// ---------------------------------------------------------------- serve

fn cmd_serve(args: &Args) -> ExitCode {
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:0").into(),
        workers: args.number("--workers").unwrap_or(defaults.workers),
        queue_depth: args.number("--queue-depth").unwrap_or(defaults.queue_depth),
        default_deadline_ms: args
            .number("--deadline-ms")
            .unwrap_or(defaults.default_deadline_ms),
        drain_grace_ms: args
            .number("--drain-grace-ms")
            .unwrap_or(defaults.drain_grace_ms),
    };
    let briq = match cli::load_model(args.value("--model")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Persistence failing to open costs durability, never availability.
    let store = cli::open_store(&briq, args).unwrap_or_else(|e| {
        eprintln!("{e}; continuing in-memory");
        AlignmentStore::for_system(&briq)
    });

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
    let report = server.run(&briq, &store);
    cli::snapshot_store(&store);
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

fn align_request(id: Value, html: &str, deadline_ms: Option<u64>) -> String {
    let mut fields = vec![
        ("op".to_string(), Value::Str("align".into())),
        ("id".to_string(), id),
        ("html".to_string(), Value::Str(html.into())),
    ];
    if let Some(d) = deadline_ms {
        fields.push(("deadline_ms".to_string(), Value::Num(d as f64)));
    }
    Value::Object(fields).to_string_compact()
}

// ---------------------------------------------------------------- drive

fn cmd_drive(args: &Args) -> ExitCode {
    let deadline_ms = args.number("--deadline-ms");
    let pages = args.positionals();
    if pages.is_empty() {
        eprintln!("drive needs at least one page path");
        return ExitCode::FAILURE;
    }

    let mut conn = match Conn::connect(addr(args)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut degraded = 0usize;
    for path in pages {
        let html = match cli::read_page(path) {
            Ok(html) => html,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let id = Value::Str(cli::page_identity(Path::new(path)).into_owned());
        let resp = match conn.request(&align_request(id, &html, deadline_ms)) {
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

fn cmd_stop(args: &Args) -> ExitCode {
    let resp = Conn::connect(addr(args)).and_then(|mut c| c.request(r#"{"op":"shutdown"}"#));
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

fn cmd_chaos(args: &Args) -> ExitCode {
    let addr = addr(args);
    let connections = args.number("--connections").unwrap_or(16);
    let requests = args.number("--requests").unwrap_or(8);
    let expect_shed = args.switch("--expect-shed");

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
        let resp = c.request(&align_request(Value::Num(0.0), &chaos_page(), None))?;
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
        c.send(&align_request(Value::Num(1.0), &chaos_page(), None))?;
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
        let line = align_request(Value::Num(2.0), &chaos_page(), None) + "\n";
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
/// shedding, not garbage under load. Each request's page differs from
/// the others in an HTML comment only, so none is answered from the
/// server's alignment store: every request is alignment work, which is
/// what lets the flood overload a small server.
fn chaos_flood(addr: &str, connections: usize, requests: usize, stats: &mut ChaosStats) {
    let results: Vec<FloodTally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|conn| {
                s.spawn(move || -> FloodTally {
                    let mut c = Conn::connect(addr)?;
                    let (mut ok, mut shed, mut shed_lines) = (0usize, 0usize, Vec::new());
                    for request in 0..requests {
                        let page = format!("{}<!-- flood {conn}.{request} -->", chaos_page());
                        // No "id" field: every shed line must be
                        // byte-identical across the whole flood.
                        let req = Value::Object(vec![
                            ("op".to_string(), Value::Str("align".into())),
                            ("html".to_string(), Value::Str(page)),
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
        let final_ok = c.request(&align_request(Value::Num(99.0), &chaos_page(), None))?;
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
