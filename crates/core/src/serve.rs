//! Persistent alignment service: admission control, deadlines, and
//! graceful degradation over a TCP/JSONL wire.
//!
//! `briq-serve` (the binary in `briq-bench`) warm-loads one immutable
//! [`Briq`] and keeps it resident; this module is the server behind it.
//! The design goal is *robustness under load*, not throughput tricks —
//! every overload path has an explicit, structured answer:
//!
//! * **Bounded admission.** Each align request runs on its own
//!   connection's thread, behind one admission gate: at most `workers`
//!   requests run at once, at most `queue_depth` more wait for a slot,
//!   and waiting requests start in arrival order. A request past that is
//!   shed immediately with a `{"status":"shed","retry_after_ms":N}`
//!   response instead of buffering without bound — memory stays bounded
//!   by construction and the client learns to back off.
//! * **Deadlines.** Every request carries a wall-clock deadline (the
//!   server default, or a per-request `deadline_ms` override) enforced
//!   by a cooperative [`CancelToken`] polled inside the align stages. A
//!   request that exceeds its deadline — including time spent waiting
//!   for a slot — returns a structured `Cancelled` diagnostic, never a
//!   hung socket.
//! * **One alignment path.** A served page's documents align through
//!   the batch engine ([`crate::batch`]) as a one-worker batch on the
//!   connection's thread: the same per-document isolation (a panicking
//!   document degrades to the `WorkerPanicked` diagnostic and the server
//!   keeps serving), recording and store lookups as `briq-align`.
//! * **Graceful drain.** Raising the shutdown flag (SIGTERM in the
//!   binary, or the `shutdown` op) stops the accept loop, sheds new
//!   work, lets waiting and running requests finish within a grace
//!   window, then force-cancels stragglers through the same token; every
//!   admitted request still gets a response.
//! * **Observability.** What each align request's batch recorded — the
//!   pipeline's DESIGN.md §11 counters, per-stage latency histograms,
//!   the store counters and the batch's `documents` — is merged into
//!   one shared [`MetricsRegistry`] beside the server's own counters and
//!   histograms (queue depth, shed count, deadline misses). The registry
//!   is exposed live via the `metrics` op and returned by
//!   [`Server::run`].
//! * **The caller's store.** [`Server::run`] aligns through the
//!   [`AlignmentStore`] it is handed; opening, recovering and
//!   snapshotting it is the caller's (`briq-serve` does it as
//!   `briq-align` does).
//!
//! ## Wire protocol
//!
//! One JSON object per line in both directions (JSONL). Requests:
//!
//! ```text
//! {"op":"align","html":"<page html>"}            // + optional "id", "deadline_ms"
//! {"op":"health"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! An `align` response carries one entry per segmented document of the
//! page, in order, with the document's alignments serialized by the same
//! `ToJson` impl the `briq-align` CLI uses — for clean inputs the
//! alignment payload is **byte-identical** to the batch path (CI's
//! `serve` stage re-serializes and byte-compares to enforce it), and the
//! diagnostics use the same `doc <i>: <scope>` prefix as
//! [`BatchReport::combined_diagnostics`](crate::batch::BatchReport::combined_diagnostics).
//! Malformed lines get `{"status":"error",...}` and the connection
//! stays usable; oversized lines get an error and a close. See
//! OPERATIONS.md §9 for the operator walkthrough and DESIGN.md §12 for
//! the admission-control rationale.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use briq_json::{ToJson, Value};

use crate::batch::{align_run, doc_scoped, ingest_page, BatchConfig, RunCtx};
use crate::error::{CancelCause, CancelToken, DegradedAction, Stage};
use crate::obs::{names, MetricsRegistry};
use crate::pipeline::Briq;
use crate::store::{lock, AlignmentStore};

/// Concurrent connection cap; excess connections get one shed line and
/// are closed without ever reaching the admission gate.
const MAX_CONNECTIONS: usize = 64;

/// Poll interval for the accept loop and socket reads — the latency
/// floor for noticing a drain.
const POLL: Duration = Duration::from_millis(10);

/// `retry_after_ms` value in shed responses — the back-off hint.
pub const RETRY_AFTER_MS: u64 = 50;

/// Hard cap on one request line's length in bytes; longer lines get an
/// error response and the connection is closed.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Tuning knobs for one server instance. The defaults are sized for the
/// synthetic-corpus workload CI drives; OPERATIONS.md §9 discusses how
/// to retune them for real traffic.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:4870`; port `0` picks a free port
    /// (the bound address is available from [`Server::local_addr`]).
    pub addr: String,
    /// Align requests that run at once (≥ 1), each on its own
    /// connection's thread.
    pub workers: usize,
    /// Align requests that may wait for one of those slots (≥ 1); a
    /// request that would make one more wait is shed.
    pub queue_depth: usize,
    /// Default wall-clock deadline per align request, in ms (`0` = no
    /// deadline). A request's `deadline_ms` field overrides it.
    pub default_deadline_ms: u64,
    /// How long a drain waits for waiting and running requests before
    /// force-cancelling them.
    pub drain_grace_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 32,
            default_deadline_ms: 10_000,
            drain_grace_ms: 2_000,
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Align the segmented documents of one HTML page.
    Align {
        /// Opaque client correlation id, echoed back verbatim.
        id: Option<Value>,
        /// The page HTML (same input `briq-align` takes from a file).
        html: String,
        /// Per-request deadline override in ms (`0` = no deadline).
        deadline_ms: Option<u64>,
    },
    /// Liveness/readiness probe.
    Health,
    /// Live metrics snapshot.
    Metrics,
    /// Begin a graceful drain, then exit.
    Shutdown,
}

/// Parse one JSONL request line. Errors are client-facing strings —
/// they go straight into an `error` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = briq_json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("missing string field \"op\"")?;
    match op {
        "align" => {
            let html = v
                .get("html")
                .and_then(Value::as_str)
                .ok_or("align needs a string field \"html\"")?
                .to_string();
            let deadline_ms = match v.get("deadline_ms") {
                None => None,
                Some(d) => Some(
                    d.as_f64()
                        .filter(|x| *x >= 0.0 && x.fract() == 0.0)
                        .ok_or("\"deadline_ms\" must be a non-negative integer")?
                        as u64,
                ),
            };
            Ok(Request::Align {
                id: v.get("id").cloned(),
                html,
                deadline_ms,
            })
        }
        "health" => Ok(Request::Health),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn push_id(fields: &mut Vec<(&str, Value)>, id: Option<&Value>) {
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
}

/// The load-shedding response: the admission gate (or connection
/// table) is full.
/// Deterministic — CI asserts the exact bytes.
pub fn shed_response(id: Option<&Value>) -> Value {
    let mut fields = vec![("status", Value::Str("shed".into()))];
    push_id(&mut fields, id);
    fields.push(("retry_after_ms", Value::Num(RETRY_AFTER_MS as f64)));
    obj(fields)
}

/// A request-level error response (malformed line, oversized line,
/// unknown op). The connection survives unless the transport itself is
/// compromised.
pub fn error_response(id: Option<&Value>, error: &str) -> Value {
    let mut fields = vec![("status", Value::Str("error".into()))];
    push_id(&mut fields, id);
    fields.push(("error", Value::Str(error.into())));
    obj(fields)
}

/// Serve one align request: ingest the page ([`ingest_page`]), align its
/// documents through `store` as a one-worker batch on this thread under
/// `cancel` and [`crate::Budget::default`], and build the response value.
/// Returns it with what the request adds to the server's registry: the
/// batch's merged metrics, plus `serve_panics`, `serve_deadline_misses`
/// and, when any document degraded, `serve_degraded`.
///
/// Pure with respect to the server — callable from unit tests without a
/// socket. Each document's alignments and `doc <i>: <scope>`-prefixed
/// diagnostics are the batch engine's own, so clean responses are
/// byte-compatible with `briq-align` output.
///
/// The page is keyed in the store by its identity ([`ingest_page`]): a
/// string `id`'s text, any other `id` in compact JSON, else the page
/// HTML. So a client re-submitting a page under a stable id is served
/// incrementally, and a page sent under its file's basename (as
/// `briq-serve drive` sends it) finds what `briq-align` stored for it.
/// Responses stay bit-identical either way (the store contract,
/// DESIGN.md §15).
pub fn serve_align(
    briq: &Briq,
    id: Option<&Value>,
    html: &str,
    cancel: &CancelToken,
    store: &AlignmentStore,
) -> (Value, MetricsRegistry) {
    let id_json;
    let identity = match id {
        Some(Value::Str(text)) => text.as_str(),
        Some(id) => {
            id_json = id.to_string_compact();
            id_json.as_str()
        }
        None => html,
    };
    let (docs, keys) = ingest_page(identity, html, 0);
    let run = RunCtx {
        store: Some(store),
        keys: Some(&keys),
        cancel: Some(cancel),
    };
    let report = align_run(briq, &docs, &BatchConfig::with_jobs(1), run);
    // A cancellation counts as a deadline miss unless the drain fired it.
    let drained = cancel.cause() == Some(CancelCause::Shutdown);
    let (mut panics, mut deadline_misses) = (0, 0);
    let mut doc_values = Vec::with_capacity(report.documents.len());
    for d in &report.documents {
        let items = &d.diagnostics.items;
        // The batch stage's one diagnostic is a panicked document's.
        panics += u64::from(items.iter().any(|item| item.stage == Stage::Batch));
        if !drained {
            let cancelled = items
                .iter()
                .filter(|item| item.action == DegradedAction::Cancelled);
            deadline_misses += cancelled.count() as u64;
        }
        let diag_values = items.iter().map(|item| doc_scoped(d.index, item).to_json());
        doc_values.push(obj(vec![
            ("doc", Value::Num(d.index as f64)),
            ("alignments", d.alignments.to_json()),
            ("diagnostics", Value::Array(diag_values.collect())),
        ]));
    }
    let mut metrics = report.merged_metrics();
    let degraded = !report.is_clean();
    if degraded {
        metrics.count(names::SERVE_DEGRADED, 1);
    }
    metrics.count(names::SERVE_PANICS, panics);
    metrics.count(names::SERVE_DEADLINE_MISSES, deadline_misses);
    let mut fields = vec![("status", Value::Str("ok".into()))];
    push_id(&mut fields, id);
    fields.push(("degraded", Value::Bool(degraded)));
    fields.push(("documents", Value::Array(doc_values)));
    (obj(fields), metrics)
}

/// A point-in-time JSON rendering of the registry: every counter, plus
/// count/mean/quantiles for every histogram.
pub fn metrics_snapshot(reg: &MetricsRegistry) -> Value {
    let counters: Vec<(String, Value)> = reg
        .counters()
        .map(|(k, v)| (k.to_string(), Value::Num(v as f64)))
        .collect();
    let histograms: Vec<(String, Value)> = reg
        .histograms()
        .map(|(k, h)| {
            (
                k.to_string(),
                obj(vec![
                    ("count", Value::Num(h.count() as f64)),
                    ("mean", Value::Num(h.mean())),
                    ("p50", Value::Num(h.quantile(0.5))),
                    ("p99", Value::Num(h.quantile(0.99))),
                    ("max", Value::Num(h.max())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("counters", Value::Object(counters)),
        ("histograms", Value::Object(histograms)),
    ])
}

/// Admission control for align requests: a ticket counter. Requests take
/// tickets in arrival order, and ticket `t` may run once
/// `t < finished + workers`, so at most `workers` requests run at once
/// and waiting requests start in arrival order. Admission never blocks
/// and never lets more than `cap` requests wait — a request past that is
/// the *caller's* problem (shed), which is what keeps server memory
/// bounded under floods.
struct Gate {
    workers: u64,
    cap: u64,
    /// `(admitted, finished)`: tickets handed out, tickets dropped.
    counts: Mutex<(u64, u64)>,
    cond: Condvar,
}

impl Gate {
    fn new(workers: usize, cap: usize) -> Gate {
        Gate {
            workers: workers.max(1) as u64,
            cap: cap.max(1) as u64,
            counts: Mutex::new((0, 0)),
            cond: Condvar::new(),
        }
    }

    /// Requests `(running, waiting)` right now.
    fn load(&self) -> (u64, u64) {
        let (admitted, finished) = *lock(&self.counts);
        let held = admitted - finished;
        (held.min(self.workers), held.saturating_sub(self.workers))
    }

    /// Take the next ticket, with the number of requests waiting once it
    /// is taken (0 when it may run at once); `None` when `cap` requests
    /// already wait, and the request must be shed.
    fn admit(&self) -> Option<(Ticket<'_>, u64)> {
        let mut counts = lock(&self.counts);
        let (admitted, finished) = *counts;
        let waiting = (admitted + 1 - finished).saturating_sub(self.workers);
        if waiting > self.cap {
            return None;
        }
        counts.0 += 1;
        let ticket = Ticket {
            gate: self,
            number: admitted,
        };
        Some((ticket, waiting))
    }

    /// Block until every admitted request has finished, or `grace` has
    /// passed.
    fn wait_empty(&self, grace: Duration) {
        let counts = lock(&self.counts);
        drop(
            self.cond
                .wait_timeout_while(counts, grace, |(admitted, finished)| admitted > finished),
        );
    }
}

/// One admitted request's place in the [`Gate`]. Dropping it — also on
/// unwind — frees the request's slot for the next ticket.
struct Ticket<'g> {
    gate: &'g Gate,
    number: u64,
}

impl Ticket<'_> {
    /// Block until this request may run.
    fn wait_turn(&self) {
        let gate = self.gate;
        let counts = lock(&gate.counts);
        drop(gate.cond.wait_while(counts, |(_, finished)| {
            self.number >= *finished + gate.workers
        }));
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        lock(&self.gate.counts).1 += 1;
        self.gate.cond.notify_all();
    }
}

/// Shared state of one running server.
struct Shared<'a> {
    briq: &'a Briq,
    cfg: &'a ServeConfig,
    gate: Gate,
    metrics: Mutex<MetricsRegistry>,
    /// Drain requested (SIGTERM watcher, `shutdown` op, or test hook).
    shutdown: Arc<AtomicBool>,
    /// Raised after the drain grace expires; it is the flag inside every
    /// admitted request's [`CancelToken`], so raising it cancels all
    /// running and still-waiting requests cooperatively.
    force_cancel: Arc<AtomicBool>,
    connections: AtomicUsize,
    /// The caller's alignment store, shared across requests.
    store: &'a AlignmentStore,
}

impl Shared<'_> {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn count(&self, name: &str, n: u64) {
        if n > 0 {
            lock(&self.metrics).count(name, n);
        }
    }
}

/// A bound-but-not-yet-running server. Binding is separate from running
/// so callers can learn the (possibly OS-assigned) port and keep a
/// handle on the shutdown flag before the blocking accept loop starts.
pub struct Server {
    listener: TcpListener,
    cfg: ServeConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind `cfg.addr`. The listener is nonblocking — the accept loop
    /// polls it so it can notice a drain between connections.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            cfg,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually-bound address (resolves port `0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The drain flag: store `true` (from a signal watcher or another
    /// thread) and the server sheds new work, finishes what it admitted,
    /// and [`Server::run`] returns.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serve until drained, aligning through `store`. Blocks; spawns one
    /// scoped thread per live connection, which also runs that
    /// connection's align requests. The store stays the caller's: it is
    /// neither opened nor snapshotted here. Returns the server's metrics
    /// registry at shutdown, whose `serve_*` counters tally its lifetime.
    pub fn run(self, briq: &Briq, store: &AlignmentStore) -> MetricsRegistry {
        let sh = Shared {
            briq,
            cfg: &self.cfg,
            gate: Gate::new(self.cfg.workers, self.cfg.queue_depth),
            metrics: Mutex::new(MetricsRegistry::new()),
            shutdown: Arc::clone(&self.shutdown),
            force_cancel: Arc::new(AtomicBool::new(false)),
            connections: AtomicUsize::new(0),
            store,
        };
        std::thread::scope(|s| {
            while !sh.draining() {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if sh.connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                            sh.count(names::SERVE_CONNECTIONS_REFUSED, 1);
                            refuse_connection(&sh, stream);
                            continue;
                        }
                        sh.connections.fetch_add(1, Ordering::SeqCst);
                        sh.count(names::SERVE_CONNECTIONS, 1);
                        let shr = &sh;
                        s.spawn(move || {
                            run_connection(shr, stream);
                            shr.connections.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL);
                    }
                    Err(_) => std::thread::sleep(POLL),
                }
            }
            // Drain: give waiting and running requests the grace window,
            // then force-cancel the rest through the shared token flag.
            // A request still waiting then starts with a fired token, so
            // every admitted request is answered either way.
            sh.gate
                .wait_empty(Duration::from_millis(self.cfg.drain_grace_ms));
            sh.force_cancel.store(true, Ordering::SeqCst);
        });
        sh.metrics.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// Write one JSONL response line. Returns false on transport failure
/// (half-closed peer, write timeout) — the caller drops the connection.
fn write_line(sh: &Shared<'_>, stream: &mut TcpStream, v: &Value) -> bool {
    let mut line = v.to_string_compact();
    line.push('\n');
    match stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.flush())
    {
        Ok(()) => true,
        Err(_) => {
            sh.count(names::SERVE_WRITE_ERRORS, 1);
            false
        }
    }
}

/// Over the connection cap: one shed line, then close.
fn refuse_connection(sh: &Shared<'_>, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    write_line(sh, &mut stream, &shed_response(None));
}

/// What a handled request line asks the connection loop to do next.
enum After {
    Continue,
    Close,
}

/// One connection: read JSONL lines, answer each. Requests on a single
/// connection are served strictly in order, on this thread; concurrency
/// comes from multiple connections sharing the admission gate.
fn run_connection(sh: &Shared<'_>, mut stream: TcpStream) {
    // Accepted sockets may inherit the listener's nonblocking mode on
    // some platforms; force blocking + a read timeout so the loop can
    // poll the drain flag while idle.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(2_000)));
    let _ = stream.set_nodelay(true);

    let mut pending: Vec<u8> = Vec::new();
    let mut buf = [0u8; 8192];
    loop {
        while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = pending.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line_bytes[..nl]).into_owned();
            if line.trim().is_empty() {
                continue;
            }
            match handle_line(sh, &mut stream, &line) {
                After::Continue => {}
                After::Close => return,
            }
        }
        if sh.draining() {
            return;
        }
        if pending.len() > MAX_REQUEST_BYTES {
            sh.count(names::SERVE_OVERSIZED, 1);
            write_line(
                sh,
                &mut stream,
                &error_response(
                    None,
                    &format!("request line exceeds {MAX_REQUEST_BYTES} bytes; closing connection"),
                ),
            );
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // EOF / half-closed peer
            Ok(n) => pending.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Dispatch one request line and write its response.
fn handle_line(sh: &Shared<'_>, stream: &mut TcpStream, line: &str) -> After {
    let req = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            sh.count(names::SERVE_MALFORMED, 1);
            return if write_line(sh, stream, &error_response(None, &e)) {
                After::Continue
            } else {
                After::Close
            };
        }
    };
    match req {
        Request::Health => {
            let (running, waiting) = sh.gate.load();
            let resp = obj(vec![
                ("status", Value::Str("ok".into())),
                ("op", Value::Str("health".into())),
                ("ready", Value::Bool(!sh.draining())),
                ("draining", Value::Bool(sh.draining())),
                ("queue_depth", Value::Num(waiting as f64)),
                // The admission cap after its `max(1)` clamp: chaos checks
                // the observed queue depth never exceeded it.
                ("queue_capacity", Value::Num(sh.gate.cap as f64)),
                ("inflight", Value::Num(running as f64)),
                (
                    "connections",
                    Value::Num(sh.connections.load(Ordering::SeqCst) as f64),
                ),
                ("workers", Value::Num(sh.cfg.workers as f64)),
                // The store's lifetime hit rate: the fraction of served
                // documents answered whole from it.
                (
                    "store_hit_rate",
                    Value::Num(store_hit_rate(&lock(&sh.metrics))),
                ),
                // Durable-store state: whether a --store-dir backs this
                // server, and how many entries the boot recovered from
                // it (0 on a cold first boot).
                ("store_persisted", Value::Bool(sh.store.persisted())),
                (
                    "store_recovered_entries",
                    Value::Num(sh.store.recovered_entries() as f64),
                ),
            ]);
            ok_or_close(write_line(sh, stream, &resp))
        }
        Request::Metrics => {
            // Requests record the store's per-request counters themselves;
            // here they only materialize, so each reads 0 before its first
            // event. What no request records — the boot's recovery and the
            // persistence totals — is read from the store into a snapshot
            // copy, so the endpoint reports one merged view.
            let mut reg = lock(&sh.metrics).clone();
            let st = sh.store;
            for name in [
                names::STORE_HITS,
                names::STORE_INVALIDATIONS,
                names::MENTIONS_REALIGNED,
                names::STORE_EVICTIONS,
            ] {
                reg.count(name, 0);
            }
            if st.persisted() {
                reg.count(names::STORE_RECOVERED_ENTRIES, st.recovered_entries());
                reg.count(names::STORE_COMPACTIONS, st.compactions());
                reg.count(names::STORE_PERSIST_ERRORS, st.persist_errors());
                reg.observe(names::STORE_SNAPSHOT_BYTES, st.snapshot_bytes() as f64);
            }
            let snapshot = metrics_snapshot(&reg);
            let resp = obj(vec![
                ("status", Value::Str("ok".into())),
                ("op", Value::Str("metrics".into())),
                ("queue_depth", Value::Num(sh.gate.load().1 as f64)),
                ("metrics", snapshot),
            ]);
            ok_or_close(write_line(sh, stream, &resp))
        }
        Request::Shutdown => {
            sh.shutdown.store(true, Ordering::SeqCst);
            let resp = obj(vec![
                ("status", Value::Str("ok".into())),
                ("op", Value::Str("shutdown".into())),
                ("draining", Value::Bool(true)),
            ]);
            write_line(sh, stream, &resp);
            After::Close
        }
        Request::Align {
            id,
            html,
            deadline_ms,
        } => {
            sh.count(names::SERVE_REQUESTS, 1);
            if sh.draining() {
                sh.count(names::SERVE_SHED, 1);
                write_line(sh, stream, &shed_response(id.as_ref()));
                return After::Close;
            }
            let Some((ticket, waiting)) = sh.gate.admit() else {
                sh.count(names::SERVE_SHED, 1);
                return ok_or_close(write_line(sh, stream, &shed_response(id.as_ref())));
            };
            let admitted = Instant::now();
            lock(&sh.metrics).observe(names::SERVE_QUEUE_DEPTH, waiting as f64);
            // Deadline runs from admission, so time spent waiting for a
            // slot counts against the request — a deadline is a promise
            // about total latency, not just compute.
            let deadline_ms = deadline_ms.unwrap_or(sh.cfg.default_deadline_ms);
            let mut cancel = CancelToken::with_flag(Arc::clone(&sh.force_cancel));
            if deadline_ms > 0 {
                cancel = cancel.and_deadline(admitted + Duration::from_millis(deadline_ms));
            }
            ticket.wait_turn();
            let started = Instant::now();
            let (resp, recorded) = serve_align(sh.briq, id.as_ref(), &html, &cancel, sh.store);
            drop(ticket);
            {
                let mut m = lock(&sh.metrics);
                m.observe(
                    names::SERVE_QUEUE_WAIT_S,
                    (started - admitted).as_secs_f64(),
                );
                m.observe(names::SERVE_REQUEST_S, started.elapsed().as_secs_f64());
                m.merge(&recorded);
            }
            ok_or_close(write_line(sh, stream, &resp))
        }
    }
}

/// Served documents answered whole from the store: `store_hits` over
/// `documents` in `reg` (0 before the first document).
fn store_hit_rate(reg: &MetricsRegistry) -> f64 {
    match reg.counter(names::DOCUMENTS) {
        0 => 0.0,
        documents => reg.counter(names::STORE_HITS) as f64 / documents as f64,
    }
}

fn ok_or_close(wrote: bool) -> After {
    if wrote {
        After::Continue
    } else {
        After::Close
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::BriqConfig;
    use crate::store::StoreOptions;

    fn test_page() -> String {
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

    fn briq() -> Briq {
        Briq::untrained(BriqConfig::default())
    }

    #[test]
    fn parse_request_align_with_id_and_deadline() {
        let r = parse_request(r#"{"op":"align","id":7,"html":"<p>x</p>","deadline_ms":250}"#);
        assert_eq!(
            r,
            Ok(Request::Align {
                id: Some(Value::Num(7.0)),
                html: "<p>x</p>".into(),
                deadline_ms: Some(250),
            })
        );
    }

    #[test]
    fn parse_request_rejects_malformed_inputs() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{}").is_err());
        assert!(parse_request(r#"{"op":"align"}"#).is_err());
        assert!(parse_request(r#"{"op":"align","html":"x","deadline_ms":-1}"#).is_err());
        assert!(parse_request(r#"{"op":"frobnicate"}"#).is_err());
        assert_eq!(parse_request(r#"{"op":"health"}"#), Ok(Request::Health));
        assert_eq!(parse_request(r#"{"op":"metrics"}"#), Ok(Request::Metrics));
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#), Ok(Request::Shutdown));
    }

    #[test]
    fn shed_and_error_responses_are_deterministic_bytes() {
        assert_eq!(
            shed_response(Some(&Value::Num(3.0))).to_string_compact(),
            r#"{"status":"shed","id":3,"retry_after_ms":50}"#
        );
        assert_eq!(
            error_response(None, "bad").to_string_compact(),
            r#"{"status":"error","error":"bad"}"#
        );
    }

    #[test]
    fn serve_align_matches_batch_path_bit_for_bit() {
        let briq = briq();
        let html = test_page();
        let store = AlignmentStore::with_options(&briq, &StoreOptions::default()).unwrap();
        let (resp, recorded) = serve_align(&briq, None, &html, &CancelToken::none(), &store);
        assert_eq!(resp.get("degraded").and_then(Value::as_bool), Some(false));
        assert_eq!(recorded.counter(names::SERVE_DEGRADED), 0);
        assert_eq!(recorded.counter(names::SERVE_PANICS), 0);

        let (docs, _) = ingest_page("", &html, 0);
        assert_eq!(recorded.counter(names::DOCUMENTS), docs.len() as u64);
        let report = briq.align_batch(&docs, &BatchConfig::with_jobs(1));

        let served = resp.get("documents").and_then(Value::as_array).unwrap();
        assert_eq!(served.len(), report.documents.len());
        for (sv, dr) in served.iter().zip(&report.documents) {
            // The wire alignments round-trip to the exact bytes the CLI
            // prints for the same page.
            let wire: Vec<crate::mention::Alignment> =
                briq_json::FromJson::from_json(sv.get("alignments").unwrap()).unwrap();
            assert_eq!(
                briq_json::to_string_pretty(&wire),
                briq_json::to_string_pretty(&dr.alignments)
            );
        }
    }

    /// A request's documents land in the store under the keys
    /// `ingest_page` gives the request's page identity — a string `id`'s
    /// text, any other `id` in compact JSON — so a batch over the same
    /// page under that identity (`briq-align`'s basename for a string
    /// id) is served from the store in full.
    #[test]
    fn served_documents_are_stored_under_the_ingest_keys() {
        let briq = briq();
        let html = test_page();
        let ids = [
            (
                Value::Str("page_0000.html".into()),
                "page_0000.html",
                0x955f_7f4c_bdfb_3f3f,
            ),
            (Value::Num(7.0), "7", 0xccf3_b40b_daa0_619b),
        ];
        for (id, identity, first_key) in ids {
            let store = AlignmentStore::with_options(&briq, &StoreOptions::default()).unwrap();
            let (_, recorded) = serve_align(&briq, Some(&id), &html, &CancelToken::none(), &store);
            let (docs, keys) = ingest_page(identity, &html, 0);
            assert_eq!(recorded.counter(names::DOCUMENTS), docs.len() as u64);
            assert_eq!(keys.first(), Some(&first_key), "{identity}");
            let report =
                briq.align_batch_stored(&docs, &BatchConfig::with_jobs(1), &store, Some(&keys));
            assert_eq!(
                report.merged_metrics().counter(names::STORE_HITS),
                docs.len() as u64,
                "{identity}"
            );
        }
    }

    /// A fired drain flag and an already-elapsed deadline each cancel
    /// every document once, with no partial result; only the deadline
    /// counts its cancellations as deadline misses.
    #[test]
    fn serve_align_with_fired_token_returns_cancelled_not_partial() {
        let briq = briq();
        let store = AlignmentStore::with_options(&briq, &StoreOptions::default()).unwrap();
        let drain = CancelToken::with_flag(Arc::new(AtomicBool::new(true)));
        let deadline = CancelToken::with_deadline(Instant::now());
        for (token, cause, deadline_misses) in [
            (drain, "shutdown drain", false),
            (deadline, "deadline exceeded", true),
        ] {
            let (resp, recorded) = serve_align(&briq, None, &test_page(), &token, &store);
            assert_eq!(resp.get("degraded").and_then(Value::as_bool), Some(true));
            assert_eq!(recorded.counter(names::SERVE_DEGRADED), 1);
            let documents = recorded.counter(names::DOCUMENTS);
            assert!(documents > 0);
            assert_eq!(
                recorded.counter(names::CANCELLATIONS),
                documents,
                "every document is cancelled once ({cause})"
            );
            assert_eq!(
                recorded.counter(names::SERVE_DEADLINE_MISSES),
                if deadline_misses { documents } else { 0 },
                "a drain is not a deadline miss; an elapsed deadline is ({cause})"
            );
            let served = resp.get("documents").and_then(Value::as_array).unwrap();
            assert_eq!(served.len() as u64, documents);
            for sv in served {
                assert_eq!(
                    sv.get("alignments")
                        .and_then(Value::as_array)
                        .unwrap()
                        .len(),
                    0
                );
                let diags = sv.get("diagnostics").and_then(Value::as_array).unwrap();
                assert_eq!(diags.len(), 1);
                let error = diags[0].get("error").and_then(Value::as_str).unwrap();
                assert!(error.contains(cause), "{error}");
            }
        }
    }

    #[test]
    fn gate_sheds_exactly_past_capacity_and_starts_in_admission_order() {
        let gate = Gate::new(1, 2);
        let mut tickets = Vec::new();
        for want_waiting in 0..3 {
            let (ticket, waiting) = gate.admit().expect("admitted");
            assert_eq!(waiting, want_waiting);
            tickets.push(ticket);
        }
        assert!(gate.admit().is_none(), "a fourth request is shed");
        assert_eq!(gate.load(), (1, 2));

        let started = Mutex::new(Vec::new());
        let ready = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            // Both waiters (the later ticket spawned first) pass the
            // barrier before ticket 0 is freed, so only the gate can put
            // them in order.
            for ticket in tickets.drain(1..).rev() {
                let (started, ready) = (&started, &ready);
                s.spawn(move || {
                    ready.wait();
                    ticket.wait_turn();
                    lock(started).push(ticket.number);
                });
            }
            tickets[0].wait_turn();
            lock(&started).push(tickets[0].number);
            ready.wait();
            tickets.clear();
        });
        assert_eq!(*lock(&started), [0, 1, 2]);
        assert_eq!(gate.load(), (0, 0));
        assert_eq!(gate.admit().map(|(_, waiting)| waiting), Some(0));
    }

    #[test]
    fn metrics_snapshot_lists_counters_and_histograms() {
        let mut reg = MetricsRegistry::new();
        reg.count(names::SERVE_SHED, 3);
        reg.observe(names::SERVE_REQUEST_S, 0.25);
        let snap = metrics_snapshot(&reg);
        assert_eq!(
            snap.get("counters")
                .and_then(|c| c.get(names::SERVE_SHED))
                .and_then(Value::as_f64),
            Some(3.0)
        );
        let h = snap
            .get("histograms")
            .and_then(|h| h.get(names::SERVE_REQUEST_S))
            .unwrap();
        assert_eq!(h.get("count").and_then(Value::as_f64), Some(1.0));
    }

    /// Raises a server's shutdown flag when dropped. Held inside the
    /// `std::thread::scope` that runs the server, it turns an assertion
    /// failing there into a drained server and a failed test, not a
    /// scope waiting on a server nobody stops.
    struct StopOnDrop(Arc<AtomicBool>);

    impl Drop for StopOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    /// Helper: a loopback client for the end-to-end tests.
    struct Client {
        stream: TcpStream,
        buf: Vec<u8>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            Client {
                stream,
                buf: Vec::new(),
            }
        }

        fn send(&mut self, line: &str) {
            self.stream.write_all(line.as_bytes()).unwrap();
            self.stream.write_all(b"\n").unwrap();
        }

        fn recv(&mut self) -> Value {
            let mut chunk = [0u8; 4096];
            loop {
                if let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = self.buf.drain(..=nl).collect();
                    let s = String::from_utf8(line[..nl].to_vec()).unwrap();
                    return briq_json::parse(&s).unwrap();
                }
                let n = self.stream.read(&mut chunk).unwrap();
                assert!(n > 0, "server closed before a full response line");
                self.buf.extend_from_slice(&chunk[..n]);
            }
        }
    }

    #[test]
    fn end_to_end_align_health_metrics_shutdown() {
        let briq = briq();
        let store = AlignmentStore::with_options(&briq, &StoreOptions::default()).unwrap();
        let server = Server::bind(ServeConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::scope(|s| {
            let _stop = StopOnDrop(server.shutdown_flag());
            let handle = s.spawn(|| server.run(&briq, &store));

            let mut c = Client::connect(addr);
            let req = obj(vec![
                ("op", Value::Str("align".into())),
                ("id", Value::Num(1.0)),
                ("html", Value::Str(test_page())),
            ]);
            c.send(&req.to_string_compact());
            let resp = c.recv();
            assert_eq!(resp.get("status").and_then(Value::as_str), Some("ok"));
            assert_eq!(resp.get("id").and_then(Value::as_f64), Some(1.0));
            assert_eq!(resp.get("degraded").and_then(Value::as_bool), Some(false));
            assert!(!resp
                .get("documents")
                .and_then(Value::as_array)
                .unwrap()
                .is_empty());

            c.send(r#"{"op":"health"}"#);
            let health = c.recv();
            assert_eq!(health.get("ready").and_then(Value::as_bool), Some(true));
            assert_eq!(
                health.get("queue_capacity").and_then(Value::as_f64),
                Some(32.0)
            );

            c.send("this is not json");
            let err = c.recv();
            assert_eq!(err.get("status").and_then(Value::as_str), Some("error"));

            // The connection survives a malformed line.
            c.send(r#"{"op":"metrics"}"#);
            let metrics = c.recv();
            assert_eq!(metrics.get("op").and_then(Value::as_str), Some("metrics"));

            c.send(r#"{"op":"shutdown"}"#);
            let bye = c.recv();
            assert_eq!(bye.get("op").and_then(Value::as_str), Some("shutdown"));

            let metrics = handle.join().unwrap();
            assert_eq!(metrics.counter(names::SERVE_REQUESTS), 1);
            assert_eq!(metrics.counter(names::SERVE_PANICS), 0);
            assert_eq!(metrics.counter(names::SERVE_MALFORMED), 1);
        });
    }

    /// One align request's metrics carry what the batch engine records
    /// for the same page's documents, and a repeat of it counts each
    /// store hit once: half the served documents came from the store.
    #[test]
    fn align_request_records_what_the_batch_engine_records() {
        let briq = briq();
        let html = test_page();
        let (docs, _) = ingest_page("", &html, 0);
        let traced = BatchConfig {
            trace: true,
            ..BatchConfig::with_jobs(1)
        };
        let batch = briq.align_batch(&docs, &traced).merged_metrics();
        let server = Server::bind(ServeConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let store = AlignmentStore::with_options(&briq, &StoreOptions::default()).unwrap();
        // The request is sent twice under one id, and the server shut
        // down, before anything is asserted.
        let (statuses, cold, warm, health) = std::thread::scope(|s| {
            let _stop = StopOnDrop(server.shutdown_flag());
            let handle = s.spawn(|| server.run(&briq, &store));
            let mut c = Client::connect(addr);
            let align = obj(vec![
                ("op", Value::Str("align".into())),
                ("id", Value::Num(1.0)),
                ("html", Value::Str(html.clone())),
            ])
            .to_string_compact();
            let mut statuses = Vec::new();
            let mut metrics = || {
                c.send(&align);
                statuses.push(c.recv().get("status").cloned());
                c.send(r#"{"op":"metrics"}"#);
                c.recv().get("metrics").cloned()
            };
            let (cold, warm) = (metrics(), metrics());
            c.send(r#"{"op":"health"}"#);
            let health = c.recv();
            c.send(r#"{"op":"shutdown"}"#);
            c.recv();
            handle.join().unwrap();
            (statuses, cold, warm, health)
        });
        let ok = Some(Value::Str("ok".into()));
        assert_eq!(statuses, [ok.clone(), ok]);
        let (cold, warm) = (cold.expect("metrics"), warm.expect("metrics"));
        let counter = |m: &Value, name: &str| {
            m.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Value::as_f64)
        };
        for name in [
            names::PAIRS_SCORED,
            names::MENTIONS,
            names::CANDIDATES_KEPT,
            names::ROWS_SCORED_EXHAUSTIVE,
            names::RWR_WALKS,
        ] {
            let want = batch.counter(name);
            assert!(want > 0, "the batch recorded no {name}");
            assert_eq!(counter(&cold, name), Some(want as f64), "{name}");
        }
        let classify = names::span_histogram(names::SPAN_CLASSIFY);
        assert_eq!(
            cold.get("histograms")
                .and_then(|h| h.get(&classify))
                .and_then(|h| h.get("count"))
                .and_then(Value::as_f64),
            batch.histogram(&classify).map(|h| h.count() as f64)
        );
        assert_eq!(counter(&cold, names::STORE_HITS), Some(0.0));
        // The same id again: every document is a store hit, counted once.
        let served = docs.len() as f64;
        assert_eq!(counter(&warm, names::STORE_HITS), Some(served));
        assert_eq!(counter(&warm, names::DOCUMENTS), Some(2.0 * served));
        assert_eq!(
            health.get("store_hit_rate").and_then(Value::as_f64),
            Some(0.5)
        );
    }

    /// A page slow enough to align that requests behind it wait: a 24×24
    /// numeric table and a paragraph quoting 40 of its numbers.
    fn slow_page() -> String {
        let value = |r: usize, c: usize| (r * 37 + c * 11) % 900 + 100;
        let mut html = String::from("<html><body><p>The survey counted");
        for i in 0..40 {
            html.push_str(&format!(" {} units in region {i},", value(i % 24, i / 2)));
        }
        html.push_str(" in total.</p><table><tr><th>region</th>");
        for c in 0..24 {
            html.push_str(&format!("<th>year {c}</th>"));
        }
        html.push_str("</tr>");
        for r in 0..24 {
            html.push_str(&format!("<tr><td>region {r}</td>"));
            for c in 0..24 {
                html.push_str(&format!("<td>{}</td>", value(r, c)));
            }
            html.push_str("</tr>");
        }
        html.push_str("</table></body></html>");
        html
    }

    #[test]
    fn drain_cancels_stuck_requests_and_still_answers_them() {
        let briq = briq();
        let server = Server::bind(ServeConfig {
            workers: 1,
            queue_depth: 8,
            drain_grace_ms: 0,
            default_deadline_ms: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let flag = server.shutdown_flag();
        let html = slow_page();
        let store = AlignmentStore::with_options(&briq, &StoreOptions::default()).unwrap();
        std::thread::scope(|s| {
            let _stop = StopOnDrop(server.shutdown_flag());
            let handle = s.spawn(|| server.run(&briq, &store));
            let mut clients: Vec<Client> = (0..3)
                .map(|i| {
                    let mut c = Client::connect(addr);
                    let req = obj(vec![
                        ("op", Value::Str("align".into())),
                        ("id", Value::Num(i as f64)),
                        ("html", Value::Str(html.clone())),
                    ]);
                    c.send(&req.to_string_compact());
                    c
                })
                .collect();
            // Drain (as the SIGTERM watcher would) once all three are
            // admitted: one running, the others waiting behind it.
            let mut probe = Client::connect(addr);
            let requests_read = |m: &Value| {
                m.get("metrics")
                    .and_then(|m| m.get("counters"))
                    .and_then(|c| c.get(names::SERVE_REQUESTS))
                    .and_then(Value::as_f64)
            };
            loop {
                probe.send(r#"{"op":"metrics"}"#);
                if requests_read(&probe.recv()) == Some(3.0) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            flag.store(true, Ordering::SeqCst);

            for (i, c) in clients.iter_mut().enumerate() {
                let resp = c.recv();
                assert_eq!(resp.get("status").and_then(Value::as_str), Some("ok"));
                assert_eq!(resp.get("id").and_then(Value::as_f64), Some(i as f64));
            }
            let metrics = handle.join().unwrap();
            assert_eq!(metrics.counter(names::SERVE_REQUESTS), 3);
        });
    }
}
