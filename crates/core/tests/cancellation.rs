//! Property suite for the cooperative-cancellation contract
//! (DESIGN.md §12): a cancelled request leaves **no partial state** —
//! empty alignments plus exactly one [`DegradedAction::Cancelled`]
//! diagnostic — an un-cancelled token changes nothing bit-for-bit, and
//! the same `Briq` (and a real in-process server) stays fully
//! serviceable after absorbing cancelled requests.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use briq_core::pipeline::{AlignOpts, AlignOutput, Briq, BriqConfig};
use briq_core::{Budget, CancelToken, DegradedAction, Diagnostics};
use briq_table::{Document, Table};
use proptest::prelude::*;

/// A numeric document with `vals` in a table and `text_val` in prose —
/// the same generator shape the pipeline property suite uses.
fn numeric_doc(vals: &[u32], text_val: u32) -> Document {
    let mut grid = vec![vec!["metric".to_string(), "value".to_string()]];
    for (i, v) in vals.iter().enumerate() {
        grid.push(vec![format!("row{i}"), v.to_string()]);
    }
    Document::new(
        0,
        format!("The report mentions {text_val} units in its overview section."),
        vec![Table::from_grid("stats", grid)],
    )
}

/// Align `doc` under `budget` and `cancel` (`None` never cancels).
fn align(briq: &Briq, doc: &Document, budget: Budget, cancel: Option<&CancelToken>) -> AlignOutput {
    briq.align_with(
        doc,
        &AlignOpts {
            budget,
            cancel,
            ..AlignOpts::default()
        },
    )
}

fn fired_flag() -> Arc<AtomicBool> {
    let flag = Arc::new(AtomicBool::new(false));
    flag.store(true, Ordering::SeqCst);
    flag
}

/// The no-partial-state assertion: empty alignments, exactly one
/// diagnostic, and that diagnostic is a `Cancelled` naming the cause.
fn assert_cancelled_clean(
    alignments: &[briq_core::Alignment],
    diags: &Diagnostics,
    want_reason: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(
        alignments.is_empty(),
        "cancelled request leaked {} alignments",
        alignments.len()
    );
    let cancelled: Vec<_> = diags
        .items
        .iter()
        .filter(|d| d.action == DegradedAction::Cancelled)
        .collect();
    prop_assert_eq!(
        cancelled.len(),
        1,
        "expected exactly one Cancelled diagnostic, got {:?}",
        diags.items
    );
    prop_assert!(
        cancelled[0].error.contains(want_reason),
        "diagnostic {:?} does not name the cause {:?}",
        cancelled[0],
        want_reason
    );
    Ok(())
}

proptest! {
    /// A pre-fired shutdown flag cancels any document without partial
    /// state, and the very same `Briq` instance then serves a clean
    /// request bit-identically to one that never saw a cancellation.
    #[test]
    fn cancelled_request_leaves_no_partial_state_and_briq_stays_serviceable(
        vals in proptest::collection::vec(1u32..99_999, 2..6),
        text_val in 1u32..99_999,
    ) {
        let doc = numeric_doc(&vals, text_val);
        let briq = Briq::untrained(BriqConfig::default());
        let budget = Budget::default();

        let baseline = align(&briq, &doc, budget, None);

        let token = CancelToken::with_flag(fired_flag());
        let out = align(&briq, &doc, budget, Some(&token));
        assert_cancelled_clean(&out.alignments, &out.diagnostics, "shutdown drain")?;

        // Serviceable afterward: the cancelled call left nothing behind
        // in the (shared, immutable) Briq — the next clean call is
        // bit-identical to the pre-cancellation baseline.
        let after = align(&briq, &doc, budget, None);
        prop_assert_eq!(&after.alignments, &baseline.alignments, "alignments drifted after a cancellation");
        prop_assert_eq!(
            after.diagnostics.to_jsonl(),
            baseline.diagnostics.to_jsonl(),
            "diagnostics drifted after a cancellation"
        );
    }

    /// An already-elapsed deadline behaves exactly like the flag — no
    /// partial state — but reports `deadline exceeded` as the cause.
    #[test]
    fn elapsed_deadline_reports_deadline_cause_without_partial_state(
        vals in proptest::collection::vec(1u32..99_999, 2..6),
        text_val in 1u32..99_999,
    ) {
        let doc = numeric_doc(&vals, text_val);
        let briq = Briq::untrained(BriqConfig::default());
        let token = CancelToken::with_deadline(std::time::Instant::now());
        let out = align(&briq, &doc, Budget::default(), Some(&token));
        assert_cancelled_clean(&out.alignments, &out.diagnostics, "deadline exceeded")?;
    }

    /// `CancelToken::none` is the oracle guard: a token that can never
    /// fire is bit-identical to passing no token (`align_checked`) AND to
    /// plain `align` under an unlimited budget.
    #[test]
    fn none_token_is_bit_identical_to_the_legacy_paths(
        vals in proptest::collection::vec(1u32..99_999, 2..6),
        text_val in 1u32..99_999,
    ) {
        let doc = numeric_doc(&vals, text_val);
        let briq = Briq::untrained(BriqConfig::default());
        let budget = Budget::default();

        let never = CancelToken::none();
        let cancellable = align(&briq, &doc, budget, Some(&never));
        let (a_checked, d_checked) = briq.align_checked(&doc);
        prop_assert_eq!(&cancellable.alignments, &a_checked);
        prop_assert_eq!(cancellable.diagnostics.to_jsonl(), d_checked.to_jsonl());

        let unlimited = align(&briq, &doc, Budget::unlimited(), Some(&never));
        prop_assert_eq!(&unlimited.alignments, &briq.align(&doc));
        let d_unlimited = unlimited.diagnostics;
        // Benign degradations (e.g. RWR residual truncation) may appear,
        // but a token that never fires must never record a cancellation.
        prop_assert!(
            d_unlimited
                .items
                .iter()
                .all(|d| d.action != DegradedAction::Cancelled),
            "{:?}",
            d_unlimited.items
        );
    }
}

/// When both a raised flag and an expired deadline are visible, the
/// flag (shutdown) wins — drain must not be misreported as a timeout.
#[test]
fn shutdown_flag_wins_over_expired_deadline() {
    let doc = numeric_doc(&[10, 20, 30], 10);
    let briq = Briq::untrained(BriqConfig::default());
    let token = CancelToken::with_flag(fired_flag())
        .and_deadline(std::time::Instant::now() - std::time::Duration::from_secs(1));
    let out = align(&briq, &doc, Budget::default(), Some(&token));
    assert!(out.alignments.is_empty());
    let diags = out.diagnostics;
    let cancelled: Vec<_> = diags
        .items
        .iter()
        .filter(|d| d.action == DegradedAction::Cancelled)
        .collect();
    assert_eq!(cancelled.len(), 1, "{:?}", diags.items);
    assert!(
        cancelled[0].error.contains("shutdown drain"),
        "{:?}",
        cancelled[0]
    );
}

/// A page slow enough that a 1 ms deadline always expires while it
/// aligns (~135 ms in a release build, ~9 ms of it in extraction): a
/// 24×24 numeric table and a paragraph quoting 40 of its numbers.
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

/// The *server* stays serviceable after cancellations: a real
/// in-process server absorbs a burst of requests whose 1 ms deadlines
/// expire mid-alignment, answers each document of each with one
/// `deadline exceeded` cancellation, counts every one of them as a
/// deadline miss, and then answers a clean request normally on the same
/// connection.
#[test]
fn server_stays_serviceable_after_cancelled_requests() {
    use briq_core::obs::names;
    use briq_core::serve::{ServeConfig, Server};
    use briq_core::store::StoreOptions;
    use briq_core::AlignmentStore;
    use briq_json::Value;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let briq = Briq::untrained(BriqConfig::default());
    let cfg = ServeConfig {
        workers: 2,
        ..Default::default()
    };
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().expect("addr");
    let store = AlignmentStore::with_options(&briq, &StoreOptions::default()).unwrap();
    let handle = std::thread::spawn(move || server.run(&briq, &store));

    let slow = Value::Str(slow_page()).to_string_compact();
    let html = Value::Str(
        "<html><body><p>The report mentions 42 units.</p>\
         <table><tr><th>metric</th><th>value</th></tr>\
         <tr><td>row0</td><td>42</td></tr></table></body></html>"
            .into(),
    )
    .to_string_compact();

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;

    // A burst of requests whose deadlines expire while they align. Sent
    // one at a time on one connection, none waits for a slot or is shed.
    let mut burst_documents = 0;
    for i in 0..6 {
        let req = format!("{{\"op\":\"align\",\"id\":{i},\"html\":{slow},\"deadline_ms\":1}}\n");
        stream.write_all(req.as_bytes()).expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let v = briq_json::parse(&line).expect("parseable response");
        assert_eq!(
            v.get("status").and_then(Value::as_str),
            Some("ok"),
            "{line}"
        );
        let docs = v
            .get("documents")
            .and_then(Value::as_array)
            .expect("documents");
        assert!(!docs.is_empty(), "{line}");
        for doc in docs {
            let cancelled: Vec<&str> = doc
                .get("diagnostics")
                .and_then(Value::as_array)
                .expect("diagnostics")
                .iter()
                .filter(|d| d.get("action").and_then(Value::as_str) == Some("Cancelled"))
                .filter_map(|d| d.get("error").and_then(Value::as_str))
                .collect();
            assert_eq!(cancelled.len(), 1, "{line}");
            assert!(cancelled[0].contains("deadline exceeded"), "{line}");
        }
        burst_documents += docs.len() as u64;
    }

    // The server must still answer a clean, deadline-free request.
    let req = format!("{{\"op\":\"align\",\"id\":99,\"html\":{html}}}\n");
    stream.write_all(req.as_bytes()).expect("write clean");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read clean");
    let v = briq_json::parse(&line).expect("parseable clean response");
    assert_eq!(
        v.get("status").and_then(Value::as_str),
        Some("ok"),
        "{line}"
    );
    // The untrained pipeline may report benign degradations (RWR
    // residual truncation), but the clean request must produce real
    // alignments and no cancellation residue from the earlier burst.
    assert!(
        line.contains("\"alignments\":[{"),
        "clean request produced no alignments: {line}"
    );
    assert!(
        !line.contains("Cancelled"),
        "cancellation leaked into a clean request: {line}"
    );

    stream
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .expect("write shutdown");
    let metrics = handle.join().expect("server thread");
    assert_eq!(
        metrics.counter(names::SERVE_PANICS),
        0,
        "a request panicked during the run"
    );
    assert_eq!(
        metrics.counter(names::SERVE_DEADLINE_MISSES),
        burst_documents,
        "every cancelled document of the burst is one deadline miss"
    );
}
