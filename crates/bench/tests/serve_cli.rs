//! Binary-level tests for `briq-serve` and the hardened `briq-align`:
//! boot the real server binary, drive it over a real socket, and
//! byte-compare clean responses against the batch CLI — the wire-level
//! slice of the oracle discipline. Also the regression tests for
//! `briq-align --batch` surviving unreadable and non-UTF-8 pages.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const PAGE: &str = "<html><body>\
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
    </table></body></html>";

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("briq_serve_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running `briq-serve serve` child whose port has been parsed from
/// its stdout; killed on drop so a failing test can't leak the process.
struct ServerGuard {
    child: Child,
    addr: String,
}

impl ServerGuard {
    fn spawn(extra: &[&str]) -> ServerGuard {
        ServerGuard::spawn_with_stderr(extra, Stdio::null())
    }

    fn spawn_with_stderr(extra: &[&str], stderr: Stdio) -> ServerGuard {
        let mut child = Command::new(env!("CARGO_BIN_EXE_briq-serve"))
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("spawn briq-serve");
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = BufReader::new(stdout).lines();
        let first = lines
            .next()
            .expect("server printed nothing")
            .expect("readable stdout");
        let addr = first
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected first line {first:?}"))
            .to_string();
        ServerGuard { child, addr }
    }

    fn stop_and_wait(mut self) {
        let status = Command::new(env!("CARGO_BIN_EXE_briq-serve"))
            .args(["stop", "--addr", &self.addr])
            .status()
            .expect("run briq-serve stop");
        assert!(status.success(), "stop failed");
        let exit = self.child.wait().expect("server wait");
        assert!(exit.success(), "server exited with {exit:?}");
        // Drop must not kill — already reaped.
        self.child = Command::new("true").spawn().expect("spawn true");
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Send one request line to the server at `addr` and parse its response.
fn ask(addr: &str, request: &str) -> briq_json::Value {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(format!("{request}\n").as_bytes()).unwrap();
    let mut line = String::new();
    BufReader::new(s).read_line(&mut line).unwrap();
    briq_json::parse(&line).unwrap()
}

/// The `store: persisted …` line of a stderr log.
fn persisted_line(stderr: &str) -> &str {
    stderr
        .lines()
        .find(|l| l.starts_with("store: persisted "))
        .unwrap_or_else(|| panic!("no persisted line in {stderr:?}"))
}

/// A store `briq-align --batch` persisted serves `briq-serve drive` over
/// the same pages: `drive` names each page by its basename, as
/// `briq-align` does, so every document is answered whole from the store
/// and the drain persists the same entries, not a second copy of each.
#[test]
fn a_store_briq_align_persisted_serves_drive_over_the_same_pages() {
    let dir = tmp_dir("crossstore");
    let corpus = dir.join("corpus");
    let store = dir.join("store");
    let gen = Command::new(env!("CARGO_BIN_EXE_briq-align"))
        .arg("--gen-corpus")
        .arg(&corpus)
        .args(["--docs", "12", "--seed", "20190408"])
        .output()
        .expect("run --gen-corpus");
    assert!(gen.status.success(), "{gen:?}");
    let align = Command::new(env!("CARGO_BIN_EXE_briq-align"))
        .arg("--batch")
        .arg(&corpus)
        .arg("--store-dir")
        .arg(&store)
        .output()
        .expect("run briq-align");
    assert_eq!(align.status.code(), Some(0), "{align:?}");
    let align_err = String::from_utf8_lossy(&align.stderr);
    let persisted = persisted_line(&align_err);
    let documents: f64 = persisted
        .split(' ')
        .nth(2)
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no entry count in {persisted:?}"));
    assert!(documents > 0.0, "{persisted}");

    let serve_err = dir.join("serve.err");
    let log = std::fs::File::create(&serve_err).unwrap();
    let store_arg = store.to_str().unwrap();
    let server = ServerGuard::spawn_with_stderr(&["--store-dir", store_arg], log.into());
    let mut pages: Vec<_> = std::fs::read_dir(&corpus)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    pages.sort();
    let drive = Command::new(env!("CARGO_BIN_EXE_briq-serve"))
        .args(["drive", "--addr", &server.addr])
        .args(&pages)
        .output()
        .expect("run drive");
    assert_eq!(drive.status.code(), Some(0), "{drive:?}");
    let metrics = ask(&server.addr, r#"{"op":"metrics"}"#);
    let counter = |name: &str| {
        metrics
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(briq_json::Value::as_f64)
    };
    assert_eq!(counter("documents"), Some(documents), "{metrics:?}");
    assert_eq!(counter("store_hits"), Some(documents), "{metrics:?}");
    assert_eq!(counter("mentions_realigned"), Some(0.0), "{metrics:?}");
    let health = ask(&server.addr, r#"{"op":"health"}"#);
    assert_eq!(
        health
            .get("store_hit_rate")
            .and_then(briq_json::Value::as_f64),
        Some(1.0)
    );
    server.stop_and_wait();
    let serve_err = std::fs::read_to_string(&serve_err).unwrap();
    assert_eq!(persisted_line(&serve_err), persisted);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn drive_output_is_byte_identical_to_briq_align_json() {
    let dir = tmp_dir("byteeq");
    let mut pages = Vec::new();
    for i in 0..3 {
        let path = dir.join(format!("page_{i}.html"));
        std::fs::write(&path, PAGE).unwrap();
        pages.push(path);
    }

    let server = ServerGuard::spawn(&[]);
    let drive = Command::new(env!("CARGO_BIN_EXE_briq-serve"))
        .args(["drive", "--addr", &server.addr])
        .args(pages.iter().map(|p| p.as_os_str()))
        .output()
        .expect("run drive");
    assert!(drive.status.success(), "drive failed: {drive:?}");

    let align = Command::new(env!("CARGO_BIN_EXE_briq-align"))
        .arg("--json")
        .args(pages.iter().map(|p| p.as_os_str()))
        .output()
        .expect("run briq-align");
    assert!(align.status.success(), "briq-align failed: {align:?}");

    assert_eq!(
        String::from_utf8_lossy(&drive.stdout),
        String::from_utf8_lossy(&align.stdout),
        "serve and batch outputs drifted"
    );
    assert!(!drive.stdout.is_empty());

    server.stop_and_wait();
}

#[test]
fn drive_decodes_a_non_utf8_page_as_briq_align_does() {
    let dir = tmp_dir("drive_nonutf8");
    // Two invalid bytes inside the paragraph, which still shares its
    // quantities with the table and so still segments into a document.
    let (head, tail) = PAGE
        .split_once("123 patients")
        .expect("PAGE names 123 patients");
    let mut bytes = head.as_bytes().to_vec();
    bytes.extend_from_slice(b"123 patients \xff\xfe");
    bytes.extend_from_slice(tail.as_bytes());
    let page = dir.join("nonutf8.html");
    std::fs::write(&page, &bytes).unwrap();

    let server = ServerGuard::spawn(&[]);
    let drive = Command::new(env!("CARGO_BIN_EXE_briq-serve"))
        .args(["drive", "--addr", &server.addr])
        .arg(&page)
        .output()
        .expect("run drive");
    assert_eq!(drive.status.code(), Some(0), "drive failed: {drive:?}");

    let align = Command::new(env!("CARGO_BIN_EXE_briq-align"))
        .arg("--json")
        .arg(&page)
        .output()
        .expect("run briq-align");
    assert!(align.status.success(), "briq-align failed: {align:?}");
    assert!(
        String::from_utf8_lossy(&align.stdout).contains("\"mention_raw\""),
        "the page aligned nothing"
    );
    assert_eq!(
        drive.stdout, align.stdout,
        "serve and batch outputs drifted"
    );

    server.stop_and_wait();
}

#[test]
fn server_sheds_deterministically_and_survives_raw_socket_abuse() {
    let server = ServerGuard::spawn(&["--workers", "1", "--queue-depth", "1"]);

    // Raw abuse first: garbage line, then a clean health check on the
    // same connection.
    let mut s = TcpStream::connect(&server.addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(b"utter garbage\n{\"op\":\"health\"}\n")
        .unwrap();
    let mut r = BufReader::new(s.try_clone().unwrap());
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    assert!(line.contains("\"status\":\"error\""), "{line:?}");
    line.clear();
    r.read_line(&mut line).unwrap();
    assert!(line.contains("\"ready\":true"), "{line:?}");

    // The built-in chaos client is the full harness; --expect-shed
    // asserts the 1-deep queue actually shed under the flood.
    let chaos = Command::new(env!("CARGO_BIN_EXE_briq-serve"))
        .args(["chaos", "--addr", &server.addr])
        .args(["--connections", "12", "--requests", "6", "--expect-shed"])
        .output()
        .expect("run chaos");
    assert!(
        chaos.status.success(),
        "chaos invariants failed:\n{}",
        String::from_utf8_lossy(&chaos.stderr)
    );

    // Every align request the flood sent is counted once: either shed,
    // or admitted and answered (one `serve_request_s` observation).
    let v = ask(&server.addr, r#"{"op":"metrics"}"#);
    let m = v.get("metrics").expect("metrics");
    let read = |group: &str, name: &str, field: Option<&str>| {
        let x = m.get(group).and_then(|g| g.get(name));
        let x = match field {
            Some(f) => x.and_then(|h| h.get(f)),
            None => x,
        };
        x.and_then(briq_json::Value::as_f64).unwrap_or(0.0)
    };
    let requests = read("counters", "serve_requests", None);
    let shed = read("counters", "serve_shed", None);
    let answered = read("histograms", "serve_request_s", Some("count"));
    assert!(shed > 0.0, "{v:?}");
    assert_eq!(requests, answered + shed, "{v:?}");

    server.stop_and_wait();
}

#[test]
fn briq_align_batch_survives_unreadable_and_non_utf8_pages() {
    let dir = tmp_dir("badpages");
    std::fs::write(dir.join("a_good.html"), PAGE).unwrap();
    // Invalid UTF-8 bytes inside an otherwise plausible page.
    let mut bad = Vec::new();
    bad.extend_from_slice(b"<html><body><p>A total of 123 patients \xff\xfe reported");
    bad.extend_from_slice(b" side effects.</p></body></html>");
    std::fs::write(dir.join("b_nonutf8.html"), &bad).unwrap();

    let missing = dir.join("c_missing.html");
    let diag_path = dir.join("diag.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_briq-align"))
        .arg("--json")
        .arg(dir.join("a_good.html"))
        .arg(dir.join("b_nonutf8.html"))
        .arg(&missing)
        .arg("--diagnostics")
        .arg(&diag_path)
        .output()
        .expect("run briq-align");

    // Exit 1 (unreadable page), but the readable pages still aligned:
    // stdout carries their alignment arrays.
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"mention_raw\""),
        "good page was not aligned: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("c_missing.html"), "{stderr}");

    // The unreadable page produced a structured, parseable diagnostic.
    let diags = std::fs::read_to_string(&diag_path).unwrap();
    let page_diag = diags
        .lines()
        .find(|l| l.contains("c_missing.html"))
        .unwrap_or_else(|| panic!("no diagnostic for the missing page in {diags:?}"));
    assert!(page_diag.contains("\"Batch\""), "{page_diag}");
    assert!(page_diag.contains("\"Skipped\""), "{page_diag}");

    // A batch of only unreadable pages still fails cleanly (exit 1, no
    // panic, helpful message).
    let out2 = Command::new(env!("CARGO_BIN_EXE_briq-align"))
        .arg(&missing)
        .output()
        .expect("run briq-align");
    assert_eq!(out2.status.code(), Some(1));
}

/// A page file whose name is not UTF-8 is read by its own path, not by
/// a lossy copy of its name: the batch aligns as it does under the
/// original name.
#[cfg(unix)]
#[test]
fn briq_align_batch_reads_a_page_whose_name_is_not_utf8() {
    use std::os::unix::ffi::OsStrExt;
    let dir = tmp_dir("nonutf8name");
    let corpus = dir.join("corpus");
    let gen = Command::new(env!("CARGO_BIN_EXE_briq-align"))
        .arg("--gen-corpus")
        .arg(&corpus)
        .args(["--docs", "9"])
        .output()
        .expect("run --gen-corpus");
    assert!(gen.status.success(), "{gen:?}");
    let batch = || {
        Command::new(env!("CARGO_BIN_EXE_briq-align"))
            .arg("--batch")
            .arg(&corpus)
            .output()
            .expect("run briq-align")
    };
    let original = batch();
    assert_eq!(original.status.code(), Some(0), "{original:?}");
    // `page_0000\xff.html` still sorts before `page_0001.html`.
    let renamed = corpus.join(std::ffi::OsStr::from_bytes(b"page_0000\xff.html"));
    std::fs::rename(corpus.join("page_0000.html"), &renamed).unwrap();
    let out = batch();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(!original.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&original.stdout)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn per_request_deadline_of_zero_ms_is_reported_not_hung() {
    let server = ServerGuard::spawn(&[]);
    let mut s = TcpStream::connect(&server.addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // deadline_ms 1 with queueing makes the token fire essentially
    // immediately; the response must be a structured cancelled result.
    let req = format!(
        "{{\"op\":\"align\",\"id\":5,\"html\":{},\"deadline_ms\":1}}\n",
        briq_json::Value::Str(PAGE.into()).to_string_compact()
    );
    s.write_all(req.as_bytes()).unwrap();
    let mut r = BufReader::new(s);
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    let v = briq_json::parse(&line).unwrap();
    assert_eq!(
        v.get("status").and_then(briq_json::Value::as_str),
        Some("ok"),
        "{line}"
    );
    // Either the request beat the 1ms deadline (tiny page, fast box) or
    // it was cancelled — both are structured; a hang would time out the
    // read instead.
    server.stop_and_wait();
}
