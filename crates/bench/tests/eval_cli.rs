//! Binary-level tests for the argument handling of `briq-eval`,
//! `briq-align` and `briq-serve`: a name that is not an experiment, and a
//! flag a command does not take or a value it cannot use, are refused
//! with exit 1 and the usage, never run as something else.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

const EVAL: &str = env!("CARGO_BIN_EXE_briq-eval");
const ALIGN: &str = env!("CARGO_BIN_EXE_briq-align");
const SERVE: &str = env!("CARGO_BIN_EXE_briq-serve");

/// A page `briq-align` aligns cleanly.
const PAGE: &str = "<html><body>\
    <p>A total of 123 patients reported side effects; depression was \
    the most common, reported by 38 patients.</p>\
    <table><tr><th>side effects</th><th>male</th><th>female</th>\
    <th>total</th></tr>\
    <tr><td>Rash</td><td>15</td><td>20</td><td>35</td></tr>\
    <tr><td>Depression</td><td>13</td><td>25</td><td>38</td></tr>\
    </table></body></html>";

/// Run `briq-eval` with `args`; return its exit code and stderr.
fn eval(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_briq-eval"))
        .args(args)
        .output()
        .expect("run briq-eval");
    assert!(out.stdout.is_empty(), "a refused run printed a table");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_experiments_exit_1_with_the_usage() {
    for args in [
        &["throughput", "--docs", "5"][..],
        &["tabel2", "--docs", "5"],
        &["--docs", "5"],
    ] {
        let (code, stderr) = eval(args);
        assert_eq!(code, Some(1), "briq-eval {args:?}: {stderr}");
        assert!(stderr.contains("usage: briq-eval <experiment>"), "{stderr}");
        for known in ["table1", "table9", "ablation-extra", "extended", "all"] {
            assert!(stderr.contains(known), "usage lacks {known}: {stderr}");
        }
    }
}

/// A child process killed on drop, so a run that never exits fails the
/// test instead of hanging it.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Run binary `bin` with `args` in the fresh directory `dir`; return its
/// exit code, stdout and stderr. Fails if it is still running after 60 s.
fn run(bin: &str, args: &[&str], dir: &Path) -> (Option<i32>, String, String) {
    let (stdout, stderr) = (dir.join("stdout.txt"), dir.join("stderr.txt"));
    let mut child = KillOnDrop(
        Command::new(bin)
            .args(args)
            .current_dir(dir)
            .stdout(File::create(&stdout).expect("create stdout file"))
            .stderr(File::create(&stderr).expect("create stderr file"))
            .spawn()
            .expect("spawn the binary"),
    );
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.0.try_wait().expect("poll the binary") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "{bin} {args:?} still runs after 60 s"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let read = |path: PathBuf| std::fs::read_to_string(path).expect("read output");
    (status.code(), read(stdout), read(stderr))
}

/// Whether `text` names `flag` as a whole word, not as the start of a
/// longer flag (`--connection` in `--connections`).
fn names_flag(text: &str, flag: &str) -> bool {
    let word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '-' || c == '_');
    text.match_indices(flag).any(|(at, _)| {
        !word(text[..at].chars().next_back()) && !word(text[at + flag.len()..].chars().next())
    })
}

#[test]
fn every_binary_refuses_a_bad_flag_by_name() {
    // (binary, arguments, the flag stderr must name, a path the refused
    // run must not have created)
    #[rustfmt::skip]
    let cases = [
        (EVAL, "table9 --docs abc", "--docs", None),
        (EVAL, "table9 --dcos 5", "--dcos", None),
        (EVAL, "table9 --metrics", "--metrics", None),
        (EVAL, "table9 --seed", "--seed", None),
        (ALIGN, "--gen-corpus DIR --docs abc", "--docs", Some("DIR")),
        (ALIGN, "--gen-corpus DIR --dcos 6", "--dcos", Some("DIR")),
        (ALIGN, "--train-demo M --docs 5", "--docs", Some("M")),
        (ALIGN, "page.html --jobs 1 --jobs 2", "--jobs", None),
        (SERVE, "serve --addr 127.0.0.1:0 --worker 1", "--worker", None),
        (SERVE, "drive --addr 127.0.0.1:1 --bogus page.html", "--bogus", None),
        (SERVE, "chaos --addr 127.0.0.1:1 --connection 4", "--connection", None),
    ];
    for (i, (bin, args, flag, not_created)) in cases.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("briq_eval_cli_{}_{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("page.html"), PAGE).unwrap();

        let args: Vec<&str> = args.split_whitespace().collect();
        let (code, stdout, stderr) = run(bin, &args, &dir);
        let name = Path::new(bin).file_name().unwrap().to_string_lossy();
        assert_eq!(code, Some(1), "{name} {args:?}: {stderr}");
        assert!(
            names_flag(&stderr, flag),
            "{name} {args:?} does not name {flag}: {stderr}"
        );
        assert!(stdout.is_empty(), "{name} {args:?} printed {stdout}");
        if let Some(path) = not_created {
            assert!(!dir.join(path).exists(), "{name} {args:?} created {path}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(unix)]
#[test]
fn every_binary_refuses_an_argument_that_is_not_utf8() {
    use std::os::unix::ffi::OsStrExt;
    let arg = std::ffi::OsStr::from_bytes(b"x\xff");
    for bin in [EVAL, ALIGN, SERVE] {
        let out = Command::new(bin).arg(arg).output().expect("run the binary");
        let name = Path::new(bin).file_name().unwrap().to_string_lossy();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(
            stderr.contains("argument 1 is not valid UTF-8"),
            "{name}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name} printed {:?}", out.stdout);
    }
}
