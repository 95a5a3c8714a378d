//! Binary-level tests for `briq-eval`'s argument handling: a name that
//! is not an experiment is refused with the usage, never run as nothing.

use std::process::Command;

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
