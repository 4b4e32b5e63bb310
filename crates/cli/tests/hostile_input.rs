//! Hostile command-line input ends in a usage error — exit status 1 and
//! an `error:` line on stderr — never in a panic: non-finite
//! coordinates, points of the wrong dimensionality (in memory and
//! `--paged on`), a zero sample size (also for `serve`) and a
//! non-finite CSV row.

use std::path::PathBuf;
use std::process::Command;

/// A CarDB dataset (2-d) with its persisted index in a directory of
/// its own.
struct Fixture {
    data: String,
    index: String,
    dir: PathBuf,
}

fn wnrs(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_wnrs"))
        .args(args)
        .output()
        .expect("run the wnrs binary")
}

fn fixture(name: &str) -> Fixture {
    let dir = std::env::temp_dir().join(format!("wnrs_hostile_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the fixture directory");
    let path = |file: &str| dir.join(file).to_string_lossy().into_owned();
    let (data, index) = (path("car.csv"), path("car.idx"));
    for args in [
        vec![
            "generate", "--kind", "cardb", "--n", "300", "--seed", "7", "--out", &data,
        ],
        vec!["index", "--data", &data, "--out", &index],
    ] {
        let out = wnrs(&args);
        assert!(out.status.success(), "{args:?}: {out:?}");
    }
    Fixture { data, index, dir }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn assert_usage_error(args: &[&str]) {
    let out = wnrs(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    assert_eq!(out.status.code(), Some(1), "{args:?}:\n{stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("error: ")),
        "{args:?} printed no error line:\n{stderr}"
    );
}

/// NaN, an overflow to infinity, and points with too many and too few
/// dimensions for the 2-d dataset.
const BAD_POINTS: [&str; 4] = ["nan,1", "1e400,2", "1,2,3", "1"];

#[test]
fn bad_query_points_are_usage_errors() {
    let f = fixture("query");
    for q in BAD_POINTS {
        for cmd in [
            "rsl",
            "explain",
            "mwp",
            "mqp",
            "mwq",
            "safe-region",
            "profile",
        ] {
            assert_usage_error(&[cmd, "--data", &f.data, "--query", q, "--whynot", "0"]);
        }
        for cmd in ["rsl", "explain", "mwp", "mqp", "mwq", "safe-region"] {
            assert_usage_error(&[
                cmd,
                "--paged",
                "on",
                "--index",
                &f.index,
                "--query",
                q,
                "--whynot-point",
                "15000,80",
            ]);
        }
        // Rejected before the client connects to anything.
        assert_usage_error(&[
            "client",
            "--addr",
            "127.0.0.1:9",
            "--op",
            "rsl",
            "--query",
            q,
        ]);
    }
    assert_usage_error(&[
        "client",
        "--addr",
        "127.0.0.1:9",
        "--op",
        "rsl",
        "--query",
        "inf,1",
    ]);
}

#[test]
fn bad_customer_points_are_usage_errors() {
    let f = fixture("customer");
    for c in BAD_POINTS {
        for cmd in ["explain", "mwp", "mqp", "mwq"] {
            assert_usage_error(&[
                cmd,
                "--paged",
                "on",
                "--index",
                &f.index,
                "--query",
                "15000,80",
                "--whynot-point",
                c,
            ]);
        }
    }
    for (op, flag) in [("mwp", "--whynot-point"), ("insert", "--point")] {
        let args = ["client", "--addr", "127.0.0.1:9", "--op", op, flag, "nan,1"];
        assert_usage_error(&[&args[..], &["--query", "15000,80"]].concat());
    }
}

#[test]
fn zero_sample_size_is_a_usage_error() {
    let f = fixture("k");
    let q = ["--data", &f.data, "--query", "15000,80", "--whynot", "5"];
    assert_usage_error(&[&["mwq"], &q[..], &["--approx-k", "0"]].concat());
    assert_usage_error(&[&["mwq"], &q[..], &["--approx-k", "0", "--lazy", "on"]].concat());
    assert_usage_error(&[&["profile"], &q[..], &["--approx-k", "0"]].concat());
    // Rejected before the server binds.
    assert_usage_error(&[
        "serve",
        "--data",
        &f.data,
        "--addr",
        "127.0.0.1:0",
        "--approx-k",
        "0",
    ]);
}

#[test]
fn non_finite_csv_row_is_a_usage_error() {
    let f = fixture("csv");
    let bad = f.dir.join("bad.csv");
    std::fs::write(&bad, "1,2\nnan,3\n").expect("write the bad dataset");
    let bad = bad.to_string_lossy().into_owned();
    assert_usage_error(&["rsl", "--data", &bad, "--query", "1,2"]);
    assert_usage_error(&["index", "--data", &bad, "--out", &f.index]);
}
