//! Hostile command-line input ends in a usage error — exit status 1 and
//! an `error:` line on stderr — never in a panic: non-finite
//! coordinates, points of the wrong dimensionality (in memory and
//! `--paged on`), a zero sample size (also for `serve`), bad `--cache`
//! and `--threads` values (in both modes), a non-finite CSV row, and
//! misspelt or retired flags. Only a usage error is followed by the
//! usage text; a failed file or a refused question prints its one
//! `error:` line alone.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

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

/// Asserts a usage error and returns its `error:` line.
fn assert_usage_error(args: &[&str]) -> String {
    let out = wnrs(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    assert_eq!(out.status.code(), Some(1), "{args:?}:\n{stderr}");
    let error = stderr.lines().find(|l| l.starts_with("error: "));
    error
        .unwrap_or_else(|| panic!("{args:?} printed no error line:\n{stderr}"))
        .to_string()
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
fn bad_cache_and_thread_values_are_usage_errors_in_both_modes() {
    let f = fixture("engine_flags");
    let paged = ["--paged", "on", "--index", &f.index];
    for source in [&["--data", &f.data][..], &paged[..]] {
        for bad in [["--cache", "maybe"], ["--threads", "0"]] {
            assert_usage_error(&[&["rsl", "--query", "15000,80"], source, &bad[..]].concat());
        }
        // Refused before the server binds; a server that started instead
        // is killed after 20 s.
        let args = [
            &["serve", "--addr", "127.0.0.1:0"],
            source,
            &["--cache", "maybe"],
        ]
        .concat();
        let mut server = Command::new(env!("CARGO_BIN_EXE_wnrs"))
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("run the wnrs binary");
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            if let Some(status) = server.try_wait().expect("poll the server") {
                break Some(status);
            }
            if Instant::now() > deadline {
                let _ = server.kill();
                let _ = server.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(
            status.and_then(|s| s.code()),
            Some(1),
            "{args:?} did not refuse"
        );
        assert_usage_error(&args);
    }
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

#[test]
fn unknown_flags_are_usage_errors_before_any_work() {
    let f = fixture("flags");
    let q = ["--data", &f.data, "--query", "15000,80", "--whynot", "5"];
    // Misspelt flags, and the retired `--lazy`, each named in the error.
    for (cmd, flag) in [
        ("mwq", "--approx_k"),
        ("safe-region", "--approx_k"),
        ("mwp", "--cahce"),
        ("explain", "--whynot_point"),
        ("mwq", "--lazy"),
        ("profile", "--lazy"),
    ] {
        let args = [&[cmd], &q[..], &[flag, "8"]].concat();
        let error = assert_usage_error(&args);
        assert!(
            error.contains(flag),
            "{args:?} did not name {flag}: {error}"
        );
    }
    // Refused before any work: the server never binds, the index is
    // never written and the dataset never generated.
    assert_usage_error(&[
        "serve",
        "--data",
        &f.data,
        "--addr",
        "127.0.0.1:0",
        "--lazy",
        "on",
    ]);
    let idx = f.dir.join("never.idx");
    let idx = idx.to_string_lossy().into_owned();
    assert_usage_error(&["index", "--data", &f.data, "--out", &idx, "--cahce", "on"]);
    let csv = f.dir.join("never.csv");
    let csv = csv.to_string_lossy().into_owned();
    assert_usage_error(&[
        "generate", "--kind", "cardb", "--n", "10", "--out", &csv, "--sed", "7",
    ]);
    assert!(!f.dir.join("never.idx").exists() && !f.dir.join("never.csv").exists());
    assert_usage_error(&[
        "client",
        "--addr",
        "127.0.0.1:9",
        "--op",
        "rsl",
        "--query",
        "1,2",
        "--qurey",
        "1,2",
    ]);
}

/// Runs `args`, expects exit status 1, and returns the number of
/// `error:` lines and whether the usage text followed.
fn error_lines_and_usage(args: &[&str]) -> (usize, bool) {
    let out = wnrs(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    assert_eq!(out.status.code(), Some(1), "{args:?}:\n{stderr}");
    let errors = stderr.lines().filter(|l| l.starts_with("error: ")).count();
    (errors, stderr.lines().any(|l| l.starts_with("usage:")))
}

#[test]
fn usage_text_follows_only_usage_errors() {
    let f = fixture("usage_text");
    let missing = f.dir.join("missing.idx");
    let missing = missing.to_string_lossy().into_owned();
    // An i/o error: the index file does not exist.
    assert_eq!(
        error_lines_and_usage(&["rsl", "--index", &missing, "--query", "15000,80"]),
        (1, false)
    );
    // A question error: a customer named by id on a page file.
    assert_eq!(
        error_lines_and_usage(&[
            "mwq", "--paged", "on", "--index", &f.index, "--query", "15000,80", "--whynot", "5",
        ]),
        (1, false)
    );
    // A usage error still prints the usage text.
    assert_eq!(
        error_lines_and_usage(&["rsl", "--data", &f.data, "--query", "15000,80", "--qurey", "1"]),
        (1, true)
    );
}
