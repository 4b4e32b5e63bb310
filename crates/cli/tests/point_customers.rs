//! A customer named by point (`--whynot-point p --whynot i`) asks the
//! same question in memory as with `--paged on`: every question command
//! prints the same answer lines in both modes (the paged mode's trailing
//! page-read line aside).

use std::path::PathBuf;
use std::process::Command;

fn wnrs(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wnrs"))
        .args(args)
        .output()
        .expect("run the wnrs binary");
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

struct Dir(PathBuf);

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn memory_and_paged_print_the_same_answers() {
    let dir =
        Dir(std::env::temp_dir().join(format!("wnrs_point_customers_{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).expect("create the fixture directory");
    let path = |file: &str| dir.0.join(file).to_string_lossy().into_owned();
    let (data, index) = (path("car.csv"), path("car.idx"));
    wnrs(&[
        "generate", "--kind", "cardb", "--n", "500", "--seed", "7", "--out", &data,
    ]);
    wnrs(&["index", "--data", &data, "--out", &index]);
    let csv = std::fs::read_to_string(&data).expect("read the dataset");
    let rows: Vec<&str> = csv.lines().collect();
    for q in ["15000,80", "20000,40000"] {
        for i in [5usize, 17, 123] {
            let (p, i) = (rows[i], i.to_string());
            for cmd in ["explain", "mwp", "mqp", "mwq", "safe-region"] {
                let ask = ["--query", q, "--whynot-point", p, "--whynot", &i];
                let memory = wnrs(&[&[cmd, "--data", &data][..], &ask].concat());
                let paged = wnrs(&[&[cmd, "--paged", "on", "--index", &index][..], &ask].concat());
                let (answer, stats) = paged
                    .trim_end()
                    .rsplit_once('\n')
                    .expect("an answer and the page-read line");
                assert!(stats.starts_with("[paged: "), "{cmd}: {stats}");
                assert_eq!(memory, format!("{answer}\n"), "{cmd} q={q} customer {i}");
            }
        }
    }
}
