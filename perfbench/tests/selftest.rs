//! Self-test: each workload once at minimal length on a second seed,
//! untraced and traced. Every metric `BENCHMARK.json` declares must be
//! emitted with a finite value, and every output check must pass.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use obs::json::{self, Json};
use std::path::PathBuf;
use std::process::Command;

const SEED: &str = "2";

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    match doc.get(section) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
                (field("name"), field("unit"))
            })
            .collect(),
        _ => panic!("BENCHMARK.json has no {section} list"),
    }
}

fn run(workload: &str, trace: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            SEED,
            "--seconds",
            "2",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{last}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{last}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{last}"
    );
    let section = if trace == "1" {
        "per_layer"
    } else {
        "end_to_end"
    };
    let metrics = result.get("metrics").expect("metrics");
    for (name, unit) in declared(section) {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: metric {name} is not a finite number"
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        if section == "end_to_end" {
            assert!(value.unwrap() > 0.0, "{workload}: {name} reads 0");
        }
    }
}

#[test]
fn cell_runs_clean() {
    run("cell", "0");
    run("cell", "1");
}

#[test]
fn match_runs_clean() {
    run("match", "0");
    run("match", "1");
}

#[test]
fn ledger_runs_clean() {
    run("ledger", "0");
    run("ledger", "1");
}
