//! Smoke run of the real binary: 0.1 s segments, so the numbers mean
//! nothing — what is checked is the shape of everything it emits against
//! `BENCHMARK.json`, in both directions.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use dagger_ledger::contract::{Benchmark, Metric};
use dagger_ledger::json::{self, Value};

const EXE: &str = env!("CARGO_BIN_EXE_dagger-ledger");

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn keys(v: &Value) -> BTreeSet<String> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn set<'a>(names: impl IntoIterator<Item = &'a String>) -> BTreeSet<String> {
    names.into_iter().cloned().collect()
}

fn names(metrics: &[Metric]) -> BTreeSet<String> {
    set(metrics.iter().map(|m| &m.name))
}

/// One test, two stages in sequence: every child confines itself to the
/// same CPU, so running the stages as parallel tests would only make them
/// fight over it.
#[test]
fn smoke_run_and_driver_mode_emit_exactly_the_contracted_names() {
    full_run();
    driver_mode();
}

fn full_run() {
    let bench = Benchmark::embedded();
    let out = out_dir("smoke-run");
    let run = Command::new(EXE)
        .args(["run", "--seed", "3", "--seconds", "0.6", "--out"])
        .arg(&out)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "run failed: {stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert_eq!(
        stdout.trim_end().lines().last(),
        Some("\"claim\": null"),
        "the summary ends by claiming nothing"
    );

    let path = out.join("ledger-3.json");
    let doc = json::parse(&std::fs::read_to_string(&path).expect("result file written")).unwrap();
    assert_eq!(doc.get("mode").and_then(Value::as_str), Some("smoke"));
    assert_eq!(doc.get("claim"), Some(&Value::Null));
    assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
    for key in [
        "nproc",
        "cpu_confined_to",
        "git_sha",
        "rustc",
        "seed",
        "plan",
        "workloads",
        "rust_lines_non_test",
    ] {
        assert!(doc.at(&["meta", key]).is_some(), "meta lacks {key}");
    }

    let workloads = doc.get("workloads").unwrap();
    assert_eq!(keys(workloads), set(&bench.workloads));
    for (name, w) in workloads.as_object().unwrap() {
        assert_eq!(
            w.get("correct").and_then(Value::as_bool),
            Some(true),
            "{name}"
        );
        assert_eq!(w.get("failed").and_then(Value::as_f64), Some(0.0), "{name}");
        assert!(
            w.get("attempted").and_then(Value::as_f64).unwrap() > 0.0,
            "{name}"
        );
        assert_eq!(
            keys(w.get("end_to_end").unwrap()),
            names(&bench.end_to_end),
            "{name}"
        );
        assert_eq!(
            keys(w.get("per_layer").unwrap()),
            names(&bench.per_layer),
            "{name}"
        );
        for (metric, s) in w.get("end_to_end").unwrap().as_object().unwrap() {
            assert!(
                s.get("value").and_then(Value::as_f64).unwrap() > 0.0,
                "{name}.{metric} is zero"
            );
        }

        // The trace file: valid Chrome trace JSON whose root spans
        // reconcile with the reported root median, children inside roots.
        let file = w
            .get("trace_file")
            .and_then(Value::as_str)
            .expect("trace file named");
        assert_eq!(file, format!("trace-{name}.json"));
        let trace = json::parse(&std::fs::read_to_string(out.join(file)).unwrap()).unwrap();
        let events = trace.get("traceEvents").and_then(Value::as_array).unwrap();
        let num = |e: &Value, k: &str| e.get(k).and_then(Value::as_f64).unwrap();
        let mut roots: Vec<(f64, f64, f64)> = Vec::new();
        for e in events {
            if e.get("name").and_then(Value::as_str) == Some("rpc.client.root") {
                roots.push((
                    num(e, "ts"),
                    num(e, "dur"),
                    e.at(&["args", "rpc"]).unwrap().as_f64().unwrap(),
                ));
            }
        }
        assert!(
            roots.len() >= 100,
            "{name}: only {} sampled roots",
            roots.len()
        );
        for e in events {
            if let Some(parent) = e.at(&["args", "parent"]).and_then(Value::as_f64) {
                let (ts, dur, _) = roots
                    .iter()
                    .find(|r| r.2 == parent)
                    .unwrap_or_else(|| panic!("{name}: span without its root"));
                let (cs, cd) = (num(e, "ts"), num(e, "dur"));
                assert!(
                    cs >= ts - 1e-3 && cs + cd <= ts + dur + 1e-3,
                    "{name}: child outside its root"
                );
            }
        }
        let mut durs: Vec<f64> = roots.iter().map(|r| r.1 * 1000.0).collect();
        durs.sort_by(f64::total_cmp);
        let sampled = durs[durs.len() / 2];
        let reported = w
            .at(&["per_layer", "rpc.client.root_ns", "value"])
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(
            (sampled - reported).abs() <= 0.5 * reported,
            "{name}: sampled root median {sampled} ns vs reported {reported} ns"
        );
    }

    // A smoke result must never be used as a comparison baseline.
    let cmp = Command::new(EXE)
        .arg("compare")
        .arg(&path)
        .arg(&path)
        .output()
        .unwrap();
    assert!(!cmp.status.success());
    assert!(String::from_utf8_lossy(&cmp.stderr).contains("smoke"));
}

fn driver_mode() {
    let bench = Benchmark::embedded();
    for (trace, section) in [("0", &bench.end_to_end), ("1", &bench.per_layer)] {
        let run = Command::new(EXE)
            .args([
                "--workload",
                "kvs_write",
                "--seed",
                "5",
                "--seconds",
                "0.6",
                "--trace",
                trace,
                "--out",
            ])
            .arg(out_dir(&format!("smoke-drive-{trace}")))
            .output()
            .expect("binary runs");
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8_lossy(&run.stdout);
        let line = json::parse(stdout.trim_end().lines().last().unwrap()).unwrap();
        assert_eq!(
            keys(&line),
            set(&["correct", "attempted", "failed", "metrics"].map(String::from))
        );
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
        assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(keys(metrics), names(section));
        for Metric { name, unit, .. } in section {
            assert_eq!(
                metrics.at(&[name, "unit"]).and_then(Value::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            assert!(
                metrics
                    .at(&[name, "value"])
                    .and_then(Value::as_f64)
                    .is_some(),
                "{name}"
            );
        }
    }
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["frobnicate"],
        &[],
    ] {
        let run = Command::new(EXE).args(args).output().unwrap();
        assert!(!run.status.success(), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
