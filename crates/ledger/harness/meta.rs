//! The `meta` block: where a result came from, so a number is never read
//! without its host shape, commit and plan.

use std::fs;
use std::path::Path;
use std::process::Command;

use dagger_ledger::json::{obj, Value};

use crate::runner::Plan;
use crate::stack::SPECS;

/// First line of a command's stdout, if it runs and succeeds.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

/// `<short sha>` or `<short sha>-dirty`; `unknown` outside a git checkout
/// (the acceptance driver runs from an exported tree).
fn git_sha() -> String {
    let Some(sha) = first_line("git", &["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .is_ok_and(|o| !o.stdout.is_empty());
    if dirty {
        format!("{sha}-dirty")
    } else {
        sha
    }
}

/// Lines of a Rust file before its first `#[cfg(test)]` — the same cut
/// `scripts/lint.sh` uses to tell library code from unit tests.
fn non_test_lines(text: &str) -> usize {
    text.lines()
        .take_while(|l| !l.contains("#[cfg(test)]"))
        .count()
}

fn rust_lines_under(dir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                rust_lines_under(&path)
            } else if path.extension().is_some_and(|x| x == "rs") {
                fs::read_to_string(&path).map_or(0, |t| non_test_lines(&t))
            } else {
                0
            }
        })
        .sum()
}

/// Non-test lines of Rust per crate (`crates/<name>/src`, plus the ledger's
/// own `harness/`), read from the working directory. ROADMAP item 4 wants
/// code size next to speed.
fn lines_per_crate() -> Value {
    let mut crates: Vec<(String, Value)> = fs::read_dir("crates")
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| {
            let n = rust_lines_under(&e.path().join("src"))
                + rust_lines_under(&e.path().join("harness"));
            (e.file_name().to_string_lossy().into_owned(), Value::from(n))
        })
        .collect();
    crates.sort_by(|a, b| a.0.cmp(&b.0));
    let total: f64 = crates.iter().filter_map(|(_, v)| v.as_f64()).sum();
    crates.push(("total".to_string(), Value::from(total)));
    Value::Obj(crates)
}

/// Builds the block. `cpu` is the CPU the children confined themselves to.
pub fn collect(seed: u64, plan: &Plan, cpu: Option<u64>) -> Value {
    obj([
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        ("cpu_confined_to", cpu.map_or(Value::Null, Value::from)),
        ("git_sha", Value::from(git_sha())),
        (
            "rustc",
            Value::from(first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string())),
        ),
        ("seed", Value::from(seed)),
        ("plan", plan.to_json()),
        (
            "load_model",
            Value::from("closed loop: one load thread, one connection, one flow, fixed window"),
        ),
        (
            "workloads",
            obj(SPECS.iter().map(|s| (s.name, s.config_json()))),
        ),
        ("rust_lines_non_test", lines_per_crate()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_lines_before_the_test_module() {
        let text = "fn a() {}\n\nfn b() {}\n#[cfg(test)]\nmod tests {\n}\n";
        assert_eq!(non_test_lines(text), 3);
        assert_eq!(non_test_lines("fn a() {}\n"), 1);
    }
}
