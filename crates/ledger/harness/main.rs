//! `dagger-ledger`: the repository's benchmark.
//!
//! ```text
//! dagger-ledger run [--seed N] [--seconds S] [--out DIR]
//! dagger-ledger compare <a.json> <b.json>
//! dagger-ledger --workload NAME --seed N --seconds S --trace 0|1   (acceptance driver)
//! ```
//!
//! See `crates/ledger/README.md`.

mod meta;
mod pass;
mod replay;
mod runner;
mod stack;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use dagger_ledger::compare::{compare, Verdict};
use dagger_ledger::contract::Benchmark;
use dagger_ledger::json;

use crate::pass::PassPlan;
use crate::stack::Spec;

const USAGE: &str = "usage:
  dagger-ledger run [--seed N] [--seconds S] [--out DIR]
  dagger-ledger compare <a.json> <b.json>
  dagger-ledger --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]";

/// `--flag value` pairs and bare words.
struct Args {
    flags: HashMap<String, String>,
    words: Vec<String>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut words = Vec::new();
        while let Some(arg) = argv.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = argv
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), value);
                }
                None => words.push(arg),
            }
        }
        Ok(Args { flags, words })
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flags
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read {v:?}"))
            })
            .transpose()
    }

    fn need<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn spec(&self) -> Result<&'static Spec, String> {
        let name: String = self.need("workload")?;
        Spec::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn out_dir(&self) -> PathBuf {
        self.flags
            .get("out")
            .map_or_else(runner::default_out_dir, PathBuf::from)
    }

    fn seconds(&self) -> Result<f64, String> {
        let default = Benchmark::embedded().run_seconds as f64;
        let seconds = self.get("seconds")?.unwrap_or(default);
        if seconds > 0.0 && seconds <= 600.0 {
            Ok(seconds)
        } else {
            Err(format!("--seconds {seconds} outside (0, 600]"))
        }
    }
}

/// An internal child process: one pass or one set-up series, reported as
/// one JSON line.
fn child(args: &Args) -> Result<bool, String> {
    let spec = args.spec()?;
    let seed: u64 = args.need("seed")?;
    let role: String = args.need("role")?;
    let report = match role.as_str() {
        "setup" => pass::setup(spec, seed)?,
        "pass" => {
            let plan = PassPlan {
                warm: Duration::from_micros(args.need("warm-us")?),
                segment: Duration::from_micros(args.need("segment-us")?),
                segments: args.need("segments")?,
                traced: args.need::<u8>("traced")? != 0,
            };
            pass::run(spec, seed, &plan, &args.out_dir())?
        }
        other => return Err(format!("unknown child role {other:?}")),
    };
    println!("{}", report.to_compact());
    Ok(true)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = compare(&load(a)?, &load(b)?, Benchmark::embedded())?;
    for row in &rows {
        println!("{row}");
    }
    let tally = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "within {}  better {}  worse {}  unresolved {}",
        tally(Verdict::Within),
        tally(Verdict::Better),
        tally(Verdict::Worse),
        tally(Verdict::Unresolved)
    );
    Ok(tally(Verdict::Worse) == 0)
}

fn dispatch() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    match args.words.first().map(String::as_str) {
        Some("child") => child(&args),
        Some("compare") => match &args.words[1..] {
            [a, b] => compare_files(a, b),
            _ => Err(USAGE.to_string()),
        },
        Some("run") => runner::run_all(
            args.get("seed")?.unwrap_or(1),
            args.seconds()?,
            &args.out_dir(),
        ),
        None if args.flags.contains_key("workload") => runner::drive(
            args.spec()?,
            args.need("seed")?,
            args.seconds()?,
            args.need::<u8>("trace")? != 0,
            &args.out_dir(),
        ),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("dagger-ledger: {message}");
            ExitCode::from(2)
        }
    }
}
