//! The benchmark's contract, read from the repository's `BENCHMARK.json`:
//! workload and metric names, units, directions and regression bounds.
//!
//! That file is the only list. The harness emits what it names, in its
//! order; `tests/smoke.rs` checks that nothing is emitted that it lacks
//! and nothing it names goes unemitted.

use std::sync::OnceLock;

use crate::json::{self, Value};

/// `BENCHMARK.json` as committed beside this build.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// Whether a larger or a smaller value is the better one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latency, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// One metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Its name; for a per-layer metric the module path is the layer.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Which direction is better.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; 0 for per-layer ones, which are not gated).
    pub bound: f64,
}

/// The parsed `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Benchmark {
    /// `run_seconds`: what the acceptance driver passes as `--seconds`.
    pub run_seconds: u64,
    /// Workload names, in run order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in file order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, in file order.
    pub per_layer: Vec<Metric>,
}

/// True when `name` is a well-formed metric or workload name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True when `unit` fits the contract's alphabet for units.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn field<'a>(entry: &'a Value, key: &str) -> Result<&'a str, String> {
    entry
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("an entry lacks the string `{key}`"))
}

fn metrics(doc: &Value, section: &str, gated: bool) -> Result<Vec<Metric>, String> {
    let entries = doc
        .get(section)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("no `{section}` array"))?;
    entries
        .iter()
        .map(|e| {
            let name = field(e, "name")?.to_string();
            let better = match field(e, "better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("{name}: `better` is {other:?}")),
            };
            let bound = match e.get("bound").and_then(Value::as_f64) {
                Some(b) if gated && b > 0.0 => b,
                None if !gated => 0.0,
                _ => return Err(format!("{name}: `bound` missing, zero or misplaced")),
            };
            Ok(Metric {
                unit: field(e, "unit")?.to_string(),
                name,
                better,
                bound,
            })
        })
        .collect()
}

impl Benchmark {
    /// Parses a `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Names what is missing or malformed.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("no `workloads` array")?
            .iter()
            .map(|w| field(w, "name").map(str::to_string))
            .collect::<Result<_, _>>()?;
        Ok(Benchmark {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("no `run_seconds`")? as u64,
            workloads,
            end_to_end: metrics(&doc, "end_to_end", true)?,
            per_layer: metrics(&doc, "per_layer", false)?,
        })
    }

    /// The file embedded at build time, parsed once.
    ///
    /// # Panics
    ///
    /// Panics if the committed file does not parse: a build-time defect of
    /// this repository, not an input error.
    pub fn embedded() -> &'static Benchmark {
        static PARSED: OnceLock<Benchmark> = OnceLock::new();
        PARSED.get_or_init(|| Benchmark::parse(BENCHMARK_JSON).expect("committed BENCHMARK.json"))
    }

    /// The end-to-end metric called `name`.
    pub fn end_to_end(&self, name: &str) -> Option<&Metric> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_of_the_committed_file_are_well_formed_and_unique() {
        let b = Benchmark::embedded();
        let mut seen = BTreeSet::new();
        for name in b
            .workloads
            .iter()
            .chain(b.end_to_end.iter().map(|m| &m.name))
            .chain(b.per_layer.iter().map(|m| &m.name))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for m in b.end_to_end.iter().chain(&b.per_layer) {
            assert!(valid_unit(&m.unit), "{}: bad unit {:?}", m.name, m.unit);
        }
        for bad in ["", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} should be rejected");
        }
        assert!((1..=60).contains(&b.run_seconds));
    }

    /// The benchmark contract caps a bound at 0.25 and wants `setup_s` to
    /// carry the largest. ISSUE 12 asked for 0.10 on the two timing
    /// metrics; measured ten-run spreads on this host (README, "The
    /// regression bounds") do not support that, so they sit at the cap —
    /// and this test keeps any of them from growing further.
    #[test]
    fn bounds_stay_within_the_contract_and_do_not_grow() {
        let b = Benchmark::embedded();
        let setup = b.end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        for m in &b.end_to_end {
            let cap = if m.name == "rss_mb" { 0.10 } else { 0.25 };
            assert!(m.bound <= cap, "{} bound {} above {cap}", m.name, m.bound);
            assert!(m.bound <= setup.bound, "setup_s carries the largest bound");
        }
    }

    #[test]
    fn malformed_files_are_refused() {
        assert!(Benchmark::parse("{}").is_err());
        let no_bound = r#"{"run_seconds": 1, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "m", "unit": "s", "better": "lower"}], "per_layer": []}"#;
        assert!(Benchmark::parse(no_bound).unwrap_err().contains("bound"));
        let sideways = r#"{"run_seconds": 1, "workloads": [],
            "end_to_end": [], "per_layer": [{"name": "m", "unit": "s", "better": "sideways"}]}"#;
        assert!(Benchmark::parse(sideways).unwrap_err().contains("sideways"));
    }
}
