//! `dagger-ledger compare`: two result files, one verdict per workload and
//! end-to-end metric.

use std::fmt;

use crate::contract::{Benchmark, Better};
use crate::json::Value;
use crate::stats::Summary;

/// Outcome of comparing one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A.
    Within,
    /// B is worse than A by more than the bound.
    Worse,
    /// B is better than A by more than the bound.
    Better,
    /// The windows of A or of B disagree among themselves by more than the
    /// bound, so the two values cannot be told apart at this resolution.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// The rule: unresolved if either side's spread over its own windows
/// exceeds the bound; otherwise B's value against A's, in the metric's
/// direction.
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    if a.value == 0.0 {
        return Verdict::Unresolved;
    }
    // Positive = B worse than A, as a share of A.
    let worse_by = match better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// One line of the comparison table.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Side A.
    pub a: Summary,
    /// Side B.
    pub b: Summary,
    /// The bound from `BENCHMARK.json`.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// `v` with four significant digits and no exponent: a table holds
/// set-up times of 0.0002 s next to throughputs of 400 000 /s.
fn sig4(v: f64) -> String {
    let magnitude = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    format!("{v:.*}", (3 - magnitude).clamp(0, 12) as usize)
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = |s: &Summary| {
            format!(
                "{} [{} {}] w={}",
                sig4(s.value),
                sig4(s.q1),
                sig4(s.q3),
                s.windows
            )
        };
        let ratio = if self.a.value == 0.0 {
            f64::NAN
        } else {
            self.b.value / self.a.value
        };
        write!(
            f,
            "{:<14} {:<15} {:>4}  A {:<38} B {:<38} B/A {:.4}  bound {:.2}  {}",
            self.workload,
            self.metric,
            self.unit,
            side(&self.a),
            side(&self.b),
            ratio,
            self.bound,
            self.verdict
        )
    }
}

/// Compares two result documents.
///
/// # Errors
///
/// Refuses smoke-mode files (their segments are too short to mean
/// anything) and files missing a workload or metric.
pub fn compare(a: &Value, b: &Value, bench: &Benchmark) -> Result<Vec<Row>, String> {
    for (side, doc) in [("A", a), ("B", b)] {
        match doc.get("mode").and_then(Value::as_str) {
            Some("full") => {}
            Some(mode) => return Err(format!("{side} is a `{mode}` run; compare needs `full`")),
            None => return Err(format!("{side} has no `mode`: not a ledger result file")),
        }
    }
    let mut rows = Vec::new();
    for workload in &bench.workloads {
        for metric in &bench.end_to_end {
            let read = |side: &str, doc: &Value| {
                doc.at(&["workloads", workload, "end_to_end", &metric.name])
                    .and_then(Summary::from_json)
                    .ok_or_else(|| format!("{side} lacks {workload}.{}", metric.name))
            };
            let (sa, sb) = (read("A", a)?, read("B", b)?);
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                unit: metric.unit.clone(),
                a: sa,
                b: sb,
                bound: metric.bound,
                verdict: verdict(&sa, &sb, metric.better, metric.bound),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn tight(value: f64) -> Summary {
        Summary {
            value,
            median: value * 1.02,
            q1: value * 0.99,
            q3: value * 1.01,
            windows: 4,
            samples: 80,
        }
    }

    #[test]
    fn sig4_keeps_four_digits_at_any_scale() {
        assert_eq!(sig4(0.000_194_23), "0.0001942");
        assert_eq!(sig4(9.716), "9.716");
        assert_eq!(sig4(34.582), "34.58");
        assert_eq!(sig4(96_567.98), "96568");
        assert_eq!(sig4(0.0), "0.000");
    }

    #[test]
    fn verdict_directions_and_bounds() {
        let a = tight(100.0);
        // Lower is better: +5% within, +11% worse, -11% better.
        assert_eq!(
            verdict(&a, &tight(105.0), Better::Lower, 0.10),
            Verdict::Within
        );
        assert_eq!(
            verdict(&a, &tight(111.0), Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &tight(89.0), Better::Lower, 0.10),
            Verdict::Better
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            verdict(&a, &tight(111.0), Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &tight(89.0), Better::Higher, 0.10),
            Verdict::Worse
        );
        // A spread wider than the bound resolves nothing.
        let wide = Summary {
            q1: 90.0,
            q3: 105.0,
            ..tight(100.0)
        };
        assert_eq!(
            verdict(&wide, &tight(150.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&a, &wide, Better::Lower, 0.10), Verdict::Unresolved);
    }

    fn result_doc(mode: &str, rtt: f64) -> Value {
        let bench = Benchmark::embedded();
        let workload = || {
            obj([(
                "end_to_end",
                obj(bench.end_to_end.iter().map(|m| {
                    let v = if m.name == "rtt_p50_us" { rtt } else { 10.0 };
                    (m.name.clone(), tight(v).to_json(&m.unit))
                })),
            )])
        };
        obj([
            ("mode", Value::from(mode)),
            (
                "workloads",
                obj(bench.workloads.iter().map(|w| (w.clone(), workload()))),
            ),
        ])
    }

    #[test]
    fn compares_whole_documents_and_refuses_smoke_runs() {
        let bench = Benchmark::embedded();
        let rows = compare(&result_doc("full", 10.0), &result_doc("full", 13.0), bench).unwrap();
        assert_eq!(rows.len(), bench.workloads.len() * bench.end_to_end.len());
        for row in &rows {
            let want = if row.metric == "rtt_p50_us" {
                Verdict::Worse
            } else {
                Verdict::Within
            };
            assert_eq!(row.verdict, want, "{row}");
        }
        let err = compare(&result_doc("smoke", 1.0), &result_doc("full", 1.0), bench);
        assert!(err.unwrap_err().contains("smoke"));
        assert!(compare(&obj::<String>([]), &result_doc("full", 1.0), bench).is_err());
    }
}
