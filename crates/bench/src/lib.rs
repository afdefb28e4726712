//! Shared helpers for the Dagger benchmark harnesses.
//!
//! Every table and figure of the paper's evaluation has a `[[bench]]`
//! target in this crate (harness = false); each prints its experiment id, a
//! table of measured values, and the paper's reference values, so
//! `cargo bench --workspace` regenerates the full evaluation.

/// Prints a harness banner.
pub fn banner(id: &str, what: &str) {
    println!("\n=== {id} — {what} ===");
}

/// Prints a `paper: …` reference footer line.
pub fn paper_ref(line: &str) {
    println!("paper: {line}");
}

/// Formats a nanosecond value as microseconds with two decimals.
pub fn us(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_formats() {
        assert_eq!(us(2_100), "2.10");
        assert_eq!(us(0), "0.00");
    }
}
