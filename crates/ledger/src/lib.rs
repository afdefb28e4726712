//! # dagger-ledger — the perf ledger
//!
//! The repository's benchmark: five closed-loop workloads over the real
//! stack, four end-to-end metrics per workload, and a per-layer ledger that
//! says where the time goes. `README.md` beside this crate is the manual;
//! `BENCHMARK.json` at the repository root is the contract.
//!
//! This library is the stack-agnostic toolkit — statistics, seeded input
//! generators, span bookkeeping, `/proc` readers, the JSON the result files
//! are written in, and the comparison rule. The `dagger-ledger` binary
//! (`harness/`) is the composition root that builds stacks and drives them.

pub mod compare;
pub mod contract;
pub mod gen;
pub mod json;
pub mod procfs;
pub mod span;
pub mod stats;
