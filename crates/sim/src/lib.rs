//! Deterministic discrete-event simulation substrate for the Dagger
//! reproduction.
//!
//! The paper's hardware platform (Broadwell Xeon + Arria 10 FPGA over Intel
//! UPI) is unavailable, so every quantitative experiment in the evaluation is
//! regenerated with this simulator: a virtual-time event engine
//! ([`engine::Sim`]), exact-FCFS queueing resources ([`resource`]),
//! latency histograms (`dagger_telemetry::Histogram`), deterministic
//! random numbers ([`rng::Rng`]) and workload distributions ([`dist`]), the
//! calibrated CPU–NIC interface cost models of Fig. 10 ([`interconnect`]),
//! and a timed end-to-end RPC fabric model ([`rpcsim`]) used by every
//! benchmark harness.
//!
//! All simulations are deterministic under a fixed seed: the same inputs
//! produce bit-identical outputs.
//!
//! # Example
//!
//! ```
//! use dagger_sim::engine::Sim;
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let mut sim = Sim::new();
//! let fired = Rc::new(Cell::new(0u64));
//! let f = fired.clone();
//! sim.schedule_in(100, move |sim| {
//!     f.set(sim.now());
//! });
//! sim.run();
//! assert_eq!(fired.get(), 100);
//! ```

pub mod dist;
pub mod engine;
pub mod interconnect;
pub mod resource;
pub mod rng;
pub mod rpcsim;

pub use engine::Sim;
pub use rng::Rng;

/// Nanoseconds, the unit of simulated time across the workspace.
pub type Nanos = u64;

/// One microsecond in simulator units.
pub const MICROS: Nanos = 1_000;

/// One millisecond in simulator units.
pub const MILLIS: Nanos = 1_000_000;

/// One second in simulator units.
pub const SECS: Nanos = 1_000_000_000;
