//! End-to-end microservice applications over the Dagger fabric (§3, §5.7).
//!
//! Two applications, in two execution modes each:
//!
//! * **Flight Registration** (§5.7, Fig. 13): the 8-tier service the paper
//!   builds to show Dagger handles multi-tier applications with diverse
//!   threading models. [`flight`] is the *functional* implementation — every
//!   tier a real `RpcThreadedServer` on its own virtual NIC, MICA caches
//!   behind the Airport and Citizens tiers, chain + fan-out + nested
//!   blocking dependencies, and a per-request tracer ([`trace`]).
//!   [`flight_sim`] is the *timed* model that regenerates Table 4 and
//!   Fig. 15 (Simple vs Optimized threading).
//! * **Social Network** (§3, Figs. 3–5): [`socialnet`] models the six
//!   profiled DeathStarBench tiers — service-time and RPC/TCP-processing
//!   cost distributions and RPC-size distributions — to regenerate the
//!   networking-overhead characterization that motivates Dagger.

pub mod flight;
pub mod flight_sim;
pub mod socialnet;
pub mod trace;

pub use flight::FlightApp;
pub use flight_sim::{FlightSim, FlightSimConfig, FlightSimReport};
pub use trace::{TraceSummary, Tracer};
