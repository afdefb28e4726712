//! Counter banks: the one declaration form behind every NIC statistic.
//!
//! The paper's NIC has one statistics block, the Packet Monitor (Fig. 6).
//! Here every block that counts — the per-worker engine bank, the per-flow
//! bank, the reliable transport, the offload stage, the buffer pool, the
//! tuple cache, the fabric backends — declares its counters once with
//! `counter_bank!`. One field name and doc line yields the lock-free
//! cell, the same-named field of a `Copy` snapshot struct, and the
//! snapshot's `delta`, `+=`, `sum`, `Display` and ordered `(name, value)`
//! walk, so a counter has one cell, one name, and no per-counter code.
//! [`GaugeNames`] is the single exporter: a bank's gauge names under one
//! prefix, built once, then zipped with a snapshot's walk on every
//! telemetry collection. DESIGN.md §10 tabulates every bank and name.

use std::sync::atomic::{AtomicU64, Ordering};

use dagger_telemetry::MetricsRegistry;

/// One lock-free monotonic counter cell. `Relaxed` throughout: a counter
/// publishes no other data, and readers only ever want a recent value.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Counts one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Counts `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declares a counter bank: `struct Bank => Snapshot { field, … }`.
///
/// Expands to the bank (one public [`Counter`] per field, `snapshot()`)
/// and its plain-data snapshot (same public field names as `u64`, `NAMES`,
/// `iter()`, saturating `delta()`, `AddAssign`, `Sum`, and a one-line
/// `name=value` `Display`). Field docs land on both structs.
macro_rules! counter_bank {
    (
        $(#[$bank_meta:meta])*
        $vis:vis struct $Bank:ident =>
        $(#[$snap_meta:meta])*
        $Snap:ident {
            $( $(#[$field_meta:meta])* $field:ident ),+ $(,)?
        }
    ) => {
        $(#[$bank_meta])*
        #[derive(Debug, Default)]
        $vis struct $Bank {
            $( $(#[$field_meta])* pub $field: $crate::bank::Counter, )+
        }

        $(#[$snap_meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $Snap {
            $( $(#[$field_meta])* pub $field: u64, )+
        }

        impl $Bank {
            /// Reads every counter at once.
            pub fn snapshot(&self) -> $Snap {
                $Snap { $( $field: self.$field.get(), )+ }
            }
        }

        impl $Snap {
            /// Counter names, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$( stringify!($field), )+];

            /// `(name, value)` of every counter, in declaration order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
                Self::NAMES.iter().copied().zip([$( self.$field, )+])
            }

            /// Per-field saturating difference `self - earlier`: the
            /// activity between two snapshots of one bank (zero, not a
            /// wrap, where `earlier` was in fact taken later).
            pub fn delta(&self, earlier: &Self) -> Self {
                $Snap { $( $field: self.$field.saturating_sub(earlier.$field), )+ }
            }
        }

        impl std::ops::AddAssign for $Snap {
            fn add_assign(&mut self, other: Self) {
                $( self.$field += other.$field; )+
            }
        }

        impl std::iter::Sum for $Snap {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::default(), |mut total, s| {
                    total += s;
                    total
                })
            }
        }

        impl std::fmt::Display for $Snap {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                for (i, (name, value)) in self.iter().enumerate() {
                    write!(f, "{}{name}={value}", if i == 0 { "" } else { " " })?;
                }
                Ok(())
            }
        }
    };
}
pub(crate) use counter_bank;

/// One bank's gauge names under one prefix (`<prefix>.<counter>`), built
/// once so a telemetry collection formats nothing.
#[derive(Debug)]
pub(crate) struct GaugeNames(Vec<String>);

impl GaugeNames {
    /// Names `counters` under `prefix`.
    pub fn new(prefix: &str, counters: &[&str]) -> Self {
        GaugeNames(counters.iter().map(|c| format!("{prefix}.{c}")).collect())
    }

    /// Sets each gauge to its counter's value; `values` is the `iter()` of
    /// a snapshot of the bank these names were built from.
    pub fn export(&self, reg: &MetricsRegistry, values: impl Iterator<Item = (&'static str, u64)>) {
        for (name, (_, value)) in self.0.iter().zip(values) {
            reg.set_gauge(name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    counter_bank! {
        /// A two-counter bank.
        struct Bank =>
        /// Its snapshot.
        Snap {
            /// First.
            alpha,
            /// Second.
            beta,
        }
    }

    #[test]
    fn names_are_unique_and_in_declaration_order() {
        assert_eq!(Snap::NAMES, ["alpha", "beta"]);
        let bank = Bank::default();
        bank.alpha.add(3);
        bank.beta.inc();
        let pairs: Vec<_> = bank.snapshot().iter().collect();
        assert_eq!(pairs, [("alpha", 3), ("beta", 1)]);
        assert_eq!(bank.snapshot().to_string(), "alpha=3 beta=1");
    }

    #[test]
    fn delta_saturates_and_add_assign_sums() {
        let early = Snap { alpha: 5, beta: 9 };
        let late = Snap { alpha: 7, beta: 2 };
        assert_eq!(late.delta(&early), Snap { alpha: 2, beta: 0 });
        let mut total = early;
        total += late;
        assert_eq!(
            total,
            Snap {
                alpha: 12,
                beta: 11
            }
        );
        assert_eq!([early, late].into_iter().sum::<Snap>(), total);
    }

    #[test]
    fn gauge_names_export_under_their_prefix() {
        let reg = MetricsRegistry::new();
        let names = GaugeNames::new("nic.7.q1", Snap::NAMES);
        names.export(&reg, Snap { alpha: 4, beta: 6 }.iter());
        names.export(&reg, Snap { alpha: 5, beta: 6 }.iter());
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("nic.7.q1.alpha"), Some(5));
        assert_eq!(snap.gauge("nic.7.q1.beta"), Some(6));
        assert_eq!(snap.gauges.len(), 2);
    }

    /// Every counter a bank declares has a row in the bank's table in
    /// DESIGN.md §10, so a new counter cannot land undocumented.
    #[test]
    fn every_declared_counter_is_in_the_design_table() {
        use crate::bufpool::BufPoolSnapshot;
        use crate::conncache::ConnCacheSnapshot;
        use crate::connmgr::ConnMgrSnapshot;
        use crate::fabric_faults::FaultSnapshot;
        use crate::fabric_udp::UdpSnapshot;
        use crate::monitor::{FlowSnapshot, QueueSnapshot};
        use crate::offload::OffloadSnapshot;
        use crate::reliable::ReliableStats;

        let design = include_str!("../../../DESIGN.md");
        let start = design.find("\n## 10. ").expect("DESIGN.md has a §10");
        let section = &design[start..];
        let section = &section[..section.find("\n## 11. ").expect("§11 follows §10")];
        let cm: Vec<&str> = ConnMgrSnapshot::default().iter().map(|(n, _)| n).collect();
        for (bank, names) in [
            ("QueueStats", QueueSnapshot::NAMES),
            ("FlowStats", FlowSnapshot::NAMES),
            ("SharedReliableStats", ReliableStats::NAMES),
            ("OffloadStats", OffloadSnapshot::NAMES),
            ("BufPoolStats", BufPoolSnapshot::NAMES),
            ("ConnCacheStats", ConnCacheSnapshot::NAMES),
            ("ConnMgrSnapshot", &cm[..]),
            ("FaultStats", FaultSnapshot::NAMES),
            ("UdpStats", UdpSnapshot::NAMES),
        ] {
            let heading = format!("\n**`{bank}`**");
            let at = section
                .find(&heading)
                .unwrap_or_else(|| panic!("§10 has no table for {bank}"));
            let table = &section[at + heading.len()..];
            let table = &table[..table.find("\n**`").unwrap_or(table.len())];
            let rows: Vec<&str> = table
                .lines()
                .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
                .collect();
            assert_eq!(rows, names, "§10 table of {bank} vs its declaration");
        }
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let bank = std::sync::Arc::new(Bank::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| (0..10_000).for_each(|_| bank.alpha.inc()));
            }
        });
        assert_eq!(bank.snapshot().alpha, 40_000);
    }
}
