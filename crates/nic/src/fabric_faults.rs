//! The fault layer: deterministic, composable fault injection between the
//! switch and whatever [`Wire`] it runs over (DESIGN.md §11).
//!
//! Real fabrics do worse than deliver: they lose, reorder, duplicate,
//! corrupt, delay, and partition. A [`FaultPlan`] injects all but the last
//! deterministically (splitmix64-seeded), fabric-wide, fixed when the
//! switch is built ([`Switch::with_faults`]); link partitions come and go
//! mid-run ([`Switch::partition`] / [`Switch::heal`]).
//! Every injected fault is counted in the [`FaultStats`] counter bank and
//! exportable as `fabric.*` telemetry gauges via
//! [`Switch::register_telemetry`].
//!
//! Every [`Switch`] owns one layer and passes each frame a port sends
//! through it before the wire sees the frame, so the control surface below
//! and every decision it leads to are the same code on every backend. A
//! *disarmed* layer (no plan, no partition, nothing held) costs a send one
//! atomic load and no lock.
//!
//! # Determinism
//!
//! Fault *decisions* on a directed link are a pure function of the plan's
//! seed and that link's send ordinal: each link owns an isolated splitmix64
//! stream derived from `plan.seed` and the link endpoints, whatever other
//! links carry and whatever the wire. Only the *release timing* of held
//! (reordered or delayed) frames depends on the layer's event clock, which
//! advances on every forward and on receiver polls while armed — so a held
//! frame is never stuck: traffic and the NICs' poll loops both drain it.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dagger_telemetry::{FlightEventKind, FlightRecorder, Telemetry, FLIGHT_ALL_NODES};
use dagger_types::NodeAddr;

use crate::bank::{counter_bank, GaugeNames};
use crate::fabric::{Carried, Frame, Switch, Wire};

/// Deterministic splitmix64 stream (one per directed link).
#[derive(Clone, Copy, Debug)]
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }

    /// Uniform draw in `[1, n]` (`n` of 0 yields 1).
    fn pick1(&mut self, n: usize) -> u64 {
        1 + self.next_u64() % (n.max(1) as u64)
    }
}

/// Clamps a probability into `[0, 1]`; `NaN` maps to `0`.
fn clamp_prob(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// A deterministic, composable fault specification for the whole fabric.
///
/// All probabilities are clamped into `[0, 1]` on construction (`NaN`
/// clamps to `0`); a probability of `1.0` is legal and means "every frame"
/// (a drop probability of `1.0` blackholes the link, like a partition).
/// Faults compose: one frame can be duplicated *and* corrupted *and*
/// reordered by the same plan.
///
/// Decisions are drawn from a splitmix64 stream seeded by `seed` and the
/// link endpoints, so a plan replays identically for the same per-link
/// traffic (see the module docs for the exact guarantee).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is held back so later frames overtake it.
    pub reorder: f64,
    /// Bound on how many fabric events a reordered frame can lag (≥ 1).
    pub reorder_window: usize,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability one deterministic bit of the frame is flipped.
    pub corrupt: f64,
    /// Probability a frame is delayed without intent to reorder it.
    pub delay: f64,
    /// Fabric events a delayed frame is held for (jittered in
    /// `[1, delay_events]`).
    pub delay_events: usize,
    /// Root seed of the per-link decision streams.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that injects nothing, seeded for later composition.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            drop: 0.0,
            reorder: 0.0,
            reorder_window: 8,
            duplicate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            delay_events: 64,
            seed,
        }
    }

    /// Sets the drop probability (clamped into `[0, 1]`).
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = clamp_prob(p);
        self
    }

    /// Sets the reorder probability (clamped) and the bounded window of
    /// fabric events a held frame can lag (`window` of 0 becomes 1).
    pub fn with_reorder(mut self, p: f64, window: usize) -> Self {
        self.reorder = clamp_prob(p);
        self.reorder_window = window.max(1);
        self
    }

    /// Sets the duplication probability (clamped).
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = clamp_prob(p);
        self
    }

    /// Sets the bit-corruption probability (clamped).
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = clamp_prob(p);
        self
    }

    /// Sets the delay probability (clamped) and maximum hold in fabric
    /// events (`events` of 0 becomes 1).
    pub fn with_delay(mut self, p: f64, events: usize) -> Self {
        self.delay = clamp_prob(p);
        self.delay_events = events.max(1);
        self
    }

    /// `true` if the plan can inject at least one fault.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0
            || self.reorder > 0.0
            || self.duplicate > 0.0
            || self.corrupt > 0.0
            || self.delay > 0.0
    }
}

counter_bank! {
    /// Injected-fault counters, shared between the fault layer and host
    /// observers (chaos harnesses, telemetry collectors); exported as
    /// `fabric.*` gauges.
    pub struct FaultStats =>
    /// A plain-data snapshot of [`FaultStats`].
    FaultSnapshot {
        /// Frames that entered the switch (before any fault decision).
        forwarded,
        /// Frames dropped by loss injection.
        dropped,
        /// Frames held back so later frames overtook them.
        reordered,
        /// Frames delivered twice.
        duplicated,
        /// Frames with one bit flipped.
        corrupted,
        /// Frames held back without reordering intent.
        delayed,
        /// Frames blackholed by an active partition.
        partition_drops,
    }
}

impl FaultSnapshot {
    /// Total faults injected, of any kind: every counter but `forwarded`.
    pub fn total_injected(&self) -> u64 {
        self.iter().map(|(_, count)| count).sum::<u64>() - self.forwarded
    }
}

/// The unordered form of an address pair (partitions cut both directions).
fn unordered(a: NodeAddr, b: NodeAddr) -> (NodeAddr, NodeAddr) {
    (a.min(b), a.max(b))
}

/// A frame held back by reorder/delay injection, due at a fabric event.
/// Release puts it on the wire exactly as sent — same source, same routed
/// queue — so holds never break a flow's queue affinity.
#[derive(Debug)]
struct HeldFrame {
    frame: Frame,
    due: u64,
}

/// The mutable fault-injection state, behind one lock so per-link decision
/// streams stay internally ordered.
#[derive(Debug, Default)]
struct FaultState {
    /// The fabric-wide plan, set once at build.
    plan: Option<FaultPlan>,
    /// Per-directed-link splitmix64 streams, lazily derived from the
    /// plan's seed and the endpoints.
    streams: HashMap<(NodeAddr, NodeAddr), SplitMix>,
    /// Frames held for later release, any destination.
    held: Vec<HeldFrame>,
    /// The fabric event clock: advances on forwards and on receiver polls
    /// while the layer is armed.
    event: u64,
    /// Partitioned unordered address pairs (both directions blackholed).
    cut_pairs: HashSet<(NodeAddr, NodeAddr)>,
    /// Fully partitioned nodes.
    cut_nodes: HashSet<NodeAddr>,
}

impl FaultState {
    fn stream_for(&mut self, src: NodeAddr, dst: NodeAddr, plan: &FaultPlan) -> &mut SplitMix {
        self.streams.entry((src, dst)).or_insert_with(|| {
            // Distinct, deterministic stream per directed link.
            let mix = plan
                .seed
                .wrapping_add(0x51AB_1E00 + u64::from(src.raw()) * 0x1_0000_0001)
                .wrapping_add(u64::from(dst.raw()).wrapping_mul(0x00D1_F4FA_11CA_B1E5));
            SplitMix(mix)
        })
    }

    fn is_cut(&self, src: NodeAddr, dst: NodeAddr) -> bool {
        self.cut_nodes.contains(&src)
            || self.cut_nodes.contains(&dst)
            || self.cut_pairs.contains(&unordered(src, dst))
    }

    fn partitioned(&self) -> bool {
        !self.cut_pairs.is_empty() || !self.cut_nodes.is_empty()
    }

    /// Whether a send has anything to consult here.
    fn armed(&self) -> bool {
        self.plan.is_some() || self.partitioned() || !self.held.is_empty()
    }
}

/// The fault layer of one [`Switch`].
#[derive(Debug, Default)]
pub(crate) struct FaultLayer {
    state: Mutex<FaultState>,
    /// [`FaultState::armed`], republished after every locked section. A
    /// sender that reads `false` goes straight to the wire: nothing under
    /// the lock could have changed its frame's fate.
    armed: AtomicBool,
    /// `state.held.len()`, republished likewise; lets the receive path skip
    /// the lock when nothing is pending.
    held: AtomicU64,
    stats: Arc<FaultStats>,
    /// Flight recorder of the telemetry hub registered via
    /// [`Switch::register_telemetry`]; partition/heal mutations land
    /// there so diagnosis bundles can see the injected fault window.
    flight: Mutex<Option<Arc<FlightRecorder>>>,
}

impl FaultLayer {
    /// Runs `f` on the locked state, then republishes the lock-free hints
    /// while still holding the lock (so they change in lock order). Relaxed:
    /// they publish nothing — the state is only ever read under the lock.
    fn locked<R>(&self, f: impl FnOnce(&mut FaultState) -> R) -> R {
        let mut state = self.state.lock();
        let out = f(&mut state);
        self.held.store(state.held.len() as u64, Ordering::Relaxed);
        self.armed.store(state.armed(), Ordering::Relaxed);
        out
    }

    /// Frames currently held by reorder/delay injection.
    pub(crate) fn held(&self) -> usize {
        self.held.load(Ordering::Relaxed) as usize
    }

    /// Forwards one frame toward the wire.
    ///
    /// The fault pipeline is queue-oblivious: decisions come from the
    /// per-directed-link `(src, dst)` stream (the queue indices consume no
    /// randomness, so single-queue fault schedules replay identically under
    /// sharding), and every copy of the frame — immediate, duplicate, or
    /// held-and-released — is carried with the queues it was sent with.
    /// Fails, handing the bytes back, only when the wire rejects the frame.
    pub(crate) fn forward(&self, frame: Frame, wire: &impl Wire) -> Carried {
        self.stats.forwarded.inc();
        if !self.armed.load(Ordering::Relaxed) {
            return wire.carry(frame);
        }
        let (dup, now) = self.locked(|state| {
            state.event += 1;
            let fate = self.decide(state, frame);
            Self::release_due(state, wire);
            fate
        });
        // The duplicate goes first; the caller hears about the last copy
        // carried (a held or dropped frame was accepted).
        let mut carried = Ok(());
        for frame in [dup, now].into_iter().flatten() {
            carried = wire.carry(frame);
        }
        carried
    }

    /// Draws `frame`'s fate: the duplicate, if one was injected, and the
    /// frame itself unless it was dropped, blackholed or put on hold.
    fn decide(&self, state: &mut FaultState, mut frame: Frame) -> (Option<Frame>, Option<Frame>) {
        let (src, dst) = (frame.src, frame.dst);
        if state.is_cut(src, dst) {
            // A partition blackholes silently, like a dead link.
            self.stats.partition_drops.inc();
            return (None, None);
        }
        let Some(plan) = state.plan.filter(FaultPlan::is_active) else {
            return (None, Some(frame));
        };

        // Draw this frame's fate from the link's deterministic stream.
        let stream = state.stream_for(src, dst, &plan);
        let dropped = stream.roll(plan.drop);
        let duplicated = !dropped && stream.roll(plan.duplicate);
        let corrupted = !dropped && stream.roll(plan.corrupt);
        let corrupt_bit = if corrupted { stream.next_u64() } else { 0 };
        let reordered = !dropped && stream.roll(plan.reorder);
        let hold_events = if reordered {
            stream.pick1(plan.reorder_window)
        } else if !dropped && stream.roll(plan.delay) {
            stream.pick1(plan.delay_events)
        } else {
            0
        };
        let delayed = !reordered && hold_events > 0;

        if dropped {
            self.stats.dropped.inc();
            return (None, None);
        }
        self.stats.duplicated.add(duplicated.into());
        self.stats.corrupted.add(corrupted.into());
        self.stats.reordered.add(reordered.into());
        self.stats.delayed.add(delayed.into());

        // The duplicate is a faithful immediate copy (taken before
        // corruption), so dup + corrupt yields one good and one bad frame.
        let dup = duplicated.then(|| Frame {
            bytes: frame.bytes.clone(),
            ..frame
        });
        if corrupted && !frame.bytes.is_empty() {
            let bit = corrupt_bit % (frame.bytes.len() as u64 * 8);
            frame.bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        if hold_events == 0 {
            return (dup, Some(frame));
        }
        let due = state.event + hold_events;
        state.held.push(HeldFrame { frame, due });
        (dup, None)
    }

    /// Releases held frames that have come due. Best-effort: a held frame
    /// the wire no longer knows a way for is discarded.
    fn release_due(state: &mut FaultState, wire: &impl Wire) {
        let event = state.event;
        for held in state.held.extract_if(.., |held| held.due <= event) {
            let _ = wire.carry(held.frame);
        }
    }

    /// Called by receiving ports before polling: advances the event clock
    /// and releases due held frames, so delayed traffic on quiet links is
    /// drained by the attached NICs' own poll loops.
    pub(crate) fn poll(&self, wire: &impl Wire) {
        if self.held() > 0 {
            self.locked(|state| {
                state.event += 1;
                Self::release_due(state, wire);
            });
        }
    }

    /// Puts every held frame on the wire, regardless of due time.
    pub(crate) fn flush(&self, wire: &impl Wire) {
        self.locked(|state| {
            for held in state.held.drain(..) {
                let _ = wire.carry(held.frame);
            }
        });
    }

    /// Stamps a partition/heal breadcrumb into the registered telemetry
    /// hub's flight recorder (no-op before `register_telemetry`). `b` is
    /// the peer node, or [`FLIGHT_ALL_NODES`] for node/fabric-wide cuts.
    fn record(&self, kind: FlightEventKind, node: u32, b: u64) {
        if let Some(flight) = self.flight.lock().as_ref() {
            flight.record(kind, node, 0, b);
        }
    }
}

/// The fault-injection control surface, the same on every backend.
impl<W: Wire> Switch<W> {
    /// Creates a fabric that silently drops each forwarded frame with
    /// probability `prob` (deterministic per `seed`). Pair with NICs built
    /// with [`dagger_types::HardConfig::reliable`].
    ///
    /// `prob` is clamped into `[0, 1]` (`NaN` clamps to `0`); a
    /// probability of `1.0` blackholes all traffic. Shorthand for
    /// [`Switch::with_faults`] with a drop-only [`FaultPlan`].
    pub fn with_loss(prob: f64, seed: u64) -> Self {
        Self::with_faults(FaultPlan::seeded(seed).with_drop(prob))
    }

    /// Creates a fabric governed fabric-wide by `plan`, for its whole life.
    pub fn with_faults(plan: FaultPlan) -> Self {
        let fabric = Self::new();
        fabric.shared.faults.locked(|state| state.plan = Some(plan));
        fabric
    }

    /// Partitions the pair `a ↔ b`: frames between them (both directions)
    /// are blackholed and counted as `partition_drops` until
    /// [`Switch::heal`].
    pub fn partition(&self, a: NodeAddr, b: NodeAddr) {
        let faults = &self.shared.faults;
        faults.locked(|state| state.cut_pairs.insert(unordered(a, b)));
        faults.record(FlightEventKind::Partition, a.raw(), u64::from(b.raw()));
    }

    /// Heals the pair `a ↔ b`.
    pub fn heal(&self, a: NodeAddr, b: NodeAddr) {
        let faults = &self.shared.faults;
        faults.locked(|state| state.cut_pairs.remove(&unordered(a, b)));
        faults.record(FlightEventKind::Heal, a.raw(), u64::from(b.raw()));
    }

    /// Partitions `node` from everyone (all its traffic blackholed).
    pub fn partition_node(&self, node: NodeAddr) {
        let faults = &self.shared.faults;
        faults.locked(|state| state.cut_nodes.insert(node));
        faults.record(FlightEventKind::Partition, node.raw(), FLIGHT_ALL_NODES);
    }

    /// Heals a node-level partition.
    pub fn heal_node(&self, node: NodeAddr) {
        let faults = &self.shared.faults;
        faults.locked(|state| state.cut_nodes.remove(&node));
        faults.record(FlightEventKind::Heal, node.raw(), FLIGHT_ALL_NODES);
    }

    /// `true` while any partition is active.
    pub fn partitioned(&self) -> bool {
        self.shared.faults.state.lock().partitioned()
    }

    /// Frames dropped by loss injection so far (excludes partition drops;
    /// see [`Switch::fault_stats`] for the full bank).
    pub fn dropped_frames(&self) -> u64 {
        self.shared.faults.stats.dropped.get()
    }

    /// Snapshot of every injected-fault counter.
    pub fn fault_stats(&self) -> FaultSnapshot {
        self.shared.faults.stats.snapshot()
    }

    /// Registers this fabric's fault counters as `fabric.*` gauges on
    /// `telemetry` (collector name `"fabric"`), so chaos-harness
    /// bookkeeping and exported telemetry can be reconciled.
    pub fn register_telemetry(&self, telemetry: &Telemetry) {
        *self.shared.faults.flight.lock() = Some(Arc::clone(telemetry.flight()));
        let stats = Arc::clone(&self.shared.faults.stats);
        let names = GaugeNames::new("fabric", FaultSnapshot::NAMES);
        telemetry.register_collector("fabric", move |reg| {
            names.export(reg, stats.snapshot().iter());
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricPort, MemFabric};
    use dagger_types::Result;

    /// Attaches a single-queue NIC under `addr` and returns its port.
    fn attach(fabric: &MemFabric, addr: NodeAddr) -> Result<Arc<dyn FabricPort>> {
        fabric
            .attach_queues(addr, 1)
            .map(|mut ports| ports.remove(0))
    }

    #[test]
    fn with_loss_clamps_both_bounds() {
        // Below range: clamps to 0, drops nothing.
        let clean = MemFabric::with_loss(-3.5, 1);
        let a = attach(&clean, NodeAddr(1)).unwrap();
        let b = attach(&clean, NodeAddr(2)).unwrap();
        for _ in 0..50 {
            a.send(NodeAddr(2), vec![1]).unwrap();
        }
        for _ in 0..50 {
            assert!(b.try_recv().is_some());
        }
        assert_eq!(clean.dropped_frames(), 0);

        // Above range: clamps to 1, drops everything.
        let hole = MemFabric::with_loss(7.0, 1);
        let a = attach(&hole, NodeAddr(1)).unwrap();
        let b = attach(&hole, NodeAddr(2)).unwrap();
        for _ in 0..50 {
            a.send(NodeAddr(2), vec![1]).unwrap();
        }
        assert!(b.try_recv().is_none());
        assert_eq!(hole.dropped_frames(), 50);

        // NaN: treated as 0.
        let nan = MemFabric::with_loss(f64::NAN, 1);
        let a = attach(&nan, NodeAddr(1)).unwrap();
        let b = attach(&nan, NodeAddr(2)).unwrap();
        a.send(NodeAddr(2), vec![9]).unwrap();
        assert_eq!(b.try_recv(), Some(vec![9]));
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let outcomes = |seed: u64| -> Vec<bool> {
            let fabric = MemFabric::with_loss(0.5, seed);
            let a = attach(&fabric, NodeAddr(1)).unwrap();
            let b = attach(&fabric, NodeAddr(2)).unwrap();
            (0..64u8)
                .map(|i| {
                    a.send(NodeAddr(2), vec![i]).unwrap();
                    b.try_recv().is_some()
                })
                .collect()
        };
        assert_eq!(outcomes(9), outcomes(9), "same seed, same loss pattern");
        assert_ne!(outcomes(9), outcomes(10), "different seed differs");
    }

    #[test]
    fn duplicate_injection_delivers_twice() {
        let fabric = MemFabric::with_faults(FaultPlan::seeded(3).with_duplicate(1.0));
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        a.send(NodeAddr(2), vec![5]).unwrap();
        assert_eq!(b.try_recv(), Some(vec![5]));
        assert_eq!(b.try_recv(), Some(vec![5]));
        assert_eq!(b.try_recv(), None);
        assert_eq!(fabric.fault_stats().duplicated, 1);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let fabric = MemFabric::with_faults(FaultPlan::seeded(4).with_corrupt(1.0));
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        let original = vec![0u8; 32];
        a.send(NodeAddr(2), original.clone()).unwrap();
        let got = b.try_recv().unwrap();
        let flipped: u32 = got
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit flipped");
        assert_eq!(fabric.fault_stats().corrupted, 1);
    }

    #[test]
    fn reorder_lets_later_frames_overtake() {
        let fabric = MemFabric::with_faults(FaultPlan::seeded(2).with_reorder(0.5, 4));
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        for i in 0..200u8 {
            a.send(NodeAddr(2), vec![i]).unwrap();
        }
        let mut got = Vec::new();
        while let Some(bytes) = b.try_recv() {
            got.push(bytes[0]);
        }
        assert_eq!(got.len(), 200, "reorder never loses frames");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200u8).collect::<Vec<_>>());
        assert_ne!(got, sorted, "some frames overtook held ones");
        assert!(fabric.fault_stats().reordered > 0);
    }

    #[test]
    fn delayed_frames_drain_via_receiver_polls() {
        let fabric = MemFabric::with_faults(FaultPlan::seeded(5).with_delay(1.0, 16));
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        a.send(NodeAddr(2), vec![1]).unwrap();
        // No further sends: the receiver's own polls must advance the
        // event clock and surface the frame.
        let mut got = None;
        for _ in 0..64 {
            if let Some(bytes) = b.try_recv() {
                got = Some(bytes);
                break;
            }
        }
        assert_eq!(got, Some(vec![1]));
        assert_eq!(fabric.fault_stats().delayed, 1);
    }

    #[test]
    fn partition_blackholes_and_heals() {
        let fabric = MemFabric::new();
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        fabric.partition(NodeAddr(1), NodeAddr(2));
        assert!(fabric.partitioned());
        a.send(NodeAddr(2), vec![1]).unwrap();
        b.send(NodeAddr(1), vec![2]).unwrap();
        assert_eq!(b.try_recv(), None);
        assert_eq!(a.try_recv(), None);
        assert_eq!(fabric.fault_stats().partition_drops, 2);
        fabric.heal(NodeAddr(1), NodeAddr(2));
        assert!(!fabric.partitioned());
        a.send(NodeAddr(2), vec![3]).unwrap();
        assert_eq!(b.try_recv(), Some(vec![3]));
    }

    #[test]
    fn node_partition_cuts_all_links() {
        let fabric = MemFabric::new();
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        let c = attach(&fabric, NodeAddr(3)).unwrap();
        fabric.partition_node(NodeAddr(2));
        a.send(NodeAddr(2), vec![1]).unwrap();
        b.send(NodeAddr(3), vec![2]).unwrap();
        a.send(NodeAddr(3), vec![3]).unwrap();
        assert_eq!(b.try_recv(), None);
        assert_eq!(c.try_recv(), Some(vec![3]), "unrelated link unaffected");
        fabric.heal_node(NodeAddr(2));
        a.send(NodeAddr(2), vec![4]).unwrap();
        assert_eq!(b.try_recv(), Some(vec![4]));
    }

    #[test]
    fn telemetry_gauges_match_fault_stats() {
        let fabric = MemFabric::with_faults(
            FaultPlan::seeded(11)
                .with_drop(0.3)
                .with_duplicate(0.3)
                .with_corrupt(0.3),
        );
        let telemetry = Telemetry::new();
        fabric.register_telemetry(&telemetry);
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let b = attach(&fabric, NodeAddr(2)).unwrap();
        for i in 0..100u8 {
            a.send(NodeAddr(2), vec![i; 8]).unwrap();
        }
        while b.try_recv().is_some() {}
        let snap = telemetry.snapshot();
        let stats = fabric.fault_stats();
        assert_eq!(
            snap.registry.gauge("fabric.forwarded"),
            Some(stats.forwarded)
        );
        assert_eq!(snap.registry.gauge("fabric.dropped"), Some(stats.dropped));
        assert_eq!(
            snap.registry.gauge("fabric.duplicated"),
            Some(stats.duplicated)
        );
        assert_eq!(
            snap.registry.gauge("fabric.corrupted"),
            Some(stats.corrupted)
        );
        assert!(stats.total_injected() > 0);
    }

    #[test]
    fn held_frames_release_to_their_routed_queue() {
        let fabric = MemFabric::with_faults(FaultPlan::seeded(5).with_delay(1.0, 8));
        let a = attach(&fabric, NodeAddr(1)).unwrap();
        let ports = fabric.attach_queues(NodeAddr(2), 2).unwrap();
        a.send_to(NodeAddr(2), 1, vec![7]).unwrap();
        let mut got = None;
        for _ in 0..64 {
            assert_eq!(ports[0].try_recv(), None, "queue 0 never sees it");
            if let Some(bytes) = ports[1].try_recv() {
                got = Some(bytes);
                break;
            }
        }
        assert_eq!(got, Some(vec![7]), "delayed frame kept its queue");
    }

    #[test]
    fn composed_plan_is_deterministic_per_seed() {
        let run = |seed: u64| -> (Vec<Vec<u8>>, FaultSnapshot) {
            let fabric = MemFabric::with_faults(
                FaultPlan::seeded(seed)
                    .with_drop(0.15)
                    .with_reorder(0.2, 4)
                    .with_duplicate(0.15)
                    .with_corrupt(0.1)
                    .with_delay(0.1, 8),
            );
            let a = attach(&fabric, NodeAddr(1)).unwrap();
            let b = attach(&fabric, NodeAddr(2)).unwrap();
            let mut got = Vec::new();
            for i in 0..128u8 {
                a.send(NodeAddr(2), vec![i; 4]).unwrap();
                while let Some(bytes) = b.try_recv() {
                    got.push(bytes);
                }
            }
            for _ in 0..64 {
                while let Some(bytes) = b.try_recv() {
                    got.push(bytes);
                }
            }
            (got, fabric.fault_stats())
        };
        let (got1, stats1) = run(77);
        let (got2, stats2) = run(77);
        assert_eq!(got1, got2, "same seed: byte-identical delivery");
        assert_eq!(stats1, stats2, "same seed: identical fault counts");
        let (got3, _) = run(78);
        assert_ne!(got1, got3, "different seed: different chaos");
    }
}
