//! The client-side flow endpoint: a hardware flow's ring pair plus the
//! software receive state (reassembler + completion buffer).
//!
//! One [`FlowEndpoint`] backs one `RpcClient` — or several, in the shared
//! receive queue (SRQ) model of §4.2, where multiple connections multiplex
//! one ring pair and "explicit locking in the RpcClient RX/TX path is
//! required": the endpoint's internal mutexes are exactly that locking.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use dagger_nic::{EngineHandle, HostFlow, HostWait, RingConsumer, RingProducer};
use dagger_telemetry::{RpcEvent, Telemetry};
use dagger_types::{CacheLine, ConnectionId, FlowId, Result, RpcHeader, RpcId, RpcKind};

use crate::frag::{fragment_into, CompleteRpc, Reassembler};

type ReadyKey = (u32, u32); // (connection id, rpc id)

/// Bound on remembered abandoned calls; beyond it the oldest abandonment is
/// forgotten (its late response, should it still arrive, then surfaces in
/// `ready` like any other — a bounded-memory trade-off, not a leak).
const ABANDONED_CAP: usize = 1024;

/// A flow's TX ring and the scratch vector each message is fragmented
/// into before it is pushed, under one lock: a message is built in place,
/// with no per-message allocation.
#[derive(Debug)]
pub(crate) struct TxRing {
    ring: RingProducer,
    frames: Vec<CacheLine>,
}

impl TxRing {
    pub(crate) fn new(ring: RingProducer) -> Self {
        TxRing {
            ring,
            frames: Vec::new(),
        }
    }

    /// Fragments the message `prefix ++ payload` under `header` into the
    /// scratch vector, replacing the one staged before.
    pub(crate) fn stage(&mut self, header: RpcHeader, prefix: &[u8], payload: &[u8]) -> Result<()> {
        self.frames.clear();
        fragment_into(&mut self.frames, header, prefix, payload)
    }

    /// Pushes the staged message as one batch (one engine wake-up). While
    /// the ring is full `back_off` runs: it steps the engine that drains
    /// the ring, or gives up with an error.
    pub(crate) fn push_staged(&mut self, mut back_off: impl FnMut() -> Result<()>) -> Result<()> {
        let mut rest = self.frames.as_slice();
        loop {
            rest = &rest[self.ring.try_push_batch(rest)..];
            if rest.is_empty() {
                return Ok(());
            }
            back_off()?;
        }
    }
}

#[derive(Debug)]
struct RxState {
    consumer: RingConsumer,
    reassembler: Reassembler,
    ready: HashMap<ReadyKey, CompleteRpc>,
    /// Calls given up on (timed out); their responses are dropped on
    /// arrival instead of parking in `ready` forever.
    abandoned: HashSet<ReadyKey>,
    /// FIFO of abandonment order, for bounded eviction. May hold keys no
    /// longer in the set (already matched by a late response).
    abandoned_order: VecDeque<ReadyKey>,
    /// Responses that arrived after their call was abandoned.
    late_drops: u64,
    /// Responses whose header carried the `offloaded` bit — synthesized by
    /// the serving NIC's offload stage rather than a host core. Reconciles
    /// against the server NIC's `offload.hits` counter in tests.
    offload_served: u64,
}

impl RxState {
    /// Takes the buffered response for `key`; the map is probed only when
    /// it holds anything.
    fn take_ready(&mut self, key: ReadyKey) -> Option<CompleteRpc> {
        if self.ready.is_empty() {
            return None;
        }
        self.ready.remove(&key)
    }
}

/// A claimed hardware flow shared by the clients issuing on it.
#[derive(Debug)]
pub struct FlowEndpoint {
    flow: FlowId,
    tx: Mutex<TxRing>,
    rx: Mutex<RxState>,
    /// The engine queue that owns this flow; every wait here drives it.
    engine: EngineHandle,
    telemetry: Arc<Telemetry>,
}

impl FlowEndpoint {
    /// Wraps a claimed [`HostFlow`] and stamps RPC trace events
    /// (TX-ring enqueue, response completion) into `telemetry` — normally
    /// the owning NIC's hub, so client- and engine-side stamps share one
    /// clock epoch.
    pub fn new(flow: HostFlow, telemetry: Arc<Telemetry>) -> Self {
        FlowEndpoint {
            flow: flow.flow,
            tx: Mutex::new(TxRing::new(flow.tx)),
            rx: Mutex::new(RxState {
                consumer: flow.rx,
                reassembler: Reassembler::new(),
                ready: HashMap::new(),
                abandoned: HashSet::new(),
                abandoned_order: VecDeque::new(),
                late_drops: 0,
                offload_served: 0,
            }),
            engine: flow.engine,
            telemetry,
        }
    }

    /// The engine queue that owns this flow (what a waiter on it drives).
    pub fn engine(&self) -> &EngineHandle {
        &self.engine
    }

    /// The hardware flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// The telemetry hub this endpoint stamps into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Sends one message: fragments `prefix ++ payload` under `header`
    /// (see [`fragment_into`]) straight into the TX ring's scratch vector
    /// and writes the frames into the ring as one batch (one engine
    /// wake-up); while the ring is full, steps the flow's engine (which
    /// drains it) and backs off, until `deadline`.
    ///
    /// # Errors
    ///
    /// Returns [`dagger_types::DaggerError::PayloadTooLarge`] if the
    /// message does not fit an RPC, or
    /// [`dagger_types::DaggerError::Timeout`] if the ring stays full past
    /// the deadline.
    pub fn send(
        &self,
        header: RpcHeader,
        prefix: &[u8],
        payload: &[u8],
        deadline: Instant,
    ) -> Result<()> {
        let mut tx = self.tx.lock();
        tx.stage(header, prefix, payload)?;
        if header.kind == RpcKind::Request {
            self.telemetry.tracer().record(
                header.connection_id.raw(),
                header.rpc_id.raw(),
                RpcEvent::TxEnqueue,
            );
        }
        let mut wait = HostWait::new(&self.engine);
        tx.push_staged(|| wait.idle_until(deadline))
    }

    /// Drains the RX ring once, moving completed responses into the ready
    /// buffer. Returns how many responses completed.
    pub fn poll_once(&self) -> usize {
        self.drain(&mut self.rx.lock(), None).0
    }

    /// Drains the RX ring: every completed response goes into the ready
    /// buffer, except one for `awaited`, which is handed straight back.
    /// Returns how many responses completed, and the awaited one.
    fn drain(&self, rx: &mut RxState, awaited: Option<ReadyKey>) -> (usize, Option<CompleteRpc>) {
        let mut completed = 0;
        let mut found = None;
        while let Some(line) = rx.consumer.try_pop() {
            match rx.reassembler.push(line) {
                Ok(Some(rpc)) if rpc.header.kind == RpcKind::Response => {
                    let key = (rpc.header.connection_id.raw(), rpc.header.rpc_id.raw());
                    if rpc.header.offloaded {
                        rx.offload_served += 1;
                    }
                    if !rx.abandoned.is_empty() && rx.abandoned.remove(&key) {
                        // The caller timed out and gave up on this response;
                        // drop it so it never parks in `ready` forever.
                        rx.late_drops += 1;
                        continue;
                    }
                    self.telemetry
                        .tracer()
                        .record(key.0, key.1, RpcEvent::ResponseComplete);
                    completed += 1;
                    if found.is_none() && awaited == Some(key) {
                        found = Some(rpc);
                    } else {
                        rx.ready.insert(key, rpc);
                    }
                }
                // Requests on a client endpoint or malformed frames are
                // dropped; the NIC's monitor counts wire-level drops.
                Ok(_) | Err(_) => {}
            }
        }
        (completed, found)
    }

    /// The response for `key`: buffered by an earlier drain, or completed
    /// by this one.
    fn take_or_drain(&self, key: ReadyKey) -> Option<CompleteRpc> {
        let mut rx = self.rx.lock();
        match rx.take_ready(key) {
            Some(rpc) => Some(rpc),
            None => self.drain(&mut rx, Some(key)).1,
        }
    }

    /// Takes the response for a specific call, if it has arrived.
    pub fn try_take(&self, cid: ConnectionId, rpc_id: RpcId) -> Option<CompleteRpc> {
        self.rx.lock().take_ready((cid.raw(), rpc_id.raw()))
    }

    /// Non-blocking completion check for one call: drains the RX ring, and
    /// if the response is not there yet gives the flow's engine one step
    /// before looking again.
    pub fn poll_for(&self, cid: ConnectionId, rpc_id: RpcId) -> Option<CompleteRpc> {
        let key = (cid.raw(), rpc_id.raw());
        self.take_or_drain(key).or_else(|| {
            if !self.engine.step() {
                return None;
            }
            self.take_or_drain(key)
        })
    }

    /// Takes every buffered response belonging to `cid` (the completion
    /// queue's drain).
    pub fn take_all_for(&self, cid: ConnectionId) -> Vec<CompleteRpc> {
        let mut rx = self.rx.lock();
        let keys: Vec<ReadyKey> = rx
            .ready
            .keys()
            .filter(|(c, _)| *c == cid.raw())
            .copied()
            .collect();
        let mut out: Vec<CompleteRpc> = keys
            .into_iter()
            .filter_map(|k| rx.ready.remove(&k))
            .collect();
        out.sort_by_key(|r| r.header.rpc_id);
        out
    }

    /// Polls until the response for `(cid, rpc_id)` arrives or `deadline`
    /// passes, driving the flow's engine queue between polls. A response
    /// already buffered is returned without stepping, and so is one that
    /// arrived after the deadline but before the first look. The deadline
    /// is the call's, fixed when it was issued: the wait reads the clock
    /// only when it backs off (and now and then while the queue keeps
    /// moving frames, see [`HostWait::idle_until`]).
    ///
    /// # Errors
    ///
    /// Returns [`dagger_types::DaggerError::Timeout`] if the response does
    /// not arrive in time.
    pub fn wait_until(
        &self,
        cid: ConnectionId,
        rpc_id: RpcId,
        deadline: Instant,
    ) -> Result<CompleteRpc> {
        let key = (cid.raw(), rpc_id.raw());
        let mut wait = HostWait::new(&self.engine);
        loop {
            if let Some(rpc) = self.take_or_drain(key) {
                return Ok(rpc);
            }
            wait.idle_until(deadline)?;
        }
    }

    /// Gives up on the response for `(cid, rpc_id)` — the timeout path's
    /// cleanup. Any buffered copy and any half-reassembled fragments are
    /// discarded now; a copy still in flight is dropped on arrival (counted
    /// in [`FlowEndpoint::late_drops`]), so a timed-out call can never
    /// strand state in the endpoint.
    pub fn abandon(&self, cid: ConnectionId, rpc_id: RpcId) {
        let key = (cid.raw(), rpc_id.raw());
        let mut rx = self.rx.lock();
        rx.reassembler.forget(cid, rpc_id);
        if rx.ready.remove(&key).is_some() {
            rx.late_drops += 1;
            return;
        }
        if rx.abandoned.insert(key) {
            rx.abandoned_order.push_back(key);
            while rx.abandoned.len() > ABANDONED_CAP {
                match rx.abandoned_order.pop_front() {
                    Some(old) => {
                        rx.abandoned.remove(&old);
                    }
                    None => break,
                }
            }
        }
    }

    /// Responses that arrived after their call was abandoned (timed out).
    pub fn late_drops(&self) -> u64 {
        self.rx.lock().late_drops
    }

    /// Responses served by the remote NIC's offload stage (the `offloaded`
    /// header bit) rather than a host core.
    pub fn offload_served(&self) -> u64 {
        self.rx.lock().offload_served
    }

    /// Number of buffered, unclaimed responses.
    pub fn ready_len(&self) -> usize {
        self.rx.lock().ready.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frag::{fragment, message_header};
    use dagger_nic::ring;
    use dagger_types::{DaggerError, FnId};
    use std::time::Duration;

    /// Builds an endpoint whose rings we drive manually from the test.
    fn test_endpoint() -> (FlowEndpoint, RingConsumer, RingProducer) {
        let (tx_p, tx_c) = ring(64);
        let (rx_p, rx_c) = ring(64);
        let flow = HostFlow {
            flow: FlowId(0),
            tx: tx_p,
            rx: rx_c,
            engine: EngineHandle::detached(),
        };
        (FlowEndpoint::new(flow, Telemetry::new()), tx_c, rx_p)
    }

    fn response_frames(cid: u32, rpc: u32, payload: &[u8]) -> Vec<CacheLine> {
        fragment(
            ConnectionId(cid),
            RpcId(rpc),
            FnId(1),
            FlowId(0),
            RpcKind::Response,
            payload,
        )
        .unwrap()
    }

    /// The template header of response `rpc` on connection `cid`.
    fn response_header(cid: u32, rpc: u32) -> RpcHeader {
        message_header(
            ConnectionId(cid),
            RpcId(rpc),
            FnId(1),
            FlowId(0),
            RpcKind::Response,
        )
    }

    fn in_a_second() -> Instant {
        Instant::now() + Duration::from_secs(1)
    }

    #[test]
    fn send_lands_in_tx_ring() {
        let (ep, mut tx_c, _rx_p) = test_endpoint();
        ep.send(response_header(1, 1), &[], b"abc", in_a_second())
            .unwrap();
        assert_eq!(tx_c.try_pop(), Some(response_frames(1, 1, b"abc")[0]));
    }

    #[test]
    fn send_times_out_on_persistently_full_ring() {
        let (ep, _tx_c, _rx_p) = test_endpoint();
        // Fill the 64-slot ring without draining it.
        for i in 0..64 {
            ep.send(response_header(1, i), &[], &[0u8; 40], in_a_second())
                .unwrap();
        }
        let deadline = Instant::now() + Duration::from_millis(20);
        let err = ep
            .send(response_header(1, 64), &[], &[0u8; 40], deadline)
            .unwrap_err();
        assert_eq!(err, DaggerError::Timeout);
    }

    #[test]
    fn poll_collects_responses() {
        let (ep, _tx_c, mut rx_p) = test_endpoint();
        for f in response_frames(5, 9, b"result") {
            rx_p.try_push(f).unwrap();
        }
        assert_eq!(ep.poll_once(), 1);
        let rpc = ep.try_take(ConnectionId(5), RpcId(9)).unwrap();
        assert_eq!(rpc.payload, b"result");
        assert!(ep.try_take(ConnectionId(5), RpcId(9)).is_none());
    }

    #[test]
    fn wait_until_times_out() {
        let (ep, _tx_c, _rx_p) = test_endpoint();
        let deadline = Instant::now() + Duration::from_millis(20);
        let err = ep
            .wait_until(ConnectionId(1), RpcId(1), deadline)
            .unwrap_err();
        assert_eq!(err, DaggerError::Timeout);
        assert!(Instant::now() >= deadline);
    }

    /// The awaited response is handed straight back by the drain that
    /// completes it; the others it completes wait in the ready buffer.
    #[test]
    fn the_awaited_response_skips_the_ready_buffer() {
        let (ep, _tx_c, mut rx_p) = test_endpoint();
        for rpc in [1, 2, 3] {
            for f in response_frames(1, rpc, &[rpc as u8]) {
                rx_p.try_push(f).unwrap();
            }
        }
        let rpc = ep
            .wait_until(ConnectionId(1), RpcId(2), in_a_second())
            .unwrap();
        assert_eq!(rpc.payload, [2]);
        assert_eq!(ep.ready_len(), 2, "responses 1 and 3 are buffered");
        // A deadline already past still takes a buffered response.
        let rpc = ep
            .wait_until(ConnectionId(1), RpcId(3), Instant::now())
            .unwrap();
        assert_eq!(rpc.payload, [3]);
        assert_eq!(ep.ready_len(), 1);
    }

    #[test]
    fn take_all_filters_by_connection_and_sorts() {
        let (ep, _tx_c, mut rx_p) = test_endpoint();
        for (cid, rpc) in [(1u32, 3u32), (2, 1), (1, 1), (1, 2)] {
            for f in response_frames(cid, rpc, &[rpc as u8]) {
                rx_p.try_push(f).unwrap();
            }
        }
        ep.poll_once();
        let for_one = ep.take_all_for(ConnectionId(1));
        let ids: Vec<u32> = for_one.iter().map(|r| r.header.rpc_id.raw()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(ep.ready_len(), 1); // cid 2's response remains
    }

    #[test]
    fn telemetry_endpoint_stamps_tx_enqueue_and_response_complete() {
        let (tx_p, _tx_c) = ring(64);
        let (mut rx_p, rx_c) = ring(64);
        let flow = HostFlow {
            flow: FlowId(0),
            tx: tx_p,
            rx: rx_c,
            engine: EngineHandle::detached(),
        };
        let telemetry = Telemetry::new();
        telemetry.tracer().enable();
        let ep = FlowEndpoint::new(flow, Arc::clone(&telemetry));

        let request = message_header(
            ConnectionId(7),
            RpcId(11),
            FnId(1),
            FlowId(0),
            RpcKind::Request,
        );
        ep.send(request, &[], b"ping", in_a_second()).unwrap();
        for f in response_frames(7, 11, b"pong") {
            rx_p.try_push(f).unwrap();
        }
        ep.poll_once();

        let trace = telemetry.tracer().get(7, 11).unwrap();
        assert!(trace.event(RpcEvent::TxEnqueue).is_some());
        assert!(trace.event(RpcEvent::ResponseComplete).is_some());
        // Responses never stamp TxEnqueue, requests never ResponseComplete:
        // both events belong to the same (cid, rpc_id) trace exactly once.
        assert!(trace.event(RpcEvent::ClientSend).is_none());
    }

    #[test]
    fn abandoned_call_drops_late_response() {
        let (ep, _tx_c, mut rx_p) = test_endpoint();
        ep.abandon(ConnectionId(1), RpcId(1));
        for f in response_frames(1, 1, b"late") {
            rx_p.try_push(f).unwrap();
        }
        assert_eq!(ep.poll_once(), 0, "late response not surfaced");
        assert_eq!(ep.ready_len(), 0);
        assert_eq!(ep.late_drops(), 1);
        // A subsequent rpc_id on the same connection is unaffected.
        for f in response_frames(1, 2, b"ok") {
            rx_p.try_push(f).unwrap();
        }
        assert_eq!(ep.poll_once(), 1);
        assert_eq!(
            ep.try_take(ConnectionId(1), RpcId(2)).unwrap().payload,
            b"ok"
        );
    }

    #[test]
    fn abandon_purges_buffered_response_and_partials() {
        let (ep, _tx_c, mut rx_p) = test_endpoint();
        // A fully buffered response is removed immediately.
        for f in response_frames(1, 1, b"buffered") {
            rx_p.try_push(f).unwrap();
        }
        ep.poll_once();
        assert_eq!(ep.ready_len(), 1);
        ep.abandon(ConnectionId(1), RpcId(1));
        assert_eq!(ep.ready_len(), 0);
        assert_eq!(ep.late_drops(), 1);
        // Half-reassembled fragments are forgotten too.
        let frames = response_frames(1, 2, &[7u8; 120]);
        rx_p.try_push(frames[0]).unwrap();
        ep.poll_once();
        ep.abandon(ConnectionId(1), RpcId(2));
        for f in &frames[1..] {
            rx_p.try_push(*f).unwrap();
        }
        assert_eq!(ep.poll_once(), 0, "partial cannot complete after abandon");
        assert_eq!(ep.ready_len(), 0);
    }

    #[test]
    fn multiframe_response_reassembles_through_endpoint() {
        let (ep, _tx_c, mut rx_p) = test_endpoint();
        let payload = vec![0x5A; 200];
        for f in response_frames(1, 1, &payload) {
            rx_p.try_push(f).unwrap();
        }
        ep.poll_once();
        assert_eq!(
            ep.try_take(ConnectionId(1), RpcId(1)).unwrap().payload,
            payload
        );
    }
}
