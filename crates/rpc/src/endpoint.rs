//! The client-side flow endpoint: a hardware flow's ring pair plus the
//! software receive state (reassembler + completion buffer).
//!
//! One [`FlowEndpoint`] backs one `RpcClient` — or several, in the shared
//! receive queue (SRQ) model of §4.2, where multiple connections multiplex
//! one ring pair and "explicit locking in the RpcClient RX/TX path is
//! required": the endpoint's internal mutexes are exactly that locking.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dagger_nic::{EngineHandle, HostFlow, HostWait, RingConsumer, RingProducer};
use dagger_telemetry::{RpcEvent, Telemetry};
use dagger_types::{
    CacheLine, ConnectionId, DaggerError, FlowId, Result, RpcHeader, RpcId, RpcKind,
};

use crate::frag::{CompleteRpc, Reassembler};

type ReadyKey = (u32, u32); // (connection id, rpc id)

/// Bound on remembered abandoned calls; beyond it the oldest abandonment is
/// forgotten (its late response, should it still arrive, then surfaces in
/// `ready` like any other — a bounded-memory trade-off, not a leak).
const ABANDONED_CAP: usize = 1024;

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

/// A claimed hardware flow shared by the clients issuing on it.
#[derive(Debug)]
pub struct FlowEndpoint {
    flow: FlowId,
    tx: Mutex<RingProducer>,
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
            tx: Mutex::new(flow.tx),
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

    /// Writes an RPC's frames into the TX ring as one batch (one engine
    /// wake-up); while the ring is full, steps the flow's engine (which
    /// drains it) and backs off, until `deadline`.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Timeout`] if the ring stays full past the
    /// deadline.
    pub fn send_frames(&self, frames: &[CacheLine], deadline: Instant) -> Result<()> {
        let mut tx = self.tx.lock();
        self.stamp_tx_enqueue(frames);
        let mut wait = HostWait::new(&self.engine);
        let mut rest = frames;
        loop {
            let pushed = tx.try_push_batch(rest);
            rest = &rest[pushed..];
            if rest.is_empty() {
                return Ok(());
            }
            if pushed > 0 {
                wait.reset();
            } else if Instant::now() >= deadline {
                return Err(DaggerError::Timeout);
            } else {
                wait.idle();
            }
        }
    }

    /// Stamps the `TxEnqueue` trace event for a request's lead frame.
    fn stamp_tx_enqueue(&self, frames: &[CacheLine]) {
        let tracer = self.telemetry.tracer();
        if !tracer.is_enabled() {
            return;
        }
        if let Some(hdr) = frames
            .first()
            .and_then(|f| RpcHeader::decode(f.header()).ok())
        {
            if hdr.kind == RpcKind::Request && hdr.frame_idx == 0 {
                tracer.record(
                    hdr.connection_id.raw(),
                    hdr.rpc_id.raw(),
                    RpcEvent::TxEnqueue,
                );
            }
        }
    }

    /// Drains the RX ring once, moving completed responses into the ready
    /// buffer. Returns how many responses completed.
    pub fn poll_once(&self) -> usize {
        let mut rx = self.rx.lock();
        let mut completed = 0;
        while let Some(line) = rx.consumer.try_pop() {
            match rx.reassembler.push(line) {
                Ok(Some(rpc)) if rpc.header.kind == RpcKind::Response => {
                    let key = (rpc.header.connection_id.raw(), rpc.header.rpc_id.raw());
                    if rpc.header.offloaded {
                        rx.offload_served += 1;
                    }
                    if rx.abandoned.remove(&key) {
                        // The caller timed out and gave up on this response;
                        // drop it so it never parks in `ready` forever.
                        rx.late_drops += 1;
                        continue;
                    }
                    self.telemetry
                        .tracer()
                        .record(key.0, key.1, RpcEvent::ResponseComplete);
                    rx.ready.insert(key, rpc);
                    completed += 1;
                }
                // Requests on a client endpoint or malformed frames are
                // dropped; the NIC's monitor counts wire-level drops.
                Ok(_) | Err(_) => {}
            }
        }
        completed
    }

    /// Takes the response for a specific call, if it has arrived.
    pub fn try_take(&self, cid: ConnectionId, rpc_id: RpcId) -> Option<CompleteRpc> {
        self.rx.lock().ready.remove(&(cid.raw(), rpc_id.raw()))
    }

    /// Non-blocking completion check for one call: drains the RX ring, and
    /// if the response is not there yet gives the flow's engine one step
    /// before looking again.
    pub fn poll_for(&self, cid: ConnectionId, rpc_id: RpcId) -> Option<CompleteRpc> {
        self.poll_once();
        self.try_take(cid, rpc_id).or_else(|| {
            if !self.engine.step() {
                return None;
            }
            self.poll_once();
            self.try_take(cid, rpc_id)
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

    /// Polls until the response for `(cid, rpc_id)` arrives or `timeout`
    /// elapses, driving the flow's engine queue between polls. A response
    /// already buffered is returned without stepping.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Timeout`] if the response does not arrive in
    /// time.
    pub fn wait_for(
        &self,
        cid: ConnectionId,
        rpc_id: RpcId,
        timeout: Duration,
    ) -> Result<CompleteRpc> {
        let deadline = Instant::now() + timeout;
        let mut wait = HostWait::new(&self.engine);
        loop {
            self.poll_once();
            if let Some(rpc) = self.try_take(cid, rpc_id) {
                return Ok(rpc);
            }
            if Instant::now() >= deadline {
                return Err(DaggerError::Timeout);
            }
            wait.idle();
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
    use crate::frag::fragment;
    use dagger_nic::ring;
    use dagger_types::FnId;

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

    #[test]
    fn send_frames_lands_in_tx_ring() {
        let (ep, mut tx_c, _rx_p) = test_endpoint();
        let frames = response_frames(1, 1, b"abc");
        ep.send_frames(&frames, Instant::now() + Duration::from_secs(1))
            .unwrap();
        assert!(tx_c.try_pop().is_some());
    }

    #[test]
    fn send_times_out_on_persistently_full_ring() {
        let (ep, _tx_c, _rx_p) = test_endpoint();
        let frames = response_frames(1, 1, &[0u8; 40]);
        // Fill the 64-slot ring without draining it.
        for i in 0..64 {
            ep.send_frames(
                &response_frames(1, i, &[0u8; 40]),
                Instant::now() + Duration::from_secs(1),
            )
            .unwrap();
        }
        let err = ep
            .send_frames(&frames, Instant::now() + Duration::from_millis(20))
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
    fn wait_for_times_out() {
        let (ep, _tx_c, _rx_p) = test_endpoint();
        let err = ep
            .wait_for(ConnectionId(1), RpcId(1), Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(err, DaggerError::Timeout);
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

        let request = fragment(
            ConnectionId(7),
            RpcId(11),
            FnId(1),
            FlowId(0),
            RpcKind::Request,
            b"ping",
        )
        .unwrap();
        ep.send_frames(&request, Instant::now() + Duration::from_secs(1))
            .unwrap();
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
