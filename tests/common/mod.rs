//! Shared harness for the backend-parameterized transport conformance
//! suite: everything here is generic over the [`Fabric`] seam, so the same
//! assertions run against the in-process switch ([`MemFabric`]) and real
//! sockets ([`UdpFabric`]) without modification.
//!
//! The invariants a conforming backend must uphold (with the reliable
//! transport enabled above it):
//!
//! * **byte-exact exactly-once** — every RPC's response echoes its payload
//!   byte for byte, matched to its caller, and the server handler fires
//!   exactly once per call (the transport absorbs whatever the wire loses,
//!   duplicates, or reorders);
//! * **per-flow FIFO** — pipelined calls from one client are dispatched at
//!   the server in issue order (the per-`(peer, queue)` sequence spaces of
//!   §4.5 plus in-order flow FIFOs);
//! * **drained-telemetry reconciliation** — after all engines stop, the
//!   exported `nic.*` gauges equal the packet monitors' own counters and
//!   the fabric reports nothing in flight once quiesced.
//!
//! [`ReliablePair`] is the other shared piece: the single-threaded
//! two-endpoint driver of the reliable-transport state machine that the
//! chaos and property suites run their loss scenarios through.

#![allow(dead_code)]

use std::sync::{Arc, Mutex};
use std::time::Duration;

use dagger::idl::{dagger_message, dagger_service};
use dagger::nic::reliable::{FrameView, ReliableConfig, ReliableStats, ReliableTransport};
use dagger::nic::transport::Datagram;
use dagger::nic::{Fabric, FabricPort, FaultPlan, MemFabric, Nic};
use dagger::rpc::{RpcClientPool, RpcThreadedServer};
use dagger::telemetry::Telemetry;
use dagger::types::{CacheLine, DaggerError, HardConfig, NodeAddr, Result};

dagger_message! {
    pub struct Conf {
        client: u32,
        seq: u32,
        body: Vec<u8>,
    }
}

dagger_service! {
    pub service Conform {
        handler = ConformHandler;
        dispatch = ConformDispatch;
        client = ConformClient;
        rpc echo(Conf) -> Conf = 1, async = echo_async;
    }
}

/// Echo implementation that records `(client, seq)` arrival order — the
/// server-side evidence for the exactly-once and per-flow FIFO checks.
pub struct RecordingEcho(pub Arc<Mutex<Vec<(u32, u32)>>>);

impl ConformHandler for RecordingEcho {
    fn echo(&self, request: Conf) -> Result<Conf> {
        self.0.lock().unwrap().push((request.client, request.seq));
        Ok(request)
    }
}

/// The rotating chaos seed: `RUST_SEED` from the environment (CI pins 1, 7
/// and 42 and passes the run id), or a fixed default for plain local runs.
pub fn env_seed() -> u64 {
    std::env::var("RUST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

pub fn reliable_cfg() -> HardConfig {
    HardConfig::builder().reliable(true).build().unwrap()
}

/// Deterministic multi-line payload for client `client`'s call `seq`.
pub fn body_for(client: u32, seq: u32) -> Vec<u8> {
    (0..96u32)
        .map(|i| (i.wrapping_mul(31) ^ seq.wrapping_mul(7) ^ client) as u8)
        .collect()
}

/// How many async calls a client keeps in flight at once. Deep enough that
/// the per-flow FIFO check exercises real pipelining (several requests
/// queued behind each other in the TX ring and the send window), shallow
/// enough to stay clear of ring capacity.
const PIPELINE_DEPTH: usize = 8;

/// Runs the full conformance scenario against `fabric` and panics (with
/// `label` in the message) if any invariant fails.
///
/// `n_clients` clients, each on its own NIC, issue `calls` pipelined async
/// echoes to one server NIC; all NICs share one telemetry hub so the final
/// reconciliation sweep sees every side.
pub fn run_conformance(label: &str, fabric: &dyn Fabric, n_clients: u32, calls: u32) {
    run_conformance_batched(label, fabric, n_clients, calls, 1);
}

/// [`run_conformance`] with every NIC's CCI-P batch size set to `batch`
/// right after start: the same invariants must hold when the engine stages,
/// encodes, and submits `batch` frames per flow per round through the
/// batched `send_many` doorbell instead of one at a time.
pub fn run_conformance_batched(
    label: &str,
    fabric: &dyn Fabric,
    n_clients: u32,
    calls: u32,
    batch: u8,
) {
    let telemetry = Telemetry::new();
    let arrivals = Arc::new(Mutex::new(Vec::new()));

    let server_nic =
        Nic::start_with_telemetry(fabric, NodeAddr(1), reliable_cfg(), Arc::clone(&telemetry))
            .unwrap_or_else(|e| panic!("[{label}] server start: {e}"));
    server_nic
        .softregs()
        .set_batch_size(batch)
        .unwrap_or_else(|e| panic!("[{label}] server batch_size {batch}: {e}"));
    let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
    server
        .register_service(Arc::new(ConformDispatch::new(RecordingEcho(Arc::clone(
            &arrivals,
        )))))
        .unwrap();
    server.start().unwrap();

    let mut client_nics = Vec::new();
    let mut pools = Vec::new();
    for c in 0..n_clients {
        let nic = Nic::start_with_telemetry(
            fabric,
            NodeAddr(100 + c),
            reliable_cfg(),
            Arc::clone(&telemetry),
        )
        .unwrap_or_else(|e| panic!("[{label}] client {c} start: {e}"));
        nic.softregs()
            .set_batch_size(batch)
            .unwrap_or_else(|e| panic!("[{label}] client {c} batch_size {batch}: {e}"));
        let pool = RpcClientPool::connect(Arc::clone(&nic), NodeAddr(1), 1)
            .unwrap_or_else(|e| panic!("[{label}] client {c} connect: {e}"));
        client_nics.push(nic);
        pools.push(pool);
    }

    // Pipelined issue: each client keeps PIPELINE_DEPTH async calls in
    // flight, asserting byte-exact echoes matched to the right caller.
    let workers: Vec<_> = pools
        .iter()
        .enumerate()
        .map(|(c, pool)| {
            let c = c as u32;
            let raw = pool.client(0).unwrap();
            raw.set_timeout(Duration::from_secs(30));
            let client = ConformClient::new(raw);
            let label = label.to_string();
            std::thread::spawn(move || {
                let mut window = Vec::with_capacity(PIPELINE_DEPTH);
                for seq in 0..calls {
                    let pending = client
                        .echo_async(&Conf {
                            client: c,
                            seq,
                            body: body_for(c, seq),
                        })
                        .unwrap_or_else(|e| panic!("[{label}] client {c} issue {seq} failed: {e}"));
                    window.push((seq, pending));
                    if window.len() == PIPELINE_DEPTH {
                        drain_window(&label, c, &mut window);
                    }
                }
                drain_window(&label, c, &mut window);
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // No stranded responses in any completion queue.
    for (c, pool) in pools.iter().enumerate() {
        let ready = pool.client(0).unwrap().endpoint().ready_len();
        assert_eq!(
            ready, 0,
            "[{label}] client {c}: {ready} responses stuck in queue"
        );
    }

    server.stop();
    drop(pools);
    for nic in client_nics.iter() {
        nic.shutdown();
    }
    server_nic.shutdown();

    // Exactly-once at the handler: one dispatch per issued call, no
    // duplicates surviving the transport, none lost.
    let arrivals = arrivals.lock().unwrap();
    assert_eq!(
        arrivals.len(),
        (n_clients * calls) as usize,
        "[{label}] handler fired {} times for {} calls",
        arrivals.len(),
        n_clients * calls
    );

    // Per-flow FIFO: each client's dispatch subsequence is exactly its
    // issue order 0..calls (clients may interleave with each other).
    for c in 0..n_clients {
        let seqs: Vec<u32> = arrivals
            .iter()
            .filter(|(cl, _)| *cl == c)
            .map(|&(_, seq)| seq)
            .collect();
        let expect: Vec<u32> = (0..calls).collect();
        assert_eq!(
            seqs, expect,
            "[{label}] client {c}: server dispatch order broke per-flow FIFO"
        );
    }

    // Drained fabric: quiesce is idempotent after shutdown (the NICs
    // already quiesced on their stop path) and nothing stays in flight.
    fabric.quiesce();
    assert_eq!(
        fabric.in_flight(),
        0,
        "[{label}] fabric still reports frames in flight after quiesce"
    );

    // Telemetry reconciliation: with every engine stopped the exported
    // gauges must equal the monitors' own quiescent counters, for every
    // NIC on the shared hub.
    let snap = telemetry.snapshot();
    for nic in client_nics.iter().chain(std::iter::once(&server_nic)) {
        let mon = nic.monitor().snapshot();
        let prefix = format!("nic.{}", nic.addr().raw());
        for (gauge, expect) in [
            ("tx_frames", mon.tx_frames),
            ("rx_frames", mon.rx_frames),
            ("tx_datagrams", mon.tx_datagrams),
            ("rx_datagrams", mon.rx_datagrams),
        ] {
            assert_eq!(
                snap.registry.gauge(&format!("{prefix}.{gauge}")),
                Some(expect),
                "[{label}] {prefix}.{gauge} diverges from the packet monitor"
            );
        }
    }
}

/// Waits out a window of pending async calls, checking each echo.
fn drain_window(label: &str, c: u32, window: &mut Vec<(u32, dagger::rpc::TypedCall<Conf>)>) {
    for (seq, pending) in window.drain(..) {
        let resp = pending
            .wait()
            .unwrap_or_else(|e| panic!("[{label}] client {c} call {seq} failed: {e}"));
        assert_eq!(
            resp.client, c,
            "[{label}] client {c} call {seq}: response cross-wired to another client"
        );
        assert_eq!(
            resp.seq, seq,
            "[{label}] client {c}: response for wrong call"
        );
        assert_eq!(
            resp.body,
            body_for(c, seq),
            "[{label}] client {c} call {seq}: payload mangled"
        );
    }
}

/// 1-line datagram payloads tagged `0..total` (little-endian u16).
pub fn tagged_lines(total: u16) -> Vec<CacheLine> {
    let line = |tag: u16| {
        let mut raw = [0u8; 64];
        raw[..2].copy_from_slice(&tag.to_le_bytes());
        CacheLine::from_bytes(raw)
    };
    (0..total).map(line).collect()
}

/// The data frame `(seq, ack)` carrying `datagram` from sender queue 0.
pub fn data_frame(seq: u64, ack: u64, datagram: &Datagram) -> FrameView<&Datagram> {
    FrameView::Data {
        seq,
        ack,
        src_queue: 0,
        dst_queue: 0,
        datagram,
    }
}

/// The wire bytes of `frame`.
pub fn encoded(frame: FrameView<&Datagram>) -> Vec<u8> {
    let mut out = Vec::new();
    frame.encode_into(&mut out);
    out
}

/// `(seq, ack, src_queue, datagram)` of an encoded data frame, its datagram
/// parsed the way `on_recv` parses it.
pub fn decode_data(bytes: &[u8]) -> Result<(u64, u64, u16, Datagram)> {
    match FrameView::decode(bytes)? {
        FrameView::Data {
            seq,
            ack,
            src_queue,
            datagram,
            ..
        } => Ok((seq, ack, src_queue, Datagram::decode(datagram)?)),
        other => Err(DaggerError::Wire(format!("not a data frame: {other:?}"))),
    }
}

/// Two reliable-transport endpoints — sender A at address 1, receiver B at
/// address 2 — over a [`MemFabric`], driven single-threaded through exactly
/// the calls the engine makes: `on_send_encode_to`, `on_recv` +
/// `next_ready`, `on_tick_with` + `encode_into`, `drain_retired`. Without
/// threads the whole fault pipeline — drop, duplicate, corrupt, reorder,
/// delay — is event-deterministic, so a seed fixes every counter.
pub struct ReliablePair {
    pub fabric: MemFabric,
    pa: Arc<dyn FabricPort>,
    pb: Arc<dyn FabricPort>,
    pub a: ReliableTransport,
    pub b: ReliableTransport,
    /// Every line B delivered up the stack, in delivery order.
    pub delivered: Vec<CacheLine>,
    /// A's first transmissions to lose before they reach the fabric: entry
    /// `i` decides the `i`-th datagram sent (absent entries pass).
    pub lose: Vec<bool>,
}

impl ReliablePair {
    pub fn new(plan: FaultPlan, cfg: ReliableConfig) -> Self {
        let fabric = MemFabric::with_faults(plan);
        let port = |addr| fabric.attach_queues(NodeAddr(addr), 1).unwrap().remove(0);
        ReliablePair {
            pa: port(1),
            pb: port(2),
            fabric,
            a: ReliableTransport::new(NodeAddr(1), cfg),
            b: ReliableTransport::new(NodeAddr(2), cfg),
            delivered: Vec::new(),
            lose: Vec::new(),
        }
    }

    /// Ships `lines` from A to B, one datagram per line, offering at most
    /// `burst` new datagrams per round to A's window, until B has delivered
    /// them all and A has nothing left to repair; then releases what the
    /// fabric still holds and absorbs the stragglers, so every counter is
    /// final. One round is one deterministic sequence of events: send,
    /// drain B (delivering), tick B (acks), drain A (acks), tick A
    /// (retransmissions).
    pub fn run(&mut self, label: &str, lines: &[CacheLine], burst: usize) {
        let lose = std::mem::take(&mut self.lose);
        let mut offered = lines
            .iter()
            .map(|&line| Datagram::new(NodeAddr(1), NodeAddr(2), vec![line]))
            .zip(lose.into_iter().chain(std::iter::repeat(false)));
        let mut deferred = None;
        let mut rounds = 0u32;
        while self.delivered.len() < lines.len() || !self.a.is_idle() {
            rounds += 1;
            assert!(
                rounds < 400_000,
                "[{label}] driver wedged at {}/{} deliveries",
                self.delivered.len(),
                lines.len()
            );
            for _ in 0..burst {
                let Some((dgram, lost)) = deferred.take().or_else(|| offered.next()) else {
                    break;
                };
                let mut out = Vec::new();
                match self.a.on_send_encode_to(dgram, 0, &mut out) {
                    Ok(()) if lost => {}
                    Ok(()) => self.pa.send_to(NodeAddr(2), 0, out).unwrap(),
                    Err(dgram) => {
                        // Window full: retry next round, like `pending_out`.
                        deferred = Some((dgram, lost));
                        break;
                    }
                }
            }
            self.drain_b();
            Self::tick(&mut self.b, &*self.pb);
            self.drain_a();
            Self::tick(&mut self.a, &*self.pa);
        }
        // Releasing held frames consumes no fault randomness.
        self.fabric.quiesce();
        self.drain_b();
        self.drain_a();
    }

    /// The engine's RX round at B: every arrival, then its gap-fill run.
    fn drain_b(&mut self) {
        while let Some(bytes) = self.pb.try_recv() {
            let first = self.b.on_recv(&bytes).ok().flatten();
            let run = std::iter::from_fn(|| self.b.next_ready());
            for dgram in first.into_iter().chain(run) {
                self.delivered.extend(dgram.lines);
            }
        }
    }

    fn drain_a(&mut self) {
        while let Some(bytes) = self.pa.try_recv() {
            let _ = self.a.on_recv(&bytes);
        }
    }

    /// The engine's transport tick: recycle, then ship what the timers emit.
    fn tick(t: &mut ReliableTransport, port: &dyn FabricPort) {
        t.drain_retired(drop);
        t.on_tick_with(|frame| {
            port.send_to(frame.dst(), frame.dst_queue(), encoded(frame))
                .unwrap();
        });
    }

    /// `(A's, B's)` transport counters.
    pub fn stats(&self) -> (ReliableStats, ReliableStats) {
        (
            self.a.shared_stats().snapshot(),
            self.b.shared_stats().snapshot(),
        )
    }
}
