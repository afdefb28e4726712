//! Workload definitions and the stack each one runs on: fabric, two NICs,
//! server, one connection. Building a [`Stack`] is what `setup_s` times.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dagger_kvs::server::{KvGetRequest, KvGetResponse, KvSetRequest, KvSetResponse};
use dagger_kvs::{KvStoreClient, KvStoreDispatch, Memcached, MemcachedPort};
use dagger_ledger::gen::{EchoGen, KvGen, KvOp};
use dagger_ledger::json::{obj, Value};
use dagger_ledger::span::Interval;
use dagger_nic::{Fabric, MemFabric, Nic, UdpFabric};
use dagger_rpc::{
    RpcClient, RpcClientPool, RpcService, RpcThreadedServer, ServiceDescriptor, Wire,
};
use dagger_telemetry::Telemetry;
use dagger_types::config::MAX_BATCH;
use dagger_types::{FnId, HardConfig, NodeAddr, Result};
use parking_lot::Mutex;

/// The echo service, through the same IDL macros applications use.
pub mod echo_idl {
    // The load loop drives the untyped client so that it can put spans
    // around serialization and issue separately; the typed stub the macro
    // also generates goes unused.
    #![allow(dead_code)]
    use dagger_idl::{dagger_message, dagger_service};

    dagger_message! {
        /// Echo request and reply: a sequence number and an opaque blob.
        pub struct Echo {
            seq: u32,
            blob: Vec<u8>,
        }
    }

    dagger_service! {
        /// Returns its argument.
        pub service EchoSvc {
            handler = EchoHandler;
            dispatch = EchoDispatch;
            client = EchoClient;
            rpc echo(Echo) -> Echo = 1, async = echo_async;
        }
    }

    /// The handler.
    pub struct EchoImpl;
    impl EchoHandler for EchoImpl {
        fn echo(&self, request: Echo) -> dagger_types::Result<Echo> {
            Ok(request)
        }
    }
}
use echo_idl::{Echo, EchoDispatch, EchoImpl};

/// Function ids of the two services.
pub const FN_ECHO: FnId = FnId(1);
pub const FN_GET: FnId = FnId(1);
pub const FN_SET: FnId = FnId(2);

const SERVER: NodeAddr = NodeAddr(1);
const CLIENT: NodeAddr = NodeAddr(2);

/// Bytes of an [`Echo`] on the wire beyond its blob (`seq` + length
/// prefix).
const ECHO_OVERHEAD: usize = 8;

/// KVS dataset: the paper's *small* item shape, scaled to a key count the
/// box populates in a couple of milliseconds, against a NIC cache of 8192
/// entries (it still evicts: the keys outnumber it). ~82 % of `kvs_read`'s
/// GETs hit, so ~78 % of its RPCs are NIC-served and the median RPC sits
/// well inside the NIC-served mode; `kvs_write`'s SETs invalidate, a third
/// of its GETs hit, and its median RPC is server-served.
///
/// ISSUE 12 specified 1024 entries. Then 60 % of `kvs_read`'s RPCs are
/// NIC-served, the median RPC is the 83rd percentile of the hit mode, and
/// whether it reads as a hit (~7 us) or a miss (~9.5 us) turns on how busy
/// the host is: in two alternating ten-run sets `rtt_p50_us` spread 10.7 %
/// and 29.1 % at 1024 against 2.3 % and 8.2 % at 8192 (README, "Workloads").
pub const KVS_KEYS: usize = 10_000;
pub const KVS_SKEW: f64 = 0.99;
pub const KVS_CACHE_ENTRIES: u32 = 8192;

/// Which fabric backend carries the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricKind {
    /// `MemFabric`: in-process queues.
    Mem,
    /// `UdpFabric` with both NICs in this process: real sockets and
    /// syscalls over the host's loopback interface, not a link.
    UdpLoopback,
}

impl FabricKind {
    pub fn label(self) -> &'static str {
        match self {
            FabricKind::Mem => "mem",
            FabricKind::UdpLoopback => "udp-loopback (both NICs in one process; not a link)",
        }
    }
}

/// What the client sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Echo of `wire_bytes` bytes (the serialized request size).
    Echo { wire_bytes: usize },
    /// KVS mix with `get_permille` GETs per thousand operations.
    Kvs { get_permille: u32 },
}

/// One workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Closed-loop window: calls kept in flight by the one load thread.
    pub window: usize,
    pub reliable: bool,
    pub fabric: FabricKind,
}

/// What each workload `BENCHMARK.json` names runs; that file fixes which
/// of them run and in what order.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "echo_sync",
        kind: Kind::Echo { wire_bytes: 32 },
        window: 1,
        reliable: false,
        fabric: FabricKind::Mem,
    },
    Spec {
        name: "echo_pipe_rel",
        kind: Kind::Echo { wire_bytes: 32 },
        window: 16,
        reliable: true,
        fabric: FabricKind::Mem,
    },
    Spec {
        name: "bulk_udp",
        kind: Kind::Echo { wire_bytes: 2048 },
        window: 4,
        reliable: true,
        fabric: FabricKind::UdpLoopback,
    },
    Spec {
        name: "kvs_read",
        kind: Kind::Kvs { get_permille: 950 },
        window: 1,
        reliable: false,
        fabric: FabricKind::Mem,
    },
    Spec {
        name: "kvs_write",
        kind: Kind::Kvs { get_permille: 500 },
        window: 1,
        reliable: false,
        fabric: FabricKind::Mem,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    pub fn is_kvs(&self) -> bool {
        matches!(self.kind, Kind::Kvs { .. })
    }

    /// The hard configuration: the default shape, plus the reliable bit.
    pub fn hard_config(&self) -> HardConfig {
        HardConfig {
            reliable: self.reliable,
            ..HardConfig::default()
        }
    }

    /// Hard and soft configuration as recorded in `meta`.
    pub fn config_json(&self) -> Value {
        let hc = self.hard_config();
        obj([
            ("window", Value::from(self.window)),
            ("fabric", Value::from(self.fabric.label())),
            (
                "hard",
                obj([
                    ("num_flows", Value::from(hc.num_flows)),
                    ("num_queues", Value::from(hc.num_queues)),
                    ("tx_ring_capacity", Value::from(hc.tx_ring_capacity)),
                    ("rx_ring_capacity", Value::from(hc.rx_ring_capacity)),
                    ("conn_cache_entries", Value::from(hc.conn_cache_entries)),
                    ("iface", Value::from(hc.iface.label())),
                    ("reliable", Value::from(hc.reliable)),
                ]),
            ),
            (
                "soft",
                obj([
                    ("batch_size", Value::from(u64::from(MAX_BATCH))),
                    ("auto_batch", Value::from(true)),
                    ("nic_serde", Value::from(self.is_kvs())),
                    (
                        "offload.cache_entries",
                        Value::from(if self.is_kvs() {
                            u64::from(KVS_CACHE_ENTRIES)
                        } else {
                            0
                        }),
                    ),
                ]),
            ),
        ])
    }
}

/// The concrete fabric, kept for its backend-specific counters.
#[derive(Debug)]
pub enum FabricHandle {
    Mem(MemFabric),
    Udp(UdpFabric),
}

impl FabricHandle {
    pub fn new(kind: FabricKind) -> Self {
        match kind {
            FabricKind::Mem => FabricHandle::Mem(MemFabric::new()),
            FabricKind::UdpLoopback => FabricHandle::Udp(UdpFabric::new()),
        }
    }

    pub fn as_dyn(&self) -> &dyn Fabric {
        match self {
            FabricHandle::Mem(f) => f,
            FabricHandle::Udp(f) => f,
        }
    }

    /// `(mem dropped_frames, udp tx_errors, udp rx_overflow, udp
    /// rx_malformed)`; the other backend's slots read 0.
    pub fn counters(&self) -> [u64; 4] {
        match self {
            FabricHandle::Mem(f) => [f.dropped_frames(), 0, 0, 0],
            FabricHandle::Udp(f) => [0, f.tx_errors(), f.rx_overflow(), f.rx_malformed()],
        }
    }
}

/// Server-side spans: a wrapper the harness owns around the registered
/// service, recording one interval per handler invocation while switched
/// on. Echo requests lead with their sequence number, which parents the
/// span; KVS spans are parented by time containment.
pub struct TimedService {
    inner: Arc<dyn RpcService>,
    rec: Arc<HandlerRecorder>,
}

/// Where [`TimedService`] records.
pub struct HandlerRecorder {
    on: AtomicBool,
    epoch: Instant,
    seq_in_payload: bool,
    spans: Mutex<Vec<(Interval, u32)>>,
}

impl HandlerRecorder {
    fn new(epoch: Instant, seq_in_payload: bool) -> Self {
        HandlerRecorder {
            on: AtomicBool::new(false),
            epoch,
            seq_in_payload,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts recording into a buffer of `capacity` spans (allocated here,
    /// not on the serving path).
    pub fn enable(&self, capacity: usize) {
        self.spans.lock().reserve_exact(capacity);
        self.on.store(true, Ordering::Relaxed);
    }

    /// Takes the spans recorded since the last call, keeping the buffer's
    /// capacity for the next segment.
    pub fn drain_into(&self, out: &mut Vec<(Interval, u32)>) {
        out.clear();
        out.extend(self.spans.lock().drain(..));
    }
}

impl RpcService for TimedService {
    fn descriptor(&self) -> ServiceDescriptor {
        self.inner.descriptor()
    }

    fn dispatch(&self, fn_id: FnId, payload: &[u8]) -> Result<Vec<u8>> {
        if !self.rec.on.load(Ordering::Relaxed) {
            return self.inner.dispatch(fn_id, payload);
        }
        let start = self.rec.epoch.elapsed();
        let out = self.inner.dispatch(fn_id, payload);
        let end = self.rec.epoch.elapsed();
        let seq = match payload.get(..4) {
            Some(b) if self.rec.seq_in_payload => {
                u32::from_le_bytes(b.try_into().expect("4 bytes"))
            }
            _ => u32::MAX,
        };
        let mut spans = self.rec.spans.lock();
        if spans.len() < spans.capacity() {
            spans.push((
                Interval {
                    start: start.as_nanos() as u64,
                    end: end.as_nanos() as u64,
                },
                seq,
            ));
        }
        out
    }
}

/// A running client/server pair for one workload.
pub struct Stack {
    pub spec: &'static Spec,
    pub telemetry: Arc<Telemetry>,
    pub fabric: FabricHandle,
    pub server_nic: Arc<Nic>,
    pub client_nic: Arc<Nic>,
    pub server: RpcThreadedServer,
    pool: RpcClientPool,
    pub client: Arc<RpcClient>,
    pub store: Option<Arc<Memcached>>,
    pub handler_spans: Arc<HandlerRecorder>,
    /// Shared time base of client- and server-side spans.
    pub epoch: Instant,
}

impl Stack {
    /// Cold construction — everything `setup_s` times: store populated
    /// (KVS), fabric and two NICs started, service registered and server
    /// started, connection opened, first RPC verified.
    pub fn build(spec: &'static Spec, inputs: &mut Inputs) -> Result<Stack> {
        let epoch = Instant::now();
        let store = match &*inputs {
            Inputs::Kvs(gen) => {
                let store = Memcached::new(1 << 24, 8);
                for id in 0..gen.keys() as u32 {
                    store.set(&gen.key(id), &gen.value(id, 0));
                }
                Some(Arc::new(store))
            }
            Inputs::Echo(_) => None,
        };

        let telemetry = Telemetry::new();
        let fabric = FabricHandle::new(spec.fabric);
        let cfg = spec.hard_config();
        let server_nic = Nic::start_with_telemetry(
            fabric.as_dyn(),
            SERVER,
            cfg.clone(),
            Arc::clone(&telemetry),
        )?;
        let client_nic =
            Nic::start_with_telemetry(fabric.as_dyn(), CLIENT, cfg, Arc::clone(&telemetry))?;
        for nic in [&server_nic, &client_nic] {
            nic.softregs().set_batch_size(MAX_BATCH)?;
            nic.softregs().set_auto_batch(true);
        }

        let handler_spans = Arc::new(HandlerRecorder::new(epoch, !spec.is_kvs()));
        let service: Arc<dyn RpcService> = match &store {
            None => Arc::new(EchoDispatch::new(EchoImpl)),
            Some(store) => {
                let offload = KvStoreClient::offload_spec().expect("KvStore messages are flat");
                assert!(
                    server_nic.configure_offload(offload),
                    "offload spec installs once"
                );
                server_nic.softregs().set_nic_serde(true);
                server_nic
                    .softregs()
                    .set_offload_cache_entries(KVS_CACHE_ENTRIES);
                Arc::new(KvStoreDispatch::new(MemcachedPort::new(Arc::clone(store))))
            }
        };
        let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
        server.register_service(Arc::new(TimedService {
            inner: service,
            rec: Arc::clone(&handler_spans),
        }))?;
        server.start()?;

        let pool = RpcClientPool::connect(Arc::clone(&client_nic), SERVER, 1)?;
        let client = pool.client(0)?;
        client.set_timeout(CALL_TIMEOUT);

        let stack = Stack {
            spec,
            telemetry,
            fabric,
            server_nic,
            client_nic,
            server,
            pool,
            client,
            store,
            handler_spans,
            epoch,
        };
        let first = inputs.next_request();
        let reply = stack.client.call_sync(first.fn_id, &first.bytes)?;
        if !inputs.verify(&first.expect, &reply) {
            return Err(dagger_types::DaggerError::Wire(
                "first RPC returned the wrong bytes".to_string(),
            ));
        }
        Ok(stack)
    }

    /// Nanoseconds since the stack's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Stops the server, closes the connection, shuts both NICs down.
    pub fn teardown(mut self) {
        self.server.stop();
        drop(self.client);
        drop(self.pool);
        self.client_nic.shutdown();
        self.server_nic.shutdown();
    }
}

/// Per-call deadline. Medians here are tens to hundreds of microseconds; a
/// call that takes a second has failed, and the pass stops on the first
/// such failure rather than waiting out a window of them.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(1);

/// What a reply must contain.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    Echo { seq: u32 },
    Get { key_id: u32, version: u64 },
    Set,
}

/// A generated request, serialized by the caller.
pub struct Request {
    pub fn_id: FnId,
    pub bytes: Vec<u8>,
    pub expect: Expect,
}

/// A generated request before serialization (what `rpc.wire.encode`
/// spans).
pub enum Message {
    Echo(Echo),
    Get(KvGetRequest),
    Set(KvSetRequest),
}

impl Message {
    pub fn fn_id(&self) -> FnId {
        match self {
            Message::Echo(_) => FN_ECHO,
            Message::Get(_) => FN_GET,
            Message::Set(_) => FN_SET,
        }
    }

    pub fn to_wire(&self) -> Vec<u8> {
        match self {
            Message::Echo(m) => m.to_wire(),
            Message::Get(m) => m.to_wire(),
            Message::Set(m) => m.to_wire(),
        }
    }
}

/// A parsed reply (what `rpc.wire.decode` spans).
pub enum Reply {
    Echo(Echo),
    Get(KvGetResponse),
    Set(KvSetResponse),
}

/// The seeded input stream of one workload, and the checker for its
/// replies. The stack never sees the seed — only what this produces.
pub enum Inputs {
    Echo(EchoStream),
    Kvs(KvGen),
}

pub struct EchoStream {
    gen: EchoGen,
    next_seq: u32,
}

impl Inputs {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        match spec.kind {
            Kind::Echo { wire_bytes } => Inputs::Echo(EchoStream {
                gen: EchoGen::new(seed, wire_bytes - ECHO_OVERHEAD),
                next_seq: 0,
            }),
            Kind::Kvs { get_permille } => {
                Inputs::Kvs(KvGen::new(seed, KVS_KEYS, KVS_SKEW, get_permille))
            }
        }
    }

    /// Draws the next request as a typed message.
    pub fn next_message(&mut self) -> (Message, Expect) {
        match self {
            Inputs::Echo(s) => {
                let seq = s.next_seq;
                s.next_seq = s.next_seq.wrapping_add(1);
                let msg = Echo {
                    seq,
                    blob: s.gen.blob(seq).to_vec(),
                };
                (Message::Echo(msg), Expect::Echo { seq })
            }
            Inputs::Kvs(gen) => {
                let KvOp {
                    key_id,
                    is_get,
                    version,
                } = gen.next_op();
                let key = gen.key(key_id).to_vec();
                if is_get {
                    (
                        Message::Get(KvGetRequest { key }),
                        Expect::Get { key_id, version },
                    )
                } else {
                    let value = gen.value(key_id, version).to_vec();
                    (Message::Set(KvSetRequest { key, value }), Expect::Set)
                }
            }
        }
    }

    /// Draws and serializes the next request.
    pub fn next_request(&mut self) -> Request {
        let (msg, expect) = self.next_message();
        Request {
            fn_id: msg.fn_id(),
            bytes: msg.to_wire(),
            expect,
        }
    }

    /// Parses a reply payload as the type `expect` calls for.
    pub fn decode(expect: &Expect, bytes: &[u8]) -> Result<Reply> {
        Ok(match expect {
            Expect::Echo { .. } => Reply::Echo(Echo::from_wire(bytes)?),
            Expect::Get { .. } => Reply::Get(KvGetResponse::from_wire(bytes)?),
            Expect::Set => Reply::Set(KvSetResponse::from_wire(bytes)?),
        })
    }

    /// The correctness gate: echo replies byte-for-byte, GET values against
    /// the model's current version of the key, SETs acknowledged.
    pub fn check(&self, expect: &Expect, reply: &Reply) -> bool {
        match (self, expect, reply) {
            (Inputs::Echo(s), Expect::Echo { seq }, Reply::Echo(r)) => {
                r.seq == *seq && r.blob == s.gen.blob(*seq)
            }
            (Inputs::Kvs(gen), Expect::Get { key_id, version }, Reply::Get(r)) => {
                r.found && r.value == gen.value(*key_id, *version)
            }
            (Inputs::Kvs(_), Expect::Set, Reply::Set(r)) => r.ok,
            _ => false,
        }
    }

    /// Decode and check in one step.
    pub fn verify(&self, expect: &Expect, bytes: &[u8]) -> bool {
        Self::decode(expect, bytes).is_ok_and(|reply| self.check(expect, &reply))
    }

    /// True when a GET reply carries an older version than the model's: the
    /// specific failure the version stamps exist to expose.
    pub fn is_stale(expect: &Expect, reply: &Reply) -> bool {
        match (expect, reply) {
            (Expect::Get { version, .. }, Reply::Get(r)) => {
                KvGen::version_of(&r.value).is_some_and(|v| v < *version)
            }
            _ => false,
        }
    }
}
