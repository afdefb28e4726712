//! The functional 8-tier Flight Registration service (§5.7, Fig. 13).
//!
//! "The passenger front-end generates passenger registration requests to
//! the Check-in service. The Check-in service then consults the Flight
//! service for flight information, the Baggage service for the status of
//! the passenger's baggage, and the Passport service to check the
//! passenger's identity. The Passport service issues nested requests to the
//! Citizens database (based on MICA). Upon receiving all responses, the
//! Check-in service registers the passenger in the Airport database (also
//! based on MICA cache). The latter is additionally accessible by the Staff
//! front-end."
//!
//! Every tier runs as a real [`RpcThreadedServer`] over its own NIC on a
//! shared [`Fabric`] backend (the virtualized-NIC deployment of Fig. 14); the
//! dependency shapes — fan-out from Check-in, the Passport→Citizens chain,
//! many-to-one into Airport — and the per-tier threading models are all
//! exercised with real threads and real bytes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dagger_idl::{dagger_message, dagger_service};
use dagger_kvs::server::{KvGetRequest, KvSetRequest, KvStoreClient, KvStoreDispatch, MicaPort};
use dagger_kvs::Mica;
use dagger_nic::{Fabric, Nic};
use dagger_rpc::{RpcClientPool, RpcThreadedServer, ThreadingModel};
use dagger_telemetry::{ContextScope, SpanKind, Telemetry};
use dagger_types::{HardConfig, LbPolicy, NodeAddr, Result};

use crate::trace::Tracer;

dagger_message! {
    /// A passenger registration request.
    pub struct CheckInRequest {
        passenger_id: u64,
        flight: u32,
        bags: u8,
    }
}

dagger_message! {
    /// Registration outcome: `record` keys the Airport database entry.
    pub struct CheckInResponse {
        ok: bool,
        record: u64,
        seat: u16,
        gate: u16,
    }
}

dagger_message! {
    /// Flight information query.
    pub struct FlightInfoRequest {
        flight: u32,
        passenger_id: u64,
    }
}

dagger_message! {
    /// Assigned seat and gate.
    pub struct FlightInfoResponse {
        seat: u16,
        gate: u16,
    }
}

dagger_message! {
    /// Baggage check query.
    pub struct BagRequest {
        passenger_id: u64,
        bags: u8,
    }
}

dagger_message! {
    /// Number of bags accepted.
    pub struct BagResponse {
        checked: u8,
    }
}

dagger_message! {
    /// Passport verification query.
    pub struct PassportRequest {
        passenger_id: u64,
    }
}

dagger_message! {
    /// Identity verdict.
    pub struct PassportResponse {
        valid: bool,
    }
}

dagger_service! {
    /// The Check-in middle tier.
    pub service CheckIn {
        handler = CheckInApi;
        dispatch = CheckInDispatch;
        client = CheckInClient;
        rpc check_in(CheckInRequest) -> CheckInResponse = 10, async = check_in_async;
    }
}

dagger_service! {
    /// The Flight information tier.
    pub service FlightInfo {
        handler = FlightInfoApi;
        dispatch = FlightInfoDispatch;
        client = FlightInfoClient;
        rpc flight_info(FlightInfoRequest) -> FlightInfoResponse = 20, async = flight_info_async;
    }
}

dagger_service! {
    /// The Baggage tier.
    pub service Baggage {
        handler = BaggageApi;
        dispatch = BaggageDispatch;
        client = BaggageClient;
        rpc bag_status(BagRequest) -> BagResponse = 30, async = bag_status_async;
    }
}

dagger_service! {
    /// The Passport tier (issues nested Citizens-database reads).
    pub service Passport {
        handler = PassportApi;
        dispatch = PassportDispatch;
        client = PassportClient;
        rpc verify(PassportRequest) -> PassportResponse = 40, async = verify_async;
    }
}

/// Fabric addresses of the eight tiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightAddrs {
    /// Check-in service NIC.
    pub checkin: NodeAddr,
    /// Flight service NIC.
    pub flight: NodeAddr,
    /// Baggage service NIC.
    pub baggage: NodeAddr,
    /// Passport service NIC.
    pub passport: NodeAddr,
    /// Airport MICA cache NIC.
    pub airport: NodeAddr,
    /// Citizens MICA cache NIC.
    pub citizens: NodeAddr,
    /// Passenger front-end NIC.
    pub passenger_fe: NodeAddr,
    /// Staff front-end NIC.
    pub staff_fe: NodeAddr,
}

impl Default for FlightAddrs {
    fn default() -> Self {
        FlightAddrs {
            checkin: NodeAddr(11),
            flight: NodeAddr(12),
            baggage: NodeAddr(13),
            passport: NodeAddr(14),
            airport: NodeAddr(15),
            citizens: NodeAddr(16),
            passenger_fe: NodeAddr(17),
            staff_fe: NodeAddr(18),
        }
    }
}

/// Per-tier deployment configuration.
#[derive(Clone, Debug)]
pub struct FlightConfig {
    /// Tier addresses.
    pub addrs: FlightAddrs,
    /// Threading model for the Check-in tier (nested blocking fan-out).
    pub checkin_threading: ThreadingModel,
    /// Threading model for the Flight tier (the long-running bottleneck).
    pub flight_threading: ThreadingModel,
    /// Threading model for the Passport tier (nested blocking chain).
    pub passport_threading: ThreadingModel,
    /// Citizens records to preload.
    pub citizens: u64,
    /// Iterations of busy work the Flight tier performs per request
    /// (models its "resource-demanding" nature; keep small in tests).
    pub flight_work: u32,
}

impl FlightConfig {
    /// The paper's *Simple* model: every tier handles RPCs in dispatch
    /// threads.
    pub fn simple() -> Self {
        FlightConfig {
            addrs: FlightAddrs::default(),
            checkin_threading: ThreadingModel::Dispatch,
            flight_threading: ThreadingModel::Dispatch,
            passport_threading: ThreadingModel::Dispatch,
            citizens: 1_000,
            flight_work: 100,
        }
    }

    /// The paper's *Optimized* model: the Flight, Check-in, and Passport
    /// services run request processing in worker threads (§5.7).
    pub fn optimized(workers: usize) -> Self {
        FlightConfig {
            checkin_threading: ThreadingModel::Worker { workers },
            flight_threading: ThreadingModel::Worker { workers },
            passport_threading: ThreadingModel::Worker { workers },
            ..Self::simple()
        }
    }
}

struct FlightInfoHandler {
    tracer: Arc<Tracer>,
    work: u32,
    counter: AtomicU64,
}

impl FlightInfoApi for FlightInfoHandler {
    fn flight_info(&self, request: FlightInfoRequest) -> Result<FlightInfoResponse> {
        let req_no = self.counter.fetch_add(1, Ordering::Relaxed);
        let _span = self.tracer.start("Flight");
        // Deterministic busy work: the Flight tier is the compute-heavy one.
        let mut acc = u64::from(request.flight) | 1;
        for _ in 0..self.work {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(req_no);
        }
        Ok(FlightInfoResponse {
            seat: (acc % 300) as u16,
            gate: (acc / 300 % 40) as u16,
        })
    }
}

struct BaggageHandler {
    tracer: Arc<Tracer>,
}

impl BaggageApi for BaggageHandler {
    fn bag_status(&self, request: BagRequest) -> Result<BagResponse> {
        let _span = self.tracer.start("Baggage");
        Ok(BagResponse {
            checked: request.bags,
        })
    }
}

struct PassportHandler {
    tracer: Arc<Tracer>,
    citizens: KvStoreClient,
}

impl PassportApi for PassportHandler {
    fn verify(&self, request: PassportRequest) -> Result<PassportResponse> {
        let _span = self.tracer.start("Passport");
        // Nested blocking RPC into the Citizens MICA cache.
        let found = self
            .citizens
            .get(&KvGetRequest {
                key: request.passenger_id.to_le_bytes().to_vec(),
            })?
            .found;
        Ok(PassportResponse { valid: found })
    }
}

struct CheckInHandler {
    tracer: Arc<Tracer>,
    flight: FlightInfoClient,
    baggage: BaggageClient,
    passport: PassportClient,
    airport: KvStoreClient,
    records: AtomicU64,
}

impl CheckInApi for CheckInHandler {
    fn check_in(&self, request: CheckInRequest) -> Result<CheckInResponse> {
        let _span = self.tracer.start("CheckIn");
        // Non-blocking fan-out to the three mid tiers (§5.7)...
        let flight_call = self.flight.flight_info_async(&FlightInfoRequest {
            flight: request.flight,
            passenger_id: request.passenger_id,
        })?;
        let bag_call = self.baggage.bag_status_async(&BagRequest {
            passenger_id: request.passenger_id,
            bags: request.bags,
        })?;
        let passport_call = self.passport.verify_async(&PassportRequest {
            passenger_id: request.passenger_id,
        })?;
        // ...then block until all responses arrive...
        let flight_info = flight_call.wait()?;
        let bags = bag_call.wait()?;
        let passport = passport_call.wait()?;
        if !passport.valid || bags.checked != request.bags {
            return Ok(CheckInResponse {
                ok: false,
                record: 0,
                seat: 0,
                gate: 0,
            });
        }
        // ...and register the passenger in the Airport database (blocking).
        let record = self.records.fetch_add(1, Ordering::Relaxed) + 1;
        let mut value = Vec::with_capacity(16);
        value.extend_from_slice(&request.passenger_id.to_le_bytes());
        value.extend_from_slice(&u32::from(flight_info.seat).to_le_bytes());
        value.extend_from_slice(&u32::from(flight_info.gate).to_le_bytes());
        let stored = self
            .airport
            .set(&KvSetRequest {
                key: record.to_le_bytes().to_vec(),
                value,
            })?
            .ok;
        Ok(CheckInResponse {
            ok: stored,
            record,
            seat: flight_info.seat,
            gate: flight_info.gate,
        })
    }
}

/// The running 8-tier application.
pub struct FlightApp {
    tracer: Arc<Tracer>,
    telemetry: Arc<Telemetry>,
    addrs: FlightAddrs,
    passenger_checkin: CheckInClient,
    staff_airport: KvStoreClient,
    airport_store: Arc<Mica>,
    citizens_store: Arc<Mica>,
    servers: Vec<RpcThreadedServer>,
    nics: Vec<Arc<Nic>>,
    _pools: Vec<RpcClientPool>,
}

impl std::fmt::Debug for FlightApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightApp")
            .field("tiers", &self.servers.len())
            .finish()
    }
}

fn tier_nic(fabric: &dyn Fabric, addr: NodeAddr, telemetry: &Arc<Telemetry>) -> Result<Arc<Nic>> {
    let cfg = HardConfig::builder()
        .num_flows(8)
        .tx_ring_capacity(256)
        .rx_ring_capacity(256)
        .conn_cache_entries(1024)
        .build()?;
    Nic::start_with_telemetry(fabric, addr, cfg, Arc::clone(telemetry))
}

impl FlightApp {
    /// Deploys all eight tiers on `fabric` and waits until every tier is
    /// ready to serve.
    ///
    /// # Errors
    ///
    /// Returns an error if any NIC, server, or connection fails to come up.
    pub fn launch(fabric: &dyn Fabric, config: &FlightConfig) -> Result<FlightApp> {
        // One hub for all eight tiers: every NIC's collector, every
        // RPC-stage stamp, and every distributed-trace span lands in the
        // same registry and trace epoch. The §5.7 tier tracer records into
        // the same hub, so tier visits nest inside their server spans.
        let telemetry = Telemetry::new();
        let tracer = Tracer::new(Arc::clone(&telemetry));
        let a = config.addrs;
        let mut servers = Vec::new();
        let mut nics = Vec::new();
        let mut pools = Vec::new();

        // --- Backend caches (MICA), deployed first. ---
        let citizens_store = Arc::new(Mica::new(4, 1 << 12, 1 << 22));
        for id in 0..config.citizens {
            citizens_store.set(&id.to_le_bytes(), &[1u8]);
        }
        let citizens_nic = tier_nic(fabric, a.citizens, &telemetry)?;
        let mut citizens_server = RpcThreadedServer::new(Arc::clone(&citizens_nic), 1);
        citizens_server.register_service(Arc::new(KvStoreDispatch::new(MicaPort::new(
            Arc::clone(&citizens_store),
        ))))?;
        citizens_server.start()?;
        servers.push(citizens_server);
        nics.push(Arc::clone(&citizens_nic));

        let airport_store = Arc::new(Mica::new(4, 1 << 12, 1 << 22));
        let airport_nic = tier_nic(fabric, a.airport, &telemetry)?;
        let mut airport_server = RpcThreadedServer::new(Arc::clone(&airport_nic), 1);
        airport_server.register_service(Arc::new(KvStoreDispatch::new(MicaPort::new(
            Arc::clone(&airport_store),
        ))))?;
        airport_server.start()?;
        servers.push(airport_server);
        nics.push(Arc::clone(&airport_nic));

        // --- Leaf mid tiers. ---
        let flight_nic = tier_nic(fabric, a.flight, &telemetry)?;
        let mut flight_server =
            RpcThreadedServer::with_threading(Arc::clone(&flight_nic), 1, config.flight_threading);
        flight_server.register_service(Arc::new(FlightInfoDispatch::new(FlightInfoHandler {
            tracer: Arc::clone(&tracer),
            work: config.flight_work,
            counter: AtomicU64::new(0),
        })))?;
        flight_server.start()?;
        servers.push(flight_server);
        nics.push(Arc::clone(&flight_nic));

        let baggage_nic = tier_nic(fabric, a.baggage, &telemetry)?;
        let mut baggage_server = RpcThreadedServer::new(Arc::clone(&baggage_nic), 1);
        baggage_server.register_service(Arc::new(BaggageDispatch::new(BaggageHandler {
            tracer: Arc::clone(&tracer),
        })))?;
        baggage_server.start()?;
        servers.push(baggage_server);
        nics.push(Arc::clone(&baggage_nic));

        // --- Passport tier: serves `verify`, calls Citizens. ---
        let passport_nic = tier_nic(fabric, a.passport, &telemetry)?;
        let mut passport_server = RpcThreadedServer::with_threading(
            Arc::clone(&passport_nic),
            1,
            config.passport_threading,
        );
        // Dispatch flows must be claimed before client flows so the RX load
        // balancer targets them (flow 0..n).
        passport_server.prepare()?;
        let citizens_pool = RpcClientPool::connect_with(
            Arc::clone(&passport_nic),
            a.citizens,
            1,
            LbPolicy::ObjectLevel,
        )?;
        passport_server.register_service(Arc::new(PassportDispatch::new(PassportHandler {
            tracer: Arc::clone(&tracer),
            citizens: KvStoreClient::new(citizens_pool.client(0)?),
        })))?;
        passport_server.start()?;
        servers.push(passport_server);
        pools.push(citizens_pool);
        nics.push(Arc::clone(&passport_nic));

        // --- Check-in tier: fans out to three tiers, then Airport. ---
        let checkin_nic = tier_nic(fabric, a.checkin, &telemetry)?;
        let mut checkin_server = RpcThreadedServer::with_threading(
            Arc::clone(&checkin_nic),
            1,
            config.checkin_threading,
        );
        checkin_server.prepare()?;
        let flight_pool = RpcClientPool::connect(Arc::clone(&checkin_nic), a.flight, 1)?;
        let baggage_pool = RpcClientPool::connect(Arc::clone(&checkin_nic), a.baggage, 1)?;
        let passport_pool = RpcClientPool::connect(Arc::clone(&checkin_nic), a.passport, 1)?;
        let airport_pool = RpcClientPool::connect_with(
            Arc::clone(&checkin_nic),
            a.airport,
            1,
            LbPolicy::ObjectLevel,
        )?;
        checkin_server.register_service(Arc::new(CheckInDispatch::new(CheckInHandler {
            tracer: Arc::clone(&tracer),
            flight: FlightInfoClient::new(flight_pool.client(0)?),
            baggage: BaggageClient::new(baggage_pool.client(0)?),
            passport: PassportClient::new(passport_pool.client(0)?),
            airport: KvStoreClient::new(airport_pool.client(0)?),
            records: AtomicU64::new(0),
        })))?;
        checkin_server.start()?;
        servers.push(checkin_server);
        pools.push(flight_pool);
        pools.push(baggage_pool);
        pools.push(passport_pool);
        pools.push(airport_pool);
        nics.push(Arc::clone(&checkin_nic));

        // --- Front-ends. ---
        let passenger_nic = tier_nic(fabric, a.passenger_fe, &telemetry)?;
        let checkin_pool = RpcClientPool::connect(Arc::clone(&passenger_nic), a.checkin, 2)?;
        let passenger_checkin = CheckInClient::new(checkin_pool.client(0)?);
        pools.push(checkin_pool);
        nics.push(Arc::clone(&passenger_nic));

        let staff_nic = tier_nic(fabric, a.staff_fe, &telemetry)?;
        let airport_staff_pool = RpcClientPool::connect_with(
            Arc::clone(&staff_nic),
            a.airport,
            1,
            LbPolicy::ObjectLevel,
        )?;
        let staff_airport = KvStoreClient::new(airport_staff_pool.client(0)?);
        pools.push(airport_staff_pool);
        nics.push(staff_nic);

        Ok(FlightApp {
            tracer,
            telemetry,
            addrs: a,
            passenger_checkin,
            staff_airport,
            airport_store,
            citizens_store,
            servers,
            nics,
            _pools: pools,
        })
    }

    /// The passenger front-end: a blocking check-in.
    ///
    /// # Errors
    ///
    /// Returns transport or handler errors.
    pub fn check_in(&self, passenger_id: u64, flight: u32, bags: u8) -> Result<CheckInResponse> {
        self.passenger_checkin.check_in(&CheckInRequest {
            passenger_id,
            flight,
            bags,
        })
    }

    /// Enables distributed tracing on all tiers: every RPC carries a wire
    /// trace context and every tier opens spans, so
    /// [`passenger_journey`](FlightApp::passenger_journey) yields connected
    /// 8-tier trace trees in the hub's span collector.
    pub fn enable_tracing(&self) {
        self.telemetry.enable_tracing();
    }

    /// Disables tracing; the wire goes back to carrying zero trace bytes.
    pub fn disable_tracing(&self) {
        self.telemetry.disable_tracing();
    }

    /// One fully traced passenger journey: a root span covering a check-in
    /// through all middle tiers and backends, followed by the staff
    /// front-end looking up the fresh Airport record — touching all eight
    /// tiers of §5.7 under a single trace.
    ///
    /// With tracing disabled this is just the two calls: no span, no wire
    /// context, no extra bytes.
    ///
    /// # Errors
    ///
    /// Returns transport or handler errors.
    pub fn passenger_journey(
        &self,
        passenger_id: u64,
        flight: u32,
        bags: u8,
    ) -> Result<CheckInResponse> {
        let mut span =
            self.telemetry
                .spans()
                .start(|| "passenger_journey", SpanKind::Internal, None);
        if let Some(s) = span.as_mut() {
            s.node = Some(self.addrs.passenger_fe.raw() as u16);
        }
        let outcome = {
            let _scope = span.as_ref().map(|s| ContextScope::enter(s.context()));
            let resp = self.check_in(passenger_id, flight, bags)?;
            if resp.ok {
                let _ = self.staff_lookup(resp.record)?;
            }
            Ok(resp)
        };
        if let Some(span) = span {
            span.finish(self.telemetry.spans());
        }
        outcome
    }

    /// The staff front-end: asynchronously consults the Airport database.
    ///
    /// # Errors
    ///
    /// Returns transport or handler errors.
    pub fn staff_lookup(&self, record: u64) -> Result<Option<Vec<u8>>> {
        let resp = self.staff_airport.get(&KvGetRequest {
            key: record.to_le_bytes().to_vec(),
        })?;
        Ok(resp.found.then_some(resp.value))
    }

    /// The shared request tracer.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The telemetry hub shared by all eight tier NICs.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Direct handle to the Airport MICA store (test inspection).
    pub fn airport_store(&self) -> &Arc<Mica> {
        &self.airport_store
    }

    /// Direct handle to the Citizens MICA store (test inspection).
    pub fn citizens_store(&self) -> &Arc<Mica> {
        &self.citizens_store
    }

    /// Stops every server and NIC.
    pub fn shutdown(mut self) {
        for server in &mut self.servers {
            server.stop();
        }
        for nic in &self.nics {
            nic.shutdown();
        }
    }
}
