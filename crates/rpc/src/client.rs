//! `RpcClient`: the caller side of the Dagger API (§4.2).
//!
//! A client owns one connection over one hardware flow. Synchronous calls
//! block on the response with a deadline; asynchronous calls return a
//! [`PendingCall`] immediately and complete through the flow's shared
//! endpoint (poll it directly or via the client's
//! [`CompletionQueue`](crate::CompletionQueue)).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dagger_nic::Nic;
use dagger_telemetry::{current_context, HistogramHandle, OpenSpan, RpcEvent, SpanKind, Telemetry};
use dagger_types::{ConnectionId, FlowId, FnId, Result, RpcId, RpcKind};

use parking_lot::Mutex;

use crate::completion::CompletionQueue;
use crate::endpoint::FlowEndpoint;
use crate::frag::fragment_with_ctx;
use crate::service::decode_response;

/// Default per-call deadline. Generous because functional mode may run on a
/// single hardware thread.
pub const DEFAULT_CALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Name of the client round-trip latency histogram in the metrics registry.
pub const CLIENT_RTT_HISTOGRAM: &str = "rpc.client.rtt_ns";

/// One RPC client: a connection bound to a flow's ring pair.
#[derive(Debug)]
pub struct RpcClient {
    nic: Arc<Nic>,
    endpoint: Arc<FlowEndpoint>,
    cid: ConnectionId,
    next_rpc: AtomicU32,
    /// Per-call deadline in microseconds (atomic so pool-shared clients can
    /// be tuned).
    timeout_us: std::sync::atomic::AtomicU64,
    telemetry: Arc<Telemetry>,
    rtt: HistogramHandle,
}

impl RpcClient {
    /// Creates a client over an existing connection and endpoint. Most
    /// users go through [`RpcClientPool`](crate::RpcClientPool) instead.
    ///
    /// Stamps and metrics go to the endpoint's telemetry hub, so all stages
    /// share a clock epoch.
    pub fn new(nic: Arc<Nic>, endpoint: Arc<FlowEndpoint>, cid: ConnectionId) -> Self {
        let telemetry = Arc::clone(endpoint.telemetry());
        let rtt = telemetry.registry().histogram(CLIENT_RTT_HISTOGRAM);
        RpcClient {
            nic,
            endpoint,
            cid,
            next_rpc: AtomicU32::new(1),
            timeout_us: std::sync::atomic::AtomicU64::new(DEFAULT_CALL_TIMEOUT.as_micros() as u64),
            telemetry,
            rtt,
        }
    }

    /// The connection this client issues on.
    pub fn connection_id(&self) -> ConnectionId {
        self.cid
    }

    /// The hardware flow backing this client.
    pub fn flow(&self) -> FlowId {
        self.endpoint.flow()
    }

    /// The flow endpoint (shared in the SRQ model).
    pub fn endpoint(&self) -> &Arc<FlowEndpoint> {
        &self.endpoint
    }

    /// Sets the per-call deadline.
    pub fn set_timeout(&self, timeout: Duration) {
        self.timeout_us
            .store(timeout.as_micros() as u64, Ordering::Relaxed);
    }

    /// The per-call deadline.
    pub fn timeout(&self) -> Duration {
        Duration::from_micros(self.timeout_us.load(Ordering::Relaxed))
    }

    /// Sends the request frames and, when distributed tracing is enabled,
    /// opens a client span parented on the calling thread's current context
    /// (so handler-issued nested calls chain into the caller's trace) and
    /// rides its context on the wire.
    fn issue(&self, fn_id: FnId, payload: &[u8]) -> Result<(RpcId, Option<OpenSpan>)> {
        let rpc_id = RpcId(self.next_rpc.fetch_add(1, Ordering::Relaxed));
        self.telemetry
            .tracer()
            .record(self.cid.raw(), rpc_id.raw(), RpcEvent::ClientSend);
        let mut span = self.telemetry.spans().start(
            || format!("rpc.fn{}", fn_id.raw()),
            SpanKind::Client,
            current_context(),
        );
        if let Some(s) = span.as_mut() {
            s.node = Some(self.nic.addr().raw() as u16);
            s.rpc = Some((self.cid.raw(), rpc_id.raw()));
        }
        let frames = fragment_with_ctx(
            self.cid,
            rpc_id,
            fn_id,
            self.endpoint.flow(),
            RpcKind::Request,
            payload,
            span.as_ref().map(OpenSpan::context),
        )?;
        self.endpoint
            .send_frames(&frames, Instant::now() + self.timeout())?;
        Ok((rpc_id, span))
    }

    /// Synchronous (blocking) call: sends the request and waits for the
    /// response ([`PendingCall::wait`]).
    ///
    /// # Errors
    ///
    /// Returns [`dagger_types::DaggerError::Timeout`] if the response does
    /// not arrive within the client timeout, or the remote handler's error.
    pub fn call_sync(&self, fn_id: FnId, payload: &[u8]) -> Result<Vec<u8>> {
        self.call_async(fn_id, payload)?.wait()
    }

    /// Asynchronous (non-blocking) call: returns a [`PendingCall`] that can
    /// be awaited or polled; the response also surfaces through the
    /// completion queue if not claimed.
    ///
    /// # Errors
    ///
    /// Returns an error if the request cannot be written to the TX ring.
    pub fn call_async(&self, fn_id: FnId, payload: &[u8]) -> Result<PendingCall> {
        let issued = Instant::now();
        let (rpc_id, span) = self.issue(fn_id, payload)?;
        Ok(PendingCall {
            endpoint: Arc::clone(&self.endpoint),
            cid: self.cid,
            rpc_id,
            timeout: self.timeout(),
            issued,
            rtt: self.rtt.clone(),
            telemetry: Arc::clone(&self.telemetry),
            span: Mutex::new(span),
        })
    }

    /// A completion queue over this client's connection.
    pub fn completion_queue(&self) -> CompletionQueue {
        CompletionQueue::new(Arc::clone(&self.endpoint), self.cid)
    }

    /// Closes the connection. Called automatically on drop.
    pub fn close(&self) -> Result<()> {
        self.nic.close_connection(self.cid)
    }
}

impl Drop for RpcClient {
    fn drop(&mut self) {
        let _ = self.nic.close_connection(self.cid);
    }
}

/// An in-flight asynchronous call.
#[derive(Debug)]
pub struct PendingCall {
    endpoint: Arc<FlowEndpoint>,
    cid: ConnectionId,
    rpc_id: RpcId,
    timeout: Duration,
    issued: Instant,
    rtt: HistogramHandle,
    telemetry: Arc<Telemetry>,
    /// The client span opened at issue time, closed by whichever thread
    /// observes completion.
    span: Mutex<Option<OpenSpan>>,
}

impl PendingCall {
    /// The call's RPC id.
    pub fn rpc_id(&self) -> RpcId {
        self.rpc_id
    }

    /// Non-blocking completion check.
    ///
    /// Returns `Ok(None)` while the response is still in flight.
    ///
    /// # Errors
    ///
    /// Returns the remote handler's error if the call failed.
    pub fn try_complete(&self) -> Result<Option<Vec<u8>>> {
        match self.endpoint.poll_for(self.cid, self.rpc_id) {
            Some(rpc) => {
                self.record_rtt(self.finish_span());
                decode_response(&rpc.payload).map(Some)
            }
            None => Ok(None),
        }
    }

    /// Closes the client span (if still open) and returns its identity so
    /// the RTT sample can carry it as an exemplar.
    fn finish_span(&self) -> Option<(u64, u64)> {
        self.span.lock().take().map(|span| {
            let ids = (span.trace_id, span.span_id);
            span.finish(self.telemetry.spans());
            ids
        })
    }

    /// Records the RTT sample; traced calls also stamp the histogram
    /// bucket's exemplar so tail percentiles dereference to a trace.
    fn record_rtt(&self, ids: Option<(u64, u64)>) {
        let v = u64::try_from(self.issued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match ids {
            Some((trace_id, span_id)) => {
                self.rtt
                    .record_traced(v, trace_id, span_id, self.telemetry.tick_now());
            }
            None => self.rtt.record(v),
        }
    }

    /// Blocks until the response arrives (bounded by the issuing client's
    /// timeout).
    ///
    /// # Errors
    ///
    /// Returns [`dagger_types::DaggerError::Timeout`] on deadline, or the
    /// remote handler's error.
    pub fn wait(self) -> Result<Vec<u8>> {
        let outcome = self.endpoint.wait_for(self.cid, self.rpc_id, self.timeout);
        // Closed even on timeout: the span then records the full wait.
        let ids = self.finish_span();
        if outcome.is_err() {
            // Timed out (e.g. the peer is partitioned): give up the response
            // slot so a late arrival cannot park in the endpoint's ready
            // buffer.
            self.endpoint.abandon(self.cid, self.rpc_id);
        }
        let rpc = outcome?;
        self.record_rtt(ids);
        decode_response(&rpc.payload)
    }
}

/// A typed wrapper over [`PendingCall`] produced by generated client stubs:
/// decodes the response message on completion.
#[derive(Debug)]
pub struct TypedCall<T> {
    inner: PendingCall,
    _marker: std::marker::PhantomData<T>,
}

impl<T: crate::wire::Wire> TypedCall<T> {
    /// Wraps an untyped pending call.
    pub fn new(inner: PendingCall) -> Self {
        TypedCall {
            inner,
            _marker: std::marker::PhantomData,
        }
    }

    /// The call's RPC id.
    pub fn rpc_id(&self) -> RpcId {
        self.inner.rpc_id()
    }

    /// Non-blocking completion check; decodes the message when complete.
    ///
    /// # Errors
    ///
    /// Returns the remote handler's error or a wire error.
    pub fn try_complete(&self) -> Result<Option<T>> {
        match self.inner.try_complete()? {
            Some(bytes) => Ok(Some(T::from_wire(&bytes)?)),
            None => Ok(None),
        }
    }

    /// Blocks until completion and decodes the message.
    ///
    /// # Errors
    ///
    /// Returns [`dagger_types::DaggerError::Timeout`] on deadline, the
    /// remote handler's error, or a wire error.
    pub fn wait(self) -> Result<T> {
        let bytes = self.inner.wait()?;
        T::from_wire(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_counter::count_allocs;
    use crate::{RpcClientPool, RpcService, RpcThreadedServer, ServiceDescriptor};
    use dagger_nic::MemFabric;
    use dagger_types::{DaggerError, HardConfig, NodeAddr};

    /// With tracing off a call pays for its frames and nothing else: no span
    /// name is formatted, no context encoded.
    #[test]
    fn untraced_issue_allocates_only_its_frame_vector() {
        let fabric = MemFabric::new();
        let nic = Nic::start(&fabric, NodeAddr(1), HardConfig::default()).unwrap();
        let endpoint = Arc::new(FlowEndpoint::new(
            nic.take_flow().unwrap(),
            Arc::clone(nic.telemetry()),
        ));
        // No such connection is open: the engine drops the frames, which is
        // all the same to `issue`.
        let client = RpcClient::new(Arc::clone(&nic), endpoint, ConnectionId(1));
        client.issue(FnId(7), b"warm").unwrap();
        let (allocs, issued) = count_allocs(|| client.issue(FnId(7), &[0xA5; 32]));
        assert!(
            issued.unwrap().1.is_none(),
            "a span opened with tracing off"
        );
        assert_eq!(
            allocs, 1,
            "an untraced issue allocates its frame vector only"
        );

        nic.telemetry().enable_tracing();
        let (allocs, issued) = count_allocs(|| client.issue(FnId(7), &[0xA5; 32]));
        let span = issued.unwrap().1.expect("tracing is on");
        assert_eq!(span.name, "rpc.fn7");
        assert!(allocs > 1, "a traced issue also builds its span name");
        nic.shutdown();
    }

    /// Echoes its request once the test releases it (or after 5 s, so a
    /// failing test cannot hang the server's shutdown).
    struct GatedEcho(Mutex<std::sync::mpsc::Receiver<()>>);

    impl RpcService for GatedEcho {
        fn descriptor(&self) -> ServiceDescriptor {
            ServiceDescriptor::new("gated_echo", vec![FnId(1)])
        }

        fn dispatch(&self, _fn_id: FnId, payload: &[u8]) -> Result<Vec<u8>> {
            let _ = self.0.lock().recv_timeout(Duration::from_secs(5));
            Ok(payload.to_vec())
        }
    }

    /// A sync call that times out gives up its response slot: the late
    /// response is counted and dropped on arrival, never parked in the
    /// endpoint's ready buffer.
    #[test]
    fn timed_out_sync_call_drops_its_late_response() {
        let fabric = MemFabric::new();
        let server_nic = Nic::start(&fabric, NodeAddr(1), HardConfig::default()).unwrap();
        let client_nic = Nic::start(&fabric, NodeAddr(2), HardConfig::default()).unwrap();
        let (release, gate) = std::sync::mpsc::channel();
        let mut server = RpcThreadedServer::new(Arc::clone(&server_nic), 1);
        server
            .register_service(Arc::new(GatedEcho(Mutex::new(gate))))
            .unwrap();
        server.start().unwrap();
        let pool = RpcClientPool::connect(Arc::clone(&client_nic), NodeAddr(1), 1).unwrap();
        let client = pool.client(0).unwrap();
        client.set_timeout(Duration::from_millis(20));

        let err = client.call_sync(FnId(1), b"late").unwrap_err();
        assert_eq!(err, DaggerError::Timeout);
        // Only now may the handler answer.
        release.send(()).unwrap();
        let endpoint = client.endpoint();
        let deadline = Instant::now() + Duration::from_secs(5);
        while endpoint.late_drops() == 0 && Instant::now() < deadline {
            assert!(endpoint
                .poll_for(client.connection_id(), RpcId(1))
                .is_none());
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(endpoint.late_drops(), 1);
        assert_eq!(endpoint.ready_len(), 0);
        server.stop();
        client_nic.shutdown();
        server_nic.shutdown();
    }
}
