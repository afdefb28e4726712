//! The completion queue for asynchronous calls (§4.2).
//!
//! "Each RpcClient contains the associated CompletionQueue object which
//! accumulates completed requests. The CompletionQueue might also invoke
//! arbitrary continuation callback functions upon receiving RPC responses."
//! Both behaviours live here: [`CompletionQueue::poll`] drains completed
//! responses for the client's connection, firing registered callbacks and
//! returning the rest.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dagger_nic::HostWait;
use dagger_telemetry::Counter;
use dagger_types::{ConnectionId, DaggerError, Result, RpcId};

use crate::endpoint::FlowEndpoint;
use crate::service::decode_response;

type Callback = Box<dyn FnOnce(Result<Vec<u8>>) + Send>;

/// Accumulates completed asynchronous calls for one connection.
pub struct CompletionQueue {
    endpoint: Arc<FlowEndpoint>,
    cid: ConnectionId,
    callbacks: Mutex<HashMap<u32, Callback>>,
    /// `rpc.client.completions` in the endpoint's registry, if it has one.
    completions: Option<Counter>,
}

impl std::fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionQueue")
            .field("cid", &self.cid)
            .field("callbacks", &self.callbacks.lock().len())
            .finish()
    }
}

impl CompletionQueue {
    /// Creates a queue for `cid` over the flow endpoint.
    pub fn new(endpoint: Arc<FlowEndpoint>, cid: ConnectionId) -> Self {
        let completions = endpoint
            .telemetry()
            .map(|t| t.registry().counter("rpc.client.completions"));
        CompletionQueue {
            endpoint,
            cid,
            callbacks: Mutex::new(HashMap::new()),
            completions,
        }
    }

    /// Registers a continuation to run when `rpc_id` completes (invoked
    /// from whichever thread calls [`CompletionQueue::poll`]).
    pub fn on_completion(
        &self,
        rpc_id: RpcId,
        callback: impl FnOnce(Result<Vec<u8>>) + Send + 'static,
    ) {
        self.callbacks
            .lock()
            .insert(rpc_id.raw(), Box::new(callback));
    }

    /// Drains completed responses for this connection. Responses with a
    /// registered callback fire it; the others are returned as
    /// `(rpc_id, handler outcome)` pairs.
    pub fn poll(&self) -> Vec<(RpcId, Result<Vec<u8>>)> {
        self.endpoint.poll_once();
        let completed = self.endpoint.take_all_for(self.cid);
        if let Some(ctr) = &self.completions {
            ctr.add(completed.len() as u64);
        }
        let mut out = Vec::new();
        for rpc in completed {
            let rpc_id = rpc.header.rpc_id;
            let outcome = decode_response(&rpc.payload);
            let cb = self.callbacks.lock().remove(&rpc_id.raw());
            match cb {
                Some(cb) => cb(outcome),
                None => out.push((rpc_id, outcome)),
            }
        }
        out
    }

    /// Polls until `n` completions have been observed (callbacks count) or
    /// the timeout elapses, driving the flow's engine queue between empty
    /// polls; returns the non-callback completions.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Timeout`] if fewer than `n` completions arrive
    /// in time (already-collected completions are lost to the caller, as
    /// with a real completion queue drain).
    pub fn wait_for(&self, n: usize, timeout: Duration) -> Result<Vec<(RpcId, Result<Vec<u8>>)>> {
        let deadline = Instant::now() + timeout;
        let mut seen = 0;
        let mut out = Vec::new();
        let mut wait = HostWait::new(self.endpoint.engine());
        while seen < n {
            let before_callbacks = self.callbacks.lock().len();
            let batch = self.poll();
            let fired = before_callbacks - self.callbacks.lock().len();
            if batch.len() + fired > 0 {
                wait.reset();
            }
            seen += batch.len() + fired;
            out.extend(batch);
            if seen >= n {
                break;
            }
            if Instant::now() >= deadline {
                return Err(DaggerError::Timeout);
            }
            wait.idle();
        }
        Ok(out)
    }
}
