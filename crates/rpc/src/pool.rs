//! `RpcClientPool`: a pool of clients over dedicated or shared flows.
//!
//! The basic scheme of Fig. 7 gives every client its own hardware flow and
//! ring pair ([`RpcClientPool::connect`]). The shared-receive-queue (SRQ)
//! variant of §4.2 multiplexes several connections over each flow
//! ([`RpcClientPool::connect_shared`]) — fewer rings, shared locking.
//! Flows are claimed in ascending id order ([`Nic::take_flow`]) and striped
//! across engine queues: on a fresh NIC, client `i` runs on queue `i % queues`.

use std::sync::Arc;

use dagger_nic::Nic;
use dagger_types::{LbPolicy, NodeAddr, Result};

use crate::client::RpcClient;
use crate::endpoint::FlowEndpoint;

/// A pool of RPC clients targeting one remote service host.
#[derive(Debug)]
pub struct RpcClientPool {
    remote: NodeAddr,
    clients: Vec<Arc<RpcClient>>,
}

impl RpcClientPool {
    /// Connects `clients` clients, each on its own hardware flow, with
    /// uniform request balancing at the server.
    ///
    /// # Errors
    ///
    /// Returns an error if the NIC has too few unclaimed flows or the
    /// connection setup fails.
    pub fn connect(nic: Arc<Nic>, remote: NodeAddr, clients: usize) -> Result<Self> {
        Self::connect_with(nic, remote, clients, LbPolicy::Uniform)
    }

    /// [`RpcClientPool::connect`] with an explicit server-side load-balancer
    /// choice for the pool's connections (e.g. object-level for MICA, §5.7).
    ///
    /// # Errors
    ///
    /// Returns an error if the NIC has too few unclaimed flows or the
    /// connection setup fails.
    pub fn connect_with(
        nic: Arc<Nic>,
        remote: NodeAddr,
        clients: usize,
        lb: LbPolicy,
    ) -> Result<Self> {
        Self::connect_shared(nic, remote, clients, 1, lb)
    }

    /// Connects `flows × clients_per_flow` clients in the SRQ model: each
    /// flow's ring pair is shared by `clients_per_flow` connections.
    ///
    /// # Errors
    ///
    /// Returns an error if the NIC has too few unclaimed flows, the counts
    /// are zero, or connection setup fails.
    pub fn connect_shared(
        nic: Arc<Nic>,
        remote: NodeAddr,
        flows: usize,
        clients_per_flow: usize,
        lb: LbPolicy,
    ) -> Result<Self> {
        if flows == 0 || clients_per_flow == 0 {
            return Err(dagger_types::DaggerError::Config(
                "pool needs at least one flow and one client per flow".to_string(),
            ));
        }
        let mut clients = Vec::with_capacity(flows * clients_per_flow);
        for _ in 0..flows {
            let host_flow = nic.take_flow()?;
            let flow_id = host_flow.flow;
            // Endpoints stamp into the NIC's telemetry hub so host-side and
            // engine-side trace events share one clock epoch.
            let endpoint = Arc::new(FlowEndpoint::new(host_flow, Arc::clone(nic.telemetry())));
            for _ in 0..clients_per_flow {
                let cid = nic.open_connection(remote, flow_id, lb)?;
                clients.push(Arc::new(RpcClient::new(
                    Arc::clone(&nic),
                    Arc::clone(&endpoint),
                    cid,
                )));
            }
        }
        Ok(RpcClientPool { remote, clients })
    }

    /// The remote host this pool targets.
    pub fn remote(&self) -> NodeAddr {
        self.remote
    }

    /// Number of clients in the pool.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// `true` if the pool is empty (never the case for a connected pool).
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Borrows client `i`.
    ///
    /// # Errors
    ///
    /// Returns [`dagger_types::DaggerError::Config`] if `i` is out of range.
    pub fn client(&self, i: usize) -> Result<Arc<RpcClient>> {
        self.clients.get(i).cloned().ok_or_else(|| {
            dagger_types::DaggerError::Config(format!(
                "client index {i} out of range for pool of {}",
                self.clients.len()
            ))
        })
    }

    /// Iterates over all clients.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<RpcClient>> {
        self.clients.iter()
    }
}
