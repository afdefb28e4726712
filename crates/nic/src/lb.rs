//! RX-path load balancers (§4.4.2, §5.7).
//!
//! The Load Balancer distributes incoming requests across flow FIFOs.
//! Dagger ships two generic schemes — *dynamic uniform steering*
//! (round-robin) and *static balancing* (requests follow the flow recorded
//! in the connection tuple) — and "leaves room for application-specific
//! load balancers", exemplified by the Object-Level balancer it builds for
//! MICA, which hashes each request's key on the FPGA so that all requests
//! for the same key land on the same partition/flow (§5.7). All three are
//! implemented here.
//!
//! The paper's NIC runs one balancer over all of its flows. Here each
//! engine worker runs its own over the active flows it owns (DESIGN.md
//! §13), so a balancer picks one of `slots` local positions and the engine
//! maps the position to a flow; Object-Level key affinity is therefore per
//! receiving queue. Responses are not balanced: they return to the flow
//! that issued the request. All frames of one multi-frame RPC steer
//! identically (software reassembly requires it, §4.7).

use dagger_types::{FlowId, LbPolicy, RpcHeader};

/// FNV-1a, the key hash the object-level balancer applies on the FPGA.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The NIC's RX load balancer.
#[derive(Debug)]
pub struct LoadBalancer {
    policy: LbPolicy,
    rr_next: usize,
    /// Byte range of the key within the RPC payload for object-level
    /// steering (set per service; MICA puts the key first).
    key_range: (usize, usize),
}

impl LoadBalancer {
    /// Creates a balancer with the given policy. Object-level steering
    /// hashes `payload[key_range.0 .. key_range.1]`.
    pub fn new(policy: LbPolicy, key_range: (usize, usize)) -> Self {
        LoadBalancer {
            policy,
            rr_next: 0,
            key_range,
        }
    }

    /// Currently configured policy.
    pub fn policy(&self) -> LbPolicy {
        self.policy
    }

    /// Reconfigures the policy at runtime (soft configuration).
    pub fn set_policy(&mut self, policy: LbPolicy) {
        self.policy = policy;
    }

    /// Picks one of `slots` positions (`0..slots`) for an incoming request
    /// frame.
    ///
    /// * Multi-frame requests steer by `(connection, rpc)` hash so every
    ///   frame of an RPC reaches the same ring.
    /// * Single-frame requests follow the configured policy: Uniform
    ///   round-robins, Static follows `static_flow` (else `hdr.src_flow`),
    ///   Object-Level hashes the key.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn steer(
        &mut self,
        hdr: &RpcHeader,
        payload: &[u8],
        slots: usize,
        static_flow: Option<FlowId>,
    ) -> usize {
        assert!(slots > 0, "at least one slot required");
        let n = slots as u64;
        if hdr.frame_count > 1 {
            // The 8-byte `(connection, rpc)` key, little-endian, on the
            // stack: every frame of the request hashes it.
            let key = u64::from(hdr.connection_id.raw()) | u64::from(hdr.rpc_id.raw()) << 32;
            return (fnv1a(&key.to_le_bytes()) % n) as usize;
        }
        match self.policy {
            LbPolicy::Uniform => {
                let slot = self.rr_next % slots;
                self.rr_next = self.rr_next.wrapping_add(1);
                slot
            }
            LbPolicy::Static => {
                let pinned = static_flow.unwrap_or(hdr.src_flow);
                (u64::from(pinned.raw()) % n) as usize
            }
            LbPolicy::ObjectLevel => {
                // A traced RPC's payload starts with the 16-byte trace
                // context prelude; the key sits after it. Skipping keeps
                // key→partition affinity identical whether or not the
                // request is traced.
                let skip = if hdr.traced {
                    dagger_telemetry::TraceContext::WIRE_BYTES
                } else {
                    0
                };
                let (lo, hi) = self.key_range;
                let (lo, hi) = (lo + skip, (hi + skip).min(payload.len()));
                let key = if lo < hi {
                    &payload[lo..hi]
                } else {
                    &payload[skip.min(payload.len())..]
                };
                (fnv1a(key) % n) as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagger_types::{ConnectionId, FnId, RpcId, RpcKind};

    fn req(cid: u32, rpc: u32, frames: u8) -> RpcHeader {
        RpcHeader {
            connection_id: ConnectionId(cid),
            rpc_id: RpcId(rpc),
            fn_id: FnId(0),
            src_flow: FlowId(2),
            kind: RpcKind::Request,
            frame_idx: 0,
            frame_count: frames,
            frame_payload_len: 8,
            traced: false,
            offloaded: false,
        }
    }

    #[test]
    fn uniform_round_robins() {
        let mut lb = LoadBalancer::new(LbPolicy::Uniform, (0, 8));
        let flows: Vec<usize> = (0..8)
            .map(|i| lb.steer(&req(1, i, 1), &[0; 8], 4, None))
            .collect();
        assert_eq!(flows, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn static_policy_uses_connection_flow() {
        let mut lb = LoadBalancer::new(LbPolicy::Static, (0, 8));
        let hdr = req(1, 1, 1);
        assert_eq!(lb.steer(&hdr, &[0; 8], 4, Some(FlowId(1))), 1);
        assert_eq!(lb.steer(&hdr, &[0; 8], 4, Some(FlowId(1))), 1);
        // Without a tuple flow the header's `src_flow` pins, folded onto
        // the slots.
        assert_eq!(lb.steer(&hdr, &[0; 8], 2, None), 0);
    }

    #[test]
    fn object_level_same_key_same_flow() {
        let mut lb = LoadBalancer::new(LbPolicy::ObjectLevel, (0, 8));
        let key_a = *b"k1______";
        let key_b = *b"k2______";
        let fa1 = lb.steer(&req(1, 1, 1), &key_a, 4, None);
        let fa2 = lb.steer(&req(1, 2, 1), &key_a, 4, None);
        let fb = lb.steer(&req(1, 3, 1), &key_b, 4, None);
        assert_eq!(fa1, fa2, "same key must pin to the same partition");
        // Different keys *may* collide, but these two don't under FNV.
        assert_ne!(fa1, fb);
    }

    #[test]
    fn object_level_spreads_keys() {
        let mut lb = LoadBalancer::new(LbPolicy::ObjectLevel, (0, 8));
        let mut seen = [false; 4];
        for k in 0..64u64 {
            let key = k.to_le_bytes();
            let f = lb.steer(&req(1, k as u32, 1), &key, 4, None);
            seen[f] = true;
        }
        assert!(seen.iter().all(|&s| s), "keys should cover all partitions");
    }

    #[test]
    fn object_level_skips_trace_prelude() {
        let mut lb = LoadBalancer::new(LbPolicy::ObjectLevel, (0, 8));
        let key = *b"hotkey__";
        let untraced = lb.steer(&req(1, 1, 1), &key, 4, None);
        // Same key behind a 16-byte trace-context prelude.
        let mut traced_payload = vec![0xEE; 16];
        traced_payload.extend_from_slice(&key);
        let mut hdr = req(1, 2, 1);
        hdr.traced = true;
        let traced = lb.steer(&hdr, &traced_payload, 4, None);
        assert_eq!(
            untraced, traced,
            "tracing must not move keys between partitions"
        );
    }

    #[test]
    fn multiframe_frames_steer_identically() {
        let mut lb = LoadBalancer::new(LbPolicy::Uniform, (0, 8));
        let mut hdr = req(7, 42, 3);
        let f0 = lb.steer(&hdr, &[0; 8], 4, None);
        hdr.frame_idx = 1;
        let f1 = lb.steer(&hdr, &[1; 8], 4, None);
        hdr.frame_idx = 2;
        let f2 = lb.steer(&hdr, &[2; 8], 4, None);
        assert_eq!(f0, f1);
        assert_eq!(f1, f2);
    }

    /// The multi-frame key is the connection id's four little-endian bytes
    /// followed by the rpc id's: the flow a request steers to does not
    /// depend on how the key is built.
    #[test]
    fn multiframe_key_is_connection_then_rpc_le_bytes() {
        let mut lb = LoadBalancer::new(LbPolicy::Uniform, (0, 8));
        for (cid, rpc) in [(7, 42), (1, 0), (0xDEAD_BEEF, 0x0102_0304)] {
            let mut key = Vec::new();
            key.extend_from_slice(&u32::to_le_bytes(cid));
            key.extend_from_slice(&u32::to_le_bytes(rpc));
            let want = (fnv1a(&key) % 13) as usize;
            assert_eq!(lb.steer(&req(cid, rpc, 3), &[0; 8], 13, None), want);
        }
    }

    /// Steering every frame of a 43-frame request (a 2 KiB echo) touches no
    /// heap: the key is hashed from the stack.
    #[test]
    fn steering_a_multiframe_request_performs_zero_heap_allocations() {
        let mut lb = LoadBalancer::new(LbPolicy::Uniform, (0, 8));
        let mut hdr = req(7, 42, 43);
        let first = lb.steer(&hdr, &[0; 48], 4, None);
        let (allocs, same) = crate::alloc_counter::count_allocs(|| {
            (0..43u8).all(|idx| {
                hdr.frame_idx = idx;
                lb.steer(&hdr, &[idx; 48], 4, None) == first
            })
        });
        assert!(same, "frames of one request steered apart");
        assert_eq!(allocs, 0, "steering hit the allocator {allocs} time(s)");
    }

    #[test]
    fn policy_is_soft_reconfigurable() {
        let mut lb = LoadBalancer::new(LbPolicy::Uniform, (0, 8));
        assert_eq!(lb.policy(), LbPolicy::Uniform);
        lb.set_policy(LbPolicy::ObjectLevel);
        assert_eq!(lb.policy(), LbPolicy::ObjectLevel);
    }
}
