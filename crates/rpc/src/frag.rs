//! Software RPC fragmentation and reassembly (§4.7).
//!
//! The coherent interconnect's MTU is one cache line, and the paper's
//! hardware lacks CAM-based on-chip reassembly; "as of now, Dagger only
//! features software-based RPC reassembling". This module is that software:
//! [`fragment_into`] writes an RPC payload (behind an optional prefix: a
//! trace context, a response status) into up to 255 cache-line frames in a
//! vector the caller reuses, [`fragment`] is its allocating form, and
//! [`Reassembler`] rebuilds complete RPCs on the receive side, tolerant
//! of interleaving between different RPCs (the NIC guarantees all frames of
//! one RPC reach the same ring, so reordering *within* an RPC cannot occur,
//! but we handle it anyway for robustness).
//!
//! Reassembly is one memory pass: a half-assembled RPC is one buffer of
//! `frame_count × 48` bytes allocated at its first fragment, each fragment
//! is copied once to `frame_idx × 48`, and completion hands the buffer over
//! — one allocation per RPC, whatever the frame count, and none for a
//! single-frame RPC while the consumer hands payloads back
//! ([`Reassembler::recycle`]). The RPC being filled
//! is held outside the map, so a message whose frames arrive back to back
//! (the NIC writes them so) probes the map once, at its first frame; a
//! frame of another RPC parks it there. Fragment placement is why every
//! fragment but the last must be full (which [`fragment_into`] and the
//! NIC's offload path guarantee); a short one is a [`DaggerError::Wire`]
//! error. Pending memory is bounded by the pending limit times
//! [`MAX_RPC_PAYLOAD`].

use std::collections::HashMap;

use dagger_telemetry::TraceContext;
use dagger_types::{
    CacheLine, ConnectionId, DaggerError, FlowId, FnId, Result, RpcHeader, RpcId, RpcKind,
    FRAME_PAYLOAD_BYTES,
};

/// Largest payload a single RPC can carry (255 frames × 48 B).
pub const MAX_RPC_PAYLOAD: usize = FRAME_PAYLOAD_BYTES * (u8::MAX as usize);

/// A fully reassembled RPC.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompleteRpc {
    /// Header of the RPC (frame fields refer to the first frame).
    pub header: RpcHeader,
    /// The concatenated payload.
    pub payload: Vec<u8>,
}

impl CompleteRpc {
    /// Splits off the wire trace context when the header's `traced` bit is
    /// set, leaving `payload` holding only the application bytes.
    ///
    /// Returns `None` (and leaves the RPC untouched) for untraced RPCs or
    /// a traced RPC whose payload is too short to hold the prelude (which
    /// cannot be produced by [`fragment_into`], but a forged frame
    /// could claim it).
    pub fn take_trace_context(&mut self) -> Option<TraceContext> {
        if !self.header.traced {
            return None;
        }
        let ctx = TraceContext::decode(&self.payload)?;
        self.payload.drain(..TraceContext::WIRE_BYTES);
        self.header.traced = false;
        Some(ctx)
    }
}

/// The header every frame of one message starts from: the message's
/// identity, untraced and not offloaded. [`fragment_into`] fills in the
/// per-frame fields (`frame_idx`, `frame_count`, `frame_payload_len`).
pub fn message_header(
    cid: ConnectionId,
    rpc_id: RpcId,
    fn_id: FnId,
    src_flow: FlowId,
    kind: RpcKind,
) -> RpcHeader {
    RpcHeader {
        connection_id: cid,
        rpc_id,
        fn_id,
        src_flow,
        kind,
        frame_idx: 0,
        frame_count: 0,
        frame_payload_len: 0,
        traced: false,
        offloaded: false,
    }
}

/// Splits `payload` into cache-line frames carrying the given identity.
///
/// An empty payload still produces one frame (RPCs with no arguments).
///
/// # Errors
///
/// Returns [`DaggerError::PayloadTooLarge`] if `payload` exceeds
/// [`MAX_RPC_PAYLOAD`].
///
/// # Example
///
/// ```
/// use dagger_rpc::frag::{fragment, Reassembler};
/// use dagger_types::*;
///
/// let frames = fragment(
///     ConnectionId(1), RpcId(2), FnId(3), FlowId(0), RpcKind::Request,
///     &vec![0xAB; 100],
/// ).unwrap();
/// assert_eq!(frames.len(), 3); // 100 bytes over 48-byte frames
///
/// let mut r = Reassembler::new();
/// let mut done = None;
/// for f in frames {
///     done = r.push(f).unwrap();
/// }
/// assert_eq!(done.unwrap().payload, vec![0xAB; 100]);
/// ```
pub fn fragment(
    cid: ConnectionId,
    rpc_id: RpcId,
    fn_id: FnId,
    src_flow: FlowId,
    kind: RpcKind,
    payload: &[u8],
) -> Result<Vec<CacheLine>> {
    let mut frames = Vec::new();
    let header = message_header(cid, rpc_id, fn_id, src_flow, kind);
    fragment_into(&mut frames, header, &[], payload)?;
    Ok(frames)
}

/// Appends to `out` the frames of the byte stream `prefix ++ payload`,
/// each stamped with `header` and its own frame fields, without building
/// the concatenated stream. Every frame but the last is full.
///
/// The prefix is how a message carries bytes its payload does not: the
/// 16-byte wire trace context of a traced request (with `header.traced`
/// set; the receive side strips it with
/// [`CompleteRpc::take_trace_context`]) and a response's status byte.
/// Because it is ordinary payload from the fabric's point of view, it
/// survives reassembly, reordering and retransmission untouched. An empty
/// stream still produces one frame (RPCs with no arguments).
///
/// # Errors
///
/// Returns [`DaggerError::PayloadTooLarge`] (appending nothing) if prefix
/// plus payload exceeds [`MAX_RPC_PAYLOAD`].
pub fn fragment_into(
    out: &mut Vec<CacheLine>,
    header: RpcHeader,
    mut prefix: &[u8],
    mut payload: &[u8],
) -> Result<()> {
    let total = prefix.len() + payload.len();
    if total > MAX_RPC_PAYLOAD {
        return Err(DaggerError::PayloadTooLarge {
            requested: total,
            max: MAX_RPC_PAYLOAD,
        });
    }
    let frame_count = total.div_ceil(FRAME_PAYLOAD_BYTES).max(1) as u8;
    let first = out.len();
    out.reserve_exact(usize::from(frame_count));
    out.resize(first + usize::from(frame_count), CacheLine::zeroed());
    for (frame_idx, line) in (0..frame_count).zip(&mut out[first..]) {
        let dst = line.payload_mut();
        let mut used = 0;
        // The prefix fills the first frame or two; past it a frame takes
        // one copy.
        if !prefix.is_empty() {
            used = prefix.len().min(FRAME_PAYLOAD_BYTES);
            dst[..used].copy_from_slice(&prefix[..used]);
            prefix = &prefix[used..];
        }
        let n = payload.len().min(FRAME_PAYLOAD_BYTES - used);
        dst[used..used + n].copy_from_slice(&payload[..n]);
        payload = &payload[n..];
        RpcHeader {
            frame_idx,
            frame_count,
            frame_payload_len: (used + n) as u8,
            ..header
        }
        .encode(line.header_mut());
    }
    Ok(())
}

/// One half-assembled RPC: a single payload buffer sized for every
/// fragment, filled in place as fragments arrive.
#[derive(Debug)]
struct Partial {
    header: RpcHeader,
    /// `frame_count × FRAME_PAYLOAD_BYTES` bytes, allocated at the first
    /// fragment; fragment `i` lands at `i × FRAME_PAYLOAD_BYTES`. At most
    /// [`MAX_RPC_PAYLOAD`] bytes, whatever a frame header claims.
    payload: Vec<u8>,
    /// Bit `i` set: fragment `i` has arrived (a duplicate changes nothing).
    seen: [u64; 4],
    received: u8,
    /// Payload bytes of the last fragment, once it has arrived: completion
    /// truncates the buffer to `(frame_count - 1) × 48 + last_len`.
    last_len: usize,
    /// Arrival ordinal of this RPC's first frame; the eviction policy
    /// drops the oldest partial when the pending bound is hit.
    first_arrival: u64,
}

type RpcKey = (u32, u32, u8);

/// Default bound on concurrently pending partial RPCs.
pub const DEFAULT_PENDING_LIMIT: usize = 1024;

/// Bound on payload buffers a reassembler keeps for reuse
/// ([`Reassembler::recycle`]); beyond it a handed-back buffer is freed.
const RECYCLED_CAP: usize = 16;

/// Receive-side reassembly of multi-frame RPCs.
///
/// Pending state is bounded: at most `limit` RPCs can be half-assembled at
/// once — at most `limit × MAX_RPC_PAYLOAD` bytes of payload buffers — and
/// starting one more evicts the *oldest* partial (counted in
/// [`Reassembler::evictions`]). On a faulty fabric a lost frame would
/// otherwise strand its siblings here forever; eviction turns that leak
/// into a drop the reliable layer's retransmission repairs.
#[derive(Debug)]
pub struct Reassembler {
    /// The RPC the last multi-frame fragment belonged to, out of the map.
    filling: Option<(RpcKey, Partial)>,
    /// Every other half-assembled RPC. Keys come off the wire, so the map
    /// keeps the default (collision-resistant) hasher.
    partial: HashMap<RpcKey, Partial>,
    /// Payload buffers handed back by the consumer; a single-frame RPC
    /// completes into one of these instead of a fresh allocation.
    recycled: Vec<Vec<u8>>,
    limit: usize,
    arrivals: u64,
    evictions: u64,
}

impl Default for Reassembler {
    fn default() -> Self {
        Self::with_limit(DEFAULT_PENDING_LIMIT)
    }
}

impl Reassembler {
    /// Creates an empty reassembler with the default pending bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty reassembler holding at most `limit` pending RPCs
    /// (`limit` of 0 becomes 1).
    pub fn with_limit(limit: usize) -> Self {
        Reassembler {
            filling: None,
            partial: HashMap::new(),
            recycled: Vec::new(),
            limit: limit.max(1),
            arrivals: 0,
            evictions: 0,
        }
    }

    /// Number of RPCs currently awaiting more frames.
    pub fn pending(&self) -> usize {
        self.partial.len() + usize::from(self.filling.is_some())
    }

    /// Partial RPCs evicted by the pending bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hands back a completed RPC's payload once its consumer is done with
    /// it: a later single-frame RPC completes into it. At most a few
    /// buffers are kept; the rest, and buffers too small for a frame, are
    /// freed.
    pub fn recycle(&mut self, mut payload: Vec<u8>) {
        if self.recycled.len() < RECYCLED_CAP && payload.capacity() >= FRAME_PAYLOAD_BYTES {
            payload.clear();
            self.recycled.push(payload);
        }
    }

    /// Discards any half-assembled frames of `(cid, rpc_id)` (both request
    /// and response direction) — the abandon path's cleanup.
    pub fn forget(&mut self, cid: ConnectionId, rpc_id: RpcId) {
        let of_rpc = |k: &RpcKey| k.0 == cid.raw() && k.1 == rpc_id.raw();
        if self.filling.as_ref().is_some_and(|(k, _)| of_rpc(k)) {
            self.filling = None;
        }
        self.partial.retain(|k, _| !of_rpc(k));
    }

    /// Feeds one received frame. Returns `Some(rpc)` when this frame
    /// completes an RPC. Fragments may arrive in any order; a duplicate is
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Wire`] if the frame header fails to parse, is
    /// inconsistent with earlier frames of the same RPC, or belongs to a
    /// fragment other than the last that is not full
    /// ([`FRAME_PAYLOAD_BYTES`]): a fragment's place in the payload is its
    /// index, so only the last one may be short. Either inconsistency also
    /// discards what was assembled of that RPC.
    pub fn push(&mut self, line: CacheLine) -> Result<Option<CompleteRpc>> {
        let hdr = RpcHeader::decode(line.header())?;
        let chunk = &line.payload()[..usize::from(hdr.frame_payload_len)];
        if hdr.frame_count == 1 {
            // Room for a whole frame, so the buffer can be recycled.
            let mut payload = self
                .recycled
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(FRAME_PAYLOAD_BYTES));
            payload.extend_from_slice(chunk);
            return Ok(Some(CompleteRpc {
                header: hdr,
                payload,
            }));
        }
        let key: RpcKey = (hdr.connection_id.raw(), hdr.rpc_id.raw(), hdr.kind as u8);
        if !hdr.is_last_frame() && chunk.len() != FRAME_PAYLOAD_BYTES {
            self.discard(key);
            return Err(DaggerError::Wire(format!(
                "short fragment {} of {} for rpc {}: {} bytes",
                hdr.frame_idx,
                hdr.frame_count,
                hdr.rpc_id,
                chunk.len()
            )));
        }
        if self.filling.as_ref().map(|(k, _)| *k) != Some(key) {
            self.start_filling(key, &hdr);
        }
        let (_, partial) = self.filling.as_mut().expect("start_filling fills");
        if partial.header.frame_count != hdr.frame_count || partial.header.fn_id != hdr.fn_id {
            let expect = partial.header.frame_count;
            self.filling = None;
            return Err(DaggerError::Wire(format!(
                "inconsistent frames for rpc {}: frame_count {} vs {expect}",
                hdr.rpc_id, hdr.frame_count
            )));
        }
        let idx = usize::from(hdr.frame_idx);
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if partial.seen[word] & bit == 0 {
            partial.seen[word] |= bit;
            partial.received += 1;
            partial.payload[idx * FRAME_PAYLOAD_BYTES..][..chunk.len()].copy_from_slice(chunk);
            if hdr.is_last_frame() {
                partial.last_len = chunk.len();
            }
        }
        if partial.received < hdr.frame_count {
            return Ok(None);
        }
        let (_, done) = self
            .filling
            .take()
            .expect("filling holds the completed RPC");
        let Partial {
            mut header,
            mut payload,
            last_len,
            ..
        } = done;
        payload.truncate(payload.len() - FRAME_PAYLOAD_BYTES + last_len);
        header.frame_idx = 0;
        Ok(Some(CompleteRpc { header, payload }))
    }

    /// Makes `key`'s partial the one being filled: the one being filled
    /// before parks in the map, and `key`'s comes out of it — or starts,
    /// evicting the oldest partial first when the pending bound is hit.
    fn start_filling(&mut self, key: RpcKey, hdr: &RpcHeader) {
        if let Some((parked, partial)) = self.filling.take() {
            self.partial.insert(parked, partial);
        }
        let partial = match self.partial.remove(&key) {
            Some(partial) => partial,
            None => {
                if self.partial.len() >= self.limit {
                    self.evict_oldest();
                }
                self.arrivals += 1;
                Partial {
                    header: *hdr,
                    payload: vec![0; usize::from(hdr.frame_count) * FRAME_PAYLOAD_BYTES],
                    seen: [0; 4],
                    received: 0,
                    last_len: 0,
                    first_arrival: self.arrivals,
                }
            }
        };
        self.filling = Some((key, partial));
    }

    /// Drops the half-assembled RPC that started first.
    fn evict_oldest(&mut self) {
        let oldest = self
            .partial
            .iter()
            .min_by_key(|(_, p)| p.first_arrival)
            .map(|(k, _)| *k);
        if let Some(oldest) = oldest {
            self.partial.remove(&oldest);
            self.evictions += 1;
        }
    }

    /// Drops whatever was assembled of `key`.
    fn discard(&mut self, key: RpcKey) {
        if self.filling.as_ref().is_some_and(|(k, _)| *k == key) {
            self.filling = None;
        } else {
            self.partial.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames_for(payload: &[u8]) -> Vec<CacheLine> {
        fragment(
            ConnectionId(1),
            RpcId(2),
            FnId(3),
            FlowId(4),
            RpcKind::Request,
            payload,
        )
        .unwrap()
    }

    #[test]
    fn empty_payload_is_one_frame() {
        let frames = frames_for(&[]);
        assert_eq!(frames.len(), 1);
        let mut r = Reassembler::new();
        let rpc = r.push(frames[0]).unwrap().unwrap();
        assert!(rpc.payload.is_empty());
        assert_eq!(rpc.header.fn_id, FnId(3));
    }

    #[test]
    fn single_frame_payload() {
        let frames = frames_for(&[7u8; 48]);
        assert_eq!(frames.len(), 1);
        let mut r = Reassembler::new();
        assert_eq!(r.push(frames[0]).unwrap().unwrap().payload, vec![7u8; 48]);
    }

    #[test]
    fn boundary_sizes() {
        for size in [1usize, 47, 48, 49, 96, 97, 4096] {
            let payload: Vec<u8> = (0..size).map(|i| i as u8).collect();
            let frames = frames_for(&payload);
            assert_eq!(frames.len(), size.div_ceil(48).max(1), "size {size}");
            let mut r = Reassembler::new();
            let mut done = None;
            for f in frames {
                done = r.push(f).unwrap();
            }
            assert_eq!(done.unwrap().payload, payload, "size {size}");
            assert_eq!(r.pending(), 0);
        }
    }

    #[test]
    fn out_of_order_frames_reassemble() {
        let payload: Vec<u8> = (0..120).collect();
        let mut frames = frames_for(&payload);
        frames.reverse();
        let mut r = Reassembler::new();
        let mut done = None;
        for f in frames {
            done = r.push(f).unwrap();
        }
        assert_eq!(done.unwrap().payload, payload);
    }

    #[test]
    fn interleaved_rpcs_reassemble_independently() {
        let pa: Vec<u8> = vec![0xAA; 100];
        let pb: Vec<u8> = vec![0xBB; 100];
        let fa = frames_for(&pa);
        let fb = fragment(
            ConnectionId(1),
            RpcId(99),
            FnId(3),
            FlowId(4),
            RpcKind::Request,
            &pb,
        )
        .unwrap();
        let mut r = Reassembler::new();
        assert!(r.push(fa[0]).unwrap().is_none());
        assert!(r.push(fb[0]).unwrap().is_none());
        assert!(r.push(fa[1]).unwrap().is_none());
        assert!(r.push(fb[1]).unwrap().is_none());
        let a = r.push(fa[2]).unwrap().unwrap();
        assert_eq!(a.payload, pa);
        let b = r.push(fb[2]).unwrap().unwrap();
        assert_eq!(b.payload, pb);
    }

    #[test]
    fn same_rpc_id_request_and_response_do_not_collide() {
        let req = frames_for(&[1u8; 100]);
        let resp = fragment(
            ConnectionId(1),
            RpcId(2),
            FnId(3),
            FlowId(4),
            RpcKind::Response,
            &[2u8; 100],
        )
        .unwrap();
        let mut r = Reassembler::new();
        for f in &req[..2] {
            assert!(r.push(*f).unwrap().is_none());
        }
        for f in &resp[..2] {
            assert!(r.push(*f).unwrap().is_none());
        }
        assert_eq!(r.pending(), 2);
        assert_eq!(r.push(req[2]).unwrap().unwrap().payload, vec![1u8; 100]);
        assert_eq!(r.push(resp[2]).unwrap().unwrap().payload, vec![2u8; 100]);
    }

    #[test]
    fn duplicate_frame_is_idempotent() {
        let payload: Vec<u8> = (0..120).collect();
        let frames = frames_for(&payload);
        let mut r = Reassembler::new();
        r.push(frames[0]).unwrap();
        r.push(frames[0]).unwrap(); // duplicate
        r.push(frames[1]).unwrap();
        let done = r.push(frames[2]).unwrap().unwrap();
        assert_eq!(done.payload, payload);
    }

    /// The last fragment carries the length: arriving first, and again,
    /// it neither completes the RPC early nor moves the end.
    #[test]
    fn duplicate_last_frame_first_neither_completes_nor_resizes() {
        let payload: Vec<u8> = (0..100).collect();
        let frames = frames_for(&payload);
        let mut r = Reassembler::new();
        assert!(r.push(frames[2]).unwrap().is_none());
        assert!(r.push(frames[2]).unwrap().is_none(), "2 of 3 distinct");
        assert!(r.push(frames[0]).unwrap().is_none());
        assert!(r.push(frames[2]).unwrap().is_none());
        assert_eq!(r.push(frames[1]).unwrap().unwrap().payload, payload);
        assert_eq!(r.pending(), 0);
    }

    /// A fragment's place in the payload is its index, so only the last
    /// may be short: anything else is a wire error, and what was assembled
    /// of that RPC goes with it.
    #[test]
    fn short_non_final_fragment_is_a_wire_error() {
        let frames = frames_for(&[7u8; 120]);
        let mut short = frames[1];
        let mut hdr = RpcHeader::decode(short.header()).unwrap();
        hdr.frame_payload_len = 47;
        hdr.encode(short.header_mut());
        let mut r = Reassembler::new();
        assert!(r.push(frames[0]).unwrap().is_none());
        assert!(matches!(r.push(short), Err(DaggerError::Wire(_))));
        assert_eq!(r.pending(), 0, "the partial is cleared");
        // As the first fragment to arrive it opens nothing either.
        assert!(matches!(r.push(short), Err(DaggerError::Wire(_))));
        assert_eq!(r.pending(), 0);
    }

    /// One buffer per RPC: in steady state (the map has its capacity) a
    /// 43-frame RPC is reassembled with exactly one allocation — the
    /// payload it hands back.
    #[test]
    fn multi_frame_reassembly_allocates_once() {
        let payload: Vec<u8> = (0..2048).map(|i| i as u8).collect();
        let frames = frames_for(&payload);
        assert_eq!(frames.len(), 43);
        let mut r = Reassembler::new();
        let feed = |r: &mut Reassembler| frames.iter().find_map(|f| r.push(*f).unwrap());
        assert_eq!(feed(&mut r).unwrap().payload, payload);
        let (allocs, done) = crate::alloc_counter::count_allocs(|| feed(&mut r));
        assert_eq!(done.unwrap().payload, payload);
        assert_eq!(allocs, 1, "one payload buffer, nothing per fragment");
    }

    #[test]
    fn oversized_payload_rejected() {
        let too_big = vec![0u8; MAX_RPC_PAYLOAD + 1];
        let err = fragment(
            ConnectionId(1),
            RpcId(2),
            FnId(3),
            FlowId(4),
            RpcKind::Request,
            &too_big,
        )
        .unwrap_err();
        assert!(matches!(err, DaggerError::PayloadTooLarge { .. }));
    }

    #[test]
    fn max_payload_accepted() {
        let payload = vec![5u8; MAX_RPC_PAYLOAD];
        let frames = frames_for(&payload);
        assert_eq!(frames.len(), 255);
        let mut r = Reassembler::new();
        let mut done = None;
        for f in frames {
            done = r.push(f).unwrap();
        }
        assert_eq!(done.unwrap().payload, payload);
    }

    /// `payload` behind the wire trace context `ctx`, as a traced request.
    fn traced_frames(payload: &[u8], ctx: TraceContext) -> Result<Vec<CacheLine>> {
        let header = RpcHeader {
            traced: true,
            ..message_header(
                ConnectionId(1),
                RpcId(2),
                FnId(3),
                FlowId(4),
                RpcKind::Request,
            )
        };
        let mut frames = Vec::new();
        fragment_into(&mut frames, header, &ctx.encode(), payload)?;
        Ok(frames)
    }

    #[test]
    fn trace_context_rides_and_strips() {
        let ctx = TraceContext {
            trace_id: 0x1111_2222_3333_4444,
            span_id: 0x5555_6666_7777_8888,
        };
        for size in [0usize, 1, 32, 47, 48, 100, 200] {
            let payload: Vec<u8> = (0..size).map(|i| i as u8).collect();
            let frames = traced_frames(&payload, ctx).unwrap();
            assert_eq!(
                frames.len(),
                (size + TraceContext::WIRE_BYTES).div_ceil(48),
                "size {size}"
            );
            for f in &frames {
                assert!(RpcHeader::decode(f.header()).unwrap().traced);
            }
            let mut r = Reassembler::new();
            let mut done = None;
            for f in frames {
                done = r.push(f).unwrap();
            }
            let mut rpc = done.unwrap();
            assert_eq!(rpc.take_trace_context(), Some(ctx), "size {size}");
            assert!(!rpc.header.traced, "traced bit cleared after strip");
            assert_eq!(rpc.payload, payload, "size {size}");
            assert_eq!(rpc.take_trace_context(), None, "strip is one-shot");
        }
    }

    #[test]
    fn untraced_rpc_has_no_context_and_no_extra_bytes() {
        let mut with_none = Vec::new();
        let header = message_header(
            ConnectionId(1),
            RpcId(2),
            FnId(3),
            FlowId(4),
            RpcKind::Request,
        );
        fragment_into(&mut with_none, header, &[], &[9u8; 100]).unwrap();
        let plain = frames_for(&[9u8; 100]);
        assert_eq!(with_none.len(), plain.len());
        for (a, b) in with_none.iter().zip(plain.iter()) {
            assert_eq!(a.header(), b.header(), "identical wire bytes");
            assert_eq!(a.payload(), b.payload());
        }
        let mut r = Reassembler::new();
        let mut done = None;
        for f in with_none {
            done = r.push(f).unwrap();
        }
        assert_eq!(done.unwrap().take_trace_context(), None);
    }

    #[test]
    fn traced_payload_budget_shrinks_by_prelude() {
        let ctx = TraceContext {
            trace_id: 1,
            span_id: 2,
        };
        let limit = MAX_RPC_PAYLOAD - TraceContext::WIRE_BYTES;
        assert_eq!(traced_frames(&vec![0u8; limit], ctx).unwrap().len(), 255);
        let err = traced_frames(&vec![0u8; limit + 1], ctx).unwrap_err();
        assert!(matches!(err, DaggerError::PayloadTooLarge { .. }));
    }

    /// Fragmenting `prefix ++ payload` in place gives the frames of the
    /// concatenated stream byte for byte — headers included — whatever
    /// side of a frame boundary the seam falls on, and appends behind
    /// what `out` already holds.
    #[test]
    fn fragment_into_matches_fragmenting_the_concatenated_stream() {
        let sentinel = CacheLine::zeroed();
        for prefix_len in [0usize, 1, 16, 47, 48, 49] {
            for payload_len in [0usize, 1, 47, 48, 49, 200, 2040] {
                let prefix: Vec<u8> = (0..prefix_len).map(|i| 0x80 | i as u8).collect();
                let payload: Vec<u8> = (0..payload_len).map(|i| i as u8).collect();
                let traced = prefix_len == TraceContext::WIRE_BYTES;
                let header = RpcHeader {
                    traced,
                    ..message_header(
                        ConnectionId(1),
                        RpcId(2),
                        FnId(3),
                        FlowId(4),
                        RpcKind::Response,
                    )
                };
                let mut got = vec![sentinel];
                fragment_into(&mut got, header, &prefix, &payload).unwrap();
                assert_eq!(got.remove(0), sentinel, "appends behind what out holds");
                let stream = [prefix.as_slice(), &payload].concat();
                let want: Vec<CacheLine> = fragment(
                    ConnectionId(1),
                    RpcId(2),
                    FnId(3),
                    FlowId(4),
                    RpcKind::Response,
                    &stream,
                )
                .unwrap()
                .into_iter()
                .map(|l| restamp(l, |h| h.traced = traced))
                .collect();
                let case = format!("prefix {prefix_len}, payload {payload_len}");
                assert_eq!(got, want, "{case}");
                let count = stream.len().div_ceil(FRAME_PAYLOAD_BYTES).max(1);
                for (idx, line) in got.iter().enumerate() {
                    let h = RpcHeader::decode(line.header()).unwrap();
                    let used = (stream.len() - idx * FRAME_PAYLOAD_BYTES).min(48);
                    assert_eq!(h.traced, traced, "{case}");
                    assert_eq!(usize::from(h.frame_count), count, "{case}");
                    assert_eq!(usize::from(h.frame_payload_len), used, "{case}");
                }
            }
        }
    }

    /// A recycled payload buffer is what the next single-frame RPC
    /// completes into; the free list keeps at most its cap of buffers, and
    /// none too small for a frame.
    #[test]
    fn recycle_reuses_a_buffer_and_keeps_its_free_list_bounded() {
        let mut r = Reassembler::new();
        let first = r.push(frames_for(b"first")[0]).unwrap().unwrap();
        let buf = first.payload;
        assert!(buf.capacity() >= FRAME_PAYLOAD_BYTES, "room for any frame");
        let ptr = buf.as_ptr();
        r.recycle(buf);
        let line = frames_for(b"second")[0];
        let (allocs, done) = crate::alloc_counter::count_allocs(|| r.push(line));
        let second = done.unwrap().unwrap();
        assert_eq!(allocs, 0, "completed into the recycled buffer");
        assert_eq!(
            (second.payload.as_ptr(), &second.payload[..]),
            (ptr, &b"second"[..])
        );
        r.recycle(Vec::with_capacity(FRAME_PAYLOAD_BYTES - 1));
        assert!(r.recycled.is_empty(), "a buffer too small for a frame");
        for _ in 0..2 * RECYCLED_CAP {
            r.recycle(Vec::with_capacity(FRAME_PAYLOAD_BYTES));
        }
        assert_eq!(r.recycled.len(), RECYCLED_CAP);
    }

    #[test]
    fn pending_bound_evicts_oldest_partial() {
        let mut r = Reassembler::with_limit(2);
        // Start three 3-frame RPCs without finishing any: the first (rpc 0)
        // must be evicted when rpc 2 starts.
        for rpc in 0..3u32 {
            let frames = fragment(
                ConnectionId(1),
                RpcId(rpc),
                FnId(3),
                FlowId(4),
                RpcKind::Request,
                &[rpc as u8; 120],
            )
            .unwrap();
            assert!(r.push(frames[0]).unwrap().is_none());
        }
        assert_eq!(r.pending(), 2);
        assert_eq!(r.evictions(), 1);
        // Completing the evicted RPC's remaining frames re-opens it as a
        // fresh partial (its first frame is gone), so it cannot complete —
        // but nothing panics and pending stays bounded.
        let frames = fragment(
            ConnectionId(1),
            RpcId(0),
            FnId(3),
            FlowId(4),
            RpcKind::Request,
            &[0u8; 120],
        )
        .unwrap();
        assert!(r.push(frames[1]).unwrap().is_none());
        assert!(r.push(frames[2]).unwrap().is_none());
        assert!(r.pending() <= 2);
        // Memory follows the count: one buffer per partial, none larger
        // than the largest RPC.
        let filling = r.filling.iter().map(|(_, p)| p);
        let held: usize = r
            .partial
            .values()
            .chain(filling)
            .map(|p| p.payload.capacity())
            .sum();
        assert!(held <= 2 * MAX_RPC_PAYLOAD, "{held} bytes pending");
    }

    #[test]
    fn forget_discards_partial_state() {
        let payload = vec![1u8; 100];
        let frames = frames_for(&payload);
        let mut r = Reassembler::new();
        r.push(frames[0]).unwrap();
        assert_eq!(r.pending(), 1);
        r.forget(ConnectionId(1), RpcId(2));
        assert_eq!(r.pending(), 0);
        // Remaining frames restart a partial that can no longer complete.
        assert!(r.push(frames[1]).unwrap().is_none());
        assert!(r.push(frames[2]).unwrap().is_none());
        assert_eq!(r.pending(), 1);
        // Forgetting an unknown RPC is a no-op.
        r.forget(ConnectionId(9), RpcId(9));
        assert_eq!(r.pending(), 1);
    }

    #[test]
    fn inconsistent_frame_count_rejected() {
        let payload = vec![1u8; 100];
        let frames = frames_for(&payload);
        let mut r = Reassembler::new();
        r.push(frames[0]).unwrap();
        // Forge a frame with the same identity but a different count.
        let forged = fragment(
            ConnectionId(1),
            RpcId(2),
            FnId(3),
            FlowId(4),
            RpcKind::Request,
            &[1u8; 200],
        )
        .unwrap()[1];
        assert!(r.push(forged).is_err());
    }

    /// The three frames of request `rpc` on connection 1: 120 bytes of `rpc`.
    fn rpc_frames(rpc: u32) -> Vec<CacheLine> {
        fragment(
            ConnectionId(1),
            RpcId(rpc),
            FnId(3),
            FlowId(4),
            RpcKind::Request,
            &[rpc as u8; 120],
        )
        .unwrap()
    }

    /// The RPC being filled is held out of the map, and still counts as
    /// pending; a frame of another RPC parks it without losing a byte.
    #[test]
    fn pending_counts_the_partial_being_filled() {
        let (a, b) = (rpc_frames(0), rpc_frames(1));
        let mut r = Reassembler::new();
        assert!(r.push(a[0]).unwrap().is_none());
        assert!(r.filling.is_some() && r.partial.is_empty());
        assert_eq!(r.pending(), 1);
        assert!(r.push(b[0]).unwrap().is_none());
        assert_eq!(
            (r.pending(), r.partial.len()),
            (2, 1),
            "a parked, b filling"
        );
        assert!(r.push(a[1]).unwrap().is_none());
        assert_eq!(r.push(a[2]).unwrap().unwrap().payload, vec![0u8; 120]);
        assert_eq!((r.pending(), r.filling.is_none()), (1, true));
        assert!(r.push(b[1]).unwrap().is_none());
        assert_eq!(r.push(b[2]).unwrap().unwrap().payload, vec![1u8; 120]);
        assert_eq!(r.pending(), 0);
    }

    /// `forget` reaches the RPC being filled as well as the parked ones.
    #[test]
    fn forget_drops_the_partial_being_filled() {
        let (a, b) = (rpc_frames(0), rpc_frames(1));
        let mut r = Reassembler::new();
        r.push(a[0]).unwrap();
        r.push(b[0]).unwrap();
        r.forget(ConnectionId(1), RpcId(1));
        assert!(r.filling.is_none());
        assert_eq!(r.pending(), 1);
        r.forget(ConnectionId(1), RpcId(0));
        assert_eq!(r.pending(), 0);
    }

    /// Starting an RPC at the bound while another is being filled parks
    /// that one and evicts the oldest of all, the one being filled included.
    #[test]
    fn the_bound_counts_and_evicts_the_partial_being_filled() {
        let mut r = Reassembler::with_limit(2);
        for rpc in 0..2 {
            r.push(rpc_frames(rpc)[0]).unwrap();
        }
        // rpc 0 is parked and oldest, rpc 1 is being filled.
        r.push(rpc_frames(2)[0]).unwrap();
        assert_eq!((r.pending(), r.evictions()), (2, 1));
        assert!(!r.partial.contains_key(&(1, 0, RpcKind::Request as u8)));
        // Resume rpc 1 (parked now), then start rpc 3 while it is being
        // filled: the oldest left is rpc 1 itself.
        r.push(rpc_frames(1)[1]).unwrap();
        r.push(rpc_frames(3)[0]).unwrap();
        assert_eq!((r.pending(), r.evictions()), (2, 2));
        assert!(!r.partial.contains_key(&(1, 1, RpcKind::Request as u8)));
        let rpc2 = r.push(rpc_frames(2)[1]).unwrap();
        assert!(rpc2.is_none());
        assert_eq!(r.push(rpc_frames(2)[2]).unwrap().unwrap().payload, [2; 120]);
        assert!(r.pending() <= 2);
    }

    /// A short or inconsistent frame clears the RPC being filled.
    #[test]
    fn a_bad_frame_clears_the_partial_being_filled() {
        let frames = rpc_frames(0);
        let short = restamp(frames[1], |h| h.frame_payload_len = 47);
        let recounted = restamp(frames[1], |h| h.frame_count = 4);
        for bad in [short, recounted] {
            let mut r = Reassembler::new();
            r.push(frames[0]).unwrap();
            assert!(matches!(r.push(bad), Err(DaggerError::Wire(_))));
            assert!(r.filling.is_none());
            assert_eq!(r.pending(), 0);
        }
    }

    /// `line` with its header rewritten by `edit`.
    fn restamp(mut line: CacheLine, edit: impl FnOnce(&mut RpcHeader)) -> CacheLine {
        let mut hdr = RpcHeader::decode(line.header()).unwrap();
        edit(&mut hdr);
        hdr.encode(line.header_mut());
        line
    }
}
