//! The packed RPC header carried in every cache-line frame.
//!
//! Dagger transfers *ready-to-use RPC objects* rather than raw packets; each
//! 64-byte frame begins with a fixed 16-byte header that the NIC hardware
//! parses to route, steer, and reassemble requests. The layout is:
//!
//! ```text
//! offset  field              size
//! 0       connection_id      4   (little endian)
//! 4       rpc_id             4
//! 8       fn_id              2
//! 10      src_flow           2   flow to steer the response back to (§4.2)
//! 12      kind               1   bits 0-5: 1 = request, 2 = response;
//!                                bit 7: traced — the RPC payload starts
//!                                with a 16-byte trace-context prelude;
//!                                bit 6: offloaded — this response was
//!                                synthesized by the NIC offload stage
//!                                (hot-key cache hit), not a host core
//! 13      frame_idx          1   index of this frame within the RPC
//! 14      frame_count        1   total frames of the RPC (software
//!                                reassembly for multi-frame RPCs, §4.7)
//! 15      frame_payload_len  1   payload bytes used in this frame (≤ 48)
//! ```

use crate::cell::{FRAME_PAYLOAD_BYTES, HEADER_BYTES};
use crate::error::{DaggerError, Result};
use crate::ids::{ConnectionId, FlowId, FnId, RpcId};

/// Whether a frame carries a request or a response. The stack is symmetric:
/// the same NIC and software serve both roles (§4.4), distinguished only by
/// this field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RpcKind {
    /// An RPC request travelling client → server.
    Request = 1,
    /// An RPC response travelling server → client.
    Response = 2,
}

impl RpcKind {
    fn from_u8(v: u8) -> Result<Self> {
        match v {
            1 => Ok(RpcKind::Request),
            2 => Ok(RpcKind::Response),
            other => Err(DaggerError::Wire(format!("invalid rpc kind byte {other}"))),
        }
    }
}

/// Bit 7 of the kind byte flags a traced RPC. The remaining kind values fit
/// comfortably in the low bits, so the flag rides the existing header for
/// free: tracing disabled changes nothing on the wire.
const TRACED_BIT: u8 = 0x80;

/// Bit 6 of the kind byte flags a response served by the NIC offload stage
/// (a hot-key cache hit) rather than a host core. Like [`TRACED_BIT`] it
/// rides the kind byte for free: with offloads disabled nothing on the wire
/// changes, and endpoints use it to account NIC-served completions.
const OFFLOADED_BIT: u8 = 0x40;

/// Bits of the kind byte that carry flags rather than the kind value.
const KIND_FLAG_MASK: u8 = TRACED_BIT | OFFLOADED_BIT;

/// The parsed form of the 16-byte frame header.
///
/// # Example
///
/// ```
/// use dagger_types::{RpcHeader, RpcKind, ConnectionId, RpcId, FnId, FlowId, HEADER_BYTES};
/// let hdr = RpcHeader {
///     connection_id: ConnectionId(1),
///     rpc_id: RpcId(2),
///     fn_id: FnId(3),
///     src_flow: FlowId(4),
///     kind: RpcKind::Response,
///     frame_idx: 0,
///     frame_count: 2,
///     frame_payload_len: 48,
///     traced: false,
///     offloaded: false,
/// };
/// let mut buf = [0u8; HEADER_BYTES];
/// hdr.encode(&mut buf);
/// assert_eq!(RpcHeader::decode(&buf).unwrap(), hdr);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RpcHeader {
    /// Connection this RPC belongs to; key into the connection manager.
    pub connection_id: ConnectionId,
    /// Per-connection sequence number matching responses to requests.
    pub rpc_id: RpcId,
    /// Remote procedure selector within the destination service.
    pub fn_id: FnId,
    /// The client-side flow that issued the request, so the server NIC can
    /// steer the response back to the same flow (§4.2).
    pub src_flow: FlowId,
    /// Request or response.
    pub kind: RpcKind,
    /// Index of this frame within a (possibly multi-frame) RPC.
    pub frame_idx: u8,
    /// Total number of frames of this RPC. `1` for single-line RPCs.
    pub frame_count: u8,
    /// Number of payload bytes used in this frame. At most
    /// [`FRAME_PAYLOAD_BYTES`].
    pub frame_payload_len: u8,
    /// Distributed-tracing flag (bit 7 of the kind byte): when set, the
    /// RPC's payload begins with a 16-byte wire trace context that the RPC
    /// layer strips before handing the payload to the application. Hardware
    /// (the load balancer's object-level steering) uses this flag to skip
    /// the prelude when hashing keys.
    pub traced: bool,
    /// Offload flag (bit 6 of the kind byte): set on responses synthesized
    /// by the NIC's offload stage (a hot-key cache hit served from the RX
    /// path). Client endpoints count these to reconcile NIC-served
    /// completions against the engine's hit telemetry.
    pub offloaded: bool,
}

impl RpcHeader {
    /// Serializes the header into `buf` (must be at least [`HEADER_BYTES`]).
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`HEADER_BYTES`].
    #[inline]
    pub fn encode(&self, buf: &mut [u8]) {
        assert!(buf.len() >= HEADER_BYTES, "header buffer too small");
        buf[0..4].copy_from_slice(&self.connection_id.raw().to_le_bytes());
        buf[4..8].copy_from_slice(&self.rpc_id.raw().to_le_bytes());
        buf[8..10].copy_from_slice(&self.fn_id.raw().to_le_bytes());
        buf[10..12].copy_from_slice(&self.src_flow.raw().to_le_bytes());
        buf[12] = self.kind as u8
            | if self.traced { TRACED_BIT } else { 0 }
            | if self.offloaded { OFFLOADED_BIT } else { 0 };
        buf[13] = self.frame_idx;
        buf[14] = self.frame_count;
        buf[15] = self.frame_payload_len;
    }

    /// Parses a header from `buf` (must be at least [`HEADER_BYTES`]).
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Wire`] if the kind byte is invalid, the frame
    /// payload length exceeds [`FRAME_PAYLOAD_BYTES`], the frame index is not
    /// below the frame count, or the frame count is zero.
    #[inline]
    pub fn decode(buf: &[u8]) -> Result<Self> {
        if buf.len() < HEADER_BYTES {
            return Err(DaggerError::Wire(format!(
                "header buffer too small: {} < {HEADER_BYTES}",
                buf.len()
            )));
        }
        let hdr = RpcHeader {
            connection_id: ConnectionId(u32::from_le_bytes(buf[0..4].try_into().unwrap())),
            rpc_id: RpcId(u32::from_le_bytes(buf[4..8].try_into().unwrap())),
            fn_id: FnId(u16::from_le_bytes(buf[8..10].try_into().unwrap())),
            src_flow: FlowId(u16::from_le_bytes(buf[10..12].try_into().unwrap())),
            kind: RpcKind::from_u8(buf[12] & !KIND_FLAG_MASK)?,
            frame_idx: buf[13],
            frame_count: buf[14],
            frame_payload_len: buf[15],
            traced: buf[12] & TRACED_BIT != 0,
            offloaded: buf[12] & OFFLOADED_BIT != 0,
        };
        if usize::from(hdr.frame_payload_len) > FRAME_PAYLOAD_BYTES {
            return Err(DaggerError::Wire(format!(
                "frame payload length {} exceeds {FRAME_PAYLOAD_BYTES}",
                hdr.frame_payload_len
            )));
        }
        if hdr.frame_count == 0 {
            return Err(DaggerError::Wire("frame count of zero".to_string()));
        }
        if hdr.frame_idx >= hdr.frame_count {
            return Err(DaggerError::Wire(format!(
                "frame index {} out of range for count {}",
                hdr.frame_idx, hdr.frame_count
            )));
        }
        Ok(hdr)
    }

    /// `true` if this is the last frame of its RPC.
    pub fn is_last_frame(&self) -> bool {
        self.frame_idx + 1 == self.frame_count
    }

    /// `true` if this frame is the one right after `prev` in the same
    /// message: same connection, RPC, function, kind and frame count, and
    /// the next frame index. Whatever the first frame of a message decided
    /// for it holds for such a frame.
    #[inline]
    pub fn continues(&self, prev: &RpcHeader) -> bool {
        self.connection_id == prev.connection_id
            && self.rpc_id == prev.rpc_id
            && self.fn_id == prev.fn_id
            && self.kind == prev.kind
            && self.frame_count == prev.frame_count
            && self.frame_idx.checked_sub(1) == Some(prev.frame_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RpcHeader {
        RpcHeader {
            connection_id: ConnectionId(0xDEAD_BEEF),
            rpc_id: RpcId(0x1234_5678),
            fn_id: FnId(0xABCD),
            src_flow: FlowId(0x0102),
            kind: RpcKind::Request,
            frame_idx: 2,
            frame_count: 5,
            frame_payload_len: 48,
            traced: false,
            offloaded: false,
        }
    }

    #[test]
    fn roundtrip() {
        let hdr = sample();
        let mut buf = [0u8; HEADER_BYTES];
        hdr.encode(&mut buf);
        assert_eq!(RpcHeader::decode(&buf).unwrap(), hdr);
    }

    #[test]
    fn traced_flag_roundtrips_in_kind_byte() {
        let mut hdr = sample();
        hdr.traced = true;
        let mut buf = [0u8; HEADER_BYTES];
        hdr.encode(&mut buf);
        assert_eq!(buf[12], 0x81, "traced request = kind 1 | bit 7");
        assert_eq!(RpcHeader::decode(&buf).unwrap(), hdr);
        hdr.traced = false;
        hdr.encode(&mut buf);
        assert_eq!(buf[12], 0x01, "untraced wire bytes are unchanged");
        assert_eq!(RpcHeader::decode(&buf).unwrap(), hdr);
    }

    #[test]
    fn offloaded_flag_roundtrips_in_kind_byte() {
        let mut hdr = sample();
        hdr.kind = RpcKind::Response;
        hdr.offloaded = true;
        let mut buf = [0u8; HEADER_BYTES];
        hdr.encode(&mut buf);
        assert_eq!(buf[12], 0x42, "offloaded response = kind 2 | bit 6");
        assert_eq!(RpcHeader::decode(&buf).unwrap(), hdr);
        hdr.traced = true;
        hdr.encode(&mut buf);
        assert_eq!(buf[12], 0xC2, "both flags compose");
        assert_eq!(RpcHeader::decode(&buf).unwrap(), hdr);
        hdr.traced = false;
        hdr.offloaded = false;
        hdr.encode(&mut buf);
        assert_eq!(buf[12], 0x02, "flag-free wire bytes are unchanged");
        assert_eq!(RpcHeader::decode(&buf).unwrap(), hdr);
    }

    #[test]
    fn rejects_bad_kind() {
        let mut buf = [0u8; HEADER_BYTES];
        sample().encode(&mut buf);
        buf[12] = 9;
        assert!(RpcHeader::decode(&buf).is_err());
    }

    #[test]
    fn rejects_oversized_payload_len() {
        let mut buf = [0u8; HEADER_BYTES];
        sample().encode(&mut buf);
        buf[15] = (FRAME_PAYLOAD_BYTES + 1) as u8;
        assert!(RpcHeader::decode(&buf).is_err());
    }

    #[test]
    fn rejects_zero_frame_count() {
        let mut buf = [0u8; HEADER_BYTES];
        sample().encode(&mut buf);
        buf[14] = 0;
        assert!(RpcHeader::decode(&buf).is_err());
    }

    #[test]
    fn rejects_frame_idx_out_of_range() {
        let mut buf = [0u8; HEADER_BYTES];
        sample().encode(&mut buf);
        buf[13] = 5; // == frame_count
        assert!(RpcHeader::decode(&buf).is_err());
    }

    #[test]
    fn rejects_short_buffer() {
        let buf = [0u8; HEADER_BYTES - 1];
        assert!(RpcHeader::decode(&buf).is_err());
    }

    #[test]
    fn last_frame_detection() {
        let mut hdr = sample();
        assert!(!hdr.is_last_frame());
        hdr.frame_idx = 4;
        assert!(hdr.is_last_frame());
    }

    #[test]
    fn continues_only_the_next_frame_of_the_same_message() {
        let prev = sample();
        let next = RpcHeader {
            frame_idx: 3,
            frame_payload_len: 7,
            traced: true,
            ..prev
        };
        assert!(next.continues(&prev), "payload length and flags may differ");
        assert!(!prev.continues(&prev), "a repeat is not the next frame");
        assert!(!prev.continues(&next), "nor is an earlier one");
        let skip = RpcHeader {
            frame_idx: 4,
            ..prev
        };
        assert!(!skip.continues(&prev), "nor is a gap");
        for other in [
            RpcHeader {
                connection_id: ConnectionId(1),
                ..next
            },
            RpcHeader {
                rpc_id: RpcId(1),
                ..next
            },
            RpcHeader {
                fn_id: FnId(1),
                ..next
            },
            RpcHeader {
                kind: RpcKind::Response,
                ..next
            },
            RpcHeader {
                frame_count: 6,
                ..next
            },
        ] {
            assert!(!other.continues(&prev), "{other:?}");
        }
    }
}
