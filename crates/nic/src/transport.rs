//! The Transport unit: UDP/IP-like framing over the fabric.
//!
//! The Dagger NIC's transport layer "implements a version of the UDP/IP
//! protocol and sends outgoing serialized RPC requests to the Ethernet
//! network" (§4.5). A [`Datagram`] carries a batch of cache-line RPC frames
//! between two NICs; [`Datagram::encode`]/[`Datagram::decode`] give it a
//! deterministic byte format so the fabric moves plain bytes, like a wire.
//! The encoding is a property of this layer, not of the fabric backend:
//! the same bytes cross the in-memory wire and real UDP sockets unmodified
//! (see the [`crate::fabric::Wire`] seam beneath the switch and the
//! golden-frame conformance test in `tests/transport_conformance.rs`).
//!
//! The paper's Protocol unit (congestion control, acknowledgements) is
//! *idle* — "it simply forwards all packets". Ours is either absent (an
//! unreliable NIC ships datagrams exactly as framed here) or occupied by
//! [`crate::reliable`], the sliding-window transport the paper names as
//! follow-up work.

use dagger_types::{CacheLine, DaggerError, NodeAddr, Result, CACHE_LINE_BYTES};

/// Magic bytes prefixing every datagram ("DGGR").
const MAGIC: [u8; 4] = *b"DGGR";
/// Encoded header size: magic + src + dst + line count.
const DGRAM_HEADER: usize = 4 + 4 + 4 + 2;
/// Maximum lines per datagram (one CCI-P delivery batch is ≤ 16; transport
/// batches across flows stay well below this).
pub const MAX_LINES_PER_DATAGRAM: usize = 256;

/// A network datagram: a batch of cache-line RPC frames between two NICs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datagram {
    /// Sending NIC address.
    pub src: NodeAddr,
    /// Destination NIC address.
    pub dst: NodeAddr,
    /// The RPC frames (each one cache line).
    pub lines: Vec<CacheLine>,
}

impl Datagram {
    /// Creates a datagram.
    ///
    /// # Panics
    ///
    /// Panics if `lines` exceeds [`MAX_LINES_PER_DATAGRAM`].
    pub fn new(src: NodeAddr, dst: NodeAddr, lines: Vec<CacheLine>) -> Self {
        assert!(
            lines.len() <= MAX_LINES_PER_DATAGRAM,
            "datagram of {} lines exceeds {MAX_LINES_PER_DATAGRAM}",
            lines.len()
        );
        Datagram { src, dst, lines }
    }

    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(DGRAM_HEADER + self.lines.len() * CACHE_LINE_BYTES);
        self.append_to(&mut out);
        out
    }

    /// Serializes into `out` (cleared first), reusing its allocation. The
    /// pooled-buffer equivalent of [`Datagram::encode`]: byte-identical
    /// output, zero heap traffic once `out` has capacity.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(DGRAM_HEADER + self.lines.len() * CACHE_LINE_BYTES);
        self.append_to(out);
    }

    /// Appends the wire encoding to `out` without clearing it (used by the
    /// reliable transport to build header + datagram in one buffer).
    pub fn append_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.src.raw().to_le_bytes());
        out.extend_from_slice(&self.dst.raw().to_le_bytes());
        out.extend_from_slice(&(self.lines.len() as u16).to_le_bytes());
        for line in &self.lines {
            out.extend_from_slice(line.as_bytes());
        }
    }

    /// Parses wire bytes back into a datagram.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Wire`] on bad magic, truncated input, or a
    /// length mismatch.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut lines = Vec::new();
        let (src, dst) = Self::decode_lines_into(bytes, &mut lines)?;
        Ok(Datagram { src, dst, lines })
    }

    /// Parses wire bytes, writing the frames into `lines` (cleared first)
    /// so a pooled vector can absorb the decode instead of a fresh
    /// allocation. Returns the `(src, dst)` addresses.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Wire`] on bad magic, truncated input, or a
    /// length mismatch; `lines` is left cleared in that case.
    pub fn decode_lines_into(
        bytes: &[u8],
        lines: &mut Vec<CacheLine>,
    ) -> Result<(NodeAddr, NodeAddr)> {
        lines.clear();
        if bytes.len() < DGRAM_HEADER {
            return Err(DaggerError::Wire(format!(
                "datagram too short: {} bytes",
                bytes.len()
            )));
        }
        if bytes[0..4] != MAGIC {
            return Err(DaggerError::Wire("bad datagram magic".to_string()));
        }
        let src = NodeAddr(u32::from_le_bytes(bytes[4..8].try_into().unwrap()));
        let dst = NodeAddr(u32::from_le_bytes(bytes[8..12].try_into().unwrap()));
        let count = u16::from_le_bytes(bytes[12..14].try_into().unwrap()) as usize;
        if count > MAX_LINES_PER_DATAGRAM {
            return Err(DaggerError::Wire(format!("line count {count} too large")));
        }
        let expected = DGRAM_HEADER + count * CACHE_LINE_BYTES;
        if bytes.len() != expected {
            return Err(DaggerError::Wire(format!(
                "datagram length {} != expected {expected}",
                bytes.len()
            )));
        }
        lines.reserve(count);
        for i in 0..count {
            let start = DGRAM_HEADER + i * CACHE_LINE_BYTES;
            let mut raw = [0u8; CACHE_LINE_BYTES];
            raw.copy_from_slice(&bytes[start..start + CACHE_LINE_BYTES]);
            lines.push(CacheLine::from_bytes(raw));
        }
        Ok((src, dst))
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Streaming FNV-1a-64 folded to 32 bits, computed over `parts` as if
/// concatenated. Guards reliable-transport frames against fabric bit
/// corruption: the checksum rides each frame and a mismatch on decode
/// surfaces as [`DaggerError::Wire`], turning corruption into loss — which
/// the retransmission machinery already repairs.
///
/// The hot path is [`fnv1a_chunked`]: an 8-lane unrolled pass that loads
/// one 64-bit word per iteration and evaluates the same sequential
/// recurrence lane by lane, so the digest is byte-identical to the scalar
/// definition (`wire_checksum_scalar`, kept as the reference and the tail
/// fallback). The property test below pins the byte identity.
pub fn wire_checksum(parts: &[&[u8]]) -> u32 {
    let mut h = FNV_OFFSET;
    for part in parts {
        h = fnv1a_chunked(h, part);
    }
    (h ^ (h >> 32)) as u32
}

/// Scalar FNV-1a-64 reference: the original byte-at-a-time recurrence.
/// The wire format is defined by THIS function; the chunked pass must
/// match it bit for bit on every input.
pub fn wire_checksum_scalar(parts: &[&[u8]]) -> u32 {
    let mut h = FNV_OFFSET;
    for part in parts {
        h = fnv1a_scalar(h, part);
    }
    (h ^ (h >> 32)) as u32
}

#[inline]
fn fnv1a_scalar(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// 8-lane unrolled FNV-1a-64 over one part. Each iteration performs a
/// single unaligned 64-bit load and then applies the xor-multiply
/// recurrence to each byte lane of the word; the compiler keeps the word
/// in a register, eliminating the per-byte bounds checks and loads of the
/// scalar loop. Tails shorter than 8 bytes fall back to the scalar pass.
#[inline]
fn fnv1a_chunked(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        h = (h ^ (w & 0xFF)).wrapping_mul(FNV_PRIME);
        h = (h ^ ((w >> 8) & 0xFF)).wrapping_mul(FNV_PRIME);
        h = (h ^ ((w >> 16) & 0xFF)).wrapping_mul(FNV_PRIME);
        h = (h ^ ((w >> 24) & 0xFF)).wrapping_mul(FNV_PRIME);
        h = (h ^ ((w >> 32) & 0xFF)).wrapping_mul(FNV_PRIME);
        h = (h ^ ((w >> 40) & 0xFF)).wrapping_mul(FNV_PRIME);
        h = (h ^ ((w >> 48) & 0xFF)).wrapping_mul(FNV_PRIME);
        h = (h ^ (w >> 56)).wrapping_mul(FNV_PRIME);
    }
    fnv1a_scalar(h, chunks.remainder())
}

/// Cache-line frames carried by an encoded wire frame, read off its
/// length: the datagram header plus the reliable transport's prefix and
/// checksum total less than one cache line, so the quotient is exact for
/// both framings (and 0 for a standalone ack).
pub(crate) fn wire_frames(bytes: &[u8]) -> u64 {
    (bytes.len() / CACHE_LINE_BYTES) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_lines(n: usize) -> Vec<CacheLine> {
        (0..n)
            .map(|i| {
                let mut l = CacheLine::zeroed();
                l.as_bytes_mut()[0] = i as u8;
                l.as_bytes_mut()[63] = (i * 3) as u8;
                l
            })
            .collect()
    }

    #[test]
    fn roundtrip() {
        let d = Datagram::new(NodeAddr(7), NodeAddr(9), sample_lines(5));
        let bytes = d.encode();
        assert_eq!(Datagram::decode(&bytes).unwrap(), d);
    }

    #[test]
    fn roundtrip_empty() {
        let d = Datagram::new(NodeAddr(1), NodeAddr(2), vec![]);
        assert_eq!(Datagram::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = Datagram::new(NodeAddr(1), NodeAddr(2), sample_lines(1)).encode();
        bytes[0] = b'X';
        assert!(Datagram::decode(&bytes).is_err());
    }

    #[test]
    fn rejects_truncated() {
        let bytes = Datagram::new(NodeAddr(1), NodeAddr(2), sample_lines(2)).encode();
        assert!(Datagram::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(Datagram::decode(&bytes[..3]).is_err());
    }

    #[test]
    fn rejects_length_mismatch() {
        let mut bytes = Datagram::new(NodeAddr(1), NodeAddr(2), sample_lines(2)).encode();
        // Claim 3 lines but carry 2.
        bytes[12..14].copy_from_slice(&3u16.to_le_bytes());
        assert!(Datagram::decode(&bytes).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn too_many_lines_panics() {
        let _ = Datagram::new(
            NodeAddr(1),
            NodeAddr(2),
            sample_lines(MAX_LINES_PER_DATAGRAM + 1),
        );
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_buffer() {
        let d = Datagram::new(NodeAddr(7), NodeAddr(9), sample_lines(5));
        let mut buf = vec![0xFFu8; 3]; // stale content must be discarded
        d.encode_into(&mut buf);
        assert_eq!(buf, d.encode());
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        d.encode_into(&mut buf);
        assert_eq!(buf.capacity(), cap, "re-encode must not grow the buffer");
        assert_eq!(buf.as_ptr(), ptr, "re-encode must not reallocate");
    }

    #[test]
    fn decode_lines_into_reuses_vector() {
        let d = Datagram::new(NodeAddr(7), NodeAddr(9), sample_lines(5));
        let bytes = d.encode();
        let mut lines = sample_lines(2); // stale content must be discarded
        let (src, dst) = Datagram::decode_lines_into(&bytes, &mut lines).unwrap();
        assert_eq!((src, dst), (d.src, d.dst));
        assert_eq!(lines, d.lines);
        // Errors leave the vector cleared, never with stale frames.
        assert!(Datagram::decode_lines_into(&bytes[..3], &mut lines).is_err());
        assert!(lines.is_empty());
    }

    #[test]
    fn wire_checksum_streams_over_parts() {
        let whole = wire_checksum(&[b"hello world"]);
        let split = wire_checksum(&[b"hello", b" ", b"world"]);
        assert_eq!(whole, split, "checksum independent of chunking");
        assert_ne!(whole, wire_checksum(&[b"hello worle"]));
        assert_ne!(whole, wire_checksum(&[b"hello worl"]));
    }

    /// Byte-identity property test: the 8-lane chunked pass must equal the
    /// scalar reference on every input length, alignment, and part split —
    /// the checksum is on the wire, so any divergence is a protocol break.
    /// Inputs come from a seeded xorshift generator so the sweep is
    /// deterministic yet covers lengths well past the unroll width,
    /// including all tail residues 0..8 and splits that land mid-word.
    #[test]
    fn wire_checksum_chunked_matches_scalar() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 0..200usize {
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(
                wire_checksum(&[&data]),
                wire_checksum_scalar(&[&data]),
                "chunked != scalar at len {len}"
            );
            // Every split point: the streaming recurrence must carry state
            // across part boundaries exactly as the scalar does.
            for split in 0..=len {
                let (a, b) = data.split_at(split);
                assert_eq!(
                    wire_checksum(&[a, b]),
                    wire_checksum_scalar(&[&data]),
                    "chunked split at {split}/{len} diverged"
                );
            }
        }
        // Longer bursts (datagram-sized: 256 lines × 64 B) for good measure.
        let big: Vec<u8> = (0..16 * 1024).map(|_| next() as u8).collect();
        assert_eq!(wire_checksum(&[&big]), wire_checksum_scalar(&[&big]));
    }

    #[test]
    fn wire_frames_reads_the_line_count_off_both_framings() {
        use crate::reliable::{ReliableConfig, ReliableTransport};
        for n in [0, 1, 16, MAX_LINES_PER_DATAGRAM] {
            let d = Datagram::new(NodeAddr(3), NodeAddr(4), sample_lines(n));
            assert_eq!(wire_frames(&d.encode()), n as u64);
            let mut rel = ReliableTransport::new(NodeAddr(3), ReliableConfig::default());
            let mut out = Vec::new();
            rel.on_send_encode(d, &mut out).unwrap();
            assert_eq!(wire_frames(&out), n as u64);
        }
    }
}
