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

/// CRC32C (Castagnoli) in its reflected form: the polynomial iSCSI, SCTP and
/// RoCE NICs implement, and the one `crc32` instructions compute.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// `CRC32C_TABLE[b]` is the CRC register after shifting byte `b` through
/// it, evaluated at compile time.
const CRC32C_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32C_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
};

/// Streaming CRC32C (Castagnoli polynomial, reflected, init and final xor
/// `0xFFFF_FFFF` — RFC 3720 §B.4) over `parts` as if concatenated. Guards
/// reliable-transport frames against fabric bit corruption: the checksum
/// rides each frame and a mismatch on decode surfaces as
/// [`DaggerError::Wire`], turning corruption into loss — which the
/// retransmission machinery already repairs. A CRC detects *every*
/// single-bit error and every burst of up to 32 bits, which is exactly
/// what the fault layer's `corrupt` injects.
///
/// The platform picks the arm, never an option: the SSE4.2 `crc32`
/// instruction where the CPU has it (eight bytes per instruction), the
/// byte-wise table loop everywhere else. Both compute the same function;
/// the table loop is the reference the unit tests hold the other to.
pub fn wire_checksum(parts: &[&[u8]]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the CPU reports SSE4.2, the one requirement of
        // `crc32c_sse42`.
        return !parts
            .iter()
            .fold(!0, |crc, part| unsafe { crc32c_sse42(crc, part) });
    }
    !parts.iter().fold(!0, |crc, part| crc32c_table(crc, part))
}

/// Portable arm and reference: one table lookup per byte.
fn crc32c_table(crc: u32, bytes: &[u8]) -> u32 {
    bytes.iter().fold(crc, |crc, &b| {
        CRC32C_TABLE[usize::from(crc as u8 ^ b)] ^ (crc >> 8)
    })
}

/// Hardware arm: the `crc32` instruction over 64-bit words, then over the
/// tail's bytes.
///
/// # Safety
///
/// The CPU must support SSE4.2 (`is_x86_feature_detected!("sse4.2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_sse42(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = bytes.chunks_exact(8);
    let mut crc = u64::from(crc);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
        crc = _mm_crc32_u64(crc, word);
    }
    // The instruction zero-extends its 32-bit result.
    words
        .remainder()
        .iter()
        .fold(crc as u32, |crc, &b| _mm_crc32_u8(crc, b))
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

    /// The table arm, streamed over `parts` like [`wire_checksum`].
    fn table_checksum(parts: &[&[u8]]) -> u32 {
        !parts.iter().fold(!0, |crc, part| crc32c_table(crc, part))
    }

    /// The hardware arm, or `None` (with a note) where the host lacks it.
    fn hardware_checksum(parts: &[&[u8]]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: SSE4.2 was just detected.
            return Some(
                !parts
                    .iter()
                    .fold(!0, |crc, part| unsafe { crc32c_sse42(crc, part) }),
            );
        }
        None
    }

    /// RFC 3720 §B.4: the checksum on the wire is CRC32C, on either arm.
    #[test]
    fn wire_checksum_rfc3720_known_answers() {
        let ascending: Vec<u8> = (0..32).collect();
        let cases: [(&[u8], u32); 4] = [
            (b"123456789", 0xE306_9283),
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
        ];
        if hardware_checksum(&[]).is_none() {
            println!("no SSE4.2 on this host: hardware arm not exercised");
        }
        for (input, crc) in cases {
            assert_eq!(wire_checksum(&[input]), crc);
            assert_eq!(table_checksum(&[input]), crc);
            assert_eq!(hardware_checksum(&[input]).unwrap_or(crc), crc);
        }
    }

    /// Byte-identity sweep: hardware arm == table arm == streaming over
    /// parts, on every input length, alignment and part split — the
    /// checksum is on the wire, so any divergence is a protocol break.
    /// Inputs come from a seeded xorshift generator so the sweep is
    /// deterministic yet covers lengths well past the word width,
    /// including all tail residues 0..8 and splits that land mid-word.
    #[test]
    fn wire_checksum_arms_agree_on_every_length_and_split() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        if hardware_checksum(&[]).is_none() {
            println!("no SSE4.2 on this host: sweep pins the table arm only");
        }
        let check = |parts: &[&[u8]], expect: u32, what: &str| {
            assert_eq!(wire_checksum(parts), expect, "wire_checksum {what}");
            assert_eq!(table_checksum(parts), expect, "table arm {what}");
            assert_eq!(
                hardware_checksum(parts).unwrap_or(expect),
                expect,
                "hardware arm {what}"
            );
        };
        for len in 0..200usize {
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let whole = table_checksum(&[&data]);
            check(&[&data], whole, &format!("at len {len}"));
            // Every split point: the register must carry across part
            // boundaries exactly as it does across bytes.
            for split in 0..=len {
                let (a, b) = data.split_at(split);
                check(&[a, b], whole, &format!("split at {split}/{len}"));
            }
        }
        // Longer bursts (datagram-sized: 256 lines × 64 B) for good measure.
        let big: Vec<u8> = (0..16 * 1024).map(|_| next() as u8).collect();
        check(&[&big], table_checksum(&[&big]), "on a 16 KiB burst");
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
