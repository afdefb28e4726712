//! Reliable transport — the occupant of the paper's Protocol unit.
//!
//! The paper ships with an idle Protocol unit and names the follow-up:
//! "we plan to extend Dagger with reliable transports and with RPC-specific
//! congestion control" (§4.5). This module implements that extension as a
//! per-peer sliding-window protocol suited to the fabric's properties
//! (in-order per-sender delivery, loss possible, reordering rare):
//!
//! * every data datagram to a peer carries a sequence number;
//! * the receiver delivers strictly in order and acknowledges
//!   cumulatively — acknowledgements piggyback the receiver's own traffic
//!   when possible, as §4.5 suggests ("piggybacking acknowledgement");
//! * the sender keeps unacknowledged datagrams in a retransmit buffer
//!   keyed by sequence, bounded by a window, and retransmits after a
//!   timeout measured in engine ticks.
//!
//! Loss recovery runs in one of two modes ([`RecoveryMode`]):
//!
//! * **Selective repeat** (the default): the receiver *buffers*
//!   out-of-order datagrams (up to [`SACK_SPAN`] beyond the in-order
//!   point) and advertises them in SACK frames — cumulative ack plus a
//!   64-bit received-bitmap. The sender marks sacked entries and a timeout
//!   retransmits only the frames the receiver actually misses, so a single
//!   drop costs a single retransmission.
//! * **Go-Back-N** (the original protocol, kept for A/B measurement and
//!   as the migration baseline): the receiver discards anything past a
//!   gap and a timeout re-sends the entire unacked window.
//!
//! The state machine is synchronous and engine-driven (`on_send`,
//! `on_recv`, `on_tick`), matching how the hardware would run it; the
//! engine enables it when [`dagger_types::HardConfig::reliable`] is set
//! and otherwise ships [`Datagram`]s bare. Every protocol event is counted
//! once, in the instance's [`SharedReliableStats`] bank (DESIGN.md §10).
//!
//! The layer is fabric-backend-oblivious: it sees only frame bytes moving
//! through the [`crate::fabric::Fabric`] seam. Over the in-process switch
//! it repairs *injected* faults (seeded, deterministic — the chaos
//! replay-equivalence test pins identical retransmit counters across
//! runs); over the UDP backend it repairs whatever the real network does,
//! with the same window, checksum, and retransmission machinery.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use dagger_types::{CacheLine, DaggerError, NodeAddr, Result};

use crate::bank::counter_bank;
use crate::transport::{wire_checksum, Datagram};

/// Frame type byte: payload-carrying data frame.
const FRAME_DATA: u8 = 1;
/// Frame type byte: standalone cumulative acknowledgement.
const FRAME_ACK: u8 = 2;
/// Version bit in the frame-type byte. Version-0 frames (data, ack) keep
/// their original byte values, so a pre-SACK decoder sees exactly the
/// bytes it always did; version-1 frame kinds set this bit, and a
/// version-0 decoder rejects them cleanly as an unknown type (loss, which
/// the retransmit timer absorbs) rather than misparsing them.
const FRAME_VERSION_BIT: u8 = 0x80;
/// Frame type byte: selective acknowledgement — cumulative ack plus a
/// [`SACK_SPAN`]-bit bitmap of datagrams received beyond it. A version-1
/// frame kind (see [`FRAME_VERSION_BIT`]).
const FRAME_SACK: u8 = FRAME_VERSION_BIT | FRAME_ACK;
/// Width of the SACK bitmap: bit `i` set means sequence `ack + 1 + i` has
/// been received and buffered. The receiver buffers at most this far past
/// the in-order point, so every buffered datagram is representable.
pub const SACK_SPAN: u64 = 64;
/// Fixed prefix before the checksum: type byte + two u64 + sender queue
/// u16 (data) or type byte + u64 + two u32 + sender queue u16 (ack) — both
/// 19 bytes. The sender-queue field names the engine queue whose channel
/// the sequence numbers belong to: under multi-queue sharding each
/// directed (queue → queue) pairing is its own sliding-window session.
const FRAME_PREFIX: usize = 19;
/// Bytes of the FNV-1a integrity checksum each frame carries.
const FRAME_CRC: usize = 4;
/// Minimum frame size: prefix + checksum.
const FRAME_MIN: usize = FRAME_PREFIX + FRAME_CRC;
/// Maximum retired line-vectors held for recycling before excess ones are
/// simply dropped (bounds memory if the engine stops draining).
const RETIRED_CAP: usize = 512;

/// Encodes a data frame into `out` (cleared first) without cloning the
/// datagram: the 17-byte prefix and a 4-byte checksum placeholder go in
/// first, the datagram body is appended in place, then the checksum —
/// which covers prefix + body, exactly as [`TransportFrame::encode`]
/// produces — is patched over the placeholder. Byte-identical to the
/// owned encoding.
fn encode_data_into(seq: u64, ack: u64, src_queue: u16, datagram: &Datagram, out: &mut Vec<u8>) {
    out.clear();
    out.push(FRAME_DATA);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&ack.to_le_bytes());
    out.extend_from_slice(&src_queue.to_le_bytes());
    out.extend_from_slice(&[0u8; FRAME_CRC]);
    datagram.append_to(out);
    let crc = wire_checksum(&[&out[..FRAME_PREFIX], &out[FRAME_MIN..]]);
    out[FRAME_PREFIX..FRAME_MIN].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes a standalone ack frame into `out` (cleared first).
fn encode_ack_into(ack: u64, src: NodeAddr, dst: NodeAddr, src_queue: u16, out: &mut Vec<u8>) {
    out.clear();
    out.push(FRAME_ACK);
    out.extend_from_slice(&ack.to_le_bytes());
    out.extend_from_slice(&src.raw().to_le_bytes());
    out.extend_from_slice(&dst.raw().to_le_bytes());
    out.extend_from_slice(&src_queue.to_le_bytes());
    let crc = wire_checksum(&[&out[..FRAME_PREFIX], &[]]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Encodes a selective-ack frame into `out` (cleared first): the ack
/// prefix layout with the version-1 SACK type byte, then the 8-byte
/// received-bitmap as the body (covered by the checksum like any body).
fn encode_sack_into(
    ack: u64,
    bitmap: u64,
    src: NodeAddr,
    dst: NodeAddr,
    src_queue: u16,
    out: &mut Vec<u8>,
) {
    out.clear();
    out.push(FRAME_SACK);
    out.extend_from_slice(&ack.to_le_bytes());
    out.extend_from_slice(&src.raw().to_le_bytes());
    out.extend_from_slice(&dst.raw().to_le_bytes());
    out.extend_from_slice(&src_queue.to_le_bytes());
    out.extend_from_slice(&[0u8; FRAME_CRC]);
    out.extend_from_slice(&bitmap.to_le_bytes());
    let crc = wire_checksum(&[&out[..FRAME_PREFIX], &out[FRAME_MIN..]]);
    out[FRAME_PREFIX..FRAME_MIN].copy_from_slice(&crc.to_le_bytes());
}

/// Borrowed view of a frame about to go on the wire. Lets the engine
/// encode straight into a pooled buffer without cloning the retransmit
/// window's datagrams into owned [`TransportFrame`]s first.
#[derive(Debug)]
pub enum FrameView<'a> {
    /// A sequenced data frame referencing the window's datagram.
    Data {
        /// Sequence number.
        seq: u64,
        /// Piggybacked cumulative ack.
        ack: u64,
        /// Engine queue of the sender that owns this channel (on the wire).
        src_queue: u16,
        /// Destination engine queue to route the frame to (routing
        /// metadata only — never encoded; the datagram header already
        /// carries the addresses and the fabric carries the queue).
        dst_queue: u16,
        /// Borrowed payload.
        datagram: &'a Datagram,
    },
    /// A standalone cumulative ack.
    Ack {
        /// Cumulative ack value.
        ack: u64,
        /// Sender.
        src: NodeAddr,
        /// Receiver.
        dst: NodeAddr,
        /// Engine queue of the sender (on the wire).
        src_queue: u16,
        /// Destination engine queue to route the ack to (routing only).
        dst_queue: u16,
    },
    /// A selective acknowledgement: cumulative ack + received-bitmap.
    Sack {
        /// Cumulative ack value (everything below is received).
        ack: u64,
        /// Bit `i` set: sequence `ack + 1 + i` is received and buffered.
        bitmap: u64,
        /// Sender.
        src: NodeAddr,
        /// Receiver.
        dst: NodeAddr,
        /// Engine queue of the sender (on the wire).
        src_queue: u16,
        /// Destination engine queue to route the sack to (routing only).
        dst_queue: u16,
    },
}

impl FrameView<'_> {
    /// Where the frame is headed.
    pub fn dst(&self) -> NodeAddr {
        match self {
            FrameView::Data { datagram, .. } => datagram.dst,
            FrameView::Ack { dst, .. } | FrameView::Sack { dst, .. } => *dst,
        }
    }

    /// Destination engine queue the frame should be routed to.
    pub fn dst_queue(&self) -> u16 {
        match self {
            FrameView::Data { dst_queue, .. }
            | FrameView::Ack { dst_queue, .. }
            | FrameView::Sack { dst_queue, .. } => *dst_queue,
        }
    }

    /// Serializes into `out` (cleared first); byte-identical to
    /// [`TransportFrame::encode`] of the equivalent owned frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            FrameView::Data {
                seq,
                ack,
                src_queue,
                datagram,
                ..
            } => encode_data_into(*seq, *ack, *src_queue, datagram, out),
            FrameView::Ack {
                ack,
                src,
                dst,
                src_queue,
                ..
            } => encode_ack_into(*ack, *src, *dst, *src_queue, out),
            FrameView::Sack {
                ack,
                bitmap,
                src,
                dst,
                src_queue,
                ..
            } => encode_sack_into(*ack, *bitmap, *src, *dst, *src_queue, out),
        }
    }

    /// Clones into an owned [`TransportFrame`].
    pub fn to_owned_frame(&self) -> TransportFrame {
        match self {
            FrameView::Data {
                seq,
                ack,
                src_queue,
                datagram,
                ..
            } => TransportFrame::Data {
                seq: *seq,
                ack: *ack,
                src_queue: *src_queue,
                datagram: (*datagram).clone(),
            },
            FrameView::Ack {
                ack,
                src,
                dst,
                src_queue,
                ..
            } => TransportFrame::Ack {
                ack: *ack,
                src: *src,
                dst: *dst,
                src_queue: *src_queue,
            },
            FrameView::Sack {
                ack,
                bitmap,
                src,
                dst,
                src_queue,
                ..
            } => TransportFrame::Sack {
                ack: *ack,
                bitmap: *bitmap,
                src: *src,
                dst: *dst,
                src_queue: *src_queue,
            },
        }
    }
}

/// A sequenced transport frame as it crosses the fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportFrame {
    /// A data datagram with its sequence number and a piggybacked
    /// cumulative ack of the sender's receive direction.
    Data {
        /// Sequence number of this datagram (per sender-queue→receiver
        /// session).
        seq: u64,
        /// Cumulative ack: the sender has received everything below this.
        ack: u64,
        /// Engine queue of the sender whose channel the sequence belongs
        /// to (0 on single-queue NICs).
        src_queue: u16,
        /// The payload datagram.
        datagram: Datagram,
    },
    /// A standalone cumulative acknowledgement.
    Ack {
        /// The receiver has everything below this sequence.
        ack: u64,
        /// Addressing (acks are not themselves sequenced).
        src: NodeAddr,
        /// Destination of the ack.
        dst: NodeAddr,
        /// Engine queue of the sender (0 on single-queue NICs).
        src_queue: u16,
    },
    /// A selective acknowledgement (version-1 frame kind): cumulative ack
    /// plus a [`SACK_SPAN`]-bit bitmap of datagrams received beyond it.
    Sack {
        /// The receiver has everything below this sequence.
        ack: u64,
        /// Bit `i` set: sequence `ack + 1 + i` is received and buffered.
        bitmap: u64,
        /// Addressing (sacks are not themselves sequenced).
        src: NodeAddr,
        /// Destination of the sack.
        dst: NodeAddr,
        /// Engine queue of the sender (0 on single-queue NICs).
        src_queue: u16,
    },
}

impl TransportFrame {
    /// Serializes to wire bytes: `[prefix 17][crc 4][body]`, where the
    /// checksum covers the prefix and body (everything but itself).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Serializes into `out` (cleared first), reusing its allocation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.as_view().encode_into(out);
    }

    /// Borrowed view of this frame (routing `dst_queue` defaults to 0; a
    /// decoded frame no longer needs routing).
    pub fn as_view(&self) -> FrameView<'_> {
        match self {
            TransportFrame::Data {
                seq,
                ack,
                src_queue,
                datagram,
            } => FrameView::Data {
                seq: *seq,
                ack: *ack,
                src_queue: *src_queue,
                dst_queue: 0,
                datagram,
            },
            TransportFrame::Ack {
                ack,
                src,
                dst,
                src_queue,
            } => FrameView::Ack {
                ack: *ack,
                src: *src,
                dst: *dst,
                src_queue: *src_queue,
                dst_queue: 0,
            },
            TransportFrame::Sack {
                ack,
                bitmap,
                src,
                dst,
                src_queue,
            } => FrameView::Sack {
                ack: *ack,
                bitmap: *bitmap,
                src: *src,
                dst: *dst,
                src_queue: *src_queue,
                dst_queue: 0,
            },
        }
    }

    /// Parses wire bytes, verifying the integrity checksum first.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Wire`] on truncated input, an unknown frame
    /// type, a checksum mismatch (bit corruption in flight), or a malformed
    /// body. Never panics: any fabric-mangled byte string maps to `Err`.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        match bytes.first() {
            Some(&FRAME_DATA) | Some(&FRAME_ACK) | Some(&FRAME_SACK) => {}
            Some(other) => return Err(DaggerError::Wire(format!("unknown frame type {other}"))),
            None => return Err(DaggerError::Wire("empty frame".to_string())),
        }
        if bytes.len() < FRAME_MIN {
            return Err(DaggerError::Wire("truncated frame".to_string()));
        }
        let (prefix, rest) = bytes.split_at(FRAME_PREFIX);
        let (crc_bytes, body) = rest.split_at(FRAME_CRC);
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if wire_checksum(&[prefix, body]) != stored {
            return Err(DaggerError::Wire("frame checksum mismatch".to_string()));
        }
        match prefix[0] {
            FRAME_DATA => {
                let seq = u64::from_le_bytes(prefix[1..9].try_into().unwrap());
                let ack = u64::from_le_bytes(prefix[9..17].try_into().unwrap());
                let src_queue = u16::from_le_bytes(prefix[17..19].try_into().unwrap());
                let datagram = Datagram::decode(body)?;
                Ok(TransportFrame::Data {
                    seq,
                    ack,
                    src_queue,
                    datagram,
                })
            }
            FRAME_ACK => {
                if !body.is_empty() {
                    return Err(DaggerError::Wire("bad ack frame length".to_string()));
                }
                let ack = u64::from_le_bytes(prefix[1..9].try_into().unwrap());
                let src = NodeAddr(u32::from_le_bytes(prefix[9..13].try_into().unwrap()));
                let dst = NodeAddr(u32::from_le_bytes(prefix[13..17].try_into().unwrap()));
                let src_queue = u16::from_le_bytes(prefix[17..19].try_into().unwrap());
                Ok(TransportFrame::Ack {
                    ack,
                    src,
                    dst,
                    src_queue,
                })
            }
            _ => {
                // FRAME_SACK: the ack prefix layout plus an 8-byte bitmap
                // body.
                if body.len() != 8 {
                    return Err(DaggerError::Wire("bad sack frame length".to_string()));
                }
                let ack = u64::from_le_bytes(prefix[1..9].try_into().unwrap());
                let src = NodeAddr(u32::from_le_bytes(prefix[9..13].try_into().unwrap()));
                let dst = NodeAddr(u32::from_le_bytes(prefix[13..17].try_into().unwrap()));
                let src_queue = u16::from_le_bytes(prefix[17..19].try_into().unwrap());
                let bitmap = u64::from_le_bytes(body.try_into().unwrap());
                Ok(TransportFrame::Sack {
                    ack,
                    bitmap,
                    src,
                    dst,
                    src_queue,
                })
            }
        }
    }
}

/// How the sender repairs loss once the retransmit timer expires.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Selective repeat: the receiver buffers out-of-order datagrams and
    /// advertises them in SACK bitmaps; a timeout retransmits only the
    /// frames the receiver is actually missing.
    #[default]
    SelectiveRepeat,
    /// Go-Back-N: the receiver discards anything past a gap; a timeout
    /// re-sends the whole unacked window. The original protocol, kept for
    /// A/B measurement (the chaos suite pins SR's efficiency against it).
    GoBackN,
}

/// Configuration of the reliability protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Engine ticks without an ack before retransmitting from the first
    /// unacknowledged datagram.
    pub retransmit_after_ticks: u64,
    /// Maximum unacknowledged datagrams per peer before sends are refused
    /// (backpressure to the TX FSM, which retries next round).
    pub window: usize,
    /// Loss-recovery strategy (selective repeat by default).
    pub mode: RecoveryMode,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            retransmit_after_ticks: 64,
            window: 256,
            mode: RecoveryMode::SelectiveRepeat,
        }
    }
}

#[derive(Debug, Default)]
struct PeerTx {
    next_seq: u64,
    /// Unacknowledged datagrams, oldest first, as `(seq, datagram,
    /// sacked)` — the per-peer retransmit buffer keyed by sequence. A
    /// deque so cumulative acks retire from the front without shifting;
    /// `sacked` marks entries the receiver has advertised out-of-order
    /// (selective repeat skips them on timeout).
    unacked: VecDeque<(u64, Datagram, bool)>,
    ticks_since_progress: u64,
}

#[derive(Debug, Default)]
struct PeerRx {
    /// Next expected sequence (everything below is delivered).
    expected: u64,
    /// `true` when we owe the peer an ack that has not piggybacked yet.
    ack_owed: bool,
    /// Out-of-order datagrams buffered for selective repeat, keyed by
    /// sequence (all within `(expected, expected + SACK_SPAN]`). Ordered so
    /// SACK bitmaps and drain order are deterministic.
    ooo: BTreeMap<u64, Datagram>,
}

counter_bank! {
    /// One transport instance's counters across all its peers, shared
    /// between the engine thread (which owns the [`ReliableTransport`] and
    /// is the only writer) and host-side telemetry collectors; exported as
    /// `nic.<addr>.q<i>.reliable.*` and, summed, `nic.<addr>.reliable.*`.
    pub struct SharedReliableStats =>
    /// Protocol statistics across all peers.
    ReliableStats {
        /// Datagrams retransmitted.
        retransmissions,
        /// Out-of-order datagrams discarded on receive (under selective
        /// repeat, only those beyond the SACK bitmap's reach).
        out_of_order_drops,
        /// Duplicate datagrams suppressed on receive.
        duplicate_drops,
        /// Frames rejected on receive as undecodable (truncated, unknown
        /// type, or checksum mismatch from in-flight bit corruption).
        wire_drops,
        /// Frames acknowledged out-of-order via SACK bitmaps, each counted
        /// once at its unsacked → sacked transition (sender side).
        sacked,
        /// Received data frames that added no new information (duplicates
        /// and, under Go-Back-N, gap discards): what the peer's
        /// retransmissions wasted on the wire.
        wasted_retransmits,
    }
}

/// Per-engine-queue reliable-transport state machine: a sliding window
/// (selective repeat or Go-Back-N, per [`RecoveryMode`]) per directed
/// (local queue → peer, peer queue) channel.
///
/// Under multi-queue sharding each worker owns one instance. Channels are
/// keyed `(peer address, peer queue)` on the TX side — the queue the
/// frames were routed to — and `(peer address, peer queue)` on the RX side
/// — the sender's queue carried in every frame — so two workers of the
/// same peer NIC never share (and never corrupt) a sequence space.
#[derive(Debug)]
pub struct ReliableTransport {
    local: NodeAddr,
    /// The engine queue this instance belongs to; stamped into every
    /// outgoing frame as `src_queue`.
    local_queue: u16,
    cfg: ReliableConfig,
    tx: HashMap<(NodeAddr, u16), PeerTx>,
    rx: HashMap<(NodeAddr, u16), PeerRx>,
    shared: Arc<SharedReliableStats>,
    /// Line vectors of datagrams retired from the window by acks, held for
    /// the engine to recycle into its [`crate::bufpool::BufPool`].
    retired: Vec<Vec<CacheLine>>,
    /// Datagrams released by a gap fill beyond the one `on_recv` returns:
    /// when an in-order arrival unblocks buffered successors, they queue
    /// here (in sequence order) and the engine drains them through
    /// [`ReliableTransport::next_ready`] before touching the wire again.
    ready: VecDeque<Datagram>,
}

impl ReliableTransport {
    /// Creates the state machine for queue 0 of the NIC at `local`.
    pub fn new(local: NodeAddr, cfg: ReliableConfig) -> Self {
        Self::new_on_queue(local, 0, cfg)
    }

    /// Creates the state machine for engine queue `queue` of the NIC at
    /// `local`.
    pub fn new_on_queue(local: NodeAddr, queue: u16, cfg: ReliableConfig) -> Self {
        ReliableTransport {
            local,
            local_queue: queue,
            cfg,
            tx: HashMap::new(),
            rx: HashMap::new(),
            shared: Arc::new(SharedReliableStats::default()),
            retired: Vec::new(),
            ready: VecDeque::new(),
        }
    }

    /// A cloneable handle onto the counter bank, safe to read from any
    /// thread while the engine drives this state machine.
    pub fn shared_stats(&self) -> Arc<SharedReliableStats> {
        Arc::clone(&self.shared)
    }

    /// `true` if the channel to the peer's queue 0 has window room.
    pub fn window_available(&self, peer: NodeAddr) -> bool {
        self.window_available_to(peer, 0)
    }

    /// `true` if the channel to `(peer, queue)` has room for another
    /// datagram.
    pub fn window_available_to(&self, peer: NodeAddr, queue: u16) -> bool {
        self.tx
            .get(&(peer, queue))
            .map(|t| t.unacked.len() < self.cfg.window)
            .unwrap_or(true)
    }

    /// Wraps an outgoing datagram as a sequenced frame on the channel to
    /// the peer's queue 0 (piggybacking any owed ack) and records it for
    /// retransmission.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::RingFull`] when the channel's send window is
    /// full; the caller should retry after acks arrive.
    pub fn on_send(&mut self, datagram: Datagram) -> Result<TransportFrame> {
        self.on_send_to(datagram, 0)
    }

    /// [`ReliableTransport::on_send`] on the channel to `(dst, dst_queue)`.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::RingFull`] when the channel's send window is
    /// full; the caller should retry after acks arrive.
    pub fn on_send_to(&mut self, datagram: Datagram, dst_queue: u16) -> Result<TransportFrame> {
        let key = (datagram.dst, dst_queue);
        if self
            .tx
            .get(&key)
            .is_some_and(|t| t.unacked.len() >= self.cfg.window)
        {
            return Err(DaggerError::RingFull);
        }
        let ack = self.pending_ack(key);
        let tx = self.tx.entry(key).or_default();
        let seq = tx.next_seq;
        tx.next_seq += 1;
        tx.unacked.push_back((seq, datagram.clone(), false));
        Ok(TransportFrame::Data {
            seq,
            ack,
            src_queue: self.local_queue,
            datagram,
        })
    }

    /// Zero-copy send: sequences `datagram`, encodes the frame into `out`
    /// (a pooled buffer), and *moves* the datagram into the retransmit
    /// window instead of cloning it — the per-send clone was the single
    /// biggest allocation on the reliable TX path.
    ///
    /// # Errors
    ///
    /// Hands the datagram back when the peer's send window is full (the
    /// engine defers it to `pending_out`); `out` is untouched in that case.
    pub fn on_send_encode(
        &mut self,
        datagram: Datagram,
        out: &mut Vec<u8>,
    ) -> std::result::Result<(), Datagram> {
        self.send_encode_inner(datagram, 0, out, false)
    }

    /// Zero-copy send on the channel to `(dst, dst_queue)`; see
    /// [`ReliableTransport::on_send_encode`].
    ///
    /// # Errors
    ///
    /// Hands the datagram back when the channel's send window is full.
    pub fn on_send_encode_to(
        &mut self,
        datagram: Datagram,
        dst_queue: u16,
        out: &mut Vec<u8>,
    ) -> std::result::Result<(), Datagram> {
        self.send_encode_inner(datagram, dst_queue, out, false)
    }

    /// [`ReliableTransport::on_send_encode_to`] minus the window check:
    /// used by the shutdown drain, where deferring is no longer an option
    /// and the frame must reach the wire at least once.
    pub fn on_send_forced_encode_to(
        &mut self,
        datagram: Datagram,
        dst_queue: u16,
        out: &mut Vec<u8>,
    ) {
        let _ = self.send_encode_inner(datagram, dst_queue, out, true);
    }

    fn send_encode_inner(
        &mut self,
        datagram: Datagram,
        dst_queue: u16,
        out: &mut Vec<u8>,
        force: bool,
    ) -> std::result::Result<(), Datagram> {
        let key = (datagram.dst, dst_queue);
        if !force && !self.window_available_to(key.0, key.1) {
            return Err(datagram);
        }
        let local_queue = self.local_queue;
        let ack = self.pending_ack(key);
        let tx = self.tx.entry(key).or_default();
        let seq = tx.next_seq;
        tx.next_seq += 1;
        encode_data_into(seq, ack, local_queue, &datagram, out);
        tx.unacked.push_back((seq, datagram, false));
        Ok(())
    }

    fn pending_ack(&mut self, channel: (NodeAddr, u16)) -> u64 {
        match self.rx.get_mut(&channel) {
            Some(rx) => {
                rx.ack_owed = false;
                rx.expected
            }
            None => 0,
        }
    }

    fn apply_ack(&mut self, channel: (NodeAddr, u16), ack: u64) {
        let retired = &mut self.retired;
        if let Some(tx) = self.tx.get_mut(&channel) {
            let mut progressed = false;
            while tx.unacked.front().is_some_and(|&(seq, _, _)| seq < ack) {
                let (_, datagram, _) = tx.unacked.pop_front().expect("front checked");
                if retired.len() < RETIRED_CAP {
                    retired.push(datagram.lines);
                }
                progressed = true;
            }
            if progressed {
                tx.ticks_since_progress = 0;
            }
        }
    }

    /// Applies a SACK: retires the cumulative prefix, then marks every
    /// bitmap-advertised sequence so the retransmit timer skips it.
    fn apply_sack(&mut self, channel: (NodeAddr, u16), ack: u64, bitmap: u64) {
        self.apply_ack(channel, ack);
        if bitmap == 0 {
            return;
        }
        let shared = &self.shared;
        if let Some(tx) = self.tx.get_mut(&channel) {
            for bit in 0..SACK_SPAN {
                if bitmap & (1 << bit) == 0 {
                    continue;
                }
                let seq = ack + 1 + bit;
                let idx = tx.unacked.partition_point(|&(s, _, _)| s < seq);
                if let Some(entry) = tx.unacked.get_mut(idx) {
                    if entry.0 == seq && !entry.2 {
                        entry.2 = true;
                        shared.sacked.inc();
                    }
                }
            }
        }
    }

    /// Hands the line vectors of ack-retired datagrams to `recycle`
    /// (typically `BufPool::put_lines`), closing the buffer circulation
    /// loop: stage → window → pool → stage.
    pub fn drain_retired(&mut self, mut recycle: impl FnMut(Vec<CacheLine>)) {
        for lines in self.retired.drain(..) {
            recycle(lines);
        }
    }

    /// Processes a received frame. Returns the datagram to deliver up the
    /// stack, if the frame was the next in-order data frame. Under
    /// selective repeat an in-order arrival can unblock buffered
    /// successors: the caller must drain them through
    /// [`ReliableTransport::next_ready`] to preserve delivery order.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Wire`] if the frame cannot be parsed or its
    /// checksum does not match (corruption handled as loss — the frame is
    /// discarded and counted in `wire_drops`, and the retransmit timer
    /// repairs the stream).
    pub fn on_recv(&mut self, bytes: &[u8]) -> Result<Option<Datagram>> {
        let frame = match TransportFrame::decode(bytes) {
            Ok(frame) => frame,
            Err(e) => {
                self.shared.wire_drops.inc();
                return Err(e);
            }
        };
        match frame {
            TransportFrame::Ack {
                ack,
                src,
                src_queue,
                ..
            } => {
                // The ack's sender queue names which of our TX channels it
                // acknowledges: we routed that traffic to (src, src_queue).
                self.apply_ack((src, src_queue), ack);
                Ok(None)
            }
            TransportFrame::Sack {
                ack,
                bitmap,
                src,
                src_queue,
                ..
            } => {
                self.apply_sack((src, src_queue), ack, bitmap);
                Ok(None)
            }
            TransportFrame::Data {
                seq,
                ack,
                src_queue,
                datagram,
            } => {
                let channel = (datagram.src, src_queue);
                self.apply_ack(channel, ack);
                let sr = self.cfg.mode == RecoveryMode::SelectiveRepeat;
                let shared = &self.shared;
                let ready = &mut self.ready;
                let rx = self.rx.entry(channel).or_default();
                rx.ack_owed = true;
                if seq == rx.expected {
                    rx.expected += 1;
                    // A filled gap releases the buffered run behind it.
                    while let Some(d) = rx.ooo.remove(&rx.expected) {
                        rx.expected += 1;
                        ready.push_back(d);
                    }
                    Ok(Some(datagram))
                } else if seq < rx.expected {
                    shared.duplicate_drops.inc();
                    shared.wasted_retransmits.inc();
                    // ack_owed re-acks so the sender advances.
                    Ok(None)
                } else if sr && seq - rx.expected <= SACK_SPAN {
                    // A gap, but within the SACK bitmap's reach: buffer the
                    // datagram and advertise it instead of discarding.
                    if rx.ooo.insert(seq, datagram).is_some() {
                        shared.duplicate_drops.inc();
                        shared.wasted_retransmits.inc();
                    }
                    Ok(None)
                } else {
                    // A gap beyond repair here: under Go-Back-N every gap,
                    // under selective repeat only arrivals past the bitmap
                    // span. Discard and wait for retransmission.
                    shared.out_of_order_drops.inc();
                    if !sr {
                        shared.wasted_retransmits.inc();
                    }
                    Ok(None)
                }
            }
        }
    }

    /// Takes the next datagram released by a selective-repeat gap fill, in
    /// sequence order. The engine drains this after every `on_recv` that
    /// returned a datagram; empty in Go-Back-N mode and on the fast path.
    pub fn next_ready(&mut self) -> Option<Datagram> {
        self.ready.pop_front()
    }

    /// Advances protocol timers by one engine tick. Returns frames to put
    /// on the wire: standalone acks/sacks that did not piggyback, and
    /// retransmissions for peers whose timer expired.
    pub fn on_tick(&mut self) -> Vec<TransportFrame> {
        let mut out = Vec::new();
        self.on_tick_with(|view| out.push(view.to_owned_frame()));
        out
    }

    /// Allocation-free variant of [`ReliableTransport::on_tick`]: the same
    /// timer logic, but each outgoing frame is handed to `emit` as a
    /// borrowed [`FrameView`] so the engine can encode it straight into a
    /// pooled buffer. In the (common) idle tick nothing is built at all.
    pub fn on_tick_with(&mut self, mut emit: impl FnMut(FrameView<'_>)) {
        let local = self.local;
        let local_queue = self.local_queue;
        // Standalone acks for quiet receive directions. The channel key's
        // queue is the *peer's* sending queue — which is exactly where the
        // ack must be routed, since that worker owns the TX window. When
        // out-of-order datagrams sit buffered, the ack upgrades to a SACK
        // advertising them.
        for (&(peer, peer_queue), rx) in self.rx.iter_mut() {
            if rx.ack_owed {
                rx.ack_owed = false;
                let bitmap = sack_bitmap(rx);
                if bitmap != 0 {
                    emit(FrameView::Sack {
                        ack: rx.expected,
                        bitmap,
                        src: local,
                        dst: peer,
                        src_queue: local_queue,
                        dst_queue: peer_queue,
                    });
                } else {
                    emit(FrameView::Ack {
                        ack: rx.expected,
                        src: local,
                        dst: peer,
                        src_queue: local_queue,
                        dst_queue: peer_queue,
                    });
                }
            }
        }
        self.retransmit_channels(true, &mut emit);
    }

    /// Re-emits every unacknowledged (and, under selective repeat,
    /// unsacked) datagram immediately, ignoring the retransmit timer: the
    /// shutdown drain's "one last retransmission pass", so window-deferred
    /// datagrams flushed right after keep their ordering at a live peer.
    pub fn retransmit_unacked_with(&mut self, mut emit: impl FnMut(FrameView<'_>)) {
        self.retransmit_channels(false, &mut emit);
    }

    /// One retransmission pass over every channel with unacked datagrams,
    /// re-emitting those the receiver is not known to hold (under selective
    /// repeat, sacked entries are skipped). `timed` is the per-tick form:
    /// a channel is repaired only once its retransmit timer expires, and a
    /// window that is all sacked yet not cumulatively acked — the
    /// receiver's cumulative ack must have been lost — still emits its head
    /// frame as a probe so the peer re-acks (its duplicate path sets
    /// `ack_owed`) and the channel never stalls. Each channel's cumulative
    /// ack is read straight from the rx map (no per-pass scratch map).
    fn retransmit_channels(&mut self, timed: bool, emit: &mut impl FnMut(FrameView<'_>)) {
        let sr = self.cfg.mode == RecoveryMode::SelectiveRepeat;
        for (&(peer, peer_queue), tx) in self.tx.iter_mut() {
            if tx.unacked.is_empty() {
                tx.ticks_since_progress = 0;
                continue;
            }
            tx.ticks_since_progress += 1;
            if timed && tx.ticks_since_progress < self.cfg.retransmit_after_ticks {
                continue;
            }
            tx.ticks_since_progress = 0;
            let ack = self.rx.get(&(peer, peer_queue)).map_or(0, |rx| rx.expected);
            let mut missing = tx
                .unacked
                .iter()
                .filter(|(_, _, sacked)| !(sr && *sacked))
                .peekable();
            let probe = tx
                .unacked
                .front()
                .filter(|_| timed && missing.peek().is_none());
            for (seq, datagram, _) in missing.chain(probe) {
                self.shared.retransmissions.inc();
                emit(FrameView::Data {
                    seq: *seq,
                    ack,
                    src_queue: self.local_queue,
                    dst_queue: peer_queue,
                    datagram,
                });
            }
        }
    }

    /// `true` when every sent datagram has been acknowledged.
    pub fn fully_acked(&self) -> bool {
        self.tx.values().all(|t| t.unacked.is_empty())
    }

    /// `true` when the single `(peer, queue)` channel has no unacked
    /// datagrams in flight (or was never used). The elastic RSS remap
    /// uses this as its drain barrier: a connection may switch to a new
    /// destination queue only once its old channel is fully acknowledged,
    /// so every frame sent on the old path has already been steered (and
    /// arrival-stamped) by the receiver.
    pub fn channel_fully_acked(&self, peer: NodeAddr, queue: u16) -> bool {
        self.tx
            .get(&(peer, queue))
            .is_none_or(|t| t.unacked.is_empty())
    }

    /// `true` when ticks are currently pure timer noise: nothing unacked,
    /// no ack owed, nothing retired, no released datagrams waiting. The
    /// engine may park only then. (Buffered out-of-order datagrams alone
    /// do not keep the receiver awake: the *sender's* timer owns the
    /// repair, and its retransmission wakes this side through the fabric.)
    pub fn is_idle(&self) -> bool {
        self.fully_acked()
            && self.retired.is_empty()
            && self.ready.is_empty()
            && self.rx.values().all(|r| !r.ack_owed)
    }

    /// Aggregated statistics: a snapshot of the counter bank.
    pub fn stats(&self) -> ReliableStats {
        self.shared.snapshot()
    }
}

/// Builds the SACK bitmap for a receive direction: bit `i` set means
/// `expected + 1 + i` is buffered. Empty (0) when nothing is buffered —
/// the caller then emits a plain cumulative ack, which keeps the wire
/// format version-0 whenever selective repeat has nothing to say.
fn sack_bitmap(rx: &PeerRx) -> u64 {
    let mut bitmap = 0u64;
    for &seq in rx.ooo.keys() {
        let offset = seq - (rx.expected + 1);
        debug_assert!(offset < SACK_SPAN, "buffered past the bitmap span");
        bitmap |= 1 << offset;
    }
    bitmap
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagger_types::CacheLine;

    fn dgram(src: u32, dst: u32, tag: u8) -> Datagram {
        let mut line = CacheLine::zeroed();
        line.as_bytes_mut()[20] = tag;
        Datagram::new(NodeAddr(src), NodeAddr(dst), vec![line])
    }

    fn tag_of(d: &Datagram) -> u8 {
        d.lines[0].as_bytes()[20]
    }

    #[test]
    fn frame_codec_roundtrip() {
        let data = TransportFrame::Data {
            seq: 42,
            ack: 7,
            src_queue: 3,
            datagram: dgram(1, 2, 9),
        };
        assert_eq!(TransportFrame::decode(&data.encode()).unwrap(), data);
        let ack = TransportFrame::Ack {
            ack: 99,
            src: NodeAddr(3),
            dst: NodeAddr(4),
            src_queue: 1,
        };
        assert_eq!(TransportFrame::decode(&ack.encode()).unwrap(), ack);
    }

    #[test]
    fn frame_codec_rejects_garbage() {
        assert!(TransportFrame::decode(&[]).is_err());
        assert!(TransportFrame::decode(&[9, 0, 0]).is_err());
        assert!(TransportFrame::decode(&[FRAME_DATA, 1, 2]).is_err());
        assert!(TransportFrame::decode(&[FRAME_ACK; 5]).is_err());
    }

    #[test]
    fn checksum_rejects_bit_flips() {
        let frame = TransportFrame::Data {
            seq: 3,
            ack: 1,
            src_queue: 0,
            datagram: dgram(1, 2, 5),
        };
        let good = frame.encode();
        assert!(TransportFrame::decode(&good).is_ok());
        // Flip one bit at a spread of positions: every variant must be
        // rejected, none may panic.
        for pos in [0, 1, 8, 16, 17, 20, 21, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x10;
            assert!(
                TransportFrame::decode(&bad).is_err(),
                "bit flip at byte {pos} must be caught"
            );
        }
        // Truncations at every length are rejected, never panic.
        for len in 0..good.len() {
            assert!(TransportFrame::decode(&good[..len]).is_err());
        }
    }

    #[test]
    fn corrupt_frames_counted_as_wire_drops() {
        let mut a = ReliableTransport::new(NodeAddr(1), ReliableConfig::default());
        let mut b = ReliableTransport::new(NodeAddr(2), ReliableConfig::default());
        let mut bytes = a.on_send(dgram(1, 2, 0)).unwrap().encode();
        bytes[30] ^= 0x01;
        assert!(b.on_recv(&bytes).is_err());
        assert_eq!(b.stats().wire_drops, 1);
        assert_eq!(b.shared_stats().snapshot().wire_drops, 1);
        // The uncorrupted retransmission still delivers.
        let clean = a.on_send(dgram(1, 2, 0)).unwrap(); // seq 1; seq 0 lost
        assert!(b.on_recv(&clean.encode()).unwrap().is_none(), "gap held");
    }

    #[test]
    fn lossless_path_delivers_in_order() {
        let mut a = ReliableTransport::new(NodeAddr(1), ReliableConfig::default());
        let mut b = ReliableTransport::new(NodeAddr(2), ReliableConfig::default());
        for tag in 0..10u8 {
            let frame = a.on_send(dgram(1, 2, tag)).unwrap();
            let delivered = b.on_recv(&frame.encode()).unwrap().unwrap();
            assert_eq!(tag_of(&delivered), tag);
        }
        // b owes acks; one tick flushes a standalone ack that clears a.
        for frame in b.on_tick() {
            a.on_recv(&frame.encode()).unwrap();
        }
        assert!(a.fully_acked());
        assert_eq!(a.stats().retransmissions, 0);
    }

    #[test]
    fn loss_recovered_by_go_back_n() {
        let cfg = ReliableConfig {
            retransmit_after_ticks: 2,
            window: 64,
            mode: RecoveryMode::GoBackN,
        };
        let mut a = ReliableTransport::new(NodeAddr(1), cfg);
        let mut b = ReliableTransport::new(NodeAddr(2), cfg);
        // Send 0..5; frame 2 is lost in transit.
        let mut delivered = Vec::new();
        for tag in 0..5u8 {
            let frame = a.on_send(dgram(1, 2, tag)).unwrap();
            if tag == 2 {
                continue; // dropped by the network
            }
            if let Some(d) = b.on_recv(&frame.encode()).unwrap() {
                delivered.push(tag_of(&d));
            }
        }
        assert_eq!(delivered, vec![0, 1], "gap stalls in-order delivery");
        // Exchange ticks until the retransmission repairs the stream.
        for _ in 0..6 {
            for frame in b.on_tick() {
                a.on_recv(&frame.encode()).unwrap();
            }
            for frame in a.on_tick() {
                if let Some(d) = b.on_recv(&frame.encode()).unwrap() {
                    delivered.push(tag_of(&d));
                }
            }
        }
        assert_eq!(delivered, vec![0, 1, 2, 3, 4], "all repaired in order");
        assert!(a.stats().retransmissions > 0);
        // Final ack exchange clears the sender.
        for frame in b.on_tick() {
            a.on_recv(&frame.encode()).unwrap();
        }
        assert!(a.fully_acked());
    }

    #[test]
    fn duplicates_are_suppressed() {
        let mut a = ReliableTransport::new(NodeAddr(1), ReliableConfig::default());
        let mut b = ReliableTransport::new(NodeAddr(2), ReliableConfig::default());
        let frame = a.on_send(dgram(1, 2, 7)).unwrap().encode();
        assert!(b.on_recv(&frame).unwrap().is_some());
        assert!(b.on_recv(&frame).unwrap().is_none(), "duplicate dropped");
        assert_eq!(b.stats().duplicate_drops, 1);
    }

    #[test]
    fn window_backpressure() {
        let cfg = ReliableConfig {
            retransmit_after_ticks: 1000,
            window: 2,
            mode: RecoveryMode::SelectiveRepeat,
        };
        let mut a = ReliableTransport::new(NodeAddr(1), cfg);
        a.on_send(dgram(1, 2, 0)).unwrap();
        a.on_send(dgram(1, 2, 1)).unwrap();
        assert_eq!(a.on_send(dgram(1, 2, 2)), Err(DaggerError::RingFull));
    }

    #[test]
    fn piggybacked_acks_clear_reverse_path() {
        let mut a = ReliableTransport::new(NodeAddr(1), ReliableConfig::default());
        let mut b = ReliableTransport::new(NodeAddr(2), ReliableConfig::default());
        // a -> b data; b's reply piggybacks the ack.
        let f1 = a.on_send(dgram(1, 2, 0)).unwrap();
        b.on_recv(&f1.encode()).unwrap().unwrap();
        let reply = b.on_send(dgram(2, 1, 9)).unwrap();
        match reply {
            TransportFrame::Data { ack, .. } => assert_eq!(ack, 1, "piggybacked"),
            _ => panic!("expected data frame"),
        }
        a.on_recv(&reply.encode()).unwrap().unwrap();
        assert!(a.fully_acked());
        // And b should not need a standalone ack anymore.
        assert!(b.on_tick().is_empty());
    }

    #[test]
    fn shared_stats_mirror_tracks_counters() {
        // Go-Back-N mode, where a gap is a counted drop — the mirror must
        // track every legacy counter exactly as the owner view does.
        let cfg = ReliableConfig {
            retransmit_after_ticks: 1,
            window: 64,
            mode: RecoveryMode::GoBackN,
        };
        let mut a = ReliableTransport::new(NodeAddr(1), cfg);
        let mut b = ReliableTransport::new(NodeAddr(2), cfg);
        let shared_a = a.shared_stats();
        let shared_b = b.shared_stats();
        let frame = a.on_send(dgram(1, 2, 0)).unwrap().encode();
        b.on_recv(&frame).unwrap().unwrap();
        b.on_recv(&frame).unwrap(); // duplicate
                                    // Skip frame 1 so frame 2 arrives out of order at b.
        let _lost = a.on_send(dgram(1, 2, 1)).unwrap();
        let f2 = a.on_send(dgram(1, 2, 2)).unwrap().encode();
        b.on_recv(&f2).unwrap();
        a.on_tick(); // timer expires -> go-back-N retransmits
        let mirror_a = shared_a.snapshot();
        let mirror_b = shared_b.snapshot();
        assert_eq!(mirror_a, a.stats(), "mirror matches owner view");
        assert_eq!(mirror_b, b.stats());
        assert!(mirror_a.retransmissions > 0);
        assert_eq!(mirror_b.duplicate_drops, 1);
        assert_eq!(mirror_b.out_of_order_drops, 1);
    }

    #[test]
    fn sessions_are_per_peer() {
        let mut a = ReliableTransport::new(NodeAddr(1), ReliableConfig::default());
        let f_to_2 = a.on_send(dgram(1, 2, 0)).unwrap();
        let f_to_3 = a.on_send(dgram(1, 3, 0)).unwrap();
        match (f_to_2, f_to_3) {
            (TransportFrame::Data { seq: s2, .. }, TransportFrame::Data { seq: s3, .. }) => {
                assert_eq!(s2, 0);
                assert_eq!(s3, 0, "independent sequence spaces");
            }
            _ => panic!("expected data frames"),
        }
    }

    #[test]
    fn sessions_are_per_peer_queue() {
        // One sender worker talking to two queues of the same peer NIC:
        // each (peer, queue) channel owns an independent sequence space.
        let mut a = ReliableTransport::new_on_queue(NodeAddr(1), 2, ReliableConfig::default());
        let f_q0 = a.on_send_to(dgram(1, 2, 0), 0).unwrap();
        let f_q3 = a.on_send_to(dgram(1, 2, 1), 3).unwrap();
        match (&f_q0, &f_q3) {
            (
                TransportFrame::Data {
                    seq: s0,
                    src_queue: sq0,
                    ..
                },
                TransportFrame::Data {
                    seq: s3,
                    src_queue: sq3,
                    ..
                },
            ) => {
                assert_eq!((*s0, *s3), (0, 0), "independent per-queue sequences");
                assert_eq!((*sq0, *sq3), (2, 2), "frames stamp the sender queue");
            }
            _ => panic!("expected data frames"),
        }
        assert!(a.window_available_to(NodeAddr(2), 0));
        assert!(a.window_available_to(NodeAddr(2), 3));
    }

    #[test]
    fn cross_queue_workers_do_not_collide_at_receiver() {
        // Two workers of NIC 1 (queues 0 and 1) both route to the same
        // receiving worker at NIC 2. Without the src_queue channel key
        // their seq-0 frames would alias; with it, both deliver.
        let cfg = ReliableConfig::default();
        let mut a0 = ReliableTransport::new_on_queue(NodeAddr(1), 0, cfg);
        let mut a1 = ReliableTransport::new_on_queue(NodeAddr(1), 1, cfg);
        let mut b = ReliableTransport::new(NodeAddr(2), cfg);
        let f0 = a0.on_send_to(dgram(1, 2, 10), 0).unwrap().encode();
        let f1 = a1.on_send_to(dgram(1, 2, 20), 0).unwrap().encode();
        let d0 = b.on_recv(&f0).unwrap().expect("queue-0 frame delivers");
        let d1 = b.on_recv(&f1).unwrap().expect("queue-1 frame delivers");
        assert_eq!((tag_of(&d0), tag_of(&d1)), (10, 20));
        assert_eq!(b.stats().duplicate_drops, 0);
        assert_eq!(b.stats().out_of_order_drops, 0);
        // b owes acks on both channels; each standalone ack names the
        // sender queue it acknowledges and routes back to it.
        let mut acks = Vec::new();
        b.on_tick_with(|view| match view {
            FrameView::Ack {
                src_queue,
                dst_queue,
                ..
            } => acks.push((src_queue, dst_queue, view.dst())),
            _ => panic!("expected acks only"),
        });
        acks.sort_unstable();
        assert_eq!(
            acks,
            vec![(0, 0, NodeAddr(1)), (0, 1, NodeAddr(1))],
            "acks carry b's queue and route to each sender worker"
        );
        // Applying each ack clears exactly the matching worker's window.
        let mut ack_bytes = Vec::new();
        b.on_tick(); // nothing further owed
        encode_ack_into(1, NodeAddr(2), NodeAddr(1), 0, &mut ack_bytes);
        a0.on_recv(&ack_bytes).unwrap();
        assert!(a0.fully_acked(), "worker 0 cleared");
        assert!(!a1.fully_acked(), "worker 1 still waiting");
        a1.on_recv(&ack_bytes).unwrap();
        assert!(a1.fully_acked(), "same channel key (2, 0) at worker 1");
    }

    #[test]
    fn sack_frame_codec_roundtrip() {
        let sack = TransportFrame::Sack {
            ack: 17,
            bitmap: 0b1011,
            src: NodeAddr(3),
            dst: NodeAddr(4),
            src_queue: 2,
        };
        assert_eq!(TransportFrame::decode(&sack.encode()).unwrap(), sack);
        // Bit flips anywhere (type byte, prefix, bitmap body) are caught.
        let good = sack.encode();
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0x04;
            assert!(TransportFrame::decode(&bad).is_err(), "flip at {pos}");
        }
    }

    /// The headline selective-repeat property: one lost datagram costs one
    /// retransmission, the buffered successors are never re-sent, and
    /// delivery order is preserved through the ready queue.
    #[test]
    fn single_loss_repaired_by_selective_repeat_alone() {
        let cfg = ReliableConfig {
            retransmit_after_ticks: 2,
            window: 64,
            mode: RecoveryMode::SelectiveRepeat,
        };
        let mut a = ReliableTransport::new(NodeAddr(1), cfg);
        let mut b = ReliableTransport::new(NodeAddr(2), cfg);
        let mut delivered = Vec::new();
        fn recv(b: &mut ReliableTransport, bytes: &[u8], delivered: &mut Vec<u8>) {
            if let Some(d) = b.on_recv(bytes).unwrap() {
                delivered.push(tag_of(&d));
                while let Some(d) = b.next_ready() {
                    delivered.push(tag_of(&d));
                }
            }
        }
        for tag in 0..5u8 {
            let frame = a.on_send(dgram(1, 2, tag)).unwrap();
            if tag == 2 {
                continue; // dropped by the network
            }
            recv(&mut b, &frame.encode(), &mut delivered);
        }
        assert_eq!(delivered, vec![0, 1], "gap stalls in-order delivery");
        for _ in 0..4 {
            for frame in b.on_tick() {
                a.on_recv(&frame.encode()).unwrap();
            }
            for frame in a.on_tick() {
                recv(&mut b, &frame.encode(), &mut delivered);
            }
        }
        assert_eq!(delivered, vec![0, 1, 2, 3, 4], "repaired in order");
        assert_eq!(
            a.stats().retransmissions,
            1,
            "exactly the lost frame is re-sent"
        );
        assert_eq!(a.stats().sacked, 2, "frames 3 and 4 advertised via SACK");
        assert_eq!(b.stats().out_of_order_drops, 0, "successors were buffered");
        assert_eq!(b.stats().wasted_retransmits, 0, "nothing arrived twice");
        for frame in b.on_tick() {
            a.on_recv(&frame.encode()).unwrap();
        }
        assert!(a.fully_acked());
        // The lock-free mirrors agree with the owner views, new counters
        // included.
        assert_eq!(a.shared_stats().snapshot(), a.stats());
        assert_eq!(b.shared_stats().snapshot(), b.stats());
    }

    #[test]
    fn selective_repeat_buffers_within_span_drops_beyond() {
        let mut a = ReliableTransport::new(NodeAddr(1), ReliableConfig::default());
        let mut b = ReliableTransport::new(NodeAddr(2), ReliableConfig::default());
        let mut frames = Vec::new();
        for tag in 0..=(SACK_SPAN as usize + 1) {
            frames.push(a.on_send(dgram(1, 2, tag as u8)).unwrap().encode());
        }
        // Frame 0 is lost; everything within (0, SACK_SPAN] buffers...
        for frame in &frames[1..=SACK_SPAN as usize] {
            assert!(b.on_recv(frame).unwrap().is_none());
        }
        assert_eq!(b.stats().out_of_order_drops, 0);
        // ...but SACK_SPAN + 1 is beyond the bitmap's reach: dropped.
        assert!(b
            .on_recv(&frames[SACK_SPAN as usize + 1])
            .unwrap()
            .is_none());
        assert_eq!(b.stats().out_of_order_drops, 1);
        // A duplicate of a buffered frame is wasted wire, not a new buffer.
        assert!(b.on_recv(&frames[1]).unwrap().is_none());
        assert_eq!(b.stats().duplicate_drops, 1);
        assert_eq!(b.stats().wasted_retransmits, 1);
        // The gap fill releases the whole buffered run in order.
        let head = b.on_recv(&frames[0]).unwrap().expect("gap filled");
        let mut tags = vec![tag_of(&head)];
        while let Some(d) = b.next_ready() {
            tags.push(tag_of(&d));
        }
        let expect: Vec<u8> = (0..=SACK_SPAN as u8).collect();
        assert_eq!(tags, expect);
    }

    /// A stale SACK (reordered behind a newer cumulative ack) can leave
    /// every outstanding frame marked sacked. The timer must still probe
    /// with the head frame — silence would deadlock the channel, since the
    /// receiver only re-acks when poked.
    #[test]
    fn timer_probes_head_when_everything_is_sacked() {
        let cfg = ReliableConfig {
            retransmit_after_ticks: 2,
            window: 64,
            mode: RecoveryMode::SelectiveRepeat,
        };
        let mut a = ReliableTransport::new(NodeAddr(1), cfg);
        a.on_send(dgram(1, 2, 0)).unwrap();
        a.on_send(dgram(1, 2, 1)).unwrap();
        let mut ack = Vec::new();
        encode_ack_into(1, NodeAddr(2), NodeAddr(1), 0, &mut ack);
        a.on_recv(&ack).unwrap(); // retires seq 0
        let mut sack = Vec::new();
        encode_sack_into(0, 0b1, NodeAddr(2), NodeAddr(1), 0, &mut sack);
        a.on_recv(&sack).unwrap(); // stale: marks seq 1 sacked
        assert!(!a.fully_acked());
        let mut probed = Vec::new();
        for _ in 0..2 {
            for frame in a.on_tick() {
                if let TransportFrame::Data { seq, .. } = frame {
                    probed.push(seq);
                }
            }
        }
        assert_eq!(probed, vec![1], "head probe fires exactly once per timeout");
    }

    #[test]
    fn gbn_mode_counts_gap_discards_as_wasted() {
        let cfg = ReliableConfig {
            retransmit_after_ticks: 1000,
            window: 64,
            mode: RecoveryMode::GoBackN,
        };
        let mut a = ReliableTransport::new(NodeAddr(1), cfg);
        let mut b = ReliableTransport::new(NodeAddr(2), cfg);
        let _lost = a.on_send(dgram(1, 2, 0)).unwrap();
        let f1 = a.on_send(dgram(1, 2, 1)).unwrap();
        assert!(b.on_recv(&f1.encode()).unwrap().is_none(), "gap discards");
        assert_eq!(b.stats().out_of_order_drops, 1);
        assert_eq!(
            b.stats().wasted_retransmits,
            1,
            "a GBN gap discard is wasted wire"
        );
        assert_eq!(b.stats().sacked, 0, "GBN never sacks");
    }
}
