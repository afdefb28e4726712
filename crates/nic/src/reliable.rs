//! Reliable transport — the occupant of the paper's Protocol unit.
//!
//! The paper ships with an idle Protocol unit and names the follow-up:
//! "we plan to extend Dagger with reliable transports and with RPC-specific
//! congestion control" (§4.5). This module implements that extension as a
//! per-peer selective-repeat sliding window suited to the fabric's
//! properties (in-order per-sender delivery, loss possible, reordering
//! rare):
//!
//! * every data datagram to a peer carries a sequence number;
//! * the receiver delivers strictly in order and acknowledges
//!   cumulatively — acknowledgements piggyback the receiver's own traffic
//!   when possible, as §4.5 suggests ("piggybacking acknowledgement");
//! * out-of-order datagrams (up to [`SACK_SPAN`] beyond the in-order
//!   point) are *buffered*, not discarded, and advertised in SACK frames —
//!   cumulative ack plus a 64-bit received-bitmap;
//! * the sender keeps unacknowledged datagrams in a retransmit buffer
//!   keyed by sequence, bounded by a window, marks the entries a SACK
//!   advertises, and after a timeout measured in engine ticks retransmits
//!   only the frames the receiver actually misses — a single drop costs a
//!   single retransmission;
//! * every frame is sealed with CRC32C ([`wire_checksum`]) on encode and
//!   verified before anything else on decode, so a corrupted frame is a
//!   lost frame — one seal path, one verify path, one checksum.
//!
//! The state machine is synchronous and engine-driven —
//! [`ReliableTransport::on_send_encode_to`] per outgoing datagram,
//! [`ReliableTransport::on_recv`] then [`ReliableTransport::next_ready`] per
//! arrival, [`ReliableTransport::on_tick_with`] per tick — matching how the
//! hardware would run it; the engine enables it when
//! [`dagger_types::HardConfig::reliable`] is set and otherwise ships
//! [`Datagram`]s bare. Every protocol event is counted once, in the
//! instance's [`SharedReliableStats`] bank (DESIGN.md §10).
//!
//! The layer is fabric-backend-oblivious: it sees only frame bytes moving
//! through the [`crate::fabric::Fabric`] seam. It repairs what the fault
//! layer injects ([`crate::fabric_faults`]: seeded, the same decisions over
//! every wire; the chaos replay-equivalence test pins identical retransmit
//! counters across runs) and, over UDP, whatever the real network adds,
//! with the same window, checksum, and retransmission machinery.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use dagger_types::{CacheLine, DaggerError, NodeAddr, Result};

use crate::bank::counter_bank;
use crate::transport::{wire_checksum, Datagram};

/// Checksum-version bit in the frame-type byte: the frame is sealed with
/// CRC32C ([`wire_checksum`]). The checksum is part of the frame format, so
/// every frame kind of this build carries the bit and the decoder accepts
/// no other: a frame sealed with the earlier FNV-1a checksum (type bytes
/// `0x01`, `0x02`, `0x82`) is an unknown type here — rejected before its
/// checksum is even looked at, counted in `wire_drops`, and repaired like
/// any other loss by the sender's timer.
const FRAME_CRC32C_BIT: u8 = 0x40;
/// Frame type byte: payload-carrying data frame.
const FRAME_DATA: u8 = FRAME_CRC32C_BIT | 1;
/// Frame type byte: standalone cumulative acknowledgement.
const FRAME_ACK: u8 = FRAME_CRC32C_BIT | 2;
/// Version bit in the frame-type byte, set by frame kinds added after the
/// first wire format: a decoder that predates such a kind rejects it
/// cleanly as an unknown type (loss, which the retransmit timer absorbs)
/// rather than misparsing it. [`FRAME_CRC32C_BIT`] is the same device.
const FRAME_VERSION_BIT: u8 = 0x80;
/// Frame type byte: selective acknowledgement — cumulative ack plus a
/// [`SACK_SPAN`]-bit bitmap of datagrams received beyond it (see
/// [`FRAME_VERSION_BIT`]).
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
/// Bytes of the CRC32C integrity checksum each frame carries.
const FRAME_CRC: usize = 4;
/// Minimum frame size: prefix + checksum.
const FRAME_MIN: usize = FRAME_PREFIX + FRAME_CRC;
/// Maximum retired line-vectors held for recycling before excess ones are
/// simply dropped (bounds memory if the engine stops draining).
const RETIRED_CAP: usize = 512;

/// Encodes a data frame into `out` (cleared first) without cloning the
/// datagram: the 19-byte prefix and a 4-byte checksum placeholder go in
/// first, the datagram body is appended in place, then the checksum —
/// which covers prefix + body, everything but itself — is patched over
/// the placeholder: `[prefix 19][crc 4][datagram]`.
fn encode_data_into(seq: u64, ack: u64, src_queue: u16, datagram: &Datagram, out: &mut Vec<u8>) {
    out.clear();
    out.push(FRAME_DATA);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&ack.to_le_bytes());
    out.extend_from_slice(&src_queue.to_le_bytes());
    out.extend_from_slice(&[0u8; FRAME_CRC]);
    datagram.append_to(out);
    seal(out);
}

/// Starts an ack-family frame in `out` (cleared first): the 19-byte prefix
/// ack and sack share, then the checksum placeholder.
fn begin_ack(kind: u8, ack: u64, src: NodeAddr, dst: NodeAddr, src_queue: u16, out: &mut Vec<u8>) {
    out.clear();
    out.push(kind);
    out.extend_from_slice(&ack.to_le_bytes());
    out.extend_from_slice(&src.raw().to_le_bytes());
    out.extend_from_slice(&dst.raw().to_le_bytes());
    out.extend_from_slice(&src_queue.to_le_bytes());
    out.extend_from_slice(&[0u8; FRAME_CRC]);
}

/// Patches the checksum of the frame built in `out` over its placeholder.
fn seal(out: &mut [u8]) {
    let crc = wire_checksum(&[&out[..FRAME_PREFIX], &out[FRAME_MIN..]]);
    out[FRAME_PREFIX..FRAME_MIN].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes a standalone ack frame into `out`: `[prefix 19][crc 4]`, no
/// body.
fn encode_ack_into(ack: u64, src: NodeAddr, dst: NodeAddr, src_queue: u16, out: &mut Vec<u8>) {
    begin_ack(FRAME_ACK, ack, src, dst, src_queue, out);
    seal(out);
}

/// Encodes a selective-ack frame into `out`: the ack layout with the
/// SACK type byte, then the 8-byte received-bitmap as the body
/// (covered by the checksum like any body).
fn encode_sack_into(
    ack: u64,
    bitmap: u64,
    src: NodeAddr,
    dst: NodeAddr,
    src_queue: u16,
    out: &mut Vec<u8>,
) {
    begin_ack(FRAME_SACK, ack, src, dst, src_queue, out);
    out.extend_from_slice(&bitmap.to_le_bytes());
    seal(out);
}

/// A transport frame as it crosses the fabric — the one frame type of this
/// layer. It never owns its datagram; `B` is what a data frame borrows it
/// as: `&Datagram` on the way out (straight from the retransmit window, so
/// the engine encodes into a pooled buffer without cloning), `&[u8]` on the
/// way in (the datagram's checksummed wire bytes, which
/// [`ReliableTransport::on_recv`] parses into a recycled line vector only
/// once it knows the frame is worth keeping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameView<B> {
    /// A sequenced data frame with a piggybacked cumulative ack of the
    /// sender's receive direction.
    Data {
        /// Sequence number (per sender-queue → receiver session).
        seq: u64,
        /// Cumulative ack: the sender has received everything below this.
        ack: u64,
        /// Engine queue of the sender that owns this channel (on the wire;
        /// 0 on single-queue NICs).
        src_queue: u16,
        /// Destination engine queue to route the frame to (routing
        /// metadata only — never encoded, 0 after a decode; the datagram
        /// header already carries the addresses and the fabric carries the
        /// queue).
        dst_queue: u16,
        /// The payload datagram.
        datagram: B,
    },
    /// A standalone acknowledgement (acks are not themselves sequenced):
    /// the cumulative ack plus a [`SACK_SPAN`]-bit received-bitmap. With an
    /// empty bitmap it travels as a plain ack frame, otherwise as a
    /// selective-ack frame.
    Ack {
        /// The receiver has everything below this sequence.
        ack: u64,
        /// Bit `i` set: sequence `ack + 1 + i` is received and buffered.
        bitmap: u64,
        /// Sender.
        src: NodeAddr,
        /// Receiver.
        dst: NodeAddr,
        /// Engine queue of the sender (on the wire).
        src_queue: u16,
        /// Destination engine queue to route the ack to (routing only).
        dst_queue: u16,
    },
}

impl<B> FrameView<B> {
    /// Destination engine queue the frame should be routed to.
    pub fn dst_queue(&self) -> u16 {
        match self {
            FrameView::Data { dst_queue, .. } | FrameView::Ack { dst_queue, .. } => *dst_queue,
        }
    }
}

impl FrameView<&Datagram> {
    /// Where the frame is headed.
    pub fn dst(&self) -> NodeAddr {
        match self {
            FrameView::Data { datagram, .. } => datagram.dst,
            FrameView::Ack { dst, .. } => *dst,
        }
    }

    /// Serializes into `out` (cleared first), reusing its allocation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match *self {
            FrameView::Data {
                seq,
                ack,
                src_queue,
                datagram,
                ..
            } => encode_data_into(seq, ack, src_queue, datagram, out),
            FrameView::Ack {
                ack,
                bitmap: 0,
                src,
                dst,
                src_queue,
                ..
            } => encode_ack_into(ack, src, dst, src_queue, out),
            FrameView::Ack {
                ack,
                bitmap,
                src,
                dst,
                src_queue,
                ..
            } => encode_sack_into(ack, bitmap, src, dst, src_queue, out),
        }
    }
}

impl<'a> FrameView<&'a [u8]> {
    /// Parses wire bytes, verifying the integrity checksum first. A data
    /// frame's datagram stays encoded: the returned view borrows it from
    /// `bytes` for [`Datagram::decode_lines_into`].
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Wire`] on truncated input, an unknown frame
    /// type (a frame of an older wire format included), a checksum
    /// mismatch (bit corruption in flight), or a malformed ack/sack body.
    /// Never panics: any fabric-mangled byte string maps to `Err`.
    pub fn decode(bytes: &'a [u8]) -> Result<Self> {
        let Some(&kind) = bytes.first() else {
            return Err(DaggerError::Wire("empty frame".to_string()));
        };
        if !matches!(kind, FRAME_DATA | FRAME_ACK | FRAME_SACK) {
            return Err(DaggerError::Wire(format!("unknown frame type {kind}")));
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
        let src_queue = u16::from_le_bytes(prefix[17..19].try_into().unwrap());
        if kind == FRAME_DATA {
            return Ok(FrameView::Data {
                seq: u64::from_le_bytes(prefix[1..9].try_into().unwrap()),
                ack: u64::from_le_bytes(prefix[9..17].try_into().unwrap()),
                src_queue,
                dst_queue: 0,
                datagram: body,
            });
        }
        // Ack and sack share the prefix layout; the sack's body is its
        // 8-byte bitmap, the ack has none.
        let bitmap = match (kind, body.len()) {
            (FRAME_ACK, 0) => 0,
            (FRAME_SACK, 8) => u64::from_le_bytes(body.try_into().unwrap()),
            _ => return Err(DaggerError::Wire("bad ack frame length".to_string())),
        };
        Ok(FrameView::Ack {
            ack: u64::from_le_bytes(prefix[1..9].try_into().unwrap()),
            bitmap,
            src: NodeAddr(u32::from_le_bytes(prefix[9..13].try_into().unwrap())),
            dst: NodeAddr(u32::from_le_bytes(prefix[13..17].try_into().unwrap())),
            src_queue,
            dst_queue: 0,
        })
    }
}

/// Configuration of the reliability protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Engine ticks without an ack before retransmitting the datagrams the
    /// receiver is not known to hold.
    pub retransmit_after_ticks: u64,
    /// Maximum unacknowledged datagrams per peer before sends are refused
    /// (backpressure to the TX FSM, which retries next round).
    pub window: usize,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            retransmit_after_ticks: 64,
            window: 256,
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
    /// (the retransmit timer skips them).
    unacked: VecDeque<(u64, Datagram, bool)>,
    ticks_since_progress: u64,
}

#[derive(Debug, Default)]
struct PeerRx {
    /// Next expected sequence (everything below is delivered).
    expected: u64,
    /// `true` when we owe the peer an ack that has not piggybacked yet.
    ack_owed: bool,
    /// Out-of-order datagrams buffered until their gap fills, keyed by
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
        /// Out-of-order datagrams discarded on receive: those beyond the
        /// SACK bitmap's reach.
        out_of_order_drops,
        /// Duplicate datagrams suppressed on receive.
        duplicate_drops,
        /// Frames rejected on receive as undecodable (truncated, unknown
        /// type, or checksum mismatch from in-flight bit corruption).
        wire_drops,
        /// Frames acknowledged out-of-order via SACK bitmaps, each counted
        /// once at its unsacked → sacked transition (sender side).
        sacked,
        /// Received data frames that added no new information
        /// (duplicates): what the peer's retransmissions wasted on the
        /// wire.
        wasted_retransmits,
    }
}

/// Per-engine-queue reliable-transport state machine: one selective-repeat
/// sliding window per directed (local queue → peer, peer queue) channel.
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
    /// Line vectors of datagrams retired from the window by acks. They
    /// first serve this instance's own RX decodes (see `rx_lines`); the
    /// engine recycles the surplus into its [`crate::bufpool::BufPool`].
    retired: Vec<Vec<CacheLine>>,
    /// The vector the next data frame's lines decode into. A datagram that
    /// is kept (delivered or buffered) takes it along and a retired vector
    /// steps in — or, with none retired, the delivered vector once the
    /// caller recycles it — so the RX path never allocates once warm; a
    /// discarded frame (duplicate, out of reach) leaves it in place.
    rx_lines: Vec<CacheLine>,
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
            rx_lines: Vec::new(),
            ready: VecDeque::new(),
        }
    }

    /// A cloneable handle onto the counter bank, safe to read from any
    /// thread while the engine drives this state machine.
    pub fn shared_stats(&self) -> Arc<SharedReliableStats> {
        Arc::clone(&self.shared)
    }

    /// Zero-copy send on the channel to `(dst, dst_queue)`: sequences
    /// `datagram` (piggybacking any owed ack), encodes the frame into `out`
    /// (a pooled buffer), and *moves* the datagram into the retransmit
    /// window instead of cloning it.
    ///
    /// # Errors
    ///
    /// Hands the datagram back when the channel's send window is full (the
    /// engine defers it to `pending_out`); `out` is untouched in that case.
    pub fn on_send_encode_to(
        &mut self,
        datagram: Datagram,
        dst_queue: u16,
        out: &mut Vec<u8>,
    ) -> std::result::Result<(), Datagram> {
        let window = self.cfg.window;
        let channel = self.tx.get(&(datagram.dst, dst_queue));
        if channel.is_some_and(|tx| tx.unacked.len() >= window) {
            return Err(datagram);
        }
        self.on_send_forced_encode_to(datagram, dst_queue, out);
        Ok(())
    }

    /// [`ReliableTransport::on_send_encode_to`] on the channel to the
    /// peer's queue 0.
    ///
    /// # Errors
    ///
    /// Hands the datagram back when the peer's send window is full.
    pub fn on_send_encode(
        &mut self,
        datagram: Datagram,
        out: &mut Vec<u8>,
    ) -> std::result::Result<(), Datagram> {
        self.on_send_encode_to(datagram, 0, out)
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
        let key = (datagram.dst, dst_queue);
        let ack = self.pending_ack(key);
        let tx = self.tx.entry(key).or_default();
        encode_data_into(tx.next_seq, ack, self.local_queue, &datagram, out);
        tx.unacked.push_back((tx.next_seq, datagram, false));
        tx.next_seq += 1;
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

    /// Applies an acknowledgement to the channel it names: retires the
    /// cumulative prefix, then marks every bitmap-advertised sequence so the
    /// retransmit timer skips it.
    fn apply_ack(&mut self, channel: (NodeAddr, u16), ack: u64, bitmap: u64) {
        let Some(tx) = self.tx.get_mut(&channel) else {
            return;
        };
        while tx.unacked.front().is_some_and(|&(seq, _, _)| seq < ack) {
            let (_, datagram, _) = tx.unacked.pop_front().expect("front checked");
            if self.retired.len() < RETIRED_CAP {
                self.retired.push(datagram.lines);
            }
            tx.ticks_since_progress = 0;
        }
        let mut bits = bitmap;
        while bits != 0 {
            // `ack` is off the wire: at the top of the sequence space the
            // sum wraps and simply matches nothing.
            let seq = ack.wrapping_add(1 + u64::from(bits.trailing_zeros()));
            bits &= bits - 1;
            let idx = tx.unacked.partition_point(|&(s, _, _)| s < seq);
            if let Some(entry) = tx.unacked.get_mut(idx) {
                if entry.0 == seq && !entry.2 {
                    entry.2 = true;
                    self.shared.sacked.inc();
                }
            }
        }
    }

    /// Hands the line vectors of ack-retired datagrams that no RX decode
    /// claimed to `recycle` (typically `BufPool::put_lines`), closing the
    /// buffer circulation loop: stage → window → (RX decode →) pool →
    /// stage.
    pub fn drain_retired(&mut self, mut recycle: impl FnMut(Vec<CacheLine>)) {
        for lines in self.retired.drain(..) {
            recycle(lines);
        }
    }

    /// Processes a received frame. Returns the datagram to deliver up the
    /// stack, if the frame was the next in-order data frame. An in-order
    /// arrival can unblock buffered successors: the caller must drain them
    /// through [`ReliableTransport::next_ready`] to preserve delivery
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Wire`] if the frame cannot be parsed or its
    /// checksum does not match (corruption handled as loss — the frame is
    /// discarded and counted in `wire_drops`, and the retransmit timer
    /// repairs the stream).
    pub fn on_recv(&mut self, bytes: &[u8]) -> Result<Option<Datagram>> {
        self.accept(bytes)
            .inspect_err(|_| self.shared.wire_drops.inc())
    }

    fn accept(&mut self, bytes: &[u8]) -> Result<Option<Datagram>> {
        let (seq, ack, src_queue, body) = match FrameView::decode(bytes)? {
            // An ack's sender queue names which of our TX channels it
            // acknowledges: we routed that traffic to (src, src_queue).
            FrameView::Ack {
                ack,
                bitmap,
                src,
                src_queue,
                ..
            } => {
                self.apply_ack((src, src_queue), ack, bitmap);
                return Ok(None);
            }
            FrameView::Data {
                seq,
                ack,
                src_queue,
                datagram,
                ..
            } => (seq, ack, src_queue, datagram),
        };
        let (src, dst) = Datagram::decode_lines_into(body, &mut self.rx_lines)?;
        let channel = (src, src_queue);
        // Applied before the datagram claims `rx_lines`, so a vector this
        // ack retires already serves the next decode.
        self.apply_ack(channel, ack, 0);
        let shared = &self.shared;
        let (rx_lines, retired) = (&mut self.rx_lines, &mut self.retired);
        let mut keep = || {
            let lines = std::mem::replace(rx_lines, retired.pop().unwrap_or_default());
            Datagram { src, dst, lines }
        };
        let rx = self.rx.entry(channel).or_default();
        rx.ack_owed = true;
        if seq == rx.expected {
            rx.expected += 1;
            // A filled gap releases the buffered run behind it.
            while let Some(d) = rx.ooo.remove(&rx.expected) {
                rx.expected += 1;
                self.ready.push_back(d);
            }
            return Ok(Some(keep()));
        }
        if seq < rx.expected || rx.ooo.contains_key(&seq) {
            // `ack_owed` re-acks so the sender advances.
            shared.duplicate_drops.inc();
            shared.wasted_retransmits.inc();
        } else if seq - rx.expected <= SACK_SPAN {
            // A gap, but within the SACK bitmap's reach: buffer the
            // datagram and advertise it instead of discarding.
            rx.ooo.insert(seq, keep());
        } else {
            // A gap beyond the bitmap's reach: discard and wait for the
            // retransmission.
            shared.out_of_order_drops.inc();
        }
        Ok(None)
    }

    /// Takes back the line vector of a datagram `on_recv` or `next_ready`
    /// returned. It becomes the next decode target when the kept datagram
    /// found no retired vector to leave in its place (acks that arrive on
    /// their own, one-way traffic), so no decode allocates a fresh vector
    /// while one circulates; otherwise it joins the retired vectors.
    pub fn recycle_rx_lines(&mut self, lines: Vec<CacheLine>) {
        if self.rx_lines.capacity() == 0 {
            self.rx_lines = lines;
        } else if self.retired.len() < RETIRED_CAP {
            self.retired.push(lines);
        }
    }

    /// Takes the next datagram released by a gap fill, in sequence order.
    /// The engine drains this after every `on_recv`; empty on the loss-free
    /// fast path.
    pub fn next_ready(&mut self) -> Option<Datagram> {
        self.ready.pop_front()
    }

    /// Advances protocol timers by one engine tick. Each frame to put on
    /// the wire — standalone acks/sacks that did not piggyback, and
    /// retransmissions for peers whose timer expired — is handed to `emit`
    /// as a borrowed [`FrameView`] so the engine can encode it straight
    /// into a pooled buffer. In the (common) idle tick nothing is built at
    /// all.
    pub fn on_tick_with(&mut self, mut emit: impl FnMut(FrameView<&Datagram>)) {
        let local = self.local;
        let local_queue = self.local_queue;
        // Standalone acks for quiet receive directions. The channel key's
        // queue is the *peer's* sending queue — which is exactly where the
        // ack must be routed, since that worker owns the TX window. When
        // out-of-order datagrams sit buffered, the bitmap advertises them
        // (and the ack travels as a SACK).
        for (&(peer, peer_queue), rx) in self.rx.iter_mut() {
            if rx.ack_owed {
                rx.ack_owed = false;
                emit(FrameView::Ack {
                    ack: rx.expected,
                    bitmap: sack_bitmap(rx),
                    src: local,
                    dst: peer,
                    src_queue: local_queue,
                    dst_queue: peer_queue,
                });
            }
        }
        self.retransmit_channels(true, &mut emit);
    }

    /// Re-emits every unacknowledged, unsacked datagram immediately,
    /// ignoring the retransmit timer: the shutdown drain's "one last
    /// retransmission pass", so window-deferred datagrams flushed right
    /// after keep their ordering at a live peer.
    pub fn retransmit_unacked_with(&mut self, mut emit: impl FnMut(FrameView<&Datagram>)) {
        self.retransmit_channels(false, &mut emit);
    }

    /// One retransmission pass over every channel with unacked datagrams,
    /// re-emitting those the receiver is not known to hold (sacked entries
    /// are skipped). `timed` is the per-tick form: a channel is repaired
    /// only once its retransmit timer expires, and a window that is all
    /// sacked yet not cumulatively acked — the receiver's cumulative ack
    /// must have been lost — still emits its head frame as a probe so the
    /// peer re-acks (its duplicate path sets `ack_owed`) and the channel
    /// never stalls. Each channel's cumulative ack is read straight from
    /// the rx map (no per-pass scratch map).
    fn retransmit_channels(&mut self, timed: bool, emit: &mut impl FnMut(FrameView<&Datagram>)) {
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
                .filter(|(_, _, sacked)| !sacked)
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
    fn fully_acked(&self) -> bool {
        self.tx.values().all(|t| t.unacked.is_empty())
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
}

/// Builds the SACK bitmap for a receive direction: bit `i` set means
/// `expected + 1 + i` is buffered. Empty (0) when nothing is buffered —
/// the ack then travels as a plain cumulative ack, eight bytes shorter.
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

    fn encoded(frame: FrameView<&Datagram>) -> Vec<u8> {
        let mut out = Vec::new();
        frame.encode_into(&mut out);
        out
    }

    /// Sequences `d` on the channel to `(d.dst, queue)` the way the engine
    /// does and returns the wire bytes.
    fn send_to(t: &mut ReliableTransport, d: Datagram, queue: u16) -> Vec<u8> {
        let mut out = Vec::new();
        t.on_send_encode_to(d, queue, &mut out)
            .expect("window open");
        out
    }

    fn send(t: &mut ReliableTransport, d: Datagram) -> Vec<u8> {
        send_to(t, d, 0)
    }

    /// One engine tick: every frame `t` emits, encoded.
    fn tick(t: &mut ReliableTransport) -> Vec<Vec<u8>> {
        let mut wire = Vec::new();
        t.on_tick_with(|frame| wire.push(encoded(frame)));
        wire
    }

    /// Feeds `bytes` to `t` as the engine's RX round does — `on_recv`, then
    /// the gap-fill run — and returns the delivered tags in order.
    fn recv(t: &mut ReliableTransport, bytes: &[u8]) -> Vec<u8> {
        let first = t.on_recv(bytes).unwrap();
        first
            .into_iter()
            .chain(std::iter::from_fn(|| t.next_ready()))
            .map(|d| d.lines[0].as_bytes()[20])
            .collect()
    }

    /// `(seq, ack, src_queue)` of an encoded data frame.
    fn data_header(bytes: &[u8]) -> (u64, u64, u16) {
        match FrameView::decode(bytes).unwrap() {
            FrameView::Data {
                seq,
                ack,
                src_queue,
                ..
            } => (seq, ack, src_queue),
            other => panic!("expected a data frame, got {other:?}"),
        }
    }

    fn stats(t: &ReliableTransport) -> ReliableStats {
        t.shared_stats().snapshot()
    }

    fn pair(retransmit_after_ticks: u64) -> (ReliableTransport, ReliableTransport) {
        let cfg = ReliableConfig {
            retransmit_after_ticks,
            window: 64,
        };
        (
            ReliableTransport::new(NodeAddr(1), cfg),
            ReliableTransport::new(NodeAddr(2), cfg),
        )
    }

    /// An ack from NIC 2 to NIC 1 (a SACK when `bitmap` is not empty).
    fn ack_frame<B>(ack: u64, bitmap: u64) -> FrameView<B> {
        FrameView::Ack {
            ack,
            bitmap,
            src: NodeAddr(2),
            dst: NodeAddr(1),
            src_queue: 0,
            dst_queue: 0,
        }
    }

    #[test]
    fn frame_codec_roundtrip() {
        let d = dgram(1, 2, 9);
        let bytes = encoded(FrameView::Data {
            seq: 42,
            ack: 7,
            src_queue: 3,
            dst_queue: 0,
            datagram: &d,
        });
        assert_eq!(data_header(&bytes), (42, 7, 3));
        match FrameView::decode(&bytes).unwrap() {
            FrameView::Data { datagram, .. } => assert_eq!(Datagram::decode(datagram).unwrap(), d),
            other => panic!("expected a data frame, got {other:?}"),
        }
        let ack = encoded(ack_frame(99, 0));
        assert_eq!(ack[0], FRAME_ACK, "an empty bitmap travels as a plain ack");
        assert_eq!(FrameView::decode(&ack).unwrap(), ack_frame(99, 0));
        let sack = encoded(ack_frame(17, 0b1011));
        assert_eq!(sack[0], FRAME_SACK);
        assert_eq!(FrameView::decode(&sack).unwrap(), ack_frame(17, 0b1011));
        // Bit flips anywhere (type byte, prefix, bitmap body) are caught.
        for pos in 0..sack.len() {
            let mut bad = sack.clone();
            bad[pos] ^= 0x04;
            assert!(FrameView::decode(&bad).is_err(), "flip at {pos}");
        }
    }

    #[test]
    fn frame_codec_rejects_garbage() {
        assert!(FrameView::decode(&[]).is_err());
        assert!(FrameView::decode(&[9, 0, 0]).is_err());
        assert!(FrameView::decode(&[FRAME_DATA, 1, 2]).is_err());
        assert!(FrameView::decode(&[FRAME_ACK; 5]).is_err());
        // Well-formed but hostile: a sack at the top of the sequence space
        // retires what it covers and must not overflow.
        let (mut a, _) = pair(64);
        send(&mut a, dgram(1, 2, 0));
        let hostile = encoded(ack_frame(u64::MAX, u64::MAX));
        assert!(a.on_recv(&hostile).unwrap().is_none());
        assert!(a.fully_acked());
    }

    #[test]
    fn checksum_rejects_bit_flips() {
        let (mut a, mut b) = pair(64);
        let mut lines = vec![CacheLine::zeroed(); 16];
        for (i, line) in lines.iter_mut().enumerate() {
            line.as_bytes_mut().fill(i as u8 ^ 0x5A);
        }
        let good = send(&mut a, Datagram::new(NodeAddr(1), NodeAddr(2), lines));
        // Every single-bit flip of a full data frame, an ack and a sack is
        // rejected — CRC32C guarantees it (the type byte sits under the
        // checksum too, so a flip into another known kind fails as well),
        // and one flipped bit is exactly what the fault layer's `corrupt`
        // does to a frame.
        for frame in [
            good.clone(),
            encoded(ack_frame(99, 0)),
            encoded(ack_frame(17, 0b1011)),
        ] {
            assert!(FrameView::decode(&frame).is_ok());
            for bit in 0..frame.len() * 8 {
                let mut bad = frame.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    FrameView::decode(&bad).is_err(),
                    "flip of bit {bit} in a {}-byte frame must be caught",
                    frame.len()
                );
            }
        }
        // Truncations at every length are rejected, never panic — also
        // inside the datagram, behind a checksum that matches.
        for len in 0..good.len() {
            assert!(FrameView::decode(&good[..len]).is_err());
        }
        let mut short = good[..good.len() - 1].to_vec();
        seal(&mut short);
        assert!(b.on_recv(&short).is_err(), "malformed datagram body");
        assert_eq!(stats(&b).wire_drops, 1);
    }

    #[test]
    fn corrupt_frames_counted_as_wire_drops() {
        let (mut a, mut b) = pair(64);
        let mut bytes = send(&mut a, dgram(1, 2, 0));
        bytes[30] ^= 0x01;
        assert!(b.on_recv(&bytes).is_err());
        assert_eq!(stats(&b).wire_drops, 1);
        // A later clean frame is held behind the gap the corruption left.
        let clean = send(&mut a, dgram(1, 2, 1));
        assert!(recv(&mut b, &clean).is_empty(), "gap held");
    }

    #[test]
    fn lossless_path_delivers_in_order() {
        let (mut a, mut b) = pair(64);
        for tag in 0..10u8 {
            let frame = send(&mut a, dgram(1, 2, tag));
            assert_eq!(recv(&mut b, &frame), [tag]);
        }
        // b owes acks; one tick flushes a standalone ack that clears a.
        for frame in tick(&mut b) {
            a.on_recv(&frame).unwrap();
        }
        assert!(a.fully_acked());
        assert_eq!(stats(&a).retransmissions, 0);
    }

    #[test]
    fn duplicates_are_suppressed() {
        let (mut a, mut b) = pair(64);
        let frame = send(&mut a, dgram(1, 2, 7));
        assert_eq!(recv(&mut b, &frame), [7]);
        assert!(recv(&mut b, &frame).is_empty(), "duplicate dropped");
        assert_eq!(stats(&b).duplicate_drops, 1);
    }

    #[test]
    fn window_backpressure() {
        let cfg = ReliableConfig {
            retransmit_after_ticks: 1000,
            window: 2,
        };
        let mut a = ReliableTransport::new(NodeAddr(1), cfg);
        send(&mut a, dgram(1, 2, 0));
        send(&mut a, dgram(1, 2, 1));
        let mut out = vec![0xEE];
        let refused = a.on_send_encode(dgram(1, 2, 2), &mut out);
        assert_eq!(refused, Err(dgram(1, 2, 2)), "datagram handed back");
        assert_eq!(out, [0xEE], "buffer untouched");
        // The shutdown drain's forced send ignores the window.
        a.on_send_forced_encode_to(dgram(1, 2, 2), 0, &mut out);
        assert_eq!(data_header(&out).0, 2);
    }

    #[test]
    fn piggybacked_acks_clear_reverse_path() {
        let (mut a, mut b) = pair(64);
        // a -> b data; b's reply piggybacks the ack.
        let f1 = send(&mut a, dgram(1, 2, 0));
        assert_eq!(recv(&mut b, &f1), [0]);
        let reply = send(&mut b, dgram(2, 1, 9));
        assert_eq!(data_header(&reply).1, 1, "piggybacked");
        assert_eq!(recv(&mut a, &reply), [9]);
        assert!(a.fully_acked());
        // And b should not need a standalone ack anymore.
        assert!(tick(&mut b).is_empty());
    }

    /// The RX decode reuses what the TX window retires: with traffic in
    /// both directions a kept datagram's line vector is one this instance
    /// sent earlier, and only the surplus reaches `drain_retired`.
    #[test]
    fn rx_decode_recycles_retired_vectors() {
        let (mut a, mut b) = pair(64);
        let request = dgram(1, 2, 0);
        let sent = request.lines.as_ptr();
        let f1 = send(&mut a, request);
        assert_eq!(recv(&mut b, &f1), [0]);
        let reply = send(&mut b, dgram(2, 1, 1));
        // The reply acks the request: its vector retires, then steps in as
        // the decode target for the next frame.
        assert_eq!(recv(&mut a, &reply), [1]);
        let mut surplus = 0;
        a.drain_retired(|_| surplus += 1);
        assert_eq!(surplus, 0, "the retired vector was claimed by the RX side");
        let reply2 = send(&mut b, dgram(2, 1, 2));
        let d = a.on_recv(&reply2).unwrap().expect("in order");
        assert_eq!(d.lines.as_ptr(), sent, "decoded into the retired vector");
    }

    /// One-way traffic retires nothing on the receiving side, so every kept
    /// datagram leaves the decode target empty; the recycled vector of the
    /// previous datagram steps in, and the next decode reuses it.
    #[test]
    fn recycled_rx_vector_is_the_next_decode_target() {
        let (mut a, mut b) = pair(64);
        let first = send(&mut a, dgram(1, 2, 0));
        let d = b.on_recv(&first).unwrap().expect("in order");
        let used = d.lines.as_ptr();
        b.recycle_rx_lines(d.lines);
        for tag in 1..4u8 {
            let frame = send(&mut a, dgram(1, 2, tag));
            let d = b.on_recv(&frame).unwrap().expect("in order");
            assert_eq!(d.lines.as_ptr(), used, "datagram {tag} decoded elsewhere");
            assert_eq!(d.lines[0].as_bytes()[20], tag);
            b.recycle_rx_lines(d.lines);
        }
        let mut surplus = 0;
        b.drain_retired(|_| surplus += 1);
        assert_eq!(surplus, 0, "nothing retired, nothing surplus");
    }

    #[test]
    fn shared_stats_handle_tracks_counters() {
        let (mut a, mut b) = pair(1);
        let shared_a = a.shared_stats();
        let shared_b = b.shared_stats();
        let frame = send(&mut a, dgram(1, 2, 0));
        assert_eq!(recv(&mut b, &frame), [0]);
        assert!(recv(&mut b, &frame).is_empty()); // duplicate
        send(&mut a, dgram(1, 2, 1)); // lost, so frame 2 arrives past a gap
        let f2 = send(&mut a, dgram(1, 2, 2));
        assert!(recv(&mut b, &f2).is_empty());
        for frame in tick(&mut b) {
            a.on_recv(&frame).unwrap(); // the sack
        }
        tick(&mut a); // timer expires -> the hole is retransmitted
        let (sa, sb) = (shared_a.snapshot(), shared_b.snapshot());
        assert_eq!((sa.retransmissions, sa.sacked), (1, 1));
        assert_eq!((sb.duplicate_drops, sb.wasted_retransmits), (1, 1));
        assert_eq!(sb.out_of_order_drops, 0, "the gap was buffered");
    }

    #[test]
    fn sessions_are_per_peer_and_per_queue() {
        // One sender worker talking to two peers and to two queues of the
        // same peer NIC: each (peer, queue) channel owns an independent
        // sequence space, and every frame stamps the sender's queue.
        let mut a = ReliableTransport::new_on_queue(NodeAddr(1), 2, ReliableConfig::default());
        for (dst, queue) in [(2, 0), (3, 0), (2, 3)] {
            let frame = send_to(&mut a, dgram(1, dst, 0), queue);
            assert_eq!(data_header(&frame), (0, 0, 2), "channel ({dst}, {queue})");
        }
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
        let f0 = send(&mut a0, dgram(1, 2, 10));
        let f1 = send(&mut a1, dgram(1, 2, 20));
        assert_eq!(recv(&mut b, &f0), [10], "queue-0 frame delivers");
        assert_eq!(recv(&mut b, &f1), [20], "queue-1 frame delivers");
        assert_eq!(stats(&b).duplicate_drops, 0);
        assert_eq!(stats(&b).out_of_order_drops, 0);
        // b owes acks on both channels; each standalone ack names the
        // sender queue it acknowledges and routes back to it.
        let mut acks = Vec::new();
        b.on_tick_with(|view| match view {
            FrameView::Ack {
                bitmap: 0,
                src_queue,
                dst_queue,
                ..
            } => acks.push((src_queue, dst_queue, view.dst())),
            _ => panic!("expected plain acks only"),
        });
        acks.sort_unstable();
        assert_eq!(
            acks,
            vec![(0, 0, NodeAddr(1)), (0, 1, NodeAddr(1))],
            "acks carry b's queue and route to each sender worker"
        );
        assert!(tick(&mut b).is_empty(), "nothing further owed");
        // Applying each ack clears exactly the matching worker's window.
        let ack = encoded(ack_frame(1, 0));
        a0.on_recv(&ack).unwrap();
        assert!(a0.fully_acked(), "worker 0 cleared");
        assert!(!a1.fully_acked(), "worker 1 still waiting");
        a1.on_recv(&ack).unwrap();
        assert!(a1.fully_acked(), "same channel key (2, 0) at worker 1");
    }

    /// The headline selective-repeat property: one lost datagram costs one
    /// retransmission, the buffered successors are never re-sent, and
    /// delivery order is preserved through the ready queue.
    #[test]
    fn single_loss_repaired_by_one_retransmission() {
        let (mut a, mut b) = pair(2);
        let mut delivered = Vec::new();
        for tag in 0..5u8 {
            let frame = send(&mut a, dgram(1, 2, tag));
            if tag != 2 {
                // tag 2 is dropped by the network
                delivered.extend(recv(&mut b, &frame));
            }
        }
        assert_eq!(delivered, vec![0, 1], "gap stalls in-order delivery");
        for _ in 0..4 {
            for frame in tick(&mut b) {
                a.on_recv(&frame).unwrap();
            }
            for frame in tick(&mut a) {
                delivered.extend(recv(&mut b, &frame));
            }
        }
        assert_eq!(delivered, vec![0, 1, 2, 3, 4], "repaired in order");
        assert_eq!(
            stats(&a).retransmissions,
            1,
            "only the lost frame is re-sent"
        );
        assert_eq!(stats(&a).sacked, 2, "frames 3 and 4 advertised via SACK");
        assert_eq!(stats(&b).out_of_order_drops, 0, "successors were buffered");
        assert_eq!(stats(&b).wasted_retransmits, 0, "nothing arrived twice");
        for frame in tick(&mut b) {
            a.on_recv(&frame).unwrap();
        }
        assert!(a.fully_acked());
    }

    #[test]
    fn out_of_order_buffers_within_span_drops_beyond() {
        let mut a = ReliableTransport::new(NodeAddr(1), ReliableConfig::default());
        let mut b = ReliableTransport::new(NodeAddr(2), ReliableConfig::default());
        let frames: Vec<_> = (0..=SACK_SPAN as u8 + 1)
            .map(|tag| send_to(&mut a, dgram(1, 2, tag), 0))
            .collect();
        // Frame 0 is lost; everything within (0, SACK_SPAN] buffers...
        for frame in &frames[1..=SACK_SPAN as usize] {
            assert!(recv(&mut b, frame).is_empty());
        }
        assert_eq!(stats(&b).out_of_order_drops, 0);
        // ...but SACK_SPAN + 1 is beyond the bitmap's reach: dropped.
        assert!(recv(&mut b, &frames[SACK_SPAN as usize + 1]).is_empty());
        assert_eq!(stats(&b).out_of_order_drops, 1);
        // A duplicate of a buffered frame is wasted wire, not a new buffer.
        assert!(recv(&mut b, &frames[1]).is_empty());
        assert_eq!(stats(&b).duplicate_drops, 1);
        assert_eq!(stats(&b).wasted_retransmits, 1);
        // The gap fill releases the whole buffered run in order.
        let expect: Vec<u8> = (0..=SACK_SPAN as u8).collect();
        assert_eq!(recv(&mut b, &frames[0]), expect);
    }

    /// A stale SACK (reordered behind a newer cumulative ack) can leave
    /// every outstanding frame marked sacked. The timer must still probe
    /// with the head frame — silence would deadlock the channel, since the
    /// receiver only re-acks when poked.
    #[test]
    fn timer_probes_head_when_everything_is_sacked() {
        let (mut a, _) = pair(2);
        send(&mut a, dgram(1, 2, 0));
        send(&mut a, dgram(1, 2, 1));
        a.on_recv(&encoded(ack_frame(1, 0))).unwrap(); // retires seq 0
        a.on_recv(&encoded(ack_frame(0, 0b1))).unwrap(); // stale: marks seq 1 sacked
        assert!(!a.fully_acked());
        let probed: Vec<u64> = (0..2)
            .flat_map(|_| tick(&mut a))
            .map(|frame| data_header(&frame).0)
            .collect();
        assert_eq!(probed, vec![1], "head probe fires exactly once per timeout");
    }
}
