//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use dagger::nic::connmgr::{CmPort, ConnectionManager, ConnectionTuple};
use dagger::nic::reliable::ReliableConfig;
use dagger::nic::{ring, FaultPlan};
use dagger::rpc::frag::{fragment, Reassembler, MAX_RPC_PAYLOAD};
use dagger::rpc::{Wire, WireReader};
use dagger::sim::dist::Zipf;
use dagger::sim::Rng;
use dagger::telemetry::Histogram;
use dagger::types::{
    CacheLine, ConnectionId, FlowId, FnId, LbPolicy, NodeAddr, RpcHeader, RpcId, RpcKind,
    HEADER_BYTES,
};

mod common;
use common::{data_frame, decode_data, encoded, tagged_lines, ReliablePair};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ring: any interleaving of pushes and pops preserves FIFO order and
    /// never loses or duplicates an element.
    #[test]
    fn ring_matches_vecdeque_model(ops in prop::collection::vec(any::<bool>(), 1..400)) {
        let (mut tx, mut rx) = ring(16);
        let mut model = std::collections::VecDeque::new();
        let mut next = 0u8;
        for push in ops {
            if push {
                let mut line = CacheLine::zeroed();
                line.payload_mut()[0] = next;
                match tx.try_push(line) {
                    Ok(()) => model.push_back(next),
                    Err(_) => prop_assert_eq!(model.len(), 16),
                }
                next = next.wrapping_add(1);
            } else {
                let got = rx.try_pop().map(|l| l.payload()[0]);
                prop_assert_eq!(got, model.pop_front());
            }
        }
    }

    /// Header encode/decode is a bijection on valid headers.
    #[test]
    fn header_roundtrip(
        cid in any::<u32>(),
        rpc in any::<u32>(),
        f in 0u16..0xFFFE,
        flow in any::<u16>(),
        is_req in any::<bool>(),
        count in 1u8..=255,
        payload_len in 0u8..=48,
        traced in any::<bool>(),
    ) {
        let hdr = RpcHeader {
            connection_id: ConnectionId(cid),
            rpc_id: RpcId(rpc),
            fn_id: FnId(f),
            src_flow: FlowId(flow),
            kind: if is_req { RpcKind::Request } else { RpcKind::Response },
            frame_idx: count - 1,
            frame_count: count,
            frame_payload_len: payload_len,
            traced,
            offloaded: false,
        };
        let mut buf = [0u8; HEADER_BYTES];
        hdr.encode(&mut buf);
        prop_assert_eq!(RpcHeader::decode(&buf).unwrap(), hdr);
    }

    /// Fragmentation followed by reassembly is the identity for any payload
    /// up to the maximum, regardless of frame delivery order.
    #[test]
    fn fragment_reassemble_identity(
        payload in prop::collection::vec(any::<u8>(), 0..2_000),
        shuffle_seed in any::<u64>(),
    ) {
        let mut frames = fragment(
            ConnectionId(1), RpcId(9), FnId(3), FlowId(0), RpcKind::Request, &payload,
        ).unwrap();
        // Deterministic shuffle.
        let mut rng = Rng::new(shuffle_seed);
        for i in (1..frames.len()).rev() {
            frames.swap(i, rng.pick(i + 1));
        }
        let mut reassembler = Reassembler::new();
        let mut done = None;
        for frame in frames {
            if let Some(rpc) = reassembler.push(frame).unwrap() {
                done = Some(rpc);
            }
        }
        prop_assert_eq!(done.unwrap().payload, payload);
        prop_assert_eq!(reassembler.pending(), 0);
    }

    /// Oversized payloads are rejected, never truncated.
    #[test]
    fn fragment_rejects_oversize(extra in 1usize..1000) {
        let payload = vec![0u8; MAX_RPC_PAYLOAD + extra];
        prop_assert!(fragment(
            ConnectionId(1), RpcId(1), FnId(1), FlowId(0), RpcKind::Request, &payload,
        ).is_err());
    }

    /// Wire: tuples of heterogeneous fields roundtrip in order.
    #[test]
    fn wire_field_sequence_roundtrip(
        a in any::<u64>(),
        b in any::<i32>(),
        c in prop::collection::vec(any::<u8>(), 0..200),
        d in ".{0,40}",
        e in any::<bool>(),
    ) {
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        b.encode_into(&mut buf);
        c.encode_into(&mut buf);
        d.encode_into(&mut buf);
        e.encode_into(&mut buf);
        let mut r = WireReader::new(&buf);
        prop_assert_eq!(u64::decode_from(&mut r).unwrap(), a);
        prop_assert_eq!(i32::decode_from(&mut r).unwrap(), b);
        prop_assert_eq!(Vec::<u8>::decode_from(&mut r).unwrap(), c);
        prop_assert_eq!(String::decode_from(&mut r).unwrap(), d);
        prop_assert_eq!(bool::decode_from(&mut r).unwrap(), e);
        prop_assert!(r.finish().is_ok());
    }

    /// Wire decoding never panics on arbitrary bytes.
    #[test]
    fn wire_decode_total(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = u32::from_wire(&bytes);
        let _ = String::from_wire(&bytes);
        let _ = Vec::<u8>::from_wire(&bytes);
        let _ = <[u8; 16]>::from_wire(&bytes);
        let _ = bool::from_wire(&bytes);
    }

    /// Connection manager behaves like a map regardless of collisions.
    #[test]
    fn connmgr_matches_hashmap_model(
        ops in prop::collection::vec((any::<u8>(), any::<bool>()), 1..200),
    ) {
        let mut cm = ConnectionManager::new(8); // tiny cache → many spills
        let mut model = std::collections::HashMap::new();
        for (key, open) in ops {
            let cid = ConnectionId(u32::from(key % 32));
            if open {
                let tuple = ConnectionTuple {
                    src_flow: FlowId(u16::from(key)),
                    dest_addr: NodeAddr(u32::from(key) + 1),
                    lb: LbPolicy::Uniform,
                };
                let ours = cm.open(cid, tuple).is_ok();
                let model_new = !model.contains_key(&cid.raw());
                prop_assert_eq!(ours, model_new);
                if model_new {
                    model.insert(cid.raw(), tuple);
                }
            } else {
                let ours = cm.close(cid).is_ok();
                let model_had = model.remove(&cid.raw()).is_some();
                prop_assert_eq!(ours, model_had);
            }
            // Every open connection is reachable.
            for (&k, &v) in &model {
                prop_assert_eq!(cm.lookup(CmPort::Cm, ConnectionId(k)), Some(v));
            }
            prop_assert_eq!(cm.open_connections(), model.len());
        }
    }

    /// Zipf samples stay in range for arbitrary parameters.
    #[test]
    fn zipf_in_range(n in 1u64..1_000_000, skew in 0.05f64..2.0, seed in any::<u64>()) {
        let z = Zipf::new(n, skew);
        let mut rng = Rng::new(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Histogram percentiles are within the bucket error bound of exact
    /// order statistics and monotone in p.
    #[test]
    fn histogram_tracks_exact_percentiles(
        mut values in prop::collection::vec(1u64..10_000_000, 10..500),
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let mut last = 0;
        for p in [10.0, 50.0, 90.0, 99.0] {
            let approx = h.percentile(p);
            prop_assert!(approx >= last);
            last = approx;
            let rank = (((p / 100.0) * values.len() as f64).ceil() as usize).max(1) - 1;
            let exact = values[rank];
            let err = (approx as f64 - exact as f64).abs() / exact as f64;
            prop_assert!(err < 0.07, "p{}: approx {} vs exact {}", p, approx, exact);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), values[0]);
        prop_assert_eq!(h.max(), *values.last().unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Transport datagrams roundtrip for any line count/content.
    #[test]
    fn datagram_roundtrip(
        src in any::<u32>(),
        dst in any::<u32>(),
        lines in prop::collection::vec(prop::collection::vec(any::<u8>(), 64..=64), 0..16),
    ) {
        use dagger::nic::transport::Datagram;
        let lines: Vec<CacheLine> = lines
            .into_iter()
            .map(|raw| CacheLine::from_bytes(raw.try_into().unwrap()))
            .collect();
        let d = Datagram::new(NodeAddr(src), NodeAddr(dst), lines);
        prop_assert_eq!(Datagram::decode(&d.encode()).unwrap(), d);
    }

    /// Datagram decoding never panics on arbitrary bytes.
    #[test]
    fn datagram_decode_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        use dagger::nic::transport::Datagram;
        let _ = Datagram::decode(&bytes);
    }

    /// Reliable transport frames roundtrip and never panic on garbage.
    #[test]
    fn transport_frame_total(
        seq in any::<u64>(),
        ack in any::<u64>(),
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        use dagger::nic::transport::Datagram;
        let datagram = Datagram::new(NodeAddr(1), NodeAddr(2), vec![CacheLine::zeroed()]);
        let bytes = encoded(data_frame(seq, ack, &datagram));
        prop_assert_eq!(decode_data(&bytes).unwrap(), (seq, ack, 0, datagram));
        let _ = decode_data(&garbage);
    }

    /// A lossy link eventually delivers everything in order, for any loss
    /// pattern on the first transmissions.
    #[test]
    fn reliable_delivers_under_any_loss_pattern(
        drops in prop::collection::vec(any::<bool>(), 20),
    ) {
        let lines = tagged_lines(20);
        let cfg = ReliableConfig { retransmit_after_ticks: 1, window: 64 };
        let mut pair = ReliablePair::new(FaultPlan::seeded(0), cfg);
        pair.lose = drops;
        pair.run("loss-pattern", &lines, usize::MAX);
        prop_assert_eq!(pair.delivered, lines);
    }

    /// Exactly-once in-order delivery over a fabric running an arbitrary
    /// composed fault plan (drop + reorder + duplicate + corrupt + delay),
    /// and the receiver's stats reconcile with the injected faults.
    #[test]
    fn reliable_exactly_once_over_faulty_fabric(
        seed in any::<u64>(),
        drop in 0.0f64..0.35,
        reorder in 0.0f64..0.35,
        window in 1usize..8,
        duplicate in 0.0f64..0.35,
        corrupt in 0.0f64..0.25,
        delay in 0.0f64..0.25,
    ) {
        let plan = FaultPlan::seeded(seed)
            .with_drop(drop)
            .with_reorder(reorder, window)
            .with_duplicate(duplicate)
            .with_corrupt(corrupt)
            .with_delay(delay, 8);
        let lines = tagged_lines(25);
        let cfg = ReliableConfig { retransmit_after_ticks: 4, window: 64 };
        let mut pair = ReliablePair::new(plan, cfg);
        pair.run("faulty-fabric", &lines, usize::MAX);
        // Exactly-once, in order, nothing lost — despite the chaos.
        prop_assert_eq!(&pair.delivered, &lines);

        // Stats reconcile with the injected faults.
        let faults = pair.fabric.fault_stats();
        let (sa, sb) = pair.stats();
        // Only bit corruption makes frames undecodable.
        prop_assert!(sa.wire_drops + sb.wire_drops <= faults.corrupted);
        // Every discarded data frame is an extra arrival, and extra
        // arrivals only come from duplication or retransmission.
        prop_assert!(
            sb.out_of_order_drops + sb.duplicate_drops
                <= sa.retransmissions + faults.duplicated
        );
        // A faultless run discards nothing for gaps or corruption.
        if faults.total_injected() == 0 {
            prop_assert_eq!(sb.out_of_order_drops, 0);
            prop_assert_eq!(sa.wire_drops + sb.wire_drops, 0);
        }
    }

    /// `RpcHeader::decode` is total on arbitrary byte strings (truncations
    /// included): `Err`, never a panic.
    #[test]
    fn rpc_header_decode_total(bytes in prop::collection::vec(any::<u8>(), 0..40)) {
        let _ = RpcHeader::decode(&bytes);
    }

    /// A bit-flipped valid header either fails to decode or decodes to a
    /// header that still satisfies every field invariant — never panics,
    /// never yields out-of-range values that could crash reassembly.
    #[test]
    fn rpc_header_bit_flips_stay_valid(
        cid in any::<u32>(),
        rpc in any::<u32>(),
        f in 0u16..0xFFFE,
        count in 1u8..=255,
        bit in 0usize..(HEADER_BYTES * 8),
    ) {
        let hdr = RpcHeader {
            connection_id: ConnectionId(cid),
            rpc_id: RpcId(rpc),
            fn_id: FnId(f),
            src_flow: FlowId(0),
            kind: RpcKind::Request,
            frame_idx: 0,
            frame_count: count,
            frame_payload_len: 48,
            traced: false,
            offloaded: false,
        };
        let mut buf = [0u8; HEADER_BYTES];
        hdr.encode(&mut buf);
        buf[bit / 8] ^= 1 << (bit % 8);
        if let Ok(mangled) = RpcHeader::decode(&buf) {
            prop_assert!(mangled.frame_payload_len <= 48);
            prop_assert!(mangled.frame_count >= 1);
            prop_assert!(mangled.frame_idx < mangled.frame_count);
        }
    }

    /// The reassembler is total on arbitrary cache lines: garbage maps to
    /// `Err`, plausible-but-forged headers at worst open bounded partial
    /// state, and nothing panics.
    #[test]
    fn reassembler_total_on_arbitrary_frames(
        raw_lines in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 64..=64), 0..40,
        ),
    ) {
        let mut r = Reassembler::new();
        for raw in raw_lines {
            let line = CacheLine::from_bytes(raw.try_into().unwrap());
            let _ = r.push(line);
        }
        prop_assert!(r.pending() <= 40);
    }

    /// Bit-flipped fragment frames never panic the reassembler, and a
    /// clean copy of the RPC still reassembles afterwards.
    #[test]
    fn reassembler_survives_bit_flipped_frames(
        payload in prop::collection::vec(any::<u8>(), 49..400),
        bit in 0usize..512,
        frame_pick in any::<u64>(),
    ) {
        let frames = fragment(
            ConnectionId(3), RpcId(4), FnId(5), FlowId(0), RpcKind::Request, &payload,
        ).unwrap();
        let mut r = Reassembler::new();
        let mut mangled = frames[(frame_pick as usize) % frames.len()];
        let bytes = mangled.as_bytes_mut();
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let _ = r.push(mangled); // Err or bounded partial state; no panic.
        // A clean retransmission of the whole RPC still completes under a
        // fresh identity (the mangled frame may have poisoned the old one).
        let clean = fragment(
            ConnectionId(30), RpcId(40), FnId(5), FlowId(0), RpcKind::Request, &payload,
        ).unwrap();
        let mut done = None;
        for f in clean {
            done = r.push(f).unwrap();
        }
        prop_assert_eq!(done.unwrap().payload, payload);
    }

    /// A bit-flipped transport frame never decodes back to the original
    /// bytes' meaning silently changed: it is rejected (checksum) or — in
    /// the astronomically unlikely collision — differs from the original.
    #[test]
    fn transport_frame_bit_flips_detected(
        seq in any::<u64>(),
        ack in any::<u64>(),
        bit_seed in any::<u64>(),
    ) {
        use dagger::nic::transport::Datagram;
        let mut line = CacheLine::zeroed();
        line.as_bytes_mut()[20] = 0x5A;
        let datagram = Datagram::new(NodeAddr(1), NodeAddr(2), vec![line]);
        let mut bytes = encoded(data_frame(seq, ack, &datagram));
        let bit = (bit_seed as usize) % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        match decode_data(&bytes) {
            Err(_) => {} // caught — the common case
            Ok(decoded) => prop_assert_ne!(decoded, (seq, ack, 0, datagram)),
        }
    }

    /// Distributed tracing: a traced RPC's wire context survives
    /// fragmentation, an arbitrary loss pattern repaired by the reliable
    /// transport's retransmissions, and reassembly — and stripping it
    /// returns the original payload byte for byte.
    #[test]
    fn trace_context_survives_loss_and_reassembly(
        payload in prop::collection::vec(any::<u8>(), 0..300),
        drops in prop::collection::vec(any::<bool>(), 24),
        trace_id in any::<u64>(),
        span_id in any::<u64>(),
    ) {
        use dagger::rpc::frag::{fragment_into, message_header};
        use dagger::telemetry::TraceContext;

        let ctx = TraceContext { trace_id, span_id };
        let header = RpcHeader {
            traced: true,
            ..message_header(ConnectionId(7), RpcId(9), FnId(3), FlowId(0), RpcKind::Request)
        };
        let mut frames = Vec::new();
        fragment_into(&mut frames, header, &ctx.encode(), &payload).unwrap();

        let cfg = ReliableConfig { retransmit_after_ticks: 1, window: 64 };
        let mut pair = ReliablePair::new(FaultPlan::seeded(0), cfg);
        pair.lose = drops;
        pair.run("trace-context", &frames, usize::MAX);
        prop_assert_eq!(pair.delivered.len(), frames.len());

        let mut reasm = Reassembler::new();
        let mut done = None;
        for line in pair.delivered {
            done = reasm.push(line).unwrap();
        }
        let mut rpc = done.expect("reassembly completes after repair");
        prop_assert_eq!(rpc.take_trace_context(), Some(ctx));
        prop_assert_eq!(rpc.payload, payload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Zero-allocation datapath invariant: encoding into a reused (dirty)
    /// buffer — both the raw datagram and the sequenced reliable frame —
    /// produces bytes identical to a fresh-allocation encode, and the reused
    /// bytes still decode back to the original lines.
    #[test]
    fn pooled_encode_matches_fresh_encode(
        dgrams in prop::collection::vec(
            (
                any::<u32>(),
                any::<u32>(),
                prop::collection::vec(prop::collection::vec(any::<u8>(), 64), 1..8),
            ),
            1..8,
        ),
        seq in any::<u64>(),
        ack in any::<u64>(),
    ) {
        use dagger::nic::transport::Datagram;

        // One buffer reused across every encode, exactly as the engine's
        // pool hands buffers back out without scrubbing them.
        let mut reused = vec![0xAA; 7];
        let mut reused_frame = vec![0x55; 3];
        for (src, dst, line_bytes) in dgrams {
            let lines: Vec<CacheLine> = line_bytes
                .iter()
                .map(|bytes| {
                    let mut line = CacheLine::zeroed();
                    line.as_bytes_mut().copy_from_slice(bytes);
                    line
                })
                .collect();
            let dgram = Datagram::new(NodeAddr(src), NodeAddr(dst), lines.clone());

            let fresh = dgram.encode();
            dgram.encode_into(&mut reused);
            prop_assert_eq!(&fresh, &reused);

            let decoded = Datagram::decode(&reused).unwrap();
            prop_assert_eq!(decoded.src, NodeAddr(src));
            prop_assert_eq!(decoded.dst, NodeAddr(dst));
            prop_assert_eq!(decoded.lines, lines);

            // The sequenced reliable wrapper must agree with itself the same
            // way (its CRC is patched in place over the reused buffer).
            data_frame(seq, ack, &dgram).encode_into(&mut reused_frame);
            prop_assert_eq!(&encoded(data_frame(seq, ack, &dgram)), &reused_frame);
            prop_assert_eq!(decode_data(&reused_frame).unwrap(), (seq, ack, 0, dgram));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Multi-queue sharding: `queue_of_flow` stripes flows across queues —
    /// total, periodic in the queue count, and covering every queue when
    /// there are at least as many flows. A sender relies on the stripe to
    /// find the owner of the flow a response answers from the destination's
    /// queue count alone.
    #[test]
    fn queue_of_flow_partitions_flows(nf in 1usize..64, nq in 1usize..64) {
        use dagger::nic::queue_of_flow;
        let mut seen = std::collections::HashSet::new();
        for flow in 0..nf {
            let q = queue_of_flow(flow, nq);
            prop_assert!(q < nq);
            prop_assert_eq!(q, flow % nq, "ownership must be striped");
            prop_assert_eq!(queue_of_flow(flow + nq, nq), q, "stripe must repeat");
            seen.insert(q);
        }
        prop_assert_eq!(seen.len(), nq.min(nf), "every queue must own some flow");
    }

    /// RSS steering is deterministic and queue-affine for any connection
    /// tuple under every `LbPolicy`: the route tag depends only on the
    /// connection id (never on the LB policy, which steers server dispatch
    /// flows, not engine queues), and every request of the connection goes
    /// to queue `tag % nq` of its destination.
    #[test]
    fn steering_deterministic_and_queue_affine(
        cid in any::<u32>(),
        nq in 2u16..=16,
        rpc in any::<u32>(),
        policy_pick in 0usize..3,
    ) {
        use dagger::nic::engine::{conn_route_tag, route_queue};

        // The tag is a pure function of the connection id; the configured
        // LB policy must not perturb it.
        let _policy = [LbPolicy::Uniform, LbPolicy::Static, LbPolicy::ObjectLevel][policy_pick];
        let tag = conn_route_tag(ConnectionId(cid));
        prop_assert_eq!(tag, conn_route_tag(ConnectionId(cid)));

        let request = |rpc: u32, frame_idx: u8| RpcHeader {
            connection_id: ConnectionId(cid),
            rpc_id: RpcId(rpc),
            fn_id: FnId(1),
            src_flow: FlowId((rpc % 7) as u16),
            kind: RpcKind::Request,
            frame_idx,
            frame_count: 2,
            frame_payload_len: 8,
            traced: false,
            offloaded: false,
        };
        let nqs = usize::from(nq);
        let q = route_queue(&request(rpc, 0), nqs);
        prop_assert!(q < nq);
        prop_assert_eq!(u64::from(q), tag % u64::from(nq));
        // Another request, or a later frame, of the same connection goes to
        // the same queue.
        prop_assert_eq!(q, route_queue(&request(rpc.wrapping_add(1), 0), nqs));
        prop_assert_eq!(q, route_queue(&request(rpc, 1), nqs));
    }
}

// ---------------------------------------------------------------------------
// On-NIC offload stage (DESIGN.md §18): NIC-side serde tables and the
// hot-key response cache's coherence protocol.

dagger::idl::dagger_message! {
    /// Mixed-layout message exercising every serde-op class the tables
    /// support: fixed scalars, a fixed array, and two var-width fields.
    pub struct OffloadProbe {
        tag: u32,
        key: Vec<u8>,
        stamp: [u8; 4],
        note: String,
        flag: bool,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// NIC-side serde is byte-identical to host serde: for arbitrary IDL
    /// values, the generated table accepts exactly the host encoding,
    /// splits it into the declared fields, and re-encoding those splits
    /// reproduces the host bytes bit for bit.
    #[test]
    fn serde_table_matches_host_serde(
        tag in any::<u32>(),
        key in prop::collection::vec(any::<u8>(), 0..24),
        stamp_seed in any::<u32>(),
        note in ".{0,16}",
        flag in any::<bool>(),
    ) {
        let msg = OffloadProbe { tag, key, stamp: stamp_seed.to_le_bytes(), note, flag };
        let host_bytes = msg.to_wire();
        let table = OffloadProbe::serde_table().expect("flat message");

        // The table accepts the host encoding exactly, and rejects any
        // truncation of it.
        prop_assert!(table.validate(&host_bytes));
        if !host_bytes.is_empty() {
            prop_assert!(!table.validate(&host_bytes[..host_bytes.len() - 1]));
        }

        // Zero-copy field extraction + table re-encode == host encode.
        let parts: Vec<&[u8]> = (0..table.num_fields())
            .map(|i| {
                let range = table.field_range(&host_bytes, i).expect("validated");
                &host_bytes[range]
            })
            .collect();
        prop_assert_eq!(table.encode_parts(&parts), host_bytes.clone());

        // And the key field the cache would hash is the exact field bytes.
        let key_range = table.field_range(&host_bytes, 1).expect("key field");
        prop_assert_eq!(&host_bytes[key_range], msg.key.as_slice());

        // Host decode of the table-reassembled bytes is the original value.
        prop_assert_eq!(OffloadProbe::from_wire(&host_bytes).unwrap(), msg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Coherence of bump-and-remove invalidation: a cache hit never
    /// returns a value older than the last *acknowledged* SET of its key —
    /// even when the host store answers in-flight GETs with adversarially
    /// stale versions (any version the store could legally have held while
    /// the GET was in flight). GETs arrive on either of two queues' caches,
    /// and keys 0 and 2 share a generation slot.
    ///
    /// Each scripted step is `(op, key, pick)`: op 0–3 = GET arrives (on
    /// queue `pick & 1`), 4–5 = SET arrives (RX invalidation), 6 = blind
    /// SET (epoch flush), 7–9 = the host serves an outstanding GET of `key`
    /// with version `pick` (adversarial), 10–11 = the oldest outstanding
    /// SET acks (TX invalidation). Blind SETs are the rarest step: each one
    /// empties the cache, and a script needs hits to test anything.
    #[test]
    fn cache_hit_is_never_older_than_last_acked_set(
        ops in prop::collection::vec((0u8..12, 0usize..3, any::<u8>()), 1..120),
    ) {
        use dagger::nic::lb::fnv1a;
        use dagger::nic::offload::GEN_SLOTS;
        use dagger::nic::OffloadState;
        use dagger::types::{CacheClass, FnOffload, OffloadSpec, SerdeOp, SerdeTable};

        let slot = |key: &[u8]| fnv1a(key) as usize & (GEN_SLOTS - 1);
        let collider = (2u32..)
            .map(|i| i.to_le_bytes().to_vec())
            .find(|k| slot(k) == slot(&[0]))
            .unwrap();
        let keys = [vec![0u8], vec![1u8], collider];
        let state = OffloadState::new(2);
        state.configure(OffloadSpec::new(vec![FnOffload {
            fn_id: FnId(1),
            class: CacheClass::read(0),
            req_table: SerdeTable::new(vec![SerdeOp::Var]),
            resp_table: SerdeTable::new(vec![SerdeOp::Fixed(8)]),
        }]));
        const CAP: usize = 4;

        // Per-key write history. Version v's response payload is the
        // version index itself, so a hit identifies which write it
        // reflects (version 0 = initial state). A blind SET may touch any
        // key, so it pessimistically mints a new version of every key.
        // `versions[k]` counts minted versions; `acked[k]` is the highest
        // acknowledged one.
        let mut versions = [1u64, 1, 1];
        let mut acked = [0u64, 0, 0];
        let mut reads: std::collections::VecDeque<(usize, u32, u64)> =
            std::collections::VecDeque::new();
        let mut writes: std::collections::VecDeque<(u32, [Option<u64>; 3])> =
            std::collections::VecDeque::new();
        let mut next_rpc = 0u32;
        let payload_of = |v: u64| {
            let mut p = vec![0u8; 9];
            p[1..].copy_from_slice(&v.to_le_bytes());
            p
        };

        for (op, k, pick) in ops {
            match op {
                0..=3 => {
                    next_rpc += 1;
                    let queue = usize::from(pick & 1);
                    match state.on_read_rx(queue, FnId(1), ConnectionId(1), RpcId(next_rpc), &keys[k], CAP) {
                        Some(hit) => {
                            prop_assert_eq!(hit.len(), 9, "cached payload shape");
                            let v = u64::from_le_bytes(hit[1..].try_into().unwrap());
                            prop_assert!(
                                v >= acked[k],
                                "stale hit: version {} < last acked {} (key {})",
                                v, acked[k], k
                            );
                            prop_assert!(v < versions[k], "hit from the future");
                        }
                        // A miss goes to the host; remember the acked
                        // floor at arrival — the host cannot legally answer
                        // with anything older.
                        None => reads.push_back((k, next_rpc, acked[k])),
                    }
                }
                4 | 5 => {
                    next_rpc += 1;
                    state.on_write_rx(ConnectionId(1), RpcId(next_rpc), Some(&keys[k]));
                    let mut minted = [None, None, None];
                    minted[k] = Some(versions[k]);
                    versions[k] += 1;
                    writes.push_back((next_rpc, minted));
                }
                6 => {
                    next_rpc += 1;
                    state.on_write_rx(ConnectionId(1), RpcId(next_rpc), None);
                    let minted = [Some(versions[0]), Some(versions[1]), Some(versions[2])];
                    for v in &mut versions {
                        *v += 1;
                    }
                    writes.push_back((next_rpc, minted));
                }
                7..=9 => {
                    // Answer the oldest outstanding GET of key `k` with an
                    // adversarially chosen version: anything the host could
                    // legally have held while the GET was in flight, i.e.
                    // between the acked floor at arrival and the newest
                    // minted version. The cache protocol, not the store's
                    // timing, must protect acked writes.
                    if let Some(pos) = reads.iter().position(|(rk, _, _)| *rk == k) {
                        let (_, rpc, floor) = reads.remove(pos).unwrap();
                        let v = floor + u64::from(pick) % (versions[k] - floor);
                        state.on_response_tx(
                            ConnectionId(1),
                            RpcId(rpc),
                            0,
                            1,
                            &payload_of(v),
                            CAP,
                        );
                    }
                }
                _ => {
                    if let Some((rpc, minted)) = writes.pop_front() {
                        state.on_response_tx(ConnectionId(1), RpcId(rpc), 0, 1, &[0], CAP);
                        for (a, m) in acked.iter_mut().zip(minted) {
                            if let Some(v) = m {
                                *a = (*a).max(v);
                            }
                        }
                    }
                }
            }
        }
    }
}
