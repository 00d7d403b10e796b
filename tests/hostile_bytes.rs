//! One hostile-bytes suite over the one cursor.
//!
//! Every decoder a remote party can reach — the packet parser, the "GB"
//! container, the stats snapshot, the admin verb and the call frame —
//! reads through `gred_dataplane::Cursor`. This suite feeds each of
//! them arbitrary bytes and every truncation and single-byte mutation
//! of valid encodings, and holds all five to the same three rules:
//!
//! - never panic,
//! - never ask the allocator for more than a small multiple of the
//!   bytes received (a count field is the sender's claim, not a size),
//! - whatever decodes `Ok` re-encodes to exactly the bytes consumed —
//!   no input is silently reinterpreted.
//!
//! Four golden vectors, captured from the encoders before the decoders
//! moved onto the cursor, pin the formats themselves; a fifth pins the
//! one header field added since, a retrieval's sharer id.
//!
//! Repro: `cargo test -p gred-cluster --test hostile_bytes`

use bytes::Bytes;
use gred_cluster::frame::{read_call, write_call, Body};
use gred_dataplane::{
    wire, AdminOp, DecodeError, LinkStats, NodeHotStats, Packet, PacketKind, ResponseStatus,
    StatsSnapshot,
};
use gred_geometry::Point2;
use gred_hash::DataId;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, recording the largest single request each
/// thread makes (tests run on parallel threads; a shared high-water
/// mark would mix them up).
struct Watching;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches a
// const-initialised thread-local `Cell<usize>` only, which neither
// allocates nor has a destructor.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// Runs `f` and returns its result with the largest single allocation
/// it requested on this thread.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// A decoder under test: the name failures report it by, and a function
/// that decodes the bytes and, when that succeeds, encodes the value
/// again.
type Named = (&'static str, fn(&[u8]) -> Result<Vec<u8>, DecodeError>);

const PACKET: Named = ("wire::parse_bytes", |bytes| {
    wire::parse_bytes(&Bytes::copy_from_slice(bytes)).map(|packet| wire::encode(&packet))
});
const BATCH: Named = ("wire::parse_batch_bytes", |bytes| {
    wire::parse_batch_bytes(&Bytes::copy_from_slice(bytes)).map(|packets| {
        let mut out = Vec::new();
        wire::encode_batch_into(&packets, &mut out);
        out
    })
});
const SNAPSHOT: Named = ("StatsSnapshot::decode", |bytes| {
    StatsSnapshot::decode(bytes).map(|snapshot| snapshot.encode())
});
const ADMIN: Named = ("AdminOp::decode", |bytes| {
    AdminOp::decode(bytes).map(|op| op.encode())
});
const CALL: Named = ("frame::read_call", |bytes| {
    read_call(&Bytes::copy_from_slice(bytes)).map(|(corr, body)| {
        let batch = body.is_batch();
        let mut out = Vec::new();
        write_call(&mut out, corr, &body.into_vec(), batch);
        out.split_off(4) // the length prefix belongs to the framing
    })
});
const CODECS: [Named; 5] = [PACKET, BATCH, SNAPSHOT, ADMIN, CALL];

/// Holds one decoder to the suite's rules on one input.
fn check((name, codec): Named, bytes: &[u8]) -> Result<(), DecodeError> {
    let (outcome, largest) = largest_allocation(|| codec(bytes));
    // The most a decoder may reserve is room for the values the input
    // can actually hold; the in-memory `Packet` (≈ 3.6 × its 31-byte
    // minimum on the wire) is the largest of them.
    assert!(
        largest <= 4 * bytes.len() + 256,
        "{name} asked for {largest} bytes at once on a {}-byte input",
        bytes.len()
    );
    let reencoded = outcome?;
    assert_eq!(
        reencoded, bytes,
        "{name} accepted bytes that do not re-encode to themselves"
    );
    Ok(())
}

/// Every truncation and, at every offset, one single-byte mutation of
/// a valid encoding.
fn torture(codec: Named, valid: &[u8], flip: u8) {
    check(codec, valid).unwrap_or_else(|e| panic!("{} refused a valid encoding: {e}", codec.0));
    let mut bytes = valid.to_vec();
    for (at, &original) in valid.iter().enumerate() {
        let _ = check(codec, &valid[..at]);
        bytes[at] = original ^ flip;
        let _ = check(codec, &bytes);
        bytes[at] = original;
    }
}

/// Raw material for one packet: id, payload, kind, relay header,
/// status and hop count.
type PacketSpec = (Vec<u8>, Vec<u8>, u8, Option<(usize, usize, usize)>, u8, u16);

fn packet_of(spec: PacketSpec) -> Packet {
    let (id, payload, kind, relay, status, hops) = spec;
    let id = DataId::from_bytes(id);
    let mut packet = match kind {
        0 | 6 => Packet::placement(id, payload),
        1 | 4 => Packet::retrieval(id),
        3 => Packet::invalidate(id),
        _ => Packet::response(id, payload),
    };
    // The observability opcodes share the data kinds' payload shapes.
    packet.kind = [
        PacketKind::Placement,
        PacketKind::Retrieval,
        PacketKind::RetrievalResponse,
        PacketKind::Invalidate,
        PacketKind::Stats,
        PacketKind::StatsResponse,
        PacketKind::Admin,
        PacketKind::AdminResponse,
    ][usize::from(kind)];
    if let Some((sour, relay, dest)) = relay {
        packet = packet.with_relay(sour, relay, dest);
    }
    if packet.kind.is_response() {
        packet.status = [
            ResponseStatus::Ok,
            ResponseStatus::NotFound,
            ResponseStatus::Error,
            ResponseStatus::Redirect,
            ResponseStatus::Degraded,
        ][usize::from(status % 5)];
    }
    packet.hops = hops;
    packet.detours = hops.rotate_left(5);
    packet
}

fn golden_packet() -> Packet {
    let mut packet = Packet::response(DataId::new("cam/7"), b"frame".as_ref()).with_relay(3, 7, 12);
    packet.position = Point2::new(0.25, 0.75);
    packet.status = ResponseStatus::Degraded;
    packet.hops = 5;
    packet.detours = 2;
    packet
}

fn golden_sharer_retrieval() -> Packet {
    let mut packet = Packet::retrieval(DataId::new("cam/7")).with_relay(3, 7, 12);
    packet.position = Point2::new(0.25, 0.75);
    packet.hops = 1;
    packet.sharer = Some(4);
    packet
}

fn golden_batch() -> Vec<Packet> {
    let mut a = Packet::placement(DataId::new("a"), b"one".as_ref());
    a.position = Point2::new(0.5, 0.125);
    let mut b = Packet::retrieval(DataId::new("bb"));
    b.position = Point2::new(1.0, 0.0);
    b.hops = 1;
    vec![a, b]
}

fn golden_snapshot() -> StatsSnapshot {
    StatsSnapshot {
        switch: 7,
        uptime_ms: 123_456,
        requests: 1000,
        forwarded: 400,
        relayed: 25,
        delivered: 575,
        errors: 3,
        stored_items: 88,
        open_connections: 9,
        queued_bytes: 4096,
        dispatch_workers: 2,
        table_rows: 14,
        hot: NodeHotStats {
            oneshot_fallbacks: 1,
            link_reconnects: 2,
            store_shard_contention: 3,
            frames_decoded: 4,
            encode_buf_reuses: 5,
            peers_suspected: 6,
            detour_forwards: 7,
            redirects_issued: 8,
            cache_hits: 9,
            cache_misses: 10,
            cache_evictions: 11,
            invalidations_rx: 12,
        },
        links: vec![
            LinkStats {
                peer: 3,
                connected: true,
                suspect_ms_left: 0,
                reconnects: 2,
            },
            LinkStats {
                peer: 11,
                connected: false,
                suspect_ms_left: 240,
                reconnects: 0,
            },
        ],
    }
}

fn golden_join() -> AdminOp {
    AdminOp::Join {
        neighbors: vec![0, 2, 5],
        capacities: vec![10_000, 20_000],
    }
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
        .collect()
}

const GOLDEN_PACKET: &str = "\
    475201110200053fd00000000000003fe8000000000000000500020000000c00\
    0000030000000763616d2f376672616d65";
const GOLDEN_SHARER_RETRIEVAL: &str = "\
    475201210100053fd00000000000003fe8000000000000000100000000000c00\
    000003000000070000000463616d2f37";
const GOLDEN_BATCH: &str = "\
    47420100020000001f475201000000013fe00000000000003fc0000000000000\
    00000000616f6e650000001d475201000100023ff00000000000000000000000\
    000000000100006262";
const GOLDEN_SNAPSHOT: &str = "\
    0100000007000000000001e24000000000000003e80000000000000190000000\
    0000000019000000000000023f00000000000000030000000000000058000000\
    09000000000000100000000002000000000000000e0000000000000001000000\
    0000000002000000000000000300000000000000040000000000000005000000\
    0000000006000000000000000700000000000000080000000000000009000000\
    000000000a000000000000000b000000000000000c0002000000030100000000\
    0000000000000000000000020000000b0000000000000000f000000000000000\
    00";
const GOLDEN_JOIN: &str = "\
    0104000300000000000000020000000500020000000000002710000000000000\
    4e20";

#[test]
fn golden_vectors_pin_the_four_formats() {
    let packet = unhex(GOLDEN_PACKET);
    assert_eq!(wire::encode(&golden_packet()), packet);
    assert_eq!(wire::parse(&packet), Ok(golden_packet()));

    let batch = unhex(GOLDEN_BATCH);
    let mut out = Vec::new();
    wire::encode_batch_into(&golden_batch(), &mut out);
    assert_eq!(out, batch);
    assert_eq!(wire::parse_batch_bytes(&batch.into()), Ok(golden_batch()));

    let snapshot = unhex(GOLDEN_SNAPSHOT);
    assert_eq!(golden_snapshot().encode(), snapshot);
    assert_eq!(StatsSnapshot::decode(&snapshot), Ok(golden_snapshot()));

    let join = unhex(GOLDEN_JOIN);
    assert_eq!(golden_join().encode(), join);
    assert_eq!(AdminOp::decode(&join), Ok(golden_join()));
}

#[test]
fn golden_sharer_retrieval_pins_the_flag_and_its_kind() {
    let bytes = unhex(GOLDEN_SHARER_RETRIEVAL);
    assert_eq!(wire::encode(&golden_sharer_retrieval()), bytes);
    assert_eq!(wire::parse(&bytes), Ok(golden_sharer_retrieval()));
    // The same bytes under any other kind are refused, not reread.
    for kind in [0, 2, 3, 4, 5, 6, 7] {
        let mut other = bytes.clone();
        other[4] = kind;
        assert_eq!(wire::parse(&other), Err(DecodeError::UnknownFlags(0x21)));
    }
}

#[test]
fn a_count_field_never_sizes_an_allocation() {
    // Five bytes claiming 65,535 packets: ≈ 7 MB of `Packet`s reserved
    // before the first length check, once.
    let claim = b"GB\x01\xff\xff";
    assert_eq!(
        check(BATCH, claim),
        Err(DecodeError::Truncated { needed: 9, have: 5 })
    );
    // The same claim in a snapshot's link count and a join's two lists.
    let mut snapshot = StatsSnapshot::default().encode();
    let at = snapshot.len() - 2;
    snapshot[at..].copy_from_slice(&[0xff, 0xff]);
    assert!(matches!(
        check(SNAPSHOT, &snapshot),
        Err(DecodeError::Truncated { .. })
    ));
    for join in [&[1, 4, 0xff, 0xff][..], &[1, 4, 0, 0, 0xff, 0xff][..]] {
        assert!(matches!(
            check(ADMIN, join),
            Err(DecodeError::Truncated { .. })
        ));
    }
}

#[test]
fn every_truncation_and_mutation_of_the_golden_vectors_is_handled() {
    for flip in [0x01, 0x80, 0xff] {
        torture(PACKET, &unhex(GOLDEN_PACKET), flip);
        torture(PACKET, &unhex(GOLDEN_SHARER_RETRIEVAL), flip);
        torture(BATCH, &unhex(GOLDEN_BATCH), flip);
        torture(SNAPSHOT, &unhex(GOLDEN_SNAPSHOT), flip);
        torture(ADMIN, &unhex(GOLDEN_JOIN), flip);
        for (packets, batch) in [(vec![golden_packet()], false), (golden_batch(), true)] {
            let mut call = Vec::new();
            write_call(&mut call, 0x0102_0304_0506_0708, &packets, batch);
            torture(CALL, &call[4..], flip);
        }
    }
}

proptest! {
    /// (a) Arbitrary bytes, through every decoder. A prefix that makes
    /// the input look like each format gets it past the magic checks
    /// often enough to reach the length and count fields.
    #[test]
    fn prop_arbitrary_bytes_never_panic_or_balloon(
        bytes in proptest::collection::vec(any::<u8>(), 0..192),
        corr in any::<u64>(),
    ) {
        for codec in CODECS {
            let _ = check(codec, &bytes);
        }
        for prefix in [&b"GR\x01"[..], b"GB\x01", b"\x01", b"\x01\x04"] {
            let dressed = [prefix, &bytes].concat();
            for codec in CODECS {
                let _ = check(codec, &dressed);
            }
            let call = [&corr.to_be_bytes()[..], &dressed].concat();
            let _ = check(CALL, &call);
        }
    }

    /// (b) Every truncation and a single-byte mutation at every offset
    /// of valid encodings of drawn values.
    #[test]
    fn prop_truncated_and_mutated_encodings_are_handled(
        specs in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..12),
             proptest::collection::vec(any::<u8>(), 0..24),
             0u8..8,
             proptest::option::of((0usize..1000, 0usize..1000, 0usize..1000)),
             any::<u8>(),
             any::<u16>()),
            1..4,
        ),
        counters in proptest::collection::vec(any::<u64>(), 24),
        links in proptest::collection::vec(
            (any::<u32>(), any::<bool>(), any::<u64>(), any::<u64>()), 0..4),
        neighbors in proptest::collection::vec(any::<u32>(), 0..6),
        tag in 0u8..6,
        flip in 1u8..=255,
    ) {
        let packets: Vec<Packet> = specs.into_iter().map(packet_of).collect();
        torture(PACKET, &wire::encode(&packets[0]), flip);
        let mut batch = Vec::new();
        wire::encode_batch_into(&packets, &mut batch);
        torture(BATCH, &batch, flip);

        let c = &counters;
        let snapshot = StatsSnapshot {
            switch: c[0] as u32,
            uptime_ms: c[1],
            requests: c[2],
            forwarded: c[3],
            relayed: c[4],
            delivered: c[5],
            errors: c[6],
            stored_items: c[7],
            open_connections: c[8] as u32,
            queued_bytes: c[9],
            dispatch_workers: c[10] as u32,
            table_rows: c[11],
            hot: NodeHotStats {
                oneshot_fallbacks: c[12],
                link_reconnects: c[13],
                store_shard_contention: c[14],
                frames_decoded: c[15],
                encode_buf_reuses: c[16],
                peers_suspected: c[17],
                detour_forwards: c[18],
                redirects_issued: c[19],
                cache_hits: c[20],
                cache_misses: c[21],
                cache_evictions: c[22],
                invalidations_rx: c[23],
            },
            links: links
                .iter()
                .map(|&(peer, connected, suspect_ms_left, reconnects)| LinkStats {
                    peer,
                    connected,
                    suspect_ms_left,
                    reconnects,
                })
                .collect(),
        };
        torture(SNAPSHOT, &snapshot.encode(), flip);

        let switch = c[0] as u32;
        let op = match tag {
            0 => AdminOp::Ping,
            1 => AdminOp::Crash { switch },
            2 => AdminOp::Restart { switch },
            3 => AdminOp::Drain,
            4 => AdminOp::Join { neighbors, capacities: c[..3].to_vec() },
            _ => AdminOp::Leave { switch },
        };
        torture(ADMIN, &op.encode(), flip);

        for (packets, batch) in [(&packets[..1], false), (&packets[..], true)] {
            let mut call = Vec::new();
            write_call(&mut call, c[1], packets, batch);
            torture(CALL, &call[4..], flip);
            prop_assert_eq!(
                read_call(&Bytes::copy_from_slice(&call[4..])).map(|(_, body)| body),
                Ok(if batch { Body::Many(packets.to_vec()) } else { Body::One(packets[0].clone()) })
            );
        }
    }
}
