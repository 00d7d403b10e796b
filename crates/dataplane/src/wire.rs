//! The GRED packet wire format and its programmable parser.
//!
//! The paper's P4 switch "supports a programmable parser to allow new
//! headers to be defined". This module defines the custom GRED header the
//! prototype parses and reproduces that parser: a byte-level encoding of
//! [`Packet`] with a fixed header, an optional virtual-link relay header
//! (present iff the RELAY flag is set), an optional sharer id (present
//! iff the SHARER flag is set), and the payload.
//!
//! ```text
//!  0       1       2       3       4
//!  +-------+-------+-------+-------+
//!  | magic "GR"    | ver=1 | flags |     flags: bit0 = relay present
//!  +-------+-------+-------+-------+            bit1 = status not-found
//!  | kind  |      id_len (u16)     |            bit2 = status error
//!  +-------+-------+-------+-------+            bit3 = status redirect
//!  |        pos_x  (f64 be)        |            bit4 = status degraded
//!  |        pos_y  (f64 be)        |            bit5 = sharer present
//!  +---------------+---------------+            bit6 = cacheable anywhere
//!  | hops (u16 be) | detours (u16) |            bit7 = cacheable if pristine
//!  +---------------+---------------+     kind: 0 place, 1 retrieve,
//!                                              2 response, 3 invalidate,
//!                                              4 stats, 5 stats-resp,
//!                                              6 admin, 7 admin-resp
//!  | [relay: dest, sour, relay as u32 be each — iff flag bit0]
//!  | [sharer: access switch id, u32 be — iff flag bit5]
//!  +-------------------------------+
//!  | id bytes (id_len)             |
//!  | payload (rest of the packet)  |
//!  +-------------------------------+
//! ```
//!
//! The status bits (1–4) are mutually exclusive and only valid on
//! response packets — they let a remote client distinguish a hit from a
//! miss (`NotFound`), from a server-side failure (`Error`), from a
//! routing abort on suspect peers (`Redirect`), and from a served-but-
//! detoured delivery (`Degraded`); requests always travel with all
//! status bits clear.
//!
//! Flag bit 5 is valid only on a retrieval: it carries the access switch
//! that will cache the answer, so the owner learns who holds a copy.
//! Bits 6 and 7 are mutually exclusive and valid only on a retrieval
//! response: they say which caches may keep it ([`Cacheable`]). A packet
//! without any of them encodes exactly as it did before they existed.
//!
//! Both parsers read through the crate's one bounds-checked [`Cursor`]
//! and fail with its [`DecodeError`]; a count field is the sender's
//! claim and never sizes an allocation beyond what the bytes can hold.

use crate::cursor::{Cursor, DecodeError};
use crate::packet::{Cacheable, Packet, PacketKind, RelayHeader, ResponseStatus};
use bytes::Bytes;
use gred_geometry::Point2;
use gred_hash::DataId;

/// Wire magic: ASCII "GR".
const MAGIC: [u8; 2] = *b"GR";
/// Batch-container magic: ASCII "GB". Distinguishable from a single
/// packet at byte 1 (`'B'` vs `'R'`), so a node can sniff which form a
/// frame body carries without a separate negotiation.
const BATCH_MAGIC: [u8; 2] = *b"GB";
/// Current header version.
const VERSION: u8 = 1;
/// Flag bit: a relay header follows the fixed header.
const FLAG_RELAY: u8 = 0b0000_0001;
/// Flag bit: response status `NotFound`.
const FLAG_NOT_FOUND: u8 = 0b0000_0010;
/// Flag bit: response status `Error`.
const FLAG_ERROR: u8 = 0b0000_0100;
/// Flag bit: response status `Redirect` (routing aborted on suspects).
const FLAG_REDIRECT: u8 = 0b0000_1000;
/// Flag bit: response status `Degraded` (served via a detour).
const FLAG_DEGRADED: u8 = 0b0001_0000;
/// Flag bit: a sharer id follows the relay header (retrievals only).
const FLAG_SHARER: u8 = 0b0010_0000;
/// Flag bit: [`Cacheable::Anywhere`] (retrieval responses only).
const FLAG_ANYWHERE: u8 = 0b0100_0000;
/// Flag bit: [`Cacheable::WhenPristine`] (retrieval responses only).
const FLAG_PRISTINE: u8 = 0b1000_0000;
/// Every status flag bit (mutually exclusive on the wire).
const STATUS_FLAGS: u8 = FLAG_NOT_FOUND | FLAG_ERROR | FLAG_REDIRECT | FLAG_DEGRADED;
/// Both cacheability flag bits (mutually exclusive on the wire).
const CACHEABLE_FLAGS: u8 = FLAG_ANYWHERE | FLAG_PRISTINE;

fn kind_to_wire(kind: PacketKind) -> u8 {
    match kind {
        PacketKind::Placement => 0,
        PacketKind::Retrieval => 1,
        PacketKind::RetrievalResponse => 2,
        PacketKind::Invalidate => 3,
        PacketKind::Stats => 4,
        PacketKind::StatsResponse => 5,
        PacketKind::Admin => 6,
        PacketKind::AdminResponse => 7,
    }
}

fn kind_from_wire(b: u8) -> Result<PacketKind, DecodeError> {
    match b {
        0 => Ok(PacketKind::Placement),
        1 => Ok(PacketKind::Retrieval),
        2 => Ok(PacketKind::RetrievalResponse),
        3 => Ok(PacketKind::Invalidate),
        4 => Ok(PacketKind::Stats),
        5 => Ok(PacketKind::StatsResponse),
        6 => Ok(PacketKind::Admin),
        7 => Ok(PacketKind::AdminResponse),
        other => Err(DecodeError::BadKind(other)),
    }
}

/// Serializes a packet to its wire representation.
///
/// # Panics
///
/// Panics if the data identifier exceeds 65535 bytes (the header's u16
/// length field); GRED identifiers are short names.
pub fn encode(packet: &Packet) -> Vec<u8> {
    let id_bytes = packet.id.as_bytes();
    let headers =
        12 * usize::from(packet.relay.is_some()) + 4 * usize::from(packet.sharer.is_some());
    let mut out = Vec::with_capacity(29 + headers + id_bytes.len() + packet.payload.len());
    encode_into(packet, &mut out);
    out
}

/// Serializes a packet by appending to `out`, so callers on the hot
/// path can reuse one encode buffer across packets instead of
/// allocating a fresh `Vec` per send. `out` is *not* cleared — the
/// cluster layer appends a frame prefix first, then the packet.
///
/// # Panics
///
/// Panics if the data identifier exceeds 65535 bytes (the header's u16
/// length field); GRED identifiers are short names.
pub fn encode_into(packet: &Packet, out: &mut Vec<u8>) {
    let id_bytes = packet.id.as_bytes();
    assert!(
        id_bytes.len() <= u16::MAX as usize,
        "identifier too long for wire format"
    );

    let mut flags = 0u8;
    if packet.relay.is_some() {
        flags |= FLAG_RELAY;
    }
    if packet.sharer.is_some() {
        flags |= FLAG_SHARER;
    }
    match packet.cacheable {
        Cacheable::BySharer => {}
        Cacheable::Anywhere => flags |= FLAG_ANYWHERE,
        Cacheable::WhenPristine => flags |= FLAG_PRISTINE,
    }
    match packet.status {
        ResponseStatus::Ok => {}
        ResponseStatus::NotFound => flags |= FLAG_NOT_FOUND,
        ResponseStatus::Error => flags |= FLAG_ERROR,
        ResponseStatus::Redirect => flags |= FLAG_REDIRECT,
        ResponseStatus::Degraded => flags |= FLAG_DEGRADED,
    }

    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(flags);
    out.push(kind_to_wire(packet.kind));
    out.extend_from_slice(&(id_bytes.len() as u16).to_be_bytes());
    out.extend_from_slice(&packet.position.x.to_be_bytes());
    out.extend_from_slice(&packet.position.y.to_be_bytes());
    out.extend_from_slice(&packet.hops.to_be_bytes());
    out.extend_from_slice(&packet.detours.to_be_bytes());
    if let Some(relay) = packet.relay {
        out.extend_from_slice(&(relay.dest as u32).to_be_bytes());
        out.extend_from_slice(&(relay.sour as u32).to_be_bytes());
        out.extend_from_slice(&(relay.relay as u32).to_be_bytes());
    }
    if let Some(sharer) = packet.sharer {
        out.extend_from_slice(&(sharer as u32).to_be_bytes());
    }
    out.extend_from_slice(id_bytes);
    out.extend_from_slice(&packet.payload);
}

/// Parses a wire packet from a plain slice, copying it first — the
/// convenience form of [`parse_bytes`] for callers that hold no
/// [`Bytes`].
///
/// # Errors
///
/// Same conditions as [`parse_bytes`].
pub fn parse(bytes: &[u8]) -> Result<Packet, DecodeError> {
    parse_bytes(&Bytes::copy_from_slice(bytes))
}

/// Bytes of the fixed header: magic through the detour counter.
const FIXED: usize = 2 + 1 + 1 + 1 + 2 + 8 + 8 + 2 + 2;

/// Parses a wire packet — the software equivalent of the P4 programmable
/// parser. The payload is sliced out of `body` with **no copy**: every
/// later holder of it (a forwarded packet, a response) shares the frame
/// body's allocation.
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated, malformed, or unsupported
/// packets.
pub fn parse_bytes(body: &Bytes) -> Result<Packet, DecodeError> {
    let mut r = Cursor::new(body);
    // The fixed header is checked for length as a whole, so a short
    // input is `Truncated` whatever its first bytes are.
    let mut fixed = Cursor::new(r.take(FIXED)?);
    if fixed.take(2)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = fixed.u8()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let flags = fixed.u8()?;
    let wire_kind = fixed.u8()?;
    let kind = kind_from_wire(wire_kind)?;
    // The cache bits ride only on the kind they are for.
    if (flags & FLAG_SHARER != 0 && kind != PacketKind::Retrieval)
        || (flags & CACHEABLE_FLAGS != 0 && kind != PacketKind::RetrievalResponse)
    {
        return Err(DecodeError::UnknownFlags(flags));
    }
    let cacheable = match flags & CACHEABLE_FLAGS {
        0 => Cacheable::BySharer,
        FLAG_ANYWHERE => Cacheable::Anywhere,
        FLAG_PRISTINE => Cacheable::WhenPristine,
        _ => return Err(DecodeError::UnknownFlags(flags)),
    };
    let bad_status = DecodeError::BadStatus {
        flags,
        kind: wire_kind,
    };
    let status = match flags & STATUS_FLAGS {
        0 => ResponseStatus::Ok,
        FLAG_NOT_FOUND => ResponseStatus::NotFound,
        FLAG_ERROR => ResponseStatus::Error,
        FLAG_REDIRECT => ResponseStatus::Redirect,
        FLAG_DEGRADED => ResponseStatus::Degraded,
        _ => return Err(bad_status),
    };
    // A status is a response property; a tagged request is corrupt.
    if status != ResponseStatus::Ok && !kind.is_response() {
        return Err(bad_status);
    }
    let id_len = fixed.u16()? as usize;
    let (x, y) = (fixed.f64()?, fixed.f64()?);
    if !x.is_finite() || !y.is_finite() {
        return Err(DecodeError::BadPosition);
    }
    let (hops, detours) = (fixed.u16()?, fixed.u16()?);

    let relay = if flags & FLAG_RELAY != 0 {
        Some(RelayHeader {
            dest: r.u32()? as usize,
            sour: r.u32()? as usize,
            relay: r.u32()? as usize,
        })
    } else {
        None
    };
    let sharer = if flags & FLAG_SHARER != 0 {
        Some(r.u32()? as usize)
    } else {
        None
    };
    let id = DataId::from_bytes(r.take(id_len)?.to_vec());
    let payload_at = r.position();
    // Retrieval requests, invalidation notices, and stats scrapes carry
    // no payload, so anything past the id is not part of the packet —
    // reject it instead of silently absorbing it.
    if matches!(
        kind,
        PacketKind::Retrieval | PacketKind::Invalidate | PacketKind::Stats
    ) {
        r.finish()?;
    }
    Ok(Packet {
        kind,
        id,
        position: Point2::new(x, y),
        relay,
        status,
        hops,
        detours,
        sharer,
        cacheable,
        payload: body.slice(payload_at..),
    })
}

/// Whether `bytes` starts with the batch-container magic — the sniff a
/// node uses to decide whether a frame body is one packet (`"GR"`) or a
/// batch of them (`"GB"`).
pub fn is_batch(bytes: &[u8]) -> bool {
    bytes.len() >= 2 && bytes[0..2] == BATCH_MAGIC
}

/// Serializes `packets` as one batch container by appending to `out`
/// (not cleared — the cluster layer writes a frame prefix first):
///
/// ```text
///  +-------+-------+-------+---------------+
///  | magic "GB"    | ver=1 | count (u16 be)|
///  +-------+-------+-------+---------------+
///  | per packet: length (u32 be) + wire packet bytes
///  +---------------------------------------+
/// ```
///
/// One batch frame costs one syscall on each side instead of one per
/// packet — the wire-level half of killing request/response lockstep.
///
/// # Panics
///
/// Panics if `packets` exceeds 65535 entries (the u16 count); callers
/// chunk far below that.
pub fn encode_batch_into(packets: &[Packet], out: &mut Vec<u8>) {
    assert!(
        packets.len() <= u16::MAX as usize,
        "batch of {} packets exceeds the u16 count field",
        packets.len()
    );
    out.extend_from_slice(&BATCH_MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(packets.len() as u16).to_be_bytes());
    for packet in packets {
        let len_at = out.len();
        out.extend_from_slice(&[0u8; 4]);
        encode_into(packet, out);
        let len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&len.to_be_bytes());
    }
}

/// Parses a batch container, slicing each packet's payload out of `body`
/// with no copy (same zero-copy contract as [`parse_bytes`]).
///
/// # Errors
///
/// [`DecodeError::BadMagic`]/[`DecodeError::BadVersion`] for a corrupt
/// container header, [`DecodeError::Truncated`] when the advertised
/// packet lengths overrun the body, [`DecodeError::TrailingGarbage`] for
/// bytes past the last packet, and any per-packet parse error as-is.
pub fn parse_batch_bytes(body: &Bytes) -> Result<Vec<Packet>, DecodeError> {
    let mut r = Cursor::new(body);
    let mut header = Cursor::new(r.take(2 + 1 + 2)?);
    if header.take(2)? != BATCH_MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = header.u8()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let count = header.u16()? as usize;
    let mut packets = r.vec_for(count, 4 + FIXED);
    for _ in 0..count {
        let len = r.u32()? as usize;
        let at = r.position();
        r.take(len)?;
        packets.push(parse_bytes(&body.slice(at..at + len))?);
    }
    r.finish()?;
    Ok(packets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Packet {
        Packet::placement(DataId::new("cam/1/frame"), b"payload".as_ref())
    }

    #[test]
    fn round_trip_plain() {
        let p = sample();
        let parsed = parse(&encode(&p)).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn encode_into_appends_after_existing_bytes() {
        let p = sample();
        let mut buf = vec![0xAA, 0xBB];
        encode_into(&p, &mut buf);
        assert_eq!(&buf[..2], &[0xAA, 0xBB]);
        assert_eq!(parse(&buf[2..]).unwrap(), p);
        // Reuse: clearing and re-encoding produces identical bytes.
        buf.clear();
        encode_into(&p, &mut buf);
        assert_eq!(buf, encode(&p));
    }

    #[test]
    fn parse_bytes_payload_shares_the_body_allocation() {
        let p = Packet::response(DataId::new("k"), b"shared-payload".as_ref());
        let body = Bytes::from(encode(&p));
        let parsed = parse_bytes(&body).unwrap();
        assert_eq!(parsed, p);
        // The payload is a view: slicing the body at the same offset
        // yields an equal region, and no copy was made (the shim's
        // slice shares the Arc; equality here is the observable part).
        let offset = body.len() - p.payload.len();
        assert_eq!(parsed.payload, body.slice(offset..));
    }

    #[test]
    fn round_trip_with_relay() {
        let p = Packet::retrieval(DataId::new("k")).with_relay(3, 7, 12);
        let parsed = parse(&encode(&p)).unwrap();
        assert_eq!(parsed, p);
        assert_eq!(
            parsed.relay,
            Some(RelayHeader {
                dest: 12,
                sour: 3,
                relay: 7
            })
        );
    }

    #[test]
    fn sharer_rides_only_on_retrievals() {
        let mut p = Packet::retrieval(DataId::new("k")).with_relay(3, 7, 12);
        let plain = encode(&p);
        p.sharer = Some(5);
        let stamped = encode(&p);
        assert_eq!(stamped.len(), plain.len() + 4, "one u32, nothing else");
        assert_eq!(parse(&stamped).unwrap(), p);
        for mut other in [
            Packet::placement(DataId::new("k"), b"v".as_ref()),
            Packet::response(DataId::new("k"), b"v".as_ref()),
            Packet::invalidate(DataId::new("k")),
        ] {
            other.sharer = Some(5);
            let b = encode(&other);
            assert_eq!(parse(&b), Err(DecodeError::UnknownFlags(b[3])), "{other:?}");
        }
    }

    #[test]
    fn cacheability_rides_only_on_retrieval_responses() {
        for cacheable in [Cacheable::Anywhere, Cacheable::WhenPristine] {
            let mut p = Packet::response(DataId::new("k"), b"v".as_ref());
            p.cacheable = cacheable;
            assert_eq!(parse(&encode(&p)).unwrap(), p);
            let mut other = Packet::retrieval(DataId::new("k"));
            other.cacheable = cacheable;
            let b = encode(&other);
            assert_eq!(parse(&b), Err(DecodeError::UnknownFlags(b[3])));
        }
        let mut both = encode(&Packet::response(DataId::new("k"), b"v".as_ref()));
        both[3] |= 0b1100_0000;
        assert_eq!(parse(&both), Err(DecodeError::UnknownFlags(0b1100_0000)));
    }

    #[test]
    fn round_trip_all_kinds() {
        for p in [
            Packet::placement(DataId::new("a"), b"x".as_ref()),
            Packet::retrieval(DataId::new("b")),
            Packet::response(DataId::new("c"), b"yz".as_ref()),
            Packet::not_found(DataId::new("d")),
            Packet::error_response(DataId::new("e")),
            Packet::redirect_response(DataId::new("f")),
            {
                let mut p = Packet::response(DataId::new("g"), b"w".as_ref());
                p.status = ResponseStatus::Degraded;
                p.detours = 3;
                p
            },
            Packet::invalidate(DataId::new("h")),
            Packet::stats_request(),
            Packet::stats_response(b"snapshot-bytes".as_ref()),
            Packet::admin_request(b"op-bytes".as_ref()),
            Packet::admin_response(b"done".as_ref()),
            Packet::admin_error(b"refused".as_ref()),
        ] {
            assert_eq!(parse(&encode(&p)).unwrap(), p);
        }
    }

    #[test]
    fn round_trip_status_and_hops() {
        let mut p = Packet::not_found(DataId::new("missing/key"));
        p.hops = 7;
        let parsed = parse(&encode(&p)).unwrap();
        assert_eq!(parsed.status, ResponseStatus::NotFound);
        assert_eq!(parsed.hops, 7);
        assert_eq!(parsed, p);

        let mut p = Packet::response(DataId::new("hit"), b"v".as_ref());
        p.hops = u16::MAX;
        p.detours = 42;
        let parsed = parse(&encode(&p)).unwrap();
        assert_eq!(parsed.status, ResponseStatus::Ok);
        assert_eq!(parsed.hops, u16::MAX);
        assert_eq!(parsed.detours, 42);
    }

    #[test]
    fn conflicting_status_bits_rejected() {
        let mut b = encode(&Packet::response(DataId::new("k"), b"v".as_ref()));
        b[3] = 0b0000_0110; // NotFound and Error both set
        assert!(matches!(parse(&b), Err(DecodeError::BadStatus { .. })));
    }

    #[test]
    fn status_on_request_rejected() {
        for mk in [
            Packet::placement(DataId::new("k"), b"v".as_ref()),
            Packet::retrieval(DataId::new("k")),
            Packet::invalidate(DataId::new("k")),
            Packet::stats_request(),
            Packet::admin_request(b"op".as_ref()),
        ] {
            let mut b = encode(&mk);
            b[3] |= 0b0000_0010; // NotFound on a request
            assert!(
                matches!(parse(&b), Err(DecodeError::BadStatus { .. })),
                "{mk:?}"
            );
        }
    }

    #[test]
    fn status_on_new_response_kinds_accepted() {
        // Error-tagged stats/admin responses are legal wire packets: the
        // endpoint reports refusals in-band exactly like a retrieval miss.
        let mut stats = Packet::stats_response(Bytes::new());
        stats.status = ResponseStatus::Error;
        assert_eq!(parse(&encode(&stats)).unwrap(), stats);
        let admin = Packet::admin_error(b"nope".as_ref());
        assert_eq!(parse(&encode(&admin)).unwrap(), admin);
    }

    #[test]
    fn empty_payload_and_id() {
        let p = Packet::placement(DataId::from_bytes(vec![]), Bytes::new());
        let parsed = parse(&encode(&p)).unwrap();
        assert!(parsed.payload.is_empty());
        assert!(parsed.id.as_bytes().is_empty());
    }

    #[test]
    fn truncation_detected_at_every_prefix() {
        let full = encode(&Packet::retrieval(DataId::new("key")).with_relay(1, 2, 3));
        for len in 0..full.len() {
            let r = parse(&full[..len]);
            assert!(
                matches!(r, Err(DecodeError::Truncated { .. })) || r.is_err(),
                "prefix of {len} bytes must not parse"
            );
        }
        assert!(parse(&full).is_ok());
    }

    #[test]
    fn bad_magic_version_kind_flags() {
        let mut b = encode(&sample());
        b[0] = b'X';
        assert_eq!(parse(&b), Err(DecodeError::BadMagic));

        let mut b = encode(&sample());
        b[2] = 9;
        assert_eq!(parse(&b), Err(DecodeError::BadVersion(9)));

        let mut b = encode(&sample());
        b[4] = 8;
        assert_eq!(parse(&b), Err(DecodeError::BadKind(8)));

        let mut b = encode(&sample());
        b[3] = 0b1000_0000;
        assert_eq!(parse(&b), Err(DecodeError::UnknownFlags(0b1000_0000)));
    }

    #[test]
    fn non_finite_position_rejected() {
        let mut b = encode(&sample());
        b[7..15].copy_from_slice(&f64::NAN.to_be_bytes());
        assert_eq!(parse(&b), Err(DecodeError::BadPosition));
    }

    #[test]
    fn trailing_garbage_on_retrieval_rejected() {
        let mut b = encode(&Packet::retrieval(DataId::new("key")));
        b.extend_from_slice(b"junk");
        assert_eq!(parse(&b), Err(DecodeError::TrailingGarbage { extra: 4 }));
        // Stats scrapes are payload-free on the wire the same way.
        let mut b = encode(&Packet::stats_request());
        b.extend_from_slice(b"xx");
        assert_eq!(parse(&b), Err(DecodeError::TrailingGarbage { extra: 2 }));
        // The relayed form hits the same check past the relay header.
        let mut b = encode(&Packet::retrieval(DataId::new("key")).with_relay(1, 2, 3));
        b.push(0xFF);
        assert_eq!(parse(&b), Err(DecodeError::TrailingGarbage { extra: 1 }));
    }

    #[test]
    fn appended_bytes_join_payload_for_payload_kinds() {
        // Placement/response payloads are length-delimited by the buffer
        // itself, so appended bytes extend the payload rather than erroring.
        for p in [
            Packet::placement(DataId::new("a"), b"x".as_ref()),
            Packet::response(DataId::new("c"), b"yz".as_ref()),
        ] {
            let mut b = encode(&p);
            b.push(b'!');
            let parsed = parse(&b).unwrap();
            assert_eq!(parsed.payload.len(), p.payload.len() + 1);
        }
    }

    #[test]
    fn batch_round_trip_preserves_order_and_contents() {
        let packets = vec![
            Packet::placement(DataId::new("a"), b"one".as_ref()),
            Packet::retrieval(DataId::new("b")),
            Packet::response(DataId::new("c"), b"three".as_ref()),
            Packet::retrieval(DataId::new("d")).with_relay(1, 2, 3),
        ];
        let mut buf = Vec::new();
        encode_batch_into(&packets, &mut buf);
        assert!(is_batch(&buf));
        let parsed = parse_batch_bytes(&Bytes::from(buf)).unwrap();
        assert_eq!(parsed, packets);
    }

    #[test]
    fn batch_sniff_rejects_single_packets_and_vice_versa() {
        let single = encode(&sample());
        assert!(!is_batch(&single));
        // A batch body fails the single-packet parser on magic, so a
        // mis-sniffed frame can never be half-parsed as the wrong form.
        let mut batch = Vec::new();
        encode_batch_into(std::slice::from_ref(&sample()), &mut batch);
        assert_eq!(parse(&batch), Err(DecodeError::BadMagic));
        assert_eq!(
            parse_batch_bytes(&Bytes::from(single)),
            Err(DecodeError::BadMagic)
        );
    }

    #[test]
    fn empty_batch_round_trips() {
        let mut buf = Vec::new();
        encode_batch_into(&[], &mut buf);
        assert_eq!(parse_batch_bytes(&Bytes::from(buf)).unwrap(), Vec::new());
    }

    #[test]
    fn batch_appends_after_existing_bytes() {
        // The cluster layer writes `[len][corr]` first; the container
        // must append, not clear.
        let mut buf = vec![0xAA, 0xBB];
        encode_batch_into(std::slice::from_ref(&sample()), &mut buf);
        assert_eq!(&buf[..2], &[0xAA, 0xBB]);
        let parsed = parse_batch_bytes(&Bytes::copy_from_slice(&buf[2..])).unwrap();
        assert_eq!(parsed, vec![sample()]);
    }

    #[test]
    fn batch_truncation_and_trailing_garbage_rejected() {
        let packets = vec![sample(), Packet::retrieval(DataId::new("k"))];
        let mut buf = Vec::new();
        encode_batch_into(&packets, &mut buf);
        for len in 0..buf.len() {
            assert!(
                parse_batch_bytes(&Bytes::copy_from_slice(&buf[..len])).is_err(),
                "prefix of {len} bytes must not parse"
            );
        }
        let mut extra = buf.clone();
        extra.push(0xFF);
        assert_eq!(
            parse_batch_bytes(&Bytes::from(extra)),
            Err(DecodeError::TrailingGarbage { extra: 1 })
        );
        let mut bad_version = buf.clone();
        bad_version[2] = 9;
        assert_eq!(
            parse_batch_bytes(&Bytes::from(bad_version)),
            Err(DecodeError::BadVersion(9))
        );
    }

    #[test]
    fn batch_payloads_share_the_body_allocation() {
        let packets = vec![Packet::response(DataId::new("k"), b"zero-copy".as_ref())];
        let mut buf = Vec::new();
        encode_batch_into(&packets, &mut buf);
        let body = Bytes::from(buf);
        let parsed = parse_batch_bytes(&body).unwrap();
        let offset = body.len() - packets[0].payload.len();
        assert_eq!(parsed[0].payload, body.slice(offset..));
    }

    #[test]
    fn error_display() {
        assert!(DecodeError::BadMagic.to_string().contains("magic"));
        assert!(DecodeError::Truncated { needed: 5, have: 2 }
            .to_string()
            .contains('5'));
        assert!(DecodeError::TrailingGarbage { extra: 3 }
            .to_string()
            .contains('3'));
        assert!(DecodeError::BadStatus { flags: 6, kind: 0 }
            .to_string()
            .contains("status"));
        assert!(DecodeError::BadTag(9).to_string().contains('9'));
    }

    proptest! {
        /// Any packet survives an encode/parse round trip.
        #[test]
        fn prop_round_trip(
            id in proptest::collection::vec(any::<u8>(), 0..64),
            payload in proptest::collection::vec(any::<u8>(), 0..256),
            kind in 0u8..8,
            relay in proptest::option::of((0usize..1000, 0usize..1000, 0usize..1000)),
            status in 0u8..5,
            hops in any::<u16>(),
            detours in any::<u16>(),
        ) {
            let id = DataId::from_bytes(id);
            let mut p = match kind {
                0 => Packet::placement(id, payload.clone()),
                1 => Packet::retrieval(id),
                2 => Packet::response(id, payload.clone()),
                3 => Packet::invalidate(id),
                // Observability kinds with arbitrary ids: start from a
                // kind with the right payload shape and retag.
                4 => {
                    let mut p = Packet::retrieval(id); // payload-free
                    p.kind = PacketKind::Stats;
                    p
                }
                5 => {
                    let mut p = Packet::response(id, payload.clone());
                    p.kind = PacketKind::StatsResponse;
                    p
                }
                6 => {
                    let mut p = Packet::placement(id, payload.clone());
                    p.kind = PacketKind::Admin;
                    p
                }
                _ => {
                    let mut p = Packet::response(id, payload.clone());
                    p.kind = PacketKind::AdminResponse;
                    p
                }
            };
            if let Some((s, r, d)) = relay {
                p = p.with_relay(s, r, d);
            }
            // A status is only encodable on responses.
            if p.kind.is_response() {
                p.status = match status {
                    0 => ResponseStatus::Ok,
                    1 => ResponseStatus::NotFound,
                    2 => ResponseStatus::Error,
                    3 => ResponseStatus::Redirect,
                    _ => ResponseStatus::Degraded,
                };
            }
            p.hops = hops;
            p.detours = detours;
            let parsed = parse(&encode(&p)).unwrap();
            prop_assert_eq!(&parsed, &p);
            // The zero-copy parser agrees with the copying one exactly.
            let zero_copy = parse_bytes(&Bytes::from(encode(&p))).unwrap();
            prop_assert_eq!(zero_copy, parsed);
        }

        /// The parser never panics on arbitrary bytes, and the zero-copy
        /// variant returns the identical outcome.
        #[test]
        fn prop_parser_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let copying = parse(&bytes);
            let zero_copy = parse_bytes(&Bytes::copy_from_slice(&bytes));
            prop_assert_eq!(copying, zero_copy);
        }

        /// Garbage appended to a retrieval request is always rejected as
        /// `TrailingGarbage`, never absorbed and never a panic.
        #[test]
        fn prop_retrieval_trailing_garbage_rejected(
            id in proptest::collection::vec(any::<u8>(), 0..32),
            garbage in proptest::collection::vec(any::<u8>(), 1..64),
            relay in proptest::option::of((0usize..1000, 0usize..1000, 0usize..1000)),
        ) {
            let mut p = Packet::retrieval(DataId::from_bytes(id));
            if let Some((s, r, d)) = relay {
                p = p.with_relay(s, r, d);
            }
            let mut b = encode(&p);
            b.extend_from_slice(&garbage);
            prop_assert_eq!(
                parse(&b),
                Err(DecodeError::TrailingGarbage { extra: garbage.len() })
            );
        }

        /// Invalidation notices are payload-free on the wire exactly
        /// like retrievals: appended garbage is always rejected.
        #[test]
        fn prop_invalidate_trailing_garbage_rejected(
            id in proptest::collection::vec(any::<u8>(), 0..32),
            garbage in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            let p = Packet::invalidate(DataId::from_bytes(id));
            let mut b = encode(&p);
            b.extend_from_slice(&garbage);
            prop_assert_eq!(
                parse(&b),
                Err(DecodeError::TrailingGarbage { extra: garbage.len() })
            );
        }

        /// Any mix of packets survives a batch round trip in order, and
        /// the batch parser never panics on arbitrary bytes.
        #[test]
        fn prop_batch_round_trip(
            specs in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..16),
                 proptest::collection::vec(any::<u8>(), 0..64),
                 0u8..8),
                0..12,
            ),
            junk in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let packets: Vec<Packet> = specs
                .into_iter()
                .map(|(id, payload, kind)| {
                    let id = DataId::from_bytes(id);
                    match kind {
                        0 => Packet::placement(id, payload),
                        1 => Packet::retrieval(id),
                        2 => Packet::response(id, payload),
                        3 => Packet::invalidate(id),
                        4 => {
                            let mut p = Packet::retrieval(id);
                            p.kind = PacketKind::Stats;
                            p
                        }
                        5 => {
                            let mut p = Packet::response(id, payload);
                            p.kind = PacketKind::StatsResponse;
                            p
                        }
                        6 => {
                            let mut p = Packet::placement(id, payload);
                            p.kind = PacketKind::Admin;
                            p
                        }
                        _ => {
                            let mut p = Packet::response(id, payload);
                            p.kind = PacketKind::AdminResponse;
                            p
                        }
                    }
                })
                .collect();
            let mut buf = Vec::new();
            encode_batch_into(&packets, &mut buf);
            prop_assert_eq!(parse_batch_bytes(&Bytes::from(buf)).unwrap(), packets);
            let _ = parse_batch_bytes(&Bytes::from(junk)); // total, never panics
        }
    }
}
