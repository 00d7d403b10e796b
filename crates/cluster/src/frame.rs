//! Length-prefixed framing for GRED wire packets on a byte stream.
//!
//! TCP delivers a byte stream, not packets, so every wire-encoded GRED
//! packet travels inside a frame:
//!
//! ```text
//!  +-------------------+----------------------------+
//!  | length (u32 be)   | body (wire::encode bytes)  |
//!  +-------------------+----------------------------+
//! ```
//!
//! [`FrameDecoder`] reassembles frames incrementally: it accepts input in
//! arbitrary chunks (short reads, split frames, several frames glued
//! together) and yields each complete body exactly once. A length prefix
//! larger than [`MAX_FRAME_LEN`] is a protocol violation reported as a
//! typed [`FrameError`] — never a panic, and never an attempt to buffer
//! gigabytes because of four corrupt bytes.
//!
//! Bodies are yielded as [`Bytes`]: one copy out of the stream buffer per
//! frame, after which the node's zero-copy hot path slices the packet
//! payload out of that same allocation (`wire::parse_bytes`) instead of
//! copying it again per hop.
//!
//! # Call frames
//!
//! Every connection — a client's or a peer link — opens with the
//! [`MUX_PREAMBLE`] and then carries *call frames*: ordinary frames
//! whose body is an 8-byte big-endian correlation id followed by either
//! one wire packet ("GR") or a batch container of them ("GB"):
//!
//! ```text
//!  +-----------------+------------------+--------------------------------+
//!  | length (u32 be) | corr id (u64 be) | "GR" packet  |  "GB" container |
//!  +-----------------+------------------+--------------------------------+
//! ```
//!
//! [`write_call`] and [`read_call`] are the only code that knows this
//! layout; the node, the client connection and the admin endpoint all
//! go through the pair. The preamble is a mandatory hello — a dialer
//! that opens with anything else is closed without an answer.

use bytes::Bytes;
use gred_dataplane::{wire, Cursor, DecodeError, Packet};

/// Upper bound on a frame body. GRED identifiers and payloads are small;
/// anything past this is a corrupt or hostile length prefix.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Bytes of the length prefix.
const PREFIX: usize = 4;

/// Framing-layer protocol violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge {
        /// The advertised body length.
        len: usize,
        /// The maximum this decoder accepts.
        max: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Wraps a wire-encoded packet into a length-prefixed frame.
///
/// # Panics
///
/// Panics if `body` exceeds [`MAX_FRAME_LEN`] — callers frame packets they
/// encoded themselves, which are orders of magnitude smaller.
pub fn encode_frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(PREFIX + body.len());
    let at = begin_frame(&mut out);
    out.extend_from_slice(body);
    finish_frame(&mut out, at);
    out
}

/// First bytes every dialer sends after connecting: the hello that
/// announces call frames. A node closes a connection that opens with
/// anything else.
pub const MUX_PREAMBLE: [u8; 4] = *b"GMUX";

/// Checks newly arrived `bytes` against what is still due of the
/// [`MUX_PREAMBLE`], of which `got` bytes arrived earlier. Advances
/// `got` and returns the bytes after the hello (none until `got` reaches
/// the preamble's length), or `None`: the dialer does not speak GMUX.
pub fn strip_hello<'a>(got: &mut usize, bytes: &'a [u8]) -> Option<&'a [u8]> {
    let due = &MUX_PREAMBLE[*got..];
    let (head, rest) = bytes.split_at(due.len().min(bytes.len()));
    if !due.starts_with(head) {
        return None;
    }
    *got += head.len();
    Some(rest)
}

/// Starts a frame directly inside `out` (appending, not clearing): writes
/// a length placeholder and returns the position [`finish_frame`] patches.
/// The pair lets hot paths build `prefix + body` in one reusable buffer
/// instead of encoding the body separately and copying it into a frame.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0u8; PREFIX]);
    at
}

/// Patches the length prefix written by [`begin_frame`] at `at` to cover
/// every byte appended since.
///
/// # Panics
///
/// Panics if the body exceeds [`MAX_FRAME_LEN`] — same contract as
/// [`encode_frame`].
pub fn finish_frame(out: &mut [u8], at: usize) {
    let body_len = out.len() - at - PREFIX;
    assert!(
        body_len <= MAX_FRAME_LEN,
        "frame body of {body_len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
    );
    out[at..at + PREFIX].copy_from_slice(&(body_len as u32).to_be_bytes());
}

/// Splits a call frame's body into its correlation id and the bytes
/// after it (a zero-copy view of `body`).
///
/// # Errors
///
/// [`DecodeError::Truncated`] when the body is too short to carry the id.
pub fn split_mux(body: &Bytes) -> Result<(u64, Bytes), DecodeError> {
    let mut r = Cursor::new(body);
    let corr = r.u64()?;
    Ok((corr, body.slice(r.position()..)))
}

/// The packets of one call frame, in the form they travelled in. An
/// answer takes the form of its request.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// One bare "GR" packet.
    One(Packet),
    /// A "GB" batch container.
    Many(Vec<Packet>),
}

impl Body {
    /// Whether the packets travelled in a "GB" container.
    pub fn is_batch(&self) -> bool {
        matches!(self, Body::Many(_))
    }

    /// The packets, in frame order.
    pub fn into_vec(self) -> Vec<Packet> {
        match self {
            Body::One(packet) => vec![packet],
            Body::Many(packets) => packets,
        }
    }
}

/// Appends one call frame to `out`: `[len][corr]` and then `packets` as
/// a "GB" container when `batch`, otherwise the one bare "GR" packet.
///
/// # Panics
///
/// Panics if `batch` is false and `packets` is not exactly one packet,
/// or if the body exceeds [`MAX_FRAME_LEN`].
pub fn write_call(out: &mut Vec<u8>, corr: u64, packets: &[Packet], batch: bool) {
    let at = begin_frame(out);
    out.extend_from_slice(&corr.to_be_bytes());
    if batch {
        wire::encode_batch_into(packets, out);
    } else {
        assert_eq!(packets.len(), 1, "a bare call frame carries one packet");
        wire::encode_into(&packets[0], out);
    }
    finish_frame(out, at);
}

/// Takes one call frame's body (as [`FrameDecoder`] yields it) apart:
/// the correlation id and the packets, sniffing the "GR"/"GB" magic.
/// Payloads are zero-copy views of `body`.
///
/// # Errors
///
/// [`DecodeError`] when the id or what follows it is malformed.
pub fn read_call(body: &Bytes) -> Result<(u64, Body), DecodeError> {
    let (corr, packets) = split_mux(body)?;
    let packets = if wire::is_batch(&packets) {
        Body::Many(wire::parse_batch_bytes(&packets)?)
    } else {
        Body::One(wire::parse_bytes(&packets)?)
    };
    Ok((corr, packets))
}

/// Incremental frame reassembler tolerating short reads and split frames.
///
/// ```
/// use gred_cluster::frame::{encode_frame, FrameDecoder};
/// let mut dec = FrameDecoder::new();
/// let frame = encode_frame(b"hello");
/// dec.feed(&frame[..3]); // a short read mid-prefix
/// assert_eq!(dec.next_frame().unwrap(), None);
/// dec.feed(&frame[3..]);
/// assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b"hello"[..]));
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted once it grows past the data.
    start: usize,
    /// A detected violation is sticky: the stream is unrecoverable because
    /// frame boundaries are lost.
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw bytes received from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.poisoned.is_none() {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes buffered but not yet yielded as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete frame body, `Ok(None)` when more input
    /// is needed.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] when the pending length prefix is corrupt;
    /// the error repeats on every subsequent call (the stream cannot be
    /// resynchronized).
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameError> {
        if let Some(err) = self.poisoned {
            return Err(err);
        }
        let pending = &self.buf[self.start..];
        if pending.len() < PREFIX {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_be_bytes(pending[..PREFIX].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            let err = FrameError::TooLarge {
                len,
                max: MAX_FRAME_LEN,
            };
            self.poisoned = Some(err);
            return Err(err);
        }
        if pending.len() < PREFIX + len {
            self.compact();
            return Ok(None);
        }
        // The stream buffer is mutable and reused, so the body is copied
        // out exactly once, into a shared allocation every downstream
        // consumer (payload slice, store, response) can view for free.
        let body = Bytes::copy_from_slice(&pending[PREFIX..PREFIX + len]);
        self.start += PREFIX + len;
        self.compact();
        Ok(Some(body))
    }

    /// Drops consumed bytes once they dominate the buffer.
    fn compact(&mut self) {
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Decodes every frame in `bytes` at once — the reference the incremental
/// decoder is property-tested against.
///
/// # Errors
///
/// [`FrameError::TooLarge`] on a corrupt length prefix. Trailing bytes
/// that do not form a complete frame are returned as the second element.
pub fn decode_all(bytes: &[u8]) -> Result<(Vec<Vec<u8>>, usize), FrameError> {
    let mut frames = Vec::new();
    let mut rest = Cursor::new(bytes);
    loop {
        let mut frame = rest.clone();
        let Ok(len) = frame.u32().map(|len| len as usize) else {
            break;
        };
        if len > MAX_FRAME_LEN {
            return Err(FrameError::TooLarge {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        let Ok(body) = frame.take(len) else {
            break;
        };
        frames.push(body.to_vec());
        rest = frame;
    }
    Ok((frames, rest.remaining()))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gred_runtime::reactor::WriteQueue;
    use proptest::prelude::*;
    use std::io;

    fn stream_of(bodies: &[&[u8]]) -> Vec<u8> {
        bodies.iter().flat_map(|b| encode_frame(b)).collect()
    }

    /// A writer that accepts at most `stride` bytes per call and returns
    /// `WouldBlock` on every other call — the worst nonblocking socket:
    /// a short write is forced at every offset of the stream.
    pub(crate) struct Throttled {
        pub(crate) out: Vec<u8>,
        stride: usize,
        starve: bool,
    }

    impl Throttled {
        pub(crate) fn new(stride: usize) -> Throttled {
            Throttled {
                out: Vec::new(),
                stride,
                starve: false,
            }
        }
    }

    impl io::Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.starve = !self.starve;
            if self.starve {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.stride);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Flushes `wq` into `sink` to completion, bounding the retries the
    /// way a reactor's writable events would.
    pub(crate) fn drain_queue(wq: &mut WriteQueue, sink: &mut Throttled) {
        let mut spins = 0usize;
        while !wq.flush(sink).expect("throttled sink never hard-fails") {
            spins += 1;
            assert!(spins < 1_000_000, "write queue failed to make progress");
        }
    }

    fn drain(dec: &mut FrameDecoder) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(f) = dec.next_frame().expect("well-formed stream") {
            out.push(f.to_vec());
        }
        out
    }

    #[test]
    fn single_frame_round_trip() {
        let mut dec = FrameDecoder::new();
        dec.feed(&encode_frame(b"payload"));
        assert_eq!(drain(&mut dec), vec![b"payload".to_vec()]);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn empty_body_is_a_valid_frame() {
        let mut dec = FrameDecoder::new();
        dec.feed(&encode_frame(b""));
        assert_eq!(drain(&mut dec), vec![Vec::<u8>::new()]);
    }

    #[test]
    fn byte_by_byte_feeding_recovers_every_frame() {
        // The satellite requirement: every frame-boundary split, down to
        // single bytes, yields the same frames as whole-buffer decoding.
        let stream = stream_of(&[b"a", b"", b"longer-body-here", b"x"]);
        let (expected, rest) = decode_all(&stream).unwrap();
        assert_eq!(rest, 0);

        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &stream {
            dec.feed(&[b]);
            got.extend(drain(&mut dec));
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn every_two_way_split_agrees_with_whole_buffer() {
        let stream = stream_of(&[b"first", b"second", b"third"]);
        let (expected, _) = decode_all(&stream).unwrap();
        for cut in 0..=stream.len() {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            dec.feed(&stream[..cut]);
            got.extend(drain(&mut dec));
            dec.feed(&stream[cut..]);
            got.extend(drain(&mut dec));
            assert_eq!(got, expected, "split at byte {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_a_typed_sticky_error() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(u32::MAX).to_be_bytes());
        dec.feed(b"whatever");
        let err = dec.next_frame().unwrap_err();
        assert_eq!(
            err,
            FrameError::TooLarge {
                len: u32::MAX as usize,
                max: MAX_FRAME_LEN
            }
        );
        // Poisoned: the error repeats instead of resynchronizing wrongly.
        assert_eq!(dec.next_frame().unwrap_err(), err);
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn encode_frame_rejects_oversized_bodies() {
        let _ = encode_frame(&vec![0u8; MAX_FRAME_LEN + 1]);
    }

    #[test]
    fn begin_finish_matches_encode_frame_and_appends() {
        let mut out = b"unrelated-prefix".to_vec();
        let at = begin_frame(&mut out);
        out.extend_from_slice(b"the-body");
        finish_frame(&mut out, at);
        assert_eq!(&out[..16], b"unrelated-prefix");
        assert_eq!(&out[16..], encode_frame(b"the-body").as_slice());
    }

    #[test]
    fn split_mux_views_the_body_without_copying() {
        let mut out = Vec::new();
        let at = begin_frame(&mut out);
        out.extend_from_slice(&42u64.to_be_bytes());
        out.extend_from_slice(b"packet-bytes");
        finish_frame(&mut out, at);
        let mut dec = FrameDecoder::new();
        dec.feed(&out);
        let body = dec.next_frame().unwrap().unwrap();
        let (corr, payload) = split_mux(&body).unwrap();
        assert_eq!(corr, 42);
        assert_eq!(payload.as_ref(), b"packet-bytes");
        // A 7-byte body cannot carry the 8-byte correlation id.
        assert_eq!(
            split_mux(&Bytes::copy_from_slice(&[0; 7])),
            Err(DecodeError::Truncated { needed: 8, have: 7 })
        );
    }

    #[test]
    fn call_frames_round_trip_in_the_form_they_were_written() {
        let id = |name: &str| gred_hash::DataId::new(name);
        let packets = vec![
            Packet::placement(id("a"), b"one".as_ref()),
            Packet::retrieval(id("b")).with_relay(1, 2, 3),
        ];
        let mut out = b"earlier-bytes".to_vec();
        write_call(&mut out, 7, &packets[..1], false);
        write_call(&mut out, 8, &packets[..1], true);
        write_call(&mut out, u64::MAX, &packets, true);
        let mut dec = FrameDecoder::new();
        dec.feed(&out[13..]);
        let mut calls = Vec::new();
        while let Some(body) = dec.next_frame().unwrap() {
            calls.push(read_call(&body).unwrap());
        }
        assert_eq!(
            calls,
            vec![
                (7, Body::One(packets[0].clone())),
                (8, Body::Many(packets[..1].to_vec())),
                (u64::MAX, Body::Many(packets.clone())),
            ]
        );
        assert!(!calls[0].1.is_batch() && calls[1].1.is_batch());
        assert_eq!(calls[2].1.clone().into_vec(), packets);
    }

    #[test]
    fn mux_preamble_cannot_be_a_frame_prefix() {
        // What the retired plain protocol sent: `[len][packet]` with no
        // correlation id. The reader takes the packet's first eight
        // bytes for an id and finds no packet behind them.
        let packet = Packet::placement(gred_hash::DataId::new("k"), b"a longer value".as_ref());
        let body = Bytes::from(gred_dataplane::encode(&packet));
        assert_eq!(read_call(&body), Err(DecodeError::BadMagic));
        // And no length prefix can spell the hello: a frame's first byte
        // is the high byte of a length <= MAX_FRAME_LEN.
        assert!(MUX_PREAMBLE[0] > (MAX_FRAME_LEN as u32).to_be_bytes()[0]);
    }

    proptest! {
        /// Any chunking of any frame stream decodes to exactly the frames
        /// whole-buffer decoding finds — no loss, duplication, reordering.
        #[test]
        fn prop_chunked_equals_whole_buffer(
            bodies in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..128), 0..8),
            cuts in proptest::collection::vec(any::<u16>(), 0..16),
        ) {
            let stream: Vec<u8> =
                bodies.iter().flat_map(|b| encode_frame(b)).collect();
            let (expected, rest) = decode_all(&stream).unwrap();
            prop_assert_eq!(rest, 0);
            prop_assert_eq!(&expected, &bodies);

            // Random chunk boundaries derived from `cuts`.
            let mut points: Vec<usize> = cuts
                .iter()
                .map(|&c| if stream.is_empty() { 0 } else { c as usize % stream.len() })
                .collect();
            points.sort_unstable();
            points.dedup();

            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            let mut prev = 0;
            for &p in &points {
                dec.feed(&stream[prev..p]);
                while let Some(f) = dec.next_frame().unwrap() {
                    got.push(f.to_vec());
                }
                prev = p;
            }
            dec.feed(&stream[prev..]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f.to_vec());
            }
            prop_assert_eq!(got, expected);
            prop_assert_eq!(dec.buffered(), 0);
        }

        /// A wire packet survives encode → frame → chunked decode → parse,
        /// whatever the split points.
        #[test]
        fn prop_wire_packet_survives_framing(
            id in proptest::collection::vec(any::<u8>(), 0..32),
            payload in proptest::collection::vec(any::<u8>(), 0..96),
            hops in any::<u16>(),
            cut in any::<u16>(),
        ) {
            let mut packet = gred_dataplane::Packet::placement(
                gred_hash::DataId::from_bytes(id), payload);
            packet.hops = hops;
            let frame = encode_frame(&gred_dataplane::encode(&packet));
            let cut = cut as usize % frame.len();

            let mut dec = FrameDecoder::new();
            dec.feed(&frame[..cut]);
            prop_assert_eq!(dec.next_frame().unwrap(), None);
            dec.feed(&frame[cut..]);
            let body = dec.next_frame().unwrap().expect("one whole frame fed");
            let parsed = gred_dataplane::parse(&body).unwrap();
            prop_assert_eq!(parsed, packet);
        }

        /// Multiplexer correlation: N continuations parked on one link, the
        /// peer's responses fed back in an arbitrary permuted order with
        /// arbitrary chunking — every continuation is completed by exactly
        /// its own response body, never a sibling's and never twice.
        #[test]
        fn prop_demux_delivers_each_response_to_its_own_waiter(
            bodies in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..64), 1..12),
            order in any::<u64>(),
            cut in any::<u16>(),
        ) {
            let mut parked = crate::mux::Parked::default();
            let corrs: Vec<u64> = (0..bodies.len()).map(|waiter| parked.park(waiter)).collect();

            // The peer's byte stream: one mux frame per response, written
            // in a permutation derived from `order` (Fisher–Yates with a
            // splitmix-style step).
            let mut perm: Vec<usize> = (0..bodies.len()).collect();
            let mut state = order;
            for i in (1..perm.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                perm.swap(i, (state >> 33) as usize % (i + 1));
            }
            let mut stream = Vec::new();
            for &i in &perm {
                let at = begin_frame(&mut stream);
                stream.extend_from_slice(&corrs[i].to_be_bytes());
                stream.extend_from_slice(&bodies[i]);
                finish_frame(&mut stream, at);
            }

            // Reassemble across an arbitrary split and route every frame.
            let cut = cut as usize % (stream.len() + 1);
            let mut dec = FrameDecoder::new();
            let mut answered = vec![false; bodies.len()];
            for chunk in [&stream[..cut], &stream[cut..]] {
                dec.feed(chunk);
                while let Some(frame_body) = dec.next_frame().unwrap() {
                    let (corr, payload) = split_mux(&frame_body).expect("mux frame");
                    let waiter = parked.take(corr).expect("at most one response per waiter");
                    prop_assert_eq!(payload.as_ref(), bodies[waiter].as_slice());
                    answered[waiter] = true;
                }
            }
            prop_assert!(answered.iter().all(|&a| a), "every waiter was answered");
            prop_assert_eq!(parked.len(), 0);
        }

        /// The decoder never panics and never hangs on arbitrary input:
        /// it either yields frames, asks for more, or errors.
        #[test]
        fn prop_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut dec = FrameDecoder::new();
            dec.feed(&bytes);
            // Bounded loop: each Ok(Some) consumes ≥ PREFIX bytes.
            for _ in 0..=bytes.len() {
                match dec.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
        }

        /// Forced short writes: any frame stream pushed through a
        /// [`WriteQueue`] over a sink that takes at most `stride` bytes
        /// and `WouldBlock`s between every acceptance arrives byte-exact
        /// — nothing lost, duplicated, or reordered by queue/compaction.
        #[test]
        fn prop_write_queue_short_writes_preserve_the_stream(
            bodies in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..96), 0..8),
            stride in 1usize..7,
        ) {
            let mut wq = WriteQueue::new();
            let mut sink = Throttled::new(stride);
            for body in &bodies {
                // `send` takes the fast path when the queue is empty and
                // queues the remainder on the first short write.
                wq.send(&mut sink, &encode_frame(body)).unwrap();
            }
            drain_queue(&mut wq, &mut sink);
            prop_assert!(wq.is_empty());

            let (frames, rest) = decode_all(&sink.out).unwrap();
            prop_assert_eq!(rest, 0);
            prop_assert_eq!(frames, bodies);
        }

        /// The full partial-I/O pipeline, mux edition: correlated frames
        /// forced through `WouldBlock`-at-every-offset writes, then read
        /// back one byte at a time through decoder + continuation slab.
        /// Every waiter gets exactly its own body, byte-exact.
        #[test]
        fn prop_mux_pipeline_survives_short_writes_and_one_byte_reads(
            bodies in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..64), 1..8),
            stride in 1usize..5,
        ) {
            let mut wq = WriteQueue::new();
            let mut sink = Throttled::new(stride);
            for (corr, body) in bodies.iter().enumerate() {
                let mut f = Vec::new();
                let at = begin_frame(&mut f);
                f.extend_from_slice(&(corr as u64).to_be_bytes());
                f.extend_from_slice(body);
                finish_frame(&mut f, at);
                wq.send(&mut sink, &f).unwrap();
            }
            drain_queue(&mut wq, &mut sink);

            let mut parked = crate::mux::Parked::default();
            for waiter in 0..bodies.len() {
                // Fresh slab: the keys are 0..n, the ids written above.
                prop_assert_eq!(parked.park(waiter), waiter as u64);
            }
            let mut dec = FrameDecoder::new();
            for &b in &sink.out {
                dec.feed(&[b]);
                while let Some(frame_body) = dec.next_frame().unwrap() {
                    let (corr, payload) = split_mux(&frame_body).expect("mux frame");
                    let waiter = parked.take(corr).expect("every id is parked once");
                    prop_assert_eq!(payload.as_ref(), bodies[waiter].as_slice());
                }
            }
            prop_assert_eq!(dec.buffered(), 0);
            prop_assert_eq!(parked.len(), 0, "every waiter was answered");
        }
    }
}
