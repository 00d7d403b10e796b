//! The client's one connection: correlated frames, any depth.
//!
//! [`PipeConn`] speaks the same GMUX protocol the inter-node links use
//! ([`crate::node`]): a [`frame::MUX_PREAMBLE`] ahead of the first
//! frame, then length-prefixed frames whose first eight body bytes are a
//! correlation id. Every call a [`Client`](crate::client::Client) makes
//! goes through [`PipeConn::exchange`]: the packets are laid out as
//! frames ([`Framing`] — one bare packet for a single request, chunked
//! batch containers for a burst), each frame under a fresh correlation
//! id, and *all* frames are coalesced into one `write_all` — one
//! syscall ships the whole call, however many packets it carries. The
//! node answers each frame in the form it arrived in; responses are
//! demultiplexed by correlation id, so frames may complete in any
//! order, and a frame whose id matches no in-flight request — the late
//! answer to a call that already timed out — is dropped on the floor
//! instead of being credited to a later one. A single request is simply
//! a call of depth 1.
//!
//! Because stale responses die by correlation id, a connection stays in
//! sync after *any* failed call whose frames were intact; whether to
//! keep it is the caller's retry policy, not a protocol matter.

use crate::client::{ClientConfig, ClientError};
use crate::frame::{self, FrameDecoder};
use gred_dataplane::{Packet, PacketKind};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Packets per batch frame. Chunking keeps a frame far below
/// [`frame::MAX_FRAME_LEN`] for sane payloads and lets the node start
/// answering the first chunk while later ones are still being parsed.
pub(crate) const PIPELINE_CHUNK: usize = 64;

/// How a call's packets are laid out in frames.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Framing {
    /// Each packet alone in its frame, as a bare "GR" packet.
    Bare,
    /// "GB" batch containers of at most this many packets per frame.
    Batch(usize),
}

/// A connection to one node: mux-framed, correlation-id demultiplexed,
/// any number of requests in flight per syscall.
#[derive(Debug)]
pub(crate) struct PipeConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Reusable encode buffer: after the first call, building the
    /// request frames allocates nothing. Starts out holding the mux
    /// preamble, so the first call announces the protocol in the same
    /// write as its frames.
    scratch: Vec<u8>,
    /// Next correlation id. Never reused within a connection, which is
    /// the invariant that makes dropping unknown ids safe.
    next_corr: u64,
}

impl PipeConn {
    /// Connects to `addr`.
    pub(crate) fn connect(addr: SocketAddr, cfg: &ClientConfig) -> Result<PipeConn, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout).map_err(|e| {
            ClientError::Io {
                context: "connecting to the node",
                kind: e.kind(),
            }
        })?;
        stream
            .set_nodelay(true)
            .and_then(|_| stream.set_read_timeout(Some(cfg.read_timeout)))
            .map_err(|e| ClientError::Io {
                context: "configuring the connection",
                kind: e.kind(),
            })?;
        Ok(PipeConn {
            stream,
            decoder: FrameDecoder::new(),
            scratch: frame::MUX_PREAMBLE.to_vec(),
            next_corr: 1,
        })
    }

    /// Ships `packets` as correlated frames laid out per `framing` and
    /// returns one response per packet, in request order. Every
    /// response must be of kind `expect`.
    pub(crate) fn exchange(
        &mut self,
        packets: &[Packet],
        framing: Framing,
        expect: PacketKind,
        timeout: Duration,
    ) -> Result<Vec<Packet>, ClientError> {
        let (chunk, batch) = match framing {
            Framing::Bare => (1, false),
            Framing::Batch(chunk) => (chunk, true),
        };
        assert!(chunk > 0, "chunk size must be positive");
        // Encode every frame — each under its own correlation id — into
        // one buffer, then ship the entire call with a single write.
        let mut inflight: Vec<(u64, usize, usize)> = Vec::new(); // (corr, start, len)
        for (index, group) in packets.chunks(chunk).enumerate() {
            let corr = self.next_corr;
            self.next_corr += 1;
            frame::write_call(&mut self.scratch, corr, group, batch);
            inflight.push((corr, index * chunk, group.len()));
        }
        let sent = self.stream.write_all(&self.scratch);
        self.scratch.clear();
        sent.map_err(|e| ClientError::Io {
            context: "sending the request",
            kind: e.kind(),
        })?;

        let mut out: Vec<Option<Packet>> = Vec::with_capacity(packets.len());
        out.resize_with(packets.len(), || None);
        let deadline = Instant::now() + timeout;
        let mut buf = [0u8; 64 * 1024];
        loop {
            while let Some(body) = self.decoder.next_frame().map_err(ClientError::Frame)? {
                // Zero-copy: response payloads are views of the frame
                // body, not further allocations.
                let (corr, responses) = frame::read_call(&body).map_err(ClientError::Protocol)?;
                // No in-flight frame owns this id: it is the late answer
                // to an abandoned (timed-out) call. Dropping it here is
                // what keeps the connection in sync across a timeout.
                let Some(slot) = inflight.iter().position(|(c, _, _)| *c == corr) else {
                    continue;
                };
                let (_, start, len) = inflight.swap_remove(slot);
                let responses = responses.into_vec();
                if responses.len() != len {
                    return Err(ClientError::Io {
                        context: "matching a batch response to its requests",
                        kind: io::ErrorKind::InvalidData,
                    });
                }
                for (offset, response) in responses.into_iter().enumerate() {
                    if response.kind != expect {
                        return Err(ClientError::UnexpectedKind(response.kind));
                    }
                    out[start + offset] = Some(response);
                }
            }
            if inflight.is_empty() {
                break;
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Timeout { after: timeout });
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(ClientError::Io {
                        context: "reading the response",
                        kind: io::ErrorKind::UnexpectedEof,
                    })
                }
                Ok(n) => self.decoder.feed(&buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => {
                    return Err(ClientError::Io {
                        context: "reading the response",
                        kind: e.kind(),
                    })
                }
            }
        }
        Ok(out
            .into_iter()
            .map(|slot| slot.expect("every in-flight frame resolved"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gred_hash::DataId;
    use proptest::prelude::*;
    use std::net::TcpListener;

    /// Reads the mux preamble and returns a framed-decoder loop context.
    fn expect_preamble(stream: &mut TcpStream) {
        let mut pre = [0u8; 4];
        stream.read_exact(&mut pre).expect("preamble arrives");
        assert_eq!(pre, frame::MUX_PREAMBLE, "client must announce GMUX");
    }

    /// Collects `n` mux-framed requests (bare or batched) from the
    /// stream.
    fn read_requests(stream: &mut TcpStream, n: usize) -> Vec<(u64, Vec<Packet>)> {
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 16 * 1024];
        let mut frames = Vec::new();
        while frames.len() < n {
            let read = stream.read(&mut buf).expect("request bytes arrive");
            assert!(read > 0, "client hung up before sending {n} frames");
            decoder.feed(&buf[..read]);
            while let Some(body) = decoder.next_frame().expect("well-framed request") {
                let (corr, packets) = frame::read_call(&body).expect("a call frame");
                let packets = packets.into_vec();
                frames.push((corr, packets));
            }
        }
        frames
    }

    /// Writes one mux-framed response under `corr`: a batch container,
    /// or the one bare packet when the request was `bare`.
    fn write_responses(stream: &mut TcpStream, corr: u64, responses: &[Packet], bare: bool) {
        let mut out = Vec::new();
        frame::write_call(&mut out, corr, responses, !bare);
        stream.write_all(&out).expect("response frame sends");
    }

    fn write_batch(stream: &mut TcpStream, corr: u64, responses: &[Packet]) {
        write_responses(stream, corr, responses, false);
    }

    const DATA: PacketKind = PacketKind::RetrievalResponse;

    fn echo_responses(requests: &[Packet], tag: &str) -> Vec<Packet> {
        requests
            .iter()
            .map(|p| Packet::response(p.id.clone(), format!("{tag}/{}", p.id).into_bytes()))
            .collect()
    }

    /// A timed-out request's late response must be dropped by
    /// correlation id, never credited to a later request on the same
    /// connection — whatever the framing.
    fn late_response_is_dropped(framing: Framing) {
        let bare = matches!(framing, Framing::Bare);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            expect_preamble(&mut stream);
            // Swallow the first request until the second arrives — the
            // client times out on it and abandons the correlation id.
            // Both reach this one accepted socket.
            let frames = read_requests(&mut stream, 2);
            let (stale_corr, stale_requests) = &frames[0];
            let (fresh_corr, fresh_requests) = &frames[1];
            assert_ne!(stale_corr, fresh_corr, "corr ids must never repeat");
            // The stale answer goes out FIRST, addressed to the second
            // request's id — the classic lockstep poison. Only the
            // correlation id can tell the two apart.
            let poison: Vec<Packet> = stale_requests
                .iter()
                .map(|_| Packet::response(fresh_requests[0].id.clone(), b"stale".as_ref()))
                .collect();
            write_responses(&mut stream, *stale_corr, &poison, bare);
            let fresh = echo_responses(fresh_requests, "fresh");
            write_responses(&mut stream, *fresh_corr, &fresh, bare);
        });

        let cfg = ClientConfig::default();
        let mut conn = PipeConn::connect(addr, &cfg).unwrap();
        let first = conn.exchange(
            &[Packet::retrieval(DataId::new("first"))],
            framing,
            DATA,
            Duration::from_millis(150),
        );
        assert!(
            matches!(first, Err(ClientError::Timeout { .. })),
            "the swallowed request must time out, got {first:?}"
        );
        // Same connection, new correlation id: the poison frame (which
        // names *this* request's id!) must be dropped, and the genuine
        // answer returned.
        let out = conn
            .exchange(
                &[Packet::retrieval(DataId::new("second"))],
                framing,
                DATA,
                Duration::from_secs(5),
            )
            .expect("the fresh exchange succeeds despite the stale frame");
        assert_eq!(
            out[0].payload.as_ref(),
            b"fresh/second",
            "the stale response leaked into a later request"
        );
        server.join().unwrap();
    }

    #[test]
    fn late_response_is_dropped_by_correlation_id() {
        late_response_is_dropped(Framing::Batch(PIPELINE_CHUNK));
    }

    /// The same guarantee at depth 1: the next single request on the
    /// *same* socket gets its own reply.
    #[test]
    fn late_single_response_is_dropped_by_correlation_id() {
        late_response_is_dropped(Framing::Bare);
    }

    /// Chunked pipeline, responses deliberately served in reverse frame
    /// order: demultiplexing must still land every response in request
    /// order.
    #[test]
    fn reversed_response_order_lands_in_request_order() {
        const N: usize = 10;
        const CHUNK: usize = 3; // 4 frames: 3+3+3+1
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            expect_preamble(&mut stream);
            let frames = read_requests(&mut stream, N.div_ceil(CHUNK));
            for (corr, requests) in frames.iter().rev() {
                write_batch(&mut stream, *corr, &echo_responses(requests, "echo"));
            }
        });

        let packets: Vec<Packet> = (0..N)
            .map(|i| Packet::retrieval(DataId::new(format!("k{i}"))))
            .collect();
        let mut conn = PipeConn::connect(addr, &ClientConfig::default()).unwrap();
        let out = conn
            .exchange(
                &packets,
                Framing::Batch(CHUNK),
                DATA,
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(out.len(), N);
        for (i, response) in out.iter().enumerate() {
            assert_eq!(
                response.payload.as_ref(),
                format!("echo/k{i}").as_bytes(),
                "response {i} landed in the wrong slot"
            );
        }
        server.join().unwrap();
    }

    /// Splitmix-style shuffle: deterministic permutation of `0..n`.
    fn permutation(n: usize, seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = seed;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Any permutation of response frames demultiplexes back into
        /// request order, for any packet count and chunk size.
        #[test]
        fn prop_permuted_responses_demultiplex_in_request_order(
            n in 1usize..24,
            chunk in 1usize..5,
            seed in any::<u64>(),
        ) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let expected_frames = n.div_ceil(chunk);
            let server = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                expect_preamble(&mut stream);
                let frames = read_requests(&mut stream, expected_frames);
                for &slot in &permutation(frames.len(), seed) {
                    let (corr, requests) = &frames[slot];
                    write_batch(&mut stream, *corr, &echo_responses(requests, "p"));
                }
            });

            let packets: Vec<Packet> = (0..n)
                .map(|i| Packet::retrieval(DataId::new(format!("id{i}"))))
                .collect();
            let mut conn = PipeConn::connect(addr, &ClientConfig::default()).unwrap();
            let out = conn
                .exchange(&packets, Framing::Batch(chunk), DATA, Duration::from_secs(5))
                .unwrap();
            prop_assert_eq!(out.len(), n);
            for (i, response) in out.iter().enumerate() {
                prop_assert_eq!(response.payload.as_ref(), format!("p/id{i}").as_bytes());
            }
            server.join().unwrap();
        }
    }
}
