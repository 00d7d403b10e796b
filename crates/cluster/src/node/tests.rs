use super::route::CacheFill;
use super::*;
use crate::client::ClientConfig;
use crate::frame::{self, Body, FrameDecoder, MUX_PREAMBLE};
use crate::pipelined::{Framing, PipeConn, PIPELINE_CHUNK};
use crate::proto;
use gred_dataplane::{Cacheable, NeighborEntry, Packet, PacketKind, ResponseStatus};
use gred_geometry::Point2;
use gred_net::ServerId;
use gred_runtime::reactor::WriteQueue;
use std::io::Read;
use std::net::TcpStream;
use std::sync::mpsc;

pub(crate) fn test_config() -> NodeConfig {
    NodeConfig {
        log_dir: None,
        ..NodeConfig::default()
    }
}

/// Runs `f` on `node`'s reactor-owned state, between two event batches.
fn on_state<R: Send + 'static>(node: &Node, f: impl FnOnce(&mut State) -> R + Send + 'static) -> R {
    node.ask(move |r| f(&mut r.state))
        .expect("the reactor is running")
}

pub(crate) fn spawn_single(server_count: usize) -> Node {
    let plane = SwitchDataplane::new(0, Point2::new(0.5, 0.5), server_count);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    Node::spawn(0, plane, vec![addr], listener, test_config()).unwrap()
}

/// Switch 0 of a two-switch network whose only neighbor, switch 1 at
/// `peer`, is closer to every id: each request is forwarded there.
pub(crate) fn forwarder(peer: SocketAddr, cfg: NodeConfig) -> Node {
    let mut plane = SwitchDataplane::new(0, Point2::new(9.0, 9.0), 1);
    plane.install_neighbor(NeighborEntry {
        neighbor: 1,
        position: Point2::new(0.5, 0.5),
        via: 1,
        physical: true,
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    Node::spawn(0, plane, vec![addr, peer], listener, cfg).unwrap()
}

/// Plays switch 1 for a [`forwarder`]: accepts one GMUX link and
/// hands each decoded `(corr, request)` to `answer`, writing back
/// whatever `(corr, response)` frames it returns.
pub(crate) fn scripted_peer(
    listener: &TcpListener,
    mut answer: impl FnMut(u64, Packet) -> Vec<(u64, Packet)>,
) {
    let (mut stream, _) = listener.accept().unwrap();
    stream.set_nodelay(true).unwrap();
    let mut preamble = [0u8; 4];
    stream.read_exact(&mut preamble).unwrap();
    assert_eq!(preamble, MUX_PREAMBLE);
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        decoder.feed(&buf[..n]);
        while let Some(body) = decoder.next_frame().unwrap() {
            let (corr, Body::One(request)) = frame::read_call(&body).unwrap() else {
                panic!("the forwarder sends single packets");
            };
            for (corr, response) in answer(corr, request) {
                stream.write_all(&call(corr, &response)).unwrap();
            }
        }
    }
}

/// Runs `test` against the address of a listener that `peer` serves
/// on a scoped thread. The peer must return once the node under test
/// hangs up; the scope joins it.
pub(crate) fn with_peer(peer: impl FnOnce(TcpListener) + Send, test: impl FnOnce(SocketAddr)) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    thread::scope(|scope| {
        scope.spawn(move || peer(listener));
        test(addr);
    });
}

/// One bare call frame carrying `packet` under `corr`.
pub(crate) fn call(corr: u64, packet: &Packet) -> Vec<u8> {
    let mut out = Vec::new();
    frame::write_call(&mut out, corr, std::slice::from_ref(packet), false);
    out
}

/// What a dialer opens with: the hello, then `packet` as its first
/// call.
fn hello(packet: &Packet) -> Vec<u8> {
    [&MUX_PREAMBLE[..], &call(1, packet)].concat()
}

pub(crate) fn read_reply(stream: &mut TcpStream) -> Packet {
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(body) = decoder.next_frame().unwrap() {
            let (_, Body::One(reply)) = frame::read_call(&body).unwrap() else {
                panic!("a bare request is answered bare");
            };
            return reply;
        }
        let n = stream.read(&mut buf).unwrap();
        assert_ne!(n, 0, "node closed the connection without responding");
        decoder.feed(&buf[..n]);
    }
}

pub(crate) fn roundtrip(addr: SocketAddr, packet: &Packet) -> Packet {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&hello(packet)).unwrap();
    read_reply(&mut stream)
}

#[test]
fn single_node_place_then_retrieve() {
    let mut node = spawn_single(2);
    let id = DataId::new("solo");
    // With no neighbors the node is always closest: local delivery.
    let ack = roundtrip(node.addr(), &Packet::placement(id.clone(), b"v".as_ref()));
    assert_eq!(ack.kind, PacketKind::RetrievalResponse);
    assert_eq!(ack.status, gred_dataplane::ResponseStatus::Ok);
    let server = proto::parse_ack(&ack.payload).expect("ack names the server");
    assert_eq!(server.switch, 0);
    assert_eq!(server.index, gred_hash::select_server(&id, 2));

    let got = roundtrip(node.addr(), &Packet::retrieval(id.clone()));
    assert_eq!(got.payload.as_ref(), b"v");
    assert_eq!(got.hops, 0, "no physical hop on local delivery");

    let miss = roundtrip(node.addr(), &Packet::retrieval(DataId::new("absent")));
    assert_eq!(miss.status, gred_dataplane::ResponseStatus::NotFound);

    let report = node.shutdown();
    assert_eq!(report.requests, 3);
    assert_eq!(report.errors, 0);
    assert_eq!(report.stored_items, 1);
    assert_eq!(report.workers_joined, 1, "the reactor is the whole node");
    assert_eq!(report.hot.frames_decoded, 3);
}

#[test]
fn a_dialer_without_the_preamble_is_closed_not_served() {
    let mut node = spawn_single(1);
    // What the retired plain protocol opened with: a bare
    // length-prefixed `Retrieval` frame.
    let mut stranger = TcpStream::connect(node.addr()).unwrap();
    let bare = crate::frame::encode_frame(&gred_dataplane::encode(&Packet::retrieval(
        DataId::new("k"),
    )));
    stranger.write_all(&bare).unwrap();
    let mut answer = Vec::new();
    // A reset is as closed as a FIN; what matters is that no byte
    // was ever sent back.
    let _ = stranger.read_to_end(&mut answer);
    assert!(answer.is_empty(), "the node answered {answer:?}");
    while node.open_connections() != 0 {
        thread::yield_now();
    }
    // The node itself is unharmed: the next dialer that says hello
    // is served.
    let reply = roundtrip(node.addr(), &Packet::retrieval(DataId::new("k")));
    assert_eq!(reply.status, ResponseStatus::NotFound);
    let report = node.shutdown();
    assert_eq!(report.errors, 1, "the refusal is counted");
    assert_eq!(report.requests, 1, "only the second dialer was served");
}

#[test]
fn a_preamble_split_across_four_writes_is_accepted() {
    let mut node = spawn_single(1);
    let mut stream = TcpStream::connect(node.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    for byte in MUX_PREAMBLE {
        stream.write_all(&[byte]).unwrap();
        thread::sleep(Duration::from_millis(2)); // one segment each
    }
    stream
        .write_all(&call(9, &Packet::retrieval(DataId::new("k"))))
        .unwrap();
    assert_eq!(read_reply(&mut stream).status, ResponseStatus::NotFound);
    let report = node.shutdown();
    assert_eq!((report.requests, report.errors), (1, 0));
}

#[test]
fn invalidate_frames_drop_cached_entries_inline() {
    let mut node = spawn_single(1);
    let id = DataId::new("inv-key");
    // Seed the read cache directly (a single node never forwards,
    // so the population path cannot run here).
    let seed = id.clone();
    assert!(on_state(&node, move |state| {
        let token = state.cache.begin_read(&seed);
        state
            .cache
            .insert_if_fresh(token, seed, Bytes::from_static(b"v"))
    }));
    let resp = roundtrip(node.addr(), &Packet::invalidate(id.clone()));
    assert_eq!(resp.status, gred_dataplane::ResponseStatus::Ok);
    assert!(resp.payload.is_empty());
    let cached = on_state(&node, move |state| state.cache.get(&id));
    assert!(cached.is_none(), "the entry is dropped");
    let report = node.shutdown();
    assert_eq!(report.hot.invalidations_rx, 1);
    assert_eq!(report.requests, 0, "coherence traffic is not a request");
    assert_eq!(report.errors, 0);
}

#[test]
fn detoured_or_redirected_responses_never_populate_the_cache() {
    let mut node = spawn_single(1);
    let id = DataId::new("detour-no-fill");
    // Offers `resp` to the cache as the answer to a forwarded read, and
    // returns what the cache then holds for the id.
    let offer = |resp: Packet| {
        let id = id.clone();
        on_state(&node, move |state| {
            let token = state.cache.begin_read(&id);
            let fill = CacheFill {
                id: id.clone(),
                token,
                access: true,
            };
            state.maybe_cache(Some(fill), &resp);
            state.cache.get(&id)
        })
    };

    let mut degraded = Packet::response(id.clone(), b"stale".as_ref());
    degraded.status = gred_dataplane::ResponseStatus::Degraded;
    degraded.detours = 1;
    assert!(
        offer(degraded).is_none(),
        "a degraded (detoured) read must never populate the cache"
    );
    assert!(
        offer(Packet::redirect_response(id.clone())).is_none(),
        "a redirected read must never populate the cache"
    );
    assert!(
        offer(Packet::not_found(id.clone())).is_none(),
        "misses are not cached"
    );

    // The clean authoritative answer is the only one admitted.
    let ok = Packet::response(id.clone(), b"fresh".as_ref());
    assert_eq!(offer(ok).expect("clean hit cached").as_ref(), b"fresh");
    node.shutdown();
}

#[test]
fn transit_node_refuses_greedy_requests() {
    let plane = SwitchDataplane::transit(0);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut node = Node::spawn(0, plane, vec![addr], listener, test_config()).unwrap();
    let resp = roundtrip(node.addr(), &Packet::retrieval(DataId::new("k")));
    assert_eq!(resp.status, gred_dataplane::ResponseStatus::Error);
    let report = node.shutdown();
    assert_eq!(report.errors, 1);
}

#[test]
fn misaddressed_packets_get_error_responses_not_hangs() {
    let mut node = spawn_single(1);
    // Server-addressed to a different switch.
    let wrong = proto::address_to_server(
        Packet::retrieval(DataId::new("k")),
        ServerId {
            switch: 9,
            index: 0,
        },
    );
    assert_eq!(
        roundtrip(node.addr(), &wrong).status,
        gred_dataplane::ResponseStatus::Error
    );
    // A response packet arriving as a request.
    let bogus = Packet::response(DataId::new("k"), b"x".as_ref());
    assert_eq!(
        roundtrip(node.addr(), &bogus).status,
        gred_dataplane::ResponseStatus::Error
    );
    node.shutdown();
}

#[test]
fn shutdown_is_idempotent_and_drains_workers() {
    let mut node = spawn_single(1);
    let addr = node.addr();
    let _ = roundtrip(addr, &Packet::retrieval(DataId::new("k")));
    let first = node.shutdown();
    assert_eq!(first.workers_joined, 1);
    let second = node.shutdown();
    assert_eq!(second.workers_joined, 0, "workers join exactly once");
    // The listener is closed: new connections are refused.
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
}

/// Every accessor of a node whose reactor has exited returns at once:
/// with an empty value while the reactor is drained but not joined, and
/// from its final report once joined.
#[test]
fn accessors_after_the_reactor_exits_answer_without_waiting() {
    let mut node = spawn_single(1);
    node.preload(DataId::new("k"), 0, Bytes::from_static(b"v"));
    let _ = roundtrip(node.addr(), &Packet::retrieval(DataId::new("k")));
    node.request_shutdown();
    let reactor = node.reactor.as_ref().expect("not joined yet");
    while !reactor.is_finished() {
        thread::yield_now();
    }
    let check = |node: &Node, stored: usize, hot: NodeHotStats| {
        assert_eq!(node.stored_items(), stored);
        assert_eq!(node.hot_stats(), hot);
        assert_eq!(node.packets_processed(), 0);
        assert_eq!(node.stats_snapshot(), StatsSnapshot::default());
        assert_eq!(node.suspect_peers(), Vec::<usize>::new());
        assert_eq!(node.extract_items(|_| true), Vec::new());
        assert_eq!(node.open_connections(), 0);
        assert_eq!(node.parked_continuations(), 0);
        node.install_plane(SwitchDataplane::new(0, Point2::new(0.5, 0.5), 1));
        node.register_peer(1, node.addr());
        node.preload(DataId::new("late"), 0, Bytes::new());
        node.request_shutdown();
    };
    check(&node, 0, NodeHotStats::default());
    let report = node.shutdown();
    assert_eq!((report.workers_joined, report.stored_items), (1, 1));
    assert_eq!(report.requests, 1);
    check(&node, 1, report.hot);
    assert_eq!(
        node.shutdown(),
        NodeReport {
            workers_joined: 0,
            ..report
        }
    );
}

#[test]
fn mux_batch_call_round_trips_through_a_node() {
    let mut node = spawn_single(1);
    let mut link = PipeConn::connect(node.addr(), &ClientConfig::default()).unwrap();
    let places: Vec<Packet> = (0..5)
        .map(|i| Packet::placement(DataId::new(format!("mb/{i}")), format!("v{i}")))
        .collect();
    let acks = link
        .exchange(
            &places,
            Framing::Batch(PIPELINE_CHUNK),
            PacketKind::RetrievalResponse,
            Duration::from_secs(5),
        )
        .unwrap();
    assert!(acks
        .iter()
        .all(|a| a.status == gred_dataplane::ResponseStatus::Ok));
    let gets: Vec<Packet> = (0..5)
        .map(|i| Packet::retrieval(DataId::new(format!("mb/{i}"))))
        .collect();
    let replies = link
        .exchange(
            &gets,
            Framing::Batch(PIPELINE_CHUNK),
            PacketKind::RetrievalResponse,
            Duration::from_secs(5),
        )
        .unwrap();
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(reply.id, gets[i].id, "responses keep request order");
        assert_eq!(reply.payload.as_ref(), format!("v{i}").as_bytes());
    }
    // Inside one container the packets are served in order: a read
    // sees the write ahead of it, and a miss keeps its place.
    let mixed = vec![
        Packet::placement(DataId::new("batch/a"), b"va".as_ref()),
        Packet::placement(DataId::new("batch/b"), b"vb".as_ref()),
        Packet::retrieval(DataId::new("batch/a")),
        Packet::retrieval(DataId::new("absent")),
    ];
    let replies = link
        .exchange(
            &mixed,
            Framing::Batch(PIPELINE_CHUNK),
            PacketKind::RetrievalResponse,
            Duration::from_secs(5),
        )
        .unwrap();
    assert_eq!(replies.len(), 4, "one response per request, in order");
    assert_eq!(replies[0].status, gred_dataplane::ResponseStatus::Ok);
    assert_eq!(replies[1].status, gred_dataplane::ResponseStatus::Ok);
    assert_eq!(replies[2].payload.as_ref(), b"va");
    assert_eq!(replies[3].status, gred_dataplane::ResponseStatus::NotFound);
    let report = node.shutdown();
    assert_eq!(report.requests, 14, "each batched packet counts once");
    assert_eq!(report.stored_items, 7);
    assert_eq!(report.errors, 0);
}

#[test]
fn node_serves_the_mux_protocol_with_interleaved_requests() {
    // Drive a node over one GMUX connection — the same protocol
    // peers use — with every request in flight at once under its
    // own correlation id.
    let mut node = spawn_single(1);
    let mut link = PipeConn::connect(node.addr(), &ClientConfig::default()).unwrap();
    let places: Vec<Packet> = (0..4)
        .map(|t| Packet::placement(DataId::new(format!("mux-{t}")), format!("value-{t}")))
        .collect();
    let acks = link
        .exchange(
            &places,
            Framing::Batch(1),
            PacketKind::RetrievalResponse,
            Duration::from_secs(5),
        )
        .unwrap();
    assert!(acks
        .iter()
        .all(|a| a.status == gred_dataplane::ResponseStatus::Ok));
    let gets: Vec<Packet> = (0..4)
        .map(|t| Packet::retrieval(DataId::new(format!("mux-{t}"))))
        .collect();
    let replies = link
        .exchange(
            &gets,
            Framing::Batch(1),
            PacketKind::RetrievalResponse,
            Duration::from_secs(5),
        )
        .unwrap();
    for (t, reply) in replies.iter().enumerate() {
        assert_eq!(reply.id, gets[t].id);
        assert_eq!(reply.payload.as_ref(), format!("value-{t}").as_bytes());
    }
    let report = node.shutdown();
    assert_eq!(report.requests, 8);
    assert_eq!(report.errors, 0);
    assert_eq!(report.stored_items, 4);
}

#[test]
fn evicted_cache_entry_is_forwarded_not_redirected() {
    // The reactor used to answer a remote-destined read inline only
    // after peeking `cache.contains`; an entry evicted between that
    // peek and the real probe came back as a spurious `Redirect`.
    // Forwards are legal on the reactor now: a vanished entry is
    // simply a miss, and a miss is forwarded.
    let owner = |listener: TcpListener| {
        scripted_peer(&listener, |corr, request| {
            vec![(corr, Packet::response(request.id, b"owned".as_ref()))]
        });
    };
    with_peer(owner, |peer_addr| {
        let mut node = forwarder(peer_addr, test_config());
        let id = DataId::new("raced-key");
        let read = Packet::retrieval(id.clone());
        assert_eq!(roundtrip(node.addr(), &read).payload.as_ref(), b"owned");
        let cached = on_state(&node, |state| state.cache.len());
        assert_eq!(cached, 1, "the forward filled the cache");
        assert_eq!(roundtrip(node.addr(), &read).payload.as_ref(), b"owned");
        assert_eq!(node.hot_stats().cache_hits, 1, "the second read is a hit");
        // Evict, as a racing invalidation or CLOCK sweep would.
        let evict = id.clone();
        on_state(&node, move |state| state.cache.invalidate(&evict));
        let reply = roundtrip(node.addr(), &read);
        assert_eq!(reply.status, ResponseStatus::Ok);
        assert_eq!(reply.payload.as_ref(), b"owned");
        let report = node.shutdown();
        assert_eq!(report.forwarded, 2, "miss, hit, evicted miss");
        assert_eq!(report.hot.redirects_issued, 0);
        assert_eq!(report.errors, 0);
    });
}

#[test]
fn accept_errors_pause_the_listener_without_stalling_parked_forwards() {
    // The owner answers only when told to, so the forward stays
    // parked while the listener is driven into its error state.
    let (release, released) = mpsc::channel::<()>();
    let owner = move |listener: TcpListener| {
        scripted_peer(&listener, |corr, request| {
            released.recv().unwrap();
            vec![(corr, Packet::response(request.id, b"late".as_ref()))]
        });
    };
    with_peer(owner, |peer_addr| {
        let mut node = forwarder(peer_addr, test_config());
        let mut first = TcpStream::connect(node.addr()).unwrap();
        let read = hello(&Packet::retrieval(DataId::new("k")));
        first.write_all(&read).unwrap();
        while node.parked_continuations() == 0 {
            thread::yield_now();
        }
        // Every accept now fails EMFILE-style. A second client dials in:
        // the kernel completes its handshake, the reactor's accept fails.
        let faults = |node: &Node| node.ask(|r| r.accept_faults).unwrap();
        node.ask(|r| r.accept_faults = usize::MAX);
        let mut second = TcpStream::connect(node.addr()).unwrap();
        second.write_all(&read).unwrap();
        while faults(&node) == usize::MAX {
            thread::yield_now();
        }
        // The parked forward completes while accepts keep failing.
        release.send(()).unwrap();
        assert_eq!(read_reply(&mut first).payload.as_ref(), b"late");
        assert!(faults(&node) > 0);
        assert_eq!(node.open_connections(), 1, "the second dial still waits");
        // Once accepts succeed again the deadline queue re-arms the
        // listener and the waiting client is served.
        node.ask(|r| r.accept_faults = 0);
        release.send(()).unwrap();
        assert_eq!(read_reply(&mut second).payload.as_ref(), b"late");
        let report = node.shutdown();
        assert_eq!(report.errors, 0);
    });
}

#[test]
fn late_completion_after_origin_slot_reuse_is_dropped() {
    let (release, released) = mpsc::channel::<()>();
    let owner = move |listener: TcpListener| {
        scripted_peer(&listener, |corr, request| {
            released.recv().unwrap();
            let payload = request.id.as_bytes().to_vec();
            vec![(corr, Packet::response(request.id, payload))]
        });
    };
    with_peer(owner, |peer_addr| {
        let mut node = forwarder(peer_addr, test_config());
        // The first client parks a forward over a mux connection (served
        // frame by frame), then kills that connection with a framing
        // violation (an oversized length prefix).
        let mut doomed = TcpStream::connect(node.addr()).unwrap();
        let mut bytes = hello(&Packet::retrieval(DataId::new("doomed")));
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        doomed.write_all(&bytes).unwrap();
        while node.parked_continuations() == 0 || node.open_connections() != 0 {
            thread::yield_now();
        }
        assert_eq!(node.parked_continuations(), 1, "the forward outlives it");
        // The next connection moves into the vacated slot.
        let mut heir = TcpStream::connect(node.addr()).unwrap();
        while node.open_connections() != 1 {
            thread::yield_now();
        }
        release.send(()).unwrap();
        while node.parked_continuations() != 0 {
            thread::yield_now();
        }
        // The late completion died by generation: the heir reads only
        // the answer to its own request, never the doomed one's.
        let own = hello(&Packet::retrieval(DataId::new("heir")));
        heir.write_all(&own).unwrap();
        release.send(()).unwrap();
        let reply = read_reply(&mut heir);
        assert_eq!(reply.id, DataId::new("heir"));
        assert_eq!(reply.payload.as_ref(), b"heir");
        // Nothing leaked: a drain with a call still open would sit out
        // the whole reply timeout.
        let started = Instant::now();
        let report = node.shutdown();
        assert!(started.elapsed() < Duration::from_secs(2), "a call leaked");
        assert_eq!(report.forwarded, 2);
    });
}

#[test]
fn one_byte_at_a_time_peer_response_completes_byte_exactly() {
    use crate::frame::tests::{drain_queue, Throttled};
    let payload: Vec<u8> = (0..700u32).map(|i| (i * 31 % 251) as u8).collect();
    let expected = payload.clone();
    let dribbler = move |listener: TcpListener| {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 4096];
        let mut skip = MUX_PREAMBLE.len();
        let body = loop {
            let n = stream.read(&mut buf).unwrap();
            let fresh = &buf[skip.min(n)..n];
            skip -= skip.min(n);
            decoder.feed(fresh);
            if let Some(body) = decoder.next_frame().unwrap() {
                break body;
            }
        };
        let (corr, Body::One(request)) = frame::read_call(&body).unwrap() else {
            panic!("the forwarder sends single packets");
        };
        // The response leaves through the worst sink there is — one
        // byte accepted, one write refused, forever — and reaches
        // the node one byte per segment.
        let out = call(corr, &Packet::response(request.id, payload));
        let mut queue = WriteQueue::new();
        let mut sink = Throttled::new(1);
        queue.send(&mut sink, &out).unwrap();
        drain_queue(&mut queue, &mut sink);
        for byte in sink.out {
            stream.write_all(&[byte]).unwrap();
        }
        let _ = stream.read(&mut buf); // hold the link until the node hangs up
    };
    with_peer(dribbler, |peer_addr| {
        let mut node = forwarder(peer_addr, test_config());
        let reply = roundtrip(node.addr(), &Packet::retrieval(DataId::new("dribble")));
        assert_eq!(reply.status, ResponseStatus::Ok);
        assert_eq!(reply.payload.as_ref(), &expected[..]);
        assert_eq!(node.parked_continuations(), 0);
        let report = node.shutdown();
        assert_eq!(report.hot.frames_decoded, 2, "one request, one response");
    });
}

/// A star: switch 0 owns every id and has no neighbors; switches
/// `1..n` each know only switch 0, which is closer to every id, so a
/// read entering at `k` is forwarded to 0 stamped with `k`.
fn star(n: usize, cfg: &NodeConfig) -> Vec<Node> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    listeners
        .into_iter()
        .enumerate()
        .map(|(id, listener)| {
            let plane = if id == 0 {
                SwitchDataplane::new(0, Point2::new(0.5, 0.5), 1)
            } else {
                let mut plane = SwitchDataplane::new(id, Point2::new(9.0, 9.0), 1);
                plane.install_neighbor(NeighborEntry {
                    neighbor: 0,
                    position: Point2::new(0.5, 0.5),
                    via: 0,
                    physical: true,
                });
                plane
            };
            Node::spawn(id, plane, addrs.clone(), listener, cfg.clone()).unwrap()
        })
        .collect()
}

/// Writes `value` through the owner and returns its ack status with the
/// invalidations each node received for it.
fn write(nodes: &[Node], id: &DataId, value: &str) -> (ResponseStatus, Vec<u64>) {
    let rx = || -> Vec<u64> {
        nodes
            .iter()
            .map(|n| n.hot_stats().invalidations_rx)
            .collect()
    };
    let before = rx();
    let ack = roundtrip(nodes[0].addr(), &Packet::placement(id.clone(), value));
    let got = rx().iter().zip(before).map(|(a, b)| a - b).collect();
    (ack.status, got)
}

fn read_via(node: &Node, id: &DataId) -> Bytes {
    let reply = roundtrip(node.addr(), &Packet::retrieval(id.clone()));
    assert_eq!(reply.status, ResponseStatus::Ok);
    reply.payload
}

#[test]
fn an_overwrite_invalidates_exactly_the_old_sharers() {
    let mut nodes = star(4, &test_config());
    let id = DataId::new("shared");
    assert_eq!(
        write(&nodes, &id, "v1"),
        (ResponseStatus::Ok, vec![0, 1, 1, 1])
    );
    read_via(&nodes[1], &id);
    read_via(&nodes[2], &id);
    assert_eq!(
        write(&nodes, &id, "v2"),
        (ResponseStatus::Ok, vec![0, 1, 1, 0])
    );
    // The clean write settled: only readers of v2 are owed the next one.
    assert_eq!(read_via(&nodes[3], &id).as_ref(), b"v2");
    assert_eq!(
        write(&nodes, &id, "v3"),
        (ResponseStatus::Ok, vec![0, 0, 0, 1])
    );
    assert_eq!(write(&nodes, &id, "v4"), (ResponseStatus::Ok, vec![0; 4]));
    for node in &mut nodes {
        assert_eq!(node.shutdown().errors, 0);
    }
}

#[test]
fn writes_with_unknown_sharers_broadcast() {
    let mut nodes = star(3, &test_config());
    let everyone = (ResponseStatus::Ok, vec![0, 1, 1]);
    // A first insert: no old copy to know the readers of.
    let id = DataId::new("fresh");
    assert_eq!(write(&nodes, &id, "v1"), everyone);
    // A preloaded item, and one migrated in (extracted, then preloaded).
    let preloaded = DataId::new("preloaded");
    nodes[0].preload(preloaded.clone(), 0, Bytes::from_static(b"p"));
    // Its readers are unknown: any switch may cache it until it is
    // written, and the write reaches them all.
    let cacheable = |id: &DataId| {
        let read = Packet::retrieval(id.clone());
        roundtrip(nodes[0].addr(), &read).cacheable
    };
    assert_eq!(cacheable(&preloaded), Cacheable::Anywhere);
    assert_eq!(write(&nodes, &preloaded, "v1"), everyone);
    assert_eq!(cacheable(&preloaded), Cacheable::BySharer);
    let moved = nodes[0].extract_items(|k| *k == preloaded);
    for (k, payload) in moved {
        nodes[0].preload(k, 0, payload);
    }
    assert_eq!(write(&nodes, &preloaded, "v2"), everyone);
    // A server-addressed (range extension) write, though `id` has no
    // readers: the copies it supersedes may live on another switch.
    let server = ServerId {
        switch: 0,
        index: 0,
    };
    let addressed = proto::address_to_server(Packet::placement(id.clone(), "v2"), server);
    let before = nodes[1].hot_stats().invalidations_rx;
    assert_eq!(
        roundtrip(nodes[0].addr(), &addressed).status,
        ResponseStatus::Ok
    );
    assert_eq!(nodes[1].hot_stats().invalidations_rx - before, 1);
    for node in &mut nodes {
        assert_eq!(node.shutdown().errors, 0);
    }
}

#[test]
fn only_a_suspect_sharer_degrades_the_ack() {
    let mut nodes = star(4, &test_config());
    let id = DataId::new("suspects");
    write(&nodes, &id, "v1");
    read_via(&nodes[1], &id);
    on_state(&nodes[0], |state| state.mark_suspect(3));
    assert_eq!(
        write(&nodes, &id, "v2"),
        (ResponseStatus::Ok, vec![0, 1, 0, 0])
    );
    read_via(&nodes[1], &id);
    on_state(&nodes[0], |state| state.mark_suspect(1));
    assert_eq!(
        write(&nodes, &id, "v3"),
        (ResponseStatus::Degraded, vec![0; 4])
    );
    for node in &mut nodes {
        node.shutdown();
    }
}

#[test]
fn only_a_caching_access_node_stamps_itself_as_sharer() {
    for (cache_bytes, stamp) in [(0, None), (test_config().cache_bytes, Some(0))] {
        let (seen, stamps) = mpsc::channel();
        let owner = move |listener: TcpListener| {
            scripted_peer(&listener, |corr, request| {
                seen.send(request.sharer).unwrap();
                vec![(corr, Packet::response(request.id, b"v".as_ref()))]
            });
        };
        with_peer(owner, |peer_addr| {
            let cfg = NodeConfig {
                cache_bytes,
                ..test_config()
            };
            let mut node = forwarder(peer_addr, cfg);
            roundtrip(node.addr(), &Packet::retrieval(DataId::new("k")));
            node.shutdown();
        });
        assert_eq!(stamps.recv().unwrap(), stamp, "cache_bytes = {cache_bytes}");
    }
}

#[test]
fn a_transit_node_serves_and_keeps_only_untracked_copies() {
    let owner = |listener: TcpListener| {
        scripted_peer(&listener, |corr, request| {
            // One hop from the client: the forwarder was the access node.
            let stamp = (request.hops == 1).then_some(0);
            assert_eq!(request.sharer, stamp, "only the access node stamps");
            let mut reply = Packet::response(request.id.clone(), b"v".as_ref());
            if request.id == DataId::new("untracked") {
                reply.cacheable = Cacheable::Anywhere;
            }
            vec![(corr, reply)]
        });
    };
    with_peer(owner, |peer_addr| {
        let mut node = forwarder(peer_addr, test_config());
        let in_transit = |key: &str| {
            let mut read = Packet::retrieval(DataId::new(key));
            read.hops = 1;
            roundtrip(node.addr(), &read)
        };
        assert_eq!(in_transit("tracked").cacheable, Cacheable::BySharer);
        assert_eq!(in_transit("untracked").cacheable, Cacheable::Anywhere);
        let cached = on_state(&node, |state| state.cache.len());
        assert_eq!(cached, 1, "only the untracked copy is kept");
        let hit = in_transit("untracked");
        assert_eq!(hit.payload.as_ref(), b"v");
        assert_eq!(hit.cacheable, Cacheable::WhenPristine, "marked a cache's");
        // The access node's own tracked copy is never lent out in transit.
        let access = roundtrip(node.addr(), &Packet::retrieval(DataId::new("tracked")));
        assert_eq!(
            access.cacheable,
            Cacheable::BySharer,
            "forwarded, then kept"
        );
        assert_eq!(in_transit("tracked").cacheable, Cacheable::BySharer);
        let report = node.shutdown();
        assert_eq!(report.forwarded, 4, "every read but the one transit hit");
    });
}

#[test]
fn a_cache_answer_fills_only_a_pristine_shard() {
    let mut node = spawn_single(1);
    let id = DataId::new("k");
    // Offers a cache's answer for the id; returns the entries kept.
    let offer = || {
        let id = id.clone();
        on_state(&node, move |state| {
            let mut cached = Packet::response(id.clone(), b"v".as_ref());
            cached.cacheable = Cacheable::WhenPristine;
            let token = state.cache.begin_read(&id);
            let fill = CacheFill {
                id,
                token,
                access: true,
            };
            state.maybe_cache(Some(fill), &cached);
            state.cache.len()
        })
    };
    assert_eq!(offer(), 1, "a pristine shard keeps it");
    roundtrip(node.addr(), &Packet::invalidate(id.clone()));
    assert_eq!(offer(), 0, "a shard a write reached does not");
    node.shutdown();
}

#[test]
fn an_owner_records_only_sharers_from_its_peer_table() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let plane = SwitchDataplane::new(0, Point2::new(0.5, 0.5), 1);
    let mut node = Node::spawn(0, plane, vec![addr; 3], listener, test_config()).unwrap();
    let id = DataId::new("k");
    let item = StoredItem {
        index: 0,
        payload: Bytes::from_static(b"v"),
        serial: 0,
        readers: Sharers::NONE,
        pending: Sharers::NONE,
    };
    let stored = id.clone();
    on_state(&node, move |state| state.store.insert(stored, item));
    for sharer in [9, 0, 2, u32::MAX as usize] {
        let mut read = Packet::retrieval(id.clone());
        read.sharer = Some(sharer);
        assert_eq!(roundtrip(addr, &read).payload.as_ref(), b"v");
    }
    let readers = on_state(&node, move |state| state.store[&id].readers);
    assert_eq!(readers.known(), Some(&[2][..]), "only peer 2 is a sharer");
    node.shutdown();
}

#[test]
fn a_sharer_set_overflows_into_all() {
    let mut set = Sharers::NONE;
    for id in 0..SHARER_SLOTS as u32 {
        set.add(id);
        set.add(id);
    }
    assert_eq!(set.known().map(<[u32]>::len), Some(SHARER_SLOTS));
    assert_eq!(Sharers::NONE.union(set), set);
    set.add(99);
    assert_eq!(set, Sharers::All);
    assert_eq!(Sharers::NONE.union(Sharers::All), Sharers::All);
}

/// Every answer a node builds echoes its request's position, which is
/// `H(id)`: a node answers without hashing, so a position it failed to
/// carry over would show here.
#[test]
fn every_answer_carries_its_requests_position() {
    let hashed = |reply: &Packet| {
        let (x, y) = gred_hash::virtual_position(&reply.id);
        assert_eq!(reply.position, Point2::new(x, y), "{reply:?}");
    };

    let mut owner = spawn_single(1);
    let id = DataId::new("pos/owned");
    let ask = |request: Packet| {
        let reply = roundtrip(owner.addr(), &request);
        hashed(&reply);
        reply
    };
    let ack = ask(Packet::placement(id.clone(), "v"));
    assert_eq!(proto::parse_ack(&ack.payload).map(|s| s.switch), Some(0));
    assert_eq!(ask(Packet::retrieval(id.clone())).payload.as_ref(), b"v");
    let miss = ask(Packet::retrieval(DataId::new("pos/absent")));
    assert_eq!(miss.status, ResponseStatus::NotFound);
    let inv = ask(Packet::invalidate(id.clone()));
    assert_eq!(
        (inv.kind, inv.status),
        (PacketKind::RetrievalResponse, ResponseStatus::Ok)
    );
    let refused = ask(Packet::response(id, b"x".as_ref()));
    assert_eq!(refused.status, ResponseStatus::Error);
    assert_eq!(owner.shutdown().errors, 1);

    // Behind a forwarder: the peer owns every id and answers with an
    // untracked copy, which the access node and a transit node both keep.
    let peer = |listener: TcpListener| {
        scripted_peer(&listener, |corr, request| {
            let mut reply = Packet::response(request.id, b"v".as_ref());
            reply.cacheable = Cacheable::Anywhere;
            vec![(corr, reply)]
        });
    };
    with_peer(peer, |peer_addr| {
        let cfg = NodeConfig {
            suspect_ttl: Duration::from_secs(60),
            ..test_config()
        };
        let max_detours = cfg.max_detours;
        let mut node = forwarder(peer_addr, cfg);
        let ask = |request: Packet| {
            let reply = roundtrip(node.addr(), &request);
            hashed(&reply);
            reply
        };
        let access = Packet::retrieval(DataId::new("pos/access"));
        ask(access.clone());
        assert_eq!(ask(access).payload.as_ref(), b"v", "an access hit");
        let mut transit = Packet::retrieval(DataId::new("pos/transit"));
        transit.hops = 1;
        ask(transit.clone());
        assert_eq!(ask(transit).cacheable, Cacheable::WhenPristine);
        assert_eq!(node.hot_stats().cache_hits, 2);
        // With its only neighbor suspect the walk detours, and a request
        // with no detour budget left is redirected.
        on_state(&node, |state| state.mark_suspect(1));
        let mut spent = Packet::retrieval(DataId::new("pos/redirect"));
        spent.detours = max_detours;
        assert_eq!(ask(spent).status, ResponseStatus::Redirect);
        node.shutdown();
    });
}
