//! The node's continuation state machine, end to end over real sockets.
//!
//! A node is one reactor thread; every forward and every invalidation
//! is a continuation parked on that thread, never a blocked worker. The
//! tests here pin what that buys and what it must not lose:
//!
//! - a 16-node cluster under pipelined forwarded and write load is
//!   exactly 16 threads,
//! - a relay path that crosses the same directed link twice — the case
//!   that self-deadlocks a design which waits on its links — completes
//!   with 64 requests in flight,
//! - a black-holed link costs exactly one reply timeout: the parked
//!   continuation expires, reads are redirected, the write's ack is
//!   degraded, the peer is suspect, and nothing stays parked.
//!
//! The tests share one lock: the first counts the process's threads.

use gred::plane::forwarding::route;
use gred::{GredConfig, GredNetwork};
use gred_cluster::frame::{read_call, write_call, Body, FrameDecoder, MUX_PREAMBLE};
use gred_cluster::{
    chaos_cluster_config, ChaosFabric, Cluster, ClusterConfig, LinkMode, Node, NodeConfig,
};
use gred_dataplane::{DtTuple, NeighborEntry, Packet, ResponseStatus, SwitchDataplane};
use gred_geometry::Point2;
use gred_hash::DataId;
use gred_net::{waxman_topology, ServerPool, WaxmanConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

const SEED: u64 = 2019;
const SWITCHES: usize = 16;

fn build_network() -> GredNetwork {
    let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(SWITCHES, SEED));
    let pool = ServerPool::uniform(SWITCHES, 2, u64::MAX);
    let cfg = GredConfig {
        auto_extend: false,
        ..GredConfig::with_iterations(8).seeded(SEED)
    };
    GredNetwork::build(topo, pool, cfg).expect("seeded network builds")
}

fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .expect("status lists Threads");
    line["Threads:".len()..].trim().parse().expect("a count")
}

/// One lockstep request over a fresh connection, raw status and all
/// (the `Client` would retry a `Redirect` away).
fn roundtrip(addr: SocketAddr, packet: &Packet) -> Packet {
    let mut stream = TcpStream::connect(addr).expect("node accepts");
    let mut request = MUX_PREAMBLE.to_vec();
    write_call(&mut request, 1, std::slice::from_ref(packet), false);
    stream.write_all(&request).expect("request written");
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(body) = decoder.next_frame().expect("well-framed response") {
            let (_, Body::One(reply)) = read_call(&body).expect("a call frame") else {
                panic!("a bare request is answered bare");
            };
            return reply;
        }
        let n = stream.read(&mut buf).expect("response read");
        assert_ne!(n, 0, "node closed the connection without responding");
        decoder.feed(&buf[..n]);
    }
}

#[test]
fn sixteen_nodes_under_forwarded_and_write_load_are_sixteen_threads() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let net = build_network();
    let baseline = thread_count();
    let cluster = Cluster::boot(&net, ClusterConfig::default()).expect("cluster boots");
    let members = net.members().to_vec();
    let mut clients: Vec<_> = [0, 5, 10]
        .iter()
        .map(|&k| cluster.client(members[k]).expect("client connects"))
        .collect();

    // First writes fan their invalidations out to all 15 peers; uniform
    // reads from three access nodes forward over most links. Every link
    // in the cluster gets dialed, every node parks continuations.
    let items: Vec<(DataId, bytes::Bytes)> = (0..96)
        .map(|i| (DataId::new(format!("threads/{i}")), format!("v{i}").into()))
        .collect();
    let ids: Vec<DataId> = items.iter().map(|(id, _)| id.clone()).collect();
    for client in &mut clients {
        let acks = client.place_many(&items).expect("pipelined writes answer");
        assert!(acks.iter().all(|ack| ack.is_clean()));
        let reads = client.retrieve_many(&ids).expect("pipelined reads answer");
        assert!(reads.iter().all(|read| read.is_hit()));
    }
    assert_eq!(
        thread_count() - baseline,
        SWITCHES,
        "a node is its reactor thread and nothing else"
    );

    let report = cluster.shutdown();
    assert_eq!(report.nodes.len(), SWITCHES);
    assert_eq!(report.total_errors(), 0);
    let hot = report.hot_stats();
    // Each overwrite invalidates the one access node that read the item
    // since the last write, unless that node owns it and read it locally.
    let sharers = |k: usize| {
        let reader = members[k];
        ids.iter()
            .filter(|id| net.responsible_server(id).switch != reader)
            .count() as u64
    };
    assert_eq!(
        hot.invalidations_rx,
        96 * (SWITCHES as u64 - 1) + sharers(0) + sharers(5)
    );
    assert_eq!((hot.link_reconnects, hot.redirects_issued), (0, 0));
}

/// Four hand-wired switches whose only route from 0 to the owner 3 runs
/// `0 → 1 → 2` along the virtual link `0 ⇒ 2`, then `2 → 0 → 1 → 3`
/// along the virtual link `2 ⇒ 3`: the directed link `0 → 1` is crossed
/// twice by every request.
fn double_crossing_planes() -> Vec<SwitchDataplane> {
    let (far, mid, near) = (
        Point2::new(9.0, 9.0),
        Point2::new(3.0, 3.0),
        Point2::new(0.5, 0.5),
    );
    let dt_neighbor = |neighbor, position, via| NeighborEntry {
        neighbor,
        position,
        via,
        physical: false,
    };
    let tuple = |sour, pred, succ, dest| DtTuple {
        sour,
        pred,
        succ,
        dest,
    };
    let mut a = SwitchDataplane::new(0, far, 1);
    a.install_neighbor(dt_neighbor(2, mid, 1));
    a.install_relay(tuple(2, 2, 1, 3));
    let mut b = SwitchDataplane::transit(1);
    b.install_relay(tuple(0, 0, 2, 2));
    b.install_relay(tuple(2, 0, 3, 3));
    let mut c = SwitchDataplane::new(2, mid, 1);
    c.install_neighbor(dt_neighbor(3, near, 0));
    let d = SwitchDataplane::new(3, near, 1);
    vec![a, b, c, d]
}

#[test]
fn a_relay_path_crossing_one_link_twice_completes_at_depth_64() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const DEPTH: usize = 64;
    let listeners: Vec<TcpListener> = (0..4)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("loopback binds"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let cfg = NodeConfig {
        log_dir: None,
        ..NodeConfig::default()
    };
    let mut nodes: Vec<Node> = double_crossing_planes()
        .into_iter()
        .zip(listeners)
        .enumerate()
        .map(|(id, (plane, listener))| {
            Node::spawn(id, plane, addrs.clone(), listener, cfg.clone()).expect("node spawns")
        })
        .collect();
    for i in 0..DEPTH {
        nodes[3].preload(DataId::new(format!("deep/{i}")), 0, format!("v{i}").into());
    }

    // 64 single-packet frames, each under its own correlation id, all
    // written before the first answer is read.
    let mut stream = TcpStream::connect(addrs[0]).expect("access node accepts");
    let mut burst = MUX_PREAMBLE.to_vec();
    for i in 0..DEPTH {
        let read = Packet::retrieval(DataId::new(format!("deep/{i}")));
        write_call(&mut burst, i as u64, &[read], false);
    }
    stream.write_all(&burst).expect("burst written");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    let mut answered = [false; DEPTH];
    while answered.contains(&false) {
        let n = stream.read(&mut buf).expect("the chain must not deadlock");
        assert_ne!(n, 0, "access node hung up");
        decoder.feed(&buf[..n]);
        while let Some(body) = decoder.next_frame().expect("well-framed") {
            let (corr, Body::One(reply)) = read_call(&body).expect("a call frame") else {
                panic!("a bare request is answered bare");
            };
            let corr = corr as usize;
            assert_eq!(reply.status, ResponseStatus::Ok);
            assert_eq!(reply.payload.as_ref(), format!("v{corr}").as_bytes());
            assert_eq!(reply.hops, 5, "0→1→2→0→1→3");
            assert!(!std::mem::replace(&mut answered[corr], true));
        }
    }
    assert_eq!(nodes[0].parked_continuations(), 0);
    let reports: Vec<_> = nodes.iter_mut().map(Node::shutdown).collect();
    // Switch 0 sent every request over 0 → 1 twice: once as the greedy
    // forward into the first virtual link, once relaying the second.
    assert_eq!(reports[0].forwarded, DEPTH as u64);
    assert_eq!(reports[0].relayed, DEPTH as u64);
    assert_eq!(reports[1].relayed, 2 * DEPTH as u64);
    assert!(reports.iter().all(|r| r.errors == 0));
}

#[test]
fn a_black_holed_link_expires_its_continuations_and_nothing_else() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let net = build_network();
    let fabric = ChaosFabric::new();
    let cfg = chaos_cluster_config();
    let timeout = cfg.node.peer_reply_timeout;
    let cluster = Cluster::boot_with(&net, cfg.clone(), fabric.rewrite()).expect("cluster boots");
    let owner = net.members()[0];

    // A key another switch owns whose first hop from `owner` is that
    // switch itself (the read parks on the link we break), and a key
    // `owner` stores itself (its write broadcasts over the same link).
    let hop_of = |id: &DataId| {
        let path = route(net.dataplanes(), owner, net.position_of_id(id), id).unwrap();
        (path.switches.len() == 2).then(|| path.switches[1])
    };
    let (remote, peer) = (0..)
        .map(|i| DataId::new(format!("hole/remote/{i}")))
        .find_map(|id| hop_of(&id).map(|peer| (id, peer)))
        .unwrap();
    let local = (0..)
        .map(|i| DataId::new(format!("hole/local/{i}")))
        .find(|id| net.responsible_server(id).switch == owner)
        .unwrap();
    let access = cluster.addr(owner);
    let node = cluster.node(owner);

    // Healthy first, so the link is up when it goes dark.
    let placed = roundtrip(access, &Packet::placement(remote.clone(), b"r".as_ref()));
    assert_eq!(placed.status, ResponseStatus::Ok);
    fabric.set_mode(owner, peer, LinkMode::BlackHole);

    let started = Instant::now();
    let read = roundtrip(access, &Packet::retrieval(remote.clone()));
    let waited = started.elapsed();
    assert_eq!(read.status, ResponseStatus::Redirect);
    assert!(
        waited >= timeout && waited < timeout * 2,
        "expired after {waited:?}: one reply timeout ({timeout:?}), not two"
    );
    assert_eq!(node.suspect_peers(), vec![peer]);
    assert_eq!(node.parked_continuations(), 0);

    // Let the suspicion lapse: the write then probes the peer again,
    // and only that one invalidation goes unanswered.
    std::thread::sleep(cfg.node.suspect_ttl);
    let before = node.hot_stats();
    let ack = roundtrip(access, &Packet::placement(local, b"w".as_ref()));
    assert_eq!(ack.status, ResponseStatus::Degraded);
    assert_eq!(node.suspect_peers(), vec![peer]);
    assert_eq!(node.parked_continuations(), 0, "the slab is empty again");
    let after = node.hot_stats();
    assert_eq!(after.peers_suspected - before.peers_suspected, 1);
    assert_eq!(after.redirects_issued, 1, "only the read was redirected");
    assert_eq!(after.link_reconnects, 0, "a timeout leaves the link up");

    fabric.heal_all();
    cluster.shutdown();
    fabric.shutdown();
}
