//! The read cache's guarantee, held against the interleaving that once
//! broke it: after a clean write ack, no cache anywhere serves an older
//! value.
//!
//! Three switches in a line: a read entering at A is forwarded through B
//! to the owner O. With O's link to B slow, a write at O could once go
//! like this: A is invalidated first; A's next read is forwarded through
//! B; B answers from its own cache, not yet invalidated; A caches that
//! old value under a fresh fill token; B's invalidation lands; the write
//! acks clean; and A goes on serving the old value. Now B keeps only
//! copies whose owner tracks no readers, and A keeps a cache's answer
//! only if it was never told to drop the id: for a key written through
//! the wire, B holds nothing and A's read reaches O; for a seeded key, B
//! answers, and A, just invalidated, keeps nothing.
//!
//! Repro: `cargo test -p gred-cluster --test coherence`

use gred_cluster::{ChaosFabric, Client, ClientConfig, LinkMode, Node, NodeConfig};
use gred_dataplane::{NeighborEntry, SwitchDataplane};
use gred_geometry::Point2;
use gred_hash::DataId;
use std::net::{SocketAddr, TcpListener};
use std::thread;
use std::time::Duration;

const A: usize = 0;
const B: usize = 1;
const O: usize = 2;

/// A, in the far corner, knows only B; B knows only O; O is nearest to
/// every id, knows no one, and owns everything.
fn line() -> Vec<SwitchDataplane> {
    let (far, mid, near) = (
        Point2::new(9.0, 9.0),
        Point2::new(3.0, 3.0),
        Point2::new(0.5, 0.5),
    );
    let hop = |id, at, next, toward| {
        let mut plane = SwitchDataplane::new(id, at, 1);
        plane.install_neighbor(NeighborEntry {
            neighbor: next,
            position: toward,
            via: next,
            physical: true,
        });
        plane
    };
    vec![
        hop(A, far, B, mid),
        hop(B, mid, O, near),
        SwitchDataplane::new(O, near, 1),
    ]
}

#[test]
fn a_read_behind_a_slow_invalidation_sees_the_acked_write() {
    let fabric = ChaosFabric::new();
    let rewrite = fabric.rewrite();
    let listeners: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("loopback binds"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let cfg = NodeConfig {
        log_dir: None,
        ..NodeConfig::default()
    };
    let mut nodes: Vec<Node> = line()
        .into_iter()
        .zip(listeners)
        .enumerate()
        .map(|(id, (plane, listener))| {
            let peers = (0..3)
                .map(|to| {
                    if to == id {
                        addrs[to]
                    } else {
                        rewrite(id, to, addrs[to])
                    }
                })
                .collect();
            Node::spawn(id, plane, peers, listener, cfg.clone()).expect("node spawns")
        })
        .collect();
    let client = |at: usize| Client::connect(addrs[at], ClientConfig::default()).unwrap();
    let (mut via_a, mut at_o) = (client(A), client(O));
    // O tracks who reads a key written through the wire, so only A may
    // keep it; O cannot track a key it was seeded with, so B may keep
    // that one too, and its write invalidates every switch.
    let written = DataId::new("written");
    assert!(at_o.place(&written, "v1").expect("v1 lands").is_clean());
    let seeded = DataId::new("seeded");
    nodes[O].preload(seeded.clone(), 0, "v1".into());

    for key in [&written, &seeded] {
        let warm = via_a.retrieve(key).expect("warm read answers");
        assert_eq!(warm.payload.as_ref(), b"v1");
        fabric.set_mode(O, B, LinkMode::Delay(Duration::from_millis(400)));
        let seen = nodes[A].hot_stats().invalidations_rx;
        thread::scope(|scope| {
            let write = scope.spawn(|| at_o.place(key, "v2").expect("v2 lands"));
            while nodes[A].hot_stats().invalidations_rx == seen {
                thread::yield_now();
            }
            // A dropped v1 and O stores v2; this read refills A's cache
            // while anything O still has to invalidate sits on the slow
            // link.
            via_a.retrieve(key).expect("racing read answers");
            assert!(
                write.join().unwrap().is_clean(),
                "a healthy write acks clean"
            );
        });
        fabric.heal_all();
        let after = via_a.retrieve(key).expect("read after the ack answers");
        assert_eq!(
            after.payload.as_ref(),
            b"v2",
            "a clean ack left an older value of {key} in A's cache"
        );
    }

    for node in &mut nodes {
        assert_eq!(node.shutdown().errors, 0);
    }
    fabric.shutdown();
}
