//! Membership changes under load: a switch leaves, or a new one joins,
//! while writers keep writing and reading through the live cluster.
//!
//! Every round boots `ring(6)` and starts four writer threads, one per
//! access switch 0–3. Each owns eight keys and writes numbered versions
//! of them (the payload *is* the version), reading a key back after
//! every write. Midway the orchestrator applies the change the way an
//! operator does: the model twin first, then one
//! [`Cluster::apply_planes`] cut (after [`Cluster::restart_node`] boots a
//! joiner). Three guarantees are checked against what each writer knows
//! was acked:
//!
//! - no read of a key whose write acked answers `NotFound`;
//! - no read returns a version older than the newest acked one (a write
//!   that failed is indeterminate: it may or may not have landed, so it
//!   never lowers the bar and never raises it);
//! - once the writers stop, every key reads at least its last ack.
//!
//! The admin endpoint's `leave`, `join` and `drain` verbs run the same
//! cut; the last test drives them over the wire.

use gred::{GredConfig, GredNetwork};
use gred_cluster::{admin_call, AdminServer, Client, Cluster, ClusterConfig, Reply};
use gred_dataplane::{AdminOp, ResponseStatus};
use gred_hash::DataId;
use gred_net::{ServerPool, Topology};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const SWITCHES: usize = 6;
const WRITERS: usize = 4;
const KEYS: usize = 8;
const ROUNDS: u64 = 40;
/// Writes every writer makes before the change, and after it.
const OPS_AROUND_CHANGE: usize = 2 * KEYS;

#[derive(Clone, Copy, Debug)]
enum Change {
    Leave,
    Join,
}

/// Guarantee violations seen in one round.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
struct Broken {
    /// `NotFound` on a key whose write acked.
    misses: usize,
    /// A version older than the newest acked one.
    stale: usize,
    /// After the run, a key read below its last ack (or not at all).
    lost: usize,
}

impl Broken {
    fn any(&self) -> bool {
        *self != Broken::default()
    }

    fn add(&mut self, other: Broken) {
        self.misses += other.misses;
        self.stale += other.stale;
        self.lost += other.lost;
    }
}

fn ring(seed: u64) -> GredNetwork {
    let links: Vec<(usize, usize)> = (0..SWITCHES).map(|s| (s, (s + 1) % SWITCHES)).collect();
    let topo = Topology::from_links(SWITCHES, &links).unwrap();
    let pool = ServerPool::uniform(SWITCHES, 2, 10_000);
    GredNetwork::build(topo, pool, GredConfig::with_iterations(8).seeded(seed)).unwrap()
}

fn key(writer: usize, k: usize) -> DataId {
    DataId::new(format!("membership/{writer}/{k}"))
}

/// The version a hit carries.
fn version(reply: &Reply) -> u64 {
    std::str::from_utf8(&reply.payload)
        .ok()
        .and_then(|text| text.parse().ok())
        .expect("payloads are versions")
}

/// Checks one read of a key against its newest ack. A read that fails
/// or is redirected proves nothing either way.
fn check_read(client: &mut Client, id: &DataId, acked: Option<u64>, broken: &mut Broken) {
    let (Ok(reply), Some(acked)) = (client.retrieve(id), acked) else {
        return;
    };
    if reply.status == ResponseStatus::NotFound {
        broken.misses += 1;
    } else if reply.is_hit() && version(&reply) < acked {
        broken.stale += 1;
    }
}

/// One writer: writes the next version of its keys in turn, reading a
/// key back after every write, until told to stop. Returns the newest
/// acked version per key and what it saw break.
fn write_loop(
    writer: usize,
    mut client: Client,
    progress: &AtomicUsize,
    stop: &AtomicBool,
) -> (Vec<Option<u64>>, Broken) {
    let mut acked = vec![None; KEYS];
    let mut broken = Broken::default();
    let mut version = 0u64;
    for op in 0.. {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let k = op % KEYS;
        version += 1;
        let id = key(writer, k);
        if client
            .place(&id, version.to_string())
            .is_ok_and(|reply| reply.is_hit())
        {
            acked[k] = Some(version);
        }
        // Read a key written a few ops ago, so moved keys get read.
        let back = (op + KEYS - 3) % KEYS;
        check_read(&mut client, &key(writer, back), acked[back], &mut broken);
        progress.fetch_add(1, Ordering::AcqRel);
    }
    (acked, broken)
}

/// Spins until the writers made `ops` more writes in total.
fn wait_for(progress: &AtomicUsize, ops: usize) {
    let target = progress.load(Ordering::Acquire) + ops;
    let deadline = Instant::now() + Duration::from_secs(30);
    while progress.load(Ordering::Acquire) < target {
        assert!(Instant::now() < deadline, "the writers stalled");
        thread::yield_now();
    }
}

/// One round: boot, write, apply `change` mid-run, stop, check.
fn round(change: Change, round: u64) -> Broken {
    let mut net = ring(round);
    let mut cluster = Cluster::boot(&net, ClusterConfig::default()).unwrap();
    let progress = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..WRITERS)
        .map(|writer| {
            let client = cluster.client(writer).unwrap();
            let (progress, stop) = (Arc::clone(&progress), Arc::clone(&stop));
            thread::spawn(move || write_loop(writer, client, &progress, &stop))
        })
        .collect();

    wait_for(&progress, WRITERS * OPS_AROUND_CHANGE);
    match change {
        // Switches 4 and 5 carry no writer; the leaver stays a relay.
        Change::Leave => {
            net.remove_switch(WRITERS + (round as usize % 2)).unwrap();
        }
        Change::Join => {
            let at = round as usize % SWITCHES;
            let newcomer = net
                .add_switch(&[at, (at + 3) % SWITCHES], vec![10_000, 10_000])
                .unwrap();
            cluster.restart_node(newcomer, &net).unwrap();
        }
    }
    cluster.apply_planes(&net);
    wait_for(&progress, WRITERS * OPS_AROUND_CHANGE);
    stop.store(true, Ordering::Release);

    let mut broken = Broken::default();
    let mut reader = cluster.client(0).unwrap();
    for (writer, handle) in writers.into_iter().enumerate() {
        let (acked, seen) = handle.join().expect("writer thread");
        broken.add(seen);
        for (k, acked) in acked.into_iter().enumerate() {
            let Some(acked) = acked else { continue };
            let read = reader.retrieve(&key(writer, k));
            if !read.is_ok_and(|reply| reply.is_hit() && version(&reply) >= acked) {
                broken.lost += 1;
            }
        }
    }
    drop(reader);
    cluster.shutdown();
    broken
}

fn rounds(change: Change) {
    let mut total = Broken::default();
    let mut failed = Vec::new();
    for r in 0..ROUNDS {
        let broken = round(change, r);
        if broken.any() {
            failed.push(r);
        }
        total.add(broken);
    }
    assert!(
        failed.is_empty(),
        "{change:?}: {} of {ROUNDS} rounds broke a guarantee ({failed:?}): {total:?}",
        failed.len()
    );
}

#[test]
fn a_leave_under_load_loses_no_acked_write() {
    rounds(Change::Leave);
}

#[test]
fn a_join_under_load_loses_no_acked_write() {
    rounds(Change::Join);
}

/// Leave, join and drain over the wire: each reply reports how many
/// items it re-homed, and every stored key still reads back.
#[test]
fn admin_membership_verbs_keep_every_key_and_report_what_moved() {
    let net = ring(17);
    let cluster = Cluster::boot(&net, ClusterConfig::default()).unwrap();
    let mut client = cluster.client(0).unwrap();
    let ids: Vec<DataId> = (0..20).map(|i| DataId::new(format!("admin/{i}"))).collect();
    for (i, id) in ids.iter().enumerate() {
        assert!(client.place(id, format!("{i}")).unwrap().is_hit());
    }
    let admin = AdminServer::spawn(cluster, net).unwrap();
    let mut rehomed = |op: AdminOp| -> usize {
        let reply = admin_call(admin.addr(), &op).unwrap();
        assert!(reply.ok, "{op:?}: {reply:?}");
        for (i, id) in ids.iter().enumerate() {
            let got = client.retrieve(id).unwrap();
            assert!(got.is_hit(), "{id:?} lost after {op:?}");
            assert_eq!(version(&got), i as u64);
        }
        let (count, _) = reply
            .message
            .split_once(" items re-homed")
            .unwrap_or_else(|| panic!("{op:?} reports no count: {reply:?}"));
        count.rsplit(' ').next().unwrap().parse().unwrap()
    };
    assert!(
        rehomed(AdminOp::Leave { switch: 4 }) > 0,
        "the leaver owned keys"
    );
    rehomed(AdminOp::Join {
        neighbors: vec![1, 3],
        capacities: vec![10_000, 10_000],
    });
    assert_eq!(
        rehomed(AdminOp::Drain),
        0,
        "the cuts left nothing misplaced"
    );
    admin.shutdown();
}
