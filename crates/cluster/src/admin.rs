//! The cluster admin endpoint: lifecycle verbs over the wire.
//!
//! Individual nodes answer `Stats` scrapes and `Ping`, but refuse every
//! lifecycle verb — crashing a node, reviving a slot, or re-homing keys
//! needs the orchestrator's [`Cluster`] handle *and* the model-twin
//! [`GredNetwork`], which no node owns. The [`AdminServer`] is that
//! orchestrator made reachable: a tiny endpoint speaking the client's
//! correlated mux protocol ([`crate::pipelined`]) that maps
//! [`AdminOp`] verbs onto the existing live-reconfiguration API, so
//! chaos scenarios and operator runbooks can be driven entirely over
//! TCP. Every verb that changes membership ends in the one cut,
//! [`Cluster::apply_planes`]: `crash` after `crash_switch` +
//! `crash_node`, `join` after `add_switch` + `restart_node` for the
//! newcomer, `leave` after `remove_switch`, and `drain` on its own.
//! `restart` is `restart_node`.
//!
//! The endpoint is deliberately serial: one serve thread owns the
//! cluster and its model twin, and accepts and serves one connection at
//! a time under a read timeout. Admin traffic is rare and every verb
//! mutates the cluster anyway, so serialization is the semantics, not a
//! bottleneck.

use crate::client::{AdminReply, Client, ClientError};
use crate::cluster::{Cluster, ClusterReport};
use crate::frame::{self, FrameDecoder};
use gred::GredNetwork;
use gred_dataplane::{AdminOp, Packet, PacketKind};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, TryRecvError};
use std::thread;
use std::time::Duration;

/// How long the serving loop blocks in `accept`/`read` before
/// re-checking the stop channel. Small enough that shutdown feels
/// immediate, large enough to stay off the scheduler.
const POLL: Duration = Duration::from_millis(5);

/// The cluster plus its model twin, owned together by the serve thread
/// so every admin verb sees the two in sync.
struct AdminState {
    cluster: Cluster,
    net: GredNetwork,
}

/// A wire-reachable admin endpoint for one [`Cluster`].
///
/// Its serve thread owns the cluster and its model twin for the
/// endpoint's lifetime; [`AdminServer::shutdown`] stops it and hands
/// the final accounting back.
pub struct AdminServer {
    addr: SocketAddr,
    /// Dropping the sender tells the serve thread to stop.
    serve: Option<(mpsc::Sender<()>, thread::JoinHandle<ClusterReport>)>,
}

impl AdminServer {
    /// Takes ownership of `cluster` and `net` and starts serving admin
    /// verbs on a fresh loopback listener.
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener.
    pub fn spawn(cluster: Cluster, net: GredNetwork) -> io::Result<AdminServer> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (stopper, stop) = mpsc::channel();
        let mut state = AdminState { cluster, net };
        let serve = thread::Builder::new()
            .name("gred-admin".into())
            .spawn(move || {
                serve_loop(&listener, &stop, &mut state);
                state.cluster.shutdown()
            })?;
        Ok(AdminServer {
            addr,
            serve: Some((stopper, serve)),
        })
    }

    /// The endpoint's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops serving and gracefully shuts the cluster down, returning
    /// its final accounting.
    ///
    /// # Panics
    ///
    /// If the serve thread panicked.
    pub fn shutdown(mut self) -> ClusterReport {
        self.stop().expect("the admin serve thread panicked")
    }

    /// Closes the stop channel and joins the serve thread: its report,
    /// or `None` if it panicked or was already joined.
    fn stop(&mut self) -> Option<ClusterReport> {
        let (stopper, serve) = self.serve.take()?;
        drop(stopper);
        serve.join().ok()
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sends one admin verb to the endpoint at `addr` and returns its
/// reply. Convenience wrapper over [`Client::admin`] for callers (like
/// `gredctl`) that only hold the admin address.
///
/// # Errors
///
/// [`ClientError`] if the endpoint is unreachable or replies with a
/// non-admin packet.
pub fn admin_call(addr: SocketAddr, op: &AdminOp) -> Result<AdminReply, ClientError> {
    let mut client = Client::connect(addr, crate::client::ClientConfig::default())?;
    client.admin(op)
}

/// Whether the [`AdminServer`] closed the stop channel.
fn stopped(stop: &mpsc::Receiver<()>) -> bool {
    stop.try_recv() == Err(TryRecvError::Disconnected)
}

fn serve_loop(listener: &TcpListener, stop: &mpsc::Receiver<()>, state: &mut AdminState) {
    while !stopped(stop) {
        match listener.accept() {
            Ok((stream, _)) => serve_conn(stream, stop, state),
            Err(_) => thread::sleep(POLL),
        }
    }
}

/// Serves one connection until EOF, error, or shutdown: after the mux
/// preamble, correlated `Admin` packets in, `AdminResponse` packets out
/// under the same correlation id.
fn serve_conn(mut stream: TcpStream, stop: &mpsc::Receiver<()>, state: &mut AdminState) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let mut out = Vec::new();
    // The stream opens with the mux preamble; this much of it arrived.
    let mut hello = 0;
    while !stopped(stop) {
        loop {
            let body = match decoder.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => break,
                // A framing error means the stream is corrupt; there is
                // no resynchronizing a length-prefixed protocol.
                Err(_) => return,
            };
            // A frame that is not a call frame leaves no correlation id
            // to answer under: hang up, as a node does.
            let Ok((corr, body)) = frame::read_call(&body) else {
                return;
            };
            let batch = body.is_batch();
            let replies: Vec<Packet> = body
                .into_vec()
                .iter()
                .map(|packet| answer(state, packet))
                .collect();
            out.clear();
            frame::write_call(&mut out, corr, &replies, batch);
            if stream.write_all(&out).is_err() {
                return;
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => match frame::strip_hello(&mut hello, &buf[..n]) {
                Some(frames) => decoder.feed(frames),
                None => return,
            },
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return,
        }
    }
}

/// The reply to one packet: the verb's outcome, or an in-band refusal
/// of anything that is not a decodable `Admin` packet.
fn answer(state: &mut AdminState, packet: &Packet) -> Packet {
    if packet.kind != PacketKind::Admin {
        return Packet::admin_error(
            format!("admin endpoint speaks Admin packets, got {}", packet.kind).into_bytes(),
        );
    }
    match AdminOp::decode(&packet.payload) {
        Ok(op) => apply_verb(state, &op),
        Err(e) => Packet::admin_error(format!("bad admin payload: {e}").into_bytes()),
    }
}

/// Maps one verb onto the live-reconfiguration API. Every failure is an
/// in-band error reply — the endpoint never panics on operator input.
fn apply_verb(state: &mut AdminState, op: &AdminOp) -> Packet {
    let AdminState { cluster, net } = state;
    // `crash_node` and `restart_node` index the slot they are given.
    if let AdminOp::Crash { switch } | AdminOp::Restart { switch } = op {
        if *switch as usize >= cluster.len() {
            return Packet::admin_error(format!("switch {switch} does not exist").into_bytes());
        }
    }
    let outcome: Result<String, String> = match op {
        AdminOp::Ping => Ok(format!("pong: {} live nodes", cluster.live_nodes().count())),
        AdminOp::Crash { switch } => {
            // The model decides first: a refused crash kills no node.
            let victim = *switch as usize;
            if cluster.try_node(victim).is_none() {
                Err(format!("switch {victim} is already down"))
            } else {
                match net.crash_switch(victim) {
                    Ok(()) => {
                        cluster.crash_node(victim);
                        cluster.apply_planes(net);
                        Ok(format!("crashed switch {victim}, planes pushed"))
                    }
                    Err(e) => Err(format!("crash refused: {e}")),
                }
            }
        }
        AdminOp::Restart { switch } => {
            let slot = *switch as usize;
            if cluster.try_node(slot).is_some() {
                Err(format!("switch {slot} is still running"))
            } else {
                match cluster.restart_node(slot, net) {
                    Ok(addr) => Ok(format!("switch {slot} restarted at {addr}")),
                    Err(e) => Err(format!("restart failed: {e}")),
                }
            }
        }
        AdminOp::Drain => {
            let (moved, dropped) = cluster.apply_planes(net);
            Ok(format!(
                "drained: {moved} items re-homed, {dropped} dropped"
            ))
        }
        AdminOp::Join {
            neighbors,
            capacities,
        } => {
            let links: Vec<usize> = neighbors.iter().map(|&n| n as usize).collect();
            match net.add_switch(&links, capacities.clone()) {
                Ok(newcomer) => match cluster.restart_node(newcomer, net) {
                    Ok(_) => {
                        let (moved, _) = cluster.apply_planes(net);
                        Ok(format!("switch {newcomer} joined, {moved} items re-homed"))
                    }
                    Err(e) => Err(format!("model joined but cluster boot failed: {e}")),
                },
                Err(e) => Err(format!("join refused: {e}")),
            }
        }
        AdminOp::Leave { switch } => {
            let leaver = *switch as usize;
            match net.remove_switch(leaver) {
                Ok(()) => {
                    let (moved, _) = cluster.apply_planes(net);
                    Ok(format!("switch {leaver} left, {moved} items re-homed"))
                }
                Err(e) => Err(format!("leave refused: {e}")),
            }
        }
    };
    match outcome {
        Ok(msg) => Packet::admin_response(msg.into_bytes()),
        Err(msg) => Packet::admin_error(msg.into_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::frame::MUX_PREAMBLE;
    use crate::node::tests::{call, read_reply};
    use gred::GredConfig;
    use gred_net::{ServerPool, Topology};

    fn two_node_admin() -> AdminServer {
        let topo = Topology::from_links(2, &[(0, 1)]).unwrap();
        let pool = ServerPool::uniform(2, 1, 100);
        let net = GredNetwork::build(topo, pool, GredConfig::with_iterations(0)).unwrap();
        let cluster = Cluster::boot(&net, ClusterConfig::default()).unwrap();
        AdminServer::spawn(cluster, net).unwrap()
    }

    #[test]
    fn out_of_range_switch_is_refused_in_band() {
        let admin = two_node_admin();
        for op in [
            AdminOp::Crash { switch: 999 },
            AdminOp::Restart { switch: 999 },
        ] {
            let reply = admin_call(admin.addr(), &op).unwrap();
            assert!(!reply.ok, "{op:?} accepted");
            assert_eq!(reply.message, "switch 999 does not exist");
        }
        let pong = admin_call(admin.addr(), &AdminOp::Ping).unwrap();
        assert!(pong.ok && pong.message.starts_with("pong"), "{pong:?}");
        admin.shutdown();
    }

    #[test]
    fn a_refused_crash_kills_no_node() {
        // Switch 1 is the cut vertex of the line 0-1-2.
        let topo = Topology::from_links(3, &[(0, 1), (1, 2)]).unwrap();
        let pool = ServerPool::uniform(3, 1, 100);
        let net = GredNetwork::build(topo, pool, GredConfig::with_iterations(0)).unwrap();
        let cluster = Cluster::boot(&net, ClusterConfig::default()).unwrap();
        let admin = AdminServer::spawn(cluster, net).unwrap();
        let reply = admin_call(admin.addr(), &AdminOp::Crash { switch: 1 }).unwrap();
        assert!(!reply.ok, "{reply:?}");
        let pong = admin_call(admin.addr(), &AdminOp::Ping).unwrap();
        assert_eq!(pong.message, "pong: 3 live nodes");
        admin.shutdown();
    }

    #[test]
    fn the_hello_is_enforced_like_a_node_enforces_it() {
        let admin = two_node_admin();
        let ping = call(7, &Packet::admin_request(AdminOp::Ping.encode()));

        // A preamble split across four writes is accepted.
        let mut split = TcpStream::connect(admin.addr()).unwrap();
        split.set_nodelay(true).unwrap();
        for byte in MUX_PREAMBLE {
            split.write_all(&[byte]).unwrap();
            thread::sleep(Duration::from_millis(2)); // one segment each
        }
        split.write_all(&ping).unwrap();
        let pong = read_reply(&mut split);
        assert_eq!(pong.kind, PacketKind::AdminResponse);
        assert!(pong.payload.starts_with(b"pong"), "{pong:?}");
        drop(split); // the endpoint serves one connection at a time

        // A dialer that opens with anything else is closed, unanswered.
        let mut stranger = TcpStream::connect(admin.addr()).unwrap();
        stranger.write_all(&ping).unwrap();
        let mut answer = Vec::new();
        // A reset is as closed as a FIN; no byte may come back.
        let _ = stranger.read_to_end(&mut answer);
        assert!(answer.is_empty(), "the endpoint answered {answer:?}");
        admin.shutdown();
    }
}
