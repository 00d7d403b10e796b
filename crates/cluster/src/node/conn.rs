//! The reactor and its connections: accept, the mandatory hello, frame
//! reassembly, write-queue settling, the deadline queue, and drain.

use super::call::{Call, Origin, Pending};
use super::stats::Counters;
use super::{Command, NodeReport, State};
use crate::frame::{self, FrameDecoder, MUX_PREAMBLE};
use crate::mux::Parked;
use gred_dataplane::Packet;
use gred_runtime::reactor::{
    connect_nonblocking, Event, Events, Interest, Poller, WriteQueue, WAKE_TOKEN,
};
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Registration token of the node's TCP listener.
pub(super) const LISTENER_TOKEN: u64 = 0;

/// Connection tokens start here: `token = FIRST_CONN_TOKEN + slot`.
const FIRST_CONN_TOKEN: u64 = 1;

/// Per-connection protocol state machine.
pub(super) enum Protocol {
    /// Accepted, and `got` bytes of the [`MUX_PREAMBLE`] hello have
    /// arrived so far. Nothing is served before all four match.
    Hello { got: usize },
    /// Inbound connection past its hello (a peer's link, or a client):
    /// requests interleave under correlation ids.
    Mux,
    /// Outbound multiplexed link this node dialed to peer switch `peer`:
    /// it carries our requests out and the peer's responses back.
    /// Frames queue until the nonblocking dial is `established`.
    Link { peer: usize, established: bool },
}

/// One connection owned by the reactor, inbound or outbound.
pub(super) struct Conn {
    pub(super) stream: TcpStream,
    peer: SocketAddr,
    pub(super) proto: Protocol,
    decoder: FrameDecoder,
    /// Unwritten bytes; partial writes land here.
    pub(super) outq: WriteQueue,
    /// Reusable encode buffer for the frames written to this connection.
    pub(super) scratch: Vec<u8>,
    /// Distinguishes this connection from earlier tenants of its slot.
    pub(super) generation: u64,
    /// The interest currently registered with the poller.
    interest: Interest,
    /// Peer closed its write half; frames already received still get
    /// their responses, then the connection closes.
    eof: bool,
    /// Calls from this connection parked and not yet answered.
    pub(super) inflight: usize,
}

impl Conn {
    /// Encodes one call frame into the connection's reusable scratch
    /// buffer, replacing what it held.
    pub(super) fn encode_call(
        &mut self,
        counters: &mut Counters,
        corr: u64,
        packets: &[Packet],
        batch: bool,
    ) {
        if self.scratch.capacity() > 0 {
            counters.hot.encode_buf_reuses += 1;
        }
        self.scratch.clear();
        frame::write_call(&mut self.scratch, corr, packets, batch);
    }
}

/// An entry of the reactor's deadline queue.
pub(super) enum Timer {
    /// A parked continuation's reply deadline.
    Reply(u64),
    /// An outbound dial's connect deadline.
    Dial { slot: usize, generation: u64 },
    /// Resume accepting after an accept error.
    Accept,
}

/// The event loop owning the switch's [`State`], the listener, the
/// connection slab, the parked continuations and all I/O. Runs on the
/// single `gred-node-{id}-reactor` thread and never blocks outside
/// [`Poller::wait`].
pub(super) struct Reactor {
    pub(super) state: State,
    /// Shared with the [`Node`](super::Node) handle, which wakes it
    /// after mailing a command.
    poller: Arc<Poller>,
    commands: mpsc::Receiver<Command>,
    listener: Option<TcpListener>,
    pub(super) conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slots closed during the current loop iteration. They rejoin
    /// `free` only at the next one, so a handler that finds its slot
    /// empty knows the connection died — never that a new one moved in.
    freed: Vec<usize>,
    next_gen: u64,
    /// Slot of the outbound link to each peer switch, if one is up.
    links: Vec<Option<usize>>,
    pub(super) calls: Parked<Call>,
    pub(super) parked: Parked<Pending>,
    /// Deadlines in expiry order. Nearly every entry is a reply deadline
    /// `now + peer_reply_timeout`, so arming appends; the rare shorter
    /// timer walks back from the tail to its place.
    timers: VecDeque<(Instant, Timer)>,
    /// Continuations whose link died (and whether it was established),
    /// awaiting their one resend or their failure.
    pub(super) orphans: Vec<(u64, bool)>,
    /// Origin slots answered outside their own event; they are pumped
    /// and settled before the loop waits again.
    pub(super) touched: Vec<usize>,
    read_buf: Vec<u8>,
    pub(super) draining: bool,
    deadline: Option<Instant>,
    /// Accepts that fail with `EMFILE` before the listener is consulted
    /// again — how the tests put the listener into its error state.
    #[cfg(test)]
    pub(super) accept_faults: usize,
}

impl Reactor {
    /// A reactor serving `listener` for the switch `state` describes,
    /// taking commands from `commands`, with nothing accepted, dialed or
    /// parked yet.
    pub(super) fn new(
        state: State,
        listener: TcpListener,
        poller: Arc<Poller>,
        commands: mpsc::Receiver<Command>,
    ) -> Reactor {
        Reactor {
            state,
            poller,
            commands,
            listener: Some(listener),
            conns: Vec::new(),
            free: Vec::new(),
            freed: Vec::new(),
            next_gen: 0,
            links: Vec::new(),
            calls: Parked::default(),
            parked: Parked::default(),
            timers: VecDeque::new(),
            orphans: Vec::new(),
            touched: Vec::new(),
            read_buf: vec![0u8; 64 * 1024],
            draining: false,
            deadline: None,
            #[cfg(test)]
            accept_faults: 0,
        }
    }

    /// Serves until drained, then returns the final accounting.
    pub(super) fn run(mut self) -> NodeReport {
        let mut events = Events::with_capacity(1024);
        loop {
            self.free.append(&mut self.freed);
            // Steady state blocks until a socket, a wakeup or the next
            // deadline fires — an idle node spends no CPU.
            let timeout = self.next_timeout();
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                self.state.log(&format!("poller wait failed: {e}"));
                break;
            }
            while let Ok(command) = self.commands.try_recv() {
                command(&mut self);
            }
            for ev in events.iter() {
                match ev.token {
                    WAKE_TOKEN => {}
                    LISTENER_TOKEN => self.on_accept(),
                    token => self.on_conn_event(token, ev),
                }
            }
            self.fire_timers();
            self.settle_deferred();
            if self.draining
                && (self.quiescent() || self.deadline.is_some_and(|d| Instant::now() >= d))
            {
                break;
            }
        }
        // Close every connection; peers see EOF after their last
        // response was flushed (or the drain deadline expired).
        for slot in 0..self.conns.len() {
            self.close_conn(slot);
        }
        self.state.log("reactor stopped");
        self.state.report()
    }

    /// How long the next wait may block: until the earliest live
    /// deadline (settled continuations' timers are dropped on the way),
    /// capped by the drain tick while shutting down.
    fn next_timeout(&mut self) -> Option<Duration> {
        while let Some((_, Timer::Reply(corr))) = self.timers.front() {
            if self.parked.get(*corr).is_some() {
                break;
            }
            self.timers.pop_front();
        }
        let next = self
            .timers
            .front()
            .map(|(at, _)| at.saturating_duration_since(Instant::now()));
        match (next, self.draining) {
            (Some(next), true) => Some(next.min(self.state.cfg.poll_interval)),
            (None, true) => Some(self.state.cfg.poll_interval),
            (next, false) => next,
        }
    }

    pub(super) fn arm(&mut self, after: Duration, timer: Timer) {
        let at = Instant::now() + after;
        let pos = self
            .timers
            .iter()
            .rposition(|(t, _)| *t <= at)
            .map_or(0, |i| i + 1);
        self.timers.insert(pos, (at, timer));
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        while self.timers.front().is_some_and(|(at, _)| *at <= now) {
            let (_, timer) = self.timers.pop_front().expect("front just observed");
            match timer {
                Timer::Reply(corr) => {
                    if let Some(pending) = self.parked.get(corr) {
                        self.state
                            .log(&format!("peer {} did not respond in time", pending.to));
                        self.fail(corr);
                    }
                }
                Timer::Dial { slot, generation } => {
                    let dialing =
                        self.conns
                            .get(slot)
                            .and_then(Option::as_ref)
                            .is_some_and(|conn| {
                                conn.generation == generation
                                    && matches!(
                                        conn.proto,
                                        Protocol::Link {
                                            established: false,
                                            ..
                                        }
                                    )
                            });
                    if dialing {
                        self.close_conn(slot);
                    }
                }
                Timer::Accept => self.listen_for_accepts(true),
            }
        }
    }

    /// Stops taking new work: closes the listener and every peer link
    /// (whatever is parked is refused now rather than at its deadline),
    /// stops reading, and gives responses one reply-timeout to flush.
    /// Once draining, a repeated call does nothing.
    pub(super) fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.deadline = Some(Instant::now() + self.state.cfg.peer_reply_timeout);
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
            // Dropping closes it: new connections are refused while the
            // drain runs.
        }
        for slot in 0..self.conns.len() {
            match self.conns[slot].as_ref().map(|conn| &conn.proto) {
                Some(Protocol::Link { .. }) => self.close_conn(slot),
                Some(_) => self.settle(slot, Ok(())),
                None => {}
            }
        }
        self.state.log("draining");
    }

    /// Every call has been answered and every response byte is on the
    /// wire.
    fn quiescent(&self) -> bool {
        self.calls.len() == 0 && self.conns.iter().flatten().all(|conn| conn.outq.is_empty())
    }

    /// Inbound connections held open: every connection but the peer
    /// links.
    pub(super) fn inbound(&self) -> usize {
        self.conns
            .iter()
            .flatten()
            .filter(|conn| !matches!(conn.proto, Protocol::Link { .. }))
            .count()
    }

    /// Turns the listener's read interest on or off.
    fn listen_for_accepts(&mut self, read: bool) {
        if let Some(listener) = &self.listener {
            let _ = self.poller.reregister(
                listener.as_raw_fd(),
                LISTENER_TOKEN,
                Interest { read, write: false },
            );
        }
    }

    fn accept(&mut self) -> Option<io::Result<(TcpStream, SocketAddr)>> {
        #[cfg(test)]
        if let Some(left) = self.accept_faults.checked_sub(1) {
            self.accept_faults = left;
            return Some(Err(io::Error::from_raw_os_error(24))); // EMFILE
        }
        Some(self.listener.as_ref()?.accept())
    }

    fn on_accept(&mut self) {
        loop {
            let Some(accepted) = self.accept() else {
                return;
            };
            match accepted {
                Ok((stream, peer)) => self.admit(stream, peer),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) => {
                    // Back off one tick (fd exhaustion and friends)
                    // without stalling everything parked on this thread:
                    // stop listening for the level-triggered event and
                    // let the deadline queue turn it back on.
                    self.state.log(&format!("accept error: {e}"));
                    self.listen_for_accepts(false);
                    self.arm(self.state.cfg.poll_interval, Timer::Accept);
                    return;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream, peer: SocketAddr) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let hello = Protocol::Hello { got: 0 };
        if self.adopt(stream, peer, hello, Interest::READ).is_ok() {
            self.state.log(&format!("accepted {peer}"));
        }
    }

    /// Gives `stream` a slot and registers it with the poller.
    fn adopt(
        &mut self,
        stream: TcpStream,
        peer: SocketAddr,
        proto: Protocol,
        interest: Interest,
    ) -> io::Result<usize> {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = FIRST_CONN_TOKEN + slot as u64;
        if let Err(e) = self.poller.register(stream.as_raw_fd(), token, interest) {
            self.free.push(slot);
            let _ = stream.shutdown(Shutdown::Both);
            return Err(e);
        }
        self.next_gen += 1;
        self.conns[slot] = Some(Conn {
            stream,
            peer,
            proto,
            decoder: FrameDecoder::new(),
            outq: WriteQueue::new(),
            scratch: Vec::new(),
            generation: self.next_gen,
            interest,
            eof: false,
            inflight: 0,
        });
        Ok(slot)
    }

    /// The slot of the link to peer switch `to`, dialing if none is up
    /// (or the peer was re-registered at another address).
    pub(super) fn link_to(&mut self, to: usize) -> io::Result<usize> {
        let addr = self
            .state
            .peers
            .get(to)
            .map(|peer| peer.addr)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "unknown peer switch"))?;
        if let Some(slot) = self.links.get(to).copied().flatten() {
            if self.conns[slot].as_ref().is_some_and(|c| c.peer == addr) {
                return Ok(slot);
            }
            self.close_conn(slot);
        }
        let stream = connect_nonblocking(addr)?;
        let _ = stream.set_nodelay(true);
        let proto = Protocol::Link {
            peer: to,
            established: false,
        };
        let slot = self.adopt(stream, addr, proto, Interest::READ_WRITE)?;
        let conn = self.conns[slot].as_mut().expect("just adopted");
        conn.outq.push(&MUX_PREAMBLE);
        let generation = conn.generation;
        if self.links.len() <= to {
            self.links.resize(to + 1, None);
        }
        self.links[to] = Some(slot);
        self.arm(
            self.state.cfg.peer_connect_timeout,
            Timer::Dial { slot, generation },
        );
        Ok(slot)
    }

    fn on_conn_event(&mut self, token: u64, ev: Event) {
        let slot = (token - FIRST_CONN_TOKEN) as usize;
        if self.conns.get(slot).is_none_or(|c| c.is_none()) {
            return; // already closed earlier this tick
        }
        let outcome = self.drive(slot, ev);
        self.settle(slot, outcome);
    }

    /// Services one readiness event: finish a dial, flush pending
    /// writes, then read until the socket would block, decoding and
    /// serving as we go.
    fn drive(&mut self, slot: usize, ev: Event) -> io::Result<()> {
        let conn = self.conns[slot].as_mut().expect("live slot");
        if let Protocol::Link {
            peer,
            established: established @ false,
        } = &mut conn.proto
        {
            // The first event on a dialing socket is the dial's outcome.
            if let Some(e) = conn.stream.take_error()? {
                return Err(e);
            }
            if ev.hangup || !ev.writable {
                return Err(io::ErrorKind::ConnectionAborted.into());
            }
            *established = true;
            self.state.peers[*peer].connected = true;
        }
        if ev.writable {
            let Conn { stream, outq, .. } = conn;
            outq.flush(stream)?;
        }
        if ev.readable && !conn.eof && !self.draining {
            self.fill(slot)?;
        } else if ev.hangup {
            conn.eof = true;
        }
        Ok(())
    }

    /// Reads until `WouldBlock`, feeding the decoder and serving every
    /// complete frame.
    fn fill(&mut self, slot: usize) -> io::Result<()> {
        let mut buf = std::mem::take(&mut self.read_buf);
        let outcome = self.fill_with(slot, &mut buf);
        self.read_buf = buf;
        outcome
    }

    fn fill_with(&mut self, slot: usize, buf: &mut [u8]) -> io::Result<()> {
        loop {
            // Serving a frame can close any connection, this one too.
            let Some(conn) = self.conns[slot].as_mut() else {
                return Ok(());
            };
            let n = match conn.stream.read(buf) {
                Ok(0) => {
                    conn.eof = true;
                    return Ok(());
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.ingest(slot, &buf[..n])?;
        }
    }

    /// Checks `bytes` against what is still due of the hello, then feeds
    /// the decoder.
    fn ingest(&mut self, slot: usize, mut bytes: &[u8]) -> io::Result<()> {
        let conn = self.conns[slot].as_mut().expect("live slot");
        if let Protocol::Hello { got } = &mut conn.proto {
            let Some(rest) = frame::strip_hello(got, bytes) else {
                let peer = conn.peer;
                return Err(self.state.violation(peer, &"no GMUX hello"));
            };
            if *got < MUX_PREAMBLE.len() {
                return Ok(());
            }
            bytes = rest;
            conn.proto = Protocol::Mux;
        }
        conn.decoder.feed(bytes);
        self.pump(slot)
    }

    /// Serves every complete frame the decoder holds: a request on an
    /// inbound connection, a peer's response on a link. (A malformed
    /// one closes a link too, and everything parked on it is resent.)
    fn pump(&mut self, slot: usize) -> io::Result<()> {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return Ok(());
            };
            let peer = conn.peer;
            let frame = match conn.decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return Ok(()),
                Err(e) => return Err(self.state.violation(peer, &e)),
            };
            self.state.counters.hot.frames_decoded += 1;
            let (corr, body) =
                frame::read_call(&frame).map_err(|e| self.state.violation(peer, &e))?;
            match conn.proto {
                Protocol::Mux => {
                    let origin = Origin {
                        slot,
                        generation: conn.generation,
                        corr,
                    };
                    self.serve(origin, body);
                }
                Protocol::Link { .. } => self.complete(corr, body)?,
                Protocol::Hello { .. } => unreachable!("frames decode only after the hello"),
            }
        }
    }

    /// Runs what handlers deferred to keep themselves non-reentrant:
    /// orphaned continuations get their one resend (or fail), and
    /// connections answered from another connection's event reconcile
    /// their poller interest (and close, if they were only waiting for
    /// that answer).
    fn settle_deferred(&mut self) {
        loop {
            if let Some((corr, established)) = self.orphans.pop() {
                let draining = self.draining;
                match self.parked.get_mut(corr) {
                    None => {} // expired in the meantime
                    Some(pending) if pending.resent || draining => self.fail(corr),
                    Some(pending) => {
                        // The peer never saw the request or its answer
                        // was lost with the socket; requests are
                        // idempotent either way.
                        pending.resent = true;
                        if established {
                            self.state.counters.hot.link_reconnects += 1;
                            self.state.peers[pending.to].reconnects += 1;
                        }
                        self.transmit(corr);
                    }
                }
            } else if let Some(slot) = self.touched.pop() {
                self.settle(slot, Ok(()));
            } else {
                return;
            }
        }
    }

    /// Applies the outcome of servicing a connection: close on error,
    /// otherwise reconcile poller interest and check whether a
    /// half-closed connection has finished.
    pub(super) fn settle(&mut self, slot: usize, outcome: io::Result<()>) {
        if outcome.is_err() {
            self.close_conn(slot);
            return;
        }
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        // (A dialing link holds its preamble queued, so it polls for the
        // writable event that reports the dial's outcome.)
        let want = Interest {
            read: !conn.eof && !self.draining,
            write: !conn.outq.is_empty(),
        };
        if want != conn.interest
            && self
                .poller
                .reregister(
                    conn.stream.as_raw_fd(),
                    FIRST_CONN_TOKEN + slot as u64,
                    want,
                )
                .is_ok()
        {
            conn.interest = want;
        }
        // A half-closed connection ends once everything it asked for has
        // been answered and written; a link ends with its peer's EOF.
        let link = matches!(conn.proto, Protocol::Link { .. });
        if conn.eof && (link || (conn.outq.is_empty() && conn.inflight == 0)) {
            self.close_conn(slot);
        }
    }

    pub(super) fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.freed.push(slot);
        let Protocol::Link { peer, established } = conn.proto else {
            return;
        };
        // A dead link orphans exactly the continuations it carried.
        self.links[peer] = None;
        self.state.peers[peer].connected = false;
        self.orphans.extend(
            self.parked
                .iter()
                .filter(|(_, p)| p.to == peer && p.link == conn.generation)
                .map(|(corr, _)| (corr, established)),
        );
    }
}
