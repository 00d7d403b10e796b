//! Calls and continuations: one request frame with a reply slot per
//! packet, the frames parked on its behalf on peer links, and the
//! failure ladder they walk down.

use super::conn::{Protocol, Reactor, Timer};
use super::route::{CacheFill, Fanout, Step};
use crate::frame::Body;
use gred_dataplane::{Packet, ResponseStatus};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::Ordering;

/// Where a call's answer goes. The generation makes a late answer to a
/// closed connection die instead of reaching the slot's next tenant.
#[derive(Clone, Copy)]
pub(super) struct Origin {
    pub(super) slot: usize,
    pub(super) generation: u64,
    /// The request's correlation id, echoed on the answer.
    pub(super) corr: u64,
}

/// One request frame being served: a reply slot per packet, filled
/// locally or by the continuations parked on its behalf.
pub(super) struct Call {
    origin: Origin,
    /// The request arrived as a "GB" container and is answered as one.
    batch: bool,
    replies: Vec<Option<Packet>>,
    /// Reply slots acking a placement stored on this node, with the
    /// invalidations each owes.
    stored: Vec<(usize, Fanout)>,
    /// Frames parked on this call's behalf that have not landed yet.
    outstanding: usize,
    /// The forwards are done and the invalidation phase runs.
    invalidating: bool,
    /// Every target confirmed its invalidation so far; a suspect or
    /// unreachable one downgrades the stored acks to `Degraded`.
    coherent: bool,
}

/// Packets of one call bound for the same next hop, with the reply slot
/// and cache admission each one's response belongs to.
#[derive(Default)]
struct Group {
    packets: Vec<Packet>,
    slots: Vec<(usize, Option<CacheFill>)>,
}

/// What a parked frame carries.
enum Work {
    /// Packets forwarded one hop.
    Forward(Group),
    /// One `Invalidate` per stored id of the call the peer may cache.
    Invalidate(Vec<Packet>),
}

/// A continuation: one frame written to peer `to`, waiting for its
/// correlated response.
pub(super) struct Pending {
    call: u64,
    pub(super) to: usize,
    /// Generation of the link connection the frame was last written to,
    /// so a dying link fails exactly the continuations it carried.
    pub(super) link: u64,
    /// The one resend a dead link grants has been used.
    pub(super) resent: bool,
    work: Work,
}

impl Reactor {
    /// Serves one request frame: every packet takes its local routing
    /// step, the packets bound for the same next hop leave in one frame
    /// per peer, and the call is answered once all of those landed (and
    /// its writes are coherent). A frame answered entirely here never
    /// touches the slabs.
    pub(super) fn serve(&mut self, origin: Origin, body: Body) {
        let (steps, batch) = match body {
            Body::One(packet) => match self.inner.route_step(packet) {
                Step::Respond { resp, fanout: None } => {
                    return self.respond(origin, std::slice::from_ref(&resp), false)
                }
                step => (vec![step], false),
            },
            Body::Many(packets) => (
                packets
                    .into_iter()
                    .map(|packet| self.inner.route_step(packet))
                    .collect(),
                true,
            ),
        };
        let mut call = Call {
            origin,
            batch,
            replies: Vec::with_capacity(steps.len()),
            stored: Vec::new(),
            outstanding: 0,
            invalidating: false,
            coherent: true,
        };
        // BTreeMap for a deterministic peer order within a call.
        let mut groups: BTreeMap<usize, Group> = BTreeMap::new();
        for (i, step) in steps.into_iter().enumerate() {
            match step {
                Step::Respond { resp, fanout } => {
                    if let Some(fanout) = fanout {
                        call.stored.push((i, fanout));
                    }
                    call.replies.push(Some(resp));
                }
                Step::Forward { to, packet, fill } => {
                    let group = groups.entry(to).or_default();
                    group.packets.push(packet);
                    group.slots.push((i, fill));
                    call.replies.push(None);
                }
            }
        }
        if let Some(conn) = self.conns[origin.slot].as_mut() {
            conn.inflight += 1;
        }
        if groups.is_empty() {
            return self.forwards_done(call);
        }
        call.outstanding = groups.len();
        let key = self.calls.park(call);
        for (to, group) in groups {
            self.launch(key, to, Work::Forward(group));
        }
    }

    /// Parks a continuation for one frame to peer `to` and writes it.
    fn launch(&mut self, call: u64, to: usize, work: Work) {
        let corr = self.parked.park(Pending {
            call,
            to,
            link: 0,
            resent: false,
            work,
        });
        self.inner.reactor.parked.fetch_add(1, Ordering::Relaxed);
        self.arm(self.inner.cfg.peer_reply_timeout, Timer::Reply(corr));
        self.transmit(corr);
    }

    /// Writes the parked continuation `corr`'s frame to its peer's link
    /// (dialing if need be). A link that cannot take it orphans the
    /// continuation; [`settle_deferred`](Reactor::settle_deferred) then
    /// walks it down the failure ladder.
    pub(super) fn transmit(&mut self, corr: u64) {
        let to = self
            .parked
            .get(corr)
            .expect("transmitting a parked frame")
            .to;
        let dialed = if self.draining {
            Err(io::Error::other("node is shutting down"))
        } else {
            self.link_to(to)
        };
        let slot = match dialed {
            Ok(slot) => slot,
            Err(e) => {
                self.inner.log(&format!("no link to node {to}: {e}"));
                self.orphans.push((corr, false));
                return;
            }
        };
        let pending = self.parked.get_mut(corr).expect("still parked");
        let conn = self.conns[slot]
            .as_mut()
            .expect("link_to returns a live slot");
        pending.link = conn.generation;
        let packets = match &pending.work {
            Work::Forward(group) => &group.packets,
            Work::Invalidate(packets) => packets,
        };
        conn.encode_call(&self.inner.counters, corr, packets, packets.len() > 1);
        let sent = match conn.proto {
            Protocol::Link {
                established: true, ..
            } => conn.outq.send(&mut conn.stream, &conn.scratch).map(drop),
            _ => {
                conn.outq.push(&conn.scratch);
                Ok(())
            }
        };
        self.settle(slot, sent);
    }

    /// A response frame arrived on a peer link: take its continuation
    /// back out and run it. An id nothing is parked under belongs to a
    /// continuation that already expired — the response is dropped.
    pub(super) fn complete(&mut self, corr: u64, body: Body) -> io::Result<()> {
        let Some(pending) = self.parked.get(corr) else {
            return Ok(());
        };
        let expected = match &pending.work {
            Work::Forward(group) => group.packets.len(),
            Work::Invalidate(packets) => packets.len(),
        };
        // A mismatched answer poisons the link, not just this frame: the
        // error closes it and everything parked on it is resent.
        let replies = body.into_vec();
        if replies.len() != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "response carries {} packets for {expected} requests",
                    replies.len()
                ),
            ));
        }
        let pending = self.unpark(corr).expect("observed above");
        self.inner.clear_suspect(pending.to);
        if let Work::Forward(Group { slots, .. }) = pending.work {
            let call = self
                .calls
                .get_mut(pending.call)
                .expect("call outlives its frames");
            for ((i, fill), reply) in slots.into_iter().zip(replies) {
                self.inner.maybe_cache(fill, &reply);
                call.replies[i] = Some(reply);
            }
        }
        self.landed(pending.call);
        Ok(())
    }

    fn unpark(&mut self, corr: u64) -> Option<Pending> {
        let pending = self.parked.take(corr)?;
        self.inner.reactor.parked.fetch_sub(1, Ordering::Relaxed);
        Some(pending)
    }

    /// Gives up on continuation `corr`: the peer is suspect from now on
    /// (greedy routing detours around it), forwarded packets are
    /// answered `Redirect` so the client retries instead of losing the
    /// write silently, and an unconfirmed invalidation downgrades its
    /// call's acks. A draining node refuses instead of accusing anyone.
    pub(super) fn fail(&mut self, corr: u64) {
        let Some(pending) = self.unpark(corr) else {
            return;
        };
        if !self.draining {
            self.inner.mark_suspect(pending.to);
        }
        let call = self
            .calls
            .get_mut(pending.call)
            .expect("call outlives its frames");
        match pending.work {
            Work::Forward(Group { packets, slots }) => {
                for ((i, _), packet) in slots.into_iter().zip(packets) {
                    call.replies[i] = Some(if self.draining {
                        self.inner.refuse(&packet, "node is shutting down")
                    } else {
                        self.inner.redirect(&packet, "peer unreachable")
                    });
                }
            }
            Work::Invalidate(_) => call.coherent = false,
        }
        self.landed(pending.call);
    }

    /// One of `call`'s frames landed (answered or failed); the last one
    /// moves the call on.
    fn landed(&mut self, call: u64) {
        let state = self.calls.get_mut(call).expect("call outlives its frames");
        state.outstanding -= 1;
        if state.outstanding > 0 {
            return;
        }
        let state = self.calls.take(call).expect("observed above");
        if state.invalidating {
            self.answer(state);
        } else {
            self.forwards_done(state);
        }
    }

    /// Every reply slot of `call` is filled. Write-through coherence:
    /// before a placement stored on this node acks, every switch that may
    /// cache an older copy (its [`Fanout`] targets) is told to drop it —
    /// one `Invalidate` frame per such peer, carrying just the call's ids
    /// that peer may hold, written back to back, the call answered after
    /// the last ack.
    ///
    /// An unreachable target is marked suspect and the ack downgraded to
    /// `Degraded` — never a hard failure. That keeps the guarantee exact
    /// without sacrificing availability: after a *clean* ack no cache
    /// anywhere can serve the old value, while a write racing a dead
    /// sharer still lands (degraded, so replication quorums don't count
    /// it). Targets already under suspicion are not re-probed on the
    /// write path — the first failure paid the timeout; further writes
    /// inside the TTL just stay degraded. A suspect peer that is no
    /// target cannot hold a copy and costs the write nothing.
    fn forwards_done(&mut self, mut call: Call) {
        if call.stored.is_empty() {
            return self.answer(call);
        }
        // BTreeMap for a deterministic peer order within a call.
        let mut frames: BTreeMap<usize, Vec<Packet>> = BTreeMap::new();
        {
            let (me, now) = (self.inner.id, self.inner.now_ms());
            let peers = self.inner.peers();
            for (slot, fanout) in &call.stored {
                let ack = call.replies[*slot]
                    .as_ref()
                    .expect("stored slot is answered");
                let notice = Packet::notice_for(ack);
                let mut owe = |to: usize| {
                    if peers.suspect_at(to, now) {
                        call.coherent = false;
                    } else {
                        frames.entry(to).or_default().push(notice.clone());
                    }
                };
                match fanout.targets.known() {
                    Some(ids) => ids.iter().for_each(|&id| owe(id as usize)),
                    None => (0..peers.suspect.len())
                        .filter(|&to| to != me)
                        .for_each(owe),
                }
            }
        }
        if frames.is_empty() {
            return self.answer(call); // nobody reachable could be caching
        }
        call.outstanding = frames.len();
        call.invalidating = true;
        let key = self.calls.park(call);
        for (to, packets) in frames {
            self.launch(key, to, Work::Invalidate(packets));
        }
    }

    /// Sends `call`'s replies to the connection it came from. A write
    /// whose every target confirmed is settled first; one that could not
    /// reach them all keeps its targets owed to the next write, and its
    /// ack is downgraded.
    fn answer(&mut self, mut call: Call) {
        for (slot, fanout) in &call.stored {
            let ack = call.replies[*slot]
                .as_mut()
                .expect("stored slot is answered");
            if call.coherent {
                self.inner.settle(&ack.id, fanout.serial);
            } else {
                degrade_ack(ack);
            }
        }
        let replies: Vec<Packet> = call
            .replies
            .into_iter()
            .map(|reply| reply.expect("every packet of the call is answered"))
            .collect();
        self.respond(call.origin, &replies, call.batch);
        let Origin {
            slot, generation, ..
        } = call.origin;
        if let Some(conn) = self.conns[slot]
            .as_mut()
            .filter(|conn| conn.generation == generation)
        {
            conn.inflight -= 1;
            self.touched.push(slot);
        }
    }

    /// Encodes `replies` and writes them to `origin` — unless that
    /// connection is gone (the slot empty or re-tenanted), in which case
    /// the answer has nowhere to go and is dropped.
    fn respond(&mut self, origin: Origin, replies: &[Packet], batch: bool) {
        let Some(conn) = self.conns[origin.slot]
            .as_mut()
            .filter(|conn| conn.generation == origin.generation)
        else {
            return;
        };
        conn.encode_call(&self.inner.counters, origin.corr, replies, batch);
        if conn.outq.send(&mut conn.stream, &conn.scratch).is_err() {
            self.close_conn(origin.slot);
        }
    }
}

/// Downgrades a clean placement ack whose invalidations could not reach
/// every target: the write landed, but some cache may still
/// hold the old value, so the copy must not count toward a replication
/// quorum. Already-degraded (detoured) acks are left alone.
fn degrade_ack(resp: &mut Packet) {
    if resp.status == ResponseStatus::Ok {
        resp.status = ResponseStatus::Degraded;
    }
}
