//! The per-layer ladder: the benchmark calls each layer's public
//! functions itself, one span per call, on the workload's own inputs.
//!
//! [`Layers::request`] replays one request along the path
//! `forwarding::route` returns, through bench-owned instances of the
//! structures a node holds (cache, store, frame decoder, write queue).
//! [`Layers::micro`], run after the replays, times the operations a
//! single request's walk does not reach. Nothing here feeds an
//! end-to-end metric.

use crate::gen;
use crate::metrics::Metrics;
use crate::trace::{Tracer, NONE};
use bytes::Bytes;
use gred::plane::forwarding;
use gred::GredNetwork;
use gred_cache::ReadCache;
use gred_cluster::frame::{begin_frame, finish_frame, FrameDecoder};
use gred_dataplane::{wire, Packet};
use gred_hash::{virtual_position, DataId};
use gred_runtime::{ShardedMap, WriteQueue};
use std::hint::black_box;

/// The read-cache budget a node gets by default (`NodeConfig::default`).
const NODE_CACHE_BYTES: usize = 8 * 1024 * 1024;
/// Packets per batch container in the batch encode/parse rows, and
/// frames per flush in the write-queue row.
const BATCH: usize = 64;
/// Spans per micro row.
const MICRO_SAMPLES: usize = 2_000;

/// Bench-owned instances of the structures one node holds, and the
/// network whose routes the replay walks.
pub struct Layers<'a> {
    net: &'a GredNetwork,
    cache: ReadCache,
    store: ShardedMap<DataId, Bytes>,
    decoder: FrameDecoder,
    writeq: WriteQueue,
    frame: Vec<u8>,
    payload_len: usize,
}

impl<'a> Layers<'a> {
    /// A node's worth of state: the store holds `per_node` of `keys`
    /// (the workload's per-node key count) and the cache as many as its
    /// default budget admits.
    pub fn new(
        net: &'a GredNetwork,
        keys: &[DataId],
        payload_len: usize,
        per_node: usize,
    ) -> Layers<'a> {
        let cache = ReadCache::new(NODE_CACHE_BYTES);
        let store = ShardedMap::new();
        for (i, id) in keys.iter().enumerate() {
            let payload = gen::payload(i as u32, 0, 0, payload_len);
            if i < per_node {
                store.insert(id.clone(), payload.clone());
            }
            if (i + 1) * payload_len < NODE_CACHE_BYTES {
                let token = cache.begin_read(id);
                cache.insert_if_fresh(token, id.clone(), payload);
            }
        }
        Layers {
            net,
            cache,
            store,
            decoder: FrameDecoder::new(),
            writeq: WriteQueue::new(),
            frame: Vec::new(),
            payload_len,
        }
    }

    /// Frames `packet` the way a node sends it: length prefix + wire body.
    fn encode(&mut self, t: &mut Tracer, root: u32, req: u32, packet: &Packet) {
        let frame = &mut self.frame;
        t.leaf("dataplane.encode", root, req, || {
            frame.clear();
            let at = begin_frame(frame);
            wire::encode_into(packet, frame);
            finish_frame(frame, at);
        });
    }

    /// Receives the current frame the way a node does: reassemble, parse.
    fn receive(&mut self, t: &mut Tracer, root: u32, req: u32) -> Packet {
        let (decoder, frame) = (&mut self.decoder, &self.frame);
        let body = t.leaf("cluster.frame_decode", root, req, || {
            decoder.feed(frame);
            decoder
                .next_frame()
                .expect("a frame the benchmark built")
                .expect("a whole frame was fed")
        });
        t.leaf("dataplane.parse", root, req, || {
            wire::parse_bytes(&body).expect("a packet the benchmark encoded")
        })
    }

    fn send(&mut self, t: &mut Tracer, root: u32, req: u32) {
        let (writeq, frame) = (&mut self.writeq, &self.frame);
        t.leaf("runtime.writeq_send", root, req, || {
            writeq
                .send(&mut std::io::sink(), frame)
                .expect("a sink accepts every byte")
        });
    }

    /// Replays one request under span `root`: hash, route, then per hop
    /// frame reassembly, parse, greedy decision and re-encode; the cache
    /// probe at the access switch; the store at the owner; and the
    /// response relayed back hop by hop to the client. A read that hits
    /// the cache is answered at the access switch, as a node does.
    pub fn request(
        &mut self,
        t: &mut Tracer,
        root: u32,
        req: u32,
        access: usize,
        id: &DataId,
        write: Option<Bytes>,
    ) {
        t.leaf("hash.position", root, req, || {
            black_box(virtual_position(black_box(id)))
        });
        let position = self.net.position_of_id(id);
        let planes = self.net.dataplanes();
        let route = t.leaf("core.route", root, req, || {
            forwarding::route(planes, access, position, id).expect("a member routes every id")
        });
        let request = match &write {
            Some(payload) => Packet::placement(id.clone(), payload.clone()),
            None => Packet::retrieval(id.clone()),
        };
        self.encode(t, root, req, &request);

        let last = route.switches.len() - 1;
        let mut overlay = route.overlay.iter().peekable();
        let mut answered_at = last;
        let mut response = None;
        for (i, &switch) in route.switches.iter().enumerate() {
            let packet = self.receive(t, root, req);
            // Relay switches inside a virtual link forward by table
            // lookup; only overlay (DT member) switches run greedy.
            if overlay.next_if_eq(&&switch).is_some() {
                t.leaf("dataplane.decide", root, req, || {
                    black_box(planes[switch].decide(position, id))
                });
            }
            if i == 0 && last > 0 && write.is_none() {
                let probe = t.open("cache.get_miss", root, req);
                let hit = self.cache.get(id);
                t.close(probe);
                if let Some(payload) = hit {
                    t.spans[probe as usize].name = "cache.get_hit";
                    response = Some(Packet::response(id.clone(), payload));
                    answered_at = 0;
                    break;
                }
            }
            if i < last {
                self.encode(t, root, req, &packet);
            }
        }
        let response = response.unwrap_or_else(|| match write {
            Some(payload) => {
                let store = &self.store;
                t.leaf("runtime.store_insert", root, req, || {
                    store.insert(id.clone(), payload)
                });
                Packet::response(id.clone(), Bytes::new())
            }
            None => {
                let store = &self.store;
                let found = t.leaf("runtime.store_get", root, req, || store.get_cloned(id));
                Packet::response(id.clone(), found.unwrap_or_default())
            }
        });
        // The response travels back over the same links: every switch
        // writes it out, every upstream switch (and finally the client)
        // reassembles and parses it first.
        self.encode(t, root, req, &response);
        for _ in 0..answered_at {
            self.send(t, root, req);
            let relayed = self.receive(t, root, req);
            self.encode(t, root, req, &relayed);
        }
        self.send(t, root, req);
        black_box(self.receive(t, root, req));
    }

    /// Times the operations a request's walk does not reach, one span
    /// per operation, on `keys`.
    pub fn micro(&mut self, t: &mut Tracer, keys: &[DataId]) {
        let payload = gen::payload(0, 0, 0, self.payload_len);
        let absent: Vec<DataId> = (0..MICRO_SAMPLES)
            .map(|i| DataId::new(format!("absent/{i}")))
            .collect();

        for _ in 0..MICRO_SAMPLES {
            let span = t.open("bench.empty_span", NONE, NONE);
            t.close(span);
        }
        for id in &absent {
            t.leaf("cache.get_miss", NONE, NONE, || self.cache.get(id));
        }
        for id in keys.iter().cycle().take(MICRO_SAMPLES) {
            t.leaf("cache.get_hit", NONE, NONE, || self.cache.get(id));
        }
        // Dropping a cached id: what a peer's write to it causes here.
        for id in keys.iter().take(MICRO_SAMPLES) {
            t.leaf("cache.invalidate", NONE, NONE, || self.cache.invalidate(id));
        }

        // Fills into a cache already at its budget, so each one evicts.
        let full = ReadCache::new(NODE_CACHE_BYTES);
        for i in 0..=NODE_CACHE_BYTES / self.payload_len {
            let id = DataId::new(format!("resident/{i}"));
            let token = full.begin_read(&id);
            full.insert_if_fresh(token, id, payload.clone());
        }
        for id in &absent {
            t.leaf("cache.fill", NONE, NONE, || {
                let token = full.begin_read(id);
                full.insert_if_fresh(token, id.clone(), payload.clone())
            });
        }

        for id in &absent {
            t.leaf("runtime.store_insert", NONE, NONE, || {
                self.store.insert(id.clone(), payload.clone())
            });
        }
        for id in keys.iter().cycle().take(MICRO_SAMPLES) {
            t.leaf("runtime.store_get", NONE, NONE, || {
                self.store.get_cloned(id)
            });
        }

        // 64 response frames queued, then one gathered flush.
        let response = Packet::response(keys[0].clone(), payload.clone());
        self.frame.clear();
        let at = begin_frame(&mut self.frame);
        wire::encode_into(&response, &mut self.frame);
        finish_frame(&mut self.frame, at);
        for _ in 0..MICRO_SAMPLES / BATCH {
            t.leaf("runtime.writeq_flush", NONE, NONE, || {
                for _ in 0..BATCH {
                    self.writeq.push(&self.frame);
                }
                self.writeq
                    .flush(&mut std::io::sink())
                    .expect("a sink accepts every byte")
            });
        }

        // The batch container a pipelined client ships: 64 requests out,
        // 64 responses back.
        let requests: Vec<Packet> = keys
            .iter()
            .cycle()
            .take(BATCH)
            .map(|id| Packet::retrieval(id.clone()))
            .collect();
        let responses: Vec<Packet> = keys
            .iter()
            .cycle()
            .take(BATCH)
            .map(|id| Packet::response(id.clone(), payload.clone()))
            .collect();
        let mut buf = Vec::new();
        for _ in 0..MICRO_SAMPLES / BATCH {
            for batch in [&requests, &responses] {
                t.leaf("dataplane.batch_encode", NONE, NONE, || {
                    buf.clear();
                    wire::encode_batch_into(batch, &mut buf);
                });
                let body = Bytes::copy_from_slice(&buf);
                t.leaf("dataplane.batch_parse", NONE, NONE, || {
                    wire::parse_batch_bytes(&body).expect("a batch the benchmark encoded")
                });
            }
        }
    }
}

/// Turns the tracer's spans into the per-layer `ns` rows: each row is
/// the mean self time of the layer's spans, less the cost of an empty
/// span (the two clock reads every span contains).
pub fn report(t: &Tracer, out: &mut Metrics) {
    let means = t.mean_self_ns();
    let mean = |name: &str| means.get(name).copied().unwrap_or(0.0);
    let overhead = mean("bench.empty_span");
    out.set("bench.span_overhead_ns", overhead);
    let net_of_clock = |name: &str| (mean(name) - overhead).max(0.0);
    for (metric, span) in [
        ("hash.position_ns", "hash.position"),
        ("dataplane.decide_ns", "dataplane.decide"),
        ("dataplane.encode_ns", "dataplane.encode"),
        ("dataplane.parse_ns", "dataplane.parse"),
        ("cache.get_hit_ns", "cache.get_hit"),
        ("cache.get_miss_ns", "cache.get_miss"),
        ("cache.fill_ns", "cache.fill"),
        ("cache.invalidate_ns", "cache.invalidate"),
        ("runtime.store_get_ns", "runtime.store_get"),
        ("runtime.store_insert_ns", "runtime.store_insert"),
        ("runtime.writeq_flush_ns", "runtime.writeq_flush"),
        ("cluster.frame_decode_ns", "cluster.frame_decode"),
        ("core.route_ns", "core.route"),
    ] {
        out.set(metric, net_of_clock(span));
    }
    for (metric, span) in [
        (
            "dataplane.batch_encode_ns_per_pkt",
            "dataplane.batch_encode",
        ),
        ("dataplane.batch_parse_ns_per_pkt", "dataplane.batch_parse"),
    ] {
        out.set(metric, net_of_clock(span) / BATCH as f64);
    }
}
