//! Per-request trace records.
//!
//! Experiments report aggregates; traces keep the raw per-request rows
//! (key, access switch, owner, hops, stretch) and answer stretch
//! quantiles over them.

use gred::GredNetwork;
use gred_hash::DataId;
use serde::Serialize;

/// One traced request.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RequestTrace {
    /// The data identifier, rendered.
    pub key: String,
    /// Access switch.
    pub access: usize,
    /// Owner (destination) switch.
    pub owner: usize,
    /// Physical hops of the request path.
    pub hops: u32,
    /// Greedy (overlay) hops.
    pub overlay_hops: u32,
    /// Shortest-path hops access → owner.
    pub shortest: u32,
    /// Routing stretch.
    pub stretch: f64,
}

/// Collects traces and running aggregates.
#[derive(Debug, Clone, Default)]
pub struct TraceCollector {
    traces: Vec<RequestTrace>,
}

impl TraceCollector {
    /// An empty collector.
    pub fn new() -> Self {
        TraceCollector::default()
    }

    /// Routes `id` from `access` on `net` and records the trace.
    ///
    /// # Panics
    ///
    /// Panics if routing fails (experiments only trace valid access
    /// switches on connected networks).
    pub fn trace_request(&mut self, net: &GredNetwork, id: &DataId, access: usize) {
        let pos = net.position_of_id(id);
        let route = gred::plane::forwarding::route(net.dataplanes(), access, pos, id)
            .expect("trace requests route");
        let shortest = net
            .topology()
            .shortest_path(access, route.dest)
            .expect("connected")
            .len() as u32
            - 1;
        self.traces.push(RequestTrace {
            key: id.to_string(),
            access,
            owner: route.dest,
            hops: route.physical_hops(),
            overlay_hops: route.overlay_hops(),
            shortest,
            stretch: crate::metrics::stretch(route.physical_hops(), shortest),
        });
    }

    /// The recorded traces, in request order.
    pub fn traces(&self) -> &[RequestTrace] {
        &self.traces
    }

    /// Number of traced requests.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether nothing has been traced.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// The `q`-quantile (0–1) of per-request stretch, by nearest rank.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `[0, 1]` or the collector is empty.
    pub fn stretch_quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        assert!(!self.traces.is_empty(), "no traces recorded");
        let mut xs: Vec<f64> = self.traces.iter().map(|t| t.stretch).collect();
        xs.sort_by(f64::total_cmp);
        let rank = ((xs.len() as f64 - 1.0) * q).round() as usize;
        xs[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gred::GredConfig;
    use gred_net::{waxman_topology, ServerPool, WaxmanConfig};

    fn net() -> GredNetwork {
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(15, 4));
        let pool = ServerPool::uniform(15, 2, u64::MAX);
        GredNetwork::build(topo, pool, GredConfig::with_iterations(10)).unwrap()
    }

    #[test]
    fn traces_accumulate_and_aggregate() {
        let net = net();
        let mut c = TraceCollector::new();
        assert!(c.is_empty());
        for i in 0..40 {
            c.trace_request(&net, &DataId::new(format!("t/{i}")), i % 15);
        }
        assert_eq!(c.len(), 40);
        assert!(c.stretch_quantile(1.0) >= c.stretch_quantile(0.5));
        assert!(c.stretch_quantile(0.0) >= 1.0);
    }

    #[test]
    fn traces_are_internally_consistent() {
        let net = net();
        let mut c = TraceCollector::new();
        c.trace_request(&net, &DataId::new("x"), 3);
        let t = &c.traces()[0];
        assert_eq!(t.access, 3);
        assert!(t.hops >= t.shortest);
        assert!(t.overlay_hops <= t.hops);
        assert_eq!(t.stretch, crate::metrics::stretch(t.hops, t.shortest));
    }

    #[test]
    #[should_panic(expected = "no traces")]
    fn quantile_of_empty_panics() {
        TraceCollector::new().stretch_quantile(0.5);
    }
}
