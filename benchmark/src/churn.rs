//! The control-plane workload: a 2,000-switch network absorbing a
//! stream of join + leave batches through `GredNetwork::apply_delta`.
//! No sockets; `core`, `geometry` and `linalg` do all the work.
//!
//! A *request* is one topology change, a *call* one `apply_delta` batch.

use crate::gen;
use crate::host;
use crate::layers::{self, Layers};
use crate::paper;
use crate::stats;
use crate::trace::{Tracer, NONE};
use crate::{Outcome, RunArgs};
use gred::{BuildReport, GredConfig, GredNetwork};
use gred_hash::DataId;
use gred_net::{waxman_topology, ServerPool, WaxmanConfig};
use rand::rngs::StdRng;
use std::time::Instant;

const SWITCHES: usize = 2_000;
/// As in the serving workloads, the starting network is fixed and the
/// seed drives what happens to it.
const TOPOLOGY_SEED: u64 = 2019;
const LANDMARKS: usize = 64;
/// Batches applied before timing starts.
const DISCARDED: usize = 8;
/// Batches per throughput window.
const WINDOW_BATCHES: usize = 15;
/// Timed windows after which `stretch_mean` and `load_max_over_avg` are
/// read: few enough that every run gets there.
const SETTLED_WINDOWS: usize = 4;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Payload size the layer replay uses; the workload stores no data.
const REPLAY_PAYLOAD: usize = 256;
const REPLAY_REQUESTS: usize = 2_000;

/// The landmark build — `setup_s` of this workload.
fn build() -> (GredNetwork, BuildReport) {
    let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(SWITCHES, TOPOLOGY_SEED));
    let pool = ServerPool::uniform(SWITCHES, 4, u64::MAX);
    let config = GredConfig::with_iterations(10)
        .seeded(TOPOLOGY_SEED)
        .landmarks(LANDMARKS);
    GredNetwork::build_reported(topo, pool, config).expect("the seeded network builds")
}

/// The batch stream and what applying it has shown so far.
struct Churn {
    rng: StdRng,
    t: Tracer,
    /// Per timed batch.
    latencies_ms: Vec<f64>,
    affected: Vec<f64>,
    reuse: Vec<f64>,
    failed_batches: u64,
    batch_no: u32,
}

impl Churn {
    /// Generates the next batch against `net` as it stands (untimed)
    /// and applies it inside a span.
    fn apply(&mut self, net: &mut GredNetwork, timed: bool) {
        let batch = gen::churn_batch(&mut self.rng, net.topology(), net.members());
        let root = self.t.open("request", NONE, self.batch_no);
        let span = self.t.open("core.apply_delta", root, self.batch_no);
        let result = net.apply_delta(&batch);
        self.t.close(span);
        self.t.close(root);
        self.batch_no += 1;
        let spent = &self.t.spans[span as usize];
        match result {
            Ok(report) if timed => {
                self.latencies_ms
                    .push((spent.end - spent.start) as f64 / 1e6);
                self.affected.push(report.affected.len() as f64);
                self.reuse.push(report.reuse_ratio());
            }
            Ok(_) => {}
            Err(e) => {
                self.failed_batches += 1;
                eprintln!("churn: batch {} failed: {e}", self.batch_no);
            }
        }
    }
}

/// Runs the churn workload end to end.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let m = &mut out.metrics;

    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let (mut net, report) = loop {
        let start = Instant::now();
        let built = build();
        setup_s.push(start.elapsed().as_secs_f64());
        if setup_s.len() == reps {
            break built;
        }
    };
    m.set("setup_s", stats::median(&setup_s));
    let fresh = args.trace.then(|| paper::route_sample(&net, args.seed));

    let mut churn = Churn {
        rng: gen::rng(args.seed, 1),
        t: Tracer::with_capacity(1 << 18),
        latencies_ms: Vec::new(),
        affected: Vec::new(),
        reuse: Vec::new(),
        failed_batches: 0,
        batch_no: 0,
    };
    for _ in 0..DISCARDED {
        churn.apply(&mut net, false);
    }
    // Timed batches in windows of WINDOW_BATCHES; the timing metrics
    // rest on the faster half of the windows (see `stats::faster_half`).
    // The paper's metrics are read off the network SETTLED_WINDOWS
    // leave, the same for a seed however many windows the run fits in.
    let budget = std::time::Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut window_cpu = Vec::new();
    let mut settled = None;
    while start.elapsed() < budget || window_cpu.len() < 2 {
        let cpu = host::cpu_seconds();
        for _ in 0..WINDOW_BATCHES {
            churn.apply(&mut net, true);
        }
        window_cpu.push(host::cpu_seconds() - cpu);
        if window_cpu.len() == SETTLED_WINDOWS {
            settled = Some(net.clone());
        }
    }
    let Churn {
        mut t,
        latencies_ms,
        affected,
        reuse,
        failed_batches,
        batch_no,
        ..
    } = churn;
    let batches = latencies_ms.len();
    out.info.push(("batches".into(), batches as f64));

    let window = |i: usize| &latencies_ms[i * WINDOW_BATCHES..(i + 1) * WINDOW_BATCHES];
    let rates: Vec<f64> = (0..window_cpu.len())
        .map(|i| 2.0 * WINDOW_BATCHES as f64 / (window(i).iter().sum::<f64>() / 1e3))
        .collect();
    for (i, rate) in rates.iter().enumerate() {
        out.info.push((format!("window_{i}_rps"), *rate));
    }
    let fast = stats::faster_half(&rates);
    let fast_rates: Vec<f64> = fast.iter().map(|&i| rates[i]).collect();
    m.set("throughput_rps", stats::median(&fast_rates));
    let mut pooled: Vec<f64> = fast.iter().flat_map(|&i| window(i)).copied().collect();
    stats::sort(&mut pooled);
    m.set("call_p50_ms", stats::percentile(&pooled, 0.5));
    m.set("call_p90_ms", stats::percentile(&pooled, 0.9));
    let cpu: f64 = fast.iter().map(|&i| window_cpu[i]).sum();
    m.set(
        "cpu_us_per_req",
        cpu * 1e6 / (2 * WINDOW_BATCHES * fast.len()).max(1) as f64,
    );

    // Correctness of the network the batches left behind.
    let findings = net.verify_invariants();
    let routes = paper::route_sample(&net, args.seed);
    let settled = settled.as_ref().unwrap_or(&net);
    m.set(
        "stretch_mean",
        paper::route_sample(settled, args.seed).stretch_mean,
    );
    m.set(
        "load_max_over_avg",
        paper::load_max_over_avg(settled, args.seed),
    );
    out.attempted = 2 * (DISCARDED + batches) as u64 + paper::STRETCH_PAIRS as u64 + 1;
    out.failed = 2 * failed_batches + routes.misdelivered + findings.len() as u64;
    if routes.misdelivered > 0 {
        out.problems.push(format!(
            "{} sampled routes did not end at responsible_server",
            routes.misdelivered
        ));
    }
    out.problems.extend(findings.into_iter().take(5));
    if failed_batches > 0 {
        out.problems
            .push(format!("{failed_batches} apply_delta batches failed"));
    }

    if let Some(fresh) = fresh {
        crate::build_rows(&report, m);
        let tables = net.table_stats();
        m.set("dataplane.entries_p50", tables.p50 as f64);
        m.set("dataplane.entries_max", tables.max as f64);
        m.set("core.delta_affected_mean", stats::mean(&affected));
        m.set("core.delta_reuse_ratio", stats::mean(&reuse));
        m.set("core.delta_peak_rss_mb", host::peak_rss_mb());
        m.set("core.stretch_fresh", fresh.stretch_mean);
        m.set("core.route_hops_mean", routes.hops_mean);

        // The layer ladder on this network's own routes.
        let ids: Vec<DataId> = (0..REPLAY_REQUESTS)
            .map(|i| gen::key_id("churn", i))
            .collect();
        let mut layers = Layers::new(&net, &ids, REPLAY_PAYLOAD, REPLAY_REQUESTS);
        let members = net.members();
        for (i, id) in ids.iter().enumerate() {
            let req = batch_no + i as u32;
            let root = t.open("replay", NONE, req);
            layers.request(&mut t, root, req, members[i % members.len()], id, None);
            t.close(root);
        }
        layers.micro(&mut t, &ids);
        layers::report(&t, m);
        crate::write_trace(&t, "churn");
    }
    out
}
