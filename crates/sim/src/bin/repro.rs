//! `repro` — regenerate every figure of the GRED paper, plus the
//! repository's extension experiments.
//!
//! ```text
//! repro <experiment> [--paper] [--csv <dir>]
//! repro soak [--seed <n>] [--ops <n>] [--switches <n>]
//! repro cluster [--seed <n>] [--ops <n>] [--switches <n>] [--json <path>]
//! repro chaos [--seed <n>] [--ops <n>] [--switches <n>] [--kills <n>]
//!
//! experiments: one per row of the `EXPERIMENTS` table below, or `all`
//!              (the default); any other word prints the full list, and
//!              any flag not shown here the list of flags (exit 2)
//!
//! --paper       run at the paper's full scale (minutes) instead of the
//!               quick preset (seconds)
//! --csv <dir>   also write each experiment's rows to <dir>/<name>.csv
//!
//! `soak` drives the gred-testkit model-based harness through one long
//! seeded schedule (default seed 2019, 2000 ops, 12 switches), checking
//! every invariant after every operation. On failure it prints the
//! failing step, the violations, a one-line reproduction command, and a
//! greedily shrunk (drop-one minimal) schedule, then exits nonzero.
//!
//! `cluster` boots every switch of a seeded network as a real TCP node
//! on loopback (gred-cluster), places `--ops` ids through rotating
//! access nodes, retrieves them all back over the sockets, verifies each
//! ack against the in-process model, scrapes every node purely over the
//! wire and prints per-node snapshots and the cluster health (`--json`
//! also writes them to a file), and shuts the cluster down gracefully.
//! Any lost request, wrong payload, or wrong owner exits nonzero.
//!
//! `chaos` runs the crash-tolerance acceptance scenario: a loopback
//! cluster behind a per-link fault fabric, a seeded replicated workload
//! (`k = 2`, quorum acks), seeded node kills and link faults mid-run,
//! operator-style crash recovery, and a final audit of every
//! acknowledged write. A lost acknowledged write exits 1. The fault
//! plan and workload are pure functions of `--seed`/`--ops`, so the
//! printed repro line replays the same faults. Set `GRED_CHAOS_DIR` to
//! also write the fault schedule to a file (CI uploads it on failure).
//! ```

use gred_net::LatencyModel;
use gred_sim::experiments::{
    availability, churn, contention, control_overhead, delay, embedding, forwarding_load,
    heterogeneity, hotspot, load, stretch, table_entries, testbed,
};
use gred_sim::report::{cells, f3, render_csv, render_table};
use std::path::PathBuf;

const SEED: u64 = 2019;

struct Scale {
    stretch_sizes: Vec<usize>,
    stretch_items: usize,
    degree_switches: usize,
    degrees: Vec<usize>,
    entry_sizes: Vec<usize>,
    load_servers: Vec<usize>,
    load_items: usize,
    item_sweep: Vec<usize>,
    sweep_servers: usize,
    iteration_sweep: Vec<usize>,
    testbed_requests: usize,
    testbed_items: usize,
    delay_requests: Vec<usize>,
    churn_sizes: Vec<usize>,
    churn_items: usize,
    build_switches: usize,
}

impl Scale {
    fn quick() -> Self {
        Scale {
            stretch_sizes: vec![20, 40, 60],
            stretch_items: 50,
            degree_switches: 40,
            degrees: vec![3, 5, 7, 10],
            entry_sizes: vec![20, 40, 60, 80],
            load_servers: vec![200, 400, 600],
            load_items: 20_000,
            item_sweep: vec![20_000, 50_000, 100_000],
            sweep_servers: 300,
            iteration_sweep: vec![0, 10, 20, 50],
            testbed_requests: 100,
            testbed_items: 5_000,
            delay_requests: vec![100, 400, 1000],
            churn_sizes: vec![20, 40],
            churn_items: 500,
            build_switches: 60,
        }
    }

    /// The paper's parameters (Section VII-B).
    fn paper() -> Self {
        Scale {
            stretch_sizes: vec![20, 60, 100, 140, 180],
            stretch_items: 100,
            degree_switches: 100,
            degrees: vec![3, 4, 5, 6, 7, 8, 9, 10],
            entry_sizes: vec![20, 60, 100, 140, 180],
            load_servers: vec![200, 400, 600, 800, 1000],
            load_items: 100_000,
            item_sweep: vec![100_000, 250_000, 500_000, 750_000, 1_000_000],
            sweep_servers: 1000,
            iteration_sweep: vec![0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
            testbed_requests: 100,
            testbed_items: 10_000,
            delay_requests: vec![100, 200, 400, 600, 800, 1000],
            churn_sizes: vec![20, 60, 100],
            churn_items: 2_000,
            build_switches: 200,
        }
    }
}

/// Table sink: always prints; optionally writes CSV next to it.
struct Output {
    csv_dir: Option<PathBuf>,
}

impl Output {
    fn emit(&self, name: &str, title: &str, headers: &[&str], rows: Vec<Vec<String>>) {
        println!("\n== {title} ==");
        println!("{}", render_table(headers, &rows));
        if let Some(dir) = &self.csv_dir {
            std::fs::create_dir_all(dir).expect("csv dir is creatable");
            let path = dir.join(format!("{name}.csv"));
            std::fs::write(&path, render_csv(headers, &rows)).expect("csv is writable");
            eprintln!("wrote {}", path.display());
        }
    }
}

/// One table an experiment prints and, with `--csv`, writes to
/// `<dir>/<csv>.csv`; `csv` is given only where the file is not named
/// after the experiment. `rows` gets the scale.
struct Table {
    csv: Option<&'static str>,
    title: &'static str,
    headers: &'static [&'static str],
    rows: fn(&Scale) -> Vec<Vec<String>>,
}

/// What running an experiment does.
enum Run {
    /// Computes and emits each table in turn.
    Tables(&'static [Table]),
    /// Prints free-form text of its own.
    Text(fn()),
}

/// An experiment: the subcommand names that select it and what it runs.
struct Experiment {
    names: &'static [&'static str],
    run: Run,
}

/// Every experiment, in the order `repro all` runs them. The
/// unknown-name message and `all` are read off this table; nothing else
/// lists the names.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        names: &["fig7a", "fig7b"],
        run: Run::Tables(&[Table {
            csv: Some("fig7"),
            title: "Fig. 7(a)/(b): P4 testbed — stretch and load balance",
            headers: &["system", "mean stretch", "max/avg"],
            rows: |s| {
                cells(&testbed::testbed_experiment(
                    s.testbed_requests,
                    s.testbed_items,
                    SEED,
                ))
            },
        }]),
    },
    Experiment {
        names: &["fig8"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Fig. 8: average response delay vs retrieval requests",
            headers: &["requests", "system", "avg delay (us)"],
            rows: |s| {
                cells(&delay::response_delay(
                    &s.delay_requests,
                    LatencyModel::default(),
                    SEED,
                ))
            },
        }]),
    },
    Experiment {
        names: &["fig9a"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Fig. 9(a): routing stretch vs network size",
            headers: &["switches", "system", "mean stretch", "ci90"],
            rows: |s| {
                cells(&stretch::stretch_vs_network_size(
                    &s.stretch_sizes,
                    s.stretch_items,
                    SEED,
                ))
            },
        }]),
    },
    Experiment {
        names: &["fig9b"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Fig. 9(b): routing stretch vs min degree",
            headers: &["min degree", "system", "mean stretch", "ci90"],
            rows: |s| {
                cells(&stretch::stretch_vs_min_degree(
                    &s.degrees,
                    s.degree_switches,
                    s.stretch_items,
                    SEED,
                ))
            },
        }]),
    },
    Experiment {
        names: &["fig9c"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Fig. 9(c): stretch with range extension",
            headers: &["switches", "system", "mean stretch", "ci90"],
            rows: |s| {
                cells(&stretch::stretch_with_extension(
                    &s.stretch_sizes,
                    s.stretch_items,
                    SEED,
                ))
            },
        }]),
    },
    Experiment {
        names: &["fig9d"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Fig. 9(d): forwarding entries per switch vs network size",
            headers: &["switches", "mean entries", "ci90", "min", "max"],
            rows: |s| {
                cells(&table_entries::entries_vs_network_size(
                    &s.entry_sizes,
                    SEED,
                ))
            },
        }]),
    },
    Experiment {
        names: &["fig11a"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Fig. 11(a): load balance vs number of servers",
            headers: &["servers", "system", "max/avg"],
            rows: |s| {
                cells(&load::load_vs_network_size(
                    &s.load_servers,
                    s.load_items,
                    SEED,
                ))
            },
        }]),
    },
    Experiment {
        names: &["fig11b"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Fig. 11(b): load balance vs number of items",
            headers: &["items", "system", "max/avg"],
            rows: |s| cells(&load::load_vs_items(&s.item_sweep, s.sweep_servers, SEED)),
        }]),
    },
    Experiment {
        names: &["fig11c"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Fig. 11(c): load balance vs iterations T",
            headers: &["T", "system", "max/avg"],
            rows: |s| {
                cells(&load::load_vs_iterations(
                    &s.iteration_sweep,
                    s.load_items,
                    s.sweep_servers,
                    SEED,
                ))
            },
        }]),
    },
    Experiment {
        names: &["tables"],
        run: Run::Text(print_extension_tables),
    },
    Experiment {
        names: &["churn"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Extension: migration volume on join/leave (Section VI claim)",
            headers: &["switches", "event", "moved fraction", "fair share"],
            rows: |s| cells(&churn::churn_migration(&s.churn_sizes, s.churn_items, SEED)),
        }]),
    },
    Experiment {
        names: &["churn-owners"],
        run: Run::Tables(&[Table {
            csv: Some("churn_owners"),
            title: "Extension: ownership churn on join — GRED vs Chord",
            headers: &["switches", "system", "moved fraction", "fair share"],
            rows: |s| cells(&churn::owner_churn_comparison(&s.churn_sizes, 5_000, SEED)),
        }]),
    },
    Experiment {
        names: &["embedding"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Ablation: M-position vs oracle vs random coordinates",
            headers: &["switches", "source", "mean stretch", "ci90"],
            rows: |s| {
                cells(&embedding::embedding_ablation(
                    &s.stretch_sizes,
                    s.stretch_items,
                    SEED,
                ))
            },
        }]),
    },
    Experiment {
        names: &["qdelay"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Extension: response delay with FIFO server queueing",
            headers: &["requests", "system", "avg delay (us)"],
            rows: |s| {
                cells(&delay::response_delay_with_queueing(
                    &s.delay_requests,
                    LatencyModel::default(),
                    50_000.0, // 50 ms arrival window: visible queueing at 1000 requests
                    SEED,
                ))
            },
        }]),
    },
    Experiment {
        names: &["availability"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Extension: availability under edge-node crashes",
            headers: &["replicas", "failures", "availability"],
            rows: |s| {
                cells(&availability::availability_under_crashes(
                    &[1, 2, 3],
                    s.churn_sizes[0] / 5,
                    s.churn_sizes[0],
                    s.churn_items.min(500),
                    SEED,
                ))
            },
        }]),
    },
    Experiment {
        names: &["hotspot"],
        run: Run::Tables(&[
            Table {
                csv: None,
                title: "Extension: request load under Zipf popularity, with hot-item replication",
                headers: &["zipf s", "hot replicas", "request max/avg"],
                rows: |s| {
                    cells(&hotspot::hotspot_request_load(
                        &[0.0, 0.8, 1.2],
                        &[1, 4],
                        500,
                        10,
                        s.load_items.min(10_000),
                        SEED,
                    ))
                },
            },
            Table {
                csv: Some("flash_crowd"),
                title: "Extension: regional flash crowd on a cold key, before/after replication",
                headers: &["phase", "request max/avg", "peak share"],
                rows: |s| {
                    cells(&hotspot::flash_crowd_request_load(
                        500,
                        s.load_items.min(10_000),
                        3,
                        SEED,
                    ))
                },
            },
        ]),
    },
    Experiment {
        names: &["contention"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Extension: completion time under link contention — GRED vs Chord",
            headers: &["requests", "system", "mean completion (us)"],
            rows: |s| {
                cells(&contention::contention_completion(
                    &s.delay_requests,
                    1_000.0,
                    gred_net::LinkParams::default(),
                    SEED,
                ))
            },
        }]),
    },
    Experiment {
        names: &["fload"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Extension: per-switch forwarding-load concentration",
            headers: &["system", "max/avg", "total switch visits"],
            rows: |_| cells(&forwarding_load::forwarding_load(30, 2_000, SEED)),
        }]),
    },
    Experiment {
        names: &["cdf"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Extension: GRED per-request stretch distribution",
            headers: &["quantile", "stretch"],
            rows: |s| stretch_cdf_rows(s.load_items.min(2_000)),
        }]),
    },
    Experiment {
        names: &["overhead"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Extension: control-plane update footprint of a join",
            headers: &[
                "switches",
                "switches touched",
                "entry delta",
                "newcomer entries",
            ],
            rows: |s| cells(&control_overhead::join_overhead(&s.churn_sizes, SEED)),
        }]),
    },
    Experiment {
        names: &["hetero"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Extension: heterogeneous server counts — why range extension exists",
            headers: &["system", "per-server max/avg"],
            rows: |s| {
                cells(&heterogeneity::heterogeneous_load(
                    25,
                    s.load_items.min(30_000),
                    SEED,
                ))
            },
        }]),
    },
    Experiment {
        names: &["build-report"],
        run: Run::Tables(&[Table {
            csv: None,
            title: "Instrumentation: control-plane build phases by variant",
            headers: &["variant", "phase", "items", "wall (ms)"],
            rows: |s| build_report_rows(s.build_switches),
        }]),
    },
];

/// An acceptance harness: prints its own text, so `all` leaves it out.
/// All three take `--seed`, `--ops` and `--switches`; `run` gets those
/// three and the command line for whatever else it reads.
struct Harness {
    name: &'static str,
    ops: u64,
    switches: u64,
    min_switches: usize,
    run: fn(u64, usize, usize, &Args),
}

const HARNESSES: &[Harness] = &[
    Harness {
        name: "soak",
        ops: 2000,
        switches: 12,
        min_switches: 4,
        run: |seed, ops, switches, _| run_soak(seed, ops, switches),
    },
    Harness {
        name: "cluster",
        ops: 500,
        switches: 12,
        min_switches: 4,
        run: |seed, ops, switches, args| {
            run_cluster(seed, ops, switches, args.value("--json").map(PathBuf::from))
        },
    },
    Harness {
        name: "chaos",
        ops: 500,
        switches: 16,
        min_switches: 5,
        run: |seed, ops, switches, args| {
            run_chaos_cmd(seed, ops, switches, args.number("--kills", 2) as usize)
        },
    },
];

/// GRED's per-request stretch quantiles over `requests` traced requests
/// on a 60-switch network.
fn stretch_cdf_rows(requests: usize) -> Vec<Vec<String>> {
    use gred_sim::trace::TraceCollector;
    use gred_sim::workload::{AccessPicker, ItemGenerator};
    let (topo, pool) = gred_sim::experiments::substrate(60, 10, 3, SEED);
    let net = gred::GredNetwork::build(topo, pool, gred::GredConfig::default().seeded(SEED))
        .expect("builds");
    let mut traces = TraceCollector::new();
    let mut gen = ItemGenerator::new("cdf");
    let mut picker = AccessPicker::new(net.members(), SEED);
    for _ in 0..requests {
        traces.trace_request(&net, &gen.next_id(), picker.pick());
    }
    [0.5, 0.9, 0.95, 0.99, 1.0]
        .iter()
        .map(|&q| vec![format!("p{:.0}", q * 100.0), f3(traces.stretch_quantile(q))])
        .collect()
}

/// Paper Tables I/II: the forwarding-rule rewrite a range extension
/// installs, demonstrated live on a 2-switch network.
fn print_extension_tables() {
    use gred::{GredConfig, GredNetwork};
    use gred_net::{ServerId, ServerPool, Topology};

    let topo = Topology::from_links(2, &[(0, 1)]).expect("valid");
    let pool = ServerPool::uniform(2, 3, 1000);
    let mut net = GredNetwork::build(topo, pool, GredConfig::with_iterations(0)).expect("builds");

    println!("\n== Tables I/II: range-extension forwarding entries ==");
    let overloaded = ServerId {
        switch: 0,
        index: 0,
    };
    println!("before extension: traffic for {overloaded} delivered locally");
    let takeover = net.extend_range(overloaded).expect("neighbor has servers");
    println!("after extension:  traffic for {overloaded} rewritten to {takeover}");
    let (neighbors, relays, extensions) = net.dataplanes()[0].entry_breakdown();
    println!(
        "switch 0 tables: {neighbors} neighbor entries, {relays} relay entries, {extensions} extension entry"
    );
}

/// Builds a Waxman network with the exact and landmark control planes,
/// applies a churn batch through
/// the incremental delta path, and prints each [`gred::BuildReport`]
/// (human summary + JSON line) plus the per-switch installed-entry
/// distribution, returning per-phase table rows.
fn build_report_rows(switches: usize) -> Vec<Vec<String>> {
    use gred::{GredConfig, GredNetwork, TopologyChange};
    use gred_net::{waxman_topology, ServerPool, WaxmanConfig};

    let mut rows = Vec::new();
    // Enough pivots for a stable embedding, well under the member count.
    let landmarks = (switches / 5).clamp(8, 100);
    for variant in ["full", "landmark"] {
        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, SEED));
        let pool = ServerPool::uniform(switches, 4, 10_000);
        let mut config = GredConfig::default();
        if variant == "landmark" {
            config = config.landmarks(landmarks);
        }
        let (net, report) = GredNetwork::build_reported(topo, pool, config)
            .expect("Waxman build succeeds at report scale");
        println!("{}", report.summary());
        println!("{}", report.to_json());
        let stats = net.table_stats();
        println!(
            "{variant} build: per-switch installed entries \
             min {} / p50 {} / max {} (mean {:.1} over {} switches)",
            stats.min, stats.p50, stats.max, stats.mean, stats.switches
        );
        for phase in &report.phases {
            rows.push(vec![
                variant.to_string(),
                phase.name.to_string(),
                phase.items.to_string(),
                f3(phase.wall.as_secs_f64() * 1e3),
            ]);
        }
        rows.push(vec![
            variant.to_string(),
            "total".to_string(),
            switches.to_string(),
            f3(report.total_wall().as_secs_f64() * 1e3),
        ]);
    }

    // The incremental path: absorb a small join batch without a rebuild
    // and report the apply cost next to the build phases it avoids.
    let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, SEED));
    let pool = ServerPool::uniform(switches, 4, 10_000);
    let mut net = GredNetwork::build(topo, pool, GredConfig::default().landmarks(landmarks))
        .expect("Waxman build succeeds at report scale");
    let batch: Vec<TopologyChange> = (0..4)
        .map(|i| TopologyChange::Join {
            links: vec![(i * 37 + 11) % switches, (i * 91 + 3) % switches],
            capacities: vec![10_000],
        })
        .collect();
    let report = net.apply_delta(&batch).expect("churn batch applies");
    println!(
        "delta apply: {} joins, {} affected of {} members ({:.0}% reused), \
         {} links searched, {:.3} ms",
        report.joined.len(),
        report.affected.len(),
        report.members_total,
        report.reuse_ratio() * 100.0,
        report.links_searched,
        report.wall.as_secs_f64() * 1e3
    );
    rows.push(vec![
        "delta".to_string(),
        "delta_apply".to_string(),
        report.affected.len().to_string(),
        f3(report.wall.as_secs_f64() * 1e3),
    ]);
    rows
}

/// One long model-based run under `gred_testkit`; on failure, prints the
/// violations, the one-line repro command, and a drop-one-minimal
/// schedule, then exits 1.
fn run_soak(seed: u64, ops: usize, switches: usize) {
    use gred_testkit::{generate, Harness, HarnessConfig};

    let harness = Harness::new(HarnessConfig {
        switches,
        max_switches: switches + 6,
    });
    println!("soak: seed {seed}, {ops} ops, {switches} initial switches");
    let outcome = harness.run_seeded(seed, ops, None);
    let s = outcome.stats;
    println!(
        "placed {} retrieved {} extended {} retracted {} joined {} left {} crashed {} skipped {}",
        s.placed, s.retrieved, s.extended, s.retracted, s.joined, s.left, s.crashed, s.skipped
    );
    match outcome.failure {
        None => println!("soak passed: all invariants held after every op"),
        Some(ref failure) => {
            println!("soak FAILED at step {} ({:?}):", failure.step, failure.op);
            for violation in &failure.violations {
                println!("  - {violation}");
            }
            println!("reproduce with: {}", outcome.repro_line());
            let schedule = generate(seed, ops);
            let shrunk = harness.shrink(seed, &schedule[..=failure.step], None);
            println!("minimal failing schedule ({} ops):", shrunk.len());
            for op in &shrunk {
                println!("  {op:?}");
            }
            std::process::exit(1);
        }
    }
}

/// The cluster acceptance run: boots a loopback TCP cluster (one node
/// per switch), drives a place/retrieve workload through it and checks
/// every ack and payload against the in-process model, then scrapes
/// every node purely over the wire and prints its snapshot and the
/// cluster health. With `--json PATH` the scraped bundle is also written
/// as JSON (the artifact the `stats-smoke` CI job uploads). Exits 1 on
/// any lost or wrong reply and on any node error.
fn run_cluster(seed: u64, ops: usize, switches: usize, json: Option<PathBuf>) {
    use gred::{GredConfig, GredNetwork};
    use gred_cluster::{Client, Cluster, ClusterConfig, ClusterHealth};
    use gred_hash::DataId;
    use gred_net::{waxman_topology, ServerPool, WaxmanConfig};
    use std::collections::HashMap;
    use std::time::Instant;

    let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, seed));
    let pool = ServerPool::uniform(switches, 2, u64::MAX);
    let config = GredConfig {
        auto_extend: false,
        ..GredConfig::with_iterations(8).seeded(seed)
    };
    let net = GredNetwork::build(topo, pool, config).expect("seeded network builds");
    let cluster = Cluster::boot(&net, ClusterConfig::default()).expect("cluster boots");
    println!(
        "cluster: {} switches as loopback TCP nodes, seed {seed}, {ops} ids",
        cluster.len()
    );

    let members = net.members().to_vec();
    let mut clients: HashMap<usize, Client> = HashMap::new();
    let mut rotor = seed;
    let mut next = |n: usize| {
        rotor = rotor
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rotor >> 33) as usize % n
    };
    let mut lost = 0usize;
    let started = Instant::now();

    for i in 0..ops {
        let id = DataId::new(format!("cluster/{seed}/{i}"));
        let access = members[next(members.len())];
        let client = clients
            .entry(access)
            .or_insert_with(|| cluster.client(access).expect("client connects"));
        match client.place(&id, format!("payload/{i}").into_bytes()) {
            Ok(reply) if reply.ack_server() == Some(net.responsible_server(&id)) => {}
            Ok(reply) => {
                println!(
                    "place {i}: acked by {:?}, expected {}",
                    reply.ack_server(),
                    net.responsible_server(&id)
                );
                lost += 1;
            }
            Err(e) => {
                println!("place {i} via node {access} failed: {e}");
                lost += 1;
            }
        }
    }
    for i in 0..ops {
        let id = DataId::new(format!("cluster/{seed}/{i}"));
        let access = members[next(members.len())];
        let client = clients
            .entry(access)
            .or_insert_with(|| cluster.client(access).expect("client connects"));
        match client.retrieve(&id) {
            Ok(reply)
                if reply.is_hit()
                    && reply.payload.as_ref() == format!("payload/{i}").as_bytes() => {}
            Ok(_) => {
                println!("retrieve {i}: wrong or missing payload");
                lost += 1;
            }
            Err(e) => {
                println!("retrieve {i} via node {access} failed: {e}");
                lost += 1;
            }
        }
    }

    let elapsed = started.elapsed();
    drop(clients);
    let snapshots = cluster.scrape().expect("every node answers the scrape");
    for snap in &snapshots {
        println!("{snap}");
    }
    let health = ClusterHealth::aggregate(&snapshots);
    println!("health: {health}");
    println!("hot path: {}", health.hot);
    if health.hot.link_reconnects > 0 {
        println!(
            "warning: a healthy run rebuilt peer links ({} reconnects)",
            health.hot.link_reconnects
        );
    }
    if let Some(path) = json {
        std::fs::write(&path, health.to_json(&snapshots)).expect("snapshot JSON writes");
        println!("wrote {}", path.display());
    }
    let report = cluster.shutdown();
    let total = 2 * ops;
    println!(
        "workload: {total} requests in {:.3}s ({:.0} req/s), {lost} lost",
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    if lost > 0 || report.total_errors() > 0 {
        println!(
            "cluster FAILED: {lost} lost, {} node errors",
            report.total_errors()
        );
        std::process::exit(1);
    }
    println!("cluster passed: zero lost requests, every node scraped, graceful shutdown");
}

/// The chaos acceptance run: crash-tolerant serving under seeded node
/// kills and link faults. Exits 1 when an acknowledged write is lost.
fn run_chaos_cmd(seed: u64, ops: usize, switches: usize, kills: usize) {
    use gred_cluster::{run_chaos, ChaosConfig, COPIES, QUORUM};
    use gred_testkit::ChaosPlan;

    let cfg = ChaosConfig {
        seed,
        ops,
        switches,
        kills,
        ..ChaosConfig::default()
    };
    println!(
        "chaos: seed {seed}, {ops} ops, {switches} switches, {kills} kills, \
         k={COPIES} quorum={QUORUM}"
    );
    if let Some(dir) = std::env::var_os("GRED_CHAOS_DIR") {
        let dir = PathBuf::from(dir);
        let _ = std::fs::create_dir_all(&dir);
        let plan = ChaosPlan::generate(cfg.seed, cfg.ops, cfg.kills, cfg.link_faults);
        let path = dir.join(format!("chaos-plan-{seed}.txt"));
        let body = plan
            .events
            .iter()
            .map(|e| format!("op {:>4}: {:?}\n", e.at_op, e.action))
            .collect::<String>();
        if std::fs::write(&path, body).is_ok() {
            eprintln!("wrote {}", path.display());
        }
    }
    let started = std::time::Instant::now();
    let outcome = run_chaos(&cfg).expect("chaos infrastructure boots");
    println!("{outcome}");
    println!("cluster: {}", outcome.report);
    match &outcome.probe {
        Some(probe) => println!(
            "post-heal probe: detours {} -> {}, {} suspect links, \
             {} clean writes ({} degraded), Δinvalidations {} across {} nodes",
            probe.detours_before,
            probe.detours_after,
            probe.suspect_links,
            probe.clean_writes,
            probe.degraded_writes,
            probe.invalidations_delta,
            probe.nodes,
        ),
        None => println!("post-heal probe: scrape unavailable"),
    }
    println!(
        "elapsed {:.3}s; reproduce with: {}",
        started.elapsed().as_secs_f64(),
        outcome.repro_line()
    );
    if !outcome.passed() {
        println!(
            "chaos FAILED: {} acknowledged writes lost",
            outcome.lost_acked
        );
        std::process::exit(1);
    }
    println!("chaos passed: zero acknowledged writes lost");
}

/// The command line after the program name.
struct Args(Vec<String>);

/// Flags that are followed by a value — which is therefore never the
/// experiment name.
const VALUE_FLAGS: [&str; 6] = [
    "--csv",
    "--seed",
    "--ops",
    "--switches",
    "--kills",
    "--json",
];

impl Args {
    /// The word after `flag`, when both are there.
    fn value(&self, flag: &str) -> Option<&str> {
        debug_assert!(VALUE_FLAGS.contains(&flag));
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    /// `flag`'s value as a number; `default` when absent or not one.
    fn number(&self, flag: &str, default: u64) -> u64 {
        self.value(flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Whether word `i` is the value of the flag before it.
    fn is_value(&self, i: usize) -> bool {
        i > 0 && VALUE_FLAGS.contains(&self.0[i - 1].as_str())
    }

    /// The first `--` word that is neither `--paper` nor one of
    /// [`VALUE_FLAGS`], unless it stands as a flag's value.
    fn unknown_flag(&self) -> Option<&str> {
        let flags = self.0.iter().enumerate().filter(|&(i, word)| {
            word.starts_with("--")
                && word != "--paper"
                && !VALUE_FLAGS.contains(&word.as_str())
                && !self.is_value(i)
        });
        flags.map(|(_, word)| word.as_str()).next()
    }

    /// The first word that is neither a flag nor a flag's value.
    fn experiment(&self) -> &str {
        let words = self
            .0
            .iter()
            .enumerate()
            .filter(|&(i, word)| !word.starts_with("--") && !self.is_value(i));
        words.map(|(_, word)| word.as_str()).next().unwrap_or("all")
    }
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    if let Some(flag) = args.unknown_flag() {
        eprintln!("unknown flag {flag:?}");
        eprintln!("choose from: --paper {}", VALUE_FLAGS.join(" "));
        std::process::exit(2);
    }
    let name = args.experiment();
    if let Some(harness) = HARNESSES.iter().find(|harness| harness.name == name) {
        let seed = args.number("--seed", SEED);
        let ops = args.number("--ops", harness.ops) as usize;
        let switches = args.number("--switches", harness.switches) as usize;
        return (harness.run)(seed, ops, switches.max(harness.min_switches), &args);
    }
    let chosen: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| name == "all" || e.names.contains(&name))
        .collect();
    if chosen.is_empty() {
        let experiments = EXPERIMENTS.iter().flat_map(|e| e.names).copied();
        let harnesses = HARNESSES.iter().map(|harness| harness.name);
        let names: Vec<&str> = experiments.chain(harnesses).chain(["all"]).collect();
        eprintln!("unknown experiment {name:?}");
        eprintln!("choose one of: {}", names.join(" "));
        std::process::exit(2);
    }
    let scale = if args.0.iter().any(|a| a == "--paper") {
        Scale::paper()
    } else {
        Scale::quick()
    };
    let out = Output {
        csv_dir: args.value("--csv").map(PathBuf::from),
    };
    for experiment in chosen {
        match experiment.run {
            Run::Text(print) => print(),
            Run::Tables(tables) => {
                for t in tables {
                    let csv = t.csv.unwrap_or(experiment.names[0]);
                    out.emit(csv, t.title, t.headers, (t.rows)(&scale));
                }
            }
        }
    }
}
