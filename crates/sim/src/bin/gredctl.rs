//! `gredctl` — an interactive (and scriptable) console for driving a GRED
//! network: build a topology, place and retrieve data, trigger range
//! extensions, join/leave nodes, and inspect state.
//!
//! ```text
//! cargo run --release -p gred-sim --bin gredctl
//! gred> build 20 4 7
//! gred> place sensors/cam-1 hello 0
//! gred> get sensors/cam-1 13
//! gred> stats
//! gred> quit
//! ```
//!
//! Reads commands from stdin (one per line, `#` comments ignored), so it
//! also works in pipelines: `echo -e "build 10 2\nstats" | gredctl`.
//!
//! With `--live`, `gredctl` instead talks to a *running* cluster over
//! TCP — no in-process state at all:
//!
//! ```text
//! gredctl --live 127.0.0.1:4000,127.0.0.1:4001 stats     # per-node scrape
//! gredctl --live 127.0.0.1:4000,127.0.0.1:4001 health    # aggregated view
//! gredctl --live 127.0.0.1:4000 ping                     # node liveness
//! gredctl --live 127.0.0.1:4999 admin drain              # admin endpoint verb
//! gredctl --live 127.0.0.1:4999 admin crash 3
//! gredctl --live 127.0.0.1:4999 admin join 0,2 10000,10000
//! ```

use gred::{GredConfig, GredError, GredNetwork};
use gred_cluster::{admin_call, Client, ClientConfig, ClusterHealth};
use gred_dataplane::{AdminOp, StatsSnapshot};
use gred_hash::DataId;
use gred_net::{waxman_topology, ServerId, ServerPool, WaxmanConfig};
use std::io::{BufRead, Write};
use std::net::SocketAddr;

/// The console's mutable state.
#[derive(Default)]
struct Console {
    net: Option<GredNetwork>,
}

impl Console {
    fn net(&mut self) -> Result<&mut GredNetwork, String> {
        self.net
            .as_mut()
            .ok_or_else(|| "no network yet — run: build <switches> <servers> [seed]".to_string())
    }

    /// Executes one command line, returning the text to print.
    fn execute(&mut self, line: &str) -> Result<String, String> {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return Ok(String::new());
        };
        let args: Vec<&str> = parts.collect();
        match cmd {
            "help" => Ok(HELP.to_string()),
            "build" => {
                let switches: usize = parse(args.first(), "switches")?;
                let servers: usize = parse(args.get(1), "servers-per-switch")?;
                let seed: u64 = args
                    .get(2)
                    .map_or(Ok(1), |s| s.parse().map_err(|_| format!("bad seed {s:?}")))?;
                let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(switches, seed));
                let pool = ServerPool::uniform(switches, servers, u64::MAX);
                let net = GredNetwork::build(topo, pool, GredConfig::default().seeded(seed))
                    .map_err(|e| e.to_string())?;
                let reply = format!(
                    "network up: {} switches, {} servers, {} DT edges",
                    net.topology().switch_count(),
                    net.pool().total_servers(),
                    net.dt().edges().len()
                );
                self.net = Some(net);
                Ok(reply)
            }
            "place" => {
                let key = *args.first().ok_or("usage: place <key> <value> <access>")?;
                let value = *args.get(1).ok_or("usage: place <key> <value> <access>")?;
                let access: usize = parse(args.get(2), "access switch")?;
                let receipt = self
                    .net()?
                    .place(&DataId::new(key), value.as_bytes().to_vec(), access)
                    .map_err(|e| e.to_string())?;
                Ok(format!(
                    "stored on {} via {} hops{}",
                    receipt.server,
                    receipt.route.physical_hops(),
                    if receipt.extended {
                        " (range-extended)"
                    } else {
                        ""
                    }
                ))
            }
            "get" => {
                let key = *args.first().ok_or("usage: get <key> <access>")?;
                let access: usize = parse(args.get(1), "access switch")?;
                let got = self
                    .net()?
                    .retrieve(&DataId::new(key), access)
                    .map_err(|e| e.to_string())?;
                Ok(format!(
                    "{} ({} bytes) from {} in {} hops",
                    String::from_utf8_lossy(&got.payload),
                    got.payload.len(),
                    got.server,
                    got.total_hops()
                ))
            }
            "route" => {
                let key = *args.first().ok_or("usage: route <key> <access>")?;
                let access: usize = parse(args.get(1), "access switch")?;
                let net = self.net()?;
                let pos = net.position_of_id(&DataId::new(key));
                let route = gred::plane::forwarding::route(
                    net.dataplanes(),
                    access,
                    pos,
                    &DataId::new(key),
                )
                .map_err(|e| e.to_string())?;
                Ok(format!(
                    "switches {:?} ({} hops, {} greedy steps) -> {}",
                    route.switches,
                    route.physical_hops(),
                    route.overlay_hops(),
                    route.server
                ))
            }
            "extend" => {
                let switch: usize = parse(args.first(), "switch")?;
                let index: usize = parse(args.get(1), "server index")?;
                let takeover = self
                    .net()?
                    .extend_range(ServerId { switch, index })
                    .map_err(|e| e.to_string())?;
                Ok(format!("range extended to {takeover}"))
            }
            "join" => {
                if args.is_empty() {
                    return Err("usage: join <neighbor> [neighbor...]".into());
                }
                let links: Vec<usize> = args
                    .iter()
                    .map(|a| a.parse().map_err(|_| format!("bad switch {a:?}")))
                    .collect::<Result<_, _>>()?;
                let net = self.net()?;
                // The newcomer copies its first neighbour's server count,
                // so that link is looked up before `add_switch` checks it.
                if links[0] >= net.pool().switch_count() {
                    return Err(GredError::UnknownSwitch { switch: links[0] }.to_string());
                }
                let servers = net.pool().servers_at(links[0]).max(1);
                let new = net
                    .add_switch(&links, vec![u64::MAX; servers])
                    .map_err(|e| e.to_string())?;
                Ok(format!("switch {new} joined (linked to {links:?})"))
            }
            "leave" => {
                let switch: usize = parse(args.first(), "switch")?;
                self.net()?
                    .remove_switch(switch)
                    .map_err(|e| e.to_string())?;
                Ok(format!("switch {switch} left; its data migrated"))
            }
            "stats" => {
                let net = self.net()?;
                let t = net.table_stats();
                let topo = net.topology().stats();
                Ok(format!(
                    "switches {} | links {} | diameter {} | items {} | entries/switch mean {:.1} (max {})",
                    topo.switches,
                    topo.links,
                    topo.diameter.map_or("n/a".into(), |d| d.to_string()),
                    net.store().total_items(),
                    t.mean,
                    t.max
                ))
            }
            "loads" => {
                let net = self.net()?;
                let mut loads: Vec<(ServerId, u64)> = net
                    .server_loads()
                    .into_iter()
                    .filter(|&(_, l)| l > 0)
                    .collect();
                loads.sort_by_key(|&(_, l)| std::cmp::Reverse(l));
                let mut out = String::new();
                for (server, load) in loads.iter().take(10) {
                    out.push_str(&format!("{server}: {load}\n"));
                }
                if loads.is_empty() {
                    out.push_str("no data stored yet\n");
                }
                out.push_str(&format!("({} loaded servers total)", loads.len()));
                Ok(out)
            }
            "quit" | "exit" => Err("__quit__".into()),
            other => Err(format!("unknown command {other:?}; try: help")),
        }
    }
}

fn parse<T: std::str::FromStr>(arg: Option<&&str>, what: &str) -> Result<T, String> {
    arg.ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("bad {what}"))
}

/// Executes one `--live` command against running endpoints and returns
/// the text to print. `addrs` is the comma-separated address list that
/// followed `--live`; `args` is the verb and its operands.
fn live_execute(addrs: &str, args: &[&str]) -> Result<String, String> {
    let addrs = parse_addrs(addrs)?;
    let verb = *args.first().ok_or(LIVE_USAGE)?;
    match verb {
        "stats" => {
            let mut out = String::new();
            for (i, snap) in scrape_all(&addrs)?.iter().enumerate() {
                if i > 0 {
                    out.push('\n');
                }
                out.push_str(&snap.to_string());
            }
            Ok(out)
        }
        "health" => {
            let snaps = scrape_all(&addrs)?;
            let health = ClusterHealth::aggregate(&snaps);
            let mut out = health.to_string();
            for (reporter, peer) in &health.suspects {
                out.push_str(&format!("\n  suspect: {reporter} -> {peer}"));
            }
            if let Some(path) = args
                .iter()
                .position(|a| *a == "--json")
                .map(|i| args.get(i + 1))
            {
                let path = path.ok_or("--json needs a path")?;
                std::fs::write(path, health.to_json(&snaps)).map_err(|e| e.to_string())?;
                out.push_str(&format!("\nwrote {path}"));
            }
            Ok(out)
        }
        "ping" => {
            let mut out = String::new();
            let mut any_alive = false;
            for (i, addr) in addrs.iter().enumerate() {
                if i > 0 {
                    out.push('\n');
                }
                match admin_call(*addr, &AdminOp::Ping) {
                    Ok(reply) => {
                        any_alive = true;
                        out.push_str(&format!("{addr}: {}", reply.message));
                    }
                    Err(e) => out.push_str(&format!("{addr}: unreachable ({e})")),
                }
            }
            // Dead nodes are per-line findings; a ping that reached
            // *nobody* is a failed probe and must exit nonzero.
            if any_alive {
                Ok(out)
            } else {
                Err(out)
            }
        }
        "admin" => {
            let op = parse_admin_verb(&args[1..])?;
            let reply = admin_call(addrs[0], &op).map_err(|e| e.to_string())?;
            if reply.ok {
                Ok(reply.message)
            } else {
                Err(reply.message)
            }
        }
        other => Err(format!("unknown live verb {other:?}\n{LIVE_USAGE}")),
    }
}

/// Parses an admin verb and its operands into an [`AdminOp`].
fn parse_admin_verb(args: &[&str]) -> Result<AdminOp, String> {
    let verb = *args
        .first()
        .ok_or("usage: admin <ping|crash|restart|drain|join|leave> [args]")?;
    match verb {
        "ping" => Ok(AdminOp::Ping),
        "crash" => Ok(AdminOp::Crash {
            switch: parse(args.get(1), "switch")?,
        }),
        "restart" => Ok(AdminOp::Restart {
            switch: parse(args.get(1), "switch")?,
        }),
        "drain" => Ok(AdminOp::Drain),
        "join" => {
            let neighbors = parse_list(args.get(1), "neighbors")?;
            let capacities = parse_list(args.get(2), "capacities")?;
            Ok(AdminOp::Join {
                neighbors,
                capacities,
            })
        }
        "leave" => Ok(AdminOp::Leave {
            switch: parse(args.get(1), "switch")?,
        }),
        other => Err(format!("unknown admin verb {other:?}")),
    }
}

fn parse_list<T: std::str::FromStr>(arg: Option<&&str>, what: &str) -> Result<Vec<T>, String> {
    arg.ok_or_else(|| format!("missing {what} (comma-separated)"))?
        .split(',')
        .map(|p| p.parse().map_err(|_| format!("bad {what} entry {p:?}")))
        .collect()
}

fn parse_addrs(addrs: &str) -> Result<Vec<SocketAddr>, String> {
    let parsed: Result<Vec<SocketAddr>, _> = addrs.split(',').map(|a| a.trim().parse()).collect();
    let parsed = parsed.map_err(|_| format!("bad address list {addrs:?}"))?;
    if parsed.is_empty() {
        return Err("empty address list".into());
    }
    Ok(parsed)
}

/// Scrapes every address with a fresh single-node client, purely over
/// the wire.
fn scrape_all(addrs: &[SocketAddr]) -> Result<Vec<StatsSnapshot>, String> {
    addrs
        .iter()
        .map(|&addr| {
            let mut client =
                Client::connect(addr, ClientConfig::default()).map_err(|e| e.to_string())?;
            client.scrape().map_err(|e| format!("{addr}: {e}"))
        })
        .collect()
}

const LIVE_USAGE: &str = "\
usage: gredctl --live <addr>[,addr...] <verb>
verbs:
  stats                         scrape and print each node's snapshot
  health [--json PATH]          aggregate a cluster health view
  ping                          admin-ping each address
  admin <verb> [args]           send a lifecycle verb to the first address
    admin crash <switch> | restart <switch> | drain
    admin join <n1,n2,...> <cap1,cap2,...> | leave <switch>";

const HELP: &str = "\
commands:
  build <switches> <servers-per-switch> [seed]   create a Waxman edge network
  place <key> <value> <access-switch>            store a value
  get <key> <access-switch>                      retrieve a value
  route <key> <access-switch>                    show the greedy route
  extend <switch> <server-index>                 range-extend a server
  join <neighbor> [neighbor...]                  add an edge node
  leave <switch>                                 remove an edge node
  stats | loads | help | quit
live-cluster mode: gredctl --live <addr>[,addr...] <stats|health|ping|admin ...>";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "--live") {
        let Some(addrs) = argv.get(1) else {
            eprintln!("{LIVE_USAGE}");
            std::process::exit(2);
        };
        let args: Vec<&str> = argv[2..].iter().map(String::as_str).collect();
        match live_execute(addrs, &args) {
            Ok(out) => println!("{out}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let stdin = std::io::stdin();
    let interactive = atty_stdin();
    let mut console = Console::default();
    if interactive {
        println!("gredctl — type `help` for commands");
    }
    loop {
        if interactive {
            print!("gred> ");
            let _ = std::io::stdout().flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match console.execute(line) {
            Ok(reply) if reply.is_empty() => {}
            Ok(reply) => println!("{reply}"),
            Err(e) if e == "__quit__" => break,
            Err(e) => println!("error: {e}"),
        }
    }
}

/// Conservative interactivity check without a libc dependency: honor an
/// explicit opt-out and otherwise assume piped use when stdin is not a
/// terminal-ish environment variable setup. Scripted runs set no prompt.
fn atty_stdin() -> bool {
    std::env::var_os("GREDCTL_INTERACTIVE").is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_script(lines: &[&str]) -> Vec<Result<String, String>> {
        let mut console = Console::default();
        lines.iter().map(|l| console.execute(l)).collect()
    }

    #[test]
    fn commands_require_a_network() {
        let out = run_script(&["stats"]);
        assert!(out[0].as_ref().unwrap_err().contains("no network"));
    }

    #[test]
    fn build_place_get_round_trip() {
        let out = run_script(&["build 10 2 5", "place demo/key hello 0", "get demo/key 7"]);
        assert!(out[0].as_ref().unwrap().contains("network up: 10 switches"));
        assert!(out[1].as_ref().unwrap().contains("stored on s"));
        assert!(out[2].as_ref().unwrap().contains("hello"));
    }

    #[test]
    fn route_and_stats_and_loads() {
        let out = run_script(&[
            "build 8 2 3",
            "place a/b v 0",
            "route a/b 1",
            "stats",
            "loads",
        ]);
        assert!(out[2].as_ref().unwrap().contains("greedy steps"));
        assert!(out[3].as_ref().unwrap().contains("items 1"));
        assert!(out[4].as_ref().unwrap().contains(": 1"));
    }

    #[test]
    fn join_and_leave() {
        let out = run_script(&["build 8 2 3", "join 0 4", "leave 8"]);
        assert!(out[1].as_ref().unwrap().contains("switch 8 joined"));
        assert!(out[2].as_ref().unwrap().contains("switch 8 left"));
    }

    #[test]
    fn extend_command() {
        let out = run_script(&["build 6 2 1", "extend 0 0"]);
        assert!(out[1].as_ref().unwrap().contains("range extended to s"));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let out = run_script(&[
            "build 5 1 1",
            "get missing/key 0",
            "bogus",
            "place x",
            "join 999",
        ]);
        assert!(out[1].as_ref().unwrap_err().contains("not found"));
        assert!(out[2].as_ref().unwrap_err().contains("unknown command"));
        assert!(out[3].as_ref().unwrap_err().contains("usage"));
        assert_eq!(out[4], Err("switch 999 does not exist".to_string()));
    }

    #[test]
    fn quit_sentinel_and_blank_lines() {
        let mut console = Console::default();
        assert_eq!(console.execute(""), Ok(String::new()));
        assert_eq!(console.execute("quit"), Err("__quit__".into()));
    }

    #[test]
    fn help_lists_commands() {
        let out = run_script(&["help"]);
        let help = out[0].as_ref().unwrap();
        for cmd in ["build", "place", "get", "route", "extend", "join", "leave"] {
            assert!(help.contains(cmd), "help missing {cmd}");
        }
    }

    #[test]
    fn admin_verbs_parse() {
        assert_eq!(parse_admin_verb(&["ping"]), Ok(AdminOp::Ping));
        assert_eq!(parse_admin_verb(&["drain"]), Ok(AdminOp::Drain));
        assert_eq!(
            parse_admin_verb(&["crash", "3"]),
            Ok(AdminOp::Crash { switch: 3 })
        );
        assert_eq!(
            parse_admin_verb(&["join", "0,2", "100,200"]),
            Ok(AdminOp::Join {
                neighbors: vec![0, 2],
                capacities: vec![100, 200],
            })
        );
        assert!(parse_admin_verb(&["bogus"]).is_err());
        assert!(parse_admin_verb(&["crash"]).is_err());
    }

    #[test]
    fn bad_live_input_is_reported() {
        assert!(parse_addrs("not-an-addr").is_err());
        assert!(parse_addrs("").is_err());
        let err = live_execute("127.0.0.1:1", &["bogus"]).unwrap_err();
        assert!(err.contains("unknown live verb"), "{err}");
    }

    /// The acceptance scenario: `gredctl --live` against a running
    /// loopback cluster prints per-node, per-link, and cluster-health
    /// snapshots scraped purely over the wire, and admin verbs land on
    /// the admin endpoint.
    #[test]
    fn live_mode_drives_a_running_cluster() {
        use gred_cluster::{AdminServer, Cluster, ClusterConfig};

        let (topo, _) = waxman_topology(&WaxmanConfig::with_switches(6, 11));
        let pool = ServerPool::uniform(6, 2, u64::MAX);
        let mut net = GredNetwork::build(topo, pool, GredConfig::default().seeded(11)).unwrap();
        for i in 0..8 {
            net.place(
                &DataId::new(format!("live/{i}")),
                format!("v{i}").into_bytes(),
                i % 6,
            )
            .unwrap();
        }
        let cluster = Cluster::boot(&net, ClusterConfig::default()).unwrap();
        let addrs: Vec<String> = (0..6).map(|s| cluster.addr(s).to_string()).collect();
        let addrs = addrs.join(",");

        let stats = live_execute(&addrs, &["stats"]).unwrap();
        for s in 0..6 {
            assert!(stats.contains(&format!("node {s}:")), "{stats}");
        }
        assert!(stats.contains("link ->"), "per-link counters: {stats}");

        let health = live_execute(&addrs, &["health"]).unwrap();
        assert!(health.contains("6 nodes:"), "{health}");
        assert!(health.contains("suspect links"), "{health}");

        let pong = live_execute(&addrs, &["ping"]).unwrap();
        assert_eq!(pong.lines().count(), 6, "{pong}");
        assert!(pong.contains("pong"), "{pong}");

        let admin = AdminServer::spawn(cluster, net).unwrap();
        let admin_addr = admin.addr().to_string();
        let out = live_execute(&admin_addr, &["admin", "ping"]).unwrap();
        assert!(out.contains("6 live nodes"), "{out}");
        let out = live_execute(&admin_addr, &["admin", "drain"]).unwrap();
        assert!(out.contains("drained"), "{out}");
        let err = live_execute(&admin_addr, &["admin", "restart", "2"]).unwrap_err();
        assert!(err.contains("still running"), "{err}");
        admin.shutdown();
    }
}
