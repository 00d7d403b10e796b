//! Connection-scale tier for the node reactor.
//!
//! The claim under test: one node holds 10k+ concurrent client
//! connections on a fixed thread budget (one reactor thread plus the
//! dispatch pool), answers every frame sent over them, and drains
//! cleanly with all of them still connected.
//!
//! The container's fd hard limit (20000, unraisable) cannot hold both
//! ends of 10k sockets in one process, so the client side runs as child
//! *herd* processes: the parent re-execs this test binary with
//! `--exact conn_herd` and a `GRED_CONN_HERD` environment gate. Each
//! herd opens its share of connections, drives live traffic on a
//! subset, and reports over a stdout/stdin line protocol:
//!
//! ```text
//!   herd → parent:  READY <frames-answered>
//!   parent → herd:  DRAIN
//!   herd → parent:  DRAINED <clean-eofs> <dirty-closes>
//! ```
//!
//! Repro: `cargo test -p gred-cluster --test connection_scale`

use bytes::Bytes;
use gred_cluster::frame::{read_call, write_call, Body, FrameDecoder, MUX_PREAMBLE};
use gred_cluster::{Node, NodeConfig};
use gred_dataplane::{Packet, SwitchDataplane};
use gred_geometry::Point2;
use gred_hash::DataId;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Herd processes the parent spawns.
const HERDS: usize = 4;
/// Connections each herd holds open.
const CONNS_PER_HERD: usize = 2500;
/// Connections per herd that also carry live request traffic.
const LIVE_PER_HERD: usize = 64;
/// Request rounds each live connection performs.
const LIVE_ROUNDS: usize = 3;
/// Ceiling on threads the node may add to this process while serving
/// all 10k connections. Decisively smaller than one-per-connection: the
/// reactor is one thread and the all-local workload never grows the
/// dispatch pool.
const THREAD_BUDGET: usize = 16;

fn spawn_node(id: usize) -> Node {
    let plane = SwitchDataplane::new(id, Point2::new(0.5, 0.5), 2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    Node::spawn(
        id,
        plane,
        vec![addr],
        listener,
        NodeConfig {
            log_dir: None,
            ..NodeConfig::default()
        },
    )
    .unwrap()
}

/// Process-wide thread count from `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads line in /proc/self/status")
        .trim()
        .parse()
        .unwrap()
}

/// CPU ticks (utime + stime) a thread of this process has consumed.
fn thread_cpu_ticks(tid: u64) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).unwrap();
    // Skip past "pid (comm) " — comm is bounded and ours has no spaces,
    // but parsing from the last ')' is robust either way.
    let rest = &stat[stat.rfind(')').unwrap() + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // stat fields 14 (utime) and 15 (stime) → indices 11 and 12 after
    // the three fields consumed by pid/comm/state.
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

/// Finds the reactor thread of the node with `id` by its comm name
/// (truncated by the kernel to 15 characters).
fn reactor_tid(id: usize) -> u64 {
    let want: String = format!("gred-node-{id}-reactor").chars().take(15).collect();
    for entry in std::fs::read_dir("/proc/self/task").unwrap() {
        let entry = entry.unwrap();
        let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        if comm.trim_end() == want {
            return entry.file_name().to_string_lossy().parse().unwrap();
        }
    }
    panic!("no thread named {want} in /proc/self/task");
}

fn read_frame(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> Bytes {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(body) = decoder.next_frame().expect("well-framed response") {
            return body;
        }
        let n = stream.read(&mut buf).expect("node response read");
        assert_ne!(n, 0, "node closed the connection mid-request");
        decoder.feed(&buf[..n]);
    }
}

/// Reads lines from a herd's stdout until one contains `marker`
/// (libtest chatter is skipped), returning the rest of that line. The
/// marker is matched anywhere in the line, not at its start: under
/// `--nocapture` libtest prints `test conn_herd ... ` with no trailing
/// newline, so the herd's first marker arrives glued to that prefix.
fn wait_line(reader: &mut BufReader<ChildStdout>, marker: &str) -> String {
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).unwrap();
        assert_ne!(n, 0, "herd exited before printing {marker}");
        if let Some(pos) = line.find(marker) {
            return line[pos + marker.len()..].trim().to_string();
        }
    }
}

/// The tentpole acceptance test: 10k concurrent connections, bounded
/// threads, zero dropped frames, clean two-phase drain.
#[test]
fn ten_thousand_connections_on_bounded_threads() {
    let baseline_threads = thread_count();
    let mut node = spawn_node(0);
    let id = DataId::new("scale-key");
    let index = gred_hash::select_server(&id, 2);
    node.preload(id, index, Bytes::from_static(b"scale-payload"));
    let addr = node.addr();

    let exe = std::env::current_exe().unwrap();
    let mut children: Vec<Child> = (0..HERDS)
        .map(|_| {
            Command::new(&exe)
                .args(["--exact", "conn_herd", "--nocapture", "--test-threads=1"])
                .env("GRED_CONN_HERD", addr.to_string())
                .env("GRED_HERD_CONNS", CONNS_PER_HERD.to_string())
                .env("GRED_HERD_LIVE", LIVE_PER_HERD.to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawning a connection herd")
        })
        .collect();
    let mut readers: Vec<BufReader<ChildStdout>> = children
        .iter_mut()
        .map(|c| BufReader::new(c.stdout.take().unwrap()))
        .collect();

    // Phase 1: every herd fully connected and its live traffic answered.
    let mut answered = 0u64;
    for reader in &mut readers {
        answered += wait_line(reader, "READY").parse::<u64>().unwrap();
    }
    // Zero dropped frames: every request sent over the live subset got
    // its response (the herd asserts payload correctness per frame).
    assert_eq!(answered, (HERDS * LIVE_PER_HERD * LIVE_ROUNDS) as u64);

    // All 10k concurrent, on a bounded thread budget.
    assert_eq!(node.open_connections(), HERDS * CONNS_PER_HERD);
    let grown = thread_count().saturating_sub(baseline_threads);
    assert!(
        grown <= THREAD_BUDGET,
        "10k connections grew the process by {grown} threads \
         (budget {THREAD_BUDGET}) — connection workers are back"
    );

    // Phase 2: two-phase drain with all 10k still connected. Herds arm
    // EOF reads; the node shuts down; every socket must see a clean FIN.
    for child in &mut children {
        writeln!(child.stdin.as_mut().unwrap(), "DRAIN").unwrap();
    }
    let report = node.shutdown();
    assert_eq!(
        report.open_connections, 0,
        "shutdown joins exactly the reactor thread"
    );

    let (mut clean, mut dirty) = (0usize, 0usize);
    for reader in &mut readers {
        let rest = wait_line(reader, "DRAINED");
        let mut parts = rest.split_whitespace();
        clean += parts.next().unwrap().parse::<usize>().unwrap();
        dirty += parts.next().unwrap().parse::<usize>().unwrap();
    }
    assert_eq!(dirty, 0, "drain must not reset connections");
    assert_eq!(clean, HERDS * CONNS_PER_HERD, "every socket sees clean EOF");
    for mut child in children {
        assert!(child.wait().unwrap().success(), "herd process failed");
    }
}

/// The busy-wait regression satellite: the old accept loop slept and
/// re-polled `poll_interval` forever; the reactor registers the listener
/// with epoll, so a node with zero traffic spends zero CPU.
#[test]
fn idle_node_reactor_burns_no_cpu() {
    let mut node = spawn_node(7);
    thread::sleep(Duration::from_millis(200)); // settle registrations
    let tid = reactor_tid(7);
    let before = thread_cpu_ticks(tid);
    thread::sleep(Duration::from_millis(500));
    let burned = thread_cpu_ticks(tid) - before;
    // Half a second idle must cost at most ~2 scheduler ticks (20ms) —
    // sleep-polling at any interval would show up here.
    assert!(
        burned <= 2,
        "idle reactor burned {burned} CPU ticks in 500ms"
    );
    node.shutdown();
}

/// Hidden herd body, run only when re-exec'd by the soak test above
/// (`GRED_CONN_HERD` carries the node address). A plain `cargo test`
/// run sees it pass as a no-op.
#[test]
fn conn_herd() {
    let Ok(addr) = std::env::var("GRED_CONN_HERD") else {
        return;
    };
    let addr: SocketAddr = addr.parse().unwrap();
    let conns: usize = std::env::var("GRED_HERD_CONNS").unwrap().parse().unwrap();
    let live: usize = std::env::var("GRED_HERD_LIVE").unwrap().parse().unwrap();

    let mut streams = Vec::with_capacity(conns);
    let deadline = Instant::now() + Duration::from_secs(60);
    while streams.len() < conns {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                streams.push(s);
            }
            Err(e) => {
                // Transient listen-backlog pressure while four herds
                // dial at once; retry until the deadline.
                assert!(Instant::now() < deadline, "connecting stalled: {e}");
                thread::sleep(Duration::from_millis(5));
            }
        }
    }

    // Live traffic on the first `live` connections; the rest idle.
    let id = DataId::new("scale-key");
    let mut request = Vec::new();
    write_call(&mut request, 1, &[Packet::retrieval(id)], false);
    let mut decoders: Vec<FrameDecoder> = (0..live).map(|_| FrameDecoder::new()).collect();
    let mut answered = 0u64;
    for round in 0..LIVE_ROUNDS {
        for (stream, decoder) in streams.iter_mut().zip(&mut decoders) {
            if round == 0 {
                stream.write_all(&MUX_PREAMBLE).unwrap();
            }
            stream.write_all(&request).unwrap();
            let body = read_frame(stream, decoder);
            let (_, Body::One(reply)) = read_call(&body).unwrap() else {
                panic!("a bare request is answered bare");
            };
            assert_eq!(reply.status, gred_dataplane::ResponseStatus::Ok);
            assert_eq!(reply.payload.as_ref(), b"scale-payload");
            answered += 1;
        }
    }
    println!("READY {answered}");

    let mut line = String::new();
    std::io::stdin().read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "DRAIN", "unexpected parent order");

    // Every connection must end in a clean FIN (read returns 0), not a
    // reset and not unsolicited data.
    let (mut clean, mut dirty) = (0usize, 0usize);
    let mut buf = [0u8; 256];
    for mut stream in streams {
        match stream.read(&mut buf) {
            Ok(0) => clean += 1,
            _ => dirty += 1,
        }
    }
    println!("DRAINED {clean} {dirty}");
}
