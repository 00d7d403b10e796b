//! `gred-benchmark`: the repository's benchmark.
//!
//! ```text
//! gred-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gred-benchmark run [--seed 2019] [--sets 1] [--seconds 24]
//! gred-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, one
//! result line. `run` is the whole set for people: every workload
//! untraced then traced, every metric printed, `benchmark/out/` filled.
//! Either way each workload run is a fresh child process of this binary
//! with a hard timeout, so peak RSS, thread counts and allocator state
//! are per run and nothing can hang. See `benchmark/README.md`.

mod churn;
mod compare;
mod gen;
mod host;
mod json;
mod layers;
mod metrics;
mod paper;
mod serving;
mod stats;
mod trace;

use json::Value;
use metrics::{Contract, Metrics};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Where result and trace files go, relative to the directory the
/// benchmark is started from (the repository root).
const OUT_DIR: &str = "benchmark/out";
/// A child still running after this long is killed and its run failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);
const DEFAULT_SEED: u64 = 2019;
const DEFAULT_SECONDS: u64 = 24;

/// What one workload run is asked to do.
pub struct RunArgs {
    pub seed: u64,
    /// How long the run measures.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
}

/// What one workload run found.
#[derive(Default)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that failed, were refused, timed out or answered wrongly.
    pub failed: u64,
    /// The first few failures and anomalies, in words.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Context that is not a metric, such as sample counts.
    pub info: Vec<(String, f64)>,
}

/// `BuildReport` phases as per-layer rows. The landmark path records
/// three embedding phases, the exact path one; whichever ran is summed.
pub fn build_rows(report: &gred::BuildReport, m: &mut Metrics) {
    let ms = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| report.phase_named(n))
            .map(|p| p.wall.as_secs_f64() * 1e3)
            .sum()
    };
    m.set("core.build_ms", report.total_wall().as_secs_f64() * 1e3);
    m.set(
        "linalg.embed_ms",
        ms(&[
            "embedding",
            "landmark_bfs",
            "landmark_embed",
            "trilateration",
        ]),
    );
    m.set("geometry.regulate_ms", ms(&["regulation"]));
    m.set("geometry.triangulate_ms", ms(&["triangulation"]));
    m.set("core.install_ms", ms(&["installation"]));
}

/// Writes a run's spans to `benchmark/out/<workload>.trace.jsonl`.
pub fn write_trace(t: &trace::Tracer, workload: &str) {
    let path = Path::new(OUT_DIR).join(format!("{workload}.trace.jsonl"));
    if let Err(e) = t.write_jsonl(&path) {
        eprintln!("{workload}: could not write {}: {e}", path.display());
    }
}

/// Flag values of a command line, by flag name.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} takes a whole number, got {v:?}")),
        }
    }

    fn run_args(&self) -> Result<RunArgs, String> {
        let seconds = self.number("seconds", DEFAULT_SECONDS)?;
        if !(1..=60).contains(&seconds) {
            return Err(format!("--seconds must be 1 to 60, got {seconds}"));
        }
        Ok(RunArgs {
            seed: self.number("seed", DEFAULT_SEED)?,
            seconds,
            trace: self.number("trace", 0)? != 0,
        })
    }
}

fn known_workload(flags: &Flags) -> Result<String, String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workloads = Contract::load().workloads;
    if workloads.iter().any(|w| w == name) {
        Ok(name.to_string())
    } else {
        Err(format!(
            "unknown workload {name:?}; choose one of {workloads:?}"
        ))
    }
}

/// The result document of one workload run.
fn result_doc(workload: &str, args: &RunArgs, outcome: &Outcome) -> Value {
    let contract = Contract::load();
    for (name, _) in &outcome.metrics.0 {
        assert!(
            contract.metric(name).is_some(),
            "{name} is not a metric of BENCHMARK.json"
        );
    }
    let defs = if args.trace {
        contract.per_layer
    } else {
        contract.end_to_end
    };
    // Every metric of the run's kind is reported; a layer the workload
    // does not exercise reads 0.
    let metrics = defs.into_iter().map(|def| {
        let value = outcome.metrics.get(&def.name).unwrap_or(0.0);
        (
            def.name,
            Value::obj([("value", Value::Num(value)), ("unit", Value::Str(def.unit))]),
        )
    });
    Value::obj([
        ("workload", Value::str(workload)),
        ("seed", Value::Num(args.seed as f64)),
        ("trace", Value::Bool(args.trace)),
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::obj(metrics)),
        (
            "info",
            Value::obj(
                outcome
                    .info
                    .iter()
                    .map(|(k, v)| (k.as_str(), Value::Num(*v))),
            ),
        ),
        (
            "problems",
            Value::Arr(outcome.problems.iter().map(Value::str).collect()),
        ),
    ])
}

/// The child side: runs one workload in this process and writes its
/// result document to `--out`.
fn worker(flags: &Flags) -> Result<(), String> {
    let workload = &known_workload(flags)?;
    let args = flags.run_args()?;
    let out_path = flags.get("out").ok_or("--out is required")?;

    // Before any thread exists: generators, nodes and their pools all
    // inherit the one CPU (see `host::confine_to_one_cpu`).
    let cpu = host::confine_to_one_cpu();
    if cpu.is_none() {
        eprintln!("{workload}: could not confine the run to one CPU; it will be noisier");
    }

    let canary_before = host::canary_ms();
    let mut outcome = match serving::SPECS.iter().find(|s| s.name == workload) {
        Some(spec) => serving::run(spec, &args),
        None => churn::run(&args),
    };
    let canary_after = host::canary_ms();
    outcome
        .metrics
        .set("bench.canary_ms", (canary_before + canary_after) / 2.0);
    outcome.metrics.set("peak_rss_mb", host::peak_rss_mb());
    outcome
        .info
        .push(("canary_before_ms".into(), canary_before));
    outcome.info.push(("canary_after_ms".into(), canary_after));
    outcome
        .info
        .push(("cpu".into(), cpu.map_or(-1.0, |c| c as f64)));
    for problem in &outcome.problems {
        eprintln!("{workload}: {problem}");
    }
    std::fs::write(out_path, result_doc(workload, &args, &outcome).pretty())
        .map_err(|e| format!("writing {out_path}: {e}"))
}

/// The parent side: runs one workload in a fresh child process of this
/// binary, killed at [`CHILD_TIMEOUT`]. A crash, a panic or a hang is an
/// `Err`, never a hang of the caller.
fn run_child(workload: &str, args: &RunArgs) -> Result<Value, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let out_path: PathBuf = Path::new(OUT_DIR).join(format!(
        "{workload}.{}.json",
        if args.trace { "layers" } else { "e2e" }
    ));
    let _ = std::fs::remove_file(&out_path);
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut child = Command::new(exe)
        .arg("worker")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out_path)
        .stdout(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("starting the {workload} child: {e}"))?;
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() < CHILD_TIMEOUT => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{workload} still ran after {} s and was killed",
                    CHILD_TIMEOUT.as_secs()
                ));
            }
            Err(e) => return Err(format!("waiting for the {workload} child: {e}")),
        }
    };
    if !status.success() {
        return Err(format!("the {workload} child ended with {status}"));
    }
    let text = std::fs::read_to_string(&out_path)
        .map_err(|e| format!("reading {}: {e}", out_path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", out_path.display()))
}

/// The driver's form: one workload, one result line with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
fn single(flags: &Flags) -> Result<bool, String> {
    let doc = run_child(&known_workload(flags)?, &flags.run_args()?)?;
    let keep = |key: &str| {
        doc.get(key)
            .cloned()
            .map(|v| (key.to_string(), v))
            .ok_or_else(|| format!("the result has no {key:?}"))
    };
    let line = Value::obj([
        keep("correct")?,
        keep("attempted")?,
        keep("failed")?,
        keep("metrics")?,
    ]);
    println!("{line}");
    Ok(true)
}

fn print_metrics(doc: &Value) {
    for (name, metric) in doc
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or_default()
    {
        let value = metric.get("value").and_then(Value::as_f64).unwrap_or(0.0);
        let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("  {name:<36} {value:>16.4} {unit}");
    }
}

/// The whole set: every workload untraced then traced, `--sets` times
/// over consecutive seeds, into `benchmark/out/results.json`.
fn run_all(flags: &Flags) -> Result<bool, String> {
    let base = flags.run_args()?;
    let sets = flags.number("sets", 1)?.max(1);
    let workloads = Contract::load().workloads;
    let mut all_correct = true;
    let mut set_docs = Vec::new();
    for set in 0..sets {
        let seed = base.seed + set;
        let mut workload_docs = Vec::new();
        for workload in &workloads {
            println!("== {workload} (seed {seed}) ==");
            let mut merged = vec![("workload".to_string(), Value::str(workload.as_str()))];
            let mut attempted = 0.0;
            let mut failed = 0.0;
            for trace in [false, true] {
                let args = RunArgs {
                    seed,
                    seconds: base.seconds,
                    trace,
                };
                // A run that crashed or hung is a failed row, not the
                // end of the set.
                let doc = run_child(workload, &args).unwrap_or_else(|e| {
                    eprintln!("{workload}: {e}");
                    Value::obj([
                        ("attempted", Value::Num(1.0)),
                        ("failed", Value::Num(1.0)),
                        ("problems", Value::Arr(vec![Value::str(e)])),
                    ])
                });
                print_metrics(&doc);
                let count = |key: &str| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0);
                attempted += count("attempted");
                failed += count("failed");
                merged.push((if trace { "layers" } else { "e2e" }.to_string(), doc));
            }
            let fail_share = failed / f64::max(attempted, 1.0);
            println!("  {:<36} {fail_share:>16.6} ratio", "fail_share");
            all_correct &= failed == 0.0;
            merged.push(("fail_share".to_string(), Value::Num(fail_share)));
            workload_docs.push(Value::Obj(merged));
        }
        set_docs.push(Value::obj([
            ("seed", Value::Num(seed as f64)),
            ("workloads", Value::Arr(workload_docs)),
        ]));
    }
    let mut header: Vec<(String, Value)> = host::identity()
        .into_iter()
        .map(|(k, v)| (k.to_string(), Value::Str(v)))
        .collect();
    header.push((
        "plan".to_string(),
        Value::str(format!(
            "{} s measured per run, {sets} set(s) from seed {}; each workload untraced then traced, each in a fresh child process",
            base.seconds, base.seed
        )),
    ));
    let doc = Value::obj([
        ("header", Value::Obj(header)),
        ("sets", Value::Arr(set_docs)),
    ]);
    let path = Path::new(OUT_DIR).join("results.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "compare" | "worker")) => (c, &argv[1..]),
        _ => ("single", &argv[..]),
    };
    let result = match command {
        "compare" => compare::main(rest),
        _ => Flags::parse(rest).and_then(|flags| match command {
            "run" => run_all(&flags),
            "worker" => worker(&flags).map(|()| true),
            _ => single(&flags),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gred-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
