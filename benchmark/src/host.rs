//! What the benchmark reads about its own process and machine, all
//! from `/proc`: CPU time, peak RSS, thread count, and the identity of
//! the host recorded in the result header. Plus the confinement of a
//! run to one CPU, and the canary spin loop that tells a slow machine
//! from slow code.

use std::hint::black_box;
use std::time::Instant;

/// Linux reports process times in `USER_HZ` ticks, fixed at 100 for
/// every supported architecture's user-space ABI.
const USER_HZ: f64 = 100.0;

/// `utime + stime` of this process, all threads, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields are counted after it.
    let after_comm = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|t| t.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / USER_HZ
}

/// Numeric value of a `/proc/self/status` row such as `VmHWM` (kB) or
/// `Threads`. 0 when the row is missing.
pub fn status_field(name: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(name)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") / 1024.0
}

/// Threads in this process right now.
pub fn threads() -> f64 {
    status_field("Threads")
}

/// The kernel's `cpu_set_t`: one bit per CPU, 1024 of them.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The highest-numbered CPU of `allowed`, alone.
fn last_cpu(allowed: &CpuSet) -> Option<(usize, CpuSet)> {
    let word = allowed.iter().rposition(|&w| w != 0)?;
    let bit = 63 - allowed[word].leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    Some((word * 64 + bit, one))
}

/// Confines the calling thread, and every thread it or its descendants
/// start from now on, to one CPU: the last one this process may use.
/// Returns that CPU, or `None` if the kernel refused (the run then goes
/// on unconfined and says so).
///
/// A 16-node cluster is a hundred threads whatever the machine. Spread
/// over the two vCPUs of a shared VM, every hop of every request is a
/// wake-up that may have to wait for a vCPU the hypervisor has lent to
/// another tenant: 30 % steal cut `read_forward` from 50k to 4k req/s.
/// On one CPU a wake-up never leaves it, stolen time costs its own
/// length and no more, and the forwarded path loses nothing (its second
/// CPU went into cross-CPU wake-ups: 50–60k req/s either way, at 16–20
/// instead of 30 µs of CPU per request).
pub fn confine_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: both calls get a pointer to a live, correctly sized mask;
    // pid 0 is the calling thread.
    unsafe {
        if sched_getaffinity(0, size, &mut allowed) != 0 {
            return None;
        }
        let (cpu, one) = last_cpu(&allowed)?;
        (sched_setaffinity(0, size, &one) == 0).then_some(cpu)
    }
}

/// Milliseconds a fixed single-thread arithmetic loop takes. It touches
/// no memory and no repository code, so a reading far from its usual
/// value means the VM, not the program, was slow when a workload ran.
pub fn canary_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000_000u64 {
        x = black_box(x ^ (x << 13) ^ (x >> 7) ^ i);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

fn first_line(path: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `(key, value)` rows identifying the machine and toolchain a result
/// set was measured on.
pub fn identity() -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        (
            "commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        ),
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model),
        (
            "kernel",
            first_line("/proc/sys/kernel/osrelease").unwrap_or_else(unknown),
        ),
        (
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(threads() >= 1.0);
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        assert!(canary_ms() > 0.0);
        assert!(cpu_seconds() >= before);
    }

    #[test]
    fn last_cpu_is_the_highest_bit_set() {
        let mut allowed = [0u64; 16];
        assert!(last_cpu(&allowed).is_none());
        allowed[0] = 0b11;
        let (cpu, one) = last_cpu(&allowed).unwrap();
        assert_eq!((cpu, one[0]), (1, 0b10));
        allowed[1] = 1 << 5;
        let (cpu, one) = last_cpu(&allowed).unwrap();
        assert_eq!((cpu, one[0], one[1]), (69, 0, 1 << 5));
    }
}
