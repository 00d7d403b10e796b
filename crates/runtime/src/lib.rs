//! Shared runtime pieces for GRED's cluster nodes, experiment harness
//! and control-plane instrumentation.
//!
//! Four pieces live here:
//!
//! - [`ShardedMap`]: a lock-sharded hash map with an observable
//!   contention hint. No crate of the workspace uses it any more (a
//!   node's store is a plain map its reactor owns); it stays until the
//!   benchmark's layer probe stops timing it.
//! - [`reactor`]: level-triggered `epoll` readiness polling
//!   ([`Poller`]), the [`Mailbox`] through which other threads reach a
//!   reactor's state, and partial-write absorption ([`WriteQueue`]) —
//!   the nonblocking-I/O substrate the cluster node runtime and the
//!   chaos fabric share.
//! - [`parallel_map`]: an ordered, chunked fork/join map over scoped
//!   threads, which the experiment harness uses to run independent sweep
//!   points side by side. Work is handed out in contiguous chunks
//!   (amortizing queue synchronization over many items) and every worker
//!   accumulates its outputs locally, so the only shared state is the
//!   chunk queue; the result vector is assembled once at join time.
//! - [`BuildReport`]: per-phase wall-clock timing and work counters for
//!   the control-plane build pipeline, so rebuild cost can be attributed
//!   to embedding, regulation, triangulation, or installation. The
//!   build itself runs serially on the caller's thread.
//!
//! Determinism: `parallel_map` always returns outputs in input order and
//! applies `f` to each item exactly once, so a sweep whose per-item work
//! is a pure function produces bit-identical results for every thread
//! count, including the inline `threads == 1` path.

pub mod reactor;
pub mod shard;

pub use reactor::{Mailbox, Poller, WriteQueue};
pub use shard::ShardedMap;

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Applies `f` to every item on a pool of `threads` scoped worker
/// threads, returning outputs in input order.
///
/// Items are dispatched in contiguous chunks — roughly four per worker —
/// popped from a single queue, and each worker buffers its outputs
/// locally until join, so lock traffic scales with the number of chunks,
/// not the number of items.
///
/// With `threads <= 1` (or one item) the work runs inline on the
/// caller's thread. Panics in `f` propagate to the caller.
///
/// ```
/// let squares = gred_runtime::parallel_map(vec![1, 2, 3, 4], 2, |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Contiguous chunks, ~4 per worker so faster workers can steal
    // extras from the queue while slower ones finish.
    let chunk_len = n.div_ceil(workers * 4);
    let mut chunks: Vec<(usize, Vec<T>)> = Vec::with_capacity(n.div_ceil(chunk_len));
    let mut iter = items.into_iter();
    let mut start = 0;
    loop {
        let chunk: Vec<T> = iter.by_ref().take(chunk_len).collect();
        if chunk.is_empty() {
            break;
        }
        let len = chunk.len();
        chunks.push((start, chunk));
        start += len;
    }
    // Popped from the back; reverse so low indices are claimed first.
    chunks.reverse();

    let queue = Mutex::new(chunks);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        let next = queue.lock().expect("chunk queue poisoned").pop();
                        let Some((chunk_start, chunk)) = next else {
                            return produced;
                        };
                        produced.push((chunk_start, chunk.into_iter().map(&f).collect()));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (chunk_start, outputs) in handle.join().expect("worker thread panicked") {
                for (offset, out) in outputs.into_iter().enumerate() {
                    slots[chunk_start + offset] = Some(out);
                }
            }
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.expect("every index was produced"))
        .collect()
}

/// A reasonable default worker count: the available parallelism, capped
/// at 8 (sweep points are coarse-grained).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Wall time and work count for one pipeline phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name, e.g. `"bfs_matrix"`.
    pub name: &'static str,
    /// Wall-clock time the phase took.
    pub wall: Duration,
    /// Units of work the phase performed (rows, samples, paths, ...).
    pub items: usize,
}

/// Per-phase instrumentation for a control-plane build.
///
/// Create one with [`BuildReport::new`], wrap each pipeline stage in
/// [`BuildReport::phase`], and read the result from `phases` /
/// [`BuildReport::total_wall`].
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// Completed phases, in execution order.
    pub phases: Vec<PhaseReport>,
    started: Instant,
    finished: Option<Instant>,
}

impl Default for BuildReport {
    fn default() -> Self {
        BuildReport::new()
    }
}

impl BuildReport {
    /// An empty report; the total-wall clock starts now.
    pub fn new() -> Self {
        BuildReport {
            phases: Vec::new(),
            started: Instant::now(),
            finished: None,
        }
    }

    /// Runs `f`, recording its wall time and `items` work counter under
    /// `name`.
    pub fn phase<R>(&mut self, name: &'static str, items: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.phases.push(PhaseReport {
            name,
            wall: start.elapsed(),
            items,
        });
        out
    }

    /// Freezes the total wall clock. Safe to call more than once; the
    /// first call wins.
    pub fn finish(&mut self) {
        if self.finished.is_none() {
            self.finished = Some(Instant::now());
        }
    }

    /// Total wall time from construction to [`BuildReport::finish`] (or
    /// to now, if the build is still running).
    pub fn total_wall(&self) -> Duration {
        self.finished.unwrap_or_else(Instant::now) - self.started
    }

    /// The recorded phase named `name`, if any.
    pub fn phase_named(&self, name: &str) -> Option<&PhaseReport> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// A compact single-line JSON rendering, for logs and scripts.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"total_ms\":{:.3},\"phases\":[",
            self.total_wall().as_secs_f64() * 1e3
        );
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"wall_ms\":{:.3},\"items\":{}}}",
                p.name,
                p.wall.as_secs_f64() * 1e3,
                p.items
            );
        }
        out.push_str("]}");
        out
    }

    /// A human-readable multi-line rendering.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "build: {:.3} ms total",
            self.total_wall().as_secs_f64() * 1e3
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  {:<14} {:>10.3} ms  ({} items)",
                p.name,
                p.wall.as_secs_f64() * 1e3,
                p.items
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), 4, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn preserves_order_at_awkward_sizes() {
        // Sizes that don't divide evenly into chunks, and worker counts
        // exceeding the item count.
        for n in [1usize, 2, 3, 5, 7, 13, 31, 97] {
            for threads in [1usize, 2, 3, 8, 200] {
                let out = parallel_map((0..n as i64).collect(), threads, |x| x + 1);
                assert_eq!(out, (1..=n as i64).collect::<Vec<_>>(), "n={n} t={threads}");
            }
        }
    }

    #[test]
    fn single_thread_inline() {
        let out = parallel_map(vec![5, 6], 1, |x| x + 1);
        assert_eq!(out, vec![6, 7]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn all_items_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = parallel_map((0..50).collect(), 8, |x| {
            counter.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out.len(), 50);
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _ = parallel_map(vec![1, 2, 3], 2, |x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let serial = parallel_map((0..257).collect::<Vec<i64>>(), 1, |x| x * x - 3);
        for threads in [2usize, 4, 7, 16] {
            let parallel = parallel_map((0..257).collect::<Vec<i64>>(), threads, |x| x * x - 3);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn build_report_records_phases() {
        let mut report = BuildReport::new();
        let value = report.phase("bfs_matrix", 100, || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(value, 42);
        report.phase("install", 10, || ());
        report.finish();

        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phase_named("bfs_matrix").unwrap().items, 100);
        assert!(report.phase_named("bfs_matrix").unwrap().wall >= Duration::from_millis(1));
        assert!(report.phase_named("missing").is_none());
        assert!(report.total_wall() >= Duration::from_millis(1));

        let json = report.to_json();
        assert!(json.starts_with("{\"total_ms\":"));
        assert!(json.contains("\"name\":\"bfs_matrix\""));
        assert!(json.contains("\"items\":100"));
        let human = report.summary();
        assert!(human.contains("bfs_matrix"));
    }
}
