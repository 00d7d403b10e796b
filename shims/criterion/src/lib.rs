//! Offline shim for `criterion`: a lightweight benchmark harness with
//! the same surface API (`Criterion`, `benchmark_group`,
//! `bench_function`, `bench_with_input`, `Throughput`, `BenchmarkId`,
//! `criterion_group!`, `criterion_main!`).
//!
//! Instead of criterion's statistical machinery, each benchmark is
//! warmed up once, then timed over `samples` batches whose iteration
//! count is sized so a batch takes roughly a millisecond. The median
//! batch mean is reported.
//!
//! Results are printed human-readably, one `bench: group/name time`
//! line per benchmark.
//!
//! Environment knob: `CRITERION_SHIM_SAMPLES`, batches per benchmark
//! (default 10).

use std::time::{Duration, Instant};

/// Prevents the optimizer from deleting a benchmarked computation.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Work-per-iteration annotation; accepted for compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// A benchmark's name, optionally parameterized.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new<P: std::fmt::Display>(function_name: &str, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// Just the parameter, under the group's name.
    pub fn from_parameter<P: std::fmt::Display>(parameter: P) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId {
            id: name.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// The timing loop handed to benchmark closures.
pub struct Bencher {
    /// Mean nanoseconds per iteration, filled in by [`Bencher::iter`].
    mean_ns: f64,
}

impl Bencher {
    fn empty() -> Bencher {
        Bencher { mean_ns: 0.0 }
    }

    /// Times `routine`, storing the median-of-batch-means estimate.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let samples: usize = std::env::var("CRITERION_SHIM_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(10);

        // Warmup & calibration: one run to size the batches.
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(1));

        // Aim for ~2ms batches, capped so slow benchmarks still finish.
        let iters_per_batch =
            (Duration::from_millis(2).as_nanos() / once.as_nanos()).clamp(1, 100_000) as usize;

        let mut batch_means = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..iters_per_batch {
                black_box(routine());
            }
            batch_means.push(start.elapsed().as_nanos() as f64 / iters_per_batch as f64);
        }
        batch_means.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        self.mean_ns = batch_means[batch_means.len() / 2];
    }
}

fn record(group: &str, bench: &str, bencher: &Bencher) {
    println!("bench: {group}/{bench}  {}", format_ns(bencher.mean_ns));
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for compatibility; the shim sizes batches itself.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for compatibility; the shim sizes batches itself.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Accepted for compatibility; the shim reports time only.
    pub fn throughput(&mut self, _throughput: Throughput) -> &mut Self {
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F, I>(&mut self, id: I, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher::empty();
        f(&mut bencher);
        record(&self.name, &id.id, &bencher);
        self
    }

    /// Runs one benchmark with a borrowed input value.
    pub fn bench_with_input<F, I, T: ?Sized>(&mut self, id: I, input: &T, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher, &T),
    {
        let id = id.into();
        let mut bencher = Bencher::empty();
        f(&mut bencher, input);
        record(&self.name, &id.id, &bencher);
        self
    }

    /// Ends the group (no-op beyond symmetry with the real crate).
    pub fn finish(self) {}
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            _criterion: self,
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::empty();
        f(&mut bencher);
        record(name, name, &bencher);
        self
    }

    /// Accepted for compatibility with `criterion_main!`.
    pub fn final_summary(&mut self) {}
}

/// Bundles benchmark functions under one group entry point.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generates `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_positive_time() {
        std::env::set_var("CRITERION_SHIM_SAMPLES", "3");
        let mut b = Bencher::empty();
        b.iter(|| black_box((0..100u64).sum::<u64>()));
        assert!(b.mean_ns > 0.0);
    }

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("f", 32).id, "f/32");
        assert_eq!(BenchmarkId::from_parameter("x").id, "x");
        assert_eq!(BenchmarkId::from("plain").id, "plain");
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(500.0), "500 ns");
        assert_eq!(format_ns(1_500.0), "1.50 µs");
        assert_eq!(format_ns(2_500_000.0), "2.50 ms");
        assert_eq!(format_ns(3_000_000_000.0), "3.000 s");
    }
}
