//! Offline shim for the subset of the `criterion` API this workspace uses.
//!
//! The container building this repository has no access to crates.io, so the
//! `benches/` targets depend on this path crate instead of the real
//! `criterion`. It keeps the same source-level API (`criterion_group!`,
//! `criterion_main!`, `Criterion::benchmark_group`, `bench_with_input`,
//! `Bencher::iter`, …) and implements a small best-of-N wall-clock harness:
//! each benchmark runs for a warm-up iteration plus `sample_size` measured
//! iterations and reports the minimum, mean and maximum times.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Identifier of one benchmark within a group: `function_id/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds an identifier from a function name and a parameter value.
    pub fn new(function_id: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function_id.into(), parameter) }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// Timing loop handed to benchmark closures.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Runs the routine once as warm-up and `sample_size` measured times.
    pub fn iter<T>(&mut self, mut routine: impl FnMut() -> T) {
        std_black_box(routine());
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std_black_box(routine());
            self.samples.push(start.elapsed());
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of measured iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    fn run(&mut self, id: &str, f: impl FnOnce(&mut Bencher)) {
        let mut bencher = Bencher { samples: Vec::new(), sample_size: self.sample_size };
        f(&mut bencher);
        let n = bencher.samples.len().max(1) as f64;
        let total: Duration = bencher.samples.iter().sum();
        let min = bencher.samples.iter().min().copied().unwrap_or_default();
        let max = bencher.samples.iter().max().copied().unwrap_or_default();
        println!(
            "{}/{}: min {:.3} ms, mean {:.3} ms, max {:.3} ms ({} samples)",
            self.name,
            id,
            min.as_secs_f64() * 1e3,
            total.as_secs_f64() * 1e3 / n,
            max.as_secs_f64() * 1e3,
            bencher.samples.len(),
        );
    }

    /// Benchmarks a routine parameterised by a shared input.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        f: impl FnOnce(&mut Bencher, &I),
    ) -> &mut Self {
        self.run(&id.id.clone(), |b| f(b, input));
        self
    }

    /// Benchmarks a plain routine.
    pub fn bench_function(&mut self, id: impl Display, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        self.run(&id.to_string(), f);
        self
    }

    /// Ends the group (a no-op in this shim, kept for API compatibility).
    pub fn finish(&mut self) {}
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), sample_size: 10, _criterion: self }
    }
}

/// Declares a group of benchmark functions, as in criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the `main` function running the listed groups, as in criterion.
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
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(2);
        let input = 21u64;
        group.bench_with_input(BenchmarkId::new("double", input), &input, |b, &i| b.iter(|| i * 2));
        group.bench_function("noop", |b| b.iter(|| black_box(1)));
        group.finish();
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 10).to_string(), "f/10");
    }
}
