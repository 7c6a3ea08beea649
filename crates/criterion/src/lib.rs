//! Offline API-compatible stand-in for the [`criterion`] crate.
//!
//! The build environment for this repository has no access to crates.io,
//! so this vendored crate provides the subset of the `criterion 0.5` API
//! the workspace's `harness = false` benches use — [`Criterion`],
//! [`BenchmarkGroup`], [`Bencher`], [`BenchmarkId`] and the
//! [`criterion_group!`] / [`criterion_main!`] macros — with **zero**
//! external dependencies.
//!
//! Instead of criterion's full statistical pipeline (warm-up, outlier
//! classification, HTML reports), each benchmark runs a fixed number of
//! timed batches and prints the mean wall-clock time per iteration. That
//! keeps the bench targets compiling and producing comparable numbers;
//! the paper-figure measurements proper live in `xic-bench`'s
//! `experiments` binary, which has its own timing loop.
//!
//! [`criterion`]: https://docs.rs/criterion/0.5

use std::fmt::Display;
use std::time::Instant;

/// Re-exported hint (stand-in for `criterion::black_box`).
///
/// Uses a volatile read to keep the optimizer from deleting the
/// benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    // SAFETY: reading a just-written stack value of a type we own.
    unsafe {
        let ret = std::ptr::read_volatile(&x);
        std::mem::forget(x);
        ret
    }
}

/// Identifies one parameterized benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// `function_name/parameter` id.
    pub fn new<P: Display>(function_name: &str, parameter: P) -> BenchmarkId {
        BenchmarkId {
            function: function_name.to_string(),
            parameter: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.function, self.parameter)
    }
}

/// Passed to the closure given to `bench_function`/`bench_with_input`;
/// call [`Bencher::iter`] with the code under test.
pub struct Bencher {
    iterations: u32,
    mean_ns: f64,
}

impl Bencher {
    /// Times `routine`, recording the mean time per call.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One untimed call to warm caches and lazily-built state.
        black_box(routine());
        let start = Instant::now();
        for _ in 0..self.iterations {
            black_box(routine());
        }
        self.mean_ns = start.elapsed().as_nanos() as f64 / f64::from(self.iterations);
    }
}

fn run_one(label: &str, samples: u32, f: &mut dyn FnMut(&mut Bencher)) {
    // `samples` maps to criterion's sample count; we use it to scale the
    // iteration budget so `sample_size(10)` benches stay fast.
    let mut b = Bencher {
        iterations: samples.max(2),
        mean_ns: 0.0,
    };
    f(&mut b);
    let (value, unit) = if b.mean_ns >= 1e6 {
        (b.mean_ns / 1e6, "ms")
    } else if b.mean_ns >= 1e3 {
        (b.mean_ns / 1e3, "µs")
    } else {
        (b.mean_ns, "ns")
    };
    println!("{label:<50} mean {value:>10.3} {unit} ({} iters)", b.iterations);
}

/// A named group of related benchmarks (stand-in for
/// `criterion::BenchmarkGroup`).
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: u32,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-benchmark sample count (used here as the iteration
    /// budget).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n as u32;
        self
    }

    /// Runs a benchmark identified by a plain name.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_one(&format!("{}/{id}", self.name), self.sample_size, &mut f);
        self
    }

    /// Runs a parameterized benchmark.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{id}", self.name);
        let mut g = |b: &mut Bencher| f(b, input);
        run_one(&label, self.sample_size, &mut g);
        self
    }

    /// Ends the group (prints a separator).
    pub fn finish(self) {
        println!();
    }
}

/// The top-level benchmark harness (stand-in for `criterion::Criterion`).
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("# group {name}");
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: 20,
            _parent: self,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_one(id, 20, &mut f);
        self
    }

    /// Stand-in for criterion's config hook; returns `self` unchanged.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Called by [`criterion_main!`] after all groups ran.
    pub fn final_summary(&mut self) {}
}

/// Declares a function that runs the listed benchmark functions
/// (stand-in for `criterion::criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running the listed groups (stand-in for
/// `criterion::criterion_main!`).
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
    fn bencher_times_a_routine() {
        let mut b = Bencher {
            iterations: 5,
            mean_ns: 0.0,
        };
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            black_box(n)
        });
        assert!(b.mean_ns >= 0.0);
        assert_eq!(n, 6); // 1 warm-up + 5 timed
    }

    #[test]
    fn group_api_composes() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        g.sample_size(3);
        g.bench_function("plain", |b| b.iter(|| black_box(1 + 1)));
        g.bench_with_input(BenchmarkId::new("param", 32), &32, |b, &n| {
            b.iter(|| black_box(n * 2))
        });
        g.finish();
        c.bench_function("top", |b| b.iter(|| black_box("x".len())));
    }
}
