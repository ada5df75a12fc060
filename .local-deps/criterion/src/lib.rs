//! Offline stand-in for `criterion`: runs each benchmark body once to
//! warm up, then times a fixed number of iterations (the group's
//! `sample_size`, 100 by default) and prints the benchmark's name, its
//! mean ns/iter and, when the group set one, its throughput. There are
//! no statistics, plots or saved baselines.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Iterations timed per benchmark when the group sets no sample size.
const DEFAULT_ITERS: u64 = 100;

#[derive(Default)]
pub struct Criterion;

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _c: self,
            name: name.into(),
            throughput: None,
            iters: DEFAULT_ITERS,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run(name, DEFAULT_ITERS, None, f);
        self
    }
}

pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    iters: u64,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.iters = n.max(1) as u64;
        self
    }

    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let name = format!("{}/{name}", self.name);
        run(&name, self.iters, self.throughput, f);
        self
    }

    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id.0);
        run(&name, self.iters, self.throughput, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// Runs one benchmark and prints its line; a body that never calls
/// [`Bencher::iter`] prints nothing.
fn run(name: &str, iters: u64, throughput: Option<Throughput>, f: impl FnOnce(&mut Bencher)) {
    let mut b = Bencher {
        iters,
        elapsed: None,
    };
    f(&mut b);
    let Some(elapsed) = b.elapsed else { return };
    let secs_per_iter = elapsed.as_secs_f64() / iters as f64;
    let rate = match throughput {
        Some(Throughput::Bytes(n)) => {
            format!(
                "  {:.3} GiB/s",
                n as f64 / (1u64 << 30) as f64 / secs_per_iter
            )
        }
        Some(Throughput::Elements(n)) => format!("  {:.0} elem/s", n as f64 / secs_per_iter),
        None => String::new(),
    };
    println!(
        "{name:<48} {:>14.0} ns/iter ({iters} iters){rate}",
        secs_per_iter * 1e9
    );
}

pub struct Bencher {
    iters: u64,
    elapsed: Option<Duration>,
}

impl Bencher {
    /// Calls `body` once to warm up, then times `iters` calls.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut body: F) {
        black_box(body());
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(body());
        }
        self.elapsed = Some(start.elapsed());
    }
}

pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new(name: impl Into<String>, param: impl Display) -> Self {
        BenchmarkId(format!("{}/{param}", name.into()))
    }
}

#[derive(Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($f:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($f(&mut c);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
