//! Seeded random numbers, order statistics and the small shared helpers
//! of the benchmark (no external crates: the facade re-exports no RNG).

use std::path::PathBuf;
use std::time::Instant;

/// SplitMix64: tiny, seedable, and good enough to shuffle programs and
/// draw input data.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// `0..n` in a random order.
    pub fn order(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        self.shuffle(&mut order);
        order
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Median and quartiles of a sample, as `statistics.quantiles(n=4)`
/// computes them (exclusive method), so the numbers here and the ones a
/// reviewer recomputes in Python agree.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary::default();
    }
    let at = |q: f64| {
        // Position (n + 1) * q, 1-based, clamped into the sample.
        let pos = ((n + 1) as f64 * q - 1.0).clamp(0.0, (n - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    Summary {
        median: at(0.5),
        q1: at(0.25),
        q3: at(0.75),
        n,
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The `p`-th percentile (nearest rank) of a sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Runs `f`, returning its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// Same tolerance as `descend::benchmarks::runner` applies to the
/// Figure-8 kernels (their float sums associate differently from the
/// scalar references).
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The repository root: the working directory when it holds the corpus
/// (how the command in `BENCHMARK.json` is run), else found from where
/// this package was built (root example or nested package).
pub fn repo_root() -> Result<PathBuf, String> {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let candidates = [
        std::env::current_dir().unwrap_or_default(),
        manifest.clone(),
        manifest.join("../.."),
    ];
    candidates
        .into_iter()
        .find(|c| c.join("examples/descend").is_dir() && c.join("conformance").is_dir())
        .ok_or_else(|| {
            "cannot find examples/descend and conformance/ (run from the repository root)"
                .to_string()
        })
}

/// Where the benchmark may write: a directory beside the executable,
/// which is always inside the cargo target directory.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark has an executable path");
    let dir = exe
        .parent()
        .expect("an executable sits in a directory")
        .join("benchmark-out");
    std::fs::create_dir_all(&dir).expect("the target directory is writable");
    dir
}

/// `VmHWM` of this process in MB (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host threads every timed simulator launch is pinned to. One, not
/// `min(nproc, 2)`: on the two-CPU reference box a two-worker launch
/// leaves no CPU for anything else, so background activity that costs a
/// one-worker launch 2 % costs a two-worker launch 14 %, and run-to-run
/// spread doubles. The parallel path is measured beside it, as
/// `gpu_sim.seq_over_par`.
pub const SIM_WORKERS: usize = 1;

/// Host threads of the parallel launches `gpu_sim.seq_over_par` times.
pub fn par_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}
