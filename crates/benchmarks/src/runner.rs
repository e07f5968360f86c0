//! Benchmark runners: execute the Descend and baseline versions on the
//! same workload, validate both, and collect modeled cycles.
//!
//! Each benchmark is data: `workload` gives its Descend source, its
//! handwritten baseline kernels, the reference output and **one** host
//! program. [`run_benchmark`] runs that host program once with the
//! compiled Descend kernels and once with the baselines, so the two
//! sides see the same inputs, launch shapes and launch sequence by
//! construction.

use crate::{baselines, reference, sources};
use descend_compiler::Compiler;
use gpu_sim::device::BufId;
use gpu_sim::ir::ElemTy;
use gpu_sim::trace::LaunchTrace;
use gpu_sim::{Gpu, KernelIr, LaunchConfig, LaunchStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The benchmarks of the Figure 8 table: the paper's four plus the
/// atomic, warp-shuffle and windows workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BenchKind {
    /// Block-wide parallel reduction.
    Reduce,
    /// Matrix transposition.
    Transpose,
    /// Scan (two kernels).
    Scan,
    /// Matrix multiplication.
    Matmul,
    /// Atomic histogram (global `atomicAdd` scatter; tracks the cost
    /// model's atomic-contention charge).
    Histogram,
    /// Block reduction finishing on warp shuffles (the last five tree
    /// levels are `shfl_xor` butterflies instead of shared-memory
    /// rounds); strictly cheaper than [`BenchKind::Reduce`].
    ReduceShuffle,
    /// 3-point stencil over strided windows: overlapping block windows
    /// staged through shared memory (`windows::<258, 256>`), then
    /// per-thread overlapping stencil windows (`windows::<3, 1>`) —
    /// the workload family the windows view unlocks.
    Stencil,
}

impl BenchKind {
    /// Display name as in the figure.
    pub fn name(self) -> &'static str {
        match self {
            BenchKind::Reduce => "Reduce",
            BenchKind::Transpose => "Transpose",
            BenchKind::Scan => "Scan",
            BenchKind::Matmul => "MM",
            BenchKind::Histogram => "Histogram",
            BenchKind::ReduceShuffle => "ReduceShfl",
            BenchKind::Stencil => "Stencil",
        }
    }
}

/// All seven benchmarks, in the figure's order (Histogram, ReduceShfl
/// and Stencil extend the paper's four with the atomic-contention,
/// warp-shuffle and overlapping-window workloads).
pub const ALL_BENCHMARKS: [BenchKind; 7] = [
    BenchKind::Reduce,
    BenchKind::Transpose,
    BenchKind::Scan,
    BenchKind::Matmul,
    BenchKind::Histogram,
    BenchKind::ReduceShuffle,
    BenchKind::Stencil,
];

/// A footprint class (the paper's small/medium/large).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeClass {
    /// Class name.
    pub name: &'static str,
    /// The size parameter: element count for 1-D benchmarks, matrix
    /// dimension for 2-D ones.
    pub param: usize,
}

/// The three footprint classes per benchmark (scaled from the paper's
/// 256 MB / 512 MB / 1 GB; see DESIGN.md). The memory-bound 1-D
/// benchmarks now reach multi-million-element footprints — feasible
/// since the warp-vectorized executor replaced lane-at-a-time
/// interpretation. Matmul stays smaller because its work grows with the
/// cube of the parameter, not the footprint.
pub fn footprints(kind: BenchKind) -> [SizeClass; 3] {
    let params: [usize; 3] = match kind {
        // ReduceShfl shares Reduce's footprints, so the two reductions'
        // cycle counts compare cell by cell in the Figure 8 table.
        BenchKind::Reduce | BenchKind::ReduceShuffle => [1 << 20, 1 << 21, 1 << 22],
        BenchKind::Transpose => [512, 1024, 1536],
        BenchKind::Scan | BenchKind::Stencil => [1 << 19, 1 << 20, 1 << 21],
        BenchKind::Matmul => [128, 192, 256],
        BenchKind::Histogram => [1 << 18, 1 << 19, 1 << 20],
    };
    let names = ["small", "medium", "large"];
    std::array::from_fn(|i| SizeClass {
        name: names[i],
        param: params[i],
    })
}

/// The result of one benchmark run (both versions on one workload).
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Which benchmark.
    pub kind: BenchKind,
    /// Size parameter used.
    pub param: usize,
    /// Modeled cycles, Descend-generated version (sum over its kernels).
    pub descend_cycles: u64,
    /// Modeled cycles, handwritten CUDA baseline.
    pub cuda_cycles: u64,
    /// Per-launch stats, Descend version.
    pub descend_stats: Vec<LaunchStats>,
    /// Per-launch stats, baseline.
    pub cuda_stats: Vec<LaunchStats>,
    /// Per-launch traces, Descend version (empty unless recorded via
    /// [`run_benchmark_traced`]).
    pub descend_traces: Vec<LaunchTrace>,
    /// Per-launch traces, baseline (empty unless recorded).
    pub cuda_traces: Vec<LaunchTrace>,
}

impl BenchResult {
    /// Descend runtime relative to CUDA (1.0 = parity, < 1.0 = Descend
    /// faster). The paper reports parity within 3%.
    pub fn descend_over_cuda(&self) -> f64 {
        self.descend_cycles as f64 / self.cuda_cycles as f64
    }
}

fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn assert_close(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            approx_eq(*g, *w),
            "{what}: element {i} differs: got {g}, want {w}"
        );
    }
}

fn compile_kernels(src: &str) -> Vec<KernelIr> {
    // IR only: the runner executes on the simulator and never reads the
    // emitted backend text, so skip all text emission in this hot path.
    let compiled = Compiler::with_backends(&[])
        .expect("empty selection is valid")
        .compile_source(src)
        .unwrap_or_else(|e| panic!("benchmark source fails to compile: {e}"));
    compiled.kernels.into_iter().map(|k| k.ir).collect()
}

fn random_data(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Random non-negative i32 inputs (as f64) for the histogram; the bin
/// distribution is uniform so contention spreads across bins.
fn random_ints(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| f64::from(rng.gen_range(0i32..4096)))
        .collect()
}

fn exclusive_scan(sums: &[f64]) -> Vec<f64> {
    let mut offsets = vec![0.0; sums.len()];
    for i in 1..sums.len() {
        offsets[i] = offsets[i - 1] + sums[i - 1];
    }
    offsets
}

struct Launcher<'a> {
    gpu: Gpu,
    cfg: &'a LaunchConfig,
    tracing: bool,
    stats: Vec<LaunchStats>,
    traces: Vec<LaunchTrace>,
}

impl<'a> Launcher<'a> {
    fn new(cfg: &'a LaunchConfig, tracing: bool) -> Launcher<'a> {
        Launcher {
            gpu: Gpu::new(),
            cfg,
            tracing,
            stats: Vec::new(),
            traces: Vec::new(),
        }
    }

    fn launch(&mut self, kernel: &KernelIr, grid: [u64; 3], block: [u64; 3], args: &[BufId]) {
        let stats = if self.tracing {
            let (stats, trace) = self
                .gpu
                .launch_traced(kernel, grid, block, args, self.cfg)
                .unwrap_or_else(|e| panic!("kernel `{}` failed: {e}", kernel.name));
            self.traces.push(trace);
            stats
        } else {
            self.gpu
                .launch(kernel, grid, block, args, self.cfg)
                .unwrap_or_else(|e| panic!("kernel `{}` failed: {e}", kernel.name))
        };
        self.stats.push(stats);
    }

    fn cycles(&self) -> u64 {
        self.stats.iter().map(|s| s.cycles).sum()
    }
}

/// A benchmark's host program, shared by both sides: allocates the
/// inputs on the launcher's device, launches the side's kernels (in
/// source order) and returns the output buffer.
type HostProgram = Box<dyn Fn(&mut Launcher<'_>, &[KernelIr]) -> BufId>;

/// A launch shape: grid and block dimensions.
type Shape = ([u64; 3], [u64; 3]);

/// One benchmark at one size: everything but the side that runs it.
struct Workload {
    /// The Descend program; its kernels in source order.
    source: String,
    /// The handwritten kernels, one per Descend kernel, same order.
    baselines: Vec<KernelIr>,
    /// The scalar reference for the output buffer.
    expect: Vec<f64>,
    host: HostProgram,
}

/// The host program of a one-kernel benchmark: the input buffer, a
/// zeroed output of `out_len` elements, one launch.
fn one_launch(elem: ElemTy, data: Vec<f64>, out_len: usize, shape: Shape) -> HostProgram {
    Box::new(move |l, k| {
        let inp = l.gpu.alloc_scalars(elem, &data);
        let out = l.gpu.alloc_scalars(elem, &vec![0.0; out_len]);
        l.launch(&k[0], shape.0, shape.1, &[inp, out]);
        out
    })
}

/// The workload of `kind` at size `n`, inputs drawn from `seed`.
fn workload(kind: BenchKind, n: usize, seed: u64) -> Workload {
    // A 1-D launch: `n / bs` blocks of `bs` threads.
    let line = |bs: usize| -> Shape { ([(n / bs) as u64, 1, 1], [bs as u64, 1, 1]) };
    let bs = sources::BLOCK_SIZE;
    match kind {
        BenchKind::Reduce | BenchKind::ReduceShuffle => {
            let data = random_data(n, seed);
            let (source, baseline) = if kind == BenchKind::Reduce {
                (sources::reduce(n), baselines::reduce(n, bs))
            } else {
                (sources::reduce_shuffle(n), baselines::reduce_shuffle(n, bs))
            };
            Workload {
                source,
                baselines: vec![baseline],
                expect: reference::block_sums(&data, bs),
                host: one_launch(ElemTy::F64, data, n / bs, line(bs)),
            }
        }
        BenchKind::Transpose => {
            let nb = (n / 32) as u64;
            let data = random_data(n * n, seed);
            Workload {
                source: sources::transpose(n),
                baselines: vec![baselines::transpose(n)],
                expect: reference::transpose(&data, n),
                host: one_launch(ElemTy::F64, data, n * n, ([nb, nb, 1], [32, 8, 1])),
            }
        }
        BenchKind::Scan => {
            let (grid, block) = line(bs);
            let data = random_data(n, seed);
            Workload {
                source: sources::scan_blocks(n) + &sources::scan_add_offsets(n),
                baselines: vec![
                    baselines::scan_blocks(n, bs),
                    baselines::scan_add_offsets(n, bs),
                ],
                expect: reference::inclusive_scan(&data),
                host: Box::new(move |l, k| {
                    let io = l.gpu.alloc_f64(&data);
                    let sums = l.gpu.alloc_f64(&vec![0.0; n / bs]);
                    l.launch(&k[0], grid, block, &[io, sums]);
                    // The block offsets are scanned on the host.
                    let offsets = exclusive_scan(&l.gpu.read_f64(sums));
                    let offs = l.gpu.alloc_f64(&offsets);
                    l.launch(&k[1], grid, block, &[io, offs]);
                    io
                }),
            }
        }
        BenchKind::Matmul => {
            let nb = (n / 32) as u64;
            let a = random_data(n * n, seed);
            let b = random_data(n * n, seed.wrapping_add(1));
            Workload {
                source: sources::matmul(n),
                baselines: vec![baselines::matmul(n)],
                expect: reference::matmul(&a, &b, n),
                host: Box::new(move |l, k| {
                    let da = l.gpu.alloc_f64(&a);
                    let db = l.gpu.alloc_f64(&b);
                    let dc = l.gpu.alloc_f64(&vec![0.0; n * n]);
                    l.launch(&k[0], [nb, nb, 1], [32, 32, 1], &[da, db, dc]);
                    dc
                }),
            }
        }
        BenchKind::Histogram => {
            let (bs, bins) = (sources::HIST_BLOCK, sources::HIST_BINS);
            let data = random_ints(n, seed);
            Workload {
                source: sources::histogram(n),
                baselines: vec![baselines::histogram(n, bs, bins)],
                expect: reference::histogram(&data, bins),
                host: one_launch(ElemTy::I32, data, bins, line(bs)),
            }
        }
        BenchKind::Stencil => {
            let bs = sources::STENCIL_BLOCK;
            let data = random_data(n + 2, seed);
            Workload {
                source: sources::stencil(n),
                baselines: vec![baselines::stencil(n, bs)],
                expect: reference::stencil3(&data),
                host: one_launch(ElemTy::F64, data, n, line(bs)),
            }
        }
    }
}

/// Runs one benchmark at one size and returns the paired measurement.
///
/// Both versions are validated against the scalar reference; a failure
/// panics (the benchmarks are also exercised as tests).
pub fn run_benchmark(kind: BenchKind, param: usize, seed: u64, cfg: &LaunchConfig) -> BenchResult {
    run(kind, param, seed, cfg, false)
}

/// Like [`run_benchmark`], but records a deterministic [`LaunchTrace`]
/// per launch on both sides ([`BenchResult::descend_traces`] /
/// [`BenchResult::cuda_traces`]).
///
/// Tracing records every access group, so use reduced footprints (see
/// [`trace_param`]) — at the full Figure 8 footprints the event lists
/// run to tens of millions of records.
pub fn run_benchmark_traced(
    kind: BenchKind,
    param: usize,
    seed: u64,
    cfg: &LaunchConfig,
) -> BenchResult {
    run(kind, param, seed, cfg, true)
}

/// A reduced size parameter per benchmark suitable for traced runs —
/// the same scales the parity tests use: the timeline *shape* is the
/// artifact, not the footprint.
pub fn trace_param(kind: BenchKind) -> usize {
    match kind {
        BenchKind::Reduce | BenchKind::ReduceShuffle | BenchKind::Stencil => 8192,
        BenchKind::Transpose => 128,
        BenchKind::Scan => 4096,
        BenchKind::Matmul => 64,
        BenchKind::Histogram => 1 << 13,
    }
}

fn run(kind: BenchKind, param: usize, seed: u64, cfg: &LaunchConfig, tracing: bool) -> BenchResult {
    let w = workload(kind, param, seed);
    let kernels = compile_kernels(&w.source);
    assert_eq!(
        kernels.len(),
        w.baselines.len(),
        "{}: the Descend program and the baseline differ in kernel count",
        kind.name()
    );
    // One side: the shared host program with that side's kernels, on a
    // fresh device, checked against the reference.
    let side = |kernels: &[KernelIr], who: &str| {
        let mut l = Launcher::new(cfg, tracing);
        let out = (w.host)(&mut l, kernels);
        let what = format!("{who} {}", kind.name());
        assert_close(&l.gpu.read_scalars(out), &w.expect, &what);
        l
    };
    let d = side(&kernels, "descend");
    let c = side(&w.baselines, "cuda");
    BenchResult {
        kind,
        param,
        descend_cycles: d.cycles(),
        cuda_cycles: c.cycles(),
        descend_stats: d.stats,
        cuda_stats: c.stats,
        descend_traces: d.traces,
        cuda_traces: c.traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn race_checked() -> LaunchConfig {
        LaunchConfig {
            detect_races: true,
            ..LaunchConfig::default()
        }
    }

    #[test]
    fn reduce_parity_at_small_scale() {
        let r = run_benchmark(BenchKind::Reduce, 8192, 7, &race_checked());
        let ratio = r.descend_over_cuda();
        assert!(
            (0.8..1.25).contains(&ratio),
            "reduce ratio {ratio} out of band (descend {} vs cuda {})",
            r.descend_cycles,
            r.cuda_cycles
        );
    }

    #[test]
    fn transpose_parity_at_small_scale() {
        let r = run_benchmark(BenchKind::Transpose, 128, 7, &race_checked());
        let ratio = r.descend_over_cuda();
        assert!(
            (0.8..1.25).contains(&ratio),
            "transpose ratio {ratio} out of band (descend {} vs cuda {})",
            r.descend_cycles,
            r.cuda_cycles
        );
    }

    #[test]
    fn scan_parity_at_small_scale() {
        let r = run_benchmark(BenchKind::Scan, 4096, 7, &race_checked());
        let ratio = r.descend_over_cuda();
        assert!(
            (0.8..1.25).contains(&ratio),
            "scan ratio {ratio} out of band (descend {} vs cuda {})",
            r.descend_cycles,
            r.cuda_cycles
        );
    }

    #[test]
    fn matmul_parity_at_small_scale() {
        let r = run_benchmark(BenchKind::Matmul, 64, 7, &race_checked());
        let ratio = r.descend_over_cuda();
        assert!(
            (0.8..1.25).contains(&ratio),
            "matmul ratio {ratio} out of band (descend {} vs cuda {})",
            r.descend_cycles,
            r.cuda_cycles
        );
    }

    /// The Figure 8 parity is not accidental: the generated and
    /// handwritten kernels issue the *same number of global-memory
    /// transactions* (identical access patterns after coalescing) for the
    /// pattern-identical benchmarks.
    #[test]
    fn histogram_parity_at_small_scale() {
        let r = run_benchmark(BenchKind::Histogram, 1 << 13, 7, &race_checked());
        let ratio = r.descend_over_cuda();
        assert!(
            (0.8..1.25).contains(&ratio),
            "histogram ratio {ratio} out of band (descend {} vs cuda {})",
            r.descend_cycles,
            r.cuda_cycles
        );
        // Contention is real and identical on both sides: the cost model
        // charged serializations for same-bin lanes.
        let d: u64 = r
            .descend_stats
            .iter()
            .map(|s| s.atomic_serializations)
            .sum();
        let c: u64 = r.cuda_stats.iter().map(|s| s.atomic_serializations).sum();
        assert!(d > 0, "histogram must exhibit atomic contention");
        assert_eq!(d, c, "atomic contention differs from baseline");
    }

    #[test]
    fn reduce_shuffle_parity_at_small_scale() {
        let r = run_benchmark(BenchKind::ReduceShuffle, 8192, 7, &race_checked());
        let ratio = r.descend_over_cuda();
        assert!(
            (0.8..1.25).contains(&ratio),
            "reduce_shuffle ratio {ratio} out of band (descend {} vs cuda {})",
            r.descend_cycles,
            r.cuda_cycles
        );
        // Both sides exchange through shuffles, identically.
        let d: u64 = r.descend_stats.iter().map(|s| s.shuffles).sum();
        let c: u64 = r.cuda_stats.iter().map(|s| s.shuffles).sum();
        assert!(d > 0, "the shuffle reduction must shuffle");
        assert_eq!(d, c, "shuffle counts differ from baseline");
    }

    /// The point of the sixth entry: finishing on shuffles is strictly
    /// cheaper than the pure shared-memory tree at the same footprint.
    #[test]
    fn reduce_shuffle_beats_reduce_tree() {
        let n = 8192;
        let tree = run_benchmark(BenchKind::Reduce, n, 7, &LaunchConfig::default());
        let shfl = run_benchmark(BenchKind::ReduceShuffle, n, 7, &LaunchConfig::default());
        assert!(
            shfl.descend_cycles < tree.descend_cycles,
            "shuffle reduction must model fewer cycles: {} vs {}",
            shfl.descend_cycles,
            tree.descend_cycles
        );
        let tb: u64 = tree.descend_stats.iter().map(|s| s.barriers).sum();
        let sb: u64 = shfl.descend_stats.iter().map(|s| s.barriers).sum();
        assert!(sb < tb, "five barrier rounds replaced: {sb} vs {tb}");
    }

    /// The seventh entry: the windows-view stencil at parity with the
    /// handwritten shared-memory stencil, with the 3x window reuse
    /// visible in the shared-access stats (three shared reads per
    /// output on both sides).
    #[test]
    fn stencil_parity_at_small_scale() {
        let n = 8192usize;
        let r = run_benchmark(BenchKind::Stencil, n, 7, &race_checked());
        let ratio = r.descend_over_cuda();
        assert!(
            (0.8..1.25).contains(&ratio),
            "stencil ratio {ratio} out of band (descend {} vs cuda {})",
            r.descend_cycles,
            r.cuda_cycles
        );
        // Window reuse through shared memory: per output element, one
        // staging store plus three overlapping-window reads (the halo
        // adds two accesses per block).
        let d: u64 = r.descend_stats.iter().map(|s| s.shared_accesses).sum();
        let c: u64 = r.cuda_stats.iter().map(|s| s.shared_accesses).sum();
        assert_eq!(d, c, "shared access counts differ from baseline");
        assert!(
            d >= 4 * n as u64,
            "window reuse must show in shared accesses: {d} < {}",
            4 * n
        );
    }

    #[test]
    fn access_patterns_match_baselines() {
        for (kind, param) in [
            (BenchKind::Reduce, 8192usize),
            (BenchKind::Transpose, 128),
            (BenchKind::Matmul, 64),
            (BenchKind::Histogram, 4096),
            (BenchKind::ReduceShuffle, 8192),
            (BenchKind::Stencil, 8192),
        ] {
            let r = run_benchmark(kind, param, 11, &LaunchConfig::default());
            let d: u64 = r.descend_stats.iter().map(|s| s.global_transactions).sum();
            let c: u64 = r.cuda_stats.iter().map(|s| s.global_transactions).sum();
            assert_eq!(d, c, "{:?}: global transactions differ", kind);
            let db: u64 = r.descend_stats.iter().map(|s| s.barriers).sum();
            let cb: u64 = r.cuda_stats.iter().map(|s| s.barriers).sum();
            assert_eq!(db, cb, "{:?}: barrier counts differ", kind);
        }
    }

    #[test]
    fn deterministic_cycles() {
        let a = run_benchmark(BenchKind::Reduce, 4096, 3, &LaunchConfig::default());
        let b = run_benchmark(BenchKind::Reduce, 4096, 3, &LaunchConfig::default());
        assert_eq!(a.descend_cycles, b.descend_cycles);
        assert_eq!(a.cuda_cycles, b.cuda_cycles);
    }

    #[test]
    fn footprints_are_ordered() {
        for kind in ALL_BENCHMARKS {
            let f = footprints(kind);
            assert!(f[0].param < f[1].param && f[1].param < f[2].param);
        }
    }
}
