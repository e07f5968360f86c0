//! Paper-scale simulator runs: every Figure 8 benchmark at a
//! 2^20-element footprint, validated against its sequential reference
//! (`run_benchmark` panics on any mismatch), plus agreement checks
//! between the execution modes: warp-vectorized vs reference
//! lane-stepping, parallel vs sequential block execution, and
//! shadow-memory vs access-log race detection on the oracle corpus.
//!
//! These footprints are only tractable because of the warp executor;
//! the reference interpreter is exercised at this scale once, in the
//! wall-clock benchmark (`BENCH_SIM.json`), not here.

use descend::benchmarks::baselines;
use descend::benchmarks::{run_benchmark, BenchKind};
use descend::sim::{ExecMode, Gpu, LaunchConfig, LaunchStats, SimError};

fn warp_cfg() -> LaunchConfig {
    LaunchConfig {
        exec: ExecMode::Warp,
        ..LaunchConfig::default()
    }
}

/// 2^20 elements for the 1-D benchmarks; for the 2-D benchmarks the
/// parameter giving a 2^20-element matrix (transpose), or the largest
/// compute-bound size whose O(n^3) work stays tractable (matmul).
#[test]
fn reduce_matches_reference_at_paper_scale() {
    run_benchmark(BenchKind::Reduce, 1 << 20, 42, &warp_cfg());
}

#[test]
fn reduce_shuffle_matches_reference_at_paper_scale() {
    run_benchmark(BenchKind::ReduceShuffle, 1 << 20, 42, &warp_cfg());
}

#[test]
fn scan_matches_reference_at_paper_scale() {
    run_benchmark(BenchKind::Scan, 1 << 20, 42, &warp_cfg());
}

#[test]
fn histogram_matches_reference_at_paper_scale() {
    run_benchmark(BenchKind::Histogram, 1 << 20, 42, &warp_cfg());
}

#[test]
fn stencil_matches_reference_at_paper_scale() {
    run_benchmark(BenchKind::Stencil, 1 << 20, 42, &warp_cfg());
}

#[test]
fn transpose_matches_reference_at_paper_scale() {
    run_benchmark(BenchKind::Transpose, 1024, 42, &warp_cfg());
}

#[test]
fn matmul_matches_reference_at_scale() {
    run_benchmark(BenchKind::Matmul, 256, 42, &warp_cfg());
}

/// Shadow-memory race detection carries its own cost; run paper-scale
/// benchmarks with it enabled to pin the O(1)-per-access claim (an
/// O(n log n) log replay would time this test out). Reduce is the
/// contiguous case; Histogram scatters 2^20 atomics into 64 bins and
/// Transpose touches one short row segment per warp, the two shapes a
/// degenerate cross-block run summary (a run per access, a quadratic
/// merge) would blow up on.
#[test]
fn race_detection_stays_cheap_at_paper_scale() {
    let cfg = LaunchConfig {
        detect_races: true,
        ..warp_cfg()
    };
    run_benchmark(BenchKind::Reduce, 1 << 20, 42, &cfg);
    run_benchmark(BenchKind::Histogram, 1 << 20, 42, &cfg);
    run_benchmark(BenchKind::Transpose, 1024, 42, &cfg);
}

/// Every field of one launch's [`LaunchStats`], in `rows()` order:
/// cycles, global transactions, global accesses, shared replays, shared
/// accesses, instructions, barriers, atomic accesses, atomic
/// serializations, shuffles, blocks.
type Counters = [u64; 11];

fn counters(stats: &[LaunchStats]) -> Vec<Counters> {
    stats.iter().map(|s| s.rows().map(|(_, v)| v)).collect()
}

/// What `warp_and_reference_modes_agree` runs, with the exact counters of
/// every launch, Descend side then baseline side. The two executors
/// agreeing does not catch a change that moves both alike — a cost
/// weight, the cost model — so the numbers themselves are pinned.
const AGREEMENT_RUNS: [(BenchKind, usize, &[Counters], &[Counters]); 7] = [
    (
        BenchKind::Reduce,
        1 << 14,
        &[[2604, 1056, 16416, 1952, 65472, 35584, 320, 0, 0, 0, 32]],
        &[[2604, 1056, 16416, 1952, 65472, 35584, 320, 0, 0, 0, 32]],
    ),
    (
        BenchKind::ReduceShuffle,
        1 << 14,
        &[[2230, 1056, 16416, 2016, 64544, 26208, 192, 0, 0, 5120, 32]],
        &[[2230, 1056, 16416, 2016, 64544, 26208, 192, 0, 0, 5120, 32]],
    ),
    (
        BenchKind::Scan,
        1 << 14,
        &[
            [6363, 2080, 32800, 14272, 458816, 73952, 320, 0, 0, 0, 32],
            [2800, 2560, 49152, 0, 0, 7680, 0, 0, 0, 0, 32],
        ],
        &[
            [6462, 2080, 32800, 14272, 458816, 77120, 320, 0, 0, 0, 32],
            [2800, 2560, 49152, 0, 0, 7680, 0, 0, 0, 0, 32],
        ],
    ),
    (
        BenchKind::Histogram,
        1 << 14,
        &[[1944, 1536, 32768, 0, 0, 5120, 0, 16384, 882, 0, 64]],
        &[[1944, 1536, 32768, 0, 0, 5120, 0, 16384, 882, 0, 64]],
    ),
    (
        BenchKind::Stencil,
        1 << 14,
        &[[2924, 2112, 32896, 2048, 65664, 16640, 64, 0, 0, 0, 64]],
        &[[2956, 2112, 32896, 2048, 65664, 17664, 64, 0, 0, 0, 64]],
    ),
    (
        BenchKind::Transpose,
        128,
        &[[7768, 2048, 32768, 16384, 32768, 23680, 16, 0, 0, 0, 16]],
        &[[7832, 2048, 32768, 16384, 32768, 24704, 16, 0, 0, 0, 16]],
    ),
    (
        BenchKind::Matmul,
        64,
        &[[54368, 1280, 20480, 8704, 540672, 125056, 16, 0, 0, 0, 4]],
        &[[54752, 1280, 20480, 8704, 540672, 126592, 16, 0, 0, 0, 4]],
    ),
];

/// Warp-vectorized and reference lane-stepping execution agree on
/// results, modeled cycles, and every stat, across the corpus at
/// moderate scale (the reference interpreter is ~10-100x slower), and
/// every stat of both is the pinned number.
#[test]
fn warp_and_reference_modes_agree() {
    for (kind, param, descend, cuda) in AGREEMENT_RUNS {
        let warp = run_benchmark(kind, param, 7, &warp_cfg());
        let reference = run_benchmark(
            kind,
            param,
            7,
            &LaunchConfig {
                exec: ExecMode::Reference,
                ..LaunchConfig::default()
            },
        );
        assert_eq!(
            warp.descend_cycles, reference.descend_cycles,
            "{kind:?}: descend cycles diverge between execution modes"
        );
        assert_eq!(
            warp.cuda_cycles, reference.cuda_cycles,
            "{kind:?}: baseline cycles diverge between execution modes"
        );
        assert_eq!(
            warp.descend_stats, reference.descend_stats,
            "{kind:?}: stats diverge between execution modes"
        );
        for (exec, run) in [("warp", &warp), ("reference", &reference)] {
            assert_eq!(
                counters(&run.descend_stats),
                descend,
                "{kind:?}: {exec} descend counters moved"
            );
            assert_eq!(
                counters(&run.cuda_stats),
                cuda,
                "{kind:?}: {exec} baseline counters moved"
            );
        }
    }
}

/// Parallel block execution is an implementation detail: sequential
/// (`Some(1)`), forced-parallel (`Some(4)`) and automatic (`None`) all
/// produce identical buffers, cycles and stats.
#[test]
fn parallel_blocks_are_observationally_sequential() {
    for workers in [Some(1), Some(4), None] {
        let cfg = LaunchConfig {
            workers,
            ..LaunchConfig::default()
        };
        let r = run_benchmark(BenchKind::Reduce, 1 << 18, 13, &cfg);
        let base = run_benchmark(
            BenchKind::Reduce,
            1 << 18,
            13,
            &LaunchConfig {
                workers: Some(1),
                ..LaunchConfig::default()
            },
        );
        assert_eq!(r.descend_cycles, base.descend_cycles, "{workers:?}");
        assert_eq!(r.descend_stats, base.descend_stats, "{workers:?}");
    }
}

/// Shadow-memory (warp mode) and access-log (reference mode) race
/// detection agree on the verdict for the racy oracle corpus and for
/// the race-free benchmarks.
#[test]
fn shadow_and_log_race_detection_agree() {
    // Race-free side: every accepted benchmark runs clean under both
    // detectors.
    for (kind, param) in [
        (BenchKind::Reduce, 1 << 13),
        (BenchKind::ReduceShuffle, 1 << 13),
        (BenchKind::Scan, 1 << 13),
        (BenchKind::Histogram, 1 << 13),
        (BenchKind::Stencil, 1 << 13),
        (BenchKind::Transpose, 128),
        (BenchKind::Matmul, 64),
    ] {
        for exec in [ExecMode::Warp, ExecMode::Reference] {
            let cfg = LaunchConfig {
                detect_races: true,
                exec,
                ..LaunchConfig::default()
            };
            // run_benchmark panics if any launch errors.
            run_benchmark(kind, param, 5, &cfg);
        }
    }

    // Racy side: both detectors flag each buggy kernel, agreeing on the
    // racing buffer (which *pair* is reported may legitimately differ:
    // the log replays in schedule order, the shadow fold takes the
    // sort_key minimum).
    let n = 64usize;
    let transpose = baselines::transpose_buggy(n);
    let histogram = baselines::histogram_racy(512, 256, 32);
    let hist_data: Vec<f64> = (0..512).map(|i| (i % 7) as f64).collect();

    type RacyCase<'a> = (
        &'a descend::sim::KernelIr,
        [u64; 3],
        [u64; 3],
        Vec<Vec<f64>>,
    );
    let cases: [RacyCase<'_>; 2] = [
        (
            &transpose,
            [2, 2, 1],
            [32, 8, 1],
            vec![vec![1.0; n * n], vec![0.0; n * n]],
        ),
        (
            &histogram,
            [2, 1, 1],
            [256, 1, 1],
            vec![hist_data, vec![0.0; 32]],
        ),
    ];
    for (kernel, grid, block, init) in &cases {
        let mut verdicts = Vec::new();
        for exec in [ExecMode::Warp, ExecMode::Reference] {
            let cfg = LaunchConfig {
                detect_races: true,
                exec,
                ..LaunchConfig::default()
            };
            let mut gpu = Gpu::new();
            let args: Vec<_> = kernel
                .params
                .iter()
                .zip(init)
                .map(|(p, data)| gpu.alloc_scalars(p.elem, data))
                .collect();
            let err = gpu
                .launch(kernel, *grid, *block, &args, &cfg)
                .expect_err("racy kernel must be flagged");
            match err {
                SimError::DataRace(r) => verdicts.push((r.global, r.buf)),
                other => panic!(
                    "`{}` under {exec:?}: expected race, got {other}",
                    kernel.name
                ),
            }
        }
        assert_eq!(
            verdicts[0], verdicts[1],
            "`{}`: detectors disagree on the racing buffer",
            kernel.name
        );
    }
}
