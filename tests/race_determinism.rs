//! Race reports are deterministic: the warp executor folds all candidate
//! races down to the minimum of [`RaceReport::sort_key`], so the report
//! is a pure function of the program — independent of worker count,
//! scheduling, and repetition. These tests run the racy kernels from the
//! oracle corpus repeatedly under forced parallelism and assert the
//! rendered report never changes.

use descend::benchmarks::baselines;
use descend::sim::ir::{ElemTy, Expr, KernelIr, ParamDecl, Stmt};
use descend::sim::{Gpu, LaunchConfig, SimError};

/// `workers`: `Some(1)` sequential, `Some(4)` forced-parallel, `None`
/// automatic.
fn racy_cfg(workers: Option<usize>) -> LaunchConfig {
    LaunchConfig {
        detect_races: true,
        workers,
        ..LaunchConfig::default()
    }
}

/// Render the race report a launch produces (panics if it runs clean).
fn report(
    kernel: &KernelIr,
    grid: [u64; 3],
    block: [u64; 3],
    init: &[Vec<f64>],
    workers: Option<usize>,
) -> String {
    let mut gpu = Gpu::new();
    let args: Vec<_> = kernel
        .params
        .iter()
        .zip(init)
        .map(|(p, data)| gpu.alloc_scalars(p.elem, data))
        .collect();
    let err = gpu
        .launch(kernel, grid, block, &args, &racy_cfg(workers))
        .unwrap_err();
    match err {
        SimError::DataRace(r) => r.to_string(),
        other => panic!("expected a data race, got {other}"),
    }
}

/// Repeated runs — sequential, auto, and forced-parallel — all render
/// the identical report for every racy kernel in the corpus.
#[test]
fn racy_corpus_reports_are_schedule_independent() {
    let n = 64usize;
    let transpose = baselines::transpose_buggy(n);
    let ones = vec![vec![1.0; n * n], vec![0.0; n * n]];

    let (hn, bs, bins) = (512usize, 256usize, 32usize);
    let histogram = baselines::histogram_racy(hn, bs, bins);
    let hist_init = vec![
        (0..hn).map(|i| (i % 7) as f64).collect::<Vec<_>>(),
        vec![0.0; bins],
    ];

    // A cross-block race: every block's thread 0 writes global cell 0.
    let cross_block = KernelIr {
        name: "cross".into(),
        params: vec![ParamDecl {
            elem: ElemTy::F64,
            len: 8,
            writable: true,
        }],
        shared: vec![],
        body: vec![Stmt::If {
            cond: Expr::bin(
                descend::sim::ir::BinOp::Eq,
                Expr::thread_idx(descend::sim::ir::Axis::X),
                Expr::LitI(0),
            ),
            then_s: vec![Stmt::StoreGlobal {
                buf: 0,
                idx: Expr::LitI(0),
                value: Expr::LitF(1.0),
            }],
            else_s: vec![],
        }],
    };
    let cross_init = vec![vec![0.0; 8]];

    type Case<'a> = (&'a KernelIr, [u64; 3], [u64; 3], &'a [Vec<f64>]);
    let cases: [Case<'_>; 3] = [
        (&transpose, [2, 2, 1], [32, 8, 1], &ones),
        (
            &histogram,
            [(hn / bs) as u64, 1, 1],
            [bs as u64, 1, 1],
            &hist_init,
        ),
        (&cross_block, [16, 1, 1], [256, 1, 1], &cross_init),
    ];

    for (kernel, grid, block, init) in cases {
        let baseline = report(kernel, grid, block, init, Some(1));
        for round in 0..3 {
            for workers in [Some(1), None, Some(4)] {
                let got = report(kernel, grid, block, init, workers);
                assert_eq!(
                    got, baseline,
                    "kernel `{}` round {round} under {workers:?} \
                     reported a different race",
                    kernel.name
                );
            }
        }
    }
}

/// The reported parties are normalized low-before-high, so the report
/// names the same pair no matter which thread's access was recorded
/// first.
#[test]
fn reported_parties_are_normalized() {
    let kernel = baselines::transpose_buggy(64);
    let mut gpu = Gpu::new();
    let inp = gpu.alloc_f64(&vec![1.0; 64 * 64]);
    let out = gpu.alloc_f64(&vec![0.0; 64 * 64]);
    let err = gpu
        .launch(
            &kernel,
            [2, 2, 1],
            [32, 8, 1],
            &[inp, out],
            &racy_cfg(Some(4)),
        )
        .unwrap_err();
    match err {
        SimError::DataRace(r) => assert!(
            r.parties.0 <= r.parties.1,
            "parties not normalized: {:?}",
            r.parties
        ),
        other => panic!("expected a data race, got {other}"),
    }
}
