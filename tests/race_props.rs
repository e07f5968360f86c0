//! Generated differential tests for the dynamic race detector.
//!
//! The shadow detector behind `ExecMode::Warp` summarizes each block's
//! global accesses as runs and merges them by sort-and-sweep; the
//! log-replay detector behind `ExecMode::Reference` keeps a hash map per
//! element. Hand-written racy kernels (`transpose_buggy`,
//! `histogram_racy`) exercise a handful of access shapes; these
//! properties generate the rest:
//!
//! - random small kernels over the index shapes `tid`, `tid * s`,
//!   `n - 1 - tid`, `tid ± halo` and `data[tid] % k`, with plain and
//!   atomic accesses mixed, with and without barriers, on 1–8 blocks —
//!   the two detectors agree on race/no-race and on the racing buffer,
//!   and the Warp report does not depend on the worker count;
//! - random run summaries — the sort-and-sweep merge equals a
//!   per-element replay of the same summaries through the log detector.

use descend::sim::interp::AccessRec;
use descend::sim::ir::{
    AtomicOp, Axis, BinOp, ElemTy, Expr, KernelIr, ParamDecl, SharedDecl, Stmt,
};
use descend::sim::race::{cross_block_race, AccessKind, RaceDetector, RaceReport, Run};
use descend::sim::{ExecMode, Gpu, LaunchConfig, SimError};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// How a statement's element index depends on the thread.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `tid`
    Linear,
    /// `tid * s`
    Strided(i64),
    /// `n - 1 - tid`
    Reversed,
    /// `tid + h` for `h` in 0..=2 (a halo of one around `tid + 1`)
    Halo(i64),
    /// `data[tid] % k`
    Scatter(i64),
}

/// One generated statement: an access to the kernel's one mutable
/// buffer, optionally followed by a barrier.
#[derive(Clone, Copy, Debug)]
struct Access {
    kind: AccessKind,
    shape: Shape,
    /// Whether `tid` is the grid-wide thread id (distinct per block) or
    /// the thread's id within its block (every block hits the same
    /// elements). Shared-memory targets always use the latter.
    grid_wide: bool,
    barrier: bool,
}

fn access() -> impl Strategy<Value = Access> {
    let kind = prop_oneof![
        Just(AccessKind::Read),
        Just(AccessKind::Write),
        Just(AccessKind::Atomic)
    ];
    let shape = prop_oneof![
        Just(Shape::Linear),
        (2i64..4).prop_map(Shape::Strided),
        Just(Shape::Reversed),
        (0i64..3).prop_map(Shape::Halo),
        prop_oneof![Just(1i64), Just(4), Just(7)].prop_map(Shape::Scatter),
    ];
    (kind, shape, proptest::bool::ANY, proptest::bool::ANY).prop_map(
        |(kind, shape, grid_wide, barrier)| Access {
            kind,
            shape,
            grid_wide,
            barrier,
        },
    )
}

/// Builds the kernel: buffer 0 is the read-only `data`, and the
/// accesses go to global buffer 1 (`global_target`) or to shared
/// allocation 0. Every index is in bounds by construction.
fn kernel(blocks: u64, threads: u64, global_target: bool, accesses: &[Access]) -> KernelIr {
    let total = (blocks * threads) as i64;
    let grid_tid = Expr::bin(
        BinOp::Add,
        Expr::bin(
            BinOp::Mul,
            Expr::BlockIdx(Axis::X),
            Expr::LitI(threads as i64),
        ),
        Expr::thread_idx(Axis::X),
    );
    let mut body = Vec::new();
    for a in accesses {
        let (tid, n) = if global_target && a.grid_wide {
            (grid_tid.clone(), total)
        } else {
            (Expr::thread_idx(Axis::X), threads as i64)
        };
        let idx = match a.shape {
            Shape::Linear => tid,
            Shape::Strided(s) => Expr::bin(BinOp::Mul, tid, Expr::LitI(s)),
            Shape::Reversed => Expr::bin(BinOp::Sub, Expr::LitI(n - 1), tid),
            Shape::Halo(h) => Expr::bin(BinOp::Add, tid, Expr::LitI(h)),
            Shape::Scatter(k) => Expr::bin(
                BinOp::Mod,
                Expr::LoadGlobal {
                    buf: 0,
                    idx: Box::new(grid_tid.clone()),
                },
                Expr::LitI(k),
            ),
        };
        body.push(match (a.kind, global_target) {
            (AccessKind::Read, true) => Stmt::SetLocal(
                0,
                Expr::LoadGlobal {
                    buf: 1,
                    idx: Box::new(idx),
                },
            ),
            (AccessKind::Read, false) => Stmt::SetLocal(
                0,
                Expr::LoadShared {
                    buf: 0,
                    idx: Box::new(idx),
                },
            ),
            (AccessKind::Write, true) => Stmt::StoreGlobal {
                buf: 1,
                idx,
                value: Expr::LitI(1),
            },
            (AccessKind::Write, false) => Stmt::StoreShared {
                buf: 0,
                idx,
                value: Expr::LitI(1),
            },
            (AccessKind::Atomic, true) => Stmt::AtomicGlobal {
                op: AtomicOp::Add,
                buf: 1,
                idx,
                value: Expr::LitI(1),
            },
            (AccessKind::Atomic, false) => Stmt::AtomicShared {
                op: AtomicOp::Add,
                buf: 0,
                idx,
                value: Expr::LitI(1),
            },
        });
        if a.barrier {
            body.push(Stmt::Barrier);
        }
    }
    // Room for the widest shape, `tid * 3`, and the halo.
    let target_len = 3 * total as u64 + 3;
    KernelIr {
        name: "generated".into(),
        params: vec![
            ParamDecl {
                elem: ElemTy::I32,
                len: total as u64,
                writable: false,
            },
            ParamDecl {
                elem: ElemTy::I32,
                len: target_len,
                writable: true,
            },
        ],
        shared: vec![SharedDecl {
            elem: ElemTy::I32,
            len: 3 * threads + 3,
        }],
        body,
    }
}

/// Launches the kernel with race detection on; returns the race (or
/// none) and the target buffer's final contents.
fn launch(
    kernel: &KernelIr,
    blocks: u64,
    threads: u64,
    seed: u64,
    cfg: &LaunchConfig,
) -> (Option<RaceReport>, Vec<f64>) {
    let mut gpu = Gpu::new();
    let data: Vec<f64> = (0..kernel.params[0].len)
        .map(|i| ((i.wrapping_mul(2654435761) ^ seed.wrapping_mul(40503)) >> 5) as f64 % 1000.0)
        .collect();
    let args = [
        gpu.alloc_scalars(ElemTy::I32, &data),
        gpu.alloc_scalars(ElemTy::I32, &vec![0.0; kernel.params[1].len as usize]),
    ];
    let race = match gpu.launch(kernel, [blocks, 1, 1], [threads, 1, 1], &args, cfg) {
        Ok(_) => None,
        Err(SimError::DataRace(r)) => Some(r),
        Err(other) => panic!("generated kernels only fail by racing, got {other}"),
    };
    (race, gpu.read_scalars(args[1]))
}

fn cfg(exec: ExecMode, workers: usize) -> LaunchConfig {
    LaunchConfig {
        detect_races: true,
        exec,
        workers: Some(workers),
        ..LaunchConfig::default()
    }
}

/// The cross-block verdict of `blocks` by the definition the merge
/// must reproduce: per block, per touched element, the kinds in read,
/// write, atomic order with the pc of the first run (in summary order)
/// of that kind that covers the element — fed one access at a time to
/// the log detector, whose cross-block state is a hash map of cells.
fn replay_per_element(blocks: &[Vec<Run>]) -> Option<RaceReport> {
    let mut log = RaceDetector::new();
    let mut best: Option<RaceReport> = None;
    for (block, runs) in blocks.iter().enumerate() {
        let mut touched: BTreeMap<(u32, u64), [Option<u32>; 3]> = BTreeMap::new();
        for r in runs {
            for idx in r.start..r.end {
                touched.entry((r.buf, idx)).or_default()[r.kind as usize].get_or_insert(r.pc);
            }
        }
        for ((buf, idx), pcs) in touched {
            for (kind, pc) in pcs.into_iter().enumerate() {
                let Some(pc) = pc else { continue };
                let access = AccessRec {
                    pc,
                    global: true,
                    buf,
                    idx,
                    write: kind != AccessKind::Read as usize,
                    atomic: kind == AccessKind::Atomic as usize,
                    tid: 0,
                };
                log.interval(block as u32, &[access]);
                if let Some(mut r) = log.race.take() {
                    r.parties = (r.parties.0.min(r.parties.1), r.parties.0.max(r.parties.1));
                    if best.as_ref().is_none_or(|b| r.sort_key() < b.sort_key()) {
                        best = Some(r);
                    }
                }
            }
        }
    }
    best
}

fn run() -> impl Strategy<Value = Run> {
    let kind = prop_oneof![
        Just(AccessKind::Read),
        Just(AccessKind::Write),
        Just(AccessKind::Atomic)
    ];
    (0u32..2, kind, 0u32..6, 0u64..24, 1u64..9).prop_map(|(buf, kind, pc, start, len)| Run {
        buf,
        kind,
        pc,
        start,
        end: start + len,
    })
}

proptest! {
    /// (a) Both detectors reach the same verdict on the same buffer,
    /// and clean kernels leave the same memory behind; (b) the Warp
    /// report is the same value whatever the worker count.
    #[test]
    fn detectors_agree_on_generated_kernels(
        blocks in 1u64..9,
        threads in prop_oneof![Just(16u64), Just(32), Just(40), Just(64)],
        global_target in proptest::bool::ANY,
        accesses in vec(access(), 1..6),
        seed in 0u64..1000,
    ) {
        let k = kernel(blocks, threads, global_target, &accesses);
        let (warp, warp_mem) = launch(&k, blocks, threads, seed, &cfg(ExecMode::Warp, 1));
        let (reference, reference_mem) =
            launch(&k, blocks, threads, seed, &cfg(ExecMode::Reference, 1));
        prop_assert_eq!(
            warp.as_ref().map(|r| (r.global, r.buf)),
            reference.as_ref().map(|r| (r.global, r.buf)),
            "warp {:?} vs reference {:?}", warp, reference
        );
        if let Some(r) = &warp {
            prop_assert_eq!((r.global, r.buf), (global_target, u32::from(global_target)));
        } else {
            prop_assert_eq!(&warp_mem, &reference_mem);
        }
        for workers in [2, 8] {
            let (parallel, _) = launch(&k, blocks, threads, seed, &cfg(ExecMode::Warp, workers));
            prop_assert_eq!(
                format!("{parallel:?}"), format!("{warp:?}"),
                "{} workers", workers
            );
        }
    }

    /// (c) The sort-and-sweep merge is the per-element replay.
    #[test]
    fn run_merge_equals_per_element_replay(
        blocks in vec(vec(run(), 0..7), 1..7),
    ) {
        let boxed: Vec<Box<[Run]>> = blocks.iter().map(|b| b.clone().into()).collect();
        prop_assert_eq!(cross_block_race(&boxed), replay_per_element(&blocks));
    }
}
