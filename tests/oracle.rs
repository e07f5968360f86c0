//! Differential oracle tests: the static checker vs the dynamic race
//! detector.
//!
//! Soundness direction: every program the type checker accepts must be
//! race-free and divergence-free under the dynamic detector on real
//! workloads. Bug direction: the buggy CUDA kernels from the paper's
//! Sections 1-2, transcribed to IR, must be flagged dynamically — and
//! their Descend counterparts must already be rejected statically.

use descend::benchmarks::{baselines, sources};
use descend::codegen::{kernel_to_ir, IndexTable};
use descend::compiler::Compiler;
use descend::sim::{Gpu, LaunchConfig, SimError};

fn race_checked() -> LaunchConfig {
    LaunchConfig {
        detect_races: true,
        ..LaunchConfig::default()
    }
}

/// All accepted benchmark kernels run clean under the dynamic detector.
#[test]
fn accepted_kernels_are_dynamically_clean() {
    let compiler = Compiler::new();
    let programs = [
        sources::reduce(4096),
        sources::reduce_shuffle(4096),
        sources::transpose(128),
        format!(
            "{}{}",
            sources::scan_blocks(2048),
            sources::scan_add_offsets(2048)
        ),
        sources::matmul(64),
    ];
    for src in &programs {
        let compiled = compiler.compile_source(src).expect("accepted");
        for ck in &compiled.kernels {
            let ir = kernel_to_ir(&ck.mono, &mut IndexTable::new(&ck.mono)).expect("lowers");
            let mut gpu = Gpu::new();
            let args: Vec<_> = ir
                .params
                .iter()
                .map(|p| {
                    gpu.alloc_f64(
                        &(0..p.len as usize)
                            .map(|i| ((i % 17) as f64) - 8.0)
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            gpu.launch(
                &ir,
                ck.mono.grid_dim,
                ck.mono.block_dim,
                &args,
                &race_checked(),
            )
            .unwrap_or_else(|e| {
                panic!(
                    "statically accepted kernel `{}` failed dynamically: {e}",
                    ck.mono.name
                )
            });
        }
    }
}

/// Listing 1's buggy transpose: flagged dynamically; the Descend analog
/// of the same mistake cannot even be written (views replace raw
/// indices), and the closest expressible version is rejected statically.
#[test]
fn listing_1_bug_is_caught_both_ways() {
    // Dynamically: the IR transcription races.
    let kernel = baselines::transpose_buggy(64);
    let mut gpu = Gpu::new();
    let inp = gpu.alloc_f64(&vec![1.0; 64 * 64]);
    let out = gpu.alloc_f64(&vec![0.0; 64 * 64]);
    let err = gpu
        .launch(&kernel, [2, 2, 1], [32, 8, 1], &[inp, out], &race_checked())
        .unwrap_err();
    assert!(matches!(err, SimError::DataRace(_)));

    // Statically: unsynchronized read-back of the staging buffer is a
    // conflicting access.
    let src = sources::transpose(128).replace("sync;", "");
    let err = Compiler::new().compile_source(&src).unwrap_err();
    assert_eq!(
        err.type_error.unwrap().kind,
        descend::typeck::ErrorKind::ConflictingAccess
    );
}

/// The Section 2.2 barrier bug: rejected statically in Descend; the CUDA
/// transcription divergences dynamically.
#[test]
fn barrier_bug_is_caught_both_ways() {
    use descend::sim::ir::{Axis, Expr, KernelIr, Stmt};
    let kernel = KernelIr {
        name: "partial_sync".into(),
        params: vec![],
        shared: vec![],
        body: vec![Stmt::If {
            cond: Expr::lt(Expr::thread_idx(Axis::X), Expr::LitI(32)),
            then_s: vec![Stmt::Barrier],
            else_s: vec![],
        }],
    };
    let mut gpu = Gpu::new();
    let err = gpu
        .launch(
            &kernel,
            [1, 1, 1],
            [64, 1, 1],
            &[],
            &LaunchConfig::default(),
        )
        .unwrap_err();
    assert!(matches!(err, SimError::BarrierDivergence { .. }));

    let src = r#"
fn kernel(a: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        split(X) block at 32 {
            first => { sync; },
            rest => { }
        }
    }
}
"#;
    let err = Compiler::new().compile_source(src).unwrap_err();
    assert_eq!(
        err.type_error.unwrap().kind,
        descend::typeck::ErrorKind::BarrierNotAllowed
    );
}

/// The Section 2.3 out-of-bounds launch: rejected statically in Descend;
/// reported (not UB) dynamically in the simulator.
#[test]
fn oversized_launch_is_caught_both_ways() {
    use descend::sim::ir::{ElemTy, Expr, KernelIr, ParamDecl, Stmt};
    // CUDA side: more threads than elements.
    let kernel = KernelIr {
        name: "scale".into(),
        params: vec![ParamDecl {
            elem: ElemTy::F64,
            len: 64,
            writable: true,
        }],
        shared: vec![],
        body: vec![Stmt::StoreGlobal {
            buf: 0,
            idx: Expr::global_x(),
            value: Expr::LitF(1.0),
        }],
    };
    let mut gpu = Gpu::new();
    let buf = gpu.alloc_f64(&vec![0.0; 64]);
    let err = gpu
        .launch(
            &kernel,
            [1, 1, 1],
            [512, 1, 1],
            &[buf],
            &LaunchConfig::default(),
        )
        .unwrap_err();
    assert!(matches!(err, SimError::OutOfBounds { .. }));

    // Descend side: the launch configuration is part of the type.
    let src = r#"
fn scale_vec<n: nat>(vec: &uniq gpu.global [f64; n])
-[grid: gpu.grid<X<1>, X<n>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*vec)[[thread]] = 1.0;
        }
    }
}

fn main() -[t: cpu.thread]-> () {
    let h = alloc::<cpu.mem, [f64; 64]>();
    let d = gpu_alloc_copy(&h);
    scale_vec::<512><<<X<1>, X<512>>>>(&uniq d);
}
"#;
    let err = Compiler::new().compile_source(src).unwrap_err();
    assert_eq!(
        err.type_error.unwrap().kind,
        descend::typeck::ErrorKind::MismatchedTypes
    );
}

/// The atomics accept/reject boundary, from both sides: the plain `+=`
/// histogram is rejected statically (`fail/nonatomic_histogram.descend`,
/// driven by tests/corpus.rs) AND its IR transcription is flagged by the
/// dynamic race oracle — while the `atomic_add` version of the very same
/// kernel is accepted statically and runs clean dynamically.
#[test]
fn nonatomic_histogram_is_caught_both_ways_and_atomic_is_clean() {
    let (n, bs, bins) = (512usize, 256usize, 32usize);
    let nb = (n / bs) as u64;
    let data: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();

    // Dynamically: the plain read-modify-write transcription races.
    let racy = baselines::histogram_racy(n, bs, bins);
    let mut gpu = Gpu::new();
    let inp = gpu.alloc_scalars(descend::sim::ir::ElemTy::I32, &data);
    let hist = gpu.alloc_scalars(descend::sim::ir::ElemTy::I32, &vec![0.0; bins]);
    let err = gpu
        .launch(
            &racy,
            [nb, 1, 1],
            [bs as u64, 1, 1],
            &[inp, hist],
            &race_checked(),
        )
        .unwrap_err();
    assert!(matches!(err, SimError::DataRace(_)));

    // The atomic version of the same kernel is dynamically clean and
    // correct.
    let atomic = baselines::histogram(n, bs, bins);
    let mut gpu = Gpu::new();
    let inp = gpu.alloc_scalars(descend::sim::ir::ElemTy::I32, &data);
    let hist = gpu.alloc_scalars(descend::sim::ir::ElemTy::I32, &vec![0.0; bins]);
    gpu.launch(
        &atomic,
        [nb, 1, 1],
        [bs as u64, 1, 1],
        &[inp, hist],
        &race_checked(),
    )
    .expect("atomic histogram is race-free");
    let got = gpu.read_scalars(hist);
    let want = descend::benchmarks::reference::histogram(&data, bins);
    assert_eq!(got, want, "atomic histogram counts are exact");

    // Statically: the fail-corpus source is rejected with the narrowing
    // diagnostic; swapping the plain update for `atomic_add` makes the
    // same program compile.
    let src = std::fs::read_to_string("examples/descend/fail/nonatomic_histogram.descend").unwrap();
    let err = Compiler::new().compile_source(&src).unwrap_err();
    assert_eq!(
        err.type_error.unwrap().kind,
        descend::typeck::ErrorKind::NarrowingViolation
    );
    let fixed = src.replace(
        "(*hist)[0] = (*hist)[0] + (*inp).group::<256>[[block]][[thread]];",
        "atomic_add((*hist)[0], (*inp).group::<256>[[block]][[thread]]);",
    );
    Compiler::new()
        .compile_source(&fixed)
        .expect("the atomic version of the same kernel is accepted");
}

/// The window-overlap boundary, from both sides: the in-place 3-wide
/// stencil (`fail/overlapping_window_write.descend`) writes the middle
/// of each thread's overlapping window — rejected statically as a
/// conflicting access AND flagged by the dynamic race oracle in its IR
/// transcription (thread t writes element t+1 while thread t+1 reads
/// it) — while the staged windows stencil is accepted and runs clean
/// (driven by tests/corpus.rs and the Stencil benchmark).
#[test]
fn overlapping_window_write_is_caught_both_ways() {
    use descend::sim::ir::{ElemTy, Expr, KernelIr, ParamDecl, Stmt};
    // Dynamically: buf[g+1] = buf[g] + buf[g+2], g the global thread id
    // — the faithful transcription of the fail-corpus kernel's
    // windows::<3,1> arithmetic (window g, offsets 0/1/2 → g, g+1, g+2).
    let load = |off: i64| Expr::LoadGlobal {
        buf: 0,
        idx: Box::new(Expr::add(Expr::global_x(), Expr::LitI(off))),
    };
    let kernel = KernelIr {
        name: "smear".into(),
        params: vec![ParamDecl {
            elem: ElemTy::F64,
            len: 1026,
            writable: true,
        }],
        shared: vec![],
        body: vec![Stmt::StoreGlobal {
            buf: 0,
            idx: Expr::add(Expr::global_x(), Expr::LitI(1)),
            value: Expr::add(load(0), load(2)),
        }],
    };
    let mut gpu = Gpu::new();
    let buf = gpu.alloc_f64(&vec![1.0; 1026]);
    let err = gpu
        .launch(&kernel, [4, 1, 1], [256, 1, 1], &[buf], &race_checked())
        .unwrap_err();
    assert!(matches!(err, SimError::DataRace(_)));

    // Statically: the same program in Descend is a conflicting access...
    let src =
        std::fs::read_to_string("examples/descend/fail/overlapping_window_write.descend").unwrap();
    let err = Compiler::new().compile_source(&src).unwrap_err();
    assert_eq!(
        err.type_error.unwrap().kind,
        descend::typeck::ErrorKind::ConflictingAccess
    );
    // ...and the staged formulation of the very same stencil (read
    // through overlapping windows, write through the disjoint group
    // view) is accepted.
    let staged = std::fs::read_to_string("examples/descend/stencil1d_windows.descend").unwrap();
    Compiler::new()
        .compile_source(&staged)
        .expect("the staged windows stencil is accepted");
}

/// Injected-fault check: perturbing a safe baseline into a racy variant
/// must trip the detector (guards against a detector that passes
/// everything).
#[test]
fn detector_catches_injected_shared_race() {
    use descend::sim::ir::{Axis, BinOp, ElemTy, Expr, KernelIr, ParamDecl, SharedDecl, Stmt};
    let kernel = KernelIr {
        name: "injected".into(),
        params: vec![ParamDecl {
            elem: ElemTy::F64,
            len: 32,
            writable: true,
        }],
        shared: vec![SharedDecl {
            elem: ElemTy::F64,
            len: 32,
        }],
        body: vec![
            // Everyone writes slot tid/2: neighbors collide.
            Stmt::StoreShared {
                buf: 0,
                idx: Expr::bin(BinOp::Div, Expr::thread_idx(Axis::X), Expr::LitI(2)),
                value: Expr::LitF(1.0),
            },
            Stmt::Barrier,
            Stmt::StoreGlobal {
                buf: 0,
                idx: Expr::thread_idx(Axis::X),
                value: Expr::LoadShared {
                    buf: 0,
                    idx: Box::new(Expr::thread_idx(Axis::X)),
                },
            },
        ],
    };
    let mut gpu = Gpu::new();
    let buf = gpu.alloc_f64(&vec![0.0; 32]);
    let err = gpu
        .launch(&kernel, [1, 1, 1], [32, 1, 1], &[buf], &race_checked())
        .unwrap_err();
    assert!(matches!(err, SimError::DataRace(_)));
}

/// Cross-block global write collisions are racy even with barriers.
#[test]
fn detector_catches_cross_block_race() {
    use descend::sim::ir::Axis;
    use descend::sim::ir::{ElemTy, Expr, KernelIr, ParamDecl, Stmt};
    let kernel = KernelIr {
        name: "cross_block".into(),
        params: vec![ParamDecl {
            elem: ElemTy::F64,
            len: 32,
            writable: true,
        }],
        shared: vec![],
        body: vec![Stmt::StoreGlobal {
            buf: 0,
            // Every block writes the same 32 slots.
            idx: Expr::thread_idx(Axis::X),
            value: Expr::LitF(2.0),
        }],
    };
    let mut gpu = Gpu::new();
    let buf = gpu.alloc_f64(&vec![0.0; 32]);
    let err = gpu
        .launch(&kernel, [2, 1, 1], [32, 1, 1], &[buf], &race_checked())
        .unwrap_err();
    match err {
        SimError::DataRace(r) => assert!(r.cross_block),
        other => panic!("expected cross-block race, got {other}"),
    }
}

/// Race reports on compiled kernels carry *source* attribution: the
/// reported span points at the Descend statement whose access completed
/// the conflicting pair, golden-pinned here on the Listing 1 bug
/// (removing the barriers from the compiled transpose, the IR analog of
/// deleting `__syncthreads()`). Hand-built IR (the injected-fault tests
/// above) has no spans, so its reports keep the location-free text.
#[test]
fn race_report_attributes_source_span() {
    use descend::sim::ir::Stmt;
    fn strip_barriers(stmts: &mut Vec<Stmt>) {
        stmts.retain(|s| !matches!(s, Stmt::Barrier));
        for s in stmts {
            match s {
                Stmt::If { then_s, else_s, .. } => {
                    strip_barriers(then_s);
                    strip_barriers(else_s);
                }
                Stmt::Loop { body, .. } => strip_barriers(body),
                _ => {}
            }
        }
    }
    let src = sources::transpose(64);
    let compiled = Compiler::new().compile_source(&src).expect("accepted");
    let ck = &compiled.kernels[0];
    let mut ir = ck.ir.clone();
    strip_barriers(&mut ir.body);
    let mut gpu = Gpu::new();
    let inp = gpu.alloc_f64(&vec![1.0; 64 * 64]);
    let out = gpu.alloc_f64(&vec![0.0; 64 * 64]);
    let err = gpu
        .launch(
            &ir,
            ck.mono.grid_dim,
            ck.mono.block_dim,
            &[inp, out],
            &race_checked(),
        )
        .unwrap_err();
    let SimError::DataRace(r) = err else {
        panic!("expected a data race without barriers");
    };
    // Golden: the unsynchronized read-back of the staging tile.
    assert!(!r.span.is_dummy(), "compiled kernels must attribute races");
    let snippet = &src[r.span.start as usize..r.span.end as usize];
    assert!(
        snippet.starts_with("(*output).tiles::<32,32>[[block]]")
            && snippet.contains("tmp.transpose"),
        "race attributed to the wrong statement: {snippet:?}"
    );
    let rendered = r.to_string();
    assert!(
        rendered.ends_with(&format!("at {}..{}", r.span.start, r.span.end)),
        "rendered report must name the span: {rendered}"
    );
}
