//! Regression tests for the overflow/cast bug sweep: indices beyond
//! `u32` range must not truncate, checked `i64` arithmetic must report
//! overflow instead of panicking, and absurd launch geometry must be a
//! [`SimError::BadLaunch`] rather than a silent wrap. Every behavioral
//! test runs under both execution modes.

use gpu_sim::ir::*;
use gpu_sim::{ExecMode, Gpu, LaunchConfig, SimError};

const MODES: [ExecMode; 2] = [ExecMode::Warp, ExecMode::Reference];

fn cfg(exec: ExecMode) -> LaunchConfig {
    LaunchConfig {
        exec,
        ..LaunchConfig::default()
    }
}

/// One-param kernel storing `value` at `idx` of an 8-element buffer.
fn store_kernel(idx: Expr, value: Expr) -> KernelIr {
    KernelIr {
        name: "store".into(),
        params: vec![ParamDecl {
            elem: ElemTy::F64,
            len: 8,
            writable: true,
        }],
        shared: vec![],
        body: vec![Stmt::StoreGlobal { buf: 0, idx, value }],
    }
}

fn run_store(idx: Expr, value: Expr, exec: ExecMode) -> Result<(), SimError> {
    let kernel = store_kernel(idx, value);
    let mut gpu = Gpu::new();
    let b = gpu.alloc_f64(&[0.0; 8]);
    gpu.launch(&kernel, [1, 1, 1], [1, 1, 1], &[b], &cfg(exec))
        .map(|_| ())
}

/// An index beyond `u32::MAX` must surface verbatim in the error, not
/// truncated by an `as u32`/`as usize` cast somewhere along the way
/// (5_000_000_000 mod 2^32 = 705_032_704, which would also be out of
/// bounds here, so we check the message text, not just the variant).
#[test]
fn huge_index_reports_untruncated_value() {
    for exec in MODES {
        let err = run_store(Expr::LitI(5_000_000_000), Expr::LitF(1.0), exec).unwrap_err();
        match err {
            SimError::OutOfBounds { detail, .. } => {
                assert!(
                    detail.contains("5000000000"),
                    "{exec:?}: expected untruncated index in {detail:?}"
                );
            }
            other => panic!("{exec:?}: expected OutOfBounds, got {other:?}"),
        }
    }
}

/// `i64` multiplication overflow is a reported evaluation error in both
/// modes, never a debug-build panic or a release-build wrap.
#[test]
fn i64_mul_overflow_is_reported() {
    for exec in MODES {
        let err = run_store(
            Expr::LitI(0),
            Expr::mul(Expr::LitI(i64::MAX), Expr::LitI(2)),
            exec,
        )
        .unwrap_err();
        match err {
            SimError::Eval(m) => assert!(
                m.contains("integer overflow"),
                "{exec:?}: expected overflow message, got {m:?}"
            ),
            other => panic!("{exec:?}: expected Eval, got {other:?}"),
        }
    }
}

/// `i64::MIN % -1` overflows (the quotient does); `%` must use checked
/// arithmetic like the other operators.
#[test]
fn i64_min_mod_minus_one_is_reported() {
    for exec in MODES {
        let err = run_store(
            Expr::LitI(0),
            Expr::bin(BinOp::Mod, Expr::LitI(i64::MIN), Expr::LitI(-1)),
            exec,
        )
        .unwrap_err();
        assert!(
            matches!(err, SimError::Eval(ref m) if m.contains("integer overflow")),
            "{exec:?}: got {err:?}"
        );
    }
}

/// `-i64::MIN` overflows like every other integer operation: a reported
/// evaluation error in both modes, not a debug panic or a release wrap.
#[test]
fn i64_min_negation_is_reported() {
    for exec in MODES {
        let err = run_store(
            Expr::LitI(0),
            Expr::Un(UnOp::Neg, Box::new(Expr::LitI(i64::MIN))),
            exec,
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("evaluation error: integer overflow in -{}", i64::MIN),
            "{exec:?}"
        );
    }
}

/// A buffer index the kernel does not declare is a `BadLaunch` before
/// any thread runs, in both modes — whether a load, a store or an atomic
/// names it, in global or shared memory.
#[test]
fn undeclared_buffer_is_bad_launch() {
    let cases = [
        (
            "global buffer 1",
            Stmt::StoreGlobal {
                buf: 1,
                idx: Expr::LitI(0),
                value: Expr::LitF(1.0),
            },
        ),
        (
            "global buffer 3",
            Stmt::SetLocal(
                0,
                Expr::LoadGlobal {
                    buf: 3,
                    idx: Box::new(Expr::LitI(0)),
                },
            ),
        ),
        (
            "shared buffer 0",
            Stmt::AtomicShared {
                op: AtomicOp::Add,
                buf: 0,
                idx: Expr::LitI(0),
                value: Expr::LitI(1),
            },
        ),
    ];
    for (what, stmt) in cases {
        let mut kernel = store_kernel(Expr::LitI(0), Expr::LitF(1.0));
        kernel.body.push(stmt);
        for exec in MODES {
            let mut gpu = Gpu::new();
            let b = gpu.alloc_f64(&[5.0; 8]);
            let err = gpu
                .launch(&kernel, [1, 1, 1], [1, 1, 1], &[b], &cfg(exec))
                .unwrap_err();
            assert!(
                matches!(err, SimError::BadLaunch(ref m) if m.contains(what)),
                "{exec:?}: got {err:?}"
            );
            assert_eq!(gpu.read_f64(b), vec![5.0; 8], "{exec:?}: nothing ran");
        }
    }
}

/// A negative index is an evaluation error with the value preserved.
#[test]
fn negative_index_is_reported() {
    for exec in MODES {
        let err = run_store(Expr::LitI(-3), Expr::LitF(1.0), exec).unwrap_err();
        assert!(
            matches!(err, SimError::Eval(ref m) if m.contains("negative index -3")),
            "{exec:?}: got {err:?}"
        );
    }
}

/// Block dimensions whose product overflows `u64` are a `BadLaunch`.
#[test]
fn block_dims_overflow_is_bad_launch() {
    let kernel = store_kernel(Expr::LitI(0), Expr::LitF(1.0));
    let mut gpu = Gpu::new();
    let b = gpu.alloc_f64(&[0.0; 8]);
    let err = gpu
        .launch(
            &kernel,
            [1, 1, 1],
            [u64::MAX, 2, 1],
            &[b],
            &LaunchConfig::default(),
        )
        .unwrap_err();
    assert!(
        matches!(err, SimError::BadLaunch(ref m) if m.contains("block dimensions overflow")),
        "got {err:?}"
    );
}

/// Grid dimensions whose product overflows `u64` are a `BadLaunch`.
#[test]
fn grid_dims_overflow_is_bad_launch() {
    let kernel = store_kernel(Expr::LitI(0), Expr::LitF(1.0));
    let mut gpu = Gpu::new();
    let b = gpu.alloc_f64(&[0.0; 8]);
    let err = gpu
        .launch(
            &kernel,
            [u64::MAX, 2, 1],
            [1, 1, 1],
            &[b],
            &LaunchConfig::default(),
        )
        .unwrap_err();
    assert!(
        matches!(err, SimError::BadLaunch(ref m) if m.contains("grid dimensions overflow")),
        "got {err:?}"
    );
}

/// A block bigger than the simulator cap (but whose product does not
/// overflow) is rejected before any per-thread state is allocated.
#[test]
fn oversized_block_is_bad_launch() {
    let kernel = store_kernel(Expr::LitI(0), Expr::LitF(1.0));
    let mut gpu = Gpu::new();
    let b = gpu.alloc_f64(&[0.0; 8]);
    let err = gpu
        .launch(
            &kernel,
            [1, 1, 1],
            [1 << 25, 1, 1],
            &[b],
            &LaunchConfig::default(),
        )
        .unwrap_err();
    assert!(
        matches!(err, SimError::BadLaunch(ref m) if m.contains("exceed the simulator limit")),
        "got {err:?}"
    );
}

/// More blocks than `u32::MAX` (block ids are `u32` in race reports and
/// the warp executor) is rejected.
#[test]
fn too_many_blocks_is_bad_launch() {
    let kernel = store_kernel(Expr::LitI(0), Expr::LitF(1.0));
    let mut gpu = Gpu::new();
    let b = gpu.alloc_f64(&[0.0; 8]);
    let err = gpu
        .launch(
            &kernel,
            [1 << 32, 2, 1],
            [1, 1, 1],
            &[b],
            &LaunchConfig::default(),
        )
        .unwrap_err();
    assert!(
        matches!(err, SimError::BadLaunch(ref m) if m.contains("exceed the simulator limit")),
        "got {err:?}"
    );
}

/// An oversized shared-memory declaration is rejected up front.
#[test]
fn oversized_shared_alloc_is_bad_launch() {
    let kernel = KernelIr {
        name: "big_shared".into(),
        params: vec![ParamDecl {
            elem: ElemTy::F64,
            len: 8,
            writable: true,
        }],
        shared: vec![SharedDecl {
            elem: ElemTy::F64,
            len: 1 << 25,
        }],
        body: vec![],
    };
    let mut gpu = Gpu::new();
    let b = gpu.alloc_f64(&[0.0; 8]);
    let err = gpu
        .launch(
            &kernel,
            [1, 1, 1],
            [1, 1, 1],
            &[b],
            &LaunchConfig::default(),
        )
        .unwrap_err();
    assert!(
        matches!(err, SimError::BadLaunch(ref m) if m.contains("shared allocation")),
        "got {err:?}"
    );
}
