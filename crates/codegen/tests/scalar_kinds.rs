//! Element-type coverage: f32 kernels flow through elaboration, IR
//! lowering, CUDA emission and simulation just like f64.

use descend_backends::{CudaBackend, KernelBackend};
use descend_codegen::{kernel_to_ir, IndexTable};
use descend_typeck::check_program;
use gpu_sim::ir::ElemTy;
use gpu_sim::{Gpu, LaunchConfig};

#[test]
fn f32_kernel_end_to_end() {
    let src = r#"
fn saxpyish(x: & gpu.global [f32; 128], y: &uniq gpu.global [f32; 128])
-[grid: gpu.grid<X<4>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*y).group::<32>[[block]][[thread]] =
                (*y).group::<32>[[block]][[thread]]
                + (*x).group::<32>[[block]][[thread]] * 2.0f32;
        }
    }
}
"#;
    let prog = descend_parser::parse(src).unwrap();
    let checked = check_program(&prog).expect("f32 kernels type-check");
    let mk = &checked.kernels[0];
    let ir = kernel_to_ir(mk, &mut IndexTable::new(mk)).unwrap();
    assert!(ir.params.iter().all(|p| p.elem == ElemTy::F32));
    let cuda = CudaBackend
        .emit_kernel(mk, &mut IndexTable::new(mk))
        .unwrap();
    assert!(cuda.contains("__global__ void saxpyish(const float* x, float* y)"));
    assert!(cuda.contains("2.0f"));
    // Execute.
    let mut gpu = Gpu::new();
    let x: Vec<f64> = (0..128).map(|i| i as f64).collect();
    let y: Vec<f64> = vec![1.0; 128];
    let bx = gpu.alloc_zeroed(ElemTy::F32, 128);
    let by = gpu.alloc_zeroed(ElemTy::F32, 128);
    gpu.write_f64(bx, &x);
    gpu.write_f64(by, &y);
    let cfg = LaunchConfig {
        detect_races: true,
        ..LaunchConfig::default()
    };
    gpu.launch(&ir, [4, 1, 1], [32, 1, 1], &[bx, by], &cfg)
        .expect("clean run");
    let out = gpu.read_f64(by);
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, 1.0 + (i as f64) * 2.0);
    }
}

#[test]
fn mixed_scalar_types_rejected() {
    // f32 array stored from an f64 expression must not type-check.
    let src = r#"
fn k(y: &uniq gpu.global [f32; 32]) -[grid: gpu.grid<X<1>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*y)[[thread]] = 1.0;
        }
    }
}
"#;
    let prog = descend_parser::parse(src).unwrap();
    let err = check_program(&prog).unwrap_err();
    assert_eq!(err.kind, descend_typeck::ErrorKind::MismatchedTypes);
}

#[test]
fn f32_coalescing_uses_element_size() {
    // 32 consecutive f32 = 128 bytes = exactly one segment (vs 2 for f64).
    let src = r#"
fn fill(y: &uniq gpu.global [f32; 32]) -[grid: gpu.grid<X<1>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*y)[[thread]] = 0.0f32;
        }
    }
}
"#;
    let prog = descend_parser::parse(src).unwrap();
    let checked = check_program(&prog).unwrap();
    let ir = kernel_to_ir(
        &checked.kernels[0],
        &mut IndexTable::new(&checked.kernels[0]),
    )
    .unwrap();
    let mut gpu = Gpu::new();
    let b = gpu.alloc_zeroed(ElemTy::F32, 32);
    let stats = gpu
        .launch(&ir, [1, 1, 1], [32, 1, 1], &[b], &LaunchConfig::default())
        .unwrap();
    assert_eq!(stats.global_transactions, 1);
}
