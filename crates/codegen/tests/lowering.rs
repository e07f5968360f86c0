//! End-to-end lowering tests: Descend source -> type checker -> IR and
//! CUDA text, with the kernels executed on the simulator and checked for
//! functional correctness against scalar references.

use descend_backends::{CudaBackend, KernelBackend};
use descend_codegen::{kernel_to_ir, IndexTable};
use descend_typeck::check_program;
use gpu_sim::{Gpu, LaunchConfig};

fn compile(src: &str) -> descend_typeck::CheckedProgram {
    let prog = descend_parser::parse(src).expect("parses");
    check_program(&prog).expect("type checks")
}

fn race_checked() -> LaunchConfig {
    LaunchConfig {
        detect_races: true,
        ..LaunchConfig::default()
    }
}

const SCALE_SRC: &str = r#"
fn scale_vec(v: &uniq gpu.global [f64; 1024]) -[grid: gpu.grid<X<32>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v).group::<32>[[block]][[thread]] =
                (*v).group::<32>[[block]][[thread]] * 3.0;
        }
    }
}
"#;

#[test]
fn scale_vec_runs_and_scales() {
    let checked = compile(SCALE_SRC);
    let ir = kernel_to_ir(
        &checked.kernels[0],
        &mut IndexTable::new(&checked.kernels[0]),
    )
    .expect("lowers");
    let mut gpu = Gpu::new();
    let data: Vec<f64> = (0..1024).map(|i| i as f64).collect();
    let buf = gpu.alloc_f64(&data);
    let stats = gpu
        .launch(&ir, [32, 1, 1], [32, 1, 1], &[buf], &race_checked())
        .expect("no races, no divergence");
    let out = gpu.read_f64(buf);
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, (i as f64) * 3.0, "element {i}");
    }
    assert!(stats.global_transactions > 0);
}

#[test]
fn scale_vec_cuda_text_shape() {
    let checked = compile(SCALE_SRC);
    let cuda = CudaBackend
        .emit_kernel(
            &checked.kernels[0],
            &mut IndexTable::new(&checked.kernels[0]),
        )
        .expect("emits");
    assert!(cuda.contains("__global__ void scale_vec(double* v)"));
    // group::<32>[[block]][[thread]] lowers to block*32 + thread.
    assert!(
        cuda.contains("v[((blockIdx.x * 32) + threadIdx.x)]"),
        "unexpected CUDA text:\n{cuda}"
    );
}

const TRANSPOSE_SRC: &str = r#"
view tiles<h: nat, w: nat> = group::<h>.map(map(group::<w>)).map(transpose);

fn transpose(input: & gpu.global [[f64; 128]; 128],
             output: &uniq gpu.global [[f64; 128]; 128])
-[grid: gpu.grid<XY<4,4>, XY<32,8>>]-> () {
    sched(Y,X) block in grid {
        let tmp = alloc::<gpu.shared, [[f64; 32]; 32]>();
        sched(Y,X) thread in block {
            for i in [0..4] {
                tmp.group::<8>[i][[thread]] =
                    (*input).tiles::<32,32>.transpose[[block]].group::<8>[i][[thread]];
            }
            sync;
            for i in [0..4] {
                (*output).tiles::<32,32>[[block]].group::<8>[i][[thread]] =
                    tmp.transpose.group::<8>[i][[thread]];
            }
        }
    }
}
"#;

#[test]
fn transpose_is_functionally_correct() {
    let checked = compile(TRANSPOSE_SRC);
    let ir = kernel_to_ir(
        &checked.kernels[0],
        &mut IndexTable::new(&checked.kernels[0]),
    )
    .expect("lowers");
    let n = 128usize;
    let data: Vec<f64> = (0..n * n).map(|i| i as f64).collect();
    let mut gpu = Gpu::new();
    let inp = gpu.alloc_f64(&data);
    let out = gpu.alloc_f64(&vec![0.0; n * n]);
    gpu.launch(&ir, [4, 4, 1], [32, 8, 1], &[inp, out], &race_checked())
        .expect("transpose is clean");
    let res = gpu.read_f64(out);
    for r in 0..n {
        for c in 0..n {
            assert_eq!(
                res[r * n + c],
                data[c * n + r],
                "transposed element ({r},{c})"
            );
        }
    }
}

#[test]
fn transpose_uses_shared_memory_and_barrier() {
    let checked = compile(TRANSPOSE_SRC);
    let ir = kernel_to_ir(
        &checked.kernels[0],
        &mut IndexTable::new(&checked.kernels[0]),
    )
    .unwrap();
    assert_eq!(ir.shared.len(), 1);
    assert_eq!(ir.shared[0].len, 1024);
    let cuda = CudaBackend
        .emit_kernel(
            &checked.kernels[0],
            &mut IndexTable::new(&checked.kernels[0]),
        )
        .unwrap();
    assert!(cuda.contains("__shared__ double tmp[1024];"));
    assert!(cuda.contains("__syncthreads();"));
}

#[test]
fn reduction_computes_block_sums() {
    let src = r#"
fn reduce(inp: & gpu.global [f64; 2048], out: &uniq gpu.global [f64; 4])
-[grid: gpu.grid<X<4>, X<512>>]-> () {
    sched(X) block in grid {
        let tmp = alloc::<gpu.shared, [f64; 512]>();
        sched(X) thread in block {
            tmp[[thread]] = (*inp).group::<512>[[block]][[thread]];
        }
        sync;
        for k in halving(256) {
            split(X) block at k {
                active => {
                    sched(X) t in active {
                        tmp.split::<k>.fst[[t]] = tmp.split::<k>.fst[[t]]
                            + tmp.split::<k>.snd.split::<k>.fst[[t]];
                    }
                },
                inactive => { }
            }
            sync;
        }
        split(X) block at 1 {
            first => {
                sched(X) t in first {
                    (*out)[[block]] = tmp.split::<1>.fst[[t]];
                }
            },
            rest => { }
        }
    }
}
"#;
    let checked = compile(src);
    let ir = kernel_to_ir(
        &checked.kernels[0],
        &mut IndexTable::new(&checked.kernels[0]),
    )
    .unwrap();
    let data: Vec<f64> = (0..2048).map(|i| (i % 7) as f64).collect();
    let mut gpu = Gpu::new();
    let inp = gpu.alloc_f64(&data);
    let out = gpu.alloc_f64(&[0.0; 4]);
    gpu.launch(&ir, [4, 1, 1], [512, 1, 1], &[inp, out], &race_checked())
        .expect("reduction is clean");
    let sums = gpu.read_f64(out);
    for b in 0..4 {
        let expect: f64 = data[b * 512..(b + 1) * 512].iter().sum();
        assert_eq!(sums[b], expect, "block {b}");
    }
}

#[test]
fn matmul_matches_reference() {
    let src = r#"
view tiles<h: nat, w: nat> = group::<h>.map(map(group::<w>)).map(transpose);

fn matmul(a: & gpu.global [[f64; 64]; 64], b: & gpu.global [[f64; 64]; 64],
          c: &uniq gpu.global [[f64; 64]; 64])
-[grid: gpu.grid<XY<2,2>, XY<32,32>>]-> () {
    sched(Y,X) block in grid {
        let a_tile = alloc::<gpu.shared, [[f64; 32]; 32]>();
        let b_tile = alloc::<gpu.shared, [[f64; 32]; 32]>();
        sched(Y,X) thread in block {
            let mut acc = 0.0;
            for t in [0..2] {
                a_tile[[thread]] = (*a).tiles::<32,32>[[block.Y]][t][[thread]];
                b_tile[[thread]] = (*b).tiles::<32,32>[t][[block.X]][[thread]];
                sync;
                for k in [0..32] {
                    acc = acc + a_tile[[thread.Y]][k] * b_tile[k][[thread.X]];
                }
                sync;
            }
            (*c).tiles::<32,32>[[block]][[thread]] = acc;
        }
    }
}
"#;
    let checked = compile(src);
    let ir = kernel_to_ir(
        &checked.kernels[0],
        &mut IndexTable::new(&checked.kernels[0]),
    )
    .unwrap();
    let n = 64usize;
    let a: Vec<f64> = (0..n * n).map(|i| ((i * 7) % 5) as f64).collect();
    let b: Vec<f64> = (0..n * n).map(|i| ((i * 3) % 4) as f64).collect();
    let mut gpu = Gpu::new();
    let da = gpu.alloc_f64(&a);
    let db = gpu.alloc_f64(&b);
    let dc = gpu.alloc_f64(&vec![0.0; n * n]);
    gpu.launch(&ir, [2, 2, 1], [32, 32, 1], &[da, db, dc], &race_checked())
        .expect("matmul is clean");
    let c = gpu.read_f64(dc);
    for r in 0..n {
        for col in 0..n {
            let mut expect = 0.0;
            for k in 0..n {
                expect += a[r * n + k] * b[k * n + col];
            }
            assert_eq!(c[r * n + col], expect, "element ({r},{col})");
        }
    }
}

#[test]
fn split_lowers_to_condition() {
    let src = r#"
fn k(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        let tmp = alloc::<gpu.shared, [f64; 64]>();
        split(X) block at 48 {
            low => {
                sched(X) t in low { tmp.split::<48>.fst[[t]] = 1.0; }
            },
            high => {
                sched(X) t in high { tmp.split::<48>.snd[[t]] = 2.0; }
            }
        }
        sync;
        sched(X) thread in block {
            (*v)[[thread]] = tmp[[thread]];
        }
    }
}
"#;
    let checked = compile(src);
    let cuda = CudaBackend
        .emit_kernel(
            &checked.kernels[0],
            &mut IndexTable::new(&checked.kernels[0]),
        )
        .unwrap();
    assert!(
        cuda.contains("if (threadIdx.x < 48) {"),
        "split should become a coordinate condition:\n{cuda}"
    );
    // The snd half indexes with an offset-adjusted coordinate:
    // tmp[(threadIdx.x - 48) + 48] folds to tmp[threadIdx.x]; check
    // execution instead of text for the offset logic.
    let ir = kernel_to_ir(
        &checked.kernels[0],
        &mut IndexTable::new(&checked.kernels[0]),
    )
    .unwrap();
    let mut gpu = Gpu::new();
    let buf = gpu.alloc_f64(&[0.0; 64]);
    gpu.launch(&ir, [1, 1, 1], [64, 1, 1], &[buf], &race_checked())
        .unwrap();
    let out = gpu.read_f64(buf);
    assert!(out[..48].iter().all(|v| *v == 1.0));
    assert!(out[48..].iter().all(|v| *v == 2.0));
}

#[test]
fn every_checked_kernel_is_race_free_dynamically() {
    // The static checker accepted these kernels; the dynamic detector
    // must agree (soundness spot-check).
    for src in [SCALE_SRC, TRANSPOSE_SRC] {
        let checked = compile(src);
        for mk in &checked.kernels {
            let ir = kernel_to_ir(mk, &mut IndexTable::new(mk)).unwrap();
            let mut gpu = Gpu::new();
            let args: Vec<_> = ir
                .params
                .iter()
                .map(|p| gpu.alloc_f64(&vec![1.0; p.len as usize]))
                .collect();
            gpu.launch(&ir, mk.grid_dim, mk.block_dim, &args, &race_checked())
                .unwrap_or_else(|e| panic!("kernel {} raced: {e}", mk.name));
        }
    }
}
