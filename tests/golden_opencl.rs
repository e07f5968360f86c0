//! Golden tests for the OpenCL C backend, mirroring `golden_cuda.rs`:
//! the generated kernels for the paper's benchmarks are snapshotted here
//! and compared verbatim, so any unintended change to the lowering or
//! the emitter is caught.

use descend::compiler::Compiler;

fn kernel_opencl(src: &str, idx: usize) -> String {
    let compiled = Compiler::new().compile_source(src).expect("compiles");
    compiled.kernels[idx].targets["opencl"].clone()
}

#[test]
fn golden_scale_vec() {
    let src = r#"
fn scale_vec(v: &uniq gpu.global [f64; 1024]) -[grid: gpu.grid<X<32>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v).group::<32>[[block]][[thread]] =
                (*v).group::<32>[[block]][[thread]] * 3.0;
        }
    }
}
"#;
    let expected = "\
__kernel void scale_vec(__global double* v) {
    v[((get_group_id(0) * 32) + get_local_id(0))] = (v[((get_group_id(0) * 32) + get_local_id(0))] * 3.0);
}
";
    assert_eq!(kernel_opencl(src, 0), expected);
}

/// The warp butterfly: shuffles spell `sub_group_shuffle_xor` with a
/// uint distance, the kernel pins its sub-group size, and the program
/// prelude enables the subgroup-shuffle extensions.
#[test]
fn golden_warp_butterfly() {
    let src = r#"
fn warp_sum(inp: & gpu.global [f64; 64], out: &uniq gpu.global [f64; 64])
-[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        to_warps wb in block {
            sched(X) warp in wb {
                sched(X) lane in warp {
                    let mut v = (*inp).group::<32>[[warp]][[lane]];
                    for d in halving(16) {
                        v = v + shfl_xor(v, d);
                    }
                    (*out).group::<32>[[warp]][[lane]] = v;
                }
            }
        }
    }
}
"#;
    let expected = "\
__attribute__((intel_reqd_sub_group_size(32)))
__kernel void warp_sum(__global const double* inp, __global double* out) {
    double v = inp[(((get_local_id(0) / 32) * 32) + (get_local_id(0) % 32))];
    v = (v + sub_group_shuffle_xor(v, 16u));
    v = (v + sub_group_shuffle_xor(v, 8u));
    v = (v + sub_group_shuffle_xor(v, 4u));
    v = (v + sub_group_shuffle_xor(v, 2u));
    v = (v + sub_group_shuffle_xor(v, 1u));
    out[(((get_local_id(0) / 32) * 32) + (get_local_id(0) % 32))] = v;
}
";
    assert_eq!(kernel_opencl(src, 0), expected);
    // The translation unit gates the shuffles behind the extensions.
    let compiled = Compiler::new().compile_source(src).expect("compiles");
    let tu = compiled.target_source("opencl").unwrap();
    assert!(tu.contains("#pragma OPENCL EXTENSION cl_khr_subgroups : enable"));
    assert!(tu.contains("#pragma OPENCL EXTENSION cl_khr_subgroup_shuffle : enable"));
    // Only the general-shuffle extension is needed: no
    // `sub_group_shuffle_down/up` is emitted, so the `_relative`
    // pragma would be dead.
    assert!(!tu.contains("cl_khr_subgroup_shuffle_relative"));
}

/// `shfl_down` clamps its *source index*, not the call: sub-group
/// shuffles are collective, so every lane must execute the intrinsic
/// (a ternary around the call would leave all lanes undefined). The
/// general `sub_group_shuffle` runs unconditionally, with the source
/// lane id clamped to the lane's own id at the warp boundary —
/// matching the simulator's (and CUDA's) keep-own-value semantics.
#[test]
fn golden_shfl_down_is_clamp_guarded() {
    let src = r#"
fn shift(inp: & gpu.global [f64; 32], out: &uniq gpu.global [f64; 32])
-[grid: gpu.grid<X<1>, X<32>>]-> () {
    sched(X) block in grid {
        to_warps wb in block {
            sched(X) warp in wb {
                sched(X) lane in warp {
                    let v = (*inp)[[lane]];
                    (*out)[[lane]] = shfl_down(v, 1);
                }
            }
        }
    }
}
"#;
    let cl = kernel_opencl(src, 0);
    assert!(
        cl.contains(
            "sub_group_shuffle(v, (get_sub_group_local_id() + 1u < 32u ? \
             get_sub_group_local_id() + 1u : get_sub_group_local_id()))"
        ),
        "{cl}"
    );
}

#[test]
fn golden_transpose_structure() {
    let src = descend::benchmarks::sources::transpose(256);
    let cl = kernel_opencl(&src, 0);
    // Signature, staging buffer, and barrier.
    assert!(cl.starts_with(
        "__kernel void transpose(__global const double* input, __global double* output) {"
    ));
    assert!(cl.contains("__local double tmp[1024];"));
    assert!(cl.contains("barrier(CLK_LOCAL_MEM_FENCE);"));
    // Same rolled loops and linear-normal-form indices as the CUDA
    // rendering (without the pragma), with the OpenCL coordinate
    // spellings substituted.
    assert_eq!(
        cl.matches("    for (int i = 0; i < 4; i++) {\n").count(),
        2,
        "{cl}"
    );
    assert!(!cl.contains("#pragma unroll"));
    assert!(
        cl.contains("input[(((((get_group_id(0) * 8192) + (get_group_id(1) * 32)) + get_local_id(0)) + (get_local_id(1) * 256)) + (i * 2048))]"),
        "expected transposed tile read, got:\n{cl}"
    );
    assert!(
        cl.contains("output[(((((get_group_id(0) * 32) + (get_group_id(1) * 8192)) + get_local_id(0)) + (get_local_id(1) * 256)) + (i * 2048))]"),
        "expected straight tile write, got:\n{cl}"
    );
    // Shared-memory accesses: row-major write, transposed read.
    assert!(cl.contains("tmp[((get_local_id(0) + (get_local_id(1) * 32)) + (i * 256))]"));
    assert!(cl.contains("tmp[(((get_local_id(0) * 32) + get_local_id(1)) + (i * 8))]"));
}

#[test]
fn golden_reduce_structure() {
    let src = descend::benchmarks::sources::reduce(2048);
    let cl = kernel_opencl(&src, 0);
    assert!(
        cl.starts_with("__kernel void reduce(__global const double* inp, __global double* out) {")
    );
    // The load is fully coalesced.
    assert!(cl.contains("tmp[get_local_id(0)] = inp[((get_group_id(0) * 512) + get_local_id(0))];"));
    // The halving splits become coordinate conditions 256, 128, ..., 1.
    for k in [256, 128, 64, 32, 16, 8, 4, 2, 1] {
        assert!(
            cl.contains(&format!("if (get_local_id(0) < {k}) {{")),
            "missing split at {k}:\n{cl}"
        );
    }
    assert!(cl.contains("tmp[(get_local_id(0) + 256)]"));
    assert!(cl.contains("tmp[(get_local_id(0) + 1)]"));
    // Final write of the block result.
    assert!(cl.contains("out[get_group_id(0)] = tmp[get_local_id(0)];"));
}

#[test]
fn golden_matmul_structure() {
    let src = descend::benchmarks::sources::matmul(64);
    let cl = kernel_opencl(&src, 0);
    assert!(cl.starts_with(
        "__kernel void matmul(__global const double* a, __global const double* b, __global double* c) {"
    ));
    assert!(cl.contains("__local double a_tile[1024];"));
    assert!(cl.contains("__local double b_tile[1024];"));
    assert!(cl.contains("double acc = 0.0;"));
    assert!(cl.contains(
        "a_tile[(get_local_id(0) + (get_local_id(1) * 32))] = a[(((get_group_id(1) * 2048) + get_local_id(0)) + (get_local_id(1) * 64))];"
    ));
    // The k loop rolls, once per (unrolled) t iteration.
    let k_loop = "    for (int k = 0; k < 32; k++) {
        acc = (acc + (a_tile[((get_local_id(1) * 32) + k)] * b_tile[(get_local_id(0) + (k * 32))]));
    }
";
    assert_eq!(cl.matches(k_loop).count(), 2, "{cl}");
    assert!(cl.contains(
        "c[((((get_group_id(0) * 32) + (get_group_id(1) * 2048)) + get_local_id(0)) + (get_local_id(1) * 64))] = acc;"
    ));
}

#[test]
fn golden_host_code() {
    let src = r#"
fn k(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v).group::<32>[[block]][[thread]] = 0.0;
        }
    }
}

fn main() -[t: cpu.thread]-> () {
    let h = alloc::<cpu.mem, [f64; 64]>();
    let d = gpu_alloc_copy(&h);
    k<<<X<2>, X<32>>>>(&uniq d);
    copy_mem_to_host(&uniq h, &d);
}
"#;
    let compiled = Compiler::new().compile_source(src).expect("compiles");
    let cl = compiled.target_source("opencl").expect("opencl selected");
    // f64 anywhere in the unit pulls in the extension pragma.
    assert!(cl.starts_with("#pragma OPENCL EXTENSION cl_khr_fp64 : enable\n"));
    let expected_host = "\
void main(void) {
    double* h = (double*)calloc(64, sizeof(double));
    cl_mem d = clCreateBuffer(ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, 64 * sizeof(double), h, NULL);
    { clSetKernelArg(k_k, 0, sizeof(cl_mem), &d); size_t gws[3] = {64, 1, 1}; size_t lws[3] = {32, 1, 1}; clEnqueueNDRangeKernel(queue, k_k, 3, NULL, gws, lws, 0, NULL, NULL); }
    clEnqueueReadBuffer(queue, d, CL_TRUE, 0, 64 * sizeof(double), h, 0, NULL, NULL);
}
";
    assert!(cl.contains(expected_host), "host code mismatch:\n{cl}");
}

/// A pure-f32 unit must not claim the fp64 extension.
#[test]
fn f32_unit_omits_fp64_pragma() {
    let src = r#"
fn fill(v: &uniq gpu.global [f32; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v).group::<32>[[block]][[thread]] = 1.5f32;
        }
    }
}
"#;
    let compiled = Compiler::new().compile_source(src).expect("compiles");
    let cl = compiled.target_source("opencl").unwrap();
    assert!(!cl.contains("cl_khr_fp64"), "unexpected pragma:\n{cl}");
    assert!(cl.contains("__global float* v"));
    assert!(cl.contains("1.5f"));
}

#[test]
fn golden_atomic_histogram() {
    let src = std::fs::read_to_string("examples/descend/histogram.descend").expect("corpus file");
    let expected = "\
__kernel void histogram(__global const int* inp, __global int* hist) {
    int descend_idx_0 = (int)((inp[((get_group_id(0) * 256) + get_local_id(0))] % 32));
    if (0 <= descend_idx_0 && descend_idx_0 < 32) { atomic_add((volatile __global int*)&hist[descend_idx_0], 1); }
}
";
    assert_eq!(kernel_opencl(&src, 0), expected);
}

#[test]
fn golden_atomic_spellings() {
    // Shared-memory atomic min takes a volatile __local pointer.
    let src =
        std::fs::read_to_string("examples/descend/argmin_shared.descend").expect("corpus file");
    let cl = kernel_opencl(&src, 0);
    assert!(cl.contains(
        "atomic_min((volatile __local int*)&best[0], ((inp[get_local_id(0)] * 256) + ids[get_local_id(0)]));"
    ));
    // f32 atomic add has no native intrinsic: the kernel calls the
    // CAS-loop helper and the translation unit's prelude defines it over
    // a volatile __global pointer.
    let src =
        std::fs::read_to_string("examples/descend/reduce_atomic.descend").expect("corpus file");
    let compiled = Compiler::new().compile_source(&src).expect("compiles");
    let cl = &compiled.kernels[0].targets["opencl"];
    assert!(cl.contains("descend_atomic_add_f32_global(&out[0], tmp[get_local_id(0)]);"));
    let unit = compiled.target_source("opencl").expect("selected");
    assert!(unit.contains(
        "inline void descend_atomic_add_f32_global(volatile __global float* p, float v)"
    ));
    assert!(unit.contains("atomic_cmpxchg((volatile __global unsigned int*)p"));
}

/// Nested for-nat loops stay nested C-like `for` loops, with the loop
/// variables in the index where they select.
#[test]
fn golden_rolled_loop() {
    let src = r#"
fn tile_sum(m: & gpu.global [f64; 256], out: &uniq gpu.global [f64; 64])
-[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            let mut acc = 0.0;
            for j in [0..2] {
                for i in [0..2] {
                    acc = acc + (*m).group::<4>.group::<32>[[block]][[thread]].group::<2>[j][i];
                }
            }
            (*out).group::<32>[[block]][[thread]] = acc;
        }
    }
}
"#;
    let expected = "\
__kernel void tile_sum(__global const double* m, __global double* out) {
    double acc = 0.0;
    for (int j = 0; j < 2; j++) {
        for (int i = 0; i < 2; i++) {
            acc = (acc + m[((((get_group_id(0) * 128) + (get_local_id(0) * 4)) + i) + (j * 2))]);
        }
    }
    out[((get_group_id(0) * 32) + get_local_id(0))] = acc;
}
";
    assert_eq!(kernel_opencl(src, 0), expected);
}
