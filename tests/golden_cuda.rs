//! Golden tests for the CUDA C++ backend: the generated kernels for the
//! paper's benchmarks are snapshotted here and compared verbatim, so any
//! unintended change to the lowering is caught.

use descend::compiler::Compiler;

fn kernel_cuda(src: &str, idx: usize) -> String {
    let compiled = Compiler::new().compile_source(src).expect("compiles");
    compiled.kernels[idx].cuda().to_string()
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
__global__ void scale_vec(double* v) {
    v[((blockIdx.x * 32) + threadIdx.x)] = (v[((blockIdx.x * 32) + threadIdx.x)] * 3.0);
}
";
    assert_eq!(kernel_cuda(src, 0), expected);
}

/// The warp butterfly: `to_warps` selects become derived warp/lane
/// coordinates and shuffles become `__shfl_xor_sync` with the full-warp
/// member mask — register exchange, no `__shared__`, no barrier.
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
__global__ void warp_sum(const double* inp, double* out) {
    double v = inp[(((threadIdx.x / 32) * 32) + (threadIdx.x % 32))];
    v = (v + __shfl_xor_sync(0xffffffff, v, 16));
    v = (v + __shfl_xor_sync(0xffffffff, v, 8));
    v = (v + __shfl_xor_sync(0xffffffff, v, 4));
    v = (v + __shfl_xor_sync(0xffffffff, v, 2));
    v = (v + __shfl_xor_sync(0xffffffff, v, 1));
    out[(((threadIdx.x / 32) * 32) + (threadIdx.x % 32))] = v;
}
";
    assert_eq!(kernel_cuda(src, 0), expected);
}

/// The shuffle reduction corpus program: tree rounds keep their thread
/// conditions, the warp phase guards on the derived warp coordinate and
/// shuffles with `__shfl_down`-free butterfly (no shared traffic inside).
#[test]
fn golden_reduce_warp_shuffle_structure() {
    let src = std::fs::read_to_string(
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("examples/descend/reduce_warp_shuffle.descend"),
    )
    .unwrap();
    let cuda = kernel_cuda(&src, 0);
    assert!(cuda.starts_with("__global__ void reduce_shfl(const double* inp, double* out) {"));
    // Tree rounds at 256..32 only (the small rounds are gone).
    for k in [256, 128, 64, 32] {
        assert!(cuda.contains(&format!("if (threadIdx.x < {k}) {{")));
    }
    for k in [16, 8, 4, 2] {
        assert!(
            !cuda.contains(&format!("if (threadIdx.x < {k}) {{")),
            "small tree round {k} should be replaced by shuffles:\n{cuda}"
        );
    }
    // `< 1` appears once: the final-write epilogue, not a tree round.
    assert_eq!(cuda.matches("if (threadIdx.x < 1) {").count(), 1);
    // The warp phase: derived warp coordinate, lane-indexed staging,
    // five butterfly rounds.
    assert!(cuda.contains("if ((threadIdx.x / 32) < 1) {"));
    assert!(cuda.contains("double v = tmp[(threadIdx.x % 32)];"));
    for d in [16, 8, 4, 2, 1] {
        assert!(cuda.contains(&format!("__shfl_xor_sync(0xffffffff, v, {d})")));
    }
    assert!(cuda.contains("tmp[(threadIdx.x % 32)] = v;"));
    assert!(cuda.contains("out[blockIdx.x] = tmp[threadIdx.x];"));
}

#[test]
fn golden_transpose_structure() {
    let src = descend::benchmarks::sources::transpose(256);
    let cuda = kernel_cuda(&src, 0);
    // Signature, staging buffer, and barrier.
    assert!(cuda.starts_with("__global__ void transpose(const double* input, double* output) {"));
    assert!(cuda.contains("__shared__ double tmp[1024];"));
    assert!(cuda.contains("__syncthreads();"));
    // One staged copy per unrolled iteration (i = 0..4). Indices are in
    // linear normal form (atoms ordered blockIdx.x, blockIdx.y,
    // threadIdx.x, threadIdx.y; constant last). The input read takes the
    // *transposed* tile: blockIdx.x scales by the row stride (256*32).
    assert!(
        cuda.contains("input[((((blockIdx.x * 8192) + (blockIdx.y * 32)) + threadIdx.x) + (threadIdx.y * 256))]"),
        "expected transposed tile read, got:\n{cuda}"
    );
    // The output write targets the straight tile: blockIdx.y scales by
    // the row stride.
    assert!(
        cuda.contains("output[((((blockIdx.x * 32) + (blockIdx.y * 8192)) + threadIdx.x) + (threadIdx.y * 256))]"),
        "expected straight tile write, got:\n{cuda}"
    );
    // Shared-memory accesses: row-major write, transposed read.
    assert!(cuda.contains("tmp[(threadIdx.x + (threadIdx.y * 32))]"));
    assert!(cuda.contains("tmp[((threadIdx.x * 32) + threadIdx.y)]"));
}

#[test]
fn golden_reduce_structure() {
    let src = descend::benchmarks::sources::reduce(2048);
    let cuda = kernel_cuda(&src, 0);
    assert!(cuda.starts_with("__global__ void reduce(const double* inp, double* out) {"));
    // The load is fully coalesced.
    assert!(cuda.contains("tmp[threadIdx.x] = inp[((blockIdx.x * 512) + threadIdx.x)];"));
    // The halving splits become coordinate conditions 256, 128, ..., 1.
    for k in [256, 128, 64, 32, 16, 8, 4, 2, 1] {
        assert!(
            cuda.contains(&format!("if (threadIdx.x < {k}) {{")),
            "missing split at {k}:\n{cuda}"
        );
    }
    // The branch-local select plus the snd-part offset folds to a clean
    // shifted index: tmp[threadIdx.x + k].
    assert!(cuda.contains("tmp[(threadIdx.x + 256)]"));
    assert!(cuda.contains("tmp[(threadIdx.x + 1)]"));
    // Final write of the block result.
    assert!(cuda.contains("out[blockIdx.x] = tmp[threadIdx.x];"));
}

#[test]
fn golden_matmul_structure() {
    let src = descend::benchmarks::sources::matmul(64);
    let cuda = kernel_cuda(&src, 0);
    assert!(
        cuda.starts_with("__global__ void matmul(const double* a, const double* b, double* c) {")
    );
    assert!(cuda.contains("__shared__ double a_tile[1024];"));
    assert!(cuda.contains("__shared__ double b_tile[1024];"));
    assert!(cuda.contains("double acc = 0.0;"));
    // Tile loads for t = 0 and t = 1 (64/32 = 2 iterations): the second
    // iteration's A column offset (32) folds into the constant.
    assert!(cuda.contains(
        "a_tile[(threadIdx.x + (threadIdx.y * 32))] = a[(((blockIdx.y * 2048) + threadIdx.x) + (threadIdx.y * 64))];"
    ));
    assert!(cuda.contains("a[((((blockIdx.y * 2048) + threadIdx.x) + (threadIdx.y * 64)) + 32)]"));
    // The accumulator update reads both tiles; B walks by rows of 32.
    assert!(cuda.contains("acc = (acc + (a_tile[(threadIdx.y * 32)] * b_tile[threadIdx.x]));"));
    assert!(cuda.contains(
        "acc = (acc + (a_tile[((threadIdx.y * 32) + 31)] * b_tile[(threadIdx.x + 992)]));"
    ));
    // The result store targets the block's tile of c.
    assert!(cuda.contains(
        "c[((((blockIdx.x * 32) + (blockIdx.y * 2048)) + threadIdx.x) + (threadIdx.y * 64))] = acc;"
    ));
}

/// A grid split renders as `if`/`else` on the block coordinate, and a
/// `sync` inside the first branch stays in place: only the C backend
/// breaks the body at a barrier.
#[test]
fn golden_split_else_branch() {
    let src = r#"
fn zsplit(v: &uniq gpu.global [f64; 256]) -[grid: gpu.grid<Z<2>, X<128>>]-> () {
    split(Z) grid at 1 {
        lo => {
            sched(Z) block in lo {
                let tmp = alloc::<gpu.shared, [f64; 128]>();
                sched(X) thread in block {
                    tmp[[thread]] = 1.0;
                }
                sync;
                sched(X) thread in block {
                    (*v).group::<128>.split::<1>.fst[[block]][[thread]] = tmp[[thread]];
                }
            }
        },
        hi => {
            sched(Z) block in hi {
                sched(X) thread in block {
                    (*v).group::<128>.split::<1>.snd[[block]][[thread]] = 2.0;
                }
            }
        }
    }
}
"#;
    let expected = "\
__global__ void zsplit(double* v) {
    __shared__ double tmp[128];
    if (blockIdx.z < 1) {
        tmp[threadIdx.x] = 1.0;
        __syncthreads();
        v[((blockIdx.z * 128) + threadIdx.x)] = tmp[threadIdx.x];
    } else {
        v[((blockIdx.z * 128) + threadIdx.x)] = 2.0;
    }
}
";
    assert_eq!(kernel_cuda(src, 0), expected);
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
    let expected_host = "\
void main() {
    double* h = (double*)calloc(64, sizeof(double));
    double* d; cudaMalloc(&d, 64 * sizeof(double)); cudaMemcpy(d, h, 64 * sizeof(double), cudaMemcpyHostToDevice);
    k<<<dim3(2, 1, 1), dim3(32, 1, 1)>>>(d);
    cudaMemcpy(h, d, 64 * sizeof(double), cudaMemcpyDeviceToHost);
}
";
    assert!(
        compiled.cuda_source().contains(expected_host),
        "host code mismatch:\n{}",
        compiled.cuda_source()
    );
}

#[test]
fn golden_atomic_histogram() {
    let src = std::fs::read_to_string("examples/descend/histogram.descend").expect("corpus file");
    let expected = "\
__global__ void histogram(const int* inp, int* hist) {
    int descend_idx_0 = (int)((inp[((blockIdx.x * 256) + threadIdx.x)] % 32));
    if (0 <= descend_idx_0 && descend_idx_0 < 32) { atomicAdd(&hist[descend_idx_0], 1); }
}
";
    assert_eq!(kernel_cuda(&src, 0), expected);
}

#[test]
fn golden_atomic_spellings() {
    let src =
        std::fs::read_to_string("examples/descend/argmin_shared.descend").expect("corpus file");
    let cuda = kernel_cuda(&src, 0);
    assert!(cuda.contains("__shared__ int best[1];"));
    assert!(cuda.contains("atomicMin(&best[0], ((inp[threadIdx.x] * 256) + ids[threadIdx.x]));"));
    // The f32 atomic finish of the reduction is native atomicAdd in CUDA.
    let src =
        std::fs::read_to_string("examples/descend/reduce_atomic.descend").expect("corpus file");
    let cuda = kernel_cuda(&src, 0);
    assert!(cuda.contains("atomicAdd(&out[0], tmp[threadIdx.x]);"));
}
