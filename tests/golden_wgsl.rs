//! Golden tests for the WGSL backend, mirroring `golden_cuda.rs`: the
//! generated modules for the paper's benchmarks are snapshotted here and
//! compared verbatim, so any unintended change to the lowering or the
//! emitter is caught.

use descend::compiler::Compiler;

fn kernel_wgsl(src: &str, idx: usize) -> String {
    let compiled = Compiler::new().compile_source(src).expect("compiles");
    compiled.kernels[idx].targets["wgsl"].clone()
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
// Kernel `scale_vec` — standalone WGSL module.
// note: f64 narrowed to f32 (WGSL has no f64).
@group(0) @binding(0) var<storage, read_write> v: array<f32, 1024>;
const block_dim: vec3<u32> = vec3<u32>(32, 1, 1);

@compute @workgroup_size(32, 1, 1)
fn scale_vec(@builtin(workgroup_id) block_idx: vec3<u32>, @builtin(local_invocation_id) thread_idx: vec3<u32>, @builtin(num_workgroups) grid_dim: vec3<u32>) {
    v[((block_idx.x * 32) + thread_idx.x)] = (v[((block_idx.x * 32) + thread_idx.x)] * 3.0);
}
";
    assert_eq!(kernel_wgsl(src, 0), expected);
}

/// The warp butterfly: the module enables subgroups, and shuffles spell
/// `subgroupShuffleXor` with a u32 distance.
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
// Kernel `warp_sum` — standalone WGSL module.
enable subgroups;
// note: shuffles assume a 32-lane subgroup.
// note: f64 narrowed to f32 (WGSL has no f64).
@group(0) @binding(0) var<storage, read> inp: array<f32, 64>;
@group(0) @binding(1) var<storage, read_write> out: array<f32, 64>;
const block_dim: vec3<u32> = vec3<u32>(64, 1, 1);

@compute @workgroup_size(64, 1, 1)
fn warp_sum(@builtin(workgroup_id) block_idx: vec3<u32>, @builtin(local_invocation_id) thread_idx: vec3<u32>, @builtin(num_workgroups) grid_dim: vec3<u32>) {
    var v: f32 = inp[(((thread_idx.x / 32) * 32) + (thread_idx.x % 32))];
    v = (v + subgroupShuffleXor(v, 16u));
    v = (v + subgroupShuffleXor(v, 8u));
    v = (v + subgroupShuffleXor(v, 4u));
    v = (v + subgroupShuffleXor(v, 2u));
    v = (v + subgroupShuffleXor(v, 1u));
    out[(((thread_idx.x / 32) * 32) + (thread_idx.x % 32))] = v;
}
";
    assert_eq!(kernel_wgsl(src, 0), expected);
}

/// `shfl_down` carries an explicit clamp select: WGSL's
/// `subgroupShuffleDown` leaves out-of-range sources indeterminate,
/// while the simulator (and CUDA) define them to keep the lane's own
/// value.
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
    let w = kernel_wgsl(src, 0);
    assert!(
        w.contains("select(subgroupShuffleDown(v, 1u), v, thread_idx.x % 32u + 1u >= 32u)"),
        "{w}"
    );
}

#[test]
fn golden_transpose_structure() {
    let src = descend::benchmarks::sources::transpose(256);
    let w = kernel_wgsl(&src, 0);
    // Bindings: read for the shared borrow, read_write for the unique one.
    assert!(w.contains("@group(0) @binding(0) var<storage, read> input: array<f32, 65536>;"));
    assert!(w.contains("@group(0) @binding(1) var<storage, read_write> output: array<f32, 65536>;"));
    assert!(w.contains("var<workgroup> tmp: array<f32, 1024>;"));
    assert!(w.contains("@compute @workgroup_size(32, 8, 1)"));
    assert!(w.contains("workgroupBarrier();"));
    // Same rolled loops and linear-normal-form indices as the CUDA
    // rendering, with a `u32` loop variable (the type of the coordinate
    // builtins it combines with) and the WGSL coordinate spellings.
    assert_eq!(
        w.matches("    for (var i: u32 = 0u; i < 4u; i++) {\n")
            .count(),
        2,
        "{w}"
    );
    assert!(
        w.contains("input[(((((block_idx.x * 8192) + (block_idx.y * 32)) + thread_idx.x) + (thread_idx.y * 256)) + (i * 2048))]"),
        "expected transposed tile read, got:\n{w}"
    );
    assert!(
        w.contains("output[(((((block_idx.x * 32) + (block_idx.y * 8192)) + thread_idx.x) + (thread_idx.y * 256)) + (i * 2048))]"),
        "expected straight tile write, got:\n{w}"
    );
    // Shared-memory accesses: row-major write, transposed read.
    assert!(w.contains("tmp[((thread_idx.x + (thread_idx.y * 32)) + (i * 256))]"));
    assert!(w.contains("tmp[(((thread_idx.x * 32) + thread_idx.y) + (i * 8))]"));
}

#[test]
fn golden_reduce_structure() {
    let src = descend::benchmarks::sources::reduce(2048);
    let w = kernel_wgsl(&src, 0);
    assert!(w.contains("@compute @workgroup_size(512, 1, 1)"));
    assert!(w.contains("const block_dim: vec3<u32> = vec3<u32>(512, 1, 1);"));
    assert!(w.contains(
        "fn reduce(@builtin(workgroup_id) block_idx: vec3<u32>, @builtin(local_invocation_id) thread_idx: vec3<u32>, @builtin(num_workgroups) grid_dim: vec3<u32>) {"
    ));
    // The load is fully coalesced.
    assert!(w.contains("tmp[thread_idx.x] = inp[((block_idx.x * 512) + thread_idx.x)];"));
    // The halving splits become coordinate conditions 256, 128, ..., 1.
    for k in [256, 128, 64, 32, 16, 8, 4, 2, 1] {
        assert!(
            w.contains(&format!("if (thread_idx.x < {k}) {{")),
            "missing split at {k}:\n{w}"
        );
    }
    assert!(w.contains("tmp[(thread_idx.x + 256)]"));
    assert!(w.contains("tmp[(thread_idx.x + 1)]"));
    // Final write of the block result.
    assert!(w.contains("out[block_idx.x] = tmp[thread_idx.x];"));
}

#[test]
fn golden_matmul_structure() {
    let src = descend::benchmarks::sources::matmul(64);
    let w = kernel_wgsl(&src, 0);
    assert!(w.contains("var<workgroup> a_tile: array<f32, 1024>;"));
    assert!(w.contains("var<workgroup> b_tile: array<f32, 1024>;"));
    // Thread-private accumulator as a WGSL local.
    assert!(w.contains("var acc: f32 = 0.0;"));
    assert!(w.contains(
        "a_tile[(thread_idx.x + (thread_idx.y * 32))] = a[(((block_idx.y * 2048) + thread_idx.x) + (thread_idx.y * 64))];"
    ));
    // The k loop rolls, once per (unrolled) t iteration.
    let k_loop = "    for (var k: u32 = 0u; k < 32u; k++) {
        acc = (acc + (a_tile[((thread_idx.y * 32) + k)] * b_tile[(thread_idx.x + (k * 32))]));
    }
";
    assert_eq!(w.matches(k_loop).count(), 2, "{w}");
    assert!(w.contains(
        "c[((((block_idx.x * 32) + (block_idx.y * 2048)) + thread_idx.x) + (thread_idx.y * 64))] = acc;"
    ));
}

#[test]
fn golden_host_sketch() {
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
    let w = compiled.target_source("wgsl").expect("wgsl selected");
    // The host side renders as a commented WebGPU sketch that keeps the
    // sizes (64 f32 elements = 256 bytes) and dispatch shape reviewable.
    assert!(w.contains("//   const h = new Float32Array(64);"));
    assert!(w.contains(
        "//   const d = device.createBuffer({ size: 256, usage: STORAGE | COPY_SRC | COPY_DST });"
    ));
    assert!(w.contains("//   device.queue.writeBuffer(d, 0, h);"));
    assert!(w.contains("//   dispatch('k', [2, 1, 1], [d]);"));
    assert!(w.contains("//   await readBack(d, h);"));
    // Nothing outside comments on the host side: every host line of the
    // unit is a `//` line.
    let host_part = w.split("// Host function").nth(1).expect("host section");
    for line in host_part.lines().skip(1) {
        assert!(
            line.is_empty() || line.starts_with("//"),
            "host sketch leaked non-comment WGSL: {line}"
        );
    }
}

/// Bool buffers are not host-shareable in WGSL: they travel as `u32`,
/// with conversions at the store site (and `!= 0` at loads).
#[test]
fn bool_buffers_travel_as_u32() {
    let src = r#"
fn mark(v: &uniq gpu.global [bool; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v).group::<32>[[block]][[thread]] = true;
        }
    }
}
"#;
    let w = kernel_wgsl(src, 0);
    assert!(w.contains("var<storage, read_write> v: array<u32, 64>;"));
    assert!(w.contains("v[((block_idx.x * 32) + thread_idx.x)] = select(0u, 1u, true);"));
    // The OpenCL rendering uses a sized type at the kernel ABI boundary.
    let compiled = Compiler::new().compile_source(src).expect("compiles");
    assert!(compiled.kernels[0].targets["opencl"].contains("__global uchar* v"));
}

/// An i32 kernel keeps its element type (no narrowing note) and renders
/// `var` locals with WGSL type ascription.
#[test]
fn i32_kernel_keeps_type() {
    let src = r#"
fn bump(v: &uniq gpu.global [i32; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            let x = (*v).group::<32>[[block]][[thread]] + 1;
            (*v).group::<32>[[block]][[thread]] = x;
        }
    }
}
"#;
    let w = kernel_wgsl(src, 0);
    assert!(w.contains("var<storage, read_write> v: array<i32, 64>;"));
    assert!(!w.contains("narrowed"), "no f64 involved:\n{w}");
    assert!(w.contains("var x: i32 = (v[((block_idx.x * 32) + thread_idx.x)] + 1);"));
}

#[test]
fn golden_atomic_histogram() {
    let src = std::fs::read_to_string("examples/descend/histogram.descend").expect("corpus file");
    let expected = "\
// Kernel `histogram` — standalone WGSL module.
@group(0) @binding(0) var<storage, read> inp: array<i32, 512>;
@group(0) @binding(1) var<storage, read_write> hist: array<atomic<i32>, 32>;
const block_dim: vec3<u32> = vec3<u32>(256, 1, 1);

@compute @workgroup_size(256, 1, 1)
fn histogram(@builtin(workgroup_id) block_idx: vec3<u32>, @builtin(local_invocation_id) thread_idx: vec3<u32>, @builtin(num_workgroups) grid_dim: vec3<u32>) {
    var descend_idx_0: i32 = i32((inp[((block_idx.x * 256) + thread_idx.x)] % 32));
    if (0 <= u32(descend_idx_0) && u32(descend_idx_0) < 32) { atomicAdd(&hist[u32(descend_idx_0)], 1); }
}
";
    assert_eq!(kernel_wgsl(&src, 0), expected);
}

#[test]
fn golden_atomic_spellings() {
    // A shared atomic target becomes a workgroup array of atomic<i32>;
    // plain initialization and read-back of the same cell spell
    // atomicStore/atomicLoad.
    let src =
        std::fs::read_to_string("examples/descend/argmin_shared.descend").expect("corpus file");
    let wgsl = kernel_wgsl(&src, 0);
    assert!(wgsl.contains("var<workgroup> best: array<atomic<i32>, 1>;"));
    assert!(wgsl.contains("atomicStore(&best[thread_idx.x], 2147483647);"));
    assert!(wgsl.contains("atomicMin(&best[0], ((inp[thread_idx.x] * 256) + ids[thread_idx.x]));"));
    assert!(wgsl.contains("out[thread_idx.x] = atomicLoad(&best[thread_idx.x]);"));
    // f32 atomic targets: atomic<u32> over the bit pattern, CAS-loop
    // helper call, and the module-header fallback note.
    let src =
        std::fs::read_to_string("examples/descend/reduce_atomic.descend").expect("corpus file");
    let wgsl = kernel_wgsl(&src, 0);
    assert!(wgsl.contains("// note: WGSL has no atomic<f32>"));
    assert!(wgsl.contains("var<storage, read_write> out: array<atomic<u32>, 1>;"));
    assert!(wgsl.contains("descendAtomicAddF32(&out[0], tmp[thread_idx.x]);"));
}

/// Mixed plain/atomic access to an *f32* atomic target: the buffer is
/// `atomic<u32>` bit-pattern storage, so plain stores and loads must
/// bitcast through u32 — otherwise the module is type-invalid WGSL.
#[test]
fn golden_f32_atomic_buffer_bitcasts() {
    let src = r#"
fn acc(inp: & gpu.global [f32; 64], out: &uniq gpu.global [f32; 1])
-[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        let sum = alloc::<gpu.shared, [f32; 1]>();
        split(X) block at 1 {
            first => {
                sched(X) t in first {
                    sum.split::<1>.fst[[t]] = 0.0f32;
                }
            },
            rest => { }
        }
        sync;
        sched(X) thread in block {
            atomic_add(sum[0], (*inp)[[thread]]);
        }
        sync;
        split(X) block at 1 {
            first => {
                sched(X) t in first {
                    (*out).split::<1>.fst[[t]] = sum.split::<1>.fst[[t]];
                }
            },
            rest => { }
        }
    }
}
"#;
    let wgsl = kernel_wgsl(src, 0);
    assert!(wgsl.contains("var<workgroup> sum: array<atomic<u32>, 1>;"));
    assert!(wgsl.contains("atomicStore(&sum[thread_idx.x], bitcast<u32>(0.0));"));
    assert!(wgsl.contains("descendAtomicAddF32(&sum[0], inp[thread_idx.x]);"));
    assert!(wgsl.contains("out[thread_idx.x] = bitcast<f32>(atomicLoad(&sum[thread_idx.x]));"));
}

/// A scatter whose target place carries a static coordinate offset: the
/// i32 temporary is wrapped in `u32(...)` wherever it meets u32
/// coordinate arithmetic (WGSL has no implicit integer conversions; a
/// negative index wraps to a huge u32 and fails the bounds guard).
#[test]
fn golden_offset_scatter_wraps_index_in_u32() {
    let src = r#"
fn scatter(inp: & gpu.global [i32; 64], hist: &uniq gpu.global [i32; 64])
-[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            atomic_add((*hist).group::<32>[[block]],
                       (*inp).group::<32>[[block]][[thread]] % 32, 1);
        }
    }
}
"#;
    let wgsl = kernel_wgsl(src, 0);
    assert!(wgsl.contains(
        "var descend_idx_0: i32 = i32((inp[((block_idx.x * 32) + thread_idx.x)] % 32));"
    ));
    assert!(wgsl.contains(
        "if (0 <= ((block_idx.x * 32) + u32(descend_idx_0)) && ((block_idx.x * 32) + u32(descend_idx_0)) < 64) { atomicAdd(&hist[((block_idx.x * 32) + u32(descend_idx_0))], 1); }"
    ));
    // CUDA keeps the bare temporary (C++ converts implicitly).
    let compiled = Compiler::new().compile_source(src).expect("compiles");
    assert!(compiled.kernels[0].targets["cuda"]
        .contains("atomicAdd(&hist[((blockIdx.x * 32) + descend_idx_0)], 1);"));
}

/// Nested for-nat loops stay nested `for` loops over `u32` variables, with
/// the loop variables in the index where they select.
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
// Kernel `tile_sum` — standalone WGSL module.
// note: f64 narrowed to f32 (WGSL has no f64).
@group(0) @binding(0) var<storage, read> m: array<f32, 256>;
@group(0) @binding(1) var<storage, read_write> out: array<f32, 64>;
const block_dim: vec3<u32> = vec3<u32>(32, 1, 1);

@compute @workgroup_size(32, 1, 1)
fn tile_sum(@builtin(workgroup_id) block_idx: vec3<u32>, @builtin(local_invocation_id) thread_idx: vec3<u32>, @builtin(num_workgroups) grid_dim: vec3<u32>) {
    var acc: f32 = 0.0;
    for (var j: u32 = 0u; j < 2u; j++) {
        for (var i: u32 = 0u; i < 2u; i++) {
            acc = (acc + m[((((block_idx.x * 128) + (thread_idx.x * 4)) + i) + (j * 2))]);
        }
    }
    out[((block_idx.x * 32) + thread_idx.x)] = acc;
}
";
    assert_eq!(kernel_wgsl(src, 0), expected);
}
