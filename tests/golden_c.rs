//! Golden tests for the executable C backend, mirroring
//! `golden_cuda.rs` / `golden_opencl.rs` / `golden_wgsl.rs`: the
//! generated kernels for the same programs are snapshotted here and
//! compared verbatim, so any unintended change to the phased OpenMP
//! lowering — loop fission at barriers, hoisted per-thread locals,
//! staged shuffles, pragma/CAS atomics — is caught.

use descend::compiler::Compiler;

fn kernel_c(src: &str, idx: usize) -> String {
    let compiled = Compiler::new().compile_source(src).expect("compiles");
    compiled.kernels[idx].targets["c"].clone()
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
void scale_vec(double* v) {
    #pragma omp parallel for
    for (int64_t __b = 0; __b < 32; __b++) {
        const int64_t blockIdx_x = __b % 32;
        for (int64_t __t = 0; __t < 32; __t++) {
            const int64_t threadIdx_x = __t % 32;
            v[((blockIdx_x * 32) + threadIdx_x)] = (v[((blockIdx_x * 32) + threadIdx_x)] * 3.0);
        }
    }
}
";
    assert_eq!(kernel_c(src, 0), expected);
}

/// The warp butterfly: each `shfl_xor` stages every lane's operand into
/// a per-block scratch array and ends the phase, so the next phase's
/// reads (`__shflN[(__t ^ d)]`) observe a complete round — the C
/// rendering of warp-synchronous execution. The carried local `v` is
/// hoisted to a per-thread array because it crosses phase boundaries.
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
void warp_sum(const double* inp, double* out) {
    #pragma omp parallel for
    for (int64_t __b = 0; __b < 1; __b++) {
        double v[64] = {0};
        double __shfl0[64] = {0};
        double __shfl1[64] = {0};
        double __shfl2[64] = {0};
        double __shfl3[64] = {0};
        double __shfl4[64] = {0};
        for (int64_t __t = 0; __t < 64; __t++) {
            const int64_t threadIdx_x = __t % 64;
            v[__t] = inp[(((threadIdx_x / 32) * 32) + (threadIdx_x % 32))];
            __shfl0[__t] = v[__t];
        }
        for (int64_t __t = 0; __t < 64; __t++) {
            v[__t] = (v[__t] + __shfl0[(__t ^ 16)]);
            __shfl1[__t] = v[__t];
        }
        for (int64_t __t = 0; __t < 64; __t++) {
            v[__t] = (v[__t] + __shfl1[(__t ^ 8)]);
            __shfl2[__t] = v[__t];
        }
        for (int64_t __t = 0; __t < 64; __t++) {
            v[__t] = (v[__t] + __shfl2[(__t ^ 4)]);
            __shfl3[__t] = v[__t];
        }
        for (int64_t __t = 0; __t < 64; __t++) {
            v[__t] = (v[__t] + __shfl3[(__t ^ 2)]);
            __shfl4[__t] = v[__t];
        }
        for (int64_t __t = 0; __t < 64; __t++) {
            const int64_t threadIdx_x = __t % 64;
            v[__t] = (v[__t] + __shfl4[(__t ^ 1)]);
            out[(((threadIdx_x / 32) * 32) + (threadIdx_x % 32))] = v[__t];
        }
    }
}
";
    assert_eq!(kernel_c(src, 0), expected);
}

/// `shfl_down` keeps the lane's own value when the source lane falls
/// off the warp — the same clamp the simulator and CUDA define —
/// rendered as a conditional on the staged array.
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
    let c = kernel_c(src, 0);
    assert!(
        c.contains("((((__t % 32) + 1) < 32) ? __shfl0[(__t + 1)] : __shfl0[__t])"),
        "{c}"
    );
}

/// The scatter histogram: the data-dependent index binds to a guarded
/// temporary and the global increment is an OpenMP atomic — the
/// multi-line guard exists precisely because a `#pragma` cannot live in
/// a single-line `if`.
#[test]
fn golden_atomic_histogram() {
    let src = std::fs::read_to_string("examples/descend/histogram.descend").expect("corpus file");
    let expected = "\
void histogram(const int32_t* inp, int32_t* hist) {
    #pragma omp parallel for
    for (int64_t __b = 0; __b < 2; __b++) {
        const int64_t blockIdx_x = __b % 2;
        for (int64_t __t = 0; __t < 256; __t++) {
            const int64_t threadIdx_x = __t % 256;
            int32_t descend_idx_0 = (int32_t)((inp[((blockIdx_x * 256) + threadIdx_x)] % 32));
            if (0 <= descend_idx_0 && descend_idx_0 < 32) {
                #pragma omp atomic update
                hist[descend_idx_0] += 1;
            }
        }
    }
}
";
    assert_eq!(kernel_c(&src, 0), expected);
}

/// Atomic spellings by memory space: a *shared* atomic min is plain
/// sequential C (threads of one block run sequentially inside a phase,
/// so `if (v < t) t = v;` is already atomic), while a *global* f32
/// atomic add is an OpenMP atomic whose operand keeps the simulator's
/// compute-in-f64 discipline.
#[test]
fn golden_atomic_spellings() {
    let src =
        std::fs::read_to_string("examples/descend/argmin_shared.descend").expect("corpus file");
    let c = kernel_c(&src, 0);
    assert!(c.contains("int32_t best[1] = {0};"));
    assert!(c.contains("best[threadIdx_x] = (int32_t)(2147483647);"));
    assert!(c.contains(
        "if (((inp[threadIdx_x] * 256) + ids[threadIdx_x]) < best[0]) { best[0] = ((inp[threadIdx_x] * 256) + ids[threadIdx_x]); }"
    ));
    assert!(c.contains("out[threadIdx_x] = (int32_t)(best[threadIdx_x]);"));

    let src =
        std::fs::read_to_string("examples/descend/reduce_atomic.descend").expect("corpus file");
    let c = kernel_c(&src, 0);
    assert!(c.contains(
        "#pragma omp atomic update\n                out[0] += (double)(tmp[threadIdx_x]);"
    ));
    // f32 stays f64 in flight and narrows only at the shared store.
    assert!(c.contains(
        "tmp[threadIdx_x] = (float)(((double)(tmp[threadIdx_x]) + (double)(tmp[(threadIdx_x + 128)])));"
    ));
}

/// Global min/max have no OpenMP pragma form; they lower to CAS-loop
/// helpers emitted once in the prelude, only when some kernel needs
/// them.
#[test]
fn golden_global_minmax_uses_cas_helpers() {
    let src = r#"
fn gmin(inp: & gpu.global [i32; 64], out: &uniq gpu.global [i32; 1])
-[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            atomic_min((*out)[0], (*inp).group::<32>[[block]][[thread]]);
        }
    }
}
"#;
    let compiled = Compiler::new().compile_source(src).expect("compiles");
    let tu = compiled.target_source("c").expect("c selected");
    assert!(tu.contains("static inline void descend_atomic_min_i32(int32_t* p, int32_t v) {"));
    assert!(tu.contains(
        "__atomic_compare_exchange_n(p, &old, v, 0, __ATOMIC_RELAXED, __ATOMIC_RELAXED)"
    ));
    assert!(tu.contains("descend_atomic_min_i32(&out[0], inp[((blockIdx_x * 32) + threadIdx_x)]);"));
    // A program without global min/max atomics does not pay for them.
    let plain = std::fs::read_to_string("examples/descend/scale.descend").expect("corpus file");
    let compiled = Compiler::new().compile_source(&plain).expect("compiles");
    let tu = compiled.target_source("c").expect("c selected");
    assert!(!tu.contains("descend_atomic_min_i32"));
}

/// The tree reduction: one thread-loop per barrier interval, halving
/// coordinate guards, and the same linear-normal-form indices as every
/// other backend with the C coordinate spellings substituted.
#[test]
fn golden_reduce_structure() {
    let src = descend::benchmarks::sources::reduce(2048);
    let c = kernel_c(&src, 0);
    assert!(c.contains("void reduce(const double* inp, double* out) {"));
    assert!(c.contains("#pragma omp parallel for\n    for (int64_t __b = 0; __b < 4; __b++) {"));
    assert!(c.contains("double tmp[512] = {0};"));
    // The load is fully coalesced.
    assert!(c.contains("tmp[threadIdx_x] = inp[((blockIdx_x * 512) + threadIdx_x)];"));
    // The halving splits become coordinate conditions 256, 128, ..., 1,
    // each in its own phase (the `sync` between rounds fissions the
    // thread loop).
    for k in [256, 128, 64, 32, 16, 8, 4, 2, 1] {
        assert!(
            c.contains(&format!("if (threadIdx_x < {k}) {{")),
            "missing split at {k}:\n{c}"
        );
    }
    assert_eq!(
        c.matches("for (int64_t __t = 0; __t < 512; __t++) {")
            .count(),
        11,
        "load + 9 rounds + final write, one thread loop each:\n{c}"
    );
    assert!(c.contains("out[blockIdx_x] = tmp[threadIdx_x];"));
}

/// A grid split whose first branch crosses a barrier: the `sync` ends
/// the first thread loop, and the second carries the rest of the first
/// branch *and* the whole second branch as two condition chunks.
#[test]
fn golden_split_branches_across_phases() {
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
void zsplit(double* v) {
    #pragma omp parallel for
    for (int64_t __b = 0; __b < 2; __b++) {
        const int64_t blockIdx_z = __b / 1;
        double tmp[128] = {0};
        for (int64_t __t = 0; __t < 128; __t++) {
            const int64_t threadIdx_x = __t % 128;
            if (blockIdx_z < 1) {
                tmp[threadIdx_x] = 1.0;
            }
        }
        for (int64_t __t = 0; __t < 128; __t++) {
            const int64_t threadIdx_x = __t % 128;
            if (blockIdx_z < 1) {
                v[((blockIdx_z * 128) + threadIdx_x)] = tmp[threadIdx_x];
            }
            if (blockIdx_z >= 1) {
                v[((blockIdx_z * 128) + threadIdx_x)] = 2.0;
            }
        }
    }
}
";
    assert_eq!(kernel_c(src, 0), expected);
}

/// The full translation unit is a runnable program: stdin/stdout buffer
/// protocol, a host function per Descend host fn, and an `argv[1]`
/// dispatcher.
#[test]
fn golden_host_program() {
    let src = std::fs::read_to_string("examples/descend/scale.descend").expect("corpus file");
    let compiled = Compiler::new().compile_source(&src).expect("compiles");
    let tu = compiled.target_source("c").expect("c selected");
    // Runtime protocol helpers.
    assert!(tu.contains("static inline void descend_load_inputs(void) {"));
    assert!(tu.contains(
        "static inline void descend_buf_dump(const char* name, const void* buf, long long len,"
    ));
    assert!(tu.contains("printf(\" %.17g\""));
    // Host function: calloc + seed, alloc-copy, launch, copy-back, dump,
    // free — in statement order.
    let expected_host = "\
void descend_host_main(void) {
    double* h = (double*)calloc(256, sizeof(double));
    descend_buf_init(\"h\", h, 256, DESCEND_F64);
    double* d = (double*)malloc(256 * sizeof(double)); memcpy(d, h, 256 * sizeof(double));
    scale(d);
    memcpy(h, d, 256 * sizeof(double));
    descend_buf_dump(\"h\", h, 256, DESCEND_F64);
    free(h);
    free(d);
}
";
    assert!(tu.contains(expected_host), "{tu}");
    // Dispatcher defaults to `main` and rejects unknown names.
    assert!(tu.contains("const char* fn = argc > 1 ? argv[1] : \"main\";"));
    assert!(tu.contains("if (strcmp(fn, \"main\") == 0) {"));
    assert!(tu.contains("fprintf(stderr, \"unknown host function %s\\n\", fn);"));
}

/// A kernel-only program (no host fns) emits no runtime and no `main` —
/// it compiles as a plain object.
#[test]
fn kernel_only_unit_has_no_runtime() {
    let src = r#"
fn k(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v).group::<32>[[block]][[thread]] = 0.0;
        }
    }
}
"#;
    let compiled = Compiler::new().compile_source(src).expect("compiles");
    let tu = compiled.target_source("c").expect("c selected");
    assert!(!tu.contains("int main("));
    assert!(!tu.contains("descend_load_inputs"));
    assert!(!tu.contains("#include <stdio.h>"));
    assert!(tu.contains("#include <stdint.h>"));
}

/// Nested for-nat loops stay nested `for` loops inside the thread loop of
/// their barrier phase (a rolled body holds no barrier), with the loop
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
void tile_sum(const double* m, double* out) {
    #pragma omp parallel for
    for (int64_t __b = 0; __b < 2; __b++) {
        const int64_t blockIdx_x = __b % 2;
        double acc[32] = {0};
        for (int64_t __t = 0; __t < 32; __t++) {
            const int64_t threadIdx_x = __t % 32;
            acc[__t] = 0.0;
            for (int j = 0; j < 2; j++) {
                for (int i = 0; i < 2; i++) {
                    acc[__t] = (acc[__t] + m[((((blockIdx_x * 128) + (threadIdx_x * 4)) + i) + (j * 2))]);
                }
            }
            out[((blockIdx_x * 32) + threadIdx_x)] = acc[__t];
        }
    }
}
";
    assert_eq!(kernel_c(src, 0), expected);
}
