//! The paper's Section 2 and 3 examples as a compile-pass/compile-fail
//! corpus. Each test corresponds to a concrete listing or error message
//! from *Descend: A Safe GPU Systems Programming Language*.

use descend_typeck::{check_program, ElabStmt, ErrorKind};

fn check(src: &str) -> Result<descend_typeck::CheckedProgram, descend_typeck::TypeError> {
    let prog = descend_parser::parse(src).expect("test sources parse");
    check_program(&prog)
}

/// Statement count net of `ElabStmt::Src` source markers, which the
/// elaborator interleaves for trace attribution and which are not part
/// of the listings' shape.
fn stmt_count(body: &[ElabStmt]) -> usize {
    body.iter()
        .filter(|s| !matches!(s, ElabStmt::Src(_)))
        .count()
}

fn expect_err(src: &str, kind: ErrorKind) {
    match check(src) {
        Ok(_) => panic!("expected {kind:?}, but the program type-checked"),
        Err(e) => assert_eq!(e.kind, kind, "wrong error: {e}"),
    }
}

/// A minimal kernel in the style of the paper's `scale_vec`.
#[test]
fn scale_vec_compiles() {
    let out = check(
        r#"
fn scale_vec(v: &uniq gpu.global [f64; 1024]) -[grid: gpu.grid<X<32>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v).group::<32>[[block]][[thread]] =
                (*v).group::<32>[[block]][[thread]] * 3.0;
        }
    }
}
"#,
    )
    .expect("scale_vec is safe");
    assert_eq!(out.kernels.len(), 1);
    let k = &out.kernels[0];
    assert_eq!(k.grid_dim, [32, 1, 1]);
    assert_eq!(k.block_dim, [32, 1, 1]);
    assert_eq!(k.params.len(), 1);
    assert_eq!(stmt_count(&k.body), 1);
}

/// Listing 2: the matrix transposition written with views, adapted to the
/// per-dimension select dialect documented in DESIGN.md.
#[test]
fn listing_2_transpose_compiles() {
    let out = check(TRANSPOSE_SRC).expect("the transpose of Listing 2 is safe");
    let k = &out.kernels[0];
    assert_eq!(k.shared.len(), 1);
    assert_eq!(k.shared[0].dims, vec![32, 32]);
    // One rolled loop in, sync, one rolled loop out: each loop's four
    // checked iterations fold into one body, symbolic in `i`, holding
    // the one staged copy.
    assert_eq!(stmt_count(&k.body), 3);
    let loops: Vec<(u64, u64, usize)> = k
        .body
        .iter()
        .filter_map(|s| match s {
            ElabStmt::ForNat { lo, hi, body, .. } => Some((*lo, *hi, stmt_count(body))),
            _ => None,
        })
        .collect();
    assert_eq!(loops, [(0, 4, 1), (0, 4, 1)]);
}

const TRANSPOSE_SRC: &str = r#"
view tiles<h: nat, w: nat> = group::<h>.map(map(group::<w>)).map(transpose);

fn transpose(input: & gpu.global [[f64; 256]; 256],
             output: &uniq gpu.global [[f64; 256]; 256])
-[grid: gpu.grid<XY<8,8>, XY<32,8>>]-> () {
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

/// Section 2.2: `rev_per_block` — "conflicting memory access".
#[test]
fn rev_per_block_race_rejected() {
    expect_err(
        r#"
fn rev_per_block(arr: &uniq gpu.global [f64; 2048])
-[grid: gpu.grid<X<8>, X<256>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*arr).group::<256>[[block]][[thread]] =
                (*arr).group::<256>[[block]].rev[[thread]];
        }
    }
}
"#,
        ErrorKind::ConflictingAccess,
    );
}

/// The same pattern through shared memory is fine with a barrier.
#[test]
fn reverse_with_barrier_compiles() {
    check(
        r#"
fn rev_per_block(arr: &uniq gpu.global [f64; 2048])
-[grid: gpu.grid<X<8>, X<256>>]-> () {
    sched(X) block in grid {
        let tmp = alloc::<gpu.shared, [f64; 256]>();
        sched(X) thread in block {
            tmp[[thread]] = (*arr).group::<256>[[block]].rev[[thread]];
        }
        sync;
        sched(X) thread in block {
            (*arr).group::<256>[[block]][[thread]] = tmp[[thread]];
        }
    }
}
"#,
    )
    .expect("barrier separates the reversed read from the write");
}

/// Section 2.2: "barrier not allowed here" — sync under a split.
#[test]
fn sync_under_split_rejected() {
    expect_err(
        r#"
fn kernel(a: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        split(X) block at 32 {
            first_32_threads => { sync; },
            rest => { }
        }
    }
}
"#,
        ErrorKind::BarrierNotAllowed,
    );
}

/// A sync after the split rejoins is legal.
#[test]
fn sync_after_split_compiles() {
    check(
        r#"
fn kernel(a: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        let tmp = alloc::<gpu.shared, [f64; 64]>();
        split(X) block at 32 {
            low => {
                sched(X) t in low { tmp.split::<32>.fst[[t]] = 1.0; }
            },
            high => {
                sched(X) t in high { tmp.split::<32>.snd[[t]] = 2.0; }
            }
        }
        sync;
        sched(X) thread in block {
            (*a)[[thread]] = tmp[[thread]];
        }
    }
}
"#,
    )
    .expect("split halves write disjoint regions; sync rejoins");
}

/// Section 3.3, line 4: `&uniq *arr` after scheduling blocks violates
/// narrowing.
#[test]
fn narrowing_block_borrow_rejected() {
    expect_err(
        r#"
fn kernel(arr: &uniq gpu.global [f32; 1024]) -[grd: gpu.Grid<X<32>, X<32>>]-> () {
    sched(X) block in grd {
        let in_borrow = &uniq *arr;
    }
}
"#,
        ErrorKind::NarrowingViolation,
    );
}

/// Section 3.3, line 6: selecting for the thread without having selected
/// for the block violates narrowing.
#[test]
fn narrowing_missing_block_select_rejected() {
    expect_err(
        r#"
fn kernel(arr: &uniq gpu.global [f32; 1024]) -[grd: gpu.Grid<X<32>, X<32>>]-> () {
    sched(X) block in grd {
        sched(X) thread in block {
            let grp = &uniq (*arr).group::<32>[[thread]];
        }
    }
}
"#,
        ErrorKind::NarrowingViolation,
    );
}

/// Section 3.3, line 8: correct narrowing.
#[test]
fn narrowing_correct_selects_compile() {
    check(
        r#"
fn kernel(arr: &uniq gpu.global [f32; 1024]) -[grd: gpu.Grid<X<32>, X<32>>]-> () {
    sched(X) block in grd {
        sched(X) thread in block {
            let x = &uniq (*arr).group::<32>[[block]][[thread]];
        }
    }
}
"#,
    )
    .expect("grouped, block- and thread-selected access is narrowed");
}

/// Section 2.3: swapped `copy_mem_to_host` arguments are a type error.
#[test]
fn swapped_memcpy_rejected() {
    expect_err(
        r#"
fn main() -[t: cpu.thread]-> () {
    let h_vec = alloc::<cpu.mem, [f64; 64]>();
    let d_vec = gpu_alloc_copy(&h_vec);
    copy_mem_to_host(&uniq d_vec, &h_vec);
}
"#,
        ErrorKind::MismatchedTypes,
    );
}

/// The correct transfer direction compiles and elaborates.
#[test]
fn host_pipeline_compiles() {
    let out = check(
        r#"
fn scale(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v).group::<32>[[block]][[thread]] =
                (*v).group::<32>[[block]][[thread]] * 2.0;
        }
    }
}

fn main() -[t: cpu.thread]-> () {
    let h = alloc::<cpu.mem, [f64; 64]>();
    let d = gpu_alloc_copy(&h);
    scale<<<X<2>, X<32>>>>(&uniq d);
    copy_mem_to_host(&uniq h, &d);
}
"#,
    )
    .expect("the host pipeline is well-typed");
    let host = out.host_fn("main").expect("main is a host fn");
    assert_eq!(host.len(), 4);
    use descend_typeck::HostStmt;
    assert!(matches!(host[0], HostStmt::AllocCpu { .. }));
    assert!(matches!(host[1], HostStmt::AllocGpuCopy { .. }));
    assert!(matches!(host[2], HostStmt::Launch { .. }));
    assert!(matches!(host[3], HostStmt::CopyToHost { .. }));
}

/// Section 2.3: dereferencing a `cpu.mem` pointer on the GPU.
#[test]
fn cpu_deref_on_gpu_rejected() {
    expect_err(
        r#"
fn init_kernel(vec: & cpu.mem [f64; 64]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            let x = (*vec)[[thread]];
        }
    }
}
"#,
        ErrorKind::WrongExecutionContext,
    );
}

/// Section 2.3: launching with the wrong number of threads is a type
/// error (the paper's `[f64; SIZE]` vs `[f64; ELEMS]`).
#[test]
fn launch_wrong_size_rejected() {
    expect_err(
        r#"
const ELEMS: nat = 64;
const SIZE: nat = 512;

fn scale_vec<n: nat>(vec: &uniq gpu.global [f64; n])
-[grid: gpu.grid<X<1>, X<n>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*vec)[[thread]] = (*vec)[[thread]] * 3.0;
        }
    }
}

fn main() -[t: cpu.thread]-> () {
    let h = alloc::<cpu.mem, [f64; ELEMS]>();
    let d = gpu_alloc_copy(&h);
    scale_vec::<SIZE><<<X<1>, X<SIZE>>>>(&uniq d);
}
"#,
        ErrorKind::MismatchedTypes,
    );
}

/// Launching with a grid shape different from the annotation.
#[test]
fn launch_wrong_grid_rejected() {
    expect_err(
        r#"
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
    k<<<X<1>, X<64>>>>(&uniq d);
}
"#,
        ErrorKind::LaunchConfigMismatch,
    );
}

/// The block-wide tree reduction (the paper's first benchmark).
#[test]
fn reduction_compiles() {
    let out = check(
        r#"
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
"#,
    )
    .expect("tree reduction is safe");
    let k = &out.kernels[0];
    // load + sync + 9 halving steps (split + sync) + final split.
    assert_eq!(stmt_count(&k.body), 1 + 1 + 18 + 1);
}

/// Tiled matrix multiplication (the paper's MM benchmark).
#[test]
fn matmul_compiles() {
    check(
        r#"
view tiles<h: nat, w: nat> = group::<h>.map(map(group::<w>)).map(transpose);

fn matmul(a: & gpu.global [[f64; 128]; 128], b: & gpu.global [[f64; 128]; 128],
          c: &uniq gpu.global [[f64; 128]; 128])
-[grid: gpu.grid<XY<4,4>, XY<32,32>>]-> () {
    sched(Y,X) block in grid {
        let a_tile = alloc::<gpu.shared, [[f64; 32]; 32]>();
        let b_tile = alloc::<gpu.shared, [[f64; 32]; 32]>();
        sched(Y,X) thread in block {
            let mut acc = 0.0;
            for t in [0..4] {
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
"#,
    )
    .expect("tiled matmul is safe");
}

/// Forgetting the barrier in the transpose makes the borrow checker
/// reject the program ("synchronizations are not forgotten").
#[test]
fn transpose_without_sync_rejected() {
    let src = TRANSPOSE_SRC.replace("sync;", "");
    expect_err(&src, ErrorKind::ConflictingAccess);
}

/// Select extent must match the array size.
#[test]
fn select_size_mismatch_rejected() {
    expect_err(
        r#"
fn k(v: &uniq gpu.global [f64; 100]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v)[[thread]] = 0.0;
        }
    }
}
"#,
        ErrorKind::SelectSizeMismatch,
    );
}

/// Scheduling over a dimension the grid does not declare.
#[test]
fn sched_missing_dim_rejected() {
    expect_err(
        r#"
fn k(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(Y) block in grid { }
}
"#,
        ErrorKind::ScheduleError,
    );
}

/// Where clauses are checked at instantiation.
#[test]
fn where_clause_violation_rejected() {
    expect_err(
        r#"
fn red<n: nat, nb: nat>(a: &uniq gpu.global [f64; n])
-[grid: gpu.grid<X<nb>, X<512>>]-> () where n == nb * 512 {
}

fn main() -[t: cpu.thread]-> () {
    let h = alloc::<cpu.mem, [f64; 100]>();
    let d = gpu_alloc_copy(&h);
    red::<100, 2><<<X<2>, X<512>>>>(&uniq d);
}
"#,
        ErrorKind::WhereClauseViolated,
    );
}

/// Moved host buffers cannot be used again.
#[test]
fn moved_buffer_rejected() {
    expect_err(
        r#"
fn main() -[t: cpu.thread]-> () {
    let h = alloc::<cpu.mem, [f64; 64]>();
    let h2 = h;
    let d = gpu_alloc_copy(&h);
}
"#,
        ErrorKind::MovedValue,
    );
}

/// Shadowing is rejected to keep place roots unique.
#[test]
fn shadowing_rejected() {
    expect_err(
        r#"
fn main() -[t: cpu.thread]-> () {
    let h = alloc::<cpu.mem, [f64; 64]>();
    let h = alloc::<cpu.mem, [f64; 64]>();
}
"#,
        ErrorKind::Shadowing,
    );
}

/// Writing through a shared (non-uniq) reference is rejected.
#[test]
fn write_through_shared_ref_rejected() {
    expect_err(
        r#"
fn k(v: & gpu.global [f64; 64]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v)[[thread]] = 1.0;
        }
    }
}
"#,
        ErrorKind::NotWritable,
    );
}

/// Indexing out of bounds is caught statically.
#[test]
fn out_of_bounds_index_rejected() {
    expect_err(
        r#"
fn k(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        let tmp = alloc::<gpu.shared, [f64; 8]>();
        sched(X) thread in block {
            let x = tmp[9];
        }
    }
}
"#,
        ErrorKind::OutOfBounds,
    );
}

/// Group with a non-dividing size is rejected (Listing 3's n % k == 0).
#[test]
fn group_divisibility_rejected() {
    expect_err(
        r#"
fn k(v: &uniq gpu.global [f64; 100]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            let x = (*v).group::<7>[0][0];
        }
    }
}
"#,
        ErrorKind::ViewMisapplied,
    );
}

/// Two kernels launched with the same instantiation are checked once but
/// both launches are recorded.
#[test]
fn kernel_instances_are_cached() {
    let out = check(
        r#"
fn k(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v).group::<32>[[block]][[thread]] = 1.0;
        }
    }
}

fn main() -[t: cpu.thread]-> () {
    let h = alloc::<cpu.mem, [f64; 64]>();
    let d = gpu_alloc_copy(&h);
    k<<<X<2>, X<32>>>>(&uniq d);
    k<<<X<2>, X<32>>>>(&uniq d);
}
"#,
    )
    .expect("repeat launches are fine");
    assert_eq!(out.kernels.len(), 1);
    assert_eq!(out.host_fn("main").unwrap().len(), 4);
}

/// The Hillis-Steele scan step: split with shifted reads double-buffers
/// safely.
#[test]
fn scan_step_compiles() {
    check(
        r#"
fn scan_step(io: &uniq gpu.global [f64; 512])
-[grid: gpu.grid<X<1>, X<512>>]-> () {
    sched(X) block in grid {
        let buf_a = alloc::<gpu.shared, [f64; 512]>();
        let buf_b = alloc::<gpu.shared, [f64; 512]>();
        sched(X) thread in block {
            buf_a[[thread]] = (*io)[[thread]];
        }
        sync;
        split(X) block at 1 {
            low => {
                sched(X) t in low {
                    buf_b.split::<1>.fst[[t]] = buf_a.split::<1>.fst[[t]];
                }
            },
            high => {
                sched(X) t in high {
                    buf_b.split::<1>.snd[[t]] = buf_a.split::<1>.snd[[t]]
                        + buf_a.split::<511>.fst[[t]];
                }
            }
        }
        sync;
        sched(X) thread in block {
            (*io)[[thread]] = buf_b[[thread]];
        }
    }
}
"#,
    )
    .expect("one scan step is safe");
}

/// Reads alone never conflict: many threads may read the same element.
#[test]
fn replicated_reads_compile() {
    check(
        r#"
fn k(v: & gpu.global [f64; 64], o: &uniq gpu.global [f64; 64])
-[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*o)[[thread]] = (*v)[0] + (*v)[[thread]];
        }
    }
}
"#,
    )
    .expect("shared reads are replicable");
}

/// An unknown kernel name in a launch.
#[test]
fn unknown_kernel_rejected() {
    expect_err(
        r#"
fn main() -[t: cpu.thread]-> () {
    let h = alloc::<cpu.mem, [f64; 64]>();
    let d = gpu_alloc_copy(&h);
    nope<<<X<1>, X<64>>>>(&uniq d);
}
"#,
        ErrorKind::UnknownName,
    );
}

/// Writing to the same element from all threads (no select) is a
/// narrowing violation even without views.
#[test]
fn unselected_write_rejected() {
    expect_err(
        r#"
fn k(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v)[0] = 1.0;
        }
    }
}
"#,
        ErrorKind::NarrowingViolation,
    );
}

/// Both split branches writing the same half race.
#[test]
fn split_same_half_write_rejected() {
    expect_err(
        r#"
fn k(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        let tmp = alloc::<gpu.shared, [f64; 32]>();
        split(X) block at 32 {
            low => {
                sched(X) t in low { tmp[[t]] = 1.0; }
            },
            high => {
                sched(X) t in high { tmp[[t]] = 2.0; }
            }
        }
    }
}
"#,
        ErrorKind::ConflictingAccess,
    );
}
