//! Handwritten CUDA baselines, transcribed to the simulator IR.
//!
//! These play the role of the paper's handwritten CUDA implementations:
//! the canonical kernels with the same optimizations and access patterns
//! the Descend versions use. Static loops are emitted unrolled, matching
//! what `nvcc -O3` does to them (an ablation baseline with real loops is
//! provided for the reduction to quantify the difference).
//!
//! The buggy transpose of the paper's Listing 1 (missing parenthesis in
//! the index computation) is also provided; the dynamic race detector
//! must flag it.

use gpu_sim::ir::*;

fn lit(v: i64) -> Expr {
    Expr::LitI(v)
}

fn tid_x() -> Expr {
    Expr::ThreadIdx(Axis::X)
}

fn tid_y() -> Expr {
    Expr::ThreadIdx(Axis::Y)
}

fn bid_x() -> Expr {
    Expr::BlockIdx(Axis::X)
}

fn bid_y() -> Expr {
    Expr::BlockIdx(Axis::Y)
}

fn i32_param(len: usize, writable: bool) -> ParamDecl {
    ParamDecl {
        elem: ElemTy::I32,
        len: len as u64,
        writable,
    }
}

fn f64_param(len: usize, writable: bool) -> ParamDecl {
    ParamDecl {
        elem: ElemTy::F64,
        len: len as u64,
        writable,
    }
}

fn shared_f64(len: usize) -> SharedDecl {
    SharedDecl {
        elem: ElemTy::F64,
        len: len as u64,
    }
}

/// `__global__ void reduce(const double* in, double* out)` — classic
/// sequential-addressing tree reduction with the halving loop unrolled.
pub fn reduce(n: usize, bs: usize) -> KernelIr {
    let nb = n / bs;
    let mut body = vec![
        // tmp[tid] = in[bid*bs + tid];
        Stmt::StoreShared {
            buf: 0,
            idx: tid_x(),
            value: Expr::LoadGlobal {
                buf: 0,
                idx: Box::new(Expr::add(Expr::mul(bid_x(), lit(bs as i64)), tid_x())),
            },
        },
        Stmt::Barrier,
    ];
    let mut k = bs / 2;
    while k >= 1 {
        // if (tid < k) tmp[tid] += tmp[tid + k];
        body.push(Stmt::If {
            cond: Expr::lt(tid_x(), lit(k as i64)),
            then_s: vec![Stmt::StoreShared {
                buf: 0,
                idx: tid_x(),
                value: Expr::add(
                    Expr::LoadShared {
                        buf: 0,
                        idx: Box::new(tid_x()),
                    },
                    Expr::LoadShared {
                        buf: 0,
                        idx: Box::new(Expr::add(tid_x(), lit(k as i64))),
                    },
                ),
            }],
            else_s: vec![],
        });
        body.push(Stmt::Barrier);
        k /= 2;
    }
    // if (tid < 1) out[bid] = tmp[0];
    body.push(Stmt::If {
        cond: Expr::lt(tid_x(), lit(1)),
        then_s: vec![Stmt::StoreGlobal {
            buf: 1,
            idx: bid_x(),
            value: Expr::LoadShared {
                buf: 0,
                idx: Box::new(lit(0)),
            },
        }],
        else_s: vec![],
    });
    KernelIr {
        name: "cuda_reduce".into(),
        params: vec![f64_param(n, false), f64_param(nb, true)],
        shared: vec![shared_f64(bs)],
        body,
    }
}

/// The classic warp-shuffle reduction (`__shfl_xor_sync` butterfly for
/// the last five levels), transcribed statement for statement from the
/// canonical CUDA idiom the generated `reduce_shfl` kernel matches:
/// tree to 32 partials in shared memory, then warp 0 loads
/// `tmp[tid % 32]`, butterflies over masks 16..1, and stores its lane's
/// total back before the final write.
pub fn reduce_shuffle(n: usize, bs: usize) -> KernelIr {
    let nb = n / bs;
    let mut body = vec![
        Stmt::StoreShared {
            buf: 0,
            idx: tid_x(),
            value: Expr::LoadGlobal {
                buf: 0,
                idx: Box::new(Expr::add(Expr::mul(bid_x(), lit(bs as i64)), tid_x())),
            },
        },
        Stmt::Barrier,
    ];
    let mut k = bs / 2;
    while k >= 32 {
        body.push(Stmt::If {
            cond: Expr::lt(tid_x(), lit(k as i64)),
            then_s: vec![Stmt::StoreShared {
                buf: 0,
                idx: tid_x(),
                value: Expr::add(
                    Expr::LoadShared {
                        buf: 0,
                        idx: Box::new(tid_x()),
                    },
                    Expr::LoadShared {
                        buf: 0,
                        idx: Box::new(Expr::add(tid_x(), lit(k as i64))),
                    },
                ),
            }],
            else_s: vec![],
        });
        body.push(Stmt::Barrier);
        k /= 2;
    }
    // if (tid / 32 < 1) { v = tmp[tid % 32]; butterfly; tmp[tid % 32] = v; }
    let lane = Expr::bin(BinOp::Mod, tid_x(), lit(32));
    let warp = Expr::bin(BinOp::Div, tid_x(), lit(32));
    let mut warp_phase = vec![Stmt::SetLocal(
        0,
        Expr::LoadShared {
            buf: 0,
            idx: Box::new(lane.clone()),
        },
    )];
    for delta in [16u32, 8, 4, 2, 1] {
        warp_phase.push(Stmt::Shfl {
            dst: 1,
            op: ShflOp::Xor,
            value: Expr::Local(0),
            delta,
        });
        warp_phase.push(Stmt::SetLocal(0, Expr::add(Expr::Local(0), Expr::Local(1))));
    }
    warp_phase.push(Stmt::StoreShared {
        buf: 0,
        idx: lane,
        value: Expr::Local(0),
    });
    body.push(Stmt::If {
        cond: Expr::lt(warp, lit(1)),
        then_s: warp_phase,
        else_s: vec![],
    });
    body.push(Stmt::Barrier);
    body.push(Stmt::If {
        cond: Expr::lt(tid_x(), lit(1)),
        then_s: vec![Stmt::StoreGlobal {
            buf: 1,
            idx: bid_x(),
            value: Expr::LoadShared {
                buf: 0,
                idx: Box::new(tid_x()),
            },
        }],
        else_s: vec![],
    });
    KernelIr {
        name: "cuda_reduce_shuffle".into(),
        params: vec![f64_param(n, false), f64_param(nb, true)],
        shared: vec![shared_f64(bs)],
        body,
    }
}

/// The same reduction with a *real* halving loop (ablation: quantifies
/// the loop-bookkeeping overhead the unrolled versions avoid).
pub fn reduce_looped(n: usize, bs: usize) -> KernelIr {
    let nb = n / bs;
    let body = vec![
        Stmt::StoreShared {
            buf: 0,
            idx: tid_x(),
            value: Expr::LoadGlobal {
                buf: 0,
                idx: Box::new(Expr::add(Expr::mul(bid_x(), lit(bs as i64)), tid_x())),
            },
        },
        Stmt::Barrier,
        Stmt::Loop {
            var: 0,
            init: lit((bs / 2) as i64),
            cmp: LoopCmp::Ge,
            bound: lit(1),
            step: LoopStep::Div(2),
            body: vec![
                Stmt::If {
                    cond: Expr::lt(tid_x(), Expr::Local(0)),
                    then_s: vec![Stmt::StoreShared {
                        buf: 0,
                        idx: tid_x(),
                        value: Expr::add(
                            Expr::LoadShared {
                                buf: 0,
                                idx: Box::new(tid_x()),
                            },
                            Expr::LoadShared {
                                buf: 0,
                                idx: Box::new(Expr::add(tid_x(), Expr::Local(0))),
                            },
                        ),
                    }],
                    else_s: vec![],
                },
                Stmt::Barrier,
            ],
        },
        Stmt::If {
            cond: Expr::lt(tid_x(), lit(1)),
            then_s: vec![Stmt::StoreGlobal {
                buf: 1,
                idx: bid_x(),
                value: Expr::LoadShared {
                    buf: 0,
                    idx: Box::new(lit(0)),
                },
            }],
            else_s: vec![],
        },
    ];
    KernelIr {
        name: "cuda_reduce_looped".into(),
        params: vec![f64_param(n, false), f64_param(nb, true)],
        shared: vec![shared_f64(bs)],
        body,
    }
}

/// `__global__ void stencil(const double* in, double* out)` — the
/// canonical shared-memory 3-point stencil with a 2-element halo: each
/// block stages its `bs + 2`-element input window, the first two
/// threads load the halo, and after the barrier every thread sums its
/// three overlapping tile elements. Access pattern identical to the
/// Descend `windows::<bs+2, bs>` / `windows::<3, 1>` version.
pub fn stencil(n: usize, bs: usize) -> KernelIr {
    let block_base = || Expr::add(Expr::mul(bid_x(), lit(bs as i64)), tid_x());
    let tile_at = |off: i64| Expr::LoadShared {
        buf: 0,
        idx: Box::new(Expr::add(tid_x(), lit(off))),
    };
    let body = vec![
        // tile[tid] = in[bid*bs + tid];
        Stmt::StoreShared {
            buf: 0,
            idx: tid_x(),
            value: Expr::LoadGlobal {
                buf: 0,
                idx: Box::new(block_base()),
            },
        },
        // if (tid < 2) tile[bs + tid] = in[bid*bs + tid + bs];
        Stmt::If {
            cond: Expr::lt(tid_x(), lit(2)),
            then_s: vec![Stmt::StoreShared {
                buf: 0,
                idx: Expr::add(tid_x(), lit(bs as i64)),
                value: Expr::LoadGlobal {
                    buf: 0,
                    idx: Box::new(Expr::add(block_base(), lit(bs as i64))),
                },
            }],
            else_s: vec![],
        },
        Stmt::Barrier,
        // out[bid*bs + tid] = tile[tid] + tile[tid+1] + tile[tid+2];
        Stmt::StoreGlobal {
            buf: 1,
            idx: block_base(),
            value: Expr::add(Expr::add(tile_at(0), tile_at(1)), tile_at(2)),
        },
    ];
    KernelIr {
        name: "cuda_stencil".into(),
        params: vec![f64_param(n + 2, false), f64_param(n, true)],
        shared: vec![shared_f64(bs + 2)],
        body,
    }
}

/// The corrected CUDA transpose of the paper's Listing 1: 32x32 tiles,
/// 32x8 threads, staged through shared memory.
pub fn transpose(n: usize) -> KernelIr {
    let mut body = Vec::new();
    for j in (0..32).step_by(8) {
        // tmp[(ty + j)*32 + tx] = in[(by*32 + ty + j)*n + bx*32 + tx];
        body.push(Stmt::StoreShared {
            buf: 0,
            idx: Expr::add(Expr::mul(Expr::add(tid_y(), lit(j)), lit(32)), tid_x()),
            value: Expr::LoadGlobal {
                buf: 0,
                idx: Box::new(Expr::add(
                    Expr::mul(
                        Expr::add(Expr::add(Expr::mul(bid_y(), lit(32)), tid_y()), lit(j)),
                        lit(n as i64),
                    ),
                    Expr::add(Expr::mul(bid_x(), lit(32)), tid_x()),
                )),
            },
        });
    }
    body.push(Stmt::Barrier);
    for j in (0..32).step_by(8) {
        // out[(bx*32 + ty + j)*n + by*32 + tx] = tmp[tx*32 + ty + j];
        body.push(Stmt::StoreGlobal {
            buf: 1,
            idx: Expr::add(
                Expr::mul(
                    Expr::add(Expr::add(Expr::mul(bid_x(), lit(32)), tid_y()), lit(j)),
                    lit(n as i64),
                ),
                Expr::add(Expr::mul(bid_y(), lit(32)), tid_x()),
            ),
            value: Expr::LoadShared {
                buf: 0,
                idx: Box::new(Expr::add(
                    Expr::mul(tid_x(), lit(32)),
                    Expr::add(tid_y(), lit(j)),
                )),
            },
        });
    }
    KernelIr {
        name: "cuda_transpose".into(),
        params: vec![f64_param(n * n, false), f64_param(n * n, true)],
        shared: vec![shared_f64(32 * 32)],
        body,
    }
}

/// The *buggy* transpose of the paper's Listing 1, verbatim: the shared
/// store index reads `threadIdx.y + j*32 + threadIdx.x` because of the
/// missing parenthesis, producing a data race.
pub fn transpose_buggy(n: usize) -> KernelIr {
    let mut k = transpose(n);
    k.name = "cuda_transpose_buggy".into();
    for (count, j) in (0..32).step_by(8).enumerate() {
        // Overwrite the staging store with the buggy index:
        // tmp[ty + j*32 + tx].
        if let Stmt::StoreShared { idx, .. } = &mut k.body[count] {
            *idx = Expr::add(Expr::add(tid_y(), lit(j * 32)), tid_x());
        }
    }
    k
}

/// Scan kernel 1: per-block Hillis-Steele inclusive scan (double
/// buffered, unrolled over the log2(bs) strides), writing block totals.
pub fn scan_blocks(n: usize, bs: usize) -> KernelIr {
    let nb = n / bs;
    let gid = Expr::add(Expr::mul(bid_x(), lit(bs as i64)), tid_x());
    let mut body = vec![
        Stmt::StoreShared {
            buf: 0,
            idx: tid_x(),
            value: Expr::LoadGlobal {
                buf: 0,
                idx: Box::new(gid.clone()),
            },
        },
        Stmt::Barrier,
    ];
    let steps = bs.trailing_zeros() as usize;
    for i in 0..steps {
        let k = 1i64 << i;
        let (src, dst) = if i.is_multiple_of(2) { (0, 1) } else { (1, 0) };
        // if (tid >= k) dst[tid] = src[tid] + src[tid-k]; else dst[tid] = src[tid];
        body.push(Stmt::If {
            cond: Expr::bin(BinOp::Ge, tid_x(), lit(k)),
            then_s: vec![Stmt::StoreShared {
                buf: dst,
                idx: tid_x(),
                value: Expr::add(
                    Expr::LoadShared {
                        buf: src,
                        idx: Box::new(tid_x()),
                    },
                    Expr::LoadShared {
                        buf: src,
                        idx: Box::new(Expr::sub(tid_x(), lit(k))),
                    },
                ),
            }],
            else_s: vec![Stmt::StoreShared {
                buf: dst,
                idx: tid_x(),
                value: Expr::LoadShared {
                    buf: src,
                    idx: Box::new(tid_x()),
                },
            }],
        });
        body.push(Stmt::Barrier);
    }
    let last = if steps.is_multiple_of(2) { 0 } else { 1 };
    body.push(Stmt::StoreGlobal {
        buf: 0,
        idx: gid,
        value: Expr::LoadShared {
            buf: last,
            idx: Box::new(tid_x()),
        },
    });
    body.push(Stmt::If {
        cond: Expr::bin(BinOp::Ge, tid_x(), lit((bs - 1) as i64)),
        then_s: vec![Stmt::StoreGlobal {
            buf: 1,
            idx: bid_x(),
            value: Expr::LoadShared {
                buf: last,
                idx: Box::new(lit((bs - 1) as i64)),
            },
        }],
        else_s: vec![],
    });
    KernelIr {
        name: "cuda_scan_blocks".into(),
        params: vec![f64_param(n, true), f64_param(nb, true)],
        shared: vec![shared_f64(bs), shared_f64(bs)],
        body,
    }
}

/// Scan kernel 2: `io[gid] += offsets[bid]`.
pub fn scan_add_offsets(n: usize, bs: usize) -> KernelIr {
    let nb = n / bs;
    let gid = Expr::add(Expr::mul(bid_x(), lit(bs as i64)), tid_x());
    KernelIr {
        name: "cuda_add_offsets".into(),
        params: vec![f64_param(n, true), f64_param(nb, false)],
        shared: vec![],
        body: vec![Stmt::StoreGlobal {
            buf: 0,
            idx: gid.clone(),
            value: Expr::add(
                Expr::LoadGlobal {
                    buf: 0,
                    idx: Box::new(gid),
                },
                Expr::LoadGlobal {
                    buf: 1,
                    idx: Box::new(bid_x()),
                },
            ),
        }],
    }
}

/// Tiled matrix multiplication: 32x32 tiles of A and B staged through
/// shared memory, inner product unrolled.
pub fn matmul(n: usize) -> KernelIr {
    let nb = (n / 32) as i64;
    let acc = 0usize;
    let row = Expr::add(Expr::mul(bid_y(), lit(32)), tid_y());
    let col = Expr::add(Expr::mul(bid_x(), lit(32)), tid_x());
    let mut body = vec![Stmt::SetLocal(acc, Expr::LitF(0.0))];
    for t in 0..nb {
        // a_tile[ty][tx] = A[row*n + t*32 + tx];
        body.push(Stmt::StoreShared {
            buf: 0,
            idx: Expr::add(Expr::mul(tid_y(), lit(32)), tid_x()),
            value: Expr::LoadGlobal {
                buf: 0,
                idx: Box::new(Expr::add(
                    Expr::mul(row.clone(), lit(n as i64)),
                    Expr::add(lit(t * 32), tid_x()),
                )),
            },
        });
        // b_tile[ty][tx] = B[(t*32 + ty)*n + col];
        body.push(Stmt::StoreShared {
            buf: 1,
            idx: Expr::add(Expr::mul(tid_y(), lit(32)), tid_x()),
            value: Expr::LoadGlobal {
                buf: 1,
                idx: Box::new(Expr::add(
                    Expr::mul(Expr::add(lit(t * 32), tid_y()), lit(n as i64)),
                    col.clone(),
                )),
            },
        });
        body.push(Stmt::Barrier);
        for k in 0..32i64 {
            // acc += a_tile[ty][k] * b_tile[k][tx];
            body.push(Stmt::SetLocal(
                acc,
                Expr::add(
                    Expr::Local(acc),
                    Expr::mul(
                        Expr::LoadShared {
                            buf: 0,
                            idx: Box::new(Expr::add(Expr::mul(tid_y(), lit(32)), lit(k))),
                        },
                        Expr::LoadShared {
                            buf: 1,
                            idx: Box::new(Expr::add(lit(k * 32), tid_x())),
                        },
                    ),
                ),
            ));
        }
        body.push(Stmt::Barrier);
    }
    // C[row*n + col] = acc;
    body.push(Stmt::StoreGlobal {
        buf: 2,
        idx: Expr::add(Expr::mul(row, lit(n as i64)), col),
        value: Expr::Local(acc),
    });
    KernelIr {
        name: "cuda_matmul".into(),
        params: vec![
            f64_param(n * n, false),
            f64_param(n * n, false),
            f64_param(n * n, true),
        ],
        shared: vec![shared_f64(32 * 32), shared_f64(32 * 32)],
        body,
    }
}

/// `__global__ void histogram(const int* in, int* hist)` — one global
/// `atomicAdd` per thread on the bin named by the input value (the
/// canonical CUDA histogram without shared-memory privatization, which
/// is also what the Descend version compiles to).
pub fn histogram(n: usize, bs: usize, bins: usize) -> KernelIr {
    KernelIr {
        name: "histogram".into(),
        params: vec![i32_param(n, false), i32_param(bins, true)],
        shared: vec![],
        body: vec![Stmt::AtomicGlobal {
            op: AtomicOp::Add,
            buf: 1,
            idx: Expr::bin(
                BinOp::Mod,
                Expr::LoadGlobal {
                    buf: 0,
                    idx: Box::new(Expr::add(Expr::mul(bid_x(), lit(bs as i64)), tid_x())),
                },
                lit(bins as i64),
            ),
            value: lit(1),
        }],
    }
}

/// The buggy non-atomic histogram, transcribed statement-for-statement
/// from `examples/descend/fail/nonatomic_histogram.descend`:
/// `hist[0] = hist[0] + in[bid*bs + tid]` as a plain load/add/store —
/// every thread read-modify-writes the same bin, so the dynamic race
/// oracle must flag it (the static checker already rejects the source
/// with a narrowing violation).
pub fn histogram_racy(n: usize, bs: usize, bins: usize) -> KernelIr {
    KernelIr {
        name: "histogram_racy".into(),
        params: vec![i32_param(n, false), i32_param(bins, true)],
        shared: vec![],
        body: vec![Stmt::StoreGlobal {
            buf: 1,
            idx: lit(0),
            value: Expr::add(
                Expr::LoadGlobal {
                    buf: 1,
                    idx: Box::new(lit(0)),
                },
                Expr::LoadGlobal {
                    buf: 0,
                    idx: Box::new(Expr::add(Expr::mul(bid_x(), lit(bs as i64)), tid_x())),
                },
            ),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Gpu, LaunchConfig};

    fn race_checked() -> LaunchConfig {
        LaunchConfig {
            detect_races: true,
            ..LaunchConfig::default()
        }
    }

    #[test]
    fn baseline_reduce_sums() {
        let (n, bs) = (2048, 512);
        let k = reduce(n, bs);
        let data: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let mut gpu = Gpu::new();
        let inp = gpu.alloc_f64(&data);
        let out = gpu.alloc_f64(&vec![0.0; n / bs]);
        gpu.launch(
            &k,
            [(n / bs) as u64, 1, 1],
            [bs as u64, 1, 1],
            &[inp, out],
            &race_checked(),
        )
        .unwrap();
        let sums = gpu.read_f64(out);
        for b in 0..n / bs {
            let expect: f64 = data[b * bs..(b + 1) * bs].iter().sum();
            assert_eq!(sums[b], expect);
        }
    }

    /// The unrolling ablation behind Figure 8: the baselines unroll the
    /// halving loop as `nvcc -O3` (and Descend's for-nat) does. A real
    /// loop computes the same sums with the same memory traffic and
    /// barriers and pays only for its bookkeeping, so the parity the
    /// figure reports is not an artifact of unrolling.
    #[test]
    fn looped_reduce_matches_unrolled() {
        let bs = 512;
        // (n, [unrolled, looped] cycles, [unrolled, looped] instructions)
        for (n, cycles, instructions) in [
            (1024, [2_604, 3_996], [2_224, 5_008]),
            (1 << 15, [5_208, 7_992], [71_168, 160_256]),
        ] {
            let data: Vec<f64> = (0..n).map(|i| (i % 9) as f64).collect();
            let mut results = Vec::new();
            let mut stats = Vec::new();
            for k in [reduce(n, bs), reduce_looped(n, bs)] {
                let mut gpu = Gpu::new();
                let inp = gpu.alloc_f64(&data);
                let out = gpu.alloc_f64(&vec![0.0; n / bs]);
                stats.push(
                    gpu.launch(
                        &k,
                        [(n / bs) as u64, 1, 1],
                        [bs as u64, 1, 1],
                        &[inp, out],
                        &race_checked(),
                    )
                    .unwrap(),
                );
                results.push(gpu.read_f64(out));
            }
            assert_eq!(results[0], results[1]);
            let traffic = |s: &gpu_sim::LaunchStats| {
                [
                    s.global_transactions,
                    s.global_accesses,
                    s.shared_replays,
                    s.shared_accesses,
                    s.barriers,
                    s.blocks,
                ]
            };
            assert_eq!(traffic(&stats[0]), traffic(&stats[1]), "n = {n}");
            assert_eq!([stats[0].cycles, stats[1].cycles], cycles, "n = {n}");
            assert_eq!(
                [stats[0].instructions, stats[1].instructions],
                instructions,
                "n = {n}"
            );
        }
    }

    #[test]
    fn baseline_transpose_correct_and_clean() {
        let n = 64;
        let k = transpose(n);
        let data: Vec<f64> = (0..n * n).map(|i| i as f64).collect();
        let mut gpu = Gpu::new();
        let inp = gpu.alloc_f64(&data);
        let out = gpu.alloc_f64(&vec![0.0; n * n]);
        gpu.launch(
            &k,
            [(n / 32) as u64, (n / 32) as u64, 1],
            [32, 8, 1],
            &[inp, out],
            &race_checked(),
        )
        .unwrap();
        let res = gpu.read_f64(out);
        for r in 0..n {
            for c in 0..n {
                assert_eq!(res[r * n + c], data[c * n + r]);
            }
        }
    }

    /// Listing 1's missing parenthesis produces a data race the dynamic
    /// detector reports (the static checker rejects the Descend analog).
    #[test]
    fn buggy_transpose_races() {
        let n = 64;
        let k = transpose_buggy(n);
        let mut gpu = Gpu::new();
        let inp = gpu.alloc_f64(&vec![1.0; n * n]);
        let out = gpu.alloc_f64(&vec![0.0; n * n]);
        let err = gpu
            .launch(
                &k,
                [(n / 32) as u64, (n / 32) as u64, 1],
                [32, 8, 1],
                &[inp, out],
                &race_checked(),
            )
            .unwrap_err();
        assert!(matches!(err, gpu_sim::SimError::DataRace(_)), "got {err}");
    }

    #[test]
    fn baseline_scan_pipeline_is_inclusive_scan() {
        let (n, bs) = (2048usize, 512usize);
        let nb = n / bs;
        let data: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64).collect();
        let mut gpu = Gpu::new();
        let io = gpu.alloc_f64(&data);
        let sums = gpu.alloc_f64(&vec![0.0; nb]);
        gpu.launch(
            &scan_blocks(n, bs),
            [nb as u64, 1, 1],
            [bs as u64, 1, 1],
            &[io, sums],
            &race_checked(),
        )
        .unwrap();
        // Host-side exclusive scan of the block sums.
        let block_sums = gpu.read_f64(sums);
        let mut offsets = vec![0.0; nb];
        for b in 1..nb {
            offsets[b] = offsets[b - 1] + block_sums[b - 1];
        }
        let offs = gpu.alloc_f64(&offsets);
        gpu.launch(
            &scan_add_offsets(n, bs),
            [nb as u64, 1, 1],
            [bs as u64, 1, 1],
            &[io, offs],
            &race_checked(),
        )
        .unwrap();
        let result = gpu.read_f64(io);
        let mut acc = 0.0;
        for i in 0..n {
            acc += data[i];
            assert_eq!(result[i], acc, "prefix {i}");
        }
    }

    #[test]
    fn baseline_matmul_matches_reference() {
        let n = 64;
        let k = matmul(n);
        let a: Vec<f64> = (0..n * n).map(|i| ((i * 7) % 5) as f64).collect();
        let b: Vec<f64> = (0..n * n).map(|i| ((i * 3) % 4) as f64).collect();
        let mut gpu = Gpu::new();
        let da = gpu.alloc_f64(&a);
        let db = gpu.alloc_f64(&b);
        let dc = gpu.alloc_f64(&vec![0.0; n * n]);
        gpu.launch(
            &k,
            [(n / 32) as u64, (n / 32) as u64, 1],
            [32, 32, 1],
            &[da, db, dc],
            &race_checked(),
        )
        .unwrap();
        let c = gpu.read_f64(dc);
        for r in 0..n {
            for col in 0..n {
                let mut expect = 0.0;
                for kk in 0..n {
                    expect += a[r * n + kk] * b[kk * n + col];
                }
                assert_eq!(c[r * n + col], expect);
            }
        }
    }
}
