//! Cross-backend consistency: every backend's emitted text embeds the
//! index expressions the simulator IR executes.
//!
//! That the text and the IR are *built* from one lowering needs no test:
//! `descend_codegen::ir_gen::access_index_expr` is the only function
//! that turns an access into an index, for the simulator and for all
//! four emitters. What is checked here, over the whole `.descend` corpus
//! and the paper's benchmark sources, is the printing: for each backend,
//! its rendering of every index in the lowered `KernelIr` appears
//! verbatim in that backend's kernel text — no emitter has a private
//! index printer that could drift.
//!
//! Rolled for-nat loops print once, with the loop variable in the
//! index, while the IR runs one unrolled copy per iteration. For an
//! access inside a rolled loop the symbolic index must be printed, and
//! its value at every iteration and every coordinate of the launch must
//! equal the index the IR executes in that iteration; every IR index
//! must be either printed verbatim or one of those iteration indices.
use descend::ast::ty::DimCompo;
use descend::backends::{all_backends, emitted_index, ir_index_exprs, render_ir_expr, IndexNames};
use descend::codegen::ir_gen::access_index_expr;
use descend::compiler::{Compiled, Compiler};
use descend::exec::Space;
use descend::places::lower_scalar_access;
use descend::sim::ir::{Axis, BinOp, Expr};
use descend::typeck::{ElabAccess, ElabExpr, ElabStmt};
use std::path::PathBuf;

fn corpus_sources() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/descend");
    let mut out: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "descend"))
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&p).unwrap(),
            )
        })
        .collect();
    out.sort();
    for (name, src) in [
        ("bench:reduce", descend::benchmarks::sources::reduce(2048)),
        (
            "bench:transpose",
            descend::benchmarks::sources::transpose(256),
        ),
        ("bench:matmul", descend::benchmarks::sources::matmul(64)),
        (
            "bench:scan",
            descend::benchmarks::sources::scan_blocks(1 << 12),
        ),
        (
            "bench:reduce_shuffle",
            descend::benchmarks::sources::reduce_shuffle(2048),
        ),
    ] {
        out.push((name.to_string(), src));
    }
    out
}

/// An access inside rolled loops: the loops' variables and ranges,
/// outermost first.
struct RolledAccess<'k> {
    loops: Vec<(&'k str, u64, u64)>,
    access: &'k ElabAccess,
}

/// Every statically addressed access inside a rolled loop (scatter
/// targets bind their index to a temporary, as outside loops).
fn rolled_accesses(body: &[ElabStmt]) -> Vec<RolledAccess<'_>> {
    fn stmts<'k>(
        body: &'k [ElabStmt],
        loops: &mut Vec<(&'k str, u64, u64)>,
        out: &mut Vec<RolledAccess<'k>>,
    ) {
        for s in body {
            let mut here = Vec::new();
            match s {
                ElabStmt::ForNat { var, lo, hi, body } => {
                    loops.push((var, *lo, *hi));
                    stmts(body, loops, out);
                    loops.pop();
                }
                ElabStmt::Split { fst, snd, .. } => {
                    stmts(fst, loops, out);
                    stmts(snd, loops, out);
                }
                ElabStmt::Local { init: e, .. } | ElabStmt::AssignLocal { value: e, .. } => {
                    collect_loads(e, &mut here)
                }
                ElabStmt::Store { access, value } => {
                    here.push(access);
                    collect_loads(value, &mut here);
                }
                ElabStmt::Atomic {
                    access,
                    index,
                    value,
                    ..
                } => {
                    match index {
                        None => here.push(access),
                        Some(i) => collect_loads(i, &mut here),
                    }
                    collect_loads(value, &mut here);
                }
                ElabStmt::Sync | ElabStmt::Src(_) => {}
            }
            if !loops.is_empty() {
                out.extend(here.into_iter().map(|access| RolledAccess {
                    loops: loops.clone(),
                    access,
                }));
            }
        }
    }
    fn collect_loads<'k>(e: &'k ElabExpr, out: &mut Vec<&'k ElabAccess>) {
        match e {
            ElabExpr::Load(a) => out.push(a),
            ElabExpr::Binary(_, a, b) => {
                collect_loads(a, out);
                collect_loads(b, out);
            }
            ElabExpr::Unary(_, a) | ElabExpr::Shfl { value: a, .. } => collect_loads(a, out),
            ElabExpr::Lit(..) | ElabExpr::Local(_) => {}
        }
    }
    let mut out = Vec::new();
    stmts(body, &mut Vec::new(), &mut out);
    out
}

/// Every combination of loop values, outermost varying slowest.
fn iterations(loops: &[(&str, u64, u64)]) -> Vec<Vec<u64>> {
    loops.iter().fold(vec![Vec::new()], |acc, &(_, lo, hi)| {
        acc.iter()
            .flat_map(|prefix| {
                (lo..hi).map(move |v| {
                    let mut p = prefix.clone();
                    p.push(v);
                    p
                })
            })
            .collect()
    })
}

/// Every (block, thread) coordinate of a launch.
fn coordinates(grid: [u64; 3], block: [u64; 3]) -> Vec<([u64; 3], [u64; 3])> {
    let points = |d: [u64; 3]| {
        (0..d[2]).flat_map(move |z| (0..d[1]).flat_map(move |y| (0..d[0]).map(move |x| [x, y, z])))
    };
    points(grid)
        .flat_map(|b| points(block).map(move |t| (b, t)))
        .collect()
}

/// Evaluates an index expression of the IR at one coordinate.
fn eval_ir(e: &Expr, b: [u64; 3], t: [u64; 3], dims: ([u64; 3], [u64; 3])) -> i64 {
    let axis = |a: Axis| match a {
        Axis::X => 0,
        Axis::Y => 1,
        Axis::Z => 2,
    };
    match e {
        Expr::LitI(v) => *v,
        Expr::BlockIdx(a) => b[axis(*a)] as i64,
        Expr::ThreadIdx(a) => t[axis(*a)] as i64,
        Expr::GridDim(a) => dims.0[axis(*a)] as i64,
        Expr::BlockDim(a) => dims.1[axis(*a)] as i64,
        Expr::Bin(op, x, y) => {
            let (x, y) = (eval_ir(x, b, t, dims), eval_ir(y, b, t, dims));
            match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Mod => x % y,
                other => panic!("unexpected operator {other:?} in an index"),
            }
        }
        other => panic!("unexpected node {other:?} in a static index"),
    }
}

fn check_program(name: &str, compiled: &Compiled) -> usize {
    let backends = all_backends();
    let mut rolled_checked = 0;
    for ck in &compiled.kernels {
        let k = &ck.mono;
        // Every index the simulator executes and the emitters print
        // inline: loads, stores and static atomic targets (scatter
        // atomics bind their index to an emitted temporary; the
        // `atomic_addresses_share_the_lowering` test pins that form).
        let inline = ir_index_exprs(&ck.ir);
        assert!(
            !inline.is_empty(),
            "{name}/{}: kernel without memory accesses",
            k.name
        );
        // Each rolled access, per iteration: the index the IR executes,
        // equal to the symbolic index evaluated at that iteration at
        // every coordinate of the launch.
        let rolled = rolled_accesses(&k.body);
        let coords = coordinates(k.grid_dim, k.block_dim);
        let mut iteration_indices = Vec::new();
        for r in &rolled {
            let symbolic = lower_scalar_access(&r.access.path, &r.access.root_dims)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", k.name));
            for values in iterations(&r.loops) {
                let bound: Vec<(&str, u64)> = r
                    .loops
                    .iter()
                    .map(|l| l.0)
                    .zip(values.iter().copied())
                    .collect();
                let ir_index = access_index_expr(r.access, &bound, &|_| None)
                    .unwrap_or_else(|e| panic!("{name}/{}: {e}", k.name));
                for &(b, t) in &coords {
                    let space = |s: Space, d: DimCompo| {
                        let i = match d {
                            DimCompo::X => 0,
                            DimCompo::Y => 1,
                            DimCompo::Z => 2,
                        };
                        match s {
                            Space::Block => b[i],
                            Space::Thread => t[i],
                            Space::Warp => t[0] / 32,
                            Space::Lane => t[0] % 32,
                        }
                    };
                    let var = |x: &str| bound.iter().find(|(y, _)| *y == x).map(|(_, v)| *v);
                    let at = symbolic
                        .eval(&space, &var)
                        .unwrap_or_else(|e| panic!("{name}/{}: {e}", k.name));
                    assert_eq!(
                        at as i64,
                        eval_ir(&ir_index, b, t, (k.grid_dim, k.block_dim)),
                        "{name}/{}: rolled index `{symbolic}` at {bound:?}, block {b:?}, \
                         thread {t:?}",
                        k.name
                    );
                }
                iteration_indices.push(ir_index);
            }
        }
        rolled_checked += rolled.len();
        for be in &backends {
            let text = &ck.targets[be.name()];
            // The symbolic index of every rolled access is printed.
            for r in &rolled {
                let loops: Vec<&str> = r.loops.iter().map(|l| l.0).collect();
                let e = emitted_index(r.access, &loops, false).expect("lowers");
                let mut rendered = String::new();
                let names = IndexNames {
                    loops: &loops,
                    scatter: None,
                };
                render_ir_expr(be.as_ref(), &e, k, names, &mut rendered);
                assert!(
                    text.contains(&format!("[{rendered}]")),
                    "{name}/{}: backend `{}` text lacks rolled index `{rendered}`:\n{text}",
                    k.name,
                    be.name()
                );
            }
            // Every index the IR executes is printed verbatim, or is a
            // rolled access's index at one iteration.
            for e in &inline {
                let mut rendered = String::new();
                render_ir_expr(be.as_ref(), e, k, IndexNames::default(), &mut rendered);
                assert!(
                    text.contains(&format!("[{rendered}]")) || iteration_indices.contains(e),
                    "{name}/{}: backend `{}` text lacks index `{rendered}`:\n{text}",
                    k.name,
                    be.name()
                );
            }
        }
    }
    rolled_checked
}

#[test]
fn all_backends_share_the_lowering_across_the_corpus() {
    let compiler = Compiler::new();
    let mut checked = 0;
    let mut rolled = Vec::new();
    for (name, src) in corpus_sources() {
        let compiled = compiler
            .compile_source(&src)
            .unwrap_or_else(|e| panic!("{name} failed to compile:\n{e}"));
        if check_program(&name, &compiled) > 0 {
            rolled.push(name);
        }
        checked += compiled.kernels.len();
    }
    assert!(
        checked >= 10,
        "expected a real corpus, saw {checked} kernels"
    );
    // The rolled-loop leg is not vacuous.
    assert_eq!(
        rolled,
        ["transpose_tiles.descend", "bench:transpose", "bench:matmul"]
    );
}

/// Backend selection: a compiler restricted to one backend emits only
/// that backend, and unknown names are rejected up front.
#[test]
fn backend_selection_is_validated_and_respected() {
    let src = r#"
fn scale(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v).group::<32>[[block]][[thread]] =
                (*v).group::<32>[[block]][[thread]] * 3.0;
        }
    }
}
"#;
    let wgsl_only = Compiler::with_backends(&["wgsl"]).expect("known backend");
    let compiled = wgsl_only.compile_source(src).expect("compiles");
    assert_eq!(compiled.targets().keys().collect::<Vec<_>>(), ["wgsl"]);
    assert!(compiled.cuda_source().is_empty());
    assert!(compiled.kernels[0].cuda().is_empty());
    assert!(compiled.kernels[0].targets["wgsl"].contains("@compute"));

    let err = Compiler::with_backends(&["metal"]).unwrap_err();
    assert!(err.contains("unknown backend `metal`"), "{err}");
}

/// The atomic corpus programs participate in the differential check, and
/// their atomic *target addresses* — including the data-dependent
/// scatter index — are one lowering across the simulator IR and every
/// backend's rendered call.
#[test]
fn atomic_addresses_share_the_lowering() {
    use descend::sim::ir::Stmt;
    let compiler = Compiler::new();
    let backends = all_backends();
    let mut atomic_kernels = 0;
    for name in [
        "histogram.descend",
        "reduce_atomic.descend",
        "argmin_shared.descend",
    ] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("examples/descend")
            .join(name);
        let src = std::fs::read_to_string(&path).unwrap();
        let compiled = compiler.compile_source(&src).expect("corpus compiles");
        for ck in &compiled.kernels {
            // Collect the atomic element-index expressions straight from
            // the simulator IR.
            fn atomic_idx(body: &[Stmt], out: &mut Vec<descend::sim::ir::Expr>) {
                for s in body {
                    match s {
                        Stmt::AtomicGlobal { idx, .. } | Stmt::AtomicShared { idx, .. } => {
                            out.push(idx.clone());
                        }
                        Stmt::If { then_s, else_s, .. } => {
                            atomic_idx(then_s, out);
                            atomic_idx(else_s, out);
                        }
                        Stmt::Loop { body, .. } => atomic_idx(body, out),
                        _ => {}
                    }
                }
            }
            let mut sim_side = Vec::new();
            atomic_idx(&ck.ir.body, &mut sim_side);
            if sim_side.is_empty() {
                continue;
            }
            atomic_kernels += 1;
            // Each backend's kernel text embeds the atomic address:
            // static targets render the IR expression inline; scatter
            // targets bind it once to a guarded `descend_idx_<n>`
            // temporary whose initializer is the same lowered
            // expression.
            for be in &backends {
                let text = &ck.targets[be.name()];
                for e in &sim_side {
                    let mut rendered = String::new();
                    render_ir_expr(
                        be.as_ref(),
                        e,
                        &ck.mono,
                        IndexNames::default(),
                        &mut rendered,
                    );
                    let inline_form = text.contains(&format!("[{rendered}]"));
                    let temp_form = text.contains(&format!("{rendered})"))
                        && text.contains("if (0 <= ")
                        && text.contains("descend_idx_");
                    assert!(
                        inline_form || temp_form,
                        "{name}/{}: backend `{}` lacks atomic address `{rendered}`:\n{text}",
                        ck.mono.name,
                        be.name()
                    );
                }
            }
        }
    }
    assert_eq!(atomic_kernels, 3, "all three atomic corpus kernels checked");
}

/// A scatter index that reads a *local*: where the simulator IR
/// addresses through the local's slot, every backend initializes the
/// scatter temporary from the named local, prints the target address
/// through the temporary, and guards the access.
#[test]
fn scatter_index_through_local_matches_ir_slots() {
    use descend::sim::ir::{Expr, Stmt};
    let src = r#"
fn k(a: &uniq gpu.global [i32; 64], inp: & gpu.global [i32; 64])
-[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            let unused = 7;
            let bin = (*inp)[[thread]] % 64;
            atomic_add(*a, bin, 1);
        }
    }
}
"#;
    let compiled = Compiler::new().compile_source(src).expect("compiles");
    let ck = &compiled.kernels[0];
    // `bin` is slot 1 (after `unused`).
    assert!(
        matches!(
            ck.ir.body.last(),
            Some(Stmt::AtomicGlobal {
                idx: Expr::Local(1),
                ..
            })
        ),
        "{:?}",
        ck.ir.body
    );
    for be in all_backends() {
        let text = &ck.targets[be.name()];
        // The C backend hoists thread-private locals into per-thread
        // arrays (`bin[__t]`), so its *use* spelling differs; the
        // bind-then-guard shape is the same.
        let local_use = if be.name() == "c" {
            "(bin[__t])"
        } else {
            "(bin)"
        };
        let tmp_use = be.scatter_index_use("descend_idx_0");
        assert!(
            text.contains(local_use)
                && text.contains(&format!("a[{tmp_use}]"))
                && text.contains("< 64) {"),
            "backend `{}` must bind, guard and name the local index:\n{text}",
            be.name()
        );
    }
}
