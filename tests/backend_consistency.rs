//! Cross-backend consistency: every backend's emitted text embeds the
//! index expressions the simulator IR executes.
//!
//! Each access of a kernel is lowered once, into the kernel's
//! `descend::codegen::IndexTable`; the simulator IR instantiates its
//! entries per iteration and all four emitters print them. Checked
//! here, over the whole `.descend` corpus and the paper's benchmark
//! sources:
//!
//! - *Folding.* The IR the table yields equals the IR of the same kernel
//!   with every rolled loop unrolled at the elaborated level, so that
//!   each access is lowered with its loop values already in its path
//!   (substitution before lowering, `support/unroll.rs`).
//! - *Printing.* For each backend, its rendering of every index in the
//!   lowered `KernelIr` appears verbatim in that backend's kernel text,
//!   so no emitter has a private index printer that could drift.
//! - *Walk order.* Rendering a kernel through all four backends reads
//!   every table entry exactly once, and a table built for another
//!   kernel is refused.
//!
//! Rolled for-nat loops print once, with the loop variable in the
//! index, while the IR runs one unrolled copy per iteration. For an
//! access inside a rolled loop the symbolic index must be printed, and
//! its value at every iteration and every coordinate of the launch must
//! equal the index the IR executes in that iteration; every IR index
//! must be either printed verbatim or one of those iteration indices.
use descend::ast::ty::DimCompo;
use descend::backends::{all_backends, render_ir_expr, CudaBackend, KernelBackend};
use descend::codegen::{kernel_to_ir, CodegenError, IndexTable};
use descend::compiler::{Compiled, Compiler};
use descend::exec::Space;
use descend::places::lower_scalar_access;
use descend::sim::ir::{Axis, BinOp, Expr, KernelIr, Stmt};
use descend::typeck::{ElabAccess, ElabExpr, ElabStmt};
use std::path::PathBuf;

#[path = "support/unroll.rs"]
mod unroll;

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

/// An access of a kernel body: the rolled loops around it (variables
/// and ranges, outermost first) and whether it is an atomic scatter
/// target.
struct BodyAccess<'k> {
    loops: Vec<(&'k str, u64, u64)>,
    access: &'k ElabAccess,
    scatter: bool,
}

/// Every access of a body, in the index table's walk order: statement
/// by statement, a statement's value expressions left to right, then
/// its own access.
fn body_accesses(body: &[ElabStmt]) -> Vec<BodyAccess<'_>> {
    fn stmts<'k>(
        body: &'k [ElabStmt],
        loops: &mut Vec<(&'k str, u64, u64)>,
        out: &mut Vec<BodyAccess<'k>>,
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
                    collect_loads(value, &mut here);
                    here.push((access, false));
                }
                ElabStmt::Atomic {
                    access,
                    index,
                    value,
                    ..
                } => {
                    collect_loads(value, &mut here);
                    if let Some(i) = index {
                        collect_loads(i, &mut here);
                    }
                    here.push((access, index.is_some()));
                }
                ElabStmt::Sync | ElabStmt::Src(_) => {}
            }
            out.extend(here.into_iter().map(|(access, scatter)| BodyAccess {
                loops: loops.clone(),
                access,
                scatter,
            }));
        }
    }
    fn collect_loads<'k>(e: &'k ElabExpr, out: &mut Vec<(&'k ElabAccess, bool)>) {
        match e {
            ElabExpr::Load(a) => out.push((a, false)),
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

/// Collects the index expressions of a simulator kernel that every
/// backend prints inline (bracketed): all loads and stores, plus the
/// targets of statically addressed atomics. A scatter atomic's address
/// carries its runtime index — recognised here by the load or local it
/// contains — and is printed through a bound, guarded temporary instead,
/// so it is left out; the loads *inside* it do appear inline (in the
/// temporary's initializer) and are included.
///
/// Each access contributes its index *as a unit*, without recursing
/// into it.
fn ir_index_exprs(ir: &KernelIr) -> Vec<Expr> {
    fn reads_data(e: &Expr) -> bool {
        match e {
            Expr::Local(_) | Expr::LoadGlobal { .. } | Expr::LoadShared { .. } => true,
            Expr::Bin(_, a, b) => reads_data(a) || reads_data(b),
            Expr::Un(_, a) => reads_data(a),
            _ => false,
        }
    }
    fn walk_expr(e: &Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::LoadGlobal { idx, .. } | Expr::LoadShared { idx, .. } => {
                out.push((**idx).clone());
            }
            Expr::Bin(_, a, b) => {
                walk_expr(a, out);
                walk_expr(b, out);
            }
            Expr::Un(_, a) => walk_expr(a, out),
            _ => {}
        }
    }
    fn walk_stmts(body: &[Stmt], out: &mut Vec<Expr>) {
        for s in body {
            match s {
                Stmt::SetLocal(_, e) | Stmt::Shfl { value: e, .. } => walk_expr(e, out),
                Stmt::StoreGlobal { idx, value, .. } | Stmt::StoreShared { idx, value, .. } => {
                    out.push(idx.clone());
                    walk_expr(value, out);
                }
                Stmt::AtomicGlobal { idx, value, .. } | Stmt::AtomicShared { idx, value, .. } => {
                    if !reads_data(idx) {
                        out.push(idx.clone());
                    }
                    // A scatter index may itself contain loads (the
                    // histogram reads its bin from memory).
                    walk_expr(idx, out);
                    walk_expr(value, out);
                }
                Stmt::If {
                    cond,
                    then_s,
                    else_s,
                } => {
                    walk_expr(cond, out);
                    walk_stmts(then_s, out);
                    walk_stmts(else_s, out);
                }
                Stmt::Loop {
                    init, bound, body, ..
                } => {
                    walk_expr(init, out);
                    walk_expr(bound, out);
                    walk_stmts(body, out);
                }
                Stmt::Barrier | Stmt::Src(_) => {}
            }
        }
    }
    let mut out = Vec::new();
    walk_stmts(&ir.body, &mut out);
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
        // Folding: binding the loop values after lowering (the table)
        // gives the IR that binding them before lowering gives.
        assert!(
            ck.ir == unroll::reference_ir(k),
            "{name}/{}: the IR differs from the per-iteration lowering",
            k.name
        );
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
        // The table's entries, read in walk order by this independent
        // walk; each rolled static access, per iteration: the index the
        // IR executes, equal to the symbolic index evaluated at that
        // iteration at every coordinate of the launch.
        let mut table = IndexTable::new(k);
        kernel_to_ir(k, &mut table).unwrap_or_else(|e| panic!("{name}/{}: {e}", k.name));
        table.start(k).expect("the kernel's own table");
        let coords = coordinates(k.grid_dim, k.block_dim);
        let mut iteration_indices = Vec::new();
        // Per rolled access: its loops' variables and printed index.
        let mut rolled = Vec::new();
        for r in body_accesses(&k.body) {
            let loops: Vec<&str> = r.loops.iter().map(|l| l.0).collect();
            let entry = table
                .next(r.access, &loops, r.scatter)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", k.name));
            if loops.is_empty() || r.scatter {
                continue;
            }
            let symbolic = lower_scalar_access(&r.access.path, &r.access.root_dims)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", k.name));
            for values in iterations(&r.loops) {
                let bound: Vec<(&str, u64)> =
                    loops.iter().copied().zip(values.iter().copied()).collect();
                let ir_index = entry
                    .instantiate(&bound, None)
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
            rolled.push((loops, entry.printed().expect("lowers").clone()));
        }
        table
            .finish()
            .unwrap_or_else(|e| panic!("{name}/{}: {e}", k.name));
        rolled_checked += rolled.len();
        for be in &backends {
            let text = &ck.targets[be.name()];
            // The symbolic index of every rolled access is printed.
            for (loops, printed) in &rolled {
                let mut rendered = String::new();
                render_ir_expr(be.as_ref(), printed, k, loops, None, &mut rendered);
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
                render_ir_expr(be.as_ref(), e, k, &[], None, &mut rendered);
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

/// Walk-order guard, over the pass corpus and the Figure-8 programs at
/// their trace sizes: each backend renders a kernel from its table,
/// reading every entry exactly once (a read out of order or an unread
/// entry is an error) to the text a compile emits, and refuses the
/// table of any other kernel, as does the IR lowering.
#[test]
fn every_backend_reads_each_table_entry_once() {
    use descend::benchmarks::sources;
    let mut programs: Vec<(String, String)> = corpus_sources()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("bench:"))
        .collect();
    for (name, src) in [
        ("fig8:reduce", sources::reduce(8192)),
        ("fig8:reduce_shfl", sources::reduce_shuffle(8192)),
        ("fig8:scan_blocks", sources::scan_blocks(4096)),
        ("fig8:scan_add", sources::scan_add_offsets(4096)),
        ("fig8:histogram", sources::histogram(1 << 13)),
        ("fig8:stencil", sources::stencil(8192)),
        ("fig8:transpose", sources::transpose(128)),
        ("fig8:mm", sources::matmul(64)),
    ] {
        programs.push((name.to_string(), src));
    }
    let compiler = Compiler::new();
    let compiled: Vec<(String, Compiled)> = programs
        .into_iter()
        .map(|(name, src)| {
            let c = compiler
                .compile_source(&src)
                .unwrap_or_else(|e| panic!("{name} failed to compile:\n{e}"));
            (name, c)
        })
        .collect();
    let kernels: Vec<(&str, &descend::compiler::CompiledKernel)> = compiled
        .iter()
        .flat_map(|(name, c)| c.kernels.iter().map(move |ck| (name.as_str(), ck)))
        .collect();
    let mut entries = 0;
    for (i, (name, ck)) in kernels.iter().enumerate() {
        let k = &ck.mono;
        // Filled by the IR lowering, read by each backend (each reading
        // every entry, or it fails), then read again by the IR lowering
        // (which fails if a backend appended an entry).
        let mut table = IndexTable::new(k);
        assert_eq!(
            kernel_to_ir(k, &mut table).expect("lowers"),
            ck.ir,
            "{name}"
        );
        for be in all_backends() {
            let text = be
                .emit_kernel(k, &mut table)
                .unwrap_or_else(|e| panic!("{name}/{}: {}: {e}", k.name, be.name()));
            assert_eq!(text, ck.targets[be.name()], "{name}: {}", be.name());
        }
        assert_eq!(
            kernel_to_ir(k, &mut table).expect("lowers"),
            ck.ir,
            "{name}"
        );
        // Filled by a backend, then read by the IR lowering.
        let mut table = IndexTable::new(k);
        CudaBackend.emit_kernel(k, &mut table).expect("emits");
        assert_eq!(
            kernel_to_ir(k, &mut table).expect("lowers"),
            ck.ir,
            "{name}"
        );
        entries += body_accesses(&k.body).len();
        let refused = |r: Result<String, CodegenError>| {
            assert!(
                matches!(r, Err(CodegenError::IndexTable(_))),
                "{name}: a foreign table was accepted"
            )
        };
        let (_, other) = kernels[(i + 1) % kernels.len()];
        for be in all_backends() {
            refused(be.emit_kernel(&other.mono, &mut table));
        }
        refused(kernel_to_ir(&other.mono, &mut table).map(|ir| format!("{ir:?}")));
        // Equal content is not enough: the table is the kernel's own.
        let copy = k.clone();
        refused(CudaBackend.emit_kernel(&copy, &mut IndexTable::new(k)));
    }
    assert!(
        kernels.len() >= 20 && entries >= 100,
        "{} kernels, {entries} entries",
        kernels.len()
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
                    render_ir_expr(be.as_ref(), e, &ck.mono, &[], None, &mut rendered);
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
