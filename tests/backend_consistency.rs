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

use descend::backends::{all_backends, ir_index_exprs, render_ir_expr};
use descend::compiler::{Compiled, Compiler};
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

fn check_program(name: &str, compiled: &Compiled) {
    let backends = all_backends();
    for ck in &compiled.kernels {
        // Every index the simulator executes and the emitters print
        // inline: loads, stores and static atomic targets (scatter
        // atomics bind their index to an emitted temporary; the
        // `atomic_addresses_share_the_lowering` test pins that form).
        let inline = ir_index_exprs(&ck.ir);
        assert!(
            !inline.is_empty(),
            "{name}/{}: kernel without memory accesses",
            ck.mono.name
        );
        for be in &backends {
            let text = &ck.targets[be.name()];
            for e in &inline {
                let mut rendered = String::new();
                render_ir_expr(be.as_ref(), e, &ck.mono, None, &mut rendered);
                assert!(
                    text.contains(&format!("[{rendered}]")),
                    "{name}/{}: backend `{}` text lacks index `{rendered}`:\n{text}",
                    ck.mono.name,
                    be.name()
                );
            }
        }
    }
}

#[test]
fn all_backends_share_the_lowering_across_the_corpus() {
    let compiler = Compiler::new();
    let mut checked = 0;
    for (name, src) in corpus_sources() {
        let compiled = compiler
            .compile_source(&src)
            .unwrap_or_else(|e| panic!("{name} failed to compile:\n{e}"));
        check_program(&name, &compiled);
        checked += compiled.kernels.len();
    }
    assert!(
        checked >= 10,
        "expected a real corpus, saw {checked} kernels"
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
                    render_ir_expr(be.as_ref(), e, &ck.mono, None, &mut rendered);
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
