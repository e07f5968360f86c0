//! The per-iteration reference lowering that the index table's
//! instantiation is checked against (substitution *before* lowering).
//!
//! [`unrolled`] replaces every rolled loop of a kernel with one copy of
//! its body per iteration, iteration `v` of a loop over `x` reading each
//! index step `Index(x)` as `Index(v)` — the meaning `ElabStmt::ForNat`
//! documents. The result has no loops, so lowering it to IR lowers every
//! access with its loop values already in its path.

use descend::ast::Nat;
use descend::codegen::{kernel_to_ir, IndexTable};
use descend::places::PathStep;
use descend::sim::KernelIr;
use descend::typeck::{ElabAccess, ElabExpr, ElabStmt, MonoKernel};

/// `k` with every rolled loop unrolled at the elaborated level.
pub fn unrolled(k: &MonoKernel) -> MonoKernel {
    MonoKernel {
        body: unroll(&k.body),
        ..k.clone()
    }
}

/// The IR of `k` lowered per iteration: [`unrolled`], then the IR
/// lowering.
pub fn reference_ir(k: &MonoKernel) -> KernelIr {
    let flat = unrolled(k);
    kernel_to_ir(&flat, &mut IndexTable::new(&flat))
        .unwrap_or_else(|e| panic!("`{}`: reference lowering: {e}", k.name))
}

fn unroll(body: &[ElabStmt]) -> Vec<ElabStmt> {
    let mut out = Vec::new();
    for s in body {
        match s {
            ElabStmt::ForNat { var, lo, hi, body } => {
                for v in *lo..*hi {
                    let mut copy = body.clone();
                    for s in &mut copy {
                        bind_stmt(s, var, v);
                    }
                    out.extend(unroll(&copy));
                }
            }
            ElabStmt::Split {
                space,
                dim,
                threshold,
                fst,
                snd,
            } => out.push(ElabStmt::Split {
                space: *space,
                dim: *dim,
                threshold: *threshold,
                fst: unroll(fst),
                snd: unroll(snd),
            }),
            other => out.push(other.clone()),
        }
    }
    out
}

fn bind_stmt(s: &mut ElabStmt, var: &str, v: u64) {
    match s {
        ElabStmt::Local { init: e, .. } | ElabStmt::AssignLocal { value: e, .. } => {
            bind_expr(e, var, v)
        }
        ElabStmt::Store { access, value } => {
            bind_access(access, var, v);
            bind_expr(value, var, v);
        }
        ElabStmt::Atomic {
            access,
            index,
            value,
            ..
        } => {
            bind_access(access, var, v);
            if let Some(i) = index {
                bind_expr(i, var, v);
            }
            bind_expr(value, var, v);
        }
        ElabStmt::Split { fst, snd, .. } => {
            for s in fst.iter_mut().chain(snd) {
                bind_stmt(s, var, v);
            }
        }
        // An inner loop over the same name shadows `var`.
        ElabStmt::ForNat {
            var: inner, body, ..
        } if inner != var => {
            for s in body {
                bind_stmt(s, var, v);
            }
        }
        ElabStmt::ForNat { .. } | ElabStmt::Sync | ElabStmt::Src(_) => {}
    }
}

fn bind_expr(e: &mut ElabExpr, var: &str, v: u64) {
    match e {
        ElabExpr::Load(a) => bind_access(a, var, v),
        ElabExpr::Binary(_, a, b) => {
            bind_expr(a, var, v);
            bind_expr(b, var, v);
        }
        ElabExpr::Unary(_, a) | ElabExpr::Shfl { value: a, .. } => bind_expr(a, var, v),
        ElabExpr::Lit(..) | ElabExpr::Local(_) => {}
    }
}

fn bind_access(a: &mut ElabAccess, var: &str, v: u64) {
    for step in &mut a.path.steps {
        if matches!(step, PathStep::Index(Nat::Var(x)) if x == var) {
            *step = PathStep::Index(Nat::Lit(v));
        }
    }
}
