//! Lowering of elaborated kernels to the simulator IR.

use descend_ast::term::{AtomicOp as AstAtomicOp, BinOp as AstBinOp, ShflKind, UnOp as AstUnOp};
use descend_ast::ty::DimCompo;
use descend_exec::{Space, WARP_SIZE};
use descend_places::{lower_scalar_access, Coord, IdxExpr, DYN_IDX};
use descend_typeck::{ElabAccess, ElabExpr, ElabStmt, MemKind, MonoKernel, ScalarKind};
use gpu_sim::ir::{
    AtomicOp, Axis, BinOp, ElemTy, Expr, KernelIr, ParamDecl, SharedDecl, ShflOp, Stmt, UnOp,
};
use std::collections::HashMap;
use std::fmt;

/// Lowering errors. A type-checked kernel should always lower; failures
/// indicate elaboration bugs or intentionally unsupported constructs.
#[derive(Clone, Debug, PartialEq)]
pub enum CodegenError {
    /// A place path could not be lowered to a flat index.
    Lowering(String),
    /// An unresolved local variable.
    UnknownLocal(String),
    /// A loop variable survived unrolling (should not happen).
    ResidualVar(String),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Lowering(m) => write!(f, "cannot lower access: {m}"),
            CodegenError::UnknownLocal(n) => write!(f, "unknown local `{n}`"),
            CodegenError::ResidualVar(n) => {
                write!(f, "nat variable `{n}` survived unrolling")
            }
        }
    }
}

impl std::error::Error for CodegenError {}

/// Maps a scalar kind to the IR element type.
pub fn elem_ty(k: ScalarKind) -> ElemTy {
    match k {
        ScalarKind::F64 => ElemTy::F64,
        ScalarKind::F32 => ElemTy::F32,
        ScalarKind::I32 => ElemTy::I32,
        ScalarKind::U32 => ElemTy::U32,
        ScalarKind::Bool => ElemTy::Bool,
    }
}

/// Maps a surface atomic operation to the IR operation.
pub fn atomic_op(op: AstAtomicOp) -> AtomicOp {
    match op {
        AstAtomicOp::Add => AtomicOp::Add,
        AstAtomicOp::Min => AtomicOp::Min,
        AstAtomicOp::Max => AtomicOp::Max,
        AstAtomicOp::Exch => AtomicOp::Exch,
    }
}

fn axis(d: DimCompo) -> Axis {
    match d {
        DimCompo::X => Axis::X,
        DimCompo::Y => Axis::Y,
        DimCompo::Z => Axis::Z,
    }
}

/// Maps a surface shuffle kind to the IR operation.
pub fn shfl_op(kind: ShflKind) -> ShflOp {
    match kind {
        ShflKind::Down => ShflOp::Down,
        ShflKind::Xor => ShflOp::Xor,
    }
}

/// The raw coordinate expression of an execution space along a
/// dimension. Block and thread coordinates are hardware builtins; warp
/// and lane coordinates (from `to_warps`, which fixes the dimension to
/// `X`) derive from `threadIdx.x` by division and modulo — the one
/// spelling every backend and the simulator share.
pub fn space_coord_expr(space: Space, dim: DimCompo) -> Expr {
    match space {
        Space::Block => Expr::BlockIdx(axis(dim)),
        Space::Thread => Expr::ThreadIdx(axis(dim)),
        Space::Warp => Expr::bin(
            BinOp::Div,
            Expr::ThreadIdx(Axis::X),
            Expr::LitI(WARP_SIZE as i64),
        ),
        Space::Lane => Expr::bin(
            BinOp::Mod,
            Expr::ThreadIdx(Axis::X),
            Expr::LitI(WARP_SIZE as i64),
        ),
    }
}

/// Lowers one elaborated access to its flat element-index expression:
/// the reverse-order view lowering of
/// [`descend_places::lower_scalar_access`], converted to IR.
///
/// This is the *only* path from an access to an index expression — the
/// kernel lowering calls it for every load, store and atomic, and every
/// backend calls it for the text it prints — so the simulator and all
/// emitted targets share one lowering by construction.
///
/// `dyn_index` is the runtime index of an atomic scatter, spliced in
/// place of the [`DYN_IDX`] sentinel (the kernel lowering passes the
/// lowered index value, the emitters the temporary they bound it to);
/// `None` for every statically addressed access.
///
/// # Errors
///
/// [`CodegenError::Lowering`] when the path cannot be flattened,
/// [`CodegenError::ResidualVar`] when an index variable other than a
/// supplied scatter index survives.
pub fn access_index_expr(a: &ElabAccess, dyn_index: Option<&Expr>) -> Result<Expr, CodegenError> {
    let idx = lower_scalar_access(&a.path, &a.root_dims)
        .map_err(|e| CodegenError::Lowering(e.to_string()))?;
    idx_to_expr(&idx, dyn_index)
}

fn idx_to_expr(idx: &IdxExpr, dyn_index: Option<&Expr>) -> Result<Expr, CodegenError> {
    Ok(match idx {
        IdxExpr::Const(v) => Expr::LitI(*v as i64),
        IdxExpr::Var(x) => match dyn_index {
            Some(e) if x == DYN_IDX => e.clone(),
            _ => return Err(CodegenError::ResidualVar(x.clone())),
        },
        IdxExpr::Coord(Coord { space, dim, offset }) => {
            let base = space_coord_expr(*space, *dim);
            match offset.as_lit() {
                Some(0) => base,
                Some(o) => Expr::sub(base, Expr::LitI(o as i64)),
                None => {
                    return Err(CodegenError::Lowering(format!(
                        "non-literal coordinate offset `{offset}`"
                    )))
                }
            }
        }
        IdxExpr::Add(a, b) => Expr::add(idx_to_expr(a, dyn_index)?, idx_to_expr(b, dyn_index)?),
        IdxExpr::Sub(a, b) => Expr::sub(idx_to_expr(a, dyn_index)?, idx_to_expr(b, dyn_index)?),
        IdxExpr::Mul(a, b) => Expr::mul(idx_to_expr(a, dyn_index)?, idx_to_expr(b, dyn_index)?),
    })
}

fn bin_op(op: AstBinOp) -> BinOp {
    match op {
        AstBinOp::Add => BinOp::Add,
        AstBinOp::Sub => BinOp::Sub,
        AstBinOp::Mul => BinOp::Mul,
        AstBinOp::Div => BinOp::Div,
        AstBinOp::Mod => BinOp::Mod,
        AstBinOp::Lt => BinOp::Lt,
        AstBinOp::Le => BinOp::Le,
        AstBinOp::Gt => BinOp::Gt,
        AstBinOp::Ge => BinOp::Ge,
        AstBinOp::Eq => BinOp::Eq,
        AstBinOp::Ne => BinOp::Ne,
        AstBinOp::And => BinOp::And,
        AstBinOp::Or => BinOp::Or,
    }
}

fn un_op(op: AstUnOp) -> UnOp {
    match op {
        AstUnOp::Neg => UnOp::Neg,
        AstUnOp::Not => UnOp::Not,
    }
}

struct LowerCx {
    /// Live name -> local slot (rebinding allocates a fresh slot).
    locals: HashMap<String, usize>,
    /// The one slot counter: named locals and shuffle temporaries both
    /// take the next slot, in lowering order.
    next_slot: usize,
}

impl LowerCx {
    fn fresh_slot(&mut self) -> usize {
        let slot = self.next_slot;
        self.next_slot += 1;
        slot
    }

    fn slot_of(&self, name: &str) -> Result<usize, CodegenError> {
        self.locals
            .get(name)
            .copied()
            .ok_or_else(|| CodegenError::UnknownLocal(name.to_string()))
    }

    /// Lowers a value expression, extracting every contained shuffle
    /// into a preceding [`Stmt::Shfl`] on a fresh temporary slot (depth
    /// first, so nested shuffles exchange in operand order): a shuffle
    /// is a warp-synchronous *instruction*, not a pure expression.
    fn expr_in(&mut self, e: &ElabExpr, out: &mut Vec<Stmt>) -> Result<Expr, CodegenError> {
        Ok(match e {
            ElabExpr::Lit(kind, v) => match kind {
                ScalarKind::F64 | ScalarKind::F32 => Expr::LitF(*v),
                ScalarKind::I32 | ScalarKind::U32 => Expr::LitI(*v as i64),
                ScalarKind::Bool => Expr::LitB(*v != 0.0),
            },
            ElabExpr::Local(name) => Expr::Local(self.slot_of(name)?),
            ElabExpr::Load(access) => {
                let idx = Box::new(access_index_expr(access, None)?);
                match access.mem {
                    MemKind::GlobalParam(i) => Expr::LoadGlobal { buf: i, idx },
                    MemKind::Shared(i) => Expr::LoadShared { buf: i, idx },
                }
            }
            ElabExpr::Binary(op, a, b) => {
                Expr::bin(bin_op(*op), self.expr_in(a, out)?, self.expr_in(b, out)?)
            }
            ElabExpr::Unary(op, a) => Expr::Un(un_op(*op), Box::new(self.expr_in(a, out)?)),
            ElabExpr::Shfl { kind, value, delta } => {
                let value = self.expr_in(value, out)?;
                let slot = self.fresh_slot();
                out.push(Stmt::Shfl {
                    dst: slot,
                    op: shfl_op(*kind),
                    value,
                    delta: *delta,
                });
                Expr::Local(slot)
            }
        })
    }

    fn stmts(&mut self, body: &[ElabStmt]) -> Result<Vec<Stmt>, CodegenError> {
        let mut out = Vec::new();
        for s in body {
            match s {
                ElabStmt::Local { name, init, .. } => {
                    let init = self.expr_in(init, &mut out)?;
                    let slot = self.fresh_slot();
                    self.locals.insert(name.clone(), slot);
                    out.push(Stmt::SetLocal(slot, init));
                }
                ElabStmt::AssignLocal { name, value } => {
                    let value = self.expr_in(value, &mut out)?;
                    out.push(Stmt::SetLocal(self.slot_of(name)?, value));
                }
                ElabStmt::Store { access, value } => {
                    let value = self.expr_in(value, &mut out)?;
                    let idx = access_index_expr(access, None)?;
                    out.push(match access.mem {
                        MemKind::GlobalParam(i) => Stmt::StoreGlobal { buf: i, idx, value },
                        MemKind::Shared(i) => Stmt::StoreShared { buf: i, idx, value },
                    });
                }
                ElabStmt::Split {
                    space,
                    dim,
                    threshold,
                    fst,
                    snd,
                } => {
                    let coord = space_coord_expr(*space, *dim);
                    let cond = Expr::lt(coord, Expr::LitI(*threshold as i64));
                    let then_s = self.stmts(fst)?;
                    let else_s = self.stmts(snd)?;
                    out.push(Stmt::If {
                        cond,
                        then_s,
                        else_s,
                    });
                }
                ElabStmt::Atomic {
                    op,
                    access,
                    index,
                    value,
                } => {
                    let value = self.expr_in(value, &mut out)?;
                    let index = match index {
                        Some(ie) => Some(self.expr_in(ie, &mut out)?),
                        None => None,
                    };
                    let idx = access_index_expr(access, index.as_ref())?;
                    let op = atomic_op(*op);
                    out.push(match access.mem {
                        MemKind::GlobalParam(i) => Stmt::AtomicGlobal {
                            op,
                            buf: i,
                            idx,
                            value,
                        },
                        MemKind::Shared(i) => Stmt::AtomicShared {
                            op,
                            buf: i,
                            idx,
                            value,
                        },
                    });
                }
                ElabStmt::Sync => out.push(Stmt::Barrier),
                ElabStmt::Src(span) => out.push(Stmt::Src(descend_trace::SrcSpan {
                    start: span.start,
                    end: span.end,
                })),
            }
        }
        Ok(out)
    }
}

/// Lowers one elaborated kernel to the simulator IR.
///
/// # Errors
///
/// See [`CodegenError`]; does not occur for kernels produced by the type
/// checker from supported programs.
pub fn kernel_to_ir(k: &MonoKernel) -> Result<KernelIr, CodegenError> {
    let mut cx = LowerCx {
        locals: HashMap::new(),
        next_slot: 0,
    };
    let body = cx.stmts(&k.body)?;
    Ok(KernelIr {
        name: k.name.clone(),
        params: k
            .params
            .iter()
            .map(|p| ParamDecl {
                elem: elem_ty(p.elem),
                len: p.dims.iter().product(),
                writable: p.uniq,
            })
            .collect(),
        shared: k
            .shared
            .iter()
            .map(|s| SharedDecl {
                elem: elem_ty(s.elem),
                len: s.dims.iter().product(),
            })
            .collect(),
        body,
    })
}
