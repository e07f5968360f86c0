//! The shared rendering layer every backend emits through.
//!
//! Index expressions are built exactly once, by
//! [`descend_codegen::ir_gen::access_index_expr`] — the same function the
//! simulator IR is lowered with. [`render_ir_expr`] then prints the
//! expression with backend-supplied coordinate spellings, so no backend
//! owns a private copy of index lowering or index printing and every
//! target's text is structurally the expression the simulator executes.

use crate::KernelBackend;
use descend_ast::term::BinOp as AstBinOp;
use descend_ast::term::UnOp as AstUnOp;
use descend_ast::ty::DimCompo;
use descend_codegen::ir_gen::access_index_expr;
use descend_codegen::CodegenError;
use descend_exec::Space;
use descend_typeck::{ElabAccess, ElabExpr, ElabStmt, HostStmt, MemKind, MonoKernel, ScalarKind};
use gpu_sim::ir::{Axis, Expr, KernelIr, Stmt};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// A hardware coordinate builtin, spelled per backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// The block (workgroup) index.
    BlockIdx,
    /// The thread (invocation) index within a block.
    ThreadIdx,
    /// The block (workgroup) size.
    BlockDim,
    /// The grid size in blocks (workgroups).
    GridDim,
}

/// Writes `level` levels of 4-space indentation.
pub fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

/// Visits every statement of an elaborated body in syntactic order,
/// recursing into both branches of splits — the one tree walk every
/// whole-body query (atomic targets, scalar-kind scans, backend-specific
/// feature detection) shares, so adding a nesting statement kind means
/// updating exactly this function.
pub fn for_each_stmt<'a>(body: &'a [ElabStmt], f: &mut dyn FnMut(&'a ElabStmt)) {
    for s in body {
        f(s);
        if let ElabStmt::Split { fst, snd, .. } = s {
            for_each_stmt(fst, f);
            for_each_stmt(snd, f);
        }
    }
}

/// Visits every value expression of an elaborated body (statement
/// operands and their subexpressions, in syntactic order) — the
/// expression-level companion of [`for_each_stmt`], shared by feature
/// scans such as [`kernel_uses_shuffle`].
pub fn for_each_expr<'a>(body: &'a [ElabStmt], f: &mut dyn FnMut(&'a ElabExpr)) {
    fn walk<'a>(e: &'a ElabExpr, f: &mut dyn FnMut(&'a ElabExpr)) {
        f(e);
        match e {
            ElabExpr::Binary(_, a, b) => {
                walk(a, f);
                walk(b, f);
            }
            ElabExpr::Unary(_, a) | ElabExpr::Shfl { value: a, .. } => walk(a, f),
            ElabExpr::Lit(..) | ElabExpr::Local(_) | ElabExpr::Load(_) => {}
        }
    }
    for_each_stmt(body, &mut |s| match s {
        ElabStmt::Local { init: e, .. } | ElabStmt::AssignLocal { value: e, .. } => walk(e, f),
        ElabStmt::Store { value, .. } => walk(value, f),
        ElabStmt::Atomic { index, value, .. } => {
            if let Some(ie) = index {
                walk(ie, f);
            }
            walk(value, f);
        }
        ElabStmt::Split { .. } | ElabStmt::Sync | ElabStmt::Src(_) => {}
    });
}

/// Whether the kernel performs a warp shuffle anywhere. Backends whose
/// targets gate subgroup operations behind a pragma or enable directive
/// (OpenCL's `cl_khr_subgroup_shuffle*`, WGSL's `enable subgroups;`)
/// key off this.
pub fn kernel_uses_shuffle(k: &MonoKernel) -> bool {
    let mut hit = false;
    for_each_expr(&k.body, &mut |e| {
        hit |= matches!(e, ElabExpr::Shfl { .. });
    });
    hit
}

/// The buffers an elaborated kernel updates atomically anywhere in its
/// body. Backends whose buffer declarations change for atomic targets
/// (WGSL's `array<atomic<T>>`) and the shared renderer (plain accesses to
/// such buffers) both key off this set.
pub fn atomic_targets(k: &MonoKernel) -> HashSet<MemKind> {
    let mut out = HashSet::new();
    for_each_stmt(&k.body, &mut |s| {
        if let ElabStmt::Atomic { access, .. } = s {
            out.insert(access.mem);
        }
    });
    out
}

/// The rendered coordinate of an execution space along a dimension:
/// the backend's block/thread builtin, or the derived
/// `threadIdx.x / 32` / `threadIdx.x % 32` warp and lane coordinates —
/// built as the IR expression
/// [`descend_codegen::ir_gen::space_coord_expr`] produces and rendered
/// through [`render_ir_expr`], so the text matches the simulator's
/// split conditions node for node.
pub fn space_coord(be: &dyn KernelBackend, space: Space, dim: DimCompo, k: &MonoKernel) -> String {
    let expr = descend_codegen::ir_gen::space_coord_expr(space, dim);
    let mut out = String::new();
    render_ir_expr(be, &expr, k, None, &mut out);
    out
}

/// Maps a dimension component to a hardware axis.
pub fn dim_axis(d: DimCompo) -> Axis {
    match d {
        DimCompo::X => Axis::X,
        DimCompo::Y => Axis::Y,
        DimCompo::Z => Axis::Z,
    }
}

/// The lower-case component letter of an axis (`x`/`y`/`z`).
pub fn axis_name(a: Axis) -> &'static str {
    match a {
        Axis::X => "x",
        Axis::Y => "y",
        Axis::Z => "z",
    }
}

/// Whether a kernel touches the given scalar kind anywhere — parameters,
/// shared staging, or thread-private locals (used by backends that need
/// an extension pragma or a narrowing note for a kind).
pub fn kernel_uses_scalar(k: &MonoKernel, kind: ScalarKind) -> bool {
    let mut local_hit = false;
    for_each_stmt(&k.body, &mut |s| {
        if let ElabStmt::Local { elem, .. } = s {
            local_hit |= *elem == kind;
        }
    });
    k.params.iter().any(|p| p.elem == kind) || k.shared.iter().any(|s| s.elem == kind) || local_hit
}

fn ir_binop(op: gpu_sim::ir::BinOp) -> &'static str {
    use gpu_sim::ir::BinOp::*;
    match op {
        Add => "+",
        Sub => "-",
        Mul => "*",
        Div => "/",
        Mod => "%",
        Lt => "<",
        Le => "<=",
        Gt => ">",
        Ge => ">=",
        Eq => "==",
        Ne => "!=",
        And => "&&",
        Or => "||",
        // Unreachable from index lowering; rendered as calls for the
        // benefit of hand-built IR.
        Min => "min",
        Max => "max",
    }
}

/// Renders an IR expression with the backend's coordinate and buffer
/// spellings. Used for the index expressions, so every target's text
/// matches the simulated lowering exactly. The only `Local` an emitter
/// ever prints this way is the temporary an atomic scatter bound its
/// runtime index to; `scatter_tmp` is that temporary's spelling
/// (hand-built IR rendered without one falls back to `l<i>`).
pub fn render_ir_expr(
    be: &dyn KernelBackend,
    e: &Expr,
    k: &MonoKernel,
    scatter_tmp: Option<&str>,
    out: &mut String,
) {
    match e {
        Expr::LitI(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::LitF(v) => {
            let _ = write!(out, "{v:?}");
        }
        Expr::LitB(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::BlockIdx(a) => out.push_str(&be.builtin(Builtin::BlockIdx, *a)),
        Expr::ThreadIdx(a) => out.push_str(&be.builtin(Builtin::ThreadIdx, *a)),
        Expr::BlockDim(a) => out.push_str(&be.builtin(Builtin::BlockDim, *a)),
        Expr::GridDim(a) => out.push_str(&be.builtin(Builtin::GridDim, *a)),
        Expr::Local(i) => match scatter_tmp {
            Some(n) => out.push_str(n),
            None => {
                let _ = write!(out, "l{i}");
            }
        },
        Expr::LoadGlobal { buf, idx } => {
            let _ = write!(out, "{}[", k.params[*buf].name);
            render_ir_expr(be, idx, k, scatter_tmp, out);
            out.push(']');
        }
        Expr::LoadShared { buf, idx } => {
            let _ = write!(out, "{}[", k.shared[*buf].name);
            render_ir_expr(be, idx, k, scatter_tmp, out);
            out.push(']');
        }
        Expr::Bin(op @ (gpu_sim::ir::BinOp::Min | gpu_sim::ir::BinOp::Max), a, b) => {
            let _ = write!(out, "{}(", ir_binop(*op));
            render_ir_expr(be, a, k, scatter_tmp, out);
            out.push_str(", ");
            render_ir_expr(be, b, k, scatter_tmp, out);
            out.push(')');
        }
        Expr::Bin(op, a, b) => {
            out.push('(');
            render_ir_expr(be, a, k, scatter_tmp, out);
            let _ = write!(out, " {} ", ir_binop(*op));
            render_ir_expr(be, b, k, scatter_tmp, out);
            out.push(')');
        }
        Expr::Un(op, a) => {
            out.push_str(match op {
                gpu_sim::ir::UnOp::Neg => "-",
                gpu_sim::ir::UnOp::Not => "!",
            });
            out.push('(');
            render_ir_expr(be, a, k, scatter_tmp, out);
            out.push(')');
        }
    }
}

/// The declared name of the buffer an access targets.
pub(crate) fn buffer_name(k: &MonoKernel, mem: MemKind) -> &str {
    match mem {
        MemKind::GlobalParam(i) => &k.params[i].name,
        MemKind::Shared(i) => &k.shared[i].name,
    }
}

/// Renders a statically addressed access as `buffer[index]`:
/// [`access_index_expr`] printed by [`render_ir_expr`].
///
/// # Errors
///
/// Propagates lowering failures (see [`CodegenError`]).
pub(crate) fn render_access(
    be: &dyn KernelBackend,
    k: &MonoKernel,
    a: &ElabAccess,
    out: &mut String,
) -> Result<(), CodegenError> {
    let _ = write!(out, "{}[", buffer_name(k, a.mem));
    render_ir_expr(be, &access_index_expr(a, None)?, k, None, out);
    out.push(']');
    Ok(())
}

/// The target of an atomic scatter whose runtime index was bound to the
/// temporary `tmp`: the rendered element index (the same
/// [`access_index_expr`], with the temporary in the runtime index's
/// place) and the element count it must be guarded against.
///
/// # Errors
///
/// Propagates lowering failures; [`CodegenError::Lowering`] for a
/// non-literal root dimension.
pub(crate) fn scatter_index(
    be: &dyn KernelBackend,
    k: &MonoKernel,
    a: &ElabAccess,
    tmp: &str,
) -> Result<(String, u64), CodegenError> {
    let tmp_use = be.scatter_index_use(tmp);
    let mut text = String::new();
    let idx = access_index_expr(a, Some(&Expr::Local(0)))?;
    render_ir_expr(be, &idx, k, Some(&tmp_use), &mut text);
    let mut len = 1u64;
    for d in &a.root_dims {
        len *= d.as_lit().ok_or_else(|| {
            CodegenError::Lowering(format!(
                "non-literal root dimension `{d}` in atomic scatter bound"
            ))
        })?;
    }
    Ok((text, len))
}

fn binop_str(op: AstBinOp) -> &'static str {
    match op {
        AstBinOp::Add => "+",
        AstBinOp::Sub => "-",
        AstBinOp::Mul => "*",
        AstBinOp::Div => "/",
        AstBinOp::Mod => "%",
        AstBinOp::Lt => "<",
        AstBinOp::Le => "<=",
        AstBinOp::Gt => ">",
        AstBinOp::Ge => ">=",
        AstBinOp::Eq => "==",
        AstBinOp::Ne => "!=",
        AstBinOp::And => "&&",
        AstBinOp::Or => "||",
    }
}

/// Renders elaborated kernel bodies through a backend's syntax hooks.
///
/// Statement structure (declaration-then-rename discipline, split
/// conditions, barrier placement) is fixed here; the backend only
/// chooses spellings. All accesses go through [`access_index_expr`].
pub struct BodyCx<'a> {
    be: &'a dyn KernelBackend,
    kernel: &'a MonoKernel,
    /// Rendered name per live local (uniquified on rebinding).
    local_names: HashMap<String, String>,
    decl_counter: usize,
    /// Buffers updated atomically anywhere in the kernel.
    atomic_bufs: HashSet<MemKind>,
    /// Counter for emitted scatter-index temporaries (`descend_idx_<n>`;
    /// text-only locals the IR does not have).
    scatter_counter: usize,
}

impl<'a> BodyCx<'a> {
    /// A fresh body context for one kernel.
    pub fn new(be: &'a dyn KernelBackend, kernel: &'a MonoKernel) -> BodyCx<'a> {
        BodyCx {
            be,
            kernel,
            local_names: HashMap::new(),
            decl_counter: 0,
            atomic_bufs: atomic_targets(kernel),
            scatter_counter: 0,
        }
    }

    fn expr(&self, e: &ElabExpr, out: &mut String) -> Result<(), CodegenError> {
        match e {
            ElabExpr::Lit(kind, v) => out.push_str(&self.be.literal(*kind, *v)),
            ElabExpr::Local(name) => {
                let n = self
                    .local_names
                    .get(name)
                    .ok_or_else(|| CodegenError::UnknownLocal(name.clone()))?;
                out.push_str(n);
            }
            ElabExpr::Load(a) => {
                let mut text = String::new();
                self.access(a, &mut text)?;
                if self.atomic_bufs.contains(&a.mem) {
                    text = self.be.atomic_buffer_load(a.elem, text);
                }
                out.push_str(&self.be.load_conversion(a.elem, text));
            }
            ElabExpr::Binary(op, x, y) => {
                out.push('(');
                self.expr(x, out)?;
                let _ = write!(out, " {} ", binop_str(*op));
                self.expr(y, out)?;
                out.push(')');
            }
            ElabExpr::Unary(op, x) => {
                out.push_str(match op {
                    AstUnOp::Neg => "-",
                    AstUnOp::Not => "!",
                });
                out.push('(');
                self.expr(x, out)?;
                out.push(')');
            }
            ElabExpr::Shfl { kind, value, delta } => {
                let mut v = String::new();
                self.expr(value, &mut v)?;
                out.push_str(&self.be.shuffle(*kind, &v, *delta));
            }
        }
        Ok(())
    }

    fn access(&self, a: &ElabAccess, out: &mut String) -> Result<(), CodegenError> {
        render_access(self.be, self.kernel, a, out)
    }

    /// Renders a statement list at the given indentation level.
    ///
    /// # Errors
    ///
    /// Propagates lowering failures (see [`CodegenError`]).
    pub fn stmts(
        &mut self,
        body: &[ElabStmt],
        out: &mut String,
        level: usize,
    ) -> Result<(), CodegenError> {
        for s in body {
            match s {
                ElabStmt::Local { name, elem, init } => {
                    let rendered = if self.local_names.contains_key(name) {
                        self.decl_counter += 1;
                        format!("{name}_{}", self.decl_counter)
                    } else {
                        name.clone()
                    };
                    indent(out, level);
                    // Render the initializer against the *previous*
                    // binding before installing the new name, so a
                    // shadowing `let x = x + ...` reads the old `x` —
                    // matching the IR lowering, which binds the slot
                    // after lowering the init.
                    let mut init_text = String::new();
                    self.expr(init, &mut init_text)?;
                    out.push_str(&self.be.local_decl(*elem, &rendered, &init_text));
                    out.push('\n');
                    self.local_names.insert(name.clone(), rendered);
                }
                ElabStmt::AssignLocal { name, value } => {
                    indent(out, level);
                    let n = self
                        .local_names
                        .get(name)
                        .ok_or_else(|| CodegenError::UnknownLocal(name.clone()))?
                        .clone();
                    let _ = write!(out, "{n} = ");
                    self.expr(value, out)?;
                    out.push_str(";\n");
                }
                ElabStmt::Store { access, value } => {
                    indent(out, level);
                    let mut value_text = String::new();
                    self.expr(value, &mut value_text)?;
                    let value_text = self.be.store_conversion(access.elem, value_text);
                    if self.atomic_bufs.contains(&access.mem) {
                        let mut target = String::new();
                        self.access(access, &mut target)?;
                        out.push_str(&self.be.atomic_buffer_store(
                            access.elem,
                            &target,
                            &value_text,
                        ));
                    } else {
                        self.access(access, out)?;
                        out.push_str(" = ");
                        out.push_str(&value_text);
                        out.push(';');
                    }
                    out.push('\n');
                }
                ElabStmt::Split {
                    space,
                    dim,
                    threshold,
                    fst,
                    snd,
                } => {
                    indent(out, level);
                    let coord = space_coord(self.be, *space, *dim, self.kernel);
                    let _ = writeln!(out, "if ({coord} < {threshold}) {{");
                    self.stmts(fst, out, level + 1)?;
                    indent(out, level);
                    if snd.is_empty() {
                        out.push_str("}\n");
                    } else {
                        out.push_str("} else {\n");
                        self.stmts(snd, out, level + 1)?;
                        indent(out, level);
                        out.push_str("}\n");
                    }
                }
                ElabStmt::Atomic {
                    op,
                    access,
                    index,
                    value,
                } => {
                    indent(out, level);
                    let mut value_text = String::new();
                    self.expr(value, &mut value_text)?;
                    let global = matches!(access.mem, MemKind::GlobalParam(_));
                    match index {
                        None => {
                            // Static target: the full element index,
                            // node-for-node the simulator IR's, rendered
                            // with this backend's spellings.
                            let mut target = String::new();
                            self.access(access, &mut target)?;
                            out.push_str(&self.be.atomic_rmw(
                                *op,
                                access.elem,
                                global,
                                &target,
                                &value_text,
                            ));
                        }
                        Some(ie) => {
                            // Scatter target: the runtime index is a value
                            // the type system cannot bound, so (a) bind it
                            // ONCE to an emitted local — evaluating it a
                            // single time and routing any loads through
                            // the backend's atomic-buffer conversions —
                            // and (b) guard the access. The simulator
                            // reports an out-of-bounds index as an error
                            // during testing; the emitted code skips it so
                            // the hardware never writes out of bounds (the
                            // same line works in CUDA C++, OpenCL C and
                            // WGSL).
                            let mut idx_init = String::new();
                            self.expr(ie, &mut idx_init)?;
                            let tmp = format!("descend_idx_{}", self.scatter_counter);
                            self.scatter_counter += 1;
                            let init = self.be.cast(ScalarKind::I32, &idx_init);
                            out.push_str(&self.be.local_decl(ScalarKind::I32, &tmp, &init));
                            out.push('\n');
                            indent(out, level);
                            let (idx_text, total) =
                                scatter_index(self.be, self.kernel, access, &tmp)?;
                            let target =
                                format!("{}[{idx_text}]", buffer_name(self.kernel, access.mem));
                            let call =
                                self.be
                                    .atomic_rmw(*op, access.elem, global, &target, &value_text);
                            let _ = write!(
                                out,
                                "if (0 <= {idx_text} && {idx_text} < {total}) {{ {call} }}"
                            );
                        }
                    }
                    out.push('\n');
                }
                ElabStmt::Sync => {
                    indent(out, level);
                    out.push_str(self.be.barrier());
                    out.push('\n');
                }
                // Source markers carry trace attribution only; emitted
                // text stays byte-identical with or without them.
                ElabStmt::Src(_) => {}
            }
        }
        Ok(())
    }
}

/// Per-variable element kind and length across a host function's
/// statements — the single home for the bookkeeping every host-stub
/// emitter needs (allocation sizes propagate through `gpu_alloc_copy`).
#[derive(Default)]
pub struct HostSizes {
    sizes: HashMap<String, (ScalarKind, u64)>,
}

impl HostSizes {
    /// A fresh, empty tracker.
    pub fn new() -> HostSizes {
        HostSizes::default()
    }

    /// Records the allocation a statement introduces, if any. Call once
    /// per statement, in order, before rendering it.
    pub fn record(&mut self, s: &HostStmt) {
        match s {
            HostStmt::AllocCpu { name, elem, len } | HostStmt::AllocGpu { name, elem, len } => {
                self.sizes.insert(name.clone(), (*elem, *len));
            }
            HostStmt::AllocGpuCopy { name, src, elem } => {
                let (_, len) = self.get(src);
                self.sizes.insert(name.clone(), (*elem, len));
            }
            HostStmt::CopyToHost { .. } | HostStmt::CopyToGpu { .. } | HostStmt::Launch { .. } => {}
        }
    }

    /// Element kind and length of a variable (`(F64, 0)` when unknown,
    /// matching the historical emitters' fallback).
    pub fn get(&self, name: &str) -> (ScalarKind, u64) {
        self.sizes
            .get(name)
            .copied()
            .unwrap_or((ScalarKind::F64, 0))
    }
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
pub fn ir_index_exprs(ir: &KernelIr) -> Vec<Expr> {
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
