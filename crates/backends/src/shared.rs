//! The shared rendering layer every backend emits through.
//!
//! Index expressions are built exactly once, by
//! [`descend_codegen::ir_gen::access_index_expr`] — the same function the
//! simulator IR is lowered with. [`render_ir_expr`] then prints the
//! expression with backend-supplied coordinate spellings, so no backend
//! owns a private copy of index lowering or index printing and every
//! target's text is structurally the expression the simulator executes.
//!
//! Kernel bodies render the same way: one walker produces every
//! statement's text for all four targets and writes it into a `Layout`,
//! which decides only where the text goes.

use crate::KernelBackend;
use descend_ast::term::BinOp as AstBinOp;
use descend_ast::term::UnOp as AstUnOp;
use descend_ast::ty::DimCompo;
use descend_codegen::ir_gen::access_index_expr;
use descend_codegen::CodegenError;
use descend_exec::Space;
use descend_places::DYN_IDX;
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
/// recursing into both branches of splits and into rolled loop bodies —
/// the one tree walk every whole-body query (atomic targets, scalar-kind
/// scans, backend-specific feature detection) shares, so adding a
/// nesting statement kind means updating exactly this function.
pub fn for_each_stmt<'a>(body: &'a [ElabStmt], f: &mut dyn FnMut(&'a ElabStmt)) {
    for s in body {
        f(s);
        match s {
            ElabStmt::Split { fst, snd, .. } => {
                for_each_stmt(fst, f);
                for_each_stmt(snd, f);
            }
            ElabStmt::ForNat { body, .. } => for_each_stmt(body, f),
            _ => {}
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
        ElabStmt::Split { .. } | ElabStmt::ForNat { .. } | ElabStmt::Sync | ElabStmt::Src(_) => {}
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
fn space_coord(be: &dyn KernelBackend, space: Space, dim: DimCompo, k: &MonoKernel) -> String {
    let expr = descend_codegen::ir_gen::space_coord_expr(space, dim);
    let mut out = String::new();
    render_ir_expr(be, &expr, k, IndexNames::default(), &mut out);
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

/// How the `Local` slots of an emitted index expression are spelled
/// (see [`emitted_index`]): slot `i` is the variable of the `i`-th
/// enclosing rolled loop, outermost first, and slot `loops.len()` an
/// atomic scatter's index temporary. Any other slot — only hand-built
/// IR has one — prints as `l<i>`.
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexNames<'a> {
    /// The enclosing rolled loops' variables, outermost first.
    pub loops: &'a [&'a str],
    /// The scatter-index temporary's spelling at its use.
    pub scatter: Option<&'a str>,
}

impl IndexNames<'_> {
    fn local(&self, slot: usize) -> Option<&str> {
        match self.loops.get(slot) {
            Some(name) => Some(name),
            None if slot == self.loops.len() => self.scatter,
            None => None,
        }
    }
}

/// Renders an IR expression with the backend's coordinate and buffer
/// spellings. Used for the index expressions, so every target's text
/// matches the simulated lowering exactly; `names` spells the `Local`
/// slots an emitted index carries (rolled loop variables, a scatter
/// temporary).
pub fn render_ir_expr(
    be: &dyn KernelBackend,
    e: &Expr,
    k: &MonoKernel,
    names: IndexNames<'_>,
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
        Expr::Local(i) => match names.local(*i) {
            Some(n) => out.push_str(n),
            None => {
                let _ = write!(out, "l{i}");
            }
        },
        Expr::LoadGlobal { buf, idx } => {
            let _ = write!(out, "{}[", k.params[*buf].name);
            render_ir_expr(be, idx, k, names, out);
            out.push(']');
        }
        Expr::LoadShared { buf, idx } => {
            let _ = write!(out, "{}[", k.shared[*buf].name);
            render_ir_expr(be, idx, k, names, out);
            out.push(']');
        }
        Expr::Bin(op @ (gpu_sim::ir::BinOp::Min | gpu_sim::ir::BinOp::Max), a, b) => {
            let _ = write!(out, "{}(", ir_binop(*op));
            render_ir_expr(be, a, k, names, out);
            out.push_str(", ");
            render_ir_expr(be, b, k, names, out);
            out.push(')');
        }
        Expr::Bin(op, a, b) => {
            out.push('(');
            render_ir_expr(be, a, k, names, out);
            let _ = write!(out, " {} ", ir_binop(*op));
            render_ir_expr(be, b, k, names, out);
            out.push(')');
        }
        Expr::Un(op, a) => {
            out.push_str(match op {
                gpu_sim::ir::UnOp::Neg => "-",
                gpu_sim::ir::UnOp::Not => "!",
            });
            out.push('(');
            render_ir_expr(be, a, k, names, out);
            out.push(')');
        }
    }
}

/// The index of an access as the emitters print it: [`access_index_expr`]
/// with the variable of the `i`-th enclosing rolled loop (`loops`,
/// outermost first) as `Local(i)` and, for an atomic scatter, the
/// runtime index as `Local(loops.len())` — the slots [`IndexNames`]
/// spells. The rolled loop variables reach the index the way the
/// scatter temporary does, so the text and the simulator IR still share
/// one lowering.
///
/// # Errors
///
/// Propagates lowering failures (see [`CodegenError`]).
pub fn emitted_index(a: &ElabAccess, loops: &[&str], scatter: bool) -> Result<Expr, CodegenError> {
    access_index_expr(a, &[], &|x| {
        if x == DYN_IDX {
            scatter.then_some(Expr::Local(loops.len()))
        } else {
            loops.iter().position(|l| *l == x).map(Expr::Local)
        }
    })
}

/// The declared name of the buffer an access targets.
fn buffer_name(k: &MonoKernel, mem: MemKind) -> &str {
    match mem {
        MemKind::GlobalParam(i) => &k.params[i].name,
        MemKind::Shared(i) => &k.shared[i].name,
    }
}

/// Renders a statically addressed access as `buffer[index]`:
/// [`emitted_index`] printed by [`render_ir_expr`].
///
/// # Errors
///
/// Propagates lowering failures (see [`CodegenError`]).
fn render_access(
    be: &dyn KernelBackend,
    k: &MonoKernel,
    a: &ElabAccess,
    loops: &[&str],
    out: &mut String,
) -> Result<(), CodegenError> {
    let _ = write!(out, "{}[", buffer_name(k, a.mem));
    let names = IndexNames {
        loops,
        scatter: None,
    };
    render_ir_expr(be, &emitted_index(a, loops, false)?, k, names, out);
    out.push(']');
    Ok(())
}

/// The target of an atomic scatter whose runtime index was bound to the
/// temporary `tmp`: the rendered element index (the same
/// [`emitted_index`], with the temporary in the runtime index's place)
/// and the element count it must be guarded against.
///
/// # Errors
///
/// Propagates lowering failures; [`CodegenError::Lowering`] for a
/// non-literal root dimension.
fn scatter_index(
    be: &dyn KernelBackend,
    k: &MonoKernel,
    a: &ElabAccess,
    loops: &[&str],
    tmp: &str,
) -> Result<(String, u64), CodegenError> {
    let tmp_use = be.scatter_index_use(tmp);
    let mut text = String::new();
    let idx = emitted_index(a, loops, true)?;
    let names = IndexNames {
        loops,
        scatter: Some(&tmp_use),
    };
    render_ir_expr(be, &idx, k, names, &mut text);
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

/// Where the body walker writes: the statement *placement* a target
/// needs, separate from the statement *text*, which the walker renders
/// the same way for every target.
///
/// [`Nested`] renders in place (CUDA, OpenCL, WGSL); the C backend's
/// `Phased` fissions the body into one all-threads loop per barrier
/// phase.
pub(crate) trait Layout {
    /// Opens one statement: the buffer to render its text into.
    fn begin(&mut self) -> String;
    /// Closes the statement [`Layout::begin`] opened.
    fn end(&mut self, stmt: String);
    /// Enters a split's first branch (`coord < threshold`).
    fn split_fst(&mut self, coord: &str, threshold: u64);
    /// Leaves the first branch for the second (`coord >= threshold`).
    fn split_snd(&mut self, coord: &str, threshold: u64);
    /// Leaves the split.
    fn split_end(&mut self);
    /// A block-wide barrier.
    fn sync(&mut self, be: &dyn KernelBackend);
    /// Writes the declaration of a local named `name` into `out` and
    /// returns the local's spelling at its uses.
    fn declare(
        &mut self,
        be: &dyn KernelBackend,
        elem: ScalarKind,
        name: String,
        init: &str,
        out: &mut String,
    ) -> String;
    /// The operand to hand [`KernelBackend::shuffle`] for the rendered
    /// value `operand` of kind `elem`.
    fn shuffle(&mut self, operand: String, elem: ScalarKind) -> String;
    /// Opens a rolled loop whose header [`KernelBackend::for_loop`]
    /// spelled (one or more lines, the last ending in `{`).
    fn loop_begin(&mut self, header: &str);
    /// Closes the loop [`Layout::loop_begin`] opened.
    fn loop_end(&mut self);
}

/// The in-place layout: statements at their nesting depth, splits as
/// `if`/`else`, `sync` as the backend's barrier statement.
pub(crate) struct Nested {
    /// The kernel text rendered so far.
    pub(crate) out: String,
    level: usize,
}

impl Nested {
    /// Appends a body to `out`, one indentation level in.
    pub(crate) fn new(out: String) -> Nested {
        Nested { out, level: 1 }
    }
}

impl Layout for Nested {
    fn begin(&mut self) -> String {
        let mut out = std::mem::take(&mut self.out);
        indent(&mut out, self.level);
        out
    }

    fn end(&mut self, stmt: String) {
        self.out = stmt;
        self.out.push('\n');
    }

    fn split_fst(&mut self, coord: &str, threshold: u64) {
        indent(&mut self.out, self.level);
        let _ = writeln!(self.out, "if ({coord} < {threshold}) {{");
        self.level += 1;
    }

    fn split_snd(&mut self, _coord: &str, _threshold: u64) {
        indent(&mut self.out, self.level - 1);
        self.out.push_str("} else {\n");
    }

    fn split_end(&mut self) {
        self.level -= 1;
        indent(&mut self.out, self.level);
        self.out.push_str("}\n");
    }

    fn sync(&mut self, be: &dyn KernelBackend) {
        indent(&mut self.out, self.level);
        self.out.push_str(be.barrier());
        self.out.push('\n');
    }

    fn declare(
        &mut self,
        be: &dyn KernelBackend,
        elem: ScalarKind,
        name: String,
        init: &str,
        out: &mut String,
    ) -> String {
        out.push_str(&be.local_decl(elem, &name, init));
        name
    }

    fn shuffle(&mut self, operand: String, _elem: ScalarKind) -> String {
        operand
    }

    fn loop_begin(&mut self, header: &str) {
        for line in header.lines() {
            indent(&mut self.out, self.level);
            self.out.push_str(line);
            self.out.push('\n');
        }
        self.level += 1;
    }

    fn loop_end(&mut self) {
        self.level -= 1;
        indent(&mut self.out, self.level);
        self.out.push_str("}\n");
    }
}

/// Renders an elaborated kernel body into a layout and returns it.
///
/// # Errors
///
/// Propagates lowering failures (see [`CodegenError`]).
pub(crate) fn render_body<L: Layout>(
    be: &dyn KernelBackend,
    kernel: &MonoKernel,
    layout: L,
) -> Result<L, CodegenError> {
    let mut cx = BodyCx {
        be,
        kernel,
        layout,
        local_names: HashMap::new(),
        decl_counter: 0,
        atomic_bufs: atomic_targets(kernel),
        scatter_counter: 0,
        loops: Vec::new(),
    };
    cx.stmts(&kernel.body)?;
    Ok(cx.layout)
}

/// The one walker that renders elaborated kernel bodies, for every
/// backend: statement and expression text (the declare-then-rename rule
/// for locals, stores, static and scatter atomics, split conditions)
/// is fixed here; the backend only chooses spellings and the layout
/// only chooses placement. All accesses go through
/// [`access_index_expr`].
struct BodyCx<'a, L> {
    be: &'a dyn KernelBackend,
    kernel: &'a MonoKernel,
    layout: L,
    /// Spelling and element kind per live local (uniquified on
    /// rebinding).
    local_names: HashMap<String, (String, ScalarKind)>,
    decl_counter: usize,
    /// Buffers updated atomically anywhere in the kernel.
    atomic_bufs: HashSet<MemKind>,
    /// Counter for emitted scatter-index temporaries (`descend_idx_<n>`;
    /// text-only locals the IR does not have).
    scatter_counter: usize,
    /// The variables of the rolled loops being rendered, outermost
    /// first.
    loops: Vec<&'a str>,
}

impl<'a, L: Layout> BodyCx<'a, L> {
    fn local(&self, name: &str) -> Result<&str, CodegenError> {
        self.local_names
            .get(name)
            .map(|(spelling, _)| spelling.as_str())
            .ok_or_else(|| CodegenError::UnknownLocal(name.to_string()))
    }

    fn expr(&mut self, e: &ElabExpr, out: &mut String) -> Result<(), CodegenError> {
        match e {
            ElabExpr::Lit(kind, v) => out.push_str(&self.be.literal(*kind, *v)),
            ElabExpr::Local(name) => out.push_str(self.local(name)?),
            ElabExpr::Load(a) => {
                let mut text = String::new();
                render_access(self.be, self.kernel, a, &self.loops, &mut text)?;
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
                let v = self.layout.shuffle(v, self.expr_kind(value));
                out.push_str(&self.be.shuffle(*kind, &v, *delta));
            }
        }
        Ok(())
    }

    /// The scalar kind an elaborated expression evaluates to.
    fn expr_kind(&self, e: &ElabExpr) -> ScalarKind {
        match e {
            ElabExpr::Lit(k, _) => *k,
            ElabExpr::Local(name) => self
                .local_names
                .get(name)
                .map_or(ScalarKind::F64, |(_, elem)| *elem),
            ElabExpr::Load(a) => a.elem,
            ElabExpr::Binary(op, a, _) => match op {
                AstBinOp::Lt
                | AstBinOp::Le
                | AstBinOp::Gt
                | AstBinOp::Ge
                | AstBinOp::Eq
                | AstBinOp::Ne
                | AstBinOp::And
                | AstBinOp::Or => ScalarKind::Bool,
                _ => self.expr_kind(a),
            },
            ElabExpr::Unary(AstUnOp::Not, _) => ScalarKind::Bool,
            ElabExpr::Unary(AstUnOp::Neg, a) => self.expr_kind(a),
            ElabExpr::Shfl { value, .. } => self.expr_kind(value),
        }
    }

    fn stmts(&mut self, body: &'a [ElabStmt]) -> Result<(), CodegenError> {
        for s in body {
            match s {
                ElabStmt::Local { name, elem, init } => {
                    let mut out = self.layout.begin();
                    let rendered = if self.local_names.contains_key(name) {
                        self.decl_counter += 1;
                        format!("{name}_{}", self.decl_counter)
                    } else {
                        name.clone()
                    };
                    // Render the initializer against the *previous*
                    // binding before installing the new name, so a
                    // shadowing `let x = x + ...` reads the old `x` —
                    // matching the IR lowering, which binds the slot
                    // after lowering the init.
                    let mut init_text = String::new();
                    self.expr(init, &mut init_text)?;
                    let spelling = self
                        .layout
                        .declare(self.be, *elem, rendered, &init_text, &mut out);
                    self.layout.end(out);
                    self.local_names.insert(name.clone(), (spelling, *elem));
                }
                ElabStmt::AssignLocal { name, value } => {
                    let mut out = self.layout.begin();
                    let _ = write!(out, "{} = ", self.local(name)?);
                    self.expr(value, &mut out)?;
                    out.push(';');
                    self.layout.end(out);
                }
                ElabStmt::Store { access, value } => {
                    let mut out = self.layout.begin();
                    let mut value_text = String::new();
                    self.expr(value, &mut value_text)?;
                    let value_text = self.be.store_conversion(access.elem, value_text);
                    if self.atomic_bufs.contains(&access.mem) {
                        let mut target = String::new();
                        render_access(self.be, self.kernel, access, &self.loops, &mut target)?;
                        out.push_str(&self.be.atomic_buffer_store(
                            access.elem,
                            &target,
                            &value_text,
                        ));
                    } else {
                        render_access(self.be, self.kernel, access, &self.loops, &mut out)?;
                        out.push_str(" = ");
                        out.push_str(&value_text);
                        out.push(';');
                    }
                    self.layout.end(out);
                }
                ElabStmt::Split {
                    space,
                    dim,
                    threshold,
                    fst,
                    snd,
                } => {
                    let coord = space_coord(self.be, *space, *dim, self.kernel);
                    self.layout.split_fst(&coord, *threshold);
                    self.stmts(fst)?;
                    if !snd.is_empty() {
                        self.layout.split_snd(&coord, *threshold);
                        self.stmts(snd)?;
                    }
                    self.layout.split_end();
                }
                ElabStmt::Atomic {
                    op,
                    access,
                    index,
                    value,
                } => {
                    let mut out = self.layout.begin();
                    let mut value_text = String::new();
                    self.expr(value, &mut value_text)?;
                    let global = matches!(access.mem, MemKind::GlobalParam(_));
                    match index {
                        None => {
                            // Static target: the full element index,
                            // node-for-node the simulator IR's, rendered
                            // with this backend's spellings.
                            let mut target = String::new();
                            render_access(self.be, self.kernel, access, &self.loops, &mut target)?;
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
                            // the hardware never writes out of bounds.
                            let mut idx_init = String::new();
                            self.expr(ie, &mut idx_init)?;
                            let tmp = format!("descend_idx_{}", self.scatter_counter);
                            self.scatter_counter += 1;
                            let init = self.be.cast(ScalarKind::I32, &idx_init);
                            out.push_str(&self.be.local_decl(ScalarKind::I32, &tmp, &init));
                            self.layout.end(out);
                            out = self.layout.begin();
                            let (idx_text, total) =
                                scatter_index(self.be, self.kernel, access, &self.loops, &tmp)?;
                            let target =
                                format!("{}[{idx_text}]", buffer_name(self.kernel, access.mem));
                            let call =
                                self.be
                                    .atomic_rmw(*op, access.elem, global, &target, &value_text);
                            let cond = format!("0 <= {idx_text} && {idx_text} < {total}");
                            out.push_str(&self.be.guard(&cond, &call));
                        }
                    }
                    self.layout.end(out);
                }
                ElabStmt::ForNat { var, lo, hi, body } => {
                    self.layout.loop_begin(&self.be.for_loop(var, *lo, *hi));
                    self.loops.push(var);
                    self.stmts(body)?;
                    self.loops.pop();
                    self.layout.loop_end();
                }
                ElabStmt::Sync => self.layout.sync(self.be),
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
