//! The flow-sensitive checker.

use crate::builtins;
use crate::elab::*;
use crate::error::{ErrorKind, TypeError};
use descend_ast::term::*;
use descend_ast::ty::*;
use descend_ast::{Nat, Span};
use descend_exec::{ExecExpr, Side, Space};
use descend_places::{
    barrier_ordered, may_overlap, may_race, may_race_repeated, narrowing_violation,
    resolve_view_app, zip_ty, Access, AccessMode, PathStep, PlacePath, SelectStep, SymIndex,
    SymSteps, ViewDefs, ViewStep, DYN_IDX,
};
use std::collections::{HashMap, HashSet};

/// The result of checking a program: elaborated kernels and host code.
#[derive(Clone, Debug, Default)]
pub struct CheckedProgram {
    /// All kernel instantiations, in discovery order.
    pub kernels: Vec<MonoKernel>,
    /// Host functions: name and elaborated statements.
    pub host_fns: Vec<(String, Vec<HostStmt>)>,
}

impl CheckedProgram {
    /// Looks up a kernel instance by mangled name.
    pub fn kernel(&self, name: &str) -> Option<&MonoKernel> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// The host statements of a host function.
    pub fn host_fn(&self, name: &str) -> Option<&[HostStmt]> {
        self.host_fns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.as_slice())
    }
}

type TResult<T> = Result<T, TypeError>;

/// The for-nat iterations one kernel instance (or host function) may
/// run in total, nested loops included. A loop checked per iteration
/// checks each one against every access recorded before it, and the IR
/// lowering unrolls every iteration of every loop, however it was
/// checked, so this caps the compile-time work a loop can demand: a
/// loop whose trip count exceeds what is left is rejected with
/// [`ErrorKind::LoopBudgetExceeded`] at entry. A loop inside loops
/// checked once is charged once for each of their iterations, as if
/// they were checked per iteration. The largest loop nest of the
/// benchmark programs, the paper-scale matmul, takes 264; matmul fits
/// up to `n = 2048` (2 112).
pub const LOOP_BUDGET: u64 = 1 << 12;

/// Type-checks a complete program, returning the elaborated form.
///
/// Every function is checked: CPU functions directly, non-generic GPU
/// functions standalone, and generic GPU functions once per distinct
/// instantiation discovered at launch sites.
///
/// # Errors
///
/// The first [`TypeError`] encountered, with a renderable diagnostic.
pub fn check_program(program: &Program) -> TResult<CheckedProgram> {
    let mut cx = GlobalCx::new(program)?;
    check_item_names(program)?;
    // Check non-generic GPU functions standalone.
    for item in &program.items {
        if let Item::Fn(f) = item {
            if matches!(f.sig.exec_ty, ExecTy::GpuGrid(..)) && f.sig.generics.is_empty() {
                cx.instantiate_kernel(f, &[], f.span)?;
            }
        }
    }
    // Check CPU functions.
    for item in &program.items {
        if let Item::Fn(f) = item {
            if matches!(f.sig.exec_ty, ExecTy::CpuThread) {
                let stmts = cx.check_host_fn(f)?;
                cx.out.host_fns.push((f.sig.name.clone(), stmts));
            }
        }
    }
    Ok(cx.out)
}

/// The elaborated result of checking one function in isolation — the
/// unit the incremental compiler caches per function (see
/// [`check_fn`]).
#[derive(Clone, Debug, Default)]
pub struct CheckedFn {
    /// The kernel instances whose bodies this check checked, in
    /// discovery order: a non-generic GPU function yields its own single
    /// instance; a host function yields only the *generic* instances it
    /// launches. A non-generic kernel a host launches is typed against
    /// its signature alone and appears in [`CheckedFn::launched`] only:
    /// its body is its own function's check.
    pub kernels: Vec<MonoKernel>,
    /// For host functions, the mangled name of the instance each
    /// [`HostStmt::Launch`] index refers to (index `i` names
    /// `launched[i]`), in first-launch order; empty otherwise. Callers
    /// merging several `CheckedFn`s remap the indices through these
    /// names onto the merged kernel table.
    pub launched: Vec<String>,
    /// For host functions, the elaborated host statements.
    pub host: Option<Vec<HostStmt>>,
}

/// Validates the program-wide item context all functions share: view
/// definitions are registered, nat constants evaluate, no two items of
/// one kind share a name, and no non-generic function is named like a
/// generic kernel instance.
///
/// This is the program-level prefix of [`check_program`]; incremental
/// drivers run it once per compile before issuing per-function
/// [`check_fn`] queries.
///
/// # Errors
///
/// The first [`TypeError`] from constant evaluation, else
/// [`ErrorKind::DuplicateItem`] for the first item defined twice, else
/// [`ErrorKind::InstanceNameCollision`] for the first function named
/// like an instance.
pub fn check_context(program: &Program) -> TResult<()> {
    GlobalCx::new(program)?;
    check_item_names(program)
}

/// The name checks of [`check_context`]: items defined twice, then
/// functions named like generic instances.
fn check_item_names(program: &Program) -> TResult<()> {
    let mut first: HashMap<(&str, &str), Span> = HashMap::new();
    for item in &program.items {
        let (kind, name, span) = match item {
            Item::Fn(f) => ("function", f.sig.name.as_str(), f.span),
            Item::View(v) => ("view", v.name.as_str(), v.span),
            Item::Const(c) => ("constant", c.name.as_str(), c.span),
        };
        if let Some(&earlier) = first.get(&(kind, name)) {
            return Err(TypeError::new(
                ErrorKind::DuplicateItem,
                span,
                format!("the {kind} `{name}` is defined twice"),
            )
            .with_secondary(earlier, format!("`{name}` is first defined here"))
            .with_help(format!("rename one of the two {kind}s")));
        }
        first.insert((kind, name), span);
    }
    check_instance_names(program)
}

/// Rejects a non-generic function whose name is one that a generic
/// function of the program mangles an instance to (see [`mangle`]):
/// `g__<n>` followed by `_<n>` once for each further generic of `g`.
/// Kernel instances are identified by these names, so the function and
/// the instance would be taken for each other and one body would go
/// unchecked.
fn check_instance_names(program: &Program) -> TResult<()> {
    let fns = || {
        program.items.iter().filter_map(|item| match item {
            Item::Fn(f) => Some(f),
            _ => None,
        })
    };
    for f in fns().filter(|f| f.sig.generics.is_empty()) {
        for g in fns().filter(|g| !g.sig.generics.is_empty()) {
            let Some(args) = mangled_args(&f.sig.name, &g.sig.name, g.sig.generics.len()) else {
                continue;
            };
            return Err(TypeError::new(
                ErrorKind::InstanceNameCollision,
                f.span,
                format!(
                    "`{}` is the name of the instance `{}::<{}>` of the generic function `{}`",
                    f.sig.name,
                    g.sig.name,
                    args.replace('_', ", "),
                    g.sig.name
                ),
            )
            .with_help("rename the function: names of this form belong to generic instances"));
        }
    }
    Ok(())
}

/// The nat arguments `n_m_…` of `name`, if it is `generic__n_m_…` with
/// `arity` numbers, each spelled as [`mangle`] spells a `u64`.
fn mangled_args<'a>(name: &'a str, generic: &str, arity: usize) -> Option<&'a str> {
    let args = name.strip_prefix(generic)?.strip_prefix("__")?;
    let canonical = |a: &str| {
        a.bytes().all(|b| b.is_ascii_digit())
            && (a == "0" || !a.starts_with('0'))
            && a.parse::<u64>().is_ok()
    };
    (args.split('_').count() == arity && args.split('_').all(canonical)).then_some(args)
}

/// Checks a single function of `program` in isolation — the
/// per-function typeck entry point for incremental compilation.
///
/// A host function's check types each launch against the kernel's
/// signature: arity, generic kinds, `where` clauses, the `gpu.grid`
/// execution type and its dims, and the argument types. It checks the
/// body only of the *generic* instances it launches (each distinct
/// instantiation once); a non-generic kernel's body is that kernel's
/// own `check_fn`, and the host's result records just its mangled name
/// in [`CheckedFn::launched`]. So the result depends only on the
/// function's own definition, the program's views and constants, the
/// signatures of the non-generic kernels it launches and the whole
/// definitions of the generic ones — never on other host functions or
/// on a non-generic kernel's body — and it can be cached keyed by those
/// inputs. Running [`check_context`], then checking every function of a
/// program this way and merging the results (kernels before hosts, in
/// [`check_program`]'s order, deduplicating instances by mangled name
/// and remapping launches through [`CheckedFn::launched`]) reproduces
/// [`check_program`]'s output exactly, first error included: a rejected
/// kernel body is reported by the kernel's own check, which the merge
/// runs first. The workspace-level incremental test pins that
/// equivalence corpus-wide.
///
/// Generic GPU functions return an empty result, mirroring
/// [`check_program`]: they are checked per instantiation at launch
/// sites, i.e. inside the launching host function's `check_fn`.
///
/// # Errors
///
/// The first [`TypeError`] encountered, as [`check_program`] would
/// report when reaching this function.
pub fn check_fn(program: &Program, f: &FnDef) -> TResult<CheckedFn> {
    let mut cx = GlobalCx::new(program)?;
    match &f.sig.exec_ty {
        ExecTy::GpuGrid(..) if f.sig.generics.is_empty() => {
            cx.instantiate_kernel(f, &[], f.span)?;
            Ok(CheckedFn {
                kernels: cx.out.kernels,
                launched: Vec::new(),
                host: None,
            })
        }
        ExecTy::CpuThread => {
            cx.signatures_only = true;
            let stmts = cx.check_host_fn(f)?;
            Ok(CheckedFn {
                kernels: cx.out.kernels,
                launched: cx.instances,
                host: Some(stmts),
            })
        }
        // Generic kernels (checked per instantiation) and non-top-level
        // execution levels (which check_program ignores) contribute
        // nothing standalone.
        _ => Ok(CheckedFn::default()),
    }
}

/// The kernel names a function's body launches, in source order —
/// the syntactic dependency set an incremental driver hashes into a
/// host function's cache key (a launch is the only way one function's
/// check can depend on another function's definition).
pub fn launch_callees(f: &FnDef) -> Vec<String> {
    fn walk_block(b: &Block, out: &mut Vec<String>) {
        for s in &b.stmts {
            walk_stmt(s, out);
        }
    }
    fn walk_stmt(s: &Stmt, out: &mut Vec<String>) {
        match &s.kind {
            StmtKind::Let { init, .. } => walk_expr(init, out),
            StmtKind::Assign { value, .. } => walk_expr(value, out),
            StmtKind::Expr(e) => walk_expr(e, out),
            StmtKind::ToWarps { body, .. }
            | StmtKind::Sched { body, .. }
            | StmtKind::ForNat { body, .. } => walk_block(body, out),
            StmtKind::SplitExec {
                fst_body, snd_body, ..
            } => {
                walk_block(fst_body, out);
                walk_block(snd_body, out);
            }
            StmtKind::AtomicRmw { index, value, .. } => {
                if let Some(i) = index {
                    walk_expr(i, out);
                }
                walk_expr(value, out);
            }
            StmtKind::Scope(b) => walk_block(b, out),
            StmtKind::Sync => {}
        }
    }
    fn walk_expr(e: &Expr, out: &mut Vec<String>) {
        match &e.kind {
            ExprKind::Launch { name, args, .. } => {
                if !out.contains(name) {
                    out.push(name.clone());
                }
                for a in args {
                    walk_expr(a, out);
                }
            }
            ExprKind::Call { args, .. } => {
                for a in args {
                    walk_expr(a, out);
                }
            }
            ExprKind::Binary(_, a, b) => {
                walk_expr(a, out);
                walk_expr(b, out);
            }
            ExprKind::Unary(_, a) | ExprKind::Shfl { value: a, .. } => walk_expr(a, out),
            ExprKind::Lit(_)
            | ExprKind::Place(_)
            | ExprKind::Borrow { .. }
            | ExprKind::Alloc { .. } => {}
        }
    }
    let mut out = Vec::new();
    walk_block(&f.body, &mut out);
    out
}

/// Program-wide context.
struct GlobalCx<'p> {
    program: &'p Program,
    views: ViewDefs,
    consts: HashMap<String, u64>,
    /// Mangled names of the kernel instances met so far, in order: a
    /// [`HostStmt::Launch`] index is a position here. Unless
    /// `signatures_only`, every instance's body is checked and
    /// `out.kernels` holds them at the same positions.
    instances: Vec<String>,
    /// Whether a launch of a non-generic kernel is typed against its
    /// signature alone, recording only the instance name (a host
    /// function's [`check_fn`]: the body is the kernel's own query).
    signatures_only: bool,
    out: CheckedProgram,
}

impl<'p> GlobalCx<'p> {
    fn new(program: &'p Program) -> TResult<GlobalCx<'p>> {
        let mut views = ViewDefs::new();
        let mut consts: HashMap<String, u64> = HashMap::new();
        for item in &program.items {
            match item {
                Item::View(v) => {
                    views.insert(v.name.clone(), v.params.clone(), v.body.clone());
                }
                Item::Const(c) => {
                    let v = c.value.eval(&|x| consts.get(x).copied()).map_err(|e| {
                        TypeError::new(ErrorKind::NonStaticNat, c.span, e.to_string())
                    })?;
                    consts.insert(c.name.clone(), v);
                }
                Item::Fn(_) => {}
            }
        }
        Ok(GlobalCx {
            program,
            views,
            consts,
            instances: Vec::new(),
            signatures_only: false,
            out: CheckedProgram::default(),
        })
    }

    fn nat_env(&self) -> HashMap<String, u64> {
        self.consts.clone()
    }

    /// Instantiates a GPU kernel, returning its position in
    /// `instances`. The body is checked unless the kernel is non-generic
    /// and `signatures_only` is set.
    fn instantiate_kernel(
        &mut self,
        f: &FnDef,
        nat_args: &[u64],
        call_span: Span,
    ) -> TResult<usize> {
        if f.sig.generics.len() != nat_args.len() {
            return Err(TypeError::new(
                ErrorKind::ArityMismatch,
                call_span,
                format!(
                    "kernel `{}` expects {} generic argument(s), found {}",
                    f.sig.name,
                    f.sig.generics.len(),
                    nat_args.len()
                ),
            ));
        }
        for (name, kind) in &f.sig.generics {
            if *kind != Kind::Nat {
                return Err(TypeError::new(
                    ErrorKind::Unsupported,
                    f.span,
                    format!("generic parameter `{name}` has kind `{kind}`; only `nat` generics are supported"),
                ));
            }
        }
        let mangled = mangle(&f.sig.name, nat_args);
        if let Some(idx) = self.instances.iter().position(|n| *n == mangled) {
            return Ok(idx);
        }
        let mut env = self.nat_env();
        for ((name, _), v) in f.sig.generics.iter().zip(nat_args) {
            env.insert(name.clone(), *v);
        }
        // Check where clauses at instantiation.
        for wc in &f.sig.where_clauses {
            let holds = wc
                .check(&|x| env.get(x).copied())
                .map_err(|e| TypeError::new(ErrorKind::NonStaticNat, call_span, e.to_string()))?;
            if !holds {
                return Err(TypeError::new(
                    ErrorKind::WhereClauseViolated,
                    call_span,
                    format!("instantiation of `{}` violates `{wc}`", f.sig.name),
                ));
            }
        }
        let ExecTy::GpuGrid(bdim, tdim) = &f.sig.exec_ty else {
            return Err(TypeError::new(
                ErrorKind::Unsupported,
                f.span,
                "only gpu.grid functions can be instantiated as kernels",
            ));
        };
        let bdim = subst_dim(bdim, &env, f.span)?;
        let tdim = subst_dim(tdim, &env, f.span)?;
        // Mark before checking to terminate recursion on self-launch.
        self.instances.push(mangled.clone());
        let idx = self.instances.len() - 1;
        if self.signatures_only && f.sig.generics.is_empty() {
            return Ok(idx);
        }
        // A rejection found after some loop was checked once may depend
        // on what that loop recorded (a later access conflicting with it,
        // or a case the interval rule cannot decide): the body is then
        // checked again with every loop checked per iteration, so every
        // diagnostic is the one checking each iteration gives.
        let mut symbolic = true;
        let (params, shared, body, loop_checks) = loop {
            let mut fcx = FnCx::new(
                self,
                env.clone(),
                ExecExpr::grid(bdim.clone(), tdim.clone()),
            );
            fcx.symbolic = symbolic;
            let params = fcx.bind_kernel_params(f, &env)?;
            match fcx.check_block(&f.body, true) {
                Ok(body) => break (params, fcx.shared_allocs, body, fcx.loop_checks),
                Err(_) if symbolic && fcx.loop_checks.once > 0 => symbolic = false,
                Err(e) => return Err(e),
            }
        };
        let kernel = MonoKernel {
            name: mangled.clone(),
            source_name: f.sig.name.clone(),
            grid_dim: dim_to_xyz(&bdim),
            block_dim: dim_to_xyz(&tdim),
            params,
            shared,
            body,
            loop_checks,
        };
        self.out.kernels.push(kernel);
        Ok(idx)
    }

    /// Checks a CPU host function.
    fn check_host_fn(&mut self, f: &FnDef) -> TResult<Vec<HostStmt>> {
        if !f.sig.generics.is_empty() || !f.sig.params.is_empty() {
            return Err(TypeError::new(
                ErrorKind::Unsupported,
                f.span,
                "host functions with generics or parameters are not supported",
            ));
        }
        let env = self.nat_env();
        let mut fcx = FnCx::new(self, env, ExecExpr::cpu_thread());
        fcx.exec_bindings.insert(
            f.sig.exec_name.clone(),
            ExecBinding {
                expr: ExecExpr::cpu_thread(),
                introduced: Vec::new(),
            },
        );
        let _ = fcx.check_block(&f.body, true)?;
        Ok(fcx.host)
    }
}

fn mangle(name: &str, nat_args: &[u64]) -> String {
    if nat_args.is_empty() {
        name.to_string()
    } else {
        let args: Vec<String> = nat_args.iter().map(|v| v.to_string()).collect();
        format!("{name}__{}", args.join("_"))
    }
}

fn subst_dim(d: &Dim, env: &HashMap<String, u64>, span: Span) -> TResult<Dim> {
    let mut comps = Vec::new();
    for (c, n) in d.components() {
        let v = n
            .eval(&|x| env.get(x).copied())
            .map_err(|e| TypeError::new(ErrorKind::NonStaticNat, span, e.to_string()))?;
        comps.push((c, Nat::lit(v)));
    }
    Ok(Dim::new(comps))
}

fn subst_ty(t: &DataTy, env: &HashMap<String, u64>, span: Span) -> TResult<DataTy> {
    // Substitute and force every nat in the type to a literal.
    let substituted = t.subst_nats(&|x| env.get(x).map(|v| Nat::lit(*v)));
    force_literal_nats(&substituted, span)
}

fn force_literal_nats(t: &DataTy, span: Span) -> TResult<DataTy> {
    Ok(match t {
        DataTy::Array(e, n) => {
            let v = n.as_lit().ok_or_else(|| {
                TypeError::new(
                    ErrorKind::NonStaticNat,
                    span,
                    format!("array size `{n}` is not statically known"),
                )
            })?;
            DataTy::Array(Box::new(force_literal_nats(e, span)?), Nat::lit(v))
        }
        DataTy::ArrayView(e, n) => {
            let v = n.as_lit().ok_or_else(|| {
                TypeError::new(
                    ErrorKind::NonStaticNat,
                    span,
                    format!("array size `{n}` is not statically known"),
                )
            })?;
            DataTy::ArrayView(Box::new(force_literal_nats(e, span)?), Nat::lit(v))
        }
        DataTy::Tuple(ts) => DataTy::Tuple(
            ts.iter()
                .map(|t| force_literal_nats(t, span))
                .collect::<TResult<_>>()?,
        ),
        DataTy::Ref(k, m, inner) => {
            DataTy::Ref(*k, m.clone(), Box::new(force_literal_nats(inner, span)?))
        }
        DataTy::At(inner, m) => DataTy::At(Box::new(force_literal_nats(inner, span)?), m.clone()),
        other => other.clone(),
    })
}

/// Extracts the scalar element kind and nested dimensions of an array.
fn scalar_and_dims(t: &DataTy, span: Span) -> TResult<(ScalarKind, Vec<Nat>)> {
    let mut dims = Vec::new();
    let mut cur = t;
    loop {
        match cur {
            DataTy::Array(e, n) | DataTy::ArrayView(e, n) => {
                dims.push(n.clone());
                cur = e;
            }
            DataTy::Scalar(s) => {
                let k = scalar_kind(*s, span)?;
                return Ok((k, dims));
            }
            other => {
                return Err(TypeError::new(
                    ErrorKind::Unsupported,
                    span,
                    format!("expected an array of scalars, found `{other}`"),
                ))
            }
        }
    }
}

fn scalar_kind(s: ScalarTy, span: Span) -> TResult<ScalarKind> {
    Ok(match s {
        ScalarTy::F64 => ScalarKind::F64,
        ScalarTy::F32 => ScalarKind::F32,
        ScalarTy::I32 => ScalarKind::I32,
        ScalarTy::U32 => ScalarKind::U32,
        ScalarTy::Bool => ScalarKind::Bool,
        other => {
            return Err(TypeError::new(
                ErrorKind::Unsupported,
                span,
                format!("scalar type `{other}` is not supported in kernels"),
            ))
        }
    })
}

fn dim_to_xyz(d: &Dim) -> [u64; 3] {
    let get = |c: DimCompo| d.size(c).and_then(Nat::as_lit).unwrap_or(1);
    [get(DimCompo::X), get(DimCompo::Y), get(DimCompo::Z)]
}

/// How a variable binding is realized.
#[derive(Clone, Debug)]
enum BindKind {
    /// A kernel parameter (a reference).
    KernelParam { index: usize, mem: Memory },
    /// A shared-memory allocation (kernel side).
    SharedAlloc { index: usize },
    /// A thread-private scalar local (kernel side).
    LocalScalar,
    /// A host-side `@`-allocation.
    HostBuffer { mem: Memory },
    /// A reference binding with a known referent.
    Alias {
        target: PlacePath,
        target_ty: DataTy,
        uniq: bool,
        target_mem: Option<MemKind>,
        target_dims: Vec<Nat>,
        target_elem: Option<ScalarKind>,
    },
    /// Moved out.
    Dead,
}

#[derive(Clone, Debug)]
struct Binding {
    ty: DataTy,
    mutable: bool,
    owner: ExecExpr,
    kind: BindKind,
}

#[derive(Clone, Debug)]
struct ExecBinding {
    expr: ExecExpr,
    introduced: Vec<usize>,
}

#[derive(Clone, Debug)]
struct BorrowRec {
    path: PlacePath,
    uniq: bool,
    scope_depth: usize,
    temp: bool,
}

/// A fully typed place, ready for recording and lowering.
#[derive(Clone, Debug)]
struct TypedPlace {
    path: PlacePath,
    ty: DataTy,
    mem: Option<MemKind>,
    root_dims: Vec<Nat>,
    elem: Option<ScalarKind>,
    writable: bool,
    /// Whether the place was reached through a reference binding (then
    /// borrow-conflict checks do not apply: the borrow itself grants the
    /// access).
    via_alias: bool,
    /// For a `zip(a, b)` place: the two component places, kept in step
    /// with the outer place (every later index/select/view is mirrored
    /// into both). A projection at the pair point routes the access to
    /// one component — its path, memory and root dimensions become the
    /// access, so each zip component keeps its own base buffer.
    zip: Option<Box<(TypedPlace, TypedPlace)>>,
    span: Span,
}

/// Applies one step to the zip components of `tp`, recursively, so
/// nested zips stay in step: every component (and its own components)
/// receives the same step the outer place just took.
fn zip_mirror(tp: &mut TypedPlace, apply: &dyn Fn(&mut TypedPlace) -> TResult<()>) -> TResult<()> {
    let Some(z) = tp.zip.as_deref_mut() else {
        return Ok(());
    };
    for c in [&mut z.0, &mut z.1] {
        apply(c)?;
        zip_mirror(c, apply)?;
    }
    Ok(())
}

/// Steps a component's type one array dimension inward (index/select
/// mirroring; `zip` is index-preserving per component, and component
/// lengths equal the outer length by the zip typing rule).
fn zip_component_elem(c: &TypedPlace, what: &str, span: Span) -> TResult<DataTy> {
    let (DataTy::Array(e, _) | DataTy::ArrayView(e, _)) = &c.ty else {
        return Err(TypeError::new(
            ErrorKind::MismatchedTypes,
            span,
            format!("cannot {what} zip component of type `{}`", c.ty),
        ));
    };
    Ok((**e).clone())
}

/// Mirrors an index step into the zip components of `tp`.
fn zip_mirror_index(tp: &mut TypedPlace, n: &Nat, span: Span) -> TResult<()> {
    zip_mirror(tp, &|c| {
        c.ty = zip_component_elem(c, "index", span)?;
        c.path.push(PathStep::Index(n.clone()));
        Ok(())
    })
}

/// Mirrors a select step into the zip components of `tp` (the outer
/// place already validated the extent).
fn zip_mirror_select(tp: &mut TypedPlace, sel: &SelectStep, span: Span) -> TResult<()> {
    zip_mirror(tp, &|c| {
        c.ty = zip_component_elem(c, "select from", span)?;
        c.path.push(PathStep::Select(sel.clone()));
        Ok(())
    })
}

/// Mirrors a view application into the zip components of `tp`.
/// Re-resolving against each component's own type keeps
/// length-dependent views (`reverse`, symbolic `group`) correct.
fn zip_mirror_view(tp: &mut TypedPlace, app: &ViewApp, defs: &ViewDefs, span: Span) -> TResult<()> {
    zip_mirror(tp, &|c| {
        let (steps, out_ty) = resolve_view_app(app, defs, &c.ty)
            .map_err(|e| TypeError::new(ErrorKind::ViewMisapplied, span, e.to_string()))?;
        for s in steps {
            c.path.push(PathStep::View(s));
        }
        c.ty = out_ty;
        Ok(())
    })
}

/// Mirrors a tuple projection into the zip components of `tp`; used
/// when a projection hits a *split* of a zip rather than the zip pair
/// itself.
fn zip_mirror_proj(tp: &mut TypedPlace, i: u8, span: Span) -> TResult<()> {
    zip_mirror(tp, &|c| {
        let DataTy::Tuple(parts) = &c.ty else {
            return Err(TypeError::new(
                ErrorKind::MismatchedTypes,
                span,
                format!("cannot project zip component of type `{}`", c.ty),
            ));
        };
        let idx = i as usize;
        if idx >= parts.len() {
            return Err(TypeError::new(
                ErrorKind::MismatchedTypes,
                span,
                "tuple projection out of range",
            ));
        }
        c.ty = parts[idx].clone();
        c.path.push(PathStep::Proj(i));
        Ok(())
    })
}

/// Whether `tp` sits at a zip *pair point*: its type is the pair of its
/// component types, i.e. the zip's array dimension has been fully
/// consumed and a projection must now route into one component.
fn at_zip_pair_point(tp: &TypedPlace) -> bool {
    match (&tp.zip, &tp.ty) {
        (Some(z), DataTy::Tuple(parts)) => {
            parts.len() == 2 && parts[0].same(&z.0.ty) && parts[1].same(&z.1.ty)
        }
        _ => false,
    }
}

/// Per-function checking context.
struct FnCx<'g, 'p> {
    gcx: &'g mut GlobalCx<'p>,
    nat_env: HashMap<String, u64>,
    bindings: HashMap<String, Binding>,
    exec_bindings: HashMap<String, ExecBinding>,
    scopes: Vec<Vec<String>>,
    accesses: Vec<(Access, u32)>,
    borrows: Vec<BorrowRec>,
    /// Barrier epoch: incremented by every `sync`. Accesses from
    /// different epochs that are provably confined to one block instance
    /// are ordered by the barrier and do not race.
    epoch: u32,
    exec: ExecExpr,
    shared_allocs: Vec<SharedAlloc>,
    local_names: HashSet<String>,
    /// Elaborated host statements, in program order (only a host
    /// function produces any; `check_host_fn` returns them).
    host: Vec<HostStmt>,
    /// For-nat iterations this function may still run (starts at
    /// [`LOOP_BUDGET`]; nested loops draw from the same count).
    loop_budget: u64,
    /// The loops whose body is being checked once, innermost last: their
    /// variables are symbolic indices.
    sym_loops: Vec<SymLoop>,
    /// Whether eligible loops are checked once (cleared when a kernel is
    /// checked again with every loop checked per iteration).
    symbolic: bool,
    /// How the loops checked so far were checked.
    loop_checks: LoopChecks,
}

/// A loop whose body is being checked once: `var` stands for every
/// value in `lo..hi`.
struct SymLoop {
    var: String,
    lo: u64,
    hi: u64,
}

impl<'g, 'p> FnCx<'g, 'p> {
    fn new(gcx: &'g mut GlobalCx<'p>, nat_env: HashMap<String, u64>, exec: ExecExpr) -> Self {
        FnCx {
            gcx,
            nat_env,
            bindings: HashMap::new(),
            exec_bindings: HashMap::new(),
            scopes: vec![Vec::new()],
            accesses: Vec::new(),
            borrows: Vec::new(),
            epoch: 0,
            exec,
            shared_allocs: Vec::new(),
            local_names: HashSet::new(),
            host: Vec::new(),
            loop_budget: LOOP_BUDGET,
            sym_loops: Vec::new(),
            symbolic: true,
            loop_checks: LoopChecks::default(),
        }
    }

    fn on_gpu(&self) -> bool {
        !matches!(self.exec.base, descend_exec::ExecBase::CpuThread)
    }

    /// Binds a kernel's execution resource and parameters, returning the
    /// buffer parameters.
    fn bind_kernel_params(
        &mut self,
        f: &FnDef,
        env: &HashMap<String, u64>,
    ) -> TResult<Vec<KernelParam>> {
        self.exec_bindings.insert(
            f.sig.exec_name.clone(),
            ExecBinding {
                expr: self.exec.clone(),
                introduced: Vec::new(),
            },
        );
        let mut params = Vec::new();
        for p in &f.sig.params {
            let ty = subst_ty(&p.ty, env, f.span)?;
            let DataTy::Ref(kind, mem, inner) = &ty else {
                return Err(TypeError::new(
                    ErrorKind::Unsupported,
                    f.span,
                    format!("kernel parameter `{}` must be a reference", p.name),
                ));
            };
            // Non-global parameters (e.g. the paper's cpu.mem deref demo)
            // are bound for checking but get no buffer slot: any use of
            // them as memory errors before lowering.
            let index = if *mem == Memory::GpuGlobal {
                let (elem, dims) = scalar_and_dims(inner, f.span)?;
                params.push(KernelParam {
                    name: p.name.clone(),
                    elem,
                    dims: dims
                        .iter()
                        .map(|d| d.as_lit().expect("substituted dims are literal"))
                        .collect(),
                    uniq: *kind == RefKind::Uniq,
                });
                params.len() - 1
            } else {
                usize::MAX
            };
            self.bind(
                &p.name,
                Binding {
                    ty: ty.clone(),
                    mutable: false,
                    owner: self.exec.clone(),
                    kind: BindKind::KernelParam {
                        index,
                        mem: mem.clone(),
                    },
                },
                f.span,
            )?;
        }
        Ok(params)
    }

    fn bind(&mut self, name: &str, binding: Binding, span: Span) -> TResult<()> {
        if self.bindings.contains_key(name) || self.exec_bindings.contains_key(name) {
            return Err(TypeError::new(
                ErrorKind::Shadowing,
                span,
                format!("`{name}` is already bound; shadowing is not allowed"),
            ));
        }
        self.bindings.insert(name.to_string(), binding);
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .push(name.to_string());
        Ok(())
    }

    fn bind_exec(&mut self, name: &str, eb: ExecBinding, span: Span) -> TResult<()> {
        if self.bindings.contains_key(name) || self.exec_bindings.contains_key(name) {
            return Err(TypeError::new(
                ErrorKind::Shadowing,
                span,
                format!("`{name}` is already bound; shadowing is not allowed"),
            ));
        }
        self.exec_bindings.insert(name.to_string(), eb);
        Ok(())
    }

    fn subst_nat(&self, n: &Nat, span: Span) -> TResult<Nat> {
        let s = n.subst(&|x| self.nat_env.get(x).map(|v| Nat::lit(*v)));
        match s.as_lit() {
            Some(v) => Ok(Nat::lit(v)),
            None => Err(TypeError::new(
                ErrorKind::NonStaticNat,
                span,
                format!("`{n}` is not statically known here"),
            )),
        }
    }

    // ------------------------------------------------------------- places

    fn type_place(&mut self, p: &PlaceExpr) -> TResult<TypedPlace> {
        match &p.kind {
            PlaceExprKind::Ident(x) => {
                let b = self.bindings.get(x).ok_or_else(|| {
                    TypeError::new(
                        ErrorKind::UnknownName,
                        p.span,
                        format!("unknown variable `{x}`"),
                    )
                })?;
                if matches!(b.kind, BindKind::Dead) {
                    return Err(TypeError::new(
                        ErrorKind::MovedValue,
                        p.span,
                        format!("`{x}` has been moved"),
                    ));
                }
                let (mem, root_dims, elem) = match &b.kind {
                    BindKind::SharedAlloc { index } => {
                        let sa = &self.shared_allocs[*index];
                        (
                            Some(MemKind::Shared(*index)),
                            sa.dims.iter().map(|d| Nat::lit(*d)).collect(),
                            Some(sa.elem),
                        )
                    }
                    BindKind::KernelParam { index, mem, .. }
                        if *mem == Memory::GpuGlobal && *index != usize::MAX =>
                    {
                        if let DataTy::Ref(_, _, inner) = &b.ty {
                            let (e, dims) = scalar_and_dims(inner, p.span)?;
                            (Some(MemKind::GlobalParam(*index)), dims, Some(e))
                        } else {
                            (None, Vec::new(), None)
                        }
                    }
                    _ => (None, Vec::new(), None),
                };
                let writable = match &b.kind {
                    BindKind::SharedAlloc { .. } | BindKind::HostBuffer { .. } => true,
                    BindKind::LocalScalar => b.mutable,
                    _ => b.mutable,
                };
                // The `@` annotation is ownership metadata; the place
                // itself holds the allocated value (so `tmp[[thread]]`
                // works directly on a `[f64; n] @ gpu.shared` binding).
                let place_ty = match &b.ty {
                    DataTy::At(inner, _) => (**inner).clone(),
                    other => other.clone(),
                };
                Ok(TypedPlace {
                    path: PlacePath::new(x.clone(), b.owner.clone()),
                    ty: place_ty,
                    mem,
                    root_dims,
                    elem,
                    writable,
                    via_alias: false,
                    zip: None,
                    span: p.span,
                })
            }
            PlaceExprKind::Deref(inner) => {
                // A deref of an alias binding substitutes the referent
                // (the paper: "aliases are resolved by substituting the
                // referenced place expressions").
                if let PlaceExprKind::Ident(x) = &inner.kind {
                    if let Some(Binding {
                        kind:
                            BindKind::Alias {
                                target,
                                target_ty,
                                uniq,
                                target_mem,
                                target_dims,
                                target_elem,
                            },
                        ..
                    }) = self.bindings.get(x)
                    {
                        let tp = TypedPlace {
                            path: target.clone(),
                            ty: target_ty.clone(),
                            mem: *target_mem,
                            root_dims: target_dims.clone(),
                            elem: *target_elem,
                            writable: *uniq,
                            via_alias: true,
                            zip: None,
                            span: p.span,
                        };
                        // The memory-context rule applies to the referent.
                        if let Some(space) = self.root_memory_space(&tp.path.root) {
                            self.check_deref_context(&space, p.span)?;
                        }
                        return Ok(tp);
                    }
                }
                let mut tp = self.type_place(inner)?;
                let DataTy::Ref(kind, mem, pointee) = tp.ty.clone() else {
                    return Err(TypeError::new(
                        ErrorKind::MismatchedTypes,
                        p.span,
                        format!("cannot dereference non-reference type `{}`", tp.ty),
                    ));
                };
                self.check_deref_context(&mem, p.span)?;
                tp.path.push(PathStep::Deref);
                tp.ty = (*pointee).clone();
                tp.writable = kind == RefKind::Uniq;
                Ok(tp)
            }
            PlaceExprKind::Proj(inner, i) => {
                let mut tp = self.type_place(inner)?;
                // At a zip pair point, the projection routes the access
                // into one component: its path (own root and base
                // buffer), memory and dimensions become the place.
                if at_zip_pair_point(&tp) {
                    let z = *tp.zip.take().expect("pair point has components");
                    let mut routed = if *i == 0 { z.0 } else { z.1 };
                    routed.span = p.span;
                    return Ok(routed);
                }
                let DataTy::Tuple(parts) = &tp.ty else {
                    return Err(TypeError::new(
                        ErrorKind::MismatchedTypes,
                        p.span,
                        format!("`.fst`/`.snd` on non-tuple type `{}`", tp.ty),
                    ));
                };
                let idx = *i as usize;
                if idx >= parts.len() {
                    return Err(TypeError::new(
                        ErrorKind::MismatchedTypes,
                        p.span,
                        "tuple projection out of range",
                    ));
                }
                tp.ty = parts[idx].clone();
                tp.path.push(PathStep::Proj(*i));
                zip_mirror_proj(&mut tp, *i, p.span)?;
                Ok(tp)
            }
            PlaceExprKind::Index(inner, n) => {
                let mut tp = self.type_place(inner)?;
                // A symbolic index is bounds-checked at its largest value.
                let (n, max) = match self.symbolic_index(n, p.span) {
                    Some(sym) => {
                        let (n, max) = sym?;
                        (n, Some(max))
                    }
                    None => (self.subst_nat(n, p.span)?, None),
                };
                let (elem, len) = match &tp.ty {
                    DataTy::Array(e, l) | DataTy::ArrayView(e, l) => ((**e).clone(), l.clone()),
                    other => {
                        return Err(TypeError::new(
                            ErrorKind::MismatchedTypes,
                            p.span,
                            format!("cannot index non-array type `{other}`"),
                        ))
                    }
                };
                if let (Some(i), Some(l)) = (max.or_else(|| n.as_lit()), len.as_lit()) {
                    if i >= l {
                        return Err(TypeError::new(
                            ErrorKind::OutOfBounds,
                            p.span,
                            format!("index {i} out of bounds for array of size {l}"),
                        ));
                    }
                }
                tp.ty = elem;
                tp.path.push(PathStep::Index(n.clone()));
                zip_mirror_index(&mut tp, &n, p.span)?;
                Ok(tp)
            }
            PlaceExprKind::Select(inner, exec_var, dim) => {
                let mut tp = self.type_place(inner)?;
                let eb = self
                    .exec_bindings
                    .get(exec_var)
                    .ok_or_else(|| {
                        TypeError::new(
                            ErrorKind::UnknownName,
                            p.span,
                            format!("unknown execution resource `{exec_var}`"),
                        )
                    })?
                    .clone();
                let levels: Vec<usize> = match dim {
                    None => eb.introduced.clone(),
                    Some(d) => {
                        let found = eb.introduced.iter().copied().find(|i| {
                            matches!(
                                &eb.expr.ops[*i],
                                descend_exec::ExecOp::Forall(fd) if fd == d
                            )
                        });
                        vec![found.ok_or_else(|| {
                            TypeError::new(
                                ErrorKind::ScheduleError,
                                p.span,
                                format!("`{exec_var}` does not schedule dimension {d}"),
                            )
                        })?]
                    }
                };
                if levels.is_empty() {
                    return Err(TypeError::new(
                        ErrorKind::ScheduleError,
                        p.span,
                        format!("`{exec_var}` has no scheduled dimensions to select with"),
                    ));
                }
                for li in levels {
                    let extent = eb
                        .expr
                        .forall_levels()
                        .into_iter()
                        .find(|l| l.op_index == li)
                        .expect("introduced indices are forall levels")
                        .extent;
                    let (elem, len) = match &tp.ty {
                        DataTy::Array(e, l) | DataTy::ArrayView(e, l) => ((**e).clone(), l.clone()),
                        other => {
                            return Err(TypeError::new(
                                ErrorKind::MismatchedTypes,
                                p.span,
                                format!("cannot select from non-array type `{other}`"),
                            ))
                        }
                    };
                    if !len.equal(&extent) {
                        return Err(TypeError::new(
                            ErrorKind::SelectSizeMismatch,
                            p.span,
                            format!(
                                "select distributes {extent} resources over an array of size {len}"
                            ),
                        ));
                    }
                    tp.ty = elem;
                    let sel = SelectStep {
                        exec: eb.expr.clone(),
                        level_index: li,
                    };
                    tp.path.push(PathStep::Select(sel.clone()));
                    zip_mirror_select(&mut tp, &sel, p.span)?;
                }
                Ok(tp)
            }
            PlaceExprKind::View(inner, app) => {
                let mut tp = self.type_place(inner)?;
                let app = app.subst_nats(&|x| self.nat_env.get(x).map(|v| Nat::lit(*v)));
                let (steps, out_ty) =
                    resolve_view_app(&app, &self.gcx.views, &tp.ty).map_err(|e| {
                        TypeError::new(ErrorKind::ViewMisapplied, p.span, e.to_string())
                    })?;
                for s in steps {
                    tp.path.push(PathStep::View(s));
                }
                tp.ty = out_ty;
                // The clone only exists to release the borrow on self;
                // non-zip places (the common case) skip it entirely.
                if tp.zip.is_some() {
                    let views = self.gcx.views.clone();
                    zip_mirror_view(&mut tp, &app, &views, p.span)?;
                }
                Ok(tp)
            }
            PlaceExprKind::Zip(a, b) => {
                let ta = self.type_place(a)?;
                let tb = self.type_place(b)?;
                // Length equality is a nat constraint decided by
                // normalization (zip_ty); mismatches and undecidable
                // sizes are view-application errors.
                let ty = zip_ty(&ta.ty, &tb.ty).map_err(|e| {
                    TypeError::new(ErrorKind::ViewMisapplied, p.span, e.to_string())
                })?;
                // The outer pair place is unusable until projected; it
                // carries a `zip` view step so diagnostics and lowering
                // errors name the zip, and the real component places so
                // a later `.0`/`.1` can route.
                let mut path = ta.path.clone();
                path.push(PathStep::View(ViewStep::Zip));
                Ok(TypedPlace {
                    path,
                    ty,
                    mem: None,
                    root_dims: Vec::new(),
                    elem: None,
                    writable: false,
                    via_alias: ta.via_alias && tb.via_alias,
                    zip: Some(Box::new((ta, tb))),
                    span: p.span,
                })
            }
        }
    }

    /// Records an access, performing the paper's `access_safety_check`.
    fn record_access(&mut self, tp: &TypedPlace, mode: AccessMode, span: Span) -> TResult<()> {
        // An unprojected zip is not a memory region: its element is a
        // pair whose halves live in different buffers. Accesses must
        // first project with `.0`/`.1`, which routes to one component.
        if tp.zip.is_some() {
            return Err(TypeError::new(
                ErrorKind::ViewMisapplied,
                span,
                "a `zip` must be projected with `.0`/`.1` before it is accessed",
            ));
        }
        // Local scalars are thread-private; nothing to check.
        if tp.mem.is_none() && !self.is_trackable_root(&tp.path.root) {
            return Ok(());
        }
        let access = Access {
            path: tp.path.clone(),
            mode,
            exec: self.exec.clone(),
            span,
            sym: self.sym_index(&tp.path, span)?,
        };
        // 1. Narrowing.
        if let Some(missing) = narrowing_violation(&access.path, mode, &self.exec) {
            let lvl = &missing.missing[0];
            return Err(TypeError::new(
                ErrorKind::NarrowingViolation,
                span,
                format!(
                    "unique access to `{}` is not narrowed: no select distributes the {} {} level (extent {})",
                    access.path,
                    lvl.space.noun(),
                    lvl.dim,
                    lvl.extent
                ),
            )
            .with_help(format!(
                "insert the missing select: view `{0}` with `group::<..>` (or \
                 `split` it) into {2} parts and select one per {1} with \
                 `[[..]]`, so each of the {2} {1}s owns a distinct chunk",
                access.path,
                lvl.space.noun(),
                lvl.extent
            ))
            .with_help(
                "each execution resource must select its own distinct part of the memory",
            ));
        }
        // 2. Conflicts with prior accesses. A pair separated by a barrier
        // is ordered if both sides are confined to a single block
        // instance (their common prefix selects every block-space level):
        // the block-wide `sync` then happens-before-orders them.
        for (prior, prior_epoch) in &self.accesses {
            if may_race(&access, prior) {
                if *prior_epoch != self.epoch {
                    match barrier_ordered(&access, prior) {
                        Some(true) => continue,
                        Some(false) => {}
                        None => return Err(undecidable(span)),
                    }
                }
                return Err(conflict(span, prior));
            }
        }
        // Inside loops checked once, the access stands for one access per
        // iteration, each of which must not conflict with the others. Its
        // indices repeat when some of those loops has no index in it.
        let repeats = access.sym.as_slice().len() < self.sym_loops.len();
        if !self.sym_loops.is_empty() && may_race_repeated(&access, repeats) {
            return Err(conflict(span, &access));
        }
        // 3. Rust-style borrow conflicts (sequential aliasing). Accesses
        // that go *through* a reference binding are exempt: the borrow
        // itself grants them (alias substitution rewrote them to the
        // target path), and conflicting borrows were rejected at creation.
        let is_write = mode != AccessMode::Shrd;
        if !tp.via_alias {
            for b in &self.borrows {
                if (b.uniq || is_write) && may_overlap(&b.path, &access.path, &access.sym) {
                    return Err(TypeError::new(
                        ErrorKind::BorrowConflict,
                        span,
                        format!("cannot access `{}` while it is borrowed", access.path),
                    ));
                }
            }
        }
        self.accesses.push((access, self.epoch));
        Ok(())
    }

    /// An index nat through the variable of a loop whose body is being
    /// checked once: `None` if `n` mentions no such variable, else the
    /// index as `var` or `var + c` with the largest value it reads (`hi +
    /// c` fits in a `u64`). An index the loop's eligibility scan admitted
    /// is affine in `var` with coefficient one, so its value at `lo`
    /// gives `c`.
    fn symbolic_index(&self, n: &Nat, span: Span) -> Option<TResult<(Nat, u64)>> {
        let mut mentioned = self.sym_loops.iter().filter(|l| nat_mentions(n, &l.var));
        let l = mentioned.next()?;
        if mentioned.next().is_some() {
            return Some(Err(undecidable(span)));
        }
        let at_lo = n
            .subst(&|x| {
                let v = if x == l.var {
                    Some(l.lo)
                } else {
                    self.nat_env.get(x).copied()
                };
                v.map(Nat::lit)
            })
            .as_lit();
        let c = at_lo
            .and_then(|v| v.checked_sub(l.lo))
            .filter(|c| l.hi.checked_add(*c).is_some());
        Some(match c {
            Some(0) => Ok((Nat::var(&l.var), l.hi - 1)),
            Some(c) => Ok((Nat::var(&l.var) + Nat::lit(c), l.hi - 1 + c)),
            None => Err(undecidable(span)),
        })
    }

    /// The symbolic loop indices of an access path, one per loop checked
    /// once that indexes it. The joint rule compares them step by step,
    /// which needs each through a distinct variable: a path indexed
    /// through one variable at two steps is not decided. (The budget
    /// keeps the loops checked once, each of two trips or more, fewer
    /// than 13 deep.)
    fn sym_index(&self, path: &PlacePath, span: Span) -> TResult<SymSteps> {
        let mut found = SymSteps::None;
        if self.sym_loops.is_empty() {
            return Ok(found);
        }
        let mut used = 0u64;
        for (step, s) in path.steps.iter().enumerate() {
            let PathStep::Index(n) = s else { continue };
            let Some((var, c)) = loop_index(n) else {
                continue;
            };
            let Some(k) = self.sym_loops.iter().position(|l| l.var == var) else {
                continue;
            };
            if used & 1 << k != 0 {
                return Err(undecidable(span));
            }
            used |= 1 << k;
            let l = &self.sym_loops[k];
            found.push(SymIndex {
                step,
                lo: l.lo + c,
                hi: l.hi + c,
            });
        }
        Ok(found)
    }

    /// The memory-context rule (paper §2.3): a pointer into GPU memory
    /// cannot be dereferenced on the CPU, nor a `cpu.mem` pointer on the
    /// GPU.
    fn check_deref_context(&self, mem: &Memory, span: Span) -> TResult<()> {
        let on_gpu = self.on_gpu();
        let bad = match mem {
            Memory::CpuMem => on_gpu,
            Memory::GpuGlobal | Memory::GpuShared => !on_gpu,
            Memory::Ident(_) => false,
        };
        if !bad {
            return Ok(());
        }
        let who = if on_gpu { "gpu.Thread" } else { "cpu.thread" };
        Err(TypeError::new(
            ErrorKind::WrongExecutionContext,
            span,
            format!("cannot dereference pointer in `{mem}` memory"),
        )
        .with_help(format!("this code is executed by `{who}`")))
    }

    /// The memory space the named root lives in, if any.
    fn root_memory_space(&self, root: &str) -> Option<Memory> {
        match self.bindings.get(root).map(|b| &b.kind) {
            Some(BindKind::HostBuffer { mem }) => Some(mem.clone()),
            Some(BindKind::SharedAlloc { .. }) => Some(Memory::GpuShared),
            Some(BindKind::KernelParam { mem, .. }) => Some(mem.clone()),
            _ => None,
        }
    }

    fn is_trackable_root(&self, root: &str) -> bool {
        matches!(
            self.bindings.get(root).map(|b| &b.kind),
            Some(
                BindKind::KernelParam { .. }
                    | BindKind::SharedAlloc { .. }
                    | BindKind::HostBuffer { .. }
            )
        )
    }

    // -------------------------------------------------------- expressions

    fn type_expr(&mut self, e: &Expr) -> TResult<(DataTy, Option<ElabExpr>)> {
        match &e.kind {
            ExprKind::Lit(l) => Ok(match l {
                Lit::F64(v) => (DataTy::f64(), Some(ElabExpr::Lit(ScalarKind::F64, *v))),
                Lit::F32(v) => (
                    DataTy::f32(),
                    Some(ElabExpr::Lit(ScalarKind::F32, *v as f64)),
                ),
                Lit::I32(v) => (
                    DataTy::i32(),
                    Some(ElabExpr::Lit(ScalarKind::I32, *v as f64)),
                ),
                Lit::U32(v) => (
                    DataTy::Scalar(ScalarTy::U32),
                    Some(ElabExpr::Lit(ScalarKind::U32, *v as f64)),
                ),
                Lit::Bool(v) => (
                    DataTy::Scalar(ScalarTy::Bool),
                    Some(ElabExpr::Lit(ScalarKind::Bool, f64::from(u8::from(*v)))),
                ),
                Lit::Unit => (DataTy::unit(), None),
            }),
            ExprKind::Place(p) => {
                let tp = self.type_place(p)?;
                if !tp.ty.is_copyable() {
                    // Move semantics: only whole variables can move.
                    if !tp.path.steps.is_empty() {
                        return Err(TypeError::new(
                            ErrorKind::Unsupported,
                            e.span,
                            format!("cannot move out of `{}`", tp.path),
                        ));
                    }
                    // Every iteration but the first would find it moved.
                    if !self.sym_loops.is_empty() {
                        return Err(undecidable(e.span));
                    }
                    self.record_access(&tp, AccessMode::Uniq, e.span)?;
                    let b = self
                        .bindings
                        .get_mut(&tp.path.root)
                        .expect("typed place roots are bound");
                    b.kind = BindKind::Dead;
                    return Ok((tp.ty.clone(), None));
                }
                self.record_access(&tp, AccessMode::Shrd, e.span)?;
                let elab = self.elab_read(&tp);
                Ok((tp.ty, elab))
            }
            ExprKind::Borrow { uniq, place } => {
                let tp = self.type_place(place)?;
                let mode = if *uniq {
                    AccessMode::Uniq
                } else {
                    AccessMode::Shrd
                };
                if *uniq && !tp.writable && !self.is_owned_buffer(&tp) {
                    return Err(TypeError::new(
                        ErrorKind::NotWritable,
                        e.span,
                        format!("cannot uniquely borrow read-only place `{}`", tp.path),
                    ));
                }
                self.record_access(&tp, mode, e.span)?;
                self.borrows.push(BorrowRec {
                    path: tp.path.clone(),
                    uniq: *uniq,
                    scope_depth: self.scopes.len(),
                    temp: true,
                });
                let mem = self.place_memory(&tp)?;
                let kind = if *uniq { RefKind::Uniq } else { RefKind::Shrd };
                Ok((DataTy::Ref(kind, mem, Box::new(tp.ty.clone())), None))
            }
            ExprKind::Binary(op, a, b) => {
                let (ta, ea) = self.type_expr(a)?;
                let (tb, eb) = self.type_expr(b)?;
                if !ta.same(&tb) {
                    return Err(TypeError::new(
                        ErrorKind::MismatchedTypes,
                        e.span,
                        format!("operands of `{op}` have different types: `{ta}` vs `{tb}`"),
                    ));
                }
                let out_ty = if op.is_comparison() {
                    DataTy::Scalar(ScalarTy::Bool)
                } else if op.is_logical() {
                    if !ta.same(&DataTy::Scalar(ScalarTy::Bool)) {
                        return Err(TypeError::new(
                            ErrorKind::MismatchedTypes,
                            e.span,
                            format!("`{op}` requires booleans, found `{ta}`"),
                        ));
                    }
                    DataTy::Scalar(ScalarTy::Bool)
                } else {
                    if !matches!(ta, DataTy::Scalar(s) if s != ScalarTy::Bool && s != ScalarTy::Unit)
                    {
                        return Err(TypeError::new(
                            ErrorKind::MismatchedTypes,
                            e.span,
                            format!("`{op}` requires numeric operands, found `{ta}`"),
                        ));
                    }
                    ta.clone()
                };
                let elab = match (ea, eb) {
                    (Some(x), Some(y)) => Some(ElabExpr::Binary(*op, Box::new(x), Box::new(y))),
                    _ => None,
                };
                Ok((out_ty, elab))
            }
            ExprKind::Unary(op, a) => {
                let (ta, ea) = self.type_expr(a)?;
                match op {
                    UnOp::Neg => {
                        if !matches!(
                            ta,
                            DataTy::Scalar(
                                ScalarTy::F32 | ScalarTy::F64 | ScalarTy::I32 | ScalarTy::I64
                            )
                        ) {
                            return Err(TypeError::new(
                                ErrorKind::MismatchedTypes,
                                e.span,
                                format!("cannot negate `{ta}`"),
                            ));
                        }
                    }
                    UnOp::Not => {
                        if !ta.same(&DataTy::Scalar(ScalarTy::Bool)) {
                            return Err(TypeError::new(
                                ErrorKind::MismatchedTypes,
                                e.span,
                                format!("cannot apply `!` to `{ta}`"),
                            ));
                        }
                    }
                }
                Ok((ta, ea.map(|x| ElabExpr::Unary(*op, Box::new(x)))))
            }
            ExprKind::Shfl { kind, value, delta } => {
                self.check_shuffle_context(*kind, e.span)?;
                let d = self.subst_nat(delta, e.span)?;
                let d = d.as_lit().expect("substituted nats are literal");
                if d == 0 {
                    return Err(TypeError::new(
                        ErrorKind::ShuffleError,
                        e.span,
                        format!("`{kind}` with distance 0 exchanges nothing"),
                    )
                    .with_help(format!(
                        "use a distance between 1 and {} (below the warp size {})",
                        descend_exec::WARP_SIZE - 1,
                        descend_exec::WARP_SIZE
                    )));
                }
                if d >= descend_exec::WARP_SIZE {
                    return Err(TypeError::new(
                        ErrorKind::ShuffleError,
                        e.span,
                        format!(
                            "shuffle distance {d} reaches across the warp boundary (warp size {})",
                            descend_exec::WARP_SIZE
                        ),
                    )
                    .with_help(
                        "lanes can only exchange within their own warp; stage cross-warp \
                         values through shared memory and a `sync` instead",
                    ));
                }
                let (vty, velab) = self.type_expr(value)?;
                if !matches!(
                    vty,
                    DataTy::Scalar(ScalarTy::F64 | ScalarTy::F32 | ScalarTy::I32 | ScalarTy::U32)
                ) {
                    return Err(TypeError::new(
                        ErrorKind::MismatchedTypes,
                        value.span,
                        format!("`{kind}` exchanges numeric scalars, found `{vty}`"),
                    ));
                }
                let velab = velab.ok_or_else(|| {
                    TypeError::new(
                        ErrorKind::Unsupported,
                        value.span,
                        "shuffle operand cannot be lowered",
                    )
                })?;
                Ok((
                    vty,
                    Some(ElabExpr::Shfl {
                        kind: *kind,
                        value: Box::new(velab),
                        delta: d as u32,
                    }),
                ))
            }
            ExprKind::Alloc { .. } => Err(TypeError::new(
                ErrorKind::Unsupported,
                e.span,
                "`alloc` is only allowed as a `let` initializer",
            )),
            ExprKind::Call { .. } | ExprKind::Launch { .. } => Err(TypeError::new(
                ErrorKind::Unsupported,
                e.span,
                "calls are only allowed as statements or `let` initializers",
            )),
        }
    }

    fn is_owned_buffer(&self, tp: &TypedPlace) -> bool {
        matches!(
            self.bindings.get(&tp.path.root).map(|b| &b.kind),
            Some(BindKind::HostBuffer { .. } | BindKind::SharedAlloc { .. })
        )
    }

    fn place_memory(&self, tp: &TypedPlace) -> TResult<Memory> {
        match self.bindings.get(&tp.path.root).map(|b| &b.kind) {
            Some(BindKind::HostBuffer { mem }) => Ok(mem.clone()),
            Some(BindKind::SharedAlloc { .. }) => Ok(Memory::GpuShared),
            Some(BindKind::KernelParam { mem, .. }) => Ok(mem.clone()),
            Some(BindKind::Alias { .. })
            | Some(BindKind::LocalScalar)
            | Some(BindKind::Dead)
            | None => Err(TypeError::new(
                ErrorKind::Unsupported,
                tp.span,
                "cannot borrow this place",
            )),
        }
    }

    fn elab_read(&self, tp: &TypedPlace) -> Option<ElabExpr> {
        if !self.on_gpu() {
            return None;
        }
        match (&tp.mem, &tp.ty) {
            (Some(mem), DataTy::Scalar(s)) => {
                let elem = tp.elem.or_else(|| scalar_kind(*s, tp.span).ok())?;
                Some(ElabExpr::Load(ElabAccess {
                    path: tp.path.clone(),
                    root_dims: tp.root_dims.clone(),
                    mem: *mem,
                    elem,
                }))
            }
            (None, DataTy::Scalar(_)) => {
                if tp.path.steps.is_empty() {
                    Some(ElabExpr::Local(tp.path.root.clone()))
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    // --------------------------------------------------------- statements

    fn check_block(&mut self, b: &Block, outer: bool) -> TResult<Vec<ElabStmt>> {
        if !outer {
            self.scopes.push(Vec::new());
        }
        let mut out = Vec::new();
        for s in &b.stmts {
            self.check_stmt(s, &mut out)?;
            // Temporary borrows die at the end of each statement.
            self.borrows.retain(|br| !br.temp);
        }
        if !outer {
            let names = self.scopes.pop().expect("pushed above");
            for n in names {
                self.bindings.remove(&n);
            }
            let depth = self.scopes.len();
            self.borrows.retain(|br| br.scope_depth <= depth);
        }
        Ok(out)
    }

    fn check_stmt(&mut self, s: &Stmt, out: &mut Vec<ElabStmt>) -> TResult<()> {
        // Source-location marker for the statements this one elaborates
        // into: cost attribution in the simulator's launch traces.
        if self.on_gpu() && !s.span.is_dummy() {
            out.push(ElabStmt::Src(s.span));
        }
        match &s.kind {
            StmtKind::Let {
                name,
                mutable,
                ty,
                init,
            } => self.check_let(name, *mutable, ty.as_ref(), init, s.span, out),
            StmtKind::Assign { place, op, value } => {
                // Desugar `p += e` to `p = p + e` (reading p first).
                let desugared;
                let value_expr = match op {
                    Some(binop) => {
                        desugared = Expr {
                            kind: ExprKind::Binary(
                                *binop,
                                Box::new(Expr {
                                    kind: ExprKind::Place(place.clone()),
                                    span: place.span,
                                }),
                                Box::new(value.clone()),
                            ),
                            span: s.span,
                        };
                        &desugared
                    }
                    None => value,
                };
                let (vty, velab) = self.type_expr(value_expr)?;
                let tp = self.type_place(place)?;
                if !tp.writable {
                    return Err(TypeError::new(
                        ErrorKind::NotWritable,
                        s.span,
                        format!("cannot write to `{}`", tp.path),
                    ));
                }
                if !tp.ty.same_modulo_view(&vty) {
                    return Err(TypeError::new(
                        ErrorKind::MismatchedTypes,
                        s.span,
                        format!("expected `{}`, found `{vty}`", tp.ty),
                    ));
                }
                self.record_access(&tp, AccessMode::Uniq, place.span)?;
                if self.on_gpu() {
                    let Some(velab) = velab else {
                        return Err(TypeError::new(
                            ErrorKind::Unsupported,
                            s.span,
                            "only scalar values can be stored on the GPU",
                        ));
                    };
                    match (&tp.mem, self.bindings.get(&tp.path.root).map(|b| &b.kind)) {
                        (Some(mem), _) => {
                            let elem = tp.elem.expect("memory-backed places have elements");
                            out.push(ElabStmt::Store {
                                access: ElabAccess {
                                    path: tp.path.clone(),
                                    root_dims: tp.root_dims.clone(),
                                    mem: *mem,
                                    elem,
                                },
                                value: velab,
                            });
                        }
                        (None, Some(BindKind::LocalScalar)) => {
                            out.push(ElabStmt::AssignLocal {
                                name: tp.path.root.clone(),
                                value: velab,
                            });
                        }
                        _ => {
                            return Err(TypeError::new(
                                ErrorKind::Unsupported,
                                s.span,
                                "unsupported assignment target on the GPU",
                            ))
                        }
                    }
                }
                Ok(())
            }
            StmtKind::Expr(e) => self.check_expr_stmt(e, out),
            StmtKind::ToWarps { var, exec, body } => {
                let eb = self.lookup_exec(exec, s.span)?;
                if !eb.expr.same(&self.exec) {
                    return Err(TypeError::new(
                        ErrorKind::ScheduleError,
                        s.span,
                        format!(
                            "`to_warps` must refine the current execution resource; `{exec}` is not it"
                        ),
                    ));
                }
                let new_exec = self
                    .exec
                    .to_warps()
                    .map_err(|e| TypeError::new(ErrorKind::ScheduleError, s.span, e.to_string()))?;
                // No forall is introduced: the body sees the same
                // threads, now organized as warp space over lane space.
                let eb = ExecBinding {
                    expr: new_exec,
                    introduced: Vec::new(),
                };
                self.check_scheduled(var, eb, s.span, body, out)
            }
            StmtKind::Sched {
                dims,
                var,
                exec,
                body,
            } => {
                let eb = self.lookup_exec(exec, s.span)?;
                if !eb.expr.same(&self.exec) {
                    return Err(TypeError::new(
                        ErrorKind::ScheduleError,
                        s.span,
                        format!(
                            "`sched` must refine the current execution resource; `{exec}` is not it"
                        ),
                    ));
                }
                let mut new_exec = self.exec.clone();
                let mut introduced = Vec::new();
                for d in dims {
                    new_exec = new_exec.forall(*d).map_err(|e| {
                        TypeError::new(ErrorKind::ScheduleError, s.span, e.to_string())
                    })?;
                    introduced.push(new_exec.ops.len() - 1);
                }
                let eb = ExecBinding {
                    expr: new_exec,
                    introduced,
                };
                self.check_scheduled(var, eb, s.span, body, out)
            }
            StmtKind::SplitExec {
                dim,
                exec,
                pos,
                fst_var,
                fst_body,
                snd_var,
                snd_body,
            } => {
                let eb = self.lookup_exec(exec, s.span)?;
                if !eb.expr.same(&self.exec) {
                    return Err(TypeError::new(
                        ErrorKind::ScheduleError,
                        s.span,
                        format!(
                            "`split` must refine the current execution resource; `{exec}` is not it"
                        ),
                    ));
                }
                let pos = self.subst_nat(pos, s.span)?;
                let space = self.exec.current_space().ok_or_else(|| {
                    TypeError::new(
                        ErrorKind::ScheduleError,
                        s.span,
                        "nothing left to split: the resource is a single thread",
                    )
                })?;
                // Absolute threshold: accumulated snd offsets plus pos.
                let offset = split_offset(&self.exec, space, *dim);
                let threshold = offset + pos.as_lit().expect("substituted nats are literal");
                let fst_exec = self
                    .exec
                    .split(*dim, pos.clone(), Side::Fst)
                    .map_err(|e| TypeError::new(ErrorKind::ScheduleError, s.span, e.to_string()))?;
                let snd_exec = self
                    .exec
                    .split(*dim, pos, Side::Snd)
                    .map_err(|e| TypeError::new(ErrorKind::ScheduleError, s.span, e.to_string()))?;
                let saved = self.exec.clone();
                // First branch.
                self.exec = fst_exec.clone();
                self.bind_exec(
                    fst_var,
                    ExecBinding {
                        expr: fst_exec,
                        introduced: Vec::new(),
                    },
                    s.span,
                )?;
                let fst_stmts = self.check_block(fst_body, false)?;
                self.exec_bindings.remove(fst_var);
                // Second branch.
                self.exec = snd_exec.clone();
                self.bind_exec(
                    snd_var,
                    ExecBinding {
                        expr: snd_exec,
                        introduced: Vec::new(),
                    },
                    s.span,
                )?;
                let snd_stmts = self.check_block(snd_body, false)?;
                self.exec_bindings.remove(snd_var);
                self.exec = saved;
                out.push(ElabStmt::Split {
                    space,
                    dim: *dim,
                    threshold,
                    fst: fst_stmts,
                    snd: snd_stmts,
                });
                Ok(())
            }
            StmtKind::ForNat { var, range, body } => {
                if self.nat_env.contains_key(var)
                    || self.bindings.contains_key(var)
                    || self.sym_loops.iter().any(|l| l.var == *var)
                {
                    return Err(TypeError::new(
                        ErrorKind::Shadowing,
                        s.span,
                        format!("loop variable `{var}` shadows an existing binding"),
                    ));
                }
                let values = range
                    .values(&|x| self.nat_env.get(x).copied())
                    .map_err(|m| TypeError::new(ErrorKind::NonStaticNat, s.span, m))?;
                let trips = values.len() as u64;
                // Every iteration of the loops checked once around this
                // one runs it again.
                let runs = self
                    .sym_loops
                    .iter()
                    .fold(trips, |n, l| n.saturating_mul(l.hi - l.lo));
                if runs > self.loop_budget {
                    return Err(TypeError::new(
                        ErrorKind::LoopBudgetExceeded,
                        s.span,
                        format!(
                            "this loop runs {trips} iterations, more than the {} left \
                             of this function's budget of {LOOP_BUDGET}",
                            self.loop_budget
                        ),
                    )
                    .with_help(
                        "every iteration is checked separately; iterate over a view \
                         (`group`, `windows`) or schedule more threads instead",
                    ));
                }
                self.loop_budget -= runs;
                let range_lo = match range {
                    NatRange::Range { .. } if trips >= 2 && self.on_gpu() => values.clone().next(),
                    _ => None,
                };
                if let Some(lo) = range_lo {
                    if self.symbolic
                        && var != DYN_IDX
                        && checkable_once(var, body)
                        && self.check_once(var, lo, lo + trips, body, out).is_ok()
                    {
                        self.loop_checks.once += 1;
                        return Ok(());
                    }
                }
                // Every iteration is checked and elaborated in turn.
                for v in values {
                    self.nat_env.insert(var.clone(), v);
                    let stmts = self.check_block(body, false);
                    self.nat_env.remove(var);
                    out.extend(stmts?);
                }
                self.loop_checks.per_iteration += 1;
                Ok(())
            }
            StmtKind::Sync => {
                if !self.on_gpu() {
                    return Err(TypeError::new(
                        ErrorKind::WrongExecutionContext,
                        s.span,
                        "`sync` is a GPU barrier; it cannot run on the CPU",
                    ));
                }
                if self.exec.thread_space_has_split() {
                    return Err(TypeError::new(
                        ErrorKind::BarrierNotAllowed,
                        s.span,
                        "`sync` not performed by all threads in the block",
                    )
                    .with_help(
                        "the block is split here; barriers must be reached by every thread of the block",
                    )
                    .with_help(
                        "hoist the `sync` out of the `split { .. }` so every thread of the \
                         block reaches it, then split again for the divergent work",
                    ));
                }
                // The barrier orders all intra-block accesses: release the
                // recorded accesses to shared memory (per-block by
                // construction) and advance the barrier epoch. Both are
                // only sound when *every* block executes this sync, i.e.
                // the current resource is not under any split; a sync
                // inside a block-space split branch still emits a barrier
                // but conservatively keeps the records.
                let all_blocks_sync = !self
                    .exec
                    .ops
                    .iter()
                    .any(|op| matches!(op, descend_exec::ExecOp::Split { .. }));
                if all_blocks_sync {
                    let bindings = &self.bindings;
                    self.accesses.retain(|(a, _)| {
                        !matches!(
                            bindings.get(&a.path.root).map(|b| &b.kind),
                            Some(BindKind::SharedAlloc { .. })
                        )
                    });
                    self.epoch += 1;
                }
                out.push(ElabStmt::Sync);
                Ok(())
            }
            StmtKind::AtomicRmw {
                op,
                place,
                index,
                value,
            } => self.check_atomic(*op, place, index.as_ref(), value, s.span, out),
            StmtKind::Scope(b) => {
                let stmts = self.check_block(b, false)?;
                out.extend(stmts);
                Ok(())
            }
        }
    }

    /// Checks the body of a `sched` or `to_warps` with `var` bound to
    /// the execution resource `eb` it schedules, and appends its
    /// statements. The resource and the binding are restored on an error
    /// too: a loop checked once drops the error and checks each
    /// iteration.
    fn check_scheduled(
        &mut self,
        var: &str,
        eb: ExecBinding,
        span: Span,
        body: &Block,
        out: &mut Vec<ElabStmt>,
    ) -> TResult<()> {
        let exec = eb.expr.clone();
        self.bind_exec(var, eb, span)?;
        let saved_exec = std::mem::replace(&mut self.exec, exec);
        let stmts = self.check_block(body, false);
        self.exec_bindings.remove(var);
        self.exec = saved_exec;
        out.extend(stmts?);
        Ok(())
    }

    /// Checks the body of `for var in [lo..hi]` once, `var` a symbolic
    /// index over the range, and appends the loop's elaboration. On an
    /// error, the records the attempt made are dropped again and the
    /// error returned: the caller then checks the loop per iteration,
    /// which gives every rejection its usual diagnostic.
    fn check_once(
        &mut self,
        var: &str,
        lo: u64,
        hi: u64,
        body: &Block,
        out: &mut Vec<ElabStmt>,
    ) -> TResult<()> {
        let (accesses, borrows, scopes) =
            (self.accesses.len(), self.borrows.len(), self.scopes.len());
        let (budget, checks) = (self.loop_budget, self.loop_checks);
        self.sym_loops.push(SymLoop {
            var: var.to_string(),
            lo,
            hi,
        });
        let checked = self.check_block(body, false);
        self.sym_loops.pop();
        match checked {
            Ok(stmts) => {
                let outer: Vec<String> = self.sym_loops.iter().map(|l| l.var.clone()).collect();
                emit_checked_once(var, lo, hi, stmts, &outer, out);
                Ok(())
            }
            Err(e) => {
                // The body binds no names and runs no barrier (see
                // `checkable_once`; a `sched` restores its own binding),
                // so the records it made are the ones past these marks.
                self.accesses.truncate(accesses);
                self.borrows.truncate(borrows);
                self.scopes.truncate(scopes);
                self.loop_budget = budget;
                self.loop_checks = checks;
                Err(e)
            }
        }
    }

    /// Checks an atomic RMW statement (paper-extension: the typed escape
    /// hatch for cross-thread accumulation). Atomics are the *only* way a
    /// place reachable by several threads may be mutated without
    /// narrowing selects: the access is recorded with
    /// [`AccessMode::Atomic`], which skips the narrowing rule and never
    /// conflicts with other atomics — while any plain read or write of an
    /// overlapping place still conflicts.
    fn check_atomic(
        &mut self,
        op: AtomicOp,
        place: &PlaceExpr,
        index: Option<&Expr>,
        value: &Expr,
        span: Span,
        out: &mut Vec<ElabStmt>,
    ) -> TResult<()> {
        if !self.on_gpu() {
            return Err(TypeError::new(
                ErrorKind::WrongExecutionContext,
                span,
                format!("`{op}` is a GPU operation; it cannot run on the CPU"),
            ));
        }
        let (vty, velab) = self.type_expr(value)?;
        let idx_elab = match index {
            Some(ix) => {
                let (ity, ielab) = self.type_expr(ix)?;
                if !matches!(ity, DataTy::Scalar(ScalarTy::I32 | ScalarTy::U32)) {
                    return Err(TypeError::new(
                        ErrorKind::MismatchedTypes,
                        ix.span,
                        format!("atomic element index must be `i32` or `u32`, found `{ity}`"),
                    ));
                }
                let ielab = ielab.ok_or_else(|| {
                    TypeError::new(
                        ErrorKind::Unsupported,
                        ix.span,
                        "atomic index cannot be lowered",
                    )
                })?;
                // The scatter index is spliced into the shared address
                // lowering as a pure expression; a shuffle (a warp-
                // synchronous instruction) cannot live there.
                if elab_contains_shfl(&ielab) {
                    return Err(TypeError::new(
                        ErrorKind::ShuffleError,
                        ix.span,
                        "shuffles cannot appear inside an atomic element index",
                    )
                    .with_help("bind the shuffled value to a local first"));
                }
                Some(ielab)
            }
            None => None,
        };
        let mut tp = self.type_place(place)?;
        if index.is_some() {
            // Scatter form: the place denotes a 1-D array; the element is
            // chosen at runtime. The path gains the DYN_IDX sentinel so
            // the address lowers through the ordinary pipeline.
            let (DataTy::Array(elem, _) | DataTy::ArrayView(elem, _)) = tp.ty.clone() else {
                return Err(TypeError::new(
                    ErrorKind::MismatchedTypes,
                    place.span,
                    format!(
                        "the scatter form of `{op}` targets an array place, found `{}`",
                        tp.ty
                    ),
                ));
            };
            if !matches!(*elem, DataTy::Scalar(_)) {
                return Err(TypeError::new(
                    ErrorKind::Unsupported,
                    place.span,
                    "atomic scatter targets must be arrays of scalars",
                ));
            }
            tp.ty = *elem;
            tp.path.push(PathStep::Index(Nat::var(DYN_IDX)));
        }
        let DataTy::Scalar(s) = tp.ty else {
            return Err(TypeError::new(
                ErrorKind::MismatchedTypes,
                place.span,
                format!("`{op}` targets a scalar place, found `{}`", tp.ty),
            ));
        };
        let elem = scalar_kind(s, place.span)?;
        if !matches!(elem, ScalarKind::I32 | ScalarKind::U32 | ScalarKind::F32) {
            return Err(TypeError::new(
                ErrorKind::MismatchedTypes,
                place.span,
                format!(
                    "atomic operations are supported on `i32`, `u32` and `f32` places, not `{s}`"
                ),
            ));
        }
        if matches!(op, AtomicOp::Min | AtomicOp::Max) && elem == ScalarKind::F32 {
            return Err(TypeError::new(
                ErrorKind::MismatchedTypes,
                place.span,
                "`atomic_min`/`atomic_max` require an integer place (no GPU target provides native f32 min/max atomics)",
            ));
        }
        if !tp.writable {
            return Err(TypeError::new(
                ErrorKind::NotWritable,
                span,
                format!("cannot atomically update read-only place `{}`", tp.path),
            ));
        }
        if !vty.same(&DataTy::Scalar(s)) {
            return Err(TypeError::new(
                ErrorKind::MismatchedTypes,
                value.span,
                format!("expected `{s}`, found `{vty}`"),
            ));
        }
        let Some(mem) = tp.mem else {
            return Err(TypeError::new(
                ErrorKind::Unsupported,
                place.span,
                "atomic operations require a place in `gpu.global` or `gpu.shared` memory",
            ));
        };
        self.record_access(&tp, AccessMode::Atomic, place.span)?;
        let velab = velab.ok_or_else(|| {
            TypeError::new(
                ErrorKind::Unsupported,
                value.span,
                "atomic operand cannot be lowered",
            )
        })?;
        out.push(ElabStmt::Atomic {
            op,
            access: ElabAccess {
                path: tp.path.clone(),
                root_dims: tp.root_dims.clone(),
                mem,
                elem,
            },
            index: idx_elab,
            value: velab,
        });
        Ok(())
    }

    /// Checks that the current execution resource may execute a shuffle:
    /// lanes of intact warps, in lockstep. Three conditions, each with
    /// its own diagnostic:
    ///
    /// 1. the resource descends through `to_warps` (shuffles exchange
    ///    between lanes, which only exist under warp scheduling),
    /// 2. warps and lanes are fully scheduled (the shuffle executes per
    ///    lane),
    /// 3. no lane-space split cuts through the warp (divergent warps
    ///    cannot exchange; CUDA leaves this undefined).
    fn check_shuffle_context(&self, kind: descend_ast::term::ShflKind, span: Span) -> TResult<()> {
        if !self.on_gpu() {
            return Err(TypeError::new(
                ErrorKind::WrongExecutionContext,
                span,
                format!("`{kind}` is a GPU warp operation; it cannot run on the CPU"),
            ));
        }
        if !self.exec.under_warps() {
            return Err(TypeError::new(
                ErrorKind::ShuffleError,
                span,
                format!("`{kind}` requires warp-level scheduling"),
            )
            .with_help(
                "re-interpret the block with `to_warps w in block { ... }` and schedule \
                 warps and lanes before shuffling",
            ));
        }
        if self.exec.current_space().is_some() {
            return Err(TypeError::new(
                ErrorKind::ShuffleError,
                span,
                format!("`{kind}` must be executed by individual lanes"),
            )
            .with_help("schedule the remaining warp/lane dimensions with `sched(X) ...` first"));
        }
        if self.exec.lane_space_has_split() {
            return Err(TypeError::new(
                ErrorKind::ShuffleError,
                span,
                format!("`{kind}` under a lane-space split: the warp is divergent"),
            )
            .with_help("every lane of the warp must execute the shuffle; split warps, not lanes"));
        }
        Ok(())
    }

    fn lookup_exec(&self, name: &str, span: Span) -> TResult<ExecBinding> {
        self.exec_bindings.get(name).cloned().ok_or_else(|| {
            TypeError::new(
                ErrorKind::UnknownName,
                span,
                format!("unknown execution resource `{name}`"),
            )
        })
    }

    fn check_let(
        &mut self,
        name: &str,
        mutable: bool,
        annotated: Option<&DataTy>,
        init: &Expr,
        span: Span,
        out: &mut Vec<ElabStmt>,
    ) -> TResult<()> {
        match &init.kind {
            ExprKind::Alloc { mem, ty } => {
                let ty = subst_ty(ty, &self.nat_env, span)?;
                match mem {
                    Memory::GpuShared => {
                        if !self.on_gpu() {
                            return Err(TypeError::new(
                                ErrorKind::WrongExecutionContext,
                                span,
                                "shared memory can only be allocated on the GPU",
                            ));
                        }
                        let (elem, dims) = scalar_and_dims(&ty, span)?;
                        let dims: Vec<u64> = dims
                            .iter()
                            .map(|d| d.as_lit().expect("substituted dims are literal"))
                            .collect();
                        let index = self.shared_allocs.len();
                        self.shared_allocs.push(SharedAlloc {
                            name: name.to_string(),
                            elem,
                            dims,
                        });
                        self.bind(
                            name,
                            Binding {
                                ty: DataTy::At(Box::new(ty), Memory::GpuShared),
                                mutable: false,
                                owner: self.exec.clone(),
                                kind: BindKind::SharedAlloc { index },
                            },
                            span,
                        )
                    }
                    Memory::CpuMem | Memory::GpuGlobal => {
                        if self.on_gpu() {
                            return Err(TypeError::new(
                                ErrorKind::WrongExecutionContext,
                                span,
                                format!("`{mem}` memory can only be allocated from the CPU"),
                            ));
                        }
                        let (elem, dims) = scalar_and_dims(&ty, span)?;
                        let len: u64 = dims
                            .iter()
                            .map(|d| d.as_lit().expect("substituted dims are literal"))
                            .product();
                        if *mem == Memory::CpuMem {
                            self.host.push(HostStmt::AllocCpu {
                                name: name.to_string(),
                                elem,
                                len,
                            });
                        } else {
                            self.host.push(HostStmt::AllocGpu {
                                name: name.to_string(),
                                elem,
                                len,
                            });
                        }
                        self.bind(
                            name,
                            Binding {
                                ty: DataTy::At(Box::new(ty), mem.clone()),
                                mutable: false,
                                owner: self.exec.clone(),
                                kind: BindKind::HostBuffer { mem: mem.clone() },
                            },
                            span,
                        )
                    }
                    Memory::Ident(_) => Err(TypeError::new(
                        ErrorKind::Unsupported,
                        span,
                        "cannot allocate in a polymorphic memory space",
                    )),
                }
            }
            ExprKind::Call {
                name: callee,
                nat_args,
                args,
            } if callee == builtins::GPU_ALLOC_COPY => {
                if !nat_args.is_empty() || args.len() != 1 {
                    return Err(TypeError::new(
                        ErrorKind::ArityMismatch,
                        span,
                        "`gpu_alloc_copy` takes exactly one reference argument",
                    ));
                }
                let (aty, _) = self.type_expr(&args[0])?;
                let DataTy::Ref(_, Memory::CpuMem, inner) = &aty else {
                    return Err(TypeError::new(
                        ErrorKind::MismatchedTypes,
                        args[0].span,
                        format!("expected reference to `cpu.mem`, found `{aty}`"),
                    ));
                };
                let src = whole_var_borrow(&args[0]).ok_or_else(|| {
                    TypeError::new(
                        ErrorKind::Unsupported,
                        args[0].span,
                        "`gpu_alloc_copy` requires a borrow of a whole variable",
                    )
                })?;
                let (elem, _) = scalar_and_dims(inner, span)?;
                self.host.push(HostStmt::AllocGpuCopy {
                    name: name.to_string(),
                    src,
                    elem,
                });
                self.bind(
                    name,
                    Binding {
                        ty: DataTy::At(inner.clone(), Memory::GpuGlobal),
                        mutable: false,
                        owner: self.exec.clone(),
                        kind: BindKind::HostBuffer {
                            mem: Memory::GpuGlobal,
                        },
                    },
                    span,
                )
            }
            ExprKind::Borrow { uniq, place } => {
                let (rty, _) = self.type_expr(init)?;
                let tp = self.type_place(place)?;
                self.borrows.push(BorrowRec {
                    path: tp.path.clone(),
                    uniq: *uniq,
                    scope_depth: self.scopes.len(),
                    temp: false,
                });
                self.bind(
                    name,
                    Binding {
                        ty: rty,
                        mutable: false,
                        owner: self.exec.clone(),
                        kind: BindKind::Alias {
                            target: tp.path.clone(),
                            target_ty: tp.ty.clone(),
                            uniq: *uniq,
                            target_mem: tp.mem,
                            target_dims: tp.root_dims.clone(),
                            target_elem: tp.elem,
                        },
                    },
                    span,
                )
            }
            // Moving a whole host buffer transfers ownership: the new
            // name is the buffer from here on.
            ExprKind::Place(place)
                if !self.on_gpu()
                    && matches!(&place.kind, PlaceExprKind::Ident(x)
                        if matches!(self.bindings.get(x).map(|b| &b.kind),
                                    Some(BindKind::HostBuffer { .. }))) =>
            {
                let tp = self.type_place(place)?;
                let mem = self
                    .root_memory_space(&tp.path.root)
                    .expect("host buffers have a memory space");
                self.record_access(&tp, AccessMode::Uniq, span)?;
                let old = self
                    .bindings
                    .get_mut(&tp.path.root)
                    .expect("typed place roots are bound");
                let ty = old.ty.clone();
                old.kind = BindKind::Dead;
                self.bind(
                    name,
                    Binding {
                        ty,
                        mutable,
                        owner: self.exec.clone(),
                        kind: BindKind::HostBuffer { mem },
                    },
                    span,
                )
            }
            _ => {
                let (ty, elab) = self.type_expr(init)?;
                if let Some(ann) = annotated {
                    let ann = subst_ty(ann, &self.nat_env, span)?;
                    if !ann.same_modulo_view(&ty) {
                        return Err(TypeError::new(
                            ErrorKind::MismatchedTypes,
                            span,
                            format!("expected `{ann}`, found `{ty}`"),
                        ));
                    }
                }
                match &ty {
                    DataTy::Scalar(sc) if self.on_gpu() => {
                        let elem = scalar_kind(*sc, span)?;
                        let Some(elab) = elab else {
                            return Err(TypeError::new(
                                ErrorKind::Unsupported,
                                span,
                                "initializer cannot be lowered",
                            ));
                        };
                        self.local_names.insert(name.to_string());
                        out.push(ElabStmt::Local {
                            name: name.to_string(),
                            elem,
                            init: elab,
                        });
                        self.bind(
                            name,
                            Binding {
                                ty,
                                mutable,
                                owner: self.exec.clone(),
                                kind: BindKind::LocalScalar,
                            },
                            span,
                        )
                    }
                    _ => self.bind(
                        name,
                        Binding {
                            ty,
                            mutable,
                            owner: self.exec.clone(),
                            kind: BindKind::LocalScalar,
                        },
                        span,
                    ),
                }
            }
        }
    }

    fn check_expr_stmt(&mut self, e: &Expr, _out: &mut [ElabStmt]) -> TResult<()> {
        match &e.kind {
            ExprKind::Launch {
                name,
                nat_args,
                grid_dim,
                block_dim,
                args,
            } => {
                if self.on_gpu() {
                    return Err(TypeError::new(
                        ErrorKind::WrongExecutionContext,
                        e.span,
                        "kernels can only be launched from the CPU",
                    ));
                }
                self.check_launch(name, nat_args, grid_dim, block_dim, args, e.span)
            }
            ExprKind::Call {
                name,
                nat_args,
                args,
            } => {
                if builtins::is_intrinsic(name) {
                    self.check_intrinsic_call(name, nat_args, args, e.span)
                } else {
                    Err(TypeError::new(
                        ErrorKind::UnknownName,
                        e.span,
                        format!("unknown function `{name}` (user-defined calls are not supported)"),
                    ))
                }
            }
            _ => {
                let _ = self.type_expr(e)?;
                Ok(())
            }
        }
    }

    fn check_intrinsic_call(
        &mut self,
        name: &str,
        nat_args: &[Nat],
        args: &[Expr],
        span: Span,
    ) -> TResult<()> {
        if self.on_gpu() {
            return Err(TypeError::new(
                ErrorKind::WrongExecutionContext,
                span,
                format!("`{name}` is a host API; it cannot run on the GPU"),
            ));
        }
        if !nat_args.is_empty() {
            return Err(TypeError::new(
                ErrorKind::ArityMismatch,
                span,
                format!("`{name}` takes no nat arguments"),
            ));
        }
        match name {
            builtins::COPY_MEM_TO_HOST | builtins::COPY_MEM_TO_GPU => {
                if args.len() != 2 {
                    return Err(TypeError::new(
                        ErrorKind::ArityMismatch,
                        span,
                        format!("`{name}` takes exactly two arguments"),
                    ));
                }
                let (t0, _) = self.type_expr(&args[0])?;
                let (t1, _) = self.type_expr(&args[1])?;
                let (want_dst, want_src) = if name == builtins::COPY_MEM_TO_HOST {
                    (Memory::CpuMem, Memory::GpuGlobal)
                } else {
                    (Memory::GpuGlobal, Memory::CpuMem)
                };
                let DataTy::Ref(k0, m0, inner0) = &t0 else {
                    return Err(TypeError::new(
                        ErrorKind::MismatchedTypes,
                        args[0].span,
                        format!("expected a reference, found `{t0}`"),
                    ));
                };
                let DataTy::Ref(_, m1, inner1) = &t1 else {
                    return Err(TypeError::new(
                        ErrorKind::MismatchedTypes,
                        args[1].span,
                        format!("expected a reference, found `{t1}`"),
                    ));
                };
                if *m0 != want_dst {
                    return Err(TypeError::new(
                        ErrorKind::MismatchedTypes,
                        args[0].span,
                        format!("expected reference to `{want_dst}`, found reference to `{m0}`"),
                    ));
                }
                if *m1 != want_src {
                    return Err(TypeError::new(
                        ErrorKind::MismatchedTypes,
                        args[1].span,
                        format!("expected reference to `{want_src}`, found reference to `{m1}`"),
                    ));
                }
                if *k0 != RefKind::Uniq {
                    return Err(TypeError::new(
                        ErrorKind::NotWritable,
                        args[0].span,
                        "the destination must be a unique reference",
                    ));
                }
                if !inner0.same_modulo_view(inner1) {
                    return Err(TypeError::new(
                        ErrorKind::MismatchedTypes,
                        span,
                        format!("source and destination differ: `{inner0}` vs `{inner1}`"),
                    ));
                }
                let dst = whole_var_borrow(&args[0]).ok_or_else(|| {
                    TypeError::new(
                        ErrorKind::Unsupported,
                        args[0].span,
                        "transfers require borrows of whole variables",
                    )
                })?;
                let src = whole_var_borrow(&args[1]).ok_or_else(|| {
                    TypeError::new(
                        ErrorKind::Unsupported,
                        args[1].span,
                        "transfers require borrows of whole variables",
                    )
                })?;
                if name == builtins::COPY_MEM_TO_HOST {
                    self.host.push(HostStmt::CopyToHost { dst, src });
                } else {
                    self.host.push(HostStmt::CopyToGpu { dst, src });
                }
                Ok(())
            }
            builtins::GPU_ALLOC_COPY => Err(TypeError::new(
                ErrorKind::Unsupported,
                span,
                "`gpu_alloc_copy` must be used as a `let` initializer",
            )),
            _ => unreachable!("is_intrinsic checked by caller"),
        }
    }

    fn check_launch(
        &mut self,
        name: &str,
        nat_args: &[Nat],
        grid_dim: &Dim,
        block_dim: &Dim,
        args: &[Expr],
        span: Span,
    ) -> TResult<()> {
        let program: &'p Program = self.gcx.program;
        let fndef = program.fn_def(name).ok_or_else(|| {
            TypeError::new(
                ErrorKind::UnknownName,
                span,
                format!("unknown kernel `{name}`"),
            )
        })?;
        if !matches!(fndef.sig.exec_ty, ExecTy::GpuGrid(..)) {
            return Err(TypeError::new(
                ErrorKind::LaunchConfigMismatch,
                span,
                format!("`{name}` is not a GPU kernel"),
            ));
        }
        // Evaluate nat arguments.
        let mut nat_vals = Vec::new();
        for n in nat_args {
            nat_vals.push(
                n.eval(&|x| self.nat_env.get(x).copied())
                    .map_err(|e| TypeError::new(ErrorKind::NonStaticNat, span, e.to_string()))?,
            );
        }
        if fndef.sig.generics.len() != nat_vals.len() {
            return Err(TypeError::new(
                ErrorKind::ArityMismatch,
                span,
                format!(
                    "kernel `{name}` expects {} generic argument(s), found {}",
                    fndef.sig.generics.len(),
                    nat_vals.len()
                ),
            ));
        }
        let mut kernel_env = self.gcx.nat_env();
        for ((gname, _), v) in fndef.sig.generics.iter().zip(&nat_vals) {
            kernel_env.insert(gname.clone(), *v);
        }
        // Check the launch configuration against the annotation.
        let ExecTy::GpuGrid(want_grid, want_block) = &fndef.sig.exec_ty else {
            unreachable!("checked above");
        };
        let want_grid = subst_dim(want_grid, &kernel_env, span)?;
        let want_block = subst_dim(want_block, &kernel_env, span)?;
        let launch_grid = subst_dim(grid_dim, &self.nat_env, span)?;
        let launch_block = subst_dim(block_dim, &self.nat_env, span)?;
        if !launch_grid.same(&want_grid) || !launch_block.same(&want_block) {
            return Err(TypeError::new(
                ErrorKind::LaunchConfigMismatch,
                span,
                format!(
                    "kernel `{name}` expects grid `{want_grid}` of blocks `{want_block}`, launched with `{launch_grid}` of `{launch_block}`"
                ),
            ));
        }
        // Check argument types against parameter types.
        if args.len() != fndef.sig.params.len() {
            return Err(TypeError::new(
                ErrorKind::ArityMismatch,
                span,
                format!(
                    "kernel `{name}` expects {} argument(s), found {}",
                    fndef.sig.params.len(),
                    args.len()
                ),
            ));
        }
        let mut arg_names = Vec::new();
        for (arg, param) in args.iter().zip(&fndef.sig.params) {
            let (aty, _) = self.type_expr(arg)?;
            let pty = subst_ty(&param.ty, &kernel_env, span)?;
            if !aty.same_modulo_view(&pty) {
                let (ashow, pshow) = (strip_ref(&aty), strip_ref(&pty));
                return Err(TypeError::new(
                    ErrorKind::MismatchedTypes,
                    arg.span,
                    format!("expected `{pshow}`, found `{ashow}`"),
                )
                .with_help(format!(
                    "kernel parameter `{}` has type `{pty}`",
                    param.name
                )));
            }
            let root = whole_var_borrow(arg).ok_or_else(|| {
                TypeError::new(
                    ErrorKind::Unsupported,
                    arg.span,
                    "kernel arguments must be borrows of whole variables",
                )
            })?;
            arg_names.push(root);
        }
        // Instantiate: a generic kernel's body is checked once per
        // distinct instantiation; see `GlobalCx::signatures_only`.
        let idx = self.gcx.instantiate_kernel(fndef, &nat_vals, span)?;
        self.host.push(HostStmt::Launch {
            kernel: idx,
            args: arg_names,
        });
        Ok(())
    }
}

/// The offset contributed by enclosing `snd` splits on a dimension.
fn split_offset(exec: &ExecExpr, space: Space, dim: DimCompo) -> u64 {
    let mut offset = 0u64;
    let mut prefix = ExecExpr {
        base: exec.base.clone(),
        ops: Vec::new(),
    };
    for op in &exec.ops {
        if let descend_exec::ExecOp::Split {
            dim: d,
            pos,
            side: Side::Snd,
        } = op
        {
            if *d == dim && prefix.current_space() == Some(space) {
                offset += pos.as_lit().unwrap_or(0);
            }
        }
        prefix.ops.push(op.clone());
    }
    offset
}

/// The access-conflict error of an access against a prior one.
fn conflict(span: Span, prior: &Access) -> TypeError {
    TypeError::new(
        ErrorKind::ConflictingAccess,
        span,
        "cannot select memory because of a conflicting prior selection here",
    )
    .with_secondary(prior.span, format!("prior access of `{}`", prior.path))
}

/// The error of a case a loop's symbolic check does not decide. It never
/// reaches a user: the loop, or the kernel, is checked per iteration
/// instead.
fn undecidable(span: Span) -> TypeError {
    TypeError::new(
        ErrorKind::Unsupported,
        span,
        "not decided for all iterations at once",
    )
}

/// Whether `n` mentions the variable `var`.
fn nat_mentions(n: &Nat, var: &str) -> bool {
    match n {
        Nat::Lit(_) => false,
        Nat::Var(x) => x == var,
        Nat::Add(a, b) | Nat::Sub(a, b) | Nat::Mul(a, b) | Nat::Div(a, b) | Nat::Mod(a, b) => {
            nat_mentions(a, var) || nat_mentions(b, var)
        }
    }
}

/// Whether the body of a GPU loop over `var` can be checked once, with
/// `var` symbolic: it holds no `let`, `sync`, `split`, shuffle, borrow,
/// call or launch anywhere (so it binds no name but the execution
/// resources of its `sched`s and `to_warps`, which unbind them on the
/// way out, and moves no barrier epoch), and `var` occurs only in index
/// nats affine in it with coefficient one (`var`, `var + c`): the
/// iterations differ only in the values those indices read. Nested
/// loops qualify on the same terms, their ranges free of `var`, so the
/// iterations of a nest checked once form a product of intervals.
fn checkable_once(var: &str, body: &Block) -> bool {
    /// `var`'s coefficient in `n`, if `n` is affine in it.
    fn coefficient(n: &Nat, var: &str) -> Option<i64> {
        match n {
            Nat::Lit(_) => Some(0),
            Nat::Var(x) => Some(i64::from(x == var)),
            Nat::Add(a, b) => Some(coefficient(a, var)? + coefficient(b, var)?),
            Nat::Sub(a, b) => Some(coefficient(a, var)? - coefficient(b, var)?),
            Nat::Mul(..) | Nat::Div(..) | Nat::Mod(..) => (!nat_mentions(n, var)).then_some(0),
        }
    }
    fn view(app: &ViewApp, var: &str) -> bool {
        !app.nat_args.iter().any(|n| nat_mentions(n, var))
            && app.view_args.iter().all(|a| view(a, var))
    }
    fn place(p: &PlaceExpr, var: &str) -> bool {
        match &p.kind {
            PlaceExprKind::Ident(_) => true,
            PlaceExprKind::Proj(inner, _)
            | PlaceExprKind::Deref(inner)
            | PlaceExprKind::Select(inner, ..) => place(inner, var),
            PlaceExprKind::Index(inner, n) => {
                place(inner, var) && (!nat_mentions(n, var) || coefficient(n, var) == Some(1))
            }
            PlaceExprKind::View(inner, app) => place(inner, var) && view(app, var),
            PlaceExprKind::Zip(a, b) => place(a, var) && place(b, var),
        }
    }
    fn expr(e: &Expr, var: &str) -> bool {
        match &e.kind {
            ExprKind::Lit(_) => true,
            ExprKind::Place(p) => place(p, var),
            ExprKind::Binary(_, a, b) => expr(a, var) && expr(b, var),
            ExprKind::Unary(_, a) => expr(a, var),
            ExprKind::Borrow { .. }
            | ExprKind::Call { .. }
            | ExprKind::Launch { .. }
            | ExprKind::Alloc { .. }
            | ExprKind::Shfl { .. } => false,
        }
    }
    fn block(b: &Block, var: &str) -> bool {
        b.stmts.iter().all(|s| match &s.kind {
            StmtKind::Assign {
                place: p, value, ..
            } => place(p, var) && expr(value, var),
            StmtKind::Expr(e) => expr(e, var),
            StmtKind::AtomicRmw {
                place: p,
                index,
                value,
                ..
            } => place(p, var) && index.as_ref().is_none_or(|i| expr(i, var)) && expr(value, var),
            StmtKind::Scope(b)
            | StmtKind::Sched { body: b, .. }
            | StmtKind::ToWarps { body: b, .. } => block(b, var),
            StmtKind::ForNat { range, body, .. } => {
                let bounds: &[&Nat] = match range {
                    NatRange::Range { lo, hi } => &[lo, hi],
                    NatRange::Halving { from } => &[from],
                    NatRange::Doubling { from, limit } => &[from, limit],
                };
                !bounds.iter().any(|n| nat_mentions(n, var)) && block(body, var)
            }
            StmtKind::Let { .. } | StmtKind::Sync | StmtKind::SplitExec { .. } => false,
        })
    }
    block(body, var)
}

/// Whether an elaborated expression contains a warp shuffle anywhere.
fn elab_contains_shfl(e: &ElabExpr) -> bool {
    match e {
        ElabExpr::Shfl { .. } => true,
        ElabExpr::Binary(_, a, b) => elab_contains_shfl(a) || elab_contains_shfl(b),
        ElabExpr::Unary(_, a) => elab_contains_shfl(a),
        ElabExpr::Lit(..) | ElabExpr::Local(_) | ElabExpr::Load(_) => false,
    }
}

fn strip_ref(t: &DataTy) -> String {
    match t {
        DataTy::Ref(_, _, inner) => inner.to_string(),
        other => other.to_string(),
    }
}

fn whole_var_borrow(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Borrow { place, .. } => match &place.kind {
            PlaceExprKind::Ident(x) => Some(x.clone()),
            _ => None,
        },
        _ => None,
    }
}
