//! Elaborated output of the type checker.
//!
//! Checking a program produces, besides the safety verdict, a fully
//! *elaborated* form that the code generators consume:
//!
//! - one [`MonoKernel`] per distinct kernel instantiation, with generics
//!   substituted, `sched` dissolved into the SPMD model, `split` turned
//!   into coordinate conditions, and every memory access normalized to a
//!   [`PlacePath`] ready for index lowering;
//! - a list of [`HostStmt`]s describing the host program (allocations,
//!   transfers and kernel launches) for the host interpreter.
//!
//! The checker checks an eligible GPU for-nat loop once, with the loop
//! variable symbolic, and [`emit_checked_once`] turns that one body into
//! exactly the elaboration checking each iteration would have produced:
//! one rolled [`ElabStmt::ForNat`] where that body can stand for every
//! iteration, the iterations spelled out otherwise. The emitters print a
//! rolled loop as one loop, and the IR lowering unrolls it, reproducing
//! each iteration exactly. Every other loop is checked, and elaborated,
//! once per iteration: one copy of its body per iteration (see
//! `docs/DESIGN.md` §11).

use descend_ast::ty::DimCompo;
use descend_ast::{term::AtomicOp, term::BinOp, term::ShflKind, term::UnOp, Nat};
use descend_exec::Space;
use descend_places::{lower_scalar_access, IdxExpr, PathStep, PlacePath, DYN_IDX};

/// The scalar element kinds that reach code generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScalarKind {
    /// 64-bit float.
    F64,
    /// 32-bit float.
    F32,
    /// 32-bit signed integer.
    I32,
    /// 32-bit unsigned integer.
    U32,
    /// Boolean.
    Bool,
}

impl ScalarKind {
    /// Size of one element in bytes (used by the simulator's memory and
    /// coalescing model).
    pub fn size_bytes(self) -> u64 {
        match self {
            ScalarKind::F64 => 8,
            ScalarKind::F32 => 4,
            ScalarKind::I32 => 4,
            ScalarKind::U32 => 4,
            ScalarKind::Bool => 1,
        }
    }

    /// The CUDA C++ spelling.
    pub fn cuda_name(self) -> &'static str {
        match self {
            ScalarKind::F64 => "double",
            ScalarKind::F32 => "float",
            ScalarKind::I32 => "int",
            ScalarKind::U32 => "unsigned int",
            ScalarKind::Bool => "bool",
        }
    }
}

/// Where an elaborated access points.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// A kernel parameter in GPU global memory (with its parameter index).
    GlobalParam(usize),
    /// A shared-memory allocation (with its allocation index).
    Shared(usize),
}

/// An elaborated memory access: a normalized path, the root array's
/// dimensions, and the destination memory.
#[derive(Clone, Debug, PartialEq)]
pub struct ElabAccess {
    /// The normalized place path (for index lowering).
    pub path: PlacePath,
    /// Root array dimension sizes, outermost first (all literal).
    pub root_dims: Vec<Nat>,
    /// Which memory the root lives in.
    pub mem: MemKind,
    /// Element scalar kind.
    pub elem: ScalarKind,
}

/// An elaborated (right-hand side) expression.
#[derive(Clone, Debug, PartialEq)]
pub enum ElabExpr {
    /// Float/int/bool literal, as an f64 bit pattern plus kind.
    Lit(ScalarKind, f64),
    /// Read of a thread-private local.
    Local(String),
    /// Load from global or shared memory.
    Load(ElabAccess),
    /// Binary operation.
    Binary(BinOp, Box<ElabExpr>, Box<ElabExpr>),
    /// Unary operation.
    Unary(UnOp, Box<ElabExpr>),
    /// A warp shuffle: every lane of the warp evaluates `value` in
    /// lockstep and receives the value computed by the source lane
    /// (`lane_id + delta` for `Down`, `lane_id ^ delta` for `Xor`).
    /// This is a register exchange — no memory access, no barrier — so
    /// the IR lowering extracts it into a dedicated warp-synchronous
    /// instruction while text backends render the target's shuffle
    /// intrinsic inline.
    Shfl {
        /// The shuffle pattern.
        kind: ShflKind,
        /// The exchanged operand.
        value: Box<ElabExpr>,
        /// Static shuffle distance/mask, already checked to be in
        /// `1..WARP_SIZE`.
        delta: u32,
    },
}

/// An elaborated kernel statement (SPMD: executed by every thread, with
/// splits as coordinate conditions).
#[derive(Clone, Debug, PartialEq)]
pub enum ElabStmt {
    /// Declare (and initialize) a thread-private scalar local.
    Local {
        /// Local name (unique per kernel).
        name: String,
        /// Element kind.
        elem: ScalarKind,
        /// Initializer.
        init: ElabExpr,
    },
    /// Re-assign a mutable local.
    AssignLocal {
        /// Local name.
        name: String,
        /// New value.
        value: ElabExpr,
    },
    /// Store to global or shared memory.
    Store {
        /// Destination access.
        access: ElabAccess,
        /// Stored value.
        value: ElabExpr,
    },
    /// A split: threads (or blocks) below/above a coordinate threshold
    /// take different branches.
    Split {
        /// Space of the split coordinate.
        space: Space,
        /// Dimension of the split coordinate.
        dim: DimCompo,
        /// Absolute threshold: `coord < threshold` takes `fst`.
        threshold: u64,
        /// Statements of the first part.
        fst: Vec<ElabStmt>,
        /// Statements of the second part.
        snd: Vec<ElabStmt>,
    },
    /// An atomic read-modify-write on global or shared memory. With
    /// `index`, the *element* within the array place denoted by `access`
    /// is chosen dynamically (atomic scatter); the access path then ends
    /// in `Index(Nat::Var(descend_places::DYN_IDX))` and code generation
    /// substitutes the lowered `index` expression for the sentinel, so
    /// the address still flows through the one shared lowering.
    Atomic {
        /// The operation.
        op: AtomicOp,
        /// Target access (scalar place, possibly via the sentinel index).
        access: ElabAccess,
        /// Dynamic element index (scatter form only).
        index: Option<ElabExpr>,
        /// The combined operand.
        value: ElabExpr,
    },
    /// Block-wide barrier.
    Sync,
    /// A rolled for-nat loop: `body` runs once for each `var` in
    /// `lo..hi`, in order. In `body`, an index step
    /// `PathStep::Index(Nat::Var(var))` stands for the iteration's value;
    /// iteration `v` is exactly `body` with those steps reading
    /// `Index(Nat::Lit(v))`. The checker only emits this form when it
    /// checked the body once with `var` symbolic (see `docs/DESIGN.md`
    /// §11); the body never contains a `Sync`, `Split`, `Local` or
    /// shuffle.
    ForNat {
        /// Loop variable.
        var: String,
        /// First iteration value.
        lo: u64,
        /// Exclusive upper bound (at least `lo + 2`).
        hi: u64,
        /// The body, symbolic in `var`.
        body: Vec<ElabStmt>,
    },
    /// Source-location marker: the statements that follow (until the
    /// next marker at the same nesting depth) elaborate the source
    /// statement covering this span. Markers carry no semantics — code
    /// generators skip them, the IR lowering forwards them so the
    /// simulator can attribute modeled cost to source spans.
    Src(descend_ast::span::Span),
}

/// A shared-memory allocation of a kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct SharedAlloc {
    /// Variable name.
    pub name: String,
    /// Element kind.
    pub elem: ScalarKind,
    /// Dimension sizes, outermost first.
    pub dims: Vec<u64>,
}

/// A kernel parameter (always a reference to a global-memory array).
#[derive(Clone, Debug, PartialEq)]
pub struct KernelParam {
    /// Parameter name.
    pub name: String,
    /// Element kind.
    pub elem: ScalarKind,
    /// Dimension sizes, outermost first.
    pub dims: Vec<u64>,
    /// Whether the kernel may write through this parameter.
    pub uniq: bool,
}

/// A monomorphized, elaborated GPU kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct MonoKernel {
    /// Mangled instance name (`name` plus nat arguments).
    pub name: String,
    /// The source-level function name.
    pub source_name: String,
    /// Blocks per grid dimension `(x, y, z)`.
    pub grid_dim: [u64; 3],
    /// Threads per block dimension `(x, y, z)`.
    pub block_dim: [u64; 3],
    /// Parameters in declaration order.
    pub params: Vec<KernelParam>,
    /// Shared-memory allocations in declaration order.
    pub shared: Vec<SharedAlloc>,
    /// The elaborated SPMD body.
    pub body: Vec<ElabStmt>,
    /// How the checker checked the instance's for-nat loops.
    pub loop_checks: LoopChecks,
}

/// How the checker checked the for-nat loops of one kernel instance.
/// Every time checking reaches a loop counts once, so a loop nested in
/// a loop checked per iteration counts once per outer iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopChecks {
    /// Loops whose body was checked once, with the variable symbolic.
    pub once: u32,
    /// Loops checked once per iteration.
    pub per_iteration: u32,
}

impl MonoKernel {
    /// Shifts every source span in the elaborated body by `delta` bytes
    /// (dummy spans stay dummy).
    ///
    /// Source spans are the only absolute byte offsets an elaborated
    /// kernel carries, so a cached instantiation whose defining function
    /// moved within the file — but whose source text is unchanged — is
    /// rebased to its new location with this one walk. The incremental
    /// compiler relies on that to return byte-identical output from warm
    /// caches.
    pub fn shift_spans(&mut self, delta: i64) {
        if delta != 0 {
            shift_stmts(&mut self.body, delta);
        }
    }
}

fn shift_stmts(stmts: &mut [ElabStmt], delta: i64) {
    for s in stmts {
        match s {
            ElabStmt::Src(span) => {
                if !span.is_dummy() {
                    span.start = (i64::from(span.start) + delta) as u32;
                    span.end = (i64::from(span.end) + delta) as u32;
                }
            }
            ElabStmt::Split { fst, snd, .. } => {
                shift_stmts(fst, delta);
                shift_stmts(snd, delta);
            }
            ElabStmt::ForNat { body, .. } => shift_stmts(body, delta),
            ElabStmt::Local { .. }
            | ElabStmt::AssignLocal { .. }
            | ElabStmt::Store { .. }
            | ElabStmt::Atomic { .. }
            | ElabStmt::Sync => {}
        }
    }
}

/// Whether a loop body's statements may form a rolled body: no barrier,
/// split, local declaration or shuffle anywhere in them.
fn rollable(stmts: &[ElabStmt]) -> bool {
    fn no_shfl(e: &ElabExpr) -> bool {
        match e {
            ElabExpr::Shfl { .. } => false,
            ElabExpr::Binary(_, a, b) => no_shfl(a) && no_shfl(b),
            ElabExpr::Unary(_, a) => no_shfl(a),
            ElabExpr::Lit(..) | ElabExpr::Local(_) | ElabExpr::Load(_) => true,
        }
    }
    stmts.iter().all(|s| match s {
        ElabStmt::Sync | ElabStmt::Split { .. } | ElabStmt::Local { .. } => false,
        ElabStmt::AssignLocal { value, .. } | ElabStmt::Store { value, .. } => no_shfl(value),
        ElabStmt::Atomic { index, value, .. } => {
            index.as_ref().is_none_or(no_shfl) && no_shfl(value)
        }
        ElabStmt::ForNat { body, .. } => rollable(body),
        ElabStmt::Src(_) => true,
    })
}

/// Calls `f` on every access of `stmts`: loads, stores and atomic
/// targets, in split branches and rolled loop bodies too.
fn for_each_access_mut(stmts: &mut [ElabStmt], f: &mut dyn FnMut(&mut ElabAccess)) {
    fn expr(e: &mut ElabExpr, f: &mut dyn FnMut(&mut ElabAccess)) {
        match e {
            ElabExpr::Load(a) => f(a),
            ElabExpr::Binary(_, a, b) => {
                expr(a, f);
                expr(b, f);
            }
            ElabExpr::Unary(_, a) | ElabExpr::Shfl { value: a, .. } => expr(a, f),
            ElabExpr::Lit(..) | ElabExpr::Local(_) => {}
        }
    }
    for s in stmts {
        match s {
            ElabStmt::Local { init: e, .. } | ElabStmt::AssignLocal { value: e, .. } => expr(e, f),
            ElabStmt::Store { access, value } => {
                f(access);
                expr(value, f);
            }
            ElabStmt::Atomic {
                access,
                index,
                value,
                ..
            } => {
                f(access);
                if let Some(i) = index {
                    expr(i, f);
                }
                expr(value, f);
            }
            ElabStmt::Split { fst, snd, .. } => {
                for_each_access_mut(fst, f);
                for_each_access_mut(snd, f);
            }
            ElabStmt::ForNat { body, .. } => for_each_access_mut(body, f),
            ElabStmt::Sync | ElabStmt::Src(_) => {}
        }
    }
}

/// The loop variable and offset of a symbolic index nat: `var` or
/// `var + c`, the two shapes the checker gives an index through the
/// variable of a loop it checks once.
pub(crate) fn loop_index(n: &Nat) -> Option<(&str, u64)> {
    match n {
        Nat::Var(x) => Some((x, 0)),
        Nat::Add(a, c) => match (&**a, &**c) {
            (Nat::Var(x), Nat::Lit(c)) => Some((x, *c)),
            _ => None,
        },
        _ => None,
    }
}

/// Iteration `v` of a body symbolic in `var`: each index `var + c`
/// reads `v + c`.
fn instantiate(body: &[ElabStmt], var: &str, v: u64) -> Vec<ElabStmt> {
    let mut out = body.to_vec();
    for_each_access_mut(&mut out, &mut |a| {
        for step in &mut a.path.steps {
            if let PathStep::Index(n) = step {
                if let Some((_, c)) = loop_index(n).filter(|(x, _)| *x == var) {
                    *n = Nat::lit(v + c);
                }
            }
        }
    });
    out
}

/// Elaborates a `[lo..hi]` loop (at least two iterations) whose body
/// the checker checked once, `body` being that check's elaboration with
/// every index through `var` symbolic (`var` or `var + c`), inside loops
/// over `outer` also checked once. Iteration `v` is `body` with
/// `var := v`, so the iterations differ only in those indices. They roll
/// into one [`ElabStmt::ForNat`] iff `body` is non-empty and rollable,
/// reads no `var + c` with `c > 0` and lowers with the loop variables
/// symbolic; otherwise the iterations are spelled out, as checking each
/// would elaborate them. An index `var + c` with `c > 0` keeps its loop
/// spelled out: the text this compiler has always printed for it.
pub(crate) fn emit_checked_once(
    var: &str,
    lo: u64,
    hi: u64,
    mut body: Vec<ElabStmt>,
    outer: &[String],
    out: &mut Vec<ElabStmt>,
) {
    let mut offset = false;
    for_each_access_mut(&mut body, &mut |a| {
        offset |= a.path.steps.iter().any(|s| {
            matches!(s, PathStep::Index(n) if loop_index(n).is_some_and(|(x, c)| x == var && c > 0))
        });
    });
    if !body.is_empty() && rollable(&body) && !offset && lowers(&mut body, var, outer) {
        out.push(ElabStmt::ForNat {
            var: var.to_string(),
            lo,
            hi,
            body,
        });
    } else {
        for v in lo..hi {
            out.extend(instantiate(&body, var, v));
        }
    }
}

/// Whether every access of a rolled body over `var` lowers to an index
/// expression whose only variables are loop variables left symbolic
/// (`var`, those of nested rolled loops and `outer`, the variables of
/// enclosing loops checked once) or the scatter index: the accesses the
/// emitters print with the loop variables left symbolic. An enclosing
/// loop's variable lowers as any of its literal values would.
fn lowers(body: &mut [ElabStmt], var: &str, outer: &[String]) -> bool {
    fn loop_vars(stmts: &[ElabStmt], out: &mut Vec<String>) {
        for s in stmts {
            if let ElabStmt::ForNat { var, body, .. } = s {
                out.push(var.clone());
                loop_vars(body, out);
            }
        }
    }
    fn idx_ok(e: &IdxExpr, vars: &[String]) -> bool {
        match e {
            IdxExpr::Const(_) => true,
            IdxExpr::Var(x) => x == DYN_IDX || vars.contains(x),
            IdxExpr::Coord(c) => c.offset.as_lit().is_some(),
            IdxExpr::Add(a, b) | IdxExpr::Sub(a, b) | IdxExpr::Mul(a, b) => {
                idx_ok(a, vars) && idx_ok(b, vars)
            }
        }
    }
    let mut vars = vec![var.to_string()];
    vars.extend_from_slice(outer);
    loop_vars(body, &mut vars);
    let mut ok = true;
    for_each_access_mut(body, &mut |a| {
        ok &= lower_scalar_access(&a.path, &a.root_dims).is_ok_and(|e| idx_ok(&e, &vars));
    });
    ok
}

/// An elaborated host statement.
#[derive(Clone, Debug, PartialEq)]
pub enum HostStmt {
    /// Allocate a zero-initialized CPU array.
    AllocCpu {
        /// Variable name.
        name: String,
        /// Element kind.
        elem: ScalarKind,
        /// Total element count.
        len: u64,
    },
    /// Allocate a zero-initialized GPU global array.
    AllocGpu {
        /// Variable name.
        name: String,
        /// Element kind.
        elem: ScalarKind,
        /// Total element count.
        len: u64,
    },
    /// Allocate a GPU array and copy a CPU array into it
    /// (`GpuGlobal::alloc_copy`).
    AllocGpuCopy {
        /// Variable name.
        name: String,
        /// Source CPU variable.
        src: String,
        /// Element kind, carried explicitly so consumers never have to
        /// re-derive (or worse, guess) it from the source allocation.
        elem: ScalarKind,
    },
    /// Copy device memory back to the host (`copy_mem_to_host`).
    CopyToHost {
        /// Destination CPU variable.
        dst: String,
        /// Source GPU variable.
        src: String,
    },
    /// Copy host memory to the device (`copy_mem_to_gpu`).
    CopyToGpu {
        /// Destination GPU variable.
        dst: String,
        /// Source CPU variable.
        src: String,
    },
    /// Launch a kernel instance.
    Launch {
        /// Index into [`crate::CheckedProgram::kernels`].
        kernel: usize,
        /// GPU buffer variable names passed as arguments, in order.
        args: Vec<String>,
    },
}
