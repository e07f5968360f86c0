//! Terms, statements, place expressions, and views.
//!
//! This module implements the paper's Figure 5 (terms) and Figure 3 (place
//! expressions), plus top-level items: functions, named view definitions
//! (like the paper's `group_by_row`), and nat constants.
//!
//! ## Surface-syntax choices
//!
//! The paper leaves two pieces of concrete syntax underspecified; we make
//! them explicit here and document them:
//!
//! - **Per-dimension selects.** `p[[thread]]` for a multi-dimensional
//!   execution resource is sugar for one select per scheduled dimension in
//!   `sched` declaration order (e.g. after `sched(Y,X)`,
//!   `p[[thread]] == p[[thread.Y]][[thread.X]]`), each consuming the
//!   outermost remaining array dimension. The explicit form `p[[thread.X]]`
//!   is also part of the grammar.
//! - **For-nat ranges.** Besides `[a..b]` (half-open, step 1) we provide
//!   `halving(n)` (`n, n/2, ..., 1`) and `doubling(n, limit)`
//!   (`n, 2n, ... < limit`), which the tree-shaped reduction and scan
//!   benchmarks of the paper's evaluation need. All ranges are statically
//!   evaluated, as the paper requires.

use crate::nat::Nat;
use crate::span::Span;
use crate::ty::{DataTy, Dim, DimCompo, FnSig, Memory};
use std::fmt;

/// A complete Descend program: a list of items.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl Program {
    /// Looks up a function definition by name.
    pub fn fn_def(&self, name: &str) -> Option<&FnDef> {
        self.items.iter().find_map(|i| match i {
            Item::Fn(f) if f.sig.name == name => Some(f),
            _ => None,
        })
    }

    /// Looks up a view definition by name.
    pub fn view_def(&self, name: &str) -> Option<&ViewDef> {
        self.items.iter().find_map(|i| match i {
            Item::View(v) if v.name == name => Some(v),
            _ => None,
        })
    }

    /// Looks up a nat constant by name.
    pub fn const_def(&self, name: &str) -> Option<&ConstDef> {
        self.items.iter().find_map(|i| match i {
            Item::Const(c) if c.name == name => Some(c),
            _ => None,
        })
    }
}

/// A top-level item.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    /// A function definition (CPU or GPU, per its execution level).
    Fn(FnDef),
    /// A named view definition, e.g.
    /// `view group_by_row<row_size: nat, num_rows: nat> = group::<row_size/num_rows>.map(transpose)`.
    View(ViewDef),
    /// A nat constant, e.g. `const N: nat = 1024;`.
    Const(ConstDef),
}

/// A function definition.
#[derive(Clone, Debug, PartialEq)]
pub struct FnDef {
    /// The signature, including the execution-resource annotation.
    pub sig: FnSig,
    /// The body.
    pub body: Block,
    /// Source span of the whole definition.
    pub span: Span,
}

/// A named view definition: a composition of basic views abstracted over
/// nat parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ViewDef {
    /// View name.
    pub name: String,
    /// Nat parameter names.
    pub params: Vec<String>,
    /// The body: a chain of view applications, applied left to right.
    pub body: Vec<ViewApp>,
    /// Source span.
    pub span: Span,
}

/// A top-level nat constant.
#[derive(Clone, Debug, PartialEq)]
pub struct ConstDef {
    /// Constant name.
    pub name: String,
    /// Value.
    pub value: Nat,
    /// Source span.
    pub span: Span,
}

/// A braced sequence of statements.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Source span.
    pub span: Span,
}

/// A statement with its source span.
#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    /// The statement proper.
    pub kind: StmtKind,
    /// Source span.
    pub span: Span,
}

/// Statement forms (the statement-like terms of the paper's Figure 5).
#[derive(Clone, Debug, PartialEq)]
pub enum StmtKind {
    /// `let [mut] x [: δ] = e;`
    Let {
        /// Bound variable.
        name: String,
        /// Whether re-assignment to `x` is allowed (private scalars on the
        /// GPU, accumulators etc.).
        mutable: bool,
        /// Optional type annotation.
        ty: Option<DataTy>,
        /// Initializer.
        init: Expr,
    },
    /// `p = e;` or `p += e;` (the latter is sugar for `p = p + e`).
    Assign {
        /// Assigned place.
        place: PlaceExpr,
        /// Optional compound operator.
        op: Option<BinOp>,
        /// Right-hand side.
        value: Expr,
    },
    /// An expression statement (function call, kernel launch, ...).
    Expr(Expr),
    /// `to_warps x in e { ... }` — re-interprets the 1-D thread space of
    /// execution resource `e` (a block whose thread extent is a multiple
    /// of the warp size) as warps of lanes, binding `x` to the warped
    /// resource. Inside the body, `sched(X) w in x` schedules over warp
    /// space, a further `sched(X) l in w` over lane space, and
    /// `split(X) x at k` partitions whole warps.
    ToWarps {
        /// Variable bound to the warped execution resource.
        var: String,
        /// The execution resource being re-interpreted (variable name).
        exec: String,
        /// Body executed by the same threads, now organized in warps.
        body: Block,
    },
    /// `sched(D1[,D2[,D3]]) x in e { ... }` — schedules the body over all
    /// sub-resources of `e` along the given dimensions, binding `x`.
    Sched {
        /// Scheduled dimensions in declaration order.
        dims: Vec<DimCompo>,
        /// Variable bound to the sub-execution resource.
        var: String,
        /// The execution resource being scheduled (variable name).
        exec: String,
        /// Body executed by each sub-resource.
        body: Block,
    },
    /// `split(D) e at η { x1 => { ... }, x2 => { ... } }` — splits an
    /// execution resource into two independent parts.
    SplitExec {
        /// Split dimension.
        dim: DimCompo,
        /// The execution resource being split (variable name).
        exec: String,
        /// Split position.
        pos: Nat,
        /// Name bound to the first part.
        fst_var: String,
        /// Computation of the first part.
        fst_body: Block,
        /// Name bound to the second part.
        snd_var: String,
        /// Computation of the second part.
        snd_body: Block,
    },
    /// `for x in range { ... }` — a statically evaluated for-nat loop.
    ForNat {
        /// Loop variable (a nat in scope of the body).
        var: String,
        /// The static range.
        range: NatRange,
        /// Loop body.
        body: Block,
    },
    /// `sync;` — block-wide barrier synchronization.
    Sync,
    /// An atomic read-modify-write: `atomic_add(p, e);`,
    /// `atomic_min(p, e);`, ... — the only way concurrent threads may
    /// write one place without narrowing selects. The optional `index`
    /// makes the target data-dependent (`atomic_add(p, i, e)` updates
    /// element `i` of the array place `p`), which is what scatter
    /// patterns like histograms need and which no plain assignment can
    /// express.
    AtomicRmw {
        /// The read-modify-write operation.
        op: AtomicOp,
        /// The target place: a scalar place (two-argument form) or an
        /// array place (three-argument form).
        place: PlaceExpr,
        /// Dynamic element index into the array place (three-argument
        /// form only).
        index: Option<Expr>,
        /// The operand combined into the target.
        value: Expr,
    },
    /// A nested scope `{ ... }` (controls deallocation of `@`-types).
    Scope(Block),
}

/// Atomic read-modify-write operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AtomicOp {
    /// `atomic_add`: fetch-and-add.
    Add,
    /// `atomic_min`: fetch-and-min.
    Min,
    /// `atomic_max`: fetch-and-max.
    Max,
    /// `atomic_exchange`: unconditional swap.
    Exch,
}

impl AtomicOp {
    /// The surface-syntax (and intrinsic) name.
    pub fn fn_name(&self) -> &'static str {
        match self {
            AtomicOp::Add => "atomic_add",
            AtomicOp::Min => "atomic_min",
            AtomicOp::Max => "atomic_max",
            AtomicOp::Exch => "atomic_exchange",
        }
    }

    /// Parses a surface name back to the operation.
    pub fn from_name(name: &str) -> Option<AtomicOp> {
        Some(match name {
            "atomic_add" => AtomicOp::Add,
            "atomic_min" => AtomicOp::Min,
            "atomic_max" => AtomicOp::Max,
            "atomic_exchange" => AtomicOp::Exch,
            _ => return None,
        })
    }
}

impl fmt::Display for AtomicOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.fn_name())
    }
}

/// A statically evaluated range of nats for `for`-nat loops.
#[derive(Clone, Debug, PartialEq)]
pub enum NatRange {
    /// `[lo..hi]`: `lo, lo+1, ..., hi-1`.
    Range {
        /// Inclusive lower bound.
        lo: Nat,
        /// Exclusive upper bound.
        hi: Nat,
    },
    /// `halving(n)`: `n, n/2, n/4, ..., 1` (n must be a power of two).
    Halving {
        /// Starting value.
        from: Nat,
    },
    /// `doubling(n, limit)`: `n, 2n, 4n, ... < limit`.
    Doubling {
        /// Starting value.
        from: Nat,
        /// Exclusive upper limit.
        limit: Nat,
    },
}

impl NatRange {
    /// The range's values, produced lazily: the bounds are evaluated and
    /// validated here, but no value is materialized, so the trip count
    /// ([`ExactSizeIterator::len`]) of even a huge range is known before
    /// anything iterates it.
    ///
    /// # Errors
    ///
    /// Returns the nat evaluation error if bounds are not closed under
    /// `env`, or a descriptive message for invalid ranges.
    pub fn values(&self, env: &dyn Fn(&str) -> Option<u64>) -> Result<NatValues, String> {
        let eval = |n: &Nat| n.eval(env).map_err(|e| e.to_string());
        match self {
            NatRange::Range { lo, hi } => {
                let (lo, hi) = (eval(lo)?, eval(hi)?);
                if lo > hi {
                    return Err(format!("invalid range [{lo}..{hi}]"));
                }
                Ok(NatValues {
                    next: lo,
                    remaining: hi - lo,
                    step: NatStep::Inc,
                })
            }
            NatRange::Halving { from } => {
                let v = eval(from)?;
                if v == 0 || !v.is_power_of_two() {
                    return Err(format!("halving({v}) requires a power of two"));
                }
                Ok(NatValues {
                    next: v,
                    remaining: u64::from(v.trailing_zeros()) + 1,
                    step: NatStep::Halve,
                })
            }
            NatRange::Doubling { from, limit } => {
                let (v, limit) = (eval(from)?, eval(limit)?);
                if v == 0 {
                    return Err("doubling(0, ..) is invalid".to_string());
                }
                let mut remaining = 0;
                let mut x = Some(v);
                while let Some(y) = x.filter(|y| *y < limit) {
                    remaining += 1;
                    x = y.checked_mul(2);
                }
                Ok(NatValues {
                    next: v,
                    remaining,
                    step: NatStep::Double,
                })
            }
        }
    }
}

/// The values of a [`NatRange`], in loop order (see
/// [`NatRange::values`]).
#[derive(Clone, Debug)]
pub struct NatValues {
    next: u64,
    remaining: u64,
    step: NatStep,
}

#[derive(Clone, Copy, Debug)]
enum NatStep {
    Inc,
    Halve,
    Double,
}

impl Iterator for NatValues {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let v = self.next;
        self.next = match self.step {
            NatStep::Inc => v.saturating_add(1),
            NatStep::Halve => v / 2,
            NatStep::Double => v.saturating_mul(2),
        };
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (n, Some(n))
    }
}

impl ExactSizeIterator for NatValues {}

/// An expression with type-relevant source span.
#[derive(Clone, Debug, PartialEq)]
pub struct Expr {
    /// The expression proper.
    pub kind: ExprKind,
    /// Source span.
    pub span: Span,
}

impl Expr {
    /// Creates an expression with a dummy span (for synthesized programs).
    pub fn synth(kind: ExprKind) -> Expr {
        Expr {
            kind,
            span: Span::DUMMY,
        }
    }
}

/// Expression forms.
#[derive(Clone, Debug, PartialEq)]
pub enum ExprKind {
    /// A literal.
    Lit(Lit),
    /// Reading from a place (by copy or move, decided by the type checker).
    Place(PlaceExpr),
    /// `&p` / `&uniq p`.
    Borrow {
        /// Whether the borrow is unique.
        uniq: bool,
        /// The borrowed place.
        place: PlaceExpr,
    },
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Function application `f::<η,...>(args)` (CPU functions and host
    /// intrinsics such as `copy_mem_to_host`).
    Call {
        /// Callee name.
        name: String,
        /// Explicit nat arguments.
        nat_args: Vec<Nat>,
        /// Value arguments.
        args: Vec<Expr>,
    },
    /// Kernel launch `f::<η,...><<<GridDim, BlockDim>>>(args)`.
    Launch {
        /// Kernel name.
        name: String,
        /// Explicit nat arguments for the kernel's generics.
        nat_args: Vec<Nat>,
        /// Number of blocks per dimension.
        grid_dim: Dim,
        /// Number of threads per block per dimension.
        block_dim: Dim,
        /// Value arguments.
        args: Vec<Expr>,
    },
    /// `alloc::<µ, δ>()` — allocates (shared GPU or other) memory.
    Alloc {
        /// Target memory space.
        mem: Memory,
        /// Allocated type.
        ty: DataTy,
    },
    /// A warp shuffle `shfl_down(e, η)` / `shfl_xor(e, η)`: every lane
    /// of a warp evaluates `e` in lockstep and receives the value
    /// computed by another lane of the *same* warp — a register-to-
    /// register exchange needing neither shared memory nor a barrier.
    /// The distance is a static nat, so the exchange pattern is
    /// warp-uniform by construction; the type checker rejects distances
    /// that would reach across the warp boundary.
    Shfl {
        /// Which shuffle pattern.
        kind: ShflKind,
        /// The exchanged value, evaluated by every lane.
        value: Box<Expr>,
        /// Shuffle distance (`shfl_down`) or lane mask (`shfl_xor`);
        /// must be in `1..WARP_SIZE`.
        delta: Nat,
    },
}

/// Warp-shuffle patterns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShflKind {
    /// `shfl_down(v, d)`: lane `i` receives the value of lane `i + d`
    /// (lanes in the top `d` keep their own value).
    Down,
    /// `shfl_xor(v, m)`: lane `i` receives the value of lane `i ^ m`
    /// (the butterfly pattern; total reductions leave the result in
    /// every lane).
    Xor,
}

impl ShflKind {
    /// The surface-syntax (and intrinsic) name.
    pub fn fn_name(&self) -> &'static str {
        match self {
            ShflKind::Down => "shfl_down",
            ShflKind::Xor => "shfl_xor",
        }
    }

    /// Parses a surface name back to the kind.
    pub fn from_name(name: &str) -> Option<ShflKind> {
        Some(match name {
            "shfl_down" => ShflKind::Down,
            "shfl_xor" => ShflKind::Xor,
            _ => return None,
        })
    }
}

impl fmt::Display for ShflKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.fn_name())
    }
}

/// Literals.
#[derive(Clone, Debug, PartialEq)]
pub enum Lit {
    /// 64-bit float.
    F64(f64),
    /// 32-bit float.
    F32(f32),
    /// 32-bit signed integer.
    I32(i64),
    /// 32-bit unsigned integer (`5u32`).
    U32(u64),
    /// Boolean.
    Bool(bool),
    /// Unit.
    Unit,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition `+`.
    Add,
    /// Subtraction `-`.
    Sub,
    /// Multiplication `*`.
    Mul,
    /// Division `/`.
    Div,
    /// Remainder `%`.
    Mod,
    /// Less-than `<`.
    Lt,
    /// Less-or-equal `<=`.
    Le,
    /// Greater-than `>`.
    Gt,
    /// Greater-or-equal `>=`.
    Ge,
    /// Equality `==`.
    Eq,
    /// Inequality `!=`.
    Ne,
    /// Logical and `&&`.
    And,
    /// Logical or `||`.
    Or,
}

impl BinOp {
    /// Whether the operator produces a boolean.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// Whether the operator takes boolean operands.
    pub fn is_logical(&self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => write!(f, "-"),
            UnOp::Not => write!(f, "!"),
        }
    }
}

/// A place expression (paper Figure 3): a path naming a region of memory.
#[derive(Clone, Debug, PartialEq)]
pub struct PlaceExpr {
    /// The place proper.
    pub kind: PlaceExprKind,
    /// Source span.
    pub span: Span,
}

impl PlaceExpr {
    /// Creates a place with a dummy span.
    pub fn synth(kind: PlaceExprKind) -> PlaceExpr {
        PlaceExpr {
            kind,
            span: Span::DUMMY,
        }
    }

    /// A bare variable place.
    pub fn var(name: impl Into<String>) -> PlaceExpr {
        PlaceExpr::synth(PlaceExprKind::Ident(name.into()))
    }

    /// The root variable of the place. For a zip, the first operand's
    /// root (a zip has two roots; projections pick one during typing).
    pub fn root(&self) -> &str {
        match &self.kind {
            PlaceExprKind::Ident(x) => x,
            PlaceExprKind::Proj(p, _)
            | PlaceExprKind::Deref(p)
            | PlaceExprKind::Index(p, _)
            | PlaceExprKind::Select(p, _, _)
            | PlaceExprKind::View(p, _)
            | PlaceExprKind::Zip(p, _) => p.root(),
        }
    }

    /// Whether the place contains a dereference.
    pub fn has_deref(&self) -> bool {
        match &self.kind {
            PlaceExprKind::Ident(_) => false,
            PlaceExprKind::Deref(_) => true,
            PlaceExprKind::Proj(p, _)
            | PlaceExprKind::Index(p, _)
            | PlaceExprKind::Select(p, _, _)
            | PlaceExprKind::View(p, _) => p.has_deref(),
            PlaceExprKind::Zip(a, b) => a.has_deref() || b.has_deref(),
        }
    }
}

/// Place expression forms. The paper's `p.fst/p.snd`, `*p`, `p[t]`,
/// `pJeK` (select) and view application.
#[derive(Clone, Debug, PartialEq)]
pub enum PlaceExprKind {
    /// A variable.
    Ident(String),
    /// Tuple projection: `.fst` is 0, `.snd` is 1.
    Proj(Box<PlaceExpr>, u8),
    /// Dereference `*p`.
    Deref(Box<PlaceExpr>),
    /// Indexing `p[η]` with a nat (literals and for-nat variables).
    Index(Box<PlaceExpr>, Nat),
    /// Select `p[[e]]` or `p[[e.D]]`: distributes the outermost array
    /// dimension(s) over the sub-resources of execution resource `e`
    /// (optionally restricted to one dimension `D`).
    Select(Box<PlaceExpr>, String, Option<DimCompo>),
    /// View application `p.v::<η,...>(v,...)`.
    View(Box<PlaceExpr>, ViewApp),
    /// `zip(a, b)`: views two equal-length array places as one array of
    /// pairs. Element projections `.0`/`.1` route back to the operands.
    Zip(Box<PlaceExpr>, Box<PlaceExpr>),
}

/// A single view application: name, nat arguments and view arguments
/// (the latter for higher-order views like `map`).
#[derive(Clone, Debug, PartialEq)]
pub struct ViewApp {
    /// View name (`group`, `transpose`, `reverse`, `split`, `map`, or a
    /// user-defined view).
    pub name: String,
    /// Nat arguments, e.g. the `8` of `group::<8>`.
    pub nat_args: Vec<Nat>,
    /// View arguments, e.g. the `transpose` of `map(transpose)`.
    pub view_args: Vec<ViewApp>,
}

impl ViewApp {
    /// A view application without arguments, e.g. `transpose`.
    pub fn simple(name: impl Into<String>) -> ViewApp {
        ViewApp {
            name: name.into(),
            nat_args: Vec::new(),
            view_args: Vec::new(),
        }
    }

    /// A view application with nat arguments, e.g. `group::<8>`.
    pub fn with_nats(name: impl Into<String>, nat_args: Vec<Nat>) -> ViewApp {
        ViewApp {
            name: name.into(),
            nat_args,
            view_args: Vec::new(),
        }
    }

    /// Substitutes nat variables in all nat arguments (recursively).
    pub fn subst_nats(&self, map: &dyn Fn(&str) -> Option<Nat>) -> ViewApp {
        ViewApp {
            name: self.name.clone(),
            nat_args: self.nat_args.iter().map(|n| n.subst(map)).collect(),
            view_args: self.view_args.iter().map(|v| v.subst_nats(map)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_expansion() {
        let r = NatRange::Range {
            lo: Nat::lit(0),
            hi: Nat::lit(4),
        };
        assert_eq!(
            r.values(&|_| None).unwrap().collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn range_with_vars() {
        let r = NatRange::Range {
            lo: Nat::lit(0),
            hi: Nat::var("n") / Nat::lit(2),
        };
        assert_eq!(
            r.values(&|x| (x == "n").then_some(8))
                .unwrap()
                .collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn halving_expansion() {
        let r = NatRange::Halving { from: Nat::lit(8) };
        assert_eq!(
            r.values(&|_| None).unwrap().collect::<Vec<_>>(),
            vec![8, 4, 2, 1]
        );
    }

    #[test]
    fn halving_rejects_non_power_of_two() {
        let r = NatRange::Halving { from: Nat::lit(6) };
        assert!(r.values(&|_| None).is_err());
    }

    #[test]
    fn doubling_expansion() {
        let r = NatRange::Doubling {
            from: Nat::lit(1),
            limit: Nat::lit(16),
        };
        assert_eq!(
            r.values(&|_| None).unwrap().collect::<Vec<_>>(),
            vec![1, 2, 4, 8]
        );
    }

    #[test]
    fn empty_range_is_ok() {
        let r = NatRange::Range {
            lo: Nat::lit(3),
            hi: Nat::lit(3),
        };
        assert_eq!(
            r.values(&|_| None).unwrap().collect::<Vec<_>>(),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn inverted_range_errors() {
        let r = NatRange::Range {
            lo: Nat::lit(4),
            hi: Nat::lit(3),
        };
        assert!(r.values(&|_| None).is_err());
    }

    #[test]
    fn huge_range_is_lazy() {
        let r = NatRange::Range {
            lo: Nat::lit(0),
            hi: Nat::lit(2_000_000_000),
        };
        let mut values = r.values(&|_| None).unwrap();
        assert_eq!(values.len(), 2_000_000_000);
        assert_eq!(values.by_ref().take(3).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(values.len(), 1_999_999_997);
        let r = NatRange::Doubling {
            from: Nat::lit(1 << 62),
            limit: Nat::lit(u64::MAX),
        };
        let values = r.values(&|_| None).unwrap();
        assert_eq!(values.len(), 2);
        assert_eq!(values.collect::<Vec<_>>(), vec![1 << 62, 1 << 63]);
    }

    #[test]
    fn place_root_through_chain() {
        let p = PlaceExpr::synth(PlaceExprKind::Index(
            Box::new(PlaceExpr::synth(PlaceExprKind::View(
                Box::new(PlaceExpr::synth(PlaceExprKind::Deref(Box::new(
                    PlaceExpr::var("arr"),
                )))),
                ViewApp::with_nats("group", vec![Nat::lit(8)]),
            ))),
            Nat::lit(0),
        ));
        assert_eq!(p.root(), "arr");
        assert!(p.has_deref());
        assert!(!PlaceExpr::var("x").has_deref());
    }

    #[test]
    fn program_lookup() {
        let mut prog = Program::default();
        prog.items.push(Item::Const(ConstDef {
            name: "N".into(),
            value: Nat::lit(1024),
            span: Span::DUMMY,
        }));
        assert!(prog.const_def("N").is_some());
        assert!(prog.const_def("M").is_none());
        assert!(prog.fn_def("f").is_none());
    }
}
