//! Lowering of place paths to raw index arithmetic.
//!
//! The paper (Section 5) describes the process: *"When selecting from or
//! indexing into a view, these indices are transformed to express the
//! access patterns these views describe. This process is performed in
//! reversed order, starting with the view that was applied last. Each view
//! takes the previous index and transforms it until the resulting index
//! expresses a combination of all views."*
//!
//! We walk the path backwards, collecting the multi-index contributed by
//! select and index steps, and rewrite it through each view:
//!
//! ```text
//! group::<k>       : (g, j, rest...)  ->  (g*k + j, rest...)
//! transpose        : (i, j, rest...)  ->  (j, i, rest...)
//! reverse          : (i, rest...)     ->  (n-1-i, rest...)
//! split.fst        : (i, rest...)     ->  (i, rest...)
//! split::<p>.snd   : (i, rest...)     ->  (i+p, rest...)
//! map(v)           : (i, rest...)     ->  (i, v(rest...))
//! windows::<w, s>  : (i, j, rest...)  ->  (i*s + j, rest...)
//! ```
//!
//! `zip` contributes no arithmetic: its projections route the access into
//! one operand's path before lowering, so each component keeps its own
//! base buffer. An unprojected zip cannot be lowered.
//!
//! Finally the multi-index is flattened row-major against the root array's
//! dimensions, yielding a single linear element offset.

use crate::path::{PathStep, PlacePath};
use crate::view::ViewStep;
use descend_ast::ty::DimCompo;
use descend_ast::Nat;
use descend_exec::Space;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// The reserved nat-variable name standing for the *dynamic* element
/// index of an atomic scatter (`atomic_add(p, i, e)`): the type checker
/// extends the target path with `Index(Nat::Var(DYN_IDX))`, the path
/// lowers through the one shared `lower_scalar_access` pipeline like any
/// static index, and code generation substitutes the runtime index
/// expression for the sentinel afterwards. Keeping the sentinel inside
/// the normal lowering is what lets every backend and the simulator share
/// one address computation even for data-dependent targets.
pub const DYN_IDX: &str = "__atomic_idx";

/// A coordinate source: which hardware index a select compiles to.
///
/// `Block`/`X` is CUDA's `blockIdx.x`, `Thread`/`Y` is `threadIdx.y`, and
/// so on. `offset` is subtracted to obtain branch-local coordinates under
/// `split` (see [`crate::path::SelectStep::coord_offset`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Coord {
    /// Block or thread space.
    pub space: Space,
    /// The hardware dimension.
    pub dim: DimCompo,
    /// Offset subtracted from the raw coordinate.
    pub offset: Nat,
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let base = match (self.space, self.dim) {
            (Space::Block, DimCompo::X) => "blockIdx.x",
            (Space::Block, DimCompo::Y) => "blockIdx.y",
            (Space::Block, DimCompo::Z) => "blockIdx.z",
            (Space::Thread, DimCompo::X) => "threadIdx.x",
            (Space::Thread, DimCompo::Y) => "threadIdx.y",
            (Space::Thread, DimCompo::Z) => "threadIdx.z",
            // Warps and lanes factor the 1-D thread space (`to_warps`
            // requires X), so their coordinates derive from threadIdx.x.
            (Space::Warp, _) => "(threadIdx.x / 32)",
            (Space::Lane, _) => "(threadIdx.x % 32)",
        };
        if self.offset.as_lit() == Some(0) {
            write!(f, "{base}")
        } else {
            write!(f, "({base} - {})", self.offset)
        }
    }
}

/// A symbolic index expression over coordinates, nat variables (for-nat
/// loop variables) and constants.
#[derive(Clone, Debug, PartialEq)]
pub enum IdxExpr {
    /// A constant.
    Const(u64),
    /// A nat variable (a for-nat loop variable surviving to runtime).
    Var(String),
    /// A hardware coordinate.
    Coord(Coord),
    /// Addition.
    Add(Box<IdxExpr>, Box<IdxExpr>),
    /// Subtraction (used by `reverse`; guaranteed non-negative by typing).
    Sub(Box<IdxExpr>, Box<IdxExpr>),
    /// Multiplication.
    Mul(Box<IdxExpr>, Box<IdxExpr>),
}

impl IdxExpr {
    /// Evaluates the expression.
    ///
    /// `coords` supplies raw hardware coordinates; `vars` supplies values
    /// of loop variables.
    ///
    /// # Errors
    ///
    /// Returns an error for unbound variables or negative intermediate
    /// results.
    pub fn eval(
        &self,
        coords: &dyn Fn(Space, DimCompo) -> u64,
        vars: &dyn Fn(&str) -> Option<u64>,
    ) -> Result<u64, String> {
        match self {
            IdxExpr::Const(v) => Ok(*v),
            IdxExpr::Var(x) => vars(x).ok_or_else(|| format!("unbound index variable `{x}`")),
            IdxExpr::Coord(c) => {
                let raw = coords(c.space, c.dim);
                let off = c.offset.eval(&|x| vars(x)).map_err(|e| e.to_string())?;
                raw.checked_sub(off)
                    .ok_or_else(|| format!("negative branch-local coordinate: {raw} - {off}"))
            }
            IdxExpr::Add(a, b) => Ok(a.eval(coords, vars)? + b.eval(coords, vars)?),
            IdxExpr::Sub(a, b) => {
                let (x, y) = (a.eval(coords, vars)?, b.eval(coords, vars)?);
                x.checked_sub(y)
                    .ok_or_else(|| format!("negative index: {x} - {y}"))
            }
            IdxExpr::Mul(a, b) => Ok(a.eval(coords, vars)? * b.eval(coords, vars)?),
        }
    }

    /// The expression with each variable bound in `values` replaced by
    /// its value, rebuilt through the folding constructors (a constant
    /// subtraction that would underflow stays unfolded).
    pub fn bind(&self, values: &[(&str, u64)]) -> IdxExpr {
        match self {
            IdxExpr::Var(x) => match values.iter().find(|(y, _)| y == x) {
                Some(&(_, v)) => IdxExpr::Const(v),
                None => self.clone(),
            },
            IdxExpr::Const(_) | IdxExpr::Coord(_) => self.clone(),
            IdxExpr::Add(a, b) => a.bind(values) + b.bind(values),
            IdxExpr::Mul(a, b) => a.bind(values) * b.bind(values),
            IdxExpr::Sub(a, b) => match (a.bind(values), b.bind(values)) {
                (IdxExpr::Const(x), IdxExpr::Const(y)) if x < y => {
                    IdxExpr::Sub(Box::new(IdxExpr::Const(x)), Box::new(IdxExpr::Const(y)))
                }
                (a, b) => a - b,
            },
        }
    }
}

/// Smart constructor folding constants.
impl std::ops::Add for IdxExpr {
    type Output = IdxExpr;
    fn add(self, rhs: IdxExpr) -> IdxExpr {
        match (self, rhs) {
            (IdxExpr::Const(0), x) | (x, IdxExpr::Const(0)) => x,
            (IdxExpr::Const(x), IdxExpr::Const(y)) => IdxExpr::Const(x + y),
            (a, b) => IdxExpr::Add(Box::new(a), Box::new(b)),
        }
    }
}

/// Smart constructor folding constants; panics on constant underflow.
impl std::ops::Sub for IdxExpr {
    type Output = IdxExpr;
    fn sub(self, rhs: IdxExpr) -> IdxExpr {
        match (self, rhs) {
            (x, IdxExpr::Const(0)) => x,
            (IdxExpr::Const(x), IdxExpr::Const(y)) => {
                IdxExpr::Const(x.checked_sub(y).expect("index subtraction underflow"))
            }
            (a, b) => IdxExpr::Sub(Box::new(a), Box::new(b)),
        }
    }
}

/// Smart constructor folding constants.
impl std::ops::Mul for IdxExpr {
    type Output = IdxExpr;
    fn mul(self, rhs: IdxExpr) -> IdxExpr {
        match (self, rhs) {
            (IdxExpr::Const(1), x) | (x, IdxExpr::Const(1)) => x,
            (IdxExpr::Const(0), _) | (_, IdxExpr::Const(0)) => IdxExpr::Const(0),
            (IdxExpr::Const(x), IdxExpr::Const(y)) => IdxExpr::Const(x * y),
            (a, b) => IdxExpr::Mul(Box::new(a), Box::new(b)),
        }
    }
}

impl fmt::Display for IdxExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdxExpr::Const(v) => write!(f, "{v}"),
            IdxExpr::Var(x) => write!(f, "{x}"),
            IdxExpr::Coord(c) => write!(f, "{c}"),
            IdxExpr::Add(a, b) => write!(f, "({a} + {b})"),
            IdxExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            IdxExpr::Mul(a, b) => write!(f, "({a} * {b})"),
        }
    }
}

/// Errors from lowering a place path.
#[derive(Clone, Debug, PartialEq)]
pub enum LowerError {
    /// The access does not reach a scalar (too few indices).
    NotScalar {
        /// Number of indices collected.
        collected: usize,
        /// Root rank required.
        required: usize,
    },
    /// A view required more indices than the access provides.
    TooFewIndices(String),
    /// An unprojected split view remained in the path.
    UnprojectedSplit,
    /// An unprojected zip remained in the path.
    UnprojectedZip,
    /// Tuple projections of real tuples cannot be lowered to flat offsets.
    TupleProjection,
    /// A nat could not be converted (opaque division).
    OpaqueNat(String),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::NotScalar {
                collected,
                required,
            } => write!(
                f,
                "access provides {collected} indices but the array has rank {required}"
            ),
            LowerError::TooFewIndices(v) => {
                write!(f, "view `{v}` needs more indices than the access provides")
            }
            LowerError::UnprojectedSplit => {
                write!(f, "cannot lower an unprojected split view")
            }
            LowerError::UnprojectedZip => {
                write!(f, "cannot lower an unprojected zip; project with `.0`/`.1`")
            }
            LowerError::TupleProjection => {
                write!(f, "cannot lower tuple projections to a flat offset")
            }
            LowerError::OpaqueNat(n) => write!(f, "cannot lower opaque nat `{n}`"),
        }
    }
}

impl std::error::Error for LowerError {}

fn nat_to_idx(n: &Nat) -> Result<IdxExpr, LowerError> {
    match n {
        Nat::Lit(v) => return Ok(IdxExpr::Const(*v)),
        Nat::Var(x) => return Ok(IdxExpr::Var(x.clone())),
        _ => {}
    }
    let s = n.simplify();
    if matches!(s, Nat::Div(..) | Nat::Mod(..)) {
        return Err(LowerError::OpaqueNat(n.to_string()));
    }
    fn conv(n: &Nat) -> Result<IdxExpr, LowerError> {
        Ok(match n {
            Nat::Lit(v) => IdxExpr::Const(*v),
            Nat::Var(x) => IdxExpr::Var(x.clone()),
            Nat::Add(a, b) => IdxExpr::add(conv(a)?, conv(b)?),
            Nat::Sub(a, b) => IdxExpr::sub(conv(a)?, conv(b)?),
            Nat::Mul(a, b) => IdxExpr::mul(conv(a)?, conv(b)?),
            Nat::Div(..) | Nat::Mod(..) => return Err(LowerError::OpaqueNat(n.to_string())),
        })
    }
    conv(&s)
}

/// Rewrites the multi-index backwards through one view step.
fn apply_view_backward(step: &ViewStep, idx: &mut Vec<IdxExpr>) -> Result<(), LowerError> {
    match step {
        ViewStep::Group { k } => {
            if idx.len() < 2 {
                return Err(LowerError::TooFewIndices("group".into()));
            }
            let g = idx.remove(0);
            let j = idx.remove(0);
            let k = nat_to_idx(k)?;
            idx.insert(0, IdxExpr::add(IdxExpr::mul(g, k), j));
        }
        ViewStep::Transpose => {
            if idx.len() < 2 {
                return Err(LowerError::TooFewIndices("transpose".into()));
            }
            idx.swap(0, 1);
        }
        ViewStep::Reverse { n } => {
            if idx.is_empty() {
                return Err(LowerError::TooFewIndices("reverse".into()));
            }
            let n = nat_to_idx(&(n.clone() - Nat::lit(1)).simplify())?;
            let i = idx.remove(0);
            idx.insert(0, IdxExpr::sub(n, i));
        }
        ViewStep::SplitAt { .. } => return Err(LowerError::UnprojectedSplit),
        ViewStep::SplitPart { pos, side } => {
            if idx.is_empty() {
                return Err(LowerError::TooFewIndices("split".into()));
            }
            if *side == descend_exec::Side::Snd {
                let p = nat_to_idx(pos)?;
                let i = idx.remove(0);
                idx.insert(0, IdxExpr::add(i, p));
            }
        }
        ViewStep::Map(inner) => {
            if idx.is_empty() {
                return Err(LowerError::TooFewIndices("map".into()));
            }
            let head = idx.remove(0);
            for s in inner.iter().rev() {
                apply_view_backward(s, idx)?;
            }
            idx.insert(0, head);
        }
        ViewStep::Windows { s, .. } => {
            if idx.len() < 2 {
                return Err(LowerError::TooFewIndices("windows".into()));
            }
            let i = idx.remove(0);
            let j = idx.remove(0);
            let s = nat_to_idx(s)?;
            idx.insert(0, IdxExpr::add(IdxExpr::mul(i, s), j));
        }
        ViewStep::Zip => return Err(LowerError::UnprojectedZip),
    }
    Ok(())
}

/// An atom of the linear normal form, in its order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum LinAtom<'e> {
    Coord(Space, DimCompo),
    Var(&'e str),
}

/// Adds `scale · e` to the linear combination `Σ coeff·atom + konst`, or
/// fails when `e` is not linear (never the case for view lowerings,
/// which compose affine index transformations). A product is linear
/// when one factor has no atom at all.
fn add_linear<'e>(
    e: &'e IdxExpr,
    scale: i64,
    terms: &mut Vec<(LinAtom<'e>, i64)>,
    konst: &mut i64,
) -> Option<()> {
    fn constant(e: &IdxExpr) -> Option<i64> {
        Some(match e {
            IdxExpr::Const(v) => i64::try_from(*v).ok()?,
            IdxExpr::Var(_) | IdxExpr::Coord(_) => return None,
            IdxExpr::Add(a, b) => constant(a)? + constant(b)?,
            IdxExpr::Sub(a, b) => constant(a)? - constant(b)?,
            IdxExpr::Mul(a, b) => constant(a)? * constant(b)?,
        })
    }
    match e {
        IdxExpr::Const(v) => *konst += scale * i64::try_from(*v).ok()?,
        IdxExpr::Var(x) => terms.push((LinAtom::Var(x), scale)),
        IdxExpr::Coord(c) => {
            *konst -= scale * i64::try_from(c.offset.as_lit()?).ok()?;
            terms.push((LinAtom::Coord(c.space, c.dim), scale));
        }
        IdxExpr::Add(a, b) => {
            add_linear(a, scale, terms, konst)?;
            add_linear(b, scale, terms, konst)?;
        }
        IdxExpr::Sub(a, b) => {
            add_linear(a, scale, terms, konst)?;
            add_linear(b, -scale, terms, konst)?;
        }
        IdxExpr::Mul(a, b) => match (constant(a), constant(b)) {
            (Some(ca), _) => add_linear(b, scale * ca, terms, konst)?,
            (None, Some(cb)) => add_linear(a, scale * cb, terms, konst)?,
            (None, None) => return None,
        },
    }
    Some(())
}

/// Simplifies an index expression by normalizing to a linear combination,
/// folding away branch offsets that cancel (`(tid - k) + k` becomes
/// `tid`), exactly like a production compiler would.
pub fn simplify_idx(e: IdxExpr) -> IdxExpr {
    let (mut terms, mut konst) = (Vec::new(), 0);
    if add_linear(&e, 1, &mut terms, &mut konst).is_none() {
        return e;
    }
    terms.sort_unstable_by_key(|(atom, _)| *atom);
    let mut pos: Option<IdxExpr> = None;
    let mut neg: Option<IdxExpr> = None;
    let push = |side: &mut Option<IdxExpr>, term: IdxExpr| {
        *side = Some(match side.take() {
            None => term,
            Some(acc) => IdxExpr::add(acc, term),
        });
    };
    for same in terms.chunk_by(|a, b| a.0 == b.0) {
        let coeff: i64 = same.iter().map(|(_, c)| c).sum();
        if coeff == 0 {
            continue;
        }
        let base = match same[0].0 {
            LinAtom::Coord(space, dim) => IdxExpr::Coord(Coord {
                space,
                dim,
                offset: Nat::lit(0),
            }),
            LinAtom::Var(x) => IdxExpr::Var(x.to_string()),
        };
        let term = if coeff.unsigned_abs() == 1 {
            base
        } else {
            IdxExpr::mul(base, IdxExpr::Const(coeff.unsigned_abs()))
        };
        if coeff > 0 {
            push(&mut pos, term);
        } else {
            push(&mut neg, term);
        }
    }
    if konst > 0 {
        push(&mut pos, IdxExpr::Const(konst as u64));
    } else if konst < 0 {
        push(&mut neg, IdxExpr::Const(konst.unsigned_abs()));
    }
    match (pos, neg) {
        (None, None) => IdxExpr::Const(0),
        (Some(p), None) => p,
        (Some(p), Some(n)) => IdxExpr::Sub(Box::new(p), Box::new(n)),
        // Nonpositive everywhere: valid only where every negative term is
        // zero (a one-wide coordinate). Still a function of the linear
        // form alone, so binding variables before or after lowering
        // agrees here too.
        (None, Some(n)) => IdxExpr::Sub(Box::new(IdxExpr::Const(0)), Box::new(n)),
    }
}

/// Lowers a scalar access through a place path to a linear element offset
/// into the root array.
///
/// `root_dims` are the dimension sizes of the root array type, outermost
/// first (e.g. `[2048, 2048]` for `[[f64; 2048]; 2048]`). Leading `Deref`
/// steps are skipped (the reference itself contributes no indexing).
/// The result is simplified to linear normal form (see [`simplify_idx`]).
/// Variables the path indexes through (rolled loop variables, the
/// [`DYN_IDX`] sentinel) stay [`IdxExpr::Var`]s; binding them afterwards
/// ([`IdxExpr::bind`], then [`simplify_idx`]) yields exactly the lowering
/// of the path with their values in place.
///
/// # Errors
///
/// Returns a [`LowerError`] if the access is not scalar, contains real
/// tuple projections, or an unprojected split.
pub fn lower_scalar_access(path: &PlacePath, root_dims: &[Nat]) -> Result<IdxExpr, LowerError> {
    let mut idx: Vec<IdxExpr> = Vec::new();
    for step in path.steps.iter().rev() {
        match step {
            PathStep::Deref => {}
            PathStep::Proj(_) => return Err(LowerError::TupleProjection),
            PathStep::Index(n) => idx.insert(0, nat_to_idx(n)?),
            PathStep::Select(sel) => {
                let (space, dim) = sel.space_dim();
                idx.insert(
                    0,
                    IdxExpr::Coord(Coord {
                        space,
                        dim,
                        offset: sel.coord_offset(),
                    }),
                );
            }
            PathStep::View(v) => apply_view_backward(v, &mut idx)?,
        }
    }
    if idx.len() != root_dims.len() {
        return Err(LowerError::NotScalar {
            collected: idx.len(),
            required: root_dims.len(),
        });
    }
    let mut flat = IdxExpr::Const(0);
    for (i, d) in idx.into_iter().zip(root_dims) {
        flat = IdxExpr::add(IdxExpr::mul(flat, nat_to_idx(d)?), i);
    }
    Ok(simplify_idx(flat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::SelectStep;
    use descend_ast::ty::Dim;
    use descend_exec::{ExecExpr, Side};

    fn thread_exec_1d(threads: u64) -> ExecExpr {
        ExecExpr::grid(Dim::x(1u64), Dim::x(threads))
            .forall(DimCompo::X)
            .unwrap()
            .forall(DimCompo::X)
            .unwrap()
    }

    fn select(exec: &ExecExpr, level: usize) -> PathStep {
        PathStep::Select(SelectStep {
            exec: exec.clone(),
            level_index: level,
        })
    }

    /// Figure 4 of the paper: `array.group::<8>.transpose[[thread]][i]`
    /// on a 32-element array accessed by 8 threads: thread `t`, iteration
    /// `i` touches element `i*8 + t`.
    #[test]
    fn figure_4_group_transpose() {
        let t = thread_exec_1d(8);
        let mut p = PlacePath::new("array", ExecExpr::grid(Dim::x(1u64), Dim::x(8u64)));
        p.push(PathStep::View(ViewStep::Group { k: Nat::lit(8) }));
        p.push(PathStep::View(ViewStep::Transpose));
        p.push(select(&t, 1));
        p.push(PathStep::Index(Nat::var("i")));
        let flat = lower_scalar_access(&p, &[Nat::lit(32)]).unwrap();
        for tid in 0..8u64 {
            for i in 0..4u64 {
                let got = flat
                    .eval(&|_, _| tid, &|x| (x == "i").then_some(i))
                    .unwrap();
                assert_eq!(got, i * 8 + tid, "thread {tid}, i {i}");
            }
        }
    }

    #[test]
    fn reverse_lowering() {
        let t = thread_exec_1d(32);
        let mut p = PlacePath::new("arr", ExecExpr::grid(Dim::x(1u64), Dim::x(32u64)));
        p.push(PathStep::View(ViewStep::Reverse { n: Nat::lit(32) }));
        p.push(select(&t, 1));
        let flat = lower_scalar_access(&p, &[Nat::lit(32)]).unwrap();
        for tid in 0..32u64 {
            assert_eq!(flat.eval(&|_, _| tid, &|_| None).unwrap(), 31 - tid);
        }
    }

    #[test]
    fn split_snd_offsets() {
        let _t = thread_exec_1d(32);
        let mut p = PlacePath::new("arr", ExecExpr::grid(Dim::x(1u64), Dim::x(32u64)));
        p.push(PathStep::View(ViewStep::SplitAt { pos: Nat::lit(24) }));
        p.push(PathStep::Proj(1));
        p.push(PathStep::Index(Nat::lit(3)));
        let flat = lower_scalar_access(&p, &[Nat::lit(32)]).unwrap();
        assert_eq!(flat.eval(&|_, _| 0, &|_| None).unwrap(), 27);
    }

    #[test]
    fn nested_group_map_transpose_matches_manual() {
        // group::<8>.map(transpose) on a (32,32) matrix: [g][c][r] ->
        // row 8g + r, column c.
        let mut p = PlacePath::new("m", ExecExpr::cpu_thread());
        p.push(PathStep::View(ViewStep::Group { k: Nat::lit(8) }));
        p.push(PathStep::View(ViewStep::Map(vec![ViewStep::Transpose])));
        p.push(PathStep::Index(Nat::var("g")));
        p.push(PathStep::Index(Nat::var("c")));
        p.push(PathStep::Index(Nat::var("r")));
        let flat = lower_scalar_access(&p, &[Nat::lit(32), Nat::lit(32)]).unwrap();
        for g in 0..4u64 {
            for c in 0..32u64 {
                for r in 0..8u64 {
                    let got = flat
                        .eval(&|_, _| 0, &|x| match x {
                            "g" => Some(g),
                            "c" => Some(c),
                            "r" => Some(r),
                            _ => None,
                        })
                        .unwrap();
                    assert_eq!(got, (8 * g + r) * 32 + c);
                }
            }
        }
    }

    #[test]
    fn tiles_view_lowering_matches_tile_coordinates() {
        // tiles<32,32> = group::<32>.map(map(group::<32>)).map(transpose)
        // on (128, 128): [a][b][r][c] -> element (a*32+r, b*32+c).
        let steps = vec![
            ViewStep::Group { k: Nat::lit(32) },
            ViewStep::Map(vec![ViewStep::Map(vec![ViewStep::Group {
                k: Nat::lit(32),
            }])]),
            ViewStep::Map(vec![ViewStep::Transpose]),
        ];
        let mut p = PlacePath::new("m", ExecExpr::cpu_thread());
        for s in steps {
            p.push(PathStep::View(s));
        }
        for v in ["a", "b", "r", "c"] {
            p.push(PathStep::Index(Nat::var(v)));
        }
        let flat = lower_scalar_access(&p, &[Nat::lit(128), Nat::lit(128)]).unwrap();
        for (a, b, r, c) in [(0, 0, 0, 0), (1, 2, 3, 4), (3, 3, 31, 31), (2, 0, 16, 7)] {
            let got = flat
                .eval(&|_, _| 0, &|x| match x {
                    "a" => Some(a),
                    "b" => Some(b),
                    "r" => Some(r),
                    "c" => Some(c),
                    _ => None,
                })
                .unwrap();
            assert_eq!(got, (a * 32 + r) * 128 + (b * 32 + c));
        }
    }

    #[test]
    fn branch_local_coordinates_subtract_offset() {
        // Threads 24..32 of a 32-thread block select from an 8-element
        // region: thread 27 has branch-local coordinate 3.
        let b = ExecExpr::grid(Dim::x(1u64), Dim::x(32u64))
            .forall(DimCompo::X)
            .unwrap();
        let snd_threads = b
            .split(DimCompo::X, Nat::lit(24), Side::Snd)
            .unwrap()
            .forall(DimCompo::X)
            .unwrap();
        let mut p = PlacePath::new("arr", b);
        p.push(select(&snd_threads, 2));
        let flat = lower_scalar_access(&p, &[Nat::lit(8)]).unwrap();
        assert_eq!(flat.eval(&|_, _| 27, &|_| None).unwrap(), 3);
    }

    /// Warp and lane selects lower to `tid / 32` and `tid % 32`
    /// coordinates; evaluating them against a linear thread id
    /// reproduces the warp-major element order.
    #[test]
    fn warp_lane_selects_lower_to_div_mod_coords() {
        let b = ExecExpr::grid(Dim::x(1u64), Dim::x(64u64))
            .forall(DimCompo::X)
            .unwrap();
        let lanes = b
            .to_warps()
            .unwrap()
            .forall(DimCompo::X)
            .unwrap()
            .forall(DimCompo::X)
            .unwrap();
        let mut p = PlacePath::new("tmp", b);
        p.push(PathStep::View(ViewStep::Group { k: Nat::lit(32) }));
        p.push(select(&lanes, 2));
        p.push(select(&lanes, 3));
        let flat = lower_scalar_access(&p, &[Nat::lit(64)]).unwrap();
        let coords = |tid: u64| {
            move |space: Space, _dim| match space {
                Space::Warp => tid / 32,
                Space::Lane => tid % 32,
                _ => tid,
            }
        };
        for tid in 0..64u64 {
            let got = flat.eval(&coords(tid), &|_| None).unwrap();
            assert_eq!(got, (tid / 32) * 32 + tid % 32);
            assert_eq!(got, tid, "warp-major order is the identity here");
        }
    }

    #[test]
    fn warp_coord_display_spells_div_mod() {
        let w = IdxExpr::Coord(Coord {
            space: Space::Warp,
            dim: DimCompo::X,
            offset: Nat::lit(0),
        });
        let l = IdxExpr::Coord(Coord {
            space: Space::Lane,
            dim: DimCompo::X,
            offset: Nat::lit(1),
        });
        assert_eq!(w.to_string(), "(threadIdx.x / 32)");
        assert_eq!(l.to_string(), "((threadIdx.x % 32) - 1)");
    }

    /// `windows::<w, s>` lowers window `i`, offset `j` to `i*s + j`.
    #[test]
    fn windows_lowering_is_strided() {
        let mut p = PlacePath::new("arr", ExecExpr::cpu_thread());
        p.push(PathStep::View(ViewStep::Windows {
            w: Nat::lit(3),
            s: Nat::lit(2),
        }));
        p.push(PathStep::Index(Nat::var("i")));
        p.push(PathStep::Index(Nat::var("j")));
        let flat = lower_scalar_access(&p, &[Nat::lit(9)]).unwrap();
        for i in 0..4u64 {
            for j in 0..3u64 {
                let got = flat
                    .eval(&|_, _| 0, &|x| match x {
                        "i" => Some(i),
                        "j" => Some(j),
                        _ => None,
                    })
                    .unwrap();
                assert_eq!(got, i * 2 + j);
            }
        }
    }

    /// A windows select by threads composes with inner indices: thread
    /// `t`'s 3-wide stencil window at stride 1 covers `t`, `t+1`, `t+2`.
    #[test]
    fn windows_select_composes_with_group() {
        let t = thread_exec_1d(8);
        for k in 0..3u64 {
            let mut p = PlacePath::new("tile", ExecExpr::grid(Dim::x(1u64), Dim::x(8u64)));
            p.push(PathStep::View(ViewStep::Windows {
                w: Nat::lit(3),
                s: Nat::lit(1),
            }));
            p.push(select(&t, 1));
            p.push(PathStep::Index(Nat::lit(k)));
            let flat = lower_scalar_access(&p, &[Nat::lit(10)]).unwrap();
            for tid in 0..8u64 {
                assert_eq!(flat.eval(&|_, _| tid, &|_| None).unwrap(), tid + k);
            }
        }
    }

    #[test]
    fn unprojected_zip_rejected() {
        let mut p = PlacePath::new("pair", ExecExpr::cpu_thread());
        p.push(PathStep::View(ViewStep::Zip));
        p.push(PathStep::Index(Nat::lit(0)));
        let err = lower_scalar_access(&p, &[Nat::lit(8)]).unwrap_err();
        assert!(matches!(err, LowerError::UnprojectedZip));
    }

    #[test]
    fn rank_mismatch_detected() {
        let mut p = PlacePath::new("m", ExecExpr::cpu_thread());
        p.push(PathStep::Index(Nat::lit(0)));
        let err = lower_scalar_access(&p, &[Nat::lit(8), Nat::lit(8)]).unwrap_err();
        assert!(matches!(
            err,
            LowerError::NotScalar {
                collected: 1,
                required: 2
            }
        ));
    }

    #[test]
    fn unprojected_split_rejected() {
        let mut p = PlacePath::new("m", ExecExpr::cpu_thread());
        p.steps
            .push(PathStep::View(ViewStep::SplitAt { pos: Nat::lit(4) }));
        p.push(PathStep::Index(Nat::lit(0)));
        let err = lower_scalar_access(&p, &[Nat::lit(8)]).unwrap_err();
        assert!(matches!(err, LowerError::UnprojectedSplit));
    }

    #[test]
    fn constant_folding_in_idx() {
        let e = IdxExpr::add(
            IdxExpr::mul(IdxExpr::Const(3), IdxExpr::Const(4)),
            IdxExpr::Const(5),
        );
        assert_eq!(e, IdxExpr::Const(17));
        assert_eq!(
            IdxExpr::mul(IdxExpr::Const(0), IdxExpr::Var("x".into())),
            IdxExpr::Const(0)
        );
        assert_eq!(
            IdxExpr::add(IdxExpr::Const(0), IdxExpr::Var("x".into())),
            IdxExpr::Var("x".into())
        );
    }

    /// Binding folds constants as the lowering does, but a constant
    /// subtraction that would underflow (an index out of bounds in
    /// some iteration) stays a subtraction instead of panicking.
    #[test]
    fn bind_folds_and_never_underflows() {
        let i = || IdxExpr::Var("i".into());
        let e = IdxExpr::Sub(Box::new(IdxExpr::Const(7)), Box::new(i()));
        assert_eq!(e.bind(&[("i", 3)]), IdxExpr::Const(4));
        assert_eq!(e.bind(&[("j", 3)]), e);
        let under = e.bind(&[("i", 9)]);
        assert_eq!(
            under,
            IdxExpr::Sub(Box::new(IdxExpr::Const(7)), Box::new(IdxExpr::Const(9)))
        );
        assert_eq!(
            simplify_idx(under),
            IdxExpr::Sub(Box::new(IdxExpr::Const(0)), Box::new(IdxExpr::Const(2)))
        );
    }

    #[test]
    fn deref_steps_are_transparent() {
        let t = thread_exec_1d(4);
        let mut p = PlacePath::new("r", ExecExpr::grid(Dim::x(1u64), Dim::x(4u64)));
        p.push(PathStep::Deref);
        p.push(select(&t, 1));
        let flat = lower_scalar_access(&p, &[Nat::lit(4)]).unwrap();
        assert_eq!(flat.eval(&|_, _| 2, &|_| None).unwrap(), 2);
    }
}
