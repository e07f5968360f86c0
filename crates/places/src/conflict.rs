//! Syntactic overlap and conflict analysis.
//!
//! This module implements the two GPU-specific legs of the paper's
//! `access_safety_check` (Section 4):
//!
//! 1. **Narrowing check** ([`narrowing_violation`]): a unique access by an
//!    execution resource must *select* once for every forall level
//!    introduced below the owner of the accessed memory — otherwise
//!    multiple sibling resources would gain overlapping unique access
//!    (the paper's Section 3.3 examples).
//! 2. **Access conflict check** ([`may_race`]): a new access must not
//!    conflict with a previously recorded access by a potentially
//!    concurrent execution resource. Places are compared syntactically:
//!    provably disjoint prefixes (distinct tuple projections, distinct
//!    literal indices, non-overlapping split parts) rule a conflict out;
//!    identical chains are safe precisely when their selects cover every
//!    forall level on which two distinct executors could disagree; any
//!    other shape is conservatively a conflict — exactly the reasoning
//!    that rejects the paper's `arr[[thread]] = arr.rev[[thread]]`.
//!
//! An access recorded once for every iteration of the for-nat loops that
//! the checker checks symbolically carries [`SymSteps`]: each of its
//! symbolic index steps reads a whole interval of values, one step per
//! loop variable. At such a step a pair of accesses is `Equal` when some
//! admissible pair of iterations makes the two indices equal and
//! `Disjoint` otherwise. The loops' iterations form a product of
//! intervals, so the steps constrain independent choices and this is
//! exactly the union of the verdicts of the per-iteration copies
//! (`docs/DESIGN.md` §11).

use crate::path::{PathStep, PlacePath};
use crate::view::{windows_overlap, ViewStep};
use descend_ast::{Nat, Span};
use descend_exec::{ExecBase, ExecExpr, ForallLevel, Side, Space};
use std::fmt;

/// Whether an access reads or writes (mirrors shared/unique borrows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Shared (read) access.
    Shrd,
    /// Unique (write) access.
    Uniq,
    /// Atomic read-modify-write access. Like `Uniq` it mutates, but the
    /// hardware serializes concurrent atomics to one location, so two
    /// atomic accesses never race with *each other* — they are exempt
    /// from narrowing and from atomic–atomic conflicts, while
    /// atomic–plain pairs still conflict.
    Atomic,
}

impl fmt::Display for AccessMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessMode::Shrd => write!(f, "shrd"),
            AccessMode::Uniq => write!(f, "uniq"),
            AccessMode::Atomic => write!(f, "atomic"),
        }
    }
}

/// A recorded memory access: the paper's access environment `A` maps
/// execution resources to sets of these.
#[derive(Clone, Debug)]
pub struct Access {
    /// The accessed place.
    pub path: PlacePath,
    /// Read or write.
    pub mode: AccessMode,
    /// The execution resource performing the access.
    pub exec: ExecExpr,
    /// Source location, for diagnostics.
    pub span: Span,
    /// The symbolic loop indices of `path`, if the access stands for
    /// every iteration of the loops checked once around it.
    pub sym: SymSteps,
}

/// A symbolic loop index: the step at `step` of an access path is
/// `Index(var + c)` for the variable `var` of a for-nat loop checked
/// once, so it reads every value in `lo..hi` (the loop's range shifted
/// by `c`), one per iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SymIndex {
    /// Position of the index step in the path.
    pub step: usize,
    /// Smallest value the index reads.
    pub lo: u64,
    /// One past the largest value the index reads.
    pub hi: u64,
}

/// The symbolic loop indices of an access path, in path order, each
/// through a distinct loop variable. One index is kept inline: an access
/// is recorded for every statement, and few have two.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum SymSteps {
    /// No symbolic index.
    #[default]
    None,
    /// One symbolic index.
    One(SymIndex),
    /// Two or more, in path order.
    Many(Vec<SymIndex>),
}

impl SymSteps {
    /// The indices, in path order.
    pub fn as_slice(&self) -> &[SymIndex] {
        match self {
            SymSteps::None => &[],
            SymSteps::One(s) => std::slice::from_ref(s),
            SymSteps::Many(v) => v,
        }
    }

    /// Appends an index at a later step than any present.
    pub fn push(&mut self, s: SymIndex) {
        *self = match std::mem::take(self) {
            SymSteps::None => SymSteps::One(s),
            SymSteps::One(first) => SymSteps::Many(vec![first, s]),
            SymSteps::Many(mut v) => {
                v.push(s);
                SymSteps::Many(v)
            }
        };
    }

    /// The symbolic index at step `i`, if the step is one.
    fn at(&self, i: usize) -> Option<SymIndex> {
        self.as_slice().iter().copied().find(|s| s.step == i)
    }
}

/// Result of a narrowing check: the forall levels that the access fails
/// to select for.
#[derive(Clone, Debug, PartialEq)]
pub struct MissingLevels {
    /// Uncovered levels (in scheduling order).
    pub missing: Vec<ForallLevel>,
}

/// Checks the narrowing rule for a unique access: every forall level of
/// `exec` beyond the owner of the place's root must be covered by a
/// select in the path.
///
/// Returns `None` if narrowing is satisfied, or the uncovered levels.
/// Shared accesses never violate narrowing (reads may be replicated).
pub fn narrowing_violation(
    path: &PlacePath,
    mode: AccessMode,
    exec: &ExecExpr,
) -> Option<MissingLevels> {
    // Shared accesses may be replicated; atomic accesses are the typed
    // escape hatch from narrowing — the hardware serializes them.
    if mode != AccessMode::Uniq {
        return None;
    }
    let levels = exec.levels_beyond(&path.owner)?;
    let missing: Vec<ForallLevel> = levels
        .into_iter()
        .filter(|lvl| {
            // A level with extent 1 has a single sub-resource; no
            // distribution is needed.
            if lvl.extent.as_lit() == Some(1) {
                return false;
            }
            !path.selects().any(|sel| {
                sel.level_index == lvl.op_index && sel.exec.same_prefix(exec, lvl.op_index)
            })
        })
        .collect();
    if missing.is_empty() {
        None
    } else {
        Some(MissingLevels { missing })
    }
}

/// Outcome of comparing two steps during the pairwise walk.
enum StepCmp {
    /// Steps denote the same index transformation; continue walking.
    Equal,
    /// The regions reached through these steps are provably disjoint.
    Disjoint,
    /// Nothing can be concluded; conservatively overlapping.
    Unknown,
}

fn compare_steps(a: &PathStep, b: &PathStep) -> StepCmp {
    match (a, b) {
        (PathStep::Deref, PathStep::Deref) => StepCmp::Equal,
        (PathStep::Proj(i), PathStep::Proj(j)) => {
            if i == j {
                StepCmp::Equal
            } else {
                StepCmp::Disjoint
            }
        }
        (PathStep::Index(n1), PathStep::Index(n2)) => {
            if n1.equal(n2) {
                StepCmp::Equal
            } else if let (Some(a), Some(b)) = (n1.as_lit(), n2.as_lit()) {
                debug_assert_ne!(a, b, "equal literals are nat-equal");
                StepCmp::Disjoint
            } else {
                StepCmp::Unknown
            }
        }
        (PathStep::Select(s1), PathStep::Select(s2)) => {
            if s1.same_level(s2) {
                StepCmp::Equal
            } else {
                StepCmp::Unknown
            }
        }
        (PathStep::View(v1), PathStep::View(v2)) => compare_views(v1, v2),
        _ => StepCmp::Unknown,
    }
}

fn compare_views(a: &ViewStep, b: &ViewStep) -> StepCmp {
    match (a, b) {
        (ViewStep::SplitPart { pos: p1, side: s1 }, ViewStep::SplitPart { pos: p2, side: s2 }) => {
            if p1.equal(p2) && s1 == s2 {
                return StepCmp::Equal;
            }
            // fst covers [0, p1), snd covers [p2, n): disjoint iff the fst
            // bound does not exceed the snd bound.
            let disjoint = match (s1, s2) {
                (Side::Fst, Side::Snd) => {
                    p1.equal(p2)
                        || matches!((p1.as_lit(), p2.as_lit()), (Some(x), Some(y)) if x <= y)
                }
                (Side::Snd, Side::Fst) => {
                    p1.equal(p2)
                        || matches!((p1.as_lit(), p2.as_lit()), (Some(x), Some(y)) if y <= x)
                }
                _ => false,
            };
            if disjoint {
                StepCmp::Disjoint
            } else {
                StepCmp::Unknown
            }
        }
        (ViewStep::Windows { w: w1, s: s1 }, ViewStep::Windows { w: w2, s: s2 }) => {
            if !(w1.equal(w2) && s1.equal(s2)) {
                return StepCmp::Unknown;
            }
            // Same windows view. With a non-overlapping stride (s >= w)
            // the windows partition the array like `group` and the later
            // indices/selects decide disjointness. With s < w, distinct
            // window indices alias underlying elements, so nothing past
            // this step can prove disjointness: overlapping reads are
            // fine (the Shrd–Shrd early return never reaches this walk),
            // while any write through an overlapping window conflicts.
            if windows_overlap(w1, s1) {
                StepCmp::Unknown
            } else {
                StepCmp::Equal
            }
        }
        _ => {
            if a.same(b) {
                // `same` is necessary but not sufficient: a view that
                // *contains* an overlapping windows step (e.g.
                // `map(windows::<3, 1>)`) aliases across executors just
                // like a top-level one, so indices past it can prove
                // nothing disjoint.
                if contains_overlapping_windows(a) {
                    StepCmp::Unknown
                } else {
                    StepCmp::Equal
                }
            } else {
                StepCmp::Unknown
            }
        }
    }
}

/// Whether a view step is, or contains (under `map`), an overlapping
/// windows step. Such a step breaks the "equal steps ⇒ later indices
/// decide disjointness" reasoning at any nesting depth.
fn contains_overlapping_windows(v: &ViewStep) -> bool {
    match v {
        ViewStep::Windows { w, s } => windows_overlap(w, s),
        ViewStep::Map(inner) => inner.iter().any(contains_overlapping_windows),
        _ => false,
    }
}

/// The smallest and largest value an index step reads: those of the
/// symbolic range, or the value of a literal; `None` for any other nat
/// (the scatter sentinel).
fn index_values(sym: Option<SymIndex>, n: &Nat) -> Option<(u64, u64)> {
    match (sym, n) {
        (Some(s), _) => Some((s.lo, s.hi - 1)),
        (None, Nat::Lit(v)) => Some((*v, *v)),
        (None, n) => n.as_lit().map(|v| (v, v)),
    }
}

/// Compares step `i` of two chains, one of which may be a symbolic
/// index (`a_sym`/`b_sym`, already filtered to this step). `repeats`
/// is set when both chains are the same access compared with its own
/// other iterations: whether two distinct iterations that read the same
/// values at every earlier step can read the same value at this one.
fn compare_at(
    (sa, a_sym): (&PathStep, Option<SymIndex>),
    (sb, b_sym): (&PathStep, Option<SymIndex>),
    repeats: Option<bool>,
) -> StepCmp {
    let (PathStep::Index(n1), PathStep::Index(n2)) = (sa, sb) else {
        return compare_steps(sa, sb);
    };
    if a_sym.is_none() && b_sym.is_none() {
        return compare_steps(sa, sb);
    }
    if let Some(repeats) = repeats {
        return if repeats {
            StepCmp::Equal
        } else {
            StepCmp::Disjoint
        };
    }
    match (index_values(a_sym, n1), index_values(b_sym, n2)) {
        (Some((lo1, last1)), Some((lo2, last2))) if lo1 <= last2 && lo2 <= last1 => StepCmp::Equal,
        (Some(_), Some(_)) => StepCmp::Disjoint,
        _ => StepCmp::Unknown,
    }
}

/// The pairwise walk of two step chains over their common length: the
/// first step that is `Disjoint` or `Unknown`, or `Equal` if every
/// common step is. With `repeats` (an access against its own other
/// iterations, see [`may_race_repeated`]) and no repeating index, two
/// distinct iterations that agree at every symbolic step but the last
/// differ at the last: the walk of such a pair is the longest.
fn walk(
    (a, a_sym): (&[PathStep], &SymSteps),
    (b, b_sym): (&[PathStep], &SymSteps),
    repeats: Option<bool>,
) -> StepCmp {
    let last = a_sym.as_slice().last().map(|s| s.step);
    for (i, (sa, sb)) in a.iter().zip(b).enumerate() {
        let repeats = repeats.map(|r| r || last != Some(i));
        match compare_at((sa, a_sym.at(i)), (sb, b_sym.at(i)), repeats) {
            StepCmp::Equal => {}
            decided => return decided,
        }
    }
    StepCmp::Equal
}

/// Whether two place paths may refer to overlapping memory regions,
/// independent of which executors access them. Used for sequential
/// (same-thread) borrow checking on the CPU side, and for accesses
/// against live borrows; `b_sym` are `b`'s symbolic loop indices.
///
/// Conservative: `false` means provably disjoint.
pub fn may_overlap(a: &PlacePath, b: &PlacePath, b_sym: &SymSteps) -> bool {
    if a.root != b.root {
        return false;
    }
    !matches!(
        walk((&a.steps, &SymSteps::None), (&b.steps, b_sym), None),
        StepCmp::Disjoint
    )
}

/// Whether two accesses can constitute a data race: two *distinct*
/// executors touching a common address, at least one writing.
///
/// The check is conservative (sound): `false` means provably race-free.
pub fn may_race(a: &Access, b: &Access) -> bool {
    race(a, b, None)
}

/// Whether an access recorded once for every iteration of the symbolic
/// loops around it races with itself in another iteration. Two distinct
/// iterations can read the same values at all its symbolic indices
/// exactly when `index_repeats`: when some symbolic loop around it has
/// no index in the path. Otherwise they differ at some index, and the
/// pairs that differ only at the last one walk furthest.
pub fn may_race_repeated(a: &Access, index_repeats: bool) -> bool {
    race(a, a, Some(index_repeats))
}

fn race(a: &Access, b: &Access, repeats: Option<bool>) -> bool {
    if a.mode == AccessMode::Shrd && b.mode == AccessMode::Shrd {
        return false;
    }
    // Atomic–atomic pairs never race: the hardware serializes them at
    // each location (this is what makes atomics the only way to write a
    // place concurrently). Atomic–plain pairs fall through to the walk.
    if a.mode == AccessMode::Atomic && b.mode == AccessMode::Atomic {
        return false;
    }
    // Distinct roots are distinct allocations.
    if a.path.root != b.path.root {
        return false;
    }
    // A single CPU thread executes sequentially.
    if matches!(a.exec.base, ExecBase::CpuThread) && matches!(b.exec.base, ExecBase::CpuThread) {
        return false;
    }
    // Pairwise step walk.
    match walk((&a.path.steps, &a.sym), (&b.path.steps, &b.sym), repeats) {
        StepCmp::Disjoint => return false,
        StepCmp::Unknown => return true,
        StepCmp::Equal => {}
    }
    if a.path.steps.len() != b.path.steps.len() {
        // One region contains the other: the shorter access touches the
        // whole region for every executor. Distinct executors overlap
        // unless the remaining steps cannot matter — be conservative.
        return true;
    }
    // Identical chains: safe iff the selects cover every forall level on
    // which two distinct executors could disagree while sharing the root
    // instance, i.e. every level beyond the owner, in both exec contexts.
    if !a.exec.same(&b.exec) {
        // Same chain from different resources (e.g. both split branches
        // writing the same half): selects cannot distinguish executors
        // that disagree only on branch membership.
        return true;
    }
    let Some(levels) = a.exec.levels_beyond(&a.path.owner) else {
        // Owner is not a prefix (should not happen for well-scoped
        // programs); be conservative.
        return true;
    };
    let covered = |lvl: &ForallLevel| {
        if lvl.extent.as_lit() == Some(1) {
            return true;
        }
        a.path.selects().any(|sel| {
            sel.level_index == lvl.op_index && sel.exec.same_prefix(&a.exec, lvl.op_index)
        })
    };
    !levels.iter().all(covered)
}

/// Whether two potentially racing accesses are ordered by a block-wide
/// barrier between them: both must be confined to a single block
/// instance, i.e. their longest common equal step prefix contains a
/// select for every block-space forall level (levels of extent 1 need
/// none). Overlapping executors then necessarily share the block
/// coordinate, and the barrier synchronizes that block.
///
/// A symbolic index continues the prefix when some pair of iterations
/// reads equal values there. The pairs that read different values stop
/// their prefix at that step instead, so the answer holds for every pair
/// only when the prefix ending at every symbolic step gives the same
/// answer as the whole; `None` when one does not. A longer prefix only
/// adds selects, so it is enough to compare the first.
pub fn barrier_ordered(a: &Access, b: &Access) -> Option<bool> {
    let mut len = 0;
    let mut first_sym = None;
    for (i, (sa, sb)) in a.path.steps.iter().zip(&b.path.steps).enumerate() {
        let (a_sym, b_sym) = (a.sym.at(i), b.sym.at(i));
        let same = if a_sym.is_none() && b_sym.is_none() {
            sa.same(sb)
        } else {
            first_sym.get_or_insert(i);
            matches!(compare_at((sa, a_sym), (sb, b_sym), None), StepCmp::Equal)
        };
        if !same {
            break;
        }
        len = i + 1;
    }
    let ordered = |len: usize| {
        let prefix = &a.path.steps[..len];
        let confined = |exec: &ExecExpr| {
            exec.forall_levels()
                .into_iter()
                .filter(|l| l.space == Space::Block && l.extent.as_lit() != Some(1))
                .all(|l| {
                    prefix.iter().any(|s| {
                        matches!(s, PathStep::Select(sel)
                            if sel.level_index == l.op_index
                                && sel.exec.same_prefix(exec, l.op_index))
                    })
                })
        };
        confined(&a.exec) && confined(&b.exec)
    };
    let widest = ordered(len);
    match first_sym {
        Some(k) if k < len && widest && !ordered(k) => None,
        _ => Some(widest),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::SelectStep;
    use descend_ast::ty::{Dim, DimCompo};
    use descend_ast::Nat;

    fn setup_1d(blocks: u64, threads: u64) -> (ExecExpr, ExecExpr, ExecExpr) {
        let g = ExecExpr::grid(Dim::x(blocks), Dim::x(threads));
        let b = g.forall(DimCompo::X).unwrap();
        let t = b.forall(DimCompo::X).unwrap();
        (g, b, t)
    }

    fn sel(exec: &ExecExpr, level: usize) -> PathStep {
        PathStep::Select(SelectStep {
            exec: exec.clone(),
            level_index: level,
        })
    }

    fn access(path: PlacePath, mode: AccessMode, exec: &ExecExpr) -> Access {
        Access {
            path,
            mode,
            exec: exec.clone(),
            span: Span::DUMMY,
            sym: SymSteps::None,
        }
    }

    /// The paper's Section 2.2 example:
    /// `arr[[thread]] = arr.rev[[thread]]` must be flagged.
    #[test]
    fn rev_per_block_race_detected() {
        let (g, b, t) = setup_1d(4, 32);
        let _ = b;
        let mut write = PlacePath::new("arr", g.clone());
        write.push(PathStep::Deref);
        write.push(sel(&t, 0));
        write.push(sel(&t, 1));
        let mut read = PlacePath::new("arr", g.clone());
        read.push(PathStep::Deref);
        read.push(PathStep::View(ViewStep::Reverse { n: Nat::lit(32) }));
        read.push(sel(&t, 0));
        read.push(sel(&t, 1));
        let w = access(write, AccessMode::Uniq, &t);
        let r = access(read, AccessMode::Shrd, &t);
        assert!(may_race(&w, &r));
        assert!(may_race(&r, &w));
    }

    /// Identical fully-selected chains are race-free: each thread touches
    /// its own element.
    #[test]
    fn identical_distributed_chains_are_safe() {
        let (g, _, t) = setup_1d(4, 32);
        let mut p = PlacePath::new("arr", g.clone());
        p.push(PathStep::Deref);
        p.push(PathStep::View(ViewStep::Group { k: Nat::lit(32) }));
        p.push(sel(&t, 0));
        p.push(sel(&t, 1));
        let w = access(p.clone(), AccessMode::Uniq, &t);
        let r = access(p, AccessMode::Shrd, &t);
        assert!(!may_race(&w, &r));
        assert!(!may_race(&w, &w.clone()));
    }

    #[test]
    fn reads_never_race() {
        let (g, _, t) = setup_1d(1, 32);
        let mut a = PlacePath::new("arr", g.clone());
        a.push(PathStep::Deref);
        let mut b = PlacePath::new("arr", g.clone());
        b.push(PathStep::Deref);
        b.push(PathStep::View(ViewStep::Reverse { n: Nat::lit(32) }));
        let ra = access(a, AccessMode::Shrd, &t);
        let rb = access(b, AccessMode::Shrd, &t);
        assert!(!may_race(&ra, &rb));
    }

    #[test]
    fn different_roots_never_race() {
        let (g, _, t) = setup_1d(1, 32);
        let a = access(PlacePath::new("x", g.clone()), AccessMode::Uniq, &t);
        let b = access(PlacePath::new("y", g.clone()), AccessMode::Uniq, &t);
        assert!(!may_race(&a, &b));
    }

    #[test]
    fn literal_indices_disjoint() {
        let (g, _, t) = setup_1d(1, 32);
        let mut a = PlacePath::new("x", g.clone());
        a.push(PathStep::Index(Nat::lit(0)));
        let mut b = PlacePath::new("x", g.clone());
        b.push(PathStep::Index(Nat::lit(1)));
        let wa = access(a, AccessMode::Uniq, &t);
        let wb = access(b, AccessMode::Uniq, &t);
        assert!(!may_race(&wa, &wb));
    }

    #[test]
    fn split_halves_disjoint_but_same_half_races() {
        let (_g, b, _) = setup_1d(1, 64);
        let fst_branch = b.split(DimCompo::X, Nat::lit(32), Side::Fst).unwrap();
        let snd_branch = b.split(DimCompo::X, Nat::lit(32), Side::Snd).unwrap();
        let fst_t = fst_branch.forall(DimCompo::X).unwrap();
        let snd_t = snd_branch.forall(DimCompo::X).unwrap();
        // tmp owned by the block.
        let mk = |side: Side, texec: &ExecExpr| {
            let mut p = PlacePath::new("tmp", b.clone());
            p.push(PathStep::View(ViewStep::SplitPart {
                pos: Nat::lit(32),
                side,
            }));
            p.push(sel(texec, 2));
            access(p, AccessMode::Uniq, texec)
        };
        let w_fst = mk(Side::Fst, &fst_t);
        let w_snd = mk(Side::Snd, &snd_t);
        // Each branch writing its own half: fine.
        assert!(!may_race(&w_fst, &w_snd));
        // Both branches writing the SAME half: race.
        let w_snd_on_fst = mk(Side::Fst, &snd_t);
        assert!(may_race(&w_fst, &w_snd_on_fst));
    }

    /// The scan access pattern: the snd branch reads the shifted lower
    /// region while writing the upper region of a different buffer; the
    /// read of `src` overlaps the fst branch's read — both shared, fine —
    /// but a write to src from the other branch must conflict.
    #[test]
    fn overlapping_split_regions_conflict() {
        let (_g, b, _) = setup_1d(1, 64);
        let fst_t = b
            .split(DimCompo::X, Nat::lit(16), Side::Fst)
            .unwrap()
            .forall(DimCompo::X)
            .unwrap();
        let snd_t = b
            .split(DimCompo::X, Nat::lit(16), Side::Snd)
            .unwrap()
            .forall(DimCompo::X)
            .unwrap();
        // fst writes src.split::<32>.fst (region [0,32)) — 16 threads on a
        // 32-element region would fail select counts, but for the overlap
        // analysis we only care about regions here.
        let mut p1 = PlacePath::new("src", b.clone());
        p1.push(PathStep::View(ViewStep::SplitPart {
            pos: Nat::lit(32),
            side: Side::Fst,
        }));
        p1.push(sel(&fst_t, 2));
        // snd writes src.split::<16>.snd (region [16, 64)) — overlaps.
        let mut p2 = PlacePath::new("src", b.clone());
        p2.push(PathStep::View(ViewStep::SplitPart {
            pos: Nat::lit(16),
            side: Side::Snd,
        }));
        p2.push(sel(&snd_t, 2));
        let a1 = access(p1, AccessMode::Uniq, &fst_t);
        let a2 = access(p2, AccessMode::Uniq, &snd_t);
        assert!(may_race(&a1, &a2));
    }

    #[test]
    fn prefix_containment_races() {
        // Reading the whole array while threads write elements: race.
        let (g, _, t) = setup_1d(1, 32);
        let _ = &g;
        let mut whole = PlacePath::new("arr", g.clone());
        whole.push(PathStep::Deref);
        let mut eachw = PlacePath::new("arr", g.clone());
        eachw.push(PathStep::Deref);
        eachw.push(sel(&t, 0));
        eachw.push(sel(&t, 1));
        let r = access(whole, AccessMode::Shrd, &t);
        let w = access(eachw, AccessMode::Uniq, &t);
        assert!(may_race(&r, &w));
    }

    #[test]
    fn cpu_accesses_are_sequential() {
        let cpu = ExecExpr::cpu_thread();
        let p = PlacePath::new("v", cpu.clone());
        let a = access(p.clone(), AccessMode::Uniq, &cpu);
        let b = access(p, AccessMode::Shrd, &cpu);
        assert!(!may_race(&a, &b));
    }

    /// Narrowing: the paper's Section 3.3 listing.
    #[test]
    fn narrowing_violations_from_paper() {
        let (g, b, t) = setup_1d(32, 32);
        // Line 4: `&uniq *arr` at block level — no selects at all.
        let mut p4 = PlacePath::new("arr", g.clone());
        p4.push(PathStep::Deref);
        let v = narrowing_violation(&p4, AccessMode::Uniq, &b).unwrap();
        assert_eq!(v.missing.len(), 1);
        // Line 6: `&uniq arr.group::<32>[[thread]]` — thread select only,
        // block level uncovered.
        let mut p6 = PlacePath::new("arr", g.clone());
        p6.push(PathStep::Deref);
        p6.push(PathStep::View(ViewStep::Group { k: Nat::lit(32) }));
        p6.push(sel(&t, 1));
        let v = narrowing_violation(&p6, AccessMode::Uniq, &t).unwrap();
        assert_eq!(v.missing.len(), 1);
        assert_eq!(v.missing[0].op_index, 0);
        // Line 8: `arr.group::<32>[[block]][[thread]]` — correct.
        let mut p8 = PlacePath::new("arr", g.clone());
        p8.push(PathStep::Deref);
        p8.push(PathStep::View(ViewStep::Group { k: Nat::lit(32) }));
        p8.push(sel(&t, 0));
        p8.push(sel(&t, 1));
        assert!(narrowing_violation(&p8, AccessMode::Uniq, &t).is_none());
    }

    #[test]
    fn narrowing_ignores_shared_access() {
        let (g, _, t) = setup_1d(32, 32);
        let mut p = PlacePath::new("arr", g.clone());
        p.push(PathStep::Deref);
        assert!(narrowing_violation(&p, AccessMode::Shrd, &t).is_none());
    }

    #[test]
    fn narrowing_skips_unit_extent_levels() {
        // A grid with a single block: the block level has extent 1 and
        // needs no distribution.
        let (g, _, t) = setup_1d(1, 32);
        let mut p = PlacePath::new("arr", g.clone());
        p.push(PathStep::Deref);
        p.push(sel(&t, 1));
        assert!(narrowing_violation(&p, AccessMode::Uniq, &t).is_none());
    }

    /// Atomic RMWs to one un-narrowed place never conflict with each
    /// other, but do conflict with plain reads and writes of the same
    /// place — the accept/reject boundary of the atomics feature.
    #[test]
    fn atomic_pairs_are_safe_plain_pairs_race() {
        let (g, _, t) = setup_1d(2, 32);
        let mut p = PlacePath::new("hist", g.clone());
        p.push(PathStep::Deref);
        p.push(PathStep::Index(Nat::var("__atomic_idx")));
        let at1 = access(p.clone(), AccessMode::Atomic, &t);
        let at2 = access(p.clone(), AccessMode::Atomic, &t);
        assert!(!may_race(&at1, &at2), "atomic-atomic is serialized");
        let rd = access(p.clone(), AccessMode::Shrd, &t);
        assert!(may_race(&at1, &rd), "atomic-read conflicts");
        let wr = access(p, AccessMode::Uniq, &t);
        assert!(may_race(&at1, &wr), "atomic-write conflicts");
    }

    /// Atomics to an un-narrowed place pass the narrowing check that a
    /// plain unique access fails.
    #[test]
    fn atomic_access_skips_narrowing() {
        let (g, _, t) = setup_1d(2, 32);
        let mut p = PlacePath::new("hist", g.clone());
        p.push(PathStep::Deref);
        assert!(narrowing_violation(&p, AccessMode::Uniq, &t).is_some());
        assert!(narrowing_violation(&p, AccessMode::Atomic, &t).is_none());
    }

    /// Warp/lane levels participate in narrowing exactly like
    /// block/thread levels: a lane-selected write under `to_warps` is
    /// narrowed, an unselected one is not.
    #[test]
    fn warp_lane_levels_count_for_narrowing() {
        let g = ExecExpr::grid(Dim::x(1u64), Dim::x(64u64));
        let b = g.forall(DimCompo::X).unwrap();
        let lanes = b
            .to_warps()
            .unwrap()
            .forall(DimCompo::X)
            .unwrap()
            .forall(DimCompo::X)
            .unwrap();
        // tmp owned by the block; both warp and lane levels must be
        // covered (warp extent 2, lane extent 32).
        let mut p = PlacePath::new("tmp", b.clone());
        p.push(sel(&lanes, 2)); // warp forall is ops[2] (after to_warps)
        p.push(sel(&lanes, 3)); // lane forall
        assert!(narrowing_violation(&p, AccessMode::Uniq, &lanes).is_none());
        // Lane select only: the warp level is uncovered.
        let mut p2 = PlacePath::new("tmp", b.clone());
        p2.push(sel(&lanes, 3));
        let v = narrowing_violation(&p2, AccessMode::Uniq, &lanes).unwrap();
        assert_eq!(v.missing.len(), 1);
        assert_eq!(v.missing[0].space, descend_exec::Space::Warp);
    }

    /// Under a warp-space split at 1, the warp level has extent 1 and a
    /// lane select alone narrows — the shape the warp-shuffle reduction
    /// epilogue uses.
    #[test]
    fn single_warp_branch_needs_only_lane_select() {
        let g = ExecExpr::grid(Dim::x(1u64), Dim::x(64u64));
        let b = g.forall(DimCompo::X).unwrap();
        let lanes = b
            .to_warps()
            .unwrap()
            .split(DimCompo::X, Nat::lit(1), Side::Fst)
            .unwrap()
            .forall(DimCompo::X)
            .unwrap()
            .forall(DimCompo::X)
            .unwrap();
        let mut p = PlacePath::new("tmp", b.clone());
        p.push(sel(&lanes, 4)); // the lane forall
        assert!(narrowing_violation(&p, AccessMode::Uniq, &lanes).is_none());
        let w = access(p, AccessMode::Uniq, &lanes);
        assert!(!may_race(&w, &w.clone()));
    }

    /// The window-overlap rule: reads through overlapping windows are
    /// fine, a write through an overlapping window conflicts even when
    /// fully selected — distinct executors' windows share elements.
    #[test]
    fn overlapping_window_writes_race_reads_do_not() {
        let (g, _, t) = setup_1d(1, 32);
        let mk = |s: u64| {
            let mut p = PlacePath::new("arr", g.clone());
            p.push(PathStep::Deref);
            p.push(PathStep::View(ViewStep::Windows {
                w: Nat::lit(3),
                s: Nat::lit(s),
            }));
            p.push(sel(&t, 0));
            p.push(sel(&t, 1));
            p
        };
        // Overlapping (stride 1 < width 3): write conflicts with itself
        // across executors and with any read of the same view.
        let w = access(mk(1), AccessMode::Uniq, &t);
        let r = access(mk(1), AccessMode::Shrd, &t);
        assert!(may_race(&w, &w.clone()), "overlapping window write races");
        assert!(may_race(&w, &r), "overlapping write vs read races");
        assert!(!may_race(&r, &r.clone()), "overlapping reads never race");
        // Non-overlapping (stride == width): behaves like `group`.
        let w = access(mk(3), AccessMode::Uniq, &t);
        assert!(!may_race(&w, &w.clone()), "tiling windows are disjoint");
    }

    /// The overlap rule reaches through `map`: writing via
    /// `map(windows::<3, 1>)` aliases across executors exactly like the
    /// top-level form and must conflict (the un-mapped twin is pinned
    /// above); a mapped *tiling* window stays disjoint.
    #[test]
    fn mapped_overlapping_windows_still_race() {
        let (g, _, t) = setup_1d(1, 32);
        let mk = |s: u64, k: u64| {
            let mut p = PlacePath::new("arr", g.clone());
            p.push(PathStep::Deref);
            p.push(PathStep::View(ViewStep::Map(vec![ViewStep::Windows {
                w: Nat::lit(3),
                s: Nat::lit(s),
            }])));
            p.push(sel(&t, 0));
            p.push(sel(&t, 1));
            p.push(PathStep::Index(Nat::lit(k)));
            p
        };
        let w = access(mk(1, 1), AccessMode::Uniq, &t);
        let r0 = access(mk(1, 0), AccessMode::Shrd, &t);
        assert!(
            may_race(&w, &r0),
            "map(windows) write vs offset read must race"
        );
        assert!(may_race(&w, &w.clone()), "map(windows) write self-races");
        // Tiling stride: literal offsets within disjoint windows are
        // provably disjoint, as without the map.
        let w = access(mk(3, 1), AccessMode::Uniq, &t);
        let r0 = access(mk(3, 0), AccessMode::Shrd, &t);
        assert!(!may_race(&w, &r0), "mapped tiling windows stay disjoint");
    }

    /// Within one window view, literal window indices decide nothing
    /// when the stride overlaps, but a *different* windows view is
    /// always conservatively overlapping.
    #[test]
    fn window_views_with_different_params_are_unknown() {
        let (g, _, t) = setup_1d(1, 32);
        let mk = |w: u64, s: u64| {
            let mut p = PlacePath::new("arr", g.clone());
            p.push(PathStep::View(ViewStep::Windows {
                w: Nat::lit(w),
                s: Nat::lit(s),
            }));
            p.push(sel(&t, 0));
            p.push(sel(&t, 1));
            access(p, AccessMode::Uniq, &t)
        };
        assert!(may_race(&mk(3, 3), &mk(2, 2)));
    }

    fn sym(mut access: Access, step: usize, lo: u64, hi: u64) -> Access {
        access.sym.push(SymIndex { step, lo, hi });
        access
    }

    /// `tmp[x][[thread]]` written and `tmp[y].rev[[thread]]` read: the
    /// paths agree up to the index and diverge after it, so they race
    /// exactly when the two indices can meet. A symbolic index reads its
    /// whole interval.
    #[test]
    fn symbolic_indices_race_iff_their_intervals_meet() {
        let (_, b, t) = setup_1d(1, 32);
        let path = |n: Nat, rev: bool| {
            let mut p = PlacePath::new("tmp", b.clone());
            p.push(PathStep::Index(n));
            if rev {
                p.push(PathStep::View(ViewStep::Reverse { n: Nat::lit(32) }));
            }
            p.push(sel(&t, 1));
            p
        };
        let write = sym(
            access(path(Nat::var("i"), false), AccessMode::Uniq, &t),
            0,
            0,
            4,
        );
        let read = |n: Nat| access(path(n, true), AccessMode::Shrd, &t);
        assert!(may_race(&write, &read(Nat::lit(3))));
        assert!(!may_race(&write, &read(Nat::lit(4))));
        assert!(may_race(&read(Nat::lit(0)), &write), "symmetric");
        let shifted = |lo: u64| sym(read(Nat::var("j") + Nat::lit(lo)), 0, lo, lo + 4);
        assert!(may_race(&write, &shifted(3)));
        assert!(!may_race(&write, &shifted(4)));
        // The scatter index could be anything.
        assert!(may_race(&write, &read(Nat::var(crate::DYN_IDX))));
    }

    /// An access standing for every iteration of its loop, against its
    /// own other iterations: its symbolic index never repeats within one
    /// loop, but does when another symbolic loop encloses it; an access
    /// with no symbolic index touches the same place every iteration.
    #[test]
    fn repeated_access_repeats_its_index_only_under_another_loop() {
        let (_, b, t) = setup_1d(1, 32);
        // `tmp[i]` without a select: every thread writes the element.
        let mut p = PlacePath::new("tmp", b.clone());
        p.push(PathStep::Index(Nat::var("i")));
        let each = sym(access(p, AccessMode::Uniq, &t), 0, 0, 4);
        assert!(!may_race_repeated(&each, false));
        assert!(may_race_repeated(&each, true));
        let same = access(PlacePath::new("tmp", b.clone()), AccessMode::Uniq, &t);
        assert!(may_race_repeated(&same, false));
        let mut selected = PlacePath::new("tmp", b);
        selected.push(sel(&t, 1));
        let own = access(selected, AccessMode::Uniq, &t);
        assert!(!may_race_repeated(&own, true));
    }

    /// A barrier orders two accesses confined to one block. A symbolic
    /// index ahead of the block select leaves that open: the iterations
    /// whose indices differ stop their common prefix before the select.
    #[test]
    fn barrier_ordering_through_a_symbolic_index() {
        let (g, _, t) = setup_1d(4, 32);
        let path = |index_first: bool, n: Nat| {
            let mut p = PlacePath::new("arr", g.clone());
            p.push(PathStep::Deref);
            if index_first {
                p.push(PathStep::Index(n.clone()));
            }
            p.push(sel(&t, 0));
            if !index_first {
                p.push(PathStep::Index(n));
            }
            p.push(sel(&t, 1));
            p
        };
        for (index_first, step) in [(true, 1), (false, 2)] {
            let w = sym(
                access(path(index_first, Nat::var("i")), AccessMode::Uniq, &t),
                step,
                0,
                4,
            );
            let r = |v: u64| access(path(index_first, Nat::lit(v)), AccessMode::Shrd, &t);
            let expected = if index_first { None } else { Some(true) };
            assert_eq!(barrier_ordered(&w, &r(2)), expected);
            assert_eq!(barrier_ordered(&r(2), &r(2)), Some(true));
            // No iteration reads 7: the prefix stops at the index.
            assert_eq!(barrier_ordered(&w, &r(7)), Some(!index_first));
        }
    }

    /// `tmp[x][y][[thread]]` written and `tmp[x'][y'].rev[[thread]]`
    /// read, the indices through two loop variables: the iterations form
    /// a product of intervals, so the pair races exactly when the
    /// intervals meet at both steps.
    #[test]
    fn two_symbolic_indices_race_iff_both_intervals_meet() {
        let (_, b, t) = setup_1d(1, 32);
        let path = |x: Nat, y: Nat, rev: bool| {
            let mut p = PlacePath::new("tmp", b.clone());
            p.push(PathStep::Index(x));
            p.push(PathStep::Index(y));
            if rev {
                p.push(PathStep::View(ViewStep::Reverse { n: Nat::lit(32) }));
            }
            p.push(sel(&t, 1));
            p
        };
        let (i, j) = (Nat::var("i"), Nat::var("j"));
        let write = |(ilo, ihi), (jlo, jhi)| {
            let w = access(path(i.clone(), j.clone(), false), AccessMode::Uniq, &t);
            sym(sym(w, 0, ilo, ihi), 1, jlo, jhi)
        };
        let read =
            |x: u64, y: u64| access(path(Nat::lit(x), Nat::lit(y), true), AccessMode::Shrd, &t);
        let w = write((0, 4), (2, 6));
        assert_eq!(w.sym.as_slice().len(), 2);
        assert!(may_race(&w, &read(3, 2)));
        assert!(!may_race(&w, &read(4, 2)), "the first interval misses");
        assert!(!may_race(&w, &read(3, 6)), "the second interval misses");
        // Both sides symbolic, in swapped roles: `[j][i]` against `[i][j]`.
        let r = sym(
            sym(
                access(path(j.clone(), i.clone(), true), AccessMode::Shrd, &t),
                0,
                4,
                8,
            ),
            1,
            0,
            2,
        );
        assert!(!may_race(&w, &r));
        assert!(may_race(&write((0, 5), (0, 6)), &r));
    }

    /// An access through two loop variables against its own other
    /// iterations: two distinct iterations differ at some index, and the
    /// pairs that agree at the first walk on to the second; with a third
    /// loop that indexes nothing, some pairs agree everywhere.
    #[test]
    fn a_repeated_access_differs_at_its_last_symbolic_index() {
        let (_, b, t) = setup_1d(1, 32);
        let each = |windows: bool| {
            let mut p = PlacePath::new("tmp", b.clone());
            p.push(PathStep::Index(Nat::var("i")));
            if windows {
                p.push(PathStep::View(ViewStep::Windows {
                    w: Nat::lit(3),
                    s: Nat::lit(1),
                }));
            }
            p.push(PathStep::Index(Nat::var("j")));
            let last = p.steps.len() - 1;
            sym(sym(access(p, AccessMode::Uniq, &t), 0, 0, 4), last, 0, 4)
        };
        assert!(!may_race_repeated(&each(false), false));
        assert!(may_race_repeated(&each(false), true));
        // The iterations that agree at `i` reach the overlapping windows.
        assert!(may_race_repeated(&each(true), false));
    }

    /// With two symbolic steps the barrier answer must hold for the
    /// prefixes cut at each: an index ahead of the block select leaves it
    /// open, indices after it do not.
    #[test]
    fn barrier_ordering_through_two_symbolic_indices() {
        let (g, _, t) = setup_1d(4, 32);
        let path = |index_first: bool, x: Nat, y: Nat| {
            let mut p = PlacePath::new("arr", g.clone());
            p.push(PathStep::Deref);
            if index_first {
                p.push(PathStep::Index(x.clone()));
            }
            p.push(sel(&t, 0));
            if !index_first {
                p.push(PathStep::Index(x));
            }
            p.push(PathStep::Index(y));
            p.push(sel(&t, 1));
            p
        };
        for (index_first, steps) in [(true, (1, 3)), (false, (2, 3))] {
            let w = access(
                path(index_first, Nat::var("i"), Nat::var("j")),
                AccessMode::Uniq,
                &t,
            );
            let w = sym(sym(w, steps.0, 0, 4), steps.1, 0, 4);
            let r = access(
                path(index_first, Nat::lit(1), Nat::lit(2)),
                AccessMode::Shrd,
                &t,
            );
            let expected = if index_first { None } else { Some(true) };
            assert_eq!(barrier_ordered(&w, &r), expected);
        }
    }

    /// One symbolic index is kept inline; a second moves them to a `Vec`.
    #[test]
    fn sym_steps_keep_one_index_inline() {
        let mut s = SymSteps::None;
        assert!(s.as_slice().is_empty());
        let at = |step| SymIndex { step, lo: 0, hi: 2 };
        s.push(at(1));
        assert_eq!(s, SymSteps::One(at(1)));
        s.push(at(3));
        s.push(at(4));
        assert_eq!(s.as_slice(), [at(1), at(3), at(4)]);
        assert_eq!(s.at(3), Some(at(3)));
        assert_eq!(s.at(2), None);
    }

    /// A live borrow of `arr[5]` overlaps an access through `arr[i]`
    /// exactly when `i` reaches 5.
    #[test]
    fn borrows_overlap_symbolic_indices_by_interval() {
        let (g, _, _) = setup_1d(1, 32);
        let path = |n: Nat| {
            let mut p = PlacePath::new("arr", g.clone());
            p.push(PathStep::Index(n));
            p
        };
        let borrowed = path(Nat::lit(5));
        let each = path(Nat::var("i"));
        let at = |lo, hi| SymSteps::One(SymIndex { step: 0, lo, hi });
        assert!(!may_overlap(&borrowed, &each, &at(0, 5)));
        assert!(may_overlap(&borrowed, &each, &at(3, 8)));
    }

    #[test]
    fn narrowing_relative_to_owner() {
        // tmp owned by the block: only the thread level must be covered.
        let (_, b, t) = setup_1d(32, 32);
        let mut p = PlacePath::new("tmp", b.clone());
        p.push(sel(&t, 1));
        assert!(narrowing_violation(&p, AccessMode::Uniq, &t).is_none());
        // Without the select: violation.
        let p2 = PlacePath::new("tmp", b);
        let v = narrowing_violation(&p2, AccessMode::Uniq, &t).unwrap();
        assert_eq!(v.missing.len(), 1);
    }
}
