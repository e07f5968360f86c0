//! Execution resources: the algebra of grids, blocks and threads.
//!
//! This crate implements the paper's Figure 2: an execution resource is
//! either the CPU thread or the GPU grid refined by a sequence of
//! `.forall(dim)` (schedule over all sub-resources along a dimension) and
//! `.split(pos, dim).fst/.snd` (partition into two independent groups)
//! operations. Figure 1 of the paper visualizes exactly these shapes.
//!
//! Operations first refine *block space* (the arrangement of blocks in the
//! grid); once every declared block dimension has been scheduled, further
//! operations refine *thread space* (the threads within each block). The
//! type checker uses this algebra for:
//!
//! - tracking which resource executes each statement (`T-Sched`),
//! - the *narrowing* check: a unique access must select once for every
//!   [`ForallLevel`] introduced below the owner of the accessed memory,
//! - distinctness of split branches,
//! - the barrier legality rule (no `sync` under a thread-space split).
//!
//! ## Warps
//!
//! The paper's Figure 4/5 hierarchy has *four* levels: grid → blocks →
//! warps → lanes. The [`ExecOp::ToWarps`] refinement exposes the lower
//! two: applied to a block whose thread space is one-dimensional in `X`
//! with an extent divisible by [`WARP_SIZE`], it re-interprets the
//! threads as *warp space* (`extent / 32` warps) followed by *lane
//! space* (32 lanes per warp). Both behave like ordinary spaces:
//! `forall` schedules over them, `split` partitions them, selects
//! distribute memory over them, and the narrowing check counts their
//! levels. A lane-space split cuts through warps, which is what makes
//! shuffle intrinsics illegal under it (warp divergence).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use descend_ast::ty::{Dim, DimCompo, ExecTy};
use descend_ast::Nat;
use std::fmt;

/// Threads per warp. Fixed at the CUDA/P100 value; the simulator's
/// lockstep warp grouping and its cost model agree with this constant.
pub const WARP_SIZE: u64 = 32;

/// Which half of a split.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// The first part: coordinates `[0, pos)`.
    Fst,
    /// The second part: coordinates `[pos, extent)`.
    Snd,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Fst => write!(f, "fst"),
            Side::Snd => write!(f, "snd"),
        }
    }
}

/// A refinement operation on an execution resource.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecOp {
    /// `.forall(d)`: schedule over all sub-resources along dimension `d`.
    Forall(DimCompo),
    /// `.split(pos, d).side`: restrict to one part of a partition of
    /// dimension `d` at position `pos`.
    Split {
        /// Split dimension.
        dim: DimCompo,
        /// Split position.
        pos: Nat,
        /// Which part was selected.
        side: Side,
    },
    /// `.to_warps()`: re-interpret a 1-D `X` thread space (extent a
    /// multiple of [`WARP_SIZE`]) as warp space over lane space.
    ToWarps,
}

impl ExecOp {
    /// Structural equality up to nat normalization.
    pub fn same(&self, other: &ExecOp) -> bool {
        match (self, other) {
            (ExecOp::Forall(a), ExecOp::Forall(b)) => a == b,
            (
                ExecOp::Split {
                    dim: d1,
                    pos: p1,
                    side: s1,
                },
                ExecOp::Split {
                    dim: d2,
                    pos: p2,
                    side: s2,
                },
            ) => d1 == d2 && p1.equal(p2) && s1 == s2,
            (ExecOp::ToWarps, ExecOp::ToWarps) => true,
            _ => false,
        }
    }
}

/// The base of an execution resource.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecBase {
    /// A single CPU thread.
    CpuThread,
    /// A GPU grid with block arrangement `blocks` and per-block thread
    /// arrangement `threads`.
    GpuGrid {
        /// Shape of the block arrangement.
        blocks: Dim,
        /// Shape of the threads within each block.
        threads: Dim,
    },
}

/// The space an operation applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Space {
    /// The arrangement of blocks within the grid.
    Block,
    /// The arrangement of threads within a block.
    Thread,
    /// The arrangement of warps within a block (after [`ExecOp::ToWarps`]).
    Warp,
    /// The arrangement of lanes within a warp (after [`ExecOp::ToWarps`]).
    Lane,
}

impl Space {
    /// The lower-case noun used in diagnostics (`"block"`, `"thread"`,
    /// `"warp"`, `"lane"`).
    pub fn noun(self) -> &'static str {
        match self {
            Space::Block => "block",
            Space::Thread => "thread",
            Space::Warp => "warp",
            Space::Lane => "lane",
        }
    }
}

/// One `forall` level of an execution resource: scheduling over a
/// dimension with a known extent. Unique accesses must *select* once per
/// level introduced below the owner of the accessed memory (narrowing).
#[derive(Clone, Debug, PartialEq)]
pub struct ForallLevel {
    /// Index of the corresponding [`ExecOp::Forall`] in [`ExecExpr::ops`].
    pub op_index: usize,
    /// Whether the level schedules blocks or threads.
    pub space: Space,
    /// The scheduled dimension.
    pub dim: DimCompo,
    /// Number of sub-resources at this level (after narrowing splits).
    pub extent: Nat,
}

/// Errors from constructing execution resources.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// Scheduling or splitting a dimension the shape does not declare.
    MissingDim {
        /// The missing dimension.
        dim: DimCompo,
        /// The space in which it was missing.
        space: Space,
    },
    /// Scheduling a dimension that was already scheduled.
    AlreadyScheduled(DimCompo, Space),
    /// Refining a fully scheduled resource (a single thread).
    NothingToSchedule,
    /// Refining the CPU thread, which has no sub-resources.
    CpuHasNoHierarchy,
    /// A split position that provably exceeds the dimension extent.
    SplitOutOfRange {
        /// The requested position.
        pos: Nat,
        /// The available extent.
        extent: Nat,
    },
    /// `.to_warps()` applied where it is not legal: block space is not
    /// fully scheduled, the thread space is not 1-D in `X`, thread
    /// operations were already applied, or the extent is not a multiple
    /// of [`WARP_SIZE`].
    BadToWarps(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingDim { dim, space } => write!(
                f,
                "cannot schedule over dimension {dim}: the {} shape does not declare it",
                space.noun()
            ),
            ExecError::AlreadyScheduled(d, _) => {
                write!(f, "dimension {d} has already been scheduled")
            }
            ExecError::NothingToSchedule => {
                write!(
                    f,
                    "execution resource is a single thread; nothing to schedule"
                )
            }
            ExecError::CpuHasNoHierarchy => {
                write!(f, "cpu.thread has no execution hierarchy to schedule over")
            }
            ExecError::SplitOutOfRange { pos, extent } => {
                write!(f, "split position {pos} exceeds extent {extent}")
            }
            ExecError::BadToWarps(m) => write!(f, "cannot form warps: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// An execution resource: a base refined by a sequence of operations
/// (paper Figure 2).
///
/// # Examples
///
/// ```
/// use descend_ast::ty::{Dim, DimCompo};
/// use descend_exec::ExecExpr;
///
/// // Figure 1 of the paper: a grid of 2x2x1 blocks of 4x4x4 threads.
/// let grid = ExecExpr::grid(Dim::xyz(2u64, 2u64, 1u64), Dim::xyz(4u64, 4u64, 4u64));
/// let blocks = grid
///     .forall(DimCompo::X).unwrap()
///     .forall(DimCompo::Z).unwrap();
/// assert_eq!(blocks.forall_levels().len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ExecExpr {
    /// The base resource.
    pub base: ExecBase,
    /// Refinement operations, applied left to right.
    pub ops: Vec<ExecOp>,
}

/// The per-dimension scheduling state within one space.
#[derive(Clone, Debug, PartialEq)]
struct DimState {
    /// Remaining extent (narrowed by splits).
    extent: Nat,
    /// Consumed by a forall.
    scheduled: bool,
}

/// Scheduling state of all spaces, derived by replaying ops.
///
/// Before [`ExecOp::ToWarps`], the spaces are block then thread. After
/// it, the thread space is *replaced* by warp space over lane space
/// (`warped` is set and `thread` is drained).
#[derive(Clone, Debug, PartialEq)]
struct State {
    block: Vec<(DimCompo, DimState)>,
    thread: Vec<(DimCompo, DimState)>,
    warp: Vec<(DimCompo, DimState)>,
    lane: Vec<(DimCompo, DimState)>,
    warped: bool,
    /// Whether any op was applied in thread space (forbids a later
    /// `.to_warps()`, whose lane arithmetic assumes warp alignment).
    thread_touched: bool,
}

impl State {
    fn dims(&self, space: Space) -> &Vec<(DimCompo, DimState)> {
        match space {
            Space::Block => &self.block,
            Space::Thread => &self.thread,
            Space::Warp => &self.warp,
            Space::Lane => &self.lane,
        }
    }

    fn space_done(&self, space: Space) -> bool {
        self.dims(space).iter().all(|(_, s)| s.scheduled)
    }

    fn current_space(&self) -> Option<Space> {
        let order: &[Space] = if self.warped {
            &[Space::Block, Space::Warp, Space::Lane]
        } else {
            &[Space::Block, Space::Thread]
        };
        order.iter().copied().find(|s| !self.space_done(*s))
    }

    fn dim_state(&mut self, space: Space, dim: DimCompo) -> Option<&mut DimState> {
        let dims = match space {
            Space::Block => &mut self.block,
            Space::Thread => &mut self.thread,
            Space::Warp => &mut self.warp,
            Space::Lane => &mut self.lane,
        };
        dims.iter_mut().find(|(d, _)| *d == dim).map(|(_, s)| s)
    }
}

impl ExecExpr {
    /// The CPU thread resource.
    pub fn cpu_thread() -> ExecExpr {
        ExecExpr {
            base: ExecBase::CpuThread,
            ops: Vec::new(),
        }
    }

    /// A full GPU grid.
    pub fn grid(blocks: Dim, threads: Dim) -> ExecExpr {
        ExecExpr {
            base: ExecBase::GpuGrid { blocks, threads },
            ops: Vec::new(),
        }
    }

    /// Replays the operations to compute the scheduling state.
    ///
    /// Construction via [`ExecExpr::forall`]/[`ExecExpr::split`] validates
    /// each op, so replay cannot fail on values built through this API.
    fn state(&self) -> Result<State, ExecError> {
        let (bd, td) = match &self.base {
            ExecBase::CpuThread => {
                return if self.ops.is_empty() {
                    Ok(State {
                        block: Vec::new(),
                        thread: Vec::new(),
                        warp: Vec::new(),
                        lane: Vec::new(),
                        warped: false,
                        thread_touched: false,
                    })
                } else {
                    Err(ExecError::CpuHasNoHierarchy)
                };
            }
            ExecBase::GpuGrid { blocks, threads } => (blocks, threads),
        };
        let to_states = |d: &Dim| {
            d.components()
                .map(|(c, n)| {
                    (
                        c,
                        DimState {
                            extent: n.clone(),
                            scheduled: false,
                        },
                    )
                })
                .collect::<Vec<_>>()
        };
        let mut st = State {
            block: to_states(bd),
            thread: to_states(td),
            warp: Vec::new(),
            lane: Vec::new(),
            warped: false,
            thread_touched: false,
        };
        for op in &self.ops {
            if matches!(op, ExecOp::ToWarps) {
                apply_to_warps(&mut st)?;
                continue;
            }
            let space = st.current_space().ok_or(ExecError::NothingToSchedule)?;
            if space == Space::Thread {
                st.thread_touched = true;
            }
            match op {
                ExecOp::Forall(d) => {
                    let ds = st
                        .dim_state(space, *d)
                        .ok_or(ExecError::MissingDim { dim: *d, space })?;
                    if ds.scheduled {
                        return Err(ExecError::AlreadyScheduled(*d, space));
                    }
                    ds.scheduled = true;
                }
                ExecOp::Split { dim, pos, side } => {
                    let ds = st
                        .dim_state(space, *dim)
                        .ok_or(ExecError::MissingDim { dim: *dim, space })?;
                    if ds.scheduled {
                        return Err(ExecError::AlreadyScheduled(*dim, space));
                    }
                    if let (Some(p), Some(e)) = (pos.as_lit(), ds.extent.as_lit()) {
                        if p > e {
                            return Err(ExecError::SplitOutOfRange {
                                pos: pos.clone(),
                                extent: ds.extent.clone(),
                            });
                        }
                    }
                    ds.extent = match side {
                        Side::Fst => pos.clone(),
                        Side::Snd => ds.extent.clone() - pos.clone(),
                    };
                }
                ExecOp::ToWarps => unreachable!("handled before the space lookup"),
            }
        }
        Ok(st)
    }

    /// Calls `f` with each op's position, the op and the space it
    /// refines (`None` for `.to_warps()`, or past a fully scheduled
    /// resource): the spaces [`ExecExpr::current_space`] gives each op's
    /// prefix, from one replay that tracks only which dimensions are
    /// scheduled, so nothing is allocated. Index lowering derives every
    /// select's coordinate this way.
    pub fn for_each_op_space(&self, mut f: impl FnMut(usize, &ExecOp, Option<Space>)) {
        const SPACES: [Space; 4] = [Space::Block, Space::Thread, Space::Warp, Space::Lane];
        let bit = |d: DimCompo| 1u8 << d as u8;
        let open = |d: &Dim| d.components().fold(0, |m, (c, _)| m | bit(c));
        // Unscheduled dimensions per space, in `SPACES` order: block,
        // then thread, or warp and lane once `.to_warps()` replaced it.
        let mut unscheduled = match &self.base {
            ExecBase::CpuThread => [0; 4],
            ExecBase::GpuGrid { blocks, threads } => [open(blocks), open(threads), 0, 0],
        };
        for (i, op) in self.ops.iter().enumerate() {
            let current = unscheduled.iter().position(|m| *m != 0);
            match op {
                ExecOp::ToWarps => {
                    unscheduled = [unscheduled[0], 0, bit(DimCompo::X), bit(DimCompo::X)];
                    f(i, op, None);
                    continue;
                }
                ExecOp::Forall(d) => {
                    if let Some(s) = current {
                        unscheduled[s] &= !bit(*d);
                    }
                }
                ExecOp::Split { .. } => {}
            }
            f(i, op, current.map(|s| SPACES[s]));
        }
    }

    /// The space the *next* operation would refine, or `None` for a fully
    /// scheduled (single-thread) resource.
    pub fn current_space(&self) -> Option<Space> {
        self.state().ok().and_then(|s| s.current_space())
    }

    /// Extends the resource with `.to_warps()`: the (so far untouched,
    /// 1-D `X`) thread space becomes warp space over lane space.
    ///
    /// # Errors
    ///
    /// [`ExecError::BadToWarps`] if block space is not fully scheduled,
    /// the thread space is not one-dimensional in `X`, thread operations
    /// were already applied, or the extent is not a literal multiple of
    /// [`WARP_SIZE`].
    pub fn to_warps(&self) -> Result<ExecExpr, ExecError> {
        let mut next = self.clone();
        next.ops.push(ExecOp::ToWarps);
        next.state()?;
        Ok(next)
    }

    /// Whether `.to_warps()` was applied anywhere in the op sequence.
    pub fn under_warps(&self) -> bool {
        self.ops.iter().any(|op| matches!(op, ExecOp::ToWarps))
    }

    /// Whether the lane space contains a split anywhere in the op
    /// sequence. Such a split cuts *through* warps, so shuffle
    /// intrinsics (which exchange values between all 32 lanes of a warp
    /// in lockstep) are illegal under it.
    pub fn lane_space_has_split(&self) -> bool {
        self.has_split_in(&[Space::Lane])
    }

    /// Whether any split op was applied while the current space was one
    /// of `spaces` (the one prefix-replay walk behind the barrier and
    /// shuffle legality checks).
    fn has_split_in(&self, spaces: &[Space]) -> bool {
        let mut prefix = ExecExpr {
            base: self.base.clone(),
            ops: Vec::new(),
        };
        for op in &self.ops {
            if matches!(op, ExecOp::Split { .. }) {
                match prefix.current_space() {
                    Some(s) if spaces.contains(&s) => return true,
                    _ => {}
                }
            }
            prefix.ops.push(op.clone());
        }
        false
    }

    /// Extends the resource with `.forall(dim)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the dimension is missing from the current
    /// space's shape, was already scheduled, or if the resource has no
    /// hierarchy left to schedule.
    pub fn forall(&self, dim: DimCompo) -> Result<ExecExpr, ExecError> {
        let mut next = self.clone();
        next.ops.push(ExecOp::Forall(dim));
        next.state()?;
        Ok(next)
    }

    /// Extends the resource with `.split(pos, dim).side`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecExpr::forall`], plus a provably
    /// out-of-range split position.
    pub fn split(&self, dim: DimCompo, pos: Nat, side: Side) -> Result<ExecExpr, ExecError> {
        let mut next = self.clone();
        next.ops.push(ExecOp::Split { dim, pos, side });
        next.state()?;
        Ok(next)
    }

    /// The extent that dimension `dim` of the current space would offer to
    /// the next operation (after narrowing by previous splits).
    pub fn remaining_extent(&self, dim: DimCompo) -> Option<Nat> {
        let st = self.state().ok()?;
        let space = st.current_space()?;
        let dims = st.dims(space);
        dims.iter()
            .find(|(d, s)| *d == dim && !s.scheduled)
            .map(|(_, s)| s.extent.clone())
    }

    /// All forall levels in order of introduction.
    pub fn forall_levels(&self) -> Vec<ForallLevel> {
        let mut levels = Vec::new();
        let mut prefix = ExecExpr {
            base: self.base.clone(),
            ops: Vec::new(),
        };
        for (i, op) in self.ops.iter().enumerate() {
            if let ExecOp::Forall(d) = op {
                let space = prefix
                    .current_space()
                    .expect("validated exec has a space for every op");
                let extent = prefix
                    .remaining_extent(*d)
                    .expect("validated exec has an extent for every forall");
                levels.push(ForallLevel {
                    op_index: i,
                    space,
                    dim: *d,
                    extent,
                });
            }
            prefix.ops.push(op.clone());
        }
        levels
    }

    /// The forall levels introduced by this resource beyond the given
    /// prefix resource (used for narrowing: the levels between the owner
    /// of a memory object and the accessing resource).
    ///
    /// Returns `None` if `owner` is not a prefix of `self`.
    pub fn levels_beyond(&self, owner: &ExecExpr) -> Option<Vec<ForallLevel>> {
        if !owner.is_prefix_of(self) {
            return None;
        }
        Some(
            self.forall_levels()
                .into_iter()
                .filter(|l| l.op_index >= owner.ops.len())
                .collect(),
        )
    }

    /// Whether `self` is a prefix of `other` (i.e. `other` is a
    /// sub-resource of `self`, or the same resource).
    pub fn is_prefix_of(&self, other: &ExecExpr) -> bool {
        self.base == other.base
            && self.ops.len() <= other.ops.len()
            && self.ops.iter().zip(&other.ops).all(|(a, b)| a.same(b))
    }

    /// Whether two resources denote provably disjoint sets of executors:
    /// they share a common prefix and then diverge at a split into
    /// different sides (same dimension, same position).
    pub fn definitely_disjoint(&self, other: &ExecExpr) -> bool {
        if self.base != other.base {
            // Resources from different bases never co-execute a kernel.
            return true;
        }
        for (a, b) in self.ops.iter().zip(&other.ops) {
            if a.same(b) {
                continue;
            }
            return match (a, b) {
                (
                    ExecOp::Split {
                        dim: d1,
                        pos: p1,
                        side: s1,
                    },
                    ExecOp::Split {
                        dim: d2,
                        pos: p2,
                        side: s2,
                    },
                ) => d1 == d2 && p1.equal(p2) && s1 != s2,
                _ => false,
            };
        }
        false
    }

    /// Whether the sub-block space (threads, warps, or lanes) contains a
    /// split anywhere in the op sequence. A barrier (`sync`) is only
    /// legal when it does not — every thread of the block must reach the
    /// barrier (paper Section 2.2); warp- and lane-space splits restrict
    /// to a subset of the block's threads just like thread-space splits.
    pub fn thread_space_has_split(&self) -> bool {
        self.has_split_in(&[Space::Thread, Space::Warp, Space::Lane])
    }

    /// The execution level of this resource, for checking function
    /// annotations: a grid while block space is not fully scheduled, a
    /// block once it is, a thread once both spaces are.
    pub fn level(&self) -> ExecTy {
        match &self.base {
            ExecBase::CpuThread => ExecTy::CpuThread,
            ExecBase::GpuGrid { blocks, threads } => {
                let st = self.state().expect("validated exec expression");
                if !st.space_done(Space::Block) {
                    ExecTy::GpuGrid(blocks.clone(), threads.clone())
                } else if st.warped {
                    if !st.space_done(Space::Warp) {
                        ExecTy::GpuBlock(threads.clone())
                    } else if !st.space_done(Space::Lane) {
                        ExecTy::GpuWarp
                    } else {
                        ExecTy::GpuThread
                    }
                } else if !st.space_done(Space::Thread) {
                    ExecTy::GpuBlock(threads.clone())
                } else {
                    ExecTy::GpuThread
                }
            }
        }
    }

    /// Number of executors denoted by one instance of this resource:
    /// the product of all *unscheduled* extents (scheduled dimensions
    /// denote separate instances).
    pub fn instance_size(&self) -> Option<u64> {
        let st = self.state().ok()?;
        let mut total = 1u64;
        for (_, s) in st
            .block
            .iter()
            .chain(st.thread.iter())
            .chain(st.warp.iter())
            .chain(st.lane.iter())
        {
            if !s.scheduled {
                total *= s.extent.as_lit()?;
            }
        }
        Some(total)
    }

    /// Structural equality up to nat normalization.
    pub fn same(&self, other: &ExecExpr) -> bool {
        self.ops.len() == other.ops.len() && self.same_ops(other, self.ops.len())
    }

    /// Whether the op prefixes up to and including `idx` coincide
    /// (structurally, as [`ExecExpr::same`]); `false` if either
    /// expression has no op at `idx`. Compares in place, allocating
    /// nothing.
    pub fn same_prefix(&self, other: &ExecExpr, idx: usize) -> bool {
        idx < self.ops.len() && idx < other.ops.len() && self.same_ops(other, idx + 1)
    }

    /// Whether the bases and the first `n` ops (both have at least `n`)
    /// coincide.
    fn same_ops(&self, other: &ExecExpr, n: usize) -> bool {
        let base_same = match (&self.base, &other.base) {
            (ExecBase::CpuThread, ExecBase::CpuThread) => true,
            (
                ExecBase::GpuGrid {
                    blocks: b1,
                    threads: t1,
                },
                ExecBase::GpuGrid {
                    blocks: b2,
                    threads: t2,
                },
            ) => b1.same(b2) && t1.same(t2),
            _ => false,
        };
        base_same
            && self.ops[..n]
                .iter()
                .zip(&other.ops[..n])
                .all(|(a, b)| a.same(b))
    }
}

/// Replays one [`ExecOp::ToWarps`]: validates the thread space and
/// installs warp and lane spaces in its place.
fn apply_to_warps(st: &mut State) -> Result<(), ExecError> {
    if st.warped {
        return Err(ExecError::BadToWarps("warps are already formed".into()));
    }
    if !st.space_done(Space::Block) {
        return Err(ExecError::BadToWarps(
            "schedule all block dimensions first".into(),
        ));
    }
    if st.thread.len() != 1 || st.thread[0].0 != DimCompo::X {
        return Err(ExecError::BadToWarps(
            "the thread space must be one-dimensional in X".into(),
        ));
    }
    let (_, ds) = &st.thread[0];
    if ds.scheduled || st.thread_touched {
        return Err(ExecError::BadToWarps(
            "thread-space operations were already applied".into(),
        ));
    }
    let Some(extent) = ds.extent.as_lit() else {
        return Err(ExecError::BadToWarps(format!(
            "thread extent `{}` is not statically known",
            ds.extent
        )));
    };
    if extent == 0 || extent % WARP_SIZE != 0 {
        return Err(ExecError::BadToWarps(format!(
            "thread extent {extent} is not a multiple of the warp size {WARP_SIZE}"
        )));
    }
    st.thread.clear();
    st.warp = vec![(
        DimCompo::X,
        DimState {
            extent: Nat::lit(extent / WARP_SIZE),
            scheduled: false,
        },
    )];
    st.lane = vec![(
        DimCompo::X,
        DimState {
            extent: Nat::lit(WARP_SIZE),
            scheduled: false,
        },
    )];
    st.warped = true;
    Ok(())
}

impl fmt::Display for ExecExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.base {
            ExecBase::CpuThread => write!(f, "cpu.thread")?,
            ExecBase::GpuGrid { blocks, threads } => write!(f, "gpu.grid<{blocks},{threads}>")?,
        }
        for op in &self.ops {
            match op {
                ExecOp::Forall(d) => write!(f, ".forall({d})")?,
                ExecOp::Split { dim, pos, side } => write!(f, ".split({pos}, {dim}).{side}")?,
                ExecOp::ToWarps => write!(f, ".to_warps()")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_grid() -> ExecExpr {
        // gpu.grid<XYZ<2,2,1>, XYZ<4,4,4>> from Figure 1 of the paper.
        ExecExpr::grid(Dim::xyz(2u64, 2u64, 1u64), Dim::xyz(4u64, 4u64, 4u64))
    }

    /// `for_each_op_space` reports, for every op, the space
    /// `current_space` gives the op's prefix: through block and thread
    /// splits of a 3-D grid, and through warps and lanes after
    /// `to_warps`.
    #[test]
    fn op_spaces_match_prefix_replay() {
        let grid = fig1_grid()
            .forall(DimCompo::X)
            .unwrap()
            .split(DimCompo::Y, Nat::lit(1), Side::Snd)
            .unwrap()
            .forall(DimCompo::Y)
            .unwrap()
            .forall(DimCompo::Z)
            .unwrap()
            .forall(DimCompo::X)
            .unwrap()
            .split(DimCompo::Z, Nat::lit(2), Side::Fst)
            .unwrap()
            .forall(DimCompo::Z)
            .unwrap();
        let warps = ExecExpr::grid(Dim::x(2u64), Dim::x(64u64))
            .forall(DimCompo::X)
            .unwrap()
            .to_warps()
            .unwrap()
            .split(DimCompo::X, Nat::lit(1), Side::Snd)
            .unwrap()
            .forall(DimCompo::X)
            .unwrap()
            .forall(DimCompo::X)
            .unwrap();
        for e in [grid, warps] {
            let mut seen = Vec::new();
            e.for_each_op_space(|i, op, space| {
                let prefix = ExecExpr {
                    base: e.base.clone(),
                    ops: e.ops[..i].to_vec(),
                };
                let want = match op {
                    ExecOp::ToWarps => None,
                    _ => prefix.current_space(),
                };
                assert_eq!(space, want, "op {i} of {e:?}");
                seen.push(space);
            });
            assert_eq!(seen.len(), e.ops.len());
            assert!(seen.contains(&Some(Space::Thread)) || seen.contains(&Some(Space::Lane)));
        }
    }

    #[test]
    fn figure_1a_full_grid() {
        let g = fig1_grid();
        assert_eq!(g.instance_size(), Some(2 * 2 * 4 * 4 * 4));
        assert!(matches!(g.level(), ExecTy::GpuGrid(..)));
        assert_eq!(g.current_space(), Some(Space::Block));
    }

    #[test]
    fn figure_1b_forall_x_forall_z() {
        // Scheduling in X and Z leaves groups of two blocks (the Y column).
        let e = fig1_grid()
            .forall(DimCompo::X)
            .unwrap()
            .forall(DimCompo::Z)
            .unwrap();
        assert_eq!(e.instance_size(), Some(2 * 4 * 4 * 4));
        let levels = e.forall_levels();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].dim, DimCompo::X);
        assert_eq!(levels[0].space, Space::Block);
        assert_eq!(levels[0].extent.as_lit(), Some(2));
        assert_eq!(levels[1].dim, DimCompo::Z);
        assert_eq!(levels[1].extent.as_lit(), Some(1));
    }

    #[test]
    fn figure_1c_split_then_forall() {
        // .forall(X).forall(Z).split(1, Y).fst.forall(Y): a single block.
        let e = fig1_grid()
            .forall(DimCompo::X)
            .unwrap()
            .forall(DimCompo::Z)
            .unwrap()
            .split(DimCompo::Y, Nat::lit(1), Side::Fst)
            .unwrap()
            .forall(DimCompo::Y)
            .unwrap();
        // All block dims are scheduled; each instance is one whole block.
        assert!(matches!(e.level(), ExecTy::GpuBlock(_)));
        assert_eq!(e.instance_size(), Some(4 * 4 * 4));
        // The Y forall level has extent 1 (narrowed by the split).
        let levels = e.forall_levels();
        assert_eq!(levels[2].extent.as_lit(), Some(1));
        assert_eq!(
            e.to_string(),
            "gpu.grid<XYZ<2,2,1>,XYZ<4,4,4>>.forall(X).forall(Z).split(1, Y).fst.forall(Y)"
        );
    }

    #[test]
    fn block_space_then_thread_space() {
        let g = ExecExpr::grid(Dim::x(32u64), Dim::x(64u64));
        let blocks = g.forall(DimCompo::X).unwrap();
        assert!(matches!(blocks.level(), ExecTy::GpuBlock(_)));
        assert_eq!(blocks.current_space(), Some(Space::Thread));
        let threads = blocks.forall(DimCompo::X).unwrap();
        assert!(matches!(threads.level(), ExecTy::GpuThread));
        assert_eq!(threads.current_space(), None);
        assert_eq!(threads.instance_size(), Some(1));
    }

    #[test]
    fn missing_dim_rejected() {
        let g = ExecExpr::grid(Dim::xy(64u64, 64u64), Dim::xy(32u64, 8u64));
        let err = g.forall(DimCompo::Z).unwrap_err();
        assert!(matches!(
            err,
            ExecError::MissingDim {
                dim: DimCompo::Z,
                space: Space::Block
            }
        ));
    }

    #[test]
    fn double_schedule_rejected() {
        let g = ExecExpr::grid(Dim::x(4u64), Dim::x(4u64));
        let b = g.forall(DimCompo::X).unwrap();
        let t = b.forall(DimCompo::X).unwrap();
        // Both spaces fully scheduled: one more forall is an error.
        assert_eq!(
            t.forall(DimCompo::X).unwrap_err(),
            ExecError::NothingToSchedule
        );
    }

    #[test]
    fn cpu_thread_has_no_hierarchy() {
        let c = ExecExpr::cpu_thread();
        assert_eq!(
            c.forall(DimCompo::X).unwrap_err(),
            ExecError::CpuHasNoHierarchy
        );
        assert_eq!(c.level(), ExecTy::CpuThread);
        assert_eq!(c.instance_size(), Some(1));
    }

    #[test]
    fn split_out_of_range_rejected() {
        let g = ExecExpr::grid(Dim::x(4u64), Dim::x(32u64));
        let b = g.forall(DimCompo::X).unwrap();
        let err = b.split(DimCompo::X, Nat::lit(64), Side::Fst).unwrap_err();
        assert!(matches!(err, ExecError::SplitOutOfRange { .. }));
    }

    #[test]
    fn split_narrows_extent() {
        let g = ExecExpr::grid(Dim::x(1u64), Dim::x(64u64));
        let b = g.forall(DimCompo::X).unwrap();
        let fst = b.split(DimCompo::X, Nat::lit(32), Side::Fst).unwrap();
        assert_eq!(
            fst.remaining_extent(DimCompo::X).unwrap().as_lit(),
            Some(32)
        );
        let snd = b.split(DimCompo::X, Nat::lit(24), Side::Snd).unwrap();
        assert_eq!(
            snd.remaining_extent(DimCompo::X).unwrap().as_lit(),
            Some(40)
        );
    }

    #[test]
    fn split_branches_are_disjoint() {
        let g = ExecExpr::grid(Dim::x(1u64), Dim::x(64u64));
        let b = g.forall(DimCompo::X).unwrap();
        let fst = b.split(DimCompo::X, Nat::lit(32), Side::Fst).unwrap();
        let snd = b.split(DimCompo::X, Nat::lit(32), Side::Snd).unwrap();
        assert!(fst.definitely_disjoint(&snd));
        assert!(snd.definitely_disjoint(&fst));
        // Different positions are not provably disjoint.
        let other = b.split(DimCompo::X, Nat::lit(16), Side::Snd).unwrap();
        assert!(!fst.definitely_disjoint(&other));
        // A resource is not disjoint from its own sub-resources.
        let sub = fst.forall(DimCompo::X).unwrap();
        assert!(!fst.definitely_disjoint(&sub));
        assert!(fst.is_prefix_of(&sub));
        assert!(!sub.is_prefix_of(&fst));
    }

    #[test]
    fn sync_legality_via_thread_space_split() {
        let g = ExecExpr::grid(Dim::x(2u64), Dim::x(64u64));
        let b = g.forall(DimCompo::X).unwrap();
        let t = b.forall(DimCompo::X).unwrap();
        assert!(!t.thread_space_has_split());
        // The paper's Section 2.2 example: split(X) block at 32 { sync }.
        let branch = b.split(DimCompo::X, Nat::lit(32), Side::Fst).unwrap();
        assert!(branch.thread_space_has_split());
        let branch_threads = branch.forall(DimCompo::X).unwrap();
        assert!(branch_threads.thread_space_has_split());
        // A *block-space* split does not endanger barriers.
        let block_split = g.split(DimCompo::X, Nat::lit(1), Side::Fst).unwrap();
        assert!(!block_split.thread_space_has_split());
    }

    #[test]
    fn levels_beyond_owner() {
        let g = ExecExpr::grid(Dim::x(4u64), Dim::x(32u64));
        let b = g.forall(DimCompo::X).unwrap();
        let t = b.forall(DimCompo::X).unwrap();
        // Owned by the grid: both levels must be covered.
        assert_eq!(t.levels_beyond(&g).unwrap().len(), 2);
        // Owned by the block: only the thread level.
        let lv = t.levels_beyond(&b).unwrap();
        assert_eq!(lv.len(), 1);
        assert_eq!(lv[0].space, Space::Thread);
        assert_eq!(lv[0].extent.as_lit(), Some(32));
        // Not a prefix: no answer.
        let other = g.split(DimCompo::X, Nat::lit(2), Side::Fst).unwrap();
        assert!(t.levels_beyond(&other).is_none());
    }

    #[test]
    fn two_dim_scheduling_order() {
        // sched(Y,X) over blocks XY<64,64>: forall(Y) then forall(X).
        let g = ExecExpr::grid(Dim::xy(64u64, 64u64), Dim::xy(32u64, 8u64));
        let b = g.forall(DimCompo::Y).unwrap().forall(DimCompo::X).unwrap();
        let levels = b.forall_levels();
        assert_eq!(levels[0].dim, DimCompo::Y);
        assert_eq!(levels[0].extent.as_lit(), Some(64));
        assert_eq!(levels[1].dim, DimCompo::X);
        assert!(matches!(b.level(), ExecTy::GpuBlock(_)));
        let t = b.forall(DimCompo::Y).unwrap().forall(DimCompo::X).unwrap();
        let tl = t.forall_levels();
        assert_eq!(tl.len(), 4);
        assert_eq!(tl[2].space, Space::Thread);
        assert_eq!(tl[2].extent.as_lit(), Some(8));
        assert_eq!(tl[3].extent.as_lit(), Some(32));
    }

    #[test]
    fn to_warps_factorizes_thread_space() {
        let b = ExecExpr::grid(Dim::x(4u64), Dim::x(512u64))
            .forall(DimCompo::X)
            .unwrap();
        let wb = b.to_warps().unwrap();
        assert!(wb.under_warps());
        assert_eq!(wb.current_space(), Some(Space::Warp));
        assert_eq!(wb.remaining_extent(DimCompo::X).unwrap().as_lit(), Some(16));
        let warps = wb.forall(DimCompo::X).unwrap();
        assert_eq!(warps.current_space(), Some(Space::Lane));
        assert!(matches!(warps.level(), ExecTy::GpuWarp));
        assert_eq!(warps.instance_size(), Some(32));
        let lanes = warps.forall(DimCompo::X).unwrap();
        assert!(matches!(lanes.level(), ExecTy::GpuThread));
        assert_eq!(lanes.instance_size(), Some(1));
        let levels = lanes.forall_levels();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[1].space, Space::Warp);
        assert_eq!(levels[1].extent.as_lit(), Some(16));
        assert_eq!(levels[2].space, Space::Lane);
        assert_eq!(levels[2].extent.as_lit(), Some(32));
        assert_eq!(
            lanes.to_string(),
            "gpu.grid<X<4>,X<512>>.forall(X).to_warps().forall(X).forall(X)"
        );
    }

    #[test]
    fn to_warps_rejects_bad_shapes() {
        // Block space not scheduled.
        let g = ExecExpr::grid(Dim::x(4u64), Dim::x(64u64));
        assert!(matches!(g.to_warps(), Err(ExecError::BadToWarps(_))));
        // 2-D thread space.
        let b2 = ExecExpr::grid(Dim::x(1u64), Dim::xy(32u64, 8u64))
            .forall(DimCompo::X)
            .unwrap();
        assert!(matches!(b2.to_warps(), Err(ExecError::BadToWarps(_))));
        // Extent not a multiple of 32.
        let b3 = ExecExpr::grid(Dim::x(1u64), Dim::x(48u64))
            .forall(DimCompo::X)
            .unwrap();
        assert!(matches!(b3.to_warps(), Err(ExecError::BadToWarps(_))));
        // Thread space already touched by a split.
        let b4 = ExecExpr::grid(Dim::x(1u64), Dim::x(64u64))
            .forall(DimCompo::X)
            .unwrap()
            .split(DimCompo::X, Nat::lit(32), Side::Fst)
            .unwrap();
        assert!(matches!(b4.to_warps(), Err(ExecError::BadToWarps(_))));
        // Twice.
        let wb = ExecExpr::grid(Dim::x(1u64), Dim::x(64u64))
            .forall(DimCompo::X)
            .unwrap()
            .to_warps()
            .unwrap();
        assert!(matches!(wb.to_warps(), Err(ExecError::BadToWarps(_))));
    }

    #[test]
    fn warp_splits_narrow_and_block_barrier_rules_apply() {
        let wb = ExecExpr::grid(Dim::x(1u64), Dim::x(128u64))
            .forall(DimCompo::X)
            .unwrap()
            .to_warps()
            .unwrap();
        // Split warp space: first warp only.
        let w0 = wb.split(DimCompo::X, Nat::lit(1), Side::Fst).unwrap();
        assert_eq!(w0.remaining_extent(DimCompo::X).unwrap().as_lit(), Some(1));
        assert!(w0.thread_space_has_split(), "warp split restricts threads");
        assert!(!w0.lane_space_has_split());
        // Schedule warp then split lanes: a lane-space split cuts warps.
        let lanes_split = wb
            .forall(DimCompo::X)
            .unwrap()
            .split(DimCompo::X, Nat::lit(1), Side::Fst)
            .unwrap();
        assert!(lanes_split.lane_space_has_split());
        // Disjointness through warp-space splits.
        let snd = wb.split(DimCompo::X, Nat::lit(1), Side::Snd).unwrap();
        assert!(w0.definitely_disjoint(&snd));
    }

    #[test]
    fn same_up_to_nat_normalization() {
        let a = ExecExpr::grid(Dim::x(Nat::var("n") * Nat::lit(1)), Dim::x(32u64));
        let b = ExecExpr::grid(Dim::x(Nat::var("n")), Dim::x(32u64));
        assert!(a.same(&b));
    }

    /// Two split branches share the block-level prefix and part there.
    #[test]
    fn same_prefix_compares_up_to_an_op() {
        let b = ExecExpr::grid(Dim::x(2u64), Dim::x(64u64))
            .forall(DimCompo::X)
            .unwrap();
        let fst = b.split(DimCompo::X, Nat::lit(32), Side::Fst).unwrap();
        let snd = b.split(DimCompo::X, Nat::lit(32), Side::Snd).unwrap();
        assert!(fst.same_prefix(&snd, 0));
        assert!(!fst.same_prefix(&snd, 1));
        assert!(fst.same_prefix(&fst.clone(), 1));
        // No op at the index: nothing to compare.
        assert!(!b.same_prefix(&fst, 1));
    }
}
