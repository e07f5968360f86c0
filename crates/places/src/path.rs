//! Normalized place paths.
//!
//! A [`PlacePath`] is the analysis-ready form of a place expression: the
//! root variable, the execution resource that owns the root, and a list of
//! resolved [`PathStep`]s. The type checker builds paths while typing
//! place expressions; the conflict analysis and the code generator consume
//! them.

use crate::view::ViewStep;
use descend_ast::ty::DimCompo;
use descend_ast::Nat;
use descend_exec::{ExecExpr, ExecOp, Side, Space};
use std::fmt;

/// A resolved select step: `p[[e]]` restricted to a single forall level of
/// the selecting execution resource. Multi-dimensional selects are
/// expanded to one [`SelectStep`] per level by the type checker.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStep {
    /// The execution resource of the variable named in the select.
    pub exec: ExecExpr,
    /// The index into `exec.ops` of the forall level this select
    /// distributes over.
    pub level_index: usize,
}

impl SelectStep {
    /// Whether two selects distribute over the same forall level: the
    /// operation prefixes up to and including the level must coincide.
    pub fn same_level(&self, other: &SelectStep) -> bool {
        if self.exec.base != other.exec.base {
            return false;
        }
        if self.level_index != other.level_index {
            return false;
        }
        let a = &self.exec.ops[..=self.level_index];
        let b = &other.exec.ops[..=other.level_index];
        a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.same(y))
    }

    /// The space and dimension of the selected level.
    ///
    /// # Panics
    ///
    /// Panics if `level_index` does not point at a forall op (construction
    /// through the type checker guarantees it does).
    pub fn space_dim(&self) -> (Space, DimCompo) {
        let dim = match &self.exec.ops[self.level_index] {
            ExecOp::Forall(d) => *d,
            other => panic!("select level must be a forall, found {other:?}"),
        };
        let mut prefix = ExecExpr {
            base: self.exec.base.clone(),
            ops: self.exec.ops[..self.level_index].to_vec(),
        };
        // The space is determined by the state before the forall.
        let space = prefix
            .current_space()
            .expect("validated exec has a space for every op");
        prefix.ops.clear();
        (space, dim)
    }

    /// The accumulated coordinate offset of this level: the sum of `snd`
    /// split positions applied to the same space and dimension before the
    /// level. A thread at raw coordinate `c` has branch-local coordinate
    /// `c - offset`.
    pub fn coord_offset(&self) -> Nat {
        let (space, dim) = self.space_dim();
        let mut offset = Nat::lit(0);
        let mut prefix = ExecExpr {
            base: self.exec.base.clone(),
            ops: Vec::new(),
        };
        for op in &self.exec.ops[..self.level_index] {
            if let ExecOp::Split { dim: d, pos, side } = op {
                let op_space = prefix.current_space();
                if *d == dim && op_space == Some(space) && *side == Side::Snd {
                    offset = offset + pos.clone();
                }
            }
            prefix.ops.push(op.clone());
        }
        offset.simplify()
    }
}

/// One resolved step of a place path.
#[derive(Clone, Debug, PartialEq)]
pub enum PathStep {
    /// Tuple projection (0 = `.fst`, 1 = `.snd`).
    Proj(u8),
    /// Dereference.
    Deref,
    /// Index with a nat: a literal, or the variable of a rolled for-nat
    /// loop (or the scatter sentinel `DYN_IDX`).
    Index(Nat),
    /// Distributing select.
    Select(SelectStep),
    /// A resolved view step.
    View(ViewStep),
}

impl PathStep {
    /// Structural equality up to nat normalization and select levels.
    pub fn same(&self, other: &PathStep) -> bool {
        match (self, other) {
            (PathStep::Proj(a), PathStep::Proj(b)) => a == b,
            (PathStep::Deref, PathStep::Deref) => true,
            (PathStep::Index(a), PathStep::Index(b)) => a.equal(b),
            (PathStep::Select(a), PathStep::Select(b)) => a.same_level(b),
            (PathStep::View(a), PathStep::View(b)) => a.same(b),
            _ => false,
        }
    }
}

impl fmt::Display for PathStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathStep::Proj(0) => write!(f, ".fst"),
            PathStep::Proj(_) => write!(f, ".snd"),
            PathStep::Deref => write!(f, ".*"),
            PathStep::Index(n) => write!(f, "[{n}]"),
            PathStep::Select(s) => {
                let (space, dim) = self.select_space_dim_or(s);
                write!(f, "[[{}:{dim}]]", space.noun())
            }
            PathStep::View(v) => write!(f, ".{v}"),
        }
    }
}

impl PathStep {
    fn select_space_dim_or(&self, s: &SelectStep) -> (Space, DimCompo) {
        s.space_dim()
    }
}

/// A normalized place path: the root variable, the execution resource at
/// which the root was introduced (its *owner*), and the resolved steps.
#[derive(Clone, Debug, PartialEq)]
pub struct PlacePath {
    /// Root variable name (unique within a function; shadowing is
    /// rejected by the type checker).
    pub root: String,
    /// The execution resource that owns the root.
    pub owner: ExecExpr,
    /// Resolved steps from the root outward.
    pub steps: Vec<PathStep>,
}

impl PlacePath {
    /// A path with no steps.
    pub fn new(root: impl Into<String>, owner: ExecExpr) -> PlacePath {
        PlacePath {
            root: root.into(),
            owner,
            steps: Vec::new(),
        }
    }

    /// Appends a step, fusing a projection that follows a `split` view
    /// into a [`ViewStep::SplitPart`].
    pub fn push(&mut self, step: PathStep) {
        if let PathStep::Proj(i) = &step {
            if let Some(PathStep::View(ViewStep::SplitAt { pos })) = self.steps.last() {
                let side = if *i == 0 { Side::Fst } else { Side::Snd };
                let pos = pos.clone();
                self.steps.pop();
                self.steps
                    .push(PathStep::View(ViewStep::SplitPart { pos, side }));
                return;
            }
        }
        self.steps.push(step);
    }

    /// The select steps of the path (in order).
    pub fn selects(&self) -> impl Iterator<Item = &SelectStep> {
        self.steps.iter().filter_map(|s| match s {
            PathStep::Select(sel) => Some(sel),
            _ => None,
        })
    }

    /// Whether the path still ends in an unprojected `split` view.
    pub fn has_unprojected_split(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s, PathStep::View(ViewStep::SplitAt { .. })))
    }
}

impl fmt::Display for PlacePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.root)?;
        for s in &self.steps {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use descend_ast::ty::Dim;

    fn grid_1d(blocks: u64, threads: u64) -> ExecExpr {
        ExecExpr::grid(Dim::x(blocks), Dim::x(threads))
    }

    #[test]
    fn split_proj_fusion() {
        let g = grid_1d(1, 64);
        let mut p = PlacePath::new("tmp", g.forall(DimCompo::X).unwrap());
        p.push(PathStep::View(ViewStep::SplitAt { pos: Nat::lit(32) }));
        assert!(p.has_unprojected_split());
        p.push(PathStep::Proj(0));
        assert!(!p.has_unprojected_split());
        assert!(matches!(
            &p.steps[0],
            PathStep::View(ViewStep::SplitPart {
                side: Side::Fst,
                ..
            })
        ));
    }

    #[test]
    fn selects_iterator() {
        let g = grid_1d(4, 32);
        let b = g.forall(DimCompo::X).unwrap();
        let t = b.forall(DimCompo::X).unwrap();
        let mut p = PlacePath::new("arr", g.clone());
        p.push(PathStep::Deref);
        p.push(PathStep::Select(SelectStep {
            exec: b.clone(),
            level_index: 0,
        }));
        p.push(PathStep::Select(SelectStep {
            exec: t.clone(),
            level_index: 1,
        }));
        assert_eq!(p.selects().count(), 2);
    }

    #[test]
    fn same_level_distinguishes_branches() {
        let g = grid_1d(1, 64);
        let b = g.forall(DimCompo::X).unwrap();
        let fst = b
            .split(DimCompo::X, Nat::lit(32), Side::Fst)
            .unwrap()
            .forall(DimCompo::X)
            .unwrap();
        let snd = b
            .split(DimCompo::X, Nat::lit(32), Side::Snd)
            .unwrap()
            .forall(DimCompo::X)
            .unwrap();
        let s_fst = SelectStep {
            exec: fst,
            level_index: 2,
        };
        let s_snd = SelectStep {
            exec: snd,
            level_index: 2,
        };
        assert!(s_fst.same_level(&s_fst.clone()));
        assert!(!s_fst.same_level(&s_snd));
    }

    #[test]
    fn coord_offset_accumulates_snd_splits() {
        let g = grid_1d(1, 64);
        let b = g.forall(DimCompo::X).unwrap();
        let snd = b
            .split(DimCompo::X, Nat::lit(24), Side::Snd)
            .unwrap()
            .forall(DimCompo::X)
            .unwrap();
        let sel = SelectStep {
            exec: snd,
            level_index: 2,
        };
        assert_eq!(sel.coord_offset().as_lit(), Some(24));
        let (space, dim) = sel.space_dim();
        assert_eq!(space, Space::Thread);
        assert_eq!(dim, DimCompo::X);
        // fst side has no offset.
        let fst = b
            .split(DimCompo::X, Nat::lit(24), Side::Fst)
            .unwrap()
            .forall(DimCompo::X)
            .unwrap();
        let sel_fst = SelectStep {
            exec: fst,
            level_index: 2,
        };
        assert_eq!(sel_fst.coord_offset().as_lit(), Some(0));
    }

    #[test]
    fn display_path() {
        let g = grid_1d(4, 32);
        let b = g.forall(DimCompo::X).unwrap();
        let mut p = PlacePath::new("arr", g);
        p.push(PathStep::Deref);
        p.push(PathStep::View(ViewStep::Group { k: Nat::lit(32) }));
        p.push(PathStep::Select(SelectStep {
            exec: b,
            level_index: 0,
        }));
        p.push(PathStep::Index(Nat::lit(3)));
        assert_eq!(p.to_string(), "arr.*.group::<32>[[block:X]][3]");
    }
}
