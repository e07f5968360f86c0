//! The per-kernel index table: each access of a kernel lowered once.
//!
//! An [`IndexTable`] lowers every [`ElabAccess`] of a kernel body with
//! [`lower_scalar_access`], rolled loop variables and a scatter's runtime
//! index ([`DYN_IDX`]) left symbolic, and converts the result once to the
//! IR expression the printers print. The four backends read that form;
//! the IR unroller instantiates the same entry per iteration
//! ([`IndexEntry::instantiate`]). Binding after lowering equals binding
//! before, because [`simplify_idx`] is a normal form of the linear index
//! (DESIGN.md §11).
//!
//! Entries are stored in the order every consumer walks a body: statement
//! by statement, a statement's value expressions left to right, then its
//! own access. The first walk fills the table, later walks read it; a
//! table refuses another kernel's walk and an access read out of order.

use crate::ir_gen::{idx_to_expr, CodegenError};
use descend_places::{lower_scalar_access, simplify_idx, IdxExpr, DYN_IDX};
use descend_typeck::{ElabAccess, MonoKernel};
use gpu_sim::ir::Expr;
use std::cell::Cell;

/// One access of a kernel, lowered once.
#[derive(Debug)]
pub struct IndexEntry<'k> {
    access: &'k ElabAccess,
    /// The lowering, rolled loop variables and [`DYN_IDX`] symbolic; the
    /// printed form, with the variable of the `i`-th enclosing rolled
    /// loop as `Local(i)` and a scatter's runtime index as `Local(loops)`
    /// (as `descend_backends::render_ir_expr` spells them); and whether the
    /// printed form reads a loop variable.
    lowered: Result<(IdxExpr, Expr, bool), CodegenError>,
}

impl<'k> IndexEntry<'k> {
    fn lower(access: &'k ElabAccess, loops: &[&str], scatter: bool) -> IndexEntry<'k> {
        let loop_bound = Cell::new(false);
        let lowered = lower_scalar_access(&access.path, &access.root_dims)
            .map_err(|e| CodegenError::Lowering(e.to_string()))
            .and_then(|idx| {
                let printed = idx_to_expr(&idx, &|x| {
                    if x == DYN_IDX {
                        return scatter.then_some(Expr::Local(loops.len()));
                    }
                    let slot = loops.iter().position(|l| *l == x)?;
                    loop_bound.set(true);
                    Some(Expr::Local(slot))
                })?;
                Ok((idx, printed, loop_bound.get()))
            });
        IndexEntry { access, lowered }
    }

    /// The index as the printers print it.
    ///
    /// # Errors
    ///
    /// The access's lowering failure.
    pub fn printed(&self) -> Result<&Expr, CodegenError> {
        match &self.lowered {
            Ok((_, printed, _)) => Ok(printed),
            Err(e) => Err(e.clone()),
        }
    }

    /// The index at one iteration of the enclosing rolled loops
    /// (`iteration`, outermost first), with a scatter's lowered runtime
    /// index spliced in: the symbolic lowering with the loop values
    /// bound, simplified again — exactly the lowering of the access with
    /// the values in its path.
    ///
    /// # Errors
    ///
    /// The access's lowering failure.
    pub fn instantiate(
        &self,
        iteration: &[(&str, u64)],
        scatter: Option<&Expr>,
    ) -> Result<Expr, CodegenError> {
        let (idx, printed, loop_bound) = self.lowered.as_ref().map_err(Clone::clone)?;
        if scatter.is_none() && !loop_bound {
            return Ok(printed.clone());
        }
        let at = (!iteration.is_empty()).then(|| simplify_idx(idx.bind(iteration)));
        idx_to_expr(at.as_ref().unwrap_or(idx), &|x| {
            scatter.filter(|_| x == DYN_IDX).cloned()
        })
    }
}

/// Every access of one kernel, lowered once, in walk order, and the
/// position of the walk reading it.
#[derive(Debug)]
pub struct IndexTable<'k> {
    kernel: &'k MonoKernel,
    entries: Vec<IndexEntry<'k>>,
    pub(crate) pos: usize,
}

impl<'k> IndexTable<'k> {
    /// An empty table for `kernel`. A failing lowering is kept in its
    /// entry and surfaces where the entry is read.
    pub fn new(kernel: &'k MonoKernel) -> IndexTable<'k> {
        IndexTable {
            kernel,
            entries: Vec::new(),
            pos: 0,
        }
    }

    /// Starts a walk of `kernel`'s body at its first access.
    ///
    /// # Errors
    ///
    /// [`CodegenError::IndexTable`] when the table is another kernel's.
    pub fn start(&mut self, kernel: &MonoKernel) -> Result<(), CodegenError> {
        self.pos = 0;
        if std::ptr::eq(self.kernel, kernel) {
            return Ok(());
        }
        Err(CodegenError::IndexTable(format!(
            "table of `{}` read for `{}`",
            self.kernel.name, kernel.name
        )))
    }

    /// The entry of `access`, the walk's next access, inside the rolled
    /// loops over `loops` (outermost first) and an atomic scatter's
    /// target iff `scatter`; lowered here if no walk has reached it yet.
    ///
    /// # Errors
    ///
    /// [`CodegenError::IndexTable`] when the entry is another access's.
    pub fn next(
        &mut self,
        access: &'k ElabAccess,
        loops: &[&str],
        scatter: bool,
    ) -> Result<&IndexEntry<'k>, CodegenError> {
        if self.pos == self.entries.len() {
            self.entries.push(IndexEntry::lower(access, loops, scatter));
        }
        let entry = &self.entries[self.pos];
        if !std::ptr::eq(entry.access, access) {
            return Err(CodegenError::IndexTable(format!(
                "access {} of `{}` read out of walk order",
                self.pos, self.kernel.name
            )));
        }
        self.pos += 1;
        Ok(entry)
    }

    /// Ends the walk.
    ///
    /// # Errors
    ///
    /// [`CodegenError::IndexTable`] when an entry was left unread.
    pub fn finish(&self) -> Result<(), CodegenError> {
        match self.entries.len() - self.pos {
            0 => Ok(()),
            n => Err(CodegenError::IndexTable(format!(
                "{n} access(es) of `{}` left unread",
                self.kernel.name
            ))),
        }
    }
}
