//! Abstract syntax trees for the Descend language.
//!
//! This crate defines the data structures shared by every phase of the
//! Descend compiler reproduction:
//!
//! - [`span`]: source locations for diagnostics,
//! - [`nat`]: symbolic natural-number arithmetic (the `η` of the paper's
//!   Figure 2/6) with a polynomial normal form used to decide size equality,
//! - [`ty`]: data types, memory spaces, dimensions, and execution levels
//!   (the paper's Figure 6),
//! - [`term`]: terms, statements, place expressions, and views (the paper's
//!   Figures 3 and 5), plus atomic read-modify-write statements
//!   (`atomic_add`/`atomic_min`/`atomic_max`/`atomic_exchange`) — the
//!   typed escape hatch for cross-thread accumulation that barriers
//!   cannot express,
//! - [`pretty`]: a pretty-printer that renders ASTs back to concrete syntax.
//!
//! The grammar follows the paper *Descend: A Safe GPU Systems Programming
//! Language* (PLDI 2024). Where the paper leaves the surface syntax
//! underspecified (e.g. per-dimension selects such as `p[[block.y]]`), the
//! choices made here are documented on the corresponding types.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod nat;
pub mod pretty;
pub mod span;
pub mod term;
pub mod ty;

pub use nat::Nat;
pub use span::Span;
pub use term::{
    AtomicOp, Block, ConstDef, Expr, ExprKind, FnDef, Item, Lit, NatRange, PlaceExpr,
    PlaceExprKind, Program, Stmt, StmtKind, ViewApp, ViewDef,
};
pub use ty::{
    DataTy, Dim, DimCompo, ExecTy, FnSig, Kind, Memory, NatConstraint, RefKind, ScalarTy,
};
