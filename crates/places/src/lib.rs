//! Place expressions, views, overlap analysis, and index lowering.
//!
//! This crate implements the machinery behind the paper's Section 3.2 and
//! the `access_safety_check` of Section 4:
//!
//! - [`view`]: the basic views (`group`, `transpose`, `reverse`, `split`,
//!   `map`, plus `windows` and `zip`) of Listing 3 and its extensions,
//!   their typing (shape transformation), the window-overlap predicate,
//!   and the expansion of user-defined composite views such as
//!   `group_by_row`;
//! - [`path`]: *normalized place paths* — a root variable plus a sequence
//!   of projection/deref/index/select/view steps with all names resolved;
//! - [`conflict`]: the syntactic overlap analysis used for the narrowing
//!   check and the access-conflict check of the extended borrow checker;
//! - [`lower`]: compilation of views into raw index arithmetic, performed
//!   in reverse order of application exactly as described in the paper's
//!   Section 5.
//!
//! Warp- and lane-level selects (from `to_warps` scheduling) flow through
//! the same machinery: a [`SelectStep`] over a warp or lane forall level
//! lowers to a `threadIdx.x / 32` or `threadIdx.x % 32` coordinate, and
//! the narrowing and conflict checks count warp/lane levels exactly like
//! block/thread levels — which is why an intra-warp shuffle exchange
//! needs no barrier while a cross-warp memory exchange still conflicts.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod conflict;
pub mod lower;
pub mod path;
pub mod view;

pub use conflict::{may_overlap, may_race, narrowing_violation, Access, AccessMode};
pub use lower::{
    lower_scalar_access, lower_scalar_access_at, simplify_idx, Coord, IdxExpr, DYN_IDX,
};
pub use path::{PathStep, PlacePath, SelectStep};
pub use view::{
    apply_view, resolve_view_app, windows_overlap, zip_ty, ViewDefs, ViewError, ViewStep,
};
