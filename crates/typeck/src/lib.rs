//! The Descend type system (paper Section 4).
//!
//! The checker is *flow-sensitive*: it walks each function body once per
//! monomorphic instantiation, threading
//!
//! - a local typing environment `Γl` (bindings, moves, borrows),
//! - the current execution resource `e` (extended by `sched`/`split`),
//! - and the access environment `A` mapping execution resources to the
//!   place expressions they accessed (shared or unique),
//!
//! exactly as the typing judgement
//! `Δ; Γg; Γl; Θ | ef : ε; e | A ⊢ t : δ ⊣ Γl' | A'` does.
//!
//! Every memory access runs the paper's `access_safety_check`:
//!
//! 1. **narrowing** ([`descend_places::narrowing_violation`]),
//! 2. **access conflicts** ([`descend_places::may_race`]) against `A`,
//! 3. **borrow checking** (Rust-style, on CPU and GPU alike).
//!
//! Barriers (`sync`) are rejected under thread-space splits and release
//! the recorded accesses to shared memory, enabling the paper's
//! communication-through-barrier pattern.
//!
//! Atomic RMW statements (`atomic_add(p, e)`, `atomic_min`, `atomic_max`,
//! `atomic_exchange`, plus the scatter form `atomic_add(p, i, e)` with a
//! runtime element index) are recorded with a third access mode,
//! `Atomic`: they skip the narrowing rule (the hardware serializes
//! conflicting RMWs, so un-narrowed concurrent updates are safe) and
//! never conflict with other atomics, while any overlapping *plain* read
//! or write still conflicts. This makes atomics the only way a place
//! reachable by several threads may be written without per-thread
//! selects — exactly the boundary the fail corpus pins from both sides.
//!
//! ## Divergences from the paper (documented in DESIGN.md)
//!
//! - **Monomorphic checking**: generic functions are checked per
//!   instantiation (like C++ templates). The paper checks polymorphically;
//!   the same programs are accepted/rejected for every artifact
//!   reproduced here, and `where` clauses are validated at instantiation.
//! - **Loops checked once, or per iteration**: a GPU `[lo..hi]` loop
//!   whose variable only indexes (`var`, `var + c`) and whose body holds
//!   no `let`, barrier, split, shuffle, borrow or call is checked once,
//!   the variable bound to a symbolic index over the range; its accesses
//!   conflict by an exact interval rule, applied jointly to paths
//!   indexed through several such loops. Every other loop (and any loop
//!   whose symbolic check fails or cannot be decided) is checked once
//!   per iteration, its static range bound value by value. Either way at
//!   most [`LOOP_BUDGET`] iterations per kernel instance. A loop checked
//!   once whose body can stand for every iteration is elaborated as one
//!   rolled [`ElabStmt::ForNat`], which the emitters print as a loop and
//!   the IR lowering unrolls; every other loop is elaborated unrolled.
//!   [`MonoKernel::loop_checks`] says which loops took which path.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod builtins;
mod check;
mod elab;
mod error;

pub use check::{
    check_context, check_fn, check_program, launch_callees, CheckedFn, CheckedProgram, LOOP_BUDGET,
};
pub use elab::{
    ElabAccess, ElabExpr, ElabStmt, HostStmt, KernelParam, LoopChecks, MemKind, MonoKernel,
    ScalarKind, SharedAlloc,
};
pub use error::{ErrorKind, TypeError};
