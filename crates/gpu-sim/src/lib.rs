//! A deterministic CUDA-like GPU simulator.
//!
//! This crate is the hardware substitute for the paper's evaluation (the
//! authors used a Tesla P100; see DESIGN.md for the substitution
//! argument). It executes kernels written in a small structured IR with
//! CUDA semantics:
//!
//! - a grid of blocks of threads ([`ir`]), with `blockIdx`/`threadIdx`,
//!   global memory buffers and per-block shared memory;
//! - one flat **bytecode** per launch ([`interp::Program`]): a control
//!   skeleton of jumps plus every operand expression as a post-order run
//!   of ops with operands resolved at build time, run by two executors
//!   ([`ExecMode`]) — warp-vectorized by default, and a lane-at-a-time
//!   reference kept as the differential oracle;
//! - block-wide barriers with **divergence detection**: if not every
//!   thread of a block reaches the same barrier, the launch fails the way
//!   CUDA makes it undefined behavior;
//! - **atomic read-modify-write** instructions
//!   (add/min/max/exchange on global and shared memory): conflicting
//!   lanes serialize instead of racing, the race detector knows that
//!   atomic–atomic conflicts are not races (atomic–plain conflicts still
//!   are), and the cost model charges per-warp same-address contention
//!   ([`ir::Stmt::AtomicGlobal`], [`cost::CostModel::atomic_cost`]);
//! - a dynamic **data-race detector** that logs accesses between barriers
//!   (and across blocks for global memory) and reports conflicting pairs
//!   ([`race`]) — the executable oracle against which the static checker
//!   is validated;
//! - a **performance cost model** counting exactly the quantities that
//!   dominate real GPU kernel runtime: coalesced global-memory
//!   transactions per warp, shared-memory bank conflicts, executed
//!   instructions, and barriers, scheduled over a multi-SM device
//!   ([`cost`]).
//!
//! # Examples
//!
//! ```
//! use gpu_sim::ir::*;
//! use gpu_sim::{Gpu, LaunchConfig};
//!
//! // out[i] = in[i] * 2 over one block of 32 threads.
//! let kernel = KernelIr {
//!     name: "double".into(),
//!     params: vec![
//!         ParamDecl { elem: ElemTy::F64, len: 32, writable: false },
//!         ParamDecl { elem: ElemTy::F64, len: 32, writable: true },
//!     ],
//!     shared: vec![],
//!     body: vec![Stmt::StoreGlobal {
//!         buf: 1,
//!         idx: Expr::thread_idx(Axis::X),
//!         value: Expr::bin(
//!             BinOp::Mul,
//!             Expr::LoadGlobal { buf: 0, idx: Box::new(Expr::thread_idx(Axis::X)) },
//!             Expr::LitF(2.0),
//!         ),
//!     }],
//! };
//! let mut gpu = Gpu::default();
//! let a = gpu.alloc_f64(&[1.0; 32]);
//! let b = gpu.alloc_f64(&[0.0; 32]);
//! let stats = gpu
//!     .launch(&kernel, [1, 1, 1], [32, 1, 1], &[a, b], &LaunchConfig::default())
//!     .unwrap();
//! assert_eq!(gpu.read_f64(b)[0], 2.0);
//! assert!(stats.cycles > 0);
//! ```

#![deny(missing_docs)]

pub mod cost;
pub mod device;
pub mod interp;
pub mod ir;
pub mod race;
mod warp;

pub use cost::{CostModel, LaunchStats};
pub use device::{ExecMode, Gpu, LaunchConfig, SimError};
pub use ir::{AtomicOp, Axis, BinOp, ElemTy, Expr, KernelIr, ParamDecl, SharedDecl, Stmt, UnOp};

/// Launch-trace observability (re-export of the `descend-trace` crate):
/// sinks, recorded traces, profile aggregation and Chrome-trace export.
/// See [`device::Gpu::launch_traced`].
pub use descend_trace as trace;
