//! The device: buffers, launches, and the block execution loop.

use crate::cost::{CostAccumulator, CostModel, LaunchStats};
use crate::interp::{self, AccessRec, InterpError, Program, ThreadState, ThreadStop};
use crate::ir::{ElemTy, KernelIr};
use crate::race::{RaceDetector, RaceReport};
use descend_trace::{BlockTrace, LaunchTrace, Recorder, SrcSpan, TraceSink, WorkerSpan};
use std::fmt;

/// A buffer handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BufId(pub usize);

/// Which executor a launch uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// The warp-vectorized executor: lanes of a warp step together under
    /// a mask, races are tracked in shadow memory, and independent
    /// blocks may run on host threads (see [`LaunchConfig::workers`]).
    /// The default.
    #[default]
    Warp,
    /// The original thread-at-a-time interpreter with log-replay race
    /// detection. Kept as the differential oracle for the warp path and
    /// as the baseline the simulator benchmarks compare against.
    Reference,
}

/// Launch options.
#[derive(Clone, Debug, Default)]
pub struct LaunchConfig {
    /// Detect data races dynamically (slower; used by tests).
    pub detect_races: bool,
    /// The cost model.
    pub cost: CostModel,
    /// Which executor to use.
    pub exec: ExecMode,
    /// Host threads for the independent blocks of an
    /// [`ExecMode::Warp`] launch: `None` picks automatically (the host
    /// parallelism, or one thread for launches too small to pay for the
    /// threads), `Some(1)` is sequential, `Some(n)` for `n >= 2` uses up
    /// to `n` threads whatever the launch size.
    ///
    /// Results and reports are deterministic either way: per-block
    /// outcomes are merged in linear block order, the reported race is
    /// the minimum under [`RaceReport::sort_key`], and launches whose
    /// cross-block atomics are order-sensitive (float adds, exchanges)
    /// always run sequentially, whatever this says.
    pub workers: Option<usize>,
}

/// Threads per warp for the lockstep shuffle grouping (agrees with
/// [`CostModel::warp_size`]'s default and `descend_exec::WARP_SIZE`).
pub(crate) const WARP_SIZE: usize = 32;

/// Largest block the simulator accepts (threads), and largest shared
/// allocation (elements). Far beyond real hardware limits, but small
/// enough that per-block state never overflows `usize`/`u32` math.
const MAX_BLOCK_THREADS: u64 = 1 << 24;
const MAX_SHARED_ELEMS: u64 = 1 << 24;

/// Simulation errors.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// Not every thread of a block reached the same barrier
    /// (CUDA-undefined behavior, reported deterministically here).
    BarrierDivergence {
        /// Offending block (linear id).
        block: u64,
        /// Description of the mismatch.
        detail: String,
    },
    /// Not every lane of a warp reached the same shuffle instruction
    /// (CUDA leaves `__shfl_*_sync` in divergent warps undefined; the
    /// simulator reports it deterministically).
    ShuffleDivergence {
        /// Offending block (linear id).
        block: u64,
        /// Description of the mismatch.
        detail: String,
    },
    /// A dynamic data race (only with [`LaunchConfig::detect_races`]).
    DataRace(RaceReport),
    /// Out-of-bounds access.
    OutOfBounds {
        /// Offending block (linear id).
        block: u64,
        /// Description.
        detail: String,
    },
    /// Dynamic evaluation error (type confusion, division by zero, ...).
    Eval(String),
    /// Launch arguments do not match the kernel's parameters.
    BadLaunch(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BarrierDivergence { block, detail } => {
                write!(f, "barrier divergence in block {block}: {detail}")
            }
            SimError::ShuffleDivergence { block, detail } => {
                write!(f, "shuffle divergence in block {block}: {detail}")
            }
            SimError::DataRace(r) => write!(f, "{r}"),
            SimError::OutOfBounds { block, detail } => {
                write!(f, "out of bounds in block {block}: {detail}")
            }
            SimError::Eval(m) => write!(f, "evaluation error: {m}"),
            SimError::BadLaunch(m) => write!(f, "bad launch: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

struct Buffer {
    elem: ElemTy,
    data: Vec<u64>,
}

/// The simulated GPU: owns global-memory buffers and runs kernels.
#[derive(Default)]
pub struct Gpu {
    buffers: Vec<Buffer>,
}

impl Gpu {
    /// A fresh device with no buffers.
    pub fn new() -> Gpu {
        Gpu::default()
    }

    /// Allocates a global f64 buffer initialized from a slice.
    pub fn alloc_f64(&mut self, data: &[f64]) -> BufId {
        self.buffers.push(Buffer {
            elem: ElemTy::F64,
            data: data.iter().map(|v| v.to_bits()).collect(),
        });
        BufId(self.buffers.len() - 1)
    }

    /// Allocates a zero-initialized buffer.
    pub fn alloc_zeroed(&mut self, elem: ElemTy, len: usize) -> BufId {
        let zero = match elem {
            ElemTy::F64 | ElemTy::F32 => 0f64.to_bits(),
            ElemTy::I32 | ElemTy::U32 | ElemTy::Bool => 0,
        };
        self.buffers.push(Buffer {
            elem,
            data: vec![zero; len],
        });
        BufId(self.buffers.len() - 1)
    }

    /// Allocates a buffer of the given element type, initialized from
    /// f64 values converted per element (f32 values are quantized, i32
    /// truncated, bool tested against zero).
    pub fn alloc_scalars(&mut self, elem: ElemTy, data: &[f64]) -> BufId {
        self.buffers.push(Buffer {
            elem,
            data: data.iter().map(|v| scalar_to_bits(elem, *v)).collect(),
        });
        BufId(self.buffers.len() - 1)
    }

    /// A buffer's element type.
    pub fn elem(&self, id: BufId) -> ElemTy {
        self.buffers[id.0].elem
    }

    /// Reads a buffer back as f64 values, whatever its element type
    /// (i32 elements convert exactly, bools to 0.0/1.0).
    pub fn read_scalars(&self, id: BufId) -> Vec<f64> {
        let b = &self.buffers[id.0];
        b.data
            .iter()
            .map(|bits| bits_to_scalar(b.elem, *bits))
            .collect()
    }

    /// Overwrites a buffer's contents from f64 values, converted per
    /// the buffer's element type (see [`Gpu::alloc_scalars`]).
    ///
    /// # Panics
    ///
    /// Panics if the buffer id is invalid or the length differs.
    pub fn write_scalars(&mut self, id: BufId, data: &[f64]) {
        let b = &mut self.buffers[id.0];
        assert_eq!(b.data.len(), data.len(), "length mismatch");
        for (dst, v) in b.data.iter_mut().zip(data) {
            *dst = scalar_to_bits(b.elem, *v);
        }
    }

    /// Reads a buffer back as f64 values.
    ///
    /// # Panics
    ///
    /// Panics if the buffer id is invalid or not a float buffer.
    pub fn read_f64(&self, id: BufId) -> Vec<f64> {
        let b = &self.buffers[id.0];
        assert!(
            matches!(b.elem, ElemTy::F64 | ElemTy::F32),
            "buffer {id:?} is not a float buffer"
        );
        b.data.iter().map(|bits| f64::from_bits(*bits)).collect()
    }

    /// Overwrites a buffer's contents with f64 values.
    ///
    /// # Panics
    ///
    /// Panics if the buffer id is invalid or the length differs.
    pub fn write_f64(&mut self, id: BufId, data: &[f64]) {
        let b = &mut self.buffers[id.0];
        assert_eq!(b.data.len(), data.len(), "length mismatch");
        for (dst, v) in b.data.iter_mut().zip(data) {
            *dst = v.to_bits();
        }
    }

    /// Buffer length in elements.
    pub fn len(&self, id: BufId) -> usize {
        self.buffers[id.0].data.len()
    }

    /// Whether a buffer is empty.
    pub fn is_empty(&self, id: BufId) -> bool {
        self.buffers[id.0].data.is_empty()
    }

    /// Launches a kernel over `grid_dim` blocks of `block_dim` threads.
    ///
    /// Independent blocks may run on host threads (see
    /// [`LaunchConfig::workers`]); their outcomes are merged in linear
    /// block order, so the simulation is deterministic. Within a block,
    /// threads run in barrier-separated rounds. Returns modeled
    /// performance statistics.
    ///
    /// # Errors
    ///
    /// [`SimError::BadLaunch`] for argument mismatches, and the runtime
    /// errors documented on [`SimError`].
    pub fn launch(
        &mut self,
        kernel: &KernelIr,
        grid_dim: [u64; 3],
        block_dim: [u64; 3],
        args: &[BufId],
        cfg: &LaunchConfig,
    ) -> Result<LaunchStats, SimError> {
        self.launch_inner(kernel, grid_dim, block_dim, args, cfg, false)
            .map(|(stats, _)| stats)
    }

    /// Like [`Gpu::launch`], additionally recording a structured
    /// [`LaunchTrace`]: per-block barrier intervals, memory access
    /// groups and shuffle exchanges with their modeled costs, each
    /// attributed to a source span via the kernel's pc-to-span table.
    ///
    /// The trace is deterministic by construction — byte-identical
    /// across [`ExecMode::Warp`] and [`ExecMode::Reference`] and across
    /// worker counts (the wall-clock [`LaunchTrace::workers`] spans are
    /// the one documented exception, and deterministic exports exclude
    /// them). Stats are identical to what the untraced launch returns.
    ///
    /// # Errors
    ///
    /// Exactly [`Gpu::launch`]'s errors.
    pub fn launch_traced(
        &mut self,
        kernel: &KernelIr,
        grid_dim: [u64; 3],
        block_dim: [u64; 3],
        args: &[BufId],
        cfg: &LaunchConfig,
    ) -> Result<(LaunchStats, LaunchTrace), SimError> {
        self.launch_inner(kernel, grid_dim, block_dim, args, cfg, true)
            .map(|(stats, trace)| (stats, trace.expect("traced launch records a trace")))
    }

    fn launch_inner(
        &mut self,
        kernel: &KernelIr,
        grid_dim: [u64; 3],
        block_dim: [u64; 3],
        args: &[BufId],
        cfg: &LaunchConfig,
        tracing: bool,
    ) -> Result<(LaunchStats, Option<LaunchTrace>), SimError> {
        if args.len() != kernel.params.len() {
            return Err(SimError::BadLaunch(format!(
                "kernel `{}` expects {} buffers, got {}",
                kernel.name,
                kernel.params.len(),
                args.len()
            )));
        }
        for (i, (arg, p)) in args.iter().zip(&kernel.params).enumerate() {
            let b = self
                .buffers
                .get(arg.0)
                .ok_or_else(|| SimError::BadLaunch(format!("invalid buffer for arg {i}")))?;
            if b.elem != p.elem {
                return Err(SimError::BadLaunch(format!(
                    "arg {i}: element type mismatch ({:?} vs {:?})",
                    b.elem, p.elem
                )));
            }
            if b.data.len() as u64 != p.len {
                return Err(SimError::BadLaunch(format!(
                    "arg {i}: kernel `{}` assumes {} elements, buffer has {}",
                    kernel.name,
                    p.len,
                    b.data.len()
                )));
            }
        }
        // Checked geometry: dimensions are u64 and their products feed
        // usize/u32 arithmetic everywhere downstream, so overflow or an
        // absurd size must become a reported BadLaunch, never a wrap.
        let threads_per_block = block_dim
            .iter()
            .try_fold(1u64, |acc, d| acc.checked_mul(*d))
            .ok_or_else(|| SimError::BadLaunch("block dimensions overflow".into()))?;
        if threads_per_block == 0 || grid_dim.contains(&0) {
            return Err(SimError::BadLaunch("empty grid or block".into()));
        }
        if threads_per_block > MAX_BLOCK_THREADS {
            return Err(SimError::BadLaunch(format!(
                "{threads_per_block} threads per block exceed the simulator limit of {MAX_BLOCK_THREADS}"
            )));
        }
        let total_blocks = grid_dim
            .iter()
            .try_fold(1u64, |acc, d| acc.checked_mul(*d))
            .ok_or_else(|| SimError::BadLaunch("grid dimensions overflow".into()))?;
        if total_blocks > u64::from(u32::MAX) {
            return Err(SimError::BadLaunch(format!(
                "{total_blocks} blocks exceed the simulator limit of {}",
                u32::MAX
            )));
        }
        for (i, s) in kernel.shared.iter().enumerate() {
            if s.len > MAX_SHARED_ELEMS {
                return Err(SimError::BadLaunch(format!(
                    "shared allocation {i} of {} elements exceeds the simulator limit of {MAX_SHARED_ELEMS}",
                    s.len
                )));
            }
        }
        let threads_per_block = threads_per_block as usize;
        let mut prog = Program::build(kernel).map_err(SimError::BadLaunch)?;
        let global_elems: Vec<ElemTy> = kernel.params.iter().map(|p| p.elem).collect();
        let shared_elems: Vec<ElemTy> = kernel.shared.iter().map(|s| s.elem).collect();

        // Move the argument buffers' data out temporarily so the
        // interpreter can view them as one slice (restored afterwards).
        let mut global: Vec<Vec<u64>> = args
            .iter()
            .map(|a| std::mem::take(&mut self.buffers[a.0].data))
            .collect();

        let mut block_traces: Vec<BlockTrace> = Vec::new();
        let mut worker_spans: Vec<WorkerSpan> = Vec::new();
        let result = match cfg.exec {
            ExecMode::Reference => {
                let mut cost = CostAccumulator::new(cfg.cost.clone());
                let mut races = RaceDetector::new();
                let mut traces = tracing.then(Vec::new);
                let result = self.run_grid(
                    &prog,
                    kernel,
                    grid_dim,
                    block_dim,
                    threads_per_block,
                    &mut global,
                    &global_elems,
                    &shared_elems,
                    &mut cost,
                    cfg.detect_races.then_some(&mut races),
                    traces.as_mut(),
                );
                block_traces = traces.unwrap_or_default();
                result.and_then(|()| match races.race {
                    Some(r) => Err(SimError::DataRace(r)),
                    None => Ok(cost.finish()),
                })
            }
            ExecMode::Warp => run_grid_warp(
                kernel,
                &prog,
                grid_dim,
                block_dim,
                threads_per_block,
                total_blocks as usize,
                &mut global,
                &global_elems,
                cfg,
                tracing,
            )
            .map(|(stats, traces, workers)| {
                block_traces = traces;
                worker_spans = workers;
                stats
            }),
        };
        // Restore buffers even on error.
        for (a, data) in args.iter().zip(global) {
            self.buffers[a.0].data = data;
        }
        // Attribute a detected race to its source location (the span
        // table exists whether or not tracing is on).
        let spans = std::mem::take(&mut prog.spans);
        let result = result.map_err(|e| match e {
            SimError::DataRace(mut r) => {
                r.span = spans.get(r.pc as usize).copied().unwrap_or(SrcSpan::DUMMY);
                SimError::DataRace(r)
            }
            other => other,
        });
        let stats = result?;
        let trace = tracing.then(|| LaunchTrace {
            kernel: kernel.name.clone(),
            grid_dim,
            block_dim,
            sm_count: cfg.cost.num_sms,
            spans,
            blocks: block_traces,
            workers: worker_spans,
        });
        Ok((stats, trace))
    }

    #[allow(clippy::too_many_arguments)]
    fn run_grid(
        &mut self,
        prog: &Program,
        kernel: &KernelIr,
        grid_dim: [u64; 3],
        block_dim: [u64; 3],
        threads_per_block: usize,
        global: &mut [Vec<u64>],
        global_elems: &[ElemTy],
        shared_elems: &[ElemTy],
        cost: &mut CostAccumulator,
        mut races: Option<&mut RaceDetector>,
        mut traces: Option<&mut Vec<BlockTrace>>,
    ) -> Result<(), SimError> {
        /// Where a thread of the block currently waits within one
        /// barrier interval.
        #[derive(Clone, Copy, PartialEq)]
        enum Wait {
            /// Runnable (fresh interval, or resumed after a shuffle).
            Run,
            /// Suspended at a barrier at this pc.
            Barrier(usize),
            /// Suspended at a warp shuffle at this pc, operand staged.
            Shfl(usize),
            /// Ran to completion.
            Done,
        }
        let mut log: Vec<AccessRec> = Vec::new();
        let mut temps = vec![interp::Value::I(0); prog.temp_count];
        let mut instr_before: Vec<u64> = vec![0; threads_per_block];
        let mut instr_delta: Vec<u64> = vec![0; threads_per_block];
        for bz in 0..grid_dim[2] {
            for by in 0..grid_dim[1] {
                for bx in 0..grid_dim[0] {
                    let block_lin = (bz * grid_dim[1] + by) * grid_dim[0] + bx;
                    let mut rec = traces.is_some().then(Recorder::new);
                    let mut shared: Vec<Vec<u64>> = kernel
                        .shared
                        .iter()
                        .map(|s| vec![0u64; s.len as usize])
                        .collect();
                    let mut states: Vec<ThreadState> = (0..threads_per_block)
                        .map(|_| ThreadState::new(prog.local_count))
                        .collect();
                    instr_before.iter_mut().for_each(|v| *v = 0);
                    // One iteration per barrier interval.
                    loop {
                        log.clear();
                        let mut waits: Vec<Wait> = states
                            .iter()
                            .map(|st| if st.done { Wait::Done } else { Wait::Run })
                            .collect();
                        if waits.iter().all(|w| *w == Wait::Done) {
                            break;
                        }
                        // Run every runnable thread to its next stop;
                        // warps whose lanes all reached the same shuffle
                        // exchange values and become runnable again —
                        // until only barriers and completions remain.
                        loop {
                            for (tid, st) in states.iter_mut().enumerate() {
                                if waits[tid] != Wait::Run {
                                    continue;
                                }
                                let t = tid as u64;
                                let tx = t % block_dim[0];
                                let ty = (t / block_dim[0]) % block_dim[1];
                                let tz = t / (block_dim[0] * block_dim[1]);
                                let mut env = interp::ThreadEnv {
                                    thread: [tx, ty, tz],
                                    block: [bx, by, bz],
                                    block_dim,
                                    grid_dim,
                                    tid: tid as u32,
                                    global,
                                    global_elems,
                                    shared: &mut shared,
                                    shared_elems,
                                    log: &mut log,
                                    temps: &mut temps,
                                };
                                let stop = interp::run_thread(prog, st, &mut env)
                                    .map_err(|e| lift_err(e, block_lin))?;
                                waits[tid] = match stop {
                                    ThreadStop::Barrier(pc) => Wait::Barrier(pc),
                                    ThreadStop::Shfl(pc) => Wait::Shfl(pc),
                                    ThreadStop::Done => Wait::Done,
                                };
                            }
                            let mut resolved = false;
                            for ws in (0..threads_per_block).step_by(WARP_SIZE) {
                                let lanes = ws..(ws + WARP_SIZE).min(threads_per_block);
                                let Some(pc) = lanes.clone().find_map(|t| match waits[t] {
                                    Wait::Shfl(pc) => Some(pc),
                                    _ => None,
                                }) else {
                                    continue;
                                };
                                // Lockstep requirement: every lane of the
                                // warp must sit at the *same* shuffle.
                                for t in lanes.clone() {
                                    if waits[t] != Wait::Shfl(pc) {
                                        return Err(SimError::ShuffleDivergence {
                                            block: block_lin,
                                            detail: format!(
                                                "lane {} of warp {} did not reach the shuffle at pc {pc} its sibling lanes wait at",
                                                t - ws,
                                                ws / WARP_SIZE
                                            ),
                                        });
                                    }
                                }
                                let interp::Instr::Shfl { dst, op, delta, .. } = prog.code[pc]
                                else {
                                    unreachable!("shuffle stops point at shuffle instructions")
                                };
                                let vals: Vec<interp::Value> = lanes
                                    .clone()
                                    .map(|t| {
                                        states[t]
                                            .pending_shfl
                                            .take()
                                            .expect("suspended lanes staged a value")
                                    })
                                    .collect();
                                let n = vals.len();
                                for (i, t) in lanes.clone().enumerate() {
                                    let src = match op {
                                        crate::ir::ShflOp::Down => i + delta as usize,
                                        crate::ir::ShflOp::Xor => i ^ delta as usize,
                                    };
                                    states[t].locals[dst] = if src >= WARP_SIZE {
                                        // Beyond the 32-lane warp
                                        // boundary: the lane keeps its
                                        // own value (CUDA clamps).
                                        vals[i]
                                    } else if src < n {
                                        vals[src]
                                    } else {
                                        // A lane slot the warp geometry
                                        // declares but this partial warp
                                        // never populated (block size
                                        // not a multiple of 32): CUDA
                                        // leaves reads of inactive lanes
                                        // undefined; report instead.
                                        return Err(SimError::ShuffleDivergence {
                                            block: block_lin,
                                            detail: format!(
                                                "lane {i} of partial warp {} shuffles from inactive lane {src} (only {n} lanes exist)",
                                                ws / WARP_SIZE
                                            ),
                                        });
                                    };
                                    waits[t] = Wait::Run;
                                }
                                let cycles = cost.warp_shuffle(n as u64);
                                if let Some(r) = rec.as_mut() {
                                    r.shuffle((ws / WARP_SIZE) as u32, pc as u32, n as u32, cycles);
                                }
                                resolved = true;
                            }
                            if !resolved {
                                break;
                            }
                        }
                        // Cost and race bookkeeping for the interval.
                        for tid in 0..threads_per_block {
                            instr_delta[tid] = states[tid].instr_count - instr_before[tid];
                            instr_before[tid] = states[tid].instr_count;
                        }
                        let at_barrier = waits
                            .iter()
                            .filter(|w| matches!(w, Wait::Barrier(_)))
                            .count();
                        let had_barrier = at_barrier > 0;
                        let barrier_pc = had_barrier.then(|| {
                            waits
                                .iter()
                                .find_map(|w| match w {
                                    Wait::Barrier(pc) => Some(*pc as u32),
                                    _ => None,
                                })
                                .unwrap_or(u32::MAX)
                        });
                        cost.interval_traced(
                            &log,
                            &instr_delta,
                            global_elems,
                            shared_elems,
                            barrier_pc,
                            rec.as_mut(),
                        );
                        if let Some(r) = races.as_deref_mut() {
                            r.interval(block_lin as u32, &log);
                        }
                        // Barrier consistency: every thread must be at the
                        // same barrier, or every thread must be done.
                        if had_barrier {
                            let finished = waits.iter().filter(|w| **w == Wait::Done).count();
                            if finished > 0 {
                                return Err(SimError::BarrierDivergence {
                                    block: block_lin,
                                    detail: format!(
                                        "{at_barrier} thread(s) wait at a barrier while {finished} already finished"
                                    ),
                                });
                            }
                            let first = waits[0];
                            if waits.iter().any(|w| *w != first) {
                                return Err(SimError::BarrierDivergence {
                                    block: block_lin,
                                    detail: "threads wait at different barriers".into(),
                                });
                            }
                        }
                    }
                    let cycles = cost.end_block();
                    if let (Some(ts), Some(r)) = (traces.as_deref_mut(), rec.take()) {
                        ts.push(r.finish_block(block_lin, cycles));
                    }
                    if let Some(r) = races.as_deref_mut() {
                        r.end_block();
                    }
                }
            }
        }
        Ok(())
    }
}

/// Views a `u64` slice as atomic cells for lock-free parallel blocks.
fn as_atomic(data: &mut [u64]) -> &[std::sync::atomic::AtomicU64] {
    // SAFETY: `AtomicU64` is documented to have the same size and
    // alignment (and in-memory representation) as `u64`, and the `&mut`
    // borrow guarantees exclusive access to the memory for the lifetime
    // of the returned view, so re-typing the cells as atomics is sound.
    unsafe { &*(data as *mut [u64] as *const [std::sync::atomic::AtomicU64]) }
}

/// Whether a kernel's result is independent of the order in which
/// *blocks* execute, so that host-parallel execution is deterministic.
/// Intra-block execution is sequential on one worker either way, so only
/// cross-block-visible effects matter: atomics on global memory whose
/// combine is not commutative-and-exact — float adds (rounding depends
/// on order) and exchanges (last writer wins) — force sequential blocks.
fn order_insensitive(kernel: &KernelIr) -> bool {
    fn stmts_ok(stmts: &[crate::ir::Stmt], params: &[crate::ir::ParamDecl]) -> bool {
        use crate::ir::{AtomicOp, ElemTy, Stmt};
        stmts.iter().all(|s| match s {
            Stmt::AtomicGlobal { op, buf, .. } => {
                if *op == AtomicOp::Exch {
                    return false;
                }
                !matches!(
                    params.get(*buf).map(|p| p.elem),
                    Some(ElemTy::F32 | ElemTy::F64)
                )
            }
            Stmt::If { then_s, else_s, .. } => stmts_ok(then_s, params) && stmts_ok(else_s, params),
            Stmt::Loop { body, .. } => stmts_ok(body, params),
            _ => true,
        })
    }
    stmts_ok(&kernel.body, &kernel.params)
}

/// Picks the worker count for a warp-mode launch.
fn decide_workers(
    cfg: &LaunchConfig,
    kernel: &KernelIr,
    blocks: usize,
    threads_per_block: usize,
    global_lens: &[usize],
    shared_lens: &[usize],
) -> usize {
    let requested = match cfg.workers {
        Some(n) if n >= 1 => n,
        // Automatic. Small launches lose more to thread startup than
        // they gain.
        _ if blocks >= 4 && blocks.saturating_mul(threads_per_block) >= 4096 => {
            workpool::Pool::available_workers()
        }
        _ => 1,
    };
    if requested <= 1 || !order_insensitive(kernel) {
        return 1;
    }
    let mut workers = requested.min(blocks);
    if cfg.detect_races {
        // Each worker owns a shadow cell (16 bytes) per buffer element;
        // cap the fleet so race-checked runs stay within a sane memory
        // budget: 256 MB is 2^24 elements across all workers. The bound
        // is on address space — the arrays start as zeroed pages and
        // only the ranges a worker's blocks touch become resident.
        let per = crate::race::shadow_bytes_per_worker(global_lens, shared_lens).max(1);
        let budget: u64 = 256 << 20;
        workers = workers.min(usize::try_from((budget / per).max(1)).unwrap_or(1));
    }
    workers.max(1)
}

/// The warp-vectorized grid driver: runs blocks (possibly on a worker
/// pool), then merges outcomes in linear block order so every observable
/// result — stats, the reported error, the reported race — is
/// independent of the host schedule.
#[allow(clippy::too_many_arguments)]
fn run_grid_warp(
    kernel: &KernelIr,
    prog: &Program,
    grid_dim: [u64; 3],
    block_dim: [u64; 3],
    threads_per_block: usize,
    blocks: usize,
    global: &mut [Vec<u64>],
    global_elems: &[ElemTy],
    cfg: &LaunchConfig,
    tracing: bool,
) -> Result<(LaunchStats, Vec<BlockTrace>, Vec<WorkerSpan>), SimError> {
    use crate::race::{cross_block_race, fold_min, ShadowMemory};
    use crate::warp::{run_block, BlockOutcome, BlockScratch, GridCtx, Lanes};
    let views: Vec<&[std::sync::atomic::AtomicU64]> = global
        .iter_mut()
        .map(|v| as_atomic(v.as_mut_slice()))
        .collect();
    let global_lens: Vec<usize> = views.iter().map(|v| v.len()).collect();
    let shared_lens: Vec<usize> = kernel.shared.iter().map(|s| s.len as usize).collect();
    let ctx = GridCtx {
        prog,
        consts: prog.consts.iter().map(|v| Lanes::splat(*v)).collect(),
        global: &views,
        global_elems,
        global_lens: &global_lens,
        shared_lens: &shared_lens,
        shared_decls: &kernel.shared,
        grid_dim,
        block_dim,
        threads_per_block,
        model: cfg.cost.clone(),
    };
    let workers = decide_workers(
        cfg,
        kernel,
        blocks,
        threads_per_block,
        &global_lens,
        &shared_lens,
    );
    let (outcomes, worker_spans): (Vec<Result<BlockOutcome, SimError>>, Vec<WorkerSpan>) =
        if workers <= 1 {
            let mut shadow = cfg.detect_races.then(ShadowMemory::default);
            let mut scratch = BlockScratch::new(&ctx);
            let mut out = Vec::with_capacity(blocks);
            for b in 0..blocks {
                let r = run_block(&ctx, b as u64, shadow.as_mut(), &mut scratch, tracing);
                let failed = r.is_err();
                out.push(r);
                if failed {
                    // Sequential execution stops at the first error, like
                    // the reference path; the merge below returns it.
                    break;
                }
            }
            (out, Vec::new())
        } else {
            let pool = workpool::Pool::new(workers);
            let init = || {
                (
                    cfg.detect_races.then(ShadowMemory::default),
                    BlockScratch::new(&ctx),
                )
            };
            let task = |(shadow, scratch): &mut (Option<ShadowMemory>, BlockScratch), b: usize| {
                run_block(&ctx, b as u64, shadow.as_mut(), scratch, tracing)
            };
            if tracing {
                // Worker busy spans ride into the trace's host section
                // (wall-clock; deterministic exports exclude them).
                let (out, stats) = pool.run_with_stats(blocks, init, task);
                let spans = stats
                    .spans
                    .iter()
                    .map(|s| WorkerSpan {
                        worker: s.worker as u32,
                        block: s.index as u64,
                        start_us: s.start_us,
                        end_us: s.end_us,
                    })
                    .collect();
                (out, spans)
            } else {
                (pool.run_with(blocks, init, task), Vec::new())
            }
        };
    // Merge strictly in linear block order: the first failing block's
    // error wins, races fold to the sort_key minimum, stats sum.
    let mut stats = LaunchStats::default();
    let mut block_cycles = Vec::with_capacity(outcomes.len());
    let mut block_traces = Vec::new();
    let mut best: Option<crate::race::RaceReport> = None;
    let mut summaries = Vec::with_capacity(if cfg.detect_races { blocks } else { 0 });
    for outcome in outcomes {
        let mut outcome = outcome?;
        block_cycles.push(outcome.cycles);
        if let Some(t) = outcome.trace.take() {
            block_traces.push(t);
        }
        stats.accumulate(&outcome.stats);
        if let Some(r) = outcome.race {
            fold_min(&mut best, r);
        }
        if cfg.detect_races {
            summaries.push(outcome.runs);
        }
    }
    if let Some(r) = cross_block_race(&summaries) {
        fold_min(&mut best, r);
    }
    if let Some(r) = best {
        return Err(SimError::DataRace(r));
    }
    stats.cycles = crate::cost::schedule_blocks(&cfg.cost, &block_cycles);
    Ok((stats, block_traces, worker_spans))
}

/// Converts an f64 host value to the bit pattern a buffer of the given
/// element type stores (mirrors the interpreter's value encoding: float
/// buffers hold f64 bits — f32 quantized — i32 buffers the value as
/// sign-extended integer bits, bool buffers 0/1).
fn scalar_to_bits(elem: ElemTy, v: f64) -> u64 {
    match elem {
        ElemTy::F64 => v.to_bits(),
        ElemTy::F32 => ((v as f32) as f64).to_bits(),
        ElemTy::I32 => ((v as i32) as i64) as u64,
        ElemTy::U32 => u64::from(v as u32),
        ElemTy::Bool => u64::from(v != 0.0),
    }
}

/// Rounds an f64 host value through a buffer element type: the value
/// read back after storing it in a buffer of that type (f32 rounding,
/// i32 truncation, bool normalization to 0.0/1.0).
pub fn quantize_scalar(elem: ElemTy, v: f64) -> f64 {
    bits_to_scalar(elem, scalar_to_bits(elem, v))
}

/// Inverse of [`scalar_to_bits`].
fn bits_to_scalar(elem: ElemTy, bits: u64) -> f64 {
    match elem {
        ElemTy::F64 | ElemTy::F32 => f64::from_bits(bits),
        ElemTy::I32 => (bits as i64) as f64,
        ElemTy::U32 => ((bits as u32) as u64) as f64,
        ElemTy::Bool => {
            if bits != 0 {
                1.0
            } else {
                0.0
            }
        }
    }
}

pub(crate) fn lift_err(e: InterpError, block: u64) -> SimError {
    match e {
        InterpError::OutOfBounds { what, idx, len, pc } => SimError::OutOfBounds {
            block,
            detail: format!("{what}: index {idx} >= len {len} (pc {pc})"),
        },
        InterpError::Eval(m) => SimError::Eval(m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::*;

    fn scale_kernel(n: u64) -> KernelIr {
        KernelIr {
            name: "scale".into(),
            params: vec![ParamDecl {
                elem: ElemTy::F64,
                len: n,
                writable: true,
            }],
            shared: vec![],
            body: vec![Stmt::StoreGlobal {
                buf: 0,
                idx: Expr::global_x(),
                value: Expr::mul(
                    Expr::LoadGlobal {
                        buf: 0,
                        idx: Box::new(Expr::global_x()),
                    },
                    Expr::LitF(3.0),
                ),
            }],
        }
    }

    #[test]
    fn scale_multi_block() {
        let mut gpu = Gpu::new();
        let data: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let buf = gpu.alloc_f64(&data);
        gpu.launch(
            &scale_kernel(128),
            [4, 1, 1],
            [32, 1, 1],
            &[buf],
            &LaunchConfig::default(),
        )
        .unwrap();
        let out = gpu.read_f64(buf);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as f64) * 3.0);
        }
    }

    #[test]
    fn wrong_buffer_size_rejected() {
        let mut gpu = Gpu::new();
        let buf = gpu.alloc_f64(&[0.0; 64]);
        let err = gpu
            .launch(
                &scale_kernel(128),
                [4, 1, 1],
                [32, 1, 1],
                &[buf],
                &LaunchConfig::default(),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::BadLaunch(_)));
    }

    /// The paper's Section 2.2 barrier bug: `if (threadIdx.x < 32)
    /// __syncthreads();` with 64 threads per block.
    #[test]
    fn partial_barrier_is_divergence() {
        let kernel = KernelIr {
            name: "bad_sync".into(),
            params: vec![],
            shared: vec![],
            body: vec![Stmt::If {
                cond: Expr::lt(Expr::thread_idx(Axis::X), Expr::LitI(32)),
                then_s: vec![Stmt::Barrier],
                else_s: vec![],
            }],
        };
        let mut gpu = Gpu::new();
        let err = gpu
            .launch(
                &kernel,
                [1, 1, 1],
                [64, 1, 1],
                &[],
                &LaunchConfig::default(),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::BarrierDivergence { .. }));
        // With 32 threads per block it is fine.
        gpu.launch(
            &kernel,
            [1, 1, 1],
            [32, 1, 1],
            &[],
            &LaunchConfig::default(),
        )
        .unwrap();
    }

    #[test]
    fn threads_waiting_at_different_barriers_diverge() {
        let kernel = KernelIr {
            name: "two_barriers".into(),
            params: vec![],
            shared: vec![],
            body: vec![Stmt::If {
                cond: Expr::lt(Expr::thread_idx(Axis::X), Expr::LitI(16)),
                then_s: vec![Stmt::Barrier],
                else_s: vec![Stmt::Barrier],
            }],
        };
        let mut gpu = Gpu::new();
        let err = gpu
            .launch(
                &kernel,
                [1, 1, 1],
                [32, 1, 1],
                &[],
                &LaunchConfig::default(),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::BarrierDivergence { .. }));
    }

    /// The rev_per_block race from the paper's Section 2.2, in IR form:
    /// `a[tid] = a[bs - 1 - tid]` without a barrier.
    #[test]
    fn rev_race_detected_dynamically() {
        let bs = 32i64;
        let kernel = KernelIr {
            name: "rev_race".into(),
            params: vec![ParamDecl {
                elem: ElemTy::F64,
                len: 32,
                writable: true,
            }],
            shared: vec![],
            body: vec![Stmt::StoreGlobal {
                buf: 0,
                idx: Expr::thread_idx(Axis::X),
                value: Expr::LoadGlobal {
                    buf: 0,
                    idx: Box::new(Expr::sub(Expr::LitI(bs - 1), Expr::thread_idx(Axis::X))),
                },
            }],
        };
        let mut gpu = Gpu::new();
        let buf = gpu.alloc_f64(&(0..32).map(|i| i as f64).collect::<Vec<_>>());
        let cfg = LaunchConfig {
            detect_races: true,
            ..LaunchConfig::default()
        };
        let err = gpu
            .launch(&kernel, [1, 1, 1], [32, 1, 1], &[buf], &cfg)
            .unwrap_err();
        assert!(matches!(err, SimError::DataRace(_)));
    }

    /// The corrected version stages through shared memory with a barrier.
    #[test]
    fn rev_with_barrier_is_clean_and_correct() {
        let kernel = KernelIr {
            name: "rev_ok".into(),
            params: vec![ParamDecl {
                elem: ElemTy::F64,
                len: 32,
                writable: true,
            }],
            shared: vec![SharedDecl {
                elem: ElemTy::F64,
                len: 32,
            }],
            body: vec![
                Stmt::StoreShared {
                    buf: 0,
                    idx: Expr::thread_idx(Axis::X),
                    value: Expr::LoadGlobal {
                        buf: 0,
                        idx: Box::new(Expr::sub(Expr::LitI(31), Expr::thread_idx(Axis::X))),
                    },
                },
                Stmt::Barrier,
                Stmt::StoreGlobal {
                    buf: 0,
                    idx: Expr::thread_idx(Axis::X),
                    value: Expr::LoadShared {
                        buf: 0,
                        idx: Box::new(Expr::thread_idx(Axis::X)),
                    },
                },
            ],
        };
        let mut gpu = Gpu::new();
        let buf = gpu.alloc_f64(&(0..32).map(|i| i as f64).collect::<Vec<_>>());
        let cfg = LaunchConfig {
            detect_races: true,
            ..LaunchConfig::default()
        };
        let stats = gpu
            .launch(&kernel, [1, 1, 1], [32, 1, 1], &[buf], &cfg)
            .unwrap();
        let out = gpu.read_f64(buf);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (31 - i) as f64);
        }
        assert_eq!(stats.barriers, 1);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn out_of_bounds_is_reported_not_ub() {
        let kernel = KernelIr {
            name: "oob".into(),
            params: vec![ParamDecl {
                elem: ElemTy::F64,
                len: 16,
                writable: true,
            }],
            shared: vec![],
            body: vec![Stmt::StoreGlobal {
                buf: 0,
                idx: Expr::global_x(),
                value: Expr::LitF(1.0),
            }],
        };
        let mut gpu = Gpu::new();
        let buf = gpu.alloc_f64(&[0.0; 16]);
        // 2 blocks x 16 threads = 32 > 16 elements: the paper's
        // "launched with more threads than elements" bug.
        let err = gpu
            .launch(
                &kernel,
                [2, 1, 1],
                [16, 1, 1],
                &[buf],
                &LaunchConfig::default(),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }));
    }

    #[test]
    fn buffers_restored_after_error() {
        let kernel = KernelIr {
            name: "oob".into(),
            params: vec![ParamDecl {
                elem: ElemTy::F64,
                len: 4,
                writable: true,
            }],
            shared: vec![],
            body: vec![Stmt::StoreGlobal {
                buf: 0,
                idx: Expr::LitI(100),
                value: Expr::LitF(1.0),
            }],
        };
        let mut gpu = Gpu::new();
        let buf = gpu.alloc_f64(&[5.0; 4]);
        let _ = gpu.launch(
            &kernel,
            [1, 1, 1],
            [1, 1, 1],
            &[buf],
            &LaunchConfig::default(),
        );
        assert_eq!(gpu.read_f64(buf), vec![5.0; 4]);
    }

    #[test]
    fn scalar_buffers_round_trip_per_elem_type() {
        let mut gpu = Gpu::new();
        let f32b = gpu.alloc_scalars(ElemTy::F32, &[0.1, -2.5]);
        assert_eq!(gpu.elem(f32b), ElemTy::F32);
        // f32 quantization is applied on the way in.
        assert_eq!(gpu.read_scalars(f32b), vec![(0.1f32) as f64, -2.5]);
        let i32b = gpu.alloc_scalars(ElemTy::I32, &[7.9, -3.0]);
        assert_eq!(gpu.read_scalars(i32b), vec![7.0, -3.0]);
        gpu.write_scalars(i32b, &[1.0, 2.0]);
        assert_eq!(gpu.read_scalars(i32b), vec![1.0, 2.0]);
        let boolb = gpu.alloc_scalars(ElemTy::Bool, &[0.0, 5.0]);
        assert_eq!(gpu.read_scalars(boolb), vec![0.0, 1.0]);
        // f64 buffers are bit-exact.
        let f64b = gpu.alloc_scalars(ElemTy::F64, &[0.1]);
        assert_eq!(gpu.read_scalars(f64b), vec![0.1]);
    }

    /// An i32 kernel runs against an `alloc_scalars` buffer end to end.
    #[test]
    fn i32_buffer_executes_and_reads_back() {
        let kernel = KernelIr {
            name: "bump".into(),
            params: vec![ParamDecl {
                elem: ElemTy::I32,
                len: 32,
                writable: true,
            }],
            shared: vec![],
            body: vec![Stmt::StoreGlobal {
                buf: 0,
                idx: Expr::thread_idx(Axis::X),
                value: Expr::add(
                    Expr::LoadGlobal {
                        buf: 0,
                        idx: Box::new(Expr::thread_idx(Axis::X)),
                    },
                    Expr::LitI(1),
                ),
            }],
        };
        let mut gpu = Gpu::new();
        let buf = gpu.alloc_scalars(ElemTy::I32, &(0..32).map(f64::from).collect::<Vec<_>>());
        gpu.launch(
            &kernel,
            [1, 1, 1],
            [32, 1, 1],
            &[buf],
            &LaunchConfig::default(),
        )
        .unwrap();
        let out = gpu.read_scalars(buf);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i + 1) as f64);
        }
    }

    /// One warp: `shfl_down` by 16 adds each lane's upper sibling; the
    /// top 16 lanes keep their own value (clamped source).
    #[test]
    fn shfl_down_semantics_and_clamping() {
        let kernel = KernelIr {
            name: "shfl".into(),
            params: vec![ParamDecl {
                elem: ElemTy::F64,
                len: 32,
                writable: true,
            }],
            shared: vec![],
            body: vec![
                Stmt::SetLocal(
                    0,
                    Expr::LoadGlobal {
                        buf: 0,
                        idx: Box::new(Expr::thread_idx(Axis::X)),
                    },
                ),
                Stmt::Shfl {
                    dst: 1,
                    op: ShflOp::Down,
                    value: Expr::Local(0),
                    delta: 16,
                },
                Stmt::StoreGlobal {
                    buf: 0,
                    idx: Expr::thread_idx(Axis::X),
                    value: Expr::add(Expr::Local(0), Expr::Local(1)),
                },
            ],
        };
        let mut gpu = Gpu::new();
        let buf = gpu.alloc_f64(&(0..32).map(|i| i as f64).collect::<Vec<_>>());
        let cfg = LaunchConfig {
            detect_races: true,
            ..LaunchConfig::default()
        };
        let stats = gpu
            .launch(&kernel, [1, 1, 1], [32, 1, 1], &[buf], &cfg)
            .unwrap();
        let out = gpu.read_f64(buf);
        for (i, v) in out.iter().enumerate() {
            let expect = if i < 16 {
                (i + i + 16) as f64
            } else {
                (2 * i) as f64
            };
            assert_eq!(*v, expect, "lane {i}");
        }
        assert_eq!(stats.shuffles, 32, "one full-warp exchange");
        assert_eq!(stats.barriers, 0, "shuffles need no barrier");
    }

    /// The butterfly (`shfl_xor` over halving masks) leaves the full
    /// warp sum in *every* lane.
    #[test]
    fn shfl_xor_butterfly_total_in_all_lanes() {
        let mut body = vec![Stmt::SetLocal(
            0,
            Expr::LoadGlobal {
                buf: 0,
                idx: Box::new(Expr::thread_idx(Axis::X)),
            },
        )];
        for delta in [16u32, 8, 4, 2, 1] {
            body.push(Stmt::Shfl {
                dst: 1,
                op: ShflOp::Xor,
                value: Expr::Local(0),
                delta,
            });
            body.push(Stmt::SetLocal(0, Expr::add(Expr::Local(0), Expr::Local(1))));
        }
        body.push(Stmt::StoreGlobal {
            buf: 0,
            idx: Expr::thread_idx(Axis::X),
            value: Expr::Local(0),
        });
        let kernel = KernelIr {
            name: "butterfly".into(),
            params: vec![ParamDecl {
                elem: ElemTy::F64,
                len: 64,
                writable: true,
            }],
            shared: vec![],
            body,
        };
        let mut gpu = Gpu::new();
        let buf = gpu.alloc_f64(&(0..64).map(|i| i as f64).collect::<Vec<_>>());
        let cfg = LaunchConfig {
            detect_races: true,
            ..LaunchConfig::default()
        };
        let stats = gpu
            .launch(&kernel, [1, 1, 1], [64, 1, 1], &[buf], &cfg)
            .unwrap();
        let out = gpu.read_f64(buf);
        // Two warps: each lane holds its own warp's total.
        let w0: f64 = (0..32).sum::<i64>() as f64;
        let w1: f64 = (32..64).sum::<i64>() as f64;
        for (i, v) in out.iter().enumerate() {
            let expect = if i < 32 { w0 } else { w1 };
            assert_eq!(*v, expect, "lane {i}");
        }
        assert_eq!(stats.shuffles, 5 * 64);
    }

    /// A shuffle inside a branch only some lanes of a warp take is
    /// divergence — reported, not undefined.
    #[test]
    fn divergent_shuffle_is_reported() {
        let kernel = KernelIr {
            name: "bad_shfl".into(),
            params: vec![],
            shared: vec![],
            body: vec![
                Stmt::SetLocal(0, Expr::LitF(1.0)),
                Stmt::If {
                    cond: Expr::lt(Expr::thread_idx(Axis::X), Expr::LitI(16)),
                    then_s: vec![Stmt::Shfl {
                        dst: 1,
                        op: ShflOp::Down,
                        value: Expr::Local(0),
                        delta: 8,
                    }],
                    else_s: vec![],
                },
            ],
        };
        let mut gpu = Gpu::new();
        let err = gpu
            .launch(
                &kernel,
                [1, 1, 1],
                [32, 1, 1],
                &[],
                &LaunchConfig::default(),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::ShuffleDivergence { .. }), "{err}");
    }

    /// A branch taken by *whole* warps shuffles fine: warp 0 shuffles
    /// while warp 1 runs straight to the end.
    #[test]
    fn whole_warp_branch_shuffles_cleanly() {
        let kernel = KernelIr {
            name: "warp_branch".into(),
            params: vec![ParamDecl {
                elem: ElemTy::F64,
                len: 64,
                writable: true,
            }],
            shared: vec![],
            body: vec![
                Stmt::SetLocal(
                    0,
                    Expr::LoadGlobal {
                        buf: 0,
                        idx: Box::new(Expr::thread_idx(Axis::X)),
                    },
                ),
                Stmt::If {
                    // threadIdx.x / 32 < 1: the first warp only.
                    cond: Expr::lt(
                        Expr::bin(BinOp::Div, Expr::thread_idx(Axis::X), Expr::LitI(32)),
                        Expr::LitI(1),
                    ),
                    then_s: vec![
                        Stmt::Shfl {
                            dst: 1,
                            op: ShflOp::Down,
                            value: Expr::Local(0),
                            delta: 1,
                        },
                        Stmt::StoreGlobal {
                            buf: 0,
                            idx: Expr::thread_idx(Axis::X),
                            value: Expr::Local(1),
                        },
                    ],
                    else_s: vec![],
                },
            ],
        };
        let mut gpu = Gpu::new();
        let buf = gpu.alloc_f64(&(0..64).map(|i| i as f64).collect::<Vec<_>>());
        gpu.launch(
            &kernel,
            [1, 1, 1],
            [64, 1, 1],
            &[buf],
            &LaunchConfig::default(),
        )
        .unwrap();
        let out = gpu.read_f64(buf);
        for (i, v) in out.iter().enumerate().take(31) {
            assert_eq!(*v, (i + 1) as f64);
        }
        assert_eq!(out[31], 31.0, "top lane keeps its own value");
        for (i, v) in out.iter().enumerate().skip(32) {
            assert_eq!(*v, i as f64, "second warp untouched");
        }
    }

    /// A partial warp (block size not a multiple of 32) may clamp past
    /// the 32-lane warp boundary, but reading a declared-yet-inactive
    /// lane slot is reported (CUDA leaves it undefined).
    #[test]
    fn partial_warp_inactive_lane_read_is_reported() {
        let kernel = KernelIr {
            name: "partial".into(),
            params: vec![],
            shared: vec![],
            body: vec![
                Stmt::SetLocal(0, Expr::thread_idx(Axis::X)),
                Stmt::Shfl {
                    dst: 1,
                    op: ShflOp::Down,
                    value: Expr::Local(0),
                    delta: 8,
                },
            ],
        };
        let mut gpu = Gpu::new();
        // 48 threads: warp 1 has 16 active lanes; lane 8 + 8 = 16 names
        // an inactive lane inside the warp — reported.
        let err = gpu
            .launch(
                &kernel,
                [1, 1, 1],
                [48, 1, 1],
                &[],
                &LaunchConfig::default(),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::ShuffleDivergence { .. }), "{err}");
        // 48 threads with delta 16: lanes 0..15 of warp 1 would source
        // 16..31 — also inactive — but the *full* warp 0 still clamps
        // correctly at 32; a 32-thread launch is clean.
        gpu.launch(
            &kernel,
            [1, 1, 1],
            [32, 1, 1],
            &[],
            &LaunchConfig::default(),
        )
        .expect("full warps clamp at the warp boundary");
    }

    /// Shuffles compose with barriers: exchange, sync, then read what
    /// another warp staged through shared memory.
    #[test]
    fn shuffle_then_barrier_interleaves() {
        let kernel = KernelIr {
            name: "mix".into(),
            params: vec![ParamDecl {
                elem: ElemTy::F64,
                len: 64,
                writable: true,
            }],
            shared: vec![SharedDecl {
                elem: ElemTy::F64,
                len: 64,
            }],
            body: vec![
                Stmt::SetLocal(
                    0,
                    Expr::LoadGlobal {
                        buf: 0,
                        idx: Box::new(Expr::thread_idx(Axis::X)),
                    },
                ),
                Stmt::Shfl {
                    dst: 1,
                    op: ShflOp::Xor,
                    value: Expr::Local(0),
                    delta: 1,
                },
                Stmt::StoreShared {
                    buf: 0,
                    idx: Expr::thread_idx(Axis::X),
                    value: Expr::Local(1),
                },
                Stmt::Barrier,
                Stmt::StoreGlobal {
                    buf: 0,
                    idx: Expr::thread_idx(Axis::X),
                    value: Expr::LoadShared {
                        buf: 0,
                        idx: Box::new(Expr::sub(Expr::LitI(63), Expr::thread_idx(Axis::X))),
                    },
                },
            ],
        };
        let mut gpu = Gpu::new();
        let buf = gpu.alloc_f64(&(0..64).map(|i| i as f64).collect::<Vec<_>>());
        let cfg = LaunchConfig {
            detect_races: true,
            ..LaunchConfig::default()
        };
        let stats = gpu
            .launch(&kernel, [1, 1, 1], [64, 1, 1], &[buf], &cfg)
            .unwrap();
        let out = gpu.read_f64(buf);
        for (i, v) in out.iter().enumerate() {
            // shared[j] = j ^ 1; out[i] = shared[63 - i] = (63 - i) ^ 1.
            assert_eq!(*v, ((63 - i) ^ 1) as f64, "element {i}");
        }
        assert_eq!(stats.barriers, 1);
        assert_eq!(stats.shuffles, 64);
    }

    #[test]
    fn stats_count_accesses() {
        let mut gpu = Gpu::new();
        let buf = gpu.alloc_f64(&[1.0; 128]);
        let stats = gpu
            .launch(
                &scale_kernel(128),
                [4, 1, 1],
                [32, 1, 1],
                &[buf],
                &LaunchConfig::default(),
            )
            .unwrap();
        assert_eq!(stats.blocks, 4);
        // One load + one store per thread.
        assert_eq!(stats.global_accesses, 256);
        // Fully coalesced: 2 segments per warp access x 2 x 4 blocks.
        assert_eq!(stats.global_transactions, 16);
    }
}
