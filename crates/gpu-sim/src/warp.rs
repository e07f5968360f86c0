//! The warp-vectorized block executor.
//!
//! The reference interpreter in [`crate::interp`] steps one thread at a
//! time and replays an access log for cost and race accounting. This
//! module executes a whole warp per dispatch instead: each warp keeps a
//! 32-lane-wide register file, every step executes the runnable lanes at
//! the *minimum* program counter together under a lane mask, and the
//! lanes of one memory instruction feed the cost model and the shadow
//! race detector directly — no per-access log, no replay.
//!
//! Minimum-pc scheduling reconverges divergent lanes exactly where the
//! structured bytecode does: branch arms and loop bodies occupy
//! contiguous pc ranges, so a lane past a region never advances while a
//! sibling is still inside it. The numbers produced (cycles, stats, race
//! verdicts) match the reference path; `tests/sim_scale.rs` pins that
//! equivalence differentially.

use crate::cost::{BlockCost, CostModel, LaunchStats};
use crate::device::{lift_err, SimError, WARP_SIZE};
use crate::interp::{apply_atomic, apply_bin, Instr, InterpError, Value};
use crate::ir::{Axis, BinOp, Expr, SharedDecl, ShflOp, UnOp};
use crate::race::{RaceReport, Run, ShadowMemory, ATOMIC, READ, WRITE};
use descend_trace::{BlockTrace, NullSink, Recorder, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};

/// Everything immutable a block needs to execute; shared by all worker
/// threads of one launch.
pub(crate) struct GridCtx<'a> {
    /// Compiled bytecode.
    pub(crate) code: &'a [Instr],
    /// Per-instruction cost weights.
    pub(crate) weights: &'a [u64],
    /// Thread-local slot count.
    pub(crate) local_count: usize,
    /// Global buffers as atomic views (lock-free parallel blocks).
    pub(crate) global: &'a [&'a [AtomicU64]],
    /// Element types of the global buffers.
    pub(crate) global_elems: &'a [crate::ir::ElemTy],
    /// Lengths of the global buffers and of the shared allocations (what
    /// the race shadow is sized to).
    pub(crate) global_lens: &'a [usize],
    pub(crate) shared_lens: &'a [usize],
    /// Shared-memory declarations.
    pub(crate) shared_decls: &'a [SharedDecl],
    /// Blocks per grid.
    pub(crate) grid_dim: [u64; 3],
    /// Threads per block.
    pub(crate) block_dim: [u64; 3],
    /// Linearized block size.
    pub(crate) threads_per_block: usize,
    /// Cost-model parameters.
    pub(crate) model: CostModel,
}

/// What one block's execution produced (merged by the device in linear
/// block order, so parallel execution stays deterministic).
pub(crate) struct BlockOutcome {
    /// Modeled cycles of this block (scheduled over SMs by the device).
    pub(crate) cycles: u64,
    /// Stats delta of this block.
    pub(crate) stats: LaunchStats,
    /// Minimum-key intra-block race, if any.
    pub(crate) race: Option<RaceReport>,
    /// Cross-block run summary (empty when races are off).
    pub(crate) runs: Box<[Run]>,
    /// Structured trace of this block's execution (only when tracing).
    pub(crate) trace: Option<BlockTrace>,
}

/// Per-lane execution status within the current barrier interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lane {
    /// Runnable.
    Run,
    /// Suspended at the shuffle at this pc, operand staged.
    Shfl(usize),
    /// Suspended at the barrier at this pc.
    Barrier(usize),
    /// Ran to completion.
    Done,
}

/// One warp: up to 32 lanes with a lane-vectorized register file.
struct Warp {
    /// First linear tid of the warp.
    base: u32,
    /// Active lanes (< 32 for the trailing partial warp).
    n: usize,
    /// Warp index within the block (error messages).
    widx: usize,
    /// Per-lane program counter.
    pc: [usize; 32],
    /// Scheduling view of `pc`: the pc of every `Lane::Run` lane, and
    /// `u32::MAX` for suspended/done lanes. Kept as `u32` in its own
    /// array so the scheduler's min-scan and mask build vectorize
    /// (bytecode is always far below 2^32 instructions).
    sched: [u32; 32],
    /// Per-lane status.
    status: [Lane; 32],
    /// Register file, slot-major: `regs[slot][lane]`.
    regs: Vec<[Value; 32]>,
    /// Operands staged by suspended shuffles.
    staged: [Value; 32],
    /// Lanes (among the `n` active ones) that have run to completion.
    done: usize,
    /// Per-lane executed-instruction weight (cost model).
    instr_count: [u64; 32],
    /// Snapshot of `instr_count` at the last interval boundary.
    instr_before: [u64; 32],
    /// Per-lane thread coordinates, axis-major.
    tcoord: [[i64; 32]; 3],
}

impl Warp {
    fn new(base: u32, n: usize, widx: usize, local_count: usize, bd: [u64; 3]) -> Warp {
        let mut tcoord = [[0i64; 32]; 3];
        let mut status = [Lane::Done; 32];
        for l in 0..n {
            let t = u64::from(base) + l as u64;
            tcoord[0][l] = (t % bd[0]) as i64;
            tcoord[1][l] = ((t / bd[0]) % bd[1]) as i64;
            tcoord[2][l] = (t / (bd[0] * bd[1])) as i64;
            status[l] = Lane::Run;
        }
        let mut sched = [u32::MAX; 32];
        for s in sched.iter_mut().take(n) {
            *s = 0;
        }
        Warp {
            base,
            n,
            widx,
            pc: [0; 32],
            sched,
            status,
            regs: vec![[Value::I(0); 32]; local_count],
            staged: [Value::I(0); 32],
            done: 0,
            instr_count: [0; 32],
            instr_before: [0; 32],
            tcoord,
        }
    }

    /// Returns the warp to its launch state so the next block can reuse
    /// its allocations (thread coordinates depend only on the lane, so
    /// they carry over unchanged).
    fn reset(&mut self) {
        for l in 0..self.n {
            self.status[l] = Lane::Run;
            self.sched[l] = 0;
        }
        self.pc = [0; 32];
        self.done = 0;
        self.instr_count = [0; 32];
        self.instr_before = [0; 32];
        for slot in self.regs.iter_mut() {
            *slot = [Value::I(0); 32];
        }
    }

    /// Runs the warp to the end of the current barrier interval: every
    /// lane ends `Barrier` or `Done`, with in-warp shuffles resolved.
    fn run_interval<S: TraceSink>(
        &mut self,
        env: &mut Env<'_, '_, S>,
        scratch: &mut [[Value; 32]],
    ) -> Result<(), SimError> {
        loop {
            // `sched` mirrors pc/status exactly for this purpose: both
            // passes are branchless fixed-trip u32 loops the compiler
            // vectorizes, which matters because they run once per
            // executed instruction.
            let mut min_pc = u32::MAX;
            let mut live = 0u32;
            for l in 0..WARP_SIZE {
                min_pc = min_pc.min(self.sched[l]);
                live += u32::from(self.sched[l] != u32::MAX);
            }
            if min_pc == u32::MAX {
                // Nothing runnable: resolve a pending shuffle, or the
                // interval is over (barriers/completions only).
                if self.status[..self.n]
                    .iter()
                    .any(|s| matches!(s, Lane::Shfl(_)))
                {
                    self.resolve_shuffle(env)?;
                    continue;
                }
                return Ok(());
            }
            let mut mask = 0u32;
            for l in 0..WARP_SIZE {
                mask |= u32::from(self.sched[l] == min_pc) << l;
            }
            if mask.count_ones() == live {
                // Converged: every live lane executes together, and
                // straight-line instructions, jumps, and *uniform*
                // branches keep it that way — run ahead without
                // rescanning until divergence or a status change
                // forces a rescan (`exec` returns `RESCAN`).
                let mut pc = min_pc as usize;
                loop {
                    let next = self.exec(env, pc, mask, scratch).map_err(|e| *e)?;
                    if next == RESCAN {
                        break;
                    }
                    pc = next as usize;
                }
            } else {
                self.exec(env, min_pc as usize, mask, scratch)
                    .map_err(|e| *e)?;
            }
        }
    }

    /// Exchanges staged shuffle operands once every lane of the warp
    /// waits at the same shuffle (the lockstep requirement the reference
    /// path enforces, with identical diagnostics).
    fn resolve_shuffle<S: TraceSink>(&mut self, env: &mut Env<'_, '_, S>) -> Result<(), SimError> {
        let pc = (0..self.n)
            .find_map(|l| match self.status[l] {
                Lane::Shfl(p) => Some(p),
                _ => None,
            })
            .expect("caller saw a suspended shuffle");
        for l in 0..self.n {
            if self.status[l] != Lane::Shfl(pc) {
                return Err(SimError::ShuffleDivergence {
                    block: env.block_lin,
                    detail: format!(
                        "lane {l} of warp {} did not reach the shuffle at pc {pc} its sibling lanes wait at",
                        self.widx
                    ),
                });
            }
        }
        let Instr::Shfl { dst, op, delta, .. } = &env.ctx.code[pc] else {
            unreachable!("shuffle stops point at shuffle instructions")
        };
        let n = self.n;
        let mut received = [Value::I(0); 32];
        for (i, r) in received.iter_mut().enumerate().take(n) {
            let src = match op {
                ShflOp::Down => i + *delta as usize,
                ShflOp::Xor => i ^ *delta as usize,
            };
            *r = if src >= WARP_SIZE {
                // Beyond the 32-lane warp boundary: the lane keeps its
                // own value (CUDA clamps).
                self.staged[i]
            } else if src < n {
                self.staged[src]
            } else {
                // A lane slot the warp geometry declares but this
                // partial warp never populated: CUDA leaves reads of
                // inactive lanes undefined; report instead.
                return Err(SimError::ShuffleDivergence {
                    block: env.block_lin,
                    detail: format!(
                        "lane {i} of partial warp {} shuffles from inactive lane {src} (only {n} lanes exist)",
                        self.widx
                    ),
                });
            };
        }
        for (l, r) in received.iter().enumerate().take(n) {
            self.regs[*dst][l] = *r;
            self.status[l] = Lane::Run;
            self.sched[l] = self.pc[l] as u32;
        }
        let cycles = env.cost.warp_shuffle(n as u64);
        if S::ENABLED {
            env.sink
                .shuffle(self.widx as u32, pc as u32, n as u32, cycles);
        }
        Ok(())
    }

    /// Executes the instruction at `pc` for the masked lanes.
    ///
    /// `scratch` is the per-block arena of lane-wide value buffers (see
    /// [`scratch_depth`]): operand buffers are carved off its front
    /// instead of being zero-initialized on the stack per AST node,
    /// which is the warp path's hottest allocation. Stale lanes in a
    /// reused buffer are harmless — every consumer reads only lanes in
    /// `mask`, and every evaluator writes exactly those lanes.
    fn exec<S: TraceSink>(
        &mut self,
        env: &mut Env<'_, '_, S>,
        pc: usize,
        mask: u32,
        scratch: &mut [[Value; 32]],
    ) -> ERes<u32> {
        let w = env.ctx.weights[pc];
        let block_lin = env.block_lin;
        // Straight-line instructions advance every masked lane to
        // `pc + 1` and never change lane status, so a converged warp
        // stays converged across them; jumps and uniform branches
        // (below) move all masked lanes to the same target. `next`
        // reports where the converged scheduler may continue without a
        // rescan, or [`RESCAN`] after divergence / a status change.
        let mut next = if matches!(
            &env.ctx.code[pc],
            Instr::SetLocal(..)
                | Instr::StoreGlobal { .. }
                | Instr::StoreShared { .. }
                | Instr::AtomicGlobal { .. }
                | Instr::AtomicShared { .. }
        ) {
            pc as u32 + 1
        } else {
            RESCAN
        };
        match &env.ctx.code[pc] {
            Instr::SetLocal(i, e) => {
                let (vals, rest) = scratch.split_first_mut().expect("scratch sized per kernel");
                eval_vec(env, self, e, mask, pc, vals, rest)?;
                if *i >= self.regs.len() {
                    return Err(ev(format!("local {i} out of range")));
                }
                let slot = &mut self.regs[*i];
                let (pcs, sched) = (&mut self.pc, &mut self.sched);
                for_lanes(mask, |l| {
                    slot[l] = vals[l];
                    pcs[l] = pc + 1;
                    sched[l] = pc as u32 + 1;
                });
            }
            Instr::StoreGlobal { buf, idx, value } => {
                let (addrs, vals) = self.eval_store_operands(env, idx, value, mask, pc, scratch)?;
                let view = env
                    .ctx
                    .global
                    .get(*buf)
                    .copied()
                    .ok_or_else(|| ev(format!("global buffer {buf} missing")))?;
                let elem = env.ctx.global_elems[*buf];
                let mut group = [0u64; 32];
                let mut n = 0;
                let (pcs, sched) = (&mut self.pc, &mut self.sched);
                try_lanes(mask, |l| {
                    let i = addrs[l];
                    if i >= view.len() as u64 {
                        return Err(oob(block_lin, "global", *buf, i, view.len() as u64, pc));
                    }
                    let bits = vals[l].to_elem_bits(elem).map_err(ev)?;
                    view[i as usize].store(bits, Ordering::Relaxed);
                    group[n] = i;
                    n += 1;
                    pcs[l] = pc + 1;
                    sched[l] = pc as u32 + 1;
                    Ok(())
                })?;
                if let Some(sh) = env.shadow.as_deref_mut() {
                    sh.group::<WRITE>(true, *buf, &addrs, self.base, mask, pc as u32);
                }
                let gc = env
                    .cost
                    .global_group(&mut group[..n], elem.size_bytes(), false);
                if S::ENABLED {
                    env.sink
                        .mem_group(self.widx as u32, pc as u32, true, false, n as u32, gc);
                }
            }
            Instr::StoreShared { buf, idx, value } => {
                let (addrs, vals) = self.eval_store_operands(env, idx, value, mask, pc, scratch)?;
                let decl = env
                    .ctx
                    .shared_decls
                    .get(*buf)
                    .ok_or_else(|| ev(format!("shared buffer {buf} missing")))?;
                let elem = decl.elem;
                let mut group = [0u64; 32];
                let mut n = 0;
                let buf_mem = &mut env.shared[*buf];
                let len = buf_mem.len() as u64;
                let (pcs, sched) = (&mut self.pc, &mut self.sched);
                try_lanes(mask, |l| {
                    let i = addrs[l];
                    if i >= len {
                        return Err(oob(block_lin, "shared", *buf, i, len, pc));
                    }
                    let bits = vals[l].to_elem_bits(elem).map_err(ev)?;
                    buf_mem[i as usize] = bits;
                    group[n] = i;
                    n += 1;
                    pcs[l] = pc + 1;
                    sched[l] = pc as u32 + 1;
                    Ok(())
                })?;
                if let Some(sh) = env.shadow.as_deref_mut() {
                    sh.group::<WRITE>(false, *buf, &addrs, self.base, mask, pc as u32);
                }
                let gc = env
                    .cost
                    .shared_group(&mut group[..n], elem.size_bytes(), false);
                if S::ENABLED {
                    env.sink
                        .mem_group(self.widx as u32, pc as u32, false, false, n as u32, gc);
                }
            }
            Instr::AtomicGlobal {
                op,
                buf,
                idx,
                value,
            } => {
                let (addrs, vals) = self.eval_store_operands(env, idx, value, mask, pc, scratch)?;
                let view = env
                    .ctx
                    .global
                    .get(*buf)
                    .copied()
                    .ok_or_else(|| ev(format!("global buffer {buf} missing")))?;
                let elem = env.ctx.global_elems[*buf];
                let mut group = [0u64; 32];
                let mut n = 0;
                let (pcs, sched) = (&mut self.pc, &mut self.sched);
                try_lanes(mask, |l| {
                    let i = addrs[l];
                    if i >= view.len() as u64 {
                        return Err(oob(block_lin, "global", *buf, i, view.len() as u64, pc));
                    }
                    // Lock-free RMW so concurrently executing blocks
                    // serialize the way device atomics do.
                    let cell = &view[i as usize];
                    let mut cur = cell.load(Ordering::Relaxed);
                    loop {
                        let old = Value::from_bits(cur, elem);
                        let new = apply_atomic(*op, old, vals[l]).map_err(ev)?;
                        let bits = new.to_elem_bits(elem).map_err(ev)?;
                        match cell.compare_exchange_weak(
                            cur,
                            bits,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => break,
                            Err(seen) => cur = seen,
                        }
                    }
                    group[n] = i;
                    n += 1;
                    pcs[l] = pc + 1;
                    sched[l] = pc as u32 + 1;
                    Ok(())
                })?;
                if let Some(sh) = env.shadow.as_deref_mut() {
                    sh.group::<ATOMIC>(true, *buf, &addrs, self.base, mask, pc as u32);
                }
                let gc = env
                    .cost
                    .global_group(&mut group[..n], elem.size_bytes(), true);
                if S::ENABLED {
                    env.sink
                        .mem_group(self.widx as u32, pc as u32, true, true, n as u32, gc);
                }
            }
            Instr::AtomicShared {
                op,
                buf,
                idx,
                value,
            } => {
                let (addrs, vals) = self.eval_store_operands(env, idx, value, mask, pc, scratch)?;
                let decl = env
                    .ctx
                    .shared_decls
                    .get(*buf)
                    .ok_or_else(|| ev(format!("shared buffer {buf} missing")))?;
                let elem = decl.elem;
                let mut group = [0u64; 32];
                let mut n = 0;
                let buf_mem = &mut env.shared[*buf];
                let len = buf_mem.len() as u64;
                let (pcs, sched) = (&mut self.pc, &mut self.sched);
                try_lanes(mask, |l| {
                    let i = addrs[l];
                    if i >= len {
                        return Err(oob(block_lin, "shared", *buf, i, len, pc));
                    }
                    let old = Value::from_bits(buf_mem[i as usize], elem);
                    let new = apply_atomic(*op, old, vals[l]).map_err(ev)?;
                    buf_mem[i as usize] = new.to_elem_bits(elem).map_err(ev)?;
                    group[n] = i;
                    n += 1;
                    pcs[l] = pc + 1;
                    sched[l] = pc as u32 + 1;
                    Ok(())
                })?;
                if let Some(sh) = env.shadow.as_deref_mut() {
                    sh.group::<ATOMIC>(false, *buf, &addrs, self.base, mask, pc as u32);
                }
                let gc = env
                    .cost
                    .shared_group(&mut group[..n], elem.size_bytes(), true);
                if S::ENABLED {
                    env.sink
                        .mem_group(self.widx as u32, pc as u32, false, true, n as u32, gc);
                }
            }
            Instr::JumpIfFalse(cond, target) => {
                let (vals, rest) = scratch.split_first_mut().expect("scratch sized per kernel");
                eval_vec(env, self, cond, mask, pc, vals, rest)?;
                let (pcs, sched) = (&mut self.pc, &mut self.sched);
                let mut taken = 0u32;
                try_lanes(mask, |l| {
                    let c = vals[l].truthy().map_err(ev)?;
                    taken |= u32::from(c) << l;
                    let next = if c { pc + 1 } else { *target };
                    pcs[l] = next;
                    sched[l] = next as u32;
                    Ok(())
                })?;
                // A branch every masked lane resolves the same way is
                // uniform (loop back-edge conditions almost always
                // are): the warp stays converged at the shared target.
                if taken == mask {
                    next = pc as u32 + 1;
                } else if taken == 0 {
                    next = *target as u32;
                }
            }
            Instr::Jump(target) => {
                let (pcs, sched) = (&mut self.pc, &mut self.sched);
                for_lanes(mask, |l| {
                    pcs[l] = *target;
                    sched[l] = *target as u32;
                });
                next = *target as u32;
            }
            Instr::Barrier => {
                let (status, pcs, sched) = (&mut self.status, &mut self.pc, &mut self.sched);
                for_lanes(mask, |l| {
                    status[l] = Lane::Barrier(pc);
                    pcs[l] = pc + 1;
                    sched[l] = u32::MAX;
                });
            }
            Instr::Shfl { dst, value, .. } => {
                if *dst >= self.regs.len() {
                    return Err(ev(format!("local {dst} out of range")));
                }
                let (vals, rest) = scratch.split_first_mut().expect("scratch sized per kernel");
                eval_vec(env, self, value, mask, pc, vals, rest)?;
                let (staged, status, pcs, sched) = (
                    &mut self.staged,
                    &mut self.status,
                    &mut self.pc,
                    &mut self.sched,
                );
                for_lanes(mask, |l| {
                    staged[l] = vals[l];
                    status[l] = Lane::Shfl(pc);
                    pcs[l] = pc + 1;
                    sched[l] = u32::MAX;
                });
            }
            Instr::Halt => {
                self.done += mask.count_ones() as usize;
                let (status, sched) = (&mut self.status, &mut self.sched);
                for_lanes(mask, |l| {
                    status[l] = Lane::Done;
                    sched[l] = u32::MAX;
                });
            }
        }
        let counts = &mut self.instr_count;
        for_lanes(mask, |l| counts[l] += w);
        Ok(next)
    }

    /// Evaluates a store-family instruction's index (converted per lane)
    /// and value operands, in the reference interpreter's order: index
    /// conversion errors surface before value-evaluation errors, which
    /// surface before bounds checks.
    fn eval_store_operands<'s, S: TraceSink>(
        &self,
        env: &mut Env<'_, '_, S>,
        idx: &Expr,
        value: &Expr,
        mask: u32,
        pc: usize,
        scratch: &'s mut [[Value; 32]],
    ) -> ERes<([u64; 32], &'s [Value; 32])> {
        // One arena slot serves both operands: the raw index values are
        // dead once converted to `addrs`, so the value evaluation reuses
        // their buffer.
        let (vals, rest) = scratch.split_first_mut().expect("scratch sized per kernel");
        eval_vec(env, self, idx, mask, pc, vals, rest)?;
        let mut addrs = [0u64; 32];
        try_lanes(mask, |l| {
            addrs[l] = vals[l].as_index().map_err(ev)?;
            Ok(())
        })?;
        eval_vec(env, self, value, mask, pc, vals, rest)?;
        Ok((addrs, vals))
    }
}

/// Mutable per-block execution state. Generic over the trace sink so the
/// untraced instantiation ([`NullSink`], `ENABLED = false`) monomorphizes
/// every `if S::ENABLED` guard away and stays the exact pre-trace code.
struct Env<'a, 'b, S: TraceSink> {
    ctx: &'a GridCtx<'a>,
    /// This block's shared allocations (bit patterns).
    shared: &'b mut [Vec<u64>],
    cost: BlockCost,
    shadow: Option<&'b mut ShadowMemory>,
    /// Where cost events land when tracing.
    sink: &'b mut S,
    block_lin: u64,
    /// Block coordinates, block/grid dims as i64 (expression operands).
    block: [i64; 3],
    bdim: [i64; 3],
    gdim: [i64; 3],
}

fn axis_of(coords: &[i64; 3], a: Axis) -> i64 {
    match a {
        Axis::X => coords[0],
        Axis::Y => coords[1],
        Axis::Z => coords[2],
    }
}

fn oob(block: u64, kind: &str, buf: usize, idx: u64, len: u64, pc: usize) -> Box<SimError> {
    Box::new(lift_err(
        InterpError::OutOfBounds {
            what: format!("{kind} buffer {buf}"),
            idx,
            len,
            pc,
        },
        block,
    ))
}

/// Hot-path error type: [`SimError`] is large (it carries report
/// structures and strings), and moving it by value through every
/// per-lane `Result` measurably dominated the executor. Boxing keeps
/// the `Ok` path pointer-sized; errors themselves are cold.
type ERes<T> = Result<T, Box<SimError>>;

/// [`Warp::exec`] return value meaning "the converged scheduler must
/// rescan": the warp diverged or a lane changed status. Doubles as
/// an impossible pc — `sched` uses the same sentinel for unrunnable.
const RESCAN: u32 = u32::MAX;

/// Wraps an evaluation-error message (cold path).
#[cold]
fn ev(msg: String) -> Box<SimError> {
    Box::new(SimError::Eval(msg))
}

/// Evaluates an expression for every masked lane into `out`. Memory
/// loads bounds-check per lane, feed the shadow race detector, and
/// charge the cost model one warp-access group per AST node — which is
/// exactly the reference path's `(warp, pc, occurrence)` grouping,
/// because every masked lane visits the same nodes in the same order.
///
/// `scratch` supplies the right-hand-side buffer of every `Bin` node
/// ([`scratch_depth`] sizes it so the splits can never run dry).
/// Buffers come back with stale lanes from earlier nodes; that is fine
/// because only `mask` lanes are ever read, and those are always
/// freshly written.
fn eval_vec<S: TraceSink>(
    env: &mut Env<'_, '_, S>,
    warp: &Warp,
    e: &Expr,
    mask: u32,
    pc: usize,
    out: &mut [Value; 32],
    scratch: &mut [[Value; 32]],
) -> ERes<()> {
    match e {
        Expr::LitF(v) => splat(out, mask, Value::F(*v)),
        Expr::LitI(v) => splat(out, mask, Value::I(*v)),
        Expr::LitB(v) => splat(out, mask, Value::B(*v)),
        Expr::BlockIdx(a) => splat(out, mask, Value::I(axis_of(&env.block, *a))),
        Expr::BlockDim(a) => splat(out, mask, Value::I(axis_of(&env.bdim, *a))),
        Expr::GridDim(a) => splat(out, mask, Value::I(axis_of(&env.gdim, *a))),
        Expr::ThreadIdx(a) => {
            let ax = match a {
                Axis::X => &warp.tcoord[0],
                Axis::Y => &warp.tcoord[1],
                Axis::Z => &warp.tcoord[2],
            };
            for_lanes(mask, |l| out[l] = Value::I(ax[l]));
        }
        Expr::Local(i) => {
            let slot = warp
                .regs
                .get(*i)
                .ok_or_else(|| ev(format!("local {i} out of range")))?;
            for_lanes(mask, |l| out[l] = slot[l]);
        }
        Expr::LoadGlobal { buf, idx } => {
            eval_vec(env, warp, idx, mask, pc, out, scratch)?;
            let view = env
                .ctx
                .global
                .get(*buf)
                .copied()
                .ok_or_else(|| ev(format!("global buffer {buf} missing")))?;
            let elem = env.ctx.global_elems[*buf];
            let mut addrs = [0u64; 32];
            let mut group = [0u64; 32];
            let mut n = 0;
            let block_lin = env.block_lin;
            try_lanes(mask, |l| {
                let i = out[l].as_index().map_err(ev)?;
                if i >= view.len() as u64 {
                    return Err(oob(block_lin, "global", *buf, i, view.len() as u64, pc));
                }
                out[l] = Value::from_bits(view[i as usize].load(Ordering::Relaxed), elem);
                addrs[l] = i;
                group[n] = i;
                n += 1;
                Ok(())
            })?;
            if let Some(sh) = env.shadow.as_deref_mut() {
                sh.group::<READ>(true, *buf, &addrs, warp.base, mask, pc as u32);
            }
            let gc = env
                .cost
                .global_group(&mut group[..n], elem.size_bytes(), false);
            if S::ENABLED {
                env.sink
                    .mem_group(warp.widx as u32, pc as u32, true, false, n as u32, gc);
            }
        }
        Expr::LoadShared { buf, idx } => {
            eval_vec(env, warp, idx, mask, pc, out, scratch)?;
            let decl = env
                .ctx
                .shared_decls
                .get(*buf)
                .ok_or_else(|| ev(format!("shared buffer {buf} missing")))?;
            let elem = decl.elem;
            let mut addrs = [0u64; 32];
            let mut group = [0u64; 32];
            let mut n = 0;
            let block_lin = env.block_lin;
            let buf_mem = &env.shared[*buf];
            let len = buf_mem.len() as u64;
            try_lanes(mask, |l| {
                let i = out[l].as_index().map_err(ev)?;
                if i >= len {
                    return Err(oob(block_lin, "shared", *buf, i, len, pc));
                }
                out[l] = Value::from_bits(buf_mem[i as usize], elem);
                addrs[l] = i;
                group[n] = i;
                n += 1;
                Ok(())
            })?;
            if let Some(sh) = env.shadow.as_deref_mut() {
                sh.group::<READ>(false, *buf, &addrs, warp.base, mask, pc as u32);
            }
            let gc = env
                .cost
                .shared_group(&mut group[..n], elem.size_bytes(), false);
            if S::ENABLED {
                env.sink
                    .mem_group(warp.widx as u32, pc as u32, false, false, n as u32, gc);
            }
        }
        Expr::Bin(op, a, b) => {
            eval_vec(env, warp, a, mask, pc, out, scratch)?;
            let (rhs, rest) = scratch.split_first_mut().expect("scratch sized per kernel");
            eval_vec(env, warp, b, mask, pc, rhs, rest)?;
            if !bin_fast(*op, mask, out, rhs)? {
                try_lanes(mask, |l| {
                    out[l] = apply_bin(*op, out[l], rhs[l]).map_err(ev)?;
                    Ok(())
                })?;
            }
        }
        Expr::Un(op, a) => {
            eval_vec(env, warp, a, mask, pc, out, scratch)?;
            try_lanes(mask, |l| {
                out[l] = match (op, out[l]) {
                    (UnOp::Neg, Value::F(x)) => Value::F(-x),
                    (UnOp::Neg, Value::I(x)) => Value::I(-x),
                    (UnOp::Not, Value::B(x)) => Value::B(!x),
                    (o, v) => return Err(ev(format!("cannot apply {o:?} to {v:?}"))),
                };
                Ok(())
            })?;
        }
    }
    Ok(())
}

fn splat(out: &mut [Value; 32], mask: u32, v: Value) {
    for_lanes(mask, |l| out[l] = v);
}

/// Warp-wide binary op for a converged full warp over homogeneous
/// operand types: one op/type dispatch for all 32 lanes instead of
/// [`apply_bin`]'s full `(op, a, b)` match per lane. Semantics mirror
/// `apply_bin` exactly — checked integer arithmetic with its error
/// text, errors surfacing in lane order. Returns `false` (untouched
/// `out`) when the shape doesn't fit, so the caller falls back to the
/// general per-lane path.
fn bin_fast(op: BinOp, mask: u32, out: &mut [Value; 32], rhs: &[Value; 32]) -> ERes<bool> {
    use BinOp::*;
    use Value::{B, F, I};
    if mask != u32::MAX {
        return Ok(false);
    }
    // The type scans are two-discriminant checks the compiler
    // vectorizes; a mixed-type warp (possible — locals are dynamically
    // typed) bails to the general path.
    if out
        .iter()
        .zip(rhs)
        .all(|(a, b)| matches!((a, b), (I(_), I(_))))
    {
        // Checked lanes stop before writing the failing lane, so the
        // error text can be built from the still-intact operands.
        macro_rules! ii {
            ($f:expr) => {
                for l in 0..WARP_SIZE {
                    let (I(x), I(y)) = (out[l], rhs[l]) else {
                        unreachable!()
                    };
                    out[l] = $f(x, y)?;
                }
            };
        }
        let overflow =
            |what: &str, x: i64, y: i64| ev(format!("integer overflow in {x} {what} {y}"));
        match op {
            Add => ii!(|x: i64, y: i64| x.checked_add(y).map(I).ok_or_else(|| overflow("+", x, y))),
            Sub => ii!(|x: i64, y: i64| x.checked_sub(y).map(I).ok_or_else(|| overflow("-", x, y))),
            Mul => ii!(|x: i64, y: i64| x.checked_mul(y).map(I).ok_or_else(|| overflow("*", x, y))),
            Div => ii!(|x: i64, y: i64| {
                if y == 0 {
                    return Err(ev("integer division by zero".into()));
                }
                x.checked_div(y).map(I).ok_or_else(|| overflow("/", x, y))
            }),
            Mod => ii!(|x: i64, y: i64| {
                if y == 0 {
                    return Err(ev("modulo by zero".into()));
                }
                x.checked_rem(y).map(I).ok_or_else(|| overflow("%", x, y))
            }),
            Min => ii!(|x: i64, y: i64| ERes::Ok(I(x.min(y)))),
            Max => ii!(|x: i64, y: i64| ERes::Ok(I(x.max(y)))),
            Lt => ii!(|x, y| ERes::Ok(B(x < y))),
            Le => ii!(|x, y| ERes::Ok(B(x <= y))),
            Gt => ii!(|x, y| ERes::Ok(B(x > y))),
            Ge => ii!(|x, y| ERes::Ok(B(x >= y))),
            Eq => ii!(|x, y| ERes::Ok(B(x == y))),
            Ne => ii!(|x, y| ERes::Ok(B(x != y))),
            And | Or => return Ok(false),
        }
        return Ok(true);
    }
    if out
        .iter()
        .zip(rhs)
        .all(|(a, b)| matches!((a, b), (F(_), F(_))))
    {
        macro_rules! ff {
            ($f:expr) => {
                for l in 0..WARP_SIZE {
                    let (F(x), F(y)) = (out[l], rhs[l]) else {
                        unreachable!()
                    };
                    out[l] = $f(x, y);
                }
            };
        }
        match op {
            Add => ff!(|x, y| F(x + y)),
            Sub => ff!(|x, y| F(x - y)),
            Mul => ff!(|x, y| F(x * y)),
            Div => ff!(|x, y| F(x / y)),
            Min => ff!(|x: f64, y: f64| F(x.min(y))),
            Max => ff!(|x: f64, y: f64| F(x.max(y))),
            Lt => ff!(|x, y| B(x < y)),
            Le => ff!(|x, y| B(x <= y)),
            Gt => ff!(|x, y| B(x > y)),
            Ge => ff!(|x, y| B(x >= y)),
            Eq => ff!(|x, y| B(x == y)),
            Ne => ff!(|x, y| B(x != y)),
            And | Or | Mod => return Ok(false),
        }
        return Ok(true);
    }
    Ok(false)
}

/// Runs `f` on every lane in `mask`. A fully converged warp (all 32
/// lanes set — the common case for straight-line code) takes a
/// straight counted loop the compiler can unroll and vectorize; a
/// divergent mask walks its set bits. The bit walk costs ~4 cycles of
/// loop-carried dependency per lane, which dominated the executor
/// before this split.
#[inline(always)]
pub(crate) fn for_lanes(mask: u32, mut f: impl FnMut(usize)) {
    if mask == u32::MAX {
        for l in 0..WARP_SIZE {
            f(l);
        }
    } else {
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            f(l);
        }
    }
}

/// Fallible [`for_lanes`]: stops at the first lane error, in lane order.
#[inline(always)]
fn try_lanes(mask: u32, mut f: impl FnMut(usize) -> ERes<()>) -> ERes<()> {
    if mask == u32::MAX {
        for l in 0..WARP_SIZE {
            f(l)?;
        }
    } else {
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            f(l)?;
        }
    }
    Ok(())
}

/// Lane-wide value buffers the arena must hold so every `split_first_mut`
/// in [`Warp::exec`] and [`eval_vec`] succeeds: the worst case over all
/// instructions of (operand buffers the instruction itself splits off)
/// plus (buffers live at the deepest point of its expression trees).
/// Only `Bin` holds a buffer across a recursive call, so an expression
/// needs `max(need(lhs), 1 + need(rhs))`.
fn scratch_depth(code: &[Instr]) -> usize {
    fn need(e: &Expr) -> usize {
        match e {
            Expr::Bin(_, a, b) => need(a).max(1 + need(b)),
            Expr::Un(_, a) => need(a),
            Expr::LoadGlobal { idx, .. } | Expr::LoadShared { idx, .. } => need(idx),
            _ => 0,
        }
    }
    code.iter()
        .map(|i| match i {
            Instr::SetLocal(_, e) | Instr::JumpIfFalse(e, _) | Instr::Shfl { value: e, .. } => {
                1 + need(e)
            }
            Instr::StoreGlobal { idx, value, .. }
            | Instr::StoreShared { idx, value, .. }
            | Instr::AtomicGlobal { idx, value, .. }
            | Instr::AtomicShared { idx, value, .. } => 1 + need(idx).max(need(value)),
            Instr::Jump(_) | Instr::Barrier | Instr::Halt => 0,
        })
        .max()
        .unwrap_or(0)
}

/// Per-worker reusable block state: warps, shared-memory backing and
/// the operand-buffer arena. Allocating these per block was a
/// measurable fraction of paper-scale launches; a worker builds one
/// `BlockScratch` and [`run_block`] resets it instead. Thread
/// coordinates and the arena depth depend only on the kernel and block
/// shape, so they are computed once here.
pub(crate) struct BlockScratch {
    warps: Vec<Warp>,
    shared: Vec<Vec<u64>>,
    arena: Vec<[Value; 32]>,
}

impl BlockScratch {
    pub(crate) fn new(ctx: &GridCtx<'_>) -> BlockScratch {
        let nwarps = ctx.threads_per_block.div_ceil(WARP_SIZE);
        BlockScratch {
            warps: (0..nwarps)
                .map(|widx| {
                    let base = widx * WARP_SIZE;
                    let n = (ctx.threads_per_block - base).min(WARP_SIZE);
                    Warp::new(base as u32, n, widx, ctx.local_count, ctx.block_dim)
                })
                .collect(),
            shared: ctx
                .shared_decls
                .iter()
                .map(|s| vec![0u64; s.len as usize])
                .collect(),
            arena: vec![[Value::I(0); 32]; scratch_depth(ctx.code)],
        }
    }

    fn reset(&mut self) {
        for w in self.warps.iter_mut() {
            w.reset();
        }
        for s in self.shared.iter_mut() {
            s.fill(0);
        }
        // The arena needs no reset: only masked lanes are read, and
        // those are freshly written before every read.
    }
}

/// Runs one block to completion: barrier-interval loop over all warps,
/// with per-interval cost accounting and barrier-consistency checks
/// identical to the reference path.
///
/// `tracing` selects the sink instantiation: `false` runs the
/// [`NullSink`] monomorphization (bit-identical to the pre-trace
/// executor), `true` records every cost event into a [`BlockTrace`]
/// returned on the outcome.
pub(crate) fn run_block(
    ctx: &GridCtx<'_>,
    block_lin: u64,
    shadow: Option<&mut ShadowMemory>,
    bs: &mut BlockScratch,
    tracing: bool,
) -> Result<BlockOutcome, SimError> {
    if tracing {
        let mut rec = Recorder::new();
        let mut out = run_block_sink(ctx, block_lin, shadow, bs, &mut rec)?;
        out.trace = Some(rec.finish_block(block_lin, out.cycles));
        Ok(out)
    } else {
        run_block_sink(ctx, block_lin, shadow, bs, &mut NullSink)
    }
}

/// [`run_block`] body, monomorphized per sink.
fn run_block_sink<S: TraceSink>(
    ctx: &GridCtx<'_>,
    block_lin: u64,
    mut shadow: Option<&mut ShadowMemory>,
    bs: &mut BlockScratch,
    sink: &mut S,
) -> Result<BlockOutcome, SimError> {
    let gd = ctx.grid_dim;
    let block = [
        (block_lin % gd[0]) as i64,
        ((block_lin / gd[0]) % gd[1]) as i64,
        (block_lin / (gd[0] * gd[1])) as i64,
    ];
    if let Some(sh) = shadow.as_deref_mut() {
        sh.begin_block(ctx.global_lens, ctx.shared_lens);
    }
    bs.reset();
    let BlockScratch {
        warps,
        shared,
        arena,
    } = bs;
    let mut env = Env {
        ctx,
        shared,
        cost: BlockCost::new(ctx.model.clone()),
        shadow,
        sink,
        block_lin,
        block,
        bdim: [
            ctx.block_dim[0] as i64,
            ctx.block_dim[1] as i64,
            ctx.block_dim[2] as i64,
        ],
        gdim: [gd[0] as i64, gd[1] as i64, gd[2] as i64],
    };
    let threads = ctx.threads_per_block;
    // One iteration per barrier interval.
    loop {
        if warps.iter().map(|w| w.done).sum::<usize>() == threads {
            break;
        }
        for w in warps.iter_mut() {
            w.run_interval(&mut env, arena)?;
        }
        let mut instrs = 0u64;
        let mut instr_cycles = 0u64;
        for w in warps.iter_mut() {
            let mut max_delta = 0u64;
            for l in 0..w.n {
                let d = w.instr_count[l] - w.instr_before[l];
                w.instr_before[l] = w.instr_count[l];
                max_delta = max_delta.max(d);
            }
            instrs += max_delta;
            instr_cycles += env.cost.warp_instrs(max_delta);
        }
        let finished: usize = warps.iter().map(|w| w.done).sum();
        let at_barrier = threads - finished;
        let had_barrier = at_barrier > 0;
        let mut barrier_cycles = 0;
        if had_barrier {
            barrier_cycles = env.cost.barrier();
        }
        if S::ENABLED {
            // The consistency checks below error out on divergent
            // barriers, so any lane's stop records the interval's
            // closing barrier location.
            let barrier_pc = had_barrier.then(|| match warps[0].status[0] {
                Lane::Barrier(p) => p as u32,
                _ => u32::MAX,
            });
            env.sink
                .interval_end(instrs, instr_cycles, barrier_pc, barrier_cycles);
        }
        if let Some(sh) = env.shadow.as_deref_mut() {
            sh.end_interval();
        }
        // Barrier consistency: every thread must be at the same barrier,
        // or every thread must be done.
        if had_barrier {
            if finished > 0 {
                return Err(SimError::BarrierDivergence {
                    block: block_lin,
                    detail: format!(
                        "{at_barrier} thread(s) wait at a barrier while {finished} already finished"
                    ),
                });
            }
            let first = warps[0].status[0];
            if warps
                .iter()
                .any(|w| w.status[..w.n].iter().any(|s| *s != first))
            {
                return Err(SimError::BarrierDivergence {
                    block: block_lin,
                    detail: "threads wait at different barriers".into(),
                });
            }
            for w in warps.iter_mut() {
                for l in 0..w.n {
                    if matches!(w.status[l], Lane::Barrier(_)) {
                        w.status[l] = Lane::Run;
                        w.sched[l] = w.pc[l] as u32;
                    }
                }
            }
        }
    }
    let (race, runs) = match env.shadow.as_deref_mut() {
        Some(sh) => sh.end_block(),
        None => (None, Box::default()),
    };
    let (cycles, stats) = env.cost.finish();
    Ok(BlockOutcome {
        cycles,
        stats,
        race,
        runs,
        trace: None,
    })
}
