//! The warp-vectorized block executor.
//!
//! The reference interpreter in [`crate::interp`] steps one thread at a
//! time through the bytecode and replays an access log for cost and race
//! accounting. This module runs the same [`Program`] a whole warp per
//! dispatch instead: each warp keeps a 32-lane-wide register file, every
//! step executes the runnable lanes at the *minimum* program counter
//! together under a lane mask, an instruction's ops run in one flat loop
//! over lane-wide temporaries ([`Lanes`]: a type tag and raw bits per
//! lane, so a converged warp dispatches once per op, not once per lane),
//! and the lanes of one memory op feed the cost model and the shadow race
//! detector directly — no per-access log, no replay.
//!
//! Minimum-pc scheduling reconverges divergent lanes exactly where the
//! structured bytecode does: branch arms and loop bodies occupy
//! contiguous pc ranges, so a lane past a region never advances while a
//! sibling is still inside it. The numbers produced (cycles, stats, race
//! verdicts) match the reference path; `tests/sim_scale.rs` pins that
//! equivalence differentially.

use crate::cost::{BlockCost, CostModel, LaunchStats};
use crate::device::{lift_err, SimError, WARP_SIZE};
use crate::interp::{
    apply_atomic, apply_bin, apply_un, Instr, InterpError, Op, Operand, Program, Src, Value,
};
use crate::ir::{BinOp, ElemTy, SharedDecl, ShflOp};
use crate::race::{RaceReport, Run, ShadowMemory, ATOMIC, READ, WRITE};
use descend_trace::{BlockTrace, NullSink, Recorder, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};

/// Everything immutable a block needs to execute; shared by all worker
/// threads of one launch.
pub(crate) struct GridCtx<'a> {
    /// The kernel's bytecode.
    pub(crate) prog: &'a Program,
    /// `prog`'s literals, each splatted across the lanes.
    pub(crate) consts: Vec<Lanes>,
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

/// A lane-wide value: one [`Value`] per lane, stored as a type tag and
/// raw bits per lane ([`Value::to_bits`]). Keeping the two apart lets a
/// warp-wide op check all 32 tags with one comparison and then compute on
/// plain `i64`/`f64` arrays the compiler vectorizes.
#[derive(Clone, Copy)]
pub(crate) struct Lanes {
    tags: [u8; 32],
    bits: [u64; 32],
}

const TAG_F: u8 = 0;
const TAG_I: u8 = 1;
const TAG_B: u8 = 2;

impl Lanes {
    pub(crate) fn splat(v: Value) -> Lanes {
        let mut lanes = Lanes {
            tags: [0; 32],
            bits: [0; 32],
        };
        for l in 0..WARP_SIZE {
            lanes.set(l, v);
        }
        lanes
    }

    #[inline(always)]
    fn get(&self, l: usize) -> Value {
        match self.tags[l] {
            TAG_F => Value::F(f64::from_bits(self.bits[l])),
            TAG_I => Value::I(self.bits[l] as i64),
            _ => Value::B(self.bits[l] != 0),
        }
    }

    #[inline(always)]
    fn set(&mut self, l: usize, v: Value) {
        self.tags[l] = match v {
            Value::F(_) => TAG_F,
            Value::I(_) => TAG_I,
            Value::B(_) => TAG_B,
        };
        self.bits[l] = v.to_bits();
    }

    /// Copies lane `l` of `from`.
    #[inline(always)]
    fn copy_lane(&mut self, from: &Lanes, l: usize) {
        self.tags[l] = from.tags[l];
        self.bits[l] = from.bits[l];
    }

    /// Loads the masked lanes from a buffer of `elem`s: lane `l` decodes
    /// ([`Value::from_bits`]) the bits `read(addrs[l])` returns.
    #[inline(always)]
    fn gather(&mut self, mask: u32, addrs: &[u64; 32], elem: ElemTy, read: impl Fn(usize) -> u64) {
        match elem {
            // Decoding keeps these bits as they are: one tag for all.
            ElemTy::F64 | ElemTy::F32 | ElemTy::I32 => {
                let tag = if elem == ElemTy::I32 { TAG_I } else { TAG_F };
                for_lanes(mask, |l| {
                    self.tags[l] = tag;
                    self.bits[l] = read(addrs[l] as usize);
                });
            }
            ElemTy::U32 | ElemTy::Bool => {
                for_lanes(mask, |l| {
                    self.set(l, Value::from_bits(read(addrs[l] as usize), elem))
                });
            }
        }
    }

    /// The masked lanes as element indices below `len`, each converted
    /// ([`Value::as_index`]) and then bounds-checked, the first failing
    /// lane's error reported (`oob` builds a bounds error). Lanes outside
    /// `mask` hold unspecified bits.
    #[inline(always)]
    fn indices(&self, mask: u32, len: u64, oob: impl Fn(u64) -> Box<SimError>) -> ERes<[u64; 32]> {
        // Fast path: every masked lane is an integer in `0..len` (a
        // negative one reads as a huge `u64`).
        let mut ok = true;
        for_lanes(mask, |l| {
            ok &= self.tags[l] == TAG_I && self.bits[l] < len && (self.bits[l] as i64) >= 0;
        });
        if ok {
            return Ok(self.bits);
        }
        try_lanes(mask, |l| {
            let i = self.get(l).as_index().map_err(ev)?;
            if i >= len {
                return Err(oob(i));
            }
            Ok(())
        })?;
        unreachable!("a lane failed the fast check")
    }

    /// Whether every lane (masked or not) holds a value of type `tag`.
    #[inline(always)]
    fn all(&self, tag: u8) -> bool {
        self.tags == [tag; 32]
    }
}

/// Per-lane execution status within the current barrier interval. A
/// suspended lane's pc is one past the shuffle or barrier it waits at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lane {
    /// Runnable.
    Run,
    /// Suspended at a shuffle, operand staged.
    Shfl,
    /// Suspended at a barrier.
    Barrier,
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
    /// Per-lane program counter (a converged run moves its lanes only
    /// when it stops, see [`Warp::exec`]).
    pc: [usize; 32],
    /// Scheduling view of `pc`: the pc of every `Lane::Run` lane, and
    /// `u32::MAX` for suspended/done lanes. Kept as `u32` in its own
    /// array so the scheduler's min-scan and mask build vectorize
    /// (bytecode is always far below 2^32 instructions).
    sched: [u32; 32],
    /// Per-lane status.
    status: [Lane; 32],
    /// Register file, slot-major: `regs[slot]` holds every lane's local.
    regs: Vec<Lanes>,
    /// Operands staged by suspended shuffles.
    staged: Lanes,
    /// Lanes (among the `n` active ones) that have run to completion.
    done: usize,
    /// Per-lane executed-instruction weight in the current interval
    /// (cost model; lanes past `n` stay 0).
    instr_count: [u64; 32],
    /// Per-lane thread coordinates, axis-major.
    tcoord: [Lanes; 3],
}

impl Warp {
    fn new(base: u32, n: usize, widx: usize, local_count: usize, bd: [u64; 3]) -> Warp {
        let mut tcoord = [Lanes::splat(Value::I(0)); 3];
        for l in 0..n {
            let t = u64::from(base) + l as u64;
            tcoord[0].set(l, Value::I((t % bd[0]) as i64));
            tcoord[1].set(l, Value::I(((t / bd[0]) % bd[1]) as i64));
            tcoord[2].set(l, Value::I((t / (bd[0] * bd[1])) as i64));
        }
        let mut warp = Warp {
            base,
            n,
            widx,
            pc: [0; 32],
            sched: [u32::MAX; 32],
            status: [Lane::Done; 32],
            regs: vec![Lanes::splat(Value::I(0)); local_count],
            staged: Lanes::splat(Value::I(0)),
            done: 0,
            instr_count: [0; 32],
            tcoord,
        };
        warp.reset();
        warp
    }

    /// Returns the warp to its launch state so the next block can reuse
    /// its allocations (thread coordinates depend only on the lane, so
    /// they carry over unchanged).
    fn reset(&mut self) {
        self.status[..self.n].fill(Lane::Run);
        self.sched[..self.n].fill(0);
        self.pc = [0; 32];
        self.done = 0;
        self.instr_count = [0; 32];
        self.regs.fill(Lanes::splat(Value::I(0)));
    }

    /// Runs the warp to the end of the current barrier interval: every
    /// lane ends `Barrier` or `Done`, with in-warp shuffles resolved.
    fn run_interval<S: TraceSink>(
        &mut self,
        env: &mut Env<'_, '_, S>,
        temps: &mut [Lanes],
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
                if self.status[..self.n].contains(&Lane::Shfl) {
                    self.resolve_shuffle(env)?;
                    continue;
                }
                return Ok(());
            }
            let mut mask = 0u32;
            for l in 0..WARP_SIZE {
                mask |= u32::from(self.sched[l] == min_pc) << l;
            }
            let weights = &env.ctx.prog.weights;
            let mut pc = min_pc as usize;
            if mask.count_ones() == live {
                // Converged: every live lane executes together, and
                // straight-line instructions, jumps, and *uniform*
                // branches keep it that way — run ahead without
                // rescanning until divergence or a status change
                // forces a rescan (`exec` returns `RESCAN`).
                let mut weight = 0;
                loop {
                    weight += weights[pc];
                    let next = self.exec(env, pc, mask, temps).map_err(|e| *e)?;
                    if next == RESCAN {
                        break;
                    }
                    pc = next as usize;
                }
                self.charge(mask, weight);
            } else {
                let next = self.exec(env, pc, mask, temps).map_err(|e| *e)?;
                if next != RESCAN {
                    let (pcs, sched) = (&mut self.pc, &mut self.sched);
                    for_lanes(mask, |l| {
                        pcs[l] = next as usize;
                        sched[l] = next;
                    });
                }
                self.charge(mask, weights[pc]);
            }
        }
    }

    /// Adds executed-instruction weight to the masked lanes.
    fn charge(&mut self, mask: u32, weight: u64) {
        let counts = &mut self.instr_count;
        for_lanes(mask, |l| counts[l] += weight);
    }

    /// Exchanges staged shuffle operands once every lane of the warp
    /// waits at the same shuffle (the lockstep requirement the reference
    /// path enforces, with identical diagnostics).
    fn resolve_shuffle<S: TraceSink>(&mut self, env: &mut Env<'_, '_, S>) -> Result<(), SimError> {
        let pc = (0..self.n)
            .find(|&l| self.status[l] == Lane::Shfl)
            .map(|l| self.pc[l] - 1)
            .expect("caller saw a suspended shuffle");
        for l in 0..self.n {
            if self.status[l] != Lane::Shfl || self.pc[l] != pc + 1 {
                return Err(SimError::ShuffleDivergence {
                    block: env.block_lin,
                    detail: format!(
                        "lane {l} of warp {} did not reach the shuffle at pc {pc} its sibling lanes wait at",
                        self.widx
                    ),
                });
            }
        }
        let Instr::Shfl { dst, op, delta, .. } = env.ctx.prog.code[pc] else {
            unreachable!("shuffle stops point at shuffle instructions")
        };
        let n = self.n;
        let mut received = [Value::I(0); 32];
        for (i, r) in received.iter_mut().enumerate().take(n) {
            let src = match op {
                ShflOp::Down => i + delta as usize,
                ShflOp::Xor => i ^ delta as usize,
            };
            *r = if src >= WARP_SIZE {
                // Beyond the 32-lane warp boundary: the lane keeps its
                // own value (CUDA clamps).
                self.staged.get(i)
            } else if src < n {
                self.staged.get(src)
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
            self.regs[dst].set(l, *r);
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

    /// Executes the instruction at `pc` for the masked lanes and returns
    /// where they continue: `pc + 1` after a straight-line instruction,
    /// the shared target of a jump or of a branch every masked lane
    /// resolves the same way (loop back-edge conditions almost always
    /// do), or [`RESCAN`] after a branch that diverged or a status change
    /// (barrier, shuffle, halt) — in which case this has already moved
    /// the lanes. Otherwise the caller moves them, and charges the
    /// instruction's weight either way: a converged run needs neither per
    /// instruction, only once at its end.
    ///
    /// `temps` is the per-block arena of lane-wide temporaries, sized by
    /// [`Program::temp_count`]: every op writes its result into one, and
    /// every operand ends up in `temps[0]`. Stale lanes are harmless —
    /// every consumer reads only lanes in `mask`, and every op writes
    /// exactly those lanes first.
    fn exec<S: TraceSink>(
        &mut self,
        env: &mut Env<'_, '_, S>,
        pc: usize,
        mask: u32,
        temps: &mut [Lanes],
    ) -> ERes<u32> {
        let block_lin = env.block_lin;
        let next = pc as u32 + 1;
        match env.ctx.prog.code[pc] {
            Instr::SetLocal { dst, value } => {
                self.operand(env, value, mask, pc, temps)?;
                let (vals, slot) = (&temps[0], &mut self.regs[dst]);
                for_lanes(mask, |l| slot.copy_lane(vals, l));
                Ok(next)
            }
            Instr::StoreGlobal { buf, idx, value } => {
                let addrs = self.store_operands(env, idx, value, mask, pc, temps)?;
                let vals = &temps[0];
                let view = env.ctx.global[buf];
                let elem = env.ctx.global_elems[buf];
                try_lanes(mask, |l| {
                    let i = addrs[l];
                    if i >= view.len() as u64 {
                        return Err(oob(block_lin, "global", buf, i, view.len() as u64, pc));
                    }
                    let bits = vals.get(l).to_elem_bits(elem).map_err(ev)?;
                    view[i as usize].store(bits, Ordering::Relaxed);
                    Ok(())
                })?;
                self.account::<WRITE, S>(env, true, buf, &addrs, mask, pc);
                Ok(next)
            }
            Instr::StoreShared { buf, idx, value } => {
                let addrs = self.store_operands(env, idx, value, mask, pc, temps)?;
                let vals = &temps[0];
                let elem = env.ctx.shared_decls[buf].elem;
                let buf_mem = &mut env.shared[buf];
                let len = buf_mem.len() as u64;
                try_lanes(mask, |l| {
                    let i = addrs[l];
                    if i >= len {
                        return Err(oob(block_lin, "shared", buf, i, len, pc));
                    }
                    buf_mem[i as usize] = vals.get(l).to_elem_bits(elem).map_err(ev)?;
                    Ok(())
                })?;
                self.account::<WRITE, S>(env, false, buf, &addrs, mask, pc);
                Ok(next)
            }
            Instr::AtomicGlobal {
                op,
                buf,
                idx,
                value,
            } => {
                let addrs = self.store_operands(env, idx, value, mask, pc, temps)?;
                let vals = &temps[0];
                let view = env.ctx.global[buf];
                let elem = env.ctx.global_elems[buf];
                try_lanes(mask, |l| {
                    let i = addrs[l];
                    if i >= view.len() as u64 {
                        return Err(oob(block_lin, "global", buf, i, view.len() as u64, pc));
                    }
                    // Lock-free RMW so concurrently executing blocks
                    // serialize the way device atomics do.
                    let cell = &view[i as usize];
                    let mut cur = cell.load(Ordering::Relaxed);
                    loop {
                        let old = Value::from_bits(cur, elem);
                        let new = apply_atomic(op, old, vals.get(l)).map_err(ev)?;
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
                    Ok(())
                })?;
                self.account::<ATOMIC, S>(env, true, buf, &addrs, mask, pc);
                Ok(next)
            }
            Instr::AtomicShared {
                op,
                buf,
                idx,
                value,
            } => {
                let addrs = self.store_operands(env, idx, value, mask, pc, temps)?;
                let vals = &temps[0];
                let elem = env.ctx.shared_decls[buf].elem;
                let buf_mem = &mut env.shared[buf];
                let len = buf_mem.len() as u64;
                try_lanes(mask, |l| {
                    let i = addrs[l];
                    if i >= len {
                        return Err(oob(block_lin, "shared", buf, i, len, pc));
                    }
                    let old = Value::from_bits(buf_mem[i as usize], elem);
                    let new = apply_atomic(op, old, vals.get(l)).map_err(ev)?;
                    buf_mem[i as usize] = new.to_elem_bits(elem).map_err(ev)?;
                    Ok(())
                })?;
                self.account::<ATOMIC, S>(env, false, buf, &addrs, mask, pc);
                Ok(next)
            }
            Instr::JumpIfFalse { cond, target } => {
                self.operand(env, cond, mask, pc, temps)?;
                let vals = &temps[0];
                let (mut bools, mut taken) = (true, 0u32);
                for_lanes(mask, |l| {
                    bools &= vals.tags[l] == TAG_B;
                    taken |= u32::from(vals.bits[l] != 0) << l;
                });
                if !bools {
                    try_lanes(mask, |l| vals.get(l).truthy().map(|_| ()).map_err(ev))?;
                }
                if taken == mask {
                    return Ok(next);
                }
                if taken == 0 {
                    return Ok(target as u32);
                }
                let (pcs, sched) = (&mut self.pc, &mut self.sched);
                for_lanes(mask, |l| {
                    let to = if taken >> l & 1 != 0 { pc + 1 } else { target };
                    pcs[l] = to;
                    sched[l] = to as u32;
                });
                Ok(RESCAN)
            }
            Instr::Jump(target) => Ok(target as u32),
            Instr::Barrier => {
                self.suspend(mask, Lane::Barrier, next as usize);
                Ok(RESCAN)
            }
            Instr::Shfl { value, .. } => {
                self.operand(env, value, mask, pc, temps)?;
                let (staged, vals) = (&mut self.staged, &temps[0]);
                for_lanes(mask, |l| staged.copy_lane(vals, l));
                self.suspend(mask, Lane::Shfl, next as usize);
                Ok(RESCAN)
            }
            Instr::Halt => {
                self.done += mask.count_ones() as usize;
                self.suspend(mask, Lane::Done, pc);
                Ok(RESCAN)
            }
        }
    }

    /// Takes the masked lanes out of scheduling with the given status,
    /// their pc set to `resume_at`.
    fn suspend(&mut self, mask: u32, status: Lane, resume_at: usize) {
        let (st, pcs, sched) = (&mut self.status, &mut self.pc, &mut self.sched);
        for_lanes(mask, |l| {
            st[l] = status;
            pcs[l] = resume_at;
            sched[l] = u32::MAX;
        });
    }

    /// Evaluates a store-family instruction's operands in the reference
    /// interpreter's order: the index, converted per lane (errors in lane
    /// order), before the value, whose lanes end up in `temps[0]`; the
    /// caller's bounds checks come after both.
    fn store_operands<S: TraceSink>(
        &self,
        env: &mut Env<'_, '_, S>,
        idx: Operand,
        value: Operand,
        mask: u32,
        pc: usize,
        temps: &mut [Lanes],
    ) -> ERes<[u64; 32]> {
        self.operand(env, idx, mask, pc, temps)?;
        let addrs = temps[0].indices(mask, u64::MAX, |_| unreachable!("indices fit i64"))?;
        self.operand(env, value, mask, pc, temps)?;
        Ok(addrs)
    }

    /// Evaluates an operand for the masked lanes into `temps[0]`: its ops
    /// in order, each for all masked lanes. A load bounds-checks per lane,
    /// feeds the shadow race detector and charges the cost model one
    /// warp-access group — which is exactly the reference path's
    /// `(warp, pc, occurrence)` grouping, because every masked lane runs
    /// the same ops in the same order.
    fn operand<S: TraceSink>(
        &self,
        env: &mut Env<'_, '_, S>,
        o: Operand,
        mask: u32,
        pc: usize,
        temps: &mut [Lanes],
    ) -> ERes<()> {
        let ctx = env.ctx;
        for &op in &ctx.prog.ops[o.start as usize..o.end as usize] {
            match op {
                Op::Bin { op, dst, a, b } => {
                    // In place: `a` is `Temp(dst)` or a leaf, `b` is
                    // `Temp(dst + 1)` or a leaf.
                    let (out, rest) = temps[dst as usize..]
                        .split_first_mut()
                        .expect("arena sized by the program");
                    if a != Src::Temp(dst) {
                        *out = *self.leaf(env, a);
                    }
                    let rhs = match b {
                        Src::Temp(_) => &rest[0],
                        b => self.leaf(env, b),
                    };
                    if mask != u32::MAX || !bin_fast(op, out, rhs) {
                        try_lanes(mask, |l| {
                            out.set(l, apply_bin(op, out.get(l), rhs.get(l)).map_err(ev)?);
                            Ok(())
                        })?;
                    }
                }
                Op::Un { op, dst, a } => {
                    let mut out = *self.lanes(env, temps, a);
                    try_lanes(mask, |l| {
                        out.set(l, apply_un(op, out.get(l)).map_err(ev)?);
                        Ok(())
                    })?;
                    temps[dst as usize] = out;
                }
                Op::LoadGlobal { buf, dst, idx } => {
                    let buf = buf as usize;
                    let view = ctx.global[buf];
                    let (elem, len) = (ctx.global_elems[buf], view.len() as u64);
                    let block_lin = env.block_lin;
                    let addrs = self
                        .lanes(env, temps, idx)
                        .indices(mask, len, |i| oob(block_lin, "global", buf, i, len, pc))?;
                    temps[dst as usize]
                        .gather(mask, &addrs, elem, |i| view[i].load(Ordering::Relaxed));
                    self.account::<READ, S>(env, true, buf, &addrs, mask, pc);
                }
                Op::LoadShared { buf, dst, idx } => {
                    let buf = buf as usize;
                    let elem = ctx.shared_decls[buf].elem;
                    let buf_mem = &env.shared[buf];
                    let len = buf_mem.len() as u64;
                    let block_lin = env.block_lin;
                    let addrs = self
                        .lanes(env, temps, idx)
                        .indices(mask, len, |i| oob(block_lin, "shared", buf, i, len, pc))?;
                    temps[dst as usize].gather(mask, &addrs, elem, |i| buf_mem[i]);
                    self.account::<READ, S>(env, false, buf, &addrs, mask, pc);
                }
            }
        }
        if !matches!(o.src, Src::Temp(0)) {
            temps[0] = *self.lanes(env, temps, o.src);
        }
        Ok(())
    }

    /// The lanes of an operand, read in place.
    #[inline(always)]
    fn lanes<'s, S: TraceSink>(
        &'s self,
        env: &'s Env<'_, '_, S>,
        temps: &'s [Lanes],
        s: Src,
    ) -> &'s Lanes {
        match s {
            Src::Temp(t) => &temps[t as usize],
            leaf => self.leaf(env, leaf),
        }
    }

    /// The lanes of an operand that is not a temporary.
    #[inline(always)]
    fn leaf<'s, S: TraceSink>(&'s self, env: &'s Env<'_, '_, S>, s: Src) -> &'s Lanes {
        match s {
            Src::Const(k) => &env.ctx.consts[k as usize],
            Src::Uniform(k) => &env.uniform[usize::from(k)],
            Src::Thread(a) => &self.tcoord[usize::from(a)],
            Src::Local(i) => &self.regs[i as usize],
            Src::Temp(_) => unreachable!("temporaries are read from the arena"),
        }
    }

    /// Charges one warp memory access — lane `l` of `mask` touched
    /// element `addrs[l]` — to the race shadow, the cost model and the
    /// trace sink, in that order.
    fn account<const KIND: u8, S: TraceSink>(
        &self,
        env: &mut Env<'_, '_, S>,
        global: bool,
        buf: usize,
        addrs: &[u64; 32],
        mask: u32,
        pc: usize,
    ) {
        if let Some(sh) = env.shadow.as_deref_mut() {
            sh.group::<KIND>(global, buf, addrs, self.base, mask, pc as u32);
        }
        let mut group = [0u64; 32];
        let mut n = 0;
        for_lanes(mask, |l| {
            group[n] = addrs[l];
            n += 1;
        });
        let atomic = KIND == ATOMIC;
        let gc = if global {
            let esz = env.ctx.global_elems[buf].size_bytes();
            env.cost.global_group(&mut group[..n], esz, atomic)
        } else {
            let esz = env.ctx.shared_decls[buf].elem.size_bytes();
            env.cost.shared_group(&mut group[..n], esz, atomic)
        };
        if S::ENABLED {
            env.sink
                .mem_group(self.widx as u32, pc as u32, global, atomic, n as u32, gc);
        }
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
    /// Block coordinates, block and grid dims, splatted across the lanes
    /// (indexed by [`Src::Uniform`]).
    uniform: [Lanes; 9],
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

/// Warp-wide binary op for a converged full warp over all-integer or
/// all-float operands: one op/type dispatch for all 32 lanes instead of
/// [`apply_bin`]'s full `(op, a, b)` match per lane, on plain arrays.
/// Semantics mirror `apply_bin` exactly, because it bails — returning
/// `false` with `out` untouched — on any shape it does not cover and on any lane `apply_bin`
/// would reject (checked integer arithmetic), so the caller's per-lane
/// path reports the first failing lane's error.
fn bin_fast(op: BinOp, out: &mut Lanes, rhs: &Lanes) -> bool {
    use BinOp::*;
    let mut res = [0u64; 32];
    let tag = if out.all(TAG_I) && rhs.all(TAG_I) {
        let (x, y) = (&out.bits, &rhs.bits);
        // Each arm folds a per-lane `ok` so the loop has no early exit
        // and stays vectorizable.
        macro_rules! ii {
            ($f:expr) => {{
                let mut ok = true;
                for l in 0..WARP_SIZE {
                    let r: Option<i64> = $f(x[l] as i64, y[l] as i64);
                    ok &= r.is_some();
                    res[l] = r.unwrap_or(0) as u64;
                }
                if !ok {
                    return false;
                }
                TAG_I
            }};
        }
        macro_rules! cmp {
            ($f:expr) => {{
                for l in 0..WARP_SIZE {
                    res[l] = u64::from($f(x[l] as i64, y[l] as i64));
                }
                TAG_B
            }};
        }
        match op {
            Add => ii!(i64::checked_add),
            Sub => ii!(i64::checked_sub),
            Mul => ii!(i64::checked_mul),
            Div => ii!(i64::checked_div),
            Mod => ii!(i64::checked_rem),
            Min => ii!(|a: i64, b: i64| Some(a.min(b))),
            Max => ii!(|a: i64, b: i64| Some(a.max(b))),
            Lt => cmp!(|a, b| a < b),
            Le => cmp!(|a, b| a <= b),
            Gt => cmp!(|a, b| a > b),
            Ge => cmp!(|a, b| a >= b),
            Eq => cmp!(|a, b| a == b),
            Ne => cmp!(|a, b| a != b),
            And | Or => return false,
        }
    } else if out.all(TAG_F) && rhs.all(TAG_F) {
        let (x, y) = (&out.bits, &rhs.bits);
        macro_rules! ff {
            ($tag:expr, $f:expr) => {{
                for l in 0..WARP_SIZE {
                    res[l] = $f(f64::from_bits(x[l]), f64::from_bits(y[l]));
                }
                $tag
            }};
        }
        match op {
            Add => ff!(TAG_F, |a: f64, b: f64| (a + b).to_bits()),
            Sub => ff!(TAG_F, |a: f64, b: f64| (a - b).to_bits()),
            Mul => ff!(TAG_F, |a: f64, b: f64| (a * b).to_bits()),
            Div => ff!(TAG_F, |a: f64, b: f64| (a / b).to_bits()),
            Min => ff!(TAG_F, |a: f64, b: f64| a.min(b).to_bits()),
            Max => ff!(TAG_F, |a: f64, b: f64| a.max(b).to_bits()),
            Lt => ff!(TAG_B, |a: f64, b: f64| u64::from(a < b)),
            Le => ff!(TAG_B, |a: f64, b: f64| u64::from(a <= b)),
            Gt => ff!(TAG_B, |a: f64, b: f64| u64::from(a > b)),
            Ge => ff!(TAG_B, |a: f64, b: f64| u64::from(a >= b)),
            Eq => ff!(TAG_B, |a: f64, b: f64| u64::from(a == b)),
            Ne => ff!(TAG_B, |a: f64, b: f64| u64::from(a != b)),
            And | Or | Mod => return false,
        }
    } else {
        return false;
    };
    out.tags = [tag; 32];
    out.bits = res;
    true
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

/// Per-worker reusable block state: warps, shared-memory backing and
/// the operand-buffer arena. Allocating these per block was a
/// measurable fraction of paper-scale launches; a worker builds one
/// `BlockScratch` and [`run_block`] resets it instead. Thread
/// coordinates and the arena depth depend only on the kernel and block
/// shape, so they are computed once here.
pub(crate) struct BlockScratch {
    warps: Vec<Warp>,
    shared: Vec<Vec<u64>>,
    arena: Vec<Lanes>,
}

impl BlockScratch {
    pub(crate) fn new(ctx: &GridCtx<'_>) -> BlockScratch {
        let nwarps = ctx.threads_per_block.div_ceil(WARP_SIZE);
        BlockScratch {
            warps: (0..nwarps)
                .map(|widx| {
                    let base = widx * WARP_SIZE;
                    let n = (ctx.threads_per_block - base).min(WARP_SIZE);
                    Warp::new(base as u32, n, widx, ctx.prog.local_count, ctx.block_dim)
                })
                .collect(),
            shared: ctx
                .shared_decls
                .iter()
                .map(|s| vec![0u64; s.len as usize])
                .collect(),
            // At least the one every operand ends up in.
            arena: vec![Lanes::splat(Value::I(0)); ctx.prog.temp_count.max(1)],
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
        block_lin % gd[0],
        (block_lin / gd[0]) % gd[1],
        block_lin / (gd[0] * gd[1]),
    ];
    let mut uniform = [Lanes::splat(Value::I(0)); 9];
    for (lanes, v) in uniform
        .iter_mut()
        .zip(block.iter().chain(&ctx.block_dim).chain(&gd))
    {
        *lanes = Lanes::splat(Value::I(*v as i64));
    }
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
        uniform,
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
            let max_lane = w.instr_count.iter().fold(0, |m, c| m.max(*c));
            w.instr_count = [0; 32];
            instrs += max_lane;
            instr_cycles += env.cost.warp_instrs(max_lane);
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
                Lane::Barrier => (warps[0].pc[0] - 1) as u32,
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
            // Every thread waits at a barrier, and one waiting at the
            // barrier at `p` has pc `p + 1`: comparing pcs compares
            // barriers.
            let first = warps[0].pc[0];
            if warps
                .iter()
                .any(|w| w.pc[..w.n].iter().any(|p| *p != first))
            {
                return Err(SimError::BarrierDivergence {
                    block: block_lin,
                    detail: "threads wait at different barriers".into(),
                });
            }
            for w in warps.iter_mut() {
                w.status[..w.n].fill(Lane::Run);
                w.sched[..w.n].fill(first as u32);
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
