//! The performance cost model.
//!
//! Real GPU kernel runtime for memory-bound kernels (all four of the
//! paper's benchmarks) is dominated by:
//!
//! 1. **global-memory transactions**: a warp's simultaneous accesses are
//!    coalesced into 128-byte segments; each distinct segment is one
//!    transaction;
//! 2. **shared-memory bank conflicts**: shared memory has 32 four-byte
//!    banks; distinct addresses hitting the same bank serialize
//!    (same-address accesses broadcast);
//! 3. executed instructions (warp-wide, lockstep);
//! 4. barriers.
//!
//! Block costs are scheduled over the device's streaming multiprocessors
//! round-robin; the kernel's cycle count is the busiest SM. Everything is
//! deterministic, so Descend-generated code and handwritten baselines with
//! the same access patterns get the same cycle count — which is precisely
//! the paper's Figure 8 claim to reproduce.

use crate::device::WARP_SIZE;
use crate::interp::AccessRec;
use crate::ir::ElemTy;
use descend_trace::{GroupCost, Recorder};
use std::collections::HashMap;

/// Cost-model parameters, loosely calibrated to a P100-class device.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Coalescing segment size in bytes.
    pub segment_bytes: u64,
    /// Number of shared-memory banks.
    pub banks: u32,
    /// Bank width in bytes.
    pub bank_bytes: u64,
    /// Cycles per global-memory transaction.
    pub global_cost: u64,
    /// Cycles per shared-memory replay (conflict-free access costs one).
    pub shared_cost: u64,
    /// Cycles per executed instruction (warp-wide).
    pub instr_cost: u64,
    /// Cycles per barrier.
    pub barrier_cost: u64,
    /// Cycles per *extra* serialized atomic when several lanes of a warp
    /// RMW the same address (conflict-free atomics cost only their
    /// memory transaction).
    pub atomic_cost: u64,
    /// Cycles per warp-wide shuffle instruction (the register exchange
    /// itself; the operand evaluation is already charged as ordinary
    /// instructions). One cycle — this being an order of magnitude
    /// cheaper than a shared-memory round-trip is precisely why the
    /// shuffle reduction wins.
    pub shuffle_cost: u64,
    /// Number of streaming multiprocessors.
    pub num_sms: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            segment_bytes: 128,
            banks: 32,
            bank_bytes: 4,
            global_cost: 32,
            shared_cost: 2,
            instr_cost: 1,
            barrier_cost: 16,
            atomic_cost: 8,
            shuffle_cost: 1,
            num_sms: 56,
        }
    }
}

/// Detects `idxs[l] == idxs[0] + l * stride` (a non-descending
/// arithmetic progression — the `tid`-addressed access shapes the group
/// charges special-case) and returns the stride.
#[inline]
fn arith_stride(idxs: &[u64]) -> Option<u64> {
    if idxs.len() < 2 || idxs[1] < idxs[0] {
        return None;
    }
    let first = idxs[0];
    let stride = idxs[1] - idxs[0];
    let mut ok = true;
    for (l, &i) in idxs.iter().enumerate() {
        ok &= i == first + l as u64 * stride;
    }
    ok.then_some(stride)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Statistics of one kernel launch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LaunchStats {
    /// Total modeled cycles (the busiest SM).
    pub cycles: u64,
    /// Global-memory transactions after coalescing.
    pub global_transactions: u64,
    /// Raw global accesses before coalescing.
    pub global_accesses: u64,
    /// Shared-memory replays beyond the conflict-free minimum.
    pub shared_replays: u64,
    /// Raw shared accesses.
    pub shared_accesses: u64,
    /// Executed instructions (summed over warps, max over lanes).
    pub instructions: u64,
    /// Barrier count (per block, summed).
    pub barriers: u64,
    /// Raw atomic RMW accesses.
    pub atomic_accesses: u64,
    /// Extra serializations beyond the conflict-free minimum: for each
    /// warp-level atomic instruction, lanes hitting the same address
    /// serialize (contention), costing [`CostModel::atomic_cost`] each.
    pub atomic_serializations: u64,
    /// Lane-level shuffle exchanges performed (32 per full-warp shuffle
    /// instruction). Shuffles move registers, not memory: they appear
    /// here and in [`LaunchStats::instructions`], never in the
    /// transaction or replay counters.
    pub shuffles: u64,
    /// Number of blocks executed.
    pub blocks: u64,
}

impl LaunchStats {
    /// Sums another stats delta into this one, field by field (used to
    /// merge per-block outcomes; per-block `cycles` is 0 — the device
    /// sets the final cycle count from its SM schedule).
    pub(crate) fn accumulate(&mut self, o: &LaunchStats) {
        self.cycles += o.cycles;
        self.global_transactions += o.global_transactions;
        self.global_accesses += o.global_accesses;
        self.shared_replays += o.shared_replays;
        self.shared_accesses += o.shared_accesses;
        self.instructions += o.instructions;
        self.barriers += o.barriers;
        self.atomic_accesses += o.atomic_accesses;
        self.atomic_serializations += o.atomic_serializations;
        self.shuffles += o.shuffles;
        self.blocks += o.blocks;
    }

    /// The stats as `(label, value)` rows, in display order. The single
    /// source of truth for [`LaunchStats`]'s table and JSON renderings —
    /// callers that print stats route through these instead of
    /// hand-formatting fields.
    pub fn rows(&self) -> [(&'static str, u64); 11] {
        [
            ("cycles", self.cycles),
            ("global transactions", self.global_transactions),
            ("global accesses", self.global_accesses),
            ("shared replays", self.shared_replays),
            ("shared accesses", self.shared_accesses),
            ("instructions", self.instructions),
            ("barriers", self.barriers),
            ("atomic accesses", self.atomic_accesses),
            ("atomic serializations", self.atomic_serializations),
            ("shuffles", self.shuffles),
            ("blocks", self.blocks),
        ]
    }

    /// Renders the stats as a single-line JSON object with snake_case
    /// keys (hand-rolled like the rest of the tree — no serde in the
    /// dependency cone).
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .rows()
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", k.replace(' ', "_")))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

impl std::fmt::Display for LaunchStats {
    /// An aligned two-column table (label left, value right), one row
    /// per counter, no trailing newline.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows = self.rows();
        let label_w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let val_w = rows
            .iter()
            .map(|(_, v)| v.to_string().len())
            .max()
            .unwrap_or(1);
        for (i, (k, v)) in rows.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{k:<label_w$}  {v:>val_w$}")?;
        }
        Ok(())
    }
}

/// Accumulates per-interval costs for one block at a time.
#[derive(Debug)]
pub struct CostAccumulator {
    model: CostModel,
    /// Cycles of the block currently being accumulated.
    current_block: u64,
    /// Final per-block cycle counts.
    block_cycles: Vec<u64>,
    /// Aggregate stats.
    pub stats: LaunchStats,
}

impl CostAccumulator {
    /// Creates an accumulator with the given model.
    pub fn new(model: CostModel) -> CostAccumulator {
        CostAccumulator {
            model,
            current_block: 0,
            block_cycles: Vec::new(),
            stats: LaunchStats::default(),
        }
    }

    /// Feeds one barrier interval of one block.
    ///
    /// `instr_delta` are the instructions each thread executed during the
    /// interval; `global_elem`/`shared_elem` give element types per buffer
    /// for address computation.
    pub fn interval(
        &mut self,
        accesses: &[AccessRec],
        instr_delta: &[u64],
        global_elem: &[ElemTy],
        shared_elem: &[ElemTy],
        had_barrier: bool,
    ) {
        self.interval_traced(
            accesses,
            instr_delta,
            global_elem,
            shared_elem,
            had_barrier.then_some(u32::MAX),
            None,
        );
    }

    /// [`CostAccumulator::interval`] with launch-trace emission: each
    /// access group is reported to `sink` with its warp, pc, occurrence
    /// and charged cost, and the interval is closed with the barrier pc
    /// (when the interval ended at a barrier). The recorder canonically
    /// sorts at block end, so the hash-map iteration order here does not
    /// leak into the trace.
    pub fn interval_traced(
        &mut self,
        accesses: &[AccessRec],
        instr_delta: &[u64],
        global_elem: &[ElemTy],
        shared_elem: &[ElemTy],
        barrier: Option<u32>,
        mut sink: Option<&mut Recorder>,
    ) {
        // Warp-wide instruction cost: lockstep execution takes the max
        // lane count per warp.
        let mut instr_count = 0u64;
        for chunk in instr_delta.chunks(WARP_SIZE) {
            instr_count += chunk.iter().copied().max().unwrap_or(0);
        }
        self.stats.instructions += instr_count;
        let mut cycles = instr_count * self.model.instr_cost;
        // Group accesses by (warp, pc, occurrence) — the lanes of a warp
        // executing the same instruction the same number of times access
        // memory simultaneously.
        // Key: (warp, pc, occurrence, is_global); value: (idx, write, buf)
        // per participating lane.
        type GroupKey = (u32, u32, u32, bool);
        type LaneAccess = (u64, bool, u32, bool);
        let mut occ: HashMap<(u32, u32), u32> = HashMap::new(); // (tid, pc) -> count
        let mut groups: HashMap<GroupKey, Vec<LaneAccess>> = HashMap::new();
        for a in accesses {
            let o = occ.entry((a.tid, a.pc)).or_insert(0);
            let key = (a.tid / WARP_SIZE as u32, a.pc, *o, a.global);
            *o += 1;
            groups
                .entry(key)
                .or_default()
                .push((a.idx, a.write, a.buf, a.atomic));
        }
        for ((w, pc, o, is_global), members) in &groups {
            let mut gc = GroupCost::default();
            // Atomic contention: lanes of one warp instruction RMWing the
            // same address serialize; charge the extra replays (a group is
            // one instruction, so its accesses share atomicity).
            let atomics = members.iter().filter(|m| m.3).count() as u64;
            if atomics > 0 {
                self.stats.atomic_accesses += atomics;
                let mut per_addr: HashMap<(u32, u64), u64> = HashMap::new();
                for (idx, _, buf, atomic) in members {
                    if *atomic {
                        *per_addr.entry((*buf, *idx)).or_insert(0) += 1;
                    }
                }
                let contention = per_addr.values().copied().max().unwrap_or(1);
                self.stats.atomic_serializations += contention - 1;
                gc.serializations = contention - 1;
                gc.cycles += (contention - 1) * self.model.atomic_cost;
            }
            if *is_global {
                self.stats.global_accesses += members.len() as u64;
                // Coalescing: distinct 128-byte segments.
                let mut segments: Vec<u64> = members
                    .iter()
                    .map(|(idx, _, buf, _)| {
                        let esz = global_elem
                            .get(*buf as usize)
                            .copied()
                            .unwrap_or(ElemTy::F64)
                            .size_bytes();
                        idx * esz / self.model.segment_bytes
                    })
                    .collect();
                segments.sort_unstable();
                segments.dedup();
                let tx = segments.len() as u64;
                self.stats.global_transactions += tx;
                gc.transactions = tx;
                gc.cycles += tx * self.model.global_cost;
            } else {
                self.stats.shared_accesses += members.len() as u64;
                // Bank conflicts: distinct addresses per bank serialize.
                let mut per_bank: HashMap<u32, Vec<u64>> = HashMap::new();
                for (idx, _, buf, _) in members {
                    let esz = shared_elem
                        .get(*buf as usize)
                        .copied()
                        .unwrap_or(ElemTy::F64)
                        .size_bytes();
                    let byte = idx * esz;
                    let bank =
                        ((byte / self.model.bank_bytes) % u64::from(self.model.banks)) as u32;
                    per_bank.entry(bank).or_default().push(byte);
                }
                let mut replay = 1u64;
                for addrs in per_bank.values_mut() {
                    addrs.sort_unstable();
                    addrs.dedup();
                    replay = replay.max(addrs.len() as u64);
                }
                self.stats.shared_replays += replay - 1;
                gc.replays = replay - 1;
                gc.cycles += replay * self.model.shared_cost;
            }
            cycles += gc.cycles;
            if let Some(rec) = sink.as_deref_mut() {
                rec.mem_group_at(
                    *w,
                    *pc,
                    *o,
                    *is_global,
                    atomics > 0,
                    members.len() as u32,
                    gc,
                );
            }
        }
        let mut barrier_cycles = 0;
        if barrier.is_some() {
            self.stats.barriers += 1;
            barrier_cycles = self.model.barrier_cost;
            cycles += barrier_cycles;
        }
        if let Some(rec) = sink {
            use descend_trace::TraceSink;
            rec.interval_end(
                instr_count,
                instr_count * self.model.instr_cost,
                barrier,
                barrier_cycles,
            );
        }
        self.current_block += cycles;
    }

    /// Feeds one warp-wide shuffle exchange (`lanes` participating
    /// lanes): charges [`CostModel::shuffle_cost`] cycles for the
    /// exchange — warp-wide, like any lockstep instruction — and counts
    /// the lane-level moves.
    pub fn warp_shuffle(&mut self, lanes: u64) -> u64 {
        self.stats.shuffles += lanes;
        self.current_block += self.model.shuffle_cost;
        self.model.shuffle_cost
    }

    /// Finishes the current block, returning its cycle count (what the
    /// SM schedule and the block's launch trace consume).
    pub fn end_block(&mut self) -> u64 {
        let cycles = self.current_block;
        self.block_cycles.push(cycles);
        self.current_block = 0;
        self.stats.blocks += 1;
        cycles
    }

    /// Schedules block costs over the SMs and returns the final stats.
    pub fn finish(mut self) -> LaunchStats {
        self.stats.cycles = schedule_blocks(&self.model, &self.block_cycles);
        self.stats
    }
}

/// Schedules per-block cycle counts round-robin over the SMs; the kernel
/// cycle count is the busiest SM. Blocks are assigned by linear block id,
/// so the result is independent of which host thread simulated which
/// block.
pub(crate) fn schedule_blocks(model: &CostModel, block_cycles: &[u64]) -> u64 {
    let n = model.num_sms.max(1) as usize;
    let mut sm = vec![0u64; n];
    for (i, c) in block_cycles.iter().enumerate() {
        sm[i % n] += c;
    }
    sm.into_iter().max().unwrap_or(0)
}

/// Per-block cost accumulator for the warp-vectorized executor.
///
/// Where [`CostAccumulator`] replays a per-interval access log and groups
/// it with hash maps, `BlockCost` is fed one *warp instruction* at a time
/// — the lanes of one memory operation arrive together, already grouped —
/// so each charge is O(lanes log lanes) on stack scratch, with no log and
/// no per-access allocation. The numbers it produces are identical to the
/// log-replay path (pinned by the differential tests in
/// `tests/sim_scale.rs`).
#[derive(Debug)]
pub(crate) struct BlockCost {
    model: CostModel,
    cycles: u64,
    /// Per-block stats delta ([`LaunchStats::blocks`] is set by
    /// [`BlockCost::finish`]; `cycles` by the device's block schedule).
    stats: LaunchStats,
}

impl BlockCost {
    pub(crate) fn new(model: CostModel) -> BlockCost {
        BlockCost {
            model,
            cycles: 0,
            stats: LaunchStats::default(),
        }
    }

    /// Warp-wide instruction cycles of one interval: the max lane delta
    /// of one warp (lockstep execution runs at the slowest lane).
    /// Returns the cycles charged (for trace emission).
    pub(crate) fn warp_instrs(&mut self, max_lane_delta: u64) -> u64 {
        self.stats.instructions += max_lane_delta;
        let c = max_lane_delta * self.model.instr_cost;
        self.cycles += c;
        c
    }

    /// One barrier closing an interval. Returns the cycles charged.
    pub(crate) fn barrier(&mut self) -> u64 {
        self.stats.barriers += 1;
        self.cycles += self.model.barrier_cost;
        self.model.barrier_cost
    }

    /// One warp-wide shuffle exchange over `lanes` lanes. Returns the
    /// cycles charged.
    pub(crate) fn warp_shuffle(&mut self, lanes: u64) -> u64 {
        self.stats.shuffles += lanes;
        self.cycles += self.model.shuffle_cost;
        self.model.shuffle_cost
    }

    /// All global-memory accesses of one warp instruction: `idxs` holds
    /// one element index per participating lane, `esz` the element size
    /// in bytes. Charges coalesced transactions, and atomic contention
    /// when the instruction is an atomic RMW. Returns the charged
    /// [`GroupCost`] (for trace emission).
    pub(crate) fn global_group(&mut self, idxs: &mut [u64], esz: u64, atomic: bool) -> GroupCost {
        let mut gc = GroupCost::default();
        if atomic {
            let (ser, c) = self.charge_atomics(idxs);
            gc.serializations = ser;
            gc.cycles += c;
        }
        self.stats.global_accesses += idxs.len() as u64;
        // Fastest path: consecutive lanes touch every segment between
        // their first and last byte exactly once, so the transaction
        // count is a closed form (elements no wider than a segment
        // cannot skip one); a stride-0 broadcast is one transaction by
        // the same formula.
        if !atomic
            && esz <= self.model.segment_bytes
            && matches!(arith_stride(idxs), Some(0) | Some(1))
        {
            let first = idxs[0] * esz / self.model.segment_bytes;
            let last = idxs[idxs.len() - 1] * esz / self.model.segment_bytes;
            let tx = last - first + 1;
            self.stats.global_transactions += tx;
            self.cycles += tx * self.model.global_cost;
            gc.transactions = tx;
            gc.cycles += tx * self.model.global_cost;
            return gc;
        }
        // Coalescing: distinct 128-byte segments among the lanes.
        for i in idxs.iter_mut() {
            *i = *i * esz / self.model.segment_bytes;
        }
        // Lanes usually index monotonically (tid-based addressing), so
        // the segment keys arrive sorted; skip the sort on that hot path.
        if !idxs.is_sorted() {
            idxs.sort_unstable();
        }
        let mut tx = 0u64;
        let mut prev = u64::MAX;
        for s in idxs.iter() {
            if *s != prev {
                tx += 1;
                prev = *s;
            }
        }
        self.stats.global_transactions += tx;
        self.cycles += tx * self.model.global_cost;
        gc.transactions = tx;
        gc.cycles += tx * self.model.global_cost;
        gc
    }

    /// All shared-memory accesses of one warp instruction (see
    /// [`BlockCost::global_group`]). Charges bank-conflict replays and
    /// returns the charged [`GroupCost`].
    pub(crate) fn shared_group(&mut self, idxs: &mut [u64], esz: u64, atomic: bool) -> GroupCost {
        let mut gc = GroupCost::default();
        if atomic {
            let (ser, c) = self.charge_atomics(idxs);
            gc.serializations = ser;
            gc.cycles += c;
        }
        self.stats.shared_accesses += idxs.len() as u64;
        // Bank conflicts: distinct addresses per bank serialize
        // (same-address lanes broadcast); the replay count is the
        // deepest per-bank pile-up of distinct addresses.
        let banks = u64::from(self.model.banks);
        // Fastest path: lanes in an arithmetic progression (`tid`-based
        // addressing, plain or strided — the dominant patterns) walk
        // the banks in a fixed cycle of length `banks / gcd(step,
        // banks)`, so the deepest pile-up is a closed form and the
        // histogram is skipped. Stride 0 is a broadcast: one replay.
        if !atomic {
            if let Some(stride) = arith_stride(idxs) {
                let replay = if stride == 0 {
                    1
                } else if (stride * esz).is_multiple_of(self.model.bank_bytes) {
                    let step = stride * esz / self.model.bank_bytes;
                    let cycle = banks / gcd(step, banks);
                    (idxs.len() as u64).div_ceil(cycle)
                } else {
                    0 // fractional bank step: fall through to the scan
                };
                if replay > 0 {
                    self.stats.shared_replays += replay - 1;
                    self.cycles += replay * self.model.shared_cost;
                    gc.replays = replay - 1;
                    gc.cycles += replay * self.model.shared_cost;
                    return gc;
                }
            }
        }
        let replay = if banks <= 64 && idxs.is_sorted() {
            // Hot path: lanes index monotonically (tid-based
            // addressing), so equal addresses are adjacent and a
            // per-bank histogram of first-occurrences needs no sort.
            let mut per_bank = [0u64; 64];
            let mut deepest = 1u64;
            let mut prev = u64::MAX;
            for &i in idxs.iter() {
                let byte = i * esz;
                if byte != prev {
                    prev = byte;
                    let bank = ((byte / self.model.bank_bytes) % banks) as usize;
                    per_bank[bank] += 1;
                    deepest = deepest.max(per_bank[bank]);
                }
            }
            deepest
        } else {
            // General path: sort (bank, byte) pairs so each bank's
            // distinct addresses are one run.
            for i in idxs.iter_mut() {
                let byte = *i * esz;
                let bank = (byte / self.model.bank_bytes) % banks;
                // Banks fit u32 and bytes u34ish; pack bank into the
                // high bits for a single-key sort.
                *i = (bank << 48) | (byte & 0xffff_ffff_ffff);
            }
            idxs.sort_unstable();
            let mut replay = 1u64;
            let mut run = 0u64;
            let mut prev_bank = u64::MAX;
            let mut prev = u64::MAX;
            for key in idxs.iter() {
                let bank = key >> 48;
                if bank != prev_bank {
                    prev_bank = bank;
                    run = 0;
                    prev = u64::MAX;
                }
                if *key != prev {
                    run += 1;
                    prev = *key;
                }
                replay = replay.max(run);
            }
            replay
        };
        self.stats.shared_replays += replay - 1;
        self.cycles += replay * self.model.shared_cost;
        gc.replays = replay - 1;
        gc.cycles += replay * self.model.shared_cost;
        gc
    }

    /// Same-address contention among one warp instruction's atomic
    /// lanes: the deepest per-address pile-up serializes. Returns the
    /// extra serializations and the cycles they cost.
    fn charge_atomics(&mut self, idxs: &mut [u64]) -> (u64, u64) {
        self.stats.atomic_accesses += idxs.len() as u64;
        if !idxs.is_sorted() {
            idxs.sort_unstable();
        }
        let mut contention = 1u64;
        let mut run = 0u64;
        let mut prev = u64::MAX;
        for i in idxs.iter() {
            if *i == prev {
                run += 1;
            } else {
                run = 1;
                prev = *i;
            }
            contention = contention.max(run);
        }
        self.stats.atomic_serializations += contention - 1;
        self.cycles += (contention - 1) * self.model.atomic_cost;
        (contention - 1, (contention - 1) * self.model.atomic_cost)
    }

    /// Finishes the block: its cycle count and stats delta (with
    /// [`LaunchStats::blocks`] = 1; `cycles` is left 0 for the device's
    /// cross-block schedule).
    pub(crate) fn finish(mut self) -> (u64, LaunchStats) {
        self.stats.blocks = 1;
        (self.cycles, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(pc: u32, global: bool, idx: u64, write: bool, tid: u32) -> AccessRec {
        AccessRec {
            pc,
            global,
            buf: 0,
            idx,
            write,
            atomic: false,
            tid,
        }
    }

    fn atomic_acc(pc: u32, global: bool, idx: u64, tid: u32) -> AccessRec {
        AccessRec {
            pc,
            global,
            buf: 0,
            idx,
            write: true,
            atomic: true,
            tid,
        }
    }

    fn run_interval(accesses: &[AccessRec], threads: usize) -> LaunchStats {
        let mut c = CostAccumulator::new(CostModel::default());
        c.interval(
            accesses,
            &vec![1u64; threads],
            &[ElemTy::F64],
            &[ElemTy::F64],
            false,
        );
        c.end_block();
        c.finish()
    }

    #[test]
    fn coalesced_warp_is_two_segments_of_f64() {
        // 32 threads loading consecutive f64: 256 bytes = 2 segments.
        let accesses: Vec<_> = (0..32).map(|t| acc(0, true, t as u64, false, t)).collect();
        let stats = run_interval(&accesses, 32);
        assert_eq!(stats.global_transactions, 2);
    }

    #[test]
    fn strided_warp_explodes_transactions() {
        // Stride-16 f64 accesses: each lane lands in its own segment.
        let accesses: Vec<_> = (0..32)
            .map(|t| acc(0, true, (t as u64) * 16, false, t))
            .collect();
        let stats = run_interval(&accesses, 32);
        assert_eq!(stats.global_transactions, 32);
    }

    #[test]
    fn same_element_broadcast_is_one_transaction() {
        let accesses: Vec<_> = (0..32).map(|t| acc(0, true, 7, false, t)).collect();
        let stats = run_interval(&accesses, 32);
        assert_eq!(stats.global_transactions, 1);
    }

    #[test]
    fn conflict_free_shared_has_no_replays() {
        // Consecutive f64: banks 0,2,4,... then wrap — 2-way conflict for
        // f64 actually: element i hits banks (2i)%32 and (2i+1)%32; with
        // 32 threads two lanes share a bank pair => replay 2. Use f32 to
        // get the conflict-free case.
        let accesses: Vec<_> = (0..32).map(|t| acc(0, false, t as u64, false, t)).collect();
        let mut c = CostAccumulator::new(CostModel::default());
        c.interval(&accesses, &vec![1u64; 32], &[], &[ElemTy::F32], false);
        c.end_block();
        let stats = c.finish();
        assert_eq!(stats.shared_replays, 0);
    }

    #[test]
    fn same_bank_distinct_addresses_replay() {
        // All 32 threads hit bank 0 with distinct addresses (stride 32 in
        // f32 elements): 32-way conflict => 31 replays.
        let accesses: Vec<_> = (0..32)
            .map(|t| acc(0, false, (t as u64) * 32, false, t))
            .collect();
        let mut c = CostAccumulator::new(CostModel::default());
        c.interval(&accesses, &vec![1u64; 32], &[], &[ElemTy::F32], false);
        c.end_block();
        let stats = c.finish();
        assert_eq!(stats.shared_replays, 31);
    }

    #[test]
    fn broadcast_shared_is_free() {
        let accesses: Vec<_> = (0..32).map(|t| acc(0, false, 3, false, t)).collect();
        let mut c = CostAccumulator::new(CostModel::default());
        c.interval(&accesses, &vec![1u64; 32], &[], &[ElemTy::F32], false);
        c.end_block();
        let stats = c.finish();
        assert_eq!(stats.shared_replays, 0);
    }

    #[test]
    fn different_pcs_group_separately() {
        // Two different instructions each fully coalesced: 2 + 2 segments
        // (f64), not merged into fewer.
        let mut accesses = Vec::new();
        for t in 0..32u32 {
            accesses.push(acc(0, true, t as u64, false, t));
            accesses.push(acc(1, true, t as u64, true, t));
        }
        let stats = run_interval(&accesses, 32);
        assert_eq!(stats.global_transactions, 4);
    }

    #[test]
    fn conflict_free_atomics_cost_no_serialization() {
        // 32 lanes atomically updating 32 distinct addresses: one
        // transaction cost, zero contention.
        let accesses: Vec<_> = (0..32).map(|t| atomic_acc(0, true, t as u64, t)).collect();
        let stats = run_interval(&accesses, 32);
        assert_eq!(stats.atomic_accesses, 32);
        assert_eq!(stats.atomic_serializations, 0);
    }

    #[test]
    fn same_address_atomics_serialize_per_warp() {
        // All 32 lanes of one warp RMW one address: 31 extra
        // serializations, each charged atomic_cost cycles.
        let accesses: Vec<_> = (0..32).map(|t| atomic_acc(0, true, 7, t)).collect();
        let model = CostModel::default();
        let mut c = CostAccumulator::new(model.clone());
        c.interval(&accesses, &vec![1u64; 32], &[ElemTy::I32], &[], false);
        c.end_block();
        let stats = c.finish();
        assert_eq!(stats.atomic_serializations, 31);
        // One coalesced transaction (same segment) + contention replays
        // + one warp instruction.
        assert_eq!(
            stats.cycles,
            model.global_cost + 31 * model.atomic_cost + model.instr_cost
        );
    }

    #[test]
    fn atomic_contention_is_per_address() {
        // Two addresses, 16 lanes each: contention 16 => 15 extra.
        let accesses: Vec<_> = (0..32)
            .map(|t| atomic_acc(0, true, u64::from(t % 2), t))
            .collect();
        let stats = run_interval(&accesses, 32);
        assert_eq!(stats.atomic_serializations, 15);
    }

    #[test]
    fn shared_atomics_also_serialize() {
        let accesses: Vec<_> = (0..32).map(|t| atomic_acc(0, false, 3, t)).collect();
        let mut c = CostAccumulator::new(CostModel::default());
        c.interval(&accesses, &vec![1u64; 32], &[], &[ElemTy::I32], false);
        c.end_block();
        let stats = c.finish();
        assert_eq!(stats.atomic_serializations, 31);
        assert_eq!(stats.atomic_accesses, 32);
    }

    #[test]
    fn sm_scheduling_takes_busiest() {
        let mut c = CostAccumulator::new(CostModel {
            num_sms: 2,
            ..CostModel::default()
        });
        // Three blocks with 10, 20, 30 instruction-cycles: SM0 gets
        // 10+30, SM1 gets 20 => 40.
        for n in [10u64, 20, 30] {
            c.interval(&[], &[n], &[], &[], false);
            c.end_block();
        }
        let stats = c.finish();
        assert_eq!(stats.cycles, 40);
    }

    #[test]
    fn warp_instruction_cost_is_max_lane() {
        let mut c = CostAccumulator::new(CostModel::default());
        let mut counts = vec![5u64; 32];
        counts[7] = 50;
        c.interval(&[], &counts, &[], &[], false);
        c.end_block();
        let stats = c.finish();
        assert_eq!(stats.instructions, 50);
    }

    #[test]
    fn barrier_adds_cost() {
        let mut c = CostAccumulator::new(CostModel::default());
        c.interval(&[], &[0], &[], &[], true);
        c.end_block();
        let stats = c.finish();
        assert_eq!(stats.barriers, 1);
        assert_eq!(stats.cycles, CostModel::default().barrier_cost);
    }

    /// The arithmetic-progression fast paths in `BlockCost` must charge
    /// exactly what the general scan charges for the same multiset of
    /// indices. Reversing an AP defeats `arith_stride` (descending) and
    /// `is_sorted`, forcing the general path on identical inputs.
    #[test]
    fn ap_fast_paths_match_general_scan() {
        for stride in [0u64, 1, 2, 3, 4, 17, 31, 32, 33, 64] {
            for esz in [1u64, 4, 8] {
                let ap: Vec<u64> = (0..32).map(|l| 1000 + l * stride).collect();
                let rev: Vec<u64> = ap.iter().rev().copied().collect();

                let mut fast = BlockCost::new(CostModel::default());
                fast.shared_group(&mut ap.clone(), esz, false);
                fast.global_group(&mut ap.clone(), esz, false);
                let mut slow = BlockCost::new(CostModel::default());
                slow.shared_group(&mut rev.clone(), esz, false);
                slow.global_group(&mut rev.clone(), esz, false);

                let (fc, fs) = fast.finish();
                let (sc, ss) = slow.finish();
                assert_eq!(
                    (fc, fs),
                    (sc, ss),
                    "stride {stride} esz {esz}: AP fast path diverged from scan"
                );
            }
        }
    }
}
