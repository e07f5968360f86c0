//! Launch-trace observability: structured spans, event sinks, profiles.
//!
//! The simulator's hot layers (see `gpu_sim`) are generic over a
//! [`TraceSink`]. The default [`NullSink`] compiles every emission site
//! to nothing — `ENABLED` is an associated `const`, so the converged
//! fast path monomorphizes to exactly the untraced code. A [`Recorder`]
//! collects the same call sites into per-block event lists that are
//! canonically sorted, which makes a finished [`LaunchTrace`]
//! *deterministic by construction*: byte-identical across the
//! warp-vectorized and reference executors and across workpool thread
//! counts, because events are keyed by `(interval, warp, pc,
//! occurrence)` — simulation coordinates — never by host scheduling.
//!
//! On top of the raw trace sit two exports:
//!
//! - [`LaunchTrace::profile_rows`]: per-source-span totals (cycles,
//!   transactions, replays, serializations, barrier wait) for ranked
//!   profile tables;
//! - [`chrome_trace`]: a Chrome-trace (`chrome://tracing` / Perfetto)
//!   JSON timeline of blocks over SMs with nested barrier-interval and
//!   access-group slices on the modeled-cycle time axis.
//!
//! Host-side measurements (per-worker busy spans from the parallel
//! block pool) are wall-clock and therefore *excluded* from the
//! deterministic exports unless explicitly requested.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt::Write as _;

/// A half-open byte range into the originating Descend source text.
///
/// Mirrors the AST's `Span` (this crate sits below the AST in the
/// dependency order, so it keeps its own copy). [`SrcSpan::DUMMY`] marks
/// synthesized code with no source location — hand-built IR, or cost
/// with no single source construct (warp-wide instruction cycles).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SrcSpan {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl SrcSpan {
    /// The span of synthesized nodes with no source location.
    pub const DUMMY: SrcSpan = SrcSpan { start: 0, end: 0 };

    /// Whether this is the dummy span.
    pub fn is_dummy(&self) -> bool {
        *self == SrcSpan::DUMMY
    }
}

impl std::fmt::Display for SrcSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// The modeled cost of one warp-level memory access group — what the
/// cost model charged for one memory instruction's simultaneous lanes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCost {
    /// Coalesced global-memory transactions (0 for shared groups).
    pub transactions: u64,
    /// Shared-memory bank replays beyond the conflict-free minimum
    /// (0 for global groups).
    pub replays: u64,
    /// Extra serialized atomics beyond the conflict-free minimum.
    pub serializations: u64,
    /// Total cycles charged for the group (transactions, replays and
    /// atomic serializations combined).
    pub cycles: u64,
}

/// Where the simulator reports cost events.
///
/// Implementations are monomorphized into the executor: every emission
/// site is guarded by `S::ENABLED`, so the no-op [`NullSink`] costs
/// nothing — the compiler removes both the guard and the call.
pub trait TraceSink {
    /// Whether this sink observes events. Emission sites skip all
    /// argument preparation when `false`.
    const ENABLED: bool;

    /// One warp-level memory access group: `lanes` simultaneous
    /// accesses by warp `warp` at instruction `pc`, with the cost the
    /// model charged. Occurrences of the same `(warp, pc)` within a
    /// barrier interval are counted by the sink, in emission order.
    fn mem_group(
        &mut self,
        warp: u32,
        pc: u32,
        global: bool,
        atomic: bool,
        lanes: u32,
        cost: GroupCost,
    );

    /// One warp-wide shuffle exchange over `lanes` lanes at `pc`.
    fn shuffle(&mut self, warp: u32, pc: u32, lanes: u32, cycles: u64);

    /// Closes the current barrier interval of the block being traced:
    /// warp-wide executed instructions (count and cycles), and the
    /// closing barrier (`barrier_pc`, `u32::MAX` when the location is
    /// unknown) with its cost — or `None` when the interval ends by
    /// thread completion.
    fn interval_end(
        &mut self,
        instructions: u64,
        instr_cycles: u64,
        barrier_pc: Option<u32>,
        barrier_cycles: u64,
    );
}

/// The default sink: drops everything, compiles to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn mem_group(&mut self, _: u32, _: u32, _: bool, _: bool, _: u32, _: GroupCost) {}

    #[inline(always)]
    fn shuffle(&mut self, _: u32, _: u32, _: u32, _: u64) {}

    #[inline(always)]
    fn interval_end(&mut self, _: u64, _: u64, _: Option<u32>, _: u64) {}
}

/// One recorded memory access group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupRec {
    /// Barrier-interval index within the block (0-based).
    pub interval: u32,
    /// Warp index within the block.
    pub warp: u32,
    /// Bytecode pc of the memory instruction.
    pub pc: u32,
    /// Occurrence of this `(warp, pc)` within the interval (0-based).
    pub occ: u32,
    /// Global (`true`) or shared (`false`) memory.
    pub global: bool,
    /// Whether the instruction is an atomic RMW.
    pub atomic: bool,
    /// Participating lanes (raw accesses).
    pub lanes: u32,
    /// What the cost model charged.
    pub cost: GroupCost,
}

/// One recorded warp-wide shuffle exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShuffleRec {
    /// Barrier-interval index within the block (0-based).
    pub interval: u32,
    /// Warp index within the block.
    pub warp: u32,
    /// Bytecode pc of the shuffle instruction.
    pub pc: u32,
    /// Occurrence of this `(warp, pc)` within the interval (0-based).
    pub occ: u32,
    /// Participating lanes (lane-level exchanges).
    pub lanes: u32,
    /// Cycles charged for the exchange.
    pub cycles: u64,
}

/// One barrier interval of a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntervalRec {
    /// Warp-wide executed instructions (summed over warps, max over
    /// lanes — the quantity `LaunchStats::instructions` counts).
    pub instructions: u64,
    /// Cycles charged for those instructions.
    pub instr_cycles: u64,
    /// Bytecode pc of the barrier closing the interval; `u32::MAX` when
    /// the location is unknown, `None` when the interval ended by
    /// completion instead of a barrier.
    pub barrier_pc: Option<u32>,
    /// Cycles charged for the barrier (0 without one).
    pub barrier_cycles: u64,
}

/// Everything one block's execution emitted, canonically ordered.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BlockTrace {
    /// Linear block id.
    pub block: u64,
    /// Total modeled cycles of the block (equals the sum of its
    /// interval, group and shuffle cycles — pinned by tests).
    pub cycles: u64,
    /// Memory access groups, sorted by
    /// `(interval, warp, pc, occ, global, atomic)`.
    pub groups: Vec<GroupRec>,
    /// Shuffle exchanges, sorted by `(interval, warp, pc, occ)`.
    pub shuffles: Vec<ShuffleRec>,
    /// Barrier intervals, in execution order.
    pub intervals: Vec<IntervalRec>,
}

/// A sink that records events into a [`BlockTrace`].
///
/// Occurrence counters are kept per `(warp, pc)` and reset at every
/// interval boundary, mirroring the reference cost model's
/// `(warp, pc, occurrence)` access grouping — which is what makes the
/// warp-vectorized and log-replay paths produce identical records.
#[derive(Debug, Default)]
pub struct Recorder {
    interval: u32,
    mem_occ: HashMap<(u32, u32), u32>,
    shfl_occ: HashMap<(u32, u32), u32>,
    groups: Vec<GroupRec>,
    shuffles: Vec<ShuffleRec>,
    intervals: Vec<IntervalRec>,
}

impl Recorder {
    /// A fresh recorder for one block.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Records a memory group with an explicitly supplied occurrence
    /// (the reference path's log replay already groups by occurrence, so
    /// it bypasses the emission-order counter).
    #[allow(clippy::too_many_arguments)] // mirrors the GroupRec fields one-to-one
    pub fn mem_group_at(
        &mut self,
        warp: u32,
        pc: u32,
        occ: u32,
        global: bool,
        atomic: bool,
        lanes: u32,
        cost: GroupCost,
    ) {
        self.groups.push(GroupRec {
            interval: self.interval,
            warp,
            pc,
            occ,
            global,
            atomic,
            lanes,
            cost,
        });
    }

    /// Finishes the block: canonically sorts the records and attaches
    /// the block id and its total modeled cycles.
    pub fn finish_block(mut self, block: u64, cycles: u64) -> BlockTrace {
        self.groups
            .sort_unstable_by_key(|g| (g.interval, g.warp, g.pc, g.occ, g.global, g.atomic));
        self.shuffles
            .sort_unstable_by_key(|s| (s.interval, s.warp, s.pc, s.occ));
        BlockTrace {
            block,
            cycles,
            groups: self.groups,
            shuffles: self.shuffles,
            intervals: self.intervals,
        }
    }
}

impl TraceSink for Recorder {
    const ENABLED: bool = true;

    fn mem_group(
        &mut self,
        warp: u32,
        pc: u32,
        global: bool,
        atomic: bool,
        lanes: u32,
        cost: GroupCost,
    ) {
        let occ = self.mem_occ.entry((warp, pc)).or_insert(0);
        let o = *occ;
        *occ += 1;
        self.mem_group_at(warp, pc, o, global, atomic, lanes, cost);
    }

    fn shuffle(&mut self, warp: u32, pc: u32, lanes: u32, cycles: u64) {
        let occ = self.shfl_occ.entry((warp, pc)).or_insert(0);
        let o = *occ;
        *occ += 1;
        self.shuffles.push(ShuffleRec {
            interval: self.interval,
            warp,
            pc,
            occ: o,
            lanes,
            cycles,
        });
    }

    fn interval_end(
        &mut self,
        instructions: u64,
        instr_cycles: u64,
        barrier_pc: Option<u32>,
        barrier_cycles: u64,
    ) {
        self.intervals.push(IntervalRec {
            instructions,
            instr_cycles,
            barrier_pc,
            barrier_cycles,
        });
        self.interval += 1;
        self.mem_occ.clear();
        self.shfl_occ.clear();
    }
}

/// One worker's busy span while simulating one block (parallel block
/// pool instrumentation). Wall-clock, host-side: *excluded* from the
/// deterministic exports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkerSpan {
    /// Worker index within the pool.
    pub worker: u32,
    /// Linear block id the worker simulated.
    pub block: u64,
    /// Microseconds since the pool started.
    pub start_us: u64,
    /// Microseconds since the pool started.
    pub end_us: u64,
}

/// The complete trace of one kernel launch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LaunchTrace {
    /// Kernel name.
    pub kernel: String,
    /// Blocks per grid.
    pub grid_dim: [u64; 3],
    /// Threads per block.
    pub block_dim: [u64; 3],
    /// Streaming multiprocessors the cost model schedules blocks over.
    pub sm_count: u64,
    /// Source span per bytecode pc (the typeck → IR span plumbing;
    /// `SrcSpan::DUMMY` for synthesized instructions).
    pub spans: Vec<SrcSpan>,
    /// Per-block traces, in linear block order.
    pub blocks: Vec<BlockTrace>,
    /// Host-side worker busy spans (empty for sequential execution;
    /// wall-clock, excluded from deterministic exports).
    pub workers: Vec<WorkerSpan>,
}

/// Stat totals reconstructed from a trace — field-for-field the
/// quantities `gpu_sim`'s `LaunchStats` counts (tests pin the exact
/// equality).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceTotals {
    /// Launch cycles: per-block cycles scheduled round-robin over the
    /// SMs, busiest SM wins.
    pub cycles: u64,
    /// Total work cycles: the plain sum of per-block cycles (what the
    /// per-line profile sums to — the schedule overlaps blocks, so this
    /// is ≥ `cycles`).
    pub work_cycles: u64,
    /// Global transactions after coalescing.
    pub global_transactions: u64,
    /// Raw global accesses.
    pub global_accesses: u64,
    /// Shared replays beyond the conflict-free minimum.
    pub shared_replays: u64,
    /// Raw shared accesses.
    pub shared_accesses: u64,
    /// Executed warp-wide instructions.
    pub instructions: u64,
    /// Barriers executed.
    pub barriers: u64,
    /// Raw atomic RMW accesses.
    pub atomic_accesses: u64,
    /// Extra atomic serializations.
    pub atomic_serializations: u64,
    /// Lane-level shuffle exchanges.
    pub shuffles: u64,
    /// Blocks executed.
    pub blocks: u64,
}

/// One aggregated profile row: everything charged to one source span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileRow {
    /// The source span (dummy for unattributed cost — warp-wide
    /// instruction cycles, hand-built IR).
    pub span: SrcSpan,
    /// Total modeled cycles charged to the span, over all blocks.
    pub cycles: u64,
    /// Global transactions.
    pub transactions: u64,
    /// Shared-memory replays.
    pub replays: u64,
    /// Atomic serializations.
    pub serializations: u64,
    /// Barrier-wait cycles.
    pub barrier_cycles: u64,
    /// Shuffle-exchange cycles.
    pub shuffle_cycles: u64,
    /// Raw memory accesses (global + shared lanes).
    pub accesses: u64,
}

impl LaunchTrace {
    /// The span attributed to a pc (dummy when out of range or unknown).
    fn span_of(&self, pc: u32) -> SrcSpan {
        self.spans
            .get(pc as usize)
            .copied()
            .unwrap_or(SrcSpan::DUMMY)
    }

    /// Reconstructs the launch's stat totals from the recorded events.
    pub fn totals(&self) -> TraceTotals {
        let mut t = TraceTotals {
            blocks: self.blocks.len() as u64,
            ..TraceTotals::default()
        };
        let n = self.sm_count.max(1) as usize;
        let mut sm = vec![0u64; n];
        for (i, b) in self.blocks.iter().enumerate() {
            t.work_cycles += b.cycles;
            sm[i % n] += b.cycles;
            for g in &b.groups {
                if g.global {
                    t.global_transactions += g.cost.transactions;
                    t.global_accesses += u64::from(g.lanes);
                } else {
                    t.shared_replays += g.cost.replays;
                    t.shared_accesses += u64::from(g.lanes);
                }
                if g.atomic {
                    t.atomic_accesses += u64::from(g.lanes);
                }
                t.atomic_serializations += g.cost.serializations;
            }
            for s in &b.shuffles {
                t.shuffles += u64::from(s.lanes);
            }
            for iv in &b.intervals {
                t.instructions += iv.instructions;
                t.barriers += u64::from(iv.barrier_pc.is_some());
            }
        }
        t.cycles = sm.into_iter().max().unwrap_or(0);
        t
    }

    /// Aggregates the trace per source span, sorted by cycles
    /// descending (span ascending on ties). The sum of row cycles
    /// equals [`TraceTotals::work_cycles`] exactly.
    pub fn profile_rows(&self) -> Vec<ProfileRow> {
        let mut by_span: HashMap<SrcSpan, ProfileRow> = HashMap::new();
        fn row(by_span: &mut HashMap<SrcSpan, ProfileRow>, span: SrcSpan) -> &mut ProfileRow {
            by_span.entry(span).or_insert(ProfileRow {
                span,
                ..ProfileRow::default()
            })
        }
        for b in &self.blocks {
            for g in &b.groups {
                let r = row(&mut by_span, self.span_of(g.pc));
                r.cycles += g.cost.cycles;
                r.transactions += g.cost.transactions;
                r.replays += g.cost.replays;
                r.serializations += g.cost.serializations;
                r.accesses += u64::from(g.lanes);
            }
            for s in &b.shuffles {
                let r = row(&mut by_span, self.span_of(s.pc));
                r.cycles += s.cycles;
                r.shuffle_cycles += s.cycles;
            }
            for iv in &b.intervals {
                if let Some(pc) = iv.barrier_pc {
                    let r = row(&mut by_span, self.span_of(pc));
                    r.cycles += iv.barrier_cycles;
                    r.barrier_cycles += iv.barrier_cycles;
                }
                let r = row(&mut by_span, SrcSpan::DUMMY);
                r.cycles += iv.instr_cycles;
            }
        }
        let mut rows: Vec<ProfileRow> = by_span.into_values().collect();
        rows.sort_unstable_by(|a, b| b.cycles.cmp(&a.cycles).then(a.span.cmp(&b.span)));
        rows
    }
}

fn dim_json(d: [u64; 3]) -> String {
    format!("[{}, {}, {}]", d[0], d[1], d[2])
}

/// Renders launches as Chrome-trace (`chrome://tracing` / Perfetto)
/// JSON: one modeled-GPU process, one timeline track per SM, blocks
/// scheduled exactly as the cost model schedules them (round-robin by
/// linear id, each SM running its blocks back to back), with nested
/// barrier-interval slices and access-group/shuffle slices inside. The
/// time axis is modeled cycles, rendered as microseconds.
///
/// Multiple launches are laid out sequentially. With `include_host`,
/// the wall-clock per-worker busy spans are added as a second process —
/// host-side measurements, **not** deterministic, so the flag defaults
/// to off everywhere determinism is asserted.
pub fn chrome_trace(launches: &[LaunchTrace], include_host: bool) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut events: Vec<String> = Vec::new();
    events.push(
        "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 0, \"tid\": 0, \
         \"args\": {\"name\": \"modeled GPU\"}}"
            .into(),
    );
    let mut named_sms = 0u64;
    let mut t0 = 0u64;
    for (li, tr) in launches.iter().enumerate() {
        let n = tr.sm_count.max(1);
        for s in named_sms..n.min(64) {
            events.push(format!(
                "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 0, \"tid\": {s}, \
                 \"args\": {{\"name\": \"SM {s}\"}}}}"
            ));
        }
        named_sms = named_sms.max(n.min(64));
        let mut sm_load = vec![0u64; n as usize];
        let mut launch_end = t0;
        for (i, b) in tr.blocks.iter().enumerate() {
            let sm = i as u64 % n;
            let start = t0 + sm_load[sm as usize];
            sm_load[sm as usize] += b.cycles;
            launch_end = launch_end.max(start + b.cycles);
            events.push(format!(
                "{{\"ph\": \"X\", \"name\": \"{} block {}\", \"cat\": \"block\", \
                 \"pid\": 0, \"tid\": {sm}, \"ts\": {start}, \"dur\": {}, \
                 \"args\": {{\"launch\": {li}, \"block\": {}}}}}",
                tr.kernel, b.block, b.cycles, b.block
            ));
            // Nested slices: intervals in execution order, each holding
            // its groups/shuffles (canonical order) then the
            // instruction and barrier filler.
            let mut t = start;
            for (k, iv) in b.intervals.iter().enumerate() {
                let k32 = k as u32;
                let group_cycles: u64 = b
                    .groups
                    .iter()
                    .filter(|g| g.interval == k32)
                    .map(|g| g.cost.cycles)
                    .sum();
                let shfl_cycles: u64 = b
                    .shuffles
                    .iter()
                    .filter(|s| s.interval == k32)
                    .map(|s| s.cycles)
                    .sum();
                let dur = iv.instr_cycles + iv.barrier_cycles + group_cycles + shfl_cycles;
                events.push(format!(
                    "{{\"ph\": \"X\", \"name\": \"interval {k}\", \"cat\": \"interval\", \
                     \"pid\": 0, \"tid\": {sm}, \"ts\": {t}, \"dur\": {dur}, \
                     \"args\": {{\"launch\": {li}, \"block\": {}, \"instructions\": {}}}}}",
                    b.block, iv.instructions
                ));
                let mut gt = t;
                for g in b.groups.iter().filter(|g| g.interval == k32) {
                    if g.cost.cycles == 0 {
                        continue;
                    }
                    let kind = match (g.global, g.atomic) {
                        (true, true) => "global atomic",
                        (true, false) => "global",
                        (false, true) => "shared atomic",
                        (false, false) => "shared",
                    };
                    events.push(format!(
                        "{{\"ph\": \"X\", \"name\": \"{kind} pc{}\", \"cat\": \"mem\", \
                         \"pid\": 0, \"tid\": {sm}, \"ts\": {gt}, \"dur\": {}, \
                         \"args\": {{\"launch\": {li}, \"block\": {}, \"warp\": {}, \"occ\": {}, \
                         \"lanes\": {}, \"transactions\": {}, \"replays\": {}, \
                         \"serializations\": {}, \"span\": \"{}\"}}}}",
                        g.pc,
                        g.cost.cycles,
                        b.block,
                        g.warp,
                        g.occ,
                        g.lanes,
                        g.cost.transactions,
                        g.cost.replays,
                        g.cost.serializations,
                        tr.span_of(g.pc),
                    ));
                    gt += g.cost.cycles;
                }
                for s in b.shuffles.iter().filter(|s| s.interval == k32) {
                    events.push(format!(
                        "{{\"ph\": \"X\", \"name\": \"shfl pc{}\", \"cat\": \"shfl\", \
                         \"pid\": 0, \"tid\": {sm}, \"ts\": {gt}, \"dur\": {}, \
                         \"args\": {{\"launch\": {li}, \"block\": {}, \"warp\": {}, \"occ\": {}, \
                         \"lanes\": {}, \"span\": \"{}\"}}}}",
                        s.pc,
                        s.cycles,
                        b.block,
                        s.warp,
                        s.occ,
                        s.lanes,
                        tr.span_of(s.pc),
                    ));
                    gt += s.cycles;
                }
                if iv.barrier_cycles > 0 {
                    events.push(format!(
                        "{{\"ph\": \"X\", \"name\": \"barrier\", \"cat\": \"barrier\", \
                         \"pid\": 0, \"tid\": {sm}, \"ts\": {}, \"dur\": {}, \
                         \"args\": {{\"launch\": {li}, \"block\": {}}}}}",
                        t + dur - iv.barrier_cycles,
                        iv.barrier_cycles,
                        b.block
                    ));
                }
                t += dur;
            }
        }
        if include_host && !tr.workers.is_empty() {
            events.push(format!(
                "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, \
                 \"args\": {{\"name\": \"host workers (wall-clock, launch {li})\"}}}}"
            ));
            for w in &tr.workers {
                events.push(format!(
                    "{{\"ph\": \"X\", \"name\": \"block {}\", \"cat\": \"worker\", \
                     \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
                     \"args\": {{\"launch\": {li}}}}}",
                    w.block,
                    w.worker,
                    w.start_us,
                    w.end_us.saturating_sub(w.start_us)
                ));
            }
        }
        t0 = launch_end;
    }
    for (i, e) in events.iter().enumerate() {
        out.push_str("  ");
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "], \"displayTimeUnit\": \"ns\", \"otherData\": {{\"launches\": {}}}}}",
        launches.len()
    );
    out
}

/// Renders the raw trace of one launch as JSON (events, spans, blocks)
/// — the machine-readable sibling of [`chrome_trace`], used by the
/// bench artifacts. Deterministic: worker spans are excluded.
pub fn launch_trace_json(tr: &LaunchTrace) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"kernel\": \"{}\",\n  \"grid_dim\": {},\n  \"block_dim\": {},\n  \"sm_count\": {},",
        tr.kernel,
        dim_json(tr.grid_dim),
        dim_json(tr.block_dim),
        tr.sm_count
    );
    let t = tr.totals();
    let _ = writeln!(
        s,
        "  \"cycles\": {}, \"work_cycles\": {}, \"blocks\": {},",
        t.cycles, t.work_cycles, t.blocks
    );
    s.push_str("  \"block_traces\": [\n");
    for (bi, b) in tr.blocks.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"block\": {}, \"cycles\": {}, \"intervals\": {}, \"groups\": [",
            b.block,
            b.cycles,
            b.intervals.len()
        );
        for (gi, g) in b.groups.iter().enumerate() {
            let _ = writeln!(
                s,
                "      {{\"interval\": {}, \"warp\": {}, \"pc\": {}, \"occ\": {}, \
                 \"global\": {}, \"atomic\": {}, \"lanes\": {}, \"transactions\": {}, \
                 \"replays\": {}, \"serializations\": {}, \"cycles\": {}, \"span\": \"{}\"}}{}",
                g.interval,
                g.warp,
                g.pc,
                g.occ,
                g.global,
                g.atomic,
                g.lanes,
                g.cost.transactions,
                g.cost.replays,
                g.cost.serializations,
                g.cost.cycles,
                tr.span_of(g.pc),
                if gi + 1 < b.groups.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            s,
            "    ]}}{}",
            if bi + 1 < tr.blocks.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `NullSink` is the zero-cost default: disabled (so every guarded
    /// emission site compiles away on the monomorphized fast path) and
    /// zero-sized (so carrying it through `Env` costs nothing).
    #[test]
    #[allow(clippy::assertions_on_constants)] // the constant-ness IS the claim
    fn null_sink_is_free() {
        assert!(!NullSink::ENABLED);
        assert_eq!(std::mem::size_of::<NullSink>(), 0);
    }

    #[test]
    fn recorder_counts_occurrences_per_interval() {
        let mut r = Recorder::new();
        r.mem_group(0, 5, true, false, 32, GroupCost::default());
        r.mem_group(0, 5, true, false, 32, GroupCost::default());
        r.mem_group(1, 5, false, false, 32, GroupCost::default());
        r.interval_end(10, 10, Some(7), 16);
        r.mem_group(0, 5, true, false, 32, GroupCost::default());
        r.interval_end(4, 4, None, 0);
        let t = r.finish_block(3, 42);
        assert_eq!(t.block, 3);
        let occs: Vec<(u32, u32, u32)> = t
            .groups
            .iter()
            .map(|g| (g.interval, g.warp, g.occ))
            .collect();
        assert_eq!(occs, vec![(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]);
        assert_eq!(t.intervals.len(), 2);
        assert_eq!(t.intervals[0].barrier_pc, Some(7));
        assert_eq!(t.intervals[1].barrier_pc, None);
    }

    #[test]
    fn finish_block_sorts_canonically() {
        let mut r = Recorder::new();
        // Emit out of canonical order via explicit occurrences.
        r.mem_group_at(1, 9, 0, true, false, 32, GroupCost::default());
        r.mem_group_at(0, 2, 1, false, false, 16, GroupCost::default());
        r.mem_group_at(0, 2, 0, false, false, 16, GroupCost::default());
        let t = r.finish_block(0, 0);
        let keys: Vec<(u32, u32, u32)> = t.groups.iter().map(|g| (g.warp, g.pc, g.occ)).collect();
        assert_eq!(keys, vec![(0, 2, 0), (0, 2, 1), (1, 9, 0)]);
    }

    #[test]
    fn totals_and_profile_agree_on_work_cycles() {
        let mut r = Recorder::new();
        r.mem_group(
            0,
            4,
            true,
            false,
            32,
            GroupCost {
                transactions: 2,
                replays: 0,
                serializations: 0,
                cycles: 64,
            },
        );
        r.shuffle(0, 6, 32, 1);
        r.interval_end(10, 10, Some(8), 16);
        let b = r.finish_block(0, 91);
        let tr = LaunchTrace {
            kernel: "k".into(),
            grid_dim: [1, 1, 1],
            block_dim: [32, 1, 1],
            sm_count: 56,
            spans: vec![SrcSpan::DUMMY; 10],
            blocks: vec![b],
            workers: vec![],
        };
        let t = tr.totals();
        assert_eq!(t.cycles, 91);
        assert_eq!(t.work_cycles, 91);
        assert_eq!(t.global_transactions, 2);
        assert_eq!(t.shuffles, 32);
        assert_eq!(t.barriers, 1);
        let rows = tr.profile_rows();
        let sum: u64 = rows.iter().map(|r| r.cycles).sum();
        assert_eq!(sum, t.work_cycles);
    }

    #[test]
    fn chrome_trace_is_valid_shape_and_deterministic() {
        let tr = LaunchTrace {
            kernel: "k".into(),
            grid_dim: [2, 1, 1],
            block_dim: [32, 1, 1],
            sm_count: 2,
            spans: vec![],
            blocks: vec![
                BlockTrace {
                    block: 0,
                    cycles: 10,
                    ..BlockTrace::default()
                },
                BlockTrace {
                    block: 1,
                    cycles: 20,
                    ..BlockTrace::default()
                },
            ],
            workers: vec![WorkerSpan {
                worker: 0,
                block: 0,
                start_us: 1,
                end_us: 5,
            }],
        };
        let a = chrome_trace(std::slice::from_ref(&tr), false);
        let b = chrome_trace(std::slice::from_ref(&tr), false);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"traceEvents\": ["));
        assert!(a.contains("\"name\": \"k block 0\""));
        // Host workers only appear when asked for.
        assert!(!a.contains("host workers"));
        assert!(chrome_trace(&[tr], true).contains("host workers"));
    }
}
