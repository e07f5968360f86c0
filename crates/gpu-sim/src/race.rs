//! Dynamic data-race detection.
//!
//! The detector consumes the access log of each barrier interval and
//! reports a race when two *different* threads of a block touch the same
//! location between two consecutive barriers with at least one write
//! (barriers are the only intra-block ordering, so schedule order within
//! an interval is meaningless — this makes detection independent of the
//! interpreter's thread serialization). Global memory is additionally
//! checked *across blocks* over the whole kernel, because no barrier
//! orders different blocks.
//!
//! This is the executable oracle used to validate Descend's static
//! borrow checker: every program the checker accepts must come out clean,
//! and the buggy CUDA kernels from the paper's Sections 1 and 2
//! (transcribed to the IR) must be flagged.

use crate::interp::AccessRec;
use crate::warp::for_lanes;
use descend_trace::SrcSpan;
use std::collections::HashMap;

/// Bytecode pc value meaning "location unknown" in a [`RaceReport`].
pub const PC_UNKNOWN: u32 = u32::MAX;

/// A detected race.
#[derive(Clone, Debug, PartialEq)]
pub struct RaceReport {
    /// Global (true) or shared (false) memory.
    pub global: bool,
    /// Buffer index.
    pub buf: u32,
    /// Element index.
    pub idx: u64,
    /// Whether the conflict is between two different blocks (else between
    /// two threads of the same block within one barrier interval).
    pub cross_block: bool,
    /// The two conflicting parties (thread ids, or block ids if
    /// `cross_block`).
    pub parties: (u32, u32),
    /// Whether both conflicting accesses are writes.
    pub write_write: bool,
    /// Bytecode pc of the access that completed the conflicting pair
    /// (the earlier access's location is not retained);
    /// [`PC_UNKNOWN`] when the detector has no location.
    pub pc: u32,
    /// Source span of that access, resolved by the device from the
    /// launch's pc-to-span table ([`SrcSpan::DUMMY`] for kernels
    /// without source markers, e.g. hand-built IR).
    pub span: SrcSpan,
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "data race on {} buffer {} at element {} between {} {} and {} ({})",
            if self.global { "global" } else { "shared" },
            self.buf,
            self.idx,
            if self.cross_block {
                "blocks"
            } else {
                "threads"
            },
            self.parties.0,
            self.parties.1,
            if self.write_write {
                "write-write"
            } else {
                "read-write"
            }
        )?;
        if !self.span.is_dummy() {
            write!(f, " at {}", self.span)?;
        }
        Ok(())
    }
}

impl RaceReport {
    /// The total order used to choose *the* reported race when several
    /// are detected: `(global, buf, idx, parties, cross_block,
    /// write_write, pc)`, with [`RaceReport::parties`] normalized
    /// low-high. Folding the minimum under this key is
    /// order-independent, which is what makes the reported race
    /// deterministic under parallel block execution. The pc comes last:
    /// it breaks ties between otherwise-identical conflicts without
    /// ever changing *which* logical race is reported.
    pub fn sort_key(&self) -> (bool, u32, u64, u32, u32, bool, bool, u32) {
        (
            self.global,
            self.buf,
            self.idx,
            self.parties.0,
            self.parties.1,
            self.cross_block,
            self.write_write,
            self.pc,
        )
    }
}

/// Folds a newly detected race into the running minimum (by
/// [`RaceReport::sort_key`]).
pub(crate) fn fold_min(best: &mut Option<RaceReport>, r: RaceReport) {
    match best {
        Some(b) if b.sort_key() <= r.sort_key() => {}
        _ => *best = Some(r),
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct CellState {
    writer: Option<u32>,
    multi_writer: bool,
    reader: Option<u32>,
    other_reader: bool,
    /// Representative atomic accessor (atomic RMWs mutate, but conflict
    /// only with *plain* accesses — the hardware serializes atomics).
    atomic: Option<u32>,
    multi_atomic: bool,
}

impl CellState {
    fn read(&mut self, who: u32) -> Option<(u32, u32, bool)> {
        if let Some(w) = self.writer {
            if w != who {
                return Some((w, who, false));
            }
        }
        if let Some(a) = self.atomic {
            if a != who || self.multi_atomic {
                return Some((a, who, false));
            }
        }
        match self.reader {
            None => self.reader = Some(who),
            Some(r) if r != who => self.other_reader = true,
            _ => {}
        }
        None
    }

    fn write(&mut self, who: u32) -> Option<(u32, u32, bool)> {
        if let Some(w) = self.writer {
            if w != who || self.multi_writer {
                return Some((w, who, true));
            }
        }
        if let Some(r) = self.reader {
            if r != who || self.other_reader {
                return Some((r, who, false));
            }
        }
        if let Some(a) = self.atomic {
            if a != who || self.multi_atomic {
                return Some((a, who, true));
            }
        }
        match self.writer {
            None => self.writer = Some(who),
            Some(w) if w != who => self.multi_writer = true,
            _ => {}
        }
        None
    }

    /// An atomic RMW: conflicts with plain readers and writers of other
    /// parties, never with fellow atomics.
    fn atomic(&mut self, who: u32) -> Option<(u32, u32, bool)> {
        if let Some(w) = self.writer {
            if w != who || self.multi_writer {
                return Some((w, who, true));
            }
        }
        if let Some(r) = self.reader {
            if r != who || self.other_reader {
                return Some((r, who, false));
            }
        }
        match self.atomic {
            None => self.atomic = Some(who),
            Some(a) if a != who => self.multi_atomic = true,
            _ => {}
        }
        None
    }
}

/// Accumulates accesses and detects races.
#[derive(Debug, Default)]
pub struct RaceDetector {
    /// Intra-block, per-interval state (cleared at each barrier).
    interval: HashMap<(bool, u32, u64), CellState>,
    /// Cross-block, whole-kernel state over global memory, keyed by
    /// buffer/element, parties are block ids.
    global: HashMap<(u32, u64), CellState>,
    /// First detected race (detection is not short-circuiting per
    /// interval, but one report suffices).
    pub race: Option<RaceReport>,
}

impl RaceDetector {
    /// Creates an empty detector.
    pub fn new() -> RaceDetector {
        RaceDetector::default()
    }

    /// Feeds one barrier interval of a block's access log.
    ///
    /// `block_id` is the linear block id (for cross-block checking).
    pub fn interval(&mut self, block_id: u32, accesses: &[AccessRec]) {
        for a in accesses {
            // Intra-block check within the interval.
            let cell = self.interval.entry((a.global, a.buf, a.idx)).or_default();
            let conflict = if a.atomic {
                cell.atomic(a.tid)
            } else if a.write {
                cell.write(a.tid)
            } else {
                cell.read(a.tid)
            };
            if let Some((p1, p2, ww)) = conflict {
                self.race.get_or_insert(RaceReport {
                    global: a.global,
                    buf: a.buf,
                    idx: a.idx,
                    cross_block: false,
                    parties: (p1, p2),
                    write_write: ww,
                    pc: a.pc,
                    span: SrcSpan::DUMMY,
                });
            }
            // Cross-block check for global memory (whole kernel).
            if a.global {
                let gcell = self.global.entry((a.buf, a.idx)).or_default();
                let conflict = if a.atomic {
                    gcell.atomic(block_id)
                } else if a.write {
                    gcell.write(block_id)
                } else {
                    gcell.read(block_id)
                };
                if let Some((p1, p2, ww)) = conflict {
                    if p1 != p2 {
                        self.race.get_or_insert(RaceReport {
                            global: true,
                            buf: a.buf,
                            idx: a.idx,
                            cross_block: true,
                            parties: (p1, p2),
                            write_write: ww,
                            pc: a.pc,
                            span: SrcSpan::DUMMY,
                        });
                    }
                }
            }
        }
        // The barrier closes the interval.
        self.interval.clear();
    }

    /// Finishes a block: closes any open interval state.
    pub fn end_block(&mut self) {
        self.interval.clear();
    }
}

// ---------------------------------------------------------------------------
// Shadow-memory detection (the warp-vectorized executor's fast path).
//
// The log-replay detector above costs a log append per access plus a hash
// lookup per replayed access — at paper-scale footprints that dominates
// the whole simulation. The shadow detector keeps one 16-byte cell per
// buffer element holding the interval's reader/writer/atomic parties and
// is updated once per *warp memory instruction* ([`ShadowMemory::group`]):
// the cell slice, epoch and access kind are resolved once, then every
// masked lane is one array probe. Intervals and blocks are closed by
// bumping an epoch instead of clearing the (large) cell arrays; a cell
// whose epoch is stale reads as empty, and an all-zero cell is empty too,
// so fresh arrays come from zeroed pages and untouched ranges are never
// written.
//
// Cross-block detection cannot use worker-local cells, so each block
// summarizes the global locations it touched as *runs* — dense element
// ranges of one access kind with the pc that touched them first — and
// [`cross_block_race`] merges the summaries after the launch by
// sort-and-sweep, replaying through the cell logic only where runs of
// different blocks overlap with a conflicting mix of kinds. A block that
// reads a contiguous slice and writes another therefore costs two runs,
// whatever the buffers weigh.

/// How an instruction accesses memory. The order is the one in which
/// the cross-block merge applies a block's accesses to one location.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// Plain load.
    Read = 0,
    /// Plain store.
    Write = 1,
    /// Atomic read-modify-write.
    Atomic = 2,
}

/// [`AccessKind`] as the const parameter of [`ShadowMemory::group`].
pub(crate) const READ: u8 = AccessKind::Read as u8;
pub(crate) const WRITE: u8 = AccessKind::Write as u8;
pub(crate) const ATOMIC: u8 = AccessKind::Atomic as u8;

/// A dense range of one global buffer that a block touched with one
/// access kind: every element of `start..end` was accessed from
/// bytecode location `pc`. A block's summary is a list of runs in
/// first-touch order; where several runs of the same `buf` and `kind`
/// cover an element, the earliest one names the pc that touched it
/// first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// Global buffer index.
    pub buf: u32,
    /// How the range was accessed.
    pub kind: AccessKind,
    /// Bytecode pc of the access.
    pub pc: u32,
    /// First element.
    pub start: u64,
    /// One past the last element.
    pub end: u64,
}

/// Shadow state of one location: `[tag, reader, writer, atomic]`. The
/// three parties are stored as `who + 1` (0 = none yet) and the tag is
/// `epoch << 3 | flags`, so the all-zero cell is empty in every epoch
/// (epochs start at 1). A plain array rather than a struct because
/// `vec![[0u32; 4]; n]` is a zeroed allocation, not a fill.
type Cell = [u32; 4];

const TAG: usize = 0;
/// Party slot of an access kind.
const fn slot(kind: u8) -> usize {
    1 + kind as usize
}
const READER: usize = slot(READ);
const WRITER: usize = slot(WRITE);
const ATOMIC_PARTY: usize = slot(ATOMIC);

/// Tag flags: a second party of the same kind touched the location.
const MULTI_WRITER: u32 = 1;
const OTHER_READER: u32 = 2;
const MULTI_ATOMIC: u32 = 4;
const FLAG_BITS: u32 = 3;

/// Epochs live in the tag's upper 29 bits; reaching the limit clears the
/// cells and restarts at 1.
const EPOCH_LIMIT: u32 = 1 << (32 - FLAG_BITS);

/// Applies one access to a cell whose tag is current. Mirrors
/// [`CellState::read`], [`CellState::write`] and [`CellState::atomic`];
/// returns the conflicting `(earlier party, who, write_write)`.
#[inline(always)]
fn apply<const KIND: u8>(c: &mut Cell, who: u32) -> Option<(u32, u32, bool)> {
    let me = who + 1;
    let (flags, r, w, a) = (c[TAG], c[READER], c[WRITER], c[ATOMIC_PARTY]);
    if w != 0 && (w != me || (KIND != READ && flags & MULTI_WRITER != 0)) {
        return Some((w - 1, who, KIND != READ));
    }
    if KIND != READ && r != 0 && (r != me || flags & OTHER_READER != 0) {
        return Some((r - 1, who, false));
    }
    if KIND != ATOMIC && a != 0 && (a != me || flags & MULTI_ATOMIC != 0) {
        return Some((a - 1, who, KIND == WRITE));
    }
    let (own, multi) = match KIND {
        READ => (r, OTHER_READER),
        WRITE => (w, MULTI_WRITER),
        _ => (a, MULTI_ATOMIC),
    };
    if own == 0 {
        c[slot(KIND)] = me;
    } else if own != me && flags & multi == 0 {
        // (Guarded so that the lanes of a broadcast access, which all
        // land here, do not serialize on a store to the same cell.)
        c[TAG] |= multi;
    }
    None
}

/// Worker-local shadow memory: intra-block detection for one block at a
/// time, plus the block's cross-block run summary. One instance per
/// pool worker, reused across all blocks that worker simulates.
#[derive(Debug, Default)]
pub(crate) struct ShadowMemory {
    global: Vec<Vec<Cell>>,
    shared: Vec<Vec<Cell>>,
    /// Current intra-block interval epoch (cells tagged otherwise are
    /// empty). Always in `1..EPOCH_LIMIT` once a block has begun.
    epoch: u32,
    /// Minimum-key intra-block race of the current block.
    best: Option<RaceReport>,
    /// The current block's global accesses, in first-touch order.
    runs: Vec<Run>,
    /// Per global buffer and kind: 1 + the index in `runs` of the
    /// latest run (0 = none), the only one a new range may extend.
    latest: Vec<[usize; 3]>,
}

/// Bytes of worker-local shadow state per worker for the given buffer
/// sizes (used to cap the worker count so race-checked parallel runs
/// stay within a sane memory budget).
pub(crate) fn shadow_bytes_per_worker(global_lens: &[usize], shared_lens: &[usize]) -> u64 {
    let elems: u64 = global_lens
        .iter()
        .chain(shared_lens)
        .map(|l| *l as u64)
        .sum();
    elems * std::mem::size_of::<Cell>() as u64
}

impl ShadowMemory {
    /// Enters a block: sizes (or resizes) the shadow to the launch's
    /// buffers — free when the sizes already match, the worker-reuse
    /// case — and empties every cell by moving to a fresh epoch.
    pub(crate) fn begin_block(&mut self, global_lens: &[usize], shared_lens: &[usize]) {
        resize_cells(&mut self.global, global_lens);
        resize_cells(&mut self.shared, shared_lens);
        self.latest.clear();
        self.latest.resize(global_lens.len(), [0; 3]);
        self.runs.clear();
        self.best = None;
        self.next_epoch();
    }

    /// Empties every cell in O(1); on epoch wrap, by clearing them.
    fn next_epoch(&mut self) {
        self.epoch += 1;
        if self.epoch == EPOCH_LIMIT {
            for cells in self.global.iter_mut().chain(self.shared.iter_mut()) {
                cells.fill([0; 4]);
            }
            self.epoch = 1;
        }
    }

    /// Records one warp memory instruction: lane `l` of `mask` accessed
    /// element `addrs[l]` (already bounds-checked by the executor) as
    /// block-linear thread `base_tid + l`. `pc` attributes a detected
    /// conflict, and the cross-block summary, to the bytecode location.
    #[inline]
    pub(crate) fn group<const KIND: u8>(
        &mut self,
        global: bool,
        buf: usize,
        addrs: &[u64; 32],
        base_tid: u32,
        mask: u32,
        pc: u32,
    ) {
        let cells = if global {
            self.global[buf].as_mut_slice()
        } else {
            self.shared[buf].as_mut_slice()
        };
        let epoch = self.epoch;
        let best = &mut self.best;
        // Lanes whose element this block had not yet touched with this
        // kind in the current interval; the rest are already in `runs`.
        let mut first_touch = 0u32;
        for_lanes(
            mask,
            // Forced: left to the inliner's judgement, a full warp
            // becomes 32 calls of this body through a captured
            // environment, which costs more than the body itself.
            #[inline(always)]
            |l| {
                let cell = &mut cells[addrs[l] as usize];
                if cell[TAG] >> FLAG_BITS != epoch {
                    *cell = [epoch << FLAG_BITS, 0, 0, 0];
                }
                first_touch |= u32::from(cell[slot(KIND)] == 0) << l;
                if let Some((p1, p2, ww)) = apply::<KIND>(cell, base_tid + l as u32) {
                    intra_block_conflict(best, global, buf, addrs[l], (p1, p2), ww, pc);
                }
            },
        );
        if global && first_touch != 0 {
            let kind = match KIND {
                READ => AccessKind::Read,
                WRITE => AccessKind::Write,
                _ => AccessKind::Atomic,
            };
            self.summarize(kind, buf, addrs, first_touch, pc);
        }
    }

    /// Adds the elements `addrs[l]`, `l` in `lanes`, to the block's run
    /// summary, coalescing consecutive lanes that continue a range in
    /// either direction or repeat an element of it.
    fn summarize(&mut self, kind: AccessKind, buf: usize, addrs: &[u64; 32], lanes: u32, pc: u32) {
        let mut range: Option<(u64, u64)> = None;
        for_lanes(lanes, |l| {
            let a = addrs[l];
            match &mut range {
                Some((_, end)) if a == *end => *end += 1,
                Some((start, _)) if a + 1 == *start => *start = a,
                Some((start, end)) if *start <= a && a < *end => {}
                _ => {
                    if let Some((start, end)) = range.replace((a, a + 1)) {
                        self.push_run(kind, buf, start, end, pc);
                    }
                }
            }
        });
        if let Some((start, end)) = range {
            self.push_run(kind, buf, start, end, pc);
        }
    }

    /// Appends the range to the summary, or folds it into the latest run
    /// of the same buffer and kind. Only that run may change: every
    /// other run of the pair precedes it, so growing it never takes a
    /// first touch away from an earlier run.
    fn push_run(&mut self, kind: AccessKind, buf: usize, start: u64, end: u64, pc: u32) {
        let latest = &mut self.latest[buf][kind as usize];
        if let Some(r) = latest.checked_sub(1).map(|i| &mut self.runs[i]) {
            if r.start <= start && end <= r.end {
                return;
            }
            if r.pc == pc && start <= r.end && r.start <= end {
                r.start = r.start.min(start);
                r.end = r.end.max(end);
                return;
            }
        }
        self.runs.push(Run {
            buf: buf as u32,
            kind,
            pc,
            start,
            end,
        });
        *latest = self.runs.len();
    }

    /// A barrier closed the interval: intra-block state empties in O(1).
    pub(crate) fn end_interval(&mut self) {
        self.next_epoch();
    }

    /// Finishes the block: returns its minimum-key intra-block race and
    /// its cross-block summary as one exact-size allocation (none when
    /// the block touched no global memory).
    pub(crate) fn end_block(&mut self) -> (Option<RaceReport>, Box<[Run]>) {
        (self.best.take(), Box::from(self.runs.as_slice()))
    }
}

/// Folds an intra-block conflict into the block's minimum (cold: only
/// racy kernels get here).
#[cold]
fn intra_block_conflict(
    best: &mut Option<RaceReport>,
    global: bool,
    buf: usize,
    idx: u64,
    parties: (u32, u32),
    write_write: bool,
    pc: u32,
) {
    fold_min(
        best,
        RaceReport {
            global,
            buf: buf as u32,
            idx,
            cross_block: false,
            parties: (parties.0.min(parties.1), parties.0.max(parties.1)),
            write_write,
            pc,
            span: SrcSpan::DUMMY,
        },
    );
}

fn resize_cells(cells: &mut Vec<Vec<Cell>>, lens: &[usize]) {
    if cells.len() == lens.len() && cells.iter().zip(lens).all(|(v, l)| v.len() == *l) {
        return;
    }
    *cells = lens.iter().map(|l| vec![[0; 4]; *l]).collect();
}

/// Whether accesses of these kinds (a bit per [`AccessKind`]) by two
/// different parties can conflict: a plain write conflicts with
/// everything, a plain read with an atomic.
fn kinds_conflict(kinds: u8) -> bool {
    kinds & (1 << WRITE) != 0 || kinds == (1 << READ | 1 << ATOMIC)
}

/// A run with the block that recorded it and its position in that
/// block's summary.
#[derive(Clone, Copy)]
struct BlockRun {
    run: Run,
    block: u32,
    seq: u32,
}

/// Merges per-block run summaries (`blocks[b]` is linear block `b`'s)
/// into the cross-block race verdict.
///
/// The outcome is what feeding every touched element through a shadow
/// cell would give — blocks in linear order, each block's kinds in
/// read, write, atomic order with the first-touch pc of that kind,
/// block ids as the parties, equal parties never a conflict, minimum
/// [`RaceReport::sort_key`] reported — so it does not depend on the
/// schedule that produced the summaries. The work does not depend on
/// the buffers' sizes: buffers that are only read or only updated
/// atomically are dropped outright, the remaining runs are sorted by
/// position, and only clusters of overlapping runs that involve two
/// blocks and a conflicting mix of kinds are replayed per element.
pub fn cross_block_race(blocks: &[Box<[Run]>]) -> Option<RaceReport> {
    let mut buf_kinds: Vec<u8> = Vec::new();
    for r in blocks.iter().flat_map(|runs| runs.iter()) {
        let buf = r.buf as usize;
        if buf >= buf_kinds.len() {
            buf_kinds.resize(buf + 1, 0);
        }
        buf_kinds[buf] |= 1 << r.kind as u8;
    }
    if !buf_kinds.iter().any(|k| kinds_conflict(*k)) {
        return None;
    }
    let mut runs: Vec<BlockRun> = Vec::new();
    for (block, summary) in blocks.iter().enumerate() {
        for (seq, run) in summary.iter().enumerate() {
            if kinds_conflict(buf_kinds[run.buf as usize]) {
                runs.push(BlockRun {
                    run: *run,
                    block: block as u32,
                    seq: seq as u32,
                });
            }
        }
    }
    runs.sort_unstable_by_key(|r| (r.run.buf, r.run.start));

    let mut best = None;
    let mut replay = Replay::default();
    let mut i = 0;
    while i < runs.len() {
        // The cluster of runs transitively overlapping `runs[i]`.
        let Run {
            buf,
            start,
            mut end,
            ..
        } = runs[i].run;
        let mut kinds = 1 << runs[i].run.kind as u8;
        let mut two_blocks = false;
        let mut j = i + 1;
        while j < runs.len() && runs[j].run.buf == buf && runs[j].run.start < end {
            end = end.max(runs[j].run.end);
            kinds |= 1 << runs[j].run.kind as u8;
            two_blocks |= runs[j].block != runs[i].block;
            j += 1;
        }
        if two_blocks && kinds_conflict(kinds) {
            replay.cluster(&mut runs[i..j], start, end, &mut best);
        }
        i = j;
    }
    best
}

/// Scratch for the per-element replay of suspicious clusters.
#[derive(Default)]
struct Replay {
    cells: Vec<Cell>,
    /// Per element, the last (block, kind) group applied to it, so that
    /// only a group's first covering run — the first touch — applies.
    applied: Vec<u64>,
}

impl Replay {
    fn cluster(
        &mut self,
        runs: &mut [BlockRun],
        start: u64,
        end: u64,
        best: &mut Option<RaceReport>,
    ) {
        runs.sort_unstable_by_key(|r| (r.block, r.run.kind, r.seq));
        let len = end.saturating_sub(start) as usize;
        self.cells.clear();
        self.cells.resize(len, [0; 4]);
        self.applied.clear();
        self.applied.resize(len, 0);
        let mut group = 0u64;
        let mut prev = None;
        for r in runs.iter() {
            if prev != Some((r.block, r.run.kind)) {
                prev = Some((r.block, r.run.kind));
                group += 1;
            }
            for idx in r.run.start..r.run.end {
                let at = (idx - start) as usize;
                if std::mem::replace(&mut self.applied[at], group) == group {
                    continue;
                }
                let cell = &mut self.cells[at];
                let conflict = match r.run.kind {
                    AccessKind::Read => apply::<READ>(cell, r.block),
                    AccessKind::Write => apply::<WRITE>(cell, r.block),
                    AccessKind::Atomic => apply::<ATOMIC>(cell, r.block),
                };
                if let Some((p1, p2, write_write)) = conflict {
                    if p1 != p2 {
                        fold_min(
                            best,
                            RaceReport {
                                global: true,
                                buf: r.run.buf,
                                idx,
                                cross_block: true,
                                parties: (p1.min(p2), p1.max(p2)),
                                write_write,
                                pc: r.run.pc,
                                span: SrcSpan::DUMMY,
                            },
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(global: bool, idx: u64, write: bool, tid: u32) -> AccessRec {
        AccessRec {
            pc: 0,
            global,
            buf: 0,
            idx,
            write,
            atomic: false,
            tid,
        }
    }

    fn atomic(global: bool, idx: u64, tid: u32) -> AccessRec {
        AccessRec {
            pc: 0,
            global,
            buf: 0,
            idx,
            write: true,
            atomic: true,
            tid,
        }
    }

    #[test]
    fn distinct_elements_are_clean() {
        let mut d = RaceDetector::new();
        d.interval(0, &[acc(false, 0, true, 0), acc(false, 1, true, 1)]);
        assert!(d.race.is_none());
    }

    #[test]
    fn write_write_same_element_races() {
        let mut d = RaceDetector::new();
        d.interval(0, &[acc(false, 5, true, 0), acc(false, 5, true, 1)]);
        let r = d.race.expect("race detected");
        assert!(r.write_write);
        assert!(!r.cross_block);
        assert_eq!(r.idx, 5);
    }

    #[test]
    fn read_write_same_element_races() {
        let mut d = RaceDetector::new();
        d.interval(0, &[acc(false, 7, false, 2), acc(false, 7, true, 3)]);
        let r = d.race.expect("race detected");
        assert!(!r.write_write);
    }

    #[test]
    fn same_thread_rmw_is_fine() {
        let mut d = RaceDetector::new();
        d.interval(0, &[acc(false, 7, false, 2), acc(false, 7, true, 2)]);
        assert!(d.race.is_none());
    }

    #[test]
    fn barrier_separates_intervals() {
        let mut d = RaceDetector::new();
        // Thread 0 writes, barrier, thread 1 reads: ordered, no race.
        d.interval(0, &[acc(false, 3, true, 0)]);
        d.interval(0, &[acc(false, 3, false, 1)]);
        assert!(d.race.is_none());
    }

    #[test]
    fn shared_reads_are_replicable() {
        let mut d = RaceDetector::new();
        d.interval(
            0,
            &[
                acc(false, 0, false, 0),
                acc(false, 0, false, 1),
                acc(false, 0, false, 2),
            ],
        );
        assert!(d.race.is_none());
    }

    #[test]
    fn cross_block_global_write_races_despite_barriers() {
        let mut d = RaceDetector::new();
        // Block 0 writes global element 9 in one interval; block 1 writes
        // it later: barriers do not synchronize blocks.
        d.interval(0, &[acc(true, 9, true, 0)]);
        d.end_block();
        d.interval(1, &[acc(true, 9, true, 0)]);
        let r = d.race.expect("cross-block race detected");
        assert!(r.cross_block);
        assert_eq!(r.parties, (0, 1));
    }

    #[test]
    fn cross_block_disjoint_writes_clean() {
        let mut d = RaceDetector::new();
        d.interval(0, &[acc(true, 0, true, 0)]);
        d.end_block();
        d.interval(1, &[acc(true, 1, true, 0)]);
        assert!(d.race.is_none());
    }

    #[test]
    fn same_block_rereads_across_intervals_clean() {
        let mut d = RaceDetector::new();
        d.interval(3, &[acc(true, 4, true, 0)]);
        d.interval(3, &[acc(true, 4, false, 5)]);
        assert!(d.race.is_none(), "same block, barrier between");
    }

    #[test]
    fn atomic_atomic_same_element_is_clean() {
        let mut d = RaceDetector::new();
        d.interval(
            0,
            &[
                atomic(false, 5, 0),
                atomic(false, 5, 1),
                atomic(false, 5, 2),
            ],
        );
        assert!(d.race.is_none(), "atomics serialize; no race");
    }

    #[test]
    fn atomic_plain_write_conflicts() {
        let mut d = RaceDetector::new();
        d.interval(0, &[atomic(false, 5, 0), acc(false, 5, true, 1)]);
        let r = d.race.expect("atomic-write race detected");
        assert!(r.write_write);
    }

    #[test]
    fn plain_read_after_atomic_conflicts() {
        let mut d = RaceDetector::new();
        d.interval(0, &[atomic(false, 5, 0), acc(false, 5, false, 1)]);
        let r = d.race.expect("atomic-read race detected");
        assert!(!r.write_write);
    }

    #[test]
    fn same_thread_atomic_and_plain_is_fine() {
        let mut d = RaceDetector::new();
        d.interval(0, &[atomic(false, 5, 2), acc(false, 5, false, 2)]);
        assert!(d.race.is_none());
    }

    #[test]
    fn plain_read_then_foreign_atomic_conflicts() {
        let mut d = RaceDetector::new();
        d.interval(0, &[acc(false, 5, false, 1), atomic(false, 5, 0)]);
        assert!(d.race.is_some());
    }

    #[test]
    fn multi_atomic_then_plain_read_by_member_still_races() {
        // Atomics by 0 and 1, then a plain read by 0: 1's atomic still
        // conflicts with 0's read.
        let mut d = RaceDetector::new();
        d.interval(
            0,
            &[
                atomic(false, 5, 0),
                atomic(false, 5, 1),
                acc(false, 5, false, 0),
            ],
        );
        assert!(d.race.is_some());
    }

    #[test]
    fn cross_block_atomics_are_clean() {
        let mut d = RaceDetector::new();
        d.interval(0, &[atomic(true, 9, 0)]);
        d.end_block();
        d.interval(1, &[atomic(true, 9, 0)]);
        assert!(
            d.race.is_none(),
            "cross-block atomic-atomic is ordered by hardware"
        );
        // But a plain write from a third block conflicts.
        d.interval(2, &[acc(true, 9, true, 0)]);
        let r = d.race.expect("cross-block atomic-write race");
        assert!(r.cross_block);
    }

    #[test]
    fn barrier_orders_atomic_then_read_within_block() {
        let mut d = RaceDetector::new();
        // Shared memory: atomic in one interval, read in the next — the
        // barrier orders them.
        d.interval(0, &[atomic(false, 3, 0)]);
        d.interval(0, &[acc(false, 3, false, 1)]);
        assert!(d.race.is_none());
    }

    #[test]
    fn first_race_is_kept() {
        let mut d = RaceDetector::new();
        d.interval(0, &[acc(false, 1, true, 0), acc(false, 1, true, 1)]);
        let first = d.race.clone().unwrap();
        d.interval(0, &[acc(false, 2, true, 0), acc(false, 2, true, 1)]);
        assert_eq!(d.race.unwrap(), first);
    }

    // ---- shadow memory, run summaries, cross-block merge ----

    /// A shadow over one global buffer and one shared allocation of
    /// `len` elements, inside its first block.
    fn shadow(len: usize) -> ShadowMemory {
        let mut sh = ShadowMemory::default();
        sh.begin_block(&[len], &[len]);
        sh
    }

    fn lanes(f: impl Fn(u64) -> u64) -> [u64; 32] {
        std::array::from_fn(|l| f(l as u64))
    }

    fn run(kind: AccessKind, pc: u32, start: u64, end: u64) -> Run {
        Run {
            buf: 0,
            kind,
            pc,
            start,
            end,
        }
    }

    fn merge(blocks: &[&[Run]]) -> Option<RaceReport> {
        let blocks: Vec<Box<[Run]>> = blocks.iter().map(|b| Box::from(*b)).collect();
        cross_block_race(&blocks)
    }

    #[test]
    fn shadow_cells_mirror_the_log_detector() {
        // Every sequence of three accesses to one shared location by
        // threads 0/1: the shadow flags a race exactly when the
        // log-replay detector does, with the same parties.
        let kinds = [AccessKind::Read, AccessKind::Write, AccessKind::Atomic];
        for code in 0..6usize.pow(3) {
            let seq: Vec<(AccessKind, u32)> = (0..3)
                .map(|i| {
                    let c = code / 6usize.pow(i) % 6;
                    (kinds[c / 2], (c % 2) as u32)
                })
                .collect();
            let mut log = RaceDetector::new();
            let recs: Vec<AccessRec> = seq
                .iter()
                .map(|(k, tid)| AccessRec {
                    pc: 0,
                    global: false,
                    buf: 0,
                    idx: 3,
                    write: *k != AccessKind::Read,
                    atomic: *k == AccessKind::Atomic,
                    tid: *tid,
                })
                .collect();
            log.interval(0, &recs);
            let mut sh = shadow(8);
            let mut first = None;
            for (k, tid) in &seq {
                let addrs = lanes(|_| 3);
                match k {
                    AccessKind::Read => sh.group::<READ>(false, 0, &addrs, *tid, 1, 0),
                    AccessKind::Write => sh.group::<WRITE>(false, 0, &addrs, *tid, 1, 0),
                    AccessKind::Atomic => sh.group::<ATOMIC>(false, 0, &addrs, *tid, 1, 0),
                }
                if first.is_none() {
                    first = sh.best.clone();
                }
            }
            let want = log
                .race
                .map(|r| (r.parties.0.min(r.parties.1), r.write_write));
            let got = first.map(|r| (r.parties.0, r.write_write));
            assert_eq!(got, want, "{seq:?}");
        }
    }

    #[test]
    fn epoch_wrap_clears_instead_of_aliasing() {
        let mut sh = shadow(8);
        // Epoch 1: thread 0 writes shared element 7.
        assert_eq!(sh.epoch, 1);
        sh.group::<WRITE>(false, 0, &lanes(|_| 7), 0, 1, 0);
        // Fast-forward to the last epoch before the wrap; verdicts on
        // either side of it are the usual ones.
        sh.epoch = EPOCH_LIMIT - 2;
        sh.end_interval();
        sh.group::<WRITE>(false, 0, &lanes(|_| 2), 0, 1, 0);
        sh.group::<READ>(false, 0, &lanes(|_| 2), 0, 1, 0);
        assert!(sh.best.is_none(), "same thread, same interval");
        sh.end_interval();
        assert_eq!(sh.epoch, 1, "wrapped");
        // Element 7 still carries a tag of epoch 1 from the first
        // interval unless the wrap cleared it: a stale writer would
        // turn this read by another thread into a false race.
        sh.group::<READ>(false, 0, &lanes(|_| 7), 1, 1, 0);
        sh.group::<READ>(false, 0, &lanes(|_| 2), 1, 1, 0);
        assert!(sh.best.is_none(), "barriers separate the accesses");
        // And real races are still seen after the wrap.
        sh.group::<WRITE>(false, 0, &lanes(|_| 7), 0, 1, 4);
        let r = sh.best.clone().expect("read by 1, write by 0");
        assert_eq!(
            (r.idx, r.parties, r.write_write, r.pc),
            (7, (0, 1), false, 4)
        );
    }

    #[test]
    fn contiguous_warps_coalesce_into_one_run() {
        let mut sh = shadow(256);
        for w in 0..4u32 {
            sh.group::<READ>(true, 0, &lanes(|l| u64::from(w) * 32 + l), w * 32, !0, 5);
        }
        // A halo read at the same pc touches one new element…
        sh.group::<READ>(true, 0, &lanes(|l| 97 + l), 96, !0, 5);
        // …while another statement's accesses are runs of their own,
        // even where they continue a range: the pc differs.
        sh.group::<WRITE>(true, 0, &lanes(|l| 200 + l), 0, !0, 6);
        sh.group::<READ>(true, 0, &lanes(|l| 129 + l), 0, !0, 7);
        let (race, runs) = sh.end_block();
        assert!(race.is_none());
        assert_eq!(
            &*runs,
            [
                run(AccessKind::Read, 5, 0, 129),
                run(AccessKind::Write, 6, 200, 232),
                run(AccessKind::Read, 7, 129, 161)
            ]
        );
    }

    #[test]
    fn broadcast_reversed_and_partial_warps_coalesce() {
        let mut sh = shadow(256);
        sh.group::<READ>(true, 0, &lanes(|_| 9), 0, !0, 1);
        let mut expect = vec![run(AccessKind::Read, 1, 9, 10)];
        sh.group::<WRITE>(true, 0, &lanes(|l| 131 - l), 0, !0, 2);
        expect.push(run(AccessKind::Write, 2, 100, 132));
        // Lanes outside the mask hold garbage and are never looked at.
        let partial = lanes(|l| if l < 5 { 40 + l } else { u64::MAX });
        sh.group::<ATOMIC>(true, 0, &partial, 0, 0b11111, 3);
        expect.push(run(AccessKind::Atomic, 3, 40, 45));
        // A strided access is one run per element.
        sh.group::<WRITE>(true, 0, &lanes(|l| 140 + 2 * l), 32, 0b111, 4);
        expect.extend([140, 142, 144].map(|s| run(AccessKind::Write, 4, s, s + 1)));
        let (race, runs) = sh.end_block();
        assert!(race.is_none());
        assert_eq!(&*runs, expect);
    }

    #[test]
    fn scattered_accesses_are_bounded_by_distinct_elements() {
        // 1024 threads scatter into 8 bins, atomically and then with
        // plain writes by one thread per bin: the summary holds each
        // (element, kind) once, however many lanes hit it.
        let mut sh = shadow(8);
        for w in 0..32u32 {
            sh.group::<ATOMIC>(
                true,
                0,
                &lanes(|l| (l * 5 + u64::from(w)) % 8),
                w * 32,
                !0,
                1,
            );
        }
        sh.end_interval();
        for _ in 0..4 {
            sh.group::<WRITE>(true, 0, &lanes(|l| 7u64.wrapping_sub(l)), 0, 0xff, 2);
        }
        let (race, runs) = sh.end_block();
        assert!(race.is_none());
        let covered = |kind| -> u64 {
            runs.iter()
                .filter(|r| r.kind == kind)
                .map(|r| r.end - r.start)
                .sum()
        };
        assert_eq!(covered(AccessKind::Atomic), 8);
        assert_eq!(covered(AccessKind::Write), 8);
        assert!(runs.len() <= 9, "{runs:?}");
    }

    #[test]
    fn a_reread_at_another_pc_keeps_the_first_pc() {
        // Block 1 reads 0..32 at pc 5, then (next interval) 16..48 at
        // pc 9 and once more at pc 7; block 0 wrote elements 20 and 40.
        // The conflict on 20 belongs to the first read, the one on 40
        // to the second.
        let mut sh = shadow(64);
        sh.group::<READ>(true, 0, &lanes(|l| l), 0, !0, 5);
        sh.end_interval();
        sh.group::<READ>(true, 0, &lanes(|l| 16 + l), 0, !0, 9);
        sh.end_interval();
        sh.group::<READ>(true, 0, &lanes(|l| 16 + l), 0, !0, 7);
        let (_, reader) = sh.end_block();
        assert_eq!(
            &*reader,
            [
                run(AccessKind::Read, 5, 0, 32),
                run(AccessKind::Read, 9, 16, 48)
            ],
            "the pc-7 reread is covered by the run before it"
        );
        for (idx, pc) in [(20, 5), (40, 9)] {
            let writer = [run(AccessKind::Write, 3, idx, idx + 1)];
            let r = merge(&[&writer, &reader]).expect("write by 0, read by 1");
            assert_eq!(
                (r.idx, r.parties, r.write_write, r.pc),
                (idx, (0, 1), false, pc)
            );
        }
    }

    #[test]
    fn halo_reads_of_neighbouring_blocks_are_clean() {
        // Block b reads 32b-1..32b+33 of buffer 0 and writes 32b..32b+32
        // of buffer 1: the reads of neighbours overlap, nothing races.
        let block = |b: u64, out: u32| {
            vec![
                run(AccessKind::Read, 1, 32 * b + 31, 32 * b + 65),
                Run {
                    buf: out,
                    ..run(AccessKind::Write, 2, 32 * b + 32, 32 * b + 64)
                },
            ]
        };
        let blocks: Vec<Vec<Run>> = (0..8).map(|b| block(b, 1)).collect();
        let refs: Vec<&[Run]> = blocks.iter().map(|b| &b[..]).collect();
        assert_eq!(merge(&refs), None);
        // Written in place, block 1's halo read meets block 0's write.
        let blocks: Vec<Vec<Run>> = (0..8).map(|b| block(b, 0)).collect();
        let refs: Vec<&[Run]> = blocks.iter().map(|b| &b[..]).collect();
        let r = merge(&refs).expect("in-place stencil races");
        assert_eq!(
            (r.buf, r.idx, r.parties, r.write_write),
            (0, 63, (0, 1), false)
        );
        assert!(r.cross_block && r.global);
    }

    #[test]
    fn merge_orders_kinds_within_a_block_and_skips_equal_parties() {
        use AccessKind::{Atomic, Read, Write};
        // Atomics of all blocks on one element are ordered by hardware.
        let atomics = [run(Atomic, 1, 4, 5)];
        assert_eq!(merge(&[&atomics, &atomics, &atomics]), None);
        // A block may read, write and update its own element.
        let own = [
            run(Write, 3, 4, 5),
            run(Atomic, 2, 4, 5),
            run(Read, 1, 4, 5),
        ];
        assert_eq!(merge(&[&own, &[]]), None);
        // Against another block's atomic, the read is applied first and
        // reported with its own pc.
        let r = merge(&[&atomics, &own]).expect("atomic by 0, plain by 1");
        assert_eq!((r.parties, r.write_write, r.pc), ((0, 1), false, 1));
        // Two plain writers: the later block completes the pair.
        let w = |pc| [run(Write, pc, 0, 8)];
        let r = merge(&[&[], &w(6), &[], &w(7)]).expect("write-write");
        assert_eq!(
            (r.idx, r.parties, r.write_write, r.pc),
            (0, (1, 3), true, 7)
        );
    }
}
