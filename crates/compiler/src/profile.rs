//! Source-attributed launch profiles.
//!
//! Turns the simulator's deterministic [`LaunchTrace`]s into per-source-
//! line cost reports: every modeled cycle, global transaction, shared
//! replay, atomic serialization, barrier wait and shuffle exchange is
//! attributed to the source line it originated from (via the typeck →
//! IR span plumbing), then ranked by cycles. Cost with no single source
//! construct — warp-wide instruction issue, hand-built IR — lands on a
//! dedicated *unattributed* row, so the per-line sums always equal the
//! launch totals exactly (pinned by tests).
//!
//! Two renderings: a human-readable ranked table ([`render_text`]) and a
//! machine JSON document ([`render_json`], schema `descend-profile/1`,
//! validated against `schemas/profile.schema.json` in CI).

use descend_diag::{json_escape, line_col};
use gpu_sim::trace::{LaunchTrace, TraceTotals};
use gpu_sim::LaunchStats;
use std::fmt::Write as _;

/// Cost aggregated onto one source line (or the unattributed row).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LineRow {
    /// 1-based source line; 0 marks the unattributed row.
    pub line: u32,
    /// 1-based column of the first attributed span on the line; 0 on
    /// the unattributed row.
    pub col: u32,
    /// Total modeled cycles charged to the line, over all blocks.
    pub cycles: u64,
    /// Coalesced global-memory transactions.
    pub transactions: u64,
    /// Shared-memory bank replays beyond the conflict-free minimum.
    pub replays: u64,
    /// Extra atomic serializations beyond the conflict-free minimum.
    pub serializations: u64,
    /// Barrier-wait cycles charged to barriers on this line.
    pub barrier_cycles: u64,
    /// Shuffle-exchange cycles.
    pub shuffle_cycles: u64,
    /// Raw memory accesses (global + shared lanes).
    pub accesses: u64,
    /// The trimmed source line text ("" on the unattributed row).
    pub source: String,
}

/// One launch's profile: identity, stat totals, ranked lines.
#[derive(Clone, Debug, PartialEq)]
pub struct LaunchProfile {
    /// Kernel instance name.
    pub kernel: String,
    /// Blocks per grid.
    pub grid_dim: [u64; 3],
    /// Threads per block.
    pub block_dim: [u64; 3],
    /// SMs the cost model scheduled blocks over.
    pub sm_count: u64,
    /// The launch's statistics as the simulator reported them.
    pub stats: LaunchStats,
    /// The same quantities reconstructed from the trace (equal to
    /// `stats` field-for-field — pinned by tests), plus `work_cycles`,
    /// the per-line profile's total.
    pub totals: TraceTotals,
    /// Per-line rows, ranked by cycles descending (line ascending on
    /// ties; the unattributed row sorts by its cycles like any other).
    pub lines: Vec<LineRow>,
}

/// Builds one launch's per-line profile from its trace and stats.
pub fn profile_launch(src: &str, stats: &LaunchStats, trace: &LaunchTrace) -> LaunchProfile {
    let src_lines: Vec<&str> = src.lines().collect();
    // Aggregate span rows onto lines; key 0 is the unattributed row.
    let mut by_line: std::collections::HashMap<u32, LineRow> = std::collections::HashMap::new();
    for r in trace.profile_rows() {
        let (line, col) = if r.span.is_dummy() {
            (0, 0)
        } else {
            let (line, col) = line_col(src, r.span.start);
            (line as u32, col as u32)
        };
        let row = by_line.entry(line).or_insert_with(|| LineRow {
            line,
            col,
            source: if line == 0 {
                String::new()
            } else {
                src_lines
                    .get(line as usize - 1)
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default()
            },
            ..LineRow::default()
        });
        if col != 0 && (row.col == 0 || col < row.col) {
            row.col = col;
        }
        row.cycles += r.cycles;
        row.transactions += r.transactions;
        row.replays += r.replays;
        row.serializations += r.serializations;
        row.barrier_cycles += r.barrier_cycles;
        row.shuffle_cycles += r.shuffle_cycles;
        row.accesses += r.accesses;
    }
    let mut lines: Vec<LineRow> = by_line.into_values().collect();
    lines.sort_unstable_by(|a, b| b.cycles.cmp(&a.cycles).then(a.line.cmp(&b.line)));
    LaunchProfile {
        kernel: trace.kernel.clone(),
        grid_dim: trace.grid_dim,
        block_dim: trace.block_dim,
        sm_count: trace.sm_count,
        stats: stats.clone(),
        totals: trace.totals(),
        lines,
    }
}

/// Profiles every launch of a traced host run, in launch order.
///
/// # Panics
///
/// When `stats` and `traces` disagree in length (they come from the
/// same [`crate::Compiled::run_host_traced`] call).
pub fn profile_launches(
    src: &str,
    stats: &[LaunchStats],
    traces: &[LaunchTrace],
) -> Vec<LaunchProfile> {
    assert_eq!(stats.len(), traces.len(), "one trace per launch");
    stats
        .iter()
        .zip(traces)
        .map(|(s, t)| profile_launch(src, s, t))
        .collect()
}

/// Renders profiles as a human-readable ranked report: per launch, the
/// aligned [`LaunchStats`] table, then the per-line ranking (a `—` line
/// marks unattributed cost — warp-wide instruction issue).
pub fn render_text(profiles: &[LaunchProfile]) -> String {
    let mut out = String::new();
    for (i, p) in profiles.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "launch {i}: {} grid ({}, {}, {}) block ({}, {}, {}) over {} SMs",
            p.kernel,
            p.grid_dim[0],
            p.grid_dim[1],
            p.grid_dim[2],
            p.block_dim[0],
            p.block_dim[1],
            p.block_dim[2],
            p.sm_count
        );
        for l in p.stats.to_string().lines() {
            let _ = writeln!(out, "  {l}");
        }
        let _ = writeln!(
            out,
            "  per-line cost ({} work cycles across {} blocks):",
            p.totals.work_cycles, p.totals.blocks
        );
        let _ = writeln!(
            out,
            "  {:>5} {:>9} {:>6} {:>7} {:>7} {:>7} {:>8} {:>8} {:>8}  source",
            "line", "cycles", "%", "trans", "replay", "serial", "barrier", "shuffle", "access"
        );
        let work = p.totals.work_cycles.max(1);
        for r in &p.lines {
            let line = if r.line == 0 {
                "—".to_string()
            } else {
                r.line.to_string()
            };
            let source = if r.line == 0 {
                "(warp instruction issue, unattributed)"
            } else {
                r.source.as_str()
            };
            let _ = writeln!(
                out,
                "  {:>5} {:>9} {:>5.1}% {:>7} {:>7} {:>7} {:>8} {:>8} {:>8}  {}",
                line,
                r.cycles,
                r.cycles as f64 * 100.0 / work as f64,
                r.transactions,
                r.replays,
                r.serializations,
                r.barrier_cycles,
                r.shuffle_cycles,
                r.accesses,
                source
            );
        }
    }
    out
}

/// Renders profiles as the machine JSON document, schema
/// `descend-profile/1` (see `schemas/profile.schema.json`). Hand-rolled
/// like every JSON producer in the tree — no serde in the dependency
/// cone. Deterministic: derived solely from the deterministic traces.
pub fn render_json(file: &str, host_fn: &str, profiles: &[LaunchProfile]) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"descend-profile/1\",");
    let _ = writeln!(s, "  \"file\": \"{}\",", json_escape(file));
    let _ = writeln!(s, "  \"host_fn\": \"{}\",", json_escape(host_fn));
    let total: u64 = profiles.iter().map(|p| p.stats.cycles).sum();
    let _ = writeln!(s, "  \"total_cycles\": {total},");
    s.push_str("  \"launches\": [\n");
    for (i, p) in profiles.iter().enumerate() {
        let _ = writeln!(s, "    {{\"kernel\": \"{}\",", json_escape(&p.kernel));
        let _ = writeln!(
            s,
            "     \"grid_dim\": [{}, {}, {}], \"block_dim\": [{}, {}, {}], \"sm_count\": {},",
            p.grid_dim[0],
            p.grid_dim[1],
            p.grid_dim[2],
            p.block_dim[0],
            p.block_dim[1],
            p.block_dim[2],
            p.sm_count
        );
        let _ = writeln!(s, "     \"stats\": {},", p.stats.to_json());
        let _ = writeln!(s, "     \"work_cycles\": {},", p.totals.work_cycles);
        s.push_str("     \"lines\": [\n");
        for (j, r) in p.lines.iter().enumerate() {
            let _ = writeln!(
                s,
                "      {{\"line\": {}, \"col\": {}, \"cycles\": {}, \"transactions\": {}, \
                 \"replays\": {}, \"serializations\": {}, \"barrier_cycles\": {}, \
                 \"shuffle_cycles\": {}, \"accesses\": {}, \"source\": \"{}\"}}{}",
                r.line,
                r.col,
                r.cycles,
                r.transactions,
                r.replays,
                r.serializations,
                r.barrier_cycles,
                r.shuffle_cycles,
                r.accesses,
                json_escape(&r.source),
                if j + 1 < p.lines.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            s,
            "     ]}}{}",
            if i + 1 < profiles.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}
