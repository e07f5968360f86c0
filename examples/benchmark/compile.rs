//! `compile_cold`: a fresh session compiles one program to all four
//! translation units. The front end and emission do all the work, the
//! simulator none.

use crate::alloc;
use crate::corpus::{fig8_programs, pass_programs, Program, FIG8_PAPER};
use crate::harness::{passes_for, put, Exact, Metrics, OpRecord, Workload};
use crate::spans::Spans;
use crate::util::{timed, Rng};
use descend::backends::{backend_by_name, BACKEND_NAMES};
use descend::codegen::all_kernels_to_ir;
use descend::compiler::CompileSession;
use descend::sim::ir::{Expr, Stmt};
use descend::sim::KernelIr;
use descend::{parser, typeck};
use std::collections::BTreeMap;

/// Each backend's registry name and the span its emission sits in.
const BACKEND_SPANS: [(&str, &str); 4] = [
    ("cuda", "backends.cuda.emit"),
    ("opencl", "backends.opencl.emit"),
    ("wgsl", "backends.wgsl.emit"),
    ("c", "backends.c.emit"),
];

pub struct CompileCold {
    programs: Vec<Program>,
    /// Per program, the four translation units of a cold compile made in
    /// set-up: every timed compile must reproduce them byte for byte.
    expected: Vec<BTreeMap<String, String>>,
    emitted_bytes: u64,
    /// Exact counts gathered by the staged pass.
    tokens: u64,
    kernel_instances: u64,
    ir_nodes: u64,
    target_bytes: BTreeMap<&'static str, u64>,
}

impl CompileCold {
    /// corpus-pass + fig8 = 23 programs. `--seed` only orders them: the
    /// program texts are the input.
    pub fn setup(corrupt: bool) -> Result<CompileCold, String> {
        let mut programs = pass_programs()?;
        // Both sets have a `histogram`: spans are grouped by program name.
        programs.extend(fig8_programs(&FIG8_PAPER).into_iter().map(|p| Program {
            name: format!("fig8:{}", p.name),
            src: p.src,
        }));
        let mut expected = programs
            .iter()
            .map(|p| Self::cold(&p.src).map_err(|e| format!("{}: {e}", p.name)))
            .collect::<Result<Vec<_>, _>>()?;
        if corrupt {
            // `--self-test`: one emitted byte differs.
            if let Some(text) = expected[0].values_mut().next() {
                text.replace_range(0..1, "\u{1}");
            }
        }
        Ok(CompileCold {
            programs,
            expected,
            emitted_bytes: 0,
            tokens: 0,
            kernel_instances: 0,
            ir_nodes: 0,
            target_bytes: BTreeMap::new(),
        })
    }

    fn cold(src: &str) -> Result<BTreeMap<String, String>, String> {
        CompileSession::new()
            .compile_source(src)
            .map(|c| c.target_sources)
            .map_err(|e| e.to_string())
    }

    /// The untraced operation: a timed cold compile, which must be
    /// byte-identical to the cold compile made in set-up.
    fn op(&self, i: usize, bytes: &mut u64) -> OpRecord {
        let src = &self.programs[i].src;
        let allocs = alloc::calls();
        let (units, secs) = timed(|| Self::cold(src));
        let allocs = alloc::calls() - allocs;
        let ok = units.is_ok_and(|units| {
            *bytes += units.values().map(|t| t.len() as u64).sum::<u64>();
            units.len() == BACKEND_NAMES.len() && units == self.expected[i]
        });
        OpRecord::unsimulated(Some(i), secs, allocs, ok)
    }

    /// The traced operation: the same pipeline, one public call per
    /// layer, each inside a span.
    fn staged_op(&mut self, i: usize, spans: &mut Spans, count: bool) -> OpRecord {
        let program = self.programs[i].clone();
        let src = program.src.as_str();
        // Timed on its own, outside the operation: `parse` tokenizes
        // again, and `parser.parse_us` is reported net of this.
        let tokens = spans.span("parser.tokenize", &program.name, |_| parser::tokenize(src));
        let allocs = alloc::calls();
        let (ok, secs) = timed(|| {
            spans.span("compile_cold", &program.name, |spans| {
                let ast = spans
                    .span("parser.parse", "", |_| parser::parse(src))
                    .ok()?;
                let checked = spans
                    .span("typeck.check", "", |_| typeck::check_program(&ast))
                    .ok()?;
                let irs = spans
                    .span("codegen.lower", "", |_| all_kernels_to_ir(&checked.kernels))
                    .ok()?;
                let mut units = Vec::new();
                for (name, span) in BACKEND_SPANS {
                    let backend = backend_by_name(name)?;
                    let text = spans
                        .span(span, "", |_| backend.emit_program(&checked))
                        .ok()?;
                    units.push((name, text));
                }
                Some((tokens.ok()?.len(), checked.kernels.len(), irs, units))
            })
        });
        let allocs = alloc::calls() - allocs;
        if let (true, Some((tokens, kernels, irs, units))) = (count, &ok) {
            self.tokens += *tokens as u64;
            self.kernel_instances += *kernels as u64;
            self.ir_nodes += irs.iter().map(ir_nodes).sum::<u64>();
            for (name, text) in units {
                *self.target_bytes.entry(name).or_default() += text.len() as u64;
            }
        }
        OpRecord::unsimulated(Some(i), secs, allocs, ok.is_some())
    }

    /// `compiler.session_overhead_us` and `compiler.warm_hit_us` need the
    /// untraced session beside the staged spans: per program, one cold
    /// compile and one unchanged recompile in the same session.
    fn session_pass(&self, spans: &mut Spans) {
        for p in &self.programs {
            let mut session = CompileSession::new();
            let cold = spans.span("compiler.cold", &p.name, |_| session.compile_source(&p.src));
            let warm = spans.span("compiler.warm_hit", &p.name, |_| {
                session.compile_source(&p.src)
            });
            std::hint::black_box((cold.is_ok(), warm.is_ok()));
        }
    }
}

impl Workload for CompileCold {
    fn pass(&mut self, rng: &mut Rng) -> Vec<OpRecord> {
        let mut bytes = 0;
        let ops = rng
            .order(self.programs.len())
            .into_iter()
            .map(|i| self.op(i, &mut bytes))
            .collect();
        self.emitted_bytes = bytes;
        ops
    }

    fn probe(
        &mut self,
        budget: f64,
        rng: &mut Rng,
        spans: &mut Spans,
        out: &mut Metrics,
    ) -> Result<Vec<Vec<OpRecord>>, String> {
        let passes = passes_for(budget, |first| {
            let ops = rng
                .order(self.programs.len())
                .into_iter()
                .map(|i| self.staged_op(i, spans, first))
                .collect();
            self.session_pass(spans);
            ops
        });
        let us = |name: &str| spans.median_sum(name) * 1e6;
        let src_bytes: usize = self.programs.iter().map(|p| p.src.len()).sum();
        put(out, "parser.tokenize_us", us("parser.tokenize"), "us");
        put(
            out,
            "parser.parse_us",
            (us("parser.parse") - us("parser.tokenize")).max(0.0),
            "us",
        );
        put(out, "parser.tokens", self.tokens as f64, "count");
        put(
            out,
            "parser.src_mb_per_s",
            src_bytes as f64 / us("parser.parse"),
            "MB/s",
        );
        put(
            out,
            "parser.allocs",
            spans.median_allocs("parser.parse"),
            "count",
        );
        put(out, "typeck.check_us", us("typeck.check"), "us");
        put(
            out,
            "typeck.kernel_instances",
            self.kernel_instances as f64,
            "count",
        );
        put(
            out,
            "typeck.allocs",
            spans.median_allocs("typeck.check"),
            "count",
        );
        put(out, "codegen.lower_us", us("codegen.lower"), "us");
        put(out, "codegen.ir_nodes", self.ir_nodes as f64, "count");
        put(
            out,
            "codegen.allocs",
            spans.median_allocs("codegen.lower"),
            "count",
        );
        let mut staged = us("parser.parse") + us("typeck.check") + us("codegen.lower");
        let mut backend_allocs = 0.0;
        for (t, span) in BACKEND_SPANS {
            staged += us(span);
            backend_allocs += spans.median_allocs(span);
            put(out, &format!("backends.{t}.emit_us"), us(span), "us");
            let bytes = *self.target_bytes.get(t).unwrap_or(&0);
            put(out, &format!("backends.{t}.bytes"), bytes as f64, "bytes");
        }
        put(out, "backends.allocs", backend_allocs, "count");
        put(
            out,
            "compiler.session_overhead_us",
            us("compiler.cold") - staged,
            "us",
        );
        put(out, "compiler.warm_hit_us", us("compiler.warm_hit"), "us");
        Ok(passes)
    }

    fn exact(&self) -> Exact {
        Exact {
            emitted_bytes: Some(self.emitted_bytes),
            ..Exact::default()
        }
    }
}

/// Statement plus expression nodes of a kernel body. `Src` markers emit
/// no bytecode and are not counted.
pub fn ir_nodes(ir: &KernelIr) -> u64 {
    fn expr(e: &Expr) -> u64 {
        1 + match e {
            Expr::LoadGlobal { idx, .. } | Expr::LoadShared { idx, .. } => expr(idx),
            Expr::Bin(_, a, b) => expr(a) + expr(b),
            Expr::Un(_, a) => expr(a),
            _ => 0,
        }
    }
    fn stmts(body: &[Stmt]) -> u64 {
        body.iter()
            .map(|s| match s {
                Stmt::Src(_) => 0,
                Stmt::Barrier => 1,
                Stmt::SetLocal(_, e) => 1 + expr(e),
                Stmt::StoreGlobal { idx, value, .. }
                | Stmt::StoreShared { idx, value, .. }
                | Stmt::AtomicGlobal { idx, value, .. }
                | Stmt::AtomicShared { idx, value, .. } => 1 + expr(idx) + expr(value),
                Stmt::If {
                    cond,
                    then_s,
                    else_s,
                } => 1 + expr(cond) + stmts(then_s) + stmts(else_s),
                Stmt::Loop {
                    init, bound, body, ..
                } => 1 + expr(init) + expr(bound) + stmts(body),
                Stmt::Shfl { value, .. } => 1 + expr(value),
            })
            .sum()
    }
    stmts(&ir.body)
}
