//! The query-based incremental compiler core.
//!
//! A [`CompileSession`] memoizes the pipeline as queries over
//! content-hashed inputs, so a long-running service (`descendc serve`,
//! repeated [`CompileSession::compile_source`] calls) only re-runs the
//! work whose inputs actually changed:
//!
//! - **parse**: whole-source → AST, keyed by the source hash;
//! - **typeck**: per *function*, keyed by the function's own source
//!   slice, the program's view/const items, and — for host functions —
//!   the definitions of the kernels they launch
//!   ([`descend_typeck::launch_callees`] is the syntactic dependency
//!   set; launches are the only cross-function dependency the language
//!   has);
//! - **lower**: per kernel *instance* (simulator IR), keyed by the
//!   defining function's slice plus the mangled instance name;
//! - **emit**: per kernel instance *and backend*, same key plus the
//!   backend's registry name;
//! - **emit-program**: per backend, over every item's slice (the
//!   translation unit is assembled from the emit queries' kernel texts
//!   plus prelude, host stubs and epilogue; no kernel renders twice).
//!
//! Cached values are stored with their source spans intact and *rebased*
//! on reuse: if a function's text is unchanged but the function moved
//! within the file (an edit earlier in the file), the cached elaboration
//! and IR are shifted by the offset delta
//! ([`MonoKernel::shift_spans`], [`gpu_sim::KernelIr::shift_spans`]).
//! A cache hit therefore returns output *byte-identical* to a cold
//! compile of the current source — the workspace incremental test pins
//! this corpus-wide, diagnostics included.
//!
//! [`Compiler`] delegates to a fresh single-shot session per call, so
//! there is exactly one pipeline; sessions add reuse, not behavior.

use crate::{codegen_err, CompileError, Compiled, CompiledKernel, Stage};
use descend_ast::term::{FnDef, Item, Program};
use descend_ast::ty::ExecTy;
use descend_ast::Span;
use descend_backends::{backend_by_name, KernelBackend, BACKEND_NAMES};
use descend_codegen::kernel_to_ir;
use descend_typeck::{
    check_context, check_fn, launch_callees, CheckedProgram, HostStmt, MonoKernel,
};
use gpu_sim::KernelIr;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher;

/// Hit/miss counts of one query kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCounter {
    /// Results served from cache.
    pub hits: u64,
    /// Results computed (and cached).
    pub misses: u64,
}

impl QueryCounter {
    fn hit(&mut self) {
        self.hits += 1;
    }

    fn miss(&mut self) {
        self.misses += 1;
    }
}

/// Per-kind hit/miss counters of a [`CompileSession`].
///
/// The incremental test asserts on these: recompiling an unchanged
/// program must be all hits; editing one function must miss only that
/// function's own queries (and the whole-program parse/emit-program
/// queries, whose input is by definition the whole source).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Whole-source parse queries.
    pub parse: QueryCounter,
    /// Per-function typeck queries.
    pub typeck: QueryCounter,
    /// Per-kernel-instance IR lowering queries.
    pub lower: QueryCounter,
    /// Per-kernel-instance, per-backend emission queries.
    pub emit: QueryCounter,
    /// Per-backend whole-translation-unit emission queries.
    pub emit_program: QueryCounter,
}

impl QueryStats {
    /// Total hits across all query kinds.
    pub fn hits(&self) -> u64 {
        self.parse.hits
            + self.typeck.hits
            + self.lower.hits
            + self.emit.hits
            + self.emit_program.hits
    }

    /// Total misses across all query kinds.
    pub fn misses(&self) -> u64 {
        self.parse.misses
            + self.typeck.misses
            + self.lower.misses
            + self.emit.misses
            + self.emit_program.misses
    }
}

/// A typeck query result stored for reuse: the elaboration plus, per
/// kernel, the byte offset its defining function had at store time (the
/// rebasing delta's reference point).
#[derive(Clone, Debug)]
struct StoredFn {
    kernels: Vec<StoredKernel>,
    host: Option<Vec<HostStmt>>,
}

#[derive(Clone, Debug)]
struct StoredKernel {
    mono: MonoKernel,
    fn_start: u32,
}

#[derive(Clone, Debug)]
struct StoredIr {
    ir: KernelIr,
    fn_start: u32,
}

/// A compiler with memoized queries shared across compiles.
///
/// Create one per logical client (sessions are cheap; caches grow with
/// the set of distinct function bodies seen) and feed it successive
/// program versions through [`CompileSession::compile_source`]. The
/// first compile populates the caches; later compiles re-run only the
/// queries whose content-hashed inputs changed. Outputs are always
/// byte-identical to a cold compile of the same source.
///
/// # Examples
///
/// ```
/// use descend_compiler::CompileSession;
///
/// let src = r#"
///     fn scale(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
///         sched(X) block in grid {
///             sched(X) thread in block {
///                 (*v).group::<32>[[block]][[thread]] =
///                     (*v).group::<32>[[block]][[thread]] * 3.0;
///             }
///         }
///     }
/// "#;
/// let mut session = CompileSession::new();
/// let cold = session.compile_source(src).expect("compiles");
/// let warm = session.compile_source(src).expect("compiles");
/// assert_eq!(cold.target_sources, warm.target_sources);
/// assert_eq!(session.stats().typeck.hits, 1);
/// assert_eq!(session.stats().typeck.misses, 1);
/// ```
#[derive(Debug, Default)]
pub struct CompileSession {
    backend_names: Vec<String>,
    parse_cache: HashMap<u64, Result<Program, CompileError>>,
    typeck_ok: HashMap<u64, StoredFn>,
    typeck_err: HashMap<u64, CompileError>,
    lower_ok: HashMap<u64, StoredIr>,
    lower_err: HashMap<u64, CompileError>,
    emit_ok: HashMap<u64, String>,
    emit_err: HashMap<u64, CompileError>,
    program_emit: HashMap<u64, String>,
    stats: QueryStats,
}

impl CompileSession {
    /// A session emitting every registered backend.
    pub fn new() -> CompileSession {
        CompileSession {
            backend_names: BACKEND_NAMES.iter().map(|s| s.to_string()).collect(),
            ..CompileSession::default()
        }
    }

    /// A session emitting only the named backends.
    ///
    /// # Errors
    ///
    /// The first unknown backend name.
    pub fn with_backends(names: &[&str]) -> Result<CompileSession, String> {
        for n in names {
            if backend_by_name(n).is_none() {
                return Err(format!(
                    "unknown backend `{n}` (registered: {})",
                    BACKEND_NAMES.join(", ")
                ));
            }
        }
        Ok(CompileSession {
            backend_names: names.iter().map(|s| s.to_string()).collect(),
            ..CompileSession::default()
        })
    }

    /// The selected backend names, in emission order.
    pub fn backends(&self) -> &[String] {
        &self.backend_names
    }

    /// The session's query hit/miss counters (cumulative; see
    /// [`CompileSession::reset_stats`]).
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Resets the hit/miss counters (the caches stay warm).
    pub fn reset_stats(&mut self) {
        self.stats = QueryStats::default();
    }

    /// Compiles source text through the memoized pipeline.
    ///
    /// # Errors
    ///
    /// A [`CompileError`] carrying a rendered diagnostic for the first
    /// parse, type, or lowering failure — byte-identical whether the
    /// failing query ran or was served from cache.
    pub fn compile_source(&mut self, src: &str) -> Result<Compiled, CompileError> {
        let key = {
            let mut h = DefaultHasher::new();
            h.write(b"parse");
            h.write(src.as_bytes());
            h.finish()
        };
        let ast = match self.parse_cache.get(&key) {
            Some(cached) => {
                self.stats.parse.hit();
                cached.clone()?
            }
            None => {
                self.stats.parse.miss();
                // Route through the parser's registry-coded diagnostic
                // (not a hand-built one) so cached parse failures carry
                // their `E0001`/`E0002` code and replay byte-identically.
                let parsed = descend_parser::parse(src).map_err(|e| {
                    let diag = e.to_diagnostic();
                    CompileError {
                        stage: Stage::Parse,
                        rendered: diag.render(src),
                        diag: Box::new(diag),
                        type_error: None,
                    }
                });
                self.parse_cache.insert(key, parsed.clone());
                parsed?
            }
        };
        self.compile_ast(ast, src)
    }

    /// Compiles an already parsed program through the memoized pipeline.
    ///
    /// `src` must be the text the AST was parsed from (its spans index
    /// into it); programs synthesized without spans are keyed by their
    /// structure instead of source slices and never rebase.
    ///
    /// # Errors
    ///
    /// Same as [`CompileSession::compile_source`], minus parse errors.
    pub fn compile_ast(&mut self, ast: Program, src: &str) -> Result<Compiled, CompileError> {
        check_context(&ast).map_err(|e| type_err(e, src))?;
        let cx = ProgramCx::new(&ast, src);

        // Per-function typeck queries, merged in check_program's order:
        // non-generic GPU functions standalone first (deduplicated by
        // instance name, as repeated instantiation would be), then host
        // functions, whose launches append any instances not yet seen.
        let mut kernels: Vec<MonoKernel> = Vec::new();
        let mut kernel_index: HashMap<String, usize> = HashMap::new();
        let mut host_fns: Vec<(String, Vec<HostStmt>)> = Vec::new();
        for item in &ast.items {
            let Item::Fn(f) = item else { continue };
            if !(matches!(f.sig.exec_ty, ExecTy::GpuGrid(..)) && f.sig.generics.is_empty()) {
                continue;
            }
            if kernel_index.contains_key(&f.sig.name) {
                // A duplicate-named kernel is never re-instantiated.
                continue;
            }
            let (ks, _) = self.typeck_query(&ast, &cx, f)?;
            for mono in ks {
                merge_kernel(mono, &mut kernels, &mut kernel_index);
            }
        }
        for item in &ast.items {
            let Item::Fn(f) = item else { continue };
            if !matches!(f.sig.exec_ty, ExecTy::CpuThread) {
                continue;
            }
            let (ks, host) = self.typeck_query(&ast, &cx, f)?;
            let remap: Vec<usize> = ks
                .into_iter()
                .map(|mono| merge_kernel(mono, &mut kernels, &mut kernel_index))
                .collect();
            let mut stmts = host.expect("host queries elaborate host statements");
            for s in &mut stmts {
                if let HostStmt::Launch { kernel, .. } = s {
                    *kernel = remap[*kernel];
                }
            }
            host_fns.push((f.sig.name.clone(), stmts));
        }
        let checked = CheckedProgram { kernels, host_fns };

        // Per-instance lowering and per-instance/per-backend emission.
        let backends: Vec<Box<dyn KernelBackend>> = self
            .backend_names
            .iter()
            .map(|n| backend_by_name(n).expect("backend names are validated at construction"))
            .collect();
        let mut compiled_kernels = Vec::new();
        for mk in &checked.kernels {
            let identity = cx.kernel_identity(mk);
            let ir = self.lower_query(identity, &cx, mk)?;
            let mut targets = BTreeMap::new();
            for be in &backends {
                let text = self.emit_query(identity, be.as_ref(), mk)?;
                targets.insert(be.name().to_string(), text);
            }
            compiled_kernels.push(CompiledKernel {
                mono: mk.clone(),
                ir,
                targets,
            });
        }
        let mut target_sources = BTreeMap::new();
        for be in &backends {
            let text = self.emit_program_query(&cx, be.as_ref(), &checked, &compiled_kernels)?;
            target_sources.insert(be.name().to_string(), text);
        }
        Ok(Compiled {
            ast,
            checked,
            kernels: compiled_kernels,
            target_sources,
        })
    }

    /// The per-function typeck query: kernels this function's check
    /// instantiates (with spans rebased to the current program) plus,
    /// for host functions, the elaborated host statements.
    fn typeck_query(
        &mut self,
        ast: &Program,
        cx: &ProgramCx<'_>,
        f: &FnDef,
    ) -> Result<(Vec<MonoKernel>, Option<Vec<HostStmt>>), CompileError> {
        let key = cx.fn_key(f);
        if let Some(stored) = self.typeck_ok.get(&key) {
            self.stats.typeck.hit();
            return Ok(materialize(stored, cx));
        }
        let err_key = key ^ cx.src_hash;
        if let Some(e) = self.typeck_err.get(&err_key) {
            self.stats.typeck.hit();
            return Err(e.clone());
        }
        self.stats.typeck.miss();
        match check_fn(ast, f) {
            Ok(checked) => {
                let stored = StoredFn {
                    kernels: checked
                        .kernels
                        .into_iter()
                        .map(|mono| {
                            let fn_start = cx.fn_start(&mono.source_name);
                            StoredKernel { mono, fn_start }
                        })
                        .collect(),
                    host: checked.host,
                };
                let out = materialize(&stored, cx);
                self.typeck_ok.insert(key, stored);
                Ok(out)
            }
            Err(e) => {
                let e = type_err(e, cx.src);
                self.typeck_err.insert(err_key, e.clone());
                Err(e)
            }
        }
    }

    /// The per-kernel-instance IR lowering query.
    fn lower_query(
        &mut self,
        identity: u64,
        cx: &ProgramCx<'_>,
        mk: &MonoKernel,
    ) -> Result<KernelIr, CompileError> {
        let key = mix(b"ir", identity);
        if let Some(stored) = self.lower_ok.get(&key) {
            self.stats.lower.hit();
            let mut ir = stored.ir.clone();
            ir.shift_spans(i64::from(cx.fn_start(&mk.source_name)) - i64::from(stored.fn_start));
            return Ok(ir);
        }
        if let Some(e) = self.lower_err.get(&key) {
            self.stats.lower.hit();
            return Err(e.clone());
        }
        self.stats.lower.miss();
        match kernel_to_ir(mk) {
            Ok(ir) => {
                self.lower_ok.insert(
                    key,
                    StoredIr {
                        ir: ir.clone(),
                        fn_start: cx.fn_start(&mk.source_name),
                    },
                );
                Ok(ir)
            }
            Err(e) => {
                let e = codegen_err(&e);
                self.lower_err.insert(key, e.clone());
                Err(e)
            }
        }
    }

    /// The per-kernel-instance, per-backend emission query.
    fn emit_query(
        &mut self,
        identity: u64,
        be: &dyn KernelBackend,
        mk: &MonoKernel,
    ) -> Result<String, CompileError> {
        let mut h = DefaultHasher::new();
        h.write(b"emit");
        h.write_u64(identity);
        h.write(be.name().as_bytes());
        let key = h.finish();
        if let Some(text) = self.emit_ok.get(&key) {
            self.stats.emit.hit();
            return Ok(text.clone());
        }
        if let Some(e) = self.emit_err.get(&key) {
            self.stats.emit.hit();
            return Err(e.clone());
        }
        self.stats.emit.miss();
        match be.emit_kernel(mk) {
            Ok(text) => {
                self.emit_ok.insert(key, text.clone());
                Ok(text)
            }
            Err(e) => {
                let e = codegen_err(&e);
                self.emit_err.insert(key, e.clone());
                Err(e)
            }
        }
    }

    /// The per-backend whole-translation-unit query (its input is every
    /// item of the program): assembles the kernel texts the emit queries
    /// already produced with the prelude, host stubs and epilogue.
    fn emit_program_query(
        &mut self,
        cx: &ProgramCx<'_>,
        be: &dyn KernelBackend,
        checked: &CheckedProgram,
        kernels: &[CompiledKernel],
    ) -> Result<String, CompileError> {
        let mut h = DefaultHasher::new();
        h.write(b"prog");
        h.write(be.name().as_bytes());
        h.write_u64(cx.items_hash);
        let key = h.finish();
        if let Some(text) = self.program_emit.get(&key) {
            self.stats.emit_program.hit();
            return Ok(text.clone());
        }
        self.stats.emit_program.miss();
        let kernel_texts: Vec<String> = kernels
            .iter()
            .map(|ck| ck.targets[be.name()].clone())
            .collect();
        let text = be
            .assemble_program(checked, &kernel_texts)
            .map_err(|e| codegen_err(&e))?;
        self.program_emit.insert(key, text.clone());
        Ok(text)
    }
}

/// Rebases a stored typeck result to the current program: kernels whose
/// defining function moved are span-shifted by the offset delta.
fn materialize(stored: &StoredFn, cx: &ProgramCx<'_>) -> (Vec<MonoKernel>, Option<Vec<HostStmt>>) {
    let kernels = stored
        .kernels
        .iter()
        .map(|sk| {
            let mut mono = sk.mono.clone();
            mono.shift_spans(i64::from(cx.fn_start(&mono.source_name)) - i64::from(sk.fn_start));
            mono
        })
        .collect();
    (kernels, stored.host.clone())
}

/// Appends a kernel instance unless one with the same mangled name is
/// already present; returns the instance's global index either way.
fn merge_kernel(
    mono: MonoKernel,
    kernels: &mut Vec<MonoKernel>,
    index: &mut HashMap<String, usize>,
) -> usize {
    if let Some(&i) = index.get(&mono.name) {
        return i;
    }
    kernels.push(mono);
    let i = kernels.len() - 1;
    index.insert(kernels[i].name.clone(), i);
    i
}

fn type_err(e: descend_typeck::TypeError, src: &str) -> CompileError {
    CompileError {
        stage: Stage::Type,
        rendered: e.diag.render(src),
        diag: e.diag.clone(),
        type_error: Some(Box::new(e)),
    }
}

fn mix(tag: &[u8], v: u64) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(tag);
    h.write_u64(v);
    h.finish()
}

/// Pre-computed, per-compile view of the program the queries key on:
/// item source slices (content hashes), function start offsets, and the
/// shared view/const context hash.
struct ProgramCx<'s> {
    src: &'s str,
    src_hash: u64,
    /// Hash over every item's content slice, in order — the input of
    /// whole-program queries (emit-program).
    items_hash: u64,
    /// Content hash of the view/const items every function depends on.
    context_hash: u64,
    /// Per function name (first definition wins, matching
    /// `Program::fn_def`): content hash and current start offset.
    fns: HashMap<String, (u64, u32)>,
}

impl<'s> ProgramCx<'s> {
    fn new(ast: &Program, src: &'s str) -> ProgramCx<'s> {
        let mut fns = HashMap::new();
        let mut ctx = DefaultHasher::new();
        let mut items = DefaultHasher::new();
        ctx.write(b"context");
        items.write(b"items");
        for item in &ast.items {
            match item {
                Item::Fn(f) => {
                    let content = fn_content_hash(src, f);
                    items.write_u64(content);
                    fns.entry(f.sig.name.clone())
                        .or_insert((content, slice_start(f.span)));
                }
                Item::View(v) => {
                    let content = item_content_hash(src, v.span, || format!("{v:?}"));
                    ctx.write_u64(content);
                    items.write_u64(content);
                }
                Item::Const(c) => {
                    let content = item_content_hash(src, c.span, || format!("{c:?}"));
                    ctx.write_u64(content);
                    items.write_u64(content);
                }
            }
        }
        let mut src_h = DefaultHasher::new();
        src_h.write(src.as_bytes());
        ProgramCx {
            src,
            src_hash: src_h.finish(),
            items_hash: items.finish(),
            context_hash: ctx.finish(),
            fns,
        }
    }

    /// The cache key of a function's typeck query: its own content, the
    /// view/const context, and the content of every kernel it launches
    /// (or an absence marker, so adding the missing kernel invalidates).
    fn fn_key(&self, f: &FnDef) -> u64 {
        let mut h = DefaultHasher::new();
        h.write(b"typeck");
        h.write_u64(self.context_hash);
        h.write_u64(fn_content_hash(self.src, f));
        for callee in launch_callees(f) {
            h.write(callee.as_bytes());
            match self.fns.get(&callee) {
                Some((content, _)) => h.write_u64(*content),
                None => h.write(b"absent"),
            }
        }
        h.finish()
    }

    /// The content identity of a kernel instance: defining function's
    /// slice, view/const context, and the mangled instance name (which
    /// encodes the nat arguments).
    fn kernel_identity(&self, mk: &MonoKernel) -> u64 {
        let mut h = DefaultHasher::new();
        h.write(b"kinst");
        h.write_u64(self.context_hash);
        match self.fns.get(&mk.source_name) {
            Some((content, _)) => h.write_u64(*content),
            None => h.write(b"absent"),
        }
        h.write(mk.name.as_bytes());
        h.finish()
    }

    /// The current start offset of the (first) function named `name`;
    /// 0 when unknown or span-less, pairing with `slice_start` so
    /// synthesized programs always rebase by delta 0.
    fn fn_start(&self, name: &str) -> u32 {
        self.fns.get(name).map_or(0, |(_, start)| *start)
    }
}

/// A span's slice of `src`, when it is a real, in-bounds span.
fn item_slice(src: &str, span: Span) -> Option<&str> {
    let (s, e) = (span.start as usize, span.end as usize);
    (s < e && e <= src.len() && src.is_char_boundary(s) && src.is_char_boundary(e))
        .then(|| &src[s..e])
}

fn slice_start(span: Span) -> u32 {
    if span.is_dummy() {
        0
    } else {
        span.start
    }
}

/// Content hash of an item: its source slice when the span is real (so
/// identical text hashes identically wherever it sits in the file), a
/// structural fallback for synthesized ASTs.
fn item_content_hash(src: &str, span: Span, fallback: impl Fn() -> String) -> u64 {
    let mut h = DefaultHasher::new();
    match item_slice(src, span) {
        Some(text) => h.write(text.as_bytes()),
        None => h.write(fallback().as_bytes()),
    }
    h.finish()
}

fn fn_content_hash(src: &str, f: &FnDef) -> u64 {
    item_content_hash(src, f.span, || format!("{f:?}"))
}
