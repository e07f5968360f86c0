//! The incremental compiler's contract: a warm [`CompileSession`] is an
//! *optimization only*. Whatever mix of cache hits and misses serves a
//! compile, every observable artifact — elaborated kernels, simulator
//! IR (spans included), per-backend kernel text, whole translation
//! units, host programs, rendered diagnostics — must be byte-identical
//! to a cold compile of the same source. Pinned corpus-wide, for the
//! fail corpus's diagnostics, and across edits that move (but do not
//! change) functions; plus hit/miss accounting showing that an edit
//! re-runs only the queries whose inputs changed.

use descend::backends::backend_by_name;
use descend::benchmarks::sources;
use descend::compiler::{CompileSession, Compiler};
use descend::typeck::check_program;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/descend")
}

fn descend_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {dir:?}: {e}"))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "descend"))
        .collect();
    files.sort();
    files
}

/// Every observable byte of two compiles, compared with context.
fn assert_identical(
    cold: &descend::compiler::Compiled,
    warm: &descend::compiler::Compiled,
    ctx: &str,
) {
    assert_eq!(
        format!("{:?}", cold.checked),
        format!("{:?}", warm.checked),
        "{ctx}: elaborated program differs"
    );
    assert_eq!(
        cold.kernels.len(),
        warm.kernels.len(),
        "{ctx}: kernel count"
    );
    for (c, w) in cold.kernels.iter().zip(&warm.kernels) {
        assert_eq!(c.mono, w.mono, "{ctx}: elaborated kernel {}", c.mono.name);
        assert_eq!(c.ir, w.ir, "{ctx}: IR of {} (spans included)", c.mono.name);
        assert_eq!(
            c.targets, w.targets,
            "{ctx}: kernel text of {}",
            c.mono.name
        );
    }
    assert_eq!(
        cold.target_sources, warm.target_sources,
        "{ctx}: translation units differ"
    );
}

/// Recompiling every pass-corpus program from a warm session yields
/// byte-identical artifacts, all queries hit, and the elaboration
/// matches the non-incremental reference (`check_program`) exactly.
#[test]
fn warm_recompile_is_byte_identical_corpus_wide() {
    for f in descend_files(&corpus_dir()) {
        let src = std::fs::read_to_string(&f).unwrap();
        let ctx = f.file_name().unwrap().to_string_lossy().into_owned();

        let mut session = CompileSession::new();
        let cold = session
            .compile_source(&src)
            .unwrap_or_else(|e| panic!("{ctx}: cold compile failed:\n{e}"));
        assert_eq!(session.stats().hits(), 0, "{ctx}: cold compile must miss");

        session.reset_stats();
        let warm = session.compile_source(&src).expect("warm recompile");
        assert_identical(&cold, &warm, &ctx);
        assert_eq!(
            session.stats().misses(),
            0,
            "{ctx}: warm recompile must be all hits, got {:?}",
            session.stats()
        );

        // Differential against the reference whole-program pipeline.
        let reference = check_program(&cold.ast).expect("reference checks");
        assert_eq!(
            format!("{:?}", cold.checked),
            format!("{reference:?}"),
            "{ctx}: incremental elaboration diverges from check_program"
        );
    }
}

/// The session assembles each translation unit from the kernel texts its
/// emit queries produced instead of rendering the kernels again. For
/// every pass-corpus program and Figure-8 source and every backend, that
/// unit equals a fresh `emit_program` of the checked program and equals
/// `assemble_program` over the per-kernel texts — cold, and again after a
/// one-function edit served by the warm session.
#[test]
fn translation_units_are_assembled_from_the_per_kernel_texts() {
    fn check(compiled: &descend::compiler::Compiled, ctx: &str) {
        for (name, unit) in &compiled.target_sources {
            let be = backend_by_name(name).expect("registered");
            let fresh = be.emit_program(&compiled.checked).expect("emits");
            assert_eq!(unit, &fresh, "{ctx}/{name}: session unit != emit_program");
            let texts: Vec<String> = compiled
                .kernels
                .iter()
                .map(|ck| ck.targets[name].clone())
                .collect();
            let assembled = be
                .assemble_program(&compiled.checked, &texts)
                .expect("assembles");
            assert_eq!(unit, &assembled, "{ctx}/{name}: unit != assemble_program");
        }
    }
    let mut programs: Vec<(String, String)> = descend_files(&corpus_dir())
        .iter()
        .map(|f| {
            (
                f.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(f).unwrap(),
            )
        })
        .collect();
    for (name, src) in [
        ("figure8:histogram", sources::histogram(4096)),
        ("figure8:reduce", sources::reduce(2048)),
        ("figure8:reduce_shuffle", sources::reduce_shuffle(2048)),
        ("figure8:stencil", sources::stencil(4096)),
        ("figure8:transpose", sources::transpose(256)),
        ("figure8:scan_blocks", sources::scan_blocks(1 << 12)),
        ("figure8:scan_add", sources::scan_add_offsets(1 << 12)),
        ("figure8:matmul", sources::matmul(64)),
    ] {
        programs.push((name.to_string(), src));
    }
    for (ctx, src) in &programs {
        let mut session = CompileSession::new();
        let cold = session
            .compile_source(src)
            .unwrap_or_else(|e| panic!("{ctx}: cold compile failed:\n{e}"));
        assert_eq!(cold.target_sources.len(), 4, "{ctx}: every backend");
        check(&cold, ctx);

        // A comment inside the first function body changes that
        // function's slice and nothing else.
        let at = src.find("]-> () {").expect("a function header") + "]-> () {".len();
        let edited = format!("{} // edited{}", &src[..at], &src[at..]);
        session.reset_stats();
        let warm = session.compile_source(&edited).expect("edited compiles");
        assert_eq!(session.stats().emit_program.misses, 4, "{ctx}");
        assert!(
            session.stats().typeck.misses >= 1,
            "{ctx}: the edit re-checks"
        );
        check(&warm, &format!("{ctx} (edited, warm)"));
        let recold = Compiler::new().compile_source(&edited).expect("compiles");
        assert_identical(&recold, &warm, &format!("{ctx} (edited)"));
    }
}

/// Rejected programs render the *same* diagnostic from a warm session —
/// errors are cached and replayed byte-identically.
#[test]
fn fail_corpus_diagnostics_are_byte_identical_warm() {
    let fail_dir = corpus_dir().join("fail");
    let files = descend_files(&fail_dir);
    assert!(!files.is_empty(), "fail corpus exists");
    let compiler = Compiler::new();
    let mut session = CompileSession::new();
    for f in &files {
        let src = std::fs::read_to_string(f).unwrap();
        let ctx = f.file_name().unwrap().to_string_lossy().into_owned();
        let one_shot = compiler
            .compile_source(&src)
            .expect_err("fail corpus rejects");
        let cold = session
            .compile_source(&src)
            .expect_err("fail corpus rejects");
        let warm = session
            .compile_source(&src)
            .expect_err("fail corpus rejects");
        assert_eq!(
            one_shot.rendered, cold.rendered,
            "{ctx}: session vs one-shot"
        );
        assert_eq!(
            cold.rendered, warm.rendered,
            "{ctx}: warm diagnostic differs"
        );
        assert_eq!(one_shot.stage, warm.stage, "{ctx}: stage differs");
    }
}

/// Regression: the session's parse-failure path used to hand-build its
/// diagnostic instead of routing through the registry, so cached syntax
/// errors lost their `E0002` code. Cached parse failures must carry the
/// registry code, and the whole structured diagnostic — not just the
/// rendering — must replay byte-identically from a warm session.
#[test]
fn cached_parse_failures_carry_registry_codes() {
    let src = "fn broken( -[t: cpu.thread]-> () {}";
    let mut session = CompileSession::new();
    let cold = session.compile_source(src).expect_err("syntax error");
    let warm = session.compile_source(src).expect_err("syntax error");
    for (which, err) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(err.diag.code, Some("E0002"), "{which}: code lost");
        assert!(
            err.rendered.starts_with("error[E0002]: syntax error"),
            "{which}: rendering lost the code header:\n{}",
            err.rendered
        );
        assert!(
            !err.diag.primary.span.is_dummy(),
            "{which}: parse failure lost its span"
        );
    }
    assert_eq!(cold.diag, warm.diag, "structured diagnostic drifted");
    // The machine document replays byte-identically too.
    let doc = |e: &descend::compiler::CompileError| {
        descend::diag::render_json("x.descend", src, std::slice::from_ref(e.diag.as_ref()))
    };
    assert_eq!(doc(&cold), doc(&warm), "JSON document drifted");
}

const TWO_KERNELS: &str = r#"
fn double(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v).group::<32>[[block]][[thread]] =
                (*v).group::<32>[[block]][[thread]] * 2.0;
        }
    }
}

fn triple(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v).group::<32>[[block]][[thread]] =
                (*v).group::<32>[[block]][[thread]] * 3.0;
        }
    }
}

fn run_double() -[t: cpu.thread]-> () {
    let h = alloc::<cpu.mem, [f64; 64]>();
    let d = gpu_alloc_copy(&h);
    double<<<X<2>, X<32>>>>(&uniq d);
    copy_mem_to_host(&uniq h, &d);
}

fn run_triple() -[t: cpu.thread]-> () {
    let h = alloc::<cpu.mem, [f64; 64]>();
    let d = gpu_alloc_copy(&h);
    triple<<<X<2>, X<32>>>>(&uniq d);
    copy_mem_to_host(&uniq h, &d);
}
"#;

/// Editing one kernel re-runs only that kernel's typeck/lower/emit and
/// the typeck of the host function that launches it; everything about
/// the untouched kernel (and its launcher) is served from cache. The
/// result still matches a cold compile byte-for-byte.
#[test]
fn editing_one_function_only_invalidates_its_own_queries() {
    let mut session = CompileSession::new();
    session.compile_source(TWO_KERNELS).expect("compiles");

    let edited = TWO_KERNELS.replace("* 3.0", "* 4.0");
    assert_ne!(edited, TWO_KERNELS);
    session.reset_stats();
    let warm = session.compile_source(&edited).expect("edited compiles");
    let stats = *session.stats();

    // Source changed, so the parse and the whole-program translation
    // units (one per backend) re-run by definition.
    assert_eq!(stats.parse.misses, 1);
    assert_eq!(stats.emit_program.misses, 4);
    // Of the four functions, exactly `triple` and `run_triple` (whose
    // launch dependency changed) re-check; `double` and `run_double`
    // hit.
    assert_eq!(
        (stats.typeck.hits, stats.typeck.misses),
        (2, 2),
        "{stats:?}"
    );
    // One of the two kernel instances re-lowers and re-emits.
    assert_eq!((stats.lower.hits, stats.lower.misses), (1, 1), "{stats:?}");
    assert_eq!((stats.emit.hits, stats.emit.misses), (4, 4), "{stats:?}");

    let cold = Compiler::new().compile_source(&edited).expect("compiles");
    assert_identical(&cold, &warm, "edited program");
}

/// An edit that only *moves* functions (text inserted above them) hits
/// every per-function cache; the cached elaborations and IR are rebased
/// so their spans — and therefore profiles and diagnostics — still point
/// at the right bytes of the new source.
#[test]
fn moving_functions_rebases_cached_spans() {
    let mut session = CompileSession::new();
    session.compile_source(TWO_KERNELS).expect("compiles");

    let moved = format!("// a comment pushing every function down\n\n{TWO_KERNELS}");
    session.reset_stats();
    let warm = session.compile_source(&moved).expect("moved compiles");
    let stats = *session.stats();
    assert_eq!(stats.typeck.misses, 0, "moves must not re-check: {stats:?}");
    assert_eq!(stats.lower.misses, 0, "moves must not re-lower: {stats:?}");
    assert_eq!(stats.emit.misses, 0, "moves must not re-emit: {stats:?}");

    // A cold compile of the moved source carries shifted spans; the
    // rebased cache must match it exactly.
    let cold = Compiler::new().compile_source(&moved).expect("compiles");
    assert_identical(&cold, &warm, "moved program");

    // And the spans really did move: the cached-and-rebased IR differs
    // from the original compile's IR (which pointed at the old offsets).
    let orig = Compiler::new()
        .compile_source(TWO_KERNELS)
        .expect("compiles");
    assert_ne!(
        orig.kernels[0].ir, warm.kernels[0].ir,
        "spans must shift with the source"
    );
}

/// The host-side artifacts flow through the same caches: a warm session
/// executes the edited program with the same results as a cold one.
#[test]
fn warm_compiles_run_identically() {
    let mut session = CompileSession::new();
    session.compile_source(TWO_KERNELS).expect("compiles");
    let warm = session.compile_source(TWO_KERNELS).expect("recompiles");
    let cfg = descend::sim::LaunchConfig {
        detect_races: true,
        ..Default::default()
    };
    let mut inputs = std::collections::HashMap::new();
    inputs.insert("h".to_string(), vec![1.5; 64]);
    let run = warm.run_host("run_triple", &inputs, &cfg).expect("runs");
    assert_eq!(run.cpu["h"], vec![4.5; 64]);
    let run = warm.run_host("run_double", &inputs, &cfg).expect("runs");
    assert_eq!(run.cpu["h"], vec![3.0; 64]);
}
