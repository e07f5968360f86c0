//! The incremental compiler's contract: a warm [`CompileSession`] is an
//! *optimization only*. Whatever mix of cache hits and misses serves a
//! compile, every observable artifact — elaborated kernels, simulator
//! IR (spans included), per-backend kernel text, whole translation
//! units, host programs, rendered diagnostics — must be byte-identical
//! to a cold compile of the same source. Pinned corpus-wide, for the
//! fail corpus's diagnostics, and across edits that move (but do not
//! change) functions; plus hit/miss accounting showing that an edit
//! re-runs only the queries whose inputs changed. A host function's
//! typeck query reads only the signatures of the non-generic kernels it
//! launches, so each kernel body is checked once per compile, by the
//! kernel's own query.

use descend::ast::term::Program;
use descend::backends::backend_by_name;
use descend::benchmarks::sources;
use descend::compiler::{CompileSession, Compiler};
use descend::typeck::{check_fn, check_program, ErrorKind};
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
            let assembled = be.assemble_program(&compiled.checked, &texts);
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

/// Editing one kernel's body re-runs only that kernel's
/// typeck/lower/emit: its launcher's typeck reads only the kernel's
/// signature, so it hits, as does everything about the untouched kernel
/// and its launcher. The result still matches a cold compile
/// byte-for-byte.
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
    // Of the four functions, exactly `triple` re-checks; `double`,
    // `run_double` and `run_triple` (which reads only `triple`'s
    // unchanged signature) hit.
    assert_eq!(
        (stats.typeck.hits, stats.typeck.misses),
        (3, 1),
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

/// [`TWO_KERNELS`] with `triple`'s *signature* edited, body untouched.
/// Each edit must miss `triple` and its launcher `run_triple` (the
/// launcher reads the signature) and hit `double` and `run_double`; the
/// warm result, artifacts or diagnostic, equals a cold compile's.
#[test]
fn editing_a_kernel_signature_invalidates_its_launcher() {
    let header = "fn triple(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> ()";
    assert!(TWO_KERNELS.contains(header));

    // A `where` clause that holds: the program still compiles.
    let mut session = CompileSession::new();
    session.compile_source(TWO_KERNELS).expect("compiles");
    let edited = TWO_KERNELS.replace(header, &format!("{header} where 64 == 2 * 32"));
    session.reset_stats();
    let warm = session.compile_source(&edited).expect("edited compiles");
    let stats = *session.stats();
    assert_eq!(
        (stats.typeck.hits, stats.typeck.misses),
        (2, 2),
        "{stats:?}"
    );
    let cold = Compiler::new().compile_source(&edited).expect("compiles");
    assert_identical(&cold, &warm, "where clause added");

    // A parameter the launch does not pass: the kernel checks, its
    // launcher is re-checked and rejects the launch.
    let mut session = CompileSession::new();
    session.compile_source(TWO_KERNELS).expect("compiles");
    let edited = TWO_KERNELS.replace(
        header,
        &header.replace("[f64; 64])", "[f64; 64], w: & gpu.global [f64; 64])"),
    );
    session.reset_stats();
    let warm = session
        .compile_source(&edited)
        .expect_err("launch mismatch");
    let stats = *session.stats();
    assert_eq!(
        (stats.typeck.hits, stats.typeck.misses),
        (2, 2),
        "{stats:?}"
    );
    let cold = Compiler::new()
        .compile_source(&edited)
        .expect_err("rejects");
    let ast = parse(&edited);
    let reference = check_program(&ast).expect_err("rejects");
    assert_eq!(reference.kind, ErrorKind::ArityMismatch);
    assert_eq!(cold.rendered, warm.rendered, "warm diagnostic differs");
    assert_eq!(cold.diag, reference.diag, "session vs check_program");
    let launch = edited.find("triple<<<").expect("the launch");
    assert_eq!(
        cold.diag.primary.span.start as usize, launch,
        "reported at the launch"
    );
}

/// A generic kernel's instances are checked in its launcher's query, so
/// an edit inside the generic body re-checks the launcher (it has no
/// query of its own to hit), and the warm result equals a cold one.
#[test]
fn editing_a_generic_kernel_body_invalidates_its_launcher() {
    let src = std::fs::read_to_string(corpus_dir().join("fill_generic.descend")).unwrap();
    let mut session = CompileSession::new();
    session.compile_source(&src).expect("compiles");
    let edited = src.replace("= 1.0;", "= 2.0;");
    assert_ne!(edited, src);
    session.reset_stats();
    let warm = session.compile_source(&edited).expect("edited compiles");
    let stats = *session.stats();
    assert_eq!(
        (stats.typeck.hits, stats.typeck.misses),
        (0, 1),
        "{stats:?}"
    );
    let cold = Compiler::new().compile_source(&edited).expect("compiles");
    assert_identical(&cold, &warm, "generic body edited");
}

/// A non-generic kernel named like an instance of a generic one
/// (`fill__64_2` beside `fill<n, c>`) is rejected by the program-wide
/// context check, which runs uncached on every compile: adding it to a
/// warm session rejects the program exactly as a cold compile and
/// `check_program` do, and removing it again compiles as before.
#[test]
fn adding_a_function_named_like_a_generic_instance_rejects_warm_as_cold() {
    let src = std::fs::read_to_string(corpus_dir().join("fill_generic.descend")).unwrap();
    let colliding = "
fn fill__64_2(v: &uniq gpu.global [f64; 64])
-[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v).group::<32>[[block]][[thread]] = 2.0;
        }
    }
}
";
    let edited = format!("{src}{colliding}");
    let mut session = CompileSession::new();
    session.compile_source(&src).expect("compiles");
    let warm = session.compile_source(&edited).expect_err("rejects");
    let cold = Compiler::new()
        .compile_source(&edited)
        .expect_err("rejects");
    let reference = check_program(&parse(&edited)).expect_err("rejects");
    assert_eq!(reference.kind, ErrorKind::InstanceNameCollision);
    assert_eq!(cold.rendered, warm.rendered, "warm diagnostic differs");
    assert_eq!(cold.diag, reference.diag, "session vs check_program");
    assert_eq!(
        cold.diag.primary.span.start as usize,
        edited.find("fn fill__64_2").unwrap(),
        "reported at the colliding function"
    );
    let back = session.compile_source(&src).expect("compiles again");
    let cold = Compiler::new().compile_source(&src).expect("compiles");
    assert_identical(&cold, &back, "colliding function removed");
}

/// Two functions of one name (E0123): the first definition used to be
/// taken for both, so the second body — a race here — went unchecked.
/// The program-wide context check rejects it on every compile: adding
/// the duplicate to a warm session rejects the program exactly as a
/// cold compile and `check_program` do, and removing it again compiles
/// as before.
#[test]
fn adding_a_duplicate_function_rejects_warm_as_cold() {
    let src = std::fs::read_to_string(corpus_dir().join("scale.descend")).unwrap();
    let duplicate = "
fn scale(v: &uniq gpu.global [f64; 256]) -[grid: gpu.grid<X<8>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*v).group::<32>[[block]][[thread]] =
                (*v).group::<32>[[block]].rev[[thread]];
        }
    }
}
";
    let edited = format!("{src}{duplicate}");
    let mut session = CompileSession::new();
    session.compile_source(&src).expect("compiles");
    let warm = session.compile_source(&edited).expect_err("rejects");
    let cold = Compiler::new()
        .compile_source(&edited)
        .expect_err("rejects");
    let reference = check_program(&parse(&edited)).expect_err("rejects");
    assert_eq!(reference.kind, ErrorKind::DuplicateItem);
    assert_eq!(cold.rendered, warm.rendered, "warm diagnostic differs");
    assert_eq!(cold.diag, reference.diag, "session vs check_program");
    assert_eq!(
        cold.diag.primary.span.start as usize,
        edited.rfind("fn scale").unwrap(),
        "reported at the second definition"
    );
    let back = session.compile_source(&src).expect("compiles again");
    let cold = Compiler::new().compile_source(&src).expect("compiles");
    assert_identical(&cold, &back, "duplicate function removed");
}

fn parse(src: &str) -> Program {
    descend::parser::parse(src).expect("test sources parse")
}

/// A valid host function launching a kernel whose body races.
const RACY_KERNEL: &str = r#"
fn rev_per_block(arr: &uniq gpu.global [f64; 2048])
-[grid: gpu.grid<X<8>, X<256>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*arr).group::<256>[[block]][[thread]] =
                (*arr).group::<256>[[block]].rev[[thread]];
        }
    }
}

fn main() -[t: cpu.thread]-> () {
    let h = alloc::<cpu.mem, [f64; 2048]>();
    let d = gpu_alloc_copy(&h);
    rev_per_block<<<X<8>, X<256>>>>(&uniq d);
    copy_mem_to_host(&uniq h, &d);
}
"#;

/// The diagnostic every pipeline gives [`RACY_KERNEL`].
const RACY_KERNEL_RENDERED: &str = "\
error[E0102]: conflicting memory access
  --> 6:13
   |
 6 |             (*arr).group::<256>[[block]][[thread]] =
   |             ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^ cannot select memory because of a conflicting prior selection here
  --> 7:17
   |
 7 |                 (*arr).group::<256>[[block]].rev[[thread]];
   |                 ------------------------------------------ prior access of `arr.*.group::<256>[[block:X]].reverse[[thread:X]]`
";

/// A host's check types a launch of a non-generic kernel against the
/// kernel's signature and does not check its body: the host checks, the
/// kernel's own check reports the race, and every pipeline rejects the
/// program with that diagnostic, the kernel's query first.
#[test]
fn a_racy_kernel_body_is_reported_by_its_own_query() {
    let ast = parse(RACY_KERNEL);
    let host = ast.fn_def("main").expect("host");
    let kernel = ast.fn_def("rev_per_block").expect("kernel");

    let checked = check_fn(&ast, host).expect("the host matches the kernel's signature");
    assert!(checked.kernels.is_empty(), "{:?}", checked.kernels);
    assert_eq!(checked.launched, ["rev_per_block"]);
    let err = check_fn(&ast, kernel).expect_err("the kernel body races");
    assert_eq!(err.kind, ErrorKind::ConflictingAccess);
    assert_eq!(err.diag.code, Some("E0102"));
    let write = RACY_KERNEL
        .find("(*arr).group::<256>[[block]][[thread]]")
        .unwrap();
    assert_eq!(err.diag.primary.span.start as usize, write);
    assert_eq!(err.diag.render(RACY_KERNEL), RACY_KERNEL_RENDERED);

    let reference = check_program(&ast).expect_err("check_program rejects");
    assert_eq!(
        reference.diag, err.diag,
        "check_program vs the kernel's check"
    );
    let mut session = CompileSession::new();
    let cold = session.compile_source(RACY_KERNEL).expect_err("rejects");
    assert_eq!(cold.diag, err.diag, "session vs the kernel's check");
    assert_eq!(cold.rendered, RACY_KERNEL_RENDERED);
    // Only the kernel's query ran: it failed before the host's.
    assert_eq!(session.stats().typeck.misses, 1, "{:?}", session.stats());
    let one_shot = Compiler::new()
        .compile_source(RACY_KERNEL)
        .expect_err("rejects");
    assert_eq!(one_shot.rendered, RACY_KERNEL_RENDERED);
    let warm = session.compile_source(RACY_KERNEL).expect_err("rejects");
    assert_eq!(warm.diag, err.diag, "warm session");
}

/// Generic kernels have no query of their own: each instance a host
/// launches is checked inside the host's query, so the host's result
/// carries the instances and an error in a generic body is the host
/// query's error.
#[test]
fn generic_instances_are_checked_in_the_launching_host_query() {
    let src = std::fs::read_to_string(corpus_dir().join("fill_generic.descend")).unwrap();
    let ast = parse(&src);
    let checked = check_fn(&ast, ast.fn_def("main").unwrap()).expect("checks");
    let names: Vec<&str> = checked.kernels.iter().map(|k| k.name.as_str()).collect();
    assert_eq!(names, ["fill__64_2", "fill__128_4"]);
    assert_eq!(checked.launched, ["fill__64_2", "fill__128_4"]);
    assert!(checked.kernels.iter().all(|k| !k.body.is_empty()));

    let racy_generic = r#"
fn rev<n: nat>(arr: &uniq gpu.global [f64; n])
-[grid: gpu.grid<X<1>, X<n>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            (*arr).group::<n>[[block]][[thread]] =
                (*arr).group::<n>[[block]].rev[[thread]];
        }
    }
}

fn main() -[t: cpu.thread]-> () {
    let h = alloc::<cpu.mem, [f64; 64]>();
    let d = gpu_alloc_copy(&h);
    rev::<64><<<X<1>, X<64>>>>(&uniq d);
    copy_mem_to_host(&uniq h, &d);
}
"#;
    let ast = parse(racy_generic);
    let generic = check_fn(&ast, ast.fn_def("rev").unwrap()).expect("nothing standalone");
    assert!(generic.kernels.is_empty() && generic.host.is_none());
    let err = check_fn(&ast, ast.fn_def("main").unwrap()).expect_err("the instance races");
    assert_eq!(err.kind, ErrorKind::ConflictingAccess);
    let reference = check_program(&ast).expect_err("rejects");
    assert_eq!(reference.diag, err.diag);
    let mut session = CompileSession::new();
    let cold = session.compile_source(racy_generic).expect_err("rejects");
    assert_eq!(cold.diag, err.diag);
    // The host's query is the only one and it reported the error.
    assert_eq!(session.stats().typeck.misses, 1, "{:?}", session.stats());
}

/// Over the pass corpus, a host function's check carries a full
/// elaboration only for the generic instances it launches; each
/// non-generic kernel it launches is named in `launched` and elaborated
/// by its own check alone.
#[test]
fn host_checks_carry_only_generic_instances_corpus_wide() {
    let mut launches = 0;
    for f in descend_files(&corpus_dir()) {
        let src = std::fs::read_to_string(&f).unwrap();
        let ctx = f.file_name().unwrap().to_string_lossy().into_owned();
        let ast = parse(&src);
        let generic = |name: &str| ast.fn_def(name).is_some_and(|d| !d.sig.generics.is_empty());
        for item in &ast.items {
            let descend::ast::term::Item::Fn(host) = item else {
                continue;
            };
            if !matches!(host.sig.exec_ty, descend::ast::ty::ExecTy::CpuThread) {
                continue;
            }
            let checked = check_fn(&ast, host).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            for k in &checked.kernels {
                assert!(generic(&k.source_name), "{ctx}: {} elaborated", k.name);
                assert!(checked.launched.contains(&k.name), "{ctx}: {}", k.name);
            }
            for name in &checked.launched {
                let elaborated = checked.kernels.iter().any(|k| &k.name == name);
                let def = name.split("__").next().unwrap();
                assert_eq!(elaborated, generic(def), "{ctx}: {name}");
                launches += 1;
            }
        }
    }
    assert!(launches >= 14, "the corpus launches kernels: {launches}");
}
