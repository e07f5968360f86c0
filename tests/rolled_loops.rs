//! Rolled ≡ hand-unrolled: a for-nat loop that the checker folds into
//! one rolled loop must compile to exactly what the same source with the
//! loop unrolled by hand compiles to.
//!
//! For each program the loop form and its textual unrolling are
//! compared on the verdict, on the simulator IR (source markers aside:
//! the two texts differ in where their statements sit), and on the
//! buffers and `LaunchStats` of a launch under both executors with race
//! detection on; a rejected program must be rejected by both with the
//! same code and messages. The loop form's IR must also equal its
//! per-iteration lowering (`support/unroll.rs`): every index the IR
//! unroller instantiates from the index table is the one lowering that
//! iteration's path gives. Each case also states whether its loops roll,
//! and which of its loops the checker checked once (the variable a
//! symbolic index) rather than per iteration, so the comparison cannot
//! pass on programs where nothing rolled or nothing was checked once.

use descend::benchmarks::sources;
use descend::compiler::{Compiled, Compiler};
use descend::sim::{ExecMode, Gpu, KernelIr, LaunchConfig, Stmt};
use descend::typeck::{ElabStmt, LoopChecks};
use proptest::prelude::*;

#[path = "support/unroll.rs"]
mod unroll;

/// `src` with every `for x in [lo..hi] { .. }` of literal bounds replaced
/// by `hi - lo` copies of its body, `x` spelled as each value in turn
/// (nested loops unroll inside each copy).
fn unroll(src: &str) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < src.len() {
        if let Some((var, lo, hi, body, end)) = nat_loop_at(src, i) {
            let body = unroll(body);
            for v in lo..hi {
                out.push_str(&replace_ident(&body, var, &v.to_string()));
            }
            i = end;
        } else {
            let c = src[i..].chars().next().expect("in bounds");
            out.push(c);
            i += c.len_utf8();
        }
    }
    out
}

/// A `for var in [lo..hi] {` loop starting at byte `at`: its variable,
/// bounds, body text and the byte after its closing brace.
fn nat_loop_at(src: &str, at: usize) -> Option<(&str, u64, u64, &str, usize)> {
    let boundary = at == 0 || !is_ident(src.as_bytes()[at - 1] as char);
    let rest = src[at..].strip_prefix("for ").filter(|_| boundary)?;
    let (var, rest) = rest.split_once(" in [")?;
    let (lo, rest) = rest.split_once("..")?;
    let (hi, rest) = rest.split_once("] {")?;
    let (lo, hi) = (lo.parse().ok()?, hi.parse().ok()?);
    let body_start = src.len() - rest.len();
    let mut depth = 1;
    for (k, c) in rest.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    let body = &src[body_start..body_start + k];
                    return Some((var, lo, hi, body, body_start + k + 1));
                }
            }
            _ => {}
        }
    }
    None
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `text` with every identifier token `var` replaced by `with`.
fn replace_ident(text: &str, var: &str, with: &str) -> String {
    let mut out = String::new();
    let mut token = String::new();
    for c in text.chars().chain(std::iter::once(' ')) {
        if is_ident(c) {
            token.push(c);
            continue;
        }
        out.push_str(if token == var { with } else { &token });
        token.clear();
        out.push(c);
    }
    out.pop();
    out
}

/// The IR statements without source markers.
fn without_src(body: &[Stmt]) -> Vec<Stmt> {
    body.iter()
        .filter(|s| !matches!(s, Stmt::Src(_)))
        .map(|s| match s {
            Stmt::If {
                cond,
                then_s,
                else_s,
            } => Stmt::If {
                cond: cond.clone(),
                then_s: without_src(then_s),
                else_s: without_src(else_s),
            },
            Stmt::Loop {
                var,
                init,
                cmp,
                bound,
                step,
                body,
            } => Stmt::Loop {
                var: *var,
                init: init.clone(),
                cmp: *cmp,
                bound: bound.clone(),
                step: *step,
                body: without_src(body),
            },
            other => other.clone(),
        })
        .collect()
}

fn rolled_loops(body: &[ElabStmt]) -> usize {
    body.iter()
        .map(|s| match s {
            ElabStmt::ForNat { body, .. } => 1 + rolled_loops(body),
            ElabStmt::Split { fst, snd, .. } => rolled_loops(fst) + rolled_loops(snd),
            _ => 0,
        })
        .sum()
}

/// Launches `ir` over the kernel's shape with deterministic inputs:
/// every buffer afterwards, and the launch statistics.
fn launch(
    compiled: &Compiled,
    k: usize,
    exec: ExecMode,
) -> Result<(Vec<Vec<f64>>, descend::sim::LaunchStats), String> {
    let ck = &compiled.kernels[k];
    let ir: &KernelIr = &ck.ir;
    let mut gpu = Gpu::new();
    let args: Vec<_> = ir
        .params
        .iter()
        .enumerate()
        .map(|(p, decl)| {
            let data: Vec<f64> = (0..decl.len)
                .map(|i| ((i * 7 + p as u64 * 3) % 13) as f64)
                .collect();
            gpu.alloc_scalars(decl.elem, &data)
        })
        .collect();
    let cfg = LaunchConfig {
        detect_races: true,
        exec,
        ..LaunchConfig::default()
    };
    let stats = gpu
        .launch(ir, ck.mono.grid_dim, ck.mono.block_dim, &args, &cfg)
        .map_err(|e| e.to_string())?;
    Ok((args.iter().map(|b| gpu.read_scalars(*b)).collect(), stats))
}

/// What the loop form of an accepted program compiled to: its rolled
/// loops, and how the checker checked its loops, over all its kernels.
#[derive(Debug, PartialEq)]
struct Loops {
    rolled: usize,
    checks: LoopChecks,
}

/// Compiles `src` and its hand-unrolled form and compares them; returns
/// the loop form's [`Loops`] (`None`: both rejected, with the same code
/// and messages).
fn rolled_matches_unrolled(src: &str) -> Result<Option<Loops>, String> {
    let unrolled_src = unroll(src);
    assert_ne!(unrolled_src, src, "the program has a loop to unroll");
    let compiler = Compiler::new();
    let (rolled, unrolled) = match (
        compiler.compile_source(src),
        compiler.compile_source(&unrolled_src),
    ) {
        (Ok(r), Ok(u)) => (r, u),
        (Err(r), Err(u)) => {
            // Same verdict: the same error code and messages (the spans
            // differ: the two texts place their statements differently).
            let messages = |d: &descend::diag::Diagnostic| {
                let mut m = vec![d.title.clone(), d.primary.message.clone()];
                m.extend(d.secondary.iter().map(|l| l.message.clone()));
                m.extend(d.help.iter().cloned());
                (d.code, m)
            };
            if messages(&r.diag) != messages(&u.diag) {
                return Err(format!(
                    "verdicts differ:\n{}\nvs\n{}",
                    r.rendered, u.rendered
                ));
            }
            return Ok(None);
        }
        (r, u) => {
            return Err(format!(
                "verdicts differ: loop form ok = {}, unrolled ok = {}\n{unrolled_src}",
                r.is_ok(),
                u.is_ok()
            ))
        }
    };
    if rolled.kernels.len() != unrolled.kernels.len() {
        return Err("kernel counts differ".into());
    }
    let mut loops = Loops {
        rolled: 0,
        checks: LoopChecks::default(),
    };
    for (k, (r, u)) in rolled.kernels.iter().zip(&unrolled.kernels).enumerate() {
        loops.rolled += rolled_loops(&r.mono.body);
        loops.checks.once += r.mono.loop_checks.once;
        loops.checks.per_iteration += r.mono.loop_checks.per_iteration;
        if rolled_loops(&u.mono.body) != 0 || u.mono.loop_checks != LoopChecks::default() {
            return Err("the unrolled text still has loops".into());
        }
        // Every access of every iteration indexes exactly as lowering the
        // iteration's own path would (substitution before lowering).
        if r.ir != unroll::reference_ir(&r.mono) {
            return Err(format!(
                "`{}`: IR differs from the per-iteration lowering",
                r.mono.name
            ));
        }
        let strip = |ir: &KernelIr| KernelIr {
            body: without_src(&ir.body),
            ..ir.clone()
        };
        if strip(&r.ir) != strip(&u.ir) {
            return Err(format!("`{}`: IR differs", r.mono.name));
        }
        for exec in [ExecMode::Warp, ExecMode::Reference] {
            let (a, b) = (launch(&rolled, k, exec), launch(&unrolled, k, exec));
            if a != b {
                return Err(format!(
                    "`{}` under {exec:?}: launches differ:\n{a:?}\nvs\n{b:?}",
                    r.mono.name
                ));
            }
        }
    }
    Ok(Some(loops))
}

#[test]
fn unroll_spells_each_iteration() {
    let src = "for i in [1..3] { v[i] = vi; for j in [0..2] { w[i][j] = 1; } }";
    assert_eq!(
        unroll(src),
        " v[1] = vi;  w[1][0] = 1;  w[1][1] = 1;   v[2] = vi;  w[2][0] = 1;  w[2][1] = 1;  "
    );
}

#[test]
fn paper_programs_roll_exactly() {
    let tiles = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/descend/transpose_tiles.descend"
    ))
    .expect("corpus file");
    let elements = r#"
fn k(v: &uniq gpu.global [f64; 192]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            for i in [0..3] {
                (*v).group::<3>[[thread]][i] = 1.0;
            }
        }
    }
}
"#;
    let scheduled = r#"
fn k(v: &uniq gpu.global [f64; 256]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
    sched(X) block in grid {
        for i in [0..4] {
            sched(X) thread in block {
                (*v).group::<64>[i][[thread]] = 1.0;
            }
        }
    }
}
"#;
    // (program, rolled loops in its loop form, loops checked once and
    // per iteration): matmul's k loop is checked once and rolls once per
    // iteration of its t loop, which holds a barrier and is checked per
    // iteration; each transpose has two i loops; a block-level loop
    // around a `sched` is checked once with it.
    for (name, src, rolled, once, per_iteration) in [
        ("matmul(64)", sources::matmul(64), 2, 2, 1),
        ("transpose(256)", sources::transpose(256), 2, 2, 0),
        ("transpose_tiles", tiles, 2, 2, 0),
        (
            "multiple_elements_per_thread",
            elements.to_string(),
            1,
            1,
            0,
        ),
        ("sched_in_loop", scheduled.to_string(), 1, 1, 0),
    ] {
        let loops = rolled_matches_unrolled(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let checks = LoopChecks {
            once,
            per_iteration,
        };
        assert_eq!(loops, Some(Loops { rolled, checks }), "{name}");
    }
    // The paper-scale matmul: all eight k loops are checked once.
    let mm = Compiler::new()
        .compile_source(&sources::matmul(256))
        .expect("matmul compiles");
    let checks = LoopChecks {
        once: 8,
        per_iteration: 1,
    };
    assert_eq!(mm.kernels[0].mono.loop_checks, checks);
    assert_eq!(rolled_loops(&mm.kernels[0].mono.body), 8);
}

/// One generated statement: its form, which loop variable indexes it,
/// and the offset `c` of its index `x + c`. The two-variable forms index
/// `[x + c][y]`: in the inner body `y` is the other loop's variable, in
/// the outer body it is `i` again.
#[derive(Clone, Debug)]
struct GenStmt {
    form: u8,
    inner: bool,
    outer_var: bool,
    offset: u64,
}

/// The forms [`gen_program`] renders.
const FORMS: u8 = 14;

/// The first form that indexes through two loop variables.
const TWO_VARS: u8 = 10;

fn gen_stmt() -> impl Strategy<Value = GenStmt> {
    (
        0u8..FORMS,
        proptest::bool::ANY,
        proptest::bool::ANY,
        0u64..6,
    )
        .prop_map(|(form, inner, outer_var, offset)| GenStmt {
            form,
            inner,
            outer_var,
            // Half the indices are the bare variable.
            offset: offset.saturating_sub(2),
        })
}

impl GenStmt {
    /// The loop variable the statement indexes with.
    fn var(&self) -> &'static str {
        if self.outer_var || !self.inner {
            "i"
        } else {
            "j"
        }
    }
}

/// A kernel whose 64 threads each own eight elements of `v` (grouped,
/// or transposed to one row per index) and of `u` (transposed), and one
/// column of the 11 × 11 rows of `t` (indexed directly or transposed),
/// with atomics on `h`, and a two-deep loop nest over `[lo..hi]` ranges
/// inside `[0..8]`. Indices are `x + c` with `c` up to 3, below and
/// above the trip counts, so a write and a read through the same row
/// of `v` or `t`, or an atomic and a plain read of the same `h` cell,
/// race exactly when some pair of iterations makes their indices meet
/// (at both steps, for `t`); an index past the end of its array is out
/// of bounds.
fn gen_program(outer: (u64, u64), inner: (u64, u64), stmts: &[GenStmt]) -> String {
    let render = |s: &GenStmt| {
        let x = match s.offset {
            0 => s.var().to_string(),
            c => format!("{} + {c}", s.var()),
        };
        let y = if s.inner && s.var() == "i" { "j" } else { "i" };
        match s.form {
            0 => format!("(*v).group::<8>[[thread]][{x}] = (*w).group::<8>[[thread]][{x}] * 2.0;"),
            1 => format!("(*u).group::<64>.transpose[[thread]][{x}] = 3.0;"),
            2 => format!("acc = acc + (*w).group::<8>[[thread]].rev[{x}];"),
            3 => format!("acc = acc + (*w).group::<8>.transpose[{x}][[thread]];"),
            4 => format!("(*v).group::<8>[[thread]][{x}] = acc;"),
            5 => format!("(*v).group::<8>.transpose[{x}][[thread]] = acc;"),
            6 => format!("acc = acc + (*v).group::<8>.transpose[{x}].rev[[thread]];"),
            7 => "(*v).group::<8>[[thread]][0] = acc;".to_string(),
            8 => format!("atomic_add((*h)[{x}], 1);"),
            9 => format!("hv = hv + (*h)[{x}];"),
            10 => format!("(*t).group::<64>.group::<11>[{x}][{y}][[thread]] = acc;"),
            11 => format!("acc = acc + (*t).group::<64>.group::<11>[{x}][{y}].rev[[thread]];"),
            12 => format!("(*t).group::<64>.group::<11>.transpose[{x}][{y}][[thread]] = acc;"),
            _ => format!(
                "acc = acc + (*t).group::<64>.group::<11>.transpose[{x}][{y}].rev[[thread]];"
            ),
        }
    };
    let body = |inner: bool| {
        stmts
            .iter()
            .filter(|s| s.inner == inner)
            .map(render)
            .collect::<Vec<_>>()
            .join("\n                    ")
    };
    format!(
        r#"
fn k(v: &uniq gpu.global [f64; 512], u: &uniq gpu.global [f64; 512],
     w: & gpu.global [f64; 512], h: &uniq gpu.global [i32; 16],
     t: &uniq gpu.global [f64; 7744],
     out: &uniq gpu.global [f64; 64], hout: &uniq gpu.global [i32; 64])
-[grid: gpu.grid<X<1>, X<64>>]-> () {{
    sched(X) block in grid {{
        sched(X) thread in block {{
            let mut acc = 0.0;
            let mut hv = 0;
            for i in [{}..{}] {{
                {}
                for j in [{}..{}] {{
                    {}
                }}
            }}
            (*out)[[thread]] = acc;
            (*hout)[[thread]] = hv;
        }}
    }}
}}
"#,
        outer.0,
        outer.1,
        body(false),
        inner.0,
        inner.1,
        body(true)
    )
}

/// The [`Loops`] of a generated program the checker accepts. A loop of
/// at least two trips is checked once (the inner loop then once inside
/// it), unless a path indexes through its variable at two steps (a
/// two-variable form in the outer body); any other loop per iteration,
/// the inner loop once per outer iteration. A loop checked once rolls
/// when its body is not empty (the outer body always holds at least the
/// inner loop's source marker) and indexes through its variable only
/// bare, never `x + c` with `c > 0`.
fn expected_loops(outer: (u64, u64), inner: (u64, u64), stmts: &[GenStmt]) -> Loops {
    let trips = |(lo, hi): (u64, u64)| (hi - lo) as u32;
    let (to, ti) = (trips(outer), trips(inner));
    // Whether a statement that runs indexes with `var + c`, `c > 0`
    // (form 7 stores to the same place in every iteration).
    let offset_in = |var: &str, inner_only: bool| {
        stmts.iter().any(|s| {
            let runs = if s.inner { ti > 0 } else { !inner_only };
            runs && s.form != 7 && s.offset > 0 && s.var() == var
        })
    };
    let inner_rolls =
        usize::from(ti >= 2 && stmts.iter().any(|s| s.inner) && !offset_in("j", true));
    let outer_once = to >= 2 && !stmts.iter().any(|s| !s.inner && s.form >= TWO_VARS);
    let outer_rolls = outer_once && !offset_in("i", false);
    let rolled = if outer_rolls {
        1 + inner_rolls
    } else {
        to as usize * inner_rolls
    };
    let (inner_once, inner_per_iteration) = if ti >= 2 { (1, 0) } else { (0, 1) };
    let checks = if outer_once {
        LoopChecks {
            once: 1 + inner_once,
            per_iteration: inner_per_iteration,
        }
    } else {
        LoopChecks {
            once: to * inner_once,
            per_iteration: 1 + to * inner_per_iteration,
        }
    };
    Loops { rolled, checks }
}

proptest! {
    /// Generated loop nests: the loop form and the unrolled text agree,
    /// on the verdict and, for accepted programs, on the IR, buffers and
    /// launch statistics; every loop of an accepted program that can be
    /// checked once is, and each loop rolls exactly when folding its
    /// iterations would.
    #[test]
    fn generated_loops_roll_exactly(
        outer in (0u64..8, 0u64..9),
        inner in (0u64..8, 0u64..9),
        stmts in proptest::collection::vec(gen_stmt(), 1..4),
    ) {
        let outer = (outer.0.min(outer.1), outer.0.max(outer.1));
        let inner = (inner.0.min(inner.1), inner.0.max(inner.1));
        let src = gen_program(outer, inner, &stmts);
        let loops = rolled_matches_unrolled(&src);
        prop_assert!(loops.is_ok(), "{}\n{}", loops.unwrap_err(), src);
        if let Some(loops) = loops.unwrap() {
            prop_assert_eq!(loops, expected_loops(outer, inner, &stmts), "{}", src);
        }
    }
}
