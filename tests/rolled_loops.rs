//! Rolled ≡ hand-unrolled: a for-nat loop that the checker folds into
//! one rolled loop must compile to exactly what the same source with the
//! loop unrolled by hand compiles to.
//!
//! For each program the loop form and its textual unrolling are
//! compared on the verdict, on the simulator IR (source markers aside:
//! the two texts differ in where their statements sit), and on the
//! buffers and `LaunchStats` of a launch under both executors with race
//! detection on. Each case also states whether its loops roll, so the
//! comparison cannot pass on programs where nothing rolled.

use descend::benchmarks::sources;
use descend::compiler::{Compiled, Compiler};
use descend::sim::{ExecMode, Gpu, KernelIr, LaunchConfig, Stmt};
use descend::typeck::ElabStmt;
use proptest::prelude::*;

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

/// Compiles `src` and its hand-unrolled form and compares them; returns
/// the rolled loops in the loop form's kernels (`None`: both rejected,
/// with the same code).
fn rolled_matches_unrolled(src: &str) -> Result<Option<usize>, String> {
    let unrolled_src = unroll(src);
    assert_ne!(unrolled_src, src, "the program has a loop to unroll");
    let compiler = Compiler::new();
    let (rolled, unrolled) = match (
        compiler.compile_source(src),
        compiler.compile_source(&unrolled_src),
    ) {
        (Ok(r), Ok(u)) => (r, u),
        (Err(r), Err(u)) => {
            // Same verdict: the same error code.
            if r.diag.code != u.diag.code {
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
    let mut loops = 0;
    for (k, (r, u)) in rolled.kernels.iter().zip(&unrolled.kernels).enumerate() {
        loops += rolled_loops(&r.mono.body);
        if rolled_loops(&u.mono.body) != 0 {
            return Err("the unrolled text still rolls".into());
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
    // (program, rolled loops in its loop form): matmul's k loop rolls
    // once per unrolled t iteration; each transpose has two i loops.
    for (name, src, loops) in [
        ("matmul(64)", sources::matmul(64), 2),
        ("transpose(256)", sources::transpose(256), 2),
        ("transpose_tiles", tiles, 2),
        ("multiple_elements_per_thread", elements.to_string(), 1),
    ] {
        let rolled = rolled_matches_unrolled(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(rolled, Some(loops), "{name}");
    }
}

/// One generated statement: its form and which loop variable indexes it.
#[derive(Clone, Debug)]
struct GenStmt {
    form: u8,
    inner: bool,
    outer_var: bool,
}

fn gen_stmt() -> impl Strategy<Value = GenStmt> {
    (0u8..5, proptest::bool::ANY, proptest::bool::ANY).prop_map(|(form, inner, outer_var)| {
        GenStmt {
            form,
            inner,
            outer_var,
        }
    })
}

/// A kernel whose 64 threads each own eight elements of `v` (grouped)
/// and of `u` (transposed), with a two-deep loop nest over `[lo..hi]`
/// ranges inside `[0..8]`.
fn gen_program(outer: (u64, u64), inner: (u64, u64), stmts: &[GenStmt]) -> String {
    let render = |s: &GenStmt| {
        let x = if s.outer_var || !s.inner { "i" } else { "j" };
        match s.form {
            0 => format!("(*v).group::<8>[[thread]][{x}] = (*w).group::<8>[[thread]][{x}] * 2.0;"),
            1 => format!("(*u).group::<64>.transpose[[thread]][{x}] = 3.0;"),
            2 => format!("acc = acc + (*w).group::<8>[[thread]].rev[{x}];"),
            3 => format!("acc = acc + (*w).group::<8>.transpose[{x}][[thread]];"),
            _ => format!("(*v).group::<8>[[thread]][{x}] = acc;"),
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
     w: & gpu.global [f64; 512], out: &uniq gpu.global [f64; 64])
-[grid: gpu.grid<X<1>, X<64>>]-> () {{
    sched(X) block in grid {{
        sched(X) thread in block {{
            let mut acc = 0.0;
            for i in [{}..{}] {{
                {}
                for j in [{}..{}] {{
                    {}
                }}
            }}
            (*out)[[thread]] = acc;
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

proptest! {
    /// Generated loop nests: the loop form and the unrolled text agree,
    /// and a loop rolls exactly when it runs at least twice over a
    /// non-empty body.
    #[test]
    fn generated_loops_roll_exactly(
        outer in (0u64..8, 0u64..9),
        inner in (0u64..8, 0u64..9),
        stmts in proptest::collection::vec(gen_stmt(), 1..4),
    ) {
        let outer = (outer.0.min(outer.1), outer.0.max(outer.1));
        let inner = (inner.0.min(inner.1), inner.0.max(inner.1));
        let src = gen_program(outer, inner, &stmts);
        let rolled = rolled_matches_unrolled(&src);
        prop_assert!(rolled.is_ok(), "{}\n{}", rolled.unwrap_err(), src);
        // An empty body has nothing to roll; the outer body always holds
        // at least the inner loop's source marker.
        let trips = |(lo, hi): (u64, u64)| hi - lo;
        let inner_rolls = usize::from(trips(inner) >= 2 && stmts.iter().any(|s| s.inner));
        let expected = if trips(outer) >= 2 {
            1 + inner_rolls
        } else {
            trips(outer) as usize * inner_rolls
        };
        prop_assert_eq!(rolled.unwrap(), Some(expected), "{}", src);
    }
}
