//! Rolled for-nat elaboration: which loops the checker folds into one
//! `ElabStmt::ForNat`, and that every other loop elaborates exactly as
//! before, one copy of its body per iteration. The iteration budget
//! rejects oversized loops at entry.

use descend_typeck::{check_program, ElabStmt, ErrorKind, MonoKernel, LOOP_BUDGET};

fn kernel(body: &str) -> MonoKernel {
    let src = format!(
        r#"
fn k(v: &uniq gpu.global [f64; 256], w: &uniq gpu.global [f64; 256],
     u: &uniq gpu.global [f64; 1024])
-[grid: gpu.grid<X<1>, X<64>>]-> () {{
    sched(X) block in grid {{
        let tmp = alloc::<gpu.shared, [f64; 64]>();
        sched(X) thread in block {{
{body}
        }}
    }}
}}
"#
    );
    let prog = descend_parser::parse(&src).expect("test sources parse");
    check_program(&prog)
        .unwrap_or_else(|e| panic!("{e}"))
        .kernels
        .remove(0)
}

/// `(var, lo, hi, body statements net of source markers)` of every
/// rolled loop, in order, nested ones after their parent.
fn rolled(body: &[ElabStmt]) -> Vec<(String, u64, u64, usize)> {
    let mut out = Vec::new();
    for s in body {
        if let ElabStmt::ForNat { var, lo, hi, body } = s {
            let n = body
                .iter()
                .filter(|s| !matches!(s, ElabStmt::Src(_)))
                .count();
            out.push((var.clone(), *lo, *hi, n));
            out.extend(rolled(body));
        }
    }
    out
}

/// Statements net of source markers.
fn count(body: &[ElabStmt]) -> usize {
    body.iter()
        .filter(|s| !matches!(s, ElabStmt::Src(_)))
        .count()
}

#[test]
fn index_loops_roll() {
    let k = kernel(
        "for i in [0..4] {
            (*v).group::<4>[[thread]][i] = (*w).group::<4>[[thread]][i] * 2.0;
        }",
    );
    assert_eq!(rolled(&k.body), [("i".to_string(), 0, 4, 1)]);
    assert_eq!(count(&k.body), 1);
}

#[test]
fn nested_loops_roll_inner_first() {
    let k = kernel(
        "for j in [1..3] {
            for i in [0..4] {
                (*u).group::<16>[[thread]].group::<4>[j][i] = 1.0;
            }
        }",
    );
    assert_eq!(
        rolled(&k.body),
        [("j".to_string(), 1, 3, 1), ("i".to_string(), 0, 4, 1)]
    );
}

#[test]
fn loops_with_barriers_stay_unrolled_around_rolled_inner_loops() {
    let k = kernel(
        "for t in [0..3] {
            tmp[[thread]] = (*w).group::<4>[[thread]][t];
            sync;
            for i in [0..2] {
                (*v).group::<4>[[thread]][i] = tmp[[thread]];
            }
            sync;
        }",
    );
    // Three copies of (store, sync, rolled loop, sync).
    assert_eq!(count(&k.body), 12);
    assert_eq!(rolled(&k.body), vec![("i".to_string(), 0, 2, 1); 3]);
}

#[test]
fn single_iteration_and_halving_loops_stay_unrolled() {
    let k = kernel(
        "for i in [2..3] {
            (*v).group::<4>[[thread]][i] = 1.0;
        }
        for h in halving(2) {
            (*v).group::<4>[[thread]][h] = 2.0;
        }",
    );
    assert!(rolled(&k.body).is_empty());
    assert_eq!(count(&k.body), 3);
}

#[test]
fn bodies_with_locals_stay_unrolled() {
    let k = kernel(
        "for i in [0..2] {
            let x = (*w).group::<4>[[thread]][i];
            (*v).group::<4>[[thread]][i] = x;
        }",
    );
    assert!(rolled(&k.body).is_empty());
    assert_eq!(count(&k.body), 4);
}

/// A loop variable that reaches a view parameter makes iterations
/// differ outside index positions.
#[test]
fn view_parameters_stay_unrolled() {
    let k = kernel(
        "let mut acc = 0.0;
        for i in [1..3] {
            acc = acc + (*u).group::<16>[[thread]].split::<i>.fst[0];
        }",
    );
    assert!(rolled(&k.body).is_empty());
    assert_eq!(count(&k.body), 3);
}

/// The first two iterations fit `v[i]`, the third does not: the match is
/// checked for every iteration, not inferred from two.
#[test]
fn a_late_mismatch_falls_back_to_the_unrolled_elaboration() {
    let k = kernel(
        "for i in [0..4] {
            (*u).group::<16>[[thread]][i * i] = 1.0;
        }",
    );
    assert!(rolled(&k.body).is_empty());
    assert_eq!(count(&k.body), 4);
    let roll = kernel(
        "for i in [0..4] {
            (*u).group::<16>[[thread]][i] = 1.0;
        }",
    );
    // The fallback reproduces the iterations exactly: the first two
    // statements equal the rolled body at 0 and 1 up to the index.
    let stores: Vec<String> = k
        .body
        .iter()
        .filter_map(|s| match s {
            ElabStmt::Store { access, .. } => Some(access.path.to_string()),
            _ => None,
        })
        .collect();
    assert_eq!(stores.len(), 4);
    assert!(
        stores[0].ends_with("[0]") && stores[1].ends_with("[1]"),
        "{stores:?}"
    );
    assert!(
        stores[2].ends_with("[4]") && stores[3].ends_with("[9]"),
        "{stores:?}"
    );
    assert_eq!(rolled(&roll.body), [("i".to_string(), 0, 4, 1)]);
}

#[test]
fn budget_is_shared_by_nested_loops() {
    // Empty bodies keep the accepted case cheap: the budget counts
    // iterations, whatever they hold.
    let ok = format!(
        "for i in [0..2] {{
            for j in [0..{}] {{
            }}
        }}",
        (LOOP_BUDGET - 2) / 2
    );
    kernel(&ok);
    let over = format!(
        "for i in [0..2] {{
            for j in [0..{}] {{
            }}
        }}",
        (LOOP_BUDGET - 2) / 2 + 1
    );
    let src = format!(
        r#"
fn k(v: &uniq gpu.global [f64; 256]) -[grid: gpu.grid<X<1>, X<64>>]-> () {{
    sched(X) block in grid {{
        let tmp = alloc::<gpu.shared, [f64; 64]>();
        sched(X) thread in block {{
{over}
        }}
    }}
}}
"#
    );
    let err = check_program(&descend_parser::parse(&src).unwrap()).unwrap_err();
    assert_eq!(err.kind, ErrorKind::LoopBudgetExceeded);
    // The outer loop takes 2, the first inner loop the next share, and
    // the second inner loop no longer fits in what is left.
    let inner = (LOOP_BUDGET - 2) / 2 + 1;
    assert!(
        err.diag.primary.message.contains(&format!(
            "runs {inner} iterations, more than the {} left",
            LOOP_BUDGET - 2 - inner
        )),
        "{}",
        err.diag.primary.message
    );
}

/// Rebasing a cached kernel's spans reaches the source markers inside
/// rolled bodies.
#[test]
fn shift_spans_reaches_rolled_bodies() {
    fn inner_spans(body: &[ElabStmt]) -> Vec<u32> {
        body.iter()
            .flat_map(|s| match s {
                ElabStmt::ForNat { body, .. } => body
                    .iter()
                    .filter_map(|s| match s {
                        ElabStmt::Src(span) => Some(span.start),
                        _ => None,
                    })
                    .chain(inner_spans(body))
                    .collect(),
                _ => Vec::new(),
            })
            .collect()
    }
    let mut k = kernel(
        "for j in [0..2] {
            for i in [0..4] {
                (*u).group::<16>[[thread]].group::<4>[j][i] = 1.0;
            }
        }",
    );
    let before = inner_spans(&k.body);
    assert_eq!(before.len(), 2);
    k.shift_spans(10);
    let after: Vec<u32> = before.iter().map(|s| s + 10).collect();
    assert_eq!(inner_spans(&k.body), after);
}
