//! Rolled for-nat elaboration: which loops the checker rolls into one
//! `ElabStmt::ForNat`, and that every other loop elaborates exactly as
//! before, one copy of its body per iteration; which loops it checks
//! once, with the variable symbolic, and that rejections keep the
//! diagnostics of checking each iteration. The iteration budget rejects
//! oversized loops at entry.

use descend_typeck::{
    check_program, ElabStmt, ErrorKind, LoopChecks, MonoKernel, TypeError, LOOP_BUDGET,
};

fn source(body: &str) -> String {
    format!(
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
    )
}

fn kernel(body: &str) -> MonoKernel {
    let prog = descend_parser::parse(&source(body)).expect("test sources parse");
    check_program(&prog)
        .unwrap_or_else(|e| panic!("{e}"))
        .kernels
        .remove(0)
}

fn rejection(body: &str) -> TypeError {
    let prog = descend_parser::parse(&source(body)).expect("test sources parse");
    check_program(&prog).expect_err("the kernel is rejected")
}

fn checks(once: u32, per_iteration: u32) -> LoopChecks {
    LoopChecks {
        once,
        per_iteration,
    }
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
    assert_eq!(k.loop_checks, checks(1, 0));
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
    // The store indexes through both variables, each at its own step:
    // the joint rule checks both loops once.
    assert_eq!(k.loop_checks, checks(2, 0));
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
    // The barrier loop per iteration, its inner loop once per copy.
    assert_eq!(k.loop_checks, checks(3, 1));
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
    assert_eq!(k.loop_checks, checks(0, 2));
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
    assert_eq!(k.loop_checks, checks(0, 1));
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
    assert_eq!(k.loop_checks, checks(0, 1));
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
    assert_eq!(k.loop_checks, checks(0, 1));
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

/// Store paths of the top-level stores, rendered.
fn stores(body: &[ElabStmt]) -> Vec<String> {
    body.iter()
        .filter_map(|s| match s {
            ElabStmt::Store { access, .. } => Some(access.path.to_string()),
            _ => None,
        })
        .collect()
}

/// An index `i + c` is checked once like `i`; the fold would not roll
/// it (the first two iterations read `[c]` and `[c + 1]`), so the
/// iterations are spelled out exactly as checking each would.
#[test]
fn offset_indices_are_checked_once_and_spelled_out() {
    let k = kernel(
        "for i in [0..3] {
            (*v).group::<4>[[thread]][i + 1] = (*w).group::<4>[[thread]][i] * 2.0;
        }",
    );
    assert_eq!(k.loop_checks, checks(1, 0));
    assert!(rolled(&k.body).is_empty());
    let stores = stores(&k.body);
    assert_eq!(stores.len(), 3);
    for (s, i) in stores.iter().zip(1..) {
        assert!(s.ends_with(&format!("[{i}]")), "{stores:?}");
    }
}

/// 4 000 stores to one place: checked once, not 4 000 times against
/// every earlier copy.
#[test]
fn a_long_loop_over_one_place_is_checked_once() {
    let k = kernel(
        "for i in [0..4000] {
            tmp[[thread]] = 1.0;
        }",
    );
    assert_eq!(k.loop_checks, checks(1, 0));
    assert_eq!(rolled(&k.body), [("i".to_string(), 0, 4000, 1)]);
}

/// A conflict inside a loop falls back to checking each iteration, and
/// reports what that finds first: iteration 1's write against iteration
/// 0's read of row 1 (row 4, read at iteration 3, would be out of
/// bounds).
#[test]
fn a_conflict_in_the_loop_is_reported_per_iteration() {
    let e = rejection(
        "let mut acc = 0.0;
        for i in [0..4] {
            acc = acc + (*v).group::<4>.transpose[i + 1].rev[[thread]];
            (*v).group::<4>.transpose[i][[thread]] = acc;
        }",
    );
    assert_eq!(e.kind, ErrorKind::ConflictingAccess);
    assert_eq!(
        e.diag.secondary[0].message,
        "prior access of `v.*.group::<4>.transpose[1].reverse[[thread:X]]`"
    );
}

/// A conflict with a loop checked once, found after the loop, names the
/// first iteration that conflicts, as checking each iteration does.
#[test]
fn a_conflict_after_a_loop_checked_once_names_the_iteration() {
    let e = rejection(
        "for i in [0..4] {
            (*v).group::<4>.transpose[i][[thread]] = 1.0;
        }
        let x = (*v).group::<4>.transpose[2].rev[[thread]];",
    );
    assert_eq!(e.kind, ErrorKind::ConflictingAccess);
    assert_eq!(
        e.diag.secondary[0].message,
        "prior access of `v.*.group::<4>.transpose[2][[thread:X]]`"
    );
    // Without the conflict, the loop is checked once.
    let k = kernel(
        "for i in [0..3] {
            (*v).group::<4>.transpose[i][[thread]] = 1.0;
        }
        let x = (*v).group::<4>.transpose[3].rev[[thread]];",
    );
    assert_eq!(k.loop_checks, checks(1, 0));
}

/// An access checked once stands for one access per iteration, and must
/// not conflict with its own other iterations: a write through
/// overlapping windows conflicts with itself one iteration later.
#[test]
fn an_access_conflicts_with_its_own_other_iterations() {
    let body = |trips: u32| {
        format!(
            "for i in [0..{trips}] {{
                (*u).group::<16>[[thread]].windows::<3, 1>[0][i] = 1.0;
            }}"
        )
    };
    assert_eq!(kernel(&body(1)).loop_checks, checks(0, 1));
    let e = rejection(&body(2));
    assert_eq!(e.kind, ErrorKind::ConflictingAccess);
    assert_eq!(
        e.diag.secondary[0].message,
        "prior access of `u.*.group::<16>[[thread:X]].windows::<3, 1>[0][0]`"
    );
}

/// A kernel whose block-level body is `body`, over a 64-thread block.
fn block_kernel(body: &str) -> MonoKernel {
    let src = format!(
        r#"
fn k(v: &uniq gpu.global [f64; 256], u: &uniq gpu.global [f64; 1024])
-[grid: gpu.grid<X<1>, X<64>>]-> () {{
    sched(X) block in grid {{
{body}
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

/// A `sched` or `to_warps` inside a loop body is checked once with it.
#[test]
fn scheduled_bodies_are_checked_once() {
    let k = block_kernel(
        "for i in [0..4] {
            sched(X) thread in block {
                (*v).group::<64>[i][[thread]] = 1.0;
            }
        }",
    );
    assert_eq!(k.loop_checks, checks(1, 0));
    assert_eq!(rolled(&k.body), [("i".to_string(), 0, 4, 1)]);
    let k = block_kernel(
        "for i in [0..4] {
            to_warps wb in block {
                sched(X) warp in wb {
                    sched(X) lane in warp {
                        (*v).group::<64>[i].group::<32>[[warp]][[lane]] = 1.0;
                    }
                }
            }
        }",
    );
    assert_eq!(k.loop_checks, checks(1, 0));
    assert_eq!(rolled(&k.body), [("i".to_string(), 0, 4, 1)]);
}

/// When the check once gives up inside a `sched` (one variable at two
/// steps is not decided), the execution resource and the `sched`'s
/// binding are restored, so checking each iteration accepts the loop.
#[test]
fn a_scheduled_body_that_gives_up_is_checked_per_iteration() {
    let k = block_kernel(
        "for i in [0..4] {
            sched(X) thread in block {
                (*u).group::<64>.group::<4>[i][i][[thread]] = 1.0;
            }
        }",
    );
    assert_eq!(k.loop_checks, checks(0, 1));
    assert!(rolled(&k.body).is_empty());
    assert_eq!(count(&k.body), 4);
}

/// Two iterations of a nest that agree on the outer index meet the
/// overlapping windows after it before they differ (at the inner index,
/// or nowhere when the inner variable indexes nothing): the write
/// conflicts with itself, and the rejection is the one checking each
/// iteration gives.
#[test]
fn a_nested_access_conflicts_through_windows_between_its_indices() {
    for inner in ["i", "0"] {
        let e = rejection(&format!(
            "for j in [0..2] {{
                for i in [0..2] {{
                    (*u).group::<16>[[thread]].group::<4>[j].windows::<3, 1>[0][{inner}] = 1.0;
                }}
            }}"
        ));
        assert_eq!(e.kind, ErrorKind::ConflictingAccess);
        assert_eq!(
            e.diag.secondary[0].message,
            "prior access of `u.*.group::<16>[[thread:X]].group::<4>[0].windows::<3, 1>[0][0]`"
        );
    }
}
