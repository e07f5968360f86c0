//! Property-based tests (proptest) on the core data structures and
//! invariants: nat normalization, view lowering bijectivity, index
//! simplification, parser round-trips, and the race detector.

use descend::ast::pretty;
use descend::ast::ty::DimCompo;
use descend::ast::Nat;
use descend::exec::{ExecExpr, Space};
use descend::places::{
    lower_scalar_access, simplify_idx, Coord, IdxExpr, PathStep, PlacePath, ViewStep,
};
use proptest::prelude::*;

// ---------------------------------------------------------------- nats

/// Random nat expressions over two variables.
fn arb_nat() -> impl Strategy<Value = Nat> {
    let leaf = prop_oneof![
        (0u64..64).prop_map(Nat::Lit),
        Just(Nat::var("a")),
        Just(Nat::var("b")),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x + y),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x * y),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x / y),
            (inner.clone(), inner).prop_map(|(x, y)| x % y),
        ]
    })
}

proptest! {
    /// Normalization is sound: if two nats normalize equal, they evaluate
    /// equal under every valuation (where both are defined).
    #[test]
    fn nat_normal_form_soundness(x in arb_nat(), y in arb_nat(), a in 1u64..20, b in 1u64..20) {
        if x.equal(&y) {
            let env = |name: &str| match name {
                "a" => Some(a),
                "b" => Some(b),
                _ => None,
            };
            if let (Ok(vx), Ok(vy)) = (x.eval(&env), y.eval(&env)) {
                prop_assert_eq!(vx, vy, "{} vs {}", x, y);
            }
        }
    }

    /// `simplify` preserves evaluation.
    #[test]
    fn nat_simplify_preserves_eval(x in arb_nat(), a in 1u64..20, b in 1u64..20) {
        let env = |name: &str| match name {
            "a" => Some(a),
            "b" => Some(b),
            _ => None,
        };
        let s = x.simplify();
        if let (Ok(v1), Ok(v2)) = (x.eval(&env), s.eval(&env)) {
            prop_assert_eq!(v1, v2, "{} simplified to {}", x, s);
        }
    }

    /// Normalization is idempotent.
    #[test]
    fn nat_simplify_idempotent(x in arb_nat()) {
        let s1 = x.simplify();
        let s2 = s1.simplify();
        prop_assert!(s1.equal(&s2));
    }
}

// --------------------------------------------------------------- views

/// A random chain of shape-preserving view steps on a 1-D array of
/// length `n` (built so each step applies: group sizes divide, splits
/// are in range), together with the final index count.
fn arb_view_chain(n: u64) -> impl Strategy<Value = Vec<ViewStep>> {
    // Build chains over a 64-element array: group by divisors, reverse,
    // and split+part keeping track of the current length.
    let step = 0..3u8;
    proptest::collection::vec((step, 0u64..16), 0..4).prop_map(move |choices| {
        let mut steps = Vec::new();
        let mut len = n;
        let mut depth = 0usize; // nested-array depth (from groups)
        for (kind, param) in choices {
            match kind {
                // group: only at depth 0 to keep the model simple.
                0 if depth == 0 => {
                    let divisors: Vec<u64> = (2..=len)
                        .filter(|d| len.is_multiple_of(*d) && *d < len)
                        .collect();
                    if divisors.is_empty() {
                        continue;
                    }
                    let k = divisors[(param as usize) % divisors.len()];
                    steps.push(ViewStep::Group { k: Nat::lit(k) });
                    len /= k;
                    depth += 1;
                }
                1 if depth == 0 => {
                    steps.push(ViewStep::Reverse { n: Nat::lit(len) });
                }
                2 if depth == 0 && len > 1 => {
                    let pos = 1 + (param % (len - 1));
                    steps.push(ViewStep::SplitPart {
                        pos: Nat::lit(pos),
                        side: if param % 2 == 0 {
                            descend::exec::Side::Fst
                        } else {
                            descend::exec::Side::Snd
                        },
                    });
                    len = if param % 2 == 0 { pos } else { len - pos };
                }
                _ => {}
            }
        }
        steps
    })
}

/// Computes the remaining index space of a chain on a length-n array.
fn index_space(steps: &[ViewStep], n: u64) -> Vec<u64> {
    // Walk shapes: maintain list of dims outer-first.
    let mut dims = vec![n];
    for s in steps {
        match s {
            ViewStep::Group { k } => {
                let k = k.as_lit().unwrap();
                let outer = dims.remove(0);
                dims.insert(0, k);
                dims.insert(0, outer / k);
            }
            ViewStep::Reverse { .. } => {}
            ViewStep::SplitPart { pos, side } => {
                let outer = dims.remove(0);
                let pos = pos.as_lit().unwrap();
                dims.insert(
                    0,
                    if *side == descend::exec::Side::Fst {
                        pos
                    } else {
                        outer - pos
                    },
                );
            }
            _ => unreachable!("generator produces only these steps"),
        }
    }
    dims
}

proptest! {
    /// View lowering is injective: distinct multi-indices into the viewed
    /// array reach distinct flat offsets, and offsets stay in bounds
    /// (this is the safety property that makes views "safe by
    /// construction", paper Section 3.2).
    #[test]
    fn view_lowering_is_injective(steps in arb_view_chain(64)) {
        let n = 64u64;
        let dims = index_space(&steps, n);
        let total: u64 = dims.iter().product();
        prop_assume!(total <= 256);
        // Enumerate all multi-indices, lower each, check distinctness.
        let mut seen = std::collections::HashSet::new();
        let mut midx = vec![0u64; dims.len()];
        loop {
            let mut path = PlacePath::new("x", ExecExpr::cpu_thread());
            for s in &steps {
                path.push(PathStep::View(s.clone()));
            }
            for i in &midx {
                path.push(PathStep::Index(Nat::lit(*i)));
            }
            let flat = lower_scalar_access(&path, &[Nat::lit(n)]).unwrap();
            let val = flat.eval(&|_, _| 0, &|_| None).unwrap();
            prop_assert!(val < n, "offset {val} out of bounds for {steps:?}");
            prop_assert!(seen.insert(val), "duplicate offset {val} for {steps:?}");
            // Increment the multi-index.
            let mut carry = true;
            for d in (0..dims.len()).rev() {
                if carry {
                    midx[d] += 1;
                    if midx[d] == dims[d] {
                        midx[d] = 0;
                    } else {
                        carry = false;
                    }
                }
            }
            if carry {
                break;
            }
        }
    }

    /// Binding index variables after lowering (`IdxExpr::bind`, then
    /// `simplify_idx`: how the index table instantiates a rolled loop's
    /// iteration) gives exactly the lowering of the path with the
    /// values in place, whether every variable is bound or only the
    /// first (the others staying variables, as a scatter's index does).
    #[test]
    fn binding_after_lowering_equals_binding_before(steps in arb_view_chain(64)) {
        let n = 64u64;
        let dims = index_space(&steps, n);
        let total: u64 = dims.iter().product();
        prop_assume!(total <= 256);
        let vars: Vec<String> = (0..dims.len()).map(|d| format!("v{d}")).collect();
        let lower = |index: &dyn Fn(usize) -> Nat| {
            let mut p = PlacePath::new("x", ExecExpr::cpu_thread());
            for s in &steps {
                p.push(PathStep::View(s.clone()));
            }
            for d in 0..dims.len() {
                p.push(PathStep::Index(index(d)));
            }
            lower_scalar_access(&p, &[Nat::lit(n)]).unwrap()
        };
        let symbolic = lower(&|d| Nat::var(&vars[d]));
        for flat in 0..total {
            let mut midx = vec![0u64; dims.len()];
            let mut rest = flat;
            for d in (0..dims.len()).rev() {
                midx[d] = rest % dims[d];
                rest /= dims[d];
            }
            let all: Vec<(&str, u64)> =
                vars.iter().map(String::as_str).zip(midx.iter().copied()).collect();
            prop_assert_eq!(
                simplify_idx(symbolic.bind(&all)),
                lower(&|d| Nat::lit(midx[d]))
            );
            prop_assert_eq!(
                simplify_idx(symbolic.bind(&all[..1])),
                lower(&|d| if d == 0 { Nat::lit(midx[0]) } else { Nat::var(&vars[d]) })
            );
        }
    }

    /// `simplify_idx` preserves the evaluated offset.
    #[test]
    fn simplify_idx_preserves_value(
        c in 0u64..8, v in 0u64..8, k in 0u64..8, m in 1u64..8
    ) {
        // Build (coord - c + c) * m + (v * 1) - k + k style expressions.
        let coord = IdxExpr::Coord(Coord {
            space: Space::Thread,
            dim: DimCompo::X,
            offset: Nat::lit(c),
        });
        let e = IdxExpr::Add(
            Box::new(IdxExpr::Mul(
                Box::new(IdxExpr::Add(Box::new(coord), Box::new(IdxExpr::Const(c)))),
                Box::new(IdxExpr::Const(m)),
            )),
            Box::new(IdxExpr::Sub(
                Box::new(IdxExpr::Add(Box::new(IdxExpr::Const(v + k)), Box::new(IdxExpr::Const(k)))),
                Box::new(IdxExpr::Const(k)),
            )),
        );
        let s = simplify_idx(e.clone());
        let coords = |_: Space, _: DimCompo| c + 3; // raw coordinate >= offset
        let v1 = e.eval(&coords, &|_| None).unwrap();
        let v2 = s.eval(&coords, &|_| None).unwrap();
        prop_assert_eq!(v1, v2);
    }
}

// -------------------------------------------------------------- parser

proptest! {
    /// Pretty-printed programs re-parse to the same shape (round-trip on
    /// a generated family of kernels).
    #[test]
    fn parser_roundtrip_on_generated_kernels(
        blocks in 1u64..16,
        threads in prop_oneof![Just(32u64), Just(64), Just(128)],
        factor in 1u64..5,
    ) {
        let n = blocks * threads;
        let src = format!(
            r#"
fn k(v: &uniq gpu.global [f64; {n}]) -[grid: gpu.grid<X<{blocks}>, X<{threads}>>]-> () {{
    sched(X) block in grid {{
        sched(X) thread in block {{
            (*v).group::<{threads}>[[block]][[thread]] =
                (*v).group::<{threads}>[[block]][[thread]] * {factor}.0;
        }}
    }}
}}
"#
        );
        let p1 = descend::parser::parse(&src).unwrap();
        let printed = pretty::program(&p1);
        let p2 = descend::parser::parse(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed: {e} in\n{printed}"));
        prop_assert_eq!(p1.items.len(), p2.items.len());
    }
}

// ------------------------------------------------------------ detector

proptest! {
    /// The detector never reports a race for provably disjoint writes
    /// (each thread writes its own slot), and always reports one when two
    /// threads write the same slot in one interval.
    #[test]
    fn race_detector_ground_truth(collide_at in 0u32..31) {
        use descend::sim::ir::{Axis, BinOp, ElemTy, Expr, KernelIr, ParamDecl, Stmt};
        use descend::sim::{Gpu, LaunchConfig, SimError};
        let cfg = LaunchConfig { detect_races: true, ..LaunchConfig::default() };
        // Disjoint: out[tid] = tid.
        let clean = KernelIr {
            name: "clean".into(),
            params: vec![ParamDecl { elem: ElemTy::F64, len: 32, writable: true }],
            shared: vec![],
            body: vec![Stmt::StoreGlobal {
                buf: 0,
                idx: Expr::thread_idx(Axis::X),
                value: Expr::LitF(1.0),
            }],
        };
        let mut gpu = Gpu::new();
        let b = gpu.alloc_f64(&vec![0.0; 32]);
        prop_assert!(gpu.launch(&clean, [1,1,1], [32,1,1], &[b], &cfg).is_ok());
        // Colliding: thread `collide_at` and `collide_at + 1` write one slot.
        let racy = KernelIr {
            name: "racy".into(),
            params: vec![ParamDecl { elem: ElemTy::F64, len: 32, writable: true }],
            shared: vec![],
            body: vec![Stmt::StoreGlobal {
                buf: 0,
                idx: Expr::bin(
                    BinOp::Min,
                    Expr::thread_idx(Axis::X),
                    Expr::LitI(i64::from(collide_at)),
                ),
                value: Expr::LitF(1.0),
            }],
        };
        let mut gpu = Gpu::new();
        let b = gpu.alloc_f64(&vec![0.0; 32]);
        let err = gpu.launch(&racy, [1,1,1], [32,1,1], &[b], &cfg).unwrap_err();
        prop_assert!(matches!(err, SimError::DataRace(_)));
    }
}
