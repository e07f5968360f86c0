//! Generated tests of the bytecode against an independent oracle.
//!
//! Both executors run the one flat bytecode `Program::build` makes, so
//! their agreement no longer checks the flattening itself. This suite
//! does: it generates expression trees over every `Expr` variant — nested
//! binary and unary operators and loads, mixed int/float/bool operands,
//! overflow, division by zero, type errors, negative and out-of-bounds
//! indices — in straight-line code, under divergent `If`s and inside
//! `Loop`s, and compares each launch with a small recursive evaluator
//! kept here that walks the trees one lane at a time:
//!
//! - in the Reference executor's order (thread after thread) and in the
//!   Warp executor's (the lanes of a warp together, one expression node
//!   for all lanes before the next, branch arms and loop iterations
//!   taken by the lanes that take them), the final global buffers, or
//!   the error's text, match the oracle's;
//! - every instruction's cost weight is one plus the source expression
//!   nodes of its operands.

use gpu_sim::interp::{Program, Value};
use gpu_sim::ir::{
    AtomicOp, Axis, BinOp, ElemTy, Expr, KernelIr, LoopCmp, LoopStep, ParamDecl, SharedDecl, Stmt,
    UnOp,
};
use gpu_sim::{ExecMode, Gpu, LaunchConfig};
use proptest::collection::vec;
use proptest::prelude::*;

// The kernel's buffers, 16 elements each: global inputs (read only),
// global outputs (stores and atomics), and two shared allocations.
const LEN: i64 = 16;
const INTS: usize = 0;
const FLOATS: usize = 1;
const OUT: usize = 2;
const COUNTS: usize = 3;
const GLOBAL: [ElemTy; 4] = [ElemTy::I32, ElemTy::F64, ElemTy::F64, ElemTy::I32];
const SHARED_F: usize = 0;
const SHARED_I: usize = 1;
const SHARED: [ElemTy; 2] = [ElemTy::F64, ElemTy::I32];
/// Locals 0 and 1 hold ints, 2 a float, 3 a bool; 4 and 5 are loop
/// variables (no generated body assigns them, so every loop ends).
const LOCALS: usize = 6;

// ---------------------------------------------------------------- inputs

fn axis() -> impl Strategy<Value = Axis> {
    prop_oneof![Just(Axis::X), Just(Axis::Y), Just(Axis::Z)]
}

/// `(e % 16 + 16) % 16`, in bounds whatever integer `e` is, or now and
/// then `e` itself.
fn index(e: BoxedStrategy<Expr>) -> BoxedStrategy<Expr> {
    (e, 0u8..4)
        .prop_map(|(e, wrap)| {
            if wrap == 0 {
                return e;
            }
            let m = |e| Expr::bin(BinOp::Mod, e, Expr::LitI(LEN));
            m(Expr::add(m(e), Expr::LitI(LEN)))
        })
        .boxed()
}

fn int_expr(depth: u32) -> BoxedStrategy<Expr> {
    // One literal in five is an extreme, for overflow; 16 is one past
    // the end of every buffer.
    let lit = (0usize..10).prop_map(|i| [-3, -1, 0, 1, 2, 3, 7, LEN, i64::MIN, i64::MAX][i]);
    let leaf = prop_oneof![
        lit.clone().prop_map(Expr::LitI),
        lit.prop_map(Expr::LitI),
        axis().prop_map(Expr::ThreadIdx),
        axis().prop_map(Expr::BlockIdx),
        axis().prop_map(Expr::BlockDim),
        axis().prop_map(Expr::GridDim),
        prop_oneof![Just(0usize), Just(1), Just(4)].prop_map(Expr::Local),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let sub = int_expr(depth - 1);
    let op = prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Mod),
        Just(BinOp::Min),
        Just(BinOp::Max),
    ];
    prop_oneof![
        leaf,
        (op, sub.clone(), sub.clone()).prop_map(|(op, a, b)| Expr::bin(op, a, b)),
        sub.clone().prop_map(|a| Expr::Un(UnOp::Neg, Box::new(a))),
        index(sub.clone()).prop_map(|i| Expr::LoadGlobal {
            buf: INTS,
            idx: Box::new(i)
        }),
        index(sub).prop_map(|i| Expr::LoadShared {
            buf: SHARED_I,
            idx: Box::new(i)
        }),
    ]
    .boxed()
}

fn float_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (-4i64..5).prop_map(|k| Expr::LitF(k as f64 * 0.5)),
        Just(Expr::Local(2)),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let sub = float_expr(depth - 1);
    let op = prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Min),
        Just(BinOp::Max),
    ];
    prop_oneof![
        leaf,
        (op, sub.clone(), sub.clone()).prop_map(|(op, a, b)| Expr::bin(op, a, b)),
        sub.prop_map(|a| Expr::Un(UnOp::Neg, Box::new(a))),
        index(int_expr(depth - 1)).prop_map(|i| Expr::LoadGlobal {
            buf: FLOATS,
            idx: Box::new(i)
        }),
        index(int_expr(depth - 1)).prop_map(|i| Expr::LoadShared {
            buf: SHARED_F,
            idx: Box::new(i)
        }),
    ]
    .boxed()
}

fn compare() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
    ]
}

fn bool_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        proptest::bool::ANY.prop_map(Expr::LitB),
        Just(Expr::Local(3))
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let sub = bool_expr(depth - 1);
    let logic = prop_oneof![
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Eq),
        Just(BinOp::Ne)
    ];
    prop_oneof![
        leaf,
        (compare(), int_expr(depth - 1), int_expr(depth - 1))
            .prop_map(|(op, a, b)| Expr::bin(op, a, b)),
        (compare(), float_expr(depth - 1), float_expr(depth - 1))
            .prop_map(|(op, a, b)| Expr::bin(op, a, b)),
        (logic, sub.clone(), sub.clone()).prop_map(|(op, a, b)| Expr::bin(op, a, b)),
        sub.prop_map(|a| Expr::Un(UnOp::Not, Box::new(a))),
    ]
    .boxed()
}

/// Anything goes: every operator over every operand kind, the extreme
/// integers, loads from every buffer with unwrapped indices.
fn wild_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        int_expr(0),
        float_expr(0),
        bool_expr(0),
        prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(-1i64)].prop_map(Expr::LitI),
        (0..LOCALS).prop_map(Expr::Local),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let sub = wild_expr(depth - 1);
    let op = (0usize..15).prop_map(|i| {
        [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Mod,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::And,
            BinOp::Or,
            BinOp::Min,
            BinOp::Max,
        ][i]
    });
    let un = prop_oneof![Just(UnOp::Neg), Just(UnOp::Not)];
    prop_oneof![
        leaf,
        (op, sub.clone(), sub.clone()).prop_map(|(op, a, b)| Expr::bin(op, a, b)),
        (un, sub.clone()).prop_map(|(op, a)| Expr::Un(op, Box::new(a))),
        (0..GLOBAL.len(), index(sub.clone())).prop_map(|(buf, i)| Expr::LoadGlobal {
            buf,
            idx: Box::new(i)
        }),
        (0..SHARED.len(), index(sub)).prop_map(|(buf, i)| Expr::LoadShared {
            buf,
            idx: Box::new(i)
        }),
    ]
    .boxed()
}

fn any_expr(depth: u32) -> BoxedStrategy<Expr> {
    prop_oneof![
        int_expr(depth),
        float_expr(depth),
        bool_expr(depth),
        wild_expr(depth)
    ]
    .boxed()
}

fn atomic_op() -> impl Strategy<Value = AtomicOp> {
    prop_oneof![
        Just(AtomicOp::Add),
        Just(AtomicOp::Min),
        Just(AtomicOp::Max),
        Just(AtomicOp::Exch)
    ]
}

/// A loop's `(init, cmp, bound, step)`: every shape terminates whatever
/// the (lane-dependent) bound evaluates to.
fn loop_shape() -> impl Strategy<Value = (Expr, LoopCmp, Expr, LoopStep)> {
    let bound = prop_oneof![
        (0i64..4).prop_map(Expr::LitI),
        (1i64..4).prop_map(|k| Expr::bin(BinOp::Mod, Expr::ThreadIdx(Axis::X), Expr::LitI(k))),
        Just(Expr::bin(
            BinOp::Mod,
            Expr::LoadGlobal {
                buf: INTS,
                idx: Box::new(Expr::bin(
                    BinOp::Mod,
                    Expr::ThreadIdx(Axis::X),
                    Expr::LitI(LEN)
                )),
            },
            Expr::LitI(4),
        )),
    ];
    prop_oneof![
        (0i64..3, bound.clone(), 1i64..3).prop_map(|(i, b, s)| (
            Expr::LitI(i),
            LoopCmp::Lt,
            b,
            LoopStep::Add(s)
        )),
        (0i64..3, bound).prop_map(|(i, b)| (Expr::LitI(i), LoopCmp::Le, b, LoopStep::Add(1))),
        Just((Expr::LitI(8), LoopCmp::Gt, Expr::LitI(0), LoopStep::Div(2))),
        Just((Expr::LitI(8), LoopCmp::Ge, Expr::LitI(1), LoopStep::Div(2))),
        Just((Expr::LitI(1), LoopCmp::Lt, Expr::LitI(20), LoopStep::Mul(2))),
    ]
}

fn stmt(depth: u32, loop_var: usize) -> BoxedStrategy<Stmt> {
    let simple = prop_oneof![
        (0usize..2, int_expr(2)).prop_map(|(slot, e)| Stmt::SetLocal(slot, e)),
        float_expr(2).prop_map(|e| Stmt::SetLocal(2, e)),
        bool_expr(2).prop_map(|e| Stmt::SetLocal(3, e)),
        (index(int_expr(1)), any_expr(2)).prop_map(|(idx, value)| Stmt::StoreGlobal {
            buf: OUT,
            idx,
            value
        }),
        (0..SHARED.len(), index(int_expr(1)), any_expr(2))
            .prop_map(|(buf, idx, value)| { Stmt::StoreShared { buf, idx, value } }),
        (atomic_op(), index(int_expr(1)), int_expr(1)).prop_map(|(op, idx, value)| {
            Stmt::AtomicGlobal {
                op,
                buf: COUNTS,
                idx,
                value,
            }
        }),
        (atomic_op(), index(int_expr(1)), any_expr(1)).prop_map(|(op, idx, value)| {
            Stmt::AtomicShared {
                op,
                buf: SHARED_I,
                idx,
                value,
            }
        }),
    ]
    .boxed();
    if depth == 0 {
        return simple;
    }
    let body = vec(stmt(depth - 1, loop_var + 1), 1..4).boxed();
    let cond = prop_oneof![bool_expr(2), bool_expr(2), bool_expr(2), wild_expr(1)];
    prop_oneof![
        simple.clone(),
        simple,
        (
            cond,
            body.clone(),
            prop_oneof![Just(Vec::new()), body.clone()]
        )
            .prop_map(|(cond, then_s, else_s)| Stmt::If {
                cond,
                then_s,
                else_s
            }),
        (loop_shape(), body).prop_map(move |((init, cmp, bound, step), body)| Stmt::Loop {
            var: loop_var,
            init,
            cmp,
            bound,
            step,
            body,
        }),
    ]
    .boxed()
}

fn kernel(body: Vec<Stmt>) -> KernelIr {
    KernelIr {
        name: "generated".into(),
        params: GLOBAL
            .iter()
            .map(|&elem| ParamDecl {
                elem,
                len: LEN as u64,
                writable: true,
            })
            .collect(),
        shared: SHARED
            .iter()
            .map(|&elem| SharedDecl {
                elem,
                len: LEN as u64,
            })
            .collect(),
        body,
    }
}

/// Initial contents of the global buffers (small ints, quarter floats,
/// zeroed outputs) as the values `Gpu::alloc_scalars` takes.
fn inputs(seed: u64) -> Vec<Vec<f64>> {
    let n = LEN as u64;
    vec![
        (0..n).map(|i| ((i * 7 + seed) % 11) as f64 - 3.0).collect(),
        (0..n)
            .map(|i| ((i * 5 + seed) % 9) as f64 * 0.25 - 1.0)
            .collect(),
        vec![0.0; LEN as usize],
        vec![0.0; LEN as usize],
    ]
}

// ---------------------------------------------------------------- oracle

fn eval_err(m: String) -> String {
    format!("evaluation error: {m}")
}

fn bin(op: BinOp, a: Value, b: Value) -> Result<Value, String> {
    use BinOp::*;
    use Value::{B, F, I};
    let overflow = |s: &str, x: i64, y: i64| format!("integer overflow in {x} {s} {y}");
    let type_error = || format!("type error: {a:?} {op:?} {b:?}");
    fn compare<T: PartialOrd>(op: BinOp, x: T, y: T) -> Option<bool> {
        Some(match op {
            Lt => x < y,
            Le => x <= y,
            Gt => x > y,
            Ge => x >= y,
            Eq => x == y,
            Ne => x != y,
            _ => return None,
        })
    }
    Ok(match (a, b) {
        (I(x), I(y)) => match op {
            Add => I(x.checked_add(y).ok_or_else(|| overflow("+", x, y))?),
            Sub => I(x.checked_sub(y).ok_or_else(|| overflow("-", x, y))?),
            Mul => I(x.checked_mul(y).ok_or_else(|| overflow("*", x, y))?),
            Div if y == 0 => return Err("integer division by zero".into()),
            Div => I(x.checked_div(y).ok_or_else(|| overflow("/", x, y))?),
            Mod if y == 0 => return Err("modulo by zero".into()),
            Mod => I(x.checked_rem(y).ok_or_else(|| overflow("%", x, y))?),
            Min => I(x.min(y)),
            Max => I(x.max(y)),
            And | Or => return Err(type_error()),
            _ => B(compare(op, x, y).expect("a comparison")),
        },
        (F(x), F(y)) => match op {
            Add => F(x + y),
            Sub => F(x - y),
            Mul => F(x * y),
            Div => F(x / y),
            Min => F(x.min(y)),
            Max => F(x.max(y)),
            Mod | And | Or => return Err(type_error()),
            _ => B(compare(op, x, y).expect("a comparison")),
        },
        (B(x), B(y)) => match op {
            And => B(x && y),
            Or => B(x || y),
            Eq => B(x == y),
            Ne => B(x != y),
            _ => return Err(type_error()),
        },
        _ => return Err(type_error()),
    })
}

fn un(op: UnOp, v: Value) -> Result<Value, String> {
    match (op, v) {
        (UnOp::Neg, Value::F(x)) => Ok(Value::F(-x)),
        (UnOp::Neg, Value::I(x)) => x
            .checked_neg()
            .map(Value::I)
            .ok_or_else(|| format!("integer overflow in -{x}")),
        (UnOp::Not, Value::B(x)) => Ok(Value::B(!x)),
        _ => Err(format!("cannot apply {op:?} to {v:?}")),
    }
}

fn as_index(v: Value) -> Result<u64, String> {
    match v {
        Value::I(i) if i >= 0 => Ok(i as u64),
        Value::I(i) => Err(format!("negative index {i}")),
        other => Err(format!("index is not an integer: {other:?}")),
    }
}

fn truthy(v: Value) -> Result<bool, String> {
    match v {
        Value::B(b) => Ok(b),
        other => Err(format!("condition is not a boolean: {other:?}")),
    }
}

fn nodes(e: &Expr) -> u64 {
    1 + match e {
        Expr::LoadGlobal { idx, .. } | Expr::LoadShared { idx, .. } => nodes(idx),
        Expr::Bin(_, a, b) => nodes(a) + nodes(b),
        Expr::Un(_, a) => nodes(a),
        _ => 0,
    }
}

/// The weight of each instruction `stmts` compiles to, in pc order:
/// one plus the source nodes of its operands (a loop's condition and
/// update are `var <cmp> bound` and `var <step> c`).
fn weights(stmts: &[Stmt], out: &mut Vec<u64>) {
    for s in stmts {
        match s {
            Stmt::SetLocal(_, e) => out.push(1 + nodes(e)),
            Stmt::StoreGlobal { idx, value, .. }
            | Stmt::StoreShared { idx, value, .. }
            | Stmt::AtomicGlobal { idx, value, .. }
            | Stmt::AtomicShared { idx, value, .. } => out.push(1 + nodes(idx) + nodes(value)),
            Stmt::If {
                cond,
                then_s,
                else_s,
            } => {
                out.push(1 + nodes(cond));
                weights(then_s, out);
                if !else_s.is_empty() {
                    out.push(1);
                    weights(else_s, out);
                }
            }
            Stmt::Loop {
                init, bound, body, ..
            } => {
                out.push(1 + nodes(init));
                out.push(1 + 2 + nodes(bound));
                weights(body, out);
                out.push(1 + 3);
                out.push(1);
            }
            other => unreachable!("not generated: {other:?}"),
        }
    }
}

/// Instructions `stmts` compile to.
fn size(stmts: &[Stmt]) -> usize {
    let mut w = Vec::new();
    weights(stmts, &mut w);
    w.len()
}

/// An evaluation failure: where in the instruction's evaluation order it
/// happened (interior nodes in post-order, then instruction-level checks)
/// and the launch error it becomes.
type Fail = (usize, String);

fn step(k: &mut usize) -> usize {
    *k += 1;
    *k - 1
}

/// One block of the kernel, run the way the tree says.
struct Block {
    global: Vec<Vec<u64>>,
    shared: Vec<Vec<u64>>,
    /// Linear block id, and `blockIdx`, `blockDim`, `gridDim`.
    id: u64,
    coords: [[i64; 3]; 3],
    /// Per thread: `threadIdx` and the locals.
    threads: Vec<([i64; 3], [Value; LOCALS])>,
}

impl Block {
    fn eval(&self, t: usize, e: &Expr, pc: usize, k: &mut usize) -> Result<Value, Fail> {
        let ax = |a: &Axis| *a as usize;
        Ok(match e {
            Expr::LitF(v) => Value::F(*v),
            Expr::LitI(v) => Value::I(*v),
            Expr::LitB(v) => Value::B(*v),
            Expr::BlockIdx(a) => Value::I(self.coords[0][ax(a)]),
            Expr::BlockDim(a) => Value::I(self.coords[1][ax(a)]),
            Expr::GridDim(a) => Value::I(self.coords[2][ax(a)]),
            Expr::ThreadIdx(a) => Value::I(self.threads[t].0[ax(a)]),
            Expr::Local(i) => self.threads[t].1[*i],
            Expr::LoadGlobal { buf, idx } | Expr::LoadShared { buf, idx } => {
                let global = matches!(e, Expr::LoadGlobal { .. });
                let i = self.eval(t, idx, pc, k)?;
                let at = step(k);
                let i = self.element(global, *buf, i, pc).map_err(|m| (at, m))?;
                let (mem, elems) = if global {
                    (&self.global, &GLOBAL[..])
                } else {
                    (&self.shared, &SHARED[..])
                };
                Value::from_bits(mem[*buf][i], elems[*buf])
            }
            Expr::Bin(op, a, b) => {
                let a = self.eval(t, a, pc, k)?;
                let b = self.eval(t, b, pc, k)?;
                let at = step(k);
                bin(*op, a, b).map_err(|m| (at, eval_err(m)))?
            }
            Expr::Un(op, a) => {
                let a = self.eval(t, a, pc, k)?;
                let at = step(k);
                un(*op, a).map_err(|m| (at, eval_err(m)))?
            }
        })
    }

    /// An index converted, then bounds-checked.
    fn element(&self, global: bool, buf: usize, i: Value, pc: usize) -> Result<usize, String> {
        let i = as_index(i).map_err(eval_err)?;
        let (kind, len) = if global {
            ("global", self.global[buf].len() as u64)
        } else {
            ("shared", self.shared[buf].len() as u64)
        };
        if i >= len {
            return Err(format!(
                "out of bounds in block {}: {kind} buffer {buf}: index {i} >= len {len} (pc {pc})",
                self.id
            ));
        }
        Ok(i as usize)
    }

    /// Evaluates `f` for every thread of `lanes`; the first failure in
    /// evaluation order, lowest lane first among equals, wins.
    fn each<T>(
        &self,
        lanes: &[usize],
        f: impl Fn(&Block, usize, &mut usize) -> Result<T, Fail>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        let mut first: Option<Fail> = None;
        for &t in lanes {
            match f(self, t, &mut 0) {
                Ok(v) => out.push(v),
                Err((at, m)) => {
                    if first.as_ref().is_none_or(|(f, _)| at < *f) {
                        first = Some((at, m));
                    }
                }
            }
        }
        first.map_or(Ok(out), |(_, m)| Err(m))
    }

    fn set(&mut self, lanes: &[usize], slot: usize, vals: Vec<Value>) {
        for (&t, v) in lanes.iter().zip(vals) {
            self.threads[t].1[slot] = v;
        }
    }

    /// A store or atomic: every lane's index (converted) and value first,
    /// then lane by lane its bounds check and write.
    #[allow(clippy::too_many_arguments)]
    fn store(
        &mut self,
        lanes: &[usize],
        global: bool,
        buf: usize,
        idx: &Expr,
        value: &Expr,
        rmw: Option<AtomicOp>,
        pc: usize,
    ) -> Result<(), String> {
        let operands = self.each(lanes, |b, t, k| {
            let i = b.eval(t, idx, pc, k)?;
            let at = step(k);
            let i = as_index(i).map_err(|m| (at, eval_err(m)))?;
            Ok((Value::I(i as i64), b.eval(t, value, pc, k)?))
        })?;
        for (i, v) in operands {
            let i = self.element(global, buf, i, pc)?;
            let (cell, elem) = if global {
                (&mut self.global[buf][i], GLOBAL[buf])
            } else {
                (&mut self.shared[buf][i], SHARED[buf])
            };
            let new = match rmw {
                None => v,
                Some(AtomicOp::Exch) => v,
                Some(op) => {
                    let combine = match op {
                        AtomicOp::Add => BinOp::Add,
                        AtomicOp::Min => BinOp::Min,
                        _ => BinOp::Max,
                    };
                    bin(combine, Value::from_bits(*cell, elem), v).map_err(eval_err)?
                }
            };
            *cell = new.to_elem_bits(elem).map_err(eval_err)?;
        }
        Ok(())
    }

    /// Runs `stmts`, whose first instruction is at `pc`, for the threads
    /// in `lanes` together: each instruction for all of them before the
    /// next, a branch arm or loop iteration by the threads that take it.
    fn run(&mut self, stmts: &[Stmt], lanes: &[usize], mut pc: usize) -> Result<(), String> {
        for s in stmts {
            match s {
                Stmt::SetLocal(slot, e) => {
                    let vals = self.each(lanes, |b, t, k| b.eval(t, e, pc, k))?;
                    self.set(lanes, *slot, vals);
                }
                Stmt::StoreGlobal { buf, idx, value } => {
                    self.store(lanes, true, *buf, idx, value, None, pc)?
                }
                Stmt::StoreShared { buf, idx, value } => {
                    self.store(lanes, false, *buf, idx, value, None, pc)?
                }
                Stmt::AtomicGlobal {
                    op,
                    buf,
                    idx,
                    value,
                } => self.store(lanes, true, *buf, idx, value, Some(*op), pc)?,
                Stmt::AtomicShared {
                    op,
                    buf,
                    idx,
                    value,
                } => self.store(lanes, false, *buf, idx, value, Some(*op), pc)?,
                Stmt::If {
                    cond,
                    then_s,
                    else_s,
                } => {
                    let taken = self.each(lanes, |b, t, k| {
                        let c = b.eval(t, cond, pc, k)?;
                        let at = step(k);
                        truthy(c).map_err(|m| (at, eval_err(m)))
                    })?;
                    let pick = |want: bool| -> Vec<usize> {
                        lanes
                            .iter()
                            .zip(&taken)
                            .filter(|(_, c)| **c == want)
                            .map(|(t, _)| *t)
                            .collect()
                    };
                    let (then_lanes, else_lanes) = (pick(true), pick(false));
                    if !then_lanes.is_empty() {
                        self.run(then_s, &then_lanes, pc + 1)?;
                    }
                    if !else_lanes.is_empty() {
                        self.run(else_s, &else_lanes, pc + 2 + size(then_s))?;
                    }
                }
                Stmt::Loop {
                    var,
                    init,
                    cmp,
                    bound,
                    step: update,
                    body,
                } => {
                    let vals = self.each(lanes, |b, t, k| b.eval(t, init, pc, k))?;
                    self.set(lanes, *var, vals);
                    let head = pc + 1;
                    let cmp = match cmp {
                        LoopCmp::Lt => BinOp::Lt,
                        LoopCmp::Le => BinOp::Le,
                        LoopCmp::Gt => BinOp::Gt,
                        LoopCmp::Ge => BinOp::Ge,
                    };
                    let (op, c) = match update {
                        LoopStep::Add(c) => (BinOp::Add, *c),
                        LoopStep::Mul(c) => (BinOp::Mul, *c),
                        LoopStep::Div(c) => (BinOp::Div, *c),
                    };
                    let mut active = lanes.to_vec();
                    loop {
                        let go = self.each(&active, |b, t, k| {
                            let x = b.threads[t].1[*var];
                            let bound = b.eval(t, bound, head, k)?;
                            let at = step(k);
                            let c = bin(cmp, x, bound).map_err(|m| (at, eval_err(m)))?;
                            let at = step(k);
                            truthy(c).map_err(|m| (at, eval_err(m)))
                        })?;
                        active = active
                            .iter()
                            .zip(go)
                            .filter(|(_, go)| *go)
                            .map(|(t, _)| *t)
                            .collect();
                        if active.is_empty() {
                            break;
                        }
                        self.run(body, &active, head + 1)?;
                        let vals = self.each(&active, |b, t, _| {
                            bin(op, b.threads[t].1[*var], Value::I(c)).map_err(|m| (0, eval_err(m)))
                        })?;
                        self.set(&active, *var, vals);
                    }
                }
                other => unreachable!("not generated: {other:?}"),
            }
            pc += size(std::slice::from_ref(s));
        }
        Ok(())
    }
}

/// The global buffers after running `kernel` thread after thread
/// (`Reference`) or a warp's lanes together (`Warp`), or the error.
fn oracle(
    kernel: &KernelIr,
    grid: u64,
    block: [u64; 3],
    data: &[Vec<f64>],
    exec: ExecMode,
) -> Result<Vec<Vec<u64>>, String> {
    let mut global: Vec<Vec<u64>> = data
        .iter()
        .zip(GLOBAL)
        .map(|(d, elem)| {
            d.iter()
                .map(|v| Value::F(*v).to_elem_bits(elem).expect("numeric input"))
                .collect()
        })
        .collect();
    let threads = (block[0] * block[1] * block[2]) as usize;
    let group = match exec {
        ExecMode::Warp => 32,
        ExecMode::Reference => 1,
    };
    for id in 0..grid {
        let mut b = Block {
            global,
            shared: SHARED.iter().map(|_| vec![0; LEN as usize]).collect(),
            id,
            coords: [
                [id as i64, 0, 0],
                block.map(|d| d as i64),
                [grid as i64, 1, 1],
            ],
            threads: (0..threads as u64)
                .map(|t| {
                    let coords = [
                        t % block[0],
                        t / block[0] % block[1],
                        t / (block[0] * block[1]),
                    ];
                    (coords.map(|c| c as i64), [Value::I(0); LOCALS])
                })
                .collect(),
        };
        let all: Vec<usize> = (0..threads).collect();
        for lanes in all.chunks(group) {
            b.run(&kernel.body, lanes, 0)?;
        }
        global = b.global;
    }
    Ok(global)
}

/// What `Gpu::read_scalars` returns for buffer bits, as bit patterns.
fn readback(bits: &[u64], elem: ElemTy) -> Vec<u64> {
    bits.iter()
        .map(|b| match Value::from_bits(*b, elem) {
            Value::F(x) => x.to_bits(),
            Value::I(i) => (i as f64).to_bits(),
            Value::B(b) => f64::from(u8::from(b)).to_bits(),
        })
        .collect()
}

proptest! {
    #[test]
    fn bytecode_matches_the_tree_oracle(
        body in vec(stmt(2, 4), 1..4),
        grid in 1u64..3,
        block in prop_oneof![
            Just([1u64, 1, 1]),
            Just([5, 1, 1]),
            Just([32, 1, 1]),
            Just([8, 5, 1])
        ],
        seed in 0u64..1000,
    ) {
        let kernel = kernel(body);
        let prog = Program::build(&kernel).expect("every buffer is declared");
        let mut want = Vec::new();
        weights(&kernel.body, &mut want);
        want.push(0);
        prop_assert_eq!(&prog.weights, &want);

        let data = inputs(seed);
        for exec in [ExecMode::Warp, ExecMode::Reference] {
            let want = oracle(&kernel, grid, block, &data, exec).map(|global| {
                global.iter().zip(GLOBAL).map(|(b, e)| readback(b, e)).collect::<Vec<_>>()
            });
            let mut gpu = Gpu::new();
            let bufs: Vec<_> = GLOBAL
                .iter()
                .zip(&data)
                .map(|(elem, d)| gpu.alloc_scalars(*elem, d))
                .collect();
            let cfg = LaunchConfig { exec, workers: Some(1), ..LaunchConfig::default() };
            let got = gpu
                .launch(&kernel, [grid, 1, 1], block, &bufs, &cfg)
                .map(|_| {
                    bufs.iter()
                        .map(|b| gpu.read_scalars(*b).iter().map(|v| v.to_bits()).collect())
                        .collect::<Vec<Vec<u64>>>()
                })
                .map_err(|e| e.to_string());
            prop_assert_eq!(got, want, "{:?}", exec);
        }
    }
}
