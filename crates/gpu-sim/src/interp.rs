//! The kernel bytecode, and the resumable per-thread reference
//! interpreter that runs it one lane at a time.
//!
//! [`Program::build`] flattens a kernel once per launch. Structured IR
//! becomes a control skeleton whose only transfers are jumps, so that a
//! thread can be suspended at a barrier and resumed later; each operand
//! expression becomes a run of ops in post-order over statically
//! numbered temporaries, with literals, coordinates and locals read in
//! place by the op that uses them. Both executors run this one program:
//! [`run_thread`] here, lane by lane, and the warp executor
//! (`crate::warp`) over lane-wide temporaries. Scalar semantics —
//! `apply_bin`, `apply_un`, `apply_atomic` and the [`Value`]
//! conversions — are written once, here.
//!
//! The reference scheduler (`crate::device`) runs a block in *rounds*:
//! every thread runs until its next barrier (or completion); the round
//! ends with a consistency check — if some threads are at a barrier while
//! others finished, or two threads wait at different barriers, the launch
//! reports barrier divergence (the behavior CUDA leaves undefined, see
//! paper Section 2.2).

use crate::ir::{
    AtomicOp, Axis, BinOp, ElemTy, Expr, KernelIr, LoopCmp, LoopStep, ShflOp, Stmt, UnOp,
};
use descend_trace::SrcSpan;

/// A runtime value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// Float (f64 and f32 are both computed in f64).
    F(f64),
    /// Integer.
    I(i64),
    /// Boolean.
    B(bool),
}

impl Value {
    /// Raw bit representation for storage in buffers.
    pub fn to_bits(self) -> u64 {
        match self {
            Value::F(v) => v.to_bits(),
            Value::I(v) => v as u64,
            Value::B(v) => u64::from(v),
        }
    }

    /// Converts the value to the bit pattern of the given element type,
    /// applying C-style numeric conversions (an integer stored to a float
    /// buffer becomes that float, and vice versa with truncation).
    ///
    /// # Errors
    ///
    /// Boolean/number confusion is reported rather than coerced.
    #[inline]
    pub fn to_elem_bits(self, elem: ElemTy) -> Result<u64, String> {
        Ok(match (elem, self) {
            (ElemTy::F64, Value::F(v)) => v.to_bits(),
            // f32 buffers round on store, as the hardware would; reads
            // widen back to f64.
            (ElemTy::F32, Value::F(v)) => ((v as f32) as f64).to_bits(),
            (ElemTy::F64, Value::I(v)) => (v as f64).to_bits(),
            (ElemTy::F32, Value::I(v)) => ((v as f32) as f64).to_bits(),
            (ElemTy::I32, Value::I(v)) => v as u64,
            (ElemTy::I32, Value::F(v)) => (v as i64) as u64,
            // u32 buffers wrap on store, as the hardware would.
            (ElemTy::U32, Value::I(v)) => u64::from(v as u32),
            (ElemTy::U32, Value::F(v)) => u64::from((v as i64) as u32),
            (ElemTy::Bool, Value::B(v)) => u64::from(v),
            (e, v) => return Err(format!("cannot store {v:?} into a {e:?} buffer")),
        })
    }

    /// Reconstructs a value from bits given the element type.
    #[inline]
    pub fn from_bits(bits: u64, elem: ElemTy) -> Value {
        match elem {
            ElemTy::F64 | ElemTy::F32 => Value::F(f64::from_bits(bits)),
            ElemTy::I32 => Value::I(bits as i64),
            ElemTy::U32 => Value::I((bits as u32) as i64),
            ElemTy::Bool => Value::B(bits != 0),
        }
    }

    #[inline]
    pub(crate) fn as_index(self) -> Result<u64, String> {
        match self {
            Value::I(v) if v >= 0 => Ok(v as u64),
            Value::I(v) => Err(format!("negative index {v}")),
            other => Err(format!("index is not an integer: {other:?}")),
        }
    }

    #[inline]
    pub(crate) fn truthy(self) -> Result<bool, String> {
        match self {
            Value::B(b) => Ok(b),
            other => Err(format!("condition is not a boolean: {other:?}")),
        }
    }
}

/// Where an op or instruction reads one operand. Leaves of the source
/// expression are read in place; only interior nodes write temporaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Src {
    /// `Program::consts[k]` (a literal).
    Const(u32),
    /// A per-block coordinate: `blockIdx` (0..3), `blockDim` (3..6) or
    /// `gridDim` (6..9), each along x, y, z.
    Uniform(u8),
    /// `threadIdx` along x, y, z (0..3).
    Thread(u8),
    /// A thread-private local slot.
    Local(u32),
    /// A temporary written by an earlier op of the same instruction.
    Temp(u32),
}

/// One interior expression node, writing `Temp(dst)`. Operands are
/// numbered so that a `Bin`'s are `Temp(dst)` and `Temp(dst + 1)` when
/// they are temporaries at all: the warp executor computes in place.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    /// `a <op> b`.
    Bin { op: BinOp, dst: u32, a: Src, b: Src },
    /// `<op> a`.
    Un { op: UnOp, dst: u32, a: Src },
    /// `global[buf][idx]`.
    LoadGlobal { buf: u32, dst: u32, idx: Src },
    /// `shared[buf][idx]`.
    LoadShared { buf: u32, dst: u32, idx: Src },
}

/// A compiled operand expression: `ops[start..end]` compute it, then its
/// value is read from `src` (`Temp(0)`, or the leaf itself).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Operand {
    pub(crate) start: u32,
    pub(crate) end: u32,
    pub(crate) src: Src,
}

/// One bytecode instruction: the control skeleton, one per pc.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Instr {
    /// Assign a local.
    SetLocal { dst: usize, value: Operand },
    /// Store to global memory.
    StoreGlobal {
        buf: usize,
        idx: Operand,
        value: Operand,
    },
    /// Store to shared memory.
    StoreShared {
        buf: usize,
        idx: Operand,
        value: Operand,
    },
    /// Atomic read-modify-write on global memory.
    AtomicGlobal {
        op: AtomicOp,
        buf: usize,
        idx: Operand,
        value: Operand,
    },
    /// Atomic read-modify-write on shared memory.
    AtomicShared {
        op: AtomicOp,
        buf: usize,
        idx: Operand,
        value: Operand,
    },
    /// Warp shuffle: stage the operand, suspend until every lane of the
    /// warp reaches the same shuffle, then receive the source lane's
    /// value into `dst` (the exchange itself is performed by the block
    /// schedulers).
    Shfl {
        dst: usize,
        op: ShflOp,
        value: Operand,
        delta: u32,
    },
    /// Conditional jump (taken when the condition is false).
    JumpIfFalse { cond: Operand, target: usize },
    /// Unconditional jump.
    Jump(usize),
    /// Block-wide barrier.
    Barrier,
    /// End of kernel.
    Halt,
}

/// A kernel compiled to bytecode, built once per launch.
#[derive(Debug)]
pub struct Program {
    pub(crate) code: Vec<Instr>,
    pub(crate) ops: Vec<Op>,
    /// The distinct literals, indexed by [`Src::Const`].
    pub(crate) consts: Vec<Value>,
    /// Per-pc cost weight: one cycle per instruction plus one per source
    /// expression node of its operands (`Halt` weighs 0).
    pub weights: Vec<u64>,
    /// Per-pc source span, from [`Stmt::Src`] markers: every instruction
    /// built after a marker (at the same or deeper nesting) carries that
    /// marker's span until the next one; bodies without markers
    /// (handwritten IR) get [`SrcSpan::DUMMY`] throughout, as does the
    /// final `Halt`.
    pub spans: Vec<SrcSpan>,
    /// Thread-private local slots ([`KernelIr::local_count`]).
    pub local_count: usize,
    /// Temporaries one instruction needs at most.
    pub temp_count: usize,
}

impl Program {
    /// Compiles a kernel.
    ///
    /// # Errors
    ///
    /// A load, store or atomic naming a global buffer the kernel has no
    /// parameter for, or a shared allocation it does not declare.
    pub fn build(kernel: &KernelIr) -> Result<Program, String> {
        let mut b = Builder {
            prog: Program {
                code: Vec::new(),
                ops: Vec::new(),
                consts: Vec::new(),
                weights: Vec::new(),
                spans: Vec::new(),
                local_count: kernel.local_count(),
                temp_count: 0,
            },
            kernel,
        };
        b.block(&kernel.body, SrcSpan::DUMMY)?;
        b.push(Instr::Halt, 0, SrcSpan::DUMMY);
        Ok(b.prog)
    }
}

struct Builder<'k> {
    prog: Program,
    kernel: &'k KernelIr,
}

impl Builder<'_> {
    fn push(&mut self, i: Instr, weight: u64, span: SrcSpan) -> usize {
        self.prog.code.push(i);
        self.prog.weights.push(weight);
        self.prog.spans.push(span);
        self.prog.code.len() - 1
    }

    fn patch(&mut self, pc: usize, to: usize) {
        match &mut self.prog.code[pc] {
            Instr::JumpIfFalse { target, .. } | Instr::Jump(target) => *target = to,
            other => unreachable!("patching a non-jump {other:?}"),
        }
    }

    fn block(&mut self, stmts: &[Stmt], outer: SrcSpan) -> Result<(), String> {
        // The marker span in effect; nested bodies inherit it at entry and
        // their own markers stay scoped to the nesting.
        let mut cur = outer;
        for s in stmts {
            match s {
                Stmt::Src(sp) => cur = *sp,
                Stmt::SetLocal(dst, e) => {
                    let (value, w) = self.operand(e)?;
                    self.push(Instr::SetLocal { dst: *dst, value }, 1 + w, cur);
                }
                Stmt::StoreGlobal { buf, idx, value } => {
                    self.store(true, *buf, idx, value, cur, |idx, value| {
                        Instr::StoreGlobal {
                            buf: *buf,
                            idx,
                            value,
                        }
                    })?
                }
                Stmt::StoreShared { buf, idx, value } => {
                    self.store(false, *buf, idx, value, cur, |idx, value| {
                        Instr::StoreShared {
                            buf: *buf,
                            idx,
                            value,
                        }
                    })?
                }
                Stmt::AtomicGlobal {
                    op,
                    buf,
                    idx,
                    value,
                } => self.store(true, *buf, idx, value, cur, |idx, value| {
                    Instr::AtomicGlobal {
                        op: *op,
                        buf: *buf,
                        idx,
                        value,
                    }
                })?,
                Stmt::AtomicShared {
                    op,
                    buf,
                    idx,
                    value,
                } => self.store(false, *buf, idx, value, cur, |idx, value| {
                    Instr::AtomicShared {
                        op: *op,
                        buf: *buf,
                        idx,
                        value,
                    }
                })?,
                Stmt::If {
                    cond,
                    then_s,
                    else_s,
                } => {
                    let (cond, w) = self.operand(cond)?;
                    let jif = self.push(Instr::JumpIfFalse { cond, target: 0 }, 1 + w, cur);
                    self.block(then_s, cur)?;
                    if else_s.is_empty() {
                        self.patch(jif, self.prog.code.len());
                    } else {
                        let jend = self.push(Instr::Jump(0), 1, cur);
                        self.patch(jif, self.prog.code.len());
                        self.block(else_s, cur)?;
                        self.patch(jend, self.prog.code.len());
                    }
                }
                Stmt::Loop {
                    var,
                    init,
                    cmp,
                    bound,
                    step,
                    body,
                } => {
                    // var = init; head: if !(var <cmp> bound) goto end;
                    // body; var = var <step> c; goto head; end:
                    let (init, w) = self.operand(init)?;
                    self.push(
                        Instr::SetLocal {
                            dst: *var,
                            value: init,
                        },
                        1 + w,
                        cur,
                    );
                    let head = self.prog.code.len();
                    let cmp = match cmp {
                        LoopCmp::Lt => BinOp::Lt,
                        LoopCmp::Le => BinOp::Le,
                        LoopCmp::Gt => BinOp::Gt,
                        LoopCmp::Ge => BinOp::Ge,
                    };
                    let (cond, w) = self.bin_local(cmp, *var, |b| {
                        let mut nodes = 0;
                        let src = b.expr(bound, 1, &mut nodes)?;
                        Ok((src, nodes))
                    })?;
                    let jexit = self.push(Instr::JumpIfFalse { cond, target: 0 }, 1 + w, cur);
                    self.block(body, cur)?;
                    let (op, c) = match *step {
                        LoopStep::Add(c) => (BinOp::Add, c),
                        LoopStep::Mul(c) => (BinOp::Mul, c),
                        LoopStep::Div(c) => (BinOp::Div, c),
                    };
                    let (update, w) =
                        self.bin_local(op, *var, |b| Ok((b.constant(Value::I(c)), 1)))?;
                    self.push(
                        Instr::SetLocal {
                            dst: *var,
                            value: update,
                        },
                        1 + w,
                        cur,
                    );
                    self.push(Instr::Jump(head), 1, cur);
                    self.patch(jexit, self.prog.code.len());
                }
                Stmt::Shfl {
                    dst,
                    op,
                    value,
                    delta,
                } => {
                    let (value, w) = self.operand(value)?;
                    let i = Instr::Shfl {
                        dst: *dst,
                        op: *op,
                        value,
                        delta: *delta,
                    };
                    self.push(i, 1 + w, cur);
                }
                Stmt::Barrier => {
                    self.push(Instr::Barrier, 1, cur);
                }
            }
        }
        Ok(())
    }

    /// Compiles `e` as an instruction operand, returning it with `e`'s
    /// node count.
    fn operand(&mut self, e: &Expr) -> Result<(Operand, u64), String> {
        let start = self.prog.ops.len() as u32;
        let mut nodes = 0;
        let src = self.expr(e, 0, &mut nodes)?;
        let end = self.prog.ops.len() as u32;
        Ok((Operand { start, end, src }, nodes))
    }

    /// The operand `Local(var) <op> rhs` of a loop's condition or update
    /// (an expression the source never spells out), with its node count.
    fn bin_local(
        &mut self,
        op: BinOp,
        var: usize,
        rhs: impl FnOnce(&mut Self) -> Result<(Src, u64), String>,
    ) -> Result<(Operand, u64), String> {
        let start = self.prog.ops.len() as u32;
        let (b, nodes) = rhs(self)?;
        let src = self.op(Op::Bin {
            op,
            dst: 0,
            a: Src::Local(var as u32),
            b,
        });
        let end = self.prog.ops.len() as u32;
        Ok((Operand { start, end, src }, 2 + nodes))
    }

    /// Appends `e`'s interior nodes in post-order, the result in
    /// `Temp(base)`; a leaf appends nothing and is returned as its own
    /// source. Counts every node visited into `nodes`.
    fn expr(&mut self, e: &Expr, base: u32, nodes: &mut u64) -> Result<Src, String> {
        *nodes += 1;
        let axis = |a: &Axis| match a {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
        };
        Ok(match e {
            Expr::LitF(v) => self.constant(Value::F(*v)),
            Expr::LitI(v) => self.constant(Value::I(*v)),
            Expr::LitB(v) => self.constant(Value::B(*v)),
            Expr::BlockIdx(a) => Src::Uniform(axis(a)),
            Expr::BlockDim(a) => Src::Uniform(3 + axis(a)),
            Expr::GridDim(a) => Src::Uniform(6 + axis(a)),
            Expr::ThreadIdx(a) => Src::Thread(axis(a)),
            Expr::Local(i) => Src::Local(*i as u32),
            Expr::LoadGlobal { buf, idx } => {
                self.declared(true, *buf)?;
                let idx = self.expr(idx, base, nodes)?;
                self.op(Op::LoadGlobal {
                    buf: *buf as u32,
                    dst: base,
                    idx,
                })
            }
            Expr::LoadShared { buf, idx } => {
                self.declared(false, *buf)?;
                let idx = self.expr(idx, base, nodes)?;
                self.op(Op::LoadShared {
                    buf: *buf as u32,
                    dst: base,
                    idx,
                })
            }
            Expr::Bin(op, a, b) => {
                let a = self.expr(a, base, nodes)?;
                let b = self.expr(b, base + 1, nodes)?;
                self.op(Op::Bin {
                    op: *op,
                    dst: base,
                    a,
                    b,
                })
            }
            Expr::Un(op, a) => {
                let a = self.expr(a, base, nodes)?;
                self.op(Op::Un {
                    op: *op,
                    dst: base,
                    a,
                })
            }
        })
    }

    fn op(&mut self, op: Op) -> Src {
        let (Op::Bin { dst, .. }
        | Op::Un { dst, .. }
        | Op::LoadGlobal { dst, .. }
        | Op::LoadShared { dst, .. }) = op;
        self.prog.ops.push(op);
        self.prog.temp_count = self.prog.temp_count.max(dst as usize + 1);
        Src::Temp(dst)
    }

    /// Interns a literal (by bit pattern, so `-0.0` and NaNs stay exact).
    fn constant(&mut self, v: Value) -> Src {
        let same = |c: &Value| {
            std::mem::discriminant(c) == std::mem::discriminant(&v) && c.to_bits() == v.to_bits()
        };
        let k = match self.prog.consts.iter().position(same) {
            Some(k) => k,
            None => {
                self.prog.consts.push(v);
                self.prog.consts.len() - 1
            }
        };
        Src::Const(k as u32)
    }

    /// A store-family instruction: the index's operand, then the value's.
    fn store(
        &mut self,
        global: bool,
        buf: usize,
        idx: &Expr,
        value: &Expr,
        span: SrcSpan,
        instr: impl FnOnce(Operand, Operand) -> Instr,
    ) -> Result<(), String> {
        self.declared(global, buf)?;
        let (idx, wi) = self.operand(idx)?;
        let (value, wv) = self.operand(value)?;
        self.push(instr(idx, value), 1 + wi + wv, span);
        Ok(())
    }

    /// Checks that the kernel declares the buffer an access names.
    fn declared(&self, global: bool, buf: usize) -> Result<(), String> {
        let (kind, n, what) = if global {
            ("global", self.kernel.params.len(), "parameter(s)")
        } else {
            ("shared", self.kernel.shared.len(), "shared allocation(s)")
        };
        if buf >= n {
            return Err(format!(
                "kernel `{}` accesses {kind} buffer {buf} but declares {n} {what}",
                self.kernel.name
            ));
        }
        Ok(())
    }
}

/// One logged memory access.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccessRec {
    /// Bytecode pc of the instruction (groups warp lanes for coalescing).
    pub pc: u32,
    /// Global (true) or shared (false) memory.
    pub global: bool,
    /// Buffer / shared allocation index.
    pub buf: u32,
    /// Element index.
    pub idx: u64,
    /// Write (true) or read (false).
    pub write: bool,
    /// Atomic read-modify-write (atomic–atomic pairs never race; the
    /// cost model charges same-address serialization per warp).
    pub atomic: bool,
    /// Linear thread id within the block.
    pub tid: u32,
}

/// Why a thread stopped in a round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ThreadStop {
    /// Reached a barrier at the given pc.
    Barrier(usize),
    /// Reached a warp shuffle at the given pc: the operand value is
    /// staged in [`ThreadState::pending_shfl`]; the scheduler performs
    /// the exchange once every lane of the warp arrives and resumes the
    /// thread afterwards.
    Shfl(usize),
    /// Ran to completion.
    Done,
}

/// Per-thread interpreter state.
#[derive(Clone, Debug)]
pub struct ThreadState {
    /// Program counter.
    pub pc: usize,
    /// Local slots.
    pub locals: Vec<Value>,
    /// Completed.
    pub done: bool,
    /// Executed instruction count (for the cost model).
    pub instr_count: u64,
    /// Operand staged by a suspended shuffle (consumed by the block
    /// scheduler's warp exchange).
    pub pending_shfl: Option<Value>,
}

impl ThreadState {
    /// Fresh state with `n` locals.
    pub fn new(n: usize) -> ThreadState {
        ThreadState {
            pc: 0,
            locals: vec![Value::I(0); n],
            done: false,
            instr_count: 0,
            pending_shfl: None,
        }
    }
}

/// Execution environment of one thread within one block.
pub struct ThreadEnv<'a> {
    /// Thread coordinates `(x, y, z)`.
    pub thread: [u64; 3],
    /// Block coordinates `(x, y, z)`.
    pub block: [u64; 3],
    /// Threads per block.
    pub block_dim: [u64; 3],
    /// Blocks per grid.
    pub grid_dim: [u64; 3],
    /// Linear thread id within the block.
    pub tid: u32,
    /// Global buffers (bit patterns).
    pub global: &'a mut [Vec<u64>],
    /// Element types of the global buffers.
    pub global_elems: &'a [ElemTy],
    /// Shared allocations of this block (bit patterns).
    pub shared: &'a mut [Vec<u64>],
    /// Element types of the shared allocations.
    pub shared_elems: &'a [ElemTy],
    /// Access log of the current interval.
    pub log: &'a mut Vec<AccessRec>,
    /// The program's temporaries ([`Program::temp_count`] of them). Dead
    /// between instructions, so every thread may share one set.
    pub temps: &'a mut [Value],
}

/// Interpreter errors (mapped to [`crate::SimError`] by the device).
#[derive(Clone, Debug, PartialEq)]
pub enum InterpError {
    /// Index past the end of a buffer.
    OutOfBounds {
        /// Buffer kind and index description.
        what: String,
        /// Offending element index.
        idx: u64,
        /// Buffer length.
        len: u64,
        /// Bytecode pc.
        pc: usize,
    },
    /// Dynamic type error or other evaluation failure.
    Eval(String),
}

type IResult<T> = Result<T, InterpError>;

/// Combines the old cell value with the operand per the atomic operation
/// (the read-modify part of the RMW; the write goes through
/// [`Value::to_elem_bits`] like any store).
#[inline]
pub(crate) fn apply_atomic(op: AtomicOp, old: Value, operand: Value) -> Result<Value, String> {
    match op {
        AtomicOp::Add => apply_bin(BinOp::Add, old, operand),
        AtomicOp::Min => apply_bin(BinOp::Min, old, operand),
        AtomicOp::Max => apply_bin(BinOp::Max, old, operand),
        AtomicOp::Exch => Ok(operand),
    }
}

/// Applies a unary operator; integer negation is checked like every
/// other integer operation.
#[inline]
pub(crate) fn apply_un(op: UnOp, v: Value) -> Result<Value, String> {
    match (op, v) {
        (UnOp::Neg, Value::F(x)) => Ok(Value::F(-x)),
        (UnOp::Neg, Value::I(x)) => x
            .checked_neg()
            .map(Value::I)
            .ok_or_else(|| format!("integer overflow in -{x}")),
        (UnOp::Not, Value::B(x)) => Ok(Value::B(!x)),
        (o, v) => Err(format!("cannot apply {o:?} to {v:?}")),
    }
}

#[inline]
pub(crate) fn apply_bin(op: BinOp, a: Value, b: Value) -> Result<Value, String> {
    use BinOp::*;
    use Value::*;
    // Integer arithmetic is checked: at paper-scale footprints index
    // expressions reach magnitudes where silent wrap-around (release) or
    // a panic (debug) would both be wrong — overflow is a reported
    // evaluation error like division by zero.
    let overflow = |what: &str, x: i64, y: i64| format!("integer overflow in {x} {what} {y}");
    Ok(match (op, a, b) {
        (Add, F(x), F(y)) => F(x + y),
        (Sub, F(x), F(y)) => F(x - y),
        (Mul, F(x), F(y)) => F(x * y),
        (Div, F(x), F(y)) => F(x / y),
        (Min, F(x), F(y)) => F(x.min(y)),
        (Max, F(x), F(y)) => F(x.max(y)),
        (Add, I(x), I(y)) => I(x.checked_add(y).ok_or_else(|| overflow("+", x, y))?),
        (Sub, I(x), I(y)) => I(x.checked_sub(y).ok_or_else(|| overflow("-", x, y))?),
        (Mul, I(x), I(y)) => I(x.checked_mul(y).ok_or_else(|| overflow("*", x, y))?),
        (Div, I(x), I(y)) => {
            if y == 0 {
                return Err("integer division by zero".into());
            }
            I(x.checked_div(y).ok_or_else(|| overflow("/", x, y))?)
        }
        (Mod, I(x), I(y)) => {
            if y == 0 {
                return Err("modulo by zero".into());
            }
            I(x.checked_rem(y).ok_or_else(|| overflow("%", x, y))?)
        }
        (Min, I(x), I(y)) => I(x.min(y)),
        (Max, I(x), I(y)) => I(x.max(y)),
        (Lt, F(x), F(y)) => B(x < y),
        (Le, F(x), F(y)) => B(x <= y),
        (Gt, F(x), F(y)) => B(x > y),
        (Ge, F(x), F(y)) => B(x >= y),
        (Eq, F(x), F(y)) => B(x == y),
        (Ne, F(x), F(y)) => B(x != y),
        (Lt, I(x), I(y)) => B(x < y),
        (Le, I(x), I(y)) => B(x <= y),
        (Gt, I(x), I(y)) => B(x > y),
        (Ge, I(x), I(y)) => B(x >= y),
        (Eq, I(x), I(y)) => B(x == y),
        (Ne, I(x), I(y)) => B(x != y),
        (And, B(x), B(y)) => B(x && y),
        (Or, B(x), B(y)) => B(x || y),
        (Eq, B(x), B(y)) => B(x == y),
        (Ne, B(x), B(y)) => B(x != y),
        (o, x, y) => return Err(format!("type error: {x:?} {o:?} {y:?}")),
    })
}

/// Reads one operand source for the thread.
fn read(prog: &Program, st: &ThreadState, env: &ThreadEnv<'_>, s: Src) -> Value {
    match s {
        Src::Const(k) => prog.consts[k as usize],
        Src::Uniform(k) => {
            let coords = match k / 3 {
                0 => env.block,
                1 => env.block_dim,
                _ => env.grid_dim,
            };
            Value::I(coords[usize::from(k % 3)] as i64)
        }
        Src::Thread(a) => Value::I(env.thread[usize::from(a)] as i64),
        Src::Local(i) => st.locals[i as usize],
        Src::Temp(t) => env.temps[t as usize],
    }
}

/// Evaluates an operand for the thread: runs its ops, then reads it.
fn operand(
    prog: &Program,
    o: Operand,
    st: &ThreadState,
    env: &mut ThreadEnv<'_>,
    pc: usize,
) -> IResult<Value> {
    for op in &prog.ops[o.start as usize..o.end as usize] {
        let (dst, v) = match *op {
            Op::Bin { op, dst, a, b } => {
                let (a, b) = (read(prog, st, env, a), read(prog, st, env, b));
                (dst, apply_bin(op, a, b).map_err(InterpError::Eval)?)
            }
            Op::Un { op, dst, a } => (
                dst,
                apply_un(op, read(prog, st, env, a)).map_err(InterpError::Eval)?,
            ),
            Op::LoadGlobal { buf, dst, idx } => {
                let i = read(prog, st, env, idx)
                    .as_index()
                    .map_err(InterpError::Eval)?;
                (dst, access(env, true, buf as usize, i, None, pc)?)
            }
            Op::LoadShared { buf, dst, idx } => {
                let i = read(prog, st, env, idx)
                    .as_index()
                    .map_err(InterpError::Eval)?;
                (dst, access(env, false, buf as usize, i, None, pc)?)
            }
        };
        env.temps[dst as usize] = v;
    }
    Ok(read(prog, st, env, o.src))
}

/// One memory access of the thread, logged: a load (`write` is `None`),
/// or a store — plain, or atomic combining `Some(op)` with the old cell.
/// Returns the cell's value before the access.
fn access(
    env: &mut ThreadEnv<'_>,
    global: bool,
    buf: usize,
    idx: u64,
    write: Option<(Value, Option<AtomicOp>)>,
    pc: usize,
) -> IResult<Value> {
    let (mem, elem) = if global {
        (&mut env.global[buf], env.global_elems[buf])
    } else {
        (&mut env.shared[buf], env.shared_elems[buf])
    };
    if idx >= mem.len() as u64 {
        return Err(InterpError::OutOfBounds {
            what: format!("{} buffer {buf}", if global { "global" } else { "shared" }),
            idx,
            len: mem.len() as u64,
            pc,
        });
    }
    let cell = &mut mem[idx as usize];
    let old = Value::from_bits(*cell, elem);
    let mut atomic = false;
    if let Some((v, rmw)) = write {
        let new = match rmw {
            Some(op) => {
                atomic = true;
                apply_atomic(op, old, v).map_err(InterpError::Eval)?
            }
            None => v,
        };
        *cell = new.to_elem_bits(elem).map_err(InterpError::Eval)?;
    }
    env.log.push(AccessRec {
        pc: pc as u32,
        global,
        buf: buf as u32,
        idx,
        write: write.is_some(),
        atomic,
        tid: env.tid,
    });
    Ok(old)
}

/// Runs one thread until its next barrier or completion.
///
/// # Errors
///
/// Propagates out-of-bounds accesses and dynamic type errors.
pub fn run_thread(
    prog: &Program,
    st: &mut ThreadState,
    env: &mut ThreadEnv<'_>,
) -> IResult<ThreadStop> {
    loop {
        let pc = st.pc;
        // A store converts its index before its value is evaluated; both
        // precede the bounds check.
        let store = |st: &ThreadState, env: &mut ThreadEnv<'_>, global, buf, idx, value, rmw| {
            let i = operand(prog, idx, st, env, pc)?
                .as_index()
                .map_err(InterpError::Eval)?;
            let v = operand(prog, value, st, env, pc)?;
            access(env, global, buf, i, Some((v, rmw)), pc).map(|_| pc + 1)
        };
        let next = match prog.code[pc] {
            Instr::SetLocal { dst, value } => {
                st.locals[dst] = operand(prog, value, st, env, pc)?;
                pc + 1
            }
            Instr::StoreGlobal { buf, idx, value } => store(st, env, true, buf, idx, value, None)?,
            Instr::StoreShared { buf, idx, value } => store(st, env, false, buf, idx, value, None)?,
            Instr::AtomicGlobal {
                op,
                buf,
                idx,
                value,
            } => store(st, env, true, buf, idx, value, Some(op))?,
            Instr::AtomicShared {
                op,
                buf,
                idx,
                value,
            } => store(st, env, false, buf, idx, value, Some(op))?,
            Instr::JumpIfFalse { cond, target } => {
                let c = operand(prog, cond, st, env, pc)?
                    .truthy()
                    .map_err(InterpError::Eval)?;
                if c {
                    pc + 1
                } else {
                    target
                }
            }
            Instr::Jump(target) => target,
            Instr::Shfl { value, .. } => {
                st.pending_shfl = Some(operand(prog, value, st, env, pc)?);
                st.instr_count += prog.weights[pc];
                st.pc = pc + 1;
                return Ok(ThreadStop::Shfl(pc));
            }
            Instr::Barrier => {
                st.instr_count += prog.weights[pc];
                st.pc = pc + 1;
                return Ok(ThreadStop::Barrier(pc));
            }
            Instr::Halt => {
                st.done = true;
                return Ok(ThreadStop::Done);
            }
        };
        st.instr_count += prog.weights[pc];
        st.pc = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ParamDecl, SharedDecl};

    /// The memory one test thread runs against: global buffers and shared
    /// allocations (bit patterns) with their element types, and the log.
    struct Mem {
        global: Vec<Vec<u64>>,
        elems: Vec<ElemTy>,
        shared: Vec<Vec<u64>>,
        shared_elems: Vec<ElemTy>,
        log: Vec<AccessRec>,
    }

    impl Mem {
        /// Zeroed buffers of the given element types and lengths.
        fn new(global: &[(ElemTy, usize)], shared: &[(ElemTy, usize)]) -> Mem {
            Mem {
                global: global.iter().map(|(_, n)| vec![0; *n]).collect(),
                elems: global.iter().map(|(e, _)| *e).collect(),
                shared: shared.iter().map(|(_, n)| vec![0; *n]).collect(),
                shared_elems: shared.iter().map(|(e, _)| *e).collect(),
                log: Vec::new(),
            }
        }

        /// Builds `body` as a kernel over this memory.
        fn program(&self, body: Vec<Stmt>) -> Program {
            Program::build(&KernelIr {
                name: "t".into(),
                params: self
                    .global
                    .iter()
                    .zip(&self.elems)
                    .map(|(b, &elem)| ParamDecl {
                        elem,
                        len: b.len() as u64,
                        writable: true,
                    })
                    .collect(),
                shared: self
                    .shared
                    .iter()
                    .zip(&self.shared_elems)
                    .map(|(b, &elem)| SharedDecl {
                        elem,
                        len: b.len() as u64,
                    })
                    .collect(),
                body,
            })
            .unwrap()
        }

        /// Runs thread `tid` of a 32-thread block to its next stop.
        fn run(&mut self, prog: &Program, tid: u64, st: &mut ThreadState) -> IResult<ThreadStop> {
            let mut temps = vec![Value::I(0); prog.temp_count];
            let mut env = ThreadEnv {
                thread: [tid, 0, 0],
                block: [0, 0, 0],
                block_dim: [32, 1, 1],
                grid_dim: [1, 1, 1],
                tid: tid as u32,
                global: &mut self.global,
                global_elems: &self.elems,
                shared: &mut self.shared,
                shared_elems: &self.shared_elems,
                log: &mut self.log,
                temps: &mut temps,
            };
            run_thread(prog, st, &mut env)
        }
    }

    #[test]
    fn straight_line_store() {
        let mut mem = Mem::new(&[(ElemTy::F64, 32)], &[]);
        let prog = mem.program(vec![Stmt::StoreGlobal {
            buf: 0,
            idx: Expr::thread_idx(Axis::X),
            value: Expr::LitF(7.0),
        }]);
        let stop = mem.run(&prog, 3, &mut ThreadState::new(0)).unwrap();
        assert_eq!(stop, ThreadStop::Done);
        assert_eq!(f64::from_bits(mem.global[0][3]), 7.0);
        assert_eq!(mem.log.len(), 1);
        assert!(mem.log[0].write);
    }

    #[test]
    fn loop_sums() {
        // local1 = 0; for local0 in 0..10 { local1 += local0 } store local1.
        let mut mem = Mem::new(&[(ElemTy::I32, 1)], &[]);
        let prog = mem.program(vec![
            Stmt::SetLocal(1, Expr::LitI(0)),
            Stmt::Loop {
                var: 0,
                init: Expr::LitI(0),
                cmp: LoopCmp::Lt,
                bound: Expr::LitI(10),
                step: LoopStep::Add(1),
                body: vec![Stmt::SetLocal(1, Expr::add(Expr::Local(1), Expr::Local(0)))],
            },
            Stmt::StoreGlobal {
                buf: 0,
                idx: Expr::LitI(0),
                value: Expr::Local(1),
            },
        ]);
        mem.run(&prog, 0, &mut ThreadState::new(2)).unwrap();
        assert_eq!(mem.global[0][0] as i64, 45);
    }

    #[test]
    fn halving_loop() {
        // count iterations of k = 8; k >= 1; k /= 2.
        let mut mem = Mem::new(&[(ElemTy::I32, 1)], &[]);
        let prog = mem.program(vec![
            Stmt::SetLocal(1, Expr::LitI(0)),
            Stmt::Loop {
                var: 0,
                init: Expr::LitI(8),
                cmp: LoopCmp::Ge,
                bound: Expr::LitI(1),
                step: LoopStep::Div(2),
                body: vec![Stmt::SetLocal(1, Expr::add(Expr::Local(1), Expr::LitI(1)))],
            },
            Stmt::StoreGlobal {
                buf: 0,
                idx: Expr::LitI(0),
                value: Expr::Local(1),
            },
        ]);
        mem.run(&prog, 0, &mut ThreadState::new(2)).unwrap();
        assert_eq!(mem.global[0][0] as i64, 4); // 8, 4, 2, 1
    }

    #[test]
    fn if_else_branches() {
        let mut mem = Mem::new(&[(ElemTy::F64, 32)], &[]);
        let prog = mem.program(vec![Stmt::If {
            cond: Expr::lt(Expr::thread_idx(Axis::X), Expr::LitI(16)),
            then_s: vec![Stmt::StoreGlobal {
                buf: 0,
                idx: Expr::thread_idx(Axis::X),
                value: Expr::LitF(1.0),
            }],
            else_s: vec![Stmt::StoreGlobal {
                buf: 0,
                idx: Expr::thread_idx(Axis::X),
                value: Expr::LitF(2.0),
            }],
        }]);
        for t in [3u64, 20u64] {
            mem.run(&prog, t, &mut ThreadState::new(0)).unwrap();
        }
        assert_eq!(f64::from_bits(mem.global[0][3]), 1.0);
        assert_eq!(f64::from_bits(mem.global[0][20]), 2.0);
    }

    #[test]
    fn barrier_suspends_and_resumes() {
        let mut mem = Mem::new(&[(ElemTy::I32, 1)], &[]);
        let prog = mem.program(vec![
            Stmt::SetLocal(0, Expr::LitI(1)),
            Stmt::Barrier,
            Stmt::StoreGlobal {
                buf: 0,
                idx: Expr::LitI(0),
                value: Expr::Local(0),
            },
        ]);
        let mut st = ThreadState::new(1);
        let stop = mem.run(&prog, 0, &mut st).unwrap();
        assert!(matches!(stop, ThreadStop::Barrier(_)));
        assert!(!st.done);
        let stop = mem.run(&prog, 0, &mut st).unwrap();
        assert_eq!(stop, ThreadStop::Done);
        assert_eq!(mem.global[0][0] as i64, 1);
    }

    #[test]
    fn atomic_add_accumulates_across_threads() {
        // 32 threads atomically add tid+1 into cell 0: total 528.
        let mut mem = Mem::new(&[(ElemTy::I32, 1)], &[]);
        let prog = mem.program(vec![Stmt::AtomicGlobal {
            op: AtomicOp::Add,
            buf: 0,
            idx: Expr::LitI(0),
            value: Expr::add(Expr::thread_idx(Axis::X), Expr::LitI(1)),
        }]);
        for t in 0..32u64 {
            mem.run(&prog, t, &mut ThreadState::new(0)).unwrap();
        }
        assert_eq!(mem.global[0][0] as i64, (1..=32).sum::<i64>());
        assert_eq!(mem.log.len(), 32);
        assert!(mem.log.iter().all(|a| a.atomic && a.write));
    }

    #[test]
    fn atomic_min_max_exchange_semantics() {
        let mut mem = Mem::new(&[], &[(ElemTy::I32, 3)]);
        let prog = mem.program(vec![
            Stmt::AtomicShared {
                op: AtomicOp::Min,
                buf: 0,
                idx: Expr::LitI(0),
                value: Expr::thread_idx(Axis::X),
            },
            Stmt::AtomicShared {
                op: AtomicOp::Max,
                buf: 0,
                idx: Expr::LitI(1),
                value: Expr::thread_idx(Axis::X),
            },
            Stmt::AtomicShared {
                op: AtomicOp::Exch,
                buf: 0,
                idx: Expr::LitI(2),
                value: Expr::thread_idx(Axis::X),
            },
        ]);
        mem.shared[0][0] = 1000; // min starts high
        for t in [5u64, 3, 9] {
            mem.run(&prog, t, &mut ThreadState::new(0)).unwrap();
        }
        assert_eq!(mem.shared[0][0] as i64, 3, "min of 5, 3, 9");
        assert_eq!(mem.shared[0][1] as i64, 9, "max of 5, 3, 9");
        assert_eq!(mem.shared[0][2] as i64, 9, "exchange keeps the last");
    }

    #[test]
    fn u32_buffer_wraps_on_store() {
        let mut mem = Mem::new(&[(ElemTy::U32, 1)], &[]);
        let prog = mem.program(vec![Stmt::StoreGlobal {
            buf: 0,
            idx: Expr::LitI(0),
            value: Expr::LitI(-1),
        }]);
        mem.run(&prog, 0, &mut ThreadState::new(0)).unwrap();
        assert_eq!(mem.global[0][0], u64::from(u32::MAX));
        assert_eq!(
            Value::from_bits(mem.global[0][0], ElemTy::U32),
            Value::I(i64::from(u32::MAX))
        );
    }

    #[test]
    fn atomic_out_of_bounds_reported() {
        let mut mem = Mem::new(&[(ElemTy::I32, 4)], &[]);
        let prog = mem.program(vec![Stmt::AtomicGlobal {
            op: AtomicOp::Add,
            buf: 0,
            idx: Expr::LitI(64),
            value: Expr::LitI(1),
        }]);
        let err = mem.run(&prog, 0, &mut ThreadState::new(0)).unwrap_err();
        assert!(matches!(err, InterpError::OutOfBounds { idx: 64, .. }));
    }

    #[test]
    fn out_of_bounds_reported() {
        let mut mem = Mem::new(&[(ElemTy::F64, 4)], &[]);
        let prog = mem.program(vec![Stmt::StoreGlobal {
            buf: 0,
            idx: Expr::LitI(99),
            value: Expr::LitF(0.0),
        }]);
        let err = mem.run(&prog, 0, &mut ThreadState::new(0)).unwrap_err();
        assert!(matches!(
            err,
            InterpError::OutOfBounds {
                idx: 99,
                len: 4,
                ..
            }
        ));
    }

    #[test]
    fn division_by_zero_reported() {
        let mut mem = Mem::new(&[], &[]);
        let prog = mem.program(vec![Stmt::SetLocal(
            0,
            Expr::bin(BinOp::Div, Expr::LitI(1), Expr::LitI(0)),
        )]);
        assert!(mem.run(&prog, 0, &mut ThreadState::new(1)).is_err());
    }
}
