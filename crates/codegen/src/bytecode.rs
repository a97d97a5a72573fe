//! The kernel bytecode and the body compiler.
//!
//! A loop-nest body ([`Instr`] list) is lowered once per (nest, PE-layout)
//! into a flat [`Op`] sequence:
//!
//! - array offsets become precomputed flat-index deltas (like the
//!   interpreter, but resolved to a dense array-slot table);
//! - literal constants and scalar coefficients are constant-folded: an
//!   operation whose operands are all known folds away entirely, and an
//!   operation with one known operand becomes an immediate form
//!   (`BinImm*`/`CmpImm*`) that skips a register read;
//! - single-definition constants are hoisted out of the per-point code into
//!   a *preload* list applied once per nest execution;
//! - `Select` feeding a `Store` fuses into a predicated store
//!   ([`Op::SelStore`]) — the WHERE-mask lowering executes without
//!   materializing the selected value in a register;
//! - multiply-then-accumulate pairs fuse into `MulAcc*` ops that keep the
//!   two roundings (no FMA), so results stay bitwise identical to the
//!   interpreter;
//! - a body whose every store writes a *tap chain* — loads combined by
//!   adds and constant-coefficient mul-adds, optionally scaled — becomes one
//!   [`Op::TapSum`] per store, with its taps in the kernel's side table
//!   ([`KernelCode::sums`]). That is the shape every offset-array stencil
//!   statement takes (Problem 9, Jacobi, the `U = T` copy), and the VM runs
//!   it over whole rows with loops specialized on the tap count.
//!
//! Every rewrite preserves the interpreter's evaluation order and rounding
//! exactly; the differential proptests in the workspace root enforce this.

use hpf_ir::expr::CmpOp;
use hpf_ir::BinOp;
use hpf_passes::loopir::Instr;
use std::collections::HashMap;

/// Register index in the VM's register file.
pub type Reg = u16;
/// Dense index into a compiled nest's array-slot table.
pub type Slot = u16;

/// One bytecode operation. Memory operands are flat-index deltas added to
/// the current point's base index; register and slot indices are validated
/// at compile time so the VM may index unchecked.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)] // the per-variant doc comments give each field's role
pub enum Op {
    /// `r[dst] = v` (a constant that could not be hoisted to a preload).
    Const { dst: Reg, v: f64 },
    /// `r[dst] = arr[base + delta]`
    Load { dst: Reg, arr: Slot, delta: i32 },
    /// `arr[base + delta] = r[src]`
    Store { arr: Slot, delta: i32, src: Reg },
    /// `r[dst] = r[a] op r[b]`
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `r[dst] = r[a] op v`
    BinImmR { op: BinOp, dst: Reg, a: Reg, v: f64 },
    /// `r[dst] = v op r[b]`
    BinImmL { op: BinOp, dst: Reg, v: f64, b: Reg },
    /// `r[dst] = r[acc] + r[a] * r[b]` (mul and add rounded separately).
    MulAcc { dst: Reg, acc: Reg, a: Reg, b: Reg },
    /// `r[dst] = r[acc] + v * r[b]`
    MulAccImmL { dst: Reg, acc: Reg, v: f64, b: Reg },
    /// `r[dst] = r[acc] + r[a] * v`
    MulAccImmR { dst: Reg, acc: Reg, a: Reg, v: f64 },
    /// `r[dst] = -r[src]`
    Neg { dst: Reg, src: Reg },
    /// `r[dst] = r[src]`
    Copy { dst: Reg, src: Reg },
    /// `r[dst] = r[a] cmp r[b] ? 1.0 : 0.0`
    Cmp { op: CmpOp, dst: Reg, a: Reg, b: Reg },
    /// `r[dst] = r[a] cmp v ? 1.0 : 0.0`
    CmpImmR { op: CmpOp, dst: Reg, a: Reg, v: f64 },
    /// `r[dst] = v cmp r[b] ? 1.0 : 0.0`
    CmpImmL { op: CmpOp, dst: Reg, v: f64, b: Reg },
    /// `r[dst] = r[c] != 0 ? r[t] : r[e]`
    Select { dst: Reg, c: Reg, t: Reg, e: Reg },
    /// `arr[base + delta] = r[c] != 0 ? r[t] : r[e]` — the predicated store
    /// a WHERE-masked assignment compiles to.
    SelStore { arr: Slot, delta: i32, c: Reg, t: Reg, e: Reg },
    /// `sums[id]` of the kernel's side table: a fused weighted tap sum,
    /// computed from memory and stored to memory. Reads and writes no
    /// register.
    TapSum { id: u16 },
}

/// One term of a [`TapSum`]: `coef · arr[base + delta]`, or just the load
/// when `coef` is `None`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tap {
    /// Array slot the tap reads.
    pub arr: Slot,
    /// Flat-index delta from the point's base index.
    pub delta: i32,
    /// Constant coefficient, multiplied (separately rounded) before the add.
    pub coef: Option<f64>,
}

/// A fused tap sum: `arr[base + delta] = [scale ·] ((t₀ + t₁) + …) + tₙ₋₁`.
/// Evaluation is strictly left to right, with every multiply and add
/// rounded on its own (never FMA) — the association of the source chain,
/// so results stay bitwise identical to the interpreter.
#[derive(Clone, Debug, PartialEq)]
pub struct TapSum {
    /// Array slot the sum is stored to.
    pub arr: Slot,
    /// Flat-index delta of the store.
    pub delta: i32,
    /// Terms in evaluation order (the first one initializes the sum).
    pub taps: Vec<Tap>,
    /// Constant the finished sum is multiplied by.
    pub scale: Option<f64>,
}

/// A compiled body: the op sequence plus everything the VM hoists out of
/// the per-point loop.
#[derive(Clone, Debug, Default)]
pub struct KernelCode {
    /// Per-point operations.
    pub ops: Vec<Op>,
    /// Most negative flat-index delta any memory op applies.
    pub min_delta: i64,
    /// Most positive flat-index delta any memory op applies.
    pub max_delta: i64,
    /// Loads per point of the *source* body (counter accounting matches the
    /// interpreter even when folding removed ops).
    pub loads: u64,
    /// Stores per point of the source body.
    pub stores: u64,
    /// Flops per point of the source body (`Bin` + `Neg`, the interpreter's
    /// counting rule).
    pub flops: u64,
    /// Side table of the body's [`Op::TapSum`] ops, in op order.
    pub sums: Vec<TapSum>,
    /// Fused rows: when positive, every op is a [`Op::TapSum`] and a row runs
    /// op-at-a-time over chunks of up to `span` points — the largest chunk in
    /// which no store can meet another point's memory operand. 0 = the body
    /// runs through the register executors.
    pub span: i64,
}

/// Shared state while compiling the bodies of one nest: the dense array
/// table and the constant preloads, merged across the jammed and unit body.
#[derive(Debug, Default)]
pub struct BodyCx {
    /// Slot table: `arrays[slot]` is the `ArrayId` raw index.
    pub arrays: Vec<u32>,
    slot_of: HashMap<u32, Slot>,
    /// `(reg, value)` pairs written once per nest execution.
    pub preloads: Vec<(Reg, f64)>,
    /// Highest register index used (preloads included), for sizing the file.
    pub max_reg: usize,
}

impl BodyCx {
    /// Context whose register file is at least `regs` wide (strict mode
    /// sizes the file like the interpreter even if some registers never
    /// appear in the emitted ops).
    pub fn with_min_regs(regs: usize) -> BodyCx {
        BodyCx { max_reg: regs.saturating_sub(1), ..Default::default() }
    }

    fn slot(&mut self, array: u32) -> Option<Slot> {
        if let Some(&s) = self.slot_of.get(&array) {
            return Some(s);
        }
        let s = Slot::try_from(self.arrays.len()).ok()?;
        self.arrays.push(array);
        self.slot_of.insert(array, s);
        Some(s)
    }

    fn touch(&mut self, r: Reg) -> Reg {
        self.max_reg = self.max_reg.max(r as usize);
        r
    }
}

/// Does the body read any register before defining it? Such a body observes
/// register state left over from previous iteration points (or the other
/// body sharing the file), so the compiler falls back to a strict
/// translation with no hoisting.
pub fn reads_before_def(body: &[Instr]) -> bool {
    let mut defined = std::collections::HashSet::new();
    for i in body {
        if i.sources().iter().any(|s| !defined.contains(s)) {
            return true;
        }
        if let Some(d) = i.dst() {
            defined.insert(d);
        }
    }
    false
}

/// Per-register single-def / first-read facts used to decide preloading.
struct RegFacts {
    defs: HashMap<Reg, usize>,
    first_read: HashMap<Reg, usize>,
}

impl RegFacts {
    fn of(body: &[Instr]) -> RegFacts {
        let mut defs: HashMap<Reg, usize> = HashMap::new();
        let mut first_read = HashMap::new();
        for (p, i) in body.iter().enumerate() {
            for s in i.sources() {
                first_read.entry(s).or_insert(p);
            }
            if let Some(d) = i.dst() {
                *defs.entry(d).or_insert(0) += 1;
            }
        }
        RegFacts { defs, first_read }
    }

    /// A constant defined at `pos` may move to the preload list iff it is
    /// the register's only definition and nothing reads the register at or
    /// before `pos` — then every iteration point (including the first, where
    /// the interpreter's register file still holds zeros) observes the same
    /// value the interpreter would.
    fn hoistable(&self, r: Reg, pos: usize) -> bool {
        self.defs.get(&r) == Some(&1) && self.first_read.get(&r).is_none_or(|&fr| fr > pos)
    }
}

/// Compile one body. `reg_base` shifts every register index (the unit body
/// gets a disjoint register range so its preloads cannot clash with the
/// jammed body's); `strict` disables hoisting and fusion and must be set
/// when either body reads registers it did not define.
///
/// Returns `None` when the body exceeds the bytecode's index ranges
/// (callers fall back to the interpreter).
pub fn compile_body(
    body: &[Instr],
    strides: &[usize],
    scalars: &[f64],
    reg_base: usize,
    strict: bool,
    cx: &mut BodyCx,
) -> Option<KernelCode> {
    let facts = RegFacts::of(body);
    // Flow-sensitive known-constant values per register.
    let mut konst: HashMap<Reg, f64> = HashMap::new();
    let mut ops: Vec<Op> = Vec::with_capacity(body.len());

    let rb = |r: Reg| -> Option<Reg> { Reg::try_from(r as usize + reg_base).ok() };
    let delta = |offsets: &[i64]| -> Option<i32> {
        let d: i64 = offsets.iter().zip(strides).map(|(&o, &s)| o * s as i64).sum();
        i32::try_from(d).ok()
    };

    for (pos, instr) in body.iter().enumerate() {
        // A definition whose value is known at compile time: hoist it to a
        // preload when legal, otherwise keep an inline Const. Either way the
        // register *does* hold the value at run time, so later ops may keep
        // referencing it.
        let const_def = |dst: Reg,
                         v: f64,
                         konst: &mut HashMap<Reg, f64>,
                         ops: &mut Vec<Op>,
                         cx: &mut BodyCx|
         -> Option<()> {
            konst.insert(dst, v);
            let d = cx.touch(rb(dst)?);
            if !strict && facts.hoistable(dst, pos) {
                cx.preloads.push((d, v));
            } else {
                ops.push(Op::Const { dst: d, v });
            }
            Some(())
        };

        match instr {
            Instr::Const { dst, value } => const_def(*dst, *value, &mut konst, &mut ops, cx)?,
            Instr::LoadScalar { dst, id } => {
                const_def(*dst, scalars[id.0 as usize], &mut konst, &mut ops, cx)?
            }
            Instr::Load { dst, array, offsets } => {
                konst.remove(dst);
                let d = cx.touch(rb(*dst)?);
                ops.push(Op::Load { dst: d, arr: cx.slot(array.0)?, delta: delta(offsets)? });
            }
            Instr::Store { array, offsets, src } => {
                let s = cx.touch(rb(*src)?);
                ops.push(Op::Store { arr: cx.slot(array.0)?, delta: delta(offsets)?, src: s });
            }
            Instr::Bin { op, dst, a, b } => match (konst.get(a).copied(), konst.get(b).copied()) {
                (Some(x), Some(y)) => const_def(*dst, op.apply(x, y), &mut konst, &mut ops, cx)?,
                (Some(x), None) => {
                    konst.remove(dst);
                    let (d, rb_) = (cx.touch(rb(*dst)?), cx.touch(rb(*b)?));
                    ops.push(Op::BinImmL { op: *op, dst: d, v: x, b: rb_ });
                }
                (None, Some(y)) => {
                    konst.remove(dst);
                    let (d, ra) = (cx.touch(rb(*dst)?), cx.touch(rb(*a)?));
                    ops.push(Op::BinImmR { op: *op, dst: d, a: ra, v: y });
                }
                (None, None) => {
                    konst.remove(dst);
                    let (d, ra, rb_) = (cx.touch(rb(*dst)?), cx.touch(rb(*a)?), cx.touch(rb(*b)?));
                    ops.push(Op::Bin { op: *op, dst: d, a: ra, b: rb_ });
                }
            },
            Instr::Neg { dst, src } => match konst.get(src).copied() {
                Some(x) => const_def(*dst, -x, &mut konst, &mut ops, cx)?,
                None => {
                    konst.remove(dst);
                    let (d, s) = (cx.touch(rb(*dst)?), cx.touch(rb(*src)?));
                    ops.push(Op::Neg { dst: d, src: s });
                }
            },
            Instr::Copy { dst, src } => match konst.get(src).copied() {
                Some(x) => const_def(*dst, x, &mut konst, &mut ops, cx)?,
                None => {
                    konst.remove(dst);
                    let (d, s) = (cx.touch(rb(*dst)?), cx.touch(rb(*src)?));
                    ops.push(Op::Copy { dst: d, src: s });
                }
            },
            Instr::Cmp { op, dst, a, b } => match (konst.get(a).copied(), konst.get(b).copied()) {
                (Some(x), Some(y)) => const_def(*dst, op.apply(x, y), &mut konst, &mut ops, cx)?,
                (Some(x), None) => {
                    konst.remove(dst);
                    let (d, rb_) = (cx.touch(rb(*dst)?), cx.touch(rb(*b)?));
                    ops.push(Op::CmpImmL { op: *op, dst: d, v: x, b: rb_ });
                }
                (None, Some(y)) => {
                    konst.remove(dst);
                    let (d, ra) = (cx.touch(rb(*dst)?), cx.touch(rb(*a)?));
                    ops.push(Op::CmpImmR { op: *op, dst: d, a: ra, v: y });
                }
                (None, None) => {
                    konst.remove(dst);
                    let (d, ra, rb_) = (cx.touch(rb(*dst)?), cx.touch(rb(*a)?), cx.touch(rb(*b)?));
                    ops.push(Op::Cmp { op: *op, dst: d, a: ra, b: rb_ });
                }
            },
            Instr::Select { dst, c, t, e } => match konst.get(c).copied() {
                // Mask known at compile time: the select is a copy of the
                // chosen side.
                Some(cv) => {
                    let chosen = if cv != 0.0 { *t } else { *e };
                    match konst.get(&chosen).copied() {
                        Some(x) => const_def(*dst, x, &mut konst, &mut ops, cx)?,
                        None => {
                            konst.remove(dst);
                            let (d, s) = (cx.touch(rb(*dst)?), cx.touch(rb(chosen)?));
                            ops.push(Op::Copy { dst: d, src: s });
                        }
                    }
                }
                None => {
                    konst.remove(dst);
                    let (d, rc, rt, re) = (
                        cx.touch(rb(*dst)?),
                        cx.touch(rb(*c)?),
                        cx.touch(rb(*t)?),
                        cx.touch(rb(*e)?),
                    );
                    ops.push(Op::Select { dst: d, c: rc, t: rt, e: re });
                }
            },
        }
    }

    let mut sums = Vec::new();
    if !strict {
        match fuse_taps(&ops) {
            Some((fused, table)) => (ops, sums) = (fused, table),
            None => ops = fuse(ops),
        }
    }

    let (mut min_delta, mut max_delta) = (0i64, 0i64);
    let mut cover = |d: i32| {
        min_delta = min_delta.min(d as i64);
        max_delta = max_delta.max(d as i64);
    };
    for op in &ops {
        match op {
            Op::Load { delta, .. } | Op::Store { delta, .. } | Op::SelStore { delta, .. } => {
                cover(*delta)
            }
            Op::TapSum { id } => {
                let ts = &sums[*id as usize];
                ts.taps.iter().for_each(|t| cover(t.delta));
                cover(ts.delta);
            }
            _ => {}
        }
    }
    let loads = body.iter().filter(|i| matches!(i, Instr::Load { .. })).count() as u64;
    let stores = body.iter().filter(|i| matches!(i, Instr::Store { .. })).count() as u64;
    let flops =
        body.iter().filter(|i| matches!(i, Instr::Bin { .. } | Instr::Neg { .. })).count() as u64;
    Some(KernelCode { ops, min_delta, max_delta, loads, stores, flops, sums, span: 0 })
}

/// Rewrite a body into fused [`Op::TapSum`] ops, one per store, when every
/// store writes a tap chain: loads combined by `+` (either operand order:
/// IEEE addition is commutative), constant multiples of single loads as
/// weighted taps, and at most one constant scale applied to the finished
/// sum. All-or-nothing: any other op, or a store of anything else, keeps the
/// body as it is (`None`).
///
/// Fusing drops every register write and *reloads* loads that several
/// statements share. Both are sound only because (1) the caller compiles in
/// fast mode, so no register is live across points, and (2) no tap reads an
/// array the body stores: distinct slots are distinct allocations, so every
/// reload sees exactly the value the shared load saw, whatever the body
/// stored in between. A body failing (2) is left unfused.
fn fuse_taps(ops: &[Op]) -> Option<(Vec<Op>, Vec<TapSum>)> {
    struct Chain {
        taps: Vec<Tap>,
        scale: Option<f64>,
    }
    // A chain that can be added as one more term: a single (possibly
    // weighted) unscaled tap.
    fn term(c: &Chain) -> Option<Tap> {
        (c.scale.is_none() && c.taps.len() == 1).then(|| c.taps[0])
    }
    fn extend(c: &Chain, t: Tap) -> Option<Chain> {
        c.scale.is_none().then(|| Chain { taps: [&c.taps[..], &[t]].concat(), scale: None })
    }
    let mut val: HashMap<Reg, Chain> = HashMap::new();
    let mut sums = Vec::new();
    for op in ops {
        let (dst, chain) = match *op {
            Op::Load { dst, arr, delta } => {
                (dst, Chain { taps: vec![Tap { arr, delta, coef: None }], scale: None })
            }
            Op::Copy { dst, src } => {
                let c = val.get(&src)?;
                (dst, Chain { taps: c.taps.clone(), scale: c.scale })
            }
            Op::Bin { op: BinOp::Add, dst, a, b } => {
                let (ca, cb) = (val.get(&a)?, val.get(&b)?);
                let c = match (term(cb), term(ca)) {
                    (Some(t), _) if ca.scale.is_none() => extend(ca, t),
                    (_, Some(t)) => extend(cb, t),
                    _ => None,
                };
                (dst, c?)
            }
            Op::BinImmL { op: BinOp::Mul, dst, v, b: x }
            | Op::BinImmR { op: BinOp::Mul, dst, a: x, v } => {
                let c = val.get(&x)?;
                if c.scale.is_some() {
                    return None;
                }
                match term(c) {
                    Some(t) if t.coef.is_none() => {
                        (dst, Chain { taps: vec![Tap { coef: Some(v), ..t }], scale: None })
                    }
                    _ => (dst, Chain { taps: c.taps.clone(), scale: Some(v) }),
                }
            }
            Op::Store { arr, delta, src } => {
                let c = val.get(&src)?;
                sums.push(TapSum { arr, delta, taps: c.taps.clone(), scale: c.scale });
                continue;
            }
            _ => return None,
        };
        val.insert(dst, chain);
    }
    let stored = |a: Slot| sums.iter().any(|s| s.arr == a);
    if sums.is_empty() || sums.iter().flat_map(|s| &s.taps).any(|t| stored(t.arr)) {
        return None;
    }
    let fused = (0..sums.len())
        .map(|id| u16::try_from(id).ok().map(|id| Op::TapSum { id }))
        .collect::<Option<Vec<_>>>()?;
    Some((fused, sums))
}

/// Is `r` read by any op in `ops`?
fn reads(ops: &[Op], r: Reg) -> bool {
    ops.iter().any(|op| match *op {
        Op::Const { .. } | Op::Load { .. } => false,
        Op::Store { src, .. } => src == r,
        Op::Bin { a, b, .. } | Op::Cmp { a, b, .. } | Op::MulAcc { a, b, .. } => a == r || b == r,
        Op::BinImmR { a, .. } | Op::CmpImmR { a, .. } => a == r,
        Op::BinImmL { b, .. } | Op::CmpImmL { b, .. } => b == r,
        Op::MulAccImmL { acc, b, .. } => acc == r || b == r,
        Op::MulAccImmR { acc, a, .. } => acc == r || a == r,
        Op::Neg { src, .. } | Op::Copy { src, .. } => src == r,
        Op::Select { c, t, e, .. } | Op::SelStore { c, t, e, .. } => c == r || t == r || e == r,
        Op::TapSum { .. } => false,
    })
}

/// Adjacent-pair peephole fusion. The intermediate register's write is
/// dropped, which is only legal because the caller established that no body
/// reads a register it did not define first (so a dead write can never be
/// observed by a later iteration point).
fn fuse(ops: Vec<Op>) -> Vec<Op> {
    let mut out: Vec<Op> = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        if i + 1 < ops.len() {
            let rest = &ops[i + 2..];
            // `t = a*b ; d = acc + t` => `d = acc + a*b` (two roundings kept).
            if let Op::Bin { op: BinOp::Add, dst, a: acc, b: t2 } = ops[i + 1] {
                let dead = |t: Reg| t2 == t && acc != t && !reads(rest, t);
                match ops[i] {
                    Op::Bin { op: BinOp::Mul, dst: t, a, b } if dead(t) => {
                        out.push(Op::MulAcc { dst, acc, a, b });
                        i += 2;
                        continue;
                    }
                    Op::BinImmL { op: BinOp::Mul, dst: t, v, b } if dead(t) => {
                        out.push(Op::MulAccImmL { dst, acc, v, b });
                        i += 2;
                        continue;
                    }
                    Op::BinImmR { op: BinOp::Mul, dst: t, a, v } if dead(t) => {
                        out.push(Op::MulAccImmR { dst, acc, a, v });
                        i += 2;
                        continue;
                    }
                    _ => {}
                }
            }
            // `d = select(c, t, e) ; arr[..] = d` => predicated store.
            if let (Op::Select { dst, c, t, e }, Op::Store { arr, delta, src }) =
                (ops[i], ops[i + 1])
            {
                if src == dst && !reads(rest, dst) {
                    out.push(Op::SelStore { arr, delta, c, t, e });
                    i += 2;
                    continue;
                }
            }
        }
        out.push(ops[i]);
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::ArrayId;

    const A: ArrayId = ArrayId(0);

    #[test]
    fn constants_hoist_to_preloads() {
        // r0 = 2.5 (single def, read later): preloaded, not re-written per point.
        let body = vec![
            Instr::Const { dst: 0, value: 2.5 },
            Instr::Load { dst: 1, array: A, offsets: vec![0, 0] },
            Instr::Bin { op: BinOp::Mul, dst: 2, a: 0, b: 1 },
            Instr::Store { array: A, offsets: vec![0, 0], src: 2 },
        ];
        let mut cx = BodyCx::default();
        let k = compile_body(&body, &[10, 1], &[], 0, false, &mut cx).unwrap();
        assert_eq!(cx.preloads, vec![(0, 2.5)]);
        // Mul folds to an immediate form: 2.5 * r1.
        assert!(k
            .ops
            .iter()
            .any(|o| matches!(o, Op::BinImmL { op: BinOp::Mul, v, .. } if *v == 2.5)));
        assert!(!k.ops.iter().any(|o| matches!(o, Op::Const { .. })));
    }

    #[test]
    fn both_const_operands_fold_away() {
        let body = vec![
            Instr::Const { dst: 0, value: 2.0 },
            Instr::Const { dst: 1, value: 3.0 },
            Instr::Bin { op: BinOp::Mul, dst: 2, a: 0, b: 1 },
            Instr::Store { array: A, offsets: vec![0], src: 2 },
        ];
        let mut cx = BodyCx::default();
        let k = compile_body(&body, &[1], &[], 0, false, &mut cx).unwrap();
        // Everything hoists: the per-point code is a single store.
        assert_eq!(k.ops.len(), 1);
        assert!(matches!(k.ops[0], Op::Store { .. }));
        assert!(cx.preloads.contains(&(2, 6.0)));
    }

    #[test]
    fn select_store_fuses_to_predicated_store() {
        let body = vec![
            Instr::Load { dst: 0, array: A, offsets: vec![0] },
            Instr::Cmp { op: CmpOp::Gt, dst: 1, a: 0, b: 0 },
            Instr::Select { dst: 2, c: 1, t: 0, e: 0 },
            Instr::Store { array: A, offsets: vec![0], src: 2 },
        ];
        let mut cx = BodyCx::default();
        let k = compile_body(&body, &[1], &[], 0, false, &mut cx).unwrap();
        assert!(k.ops.iter().any(|o| matches!(o, Op::SelStore { .. })));
        assert!(!k.ops.iter().any(|o| matches!(o, Op::Select { .. } | Op::Store { .. })));
    }

    #[test]
    fn mul_add_fuses_without_fma() {
        let body = vec![
            Instr::Load { dst: 0, array: A, offsets: vec![0] },
            Instr::Load { dst: 1, array: A, offsets: vec![1] },
            Instr::Bin { op: BinOp::Mul, dst: 2, a: 0, b: 1 },
            Instr::Bin { op: BinOp::Add, dst: 3, a: 0, b: 2 },
            Instr::Store { array: A, offsets: vec![0], src: 3 },
        ];
        let mut cx = BodyCx::default();
        let k = compile_body(&body, &[1], &[], 0, false, &mut cx).unwrap();
        assert!(k.ops.iter().any(|o| matches!(o, Op::MulAcc { .. })));
    }

    #[test]
    fn multi_def_const_stays_inline() {
        // r0 is written twice: hoisting either write would corrupt the other.
        let body = vec![
            Instr::Const { dst: 0, value: 1.0 },
            Instr::Store { array: A, offsets: vec![0], src: 0 },
            Instr::Const { dst: 0, value: 2.0 },
            Instr::Store { array: A, offsets: vec![1], src: 0 },
        ];
        let mut cx = BodyCx::default();
        let k = compile_body(&body, &[1], &[], 0, false, &mut cx).unwrap();
        assert!(cx.preloads.is_empty());
        assert_eq!(k.ops.iter().filter(|o| matches!(o, Op::Const { .. })).count(), 2);
    }

    #[test]
    fn read_before_def_detected() {
        let carried = vec![
            Instr::Bin { op: BinOp::Add, dst: 0, a: 0, b: 0 },
            Instr::Store { array: A, offsets: vec![0], src: 0 },
        ];
        assert!(reads_before_def(&carried));
        let clean = vec![
            Instr::Load { dst: 0, array: A, offsets: vec![0] },
            Instr::Store { array: A, offsets: vec![0], src: 0 },
        ];
        assert!(!reads_before_def(&clean));
    }

    #[test]
    fn deltas_cover_all_memory_ops() {
        let body = vec![
            Instr::Load { dst: 0, array: A, offsets: vec![-1, 0] },
            Instr::Load { dst: 1, array: A, offsets: vec![1, 1] },
            Instr::Bin { op: BinOp::Add, dst: 2, a: 0, b: 1 },
            Instr::Store { array: A, offsets: vec![0, 0], src: 2 },
        ];
        let mut cx = BodyCx::default();
        let k = compile_body(&body, &[10, 1], &[], 0, false, &mut cx).unwrap();
        assert_eq!(k.min_delta, -10);
        assert_eq!(k.max_delta, 11);
        assert_eq!((k.loads, k.stores, k.flops), (2, 1, 1));
    }
}
