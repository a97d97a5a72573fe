//! The bytecode verifier: an abstract interpreter over compiled kernels
//! that machine-checks every invariant the unchecked row executors rely on.
//!
//! [`compile_nest`](crate::compile_nest) emits kernels whose execution is
//! *trusted*: `run_row::<false>` indexes registers, array slots and subgrid
//! storage unchecked, justified by compile-time validation plus one hoisted
//! bounds proof per row. This module re-derives each of those obligations
//! from the finished [`CompiledNest`] alone — independently of how the
//! compiler established them — and reports violations as standard
//! [`Diagnostic`]s:
//!
//! - **BV001 — register and slot discipline.** Every register operand is
//!   inside the register file, every slot operand inside the array table,
//!   no op overwrites a preloaded register (the chunked executor broadcasts
//!   preloads once and assumes they survive), and in fast (non-strict) mode
//!   every register read is preceded by a definition — the property that
//!   makes dropping dead writes and reordering lanes sound. For fused
//!   tap sums: every tap and store slot is inside the array table, every
//!   sum has a tap, and the side table is referenced exactly once per
//!   entry, in op order (a dropped, duplicated or reordered statement
//!   breaks that).
//! - **BV002 — strict-mode discipline.** A kernel whose body observes
//!   loop-carried register state must take the interpreter-faithful
//!   translation: no preloads, no fused ops (`MulAcc*`/`SelStore`/
//!   `TapSum`), and no chunked or fused-row execution. Any of those
//!   appearing in a strict kernel would change observable results.
//! - **BV003 — bounds. (a)** Every memory op's flat delta lies inside the
//!   kernel's declared `[min_delta, max_delta]` envelope — the soundness
//!   precondition of the hoisted per-row proof (`first = base + min_delta`,
//!   `last = last_base + max_delta`) — every tap of a fused tap sum
//!   included. **(b)** Interval analysis over the kernel's own
//!   base/step/count geometry: the extreme flat indices any
//!   row can touch stay inside `[0, len)` of the PE's subgrid (owned cells
//!   plus ghost layer).
//! - **BV004 — chunk safety.** For bodies flagged for the 32-lane chunked
//!   executor, re-derive store/load aliasing disjointness from scratch: no
//!   store in one lane may touch another lane's memory operand (a flat-
//!   delta difference of `k * step`, `0 < k <` [`LANES`]). This repeats the
//!   compiler's lane-reach conclusion without sharing its code. Bodies with
//!   tap sums: no tap reads an array the body stores (what makes reloading
//!   shared loads sound), and a fused body — all tap sums, rows run
//!   op-at-a-time over chunks of `span` points — has no store meeting
//!   another memory operand fewer than `span` lanes away.
//!
//! The verifier is *sound but intentionally not minimal*: it flags anything
//! it cannot prove safe. Compiler-emitted kernels always verify clean (a
//! property the workspace-root proptests enforce); the mutation-kill suite
//! injects [`Fault`]s and asserts each one is rejected.
//!
//! Note what BV003 does **not** check: ghost-cell *freshness*. A kernel
//! reading a halo cell no communication filled is memory-safe (the cell
//! exists) but numerically stale — that is the halo-safety lints' job
//! (HS001/HS002 in `hpf-analysis`), not the verifier's.

use crate::bytecode::{KernelCode, Op, Reg, Slot, TapSum};
use crate::vm::{CompiledNest, LANES};
use hpf_ir::diag::Diagnostic;

/// Register/slot discipline violation (out-of-range operand, read before
/// definition in fast mode, write to a preloaded register).
pub const BV001: &str = "BV001";
/// Strict-mode discipline violation (preloads, fused ops, or chunked
/// execution in a loop-carried kernel).
pub const BV002: &str = "BV002";
/// Bounds violation (delta outside the declared envelope, or the interval
/// analysis cannot keep every row access inside `[0, len)`).
pub const BV003: &str = "BV003";
/// Chunk-safety violation (a store may alias another lane's memory op in a
/// body flagged for the chunked executor).
pub const BV004: &str = "BV004";

/// Verify one compiled kernel. Returns every violated obligation as an
/// error diagnostic (empty = the kernel is proven safe for the unchecked
/// executors). Empty nests are trivially clean: execution is a no-op.
pub fn verify_nest(cn: &CompiledNest) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if cn.empty {
        return out;
    }
    if !structure_ok(cn, &mut out) {
        return out;
    }

    let geom = Geometry::of(cn);
    for body in geom.bodies(cn) {
        check_registers(cn, &body, &mut out);
        check_tap_table(&body, &mut out);
        check_bounds(cn, &geom, &body, &mut out);
        if body.vec {
            check_chunk_safety(&body, &mut out);
        }
        check_fused_rows(&body, &mut out);
    }
    check_strict_discipline(cn, &mut out);
    out
}

impl CompiledNest {
    /// Run the bytecode verifier on this kernel; see [`verify_nest`].
    pub fn verify(&self) -> Vec<Diagnostic> {
        verify_nest(self)
    }
}

/// Dimension tables must agree on rank and the loop order must be a
/// permutation — everything later indexes through them.
fn structure_ok(cn: &CompiledNest, out: &mut Vec<Diagnostic>) -> bool {
    let rank = cn.lo.len();
    if cn.hi.len() != rank || cn.strides.len() != rank || cn.order.len() != rank || rank == 0 {
        out.push(Diagnostic::error(
            BV001,
            format!(
                "malformed kernel: dimension tables disagree on rank \
                 (lo {}, hi {}, strides {}, order {})",
                cn.lo.len(),
                cn.hi.len(),
                cn.strides.len(),
                cn.order.len()
            ),
        ));
        return false;
    }
    let mut seen = vec![false; rank];
    for &d in &cn.order {
        if d >= rank || std::mem::replace(&mut seen[d], true) {
            out.push(Diagnostic::error(
                BV001,
                format!("malformed kernel: loop order {:?} is not a permutation", cn.order),
            ));
            return false;
        }
    }
    if cn.factor < 1 {
        out.push(Diagnostic::error(
            BV001,
            format!("malformed kernel: unroll factor {} < 1", cn.factor),
        ));
        return false;
    }
    true
}

/// The executor's grouping geometry, re-derived from the kernel alone: how
/// many outermost iterations run the jammed body, where the unit remainder
/// starts, and what step each body's rows advance by.
struct Geometry {
    /// Outermost loop dimension.
    d0: usize,
    /// Jammed group starts along `d0`: `lo, lo+f, ..` (`groups` of them).
    groups: i64,
    /// Remainder iterations along `d0` after the last full group.
    rem: i64,
    /// Flat-index step of a chunked jammed row.
    jam_step: i64,
    /// Flat-index step of a chunked unit row.
    unit_step: i64,
}

impl Geometry {
    fn of(cn: &CompiledNest) -> Geometry {
        let d0 = cn.order[0];
        let n0 = (cn.hi[d0] - cn.lo[d0] + 1).max(0);
        let groups = n0 / cn.factor;
        let rem = n0 - groups * cn.factor;
        let inner = *cn.order.last().unwrap();
        let (jam_step, unit_step) = if cn.order.len() == 1 {
            (cn.factor * cn.strides[d0], cn.strides[d0])
        } else {
            (cn.strides[inner], cn.strides[inner])
        };
        Geometry { d0, groups, rem, jam_step, unit_step }
    }

    /// The bodies the executor can actually reach, with each one's
    /// outermost-index range (group starts for the jammed body, remainder
    /// points for the unit body).
    fn bodies<'a>(&self, cn: &'a CompiledNest) -> Vec<BodyView<'a>> {
        let mut v = Vec::new();
        if self.groups > 0 {
            v.push(BodyView {
                name: "jammed",
                code: &cn.jammed,
                vec: cn.jam_vec,
                step: self.jam_step,
                outer: (cn.lo[self.d0], cn.lo[self.d0] + (self.groups - 1) * cn.factor),
            });
        }
        if self.rem > 0 {
            v.push(BodyView {
                name: "unit",
                code: cn.unit.as_ref().unwrap_or(&cn.jammed),
                vec: cn.unit_vec,
                step: self.unit_step,
                outer: (cn.lo[self.d0] + self.groups * cn.factor, cn.hi[self.d0]),
            });
        }
        v
    }
}

/// One reachable body plus the geometry its rows execute under.
struct BodyView<'a> {
    name: &'static str,
    code: &'a KernelCode,
    /// Flagged for the chunked (vectorized) executor.
    vec: bool,
    /// Flat-index step between consecutive chunk lanes.
    step: i64,
    /// Inclusive range of the outermost loop index this body covers.
    outer: (i64, i64),
}

/// Registers an op reads, in op order.
fn op_reads(op: &Op) -> Vec<Reg> {
    match *op {
        Op::Const { .. } | Op::Load { .. } => vec![],
        Op::Store { src, .. } => vec![src],
        Op::Bin { a, b, .. } | Op::Cmp { a, b, .. } => vec![a, b],
        Op::BinImmR { a, .. } | Op::CmpImmR { a, .. } => vec![a],
        Op::BinImmL { b, .. } | Op::CmpImmL { b, .. } => vec![b],
        Op::MulAcc { acc, a, b, .. } => vec![acc, a, b],
        Op::MulAccImmL { acc, b, .. } => vec![acc, b],
        Op::MulAccImmR { acc, a, .. } => vec![acc, a],
        Op::Neg { src, .. } | Op::Copy { src, .. } => vec![src],
        Op::Select { c, t, e, .. } => vec![c, t, e],
        Op::SelStore { c, t, e, .. } => vec![c, t, e],
        Op::TapSum { .. } => vec![],
    }
}

/// The register an op defines, if any.
fn op_dst(op: &Op) -> Option<Reg> {
    match *op {
        Op::Store { .. } | Op::SelStore { .. } | Op::TapSum { .. } => None,
        Op::Const { dst, .. }
        | Op::Load { dst, .. }
        | Op::Bin { dst, .. }
        | Op::BinImmR { dst, .. }
        | Op::BinImmL { dst, .. }
        | Op::MulAcc { dst, .. }
        | Op::MulAccImmL { dst, .. }
        | Op::MulAccImmR { dst, .. }
        | Op::Neg { dst, .. }
        | Op::Copy { dst, .. }
        | Op::Cmp { dst, .. }
        | Op::CmpImmR { dst, .. }
        | Op::CmpImmL { dst, .. }
        | Op::Select { dst, .. } => Some(dst),
    }
}

/// The side-table entry a tap-sum op names, if it exists.
fn tap_sum<'a>(code: &'a KernelCode, op: &Op) -> Option<&'a TapSum> {
    match *op {
        Op::TapSum { id } => code.sums.get(id as usize),
        _ => None,
    }
}

/// The memory operands of an op as `(slot, flat delta, is_store)`: one for
/// a load or store, every tap then the store for a tap sum (none when its
/// side-table entry is missing — BV001 reports that).
fn op_mems(code: &KernelCode, op: &Op) -> Vec<(Slot, i32, bool)> {
    match *op {
        Op::Load { arr, delta, .. } => vec![(arr, delta, false)],
        Op::Store { arr, delta, .. } | Op::SelStore { arr, delta, .. } => vec![(arr, delta, true)],
        Op::TapSum { .. } => tap_sum(code, op).map_or(vec![], |ts| {
            let mut v: Vec<_> = ts.taps.iter().map(|t| (t.arr, t.delta, false)).collect();
            v.push((ts.arr, ts.delta, true));
            v
        }),
        _ => vec![],
    }
}

/// BV001: abstract interpretation of the register file. The abstract state
/// is the set of defined registers, seeded with the preloads; each op must
/// read only defined registers (fast mode), stay inside the register file
/// and slot table, and never define a preloaded register.
fn check_registers(cn: &CompiledNest, body: &BodyView, out: &mut Vec<Diagnostic>) {
    let regs = cn.regs;
    let mut defined = vec![false; regs];
    for &(r, _) in &cn.preloads {
        if (r as usize) < regs {
            defined[r as usize] = true;
        } else {
            out.push(Diagnostic::error(
                BV001,
                format!("preload register r{r} outside the register file (size {regs})"),
            ));
        }
    }
    let preloaded: Vec<bool> = {
        let mut p = vec![false; regs];
        for &(r, _) in &cn.preloads {
            if (r as usize) < regs {
                p[r as usize] = true;
            }
        }
        p
    };
    for (i, op) in body.code.ops.iter().enumerate() {
        for r in op_reads(op) {
            if r as usize >= regs {
                out.push(Diagnostic::error(
                    BV001,
                    format!(
                        "{} op {i} reads register r{r} outside the register file (size {regs})",
                        body.name
                    ),
                ));
            } else if !cn.strict && !defined[r as usize] {
                out.push(Diagnostic::error(
                    BV001,
                    format!(
                        "{} op {i} reads register r{r} before any definition — fast-mode \
                         kernels must define every register they read",
                        body.name
                    ),
                ));
            }
        }
        for (slot, _, _) in op_mems(body.code, op) {
            if slot as usize >= cn.arrays.len() {
                out.push(Diagnostic::error(
                    BV001,
                    format!(
                        "{} op {i} addresses array slot {slot} outside the slot table \
                         (size {})",
                        body.name,
                        cn.arrays.len()
                    ),
                ));
            }
        }
        if let Some(d) = op_dst(op) {
            if d as usize >= regs {
                out.push(Diagnostic::error(
                    BV001,
                    format!(
                        "{} op {i} defines register r{d} outside the register file (size {regs})",
                        body.name
                    ),
                ));
            } else {
                if preloaded[d as usize] {
                    out.push(Diagnostic::error(
                        BV001,
                        format!(
                            "{} op {i} overwrites preloaded register r{d} — the chunked \
                             executor broadcasts preloads once and assumes they survive",
                            body.name
                        ),
                    ));
                }
                defined[d as usize] = true;
            }
        }
    }
}

/// BV001, tap-sum side table: each tap-sum op names an existing entry, the
/// k-th tap-sum op names entry k (so every entry runs exactly once, in the
/// order the statements were written — the order that decides which of
/// two stores to one cell lands last), and every entry has a tap.
fn check_tap_table(body: &BodyView, out: &mut Vec<Diagnostic>) {
    let sums = &body.code.sums;
    let mut seen = 0usize;
    for (i, op) in body.code.ops.iter().enumerate() {
        let Op::TapSum { id } = *op else { continue };
        if id as usize >= sums.len() {
            out.push(Diagnostic::error(
                BV001,
                format!(
                    "{} op {i} names tap-sum entry {id} outside the side table (size {})",
                    body.name,
                    sums.len()
                ),
            ));
        } else if id as usize != seen {
            out.push(Diagnostic::error(
                BV001,
                format!(
                    "{} op {i} names tap-sum entry {id} out of order (expected {seen}) — a \
                     statement was dropped, duplicated or reordered",
                    body.name
                ),
            ));
        }
        seen += 1;
    }
    if seen != sums.len() {
        out.push(Diagnostic::error(
            BV001,
            format!(
                "{} body runs {seen} tap-sum op(s) for {} side-table entries",
                body.name,
                sums.len()
            ),
        ));
    }
    if let Some(k) = sums.iter().position(|ts| ts.taps.is_empty()) {
        out.push(Diagnostic::error(BV001, format!("{} tap-sum entry {k} has no taps", body.name)));
    }
}

/// BV002: a strict (loop-carried) kernel must be the interpreter-faithful
/// translation — no preloads, no fused ops, no chunked execution.
fn check_strict_discipline(cn: &CompiledNest, out: &mut Vec<Diagnostic>) {
    if !cn.strict {
        return;
    }
    if !cn.preloads.is_empty() {
        out.push(Diagnostic::error(
            BV002,
            format!(
                "strict kernel hoists {} constant preload(s) — loop-carried register \
                 state must start at zero like the interpreter's file",
                cn.preloads.len()
            ),
        ));
    }
    for (name, code) in [("jammed", &cn.jammed), ("unit", cn.unit.as_ref().unwrap_or(&cn.jammed))] {
        if let Some(i) = code.ops.iter().position(|op| {
            matches!(
                op,
                Op::MulAcc { .. }
                    | Op::MulAccImmL { .. }
                    | Op::MulAccImmR { .. }
                    | Op::SelStore { .. }
                    | Op::TapSum { .. }
            )
        }) {
            out.push(Diagnostic::error(
                BV002,
                format!(
                    "strict kernel contains fused op at {name} position {i} — fusion drops \
                     intermediate register writes that loop-carried bodies may observe"
                ),
            ));
        }
    }
    if cn.jam_vec || cn.unit_vec {
        out.push(Diagnostic::error(
            BV002,
            "strict kernel flagged for chunked execution — lanes would not observe \
             the previous point's register state"
                .to_string(),
        ));
    }
    let unit = cn.unit.as_ref().unwrap_or(&cn.jammed);
    if cn.jammed.span != 0 || unit.span != 0 {
        out.push(Diagnostic::error(
            BV002,
            "strict kernel flagged for fused-row execution — fused rows keep no \
             register state"
                .to_string(),
        ));
    }
}

/// BV003: (a) every memory delta inside the declared envelope; (b) interval
/// analysis proving the extreme flat indices of every reachable row stay
/// inside `[0, len)`.
fn check_bounds(cn: &CompiledNest, geom: &Geometry, body: &BodyView, out: &mut Vec<Diagnostic>) {
    let (dmin, dmax) = (body.code.min_delta, body.code.max_delta);
    for (i, op) in body.code.ops.iter().enumerate() {
        for (_, delta, _) in op_mems(body.code, op) {
            let d = delta as i64;
            if d < dmin || d > dmax {
                out.push(Diagnostic::error(
                    BV003,
                    format!(
                        "{} op {i} delta {d} escapes the declared envelope [{dmin}, {dmax}] \
                         the hoisted row bounds proof covers",
                        body.name
                    ),
                ));
            }
        }
    }

    // Extreme base indices over the body's reachable iteration points:
    // per-dimension contribution intervals of `(point + halo - 1) * stride`,
    // with the outermost dimension restricted to this body's range. Rows
    // advance along the innermost dimension, whose full range is already
    // part of the interval, so `base + delta` bounds every row access —
    // including the column-major thin-strip walk, which visits the same
    // point set in a different order.
    let (mut min_base, mut max_base) = (0i64, 0i64);
    for d in 0..cn.lo.len() {
        let (dlo, dhi) = if d == geom.d0 { body.outer } else { (cn.lo[d], cn.hi[d]) };
        let a = (dlo + cn.halo - 1) * cn.strides[d];
        let b = (dhi + cn.halo - 1) * cn.strides[d];
        min_base += a.min(b);
        max_base += a.max(b);
    }
    let (first, last) = (min_base + dmin, max_base + dmax);
    if first < 0 || last >= cn.len as i64 {
        out.push(Diagnostic::error(
            BV003,
            format!(
                "{} body can touch flat indices [{first}, {last}] outside the subgrid \
                 [0, {}) — the unchecked row executor would read or write out of bounds",
                body.name, cn.len
            ),
        ));
    }
}

/// BV004: independent re-derivation of chunk safety. A store at delta `sd`
/// and a memory op at delta `md` on the same array collide across lanes iff
/// `sd - md = k * step` for some `0 < k < LANES` (lane `i`'s store hits
/// lane `i+k`'s location, or vice versa); `diff == 0` is the same lane and
/// per-lane op order is preserved. Derived by enumerating `k` directly —
/// not by the compiler's divisibility test — so a bug in one cannot hide in
/// the other.
fn check_chunk_safety(body: &BodyView, out: &mut Vec<Diagnostic>) {
    if body.step == 0 {
        out.push(Diagnostic::error(
            BV004,
            format!("{} body chunked with step 0 — every lane would alias", body.name),
        ));
        return;
    }
    let mems: Vec<(Slot, i64, bool)> = body
        .code
        .ops
        .iter()
        .flat_map(|op| op_mems(body.code, op))
        .map(|(a, d, is_store)| (a, d as i64, is_store))
        .collect();
    for &(sa, sd, s_store) in &mems {
        if !s_store {
            continue;
        }
        for &(ma, md, _) in &mems {
            if sa != ma || sd == md {
                continue;
            }
            let diff = sd - md;
            for k in 1..LANES as i64 {
                if diff == k * body.step || diff == -k * body.step {
                    out.push(Diagnostic::error(
                        BV004,
                        format!(
                            "{} body chunked with step {}: store at delta {sd} aliases a \
                             memory op at delta {md} {k} lane(s) away (chunk width {LANES})",
                            body.name, body.step
                        ),
                    ));
                    break;
                }
            }
        }
    }
}

/// BV004 for tap sums. (a) In any body holding tap sums, no tap reads an
/// array the body stores: the compiler reloads loads that several
/// statements shared, which only reproduces the source when no store in
/// between can change the value. (b) A fused body (`span > 0`) holds only
/// tap sums, and running each of them over `span` points before the next
/// starts is unobservable: no store may meet another memory operand of the
/// same array `k` lanes away for `0 < k < span`. Lane distances come from
/// exact division here, independent of the compiler's remainder test.
fn check_fused_rows(body: &BodyView, out: &mut Vec<Diagnostic>) {
    let code = body.code;
    let stored: Vec<Slot> = code
        .ops
        .iter()
        .flat_map(|op| op_mems(code, op))
        .filter(|&(_, _, is_store)| is_store)
        .map(|(a, _, _)| a)
        .collect();
    for (i, op) in code.ops.iter().enumerate() {
        let Some(ts) = tap_sum(code, op) else { continue };
        if let Some(t) = ts.taps.iter().find(|t| stored.contains(&t.arr)) {
            out.push(Diagnostic::error(
                BV004,
                format!(
                    "{} op {i}: tap at delta {} reads array slot {}, which the body stores \
                     — reloading it is not the source's load",
                    body.name, t.delta, t.arr
                ),
            ));
        }
    }
    if code.span <= 0 {
        return;
    }
    if let Some(i) = code.ops.iter().position(|op| !matches!(op, Op::TapSum { .. })) {
        out.push(Diagnostic::error(
            BV004,
            format!("{} body runs fused rows but op {i} is not a tap sum", body.name),
        ));
        return;
    }
    let step = body.step.unsigned_abs();
    if step == 0 {
        out.push(Diagnostic::error(
            BV004,
            format!("{} body runs fused rows with step 0 — every lane would alias", body.name),
        ));
        return;
    }
    let mems: Vec<(Slot, i64, bool)> = code
        .ops
        .iter()
        .flat_map(|op| op_mems(code, op))
        .map(|(a, d, is_store)| (a, d as i64, is_store))
        .collect();
    for &(sa, sd, _) in mems.iter().filter(|m| m.2) {
        for &(ma, md, _) in &mems {
            let dist = sd.abs_diff(md);
            if sa != ma || dist == 0 {
                continue;
            }
            let k = dist / step;
            if k * step == dist && k < code.span.unsigned_abs() {
                out.push(Diagnostic::error(
                    BV004,
                    format!(
                        "{} body runs fused rows of {} points with step {}: store at delta \
                         {sd} meets a memory op at delta {md} {k} lane(s) away",
                        body.name, code.span, body.step
                    ),
                ));
            }
        }
    }
}

/// A deliberate kernel corruption for the mutation-kill suite: each variant
/// violates one invariant the verifier proves, so `verify()` must reject
/// the mutated kernel with a `BV*` diagnostic. [`CompiledNest::inject`]
/// returns `false` when the fault does not apply to this kernel (no such
/// op, nothing to corrupt), letting drivers skip inapplicable mutations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Swap ops `i` and `j` of the jammed (`unit == false`) or unit body —
    /// reorders a definition after its use (BV001).
    SwapOps {
        /// Corrupt the unit body instead of the jammed body.
        unit: bool,
        /// First op position.
        i: usize,
        /// Second op position.
        j: usize,
    },
    /// Add `by` to the delta of the `i`-th *memory operand* of the body
    /// without updating the declared envelope (BV003).
    PerturbDelta {
        /// Corrupt the unit body instead of the jammed body.
        unit: bool,
        /// Index among the body's memory operands: loads, stores and
        /// sel-stores, and for a tap sum each tap then its store.
        i: usize,
        /// Delta perturbation.
        by: i32,
    },
    /// Widen the declared upper loop bound of dimension `dim` by `by` —
    /// rows then walk past the subgrid (BV003).
    WidenBounds {
        /// Dimension whose upper bound grows.
        dim: usize,
        /// Extra iterations.
        by: i64,
    },
    /// Shrink the body's declared `[min_delta, max_delta]` envelope to
    /// `[0, 0]` — the hoisted row proof then covers nothing (BV003).
    ShrinkDeclaredDeltas {
        /// Corrupt the unit body instead of the jammed body.
        unit: bool,
    },
    /// Retarget the first register operand of op `i` to `reg` (out-of-range
    /// or undefined registers trip BV001). A tap sum has no registers: it
    /// takes one position per tap plus one for its store, and the fault
    /// retargets that operand's array slot instead.
    RetargetReg {
        /// Corrupt the unit body instead of the jammed body.
        unit: bool,
        /// Position: ops in order, a tap sum spanning `taps + 1` of them.
        i: usize,
        /// New register (or, on a tap sum, array slot).
        reg: Reg,
    },
    /// Claim chunk safety for both bodies regardless of the aliasing test
    /// (BV004, or BV002 for strict kernels).
    ForceVectorized,
}

/// Corruption sites of a body, in op order: `(op, None)` for an ordinary
/// op, `(op, Some(k))` for operand `k` of a tap sum — its taps, then
/// `k == taps.len()` for its store.
fn sites(code: &KernelCode) -> Vec<(usize, Option<usize>)> {
    let mut v = Vec::new();
    for (p, op) in code.ops.iter().enumerate() {
        match tap_sum(code, op) {
            Some(ts) => v.extend((0..=ts.taps.len()).map(|k| (p, Some(k)))),
            None => v.push((p, None)),
        }
    }
    v
}

/// Operand `k` of a tap sum as `(slot, delta)`: tap `k`, or the store for
/// `k == taps.len()`.
fn sum_operand(ts: &mut TapSum, k: usize) -> (&mut Slot, &mut i32) {
    match ts.taps.get_mut(k) {
        Some(t) => (&mut t.arr, &mut t.delta),
        None => (&mut ts.arr, &mut ts.delta),
    }
}

impl CompiledNest {
    /// Apply a [`Fault`] to this kernel in place, for the mutation-kill
    /// suite. Returns `true` when the corruption was applied; `false` when
    /// it does not apply (out-of-range positions, no matching op, or the
    /// fault would change nothing).
    pub fn inject(&mut self, fault: Fault) -> bool {
        fn body_mut(cn: &mut CompiledNest, unit: bool) -> &mut KernelCode {
            if unit {
                cn.unit.as_mut().unwrap_or(&mut cn.jammed)
            } else {
                &mut cn.jammed
            }
        }
        /// Is the `KernelCode` the fault would mutate reachable by the
        /// executor? Faults on dead code (an empty kernel, a remainder
        /// body that never runs, a jammed body with zero groups) change
        /// nothing observable, so they do not apply. Note the shared-code
        /// cases: when `unit` is `None` both body views execute the
        /// jammed `KernelCode`.
        fn body_live(cn: &CompiledNest, unit: bool) -> bool {
            if cn.empty || cn.order.is_empty() {
                return false;
            }
            let g = Geometry::of(cn);
            if unit && cn.unit.is_some() {
                g.rem > 0
            } else if unit {
                g.groups > 0 || g.rem > 0
            } else {
                g.groups > 0 || (cn.unit.is_none() && g.rem > 0)
            }
        }
        if self.empty || self.order.is_empty() {
            return false;
        }
        match fault {
            Fault::SwapOps { unit, i, j } => {
                if !body_live(self, unit) {
                    return false;
                }
                let code = body_mut(self, unit);
                if i == j || i >= code.ops.len() || j >= code.ops.len() {
                    return false;
                }
                code.ops.swap(i, j);
                true
            }
            Fault::PerturbDelta { unit, i, by } => {
                if by == 0 || !body_live(self, unit) {
                    return false;
                }
                let code = body_mut(self, unit);
                let sites: Vec<_> = sites(code)
                    .into_iter()
                    .filter(|&(p, k)| k.is_some() || !op_mems(code, &code.ops[p]).is_empty())
                    .collect();
                let Some(&(p, k)) = sites.get(i) else { return false };
                match (&mut code.ops[p], k) {
                    (Op::TapSum { id }, Some(k)) => {
                        let (_, delta) = sum_operand(&mut code.sums[*id as usize], k);
                        *delta = delta.wrapping_add(by);
                    }
                    (
                        Op::Load { delta, .. }
                        | Op::Store { delta, .. }
                        | Op::SelStore { delta, .. },
                        None,
                    ) => *delta = delta.wrapping_add(by),
                    _ => unreachable!("sites selected a memory operand"),
                }
                true
            }
            Fault::WidenBounds { dim, by } => {
                if by <= 0 || dim >= self.hi.len() {
                    return false;
                }
                self.hi[dim] += by;
                true
            }
            Fault::ShrinkDeclaredDeltas { unit } => {
                if !body_live(self, unit) {
                    return false;
                }
                let code = body_mut(self, unit);
                if code.min_delta == 0 && code.max_delta == 0 {
                    return false;
                }
                code.min_delta = 0;
                code.max_delta = 0;
                true
            }
            Fault::RetargetReg { unit, i, reg } => {
                if !body_live(self, unit) {
                    return false;
                }
                let code = body_mut(self, unit);
                let Some(&(p, k)) = sites(code).get(i) else { return false };
                let op = &mut code.ops[p];
                match (op, k) {
                    (Op::TapSum { id }, Some(k)) => {
                        *sum_operand(&mut code.sums[*id as usize], k).0 = reg
                    }
                    (Op::Store { src, .. }, _) => *src = reg,
                    (
                        Op::Bin { a, .. }
                        | Op::BinImmR { a, .. }
                        | Op::Cmp { a, .. }
                        | Op::CmpImmR { a, .. },
                        _,
                    ) => *a = reg,
                    (Op::BinImmL { b, .. } | Op::CmpImmL { b, .. }, _) => *b = reg,
                    (
                        Op::MulAcc { acc, .. }
                        | Op::MulAccImmL { acc, .. }
                        | Op::MulAccImmR { acc, .. },
                        _,
                    ) => *acc = reg,
                    (Op::Neg { src, .. } | Op::Copy { src, .. }, _) => *src = reg,
                    (Op::Select { c, .. } | Op::SelStore { c, .. }, _) => *c = reg,
                    (Op::Const { .. } | Op::Load { .. } | Op::TapSum { .. }, _) => return false,
                }
                true
            }
            Fault::ForceVectorized => {
                if self.jam_vec && self.unit_vec {
                    return false;
                }
                self.jam_vec = true;
                self.unit_vec = true;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Tap;

    /// A hand-built 1-D kernel over a 16-cell subgrid with halo 1: bounds
    /// `lo..=hi` in local coordinates, flat length 18.
    fn kernel_1d(ops: Vec<Op>, regs: usize, lo: i64, hi: i64) -> CompiledNest {
        kernel_1d_with(ops, vec![], regs, lo, hi)
    }

    fn kernel_1d_with(
        ops: Vec<Op>,
        sums: Vec<TapSum>,
        regs: usize,
        lo: i64,
        hi: i64,
    ) -> CompiledNest {
        let mut code = KernelCode { ops, sums, loads: 1, stores: 1, ..KernelCode::default() };
        let deltas: Vec<i64> =
            code.ops.iter().flat_map(|op| op_mems(&code, op)).map(|m| m.1 as i64).collect();
        code.min_delta = deltas.iter().copied().fold(0, i64::min);
        code.max_delta = deltas.iter().copied().fold(0, i64::max);
        CompiledNest {
            empty: false,
            lo: vec![lo],
            hi: vec![hi],
            strides: vec![1],
            halo: 1,
            order: vec![0],
            factor: 1,
            jammed: code,
            unit: None,
            arrays: vec![0, 1],
            regs,
            preloads: vec![],
            strided: false,
            len: 18,
            jam_vec: false,
            unit_vec: false,
            strict: false,
            compile_ns: 0,
        }
    }

    fn copy_ops() -> Vec<Op> {
        vec![Op::Load { dst: 0, arr: 0, delta: 0 }, Op::Store { arr: 1, delta: 0, src: 0 }]
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_kernel_verifies_clean() {
        let cn = kernel_1d(copy_ops(), 1, 1, 16);
        assert!(cn.verify().is_empty(), "{:?}", cn.verify());
    }

    #[test]
    fn empty_kernel_is_trivially_clean() {
        let mut cn = kernel_1d(copy_ops(), 1, 1, 16);
        cn.empty = true;
        cn.regs = 0; // even nonsense fields are unreachable
        assert!(cn.verify().is_empty());
    }

    #[test]
    fn bv001_flags_out_of_range_register_and_slot() {
        let cn = kernel_1d(
            vec![Op::Load { dst: 7, arr: 0, delta: 0 }, Op::Store { arr: 5, delta: 0, src: 7 }],
            1,
            1,
            16,
        );
        let d = cn.verify();
        assert!(codes(&d).iter().all(|&c| c == BV001), "{d:?}");
        assert!(d.len() >= 3, "dst, slot and src violations: {d:?}");
    }

    #[test]
    fn bv001_flags_read_before_def_in_fast_mode() {
        let cn = kernel_1d(vec![Op::Store { arr: 0, delta: 0, src: 0 }], 1, 1, 16);
        let d = cn.verify();
        assert_eq!(codes(&d), vec![BV001], "{d:?}");
        assert!(d[0].message.contains("before any definition"));
    }

    #[test]
    fn bv001_allows_read_before_def_in_strict_mode() {
        let mut cn = kernel_1d(vec![Op::Store { arr: 0, delta: 0, src: 0 }], 1, 1, 16);
        cn.strict = true;
        assert!(cn.verify().is_empty());
    }

    #[test]
    fn bv001_flags_preload_overwrite() {
        let mut cn = kernel_1d(
            vec![Op::Const { dst: 0, v: 1.0 }, Op::Store { arr: 0, delta: 0, src: 0 }],
            1,
            1,
            16,
        );
        cn.preloads = vec![(0, 2.0)];
        let d = cn.verify();
        assert_eq!(codes(&d), vec![BV001], "{d:?}");
        assert!(d[0].message.contains("preloaded"));
    }

    #[test]
    fn bv002_flags_fused_ops_and_preloads_in_strict_kernels() {
        let mut cn = kernel_1d(
            vec![
                Op::Load { dst: 0, arr: 0, delta: 0 },
                Op::MulAcc { dst: 1, acc: 1, a: 0, b: 0 },
                Op::Store { arr: 1, delta: 0, src: 1 },
            ],
            2,
            1,
            16,
        );
        cn.strict = true;
        cn.preloads = vec![(0, 3.0)];
        let d = cn.verify();
        assert!(codes(&d).contains(&BV002), "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("fused")));
        assert!(d.iter().any(|x| x.message.contains("preload")));
    }

    #[test]
    fn bv003_flags_delta_escaping_declared_envelope() {
        let mut cn = kernel_1d(copy_ops(), 1, 1, 16);
        assert!(cn.inject(Fault::PerturbDelta { unit: false, i: 0, by: 3 }));
        let d = cn.verify();
        assert_eq!(codes(&d), vec![BV003], "{d:?}");
        assert!(d[0].message.contains("envelope"));
    }

    #[test]
    fn bv003_flags_rows_escaping_the_subgrid() {
        // lo..=hi touches flat indices up to (17+1-1)+0 = 17 < 18: clean.
        let cn = kernel_1d(copy_ops(), 1, 1, 17);
        assert!(cn.verify().is_empty());
        // One wider and the last row escapes.
        let mut wide = kernel_1d(copy_ops(), 1, 1, 17);
        assert!(wide.inject(Fault::WidenBounds { dim: 0, by: 1 }));
        let d = wide.verify();
        assert_eq!(codes(&d), vec![BV003], "{d:?}");
    }

    #[test]
    fn bv003_flags_shrunk_declared_envelope() {
        let ops =
            vec![Op::Load { dst: 0, arr: 0, delta: -1 }, Op::Store { arr: 1, delta: 0, src: 0 }];
        let mut cn = kernel_1d(ops, 1, 2, 16);
        assert!(cn.verify().is_empty());
        assert!(cn.inject(Fault::ShrinkDeclaredDeltas { unit: false }));
        let d = cn.verify();
        assert_eq!(codes(&d), vec![BV003], "{d:?}");
    }

    #[test]
    fn bv004_flags_cross_lane_aliasing() {
        // Store one step ahead of the load on the same array: lane i's
        // store hits lane i+1's load.
        let ops =
            vec![Op::Load { dst: 0, arr: 0, delta: 0 }, Op::Store { arr: 0, delta: 1, src: 0 }];
        let mut cn = kernel_1d(ops, 1, 1, 15);
        assert!(cn.verify().is_empty(), "scalar rows are fine");
        assert!(cn.inject(Fault::ForceVectorized));
        let d = cn.verify();
        assert_eq!(codes(&d), vec![BV004], "{d:?}");
        assert!(d[0].message.contains("lane"));
    }

    #[test]
    fn bv004_accepts_disjoint_arrays_and_same_location() {
        // Distinct arrays and same-delta store/load chunk safely.
        let mut cn = kernel_1d(copy_ops(), 1, 1, 16);
        assert!(cn.inject(Fault::ForceVectorized));
        assert!(cn.verify().is_empty(), "{:?}", cn.verify());
    }

    #[test]
    fn bv002_flags_forced_vectorization_of_strict_kernels() {
        let mut cn = kernel_1d(copy_ops(), 1, 1, 16);
        cn.strict = true;
        assert!(cn.inject(Fault::ForceVectorized));
        let d = cn.verify();
        assert_eq!(codes(&d), vec![BV002], "{d:?}");
    }

    #[test]
    fn swap_and_retarget_faults_trip_bv001() {
        let mut cn = kernel_1d(copy_ops(), 1, 1, 16);
        assert!(cn.inject(Fault::SwapOps { unit: false, i: 0, j: 1 }));
        assert_eq!(codes(&cn.verify()), vec![BV001]);

        let mut cn = kernel_1d(copy_ops(), 1, 1, 16);
        assert!(cn.inject(Fault::RetargetReg { unit: false, i: 1, reg: 9 }));
        assert!(codes(&cn.verify()).contains(&BV001));
    }

    #[test]
    fn inapplicable_faults_report_false() {
        let mut cn = kernel_1d(copy_ops(), 1, 1, 16);
        assert!(!cn.inject(Fault::SwapOps { unit: false, i: 0, j: 0 }));
        assert!(!cn.inject(Fault::SwapOps { unit: false, i: 0, j: 9 }));
        assert!(!cn.inject(Fault::PerturbDelta { unit: false, i: 5, by: 1 }));
        assert!(!cn.inject(Fault::PerturbDelta { unit: false, i: 0, by: 0 }));
        assert!(!cn.inject(Fault::WidenBounds { dim: 3, by: 1 }));
        assert!(!cn.inject(Fault::WidenBounds { dim: 0, by: 0 }));
        assert!(!cn.inject(Fault::ShrinkDeclaredDeltas { unit: false }));
        assert!(!cn.inject(Fault::RetargetReg { unit: false, i: 0, reg: 3 }), "Load has no src");
    }

    /// `T[0] = U[-1] + U[0] + U[1]` over 2..=15, as the compiler fuses it.
    fn tap_kernel() -> CompiledNest {
        let taps = (-1..=1).map(|delta| Tap { arr: 0, delta, coef: None }).collect();
        let sums = vec![TapSum { arr: 1, delta: 0, taps, scale: Some(0.5) }];
        let mut cn = kernel_1d_with(vec![Op::TapSum { id: 0 }], sums, 0, 2, 15);
        cn.jammed.span = i64::MAX;
        cn
    }

    #[test]
    fn fused_tap_kernel_verifies_clean() {
        let cn = tap_kernel();
        assert!(cn.verify().is_empty(), "{:?}", cn.verify());
    }

    #[test]
    fn bv001_flags_tap_table_faults() {
        // A tap slot outside the array table.
        let mut cn = tap_kernel();
        assert!(cn.inject(Fault::RetargetReg { unit: false, i: 1, reg: 7 }));
        assert_eq!(codes(&cn.verify()), vec![BV001]);
        // An op naming a missing side-table entry.
        let mut cn = tap_kernel();
        cn.jammed.ops = vec![Op::TapSum { id: 3 }];
        assert_eq!(codes(&cn.verify()), vec![BV001]);
        // The same statement run twice, the second entry never.
        let mut cn = tap_kernel();
        cn.jammed.sums.push(cn.jammed.sums[0].clone());
        cn.jammed.ops = vec![Op::TapSum { id: 0 }, Op::TapSum { id: 0 }];
        assert!(cn.verify().iter().any(|d| d.message.contains("out of order")));
        // An empty tap list.
        let mut cn = tap_kernel();
        cn.jammed.sums[0].taps.clear();
        assert!(cn.verify().iter().any(|d| d.code == BV001 && d.message.contains("no taps")));
    }

    #[test]
    fn bv003_covers_every_tap() {
        let mut cn = tap_kernel();
        assert!(cn.inject(Fault::PerturbDelta { unit: false, i: 2, by: 4 }));
        let d = cn.verify();
        assert_eq!(codes(&d), vec![BV003], "{d:?}");
        assert!(d[0].message.contains("envelope"));
        // Four operands: three taps and the store.
        assert!(cn.inject(Fault::PerturbDelta { unit: false, i: 3, by: 1 }));
        assert!(!cn.inject(Fault::PerturbDelta { unit: false, i: 4, by: 1 }));
    }

    #[test]
    fn bv004_flags_taps_reading_the_stored_array() {
        let mut cn = tap_kernel();
        // Tap 0 retargeted to slot 1, the array the sum stores.
        assert!(cn.inject(Fault::RetargetReg { unit: false, i: 0, reg: 1 }));
        let d = cn.verify();
        assert!(codes(&d).contains(&BV004), "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("which the body stores")));
    }

    #[test]
    fn bv004_flags_fused_rows_wider_than_the_lane_reach() {
        // Two sums storing one array two cells apart: rows of more than
        // two points would reorder their writes.
        let sum = |delta| TapSum {
            arr: 1,
            delta,
            taps: vec![Tap { arr: 0, delta: 0, coef: None }],
            scale: None,
        };
        let ops = vec![Op::TapSum { id: 0 }, Op::TapSum { id: 1 }];
        let mut cn = kernel_1d_with(ops, vec![sum(0), sum(2)], 0, 1, 14);
        cn.jammed.span = 2;
        assert!(cn.verify().is_empty(), "{:?}", cn.verify());
        cn.jammed.span = 3;
        let d = cn.verify();
        assert!(!d.is_empty() && codes(&d).iter().all(|&c| c == BV004), "{d:?}");
        assert!(d[0].message.contains("2 lane(s) away"));
        // Fused rows hold nothing but tap sums.
        let mut cn = tap_kernel();
        cn.jammed.ops.insert(0, Op::Const { dst: 0, v: 1.0 });
        cn.regs = 1;
        assert!(cn.verify().iter().any(|d| d.code == BV004 && d.message.contains("not a tap")));
    }

    #[test]
    fn bv002_flags_tap_sums_in_strict_kernels() {
        let mut cn = tap_kernel();
        cn.strict = true;
        let d = cn.verify();
        assert!(d.iter().any(|x| x.code == BV002 && x.message.contains("fused op")));
        assert!(d.iter().any(|x| x.code == BV002 && x.message.contains("fused-row")));
    }

    #[test]
    fn swapped_tap_sums_trip_bv001() {
        let sum = |delta| TapSum {
            arr: 1,
            delta,
            taps: vec![Tap { arr: 0, delta: 0, coef: None }],
            scale: None,
        };
        let ops = vec![Op::TapSum { id: 0 }, Op::TapSum { id: 1 }];
        let mut cn = kernel_1d_with(ops, vec![sum(0), sum(1)], 0, 1, 15);
        assert!(cn.verify().is_empty(), "{:?}", cn.verify());
        assert!(cn.inject(Fault::SwapOps { unit: false, i: 0, j: 1 }));
        assert_eq!(codes(&cn.verify()), vec![BV001, BV001]);
    }

    #[test]
    fn unrolled_geometry_covers_group_starts_and_remainder() {
        // factor 2 over lo=1..hi=16 with a jammed body reaching delta +1:
        // group starts 1,3,..,15; last jammed access 15+1+... within len.
        let ops = vec![
            Op::Load { dst: 0, arr: 0, delta: 0 },
            Op::Store { arr: 1, delta: 0, src: 0 },
            Op::Load { dst: 1, arr: 0, delta: 1 },
            Op::Store { arr: 1, delta: 1, src: 1 },
        ];
        let mut cn = kernel_1d(ops, 2, 1, 16);
        cn.factor = 2;
        cn.unit = Some(KernelCode {
            ops: copy_ops()
                .iter()
                .map(|op| match *op {
                    Op::Load { arr, delta, .. } => Op::Load { dst: 2, arr, delta },
                    Op::Store { arr, delta, .. } => Op::Store { arr, delta, src: 2 },
                    other => other,
                })
                .collect(),
            loads: 1,
            stores: 1,
            ..KernelCode::default()
        });
        cn.regs = 3;
        assert!(cn.verify().is_empty(), "{:?}", cn.verify());
        // Widening the bound pushes the remainder row out of the subgrid.
        assert!(cn.inject(Fault::WidenBounds { dim: 0, by: 2 }));
        assert!(codes(&cn.verify()).contains(&BV003));
    }
}
