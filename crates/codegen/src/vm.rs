//! The kernel VM: per-PE compiled nests and their execution over subgrid
//! storage.
//!
//! [`compile_nest`] specializes one loop nest against one PE's subgrid
//! layout: SPMD bounds reduction, flat-index deltas, constant preloads, and
//! the jammed/unit (interior/boundary) body split are all resolved at
//! compile time. [`exec_compiled`] then walks the iteration space *by rows*
//! (maximal runs of the innermost loop): each row performs **one** bounds
//! check — `base + min_delta` and `last_base + max_delta` against the flat
//! slice — and when it passes, the whole row executes with unchecked
//! indexing. Register and array-slot indices are validated at compile time,
//! so the only runtime obligation is that row check; rows that fail it
//! (impossible for halo-lint-clean programs, see DESIGN.md §5c) take a
//! checked fallback that panics exactly where the interpreter would.
//!
//! Rows the compiler proves chunk-safe (`lane_reach`: no store in one
//! lane can alias another lane's memory op, and no register state carries
//! between points) run through a *chunked* executor: each op executes over
//! up to [`LANES`] consecutive points before the next op dispatches, which
//! amortizes dispatch cost over the chunk and turns every op into a
//! straight-line lane loop the optimizer vectorizes. Contiguous rows load
//! and store via `memcpy`-style block moves.
//!
//! Bodies fused into tap sums ([`Op::TapSum`], see `bytecode`) skip the
//! register file entirely: each tap sum sweeps the row memory-to-memory in a
//! loop monomorphized on its tap count, one op at a time over chunks of up
//! to the body's `span` points — the largest chunk in which no store can
//! meet another point's memory operand, usually the whole row.
//!
//! Execution order, operation order, and rounding are identical to the tree
//! interpreter (`hpf-exec`'s `exec_nest`): results are bitwise equal and the
//! `PeStats` counters match, because they are derived from the *source*
//! body with the interpreter's own counting rules.

use crate::bytecode::{compile_body, reads_before_def, BodyCx, KernelCode, Op, Slot, TapSum};
use hpf_ir::expr::CmpOp;
use hpf_ir::BinOp;
use hpf_passes::loopir::{Instr, LoopNest};
use hpf_runtime::PeState;

/// Chunk width of the vectorized row executor: each op runs over this many
/// consecutive row points before the VM dispatches the next op, amortizing
/// dispatch cost and exposing straight-line lane loops the optimizer
/// auto-vectorizes.
pub(crate) const LANES: usize = 32;

/// One loop nest compiled for one PE's subgrid layout. Build with
/// [`compile_nest`]; execute (many times) with [`exec_compiled`]. Fields are
/// crate-visible so the static verifier (`crate::verify`) can re-derive the
/// executor's safety obligations from the same data the executor runs on.
#[derive(Clone, Debug)]
pub struct CompiledNest {
    /// This PE owns no part of the iteration space: execution is a no-op.
    pub(crate) empty: bool,
    /// Local loop bounds (inclusive), per dimension.
    pub(crate) lo: Vec<i64>,
    pub(crate) hi: Vec<i64>,
    /// Row-major strides of every referenced subgrid (layouts verified equal).
    pub(crate) strides: Vec<i64>,
    /// Ghost-layer width of the shared layout.
    pub(crate) halo: i64,
    /// Loop order, outermost first.
    pub(crate) order: Vec<usize>,
    /// Unroll factor of the outermost loop (1 when not unrolled).
    pub(crate) factor: i64,
    /// Jammed (interior) body.
    pub(crate) jammed: KernelCode,
    /// Unit body for remainder (boundary) iterations of the unrolled loop.
    pub(crate) unit: Option<KernelCode>,
    /// Array table: `arrays[slot]` is the raw `ArrayId` index.
    pub(crate) arrays: Vec<u32>,
    /// Register-file size (jammed + unit + preloads).
    pub(crate) regs: usize,
    /// Constants written once per execution.
    pub(crate) preloads: Vec<(u16, f64)>,
    /// Innermost loop is not over the storage-contiguous dimension.
    pub(crate) strided: bool,
    /// Flat length of every referenced subgrid.
    pub(crate) len: usize,
    /// Jammed rows may run through the chunked (vectorized) executor.
    pub(crate) jam_vec: bool,
    /// Unit/remainder rows may run through the chunked executor.
    pub(crate) unit_vec: bool,
    /// Bodies share one register file with the interpreter's persistent
    /// numbering (loop-carried state): no hoisting, fusion or chunking.
    pub(crate) strict: bool,
    /// Wall nanoseconds [`compile_nest`] spent producing this kernel.
    pub(crate) compile_ns: u64,
}

impl CompiledNest {
    /// Wall nanoseconds spent compiling this kernel (one nest on one PE) —
    /// the per-kernel term behind the driver track's kernel-compile spans.
    pub fn compile_ns(&self) -> u64 {
        self.compile_ns
    }
}

/// Compile `nest` for the layout `pe` holds. Arrays referenced by the body
/// must already be allocated. Returns `None` when the nest cannot be
/// compiled — referenced subgrids disagree on layout, index ranges overflow
/// the bytecode, or the unroll annotation is malformed — in which case the
/// caller falls back to the interpreter for this (nest, PE) pair.
pub fn compile_nest(nest: &LoopNest, pe: &PeState, scalars: &[f64]) -> Option<CompiledNest> {
    let t0 = std::time::Instant::now();
    let probe = nest.body.iter().find_map(|i| match i {
        Instr::Load { array, .. } | Instr::Store { array, .. } => Some(*array),
        _ => None,
    })?;
    let sub = pe.subgrids.get(probe.0 as usize)?.as_ref()?;
    let (owned, ext, strides, halo, len) =
        (sub.owned.clone(), sub.ext.clone(), sub.strides().to_vec(), sub.halo, sub.raw().len());

    // Every referenced array must share the probe's layout: the VM reuses
    // one base index and one flat length for all of them.
    let bodies: [&[Instr]; 2] =
        [&nest.body, nest.unroll.as_ref().map_or(&[][..], |u| &u.unit_body)];
    for i in bodies.iter().flat_map(|b| b.iter()) {
        if let Instr::Load { array, .. } | Instr::Store { array, .. } = i {
            let s = pe.subgrids.get(array.0 as usize)?.as_ref()?;
            if s.strides() != strides.as_slice() || s.halo != halo || s.raw().len() != len {
                return None;
            }
        }
    }

    let rank = ext.len();
    if nest.order.len() != rank {
        return None;
    }
    let factor = match &nest.unroll {
        Some(u) => {
            if u.dim != nest.order[0] || u.factor < 2 {
                return None;
            }
            u.factor as i64
        }
        None => 1,
    };

    let mut empty = ext.contains(&0);
    let mut lo = vec![0i64; rank];
    let mut hi = vec![0i64; rank];
    for d in 0..rank {
        let (olo, _) = owned.dim(d);
        let (slo, shi) = nest.space.dim(d);
        lo[d] = (slo - olo + 1).max(1);
        hi[d] = (shi - olo + 1).min(ext[d] as i64);
        if hi[d] < lo[d] {
            empty = true;
        }
    }

    // Hoisting constants out of the per-point code is only sound when no
    // body observes register state it did not write itself; otherwise fall
    // back to a strict translation sharing one register numbering, exactly
    // like the interpreter's persistent register file.
    let strict = bodies.iter().any(|b| reads_before_def(b));
    let jr = nest.regs;
    let ur = nest.unroll.as_ref().map_or(0, |u| u.unit_regs);
    let unit_base = if strict { 0 } else { jr };

    let mut cx = BodyCx::with_min_regs(if strict { jr.max(ur) } else { 0 });
    let mut jammed = compile_body(&nest.body, &strides, scalars, 0, strict, &mut cx)?;
    let mut unit = match &nest.unroll {
        Some(u) => Some(compile_body(&u.unit_body, &strides, scalars, unit_base, strict, &mut cx)?),
        None => None,
    };

    // Chunked (vectorized) execution runs a row op-at-a-time over up to
    // LANES points, reordering memory ops across lanes. That is observable
    // only when a store in one lane can alias a load or store in a *different*
    // lane of the same chunk, or when register state carries between points
    // (strict mode). Both are decidable here because each body's row step is
    // fixed at compile time; rows failing the test run point-at-a-time. Fused
    // (tap-sum) bodies carry no register state at all, so their chunk can
    // grow to the full lane reach.
    let istrides: Vec<i64> = strides.iter().map(|&s| s as i64).collect();
    let inner_step = istrides[*nest.order.last()?];
    let (jam_step, unit_step) = if rank == 1 {
        (factor * istrides[nest.order[0]], istrides[nest.order[0]])
    } else {
        (inner_step, inner_step)
    };
    let jam_vec = !strict && set_span(&mut jammed, jam_step);
    let unit_vec = match unit.as_mut() {
        Some(u) => !strict && set_span(u, unit_step),
        None => jam_vec,
    };

    Some(CompiledNest {
        empty,
        lo,
        hi,
        strides: istrides,
        halo: halo as i64,
        order: nest.order.clone(),
        factor,
        jammed,
        unit,
        arrays: cx.arrays,
        regs: cx.max_reg + 1,
        preloads: cx.preloads,
        strided: *nest.order.last()? != rank - 1 && rank > 1,
        len,
        jam_vec,
        unit_vec,
        strict,
        compile_ns: t0.elapsed().as_nanos() as u64,
    })
}

/// The lane reach of `code` on rows advancing by `step`: the smallest lane
/// distance `k > 0` at which a store meets another memory operand on the
/// same array (their flat-delta difference is `k * step`), `Some(0)` for a
/// zero step, `None` when no two lanes ever collide. Op-at-a-time execution
/// over chunks of fewer than `k` points reproduces the interpreter's
/// point-at-a-time results: only memory can carry state across lanes
/// (fast-mode bodies define every register they read).
fn lane_reach(code: &KernelCode, step: i64) -> Option<u64> {
    if step == 0 {
        return Some(0);
    }
    let mut stores: Vec<(Slot, i64)> = Vec::new();
    let mut mems: Vec<(Slot, i64)> = Vec::new();
    for op in &code.ops {
        match *op {
            Op::Store { arr, delta, .. } | Op::SelStore { arr, delta, .. } => {
                stores.push((arr, delta as i64));
                mems.push((arr, delta as i64));
            }
            Op::Load { dst: _, arr, delta } => mems.push((arr, delta as i64)),
            Op::TapSum { id } => {
                let ts = &code.sums[id as usize];
                stores.push((ts.arr, ts.delta as i64));
                mems.push((ts.arr, ts.delta as i64));
                mems.extend(ts.taps.iter().map(|t| (t.arr, t.delta as i64)));
            }
            _ => {}
        }
    }
    let mut reach = None;
    for &(sa, sd) in &stores {
        for &(ma, md) in &mems {
            let diff = sd - md;
            if sa == ma && diff != 0 && diff % step == 0 {
                let k = (diff / step).unsigned_abs();
                reach = Some(reach.map_or(k, |r: u64| r.min(k)));
            }
        }
    }
    reach
}

/// Decide how rows of `code` with step `step` execute: returns whether the
/// `LANES`-wide chunked executor is safe, and for a fused body sets its
/// `span` to the lane reach (whole rows when nothing ever collides).
fn set_span(code: &mut KernelCode, step: i64) -> bool {
    let reach = lane_reach(code, step);
    if !code.sums.is_empty() {
        code.span = reach.map_or(i64::MAX, |k| i64::try_from(k).unwrap_or(i64::MAX));
    }
    reach.is_none_or(|k| k >= LANES as u64)
}

impl CompiledNest {
    /// Bytecode listing (for tests and debugging).
    pub fn ops(&self) -> (&[Op], Option<&[Op]>) {
        (&self.jammed.ops, self.unit.as_ref().map(|u| u.ops.as_slice()))
    }

    /// Constants hoisted out of the per-point code.
    pub fn preload_count(&self) -> usize {
        self.preloads.len()
    }

    /// May the (jammed, unit) bodies use the chunked row executor? (For
    /// tests and debugging.)
    pub fn vectorized(&self) -> (bool, bool) {
        (self.jam_vec, self.unit_vec)
    }

    /// Do the (jammed, unit) bodies run as fused tap-sum rows? (For tests
    /// and debugging.)
    pub fn fused(&self) -> (bool, bool) {
        (self.jammed.span > 0, self.unit.as_ref().unwrap_or(&self.jammed).span > 0)
    }

    /// The tap-sum side table of the jammed (`unit == false`) or unit body.
    /// (For tests and debugging.)
    pub fn tap_sums(&self, unit: bool) -> &[TapSum] {
        let k = if unit { self.unit.as_ref().unwrap_or(&self.jammed) } else { &self.jammed };
        &k.sums
    }

    /// Was this nest compiled in strict mode (a body reads registers it did
    /// not define, so state carries across iteration points)? Strict kernels
    /// take no hoisting, fusion or chunking — the discipline BV002 checks.
    pub fn strict(&self) -> bool {
        self.strict
    }

    /// The declared `[min_delta, max_delta]` flat-index envelope of the
    /// jammed (`unit == false`) or unit body — the envelope the per-row
    /// bounds proof hoists, and the soundness precondition BV003 re-checks
    /// against the actual memory ops.
    pub fn declared_deltas(&self, unit: bool) -> (i64, i64) {
        let k = if unit { self.unit.as_ref().unwrap_or(&self.jammed) } else { &self.jammed };
        (k.min_delta, k.max_delta)
    }

    /// Local loop bounds (inclusive, per dimension) this nest was compiled
    /// for — the PE's intersection of the iteration space with its owned
    /// block. Empty nests report `None`. Callers slicing the space for
    /// split-phase execution ([`exec_compiled_range`]) derive their
    /// sub-ranges from these.
    pub fn local_bounds(&self) -> Option<(&[i64], &[i64])> {
        if self.empty {
            None
        } else {
            Some((&self.lo, &self.hi))
        }
    }
}

/// Execute a compiled nest on the PE it was compiled for. May be called any
/// number of times (plans reuse compiled nests across time steps).
pub fn exec_compiled(pe: &mut PeState, cn: &CompiledNest) {
    if cn.empty {
        return;
    }
    exec_over(pe, cn, &cn.lo, &cn.hi, false);
}

/// Execute a compiled nest over a sub-range of its local iteration space:
/// `region[d]` is an inclusive local index range, clipped against the
/// compiled bounds. The split-phase engine uses this to run a nest's
/// interior while halo messages are in flight and its boundary strips
/// afterwards. Counter accounting matches [`exec_compiled`] piecewise —
/// callers that tile the space with factor-aligned pieces (see
/// `hpf_analysis::overlap`) observe the exact full-sweep counters.
///
/// The caller asserts the nest is iteration-local over the region (the
/// split-phase eligibility conditions), so the walk order inside the box is
/// unobservable: thin-row boxes — a split boundary's column strips — run
/// column-major, which computes identical per-point values and identical
/// counters (see `exec_over`).
pub fn exec_compiled_range(pe: &mut PeState, cn: &CompiledNest, region: &[(i64, i64)]) {
    if cn.empty {
        return;
    }
    debug_assert_eq!(region.len(), cn.lo.len());
    let mut lo = cn.lo.clone();
    let mut hi = cn.hi.clone();
    for (d, &(rlo, rhi)) in region.iter().enumerate() {
        lo[d] = lo[d].max(rlo);
        hi[d] = hi[d].min(rhi);
        if hi[d] < lo[d] {
            return;
        }
    }
    exec_over(pe, cn, &lo, &hi, true);
}

/// Execute a compiled nest over an explicit local box `lo..=hi` that may
/// *extend beyond* the compiled owned bounds into the ghost layers — the
/// trapezoid sub-step sweeps of the superstep schedule, which redundantly
/// recompute neighbor-owned cells from deep-halo data. The caller
/// guarantees that, per dimension, the box stays within subgrid storage
/// (`1 - halo ..= ext + halo`) and that every read offset from a box point
/// also lands in storage (expansion + read radius ≤ halo — the superstep
/// legality conditions); rows violating that fall back to the checked
/// executor and panic exactly like the interpreter would. Iteration order
/// is the compiled row-major order (no thin-box transposition): ghost
/// points overlap neighbor-owned points, so order stays observable-safe
/// only by matching the interpreter walk exactly.
pub fn exec_compiled_over(pe: &mut PeState, cn: &CompiledNest, lo: &[i64], hi: &[i64]) {
    if cn.empty {
        return;
    }
    debug_assert_eq!(lo.len(), cn.lo.len());
    if lo.iter().zip(hi).any(|(l, h)| h < l) {
        return;
    }
    exec_over(pe, cn, lo, hi, false);
}

/// Below this many points per row, a `reorder_ok` box runs column-major:
/// the per-row dispatch (bounds proof + op loop set-up) would otherwise
/// dominate rows of a handful of points.
const TRANSPOSE_MAX_ROW: i64 = 8;

/// The executor body behind [`exec_compiled`] / [`exec_compiled_range`]:
/// runs the bytecode over the box `lo..=hi` (local, inclusive). Jammed/unit
/// grouping is decided against these bounds, so a factor-aligned sub-box
/// reproduces the full sweep's grouping restricted to it. `reorder_ok`
/// means the caller proved iteration order inside the box unobservable
/// (iteration-local body), letting thin-row boxes run column-major.
fn exec_over(pe: &mut PeState, cn: &CompiledNest, lo: &[i64], hi: &[i64], reorder_ok: bool) {
    let mut regs = vec![0.0f64; cn.regs.max(1)];
    for &(r, v) in &cn.preloads {
        regs[r as usize] = v;
    }
    // Strip register file for the chunked executor: LANES lanes per register,
    // preloads broadcast once. Ops never write preload registers (their defs
    // were hoisted), so the broadcast survives the whole execution.
    let mut strips = if cn.jam_vec || cn.unit_vec {
        let mut s = vec![0.0f64; cn.regs.max(1) * LANES];
        for &(r, v) in &cn.preloads {
            s[r as usize * LANES..(r as usize + 1) * LANES].fill(v);
        }
        s
    } else {
        Vec::new()
    };

    // Raw slice table. Distinct `ArrayId`s own distinct allocations, so the
    // pointers never alias each other; ops execute strictly in order, so
    // same-array load/store ordering is preserved.
    let mut arrs: Vec<(*mut f64, usize)> = Vec::with_capacity(cn.arrays.len());
    for &a in &cn.arrays {
        let sub = pe.subgrids[a as usize].as_mut().expect("allocated");
        let raw = sub.raw_mut();
        arrs.push((raw.as_mut_ptr(), raw.len()));
    }

    let rank = cn.order.len();
    let d0 = cn.order[0];
    let inner = *cn.order.last().unwrap();
    let base_of = |point: &[i64]| -> i64 {
        point.iter().zip(&cn.strides).map(|(&l, &s)| (l + cn.halo - 1) * s).sum()
    };

    let mut jammed_execs = 0u64;
    let mut unit_execs = 0u64;
    {
        let mut row = |kernel: &KernelCode,
                       vec_ok: bool,
                       base: i64,
                       count: i64,
                       step: i64,
                       execs: &mut u64| {
            if count <= 0 {
                return;
            }
            *execs += count as u64;
            let first = base + kernel.min_delta;
            let last = base + (count - 1) * step + kernel.max_delta;
            if first >= 0 && (last as u64) < cn.len as u64 {
                // SAFETY: every flat index this row touches lies in
                // [first, last] ⊆ [0, len); register and slot indices were
                // validated at compile time. The fused and chunked
                // executors are only entered when `lane_reach` proved the
                // op-at-a-time interleaving unobservable.
                unsafe {
                    if kernel.span > 0 {
                        run_row_fused(kernel, &arrs, base, count, step)
                    } else if vec_ok {
                        run_row_vec(&kernel.ops, &arrs, &mut strips, base, count, step)
                    } else {
                        run_row::<false>(kernel, &arrs, &mut regs, base, count, step)
                    }
                }
            } else {
                // Out-of-layout access (a halo violation the lints would
                // flag): run checked, panicking like the interpreter.
                // SAFETY: register and slot indices were validated at
                // compile time; CHECKED = true asserts every memory index
                // before touching it, so no out-of-bounds access occurs.
                unsafe { run_row::<true>(kernel, &arrs, &mut regs, base, count, step) }
            }
        };

        if rank == 1 {
            let n = hi[d0] - lo[d0] + 1;
            let jam_steps = n / cn.factor;
            let rest = n - jam_steps * cn.factor;
            let base = base_of(&[lo[d0]]);
            let stride = cn.strides[d0];
            row(&cn.jammed, cn.jam_vec, base, jam_steps, cn.factor * stride, &mut jammed_execs);
            let ubase = base + jam_steps * cn.factor * stride;
            let unit = cn.unit.as_ref().unwrap_or(&cn.jammed);
            row(unit, cn.unit_vec, ubase, rest, stride, &mut unit_execs);
        } else if reorder_ok
            && hi[inner] - lo[inner] + 1 < TRANSPOSE_MAX_ROW
            && hi[d0] - lo[d0] > hi[inner] - lo[inner]
        {
            // Thin-row box (a split boundary's column strip): walk it
            // column-major — per (middle, inner) point one long run along
            // the outermost dimension, reusing the row-major walk's exact
            // jammed/unit decomposition. Same kernels, same execution
            // counts, same per-point values; only the (unobservable) order
            // changes, and the per-op dispatch amortizes over the long run
            // instead of being paid per 2-3-point row.
            let mids: Vec<usize> = cn.order[1..rank - 1].to_vec();
            let n0 = hi[d0] - lo[d0] + 1;
            let jam_steps = n0 / cn.factor;
            let rest = n0 - jam_steps * cn.factor;
            let stride0 = cn.strides[d0];
            let unit = cn.unit.as_ref().unwrap_or(&cn.jammed);
            let mut point = lo.to_vec();
            'cols: loop {
                for j in lo[inner]..=hi[inner] {
                    point[inner] = j;
                    point[d0] = lo[d0];
                    let base = base_of(&point);
                    row(
                        &cn.jammed,
                        cn.jam_vec,
                        base,
                        jam_steps,
                        cn.factor * stride0,
                        &mut jammed_execs,
                    );
                    let ubase = base + jam_steps * cn.factor * stride0;
                    row(unit, cn.unit_vec, ubase, rest, stride0, &mut unit_execs);
                }
                for idx in (0..mids.len()).rev() {
                    let d = mids[idx];
                    point[d] += 1;
                    if point[d] <= hi[d] {
                        continue 'cols;
                    }
                    point[d] = lo[d];
                }
                break;
            }
        } else {
            // Middle dims: everything between the (possibly unrolled)
            // outermost loop and the innermost row dimension.
            let mids: Vec<usize> = cn.order[1..rank - 1].to_vec();
            let row_len = hi[inner] - lo[inner] + 1;
            let row_step = cn.strides[inner];
            let mut point = lo.to_vec();
            let mut i = lo[d0];
            while i <= hi[d0] {
                let use_jammed = i + cn.factor - 1 <= hi[d0];
                let (kernel, vec_ok, execs) = if use_jammed {
                    (&cn.jammed, cn.jam_vec, &mut jammed_execs)
                } else {
                    (cn.unit.as_ref().unwrap_or(&cn.jammed), cn.unit_vec, &mut unit_execs)
                };
                point[d0] = i;
                for &d in &mids {
                    point[d] = lo[d];
                }
                'mids: loop {
                    point[inner] = lo[inner];
                    row(kernel, vec_ok, base_of(&point), row_len, row_step, execs);
                    for idx in (0..mids.len()).rev() {
                        let d = mids[idx];
                        point[d] += 1;
                        if point[d] <= hi[d] {
                            continue 'mids;
                        }
                        point[d] = lo[d];
                    }
                    break;
                }
                i += if use_jammed { cn.factor } else { 1 };
            }
        }
    }

    // Bulk counters, the interpreter's accounting exactly.
    let unit_counts = cn.unit.as_ref().unwrap_or(&cn.jammed);
    let s = &mut pe.stats;
    s.loads += jammed_execs * cn.jammed.loads + unit_execs * unit_counts.loads;
    s.stores += jammed_execs * cn.jammed.stores + unit_execs * unit_counts.stores;
    s.flops += jammed_execs * cn.jammed.flops + unit_execs * unit_counts.flops;
    s.iters += jammed_execs + unit_execs;
    if cn.strided {
        s.strided_loads += jammed_execs * cn.jammed.loads + unit_execs * unit_counts.loads;
    }
}

/// Execute `kernel` over one row of `count` points, advancing the base index
/// by `step` per point. With `CHECKED = false`, all indexing is unchecked —
/// the caller has proven every index in range; with `CHECKED = true`, every
/// memory access is asserted in range first.
///
/// # Safety
/// Register indices must be `< regs.len()` and slot indices `< arrs.len()`
/// (guaranteed by `compile_body`; machine-checked by the bytecode verifier,
/// BV001). With `CHECKED = false`, the caller must guarantee
/// `base + delta ∈ [0, len)` for every memory op at every point of the row
/// — the obligation the hoisted row proof discharges and BV003 re-derives
/// by interval analysis.
unsafe fn run_row<const CHECKED: bool>(
    kernel: &KernelCode,
    arrs: &[(*mut f64, usize)],
    regs: &mut [f64],
    mut base: i64,
    count: i64,
    step: i64,
) {
    macro_rules! r {
        ($i:expr) => {
            // SAFETY: every register operand is < `cn.regs`, which sized
            // `regs` — validated by `compile_body` and machine-checked by
            // the bytecode verifier (BV001).
            unsafe { *regs.get_unchecked($i as usize) }
        };
    }
    macro_rules! w {
        ($i:expr, $v:expr) => {{
            let v = $v;
            // SAFETY: destination registers are < `regs.len()` (BV001).
            unsafe { *regs.get_unchecked_mut($i as usize) = v }
        }};
    }
    macro_rules! ld {
        ($arr:expr, $delta:expr) => {{
            // SAFETY: array-slot operands index the kernel's slot table,
            // which `arrs` mirrors entry for entry (BV001).
            let (ptr, len) = unsafe { *arrs.get_unchecked($arr as usize) };
            let idx = (base + $delta as i64) as usize;
            if CHECKED {
                assert!(idx < len, "subgrid access out of bounds: {idx} >= {len}");
            }
            // SAFETY: `idx < len` — asserted just above under CHECKED;
            // in fast mode the caller's hoisted row proof guarantees
            // `base + delta ∈ [0, len)` for every memory op of the row,
            // because every delta lies inside the kernel's declared
            // `[min_delta, max_delta]` envelope (BV003).
            unsafe { *ptr.add(idx) }
        }};
    }
    macro_rules! st {
        ($arr:expr, $delta:expr, $v:expr) => {{
            let v = $v;
            // SAFETY: slot < `arrs.len()` (BV001), as in `ld!`.
            let (ptr, len) = unsafe { *arrs.get_unchecked($arr as usize) };
            let idx = (base + $delta as i64) as usize;
            if CHECKED {
                assert!(idx < len, "subgrid access out of bounds: {idx} >= {len}");
            }
            // SAFETY: `idx < len` — by the CHECKED assert or the hoisted
            // row bounds proof over the declared delta envelope (BV003).
            unsafe { *ptr.add(idx) = v }
        }};
    }
    for _ in 0..count {
        for op in &kernel.ops {
            match *op {
                Op::Const { dst, v } => w!(dst, v),
                Op::Load { dst, arr, delta } => w!(dst, ld!(arr, delta)),
                Op::Store { arr, delta, src } => st!(arr, delta, r!(src)),
                Op::Bin { op, dst, a, b } => w!(dst, op.apply(r!(a), r!(b))),
                Op::BinImmR { op, dst, a, v } => w!(dst, op.apply(r!(a), v)),
                Op::BinImmL { op, dst, v, b } => w!(dst, op.apply(v, r!(b))),
                Op::MulAcc { dst, acc, a, b } => w!(dst, r!(acc) + r!(a) * r!(b)),
                Op::MulAccImmL { dst, acc, v, b } => w!(dst, r!(acc) + v * r!(b)),
                Op::MulAccImmR { dst, acc, a, v } => w!(dst, r!(acc) + r!(a) * v),
                Op::Neg { dst, src } => w!(dst, -r!(src)),
                Op::Copy { dst, src } => w!(dst, r!(src)),
                Op::Cmp { op, dst, a, b } => w!(dst, op.apply(r!(a), r!(b))),
                Op::CmpImmR { op, dst, a, v } => w!(dst, op.apply(r!(a), v)),
                Op::CmpImmL { op, dst, v, b } => w!(dst, op.apply(v, r!(b))),
                Op::Select { dst, c, t, e } => {
                    w!(dst, if r!(c) != 0.0 { r!(t) } else { r!(e) })
                }
                Op::SelStore { arr, delta, c, t, e } => {
                    st!(arr, delta, if r!(c) != 0.0 { r!(t) } else { r!(e) })
                }
                // SAFETY: the tap sum's slots are < `arrs.len()` (BV001) and
                // its deltas lie in the declared envelope the caller's row
                // proof covers (BV003); under CHECKED every index is
                // asserted first.
                Op::TapSum { id } => unsafe {
                    tap_point::<CHECKED>(&kernel.sums[id as usize], arrs, base)
                },
            }
        }
        base += step;
    }
}

/// One point of a tap sum, in the source chain's exact order: each tap
/// loaded and weighted in turn, the terms added left to right, the sum
/// scaled and stored. With `CHECKED`, every index is asserted in range
/// before it is touched — the interpreter's panic on an out-of-layout
/// access.
///
/// # Safety
/// Tap and store slots must be `< arrs.len()` (BV001). Without `CHECKED`,
/// `base + delta` must lie in `[0, len)` for every tap and the store — the
/// hoisted row proof over the declared envelope (BV003).
#[inline(always)]
unsafe fn tap_point<const CHECKED: bool>(ts: &TapSum, arrs: &[(*mut f64, usize)], base: i64) {
    let at = |arr: Slot, delta: i32| {
        // SAFETY: slot < `arrs.len()` (BV001).
        let (ptr, len) = unsafe { *arrs.get_unchecked(arr as usize) };
        let idx = (base + delta as i64) as usize;
        if CHECKED {
            assert!(idx < len, "subgrid access out of bounds: {idx} >= {len}");
        }
        // SAFETY: `idx < len` — by the CHECKED assert, or by the caller's
        // row proof over the declared delta envelope (BV003).
        unsafe { ptr.add(idx) }
    };
    let mut acc = 0.0;
    for (k, t) in ts.taps.iter().enumerate() {
        // SAFETY: `at` yields a pointer to an element inside the subgrid.
        let x = unsafe { *at(t.arr, t.delta) };
        let x = t.coef.map_or(x, |c| c * x);
        acc = if k == 0 { x } else { acc + x };
    }
    let v = ts.scale.map_or(acc, |c| c * acc);
    // SAFETY: as for the taps.
    unsafe { *at(ts.arr, ts.delta) = v };
}

/// Execute a fused body (every op an [`Op::TapSum`]) over one row: the row
/// is cut into chunks of up to `kernel.span` points and each tap sum sweeps
/// the whole chunk before the next one starts. Per point the values are the
/// scalar executor's; within a chunk no store meets another point's memory
/// operand (that is what `span` bounds), so the interleaving is
/// unobservable.
///
/// # Safety
/// Same contract as `run_row::<false>` — every `base + i*step + delta` in
/// range for `i < count` and every tap and store delta, slots validated —
/// plus: `kernel.span` is at most the lane reach of the body for `step`
/// (re-derived by BV004).
unsafe fn run_row_fused(
    kernel: &KernelCode,
    arrs: &[(*mut f64, usize)],
    mut base: i64,
    count: i64,
    step: i64,
) {
    let mut left = count;
    while left > 0 {
        let n = left.min(kernel.span);
        for op in &kernel.ops {
            let Op::TapSum { id } = *op else {
                unreachable!("fused bodies hold only tap sums (BV004)")
            };
            // SAFETY: the chunk's `n` points lie in this row, so the
            // caller's row proof covers every access.
            unsafe { tap_lanes(&kernel.sums[id as usize], arrs, base, n as usize, step) };
        }
        base += n * step;
        left -= n;
    }
}

/// Run one tap sum over `n` row points from `base`, advancing by `step`.
/// Each point ends up with exactly what `tap_point` computes for it. Tap
/// counts 1 (a copy), 4 (Jacobi) and 9 (Problem 9, the 9-point blur) run
/// through loops monomorphized on the count; any other count accumulates
/// tap at a time into the stored row. Both vectorize on contiguous rows.
///
/// # Safety
/// Tap and store slots `< arrs.len()` (BV001); `base + i*step + delta` in
/// range for every `i < n` and every tap and store delta (row proof, BV003);
/// no tap reads the stored array (BV004).
unsafe fn tap_lanes(ts: &TapSum, arrs: &[(*mut f64, usize)], base: i64, n: usize, step: i64) {
    // SAFETY: every arm runs under this function's own contract, and
    // `tap_lanes_n::<N>` is only entered with exactly `N` taps.
    unsafe {
        match ts.taps.len() {
            1 => tap_lanes_n::<1>(ts, arrs, base, n, step),
            4 => tap_lanes_n::<4>(ts, arrs, base, n, step),
            9 => tap_lanes_n::<9>(ts, arrs, base, n, step),
            _ => tap_lanes_acc(ts, arrs, base, n, step),
        }
    }
}

/// `tap_lanes` for any tap count: one sweep per tap, each adding its term
/// into the stored row, then one scaling sweep. Every point still sees its
/// terms added left to right with one rounding each. The partial sums are
/// unobservable: no tap reads the stored array (BV004), and within the
/// chunk no store meets another point's memory operand (`span`).
///
/// # Safety
/// See `tap_lanes`.
unsafe fn tap_lanes_acc(ts: &TapSum, arrs: &[(*mut f64, usize)], base: i64, n: usize, step: i64) {
    let at = |arr: Slot, delta: i32| {
        // SAFETY: slot < `arrs.len()` (BV001); `base + delta` is the chunk's
        // first point, inside the subgrid by the row proof (BV003).
        unsafe { arrs.get_unchecked(arr as usize).0.add((base + delta as i64) as usize) }
    };
    let out = at(ts.arr, ts.delta);
    // SAFETY: `out` and every tap pointer sit at the chunk's first point,
    // and the caller's row proof covers every lane `i < n` at `i * step`.
    unsafe {
        for (k, t) in ts.taps.iter().enumerate() {
            let src = at(t.arr, t.delta);
            match (k == 0, t.coef) {
                (true, None) => sweep(out, src, n, step, |_, x| x),
                (true, Some(c)) => sweep(out, src, n, step, |_, x| c * x),
                (false, None) => sweep(out, src, n, step, |acc, x| acc + x),
                (false, Some(c)) => sweep(out, src, n, step, |acc, x| acc + c * x),
            }
        }
        if let Some(c) = ts.scale {
            sweep(out, out, n, step, |_, x| c * x);
        }
    }
}

/// `out[i] = f(out[i], src[i])` for lanes `i < n` at offset `i * step`.
///
/// # Safety
/// Every lane of `out` and `src` lies inside its subgrid.
#[inline(always)]
unsafe fn sweep(out: *mut f64, src: *const f64, n: usize, step: i64, f: impl Fn(f64, f64) -> f64) {
    if step == 1 {
        for i in 0..n {
            // SAFETY: lane `i < n` of a contiguous row (caller's contract).
            unsafe { *out.add(i) = f(*out.add(i), *src.add(i)) };
        }
    } else {
        for i in 0..n as isize {
            let off = i * step as isize;
            // SAFETY: lane `i < n` at offset `i * step` (caller's contract).
            unsafe { *out.offset(off) = f(*out.offset(off), *src.offset(off)) };
        }
    }
}

/// `tap_lanes` for a tap count known at compile time: the tap pointers and
/// coefficients become fixed-size arrays and the per-point chain a fully
/// unrolled expression. Unweighted taps of a weighted sum multiply by 1.0,
/// which is exact.
///
/// # Safety
/// See `tap_lanes`; `ts.taps.len() == N`.
unsafe fn tap_lanes_n<const N: usize>(
    ts: &TapSum,
    arrs: &[(*mut f64, usize)],
    base: i64,
    n: usize,
    step: i64,
) {
    let at = |arr: Slot, delta: i32| {
        // SAFETY: slot < `arrs.len()` (BV001); `base + delta` is the chunk's
        // first point, inside the subgrid by the row proof (BV003).
        unsafe { arrs.get_unchecked(arr as usize).0.add((base + delta as i64) as usize) }
    };
    let src: [*const f64; N] =
        std::array::from_fn(|k| at(ts.taps[k].arr, ts.taps[k].delta) as *const f64);
    let coef: [f64; N] = std::array::from_fn(|k| ts.taps[k].coef.unwrap_or(1.0));
    let out = at(ts.arr, ts.delta);
    let weighted = ts.taps.iter().any(|t| t.coef.is_some());
    // SAFETY: `out` and `src` point at the chunk's first point, and the
    // caller's row proof covers every lane `i < n` at offset `i * step`.
    unsafe {
        match (weighted, ts.scale) {
            (false, None) => lanes::<N, false, false>(out, &src, &coef, 1.0, n, step),
            (false, Some(c)) => lanes::<N, false, true>(out, &src, &coef, c, n, step),
            (true, None) => lanes::<N, true, false>(out, &src, &coef, 1.0, n, step),
            (true, Some(c)) => lanes::<N, true, true>(out, &src, &coef, c, n, step),
        }
    }
}

/// The monomorphized lane loop: `W` weights every tap, `S` scales the sum.
///
/// # Safety
/// `out` and every `src[k]` point at the chunk's first point; lane `i < n`
/// at element offset `i * step` stays inside its subgrid (row proof, BV003).
#[inline(always)]
unsafe fn lanes<const N: usize, const W: bool, const S: bool>(
    out: *mut f64,
    src: &[*const f64; N],
    coef: &[f64; N],
    scale: f64,
    n: usize,
    step: i64,
) {
    let point = |off: isize| {
        // SAFETY: lane offset inside the row (caller's contract).
        let x = |k: usize| unsafe { *src[k].offset(off) };
        let term = |k: usize| if W { coef[k] * x(k) } else { x(k) };
        // Left to right, one rounding per add: the source chain's order.
        let sum = (1..N).fold(term(0), |acc, k| acc + term(k));
        if S {
            scale * sum
        } else {
            sum
        }
    };
    if step == 1 {
        for i in 0..n as isize {
            // SAFETY: lane `i < n` of a contiguous row (caller's contract).
            unsafe { *out.offset(i) = point(i) };
        }
    } else {
        for i in 0..n as isize {
            let off = i * step as isize;
            // SAFETY: lane `i < n` at offset `i * step` (caller's contract).
            unsafe { *out.offset(off) = point(off) };
        }
    }
}

/// Execute `ops` over one row through the chunked executor: the row is cut
/// into chunks of up to [`LANES`] points and each op runs across the whole
/// chunk before the next op dispatches. Per-lane results are bitwise
/// identical to the scalar executor — each lane performs the same operation
/// sequence on the same operands — and `lane_reach` proved no lane's store
/// aliases another lane's memory op, so the interleaving is unobservable.
///
/// # Safety
/// Same contract as `run_row::<false>` (every `base + i*step + delta` in
/// range, register/slot indices compile-time validated), plus: `strips` has
/// `LANES` lanes per register with preloads broadcast, and the kernel was
/// admitted by `lane_reach` for this `step` (re-derived independently by
/// the bytecode verifier, BV004).
unsafe fn run_row_vec(
    ops: &[Op],
    arrs: &[(*mut f64, usize)],
    strips: &mut [f64],
    mut base: i64,
    count: i64,
    step: i64,
) {
    let sp = strips.as_mut_ptr();
    let mut left = count;
    while left > 0 {
        let n = (left as usize).min(LANES);
        // SAFETY: `n <= LANES` points starting at `base` lie inside this
        // row, so the caller's row bounds proof covers every lane access;
        // `sp` points at the caller's `regs * LANES` strip buffer with
        // preloads broadcast, and the kernel was admitted by the chunk-
        // safety test for this step (independently re-derived by BV004).
        unsafe { run_chunk(ops, arrs, sp, base, n, step) };
        base += n as i64 * step;
        left -= n as i64;
    }
}

/// One chunk of up to `n <= LANES` row points, op-at-a-time. Register ops
/// compute all `LANES` lanes (straight-line loops the optimizer vectorizes);
/// lanes beyond `n` hold stale values whose results never reach memory —
/// only the memory ops honor `n`.
///
/// # Safety
/// See `run_row_vec`; `sp` must point at `regs * LANES` initialized `f64`s.
unsafe fn run_chunk(
    ops: &[Op],
    arrs: &[(*mut f64, usize)],
    sp: *mut f64,
    base: i64,
    n: usize,
    step: i64,
) {
    // Lane pointer of register `r`.
    macro_rules! strip {
        ($r:expr) => {
            // SAFETY: register operands are < the kernel's register-file
            // size (BV001) and `sp` spans `regs * LANES` elements.
            unsafe { sp.add($r as usize * LANES) }
        };
    }
    // Whole-register reads/writes as fixed-size arrays: value semantics keep
    // the lane loops free of aliasing, so they compile to vector code.
    macro_rules! rd {
        ($r:expr) => {{
            let p = strip!($r) as *const [f64; LANES];
            // SAFETY: `strip!` points at `LANES` initialized `f64`s inside
            // the strip buffer (zero-filled at allocation, preloads
            // broadcast), properly aligned for `[f64; LANES]`.
            unsafe { *p }
        }};
    }
    macro_rules! lanes {
        ($dst:expr, |$i:ident| $e:expr) => {{
            let mut out = [0.0f64; LANES];
            for $i in 0..LANES {
                out[$i] = $e;
            }
            let p = strip!($dst) as *mut [f64; LANES];
            // SAFETY: as in `rd!` — the destination strip holds `LANES`
            // `f64`s owned exclusively by this call (registers and subgrid
            // storage are distinct allocations).
            unsafe { *p = out };
        }};
    }
    macro_rules! mem_at {
        ($ptr:expr, $delta:expr, $i:expr) => {
            // SAFETY: lane `i < n` lies in this row, so the caller's row
            // bounds proof over the declared delta envelope (BV003) puts
            // `base + i*step + delta` inside `[0, len)` of the subgrid.
            unsafe { $ptr.add((base + $i as i64 * step + $delta as i64) as usize) }
        };
    }
    // Comparison with the predicate match hoisted out of the lane loop.
    macro_rules! cmp_lanes {
        ($op:expr, $dst:expr, |$i:ident| ($a:expr, $b:expr)) => {
            match $op {
                CmpOp::Gt => lanes!($dst, |$i| if $a > $b { 1.0 } else { 0.0 }),
                CmpOp::Lt => lanes!($dst, |$i| if $a < $b { 1.0 } else { 0.0 }),
                CmpOp::Ge => lanes!($dst, |$i| if $a >= $b { 1.0 } else { 0.0 }),
                CmpOp::Le => lanes!($dst, |$i| if $a <= $b { 1.0 } else { 0.0 }),
                CmpOp::Eq => lanes!($dst, |$i| if $a == $b { 1.0 } else { 0.0 }),
                CmpOp::Ne => lanes!($dst, |$i| if $a != $b { 1.0 } else { 0.0 }),
            }
        };
    }
    for op in ops {
        match *op {
            Op::Const { dst, v } => lanes!(dst, |_i| v),
            Op::Load { dst, arr, delta } => {
                // SAFETY: slot < `arrs.len()` (BV001).
                let (ptr, _) = unsafe { *arrs.get_unchecked(arr as usize) };
                let d = strip!(dst);
                if step == 1 {
                    // SAFETY: the `n` contiguous source elements lie in the
                    // row (bounds proof, BV003); the destination strip is a
                    // separate allocation, so the copies never overlap.
                    unsafe {
                        std::ptr::copy_nonoverlapping(ptr.add((base + delta as i64) as usize), d, n)
                    };
                } else {
                    for i in 0..n {
                        let m = mem_at!(ptr, delta, i);
                        // SAFETY: lane `i < n <= LANES` of the strip; the
                        // subgrid read is covered by the row bounds proof.
                        unsafe { *d.add(i) = *m };
                    }
                }
            }
            Op::Store { arr, delta, src } => {
                // SAFETY: slot < `arrs.len()` (BV001).
                let (ptr, _) = unsafe { *arrs.get_unchecked(arr as usize) };
                let s = strip!(src);
                if step == 1 {
                    // SAFETY: mirror of the Load block-move — `n` in-row
                    // destination elements, disjoint strip source.
                    unsafe {
                        std::ptr::copy_nonoverlapping(s, ptr.add((base + delta as i64) as usize), n)
                    };
                } else {
                    for i in 0..n {
                        let m = mem_at!(ptr, delta, i);
                        // SAFETY: lane `i < n` strip read; in-row subgrid
                        // write covered by the row bounds proof (BV003).
                        unsafe { *m = *s.add(i) };
                    }
                }
            }
            Op::Bin { op, dst, a, b } => {
                let (x, y) = (rd!(a), rd!(b));
                match op {
                    BinOp::Add => lanes!(dst, |i| x[i] + y[i]),
                    BinOp::Sub => lanes!(dst, |i| x[i] - y[i]),
                    BinOp::Mul => lanes!(dst, |i| x[i] * y[i]),
                    BinOp::Div => lanes!(dst, |i| x[i] / y[i]),
                }
            }
            Op::BinImmR { op, dst, a, v } => {
                let x = rd!(a);
                match op {
                    BinOp::Add => lanes!(dst, |i| x[i] + v),
                    BinOp::Sub => lanes!(dst, |i| x[i] - v),
                    BinOp::Mul => lanes!(dst, |i| x[i] * v),
                    BinOp::Div => lanes!(dst, |i| x[i] / v),
                }
            }
            Op::BinImmL { op, dst, v, b } => {
                let y = rd!(b);
                match op {
                    BinOp::Add => lanes!(dst, |i| v + y[i]),
                    BinOp::Sub => lanes!(dst, |i| v - y[i]),
                    BinOp::Mul => lanes!(dst, |i| v * y[i]),
                    BinOp::Div => lanes!(dst, |i| v / y[i]),
                }
            }
            Op::MulAcc { dst, acc, a, b } => {
                let (c, x, y) = (rd!(acc), rd!(a), rd!(b));
                lanes!(dst, |i| c[i] + x[i] * y[i]);
            }
            Op::MulAccImmL { dst, acc, v, b } => {
                let (c, y) = (rd!(acc), rd!(b));
                lanes!(dst, |i| c[i] + v * y[i]);
            }
            Op::MulAccImmR { dst, acc, a, v } => {
                let (c, x) = (rd!(acc), rd!(a));
                lanes!(dst, |i| c[i] + x[i] * v);
            }
            Op::Neg { dst, src } => {
                let x = rd!(src);
                lanes!(dst, |i| -x[i]);
            }
            Op::Copy { dst, src } => {
                let x = rd!(src);
                lanes!(dst, |i| x[i]);
            }
            Op::Cmp { op, dst, a, b } => {
                let (x, y) = (rd!(a), rd!(b));
                cmp_lanes!(op, dst, |i| (x[i], y[i]));
            }
            Op::CmpImmR { op, dst, a, v } => {
                let x = rd!(a);
                cmp_lanes!(op, dst, |i| (x[i], v));
            }
            Op::CmpImmL { op, dst, v, b } => {
                let y = rd!(b);
                cmp_lanes!(op, dst, |i| (v, y[i]));
            }
            Op::Select { dst, c, t, e } => {
                let (cv, tv, ev) = (rd!(c), rd!(t), rd!(e));
                lanes!(dst, |i| if cv[i] != 0.0 { tv[i] } else { ev[i] });
            }
            Op::SelStore { arr, delta, c, t, e } => {
                // SAFETY: slot < `arrs.len()` (BV001).
                let (ptr, _) = unsafe { *arrs.get_unchecked(arr as usize) };
                let (cv, tv, ev) = (rd!(c), rd!(t), rd!(e));
                for i in 0..n {
                    let m = mem_at!(ptr, delta, i);
                    // SAFETY: in-row subgrid write, covered by the row
                    // bounds proof over the declared deltas (BV003).
                    unsafe { *m = if cv[i] != 0.0 { tv[i] } else { ev[i] } };
                }
            }
            Op::TapSum { .. } => unreachable!("fused bodies run through run_row_fused"),
        }
    }
}

/// Unit tests that drive the unsafe row executors directly on hand-built
/// buffers — the `miri_` prefix is what CI's Miri pass filters on, backing
/// the SAFETY comments above with an actual aliasing/UB check of every
/// raw-pointer path (scalar unchecked, scalar checked, chunked block-move,
/// chunked strided, predicated store, fused tap-sum rows).
#[cfg(test)]
mod unsafe_row_tests {
    use super::*;
    use crate::bytecode::Tap;
    use hpf_ir::expr::CmpOp;

    fn arrs_of(bufs: &mut [Vec<f64>]) -> Vec<(*mut f64, usize)> {
        bufs.iter_mut().map(|b| (b.as_mut_ptr(), b.len())).collect()
    }

    fn code(ops: &[Op]) -> KernelCode {
        KernelCode { ops: ops.to_vec(), ..KernelCode::default() }
    }

    /// A fused body of one tap sum per entry of `sums`, chunked by `span`.
    fn fused(sums: Vec<TapSum>, span: i64) -> KernelCode {
        let ops = (0..sums.len() as u16).map(|id| Op::TapSum { id }).collect();
        KernelCode { ops, sums, span, ..KernelCode::default() }
    }

    /// Pitch of the 2-D test grids: 6x6 storage, interior 1..=4.
    const P: i32 = 6;

    /// The Problem-9 star: every neighbor offset of a 3x3 block.
    fn star9(arr: Slot) -> Vec<Tap> {
        [0, P, -P, -1, 1, P - 1, P + 1, -P - 1, -P + 1]
            .into_iter()
            .map(|delta| Tap { arr, delta, coef: None })
            .collect()
    }

    /// The source chain's value at `b`, evaluated the interpreter's way.
    fn chain(u: &[f64], b: i64, ts: &TapSum) -> f64 {
        let term = |t: &Tap| {
            let x = u[(b + t.delta as i64) as usize];
            t.coef.map_or(x, |c| c * x)
        };
        let acc = ts.taps[1..].iter().fold(term(&ts.taps[0]), |acc, t| acc + term(t));
        ts.scale.map_or(acc, |c| c * acc)
    }

    fn grid() -> Vec<Vec<f64>> {
        let n = (P * P) as usize;
        vec![(0..n).map(|i| ((i * 7) % 13) as f64 * 0.1 + 0.3).collect(), vec![0.0; n]]
    }

    #[test]
    fn miri_tap_row_contiguous_whole_row() {
        // Problem 9's jammed body: two 9-tap sums (rows i and i+1) over a
        // contiguous 4-point row, once as a whole row and once in chunks of
        // 3 so the second chunk restarts both sums mid-row.
        let sums = vec![
            TapSum { arr: 1, delta: 0, taps: star9(0), scale: None },
            TapSum {
                arr: 1,
                delta: P,
                taps: star9(0).into_iter().map(|t| Tap { delta: t.delta + P, ..t }).collect(),
                scale: None,
            },
        ];
        for span in [i64::MAX, 3] {
            let mut bufs = grid();
            let k = fused(sums.clone(), span);
            {
                let arrs = arrs_of(&mut bufs);
                // SAFETY: slots < 2; the row's points 7..=10 reach flat
                // indices 0..=23 (deltas -7..=13) inside the 36-cell grids;
                // taps read slot 0 and the sums store slot 1 (no aliasing).
                unsafe { run_row_fused(&k, &arrs, P as i64 + 1, 4, 1) };
            }
            for b in P as i64 + 1..P as i64 + 5 {
                for ts in &sums {
                    let at = (b + ts.delta as i64) as usize;
                    assert_eq!(bufs[1][at], chain(&bufs[0], b, ts), "span {span} at {at}");
                }
            }
        }
    }

    #[test]
    fn miri_tap_row_strided() {
        // A column strip (step = pitch), as the overlap engine's thin
        // boundary boxes run it; same 9-tap sum as the contiguous case.
        let ts = TapSum { arr: 1, delta: 0, taps: star9(0), scale: None };
        let mut bufs = grid();
        let k = fused(vec![ts.clone()], i64::MAX);
        {
            let arrs = arrs_of(&mut bufs);
            // SAFETY: points 7, 13, 19, 25 with deltas -7..=7 touch flat
            // indices 0..=32 < 36; distinct slots for taps and store.
            unsafe { run_row_fused(&k, &arrs, P as i64 + 1, 4, P as i64) };
        }
        for i in 0..4 {
            let b = (P + 1 + i * P) as i64;
            assert_eq!(bufs[1][b as usize], chain(&bufs[0], b, &ts), "point {b}");
        }
    }

    #[test]
    fn miri_tap_row_generic_count() {
        // Three weighted taps (no specialized loop), including a -0.0
        // coefficient, unscaled and scaled, on a contiguous row and on a
        // column strip: the tap-at-a-time accumulation into the stored row
        // must land on the chain's value bit for bit.
        let taps = vec![
            Tap { arr: 0, delta: -1, coef: Some(0.5) },
            Tap { arr: 0, delta: 0, coef: Some(-0.0) },
            Tap { arr: 0, delta: 1, coef: None },
        ];
        for scale in [None, Some(-0.0), Some(0.75)] {
            let ts = TapSum { arr: 1, delta: 0, taps: taps.clone(), scale };
            let k = fused(vec![ts.clone()], i64::MAX);
            for (base, count, step) in [(1, 20, 1), (P as i64 + 1, 4, P as i64)] {
                let mut bufs = grid();
                {
                    let arrs = arrs_of(&mut bufs);
                    // SAFETY: the contiguous points 1..=20 and the strided
                    // points 7, 13, 19, 25 with deltas -1..=1 touch flat
                    // indices in [0, 26] < 36; taps read slot 0, the sum
                    // stores slot 1.
                    unsafe { run_row_fused(&k, &arrs, base, count, step) };
                }
                for i in 0..count {
                    let b = base + i * step;
                    let want = chain(&bufs[0], b, &ts).to_bits();
                    assert_eq!(bufs[1][b as usize].to_bits(), want, "{scale:?} at {b}");
                }
            }
        }
    }

    #[test]
    fn miri_tap_row_scaled_matches_checked_scalar() {
        // Jacobi's form: four unit taps then one scale, and a weighted
        // variant; the fused row must equal the checked scalar executor
        // bit for bit.
        let star4 =
            |coef| [P, -P, 1, -1].into_iter().map(|delta| Tap { arr: 0, delta, coef }).collect();
        for taps in [star4(None), star4(Some(0.3))] {
            let ts = TapSum { arr: 1, delta: 0, taps, scale: Some(0.25) };
            let (mut fast, mut slow) = (grid(), grid());
            let k = fused(vec![ts.clone()], i64::MAX);
            let mut regs = [0.0f64; 1];
            {
                let (fa, sa) = (arrs_of(&mut fast), arrs_of(&mut slow));
                // SAFETY: points 7..=10 with deltas -6..=6 touch [1, 16] < 36.
                unsafe { run_row_fused(&k, &fa, P as i64 + 1, 4, 1) };
                // SAFETY: same row; CHECKED asserts every access.
                unsafe { run_row::<true>(&k, &sa, &mut regs, P as i64 + 1, 4, 1) };
            }
            assert_eq!(fast, slow);
            let b = P as i64 + 2;
            assert_eq!(fast[1][b as usize], chain(&fast[0], b, &ts));
        }
    }

    #[test]
    fn miri_run_row_unchecked_and_checked_match() {
        let mut bufs = vec![vec![0.0f64; 16], (0..16).map(|i| i as f64).collect::<Vec<_>>()];
        let ops = [
            Op::Load { dst: 0, arr: 1, delta: -1 },
            Op::BinImmR { op: BinOp::Add, dst: 1, a: 0, v: 10.0 },
            Op::Store { arr: 0, delta: 0, src: 1 },
        ];
        let mut regs = [0.0f64; 2];
        {
            let arrs = arrs_of(&mut bufs);
            // Points 1..=14: every access (delta -1..0) stays in [0, 16).
            // SAFETY: regs/slots < 2; min index 0, max index 14 < 16.
            unsafe { run_row::<false>(&code(&ops), &arrs, &mut regs, 1, 7, 1) };
            // SAFETY: same contract; the checked variant asserts per access.
            unsafe { run_row::<true>(&code(&ops), &arrs, &mut regs, 8, 7, 1) };
        }
        for (i, &v) in bufs[0].iter().enumerate().take(15).skip(1) {
            assert_eq!(v, (i - 1) as f64 + 10.0, "point {i}");
        }
        assert_eq!(bufs[0][0], 0.0);
        assert_eq!(bufs[0][15], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn miri_checked_row_panics_like_the_interpreter() {
        let mut bufs = vec![vec![0.0f64; 8]];
        let ops = [Op::Const { dst: 0, v: 1.0 }, Op::Store { arr: 0, delta: 0, src: 0 }];
        let mut regs = [0.0f64; 1];
        let arrs = arrs_of(&mut bufs);
        // SAFETY: regs/slots in range; CHECKED = true asserts every index,
        // so the out-of-range fourth point panics instead of writing.
        unsafe { run_row::<true>(&code(&ops), &arrs, &mut regs, 5, 4, 1) };
    }

    #[test]
    fn miri_chunked_row_contiguous_and_strided() {
        // 40 points: a full 32-lane chunk plus an 8-point tail, once with
        // step 1 (memcpy-style block moves) and once with step 2 (per-lane
        // loops), both against the same scalar recurrence.
        const N: usize = 96;
        let mut bufs =
            vec![vec![0.0f64; N], (0..N).map(|i| ((i * i) % 37) as f64).collect::<Vec<_>>()];
        let ops = [
            Op::Load { dst: 0, arr: 1, delta: 0 },
            Op::BinImmR { op: BinOp::Mul, dst: 1, a: 0, v: 3.0 },
            Op::Store { arr: 0, delta: 0, src: 1 },
        ];
        let mut strips = vec![0.0f64; 2 * LANES];
        {
            let arrs = arrs_of(&mut bufs);
            // SAFETY: regs/slots < 2; step-1 indices span [0, 40) and
            // step-2 indices span [40, 95), all < 96; `strips` holds
            // 2 registers x LANES lanes; stores and loads hit different
            // arrays, so chunking is alias-free.
            unsafe { run_row_vec(&ops, &arrs, &mut strips, 0, 40, 1) };
            // SAFETY: same contract, step-2 half.
            unsafe { run_row_vec(&ops, &arrs, &mut strips, 40, 28, 2) };
        }
        for (i, &v) in bufs[0].iter().enumerate().take(40) {
            assert_eq!(v, 3.0 * (((i * i) % 37) as f64), "step-1 point {i}");
        }
        for k in 0..28usize {
            let i = 40 + 2 * k;
            assert_eq!(bufs[0][i], 3.0 * (((i * i) % 37) as f64), "step-2 point {k}");
        }
    }

    #[test]
    fn miri_chunked_predicated_store_lanes() {
        // WHERE (x > 20) x = -x through the chunked SelStore path; the
        // store's delta equals the load's, so per-lane locations coincide
        // (diff 0) and chunking is admissible.
        const N: usize = 40;
        let mut bufs = vec![(0..N).map(|i| i as f64).collect::<Vec<f64>>()];
        let ops = [
            Op::Load { dst: 0, arr: 0, delta: 0 },
            Op::CmpImmR { op: CmpOp::Gt, dst: 1, a: 0, v: 20.0 },
            Op::Neg { dst: 2, src: 0 },
            Op::SelStore { arr: 0, delta: 0, c: 1, t: 2, e: 0 },
        ];
        let mut strips = vec![0.0f64; 3 * LANES];
        {
            let arrs = arrs_of(&mut bufs);
            // SAFETY: regs < 3, one slot; indices span [0, N); strips holds
            // 3 registers x LANES lanes.
            unsafe { run_row_vec(&ops, &arrs, &mut strips, 0, N as i64, 1) };
        }
        for (i, &v) in bufs[0].iter().enumerate() {
            let want = if i as f64 > 20.0 { -(i as f64) } else { i as f64 };
            assert_eq!(v, want, "point {i}");
        }
    }
}
