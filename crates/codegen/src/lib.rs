//! Compiled stencil kernels: bytecode code generation for fused loop nests.
//!
//! The SC'97 pipeline's memory optimizations (scalar replacement,
//! unroll-and-jam, loop permutation) leave each statement as a fused
//! `LoopNest` that the executors in `hpf-exec` walk with a tree
//! interpreter. This crate adds the compiled alternative — the "backend"
//! half of a stencil-DSL compilation stack:
//!
//! 1. [`compile_nest`] lowers a nest once per (nest, PE layout) into a
//!    [`CompiledNest`]: a compact register bytecode ([`Op`]) with offsets
//!    flattened to index deltas, coefficients constant-folded into
//!    immediates, single-definition constants hoisted to per-execution
//!    preloads, WHERE masks fused into predicated stores, and
//!    multiply-accumulate chains fused (two roundings — never FMA). A body
//!    whose every statement is a weighted sum of loads — every nest the
//!    offset-array pipeline makes of Problem 9 and Jacobi — becomes one
//!    fused tap-sum op per statement ([`Op::TapSum`]).
//! 2. [`exec_compiled`] runs the bytecode over `Subgrid` storage row by
//!    row: one hoisted bounds check per row proves every access of the row
//!    in range, and the interior then executes over the flat slice with
//!    unchecked indexing. The jammed body covers interior (multiple-of-
//!    factor) iterations; remainder/boundary iterations run the unit body.
//!    Fused tap-sum bodies sweep each row memory-to-memory in loops
//!    monomorphized on the tap count.
//!
//! Results are bitwise identical to the interpreter, and the `PeStats`
//! counters match exactly: the interpreter stays the oracle, enforced by
//! differential tests in `hpf-exec` and differential proptests at the
//! workspace root.
//!
//! Nests the compiler cannot prove safe to specialize (mixed subgrid
//! layouts, index-range overflow) report `None` from [`compile_nest`] and
//! stay on the interpreter — per (nest, PE), not per program.
//!
//! Every invariant the unchecked executors rely on is machine-checked by
//! the [`verify`] module's abstract interpreter (`BV001`–`BV004`), run in
//! debug/checked builds and by `hpfsc --verify`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod bytecode;
pub mod verify;
mod vm;

pub use bytecode::{reads_before_def, KernelCode, Op, Reg, Slot, Tap, TapSum};
pub use verify::{verify_nest, Fault, BV001, BV002, BV003, BV004};
pub use vm::{compile_nest, exec_compiled, exec_compiled_over, exec_compiled_range, CompiledNest};

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_ir::expr::CmpOp;
    use hpf_ir::{ArrayDecl, ArrayId, BinOp, Distribution, Section, Shape, ShiftKind};
    use hpf_passes::loopir::{Instr, LoopNest, Unroll};
    use hpf_runtime::{Machine, MachineConfig, PeStats};

    const U: ArrayId = ArrayId(0);
    const T: ArrayId = ArrayId(1);

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::sp2_2x2());
        m.alloc(U, &ArrayDecl::user("U", Shape::new([8, 8]), Distribution::block(2))).unwrap();
        m.alloc(T, &ArrayDecl::user("T", Shape::new([8, 8]), Distribution::block(2))).unwrap();
        m.fill(U, |p| (p[0] * 100 + p[1]) as f64);
        m
    }

    fn copy_nest(space: Section, offsets: Vec<i64>) -> LoopNest {
        LoopNest {
            space,
            order: vec![0, 1],
            body: vec![
                Instr::Load { dst: 0, array: U, offsets },
                Instr::Store { array: T, offsets: vec![0, 0], src: 0 },
            ],
            regs: 1,
            unroll: None,
        }
    }

    fn run_all(m: &mut Machine, nest: &LoopNest, scalars: &[f64]) {
        for pe in 0..m.num_pes() {
            let cn = compile_nest(nest, &m.pes[pe], scalars).expect("compilable");
            exec_compiled(&mut m.pes[pe], &cn);
        }
    }

    #[test]
    fn interior_copy_respects_spmd_bounds() {
        let mut m = machine();
        let nest = copy_nest(Section::new([(2, 7), (2, 7)]), vec![0, 0]);
        run_all(&mut m, &nest, &[]);
        assert_eq!(m.get(T, &[2, 2]), 202.0);
        assert_eq!(m.get(T, &[7, 7]), 707.0);
        assert_eq!(m.get(T, &[1, 1]), 0.0, "outside the space untouched");
        let agg = m.stats();
        assert_eq!(agg.total().loads, 36);
        assert_eq!(agg.total().stores, 36);
        assert_eq!(agg.total().iters, 36);
    }

    #[test]
    fn offset_load_reads_halo() {
        let mut m = machine();
        m.overlap_shift(U, 1, 0, None, ShiftKind::Circular).unwrap();
        m.reset_stats();
        let nest = copy_nest(Section::new([(1, 8), (1, 8)]), vec![1, 0]);
        run_all(&mut m, &nest, &[]);
        assert_eq!(m.get(T, &[4, 2]), 502.0, "cross-PE row via halo");
        assert_eq!(m.get(T, &[8, 3]), 103.0, "global wrap via halo");
    }

    #[test]
    fn scalar_coefficient_resolves_and_hoists() {
        let nest = LoopNest {
            space: Section::new([(1, 8), (1, 8)]),
            order: vec![0, 1],
            body: vec![
                Instr::LoadScalar { dst: 0, id: hpf_ir::ScalarId(0) },
                Instr::Load { dst: 1, array: U, offsets: vec![0, 0] },
                Instr::Bin { op: BinOp::Mul, dst: 2, a: 0, b: 1 },
                Instr::Store { array: T, offsets: vec![0, 0], src: 2 },
            ],
            regs: 3,
            unroll: None,
        };
        let mut m = machine();
        let cn = compile_nest(&nest, &m.pes[0], &[2.5]).unwrap();
        // The coefficient folds into a weighted tap: per-point code is one
        // fused tap sum, `T = 2.5 * U`.
        assert_eq!(cn.ops().0, &[Op::TapSum { id: 0 }]);
        assert_eq!(cn.jammed.sums[0].taps[0].coef, Some(2.5));
        run_all(&mut m, &nest, &[2.5]);
        assert_eq!(m.get(T, &[3, 4]), 2.5 * 304.0);
        assert_eq!(m.stats().total().flops, 64, "flops counted from the source body");
    }

    #[test]
    fn where_mask_executes_as_predicated_store() {
        // WHERE (U - 450 > 0) T = 2*U (T was zero-filled at alloc).
        let nest = LoopNest {
            space: Section::new([(1, 8), (1, 8)]),
            order: vec![0, 1],
            body: vec![
                Instr::Load { dst: 0, array: U, offsets: vec![0, 0] },
                Instr::Const { dst: 1, value: 450.0 },
                Instr::Bin { op: BinOp::Sub, dst: 2, a: 0, b: 1 },
                Instr::Const { dst: 3, value: 0.0 },
                Instr::Cmp { op: CmpOp::Gt, dst: 4, a: 2, b: 3 },
                Instr::Const { dst: 5, value: 2.0 },
                Instr::Bin { op: BinOp::Mul, dst: 6, a: 5, b: 0 },
                Instr::Load { dst: 7, array: T, offsets: vec![0, 0] },
                Instr::Select { dst: 8, c: 4, t: 6, e: 7 },
                Instr::Store { array: T, offsets: vec![0, 0], src: 8 },
            ],
            regs: 9,
            unroll: None,
        };
        let mut m = machine();
        let cn = compile_nest(&nest, &m.pes[0], &[]).unwrap();
        assert!(cn.ops().0.iter().any(|o| matches!(o, Op::SelStore { .. })));
        run_all(&mut m, &nest, &[]);
        for i in 1..=8i64 {
            for j in 1..=8i64 {
                let u = (i * 100 + j) as f64;
                let want = if u > 450.0 { 2.0 * u } else { 0.0 };
                assert_eq!(m.get(T, &[i, j]), want, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn unrolled_nest_covers_all_points_with_remainder() {
        let unit = vec![
            Instr::Load { dst: 0, array: U, offsets: vec![0, 0] },
            Instr::Store { array: T, offsets: vec![0, 0], src: 0 },
        ];
        let mut jammed = unit.clone();
        let mut second = unit.clone();
        for i in &mut second {
            i.remap(&mut |r| r + 1);
            i.shift_dim(0, 1);
        }
        jammed.extend(second);
        let nest = LoopNest {
            space: Section::new([(1, 7), (1, 8)]),
            order: vec![0, 1],
            body: jammed,
            regs: 2,
            unroll: Some(Unroll { dim: 0, factor: 2, unit_body: unit, unit_regs: 1 }),
        };
        let mut m = machine();
        run_all(&mut m, &nest, &[]);
        for i in 1..=7i64 {
            for j in 1..=8i64 {
                assert_eq!(m.get(T, &[i, j]), (i * 100 + j) as f64, "at ({i},{j})");
            }
        }
        assert_eq!(m.get(T, &[8, 1]), 0.0);
        assert_eq!(m.stats().total().loads, 56);
    }

    #[test]
    fn loop_carried_register_uses_strict_mode() {
        // r0 accumulates across iteration points (read before def). The
        // interpreter's register file persists across points and starts at
        // zero; strict mode must reproduce the same running sums.
        let nest = LoopNest {
            space: Section::new([(1, 8), (1, 8)]),
            order: vec![0, 1],
            body: vec![
                Instr::Load { dst: 1, array: U, offsets: vec![0, 0] },
                Instr::Bin { op: BinOp::Add, dst: 0, a: 0, b: 1 },
                Instr::Store { array: T, offsets: vec![0, 0], src: 0 },
            ],
            regs: 2,
            unroll: None,
        };
        let mut m = machine();
        run_all(&mut m, &nest, &[]);
        // PE 0 owns (1:4,1:4); its running sum over row-major local order.
        let mut acc = 0.0;
        for i in 1..=4i64 {
            for j in 1..=4i64 {
                acc += (i * 100 + j) as f64;
                assert_eq!(m.get(T, &[i, j]), acc, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn strided_order_counts_penalty() {
        let mut m = machine();
        let mut nest = copy_nest(Section::new([(1, 8), (1, 8)]), vec![0, 0]);
        nest.order = vec![1, 0];
        run_all(&mut m, &nest, &[]);
        let s = m.stats().total();
        assert_eq!(s.strided_loads, s.loads);
        assert_eq!(m.get(T, &[5, 6]), 506.0);
    }

    #[test]
    fn empty_intersection_is_noop() {
        let m_probe = machine();
        let nest = copy_nest(Section::new([(1, 2), (1, 2)]), vec![0, 0]);
        // PE 3 owns (5:8,5:8): no intersection.
        let mut m = m_probe;
        m.reset_stats();
        let cn = compile_nest(&nest, &m.pes[3], &[]).unwrap();
        exec_compiled(&mut m.pes[3], &cn);
        assert_eq!(m.pes[3].stats, PeStats::default());
    }

    #[test]
    fn chunked_rows_match_scalar_across_chunk_boundaries() {
        // Local rows of 40 points span two chunks of the vectorized row
        // executor (32 lanes + an 8-point tail); every point must still see
        // the exact scalar result.
        let mut m = Machine::new(MachineConfig::sp2_2x2());
        m.alloc(U, &ArrayDecl::user("U", Shape::new([80, 80]), Distribution::block(2))).unwrap();
        m.alloc(T, &ArrayDecl::user("T", Shape::new([80, 80]), Distribution::block(2))).unwrap();
        m.fill(U, |p| ((p[0] * 37 + p[1] * 11) % 101) as f64);
        let nest = LoopNest {
            space: Section::new([(1, 80), (1, 80)]),
            order: vec![0, 1],
            body: vec![
                Instr::Load { dst: 0, array: U, offsets: vec![0, 0] },
                Instr::Const { dst: 1, value: 2.0 },
                Instr::Bin { op: BinOp::Mul, dst: 2, a: 1, b: 0 },
                Instr::Bin { op: BinOp::Mul, dst: 3, a: 0, b: 0 },
                Instr::Bin { op: BinOp::Add, dst: 4, a: 2, b: 3 },
                Instr::Store { array: T, offsets: vec![0, 0], src: 4 },
            ],
            regs: 5,
            unroll: None,
        };
        let cn = compile_nest(&nest, &m.pes[0], &[]).unwrap();
        assert_eq!(cn.vectorized(), (true, true), "plain stencil rows must vectorize");
        run_all(&mut m, &nest, &[]);
        for i in 1..=80i64 {
            for j in 1..=80i64 {
                let u = ((i * 37 + j * 11) % 101) as f64;
                assert_eq!(m.get(T, &[i, j]), 2.0 * u + u * u, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn aliasing_and_loop_carried_bodies_stay_on_scalar_rows() {
        // A store one lane ahead of a load on the same array: chunked
        // execution would reorder the two, so the row stays point-at-a-time.
        let m = machine();
        let nest = LoopNest {
            space: Section::new([(1, 8), (1, 8)]),
            order: vec![0, 1],
            body: vec![
                Instr::Load { dst: 0, array: T, offsets: vec![0, 1] },
                Instr::Store { array: T, offsets: vec![0, 0], src: 0 },
            ],
            regs: 1,
            unroll: None,
        };
        let cn = compile_nest(&nest, &m.pes[0], &[]).unwrap();
        assert_eq!(cn.vectorized(), (false, false));
        // Loop-carried register state (strict mode) likewise stays scalar.
        let carried = LoopNest {
            space: Section::new([(1, 8), (1, 8)]),
            order: vec![0, 1],
            body: vec![
                Instr::Load { dst: 1, array: U, offsets: vec![0, 0] },
                Instr::Bin { op: BinOp::Add, dst: 0, a: 0, b: 1 },
                Instr::Store { array: T, offsets: vec![0, 0], src: 0 },
            ],
            regs: 2,
            unroll: None,
        };
        let cn = compile_nest(&carried, &m.pes[0], &[]).unwrap();
        assert_eq!(cn.vectorized(), (false, false));
    }

    #[test]
    fn folding_shrinks_a_coefficient_stencil() {
        // 0.1*U(i-1,j) + 0.2*U(i,j-1) + 0.4*U + 0.2*U(i+1,j) + 0.1*U(i,j+1):
        // 20 source instructions; constants hoist and mul-accs fuse.
        let mut body = Vec::new();
        let mut acc = None;
        for (k, (c, off)) in
            [(0.1, [-1i64, 0i64]), (0.2, [0, -1]), (0.4, [0, 0]), (0.2, [1, 0]), (0.1, [0, 1])]
                .into_iter()
                .enumerate()
        {
            let r = 4 * k as u16;
            body.push(Instr::Const { dst: r, value: c });
            body.push(Instr::Load { dst: r + 1, array: U, offsets: off.to_vec() });
            body.push(Instr::Bin { op: BinOp::Mul, dst: r + 2, a: r, b: r + 1 });
            if let Some(prev) = acc {
                body.push(Instr::Bin { op: BinOp::Add, dst: r + 3, a: prev, b: r + 2 });
                acc = Some(r + 3);
            } else {
                acc = Some(r + 2);
            }
        }
        body.push(Instr::Store { array: T, offsets: vec![0, 0], src: acc.unwrap() });
        let nest = LoopNest {
            space: Section::new([(2, 7), (2, 7)]),
            order: vec![0, 1],
            body,
            regs: 20,
            unroll: None,
        };
        let m = machine();
        let cn = compile_nest(&nest, &m.pes[0], &[]).unwrap();
        let n_ops = cn.ops().0.len();
        // 20 source instructions should compile to ~11 ops (5 loads, one
        // immediate mul, 4 fused mul-accs, one store).
        assert!(
            n_ops * 3 <= nest.body.len() * 2,
            "expected folding to shrink the body: {n_ops} ops from {} instrs",
            nest.body.len()
        );
        assert!(cn.preload_count() >= 1, "constants should hoist to preloads");
    }
}
