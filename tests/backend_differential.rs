//! Differential testing of the compiled-kernel backend: any kernel, at any
//! pipeline stage, on any grid, must produce **bitwise-identical** results
//! under the bytecode backend and the tree interpreter, on the sequential,
//! threaded, and split-phase threaded-overlap engines — the interpreter on
//! the sequential engine is the oracle everything else is checked against.
//! Per-PE operation counters must agree too, since the bytecode VM
//! bulk-counts the same loads/stores/flops/iters and the overlap engine
//! computes the same points through the same schedules, merely reordered.
//! Statements the offset-array pipeline leaves as weighted sums of loads
//! compile to fused tap-sum ops; those are checked to fire, and checked
//! bitwise across the superstep depths too.

use hpf_bench::workload::{generate, WorkloadSpec};
use hpf_stencil::codegen::{compile_nest, CompiledNest, Op};
use hpf_stencil::exec::nest::scalar_values;
use hpf_stencil::passes::{CompileOptions, NodeItem, Stage};
use hpf_stencil::runtime::PeStats;
use hpf_stencil::{presets, Backend, Engine, Kernel, Machine, MachineConfig};
use proptest::prelude::*;

const COMBOS: [(Engine, Backend); 6] = [
    (Engine::Sequential, Backend::Interp),
    (Engine::Sequential, Backend::Bytecode),
    (Engine::Threaded, Backend::Interp),
    (Engine::Threaded, Backend::Bytecode),
    (Engine::ThreadedOverlap, Backend::Interp),
    (Engine::ThreadedOverlap, Backend::Bytecode),
];

/// Gathered output arrays by name.
type Outputs = Vec<(String, Vec<f64>)>;

/// Run one (engine, backend) combination; return the gathered outputs (only
/// those arrays the program actually allocates) and the per-PE counters.
fn run_combo(
    kernel: &Kernel,
    grid: &[usize],
    engine: Engine,
    backend: Backend,
    outputs: &[&str],
) -> (Outputs, Vec<PeStats>) {
    let mut runner = kernel
        .runner(MachineConfig::with_grid(grid.to_vec()))
        .init("U", |p| ((p[0] * 13 + p[1] * 7) as f64 * 0.03).sin())
        .engine(engine)
        .backend(backend);
    if kernel.array_id("V").is_ok() {
        runner = runner.init("V", |p| ((p[0] - 2 * p[1]) as f64 * 0.05).cos());
    }
    let run = runner.run().unwrap_or_else(|e| panic!("{engine:?}/{backend:?} failed: {e}"));
    let mut arrays = Vec::new();
    for name in outputs {
        let id = kernel.array_id(name).unwrap();
        if run.machine.is_allocated(id) {
            arrays.push((name.to_string(), run.machine.gather(id)));
        }
    }
    (arrays, run.stats().per_pe)
}

fn grid_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        Just(vec![1, 1]),
        Just(vec![2, 2]),
        Just(vec![1, 2]),
        Just(vec![2, 1]),
        Just(vec![3, 2]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The headline invariant of the codegen backend: random stencil
    /// kernels (shift chains, EOSHIFT boundaries, WHERE masks, accumulation
    /// statements, time loops) are bitwise-equal across all six
    /// engine × backend combinations, with identical per-PE counters.
    #[test]
    fn random_kernels_bitwise_equal_across_backends(
        seed in 0u64..1_000_000,
        stmts in 1usize..=4,
        time_loop in prop_oneof![Just(None), Just(Some(2usize)), Just(Some(3))],
        grid in grid_strategy(),
        stage_idx in 0usize..5,
    ) {
        let spec = WorkloadSpec { n: 10, stmts, time_loop, ..Default::default() };
        let src = generate(&spec, seed);
        let stage = Stage::all()[stage_idx];
        let kernel = Kernel::compile(&src, CompileOptions::upto(stage))
            .unwrap_or_else(|e| panic!("compile failed for:\n{src}\n{e}"));
        let (base_arrays, base_stats) =
            run_combo(&kernel, &grid, Engine::Sequential, Backend::Interp, &["T", "S"]);
        for (engine, backend) in COMBOS {
            let (arrays, stats) = run_combo(&kernel, &grid, engine, backend, &["T", "S"]);
            prop_assert_eq!(
                &base_arrays, &arrays,
                "{:?}/{:?} differs at stage {:?} grid {:?} for:\n{}",
                engine, backend, stage, &grid, &src
            );
            prop_assert_eq!(
                &base_stats, &stats,
                "{:?}/{:?} per-PE counters differ at stage {:?} for:\n{}",
                engine, backend, stage, &src
            );
        }
    }
}

#[test]
fn problem9_bitwise_equal_every_stage_and_combo() {
    for stage in Stage::all() {
        let kernel = Kernel::compile(&presets::problem9(16), CompileOptions::upto(stage)).unwrap();
        let base = run_combo(&kernel, &[2, 2], Engine::Sequential, Backend::Interp, &["T"]);
        for (engine, backend) in COMBOS {
            let got = run_combo(&kernel, &[2, 2], engine, backend, &["T"]);
            assert_eq!(base, got, "{engine:?}/{backend:?} differs at stage {stage:?}");
        }
    }
}

#[test]
fn lint_dirty_kernel_takes_fallback_yet_stays_bitwise_equal() {
    // Deleting an OVERLAP_SHIFT makes the kernel halo-unsafe (HS001), so
    // the overlap engine's lint gate must refuse to split it and fall back
    // to the blocking plan. All engines then execute the *same* broken node
    // program — results still agree bitwise across every combination (they
    // are wrong relative to the source semantics, but identically so).
    let mut kernel = Kernel::compile(&presets::problem9(16), CompileOptions::full()).unwrap();
    assert!(kernel.drop_overlap_shift(0), "Problem 9 has shifts to drop");
    assert!(
        hpf_stencil::analysis::has_errors(&kernel.lint()),
        "dropping a shift must trip the halo-safety lint"
    );
    let base = run_combo(&kernel, &[2, 2], Engine::Sequential, Backend::Interp, &["T"]);
    for (engine, backend) in COMBOS {
        let got = run_combo(&kernel, &[2, 2], engine, backend, &["T"]);
        assert_eq!(base, got, "{engine:?}/{backend:?} differs on the lint-dirty kernel");
    }
}

/// Run `kernel` as a persistent plan at superstep depth `k` for exactly
/// `logical_steps` logical steps (depth k fuses `k` of them per machine step
/// on flat kernels), returning the gathered outputs, the built plan's
/// supersteps-per-step count (0 = fell back to the classic schedule) and
/// the per-PE counters.
#[allow(clippy::too_many_arguments)]
fn run_superstep(
    kernel: &Kernel,
    grid: &[usize],
    engine: Engine,
    backend: Backend,
    k: usize,
    logical_steps: usize,
    input: &str,
    outputs: &[&str],
) -> (Outputs, u64, Vec<PeStats>) {
    let cfg = hpf_stencil::ExecConfig::new().engine(engine).backend(backend).superstep(k);
    let mut plan = kernel
        .plan(MachineConfig::with_grid(grid.to_vec()))
        .init(input, |p| ((p[0] * 13 + p[1] * 7) as f64 * 0.03).sin())
        .config(cfg)
        .build()
        .unwrap_or_else(|e| panic!("{engine:?}/{backend:?} ss={k} failed to build: {e}"));
    let per = plan.logical_steps_per_step();
    assert_eq!(logical_steps % per, 0, "budget {logical_steps} not divisible at depth {k}");
    plan.iterate(logical_steps / per);
    let mut arrays = Vec::new();
    for name in outputs {
        arrays.push((name.to_string(), plan.gather(name).unwrap()));
    }
    (arrays, plan.supersteps_per_step(), plan.stats().per_pe)
}

#[test]
fn superstep_depths_bitwise_equal_across_backends() {
    // The deep-halo superstep schedule must be invisible to the results: at
    // the same logical step count, depths 2 and 4 match the classic depth-1
    // sequential-interpreter oracle bitwise, on every engine x backend
    // combination and on uneven grids.
    let kernel = Kernel::compile(&presets::problem9(18), CompileOptions::full()).unwrap();
    for grid in [&[2usize, 2][..], &[3, 2]] {
        let (oracle, ..) =
            run_superstep(&kernel, grid, Engine::Sequential, Backend::Interp, 1, 4, "U", &["T"]);
        for k in [1usize, 2, 4] {
            for (engine, backend) in COMBOS {
                let (got, supersteps, _) =
                    run_superstep(&kernel, grid, engine, backend, k, 4, "U", &["T"]);
                assert_eq!(oracle, got, "{engine:?}/{backend:?} ss={k} differs on grid {grid:?}");
                if k > 1 {
                    assert!(
                        supersteps >= 1,
                        "{engine:?}/{backend:?} ss={k} silently fell back on grid {grid:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn superstep_time_loop_tiles_in_place_and_stays_bitwise_equal() {
    // Jacobi's TIME loop is the other eligible shape: the superstep tiles
    // the loop body in place (k iterations per exchange), so one machine
    // step still covers the whole loop and iterate counts stay unchanged.
    let kernel = Kernel::compile(&presets::jacobi(16, 4), CompileOptions::full()).unwrap();
    let (oracle, ..) =
        run_superstep(&kernel, &[2, 2], Engine::Sequential, Backend::Interp, 1, 2, "U", &["U"]);
    for k in [2usize, 4] {
        for (engine, backend) in COMBOS {
            let (got, supersteps, _) =
                run_superstep(&kernel, &[2, 2], engine, backend, k, 2, "U", &["U"]);
            assert_eq!(oracle, got, "{engine:?}/{backend:?} ss={k} differs on the time loop");
            assert!(supersteps >= 1, "{engine:?}/{backend:?} ss={k} fell back on the time loop");
        }
    }
}

#[test]
fn superstep_ineligible_kernel_falls_back_with_diagnostic() {
    // image_blur reads through EOSHIFT (value-dependent boundaries), which
    // the coverage analysis rejects (SS002): a depth-4 request must fall
    // back to the classic schedule, say so in the diagnostics, and still
    // match the classic oracle bitwise on every combination.
    let kernel = Kernel::compile(&presets::image_blur(12, 4), CompileOptions::full()).unwrap();
    let diags = hpf_stencil::exec::superstep_diags(&kernel.compiled.node, 4);
    assert!(
        diags.iter().any(|d| d.code == "SS002"),
        "EOSHIFT kernel must be rejected with SS002: {diags:?}"
    );
    let (oracle, ..) =
        run_superstep(&kernel, &[2, 2], Engine::Sequential, Backend::Interp, 1, 2, "IMG", &["OUT"]);
    for (engine, backend) in COMBOS {
        let (got, supersteps, _) =
            run_superstep(&kernel, &[2, 2], engine, backend, 4, 2, "IMG", &["OUT"]);
        assert_eq!(oracle, got, "{engine:?}/{backend:?} fallback differs");
        assert_eq!(supersteps, 0, "{engine:?}/{backend:?} must fall back to classic");
    }
}

#[test]
fn bytecode_backend_reports_kernel_counters() {
    let kernel = Kernel::compile(&presets::problem9(12), CompileOptions::full()).unwrap();
    let run = kernel
        .runner(MachineConfig::sp2_2x2())
        .init("U", |p| (p[0] + p[1]) as f64)
        .backend(Backend::Bytecode)
        .run()
        .unwrap();
    let st = run.stats();
    assert!(st.kernels_compiled > 0, "nests compiled to bytecode");
    assert_eq!(st.kernel_execs, st.kernels_compiled, "one sweep executes each kernel once");
    // The interpreter backend never touches these counters.
    let run =
        kernel.runner(MachineConfig::sp2_2x2()).init("U", |p| (p[0] + p[1]) as f64).run().unwrap();
    assert_eq!(run.stats().kernels_compiled, 0);
    assert_eq!(run.stats().kernel_execs, 0);
}

#[test]
fn bytecode_plan_compiles_once_and_reuses_across_steps() {
    let kernel = Kernel::compile(&presets::jacobi(16, 1), CompileOptions::full()).unwrap();
    let init = |p: &[i64]| ((p[0] * 5 + p[1] * 3) as f64).sin();
    let mut plan = kernel
        .plan(MachineConfig::sp2_2x2())
        .init("U", init)
        .backend(Backend::Bytecode)
        .build()
        .unwrap();
    plan.iterate(5);
    let st = plan.stats();
    assert!(st.kernels_compiled > 0);
    // Compiled once at build; each of the 5 steps re-executes every kernel.
    assert_eq!(st.kernel_execs, 5 * st.kernels_compiled);
    // And the stepped state matches an interpreter-backend plan bitwise.
    let mut plan_i = kernel.plan(MachineConfig::sp2_2x2()).init("U", init).build().unwrap();
    plan_i.iterate(5);
    assert_eq!(plan.gather("U").unwrap(), plan_i.gather("U").unwrap());
    assert_eq!(plan.stats().per_pe, plan_i.stats().per_pe);
}

/// Every bytecode kernel the plan builder compiles for `kernel` on `grid`:
/// one per (nest, PE).
fn kernels_of(kernel: &Kernel, grid: &[usize]) -> Vec<CompiledNest> {
    let mut machine = Machine::new(MachineConfig::with_grid(grid.to_vec()));
    hpf_stencil::exec::allocate(&mut machine, &kernel.compiled.node).unwrap();
    let scalars = scalar_values(&kernel.compiled.node.symbols);
    let mut out = Vec::new();
    kernel.compiled.node.for_each_item(&mut |it| {
        if let NodeItem::Nest(nest) = it {
            for pe in &machine.pes {
                out.push(compile_nest(nest, pe, &scalars).expect("nest compiles"));
            }
        }
    });
    out
}

/// Does every kernel run both of its bodies as fused tap-sum rows?
fn all_fused(kernels: &[CompiledNest]) -> bool {
    let tap_sums_only = |ops: &[Op]| ops.iter().all(|op| matches!(op, Op::TapSum { .. }));
    kernels.iter().all(|cn| {
        let (jammed, unit) = cn.ops();
        cn.fused() == (true, true) && tap_sums_only(jammed) && unit.is_none_or(tap_sums_only)
    })
}

#[test]
fn problem9_and_jacobi_run_fused_tap_sums_on_every_pe() {
    // The offset-array pipeline turns every statement of both presets into
    // a weighted sum of loads (9 unit taps, 4 taps scaled by 0.25, and the
    // 1-tap `U = T` copy): each must reach the VM as fused tap-sum ops.
    for src in [presets::problem9(64), presets::jacobi(64, 2)] {
        let kernel = Kernel::compile(&src, CompileOptions::full()).unwrap();
        let kernels = kernels_of(&kernel, &[2, 2]);
        assert!(!kernels.is_empty());
        assert!(all_fused(&kernels), "a preset nest stopped fusing:\n{src}");
    }
}

/// One term of a generated tap sum: `U` read at offset `(di, dj)`, with an
/// optional coefficient.
type TapSpec = (i64, i64, Option<f64>);

/// `T = [scale *] (c0*U(i+di,j+dj) + ...)` then `U = T`, every offset read
/// through (nested) CSHIFTs so the offset-array pass makes it a tap.
fn tap_sum_source(n: usize, taps: &[TapSpec], scale: Option<f64>) -> String {
    let term = |&(di, dj, coef): &TapSpec| {
        let mut u = "U".to_string();
        if di != 0 {
            u = format!("CSHIFT({u},{di},1)");
        }
        if dj != 0 {
            u = format!("CSHIFT({u},{dj},2)");
        }
        coef.map_or(u.clone(), |c| format!("({c:?})*{u}"))
    };
    let sum = taps.iter().map(term).collect::<Vec<_>>().join(" + ");
    let rhs = scale.map_or(sum.clone(), |c| format!("({c:?})*({sum})"));
    format!(
        "PROGRAM taps\nPARAM N = {n}\nREAL U(N,N), T(N,N)\n\
         !HPF$ DISTRIBUTE U(BLOCK,BLOCK)\n!HPF$ DISTRIBUTE T(BLOCK,BLOCK)\n\
         T = {rhs}\nU = T\nEND\n"
    )
}

/// Coefficients and scales: absent, the identity, negative zero, or a
/// non-dyadic value that rounds.
fn constant() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        3 => Just(None),
        1 => Just(Some(1.0)),
        1 => Just(Some(-0.0)),
        3 => (-20i64..=20).prop_map(|k| Some(k as f64 * 0.1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random tap sums — 1 to 12 taps at random in-halo offsets, random
    /// coefficients and scales — must fuse on every PE and stay bitwise
    /// equal to the sequential interpreter across every engine × backend
    /// combination at superstep depths 1, 2 and 4, with per-PE counters
    /// equal to the interpreter's at the same depth.
    #[test]
    fn random_tap_sums_bitwise_equal_across_engines_and_depths(
        taps in prop::collection::vec((-1i64..=1, -1i64..=1, constant()), 1..=12),
        scale in constant(),
        grid in prop_oneof![Just(vec![2usize, 2]), Just(vec![2, 1])],
    ) {
        let src = tap_sum_source(16, &taps, scale);
        let kernel = Kernel::compile(&src, CompileOptions::full())
            .unwrap_or_else(|e| panic!("compile failed for:\n{src}\n{e}"));
        prop_assert!(all_fused(&kernels_of(&kernel, &grid)), "not fused:\n{}", src);
        let (oracle, ..) =
            run_superstep(&kernel, &grid, Engine::Sequential, Backend::Interp, 1, 4, "U", &["T"]);
        for k in [1usize, 2, 4] {
            let (_, _, base_stats) =
                run_superstep(&kernel, &grid, Engine::Sequential, Backend::Interp, k, 4, "U", &["T"]);
            for (engine, backend) in COMBOS {
                let (got, supersteps, stats) =
                    run_superstep(&kernel, &grid, engine, backend, k, 4, "U", &["T"]);
                prop_assert_eq!(
                    &oracle, &got,
                    "{:?}/{:?} ss={} grid {:?} differs for:\n{}", engine, backend, k, &grid, &src
                );
                prop_assert_eq!(
                    &base_stats, &stats,
                    "{:?}/{:?} ss={} per-PE counters differ for:\n{}", engine, backend, k, &src
                );
                // A lone shifted read stays a full-shift copy, which the
                // superstep declines with a diagnostic; nothing else may
                // fall back.
                let declined = !hpf_stencil::exec::superstep_diags(&kernel.compiled.node, k)
                    .is_empty();
                prop_assert!(
                    k == 1 || supersteps >= 1 || declined,
                    "ss={} fell back silently for:\n{}", k, &src
                );
            }
        }
    }
}
